"""ScenarioSpec / SweepSpec: digests, validation, job expansion."""

import pickle

import pytest

from repro.fleet.presets import TINY
from repro.fleet.spec import (FAULT_KINDS, FaultEvent, ScenarioSpec,
                              SweepSpec, build_world, schedule_campaign,
                              spec_summary, validate_campaign_loci)
from repro.net.faults import RnicDown


def _spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="t", topology=TINY, duration_s=30,
        campaign=(FaultEvent.make("rnic_down", "host0-rnic0",
                                  start_s=5.0, end_s=20.0),))
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestFaultEvent:
    def test_make_sorts_params(self):
        event = FaultEvent.make("link_corruption", "a", "b",
                                start_s=1.0, end_s=2.0,
                                drop_prob=0.5, burst=3)
        assert event.params == (("burst", 3), ("drop_prob", 0.5))
        assert event.params_dict() == {"burst": 3, "drop_prob": 0.5}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent.make("bit_rot", "x", start_s=0.0)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="end_s"):
            FaultEvent.make("rnic_down", "x", start_s=5.0, end_s=5.0)
        with pytest.raises(ValueError, match="start_s"):
            FaultEvent.make("rnic_down", "x", start_s=-1.0)
        with pytest.raises(ValueError, match="locus"):
            FaultEvent.make("rnic_down", start_s=0.0)

    def test_unsorted_params_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FaultEvent(kind="rnic_down", loci=("x",), start_s=0.0,
                       params=(("z", 1), ("a", 2)))

    def test_identity_ignores_window(self):
        a = FaultEvent.make("rnic_down", "x", start_s=1.0, end_s=2.0)
        b = FaultEvent.make("rnic_down", "x", start_s=9.0)
        assert a.identity == b.identity

    def test_build_constructs_registry_fault(self, tiny_clos):
        event = FaultEvent.make("rnic_down", "host0-rnic0", start_s=0.0)
        fault = event.build(tiny_clos)
        assert isinstance(fault, RnicDown)

    def test_registry_covers_table2_constructors(self):
        assert len(FAULT_KINDS) >= 14


class TestScenarioSpec:
    def test_digest_stable_across_instances(self):
        assert _spec().spec_digest == _spec().spec_digest

    def test_digest_changes_with_content(self):
        assert _spec().spec_digest != _spec(duration_s=31).spec_digest
        assert _spec().spec_digest != _spec(metrics=False).spec_digest

    def test_timeout_excluded_from_digest(self):
        """Wall-clock budget must not change simulation identity."""
        assert _spec().spec_digest == _spec(timeout_s=120.0).spec_digest

    def test_label(self):
        spec = _spec()
        assert spec.label == f"t@{spec.spec_digest[:12]}"

    def test_validation(self):
        with pytest.raises(ValueError, match="name"):
            _spec(name="")
        with pytest.raises(ValueError, match="duration_s"):
            _spec(duration_s=0)
        with pytest.raises(ValueError, match="control_loss_prob"):
            _spec(control_loss_prob=1.0)
        with pytest.raises(ValueError, match="timeout_s"):
            _spec(timeout_s=0.0)

    def test_campaign_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            _spec(campaign=(FaultEvent.make("rnic_down", "host0-rnic0",
                                            start_s=30.0),))

    def test_pickle_round_trip(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.spec_digest == spec.spec_digest

    def test_summary(self):
        summary = spec_summary(_spec())
        assert summary["rnics"] == TINY.total_rnics
        assert summary["campaign_events"] == 1


class TestSweepSpec:
    def test_jobs_order(self):
        a, b = _spec(name="a"), _spec(name="b")
        sweep = SweepSpec(scenarios=(a, b), seeds=(0, 1))
        assert sweep.jobs() == [(a, 0), (a, 1), (b, 0), (b, 1)]

    def test_replicates_duplicate_jobs(self):
        sweep = SweepSpec(scenarios=(_spec(),), seeds=(0,), replicates=3)
        assert sweep.jobs() == [(_spec(), 0)] * 3

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            SweepSpec(scenarios=(), seeds=(0,))
        with pytest.raises(ValueError, match="seed"):
            SweepSpec(scenarios=(_spec(),), seeds=())
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(scenarios=(_spec(),), seeds=(0, 0))
        with pytest.raises(ValueError, match="unique"):
            SweepSpec(scenarios=(_spec(), _spec()), seeds=(0,))
        with pytest.raises(ValueError, match="replicates"):
            SweepSpec(scenarios=(_spec(),), seeds=(0,), replicates=0)

    def test_sweep_digest_stable(self):
        sweep = SweepSpec(scenarios=(_spec(),), seeds=(0, 1))
        again = SweepSpec(scenarios=(_spec(),), seeds=(0, 1))
        assert sweep.sweep_digest == again.sweep_digest


class TestLocusValidation:
    def test_accepts_known_loci(self, tiny_clos):
        validate_campaign_loci(_spec().campaign, tiny_clos)

    def test_rejects_unknown_device(self, tiny_clos):
        spec = _spec(campaign=(FaultEvent.make(
            "rnic_down", "host9-rnic9", start_s=1.0),))
        with pytest.raises(ValueError, match="unknown"):
            validate_campaign_loci(spec.campaign, tiny_clos)

    def test_host_faults_need_hosts_not_rnics(self, tiny_clos):
        spec = _spec(campaign=(FaultEvent.make(
            "cpu_overload", "host0-rnic0", start_s=1.0, load=0.9),))
        with pytest.raises(ValueError, match="unknown"):
            validate_campaign_loci(spec.campaign, tiny_clos)


class TestCampaignValidation:
    """One bad event fails the whole campaign with one ``ValueError``
    shape, before anything is armed — whoever the caller is."""

    GOOD = FaultEvent.make("rnic_down", "host0-rnic0", start_s=1.0)

    @pytest.mark.parametrize("bad", [
        FaultEvent.make("link_corruption", "nope", "pod0-agg0", start_s=5),
        FaultEvent.make("link_corruption", "pod0-tor0", start_s=5),
        FaultEvent.make("link_corruption", "pod0-tor0", "pod0-tor1",
                        start_s=5),
        FaultEvent.make("rnic_down", "host0-rnic0", start_s=5, volume=11),
        FaultEvent.make("control_plane_partition", "agent.host99",
                        start_s=5),
    ], ids=["unknown-locus", "wrong-arity", "no-such-link",
            "unknown-param", "unknown-endpoint"])
    def test_bad_event_schedules_nothing(self, bad):
        with pytest.raises(ValueError, match="campaign event '"):
            build_world(TINY, 0, campaign=(self.GOOD, bad))
        cluster, _, manager, _ = build_world(TINY, 0)
        before = cluster.sim.pending()
        with pytest.raises(ValueError, match="campaign event '"):
            schedule_campaign(manager, cluster, (self.GOOD, bad))
        assert manager.faults == []
        assert cluster.sim.pending() == before

    def test_good_campaign_comes_back_with_its_windows(self):
        world = build_world(TINY, 0, campaign=(self.GOOD,))
        [(fault, window)] = world.scheduled
        assert isinstance(fault, RnicDown)
        assert window == (10 ** 9, None)
        assert world.faults.faults == [fault]
