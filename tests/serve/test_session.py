"""ServeSession fault injection, below the HTTP layer."""

import pytest

from repro.fleet.presets import SMALL
from repro.fleet.spec import FAULT_KINDS, build_world
from repro.serve import ServeSession, ServeSpec, parse_fault_spec

CORRUPT = "link_corruption@{}:pod0-tor0,pod0-agg0:drop_prob=0.5"


def _run_to(session: ServeSession, second: int) -> None:
    while session.ticks < second:
        session.tick()


class TestInjectIdentity:
    """One ``(kind, loci, params)`` is one refcounted fault, however it
    reached the session: two ``inject`` calls, or a spec campaign event
    followed by an ``/inject``."""

    @pytest.mark.parametrize("from_spec", [False, True],
                             ids=["inject-inject", "campaign-inject"])
    def test_overlapping_windows_share_one_fault(self, from_spec):
        first = parse_fault_spec(CORRUPT.format("0-5"))
        session = ServeSession(ServeSpec(
            seed=3, campaign=(first,) if from_spec else ()))
        if not from_spec:
            session.inject(first)
        session.inject(parse_fault_spec(CORRUPT.format("2-20")))
        link = session.cluster.topology.link("pod0-tor0", "pod0-agg0")
        assert session.status()["faults_registered"] == 1
        for second in (6, 19):      # past the first window's end
            _run_to(session, second)
            assert link.corruption_drop_prob == pytest.approx(0.5)
            assert session.faults.active_ground_truths()
        _run_to(session, 21)
        assert link.corruption_drop_prob == 0.0
        assert not session.faults.active_ground_truths()


# One spec string per registry kind, in parse_fault_spec's grammar.
KIND_SPECS = {
    "switch_port_flapping": "switch_port_flapping@5-9:pod0-tor0,pod0-agg0"
                            ":period_ns=200000000",
    "rnic_flapping": "rnic_flapping@5-9:host0-rnic0",
    "link_corruption": "link_corruption@5:pod0-tor0,pod0-agg0"
                       ":drop_prob=0.5",
    "rnic_corruption": "rnic_corruption@5:host0-rnic0:drop_prob=0.5",
    "rnic_down": "rnic_down@5-9:host0-rnic0",
    "host_down": "host_down@5:host0",
    "pfc_deadlock": "pfc_deadlock@5:pod0-agg0,spine0",
    "rnic_routing_misconfig": "rnic_routing_misconfig@5:host0-rnic0",
    "rnic_gid_index_missing": "rnic_gid_index_missing@5:host0-rnic0",
    "switch_acl_error": "switch_acl_error@5:pod0-tor0",
    "pfc_headroom_misconfig": "pfc_headroom_misconfig@5:pod0-tor0,pod0-agg0",
    "link_overload": "link_overload@5:pod0-agg0,spine0"
                     ":extra_gbps=500,table2_row=11",
    "cpu_overload": "cpu_overload@5:host4:load=0.97",
    "pcie_downgrade": "pcie_downgrade@5:host1-rnic0",
    "rnic_acs_misconfig": "rnic_acs_misconfig@5:host1-rnic0",
    "link_failure": "link_failure@5:pod1-tor0,pod1-agg1",
    "control_plane_partition": "control_plane_partition@5-9:agent.host0",
}


class TestFaultVocabulary:
    def test_every_kind_has_a_spec_string(self):
        assert set(KIND_SPECS) == set(FAULT_KINDS)

    @pytest.mark.parametrize("kind", sorted(KIND_SPECS))
    def test_kind_builds_from_its_spec_string_on_small(self, kind):
        event = parse_fault_spec(KIND_SPECS[kind])
        assert event.kind == kind
        world = build_world(SMALL, 0, campaign=(event,))
        [(fault, (start_ns, _))] = world.scheduled
        assert type(fault) is FAULT_KINDS[kind]
        assert start_ns == 5 * 10 ** 9


class TestBadCampaign:
    def test_spec_campaign_with_a_bad_event_refused(self):
        bad = parse_fault_spec("link_corruption@5:nope,pod0-agg0")
        with pytest.raises(ValueError, match="unknown loci"):
            ServeSession(ServeSpec(campaign=(bad,)))

    def test_bad_inject_leaves_the_session_untouched(self):
        session = ServeSession(ServeSpec(seed=2))
        before = session.cluster.sim.pending()
        with pytest.raises(ValueError, match="campaign event"):
            session.inject(parse_fault_spec("link_corruption@5:pod0-tor0"))
        assert session.status()["faults_registered"] == 0
        assert session.cluster.sim.pending() == before
