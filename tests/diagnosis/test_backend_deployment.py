"""Backends deployed on a live cluster: wiring, fusion, digest hygiene."""

import pytest

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.diagnosis.bakeoff import (case_by_label, int_verdict_loci, record,
                                     run_case)
from repro.fleet.presets import SMALL, TINY
from repro.fleet.spec import FaultEvent, build_world
from repro.net.faults import FaultManager, LinkOverload
from repro.sim.units import seconds

HOT_LINK = "pod0-tor0->pod0-agg0"


def deploy(topology=TINY, seed=7, **config_kwargs):
    cluster = Cluster.clos(topology, seed=seed)
    system = RPingmesh(cluster, RPingmeshConfig(**config_kwargs))
    return cluster, system


def run_congested(cluster, system):
    system.start()
    faults = FaultManager(cluster)
    faults.schedule(LinkOverload(cluster, "pod0-tor0", "pod0-agg0",
                                 extra_gbps=520.0),
                    start_ns=seconds(5), end_ns=seconds(35))
    system.run(seconds(45))


class TestDefaultDeployment:
    def test_default_config_leaves_the_fabric_unhooked(self):
        cluster, system = deploy()
        assert set(system.backends) == {"probe"}
        assert cluster.fabric.int_collector is None

    def test_probe_backend_mirrors_analyzer_problems(self):
        cluster, system = deploy()
        run_congested(cluster, system)
        probe = system.backends["probe"]
        verdicts = probe.verdicts()
        assert len(verdicts) == len(system.analyzer.problems)
        assert {v.key() for v in verdicts} == \
            {p.key() for p in system.analyzer.problems}
        cost = probe.cost()
        assert cost.probe_packets > 0
        assert cost.telemetry_bytes == 0


class TestFusedDeployment:
    def test_int_backend_names_the_exact_directed_link(self):
        cluster, system = deploy(backends=("probe", "int"))
        assert cluster.fabric.int_collector is \
            system.backends["int"].collector
        run_congested(cluster, system)
        verdicts = system.backends["int"].verdicts()
        assert verdicts, "congestion must produce INT verdicts"
        assert {v.locus for v in verdicts} == {HOT_LINK}
        assert all(v.category == "high_rtt" for v in verdicts)
        assert all("cause=" in v.detail for v in verdicts)

    def test_fusion_counters_and_fused_problem_set(self):
        cluster, system = deploy(backends=("probe", "int"))
        run_congested(cluster, system)
        fusion = system.analyzer.fusion
        assert fusion.sharpened + fusion.annotated + fusion.added > 0
        assert any(p.locus == HOT_LINK and "int:" in p.detail
                   for p in system.analyzer.problems)

    def test_int_cost_is_telemetry_only(self):
        cluster, system = deploy(backends=("probe", "int"))
        run_congested(cluster, system)
        cost = system.backends["int"].cost()
        assert cost.probe_packets == 0
        assert cost.probe_bytes == 0
        assert cost.telemetry_bytes > 0
        assert cost.events_observed > 0

    def test_sharded_root_fuses_sliced_int_evidence(self):
        cluster, system = deploy(topology=SMALL, shards=2,
                                 backends=("probe", "int"))
        run_congested(cluster, system)
        fusion = system.analyzer.fusion
        assert fusion.sharpened + fusion.annotated + fusion.added > 0
        assert any(p.locus == HOT_LINK and "int:" in p.detail
                   for p in system.analyzer.problems)


class TestBakeoffSlice:
    """The slice ``backends --selftest`` raced in a CI side job: one
    congestion case (exact directed link) and two failure cases."""

    @pytest.mark.parametrize("label", ["link_overload_tor_agg", "rnic_down",
                                       "link_corruption"])
    def test_fused_is_never_worse_than_probe_only(self, label):
        case = case_by_label(label)
        probe = record(case, "probe", run_case(case, "probe"))
        fused_result = run_case(case, "fused")
        fused = record(case, "fused", fused_result)
        assert fused["recall"] >= probe["recall"]
        assert fused["precision"] >= probe["precision"]
        if case.hot_link is not None:
            assert int_verdict_loci(fused_result) == [case.hot_link]


class TestPingmeshBackend:
    def test_flags_a_dead_host_but_nothing_finer(self):
        result = run_case(case_by_label("host_down"), "pingmesh", seed=0,
                          duration_s=45)
        report = next(r for r in result.backend_reports
                      if r.backend == "pingmesh")
        outcome = next(d for d in report.detections if d.locus == "host0")
        assert outcome.detected and outcome.localized
        assert outcome.verdict_category == "host_down"
        assert outcome.verdict_locus == "host0"
        assert report.probe_packets > 0      # real TCP probes on the wire
        assert report.telemetry_bytes == 0

    def test_a_window_judges_the_probes_that_completed_in_it(self):
        """Every window after the first, too: a host that dies at 45 s is
        named by the window closing at 60 s.  (One running cursor over the
        agent-major concatenation of all results handed each later window
        mostly old results of the last agents: named at 100 s.)"""
        cluster, system, _, _ = build_world(
            SMALL, seed=0,
            config=RPingmeshConfig(backends=("probe", "pingmesh")),
            campaign=(FaultEvent.make("host_down", "host3", start_s=45),))
        system.run(seconds(60))
        backend = system.backends["pingmesh"]
        assert [(v.category, v.locus, v.detected_at_ns, v.window_start_ns)
                for v in backend.verdicts()] == [
            ("host_down", "host3", seconds(60), seconds(40))]
        cost = backend.cost()
        assert cost.events_observed == len(backend.pingmesh.all_results())
        assert cost.probe_packets == 2 * cost.events_observed
