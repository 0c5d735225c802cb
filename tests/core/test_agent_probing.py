"""Agent probing tests: the Figure 4 measurement method itself.

The central claim under test: with UD QPs and CQE timestamps only, the
Agent measures network RTT and both processing delays *accurately* even
though every host clock and every RNIC clock has a random multi-second
offset and tens of ppm of drift.
"""

import pytest

from repro.core.records import ProbeKind
from repro.core.system import RPingmesh
from repro.sim.units import MICROSECOND, seconds


@pytest.fixture
def running_system(tiny_clos):
    system = RPingmesh(tiny_clos)
    system.start()
    tiny_clos.sim.run_for(seconds(2))
    return system


class TestProbeCompletion:
    def test_probes_complete_without_timeouts(self, running_system):
        agents = running_system.agents.values()
        total = sum(a.probes_sent for a in agents)
        assert total > 50
        # Drain pending uploads through an analysis pass.
        running_system.cluster.sim.run_for(seconds(20))
        report = running_system.analyzer.sla.latest()
        assert report.cluster.probes_total > 50
        assert report.cluster.drop_rate == 0.0

    def test_rtt_measured_accurately(self, running_system):
        """Measured network RTT must sit in the physically-possible band.

        For the tiny Clos topology the one-way fabric latency is a few µs
        (host->tor->agg->tor->host worst case), so a sane RTT is 2-40 µs.
        Crucially, clocks have offsets of up to ±100 s: any cross-clock
        subtraction would be off by ~1e11 ns and instantly fail this test.
        """
        running_system.cluster.sim.run_for(seconds(20))
        report = running_system.analyzer.sla.latest()
        stats = report.cluster.rtt_percentiles()
        assert stats is not None
        assert 1 * MICROSECOND < stats["p50"] < 40 * MICROSECOND
        assert stats["min"] > 0

    def test_processing_delay_positive_and_sane(self, running_system):
        running_system.cluster.sim.run_for(seconds(20))
        report = running_system.analyzer.sla.latest()
        stats = report.cluster.processing_percentiles()
        assert stats is not None
        assert 0 < stats["p50"] < 200 * MICROSECOND

    def test_rtt_excludes_responder_processing(self, tiny_clos):
        """Inflating responder CPU load must NOT inflate measured RTT.

        This is the paper's core advantage over Pingmesh (Figure 2 vs
        §4.2.1): the (④-③) subtraction removes responder processing.
        """
        system = RPingmesh(tiny_clos)
        system.start()
        tiny_clos.sim.run_for(seconds(25))
        baseline = system.analyzer.sla.latest().cluster.rtt_percentiles()

        for host in tiny_clos.hosts.values():
            host.cpu.set_load(0.85)
        tiny_clos.sim.run_for(seconds(20))
        loaded = system.analyzer.sla.latest().cluster.rtt_percentiles()
        # p50 RTT moves by far less than the CPU-induced delay growth.
        assert loaded["p50"] < baseline["p50"] + 10 * MICROSECOND

    def test_processing_delay_tracks_cpu_load(self, tiny_clos):
        system = RPingmesh(tiny_clos)
        system.start()
        tiny_clos.sim.run_for(seconds(25))
        baseline = system.analyzer.sla.latest().cluster \
            .processing_percentiles()["p50"]
        for host in tiny_clos.hosts.values():
            host.cpu.set_load(0.85)
        # To 60 s: the latest window, (40, 60], is loaded end to end.  (The
        # one before it mixes 5 s of idle samples in, and its median sits
        # within noise of 2x either side depending on the seed.)
        tiny_clos.sim.run_for(seconds(35))
        loaded = system.analyzer.sla.latest().cluster \
            .processing_percentiles()["p50"]
        assert loaded > 2 * baseline


class TestPinglists:
    def test_tor_mesh_covers_tor_peers(self, running_system):
        cluster = running_system.cluster
        agent = running_system.agents["host0"]
        entries = agent.pinglist("host0-rnic0", ProbeKind.TOR_MESH)
        tor = cluster.tor_of("host0-rnic0")
        expected = {r for r in cluster.rnics_under_tor(tor)
                    if r != "host0-rnic0"}
        assert {e.target_rnic for e in entries} == expected

    def test_inter_tor_targets_other_tors(self, running_system):
        cluster = running_system.cluster
        for agent in running_system.agents.values():
            for rnic in agent.host.rnics:
                for entry in agent.pinglist(rnic.name, ProbeKind.INTER_TOR):
                    assert cluster.tor_of(entry.target_rnic) \
                        != cluster.tor_of(rnic.name)

    def test_total_inter_tor_tuples_matches_equation1(self, running_system):
        controller = running_system.controller
        k = controller.tuples_per_tor()
        total = sum(
            len(agent.pinglist(rnic.name, ProbeKind.INTER_TOR))
            for agent in running_system.agents.values()
            for rnic in agent.host.rnics)
        assert total == k * len(running_system.cluster.tors())

    def test_service_pinglist_empty_without_service(self, running_system):
        for agent in running_system.agents.values():
            assert not agent.has_service_entries()


class TestTimeouts:
    def test_down_target_times_out(self, tiny_clos):
        system = RPingmesh(tiny_clos)
        system.start()
        tiny_clos.sim.run_for(seconds(2))
        tiny_clos.rnic("host1-rnic0").admin_up = False
        tiny_clos.sim.run_for(seconds(25))
        report = system.analyzer.sla.latest()
        assert report.cluster.drop_rate > 0

    def test_local_send_failure_becomes_timeout(self, tiny_clos):
        """An unreachable prober RNIC reports timeouts, not exceptions."""
        system = RPingmesh(tiny_clos)
        system.start()
        tiny_clos.sim.run_for(seconds(2))
        tiny_clos.rnic("host0-rnic0").routing_configured = False
        tiny_clos.sim.run_for(seconds(25))
        window = system.analyzer.windows[-1]
        assert "host0-rnic0" in window.anomalous_rnics


class TestAgentRestart:
    def test_restart_changes_qpns(self, running_system):
        agent = running_system.agents["host0"]
        controller = running_system.controller
        old_qpn = controller.current_qpn("host0-rnic0")
        agent.restart()
        new_qpn = controller.current_qpn("host0-rnic0")
        assert new_qpn != old_qpn

    def test_stale_qpn_probes_dropped_by_rnic(self, running_system):
        """Peers' pinglists still hold the old QPN until refresh: their
        probes are dropped (QPN-reset noise, §4.3.1)."""
        cluster = running_system.cluster
        agent = running_system.agents["host0"]
        rnic = cluster.rnic("host0-rnic0")
        before = rnic.local_drops.get("qpn_mismatch", 0)
        agent.restart()
        cluster.sim.run_for(seconds(5))
        assert rnic.local_drops.get("qpn_mismatch", 0) > before


class TestOverheadModel:
    def test_paper_figure7_operating_point(self):
        """8-RNIC host at paper probe rates: ~3% CPU, ~18.5 MB memory."""
        from repro.cluster import Cluster
        from repro.net.clos import ClosParams
        cluster = Cluster.clos(
            ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2, spines=1,
                       hosts_per_tor=2, rnics_per_host=8),
            seed=0)
        system = RPingmesh(cluster)
        system.start()
        cluster.sim.run_for(seconds(10))
        overhead = system.agents["host0"].overhead_estimate()
        assert 0.005 < overhead["cpu_cores"] < 0.10
        assert 10.0 < overhead["memory_mb"] < 30.0

    def test_overhead_scales_with_rnic_count(self, running_system):
        single = running_system.agents["host0"].overhead_estimate()
        from repro.cluster import Cluster
        from repro.net.clos import ClosParams
        cluster8 = Cluster.clos(
            ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2, spines=1,
                       hosts_per_tor=2, rnics_per_host=8), seed=0)
        system8 = RPingmesh(cluster8)
        system8.start()
        cluster8.sim.run_for(seconds(5))
        eight = system8.agents["host0"].overhead_estimate()
        assert eight["cpu_cores"] > single["cpu_cores"]
        assert eight["memory_mb"] > single["memory_mb"]

    def test_bandwidth_under_300kbps(self, running_system):
        """§6: probe traffic per RNIC stays under 300 Kb/s."""
        cluster = running_system.cluster
        elapsed_s = cluster.sim.now / 1e9
        for rnic in cluster.all_rnics():
            bits = (rnic.tx_bytes + rnic.rx_bytes) * 8
            assert bits / elapsed_s < 300_000


class TestUpload:
    def test_empty_batches_are_never_uploaded(self, tiny_clos):
        """Regression: an idle Agent must stay *silent*, not upload empty
        batches — upload liveness is the Analyzer's host-down signal
        (§4.3.1), and an empty batch would keep resetting it."""
        system = RPingmesh(tiny_clos)
        system.start()
        # Strip every pinglist so the agents have nothing to probe.
        for agent in system.agents.values():
            for state in agent.states.values():
                state.tor_mesh.clear()
                state.inter_tor.clear()
        uploads = []
        system.analyzer.add_upload_listener(uploads.append)
        tiny_clos.sim.run_for(seconds(30))
        idle = [b for b in uploads if not b.results]
        assert idle == []
        assert all(a.uploads.submitted == 0 for a in system.agents.values())

    def test_busy_agents_upload_nonempty_batches(self, running_system):
        uploads = []
        running_system.analyzer.add_upload_listener(uploads.append)
        running_system.cluster.sim.run_for(seconds(10))
        assert uploads
        assert all(b.results for b in uploads)
