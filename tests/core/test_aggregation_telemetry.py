"""Unit tests for hierarchical aggregation (§7.4) and INT/ERSPAN tracing."""

import pytest

from repro.core.aggregation import HierarchicalAggregator, TierAggregate
from repro.core.records import ProbeKind
from repro.core.sla import MIN_SAMPLES_FOR_AGGREGATION
from repro.net.addresses import roce_five_tuple
from repro.diagnosis.inband import IntCollector
from repro.net.packet import RoCEPacket
from repro.net.telemetry import ErspanTracer
from repro.sim.units import seconds
from tests.core.test_analyzer import probe_result


class TestHierarchicalAggregation:
    def _cluster_results(self, cluster, n_per_target=30, bad=None):
        results = []
        names = cluster.rnic_names()
        for target in names:
            prober = names[0] if target != names[0] else names[1]
            for i in range(n_per_target):
                results.append(probe_result(
                    cluster, prober, target,
                    timeout=(target == bad and i % 2 == 0)))
        return results

    def test_cluster_tiers_present(self, small_clos):
        agg = HierarchicalAggregator(small_clos)
        tiers = agg.aggregate_cluster_monitoring(
            self._cluster_results(small_clos))
        assert set(tiers) == {"server", "tor", "cluster"}
        assert len(tiers["tor"]) == len(small_clos.tors())
        assert "cluster" in tiers["cluster"]

    def test_counts_roll_up(self, small_clos):
        agg = HierarchicalAggregator(small_clos)
        tiers = agg.aggregate_cluster_monitoring(
            self._cluster_results(small_clos, n_per_target=10))
        total = tiers["cluster"]["cluster"].probes
        assert total == sum(a.probes for a in tiers["server"].values())
        assert total == sum(a.probes for a in tiers["tor"].values())

    def test_bad_server_visible_at_server_tier(self, small_clos):
        agg = HierarchicalAggregator(small_clos)
        bad = small_clos.rnic_names()[3]
        tiers = agg.aggregate_cluster_monitoring(
            self._cluster_results(small_clos, bad=bad))
        bad_host = small_clos.host_of_rnic(bad).name
        assert tiers["server"][bad_host].drop_rate == pytest.approx(0.5)

    def test_service_tracing_has_no_tor_tier(self, small_clos):
        agg = HierarchicalAggregator(small_clos)
        tiers = agg.aggregate_service_tracing([])
        assert "tor" not in tiers

    def test_the_two_server_illusion(self, small_clos):
        """§7.4's example: 2 service servers under a ToR, one down ->
        the per-ToR cell shows 50% drops but flags itself unreliable."""
        agg = HierarchicalAggregator(small_clos)
        names = small_clos.rnics_under_tor(small_clos.tors()[0])[:2]
        results = []
        for i, target in enumerate(names):
            prober = small_clos.rnic_names()[-1]
            results.append(probe_result(
                small_clos, prober, target,
                kind=ProbeKind.SERVICE_TRACING, timeout=(i == 0)))
        misleading = agg.misleading_tor_aggregates(results)
        cell = misleading[0]
        assert cell.drop_rate == pytest.approx(0.5)   # looks terrible...
        assert not cell.reliable                      # ...but is untrusted
        assert cell.probes < MIN_SAMPLES_FOR_AGGREGATION

    def test_tier_aggregate_rtt(self):
        cell = TierAggregate(tier="server", entity="h")
        assert cell.rtt_p99() is None
        cell.rtt.extend([1.0, 2.0, 100.0])
        assert cell.rtt_p99() == 100.0


class TestErspanTracer:
    def test_trace_complete_without_rate_limit(self, small_clos):
        tracer = ErspanTracer(small_clos.fabric)
        src = "host0-rnic0"
        dst = "host6-rnic0"
        ft = roce_five_tuple(small_clos.rnic(src).ip,
                             small_clos.rnic(dst).ip, 7000)
        # Exhaust every switch's traceroute budget first: ERSPAN is immune.
        for node in small_clos.topology.nodes.values():
            if node.is_switch:
                while node.traceroute.allow(0):
                    pass
        record = tracer.trace(ft, src, dst)
        assert record.complete

    def test_trace_truncates_on_down_link(self, small_clos):
        tracer = ErspanTracer(small_clos.fabric)
        src = "host0-rnic0"
        dst = "host1-rnic0"
        small_clos.topology.link_pair(src, small_clos.tor_of(src)).up = False
        ft = roce_five_tuple(small_clos.rnic(src).ip,
                             small_clos.rnic(dst).ip, 7000)
        record = tracer.trace(ft, src, dst)
        assert not record.reached


class TestIntTracer:
    """INT on the Clos: stamps ride real packets and the ``IntCollector``
    folds them per directed link (``repro.diagnosis.inband``)."""

    SRC, DST = "host0-rnic0", "host6-rnic0"     # cross-pod pair

    def _congest(self, cluster, a, b, queue_bytes=4_000_000):
        link = cluster.topology.link(a, b)
        link.set_offered_load(cluster.sim.now, link.rate_gbps)
        link.queue_bytes = queue_bytes
        return link

    def _flows(self, cluster, ports):
        src_ip = cluster.rnic(self.SRC).ip
        dst_ip = cluster.rnic(self.DST).ip
        return [roce_five_tuple(src_ip, dst_ip, port) for port in ports]

    def _sweep(self, cluster, flows):
        """One stamped packet per flow; link evidence, hottest first."""
        fabric = cluster.fabric
        if fabric.int_collector is None:
            IntCollector().install(fabric)
        for ft in flows:
            fabric.inject(RoCEPacket(five_tuple=ft, size_bytes=108,
                                     dst_gid=cluster.rnic(self.DST).gid),
                          self.SRC)
        cluster.sim.run_for(seconds(1))
        return fabric.int_collector.drain_window(0, cluster.sim.now).links

    def test_metadata_per_hop(self, small_clos):
        [ft] = self._flows(small_clos, [7000])
        path = small_clos.fabric.path_of(ft, self.SRC)
        links = self._sweep(small_clos, [ft])
        assert sorted(ev.link for ev in links) == \
            sorted(f"{a}->{b}" for a, b in zip(path, path[1:]))
        assert all(ev.max_queue_bytes == 0.0 for ev in links)

    def test_hottest_hop_finds_congested_queue(self, small_clos):
        [ft] = self._flows(small_clos, [7000])
        path = small_clos.fabric.path_of(ft, self.SRC)
        self._congest(small_clos, path[1], path[2])
        assert self._sweep(small_clos, [ft])[0].link == \
            f"{path[1]}->{path[2]}"

    def test_congestion_localization(self, small_clos):
        flows = self._flows(small_clos, range(7000, 7010))
        path = small_clos.fabric.path_of(flows[0], self.SRC)
        self._congest(small_clos, path[1], path[2])
        links = self._sweep(small_clos, flows)
        assert [ev.link for ev in links if ev.max_delay_ns] == \
            [f"{path[1]}->{path[2]}"]
