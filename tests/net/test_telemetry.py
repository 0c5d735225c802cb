"""Unit tests for ERSPAN path tracing and INT per-hop telemetry (§7.4)."""

from repro.diagnosis.inband import IntCollector
from repro.net.addresses import roce_five_tuple
from repro.net.telemetry import ErspanTracer, PathTracer
from repro.net.traceroute import TracerouteService
from repro.sim.units import seconds

from tests.net.test_fabric import build_fabric, roce_packet


def _ft(port=7000):
    return roce_five_tuple("10.0.0.1", "10.0.0.2", port)


class TestErspanTracer:
    def test_complete_trace_matches_data_path(self):
        sim, topo, fabric = build_fabric()
        tracer = ErspanTracer(fabric)
        record = tracer.trace(_ft(), "a", "b")
        assert record.reached
        assert record.complete
        assert list(record.hops) == fabric.path_of(_ft(), "a")

    def test_no_rate_limit_where_traceroute_throttles(self):
        # Drain a switch's traceroute token bucket; ERSPAN (ASIC
        # mirroring) keeps returning complete traces regardless.
        sim, topo, fabric = build_fabric()
        traceroute = TracerouteService(fabric)
        erspan = ErspanTracer(fabric)
        while traceroute.trace(_ft(), "a", "b").complete:
            pass
        assert erspan.trace(_ft(), "a", "b").complete

    def test_down_link_truncates(self):
        sim, topo, fabric = build_fabric()
        tracer = ErspanTracer(fabric)
        full = tracer.trace(_ft(), "a", "b")
        topo.link_pair("tor1", full.hops[2]).up = False
        record = tracer.trace(_ft(), "a", "b")
        assert not record.reached
        assert len(record.hops) < len(full.hops)

    def test_counts_traces(self):
        sim, topo, fabric = build_fabric()
        tracer = ErspanTracer(fabric)
        for _ in range(3):
            tracer.trace(_ft(), "a", "b")
        assert tracer.traces_issued == 3


def int_fabric():
    """The test fabric with an INT collector installed and b listening."""
    sim, topo, fabric = build_fabric()
    IntCollector().install(fabric)
    fabric.attach_receiver("b", lambda packet, record: None)
    return sim, topo, fabric


def int_sweep(sim, fabric, ports=(7000,)):
    """Send one stamped packet per source port a -> b; the window's
    per-link evidence, hottest (deepest queue delay) first."""
    for port in ports:
        fabric.inject(roce_packet(port), "a")
    sim.run_for(seconds(1))
    return fabric.int_collector.drain_window(0, sim.now).links


def congest(sim, topo, a, b, queue_bytes):
    link = topo.link(a, b)
    link.set_offered_load(sim.now, link.rate_gbps)  # holds the queue level
    link.queue_bytes = queue_bytes
    return link


class TestIntTracer:
    """INT tracing on a live fabric, through the one implementation there
    is: per-hop stamps the fabric pushes onto real packets and the
    ``IntCollector`` folds at delivery (``repro.diagnosis.inband``)."""

    def test_satisfies_path_tracer_protocol(self):
        sim, topo, fabric = build_fabric()
        assert isinstance(ErspanTracer(fabric), PathTracer)
        assert isinstance(TracerouteService(fabric), PathTracer)

    def test_hops_cover_every_known_link(self):
        sim, topo, fabric = int_fabric()
        path = fabric.path_of(_ft(), "a")
        links = int_sweep(sim, fabric)
        assert sorted(ev.link for ev in links) == \
            sorted(f"{a}->{b}" for a, b in zip(path, path[1:]))
        assert all(ev.packets == 1 for ev in links)

    def test_idle_fabric_reports_empty_queues(self):
        sim, topo, fabric = int_fabric()
        links = int_sweep(sim, fabric)
        assert all(ev.max_queue_bytes == 0 for ev in links)
        assert links[0].max_delay_ns == 0

    def test_hottest_hop_names_congested_queue(self):
        sim, topo, fabric = int_fabric()
        path = fabric.path_of(_ft(), "a")
        a, b = path[1], path[2]            # tor1 -> midX
        link = congest(sim, topo, a, b, 500_000.0)
        hottest = int_sweep(sim, fabric)[0]
        assert hottest.link == f"{a}->{b}"
        assert hottest.max_queue_bytes == 500_000.0
        assert hottest.max_utilization == link.utilization()


class TestLocalizeCongestion:
    def test_names_directed_link_with_deepest_queue(self):
        sim, topo, fabric = int_fabric()
        guilty_path = fabric.path_of(_ft(7000), "a")
        a, b = guilty_path[1], guilty_path[2]
        congest(sim, topo, a, b, 2_000_000.0)
        links = int_sweep(sim, fabric, ports=range(7000, 7008))
        assert links[0].link == f"{a}->{b}"
        assert [ev.link for ev in links if ev.max_delay_ns] == [f"{a}->{b}"]

    def test_no_congestion_yields_none(self):
        sim, topo, fabric = int_fabric()
        links = int_sweep(sim, fabric, ports=range(7000, 7004))
        assert not any(ev.max_delay_ns for ev in links)
