"""Unit tests for the TCP Pingmesh baseline and its documented blind spots."""

import pytest

from repro.diagnosis.pingmesh import TcpPingmesh
from repro.net.faults import HostDown, LinkCorruption, PfcDeadlock
from repro.sim.units import MICROSECOND, seconds


@pytest.fixture
def pingmesh(small_clos):
    pm = TcpPingmesh(small_clos)
    pm.start()
    return pm


class TestBasicProbing:
    def test_probes_complete(self, small_clos, pingmesh):
        small_clos.sim.run_for(seconds(10))
        results = pingmesh.all_results()
        assert len(results) > 100
        assert pingmesh.timeout_rate() == 0.0

    def test_software_rtt_includes_processing(self, small_clos, pingmesh):
        """Software RTT is far above wire RTT even at low load."""
        small_clos.sim.run_for(seconds(10))
        p50 = pingmesh.rtt_percentile(50)
        assert p50 > 5 * MICROSECOND  # wire alone would be ~6 us + 3 CPU hops

    def test_rtt_tracks_cpu_load(self, small_clos, pingmesh):
        """Figure 2: P99 software RTT rises and falls with host load."""
        small_clos.sim.run_for(seconds(10))
        base = pingmesh.rtt_percentile(99)
        mark = small_clos.sim.now
        for host in small_clos.hosts.values():
            host.cpu.set_load(0.9)
        small_clos.sim.run_for(seconds(10))
        loaded = pingmesh.rtt_percentile(99, since_ns=mark)
        assert loaded > 2 * base
        mark = small_clos.sim.now
        for host in small_clos.hosts.values():
            host.cpu.set_load(0.1)
        small_clos.sim.run_for(seconds(10))
        relaxed = pingmesh.rtt_percentile(99, since_ns=mark)
        assert relaxed < loaded


class TestBlindSpots:
    def test_pfc_deadlock_invisible_to_tcp(self, small_clos, pingmesh):
        """§2.4: TCP probes cross a PFC-deadlocked link untouched."""
        PfcDeadlock(small_clos, "pod0-tor0", "pod0-agg0").inject()
        small_clos.sim.run_for(seconds(10))
        assert pingmesh.timeout_rate() == 0.0

    def test_physical_faults_still_visible(self, small_clos, pingmesh):
        """Corruption is physical-layer: TCP sees it too."""
        mark = small_clos.sim.now
        for tor in small_clos.tors():
            for agg in [n for n in small_clos.topology.neighbors(tor)
                        if small_clos.topology.node(n).is_switch]:
                LinkCorruption(small_clos, tor, agg, drop_prob=0.5).inject()
        small_clos.sim.run_for(seconds(10))
        assert pingmesh.timeout_rate(since_ns=mark) > 0.05

    def test_host_down_times_out(self, small_clos, pingmesh):
        HostDown(small_clos, "host0").inject()
        mark = small_clos.sim.now
        small_clos.sim.run_for(seconds(10))
        relevant = [r for r in pingmesh.all_results()
                    if r.issued_at_ns >= mark
                    and "host0" in (r.prober_host, r.target_host)]
        assert relevant
        assert all(r.timeout for r in relevant)

    def test_no_rnic_switch_attribution(self, pingmesh):
        """Structural: the baseline result type carries no locus at all."""
        result_fields = {"prober_host", "target_host", "issued_at_ns",
                         "timeout", "software_rtt_ns"}
        from dataclasses import fields
        from repro.diagnosis.pingmesh import TcpProbeResult
        assert {f.name for f in fields(TcpProbeResult)} == result_fields
