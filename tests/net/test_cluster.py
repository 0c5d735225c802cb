"""Unit tests for cluster assembly."""

import pytest

from repro.cluster import Cluster
from repro.net.clos import ClosParams
from repro.net.rail import RailParams


class TestClosCluster:
    def test_every_rnic_has_unique_ip(self, small_clos):
        ips = [r.ip for r in small_clos.all_rnics()]
        assert len(set(ips)) == len(ips)

    def test_ips_registered_with_fabric(self, small_clos):
        for rnic in small_clos.all_rnics():
            assert small_clos.fabric.port_for_ip(rnic.ip) == rnic.name

    def test_host_of_rnic(self, small_clos):
        host = small_clos.host_of_rnic("host3-rnic0")
        assert host.name == "host3"
        assert any(r.name == "host3-rnic0" for r in host.rnics)

    def test_unknown_rnic_raises(self, small_clos):
        with pytest.raises(KeyError):
            small_clos.rnic("ghost-rnic9")

    def test_size(self, small_clos):
        assert small_clos.size == 12  # 2 pods * 2 tors * 3 hosts

    def test_rnics_under_tor(self, small_clos):
        under = small_clos.rnics_under_tor("pod0-tor0")
        assert len(under) == 3
        assert all(small_clos.tor_of(r) == "pod0-tor0" for r in under)

    def test_tors(self, small_clos):
        assert len(small_clos.tors()) == 4

    def test_clock_diversity(self, small_clos):
        """Every host and RNIC clock is distinct (no hidden sync)."""
        readings = set()
        t = 1_000_000_000
        for host in small_clos.hosts.values():
            readings.add(host.clock.read(t))
            for rnic in host.rnics:
                readings.add(rnic.clock.read(t))
        # 12 hosts + 12 RNICs with random offsets: collisions ~impossible.
        assert len(readings) == 24

    def test_multi_rnic_hosts(self, multi_rnic_clos):
        for host in multi_rnic_clos.hosts.values():
            assert len(host.rnics) == 2
            for rnic in host.rnics:
                assert rnic.host is host


class TestRailCluster:
    def test_rail_layout(self, small_rail):
        assert small_rail.size == 12  # 3 hosts * 4 rails
        for host in small_rail.hosts.values():
            rails = {small_rail.tor_of(r.name) for r in host.rnics}
            assert len(rails) == 4  # each RNIC on its own rail

    def test_seed_controls_everything(self):
        a = Cluster.clos(ClosParams(pods=1, tors_per_pod=2, spines=1,
                                    hosts_per_tor=2), seed=5)
        b = Cluster.clos(ClosParams(pods=1, tors_per_pod=2, spines=1,
                                    hosts_per_tor=2), seed=5)
        for rnic_a, rnic_b in zip(a.all_rnics(), b.all_rnics()):
            assert rnic_a.ip == rnic_b.ip
            assert rnic_a.clock.offset_ns == rnic_b.clock.offset_ns


class TestAdaptiveRoutingFlag:
    def test_per_packet_path_variation(self, small_clos):
        """With AR on, the same 5-tuple spreads over parallel paths."""
        from repro.net.packet import RoCEPacket
        from repro.net.addresses import roce_five_tuple
        small_clos.fabric.adaptive_routing = True
        src = small_clos.rnic("host0-rnic0")
        dst = small_clos.rnic("host6-rnic0")
        paths = set()
        small_clos.fabric.attach_receiver(
            "host6-rnic0", lambda p, rec: paths.add(rec.path))
        for _ in range(40):
            packet = RoCEPacket(
                five_tuple=roce_five_tuple(src.ip, dst.ip, 7000),
                size_bytes=108, dst_gid=dst.gid.value)
            small_clos.fabric.inject(packet, "host0-rnic0")
        small_clos.sim.run_for(1_000_000_000)
        assert len(paths) > 1  # ECMP would give exactly 1


def _scanned_tor_of(topology, port):
    """What ``tor_of`` answered when it rebuilt the neighbour list."""
    tors = [n for n in topology.neighbors(port)
            if topology.nodes[n].is_switch]
    if len(tors) != 1:
        raise ValueError(f"{port} has {len(tors)} switch neighbors")
    return tors[0]


@pytest.mark.parametrize("cluster", [
    lambda: Cluster.clos(),
    lambda: Cluster.clos(ClosParams(pods=3, tors_per_pod=2, aggs_per_pod=2,
                                    spines=2, hosts_per_tor=2,
                                    rnics_per_host=2)),
    lambda: Cluster.rail(),
    lambda: Cluster.rail(RailParams(hosts=3, rails=4, spines=2)),
], ids=["clos", "clos-multi-rnic", "rail", "rail-small"])
def test_tor_lookups_equal_the_neighbour_scan(cluster):
    cluster = cluster()
    topology = cluster.topology
    for port in topology.nodes:
        try:
            want = _scanned_tor_of(topology, port)
        except ValueError:
            with pytest.raises(ValueError, match="switch neighbors"):
                topology.tor_of(port)
        else:
            assert topology.tor_of(port) == want
    scanned = {n: _scanned_tor_of(topology, n) for n in cluster.rnic_names()}
    for switch in topology.switches():
        assert cluster.rnics_under_tor(switch) == sorted(
            n for n, tor in scanned.items() if tor == switch)
