"""Unit tests for packet forwarding, drops, and path computation."""

import pytest

from repro.net.addresses import roce_five_tuple, FiveTuple, PROTO_TCP
from repro.net.fabric import DropReason, Fabric
from repro.net.packet import RoCEOpcode, RoCEPacket, TCPPacket
from repro.net.topology import Tier, Topology
from repro.sim.engine import SimulationError, Simulator
from repro.sim.rng import RngStream
from repro.sim.units import seconds


def build_fabric():
    """a - tor1 - {mid1,mid2} - tor2 - b, with IPs registered."""
    topo = Topology()
    topo.add_host_port("a")
    topo.add_host_port("b")
    for s in ("tor1", "tor2"):
        topo.add_switch(s, Tier.TOR)
    for s in ("mid1", "mid2"):
        topo.add_switch(s, Tier.AGG)
    topo.add_cable("a", "tor1")
    topo.add_cable("b", "tor2")
    topo.add_cable("tor1", "mid1")
    topo.add_cable("tor1", "mid2")
    topo.add_cable("mid1", "tor2")
    topo.add_cable("mid2", "tor2")
    sim = Simulator()
    fabric = Fabric(sim, topo, RngStream(0, "fabric"))
    fabric.register_ip("10.0.0.1", "a")
    fabric.register_ip("10.0.0.2", "b")
    return sim, topo, fabric


def roce_packet(src_port=5000):
    return RoCEPacket(
        five_tuple=roce_five_tuple("10.0.0.1", "10.0.0.2", src_port),
        size_bytes=108, dst_gid="::ffff:10.0.0.2")


class TestDelivery:
    def test_packet_delivered_with_path(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append((p, rec)))
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert len(got) == 1
        packet, record = got[0]
        assert record.path[0] == "a"
        assert record.path[-1] == "b"
        assert len(record.path) == 5  # a tor1 midX tor2 b

    def test_inject_stamps_sequential_packet_ids(self):
        # Ids come from a per-fabric counter: unique within a fabric,
        # restarting at 1 for every fabric so replays match exactly.
        sim, topo, fabric = build_fabric()
        first, second = roce_packet(), roce_packet()
        fabric.inject(first, "a")
        fabric.inject(second, "a")
        assert (first.packet_id, second.packet_id) == (1, 2)
        _, _, fresh_fabric = build_fabric()
        again = roce_packet()
        fresh_fabric.inject(again, "a")
        assert again.packet_id == 1

    def test_delivery_has_positive_latency(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec.time_ns))
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert got[0] > 0

    def test_same_tuple_same_path(self):
        sim, topo, fabric = build_fabric()
        paths = []
        fabric.attach_receiver("b", lambda p, rec: paths.append(rec.path))
        for _ in range(5):
            fabric.inject(roce_packet(src_port=6000), "a")
        sim.run_until(seconds(1))
        assert len(set(paths)) == 1

    def test_different_tuples_spread_over_paths(self):
        sim, topo, fabric = build_fabric()
        mids = set()
        fabric.attach_receiver("b", lambda p, rec: mids.add(rec.path[2]))
        for port in range(2000, 2200):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert mids == {"mid1", "mid2"}

    def test_unknown_destination_is_no_route(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        packet = RoCEPacket(
            five_tuple=roce_five_tuple("10.0.0.1", "9.9.9.9", 5000),
            size_bytes=108)
        fabric.inject(packet, "a")
        assert drops[0].reason == DropReason.NO_ROUTE

    def test_no_receiver_absorbed_silently(self):
        sim, topo, fabric = build_fabric()
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert fabric.packets_delivered == 1


class TestDrops:
    def test_down_link_drops_with_location(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        fabric.attach_receiver("b", lambda p, r: None)
        topo.link_pair("a", "tor1").up = False
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.LINK_DOWN
        assert drops[0].link == "a->tor1"

    def test_pfc_deadlock_drops_roce_only(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        delivered = []
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        for direction in (("a", "tor1"), ("tor1", "a")):
            topo.link(*direction).pfc_deadlocked = True
        fabric.inject(roce_packet(), "a")
        tcp = TCPPacket(five_tuple=FiveTuple("10.0.0.1", 999, "10.0.0.2",
                                             999, PROTO_TCP), size_bytes=100)
        fabric.inject(tcp, "a")
        sim.run_until(seconds(1))
        assert [d.reason for d in drops] == [DropReason.PFC_DEADLOCK]
        assert len(delivered) == 1  # the TCP probe sailed through (§2.4)

    def test_corruption_drops_fraction(self):
        sim, topo, fabric = build_fabric()
        delivered = []
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        for direction in (("tor1", "mid1"), ("tor1", "mid2")):
            topo.link(*direction).corruption_drop_prob = 0.5
        for port in range(2000, 2400):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert 120 < len(delivered) < 280  # ~50% of 400

    def test_silent_drop_only_matching_tuples(self):
        sim, topo, fabric = build_fabric()
        delivered = []
        drops = []
        fabric.add_drop_listener(drops.append)
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        link = topo.link("a", "tor1")
        link.silent_drop_predicate = lambda ft: ft.src_port == 2001
        fabric.inject(roce_packet(src_port=2001), "a")
        fabric.inject(roce_packet(src_port=2002), "a")
        sim.run_until(seconds(1))
        assert len(delivered) == 1
        assert drops[0].reason == DropReason.SILENT_DROP

    def test_acl_deny_at_switch(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        topo.node("tor2").acl.deny(src_ip="10.0.0.1")
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.ACL_DENY
        assert drops[0].node == "tor2"

    def test_ttl_expiry(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        packet = roce_packet()
        packet.ttl = 2
        fabric.inject(packet, "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.TTL_EXPIRED

    def test_drop_log_capped(self):
        sim, topo, fabric = build_fabric()
        fabric.max_drop_log = 5
        topo.link_pair("a", "tor1").up = False
        for _ in range(10):
            fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert len(fabric.drops) == 5


class TestPathOf:
    def test_path_matches_data_path(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec.path))
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        predicted = fabric.path_of(ft, "a")
        fabric.inject(roce_packet(src_port=7000), "a")
        sim.run_until(seconds(1))
        assert list(got[0]) == predicted

    def test_respect_down_truncates(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        full = fabric.path_of(ft, "a")
        mid = full[2]
        topo.link_pair("tor1", mid).up = False
        truncated = fabric.path_of(ft, "a", respect_down=True)
        assert truncated == full[:2]

    def test_unknown_ip_raises(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "1.1.1.1", 7000)
        with pytest.raises(KeyError):
            fabric.path_of(ft, "a")

    def test_links_of_path(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        path = fabric.path_of(ft, "a")
        links = fabric.links_of_path(path)
        assert len(links) == len(path) - 1
        assert links[0].src == "a"


class TestFutureStart:
    """``inject(..., at_ns)``: the sender's TX pipeline as one more quiet
    hop in front of the plan, and ``withdraw`` to take it back."""

    def test_walk_starts_at_the_given_instant(self):
        sim, topo, fabric = build_fabric()
        now_start, later_start = [], []
        fabric.attach_receiver("b", lambda p, rec: (
            later_start if p.payload else now_start).append(rec.time_ns))
        fabric.inject(roce_packet(), "a")
        late = roce_packet()
        late.payload["late"] = True
        fabric.inject(late, "a", 2_500)
        assert late.sent_at_ns == 2_500
        # Counters read clock-exact until the instant comes.
        assert fabric.packets_injected == 1
        assert fabric.packets_in_flight == 2
        assert fabric.forwarded_by_link() == {"a->tor1": 1}
        events = sim.events_processed
        sim.run_until(2_500)
        assert fabric.packets_injected == 2
        sim.run_until(seconds(1))
        assert later_start == [now_start[0] + 2_500]
        assert sim.events_processed == events + 2   # one delivery each

    def test_a_first_hop_that_is_not_quiet_waits_for_the_instant(self):
        sim, topo, fabric = build_fabric()
        dropped = []
        fabric.add_drop_listener(dropped.append)
        topo.link_pair("a", "tor1").up = False
        fabric.inject(roce_packet(), "a", 700)
        assert dropped == [] and fabric.packets_in_flight == 1
        sim.run_until(seconds(1))
        assert [(d.time_ns, d.reason) for d in dropped] \
            == [(700, DropReason.LINK_DOWN)]

    def test_withdraw_gives_everything_back(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec.time_ns))
        packet = roce_packet()
        fabric.inject(packet, "a", 900)
        sim.run_until(400)
        assert fabric.withdraw(packet)
        assert (fabric.packets_injected, fabric.packets_in_flight,
                packet.ttl) == (0, 0, 64)
        assert not any(link.packets_forwarded
                       for link in topo.links.values())
        assert not fabric.withdraw(packet)          # already out
        sim.run_until(seconds(1))                   # the tombstone's event
        assert got == []
        # Once its instant has passed, a packet is the fabric's.
        fabric.inject(packet, "a", sim.now + 10)
        sim.run_for(11)
        assert not fabric.withdraw(packet)
        sim.run_for(seconds(1))
        assert len(got) == 1

    def test_the_past_is_refused(self):
        sim, topo, fabric = build_fabric()
        sim.run_until(1_000)
        with pytest.raises(SimulationError):
            fabric.inject(roce_packet(), "a", 999)


class TestCounters:
    def test_injected_and_delivered(self):
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, r: None)
        for port in range(2000, 2010):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert fabric.packets_injected == 10
        assert fabric.packets_delivered == 10

    def test_link_counters(self):
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, r: None)
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert topo.link("a", "tor1").packets_forwarded == 1


def test_dropped_packets_keep_their_evidence(tiny_clos):
    """A DropRecord holds the dropped packet itself, as it was dropped,
    however much traffic follows."""
    fabric = tiny_clos.fabric
    a = tiny_clos.rnic("host0-rnic0")
    b = tiny_clos.rnic("host1-rnic0")
    tor = tiny_clos.tor_of(b.name)
    tiny_clos.topology.nodes[tor].acl.deny(dst_ip=b.ip)
    packet = fabric.packet_pool.acquire_roce(
        roce_five_tuple(a.ip, b.ip, 5000), 108, RoCEOpcode.UD_SEND,
        1, 2, a.gid.value, b.gid.value, {"t": "probe", "seq": 42})
    fabric.inject(packet, a.name)
    tiny_clos.sim.run_for(seconds(1))
    assert len(fabric.drops) == 1
    dropped = fabric.drops[0].packet
    assert dropped is packet
    for i in range(20):
        other = fabric.packet_pool.acquire_roce(
            roce_five_tuple(b.ip, a.ip, 6000 + i), 108,
            RoCEOpcode.UD_SEND, 1, 2, b.gid.value, a.gid.value,
            {"seq": i})
        fabric.inject(other, b.name)
        tiny_clos.sim.run_for(seconds(1))
    assert dropped.payload == {"t": "probe", "seq": 42}
