"""Unit tests for the RNIC model: CQE semantics, QPC cache, failure modes."""

import pytest

from repro.host.rnic import (CommInfo, Cqe, CqeKind, LocalSendError, QPState,
                             QPType)
from repro.sim.units import seconds


def make_pair(cluster):
    """Two RNICs on different hosts with collected CQEs."""
    a = cluster.rnic("host0-rnic0")
    b = cluster.rnic("host1-rnic0")
    return a, b


def ud_qp(cluster, rnic, sink):
    host = cluster.host_of_rnic(rnic.name)
    return host.verbs.create_qp(rnic, QPType.UD, on_cqe=sink.append)


class TestQpLifecycle:
    def test_ud_qp_immediately_rts(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        qp = ud_qp(tiny_clos, a, [])
        assert qp.state == QPState.RTS

    def test_rc_qp_needs_connect(self, tiny_clos):
        a, b = make_pair(tiny_clos)
        host_a = tiny_clos.host_of_rnic(a.name)
        qp = host_a.verbs.create_qp(a, QPType.RC)
        assert qp.state == QPState.RESET
        with pytest.raises(LocalSendError):
            a.post_send(qp, CommInfo(b.ip, b.gid.value, 1), src_port=5000,
                        payload={}, payload_bytes=10)

    def test_qpns_unique_and_increasing(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        qpns = [a.allocate_qp(QPType.UD).qpn for _ in range(50)]
        assert len(set(qpns)) == 50
        assert qpns == sorted(qpns)

    def test_destroyed_qp_not_found(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        qp = a.allocate_qp(QPType.UD)
        a.destroy_qp(qp.qpn)
        assert a.qp(qp.qpn) is None

    def test_destroy_unknown_raises(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        with pytest.raises(KeyError):
            a.destroy_qp(99999)

    def test_comm_info(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        qp = ud_qp(tiny_clos, a, [])
        info = a.comm_info(qp.qpn)
        assert info.ip == a.ip
        assert info.gid == a.gid.value
        assert info.qpn == qp.qpn


class TestUdExchange:
    def test_send_and_recv_cqes(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        cqes_a, cqes_b = [], []
        qp_a = ud_qp(c, a, cqes_a)
        qp_b = ud_qp(c, b, cqes_b)
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={"x": 1}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert [q.kind for q in cqes_a] == [CqeKind.SEND]
        assert [q.kind for q in cqes_b] == [CqeKind.RECV]
        assert cqes_b[0].payload == {"x": 1}
        assert cqes_b[0].src_ip == a.ip
        assert cqes_b[0].src_qpn == qp_a.qpn
        assert cqes_b[0].src_port == 5000

    def test_cqe_consumers_keep_their_cqes(self, tiny_clos):
        """A handler that keeps its CQEs sees each as delivered."""
        a = tiny_clos.rnic("host0-rnic0")
        b = tiny_clos.rnic("host1-rnic0")
        host_a = tiny_clos.host_of_rnic(a.name)
        host_b = tiny_clos.host_of_rnic(b.name)
        kept = []
        qp_a = host_a.verbs.create_qp(a, QPType.UD, on_cqe=lambda c: None)
        qp_b = host_b.verbs.create_qp(b, QPType.UD, on_cqe=kept.append)
        for seq in range(5):
            host_a.verbs.post_send(
                a, qp_a, b.comm_info(qp_b.qpn), src_port=5000 + seq,
                payload={"seq": seq}, payload_bytes=50)
        tiny_clos.sim.run_for(seconds(1))
        assert [c.payload["seq"] for c in kept] == [0, 1, 2, 3, 4]
        assert len({id(c) for c in kept}) == 5

    def test_ud_send_cqe_at_wire_departure(self, tiny_clos):
        """UD send CQE must predate delivery: it is timestamp ② of Fig 4."""
        c = tiny_clos
        a, b = make_pair(c)
        cqes_a, cqes_b = [], []
        qp_a = ud_qp(c, a, cqes_a)
        qp_b = ud_qp(c, b, cqes_b)
        send_sim_times = []
        qp_a.on_cqe = lambda cqe: send_sim_times.append(c.sim.now)
        recv_sim_times = []
        qp_b.on_cqe = lambda cqe: recv_sim_times.append(c.sim.now)
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert send_sim_times[0] < recv_sim_times[0]

    def test_cqe_timestamps_on_rnic_clock(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        cqes_a = []
        qp_a = ud_qp(c, a, cqes_a)
        qp_b = ud_qp(c, b, [])
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        cqe = cqes_a[0]
        # The timestamp is a's clock reading at some sim time <= now.
        assert cqe.rnic_timestamp_ns <= a.clock.read(c.sim.now)
        assert cqe.rnic_timestamp_ns != c.sim.now  # clocks are offset

    def test_unknown_dst_qpn_dropped(self, tiny_clos):
        """The QPN-reset noise mechanism: stale QPN -> silent drop."""
        c = tiny_clos
        a, b = make_pair(c)
        qp_a = ud_qp(c, a, [])
        cqes_b = []
        ud_qp(c, b, cqes_b)
        a.post_send(qp_a, CommInfo(b.ip, b.gid.value, qpn=0xDEAD),
                    src_port=5000, payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert cqes_b == []
        assert b.local_drops.get("qpn_mismatch") == 1

    def test_wrong_gid_dropped(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        qp_a = ud_qp(c, a, [])
        cqes_b = []
        qp_b = ud_qp(c, b, cqes_b)
        bad = CommInfo(b.ip, "::ffff:1.2.3.4", qp_b.qpn)
        a.post_send(qp_a, bad, src_port=5000, payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert cqes_b == []
        assert b.local_drops.get("gid_mismatch") == 1


class TestRcSemantics:
    def _connect_rc(self, cluster):
        a = cluster.rnic("host0-rnic0")
        b = cluster.rnic("host1-rnic0")
        host_a = cluster.host_of_rnic(a.name)
        host_b = cluster.host_of_rnic(b.name)
        cqes_a, cqes_b = [], []
        qp_a = host_a.verbs.create_qp(a, QPType.RC, on_cqe=cqes_a.append)
        qp_b = host_b.verbs.create_qp(b, QPType.RC, on_cqe=cqes_b.append)
        host_a.verbs.connect_qp(a, qp_a,
                                CommInfo(b.ip, b.gid.value, qp_b.qpn), 6000)
        host_b.verbs.connect_qp(b, qp_b,
                                CommInfo(a.ip, a.gid.value, qp_a.qpn), 6000)
        return a, b, qp_a, qp_b, cqes_a, cqes_b

    def test_rc_send_cqe_waits_for_ack(self, tiny_clos):
        """Table 1: RC send CQE = ACK arrival, so no wire timestamp ②."""
        c = tiny_clos
        a, b, qp_a, qp_b, cqes_a, cqes_b = self._connect_rc(c)
        send_cqe_time = []
        recv_time = []
        qp_a.on_cqe = lambda cqe: send_cqe_time.append(c.sim.now)
        qp_b.on_cqe = lambda cqe: recv_time.append(c.sim.now)
        a.post_send(qp_a, qp_a.remote, src_port=6000, payload={},
                    payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert len(recv_time) == 1
        assert len(send_cqe_time) == 1
        # The send completion arrived AFTER the receiver got the message.
        assert send_cqe_time[0] > recv_time[0]

    def test_rc_rejects_unknown_peer_qpn(self, tiny_clos):
        c = tiny_clos
        a, b, qp_a, qp_b, cqes_a, cqes_b = self._connect_rc(c)
        stranger = c.rnic("host2-rnic0")
        host_s = c.host_of_rnic(stranger.name)
        qp_s = host_s.verbs.create_qp(stranger, QPType.RC)
        host_s.verbs.connect_qp(stranger, qp_s,
                                CommInfo(b.ip, b.gid.value, qp_b.qpn), 6000)
        before = b.local_drops.get("qpn_mismatch", 0)
        stranger.post_send(qp_s, qp_s.remote, src_port=6000, payload={},
                           payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert b.local_drops.get("qpn_mismatch", 0) == before + 1


class TestQpcCache:
    def test_ud_consumes_no_connection_slots(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        ud_qp(tiny_clos, a, [])
        assert a.qpc_in_use == 0

    def test_rc_consumes_slots(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        host_a = c.host_of_rnic(a.name)
        for i in range(10):
            qp = host_a.verbs.create_qp(a, QPType.RC)
            host_a.verbs.connect_qp(a, qp, CommInfo(b.ip, b.gid.value, i + 1),
                                    6000 + i)
        assert a.qpc_in_use == 10
        assert a.qpc_cache_pressure() == 10 / a.qpc_cache_slots

    def test_destroy_releases_slot(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        host_a = c.host_of_rnic(a.name)
        qp = host_a.verbs.create_qp(a, QPType.RC)
        host_a.verbs.connect_qp(a, qp, CommInfo(b.ip, b.gid.value, 1), 6000)
        host_a.verbs.destroy_qp(a, qp)
        assert a.qpc_in_use == 0


class TestFailureModes:
    def test_down_rnic_cannot_send(self, tiny_clos):
        a, b = make_pair(tiny_clos)
        qp = ud_qp(tiny_clos, a, [])
        a.admin_up = False
        with pytest.raises(LocalSendError):
            a.post_send(qp, CommInfo(b.ip, b.gid.value, 1), src_port=5000,
                        payload={}, payload_bytes=10)

    def test_down_rnic_drops_inbound(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        qp_a = ud_qp(c, a, [])
        cqes_b = []
        qp_b = ud_qp(c, b, cqes_b)
        b.admin_up = False
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert cqes_b == []

    def test_routing_misconfig_blocks_send(self, tiny_clos):
        a, b = make_pair(tiny_clos)
        qp = ud_qp(tiny_clos, a, [])
        a.routing_configured = False
        with pytest.raises(LocalSendError) as excinfo:
            a.post_send(qp, CommInfo(b.ip, b.gid.value, 1), src_port=5000,
                        payload={}, payload_bytes=10)
        assert excinfo.value.reason == "routing_unconfigured"

    def test_gid_missing_blocks_both_directions(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        qp_a = ud_qp(c, a, [])
        cqes_b = []
        qp_b = ud_qp(c, b, cqes_b)
        b.gid_index_present = False
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert cqes_b == []
        with pytest.raises(LocalSendError):
            b.post_send(qp_b, a.comm_info(qp_a.qpn), src_port=5000,
                        payload={}, payload_bytes=50)

    def test_host_down_implies_rnic_down(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        host = tiny_clos.host_of_rnic(a.name)
        host.set_down()
        assert not a.operational
        host.set_up()
        assert a.operational

    def test_rnic_dies_between_post_and_wire(self, tiny_clos):
        """No CQE is ever generated for a message flushed on the way out."""
        c = tiny_clos
        a, b = make_pair(c)
        cqes_a = []
        qp_a = ud_qp(c, a, cqes_a)
        qp_b = ud_qp(c, b, [])
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        a.admin_up = False  # dies before the TX pipeline finishes
        c.sim.run_for(seconds(1))
        assert cqes_a == []

    def test_tx_corruption_counts(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        qp_a = ud_qp(c, a, [])
        cqes_b = []
        qp_b = ud_qp(c, b, cqes_b)
        a.tx_corruption_prob = 1.0
        a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                    payload={}, payload_bytes=50)
        c.sim.run_for(seconds(1))
        assert cqes_b == []
        assert a.local_drops.get("tx_corruption") == 1


class TestHostLookahead:
    """``on_sent`` consumers: departures run at post time while the RNIC is
    settled, and a write to what they read takes them back (DESIGN.md §10).
    The exhaustive check is ``test_host_lookahead_equivalence``; these pin
    the API."""

    @staticmethod
    def sender(cluster, rnic, sent):
        host = cluster.host_of_rnic(rnic.name)
        return host.verbs.create_qp(
            rnic, QPType.UD,
            on_sent=lambda qp, context, timestamp, at_ns:
                sent.append((context, timestamp, at_ns)))

    def post(self, cluster, a, b, qp_a, qp_b, **kwargs):
        return a.post_send(qp_a, b.comm_info(qp_b.qpn), src_port=5000,
                           payload={}, payload_bytes=50, **kwargs)

    def test_completion_comes_at_post_time_with_the_departure_instant(
            self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        sent, cqes_b = [], []
        qp_a, qp_b = self.sender(c, a, sent), ud_qp(c, b, cqes_b)
        c.sim.run_for(1_000)
        self.post(c, a, b, qp_a, qp_b, context="mine")
        ((context, timestamp, at_ns),) = sent
        assert context == "mine"
        assert at_ns > c.sim.now == 1_000
        assert timestamp == a.clock.read(at_ns)
        # Counters read clock-exact: nothing has left yet.
        assert (a.tx_packets, a.tx_bytes, len(a.planned())) == (0, 0, 1)
        assert c.fabric.packets_injected == 0
        assert c.fabric.packets_in_flight == 1
        events = c.sim.events_processed
        c.sim.run_until(at_ns)
        assert (a.tx_packets, a.tx_bytes, len(a.planned())) == (1, 108, 0)
        assert c.fabric.packets_injected == 1
        c.sim.run_for(seconds(1))
        assert len(cqes_b) == 1
        assert c.sim.events_processed == events + 1     # the delivery

    def test_cqe_consumers_keep_their_event(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        cqes_a = []
        qp_a, qp_b = ud_qp(c, a, cqes_a), ud_qp(c, b, [])
        self.post(c, a, b, qp_a, qp_b)
        assert cqes_a == [] and len(a.planned()) == 0
        c.sim.run_for(seconds(1))
        assert [q.kind for q in cqes_a] == [CqeKind.SEND]

    @pytest.mark.parametrize("write", [
        lambda c, a: setattr(a, "admin_up", False),
        lambda c, a: setattr(a, "flap_down", True),
        lambda c, a: c.host_of_rnic(a.name).set_down(),
        lambda c, a: setattr(c.host_of_rnic(a.name), "up", False),
    ], ids=["admin_up", "flap_down", "set_down", "host.up"])
    def test_a_write_takes_the_departure_back(self, tiny_clos, write):
        c = tiny_clos
        a, b = make_pair(c)
        sent, cqes_b = [], []
        qp_a, qp_b = self.sender(c, a, sent), ud_qp(c, b, cqes_b)
        self.post(c, a, b, qp_a, qp_b)
        c.sim.run_for(500)
        write(c, a)
        assert a.step_demotions == 1
        assert c.fabric.packets_in_flight == 0
        c.sim.run_for(seconds(1))
        # Re-queued at its instant, it found the NIC down: lost, counted,
        # never delivered — what the per-event departure did.
        assert a.local_drops == {"rnic_down": 1}
        assert (a.tx_packets, cqes_b) == (0, [])

    def test_unsettled_rnic_departs_by_event(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        sent = []
        qp_a, qp_b = self.sender(c, a, sent), ud_qp(c, b, [])
        a.tx_corruption_prob = 1.0
        assert not a.settled
        self.post(c, a, b, qp_a, qp_b)
        assert sent == [] and len(a.planned()) == 0
        c.sim.run_for(seconds(1))
        ((_, timestamp, at_ns),) = sent     # the NIC believes it sent it
        assert timestamp == a.clock.read(at_ns) and at_ns < c.sim.now
        assert a.local_drops == {"tx_corruption": 1}

    def test_posting_ahead_and_taking_the_post_back(self, tiny_clos):
        c = tiny_clos
        a, b = make_pair(c)
        sent = []
        qp_a, qp_b = self.sender(c, a, sent), ud_qp(c, b, [])
        self.post(c, a, b, qp_a, qp_b, context="ack", at_ns=5_000)
        assert len(a.planned(1)) == 1 and sent[0][2] > 5_000
        c.sim.run_for(2_000)
        a.routing_configured = False
        # Un-posted: the consumer is told, with the post instant.
        assert sent[1] == ("ack", None, 5_000)
        assert (len(a.planned(1)), len(a.planned())) == (0, 0)
        assert c.fabric.packets_in_flight == 0
        with pytest.raises(Exception, match="ahead of the clock"):
            self.post(c, a, b, qp_a, qp_b, at_ns=9_000)

    def test_rc_cannot_register_on_sent(self, tiny_clos):
        a, _ = make_pair(tiny_clos)
        with pytest.raises(ValueError):
            a.allocate_qp(QPType.RC, on_sent=print)
