"""Pool-reuse correctness: recycled storage must be indistinguishable.

Two pools are pinned here — ``_Event`` records in the engine and
``RoCEPacket`` storage in the fabric.  Pooling is purely an allocation
strategy: these tests pin the property that makes it invisible — no stale
state ever leaks through a recycled record (payload keys,
drop/trace-adjacent annotations) — and that the engine runs the same
events at any pool size.  ``Cqe``s are not pooled: an RNIC builds one only
for a registered ``on_cqe``, which owns it.  Whole-system neutrality is
PoolSan's (``tests/analysis/test_sanitize.py``) and the golden digests'.
"""

from repro.host.rnic import QPType
from repro.net.addresses import roce_five_tuple
from repro.net.packet import PacketPool, RoCEOpcode, RoCEPacket
from repro.sim.engine import Simulator
from repro.sim.units import seconds


# -- packet pool -------------------------------------------------------------

def _acquire(pool, *, src="10.0.0.1", dst="10.0.0.2", port=5000,
             payload=None):
    return pool.acquire_roce(
        roce_five_tuple(src, dst, port), 108, RoCEOpcode.UD_SEND,
        17, 23, "gid-src", "gid-dst", payload if payload is not None else {})


class TestPacketPool:
    def test_reuse_resets_every_field(self):
        pool = PacketPool(limit=4)
        first = _acquire(pool, payload={"t": "probe", "seq": 9})
        # Simulate everything a traversal mutates or annotates.
        first.ttl = 3
        first.packet_id = 77
        first.sent_at_ns = 123456
        first.payload["drop_reason"] = "corruption"
        first.payload["trace"] = ["tor0", "agg1"]
        pool.release(first)

        second = _acquire(pool, src="10.9.9.9", port=6001, payload={"a": 1})
        assert second is first, "pool should have recycled the record"
        fresh = RoCEPacket(
            five_tuple=roce_five_tuple("10.9.9.9", "10.0.0.2", 6001),
            size_bytes=108, opcode=RoCEOpcode.UD_SEND, src_qpn=17,
            dst_qpn=23, src_gid="gid-src", dst_gid="gid-dst",
            payload={"a": 1})
        for field_name in ("five_tuple", "size_bytes", "traffic_class",
                          "ttl", "payload", "packet_id", "sent_at_ns",
                          "opcode", "src_qpn", "dst_qpn", "src_gid",
                          "dst_gid"):
            assert getattr(second, field_name) == getattr(fresh, field_name), (
                f"stale {field_name} leaked through the pool")
        assert second.pooled

    def test_payload_is_copied_not_aliased(self):
        pool = PacketPool(limit=4)
        caller_payload = {"t": "probe"}
        packet = _acquire(pool, payload=caller_payload)
        packet.payload["mutated"] = True
        assert caller_payload == {"t": "probe"}

    def test_release_is_noop_for_foreign_packets(self):
        pool = PacketPool(limit=4)
        foreign = RoCEPacket(
            five_tuple=roce_five_tuple("10.0.0.1", "10.0.0.2", 5000),
            size_bytes=108)
        pool.release(foreign)
        assert pool.released == 0
        assert _acquire(pool) is not foreign

    def test_limit_zero_disables_reuse(self):
        pool = PacketPool(limit=0)
        packet = _acquire(pool)
        pool.release(packet)
        assert _acquire(pool) is not packet

    def test_double_release_cannot_double_free(self):
        pool = PacketPool(limit=4)
        packet = _acquire(pool)
        pool.release(packet)
        pool.release(packet)   # pooled flag already cleared: no-op
        assert pool.released == 1
        first = _acquire(pool)
        second = _acquire(pool)
        assert first is not second

    def test_double_release_raises_under_sanitize(self):
        """The silent no-op above becomes a hard error with PoolSan on.

        Plain pools must stay forgiving (foreign packets legitimately
        pass through release), but under ``sanitize=True`` a second
        release of a pool-owned packet is the exact double-free bug the
        sanitizer exists for — it must raise, not pass.
        """
        import pytest
        from repro.analysis.sanitize import PoolSanitizer, \
            PoolSanitizerError
        sanitizer = PoolSanitizer()
        sanitizer.bind_sim(Simulator(seed=0))
        pool = PacketPool(limit=4, sanitizer=sanitizer)
        packet = _acquire(pool)
        pool.release(packet)
        with pytest.raises(PoolSanitizerError, match="double release"):
            pool.release(packet)
        # The free list is intact: exactly one copy was banked, so two
        # acquires still hand out distinct objects.
        assert pool.released == 1
        assert _acquire(pool) is not _acquire(pool)

    def test_dropped_packets_keep_their_evidence(self, tiny_clos):
        """DropRecords retain the packet; the pool must never rewrite it."""
        fabric = tiny_clos.fabric
        a = tiny_clos.rnic("host0-rnic0")
        b = tiny_clos.rnic("host1-rnic0")
        # Deny b's traffic at its ToR so pooled probe packets get dropped.
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
        # Push traffic through the pool afterwards; the drop evidence must
        # not be recycled out from under the record.
        for i in range(20):
            other = fabric.packet_pool.acquire_roce(
                roce_five_tuple(b.ip, a.ip, 6000 + i), 108,
                RoCEOpcode.UD_SEND, 1, 2, b.gid.value, a.gid.value,
                {"seq": i})
            fabric.inject(other, b.name)
            tiny_clos.sim.run_for(seconds(1))
        assert dropped.payload == {"t": "probe", "seq": 42}


# -- CQEs: not pooled, owned by their handler ---------------------------------

class TestCqePool:
    def test_handlers_that_never_release_keep_their_cqes(self, tiny_clos):
        """Test/experiment handlers retain CQEs; they must stay as
        delivered while the packets they came from are recycled."""
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


# -- event pool --------------------------------------------------------------

class TestEventPool:
    def test_stale_handle_cannot_cancel_recycled_event(self):
        sim = Simulator(seed=0, event_pool_size=8)
        fired = []
        handle = sim.call_at(10, lambda: fired.append("first"))
        sim.run_until(20)
        # The record is back in the free list; the next call reuses it.
        handle2 = sim.call_at(30, lambda: fired.append("second"))
        assert handle2._event is handle._event, "record should be recycled"
        handle.cancel()           # stale: generation mismatch, must be inert
        sim.run_until(40)
        assert fired == ["first", "second"]

    def test_event_pool_zero_matches_default_execution(self):
        def run(pool_size):
            sim = Simulator(seed=5, event_pool_size=pool_size)
            log = []
            sim.every(7, lambda: log.append(("a", sim.now)), jitter=3)
            sim.every(11, lambda: log.append(("b", sim.now)))
            sim.call_at(50, lambda: log.append(("c", sim.now)))
            handle = sim.call_at(60, lambda: log.append(("never", sim.now)))
            sim.call_at(55, handle.cancel)
            sim.run_until(500)
            return log, sim.events_processed, sim.pending()

        assert run(0) == run(8192)
