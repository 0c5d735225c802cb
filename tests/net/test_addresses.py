"""Unit tests for addressing primitives."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core.records import ProbeKind, ProbeResult
from repro.net.addresses import (GID, ROCE_UDP_PORT, FiveTuple, IPAllocator,
                                 PROTO_TCP, PROTO_UDP, roce_five_tuple)

SRC = Path(__file__).resolve().parents[2] / "src"

# Run in a child process under another PYTHONHASHSEED: builds 5-tuples and
# a ProbeResult carrying one, and writes their pickle plus the child's own
# hash of the first tuple to stdout.
_CHILD = """
import pickle, sys
from repro.core.records import ProbeKind, ProbeResult
from repro.net.addresses import FiveTuple, roce_five_tuple
tuples = [roce_five_tuple("10.0.0.1", "10.0.0.2", 12345),
          FiveTuple("10.0.0.3", 4791, "10.0.0.4", 80, "tcp")]
result = ProbeResult(kind=ProbeKind.TOR_MESH, seq=7, prober_rnic="a",
                     prober_host="h", target_rnic="b", target_ip="10.0.0.2",
                     target_qpn=300, five_tuple=tuples[0], issued_at_ns=5)
sys.stdout.buffer.write(pickle.dumps((hash(tuples[0]), tuples, result)))
"""


class TestFiveTuple:
    def test_roce_tuple_is_roce(self):
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 12345)
        assert ft.is_roce
        assert ft.dst_port == ROCE_UDP_PORT
        assert ft.proto == PROTO_UDP

    def test_tcp_tuple_is_not_roce(self):
        ft = FiveTuple("10.0.0.1", 4791, "10.0.0.2", 4791, PROTO_TCP)
        assert not ft.is_roce

    def test_udp_wrong_port_is_not_roce(self):
        ft = FiveTuple("10.0.0.1", 1000, "10.0.0.2", 1001, PROTO_UDP)
        assert not ft.is_roce

    def test_roce_reversed_echoes_source_port(self):
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 12345)
        back = ft.reversed()
        # ACKs keep dst port 4791 and reuse the probe's source port (§5).
        assert back.src_ip == "10.0.0.2"
        assert back.dst_ip == "10.0.0.1"
        assert back.src_port == 12345
        assert back.dst_port == ROCE_UDP_PORT

    def test_tcp_reversed_swaps_both(self):
        ft = FiveTuple("a", 10, "b", 20, PROTO_TCP)
        back = ft.reversed()
        assert (back.src_ip, back.src_port) == ("b", 20)
        assert (back.dst_ip, back.dst_port) == ("a", 10)

    def test_roce_double_reverse_is_identity(self):
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7777)
        assert ft.reversed().reversed() == ft

    def test_invalid_ports_rejected(self):
        with pytest.raises(ValueError):
            FiveTuple("a", 0, "b", 1, PROTO_UDP)
        with pytest.raises(ValueError):
            FiveTuple("a", 1, "b", 70000, PROTO_UDP)

    def test_invalid_proto_rejected(self):
        with pytest.raises(ValueError):
            FiveTuple("a", 1, "b", 2, "sctp")

    def test_hashable_and_equal(self):
        a = roce_five_tuple("x", "y", 5)
        b = roce_five_tuple("x", "y", 5)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @given(st.integers(min_value=1024, max_value=65535))
    def test_reversed_preserves_roce_property(self, port):
        ft = roce_five_tuple("1.1.1.1", "2.2.2.2", port)
        assert ft.reversed().is_roce


class TestFiveTupleHashAcrossProcesses:
    """A 5-tuple's hash is today's tuple hash, computed in each process:
    ``str`` hashes differ per process, so a stored one would go stale in a
    pickle (a checkpoint, a fleet worker's result)."""

    @staticmethod
    def _from_child():
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", _CHILD], env=env,
                             check=True, capture_output=True).stdout
        return pickle.loads(out)

    def test_hash_is_the_tuple_hash_of_the_fields(self):
        ft = FiveTuple("10.0.0.3", 4791, "10.0.0.4", 80, "tcp")
        assert hash(ft) == hash(("10.0.0.3", 4791, "10.0.0.4", 80, "tcp"))
        rt = roce_five_tuple("10.0.0.1", "10.0.0.2", 12345)
        assert hash(rt) == hash(
            (rt.src_ip, rt.src_port, rt.dst_ip, rt.dst_port, rt.proto))

    def test_unpickled_tuples_hash_and_look_up_like_fresh_ones(self):
        child_hash, tuples, result = self._from_child()
        fresh = [roce_five_tuple("10.0.0.1", "10.0.0.2", 12345),
                 FiveTuple("10.0.0.3", 4791, "10.0.0.4", 80, "tcp")]
        # The child really hashed differently (the check is not vacuous).
        assert child_hash != hash(fresh[0])
        assert [type(ft) for ft in tuples] == [FiveTuple, FiveTuple]
        assert tuples == fresh
        assert [hash(ft) for ft in tuples] == [hash(ft) for ft in fresh]
        keyed = {ft: n for n, ft in enumerate(fresh)}
        assert [keyed[ft] for ft in tuples] == [0, 1]
        assert {ft: n for n, ft in enumerate(tuples)}[fresh[1]] == 1
        assert isinstance(result, ProbeResult)
        assert result.kind is ProbeKind.TOR_MESH
        assert result.five_tuple == fresh[0]
        assert hash(result.five_tuple) == hash(fresh[0])
        assert keyed[result.five_tuple] == 0


class TestGID:
    def test_from_ip_round_trip(self):
        gid = GID.from_ip("10.1.2.3")
        assert gid.value == "::ffff:10.1.2.3"
        assert gid.ip == "10.1.2.3"
        assert gid.index == 3

    def test_non_mapped_gid_ip_raises(self):
        with pytest.raises(ValueError):
            GID("fe80::1").ip


class TestIPAllocator:
    def test_unique_addresses(self):
        alloc = IPAllocator()
        ips = [alloc.allocate() for _ in range(300)]
        assert len(set(ips)) == 300

    def test_contains(self):
        alloc = IPAllocator()
        ip = alloc.allocate()
        assert ip in alloc
        assert "9.9.9.9" not in alloc

    def test_prefix(self):
        alloc = IPAllocator(prefix=172)
        assert alloc.allocate().startswith("172.")

    def test_bad_prefix(self):
        with pytest.raises(ValueError):
            IPAllocator(prefix=0)
