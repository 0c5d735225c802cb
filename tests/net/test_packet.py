"""Unit tests for packet models."""

import pytest

from repro.net.addresses import FiveTuple, PROTO_TCP, roce_five_tuple
from repro.net.packet import (PROBE_PAYLOAD_BYTES, ROCE_HEADER_BYTES,
                              PacketPool, RoCEOpcode, RoCEPacket, TCPPacket,
                              TC_ROCE, TC_TCP, Packet, probe_packet_size)


def _ft():
    return roce_five_tuple("10.0.0.1", "10.0.0.2", 1234)


def test_roce_packet_defaults():
    p = RoCEPacket(five_tuple=_ft(), size_bytes=108)
    assert p.traffic_class == TC_ROCE
    assert p.opcode == RoCEOpcode.UD_SEND


def test_roce_packet_requires_port_4791():
    bad = FiveTuple("a", 1234, "b", 1235)
    with pytest.raises(ValueError):
        RoCEPacket(five_tuple=bad, size_bytes=100)


def test_tcp_packet_forced_to_tcp_class():
    p = TCPPacket(five_tuple=FiveTuple("a", 1, "b", 2, PROTO_TCP),
                  size_bytes=100)
    assert p.traffic_class == TC_TCP


def test_size_must_be_positive():
    with pytest.raises(ValueError):
        Packet(five_tuple=_ft(), size_bytes=0)


def test_bad_traffic_class_rejected():
    with pytest.raises(ValueError):
        Packet(five_tuple=_ft(), size_bytes=10, traffic_class="mgmt")


def test_packet_id_unset_until_injected():
    # Ids are stamped by Fabric.inject from a per-fabric counter so that
    # same-process replays see identical ids; construction assigns none.
    a = Packet(five_tuple=_ft(), size_bytes=10)
    b = Packet(five_tuple=_ft(), size_bytes=10)
    assert a.packet_id == 0
    assert b.packet_id == 0


def test_probe_packet_size_matches_paper_payload():
    assert probe_packet_size() == ROCE_HEADER_BYTES + PROBE_PAYLOAD_BYTES
    assert PROBE_PAYLOAD_BYTES == 50  # §5


def test_payload_is_per_packet():
    a = Packet(five_tuple=_ft(), size_bytes=10)
    b = Packet(five_tuple=_ft(), size_bytes=10)
    a.payload["k"] = 1
    assert "k" not in b.payload


def _built(payload):
    return PacketPool.acquire_roce(
        roce_five_tuple("10.9.9.9", "10.0.0.2", 6001), 108,
        RoCEOpcode.UD_SEND, 17, 23, "gid-src", "gid-dst", payload)


def test_acquire_roce_matches_a_hand_built_packet():
    """The builder skips the dataclass constructor, so every field it
    writes is checked against one that ran it."""
    built = _built({"a": 1})
    fresh = RoCEPacket(
        five_tuple=roce_five_tuple("10.9.9.9", "10.0.0.2", 6001),
        size_bytes=108, opcode=RoCEOpcode.UD_SEND, src_qpn=17,
        dst_qpn=23, src_gid="gid-src", dst_gid="gid-dst", payload={"a": 1})
    assert type(built) is RoCEPacket
    assert built == fresh


def test_acquire_roce_copies_the_payload():
    caller_payload = {"t": "probe"}
    packet = _built(caller_payload)
    packet.payload["mutated"] = True
    assert caller_payload == {"t": "probe"}


def test_acquire_roce_rejects_a_non_positive_size():
    with pytest.raises(ValueError, match="size_bytes"):
        PacketPool.acquire_roce(_ft(), 0, RoCEOpcode.UD_SEND, 1, 2,
                                "gid-src", "gid-dst", {})
