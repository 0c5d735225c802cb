"""Packet models for the simulated fabric.

Packets are plain dataclasses.  The fabric routes on the outer
:class:`~repro.net.addresses.FiveTuple`; RNICs dispatch on the RoCE
transport header fields (destination QPN, opcode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.net.addresses import FiveTuple

# RoCE and TCP traffic ride different switch/RNIC traffic queues so that
# PFC (pause, never drop) applies only to RoCE (paper §2.4).
TC_ROCE = "roce"
TC_TCP = "tcp"


class RoCEOpcode(Enum):
    """The subset of BTH opcodes the simulation distinguishes."""

    UD_SEND = "ud_send"
    RC_SEND = "rc_send"
    UC_SEND = "uc_send"
    RC_ACK = "rc_ack"


@dataclass(slots=True)
class Packet:
    """Base wire unit.

    ``payload`` carries structured application data (probe sequence numbers,
    reported processing delays); ``size_bytes`` is what queues and
    serialization see and is independent of the payload dict.
    """

    five_tuple: FiveTuple
    size_bytes: int
    traffic_class: str = TC_ROCE
    ttl: int = 64
    payload: dict[str, Any] = field(default_factory=dict)
    # Stamped by Fabric.inject from a per-fabric counter; 0 = not injected.
    # (A module-level counter here would be shared process-wide state,
    # breaking same-process replay — detlint DET005.)
    packet_id: int = 0
    sent_at_ns: Optional[int] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {self.size_bytes}")
        if self.traffic_class not in (TC_ROCE, TC_TCP):
            raise ValueError(f"bad traffic class: {self.traffic_class}")


@dataclass(slots=True)
class RoCEPacket(Packet):
    """RoCEv2 packet with the BTH fields RNIC dispatch needs."""

    opcode: RoCEOpcode = RoCEOpcode.UD_SEND
    src_qpn: int = 0
    dst_qpn: int = 0
    src_gid: str = ""
    dst_gid: str = ""

    def __post_init__(self) -> None:
        Packet.__post_init__(self)
        if not self.five_tuple.is_roce:
            raise ValueError(
                f"RoCE packet must target UDP 4791: {self.five_tuple}")


@dataclass(slots=True)
class TCPPacket(Packet):
    """TCP segment (management traffic, Pingmesh baseline, checkpoints)."""

    def __post_init__(self) -> None:
        Packet.__post_init__(self)
        self.traffic_class = TC_TCP


_new_packet = RoCEPacket.__new__


class PacketPool:
    """Builds the RoCE packets RNICs send (no storage is reused).

    A packet is owned by whoever holds it: the fabric while it walks, then
    its receiver, or the :class:`~repro.net.fabric.DropRecord` of its drop.
    Nothing recycles it, so a reference kept past delivery stays as it was.
    """

    __slots__ = ()

    @staticmethod
    def acquire_roce(five_tuple: FiveTuple, size_bytes: int,
                     opcode: RoCEOpcode, src_qpn: int, dst_qpn: int,
                     src_gid: str, dst_gid: str,
                     payload: dict[str, Any]) -> RoCEPacket:
        """A RoCE packet with exactly these fields (payload is copied).

        Built with ``__new__`` and slot writes, so of the dataclass checks a
        hand-built :class:`RoCEPacket` runs only the size check is kept:
        callers are RNICs, which address with ``roce_five_tuple``.
        """
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive: {size_bytes}")
        packet = _new_packet(RoCEPacket)
        packet.five_tuple = five_tuple
        packet.size_bytes = size_bytes
        packet.traffic_class = TC_ROCE
        packet.ttl = 64
        packet.payload = dict(payload)
        packet.packet_id = 0
        packet.sent_at_ns = None
        packet.opcode = opcode
        packet.src_qpn = src_qpn
        packet.dst_qpn = dst_qpn
        packet.src_gid = src_gid
        packet.dst_gid = dst_gid
        return packet


# Overheads used to size small control packets realistically.
ROCE_HEADER_BYTES = 58   # Eth + IP + UDP + BTH (+ICRC)
TCP_HEADER_BYTES = 54    # Eth + IP + TCP
PROBE_PAYLOAD_BYTES = 50  # paper §5: 50-byte probe/ACK payload


def probe_packet_size() -> int:
    """On-wire size of an R-Pingmesh probe or ACK."""
    return ROCE_HEADER_BYTES + PROBE_PAYLOAD_BYTES
