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
    # True while a PacketPool owns this packet's storage: the fabric may
    # recycle it after delivery.  Directly-constructed packets stay False
    # and are never recycled, so references held by tests or DropRecords
    # cannot be mutated behind their backs.
    pooled: bool = False

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


class PacketPool:
    """Bounded free list recycling :class:`RoCEPacket` storage.

    Probe traffic churns through millions of short-lived RoCE packets;
    the pool reuses their (slotted) storage and payload dicts instead of
    re-allocating per probe.

    Ownership contract (DESIGN.md §10):

    * a packet acquired here belongs to the fabric until its delivery
      callback returns — receivers must copy anything they keep (an RNIC
      copies fields into any ``Cqe`` it builds; ``on_recv`` consumers copy);
    * *delivered* packets are released back to the pool;
    * *dropped* packets are never released — :class:`~repro.net.fabric.
      DropRecord` retains them, and recycling would rewrite drop evidence;
    * every acquired field is reassigned on reuse (payload dicts are
      cleared), so no stale state can leak between probes;
    * ``limit=0`` disables reuse; acquire still works and must be
      behaviourally indistinguishable (golden digests prove it);
    * with a ``sanitizer`` (PoolSan, DESIGN.md §12) every acquire/release
      is tracked, released packets are poisoned, and double-releasing a
      pool-owned packet raises instead of passing silently.
    """

    __slots__ = ("limit", "_free", "reused", "released", "_san")

    def __init__(self, limit: int = 0, *, sanitizer=None):
        self.limit = limit
        self._free: list[RoCEPacket] = []
        self.reused = 0
        self.released = 0
        self._san = sanitizer

    @property
    def free_count(self) -> int:
        """Packets currently parked on the free list (gauge surface)."""
        return len(self._free)

    def acquire_roce(self, five_tuple: FiveTuple, size_bytes: int,
                     opcode: RoCEOpcode, src_qpn: int, dst_qpn: int,
                     src_gid: str, dst_gid: str,
                     payload: dict[str, Any]) -> RoCEPacket:
        """A RoCE packet with exactly these fields (payload is copied)."""
        free = self._free
        if free:
            self.reused += 1
            packet = free.pop()
            if self._san is not None:
                self._san.reacquire_packet(packet)
            packet.five_tuple = five_tuple
            packet.size_bytes = size_bytes
            packet.traffic_class = TC_ROCE
            packet.ttl = 64
            stale = packet.payload
            stale.clear()
            stale.update(payload)
            packet.packet_id = 0
            packet.sent_at_ns = None
            packet.opcode = opcode
            packet.src_qpn = src_qpn
            packet.dst_qpn = dst_qpn
            packet.src_gid = src_gid
            packet.dst_gid = dst_gid
            packet.pooled = True
            return packet
        packet = RoCEPacket(
            five_tuple=five_tuple, size_bytes=size_bytes,
            opcode=opcode, src_qpn=src_qpn, dst_qpn=dst_qpn,
            src_gid=src_gid, dst_gid=dst_gid, payload=dict(payload))
        packet.pooled = True
        if self._san is not None:
            self._san.acquire_packet(packet)
        return packet

    def release(self, packet: Packet) -> None:
        """Return a delivered pool-owned packet; foreign packets pass by.

        A packet without the ``pooled`` flag is ignored: either it was
        never pool-owned (hand-constructed), or it was *already released*
        — the first release clears the flag.  The sanitizer tells those
        apart and raises :class:`~repro.analysis.sanitize.
        PoolSanitizerError` on the double-release case, which plain mode
        cannot distinguish and must let pass.
        """
        if not packet.pooled:
            if self._san is not None:
                self._san.foreign_release(packet)
            return
        packet.pooled = False
        recycled = len(self._free) < self.limit
        if self._san is not None:
            self._san.release_packet(packet, recycled=recycled)
        if recycled:
            self.released += 1
            self._free.append(packet)


# Overheads used to size small control packets realistically.
ROCE_HEADER_BYTES = 58   # Eth + IP + UDP + BTH (+ICRC)
TCP_HEADER_BYTES = 54    # Eth + IP + TCP
PROBE_PAYLOAD_BYTES = 50  # paper §5: 50-byte probe/ACK payload


def probe_packet_size() -> int:
    """On-wire size of an R-Pingmesh probe or ACK."""
    return ROCE_HEADER_BYTES + PROBE_PAYLOAD_BYTES
