"""Addressing primitives: IPs, GIDs, QPNs, and 5-tuples.

RoCEv2 encapsulates RDMA over UDP: the *outer* 5-tuple is
``(src_ip, src_port, dst_ip, 4791, UDP)`` and is what ECMP hashes on; the
*inner* 4-tuple ``(src_gid, src_qpn, dst_gid, dst_qpn)`` is what the RNIC
uses to identify a flow (paper §3.1).  The verbs API lets an application
choose the outer UDP source port (the "flow label"), which is exactly how
R-Pingmesh steers probes onto the same ECMP paths as service flows.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

ROCE_UDP_PORT = 4791
PROTO_UDP = "udp"
PROTO_TCP = "tcp"

# Valid ephemeral source-port range used for flow labels.
MIN_SRC_PORT = 1024
MAX_SRC_PORT = 65535


_FiveTupleFields = namedtuple("_FiveTupleFields", (
    "src_ip", "src_port", "dst_ip", "dst_port", "proto"))


class FiveTuple(_FiveTupleFields):
    """Outer transport 5-tuple; the unit ECMP hashes on.

    A tuple, so it hashes and compares at C level: its hash is
    ``hash((src_ip, src_port, dst_ip, dst_port, proto))``, computed afresh
    in every process (``str`` hashes are per process, so none is stored).
    """

    __slots__ = ()

    def __new__(cls, src_ip: str, src_port: int, dst_ip: str,
                dst_port: int, proto: str = PROTO_UDP) -> "FiveTuple":
        if not 0 < src_port <= MAX_SRC_PORT:
            raise ValueError(f"bad src_port: {src_port}")
        if not 0 < dst_port <= MAX_SRC_PORT:
            raise ValueError(f"bad dst_port: {dst_port}")
        if proto not in (PROTO_UDP, PROTO_TCP):
            raise ValueError(f"bad proto: {proto}")
        return tuple.__new__(cls, (src_ip, src_port, dst_ip, dst_port, proto))

    @property
    def is_roce(self) -> bool:
        """True for RoCEv2 packets (UDP destination port 4791)."""
        return self.proto == PROTO_UDP and self.dst_port == ROCE_UDP_PORT

    def reversed(self) -> "FiveTuple":
        """The 5-tuple of reply traffic.

        RoCE ACKs mimic the forward direction's source port (the responder
        echoes the probe's source port, §5), so for RoCE the reverse keeps
        destination port 4791 and uses the forward source port as its own
        source port.
        """
        if self.is_roce:
            return FiveTuple(self.dst_ip, self.src_port, self.src_ip,
                             self.dst_port, self.proto)
        return FiveTuple(self.dst_ip, self.dst_port, self.src_ip,
                         self.src_port, self.proto)

    def __str__(self) -> str:
        return (f"{self.proto}:{self.src_ip}:{self.src_port}->"
                f"{self.dst_ip}:{self.dst_port}")


def roce_five_tuple(src_ip: str, dst_ip: str, src_port: int) -> FiveTuple:
    """Build an outer RoCEv2 5-tuple with a chosen source port."""
    return FiveTuple(src_ip, src_port, dst_ip, ROCE_UDP_PORT, PROTO_UDP)


@dataclass(frozen=True, slots=True)
class GID:
    """RoCE Global Identifier.

    In RoCEv2 the GID is derived from the interface IP; we keep both the
    string form and the GID table index the paper's misconfiguration #7
    ("RNIC GID index missing") manipulates.
    """

    value: str
    index: int = 3  # RoCEv2 GIDs commonly live at index 3

    @classmethod
    def from_ip(cls, ip: str, index: int = 3) -> "GID":
        return cls(value=f"::ffff:{ip}", index=index)

    @property
    def ip(self) -> str:
        """The IPv4 address embedded in an IPv4-mapped GID."""
        if not self.value.startswith("::ffff:"):
            raise ValueError(f"not an IPv4-mapped GID: {self.value}")
        return self.value[len("::ffff:"):]


@dataclass(frozen=True, slots=True)
class FlowKey:
    """Inner RDMA 4-tuple identifying a flow to the RNIC (paper fn. 3)."""

    src_gid: str
    src_qpn: int
    dst_gid: str
    dst_qpn: int


class IPAllocator:
    """Hands out unique addresses inside a /8, one per RNIC or host NIC."""

    def __init__(self, prefix: int = 10):
        if not 0 < prefix < 256:
            raise ValueError(f"bad prefix: {prefix}")
        self._prefix = prefix
        self._next = 0
        self._allocated: set[str] = set()

    def allocate(self) -> str:
        """Return the next unused address."""
        n = self._next
        self._next += 1
        if n >= 1 << 24:
            raise RuntimeError("IP space exhausted")
        ip = f"{self._prefix}.{(n >> 16) & 0xFF}.{(n >> 8) & 0xFF}.{n & 0xFF}"
        self._allocated.add(ip)
        return ip

    def __contains__(self, ip: str) -> bool:
        return ip in self._allocated
