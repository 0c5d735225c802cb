"""Commodity RNIC model.

This is the hardware the paper's measurement method is built around, so the
model is deliberately faithful on the points the design exploits:

* **CQE timestamps only.**  The RNIC never exposes "time sent" or "time
  received" directly; it stamps Completion Queue Events with its own
  free-running clock.  The crucial asymmetry (Table 1): for **UD/UC** the
  send CQE is generated *when the message hits the wire*; for **RC** the
  send CQE is generated only *after the remote ACK arrives*, so timestamps
  ② and ④ of Figure 4 are unobtainable on RC — which is why the Agent
  probes with UD.
* **QPC cache.**  Connected QPs (RC/UC) occupy on-NIC connection-context
  cache slots; UD needs a single QP regardless of peer count.  The slot
  counter feeds the Table 1 "connection overhead" comparison.
* **Failure modes.**  Admin/flap down, missing routing configuration
  (fault #6), missing GID index (fault #7), TX/RX packet corruption
  (fault #2), and QPN mismatch drops (the "QPN reset" probe noise §4.3.1)
  are all modelled where the real device exhibits them.
* **Host lookahead** (DESIGN.md §10).  Wire departure is a reading, not a
  decision: for ``on_sent`` consumers it runs at post time while what it
  reads is settled, and a write to any of that takes it back.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.addresses import GID, FiveTuple, roce_five_tuple
from repro.net.fabric import DeliveryRecord, Fabric
from repro.net.packet import (ROCE_HEADER_BYTES, Packet, RoCEOpcode,
                              RoCEPacket)
from repro.host.clockmodel import Clock
from repro.sim.engine import SimulationError, Simulator
from repro.sim.ledger import hooked
from repro.sim.rng import RngStream
from repro.sim.units import MICROSECOND, DelayTable

if TYPE_CHECKING:
    from repro.host.host import Host

# Fixed TX pipeline latency (DMA fetch + pipeline), order of a microsecond.
TX_PIPELINE_NS = 1 * MICROSECOND
# Latency of the hardware auto-ACK turnaround for RC.
RC_HW_ACK_NS = 1 * MICROSECOND


class QPType(Enum):
    """Queue pair transport types (paper Table 1)."""

    RC = "rc"   # Reliable Connection
    UC = "uc"   # Unreliable Connection
    UD = "ud"   # Unreliable Datagram


# Wire opcode used when post_send is not given one explicitly.
_DEFAULT_OPCODE = {QPType.UD: RoCEOpcode.UD_SEND,
                   QPType.UC: RoCEOpcode.UC_SEND,
                   QPType.RC: RoCEOpcode.RC_SEND}


class QPState(Enum):
    """Simplified QP state machine."""

    RESET = "reset"
    RTS = "rts"          # ready to send/receive
    ERROR = "error"
    DESTROYED = "destroyed"


class CqeKind(Enum):
    """Completion type."""

    SEND = "send"
    RECV = "recv"


# A member read off its Enum class costs ~100 ns on CPython 3.11: the
# packet path compares against these instead.
_RC, _UC, _RTS = QPType.RC, QPType.UC, QPState.RTS
_SEND, _RECV, _RC_ACK = CqeKind.SEND, CqeKind.RECV, RoCEOpcode.RC_ACK


@dataclass(frozen=True, slots=True)
class CommInfo:
    """What a peer must know to address a QP (paper §4.1): IP, GID, QPN."""

    ip: str
    gid: str
    qpn: int


@dataclass(slots=True)
class Cqe:
    """A completion queue event.

    ``rnic_timestamp_ns`` is taken on this RNIC's own clock — the only
    timestamps commodity RNICs provide (§3.1).  Plain data, built only for
    a registered ``on_cqe``, which owns it and may keep it.
    """

    kind: CqeKind
    qpn: int
    wr_id: int
    rnic_timestamp_ns: int
    payload: dict[str, Any] = field(default_factory=dict)
    # RECV-side metadata needed to reply:
    src_ip: str = ""
    src_gid: str = ""
    src_qpn: int = 0
    src_port: int = 0
    opcode: Optional[RoCEOpcode] = None


@dataclass
class QueuePair:
    """A queue pair living on one RNIC."""

    qpn: int
    qp_type: QPType
    state: QPState = QPState.RESET
    on_cqe: Optional[Callable[[Cqe], None]] = None
    # Completions as plain calls instead of Cqes: Rnic.allocate_qp.
    on_sent: Optional[Callable[..., None]] = None
    on_recv: Optional[Callable[..., None]] = None
    # RC/UC connection attributes (set by modify_qp):
    remote: Optional[CommInfo] = None
    five_tuple: Optional[FiveTuple] = None
    # Wire opcode of a send posted without one (allocate_qp: by qp_type).
    opcode: Optional[RoCEOpcode] = None

    @property
    def connected(self) -> bool:
        """Whether this QP holds a connection context (RC/UC in RTS)."""
        return (self.qp_type in (QPType.RC, QPType.UC)
                and self.state == QPState.RTS and self.remote is not None)


class LocalSendError(Exception):
    """Raised when a post_send cannot even reach the wire.

    Carries a reason string; the Agent treats these identically to probe
    timeouts (no CQE ever arrives for lost probes on a real NIC — we raise
    so *tests* can distinguish local failure modes, while the Agent catches
    and converts to timeout accounting).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class Rnic:
    """One RDMA NIC attached to a topology host port of the same name."""

    def __init__(self, name: str, ip: str, sim: Simulator, fabric: Fabric,
                 clock: Clock, rng: RngStream, *,
                 link_gbps: float = 400.0, pcie_gbps: float = 512.0,
                 qpc_cache_slots: int = 256):
        self.name = name
        self.ip = ip
        self.sim = sim
        self.fabric = fabric
        self.clock = clock
        self.rng = rng
        self.link_gbps = link_gbps
        self.qpc_cache_slots = qpc_cache_slots
        # Sends whose departure ran ahead of the clock, oldest first:
        # (departure ns, post ns if posted ahead too else -1, qp, packet,
        # wr_id, context).
        self._planned: list[tuple] = []
        self.step_demotions = 0
        self._host: Optional["Host"] = None
        self._pcie_gbps = pcie_gbps
        self._gid_index_present = True
        self._routing_configured = True
        self._admin_up = True
        self._flap_down = False
        self._tx_corruption_prob = 0.0
        self._tracer = None
        self.resettle()
        sim.ledger.register(self, self.demote_planned)

        self.gid = GID.from_ip(ip)
        self.last_flap_ns = -(1 << 62)    # last flap transition
        self.rx_corruption_prob = 0.0

        self._qps: dict[int, QueuePair] = {}
        # Per-instance: wr_ids are only ever matched within one RNIC's
        # completion context, and a class-level counter would leak draw
        # history across scenarios run in the same process.
        self._wr_ids = itertools.count(1)
        self._next_qpn = rng.randint(0x100, 0xFFF)
        self._pending_rc_sends: dict[int, deque[int]] = {}
        # Hot-path memo: probe 5-tuples repeat per (peer, src_port).
        self._five_tuple_memo: dict[tuple[str, int], FiveTuple] = {}
        # Host TCP stack hook (Pingmesh baseline, checkpoint traffic).
        self.tcp_handler: Optional[
            Callable[[Packet, DeliveryRecord], None]] = None

        # Counters (the tx_* properties take planned departures back out).
        self._tx_packets = 0
        self.rx_packets = 0
        self._tx_bytes = 0
        self.rx_bytes = 0
        self.local_drops: dict[str, int] = {}

        fabric.attach_receiver(name, self._on_fabric_packet)
        fabric.register_ip(ip, name)

    # -- state, and host lookahead over it ------------------------------------

    def resettle(self) -> None:
        """Every hooked write ends here: ``operational`` (the NIC can move
        packets), ``settled`` (a send step may run ahead of the clock:
        it passes every local check, nothing traces it or draws for it) and
        ``tx_delays`` (size -> TX pipeline + PCIe serialization)."""
        self.tx_delays = DelayTable(self._pcie_gbps, TX_PIPELINE_NS)
        host = self._host
        self.operational = (self._admin_up and not self._flap_down
                            and (host is None or host.up))
        self.settled = (self.operational and self._routing_configured
                        and self._gid_index_present and self._tracer is None
                        and self._tx_corruption_prob == 0)

    def _plans(self) -> tuple:
        return ((self.sim.ledger, self),)

    # What a planned send step read: every write takes the RNIC's planned
    # steps back first (repro.sim.ledger), even one that changes nothing.
    # Faults: #13 lowers pcie_gbps, #7 / #6 / #3 clear gid_index_present /
    # routing_configured / admin_up, #1 toggles flap_down.
    host = hooked("_host", _plans, resettle, every_write=True)  # or None
    pcie_gbps = hooked("_pcie_gbps", _plans, resettle, every_write=True)
    gid_index_present = hooked("_gid_index_present", _plans, resettle,
                               every_write=True)
    routing_configured = hooked("_routing_configured", _plans, resettle,
                                every_write=True)
    admin_up = hooked("_admin_up", _plans, resettle, every_write=True)
    flap_down = hooked("_flap_down", _plans, resettle, every_write=True)
    tx_corruption_prob = hooked("_tx_corruption_prob", _plans, resettle,
                                every_write=True)       # fault #2, RNIC side
    # Probe-lifecycle tracer (repro.obs): only the RNIC reads its own clock,
    # so the CQE-timestamp events for Figure 4's ②-⑤ are emitted here.
    tracer = hooked("_tracer", _plans, resettle, every_write=True)

    def demote_planned(self) -> None:
        """Take back every planned send not due before now (the take-back
        filed under this RNIC): counters given back, packet withdrawn; a
        send *posted* ahead of the clock is un-posted (``on_sent`` gets a
        ``None`` timestamp), any other departs by event at its instant."""
        steps = self._planned
        if not steps:
            return
        self._planned = []
        now = self.sim.now
        stands = False
        for depart_ns, post_ns, qp, packet, wr_id, context in steps:
            if depart_ns < now:
                continue
            if not self.fabric.withdraw(packet):
                stands = True   # left this very ns, before the write: so
                continue        # did what its completion posted (for now)
            self._tx_packets -= 1
            self._tx_bytes -= packet.size_bytes
            self.step_demotions += 1
            if post_ns > now or (post_ns == now and not stands):
                qp.on_sent(qp, context, None, post_ns)
            else:
                self.sim.schedule(depart_ns - now, partial(
                    self._depart, qp, packet, wr_id, context, depart_ns))

    def planned(self, instant: int = 0) -> list[tuple]:
        """Planned sends whose departure (0) / post (1) is yet to come."""
        now = self.sim.now
        return [step for step in self._planned if step[instant] > now]

    @property
    def tx_packets(self) -> int:
        """Packets that have left the NIC by ``sim.now``."""
        return self._tx_packets - len(self.planned())

    @property
    def tx_bytes(self) -> int:
        """Bytes that have left the NIC by ``sim.now``."""
        return self._tx_bytes - sum(s[3].size_bytes for s in self.planned())

    def flapped_recently(self, now_ns: int,
                         window_ns: int = 2_000_000_000) -> bool:
        """Whether the port flapped within the last ``window_ns``."""
        return now_ns - self.last_flap_ns <= window_ns

    @property
    def qpc_in_use(self) -> int:
        """Connected-QP context slots in use (Table 1 overhead metric)."""
        return sum(1 for qp in self._qps.values() if qp.connected)

    @property
    def qp_count(self) -> int:
        """Live QPs of any type."""
        return sum(1 for qp in self._qps.values()
                   if qp.state != QPState.DESTROYED)

    def qpc_cache_pressure(self) -> float:
        """Fraction of the connection cache consumed."""
        return self.qpc_in_use / self.qpc_cache_slots

    def _count_drop(self, reason: str) -> None:
        self.local_drops[reason] = self.local_drops.get(reason, 0) + 1

    # -- QP lifecycle (driven through the verbs layer) -----------------------

    def allocate_qp(self, qp_type: QPType,
                    on_cqe: Optional[Callable[[Cqe], None]] = None, *,
                    on_sent: Optional[Callable[..., None]] = None,
                    on_recv: Optional[Callable[..., None]] = None
                    ) -> QueuePair:
        """Create a QP in RESET state and assign it a fresh QPN.

        QPNs are never reused within an RNIC lifetime, so a restarted Agent
        gets different QPNs — the origin of "QPN reset" probe noise.

        A UD/UC consumer that registers ``on_sent`` gets ``on_sent(qp,
        context, rnic_timestamp_ns, at_ns)`` instead of a SEND :class:`Cqe`
        — at post time, ahead of the clock, while the RNIC is ``settled``
        (never read ``sim.now`` for ``at_ns``; a write to what the send read
        takes it back first, through :mod:`repro.sim.ledger`).
        With ``on_recv``, ``on_recv(payload, rnic_timestamp_ns, src_ip,
        src_gid, src_qpn, src_port)`` replaces a RECV :class:`Cqe`; the
        payload is the delivered packet's own dict, not a copy.
        """
        if on_sent is not None and qp_type == QPType.RC:
            raise ValueError("RC send completions wait for the remote ACK")
        qpn = self._next_qpn
        self._next_qpn += self.rng.randint(1, 7)
        qp = QueuePair(qpn=qpn, qp_type=qp_type, on_cqe=on_cqe,
                       on_sent=on_sent, on_recv=on_recv,
                       opcode=_DEFAULT_OPCODE[qp_type])
        self._qps[qpn] = qp
        return qp

    def qp(self, qpn: int) -> Optional[QueuePair]:
        """Look up a QP by number (None when unknown/destroyed)."""
        qp = self._qps.get(qpn)
        if qp is None or qp.state == QPState.DESTROYED:
            return None
        return qp

    def destroy_qp(self, qpn: int) -> None:
        """Tear a QP down; its QPN becomes invalid for inbound packets."""
        qp = self._qps.get(qpn)
        if qp is None:
            raise KeyError(f"unknown QPN {qpn} on {self.name}")
        self.sim.ledger.notify(self)
        qp.state = QPState.DESTROYED
        qp.remote = None

    def comm_info(self, qpn: int) -> CommInfo:
        """The addressing triple a peer needs to hit QP ``qpn``."""
        if self.qp(qpn) is None:
            raise KeyError(f"unknown QPN {qpn} on {self.name}")
        return CommInfo(ip=self.ip, gid=self.gid.value, qpn=qpn)

    # -- send path -----------------------------------------------------------

    def post_send(self, qp: QueuePair, dst: CommInfo, *, src_port: int,
                  payload: dict[str, Any], payload_bytes: int,
                  opcode: Optional[RoCEOpcode] = None,
                  wr_id: Optional[int] = None, context: Any = None,
                  at_ns: Optional[int] = None) -> int:
        """Post one message send on ``qp``; returns the work-request id.

        The send CQE (with the RNIC wire-departure timestamp) is delivered
        to ``qp.on_cqe`` for UD/UC at departure, for RC only when the remote
        hardware ACK returns.  Local conditions that keep the message off
        the wire raise :class:`LocalSendError`.

        An ``on_sent`` consumer gets ``context`` back with its completion
        and, while the RNIC is ``settled``, may post for a later ``at_ns``.
        """
        now = self.sim.now
        post_ns = now if at_ns is None else at_ns
        settled = self.settled
        planned = settled and qp.on_sent is not None
        if post_ns != now and not planned:
            raise SimulationError(f"{self.name}: only a settled RNIC's "
                                  f"on_sent consumer posts ahead of the clock")
        if qp.state is not _RTS:
            raise LocalSendError("qp_not_rts")
        if not settled:         # settled passes all three by definition
            if not self.operational:
                raise LocalSendError("rnic_down")
            if not self._routing_configured:
                # Fault #6: the RoCE routing table entries are missing, the
                # kernel cannot resolve the egress — nothing reaches the wire.
                self._count_drop("routing_unconfigured")
                raise LocalSendError("routing_unconfigured")
            if not self._gid_index_present:
                # Fault #7: the RoCEv2 GID index is gone; address handles
                # cannot be created for this source GID.
                self._count_drop("gid_index_missing")
                raise LocalSendError("gid_index_missing")

        if opcode is None:
            opcode = qp.opcode
        if wr_id is None:
            wr_id = next(self._wr_ids)

        tuple_key = (dst.ip, src_port)
        five_tuple = self._five_tuple_memo.get(tuple_key)
        if five_tuple is None:
            if len(self._five_tuple_memo) >= 8192:
                self._five_tuple_memo.clear()
            five_tuple = roce_five_tuple(self.ip, dst.ip, src_port)
            self._five_tuple_memo[tuple_key] = five_tuple
        size = ROCE_HEADER_BYTES + payload_bytes
        packet = self.fabric.packet_pool.acquire_roce(
            five_tuple, size, opcode, qp.qpn, dst.qpn,
            self.gid.value, dst.gid, payload)

        depart_ns = post_ns + self.tx_delays[size]
        if planned:
            # Nothing the departure reads changes without a hooked write: run
            # it now, remember how to take it back (sweeping stale steps).
            steps = self._planned
            if len(steps) > 8:
                steps = self._planned = [step for step in steps
                                         if step[0] >= now]
            steps.append((depart_ns, post_ns if post_ns > now else -1,
                          qp, packet, wr_id, context))
            self._depart(qp, packet, wr_id, context, depart_ns)
        else:
            self.sim.schedule(depart_ns - now, partial(
                self._depart, qp, packet, wr_id, context, depart_ns))
        return wr_id

    def _trace_rnic_drop(self, payload: dict[str, Any], reason: str) -> None:
        leg = payload.get("t")
        if leg in ("probe", "ack1", "ack2") and "seq" in payload:
            self.tracer.event(payload["seq"], self.sim.now, "rnic.drop",
                              leg=leg, rnic=self.name, reason=reason)

    def _depart(self, qp: QueuePair, packet: RoCEPacket, wr_id: int,
                context: Any, at_ns: int) -> None:
        """The message leaves the NIC at ``at_ns``: timestamp ② (or ④).
        Reached from :meth:`post_send` ahead of the clock, or by event."""
        if not self.operational:
            # NIC died between post and departure; message is lost and no
            # completion is ever generated (matches flush-on-down behaviour
            # closely enough for probing: the prober simply times out).
            self._count_drop("rnic_down")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "rnic_down")
            return
        self._tx_packets += 1
        self._tx_bytes += packet.size_bytes

        corrupted = self._tx_corruption_prob > 0 and self.rng.chance(
            self._tx_corruption_prob)
        if corrupted:
            self._count_drop("tx_corruption")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "tx_corruption")
        else:
            self.fabric.inject(packet, self.name, at_ns)
        if qp.qp_type is _RC:
            # RC send CQE deferred until the hardware ACK (Table 1: no ②/④).
            if not corrupted:
                self._pending_rc_sends.setdefault(
                    qp.qpn, deque()).append(wr_id)
        else:
            # A corrupted send completes too: the NIC believes it sent it.
            timestamp = self.clock.read(at_ns)
            if self._tracer is not None:
                self._trace_cqe(packet.payload, _SEND, timestamp)
            if qp.on_sent is not None:
                qp.on_sent(qp, context, timestamp, at_ns)
            elif qp.on_cqe is not None:
                qp.on_cqe(Cqe(_SEND, qp.qpn, wr_id, timestamp))

    # Figure-4 marks carried by send/recv CQEs of the probe exchange: the
    # probe's send CQE is ② and its recv CQE ③; the first ACK's are ④/⑤.
    _SEND_MARKS = {"probe": "t2", "ack1": "t4"}
    _RECV_MARKS = {"probe": "t3", "ack1": "t5"}

    def _trace_cqe(self, payload: dict[str, Any], kind: CqeKind,
                   timestamp_ns: int) -> None:
        leg = payload.get("t")
        if leg not in ("probe", "ack1", "ack2") or "seq" not in payload:
            return
        marks = self._SEND_MARKS if kind == CqeKind.SEND else self._RECV_MARKS
        name = "cqe.send" if kind == CqeKind.SEND else "cqe.recv"
        fields = {"leg": leg, "rnic": self.name,
                  "rnic_timestamp_ns": timestamp_ns}
        mark = marks.get(leg)
        if mark is not None:
            fields["mark"] = mark
        self.tracer.event(payload["seq"], self.sim.now, name, **fields)

    # -- receive path ---------------------------------------------------------

    def _on_fabric_packet(self, packet: Packet, record: DeliveryRecord) -> None:
        if not isinstance(packet, RoCEPacket):
            # TCP rides the same physical port but a different traffic
            # class; hand it to the host TCP stack if one listens.
            if self.tcp_handler is not None and self.operational:
                self.tcp_handler(packet, record)
            return
        if not self.operational:
            self._count_drop("rnic_down")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "rnic_down")
            return
        if self.rx_corruption_prob > 0 and self.rng.chance(
                self.rx_corruption_prob):
            self._count_drop("rx_corruption")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "rx_corruption")
            return
        if not self._gid_index_present or packet.dst_gid != self.gid.value:
            # Fault #7 as seen from the wire: the GID no longer matches any
            # table entry, the packet is silently discarded by hardware.
            self._count_drop("gid_mismatch")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "gid_mismatch")
            return

        if packet.opcode is _RC_ACK:
            self._on_rc_ack(packet)
            return

        qp = self._qps.get(packet.dst_qpn)
        if qp is None or qp.state is not _RTS:
            # QPN reset noise (§4.3.1): the prober used an outdated QPN.
            self._count_drop("qpn_mismatch")
            if self._tracer is not None:
                self._trace_rnic_drop(packet.payload, "qpn_mismatch")
            return
        qp_type = qp.qp_type
        if qp_type is _RC or qp_type is _UC:
            expected = qp.remote
            if expected is None or packet.src_qpn != expected.qpn:
                self._count_drop("qpn_mismatch")
                if self._tracer is not None:
                    self._trace_rnic_drop(packet.payload, "qpn_mismatch")
                return

        self.rx_packets += 1
        self.rx_bytes += packet.size_bytes
        if qp_type is _RC:
            self._send_rc_hw_ack(packet)

        timestamp = self.clock.read(self.sim.now)
        if self._tracer is not None:
            self._trace_cqe(packet.payload, _RECV, timestamp)
        if qp.on_recv is not None:
            five_tuple = packet.five_tuple
            qp.on_recv(packet.payload, timestamp, five_tuple.src_ip,
                       packet.src_gid, packet.src_qpn, five_tuple.src_port)
            return
        wr_id = next(self._wr_ids)
        if qp.on_cqe is not None:
            five_tuple = packet.five_tuple
            qp.on_cqe(Cqe(_RECV, qp.qpn, wr_id, timestamp,
                          dict(packet.payload), five_tuple.src_ip,
                          packet.src_gid, packet.src_qpn,
                          five_tuple.src_port, packet.opcode))

    _EMPTY_PAYLOAD: dict[str, Any] = {}

    def _send_rc_hw_ack(self, packet: RoCEPacket) -> None:
        """Hardware-generated RC ACK, echoing the probe's source port (§5)."""
        ack = self.fabric.packet_pool.acquire_roce(
            packet.five_tuple.reversed(), ROCE_HEADER_BYTES + 4,
            RoCEOpcode.RC_ACK, packet.dst_qpn, packet.src_qpn,
            self.gid.value, packet.src_gid, self._EMPTY_PAYLOAD)
        self.sim.schedule(RC_HW_ACK_NS, partial(self._inject_hw_ack, ack))

    def _inject_hw_ack(self, ack: RoCEPacket) -> None:
        if self.operational:
            self.fabric.inject(ack, self.name)

    def _on_rc_ack(self, packet: RoCEPacket) -> None:
        qp = self.qp(packet.dst_qpn)
        if qp is None or qp.qp_type != QPType.RC:
            self._count_drop("stray_rc_ack")
            return
        pending = self._pending_rc_sends.get(qp.qpn)
        if not pending:
            return
        wr_id = pending.popleft()
        # RC send CQE timestamp is ACK-arrival time, NOT wire departure —
        # this is exactly why RC cannot provide timestamps ②/④ (Table 1).
        if qp.on_cqe is not None:
            qp.on_cqe(Cqe(_SEND, qp.qpn, wr_id,
                          self.clock.read(self.sim.now)))
