"""The verbs API surface, as seen by services and by the Agent.

This is the simulated analogue of libibverbs + the kernel RDMA stack: QPs
are created, transitioned to RTS via ``modify_qp`` (which, for RC/UC, binds
the remote peer and the outer 5-tuple source port / flow label), and torn
down via ``destroy_qp``.  ``modify_qp`` and ``destroy_qp`` pass through the
host's :class:`~repro.host.ebpf.QpTracer`, which is where R-Pingmesh's
service tracing taps in.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.addresses import FiveTuple, roce_five_tuple
from repro.host.ebpf import QpEvent, QpEventKind, QpTracer
from repro.host.rnic import CommInfo, Cqe, QPState, QPType, QueuePair, Rnic
from repro.sim.engine import Simulator


class VerbsError(Exception):
    """Invalid verbs usage (wrong state transitions, unknown QPs)."""


class VerbsContext:
    """Verbs entry points for one host; wraps that host's RNICs."""

    def __init__(self, sim: Simulator, tracer: QpTracer):
        self.sim = sim
        self.tracer = tracer

    # -- QP lifecycle --------------------------------------------------------

    def create_qp(self, rnic: Rnic, qp_type: QPType,
                  on_cqe: Optional[Callable[[Cqe], None]] = None, *,
                  on_sent: Optional[Callable[..., None]] = None,
                  on_recv: Optional[Callable[..., None]] = None
                  ) -> QueuePair:
        """Create a QP.

        UD QPs are connectionless and go straight to RTS (after the usual
        INIT/RTR dance which we collapse); RC/UC QPs stay in RESET until
        ``connect_qp``.  ``on_sent``, ``on_recv``: see
        :meth:`Rnic.allocate_qp`.
        """
        qp = rnic.allocate_qp(qp_type, on_cqe, on_sent=on_sent,
                              on_recv=on_recv)
        if qp_type == QPType.UD:
            qp.state = QPState.RTS
        return qp

    def connect_qp(self, rnic: Rnic, qp: QueuePair, remote: CommInfo,
                   src_port: int) -> FiveTuple:
        """``modify_qp`` to RTS for RC/UC: bind peer and flow label.

        The chosen UDP source port steers the connection's ECMP path, and
        the call is visible to the eBPF tracer — this is the moment service
        tracing learns a new service flow (§4.2.2).
        """
        if qp.qp_type == QPType.UD:
            raise VerbsError("UD QPs are connectionless; nothing to connect")
        if qp.state == QPState.DESTROYED:
            raise VerbsError(f"QP {qp.qpn} is destroyed")
        qp.remote = remote
        qp.five_tuple = roce_five_tuple(rnic.ip, remote.ip, src_port)
        qp.state = QPState.RTS
        self.tracer.emit(QpEvent(
            kind=QpEventKind.MODIFY_TO_RTS, time_ns=self.sim.now,
            rnic_name=rnic.name, qp_type=qp.qp_type, local_qpn=qp.qpn,
            five_tuple=qp.five_tuple, remote_ip=remote.ip,
            remote_qpn=remote.qpn))
        return qp.five_tuple

    def reroute_qp(self, rnic: Rnic, qp: QueuePair,
                   new_src_port: int) -> FiveTuple:
        """``modify_qp`` changing only the source port (§7.3 load balancing).

        Rerouting a congested flow to a parallel path is just another
        modify_qp, so service tracing picks up the new 5-tuple too.
        """
        if qp.remote is None:
            raise VerbsError(f"QP {qp.qpn} is not connected")
        return self.connect_qp(rnic, qp, qp.remote, new_src_port)

    def destroy_qp(self, rnic: Rnic, qp: QueuePair) -> None:
        """``destroy_qp``: close the connection; visible to the tracer."""
        five_tuple = qp.five_tuple
        remote = qp.remote
        rnic.destroy_qp(qp.qpn)
        self.tracer.emit(QpEvent(
            kind=QpEventKind.DESTROY, time_ns=self.sim.now,
            rnic_name=rnic.name, qp_type=qp.qp_type, local_qpn=qp.qpn,
            five_tuple=five_tuple,
            remote_ip=remote.ip if remote else None,
            remote_qpn=remote.qpn if remote else None))

    # -- data path -------------------------------------------------------------

    def post_send(self, rnic: Rnic, qp: QueuePair, dst: CommInfo, *,
                  src_port: int, payload: dict, payload_bytes: int,
                  wr_id: Optional[int] = None) -> int:
        """Post a message send; see :meth:`Rnic.post_send`."""
        return rnic.post_send(qp, dst, src_port=src_port, payload=payload,
                              payload_bytes=payload_bytes, wr_id=wr_id)
