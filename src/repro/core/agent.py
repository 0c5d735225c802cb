"""R-Pingmesh Agent (paper §4.2).

One Agent runs per RoCE host.  Per RNIC it keeps a single **UD QP** used
both to probe and to respond (§4.2.1); per-RNIC "threads" (periodic tasks)
run ToR-mesh probing, inter-ToR probing, service-tracing probing, and the
shared responder logic.

The probing exchange implements Figure 4 precisely:

=====  =======================  ==========================================
 mark  clock                    meaning
=====  =======================  ==========================================
  ①    prober HOST clock        application posts the probe
  ②    prober RNIC clock        probe send CQE (wire departure; UD only)
  ③    responder RNIC clock     probe recv CQE
  ④    responder RNIC clock     first-ACK send CQE
  ⑤    prober RNIC clock        first-ACK recv CQE
  ⑥    prober HOST clock        application has processed the first ACK
=====  =======================  ==========================================

* responder processing delay = ④ − ③ (carried to the prober in the
  *second* ACK, because ④ only exists after the first ACK is sent),
* network RTT = (⑤ − ②) − (④ − ③),
* prober processing delay = (⑥ − ①) − (⑤ − ②).

Every subtraction pairs same-clock timestamps, so the math holds with the
wildly desynchronised clocks the simulation gives each device.

Service tracing (§4.2.2): the Agent subscribes to the host's eBPF QP
tracer; each established RC connection contributes a pinglist entry with
the *same 5-tuple source port*, so the probes ride the service's ECMP
paths.  The service pinglist is shuffled every probing round (§7.3) so
hotspot paths are sampled at random phases of the DML cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.cluster import Cluster
from repro.controlplane.clients import (ANALYZER_ENDPOINT,
                                        CONTROLLER_ENDPOINT,
                                        ControllerClient, UploadChannel)
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.config import RPingmeshConfig
from repro.core.records import (AgentUpload, PinglistEntry, ProbeKind,
                                ProbeResult)
from repro.host.ebpf import QpEvent, QpEventKind
from repro.host.host import Host
from repro.host.rnic import (CommInfo, LocalSendError, QPType,
                             QueuePair, Rnic)
from repro.net.addresses import FiveTuple, roce_five_tuple
from repro.net.traceroute import PathRecord
from repro.sim.engine import EventHandle, PeriodicTask
from repro.sim.rng import RngStream


def agent_endpoint_name(host_name: str) -> str:
    """Control-plane endpoint name of a host's Agent."""
    return f"agent.{host_name}"


@dataclass(slots=True)
class _Outstanding:
    """Book-keeping for one in-flight probe on the prober side."""

    seq: int
    entry: PinglistEntry
    issued_at_ns: int
    t1_host: int
    t2_rnic: Optional[int] = None
    t5_rnic: Optional[int] = None
    t6_host: Optional[int] = None
    responder_delay_ns: Optional[int] = None
    timeout_handle: Optional[EventHandle] = None


@dataclass
class _RnicAgentState:
    """Everything the Agent keeps per RNIC."""

    rnic: Rnic
    qp: QueuePair
    tor_mesh: list[PinglistEntry] = field(default_factory=list)
    inter_tor: list[PinglistEntry] = field(default_factory=list)
    # (local service QPN) -> entry; values also drive the probing round.
    service: dict[int, PinglistEntry] = field(default_factory=dict)
    # Service QPNs seen RTS and not yet destroyed.  IP resolution goes over
    # the management network, so its reply may arrive *after* the service
    # connection died; only QPNs still in this set accept the answer.
    service_live: set[int] = field(default_factory=set)
    service_round: list[PinglistEntry] = field(default_factory=list)
    # Round-robin position in tor_mesh (0) and inter_tor (1).
    rr_index: list[int] = field(default_factory=lambda: [0, 0])
    outstanding: dict[int, _Outstanding] = field(default_factory=dict)
    path_cache: dict[FiveTuple, PathRecord] = field(default_factory=dict)
    # (target ip, src_port) -> (probe 5-tuple, its reverse), memoised.
    five_tuples: dict[tuple[str, int], tuple[FiveTuple, FiveTuple]] = field(
        default_factory=dict)
    tasks: list[PeriodicTask] = field(default_factory=list)


class Agent:
    """The per-host R-Pingmesh agent."""

    def __init__(self, host: Host, cluster: Cluster,
                 network: ManagementNetwork, config: RPingmeshConfig,
                 rng: RngStream, *,
                 controller_endpoint: str = CONTROLLER_ENDPOINT,
                 analyzer_endpoint: str = ANALYZER_ENDPOINT):
        self.host = host
        self.cluster = cluster
        self.config = config
        self.rng = rng
        # Control-plane wiring: one endpoint per Agent, a client shim for
        # the Controller RPCs, and the reliable upload channel (§4.2.3).
        # In a sharded deployment the endpoints name the host's pod shard
        # pair instead of the classic "controller"/"analyzer" singletons.
        self.endpoint = Endpoint(agent_endpoint_name(host.name), network)
        self.endpoint.on("set_pinglists", self._handle_set_pinglists)
        self.client = ControllerClient(self.endpoint, config,
                                       controller_endpoint,
                                       is_alive=self.host.is_up)
        self.uploads = UploadChannel(self.endpoint, config,
                                     analyzer=analyzer_endpoint,
                                     is_alive=self.host.is_up)
        # Probe-lifecycle tracing (repro.obs): the Agent owns the span —
        # it opens one per probe sent and closes it exactly once, in
        # _record, which both the success and the timeout paths reach.
        self.tracer = cluster.obs.tracer
        self.states: dict[str, _RnicAgentState] = {}
        self._results: list[ProbeResult] = []
        self._upload_task: Optional[PeriodicTask] = None
        self._started = False
        self.restarts = 0
        # Overhead accounting (Figure 7)
        self.probes_sent = 0
        self._acks_sent = 0     # acks_sent + the ACKs posted for later
        self.results_buffered_peak = 0

    @property
    def acks_sent(self) -> int:
        """ACKs posted by ``sim.now``."""
        return self._acks_sent - sum(len(state.rnic.planned(1))
                                     for state in self.states.values())

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Create probe QPs, register with the Controller, start tasks."""
        if self._started:
            return
        self._started = True
        comm_infos: dict[str, CommInfo] = {}
        for rnic in self.host.rnics:
            state = self._init_rnic_state(rnic)
            self.states[rnic.name] = state
            comm_infos[rnic.name] = rnic.comm_info(state.qp.qpn)
        self.client.register(self.host.name, self.endpoint.name, comm_infos)
        self.host.tracer.attach(self._on_qp_event)

        sim = self.cluster.sim
        self._upload_task = sim.every(self.config.upload_interval_ns,
                                      self._upload)
        sim.every(self.config.comm_info_refresh_ns,
                  self._refresh_service_targets)
        sim.every(self.config.trace_interval_ns, self._trace_paths,
                  jitter=self.config.trace_interval_ns // 4)

    def _init_rnic_state(self, rnic: Rnic) -> _RnicAgentState:
        state = _RnicAgentState(rnic=rnic, qp=None)  # type: ignore[arg-type]
        state.qp = self._create_qp(state)
        sim = self.cluster.sim
        cfg = self.config
        state.tasks.append(sim.every(
            cfg.tor_mesh_interval_ns(),
            partial(self._probe_next, state, 0),
            jitter=cfg.tor_mesh_interval_ns() // 4))
        state.tasks.append(sim.every(
            cfg.tor_mesh_interval_ns(),  # retimed when pinglists arrive
            partial(self._probe_next, state, 1),
            jitter=cfg.tor_mesh_interval_ns() // 4))
        # Service Tracing is paused while the RNIC has no traced connection
        # (§4.2.2): the task stays parked until the first one resolves.
        state.tasks.append(PeriodicTask(
            sim, cfg.service_probe_interval_ns,
            partial(self._probe_next_service, state),
            jitter=cfg.service_probe_interval_ns // 4))
        return state

    def _create_qp(self, state: _RnicAgentState) -> QueuePair:
        """The probe/respond UD QP; its completions are plain calls
        (``_on_sent``, ``_on_recv``)."""
        return self.host.verbs.create_qp(
            state.rnic, QPType.UD, on_sent=partial(self._on_sent, state),
            on_recv=partial(self._on_recv, state))

    def restart(self) -> None:
        """Agent restart (host reboot path): all probe QPNs change (§4.1).

        Peers keep probing the *old* QPNs until the Controller's next
        pinglist refresh — the QPN-reset probe noise of §4.3.1.
        """
        self.restarts += 1
        comm_infos: dict[str, CommInfo] = {}
        for name, state in self.states.items():
            for out in list(state.outstanding.values()):
                if out.timeout_handle is not None:
                    out.timeout_handle.cancel()
            state.outstanding.clear()
            self.host.verbs.destroy_qp(state.rnic, state.qp)
            state.qp = self._create_qp(state)
            comm_infos[name] = state.rnic.comm_info(state.qp.qpn)
        for name, info in comm_infos.items():
            self.client.update_comm_info(name, info)

    # -- pinglists ---------------------------------------------------------------

    def _handle_set_pinglists(self, payload: dict) -> None:
        self.set_cluster_pinglists(
            payload["rnic"],
            tor_mesh=payload["tor_mesh"],
            inter_tor=payload["inter_tor"],
            tor_mesh_interval_ns=payload["tor_mesh_interval_ns"],
            inter_tor_interval_ns=payload["inter_tor_interval_ns"])

    def set_cluster_pinglists(self, rnic_name: str, *,
                              tor_mesh: list[PinglistEntry],
                              inter_tor: list[PinglistEntry],
                              tor_mesh_interval_ns: int,
                              inter_tor_interval_ns: int) -> None:
        """Controller push: replace Cluster Monitoring pinglists."""
        state = self.states[rnic_name]
        state.tor_mesh = list(tor_mesh)
        state.inter_tor = list(inter_tor)
        state.tasks[0].set_interval(tor_mesh_interval_ns)
        state.tasks[1].set_interval(inter_tor_interval_ns)

    def pinglist(self, rnic_name: str, kind: ProbeKind) -> list[PinglistEntry]:
        """Current pinglist of one kind for one RNIC (introspection)."""
        state = self.states[rnic_name]
        if kind == ProbeKind.TOR_MESH:
            return list(state.tor_mesh)
        if kind == ProbeKind.INTER_TOR:
            return list(state.inter_tor)
        return list(state.service.values())

    # -- service tracing (§4.2.2) ---------------------------------------------------

    def _on_qp_event(self, event: QpEvent) -> None:
        if event.qp_type != QPType.RC:
            return  # our services use RC; UD/UC QPs are not service flows
        state = self.states.get(event.rnic_name)
        if state is None:
            return
        if event.kind == QpEventKind.MODIFY_TO_RTS:
            assert event.five_tuple is not None and event.remote_ip is not None
            qpn = event.local_qpn
            src_port = event.five_tuple.src_port
            state.service_live.add(qpn)
            self.client.resolve_ip(
                event.remote_ip,
                partial(self._on_service_resolved, state, qpn, src_port))
        elif event.kind == QpEventKind.DESTROY:
            state.service_live.discard(event.local_qpn)
            state.service.pop(event.local_qpn, None)
            state.service_round = [e for e in state.service_round
                                   if e.kind != ProbeKind.SERVICE_TRACING
                                   or e in state.service.values()]
            if not state.service:
                state.tasks[2].stop()

    def _on_service_resolved(self, state: _RnicAgentState, qpn: int,
                             src_port: int, resolved) -> None:
        if resolved is None:
            return  # peer outside the cluster; nothing to probe
        if qpn not in state.service_live:
            return  # connection died while the lookup was in flight
        target_rnic, info = resolved
        state.service[qpn] = PinglistEntry(
            kind=ProbeKind.SERVICE_TRACING, target_rnic=target_rnic,
            target=info, src_port=src_port)
        if state.tasks[2].stopped:
            state.tasks[2].start()

    def _refresh_service_targets(self) -> None:
        """5-minute pull of fresh comm info for service targets (§5)."""
        if not self.host.up:
            return
        for state in self.states.values():
            for qpn, entry in list(state.service.items()):
                self.client.resolve_ip(
                    entry.target.ip,
                    partial(self._on_service_refreshed, state, qpn, entry))

    def _on_service_refreshed(self, state: _RnicAgentState, qpn: int,
                              entry: PinglistEntry, resolved) -> None:
        if resolved is None or qpn not in state.service:
            return
        target_rnic, info = resolved
        state.service[qpn] = PinglistEntry(
            kind=entry.kind, target_rnic=target_rnic, target=info,
            src_port=entry.src_port)

    def has_service_entries(self) -> bool:
        """Whether Service Tracing is currently active on this host."""
        return any(state.service for state in self.states.values())

    # -- probing -------------------------------------------------------------------

    def _probe_next(self, state: _RnicAgentState, inter_tor: int) -> None:
        """One Cluster Monitoring probe: ToR-mesh (0) or inter-ToR (1)."""
        entries = state.inter_tor if inter_tor else state.tor_mesh
        if not entries or not self.host.up:
            return
        index = state.rr_index[inter_tor] % len(entries)
        state.rr_index[inter_tor] = index + 1
        self._probe(state, entries[index])

    def _probe_next_service(self, state: _RnicAgentState) -> None:
        """One service probe; only armed while ``state.service`` is not
        empty (see _on_service_resolved / _on_qp_event)."""
        if not self.host.up:
            return
        if not state.service_round:
            # New round: shuffle so every path is sampled at random phases
            # of the service's compute/communicate cycle (§7.3).
            state.service_round = self.rng.shuffled(state.service.values())
        self._probe(state, state.service_round.pop())

    def _probe(self, state: _RnicAgentState, entry: PinglistEntry) -> None:
        seq = next(self.cluster.probe_seqs)
        sim = self.cluster.sim
        now = sim.now
        out = _Outstanding(seq=seq, entry=entry, issued_at_ns=now,
                           t1_host=self.host.read_clock())
        state.outstanding[seq] = out
        out.timeout_handle = sim.call_at(
            now + self.config.probe_timeout_ns,
            partial(self._on_timeout, state, seq))
        if self.tracer.enabled:
            self.tracer.open_span(
                seq, now, kind=entry.kind.value,
                prober_rnic=state.rnic.name, prober_host=self.host.name,
                target_rnic=entry.target_rnic, target_ip=entry.target.ip,
                target_qpn=entry.target.qpn, src_port=entry.src_port)
            self.tracer.event(seq, now, "agent.send", mark="t1",
                              host_clock_ns=out.t1_host)
        try:
            state.rnic.post_send(
                state.qp, entry.target, src_port=entry.src_port,
                payload={"t": "probe", "seq": seq},
                payload_bytes=self.config.probe_payload_bytes, context=out)
        except LocalSendError as exc:
            # Unreachable locally (down/flapping/misconfigured RNIC): the
            # probe never leaves; it will be reported at the timeout tick
            # exactly like a probe lost in the network.
            if self.tracer.enabled:
                self.tracer.event(seq, now, "agent.local_send_error",
                                  reason=exc.reason)
            return
        self.probes_sent += 1
        if self.config.continuous_path_tracing:
            # First sight of a 5-tuple: trace it immediately so the path is
            # known *before* any failure (the continuous-tracing rationale;
            # the ablation traces only on demand, after failures).
            five_tuple, reverse = self._five_tuples(state, entry)
            if five_tuple not in state.path_cache:
                self._trace_tuple(state, five_tuple, reverse)

    # -- completion dispatch ------------------------------------------------------------

    def _on_recv(self, state: _RnicAgentState, payload: dict,
                 timestamp: int, src_ip: str, src_gid: str, src_qpn: int,
                 src_port: int) -> None:
        """Receive completion (``Rnic.allocate_qp``) stamped ``timestamp``.
        ``payload`` is the delivered packet's: every handler below copies
        what it keeps."""
        kind = payload.get("t")
        if kind == "probe":
            self._respond(state, payload, timestamp, src_ip, src_gid,
                          src_qpn, src_port)
        elif kind == "ack1":
            self._on_ack1(state, payload, timestamp)
        elif kind == "ack2":
            self._on_ack2(state, payload)

    def _on_sent(self, state: _RnicAgentState, qp: QueuePair, context: Any,
                 timestamp: Optional[int], at_ns: int) -> None:
        """Send completion (``Rnic.allocate_qp``) at departure instant
        ``at_ns``, possibly ahead of the clock.  ``context``: the probe's
        :class:`_Outstanding`, the first ACK's ``(reply_to, src_port, seq,
        t3)``, None for the second.  A ``None`` timestamp takes back an ACK
        posted for ``at_ns``."""
        if timestamp is None:
            self._acks_sent -= 1
            if context is not None:
                sim = self.cluster.sim
                sim.schedule(at_ns - sim.now, partial(
                    self._post_ack1, state, *context, at_ns))
        elif qp is not state.qp or context is None:
            pass    # second ACK, or a QP that restart() has since replaced
        elif type(context) is _Outstanding:
            context.t2_rnic = timestamp                 # ② wire departure
        else:
            # ④: the first ACK hit the wire; its delay vs ③ is the
            # responder processing delay, shipped in the second ACK, which
            # is posted at that same instant.
            reply_to, src_port, seq, t3 = context
            self._send_ack(state, reply_to, src_port,
                           {"t": "ack2", "seq": seq,
                            "responder_delay": timestamp - t3}, at_ns)

    # -- responder role (steps 2-3 of Figure 4) --------------------------------------

    def _respond(self, state: _RnicAgentState, payload: dict, t3: int,
                 src_ip: str, src_gid: str, src_qpn: int,
                 src_port: int) -> None:
        """The probe's receive completion, stamped ③."""
        if not self.host.up:
            return
        reply_to = CommInfo(ip=src_ip, gid=src_gid, qpn=src_qpn)
        seq = payload["seq"]
        # Userspace handling cost before the first ACK is posted: normal
        # CPU processing plus any Agent starvation stall (Figure 6 right).
        now = self.cluster.sim.now
        delay = self.host.cpu.processing_delay_ns()
        stall = self.host.cpu.starvation_stall_ns(now)
        delay += stall
        if self.tracer.enabled:
            self.tracer.event(seq, now, "responder.recv",
                              host=self.host.name, rnic=state.rnic.name,
                              cpu_delay_ns=delay)
        if state.rnic.settled and not stall:
            # Nothing the post reads changes without a hooked write: post
            # now, for then.  (A starved Agent is seconds away: by event.)
            self._post_ack1(state, reply_to, src_port, seq, t3, now + delay)
        else:
            self.cluster.sim.schedule(delay, partial(
                self._post_ack1, state, reply_to, src_port, seq, t3,
                now + delay))

    def _post_ack1(self, state: _RnicAgentState, reply_to: CommInfo,
                   src_port: int, seq: int, t3: int, at_ns: int) -> None:
        """Post the first ACK at ``at_ns``, from whichever QP is the
        RNIC's then; its completion (④) posts the second."""
        self._send_ack(state, reply_to, src_port, {"t": "ack1", "seq": seq},
                       at_ns, (reply_to, src_port, seq, t3))

    def _send_ack(self, state: _RnicAgentState, reply_to: CommInfo,
                  src_port: int, payload: dict, at_ns: int,
                  context: Any = None) -> None:
        """ACKs echo the probe's source port, mimicking RC hardware ACKs
        so they ride the same ECMP path class (§5)."""
        try:
            state.rnic.post_send(
                state.qp, reply_to, src_port=src_port, payload=payload,
                payload_bytes=self.config.probe_payload_bytes,
                context=context, at_ns=at_ns)
        except LocalSendError:
            return
        self._acks_sent += 1

    # -- prober completion (steps 4-5 of Figure 4) --------------------------------------

    def _on_ack1(self, state: _RnicAgentState, payload: dict,
                 t5: int) -> None:
        out = state.outstanding.get(payload["seq"])
        if out is None:
            return  # late ACK after timeout: drop on the floor
        out.t5_rnic = t5                                # ⑤ ACK1 recv CQE
        # The prober thread lives in the same Agent process as the
        # responder: when the service starves the Agent's CPU, probes
        # *from* this host stall here past the timeout as well — the other
        # half of the Figure 6 (right) signature.
        now = self.cluster.sim.now
        delay = self.host.cpu.processing_delay_ns()
        delay += self.host.cpu.starvation_stall_ns(now)
        if self.tracer.enabled:
            self.tracer.event(out.seq, now, "prober.ack1_processing",
                              host=self.host.name, cpu_delay_ns=delay)
        self.cluster.sim.schedule(
            delay, partial(self._stamp_t6, state, out.seq))

    def _stamp_t6(self, state: _RnicAgentState, seq: int) -> None:
        out = state.outstanding.get(seq)
        if out is None:
            return
        out.t6_host = self.host.read_clock()            # ⑥ app-level done
        if self.tracer.enabled:
            self.tracer.event(seq, self.cluster.sim.now, "agent.done",
                              mark="t6", host_clock_ns=out.t6_host)
        self._maybe_complete(state, out)

    def _on_ack2(self, state: _RnicAgentState, payload: dict) -> None:
        out = state.outstanding.get(payload["seq"])
        if out is None:
            return
        out.responder_delay_ns = payload["responder_delay"]
        self._maybe_complete(state, out)

    def _maybe_complete(self, state: _RnicAgentState,
                        out: _Outstanding) -> None:
        if (out.t2_rnic is None or out.t5_rnic is None
                or out.t6_host is None or out.responder_delay_ns is None):
            return
        state.outstanding.pop(out.seq, None)
        if out.timeout_handle is not None:
            out.timeout_handle.cancel()

        rtt_plus_remote = out.t5_rnic - out.t2_rnic         # (⑤-②)
        network_rtt = rtt_plus_remote - out.responder_delay_ns
        prober_processing = (out.t6_host - out.t1_host) - rtt_plus_remote
        self._record(state, out, timeout=False,
                     network_rtt_ns=network_rtt,
                     prober_processing_ns=prober_processing,
                     responder_processing_ns=out.responder_delay_ns)

    def _on_timeout(self, state: _RnicAgentState, seq: int) -> None:
        out = state.outstanding.pop(seq, None)
        if out is None:
            return
        self._record(state, out, timeout=True)

    def _record(self, state: _RnicAgentState, out: _Outstanding, *,
                timeout: bool, network_rtt_ns: Optional[int] = None,
                prober_processing_ns: Optional[int] = None,
                responder_processing_ns: Optional[int] = None) -> None:
        entry = out.entry
        five_tuple, reverse = self._five_tuples(state, entry)
        if not self.config.continuous_path_tracing and timeout:
            # Ablation: on-demand tracing observes the path only AFTER the
            # failure — truncated or rehashed, exactly the mislocalisation
            # §4.2.3 warns about.
            self._trace_tuple(state, five_tuple, reverse)
        result = ProbeResult(
            kind=entry.kind, seq=out.seq, prober_rnic=state.rnic.name,
            prober_host=self.host.name, target_rnic=entry.target_rnic,
            target_ip=entry.target.ip, target_qpn=entry.target.qpn,
            five_tuple=five_tuple, issued_at_ns=out.issued_at_ns,
            completed_at_ns=self.cluster.sim.now, timeout=timeout,
            network_rtt_ns=network_rtt_ns,
            prober_processing_ns=prober_processing_ns,
            responder_processing_ns=responder_processing_ns,
            probe_path=state.path_cache.get(five_tuple),
            ack_path=state.path_cache.get(reverse))
        if self.tracer.enabled:
            now = self.cluster.sim.now
            if timeout:
                self.tracer.event(out.seq, now, "agent.result",
                                  timeout=True)
            else:
                self.tracer.event(out.seq, now, "agent.result",
                                  timeout=False,
                                  network_rtt_ns=network_rtt_ns,
                                  prober_processing_ns=prober_processing_ns,
                                  responder_processing_ns=
                                  responder_processing_ns)
            self.tracer.close_span(out.seq, now,
                                   "timeout" if timeout else "ok")
        obs = self.cluster.obs
        if obs.metrics_enabled:
            obs.metrics.counter("repro_agent_probes_total",
                                kind=entry.kind.value,
                                result="timeout" if timeout
                                else "ok").inc()
            if network_rtt_ns is not None:
                obs.metrics.histogram("repro_agent_network_rtt_ns") \
                    .observe(network_rtt_ns)
        results = self._results
        results.append(result)
        if len(results) > self.results_buffered_peak:
            self.results_buffered_peak = len(results)

    # -- path tracing (§4.2.3) ------------------------------------------------------------

    @staticmethod
    def _five_tuples(state: _RnicAgentState,
                     entry: PinglistEntry) -> tuple[FiveTuple, FiveTuple]:
        """The entry's probe 5-tuple and its reverse (the ACKs')."""
        key = (entry.target.ip, entry.src_port)
        pair = state.five_tuples.get(key)
        if pair is None:
            if len(state.five_tuples) >= 8192:
                state.five_tuples.clear()
            five_tuple = roce_five_tuple(state.rnic.ip, *key)
            pair = state.five_tuples[key] = (five_tuple,
                                             five_tuple.reversed())
        return pair

    def _trace_tuple(self, state: _RnicAgentState, five_tuple: FiveTuple,
                     reverse: FiveTuple) -> None:
        tracer = self.cluster.traceroute
        dst_port_node = self.cluster.fabric.port_for_ip(five_tuple.dst_ip)
        if dst_port_node is None:
            return
        self._cache_path(state, five_tuple, tracer.trace(
            five_tuple, state.rnic.name, dst_port_node))
        # The ACK direction is traced symmetrically (in deployment, by the
        # peer Agent; the Analyzer joins both sides).
        self._cache_path(state, reverse, tracer.trace(
            reverse, dst_port_node, state.rnic.name))

    @staticmethod
    def _cache_path(state: _RnicAgentState, five_tuple: FiveTuple,
                    record: PathRecord) -> None:
        """Keep the freshest *useful* path per 5-tuple.

        A trace truncated by an in-progress failure would erase the guilty
        link from the cached path — exactly the mislocalisation continuous
        tracing exists to avoid (§4.2.3) — so an incomplete trace never
        overwrites a previously traced full path.
        """
        existing = state.path_cache.get(five_tuple)
        if existing is not None and existing.reached and not record.reached:
            return
        state.path_cache[five_tuple] = record

    def _trace_paths(self) -> None:
        """Periodic refresh of every active 5-tuple's path."""
        if not self.host.up or not self.config.continuous_path_tracing:
            return
        for state in self.states.values():
            entries = (state.tor_mesh + state.inter_tor
                       + list(state.service.values()))
            live = set()
            for entry in entries:
                pair = self._five_tuples(state, entry)
                self._trace_tuple(state, *pair)
                live.update(pair)
            # Evict cache entries for 5-tuples no longer probed.
            for cached in list(state.path_cache):
                if cached not in live:
                    del state.path_cache[cached]

    # -- upload (§4.2.3) -------------------------------------------------------------------

    def _upload(self) -> None:
        """5-second batch upload to the Analyzer over the TCP management
        network.  A down host uploads nothing — that silence is itself the
        Analyzer's host-down signal — and neither does an idle one: an
        empty batch would refresh the Analyzer's liveness clock while
        carrying no data, masking exactly the signal silence encodes.
        Batches ride the :class:`UploadChannel`, which acks, retries with
        backoff, and bounds the resend buffer."""
        if not self.host.up or not self._results:
            return
        batch = AgentUpload(host=self.host.name,
                            uploaded_at_ns=self.cluster.sim.now,
                            results=self._results)
        self._results = []
        self.uploads.submit(batch)

    # -- overhead model (Figure 7) ------------------------------------------------------------

    def probe_rate_pps(self) -> float:
        """Current aggregate probe send rate across this host's RNICs."""
        total = 0.0
        for state in self.states.values():
            if state.tor_mesh:
                total += 1e9 / state.tasks[0].interval
            if state.inter_tor:
                total += 1e9 / state.tasks[1].interval
            if state.service:
                total += 1e9 / state.tasks[2].interval
        return total

    def overhead_estimate(self) -> dict[str, float]:
        """CPU (fraction of one core) and memory (MB) cost model.

        Calibrated to the paper's Figure 7 operating point: an 8-RNIC host
        at default rates consumes ~3% of a core and ~18.5 MB.  CPU scales
        with packet handling (probes, ACKs as responder, CQE polling);
        memory with the per-RNIC pinglists plus the 5-second result buffer.
        """
        pps = self.probe_rate_pps()
        # Each probe costs the prober ~2 sends + 3 CQEs; responding costs a
        # similar amount, and every RNIC also answers its peers' probes.
        handled_pps = pps * 2.0 * 2.0
        cpu_cores = 4e-5 * handled_pps + 0.002 * len(self.states)
        entries = sum(len(s.tor_mesh) + len(s.inter_tor) + len(s.service)
                      for s in self.states.values())
        buffered = self.results_buffered_peak
        memory_mb = 8.0 + 1.0 * len(self.states) + 0.004 * entries \
            + 0.0015 * buffered
        return {"cpu_cores": cpu_cores, "memory_mb": memory_mb}
