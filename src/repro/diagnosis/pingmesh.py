"""TCP Pingmesh (Guo et al., SIGCOMM 2015): the baseline and its backend.

Paper §2.4, Figure 2.  Pingmesh probes between servers over TCP and
timestamps **in software**: the measured RTT is network RTT plus the
prober's and responder's userspace processing delays, so it rises and
falls with host CPU load (Figure 2) and cannot separate end-host
bottlenecks from network ones.  The limitations that motivate R-Pingmesh:

* TCP probes ride the TCP traffic class — they cross PFC-deadlocked links
  untouched and never see RoCE-queue congestion or headroom drops;
* a target whose probes time out is *down or unreachable*: no NIC-vs-switch
  attribution, no link locus; RTT inflation flags *somewhere slow* at host
  granularity only;
* it is service-oblivious: no notion of a service network, no priority.

:class:`TcpPingmesh` is the deployment (``experiments/fig02`` drives it
directly); :class:`PingmeshBackend` puts it behind the
:class:`~repro.diagnosis.backend.DiagnosisBackend` protocol so it races
R-Pingmesh's probe pipeline and the INT collector in the same bake-off.
Unlike the other built-in backends it injects real TCP probe traffic and
draws host-CPU RNG, so it perturbs replay digests by design; the fleet
only enables it in dedicated scenarios, never alongside the digest-locked
defaults.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cluster import Cluster
from repro.diagnosis.backend import (BackendCost, BackendVerdict,
                                     register_backend)
from repro.host.host import Host
from repro.net.addresses import PROTO_TCP, FiveTuple
from repro.net.fabric import DeliveryRecord
from repro.net.packet import TCP_HEADER_BYTES, Packet, TCPPacket
from repro.sim.engine import EventHandle
from repro.sim.stats import PercentileTracker
from repro.sim.units import MILLISECOND

PINGMESH_TCP_PORT = 43333
PROBE_BYTES = TCP_HEADER_BYTES + 64


@dataclass
class TcpProbeResult:
    """One software-timestamped TCP probe."""

    prober_host: str
    target_host: str
    issued_at_ns: int
    timeout: bool
    software_rtt_ns: Optional[int] = None


@dataclass
class _Pending:
    seq: int
    target_host: str
    t_start_host_clock: int
    issued_at_ns: int
    timeout_handle: Optional[EventHandle] = None


class PingmeshAgent:
    """Pingmesh agent on one host, using the host's first NIC port."""

    def __init__(self, host: Host, cluster: Cluster, *,
                 timeout_ns: int = 500 * MILLISECOND):
        if not host.rnics:
            raise ValueError(f"host {host.name} has no NIC to probe from")
        self.host = host
        self.cluster = cluster
        self.timeout_ns = timeout_ns
        self.nic = host.rnics[0]
        self.nic.tcp_handler = self._on_tcp_packet
        self._pending: dict[int, _Pending] = {}
        self.results: list[TcpProbeResult] = []

    # -- prober side -----------------------------------------------------------

    def probe(self, target: "PingmeshAgent") -> None:
        """Software-timestamped TCP ping: app -> kernel -> wire -> echo."""
        seq = next(self.cluster.probe_seqs)
        pending = _Pending(
            seq=seq, target_host=target.host.name,
            t_start_host_clock=self.host.read_clock(),
            issued_at_ns=self.cluster.sim.now)
        self._pending[seq] = pending
        pending.timeout_handle = self.cluster.sim.call_later(
            self.timeout_ns, partial(self._on_timeout, seq))
        if not self.host.up or not self.nic.operational:
            return  # will time out
        # Userspace + kernel stack cost before the packet hits the wire —
        # this is what inflates the measured RTT under load.
        send_delay = self.host.cpu.processing_delay_ns()
        packet = TCPPacket(
            five_tuple=FiveTuple(self.nic.ip, PINGMESH_TCP_PORT,
                                 target.nic.ip, PINGMESH_TCP_PORT,
                                 PROTO_TCP),
            size_bytes=PROBE_BYTES,
            payload={"t": "ping", "seq": seq, "from": self.nic.ip})
        self.cluster.sim.call_later(
            send_delay, partial(self._inject_if_up, packet))

    def _on_timeout(self, seq: int) -> None:
        pending = self._pending.pop(seq, None)
        if pending is None:
            return
        self.results.append(TcpProbeResult(
            prober_host=self.host.name, target_host=pending.target_host,
            issued_at_ns=pending.issued_at_ns, timeout=True))

    # -- both sides -------------------------------------------------------------

    def _on_tcp_packet(self, packet: Packet, record: DeliveryRecord) -> None:
        if packet.five_tuple.dst_port != PINGMESH_TCP_PORT:
            return
        kind = packet.payload.get("t")
        if kind == "ping":
            self._echo(packet)
        elif kind == "pong":
            self._complete(packet)

    def _echo(self, packet: Packet) -> None:
        if not self.host.up:
            return
        # Responder software delay before the echo leaves.
        delay = self.host.cpu.processing_delay_ns()
        reply = TCPPacket(
            five_tuple=packet.five_tuple.reversed(),
            size_bytes=PROBE_BYTES,
            payload={"t": "pong", "seq": packet.payload["seq"]})
        self.cluster.sim.call_later(
            delay, partial(self._inject_if_up, reply))

    def _inject_if_up(self, packet: Packet) -> None:
        if self.nic.operational:
            self.cluster.fabric.inject(packet, self.nic.name)

    def _complete(self, packet: Packet) -> None:
        pending = self._pending.pop(packet.payload["seq"], None)
        if pending is None:
            return
        if pending.timeout_handle is not None:
            pending.timeout_handle.cancel()
        # Receive-side software delay before the app can timestamp.
        delay = self.host.cpu.processing_delay_ns()

        def _stamp() -> None:
            rtt = self.host.read_clock() - pending.t_start_host_clock
            self.results.append(TcpProbeResult(
                prober_host=self.host.name,
                target_host=pending.target_host,
                issued_at_ns=pending.issued_at_ns,
                timeout=False, software_rtt_ns=rtt))

        self.cluster.sim.call_later(delay, _stamp)


class TcpPingmesh:
    """Full-mesh TCP Pingmesh deployment over a cluster's hosts."""

    def __init__(self, cluster: Cluster, *,
                 probe_interval_ns: int = 100 * MILLISECOND):
        self.cluster = cluster
        self.probe_interval_ns = probe_interval_ns
        self.agents = {name: PingmeshAgent(host, cluster)
                       for name, host in sorted(cluster.hosts.items())}
        self._rr = 0
        self._started = False

    def start(self) -> None:
        """Begin round-robin full-mesh probing."""
        if self._started:
            return
        self._started = True
        self.cluster.sim.every(self.probe_interval_ns, self._tick)

    def _tick(self) -> None:
        names = sorted(self.agents)
        if len(names) < 2:
            return
        self._rr += 1
        for i, src in enumerate(names):
            dst = names[(i + self._rr) % len(names)]
            if dst == src:
                dst = names[(i + self._rr + 1) % len(names)]
            self.agents[src].probe(self.agents[dst])

    # -- reporting --------------------------------------------------------------

    def all_results(self) -> list[TcpProbeResult]:
        """Every probe result across agents."""
        return [r for agent in self.agents.values() for r in agent.results]

    def rtt_percentile(self, pct: float, *, since_ns: int = 0) -> float:
        """Software RTT percentile over all successful probes."""
        tracker = PercentileTracker()
        for result in self.all_results():
            if not result.timeout and result.issued_at_ns >= since_ns:
                tracker.add(float(result.software_rtt_ns))
        return tracker.percentile(pct)

    def timeout_rate(self, *, since_ns: int = 0) -> float:
        """Fraction of probes that timed out."""
        relevant = [r for r in self.all_results()
                    if r.issued_at_ns >= since_ns]
        if not relevant:
            return 0.0
        return sum(1 for r in relevant if r.timeout) / len(relevant)


# -- the diagnosis backend -----------------------------------------------------

# Probe + echo, both PROBE_BYTES on the wire.
PACKETS_PER_PROBE = 2

# A target is called down on >= this many timeouts forming >= half its
# window's probes — one lost probe is noise, a silent half-window is not.
MIN_TIMEOUTS = 3
TIMEOUT_FRACTION = 0.5
MIN_RTT_SAMPLES = 5


@register_backend("pingmesh")
class PingmeshBackend:
    """TCP Pingmesh deployment emitting per-window verdicts."""

    name = "pingmesh"

    def __init__(self):
        self.pingmesh: Optional[TcpPingmesh] = None
        self._system = None
        self._started = False
        self._verdicts: list[BackendVerdict] = []
        # Per agent: results already folded into a window.
        self._cursors: dict[str, int] = {}
        self._last_close_ns = 0

    def attach(self, cluster: Cluster, system) -> None:
        self._system = system
        self.pingmesh = TcpPingmesh(cluster)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.pingmesh.start()
        self.pingmesh.cluster.sim.every(
            self._system.config.analysis_period_ns, self._close_window)

    def verdicts(self) -> list[BackendVerdict]:
        return list(self._verdicts)

    def cost(self) -> BackendCost:
        agents = self.pingmesh.agents.values() if self.pingmesh else ()
        results = sum(len(agent.results) for agent in agents)
        packets = results * PACKETS_PER_PROBE
        return BackendCost(probe_packets=packets,
                           probe_bytes=packets * PROBE_BYTES,
                           events_observed=results)

    # -- window close ----------------------------------------------------------

    def _close_window(self) -> None:
        now = self.pingmesh.cluster.sim.now
        window_start = self._last_close_ns
        self._last_close_ns = now
        per_target: dict[str, list] = defaultdict(list)
        for name, agent in self.pingmesh.agents.items():
            results = agent.results
            for r in results[self._cursors.get(name, 0):]:
                per_target[r.target_host].append(r)
            self._cursors[name] = len(results)
        config = self._system.config
        # Software RTT = network RTT + both stacks' processing, so the
        # anomaly cut allows for one round trip of normal host processing.
        rtt_cut = (config.high_rtt_threshold_ns
                   + 2 * config.high_processing_delay_ns)
        for target in sorted(per_target):
            probes = per_target[target]
            timeouts = sum(1 for r in probes if r.timeout)
            if (timeouts >= MIN_TIMEOUTS
                    and timeouts >= TIMEOUT_FRACTION * len(probes)):
                self._verdicts.append(BackendVerdict(
                    backend=self.name, category="host_down", locus=target,
                    detected_at_ns=now, window_start_ns=window_start,
                    evidence=timeouts,
                    detail=f"timeouts={timeouts}/{len(probes)}"))
                continue
            rtts = sorted(r.software_rtt_ns for r in probes
                          if not r.timeout and r.software_rtt_ns is not None)
            if len(rtts) < MIN_RTT_SAMPLES:
                continue
            p90 = rtts[max(0, int(len(rtts) * 0.9) - 1)]
            if p90 > rtt_cut:
                self._verdicts.append(BackendVerdict(
                    backend=self.name, category="high_rtt", locus=target,
                    detected_at_ns=now, window_start_ns=window_start,
                    evidence=len(rtts),
                    detail=f"software_p90={p90}ns"))
