"""In-band network telemetry (INT) diagnosis backend.

Per the packet-carried-telemetry model (*Millions of Little Minions*,
PAPERS.md; paper §7.4): every switch a packet transits stamps a small
metadata record — ingress link, queue depth, pause state, hop timestamp —
into the packet, and the receiving host strips the stack and hands it to
a collector.  No extra packets are injected; the cost is
``INT_STAMP_BYTES`` of metadata per hop riding traffic that crossed the
fabric anyway.

The simulation keeps the contract razor-thin so the default path is
untouched: :class:`~repro.net.fabric.Fabric` holds an ``int_collector``
attribute that is ``None`` unless an :class:`IntBackend` is deployed, and
every hook is a single ``is None`` check (the same pattern as the span
tracer).  Stamps ride in a reserved ``"_int"`` payload key that the
collector pops before the receiver callback runs, so a receiver never sees
the stack and the collector keeps no reference to the packet.

Quiet hops the fabric's walker looks ahead over are stamped too (with the
time the packet will enter them), so a path's stack is always complete —
loaded hops with a standing queue, the ones INT exists to see, among them:
what they stamp is as constant as their delay.  A hop whose queue is moving
is stamped at its own event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.diagnosis.backend import (BackendCost, BackendVerdict,
                                     register_backend)

if TYPE_CHECKING:
    from repro.cluster import Cluster
    from repro.net.packet import Packet
    from repro.net.topology import DirectedLink

# Bytes of metadata one hop stamps into a transiting packet: ingress-port
# id (4) + queue depth (3) + pause/flags (1) + hop timestamp delta (4).
# Matches the compact INT-MD format scale (§7.4 discussion).
INT_STAMP_BYTES = 12

# Payload key reserved for the in-flight stamp stack.  Popped at
# delivery; a dropped packet keeps it.
INT_PAYLOAD_KEY = "_int"

# Per-link causes the collector can attribute from stamp aggregates.
CAUSE_PFC = "pfc_backpressure"
CAUSE_OVERLOAD = "overload"
CAUSE_QUEUE = "queue_buildup"

# Verdict/summary bounds: top-K hottest links per window keeps the
# sharded summary mergeable and O(K), not O(links).
TOP_LINKS_PER_WINDOW = 16
SUMMARY_RETENTION = 8


@dataclass(frozen=True, slots=True)
class IntLinkEvidence:
    """Aggregated INT evidence for one directed link over one window."""

    link: str                  # "a->b"
    packets: int               # stamped packets observed on the link
    paused_packets: int        # stamps carrying an active pause state
    max_queue_bytes: float
    max_delay_ns: int          # max queue+pause delay seen at stamp time
    max_utilization: float
    last_seen_ns: int

    @property
    def paused_fraction(self) -> float:
        """Fraction of observed packets that saw PFC pause asserted."""
        return self.paused_packets / self.packets if self.packets else 0.0

    def cause(self) -> str:
        """Attributed congestion cause for this link's hot window."""
        if self.paused_fraction > 0.5:
            return CAUSE_PFC
        if self.max_utilization >= 0.95:
            return CAUSE_OVERLOAD
        return CAUSE_QUEUE


@dataclass(frozen=True, slots=True)
class IntWindowSummary:
    """One closed window of INT evidence (bounded, mergeable)."""

    window_start_ns: int
    window_end_ns: int
    links: tuple[IntLinkEvidence, ...]   # top-K by max_delay_ns, desc
    stamps: int
    telemetry_bytes: int


class _LinkAccumulator:
    """Mutable per-link fold target for the current window."""

    __slots__ = ("packets", "paused_packets", "max_queue_bytes",
                 "max_delay_ns", "max_utilization", "last_seen_ns")

    def __init__(self):
        self.packets = 0
        self.paused_packets = 0
        self.max_queue_bytes = 0.0
        self.max_delay_ns = 0
        self.max_utilization = 0.0
        self.last_seen_ns = 0


class IntCollector:
    """Stamps per-hop telemetry onto packets and folds it per window.

    Installed as ``fabric.int_collector``.  ``stamp`` runs once per hop,
    with the time the packet enters it (ahead of the clock for a quiet
    hop the walker adds up); ``collect`` runs at delivery and folds the
    stamp stack into current-window per-link aggregates.  Neither draws
    RNG, schedules events, nor mutates ``size_bytes`` — the probe/vote
    pipeline is provably unaffected, which is why golden digests hold
    even with stamping enabled.
    """

    __slots__ = ("stamps_total", "packets_collected", "telemetry_bytes",
                 "_window")

    def __init__(self):
        self.stamps_total = 0
        self.packets_collected = 0
        self.telemetry_bytes = 0
        self._window: dict[str, _LinkAccumulator] = {}

    def install(self, fabric) -> None:
        """Become the fabric's collector (idempotent for self)."""
        if fabric.int_collector is not None and fabric.int_collector is not self:
            raise RuntimeError("fabric already has an INT collector")
        fabric.int_collector = self

    # -- fabric hooks ----------------------------------------------------------

    def stamp(self, packet: "Packet", link: "DirectedLink", now: int) -> None:
        """Record one hop's state into the packet's stamp stack."""
        delay_ns = link.queue_delay_ns(now) + link.pause_delay_ns
        stack = packet.payload.get(INT_PAYLOAD_KEY)
        if stack is None:
            stack = []
            packet.payload[INT_PAYLOAD_KEY] = stack
        stack.append((link.name, link.queue_bytes, delay_ns,
                      link.pause_delay_ns > 0, link.utilization(), now))
        self.stamps_total += 1
        self.telemetry_bytes += INT_STAMP_BYTES

    def unstamp(self, packet: "Packet", count: int) -> None:
        """Take back the last ``count`` stamps: hops the fabric's walker
        looked ahead over that a mid-flight write stopped the packet
        reaching as planned (they are stamped again when it does)."""
        del packet.payload[INT_PAYLOAD_KEY][-count:]
        self.stamps_total -= count
        self.telemetry_bytes -= count * INT_STAMP_BYTES

    def collect(self, packet: "Packet", now: int) -> None:
        """Strip and fold a delivered packet's stamp stack."""
        stack = packet.payload.pop(INT_PAYLOAD_KEY, None)
        if not stack:
            return
        self.packets_collected += 1
        window = self._window
        for name, queue_bytes, delay_ns, paused, util, seen_ns in stack:
            acc = window.get(name)
            if acc is None:
                acc = window[name] = _LinkAccumulator()
            acc.packets += 1
            if paused:
                acc.paused_packets += 1
            if queue_bytes > acc.max_queue_bytes:
                acc.max_queue_bytes = queue_bytes
            if delay_ns > acc.max_delay_ns:
                acc.max_delay_ns = delay_ns
            if util > acc.max_utilization:
                acc.max_utilization = util
            if seen_ns > acc.last_seen_ns:
                acc.last_seen_ns = seen_ns

    # -- window management -----------------------------------------------------

    def drain_window(self, window_start_ns: int,
                     window_end_ns: int) -> IntWindowSummary:
        """Close the current window: summarize, reset, return.

        Max-based fields require reset-per-window semantics (a cumulative
        max never comes back down), so draining is destructive; only the
        owning :class:`IntBackend` drains.
        """
        evidence = [
            IntLinkEvidence(
                link=name, packets=acc.packets,
                paused_packets=acc.paused_packets,
                max_queue_bytes=acc.max_queue_bytes,
                max_delay_ns=acc.max_delay_ns,
                max_utilization=acc.max_utilization,
                last_seen_ns=acc.last_seen_ns)
            for name, acc in self._window.items()
        ]
        evidence.sort(key=lambda e: (-e.max_delay_ns, e.link))
        stamps = sum(e.packets for e in evidence)
        self._window.clear()
        return IntWindowSummary(
            window_start_ns=window_start_ns, window_end_ns=window_end_ns,
            links=tuple(evidence[:TOP_LINKS_PER_WINDOW]),
            stamps=stamps, telemetry_bytes=stamps * INT_STAMP_BYTES)


def slice_links(links: Iterable[IntLinkEvidence], pods: set,
                include_unowned: bool) -> tuple[IntLinkEvidence, ...]:
    """The subset of link evidence a pod-scoped shard owns.

    A directed link belongs to the pod of its first pod-prefixed
    endpoint (``pod0-agg0->spine0`` belongs to ``pod0``); links with no
    pod-prefixed endpoint (spine-to-spine, never in a Clos, but be
    safe) go to the shard with ``include_unowned`` — by convention
    shard 0 — so no evidence is dropped or double-counted.
    """
    owned = []
    for ev in links:
        src, _, dst = ev.link.partition("->")
        owner = None
        for endpoint in (src, dst):
            pod = endpoint.split("-", 1)[0]
            if pod.startswith("pod"):
                owner = pod
                break
        if owner is None:
            if include_unowned:
                owned.append(ev)
        elif owner in pods:
            owned.append(ev)
    return tuple(owned)


def merge_link_evidence(
        parts: Iterable[Iterable[IntLinkEvidence]]
) -> dict[str, IntLinkEvidence]:
    """Merge per-shard link-evidence slices into one link map.

    Shards slice disjointly, but merging stays correct (max of maxes,
    sum of counts) even if an evidence name appears twice.
    """
    merged: dict[str, IntLinkEvidence] = {}
    for part in parts:
        for ev in part:
            prior = merged.get(ev.link)
            if prior is None:
                merged[ev.link] = ev
            else:
                merged[ev.link] = IntLinkEvidence(
                    link=ev.link,
                    packets=prior.packets + ev.packets,
                    paused_packets=prior.paused_packets + ev.paused_packets,
                    max_queue_bytes=max(prior.max_queue_bytes,
                                        ev.max_queue_bytes),
                    max_delay_ns=max(prior.max_delay_ns, ev.max_delay_ns),
                    max_utilization=max(prior.max_utilization,
                                        ev.max_utilization),
                    last_seen_ns=max(prior.last_seen_ns, ev.last_seen_ns))
    return merged


@register_backend("int")
class IntBackend:
    """The INT diagnosis backend: collector + per-window verdicts.

    Attaching installs the collector on the fabric and registers this
    backend as the Analyzer's INT evidence provider (enabling fusion).
    Each analysis window it drains the collector and names every *hot*
    link — max observed queue+pause delay over the RTT threshold with
    enough packets to trust — as a ``high_rtt`` verdict on the exact
    directed link, with an attributed cause.
    """

    name = "int"

    def __init__(self):
        self.collector = IntCollector()
        self._cluster: Optional["Cluster"] = None
        self._system = None
        self._started = False
        self._verdicts: list[BackendVerdict] = []
        self._summaries: dict[int, IntWindowSummary] = {}
        self._last_close_ns = 0

    # -- DiagnosisBackend ------------------------------------------------------

    def attach(self, cluster: "Cluster", system) -> None:
        self._cluster = cluster
        self._system = system
        self.collector.install(cluster.fabric)
        system.analyzer.attach_int_evidence(self)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        period = self._system.config.analysis_period_ns
        self._cluster.sim.every(period, self._close_window)

    def verdicts(self) -> list[BackendVerdict]:
        return list(self._verdicts)

    def cost(self) -> BackendCost:
        c = self.collector
        return BackendCost(telemetry_bytes=c.telemetry_bytes,
                           events_observed=c.stamps_total)

    # -- window close ----------------------------------------------------------

    def _close_window(self) -> None:
        now = self._cluster.sim.now
        summary = self.collector.drain_window(self._last_close_ns, now)
        self._last_close_ns = now
        self._summaries[now] = summary
        if len(self._summaries) > SUMMARY_RETENTION:
            del self._summaries[min(self._summaries)]
        config = self._system.config
        threshold = config.high_rtt_threshold_ns
        min_packets = config.min_anomalies_for_localization
        for ev in summary.links:
            if ev.max_delay_ns <= threshold or ev.packets < min_packets:
                continue
            self._verdicts.append(BackendVerdict(
                backend=self.name, category="high_rtt", locus=ev.link,
                detected_at_ns=now, window_start_ns=summary.window_start_ns,
                evidence=ev.packets,
                confidence=min(1.0, ev.packets / (min_packets * 4)),
                detail=f"cause={ev.cause()} "
                       f"max_delay_ns={ev.max_delay_ns} "
                       f"max_queue_bytes={int(ev.max_queue_bytes)}"))

    # -- Analyzer fusion surface ----------------------------------------------

    def link_evidence(self, window_end_ns: int) -> Mapping[str, IntLinkEvidence]:
        """Per-link evidence map for the window closed at this tick."""
        summary = self._summaries.get(window_end_ns)
        if summary is None:
            return {}
        return {ev.link: ev for ev in summary.links}
