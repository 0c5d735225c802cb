"""R-Pingmesh Analyzer (paper §4.3, §5).

Every 20 seconds the Analyzer processes the probe results uploaded in the
last window through a strict classification pipeline:

1. **Host down** (§4.3.1) — a host silent for more than one window is down;
   timeouts targeting its RNICs are non-network.
2. **QPN reset** (§4.3.1) — a timeout probe whose target QPN disagrees with
   the Controller registry is probe noise from an Agent restart.
3. **Anomalous RNICs** (§4.3.2) — ToR-mesh probes involve only two links,
   so an RNIC implicated by >10% anomalous ToR-mesh probes is itself
   anomalous.  Detection is iterative (strongest suspect first, its probes
   filtered, repeat) so one broken prober does not implicate its healthy
   targets.  Detected RNICs are quarantined for 1 minute: every timeout to
   or from them is attributed to the RNIC, not the fabric.
4. **Agent-CPU false positives** (§6, Figure 6 right) — multiple RNICs of
   one host going "anomalous" simultaneously is overwhelmingly the service
   starving the Agent, not independent hardware failures; abnormally high
   responder processing delay corroborates.  With the filter enabled these
   become noise instead of RNIC problems.
5. **Switch network problems** (§4.3.3) — every timeout that survives the
   filters is fabric-caused; Algorithm 1 votes over the traced paths of
   those probes and their ACKs.  Cluster Monitoring and Service Tracing
   anomalies are localised separately.
6. **High RTT / high processing delay** — successful probes over the
   thresholds mark congestion and host bottlenecks.
7. **SLA aggregation** and **priority assessment** (§4.3.4).

The pipeline runs as two stages (DESIGN.md §11).  :meth:`Analyzer.gather`
turns one window's uploads into a :class:`WindowEvidence` — everything
above that needs raw ``ProbeResult``s, with Algorithm 1's votes left as
*ungated* tallies.  Each result is read once, when its batch arrives:
:class:`WindowFold` keeps what steps 3-7 need of it and lets it go, and a
timeout joins its *flow* — the window's timeouts with the same kind,
prober, target, target QPN and traced routes, which every step above
treats alike.  At close steps 1-7 run once per flow, weighted by its
member count, against the down set, the QPN registry and the quarantines
as they then stand.
:meth:`Analyzer.conclude` turns a list of evidence
parts into the window's verdicts: every field of the evidence merges over
disjoint parts (sets union, counts and votes sum, sketches merge), so the
single Analyzer is the one-part case and the sharded root
(:class:`~repro.core.sharding.RootAnalyzer`) the many-part case of the
same code.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from operator import itemgetter
from struct import pack
from typing import Optional, Protocol

from repro.cluster import Cluster
from repro.controlplane.clients import ANALYZER_ENDPOINT
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.config import RPingmeshConfig
from repro.core.controller import Controller
from repro.core.localization import Localization, localize, vote
from repro.core.records import (AgentUpload, Priority, Problem,
                                ProbeKind, ProbeResult, ProblemCategory)
from repro.core.sla import SlaHistory, SlaReport, SlaWindow, TrackerFactory
from repro.diagnosis.fusion import FusionReport, fuse_window
from repro.diagnosis.inband import merge_link_evidence
from repro.sim.sketch import QuantileSketch
from repro.sim.stats import PercentileTracker


class ServiceMonitor(Protocol):
    """What the Analyzer needs from the service team's metric feed."""

    def degraded(self) -> bool:
        """Whether the service metric currently breaches its threshold."""
        ...


@dataclass
class WindowAnalysis:
    """Everything the Analyzer concluded for one window (test surface)."""

    window_start_ns: int
    window_end_ns: int
    results_processed: int = 0
    down_hosts: set[str] = field(default_factory=set)
    qpn_reset_timeouts: int = 0
    anomalous_rnics: set[str] = field(default_factory=set)
    cpu_noise_hosts: set[str] = field(default_factory=set)
    problems: list[Problem] = field(default_factory=list)
    cluster_localization: Optional[Localization] = None
    service_localization: Optional[Localization] = None

    def problem_categories(self) -> Counter:
        """Histogram of problem categories in this window."""
        return Counter(p.category for p in self.problems)


@dataclass
class SideTally:
    """One side's (cluster or service) Algorithm-1 evidence, *ungated*.

    Votes are additive over disjoint anomaly sets, so parts sum and the
    ``min_anomalies_for_localization`` gate applies to the summed count.
    """

    votes: Counter = field(default_factory=Counter)
    paths: int = 0
    anomalies: int = 0

    @classmethod
    def of(cls, anomalies: list[tuple[ProbeResult, int]]) -> "SideTally":
        """Algorithm 1 over the paths of these probes and their ACKs, each
        ``(result, times)`` voting for ``times`` probes like it: every
        probe path first, then every ACK path, as :func:`localize` does."""
        loc = vote([(r.probe_path, n) for r, n in anomalies
                    if r.probe_path is not None]
                   + [(r.ack_path, n) for r, n in anomalies
                      if r.ack_path is not None])
        return cls(loc.votes, loc.paths_considered,
                   sum(n for _, n in anomalies))


@dataclass
class WindowEvidence:
    """What :meth:`Analyzer.gather` extracted from one window's uploads.

    The in-process hand-off between the two stages: nothing in it needs a
    raw ``ProbeResult`` any more, and every field merges over disjoint
    parts.  ``problems`` holds the verdicts one part can reach alone
    (host-down, then RNIC) and ``latency_problems`` the high-RTT /
    processing-delay ones; the switch-network problems that sit between
    them in a window's list come from the merged ``tallies``.
    """

    window_start_ns: int
    window_end_ns: int
    results_processed: int = 0
    down_hosts: set[str] = field(default_factory=set)
    qpn_reset_timeouts: int = 0
    anomalous_rnics: set[str] = field(default_factory=set)
    cpu_noise_hosts: set[str] = field(default_factory=set)
    problems: list[Problem] = field(default_factory=list)
    latency_problems: list[Problem] = field(default_factory=list)
    # Indexed by service_side: (cluster monitoring, service tracing).
    tallies: tuple[SideTally, SideTally] = field(
        default_factory=lambda: (SideTally(), SideTally()))
    sla: Optional[SlaReport] = None
    service_members: tuple[str, ...] = ()   # sorted
    int_links: tuple = ()   # this part's IntLinkEvidence records
    # (seq, service_side, category) per result, only while tracing is on.
    verdicts: list[tuple[int, bool, Optional[ProblemCategory]]] = field(
        default_factory=list)


def _int64s() -> array:
    """An empty store of 8-byte integer samples."""
    return array("q")


class TimeoutFlow:
    """One open window's timeouts of one flow.

    A flow is the timeouts that share kind, prober RNIC, target RNIC,
    target QPN and the hops of both traced routes: everything steps 1-7
    read of a timeout but its issue time.  The flow keeps its first
    member as the representative and, per member, the issue time
    (quarantine is decided against it), the place in the window (the
    order §4.3.2 and Algorithm 1 meet it in) and, while tracing, the seq
    its verdict is written under.  Every other field a step reads is the
    same for all members, so it is read off the representative.
    """

    __slots__ = ("first", "issued", "places", "seqs")

    def __init__(self, first: ProbeResult, tracing: bool):
        self.first = first
        self.issued = array("q")
        self.places = array("q")
        # An untraced flow stores no seqs, and needs no store for them.
        self.seqs: array | tuple = array("q") if tracing else ()

    def first_place_after(self, cut: int) -> int:
        """The place of the first member issued after ``cut``."""
        return next(place for place, issued in zip(self.places, self.issued)
                    if issued > cut)


class WindowFold:
    """One open window's uploads, folded as each batch arrives.

    :meth:`add` reads every result once and keeps only what the window's
    steps need of it: side totals, SLA samples (one batch at a time, in
    arrival order), the host → processing-delay table (8-byte ints) and
    each host's peak delay, the high-RTT results, the service network's
    members and distinct routes, ToR-mesh pair counts, and the timeouts
    grouped into :class:`TimeoutFlow`s, in first-arrival order.  Nothing
    else of a result survives the call — of a timeout, nothing but its
    issue time, place and (tracing) seq unless it is its flow's first
    member.  Every verdict waits for close, because what steps 1-7 read
    (the down set, the QPN registry, quarantines a shard learns from the
    root mid-window) may change before then; a ToR-mesh flow that
    survives steps 1-2 counts toward its pair then — ordered by the
    first place a counted result of the pair held, which is the order
    §4.3.2 meets RNICs in.
    """

    __slots__ = ("batches", "totals", "timed_out", "rtt", "delay",
                 "processing", "peaks", "high_rtt", "flows", "mesh",
                 "service_seen", "service_routes", "traced")

    def __init__(self, tracker: TrackerFactory):
        self.batches = 0        # accepted into this window
        # Pairs below are indexed by service_side: (cluster, service).
        self.totals = [0, 0]
        self.timed_out = [0, 0]
        self.rtt = (tracker(), tracker())
        self.delay = (tracker(), tracker())
        # Host -> processing-delay samples, responder-side (probes the
        # host answered) and prober-side (probes its own Agent sent):
        # during a starvation episode the responder samples largely
        # *disappear* into timeouts, while the prober-side ones remain
        # plentiful and inflated — they are what convicts the CPU.
        self.processing: defaultdict[str, array] = defaultdict(_int64s)
        # Host -> its largest delay: a host whose peak is under the
        # threshold is not slow, and close need not read its samples.
        self.peaks: dict[str, int] = {}
        self.high_rtt: list[ProbeResult] = []
        # Flow key -> its timeouts.  A few hundred flows hold a window's
        # thousands of timeouts; each member is two or three ints in
        # arrays the cyclic GC never walks, not an object living the
        # whole window.
        self.flows: dict[tuple, TimeoutFlow] = {}
        # ToR-mesh (prober, target) -> [probes, timeouts, first place].
        self.mesh: dict[tuple[str, str], list[int]] = {}
        self.service_seen: set[Optional[str]] = set()
        self.service_routes: set[tuple] = set()      # hops, each once
        self.traced: list[tuple[int, bool]] = []     # (seq, service_side)

    def add(self, results: list[ProbeResult], host_of: dict[str, str],
            high_rtt_ns: int, tracing: bool) -> None:
        """Fold one accepted batch."""
        self.batches += 1
        totals, timed_out = self.totals, self.timed_out
        flows, high_rtt = self.flows, self.high_rtt
        mesh, traced = self.mesh, self.traced
        place = totals[0] + totals[1]       # results folded so far
        start, served = place, 0
        # This batch's SLA samples and processing delays, each stored in
        # one packed call at the end (see PercentileTracker.extend).
        # Responder delays are staged by target RNIC and mapped to hosts
        # once per batch; a host's delays are only ever counted and
        # sorted, so their order does not matter.
        rtts, delays = ([], []), ([], [])
        cluster_rtt, cluster_delay = rtts[0].append, delays[0].append
        staged: defaultdict[str, list[int]] = defaultdict(list)   # by host
        responded: defaultdict[str, list[int]] = defaultdict(list)
        # Enum members as locals: an Enum's class attribute costs several
        # times a local read, and the loop asks twice per result.
        service, tor_mesh = ProbeKind.SERVICE_TRACING, ProbeKind.TOR_MESH
        for r in results:
            place += 1
            kind = r.kind
            if tracing:
                traced.append((r.seq, kind is service))
            rtt = r.network_rtt_ns
            responder = r.responder_processing_ns
            prober = r.prober_processing_ns
            if responder is not None:
                responded[r.target_rnic].append(responder)
            if prober is not None:
                staged[r.prober_host].append(prober)
            if rtt is not None and rtt > high_rtt_ns:
                high_rtt.append(r)
            if kind is not service:
                if not r.timeout:
                    # The common case first: a cluster probe came back.
                    if rtt is not None:
                        cluster_rtt(rtt)
                    if responder is not None:
                        cluster_delay(responder)
                    if prober is not None:
                        cluster_delay(prober)
                    if kind is tor_mesh:
                        pair = (r.prober_rnic, r.target_rnic)
                        counts = mesh.get(pair)
                        if counts is None:
                            mesh[pair] = [1, 0, place]
                        else:
                            counts[0] += 1
                    continue
                side = 0
            else:
                served += 1
                self._see_service(r, host_of)
                if not r.timeout:
                    if rtt is not None:
                        rtts[1].append(rtt)
                    if responder is not None:
                        delays[1].append(responder)
                    if prober is not None:
                        delays[1].append(prober)
                    continue
                side = 1
            # A timeout joins its flow.  The kind is keyed as its two
            # flags, which tell the three kinds apart and hash in C.
            timed_out[side] += 1
            probe, ack = r.probe_path, r.ack_path
            key = (side, kind is tor_mesh, r.prober_rnic,
                   r.target_rnic, r.target_qpn,
                   None if probe is None else probe.hops,
                   None if ack is None else ack.hops)
            flow = flows.get(key)
            if flow is None:
                flow = flows[key] = TimeoutFlow(r, tracing)
            flow.issued.append(r.issued_at_ns)
            flow.places.append(place)
            if tracing:
                flow.seqs.append(r.seq)
        totals[0] += place - start - served
        totals[1] += served
        for side in (0, 1):
            if rtts[side]:
                self.rtt[side].extend(rtts[side])
            if delays[side]:
                self.delay[side].extend(delays[side])
        for rnic, samples in responded.items():
            staged[host_of[rnic]] += samples
        processing, peaks = self.processing, self.peaks
        for host, samples in staged.items():
            processing[host].frombytes(pack(f"{len(samples)}q", *samples))
            peak = max(samples)
            peaks[host] = max(peaks.get(host, peak), peak)

    def _see_service(self, r: ProbeResult, host_of: dict[str, str]) -> None:
        """A service-tracing result's endpoints and routes join the
        service network's members (each distinct route spelled once)."""
        seen, routes = self.service_seen, self.service_routes
        seen.update((r.prober_rnic, r.target_rnic,
                     r.prober_host, host_of[r.target_rnic]))
        for path in (r.probe_path, r.ack_path):
            if path is not None and path.hops not in routes:
                routes.add(path.hops)
                seen.update(path.link_names)
                seen.update(path.hops)

    def count_mesh_timeouts(self, flow: TimeoutFlow) -> None:
        """A ToR-mesh flow steps 1-2 left standing joins its pair."""
        r, members = flow.first, len(flow.issued)
        pair = (r.prober_rnic, r.target_rnic)
        counts = self.mesh.get(pair)
        if counts is None:
            self.mesh[pair] = [members, members, flow.places[0]]
        else:
            counts[0] += members
            counts[1] += members
            if flow.places[0] < counts[2]:
                counts[2] = flow.places[0]

    def mesh_in_order(self) -> list[tuple[tuple[str, str], int, int]]:
        """``(pair, probes, timeouts)`` in first-counted order."""
        return [(pair, probes, timeouts) for pair, (probes, timeouts, _)
                in sorted(self.mesh.items(), key=lambda item: item[1][2])]

    def sla_report(self, start_ns: int, end_ns: int) -> SlaReport:
        """The window's SLA report over the folded stores (counts unset)."""
        cluster, service = (
            SlaWindow(scope, start_ns, end_ns, rtt=self.rtt[side],
                      processing=self.delay[side])
            for side, scope in enumerate(("cluster", "service")))
        return SlaReport(start_ns, end_ns, cluster=cluster, service=service)

    def service_members(self) -> tuple[str, ...]:
        """Every device and link a service-tracing probe touched, sorted."""
        self.service_seen.discard(None)      # rate-limited hops
        return tuple(sorted(self.service_seen))

    def memory_bytes(self) -> int:
        """Deterministic footprint estimate: 8 bytes per stored sample or
        member field, 64 per host's table and peak, a ProbeResult's worth
        per high-RTT result, a representative's (224 B) per timeout
        flow."""
        stores = sum(t.memory_bytes() for t in self.rtt + self.delay)
        processing = sum(64 + 8 * len(samples)
                         for samples in self.processing.values())
        members = sum(2 * len(flow.issued) + len(flow.seqs)
                      for flow in self.flows.values())
        return (256 + stores + processing
                + 224 * len(self.flows) + 8 * members
                + 256 * len(self.high_rtt)
                + 96 * len(self.mesh)
                + 64 * (len(self.service_seen) + len(self.service_routes))
                + 16 * len(self.traced))


class Analyzer:
    """The 20-second analysis loop.

    ``endpoint_name`` names the upload endpoint this instance binds —
    per-pod :class:`~repro.core.sharding.AnalyzerShard` instances each
    bind their own; the default is the classic single ``"analyzer"``.
    """

    # Ingest accounting: batches accepted into / refused by the bounded
    # queue since start (part of the control-plane metrics surface).
    # Class-level zeros that ``receive_upload`` shadows per instance, so
    # the sharded root can answer the same names with per-shard sums.
    ingest_accepted = 0
    ingest_dropped = 0
    ingest_duplicates = 0   # resends of a batch already taken (lost ack)

    def __init__(self, cluster: Cluster, controller: Controller,
                 config: RPingmeshConfig, *,
                 endpoint_name: str = ANALYZER_ENDPOINT):
        self.cluster = cluster
        self.controller = controller
        self.config = config
        self.endpoint_name = endpoint_name
        self.service_monitor: Optional[ServiceMonitor] = None
        self.endpoint: Optional[Endpoint] = None
        # Probe-lifecycle tracing (repro.obs): the Analyzer annotates each
        # probe's (already closed) span with its classification verdict
        # and, for fabric-caused timeouts, the Algorithm-1 vote.
        self.tracer = cluster.obs.tracer

        self._upload_listeners: list = []
        self._window_listeners: list = []
        self._last_upload_ns: dict[str, int] = {}
        # host -> uploaded_at_ns of the batches last accepted from it; a
        # channel can only resend what its resend buffer still holds.
        self._accepted_uploads: dict[str, deque[int]] = {}
        self._quarantined_until: dict[str, int] = {}
        # Rolling service-network membership from service-tracing paths.
        self._service_members: dict[str, int] = {}  # name -> last seen ns

        self.sla = SlaHistory()
        self._tracker = (QuantileSketch if config.sla_sketch
                         else PercentileTracker)
        self._fold = WindowFold(self._tracker)
        self.windows: list[WindowAnalysis] = []
        self.problems: list[Problem] = []
        self.category_counts: Counter = Counter()
        # INT evidence provider (repro.diagnosis.inband.IntBackend), set
        # by attach_int_evidence when the "int" backend is deployed; None
        # skips fusion entirely — the default pipeline is untouched.
        self.int_provider = None
        self.fusion = FusionReport()
        self._started = False

    # -- wiring -----------------------------------------------------------------

    def bind(self, network: ManagementNetwork) -> Endpoint:
        """Attach the Analyzer's endpoint; uploads are acked requests."""
        self.endpoint = (
            Endpoint(self.endpoint_name, network)
            .on("upload", self._handle_upload))
        return self.endpoint

    def _handle_upload(self, batch) -> dict:
        return {"accepted": self.receive_upload(batch)}

    def attach_service_monitor(self, monitor: ServiceMonitor) -> None:
        """Plug in the service team's degradation signal (§4.3.4)."""
        self.service_monitor = monitor

    def add_upload_listener(self, listener) -> None:
        """Tap the raw upload stream (dashboards, experiment capture)."""
        self._upload_listeners.append(listener)

    def add_window_listener(self, listener) -> None:
        """Be called with each completed WindowAnalysis (trackers etc.)."""
        self._window_listeners.append(listener)

    def attach_int_evidence(self, provider) -> None:
        """Enable INT fusion (provider: per-window link evidence maps).

        ``provider.link_evidence(window_end_ns)`` must return the
        per-directed-link :class:`~repro.diagnosis.inband.IntLinkEvidence`
        for the window closing at that tick; the IntBackend closes its
        window before ``analyze()`` runs (it is started first, and equal
        timestamps preserve schedule order), so the map is always ready.
        """
        self.int_provider = provider

    def receive_upload(self, batch: AgentUpload) -> bool:
        """Agent upload entry point (5-second batches).

        Returns whether the batch was accepted; an accepted batch is
        folded into the open window here (:class:`WindowFold`).  Ingest
        is bounded (``analyzer_ingest_capacity`` batches per window):
        beyond it arrivals are refused and counted, which the upload channel
        surfaces as a NACK rather than retrying forever.  Even a refused
        batch proves the host is alive, so the silence clock still resets
        (never backwards: a retry carries its first send's timestamp).
        A batch whose ack was lost comes again: it is acked again, so the
        channel stops resending, and counted — not ingested twice.
        """
        host, sent_at = batch.host, batch.uploaded_at_ns
        self._last_upload_ns[host] = max(
            self._last_upload_ns.get(host, sent_at), sent_at)
        accepted = self._accepted_uploads.get(host)
        if accepted is None:
            accepted = self._accepted_uploads[host] = deque(
                maxlen=self.config.upload_resend_buffer)
        elif sent_at in accepted:
            self.ingest_duplicates += 1
            return True
        fold = self._fold
        if fold.batches >= self.config.analyzer_ingest_capacity:
            self.ingest_dropped += 1
            return False
        accepted.append(sent_at)
        fold.add(batch.results, self.cluster.host_name_of,
                 self.config.high_rtt_threshold_ns, self.tracer.enabled)
        self.ingest_accepted += 1
        for listener in self._upload_listeners:
            listener(batch)
        return True

    @property
    def ingest_backlog(self) -> int:
        """Batches folded into the window still open."""
        return self._fold.batches

    def start(self) -> None:
        """Begin the periodic analysis loop."""
        if self._started:
            return
        self._started = True
        self.cluster.sim.every(self.config.analysis_period_ns, self.analyze)

    # -- the analysis pipeline -----------------------------------------------------

    def analyze(self) -> WindowAnalysis:
        """Process everything uploaded since the previous window."""
        return self.conclude([self.gather()])

    def gather(self) -> WindowEvidence:
        """Stage 1: close the open window's fold into its evidence.

        Everything of a result but its timeout was folded when its batch
        arrived, and each timeout joined its flow (:class:`WindowFold`,
        DESIGN.md §11).  Here every step runs once per flow, in the order
        the flows first arrived, with the flow's member count as its
        weight: steps 1-2 against the down set and the QPN registry as
        they stand now, the survivors of the ToR mesh joining their
        pairs' counts, then quarantine — the one step that may split a
        flow, by its members' issue times — CPU noise, the residual rule,
        step 5 and Algorithm 1.
        """
        now = self.cluster.sim.now
        config = self.config
        fold, self._fold = self._fold, WindowFold(self._tracker)
        evidence = WindowEvidence(
            window_start_ns=now - config.analysis_period_ns,
            window_end_ns=now)
        down_hosts = evidence.down_hosts = self._down_hosts(now)
        evidence.sla = fold.sla_report(evidence.window_start_ns, now)
        host_of = self.cluster.host_name_of
        qpns = self.controller.current_qpns()
        totals, timed_out = fold.totals, fold.timed_out
        # Host -> p90 processing delay, for the hosts over the threshold:
        # the §6 filter, the residual rule and step 6 all ask about it.
        slow_hosts = self._slow_hosts(fold)

        # (flow, cut, category): members issued at or before ``cut`` are
        # RNIC problems, the rest ``category`` (the traced verdicts).
        settled: list[tuple[TimeoutFlow, int, ProblemCategory]] = []
        down_evidence: Counter = Counter()
        unexplained: list[TimeoutFlow] = []     # flows past steps 1-2
        for flow in fold.flows.values():
            # Step 1: host down.  Step 2: QPN reset noise.
            r = flow.first
            target_host = host_of[r.target_rnic]
            if target_host in down_hosts:
                settled.append((flow, -1, ProblemCategory.HOST_DOWN))
                down_evidence[target_host] += len(flow.issued)
                continue
            current = qpns.get(r.target_rnic)
            if current is not None and r.target_qpn != current:
                settled.append((flow, -1, ProblemCategory.QPN_RESET))
                evidence.qpn_reset_timeouts += len(flow.issued)
                continue
            unexplained.append(flow)
            if r.kind is ProbeKind.TOR_MESH:
                fold.count_mesh_timeouts(flow)
        evidence.results_processed = sum(totals)

        # Step 3: anomalous RNICs from ToR-mesh probing (iterative).
        # (The ablation switch reproduces Pingmesh-style analysis where
        # RNIC and switch drops interfere during troubleshooting, §2.4.)
        anomalous = (self._detect_anomalous_rnics(fold.mesh_in_order())
                     if config.tor_mesh_rnic_filter_enabled else set())
        # Step 4: agent-CPU false-positive filters (§6).
        if config.cpu_fp_filter_enabled:
            anomalous = self._filter_cpu_noise(anomalous, slow_hosts,
                                               evidence)
        evidence.anomalous_rnics = anomalous
        quarantined = self._quarantined_until
        for rnic in anomalous:
            quarantined[rnic] = max(quarantined.get(rnic, 0),
                                    now + config.rnic_quarantine_ns)

        # Quarantine attribution: timeouts to/from quarantined RNICs are
        # RNIC problems for this window and the next minute (§5) — decided
        # by each member's issue time, so a quarantine ending inside a
        # flow's span splits it.  Then CPU-noise hosts: their residual
        # timeouts are noise, not fabric.
        rnic_hits: list[tuple[ProbeResult, int]] = []   # (flow rep, members)
        # (first place, members, flow, cut) per flow part left standing.
        residual: list[tuple[int, int, TimeoutFlow, int]] = []
        noise_hosts = evidence.cpu_noise_hosts
        for flow in unexplained:
            r = flow.first
            cut = max(quarantined.get(r.prober_rnic, 0),
                      quarantined.get(r.target_rnic, 0))
            blamed = sum(map(cut.__ge__, flow.issued))
            rest = len(flow.issued) - blamed
            if blamed:
                rnic_hits.append((r, blamed))
                if not rest:
                    settled.append((flow, cut, ProblemCategory.RNIC_PROBLEM))
                    continue
            if host_of[r.target_rnic] in noise_hosts:
                settled.append((flow, cut, ProblemCategory.AGENT_CPU_NOISE))
            else:
                residual.append((flow.first_place_after(cut) if blamed
                                 else flow.places[0], rest, flow, cut))
        starved = (self._starved_hosts(residual, slow_hosts)
                   if config.cpu_fp_filter_enabled else set())
        noise_hosts |= starved
        # Step 5: everything else is the switch network's fault.
        fabric: tuple[list, list] = ([], [])
        for part in residual:
            _, _, flow, cut = part
            r = flow.first
            if r.prober_host in starved or host_of[r.target_rnic] in starved:
                settled.append((flow, cut, ProblemCategory.AGENT_CPU_NOISE))
            else:
                settled.append(
                    (flow, cut, ProblemCategory.SWITCH_NETWORK_PROBLEM))
                fabric[r.kind is ProbeKind.SERVICE_TRACING].append(part)

        # Host-down problems (non-network but reportable, Table 2 #4).
        for host in sorted(down_hosts):
            evidence.problems.append(Problem(
                category=ProblemCategory.HOST_DOWN, locus=host,
                detected_at_ns=now, window_start_ns=evidence.window_start_ns,
                evidence_count=down_evidence[host],
                from_service_tracing=False))
        for rnic in sorted(anomalous):
            hits = [(r, n) for r, n in rnic_hits
                    if rnic in (r.prober_rnic, r.target_rnic)]
            evidence.problems.append(Problem(
                category=ProblemCategory.RNIC_PROBLEM, locus=rnic,
                detected_at_ns=now, window_start_ns=evidence.window_start_ns,
                evidence_count=sum(n for _, n in hits),
                from_service_tracing=any(
                    r.kind is ProbeKind.SERVICE_TRACING for r, _ in hits)))
        # Algorithm 1 over the fabric-caused timeouts, per side, with no
        # gate: conclude() applies it to the window-wide sum.  A split
        # flow's part stands where its first member did, so each side is
        # put back in arrival order and votes fill in the order one vote
        # per timeout would fill them.
        for side in fabric:
            side.sort(key=itemgetter(0))
        evidence.tallies = tuple(
            SideTally.of([(flow.first, members)
                          for _, members, flow, _ in side])
            for side in fabric)
        self._emit_latency_problems(fold.high_rtt, fold.processing,
                                    slow_hosts, evidence, now)
        evidence.int_links = self._int_links(now)

        # Step 7: the SLA counts (the samples went in batch by batch).
        scopes = (evidence.sla.cluster, evidence.sla.service)
        rnic_side = [0, 0]
        for r, n in rnic_hits:
            rnic_side[r.kind is ProbeKind.SERVICE_TRACING] += n
        for side, scope in enumerate(scopes):
            scope.probes_total = totals[side]
            scope.probes_ok = totals[side] - timed_out[side]
            scope.timeouts_rnic = rnic_side[side]
            scope.timeouts_switch = evidence.tallies[side].anomalies
            scope.timeouts_non_network = (
                timed_out[side] - scope.timeouts_rnic - scope.timeouts_switch)
        evidence.service_members = fold.service_members()
        if self.tracer.enabled:
            verdict: dict[int, ProblemCategory] = {}    # seq -> category
            for flow, cut, category in settled:
                for seq, issued in zip(flow.seqs, flow.issued):
                    verdict[seq] = (ProblemCategory.RNIC_PROBLEM
                                    if issued <= cut else category)
            evidence.verdicts = [(seq, side, verdict.get(seq))
                                 for seq, side in fold.traced]
        return evidence

    def conclude(self, parts: list[WindowEvidence]) -> WindowAnalysis:
        """Stage 2: one window's verdicts from its evidence parts.

        ``parts`` are disjoint slices of the same window (one per shard;
        exactly one when nothing is sharded).  With one part every merge
        below is the identity, so the list comes out in the order the
        single Analyzer always produced: host-down, RNIC, switch network
        (cluster then service), latency.
        """
        now = parts[0].window_end_ns
        window = WindowAnalysis(
            window_start_ns=min(e.window_start_ns for e in parts),
            window_end_ns=now)
        # Host-down merges by host: once every pod knows a host is down
        # each one probing it reports the verdict, and the evidence is the
        # sum of their timeouts against it.
        host_down: dict[str, Problem] = {}
        local: list[Problem] = []
        for e in parts:
            window.results_processed += e.results_processed
            window.qpn_reset_timeouts += e.qpn_reset_timeouts
            window.down_hosts |= e.down_hosts
            window.anomalous_rnics |= e.anomalous_rnics
            window.cpu_noise_hosts |= e.cpu_noise_hosts
            for member in e.service_members:
                self._service_members[member] = now
            for p in e.problems:
                if p.category != ProblemCategory.HOST_DOWN:
                    local.append(p)
                elif p.locus in host_down:
                    host_down[p.locus].evidence_count += p.evidence_count
                else:
                    host_down[p.locus] = p
        window.problems = [host_down[h] for h in sorted(host_down)] + local

        # Switch network problems: localise cluster and service anomalies
        # separately (§4.3.3 "Analyzer analyzes them individually").
        for service_side in (False, True):
            votes: Counter = Counter()
            paths = anomalies = 0
            for e in parts:
                tally = e.tallies[service_side]
                votes.update(tally.votes)
                paths += tally.paths
                anomalies += tally.anomalies
            if anomalies < self.config.min_anomalies_for_localization:
                continue
            loc = Localization.from_votes(votes, paths)
            if service_side:
                window.service_localization = loc
            else:
                window.cluster_localization = loc
            for suspect in loc.suspects[:3] or ["unlocalized"]:
                window.problems.append(Problem(
                    category=ProblemCategory.SWITCH_NETWORK_PROBLEM,
                    locus=suspect, detected_at_ns=now,
                    window_start_ns=window.window_start_ns,
                    evidence_count=anomalies,
                    from_service_tracing=service_side,
                    detail=f"votes={loc.votes.get(suspect, 0)}"))
        for e in parts:
            window.problems.extend(e.latency_problems)

        # INT fusion (repro.diagnosis.fusion, paper §7.4), exactly once per
        # window over the merged link evidence.  Strictly additive; runs
        # before priority assignment so INT-origin problems are
        # prioritised like any other.
        links = merge_link_evidence(e.int_links for e in parts)
        if links:
            self.fusion.merge(fuse_window(
                window, links,
                threshold_ns=self.config.high_rtt_threshold_ns,
                min_evidence=self.config.min_anomalies_for_localization))

        self.sla.append(SlaReport.merged([e.sla for e in parts]))
        self._assign_priorities(window)
        if self.tracer.enabled:
            self._trace_verdicts(parts, window)

        self.windows.append(window)
        self.problems.extend(window.problems)
        self.category_counts.update(p.category for p in window.problems)
        for listener in self._window_listeners:
            listener(window)
        return window

    # -- steps 1-4: what the fold leaves to decide ---------------------------------------

    def _down_hosts(self, now: int) -> set[str]:
        """Hosts whose Agent has stopped uploading (§5)."""
        down = set()
        for host, last in self._last_upload_ns.items():
            if now - last > self.config.host_down_silence_ns:
                down.add(host)
        return down

    def _detect_anomalous_rnics(
            self, mesh: list[tuple[tuple[str, str], int, int]]) -> set[str]:
        """Iterative §4.3.2 detection over this window's ToR-mesh probes.

        Repeatedly pick the RNIC with the highest anomaly rate above the
        threshold, then drop all probes involving it before re-scoring, so
        a single broken RNIC doesn't smear its healthy ToR neighbours.
        ``mesh`` holds ``(pair, probes, timeouts)`` per (prober, target)
        in the order the window first counted each pair, so RNICs are met
        in the order the pool's probes would show them.
        """
        anomalous: set[str] = set()
        while True:
            involved: dict[str, list[int]] = {}
            for pair, probes, timeouts in mesh:
                if anomalous.isdisjoint(pair):
                    for rnic in pair:
                        seen = involved.setdefault(rnic, [0, 0])
                        seen[0] += probes
                        seen[1] += timeouts
            best_rnic, best_score = None, (0.0, 0)
            for rnic, (probes, timeouts) in involved.items():
                rate = timeouts / probes
                # ">10%" per §5 is strict; ties break toward the RNIC with
                # more anomalous probes (a broken device is implicated by
                # both its own failed probes and its peers').
                score = (rate, timeouts)
                if rate > self.config.rnic_timeout_threshold \
                        and score > best_score:
                    best_rnic, best_score = rnic, score
            if best_rnic is None:
                return anomalous
            anomalous.add(best_rnic)

    def _filter_cpu_noise(self, anomalous: set[str],
                          slow_hosts: dict[str, int],
                          window: WindowEvidence) -> set[str]:
        """§6 false-positive filters: multi-RNIC simultaneity first, then
        the responder-processing-delay corroboration."""
        by_host: dict[str, set[str]] = defaultdict(set)
        for rnic in sorted(anomalous):
            by_host[self.cluster.host_name_of[rnic]].add(rnic)

        keep = set(anomalous)
        for host, rnics in by_host.items():
            # Independent simultaneous failures of several RNICs on one
            # host are wildly unlikely; blame the Agent's CPU.
            if len(rnics) >= self.config.cpu_fp_min_rnics \
                    or host in slow_hosts:
                window.cpu_noise_hosts.add(host)
                keep -= rnics
        return keep

    def _starved_hosts(self, residual: list[tuple[int, int, TimeoutFlow, int]],
                       slow_hosts: dict[str, int]) -> set[str]:
        """§6's simultaneity rule applied to the residual pool as well: a
        starved Agent freezes probing *and* responding, so essentially
        every surviving timeout involves that ONE host (as prober or as
        target) and the host's processing delay is abnormal.  A genuine
        fabric fault spreads its victims over many prober/target hosts,
        so the concentration guard keeps real switch evidence intact.
        ``residual`` holds ``(place, members, flow, cut)`` flow parts.
        """
        host_of = self.cluster.host_name_of
        involvement: dict[str, int] = defaultdict(int)
        involved_rnics: dict[str, set[str]] = defaultdict(set)
        timeouts = 0
        for _, members, flow, _ in residual:
            r = flow.first
            timeouts += members
            prober, target = r.prober_host, host_of[r.target_rnic]
            # Each host once per timeout, the lower name first.
            if prober < target:
                involvement[prober] += members
                involvement[target] += members
            elif target < prober:
                involvement[target] += members
                involvement[prober] += members
            else:
                involvement[prober] += members
            involved_rnics[host_of[r.prober_rnic]].add(r.prober_rnic)
            involved_rnics[target].add(r.target_rnic)
        # Either delay evidence convicts the CPU, or (with total
        # starvation leaving too few samples) the paper's primary rule
        # does: several RNICs of the same host failing at once is not
        # independent hardware.
        return {host for host, count in involvement.items()
                if count >= 0.8 * timeouts and count >= 3
                and (len(involved_rnics[host]) >= self.config.cpu_fp_min_rnics
                     or host in slow_hosts)}

    def _slow_hosts(self, fold: WindowFold) -> dict[str, int]:
        """Host -> p90 processing delay, for every host over the
        threshold (:meth:`_abnormal_p90`), each host's samples read at
        most once: a host none of whose delays passes the threshold is
        cleared by its peak."""
        threshold = self.config.high_processing_delay_ns
        slow = {}
        for host, peak in fold.peaks.items():
            if peak > threshold:
                p90 = self._abnormal_p90(fold.processing[host])
                if p90 is not None:
                    slow[host] = p90
        return slow

    def _abnormal_p90(self, samples: array) -> Optional[int]:
        """A host's p90 processing delay if it is over the threshold
        (under five samples convict nobody).

        Counted before it is sorted: the p90 is the ``k``-th smallest of
        ``n`` samples, and it exceeds the threshold exactly when at least
        ``n - k`` samples do — so only a host that passes is sorted.
        """
        n = len(samples)
        if n < 5:
            return None
        k = max(0, int(n * 0.9) - 1)
        threshold = self.config.high_processing_delay_ns
        if sum(map(threshold.__lt__, samples)) < n - k:
            return None
        return sorted(samples)[k]

    # -- step 6: high RTT / high processing delay ------------------------------------------

    def _emit_latency_problems(self, high_rtt: list[ProbeResult],
                               processing: dict[str, array],
                               slow_hosts: dict[str, int],
                               window: WindowEvidence, now: int) -> None:
        """High-RTT (congestion) and high-processing-delay (bottleneck)."""
        problems = window.latency_problems
        for service_side in (False, True):
            side = [r for r in high_rtt
                    if (r.kind == ProbeKind.SERVICE_TRACING) == service_side]
            if len(side) < self.config.min_anomalies_for_localization:
                continue
            # ToR-mesh high-RTT concentrating on one RNIC is an RNIC-side
            # bottleneck (PFC storm toward it, Figure 8 right).
            tor_targets = Counter(r.target_rnic for r in side
                                  if r.kind == ProbeKind.TOR_MESH)
            localized_rnic = None
            if tor_targets:
                rnic, count = tor_targets.most_common(1)[0]
                if count >= self.config.min_anomalies_for_localization:
                    localized_rnic = rnic
            if localized_rnic is not None:
                problems.append(Problem(
                    category=ProblemCategory.HIGH_RTT, locus=localized_rnic,
                    detected_at_ns=now,
                    window_start_ns=window.window_start_ns,
                    evidence_count=tor_targets[localized_rnic],
                    from_service_tracing=service_side))
            loc = localize([r.probe_path for r in side],
                           [r.ack_path for r in side])
            for suspect in loc.suspects[:1]:
                problems.append(Problem(
                    category=ProblemCategory.HIGH_RTT, locus=suspect,
                    detected_at_ns=now,
                    window_start_ns=window.window_start_ns,
                    evidence_count=len(side),
                    from_service_tracing=service_side,
                    detail=f"votes={loc.votes.get(suspect, 0)}"))

        # Host processing-delay bottlenecks (Figure 8 left).
        for host in sorted(slow_hosts):
            problems.append(Problem(
                category=ProblemCategory.HIGH_PROCESSING_DELAY,
                locus=host, detected_at_ns=now,
                window_start_ns=window.window_start_ns,
                evidence_count=len(processing[host]),
                from_service_tracing=False,
                detail=f"p90={slow_hosts[host]}ns"))

    # -- INT link evidence (repro.diagnosis) -----------------------------------------------------

    def _int_links(self, window_end_ns: int) -> tuple:
        """This window's INT link evidence (empty without a provider)."""
        if self.int_provider is None:
            return ()
        return tuple(
            self.int_provider.link_evidence(window_end_ns).values())

    # -- step 8: service-network membership + priority (§4.3.4) ---------------------------------

    def in_service_network(self, locus: str, now: Optional[int] = None) -> bool:
        """Whether a device/link was part of the service network recently."""
        if now is None:
            now = self.cluster.sim.now
        seen = self._service_members.get(locus)
        if seen is None:
            return False
        return now - seen <= 3 * self.config.analysis_period_ns

    def _assign_priorities(self, window: WindowAnalysis) -> None:
        degraded = (self.service_monitor.degraded()
                    if self.service_monitor is not None else False)
        for problem in window.problems:
            affects_service = (problem.from_service_tracing
                               or self.in_service_network(
                                   problem.locus, window.window_end_ns))
            if affects_service:
                problem.priority = Priority.P0 if degraded else Priority.P1
            else:
                problem.priority = Priority.P2

    # -- observability (repro.obs) ---------------------------------------------------------------

    def _trace_verdicts(self, parts: list[WindowEvidence],
                        window: WindowAnalysis) -> None:
        """Annotate each probe's span with this window's verdict.

        The Analyzer only sees a probe one upload batch after the Agent
        recorded its result, so these land on already-closed spans — the
        tracer treats them as post-close annotations by design.  For
        fabric-caused timeouts the Algorithm-1 top suspect and its vote
        count ride along.
        """
        now = window.window_end_ns
        for evidence in parts:
            for seq, service_side, category in evidence.verdicts:
                fields: dict = {
                    "verdict": "ok" if category is None else category.value}
                if category == ProblemCategory.SWITCH_NETWORK_PROBLEM:
                    loc = (window.service_localization if service_side
                           else window.cluster_localization)
                    if loc is not None and loc.suspects:
                        suspect = loc.suspects[0]
                        fields["suspect"] = suspect
                        fields["votes"] = loc.votes.get(suspect, 0)
                self.tracer.event(seq, now, "analyzer.verdict", **fields)

    # -- footprint (DESIGN.md §11) ---------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Deterministic estimate of this Analyzer's retained state.

        Covers the open window's fold (its stores, tables and timeout
        flows), the per-window analysis records, and the SLA history —
        where exact-mode percentile trackers retain every sample forever,
        the unbounded-growth term the sketch + shard-retention path bounds.
        """
        windows = sum(512 + 128 * len(w.problems) for w in self.windows)
        return (1024 + self._fold.memory_bytes() + windows
                + self.sla.memory_bytes())

    # -- verdict helpers (§7.2) ----------------------------------------------------------------

    def network_innocent(self) -> bool:
        """§4.3.4: if no P0/P1 problems were detected in the latest window,
        the (service) network is innocent."""
        if not self.windows:
            return True
        return all(p.priority == Priority.P2
                   for p in self.windows[-1].problems)

    def distinct_problems(self) -> dict[tuple[str, str], list[Problem]]:
        """Problems grouped by (category, locus) across all windows."""
        grouped: dict[tuple[str, str], list[Problem]] = defaultdict(list)
        for problem in self.problems:
            grouped[problem.key()].append(problem)
        return dict(grouped)
