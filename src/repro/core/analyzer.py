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
*ungated* tallies.  :meth:`Analyzer.conclude` turns a list of evidence
parts into the window's verdicts: every field of the evidence merges over
disjoint parts (sets union, counts and votes sum, sketches merge), so the
single Analyzer is the one-part case and the sharded root
(:class:`~repro.core.sharding.RootAnalyzer`) the many-part case of the
same code.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.cluster import Cluster
from repro.controlplane.clients import ANALYZER_ENDPOINT
from repro.controlplane.endpoint import Endpoint
from repro.controlplane.transport import ManagementNetwork
from repro.core.config import RPingmeshConfig
from repro.core.controller import Controller
from repro.core.localization import Localization, localize
from repro.core.records import (AgentUpload, Priority, Problem,
                                ProbeKind, ProbeResult, ProblemCategory)
from repro.core.sla import SlaHistory, SlaReport
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

        self._pending: list[AgentUpload] = []
        self._upload_listeners: list = []
        self._window_listeners: list = []
        self._last_upload_ns: dict[str, int] = {}
        self._quarantined_until: dict[str, int] = {}
        # Rolling service-network membership from service-tracing paths.
        self._service_members: dict[str, int] = {}  # name -> last seen ns

        self.sla = SlaHistory()
        self._tracker = (QuantileSketch if config.sla_sketch
                         else PercentileTracker)
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

        Returns whether the batch was accepted.  The ingest queue is
        bounded (``analyzer_ingest_capacity`` batches per window): beyond
        it arrivals are refused and counted, which the upload channel
        surfaces as a NACK rather than retrying forever.  Even a refused
        batch proves the host is alive, so the silence clock still resets.
        """
        self._last_upload_ns[batch.host] = batch.uploaded_at_ns
        if len(self._pending) >= self.config.analyzer_ingest_capacity:
            self.ingest_dropped += 1
            return False
        self._pending.append(batch)
        self.ingest_accepted += 1
        for listener in self._upload_listeners:
            listener(batch)
        return True

    @property
    def ingest_backlog(self) -> int:
        """Batches queued for the next analysis window."""
        return len(self._pending)

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
        """Stage 1: drain the ingest queue into this window's evidence."""
        now = self.cluster.sim.now
        evidence = WindowEvidence(
            window_start_ns=now - self.config.analysis_period_ns,
            window_end_ns=now)
        uploads, self._pending = self._pending, []
        results = [r for batch in uploads for r in batch.results]
        evidence.results_processed = len(results)

        evidence.down_hosts = self._down_hosts(now)
        classification = self._classify(results, evidence, now)
        self._emit_problems(results, classification, evidence, now)
        evidence.int_links = self._int_links(now)
        evidence.sla = self._aggregate_sla(results, classification, evidence)
        evidence.service_members = self._service_members_seen(results)
        if self.tracer.enabled:
            evidence.verdicts = [
                (r.seq, r.kind == ProbeKind.SERVICE_TRACING,
                 classification.get(r.seq)) for r in results]
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

    # -- steps 1-4: timeout classification -------------------------------------------

    def _down_hosts(self, now: int) -> set[str]:
        """Hosts whose Agent has stopped uploading (§5)."""
        down = set()
        for host, last in self._last_upload_ns.items():
            if now - last > self.config.host_down_silence_ns:
                down.add(host)
        return down

    def _host_of_target(self, result: ProbeResult) -> str:
        return self.cluster.host_of_rnic(result.target_rnic).name

    def _classify(self, results: list[ProbeResult], window: WindowEvidence,
                  now: int) -> dict[int, ProblemCategory]:
        """Map result seq -> category for every timeout."""
        classification: dict[int, ProblemCategory] = {}

        # Step 1: host down.
        for result in results:
            if not result.timeout:
                continue
            if self._host_of_target(result) in window.down_hosts:
                classification[result.seq] = ProblemCategory.HOST_DOWN

        # Step 2: QPN reset noise.
        for result in results:
            if not result.timeout or result.seq in classification:
                continue
            current = self.controller.current_qpn(result.target_rnic)
            if current is not None and result.target_qpn != current:
                classification[result.seq] = ProblemCategory.QPN_RESET
                window.qpn_reset_timeouts += 1

        # Step 3: anomalous RNICs from ToR-mesh probing (iterative).
        # (The ablation switch reproduces Pingmesh-style analysis where
        # RNIC and switch drops interfere during troubleshooting, §2.4.)
        if self.config.tor_mesh_rnic_filter_enabled:
            anomalous = self._detect_anomalous_rnics(results, classification)
        else:
            anomalous = set()

        # Step 4: agent-CPU false-positive filters (§6).
        if self.config.cpu_fp_filter_enabled:
            anomalous = self._filter_cpu_noise(anomalous, results, window)
        window.anomalous_rnics = anomalous
        for rnic in anomalous:
            self._quarantined_until[rnic] = max(
                self._quarantined_until.get(rnic, 0),
                now + self.config.rnic_quarantine_ns)

        # Quarantine attribution: timeouts to/from quarantined RNICs are
        # RNIC problems for this window and the next minute (§5).
        for result in results:
            if not result.timeout or result.seq in classification:
                continue
            for rnic in (result.prober_rnic, result.target_rnic):
                if self._quarantined_until.get(rnic, 0) >= result.issued_at_ns:
                    classification[result.seq] = ProblemCategory.RNIC_PROBLEM
                    break
        # CPU-noise hosts: their residual timeouts are noise, not fabric.
        for result in results:
            if not result.timeout or result.seq in classification:
                continue
            if self._host_of_target(result) in window.cpu_noise_hosts:
                classification[result.seq] = ProblemCategory.AGENT_CPU_NOISE

        # §6's simultaneity rule applied to the residual pool as well: a
        # starved Agent freezes probing *and* responding, so essentially
        # every surviving timeout involves that ONE host (as prober or as
        # target) and the host's processing delay is abnormal.  A genuine
        # fabric fault spreads its victims over many prober/target hosts,
        # so the concentration guard keeps real switch evidence intact.
        if self.config.cpu_fp_filter_enabled:
            remaining = [r for r in results
                         if r.timeout and r.seq not in classification]
            involvement: dict[str, int] = defaultdict(int)
            involved_rnics: dict[str, set[str]] = defaultdict(set)
            for r in remaining:
                hosts = {r.prober_host, self._host_of_target(r)}
                for host in sorted(hosts):
                    involvement[host] += 1
                for rnic in (r.prober_rnic, r.target_rnic):
                    involved_rnics[self.cluster.host_of_rnic(rnic)
                                   .name].add(rnic)
            for host, count in involvement.items():
                if count < 0.8 * len(remaining) or count < 3:
                    continue
                # Either delay evidence convicts the CPU, or (with total
                # starvation leaving too few samples) the paper's primary
                # rule does: several RNICs of the same host failing at
                # once is not independent hardware.
                multi_rnic = (len(involved_rnics[host])
                              >= self.config.cpu_fp_min_rnics)
                if not (self._host_processing_abnormal(host, results)
                        or multi_rnic):
                    continue
                window.cpu_noise_hosts.add(host)
                for r in remaining:
                    if host in (r.prober_host, self._host_of_target(r)):
                        classification[r.seq] = \
                            ProblemCategory.AGENT_CPU_NOISE

        # Step 5: everything else is the switch network's fault.
        for result in results:
            if result.timeout and result.seq not in classification:
                classification[result.seq] = \
                    ProblemCategory.SWITCH_NETWORK_PROBLEM
        return classification

    def _detect_anomalous_rnics(
            self, results: list[ProbeResult],
            classification: dict[int, ProblemCategory]) -> set[str]:
        """Iterative §4.3.2 detection over this window's ToR-mesh probes.

        Repeatedly pick the RNIC with the highest anomaly rate above the
        threshold, then drop all probes involving it before re-scoring, so
        a single broken RNIC doesn't smear its healthy ToR neighbours.
        """
        pool = [r for r in results
                if r.kind == ProbeKind.TOR_MESH
                and r.seq not in classification]
        anomalous: set[str] = set()
        while True:
            involved: dict[str, list[ProbeResult]] = defaultdict(list)
            for result in pool:
                involved[result.prober_rnic].append(result)
                involved[result.target_rnic].append(result)
            best_rnic, best_score = None, (0.0, 0)
            for rnic, probes in involved.items():
                timeouts = sum(1 for p in probes if p.timeout)
                rate = timeouts / len(probes)
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
            pool = [r for r in pool
                    if best_rnic not in (r.prober_rnic, r.target_rnic)]

    def _filter_cpu_noise(self, anomalous: set[str],
                          results: list[ProbeResult],
                          window: WindowEvidence) -> set[str]:
        """§6 false-positive filters: multi-RNIC simultaneity first, then
        the responder-processing-delay corroboration."""
        by_host: dict[str, set[str]] = defaultdict(set)
        for rnic in sorted(anomalous):
            by_host[self.cluster.host_of_rnic(rnic).name].add(rnic)

        keep = set(anomalous)
        for host, rnics in by_host.items():
            noisy = False
            if len(rnics) >= self.config.cpu_fp_min_rnics:
                # Independent simultaneous failures of several RNICs on one
                # host are wildly unlikely; blame the Agent's CPU.
                noisy = True
            elif self._host_processing_abnormal(host, results):
                noisy = True
            if noisy:
                window.cpu_noise_hosts.add(host)
                keep -= rnics
        return keep

    def _host_processing_abnormal(self, host: str,
                                  results: list[ProbeResult]) -> bool:
        """Whether ``host`` shows abnormal processing delay.

        Uses both responder-side samples (probes answered by the host) and
        prober-side samples (probes the host's own Agent sent): during a
        starvation episode the responder samples largely *disappear* into
        timeouts, while the host's prober-side samples remain plentiful
        and inflated — they are what reliably convicts the CPU.
        """
        samples = [r.responder_processing_ns for r in results
                   if r.responder_processing_ns is not None
                   and self._host_of_target(r) == host]
        samples += [r.prober_processing_ns for r in results
                    if r.prober_processing_ns is not None
                    and r.prober_host == host]
        if len(samples) < 5:
            return False
        samples.sort()
        p90 = samples[max(0, int(len(samples) * 0.9) - 1)]
        return p90 > self.config.high_processing_delay_ns

    # -- steps 5-6: what one part can say alone, and its votes ---------------------------

    def _emit_problems(self, results: list[ProbeResult],
                       classification: dict[int, ProblemCategory],
                       window: WindowEvidence, now: int) -> None:
        by_seq = {r.seq: r for r in results}

        # Host-down problems (non-network but reportable, Table 2 #4).
        for host in sorted(window.down_hosts):
            window.problems.append(Problem(
                category=ProblemCategory.HOST_DOWN, locus=host,
                detected_at_ns=now, window_start_ns=window.window_start_ns,
                evidence_count=sum(
                    1 for s, c in classification.items()
                    if c == ProblemCategory.HOST_DOWN
                    and self._host_of_target(by_seq[s]) == host),
                from_service_tracing=False))

        # RNIC problems.
        for rnic in sorted(window.anomalous_rnics):
            evidence = [by_seq[s] for s, c in classification.items()
                        if c == ProblemCategory.RNIC_PROBLEM
                        and rnic in (by_seq[s].prober_rnic,
                                     by_seq[s].target_rnic)]
            window.problems.append(Problem(
                category=ProblemCategory.RNIC_PROBLEM, locus=rnic,
                detected_at_ns=now, window_start_ns=window.window_start_ns,
                evidence_count=len(evidence),
                from_service_tracing=any(
                    r.kind == ProbeKind.SERVICE_TRACING for r in evidence)))

        # Algorithm 1 over the fabric-caused timeouts, per side, with no
        # gate: conclude() applies it to the window-wide sum.
        def tally(service_side: bool) -> SideTally:
            anomalies = [
                by_seq[s] for s, c in classification.items()
                if c == ProblemCategory.SWITCH_NETWORK_PROBLEM
                and (by_seq[s].kind == ProbeKind.SERVICE_TRACING)
                == service_side]
            loc = localize([r.probe_path for r in anomalies],
                           [r.ack_path for r in anomalies])
            return SideTally(loc.votes, loc.paths_considered, len(anomalies))

        window.tallies = (tally(False), tally(True))

        self._emit_latency_problems(results, window, now)

    def _emit_latency_problems(self, results: list[ProbeResult],
                               window: WindowEvidence, now: int) -> None:
        """High-RTT (congestion) and high-processing-delay (bottleneck)."""
        problems = window.latency_problems
        high_rtt = [r for r in results
                    if r.network_rtt_ns is not None
                    and r.network_rtt_ns > self.config.high_rtt_threshold_ns]
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
        by_host: dict[str, list[int]] = defaultdict(list)
        for r in results:
            if r.responder_processing_ns is not None:
                by_host[self._host_of_target(r)].append(
                    r.responder_processing_ns)
            if r.prober_processing_ns is not None:
                by_host[r.prober_host].append(r.prober_processing_ns)
        for host, samples in sorted(by_host.items()):
            if len(samples) < 5:
                continue
            samples.sort()
            p90 = samples[max(0, int(len(samples) * 0.9) - 1)]
            if p90 > self.config.high_processing_delay_ns:
                problems.append(Problem(
                    category=ProblemCategory.HIGH_PROCESSING_DELAY,
                    locus=host, detected_at_ns=now,
                    window_start_ns=window.window_start_ns,
                    evidence_count=len(samples),
                    from_service_tracing=False,
                    detail=f"p90={p90}ns"))

    # -- INT link evidence (repro.diagnosis) -----------------------------------------------------

    def _int_links(self, window_end_ns: int) -> tuple:
        """This window's INT link evidence (empty without a provider)."""
        if self.int_provider is None:
            return ()
        return tuple(
            self.int_provider.link_evidence(window_end_ns).values())

    # -- step 7: SLA -------------------------------------------------------------------------

    def _aggregate_sla(self, results: list[ProbeResult],
                       classification: dict[int, ProblemCategory],
                       window: WindowEvidence) -> SlaReport:
        report = SlaReport(window.window_start_ns, window.window_end_ns,
                           tracker=self._tracker)
        for result in results:
            scope = (report.service
                     if result.kind == ProbeKind.SERVICE_TRACING
                     else report.cluster)
            scope.probes_total += 1
            if result.timeout:
                category = classification.get(result.seq)
                if category == ProblemCategory.RNIC_PROBLEM:
                    scope.timeouts_rnic += 1
                elif category == ProblemCategory.SWITCH_NETWORK_PROBLEM:
                    scope.timeouts_switch += 1
                else:
                    scope.timeouts_non_network += 1
            else:
                scope.probes_ok += 1
                if result.network_rtt_ns is not None:
                    scope.rtt.add(float(result.network_rtt_ns))
                if result.responder_processing_ns is not None:
                    scope.processing.add(float(result.responder_processing_ns))
                if result.prober_processing_ns is not None:
                    scope.processing.add(float(result.prober_processing_ns))
        return report

    # -- step 8: service-network membership + priority (§4.3.4) ---------------------------------

    def _service_members_seen(self, results: list[ProbeResult]
                              ) -> tuple[str, ...]:
        """Every device and link a service-tracing probe touched, sorted."""
        seen: set[str] = set()
        for result in results:
            if result.kind != ProbeKind.SERVICE_TRACING:
                continue
            members = [result.prober_rnic, result.target_rnic,
                       result.prober_host, self._host_of_target(result)]
            for path in (result.probe_path, result.ack_path):
                if path is None:
                    continue
                members.extend(h for h in path.hops if h is not None)
                members.extend(f"{a}->{b}" for a, b in path.known_links())
            seen.update(members)
        return tuple(sorted(seen))

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

        Covers the ingest backlog (raw ProbeResults awaiting a window),
        the per-window analysis records, and the SLA history — where
        exact-mode percentile trackers retain every sample forever, the
        unbounded-growth term the sketch + shard-retention path bounds.
        """
        pending = sum(256 * len(batch.results) for batch in self._pending)
        windows = sum(512 + 128 * len(w.problems) for w in self.windows)
        return 1024 + pending + windows + self.sla.memory_bytes()

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
