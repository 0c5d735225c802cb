"""Differential oracle for the Analyzer's stage 1 (DESIGN.md §11).

``reference_gather`` is a test-only port of the multi-pass stage 1 that
folding on arrival replaced: it holds the window's raw batches, walks
them in full once per classification step, keeps a window-wide
``by_seq`` index and casts one Algorithm-1 vote per path.  It survives
here as the reference the fold is compared with, field by field, over
seeded random windows that hit every branch the two could disagree on:
timeouts to down hosts, stale QPNs, one broken RNIC plus a second with
an *equal* ``(rate, timeouts)`` score, a CPU-starved host,
service-tracing results, ``None`` paths and ``None`` hops, the SLA
sketch on and off, tracing on and off.  The reference reads the window's
batches whole; the fold receives the same results through
``receive_upload`` cut into random smaller batches, so no answer may
depend on where a batch boundary fell.
"""

import random
from array import array
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Cluster
from repro.core.analyzer import SideTally, WindowEvidence
from repro.core.config import RPingmeshConfig
from repro.core.localization import Localization
from repro.core.records import (AgentUpload, Problem, ProbeKind, ProbeResult,
                                ProblemCategory)
from repro.core.sharding import AnalyzerShard
from repro.core.sla import SlaReport
from repro.fleet.presets import SMALL
from repro.fleet.spec import FaultEvent, build_world
from repro.net.addresses import roce_five_tuple
from repro.net.clos import ClosParams
from repro.net.traceroute import PathRecord
from repro.obs.tracer import Tracer
from repro.sim.sketch import QuantileSketch
from repro.sim.units import MICROSECOND, seconds
from tests.core.test_analyzer import make_analyzer
from tests.core.test_gather_single_pass import flow_key

# -- the reference: the multi-pass gather, as it stood before the fold ------------


def _host_of_target(analyzer, result):
    return analyzer.cluster.host_of_rnic(result.target_rnic).name


def _localize(paths):
    """Algorithm 1, one vote per path per directed link."""
    votes = Counter()
    for path in paths:
        for a, b in zip(path.hops, path.hops[1:]):
            if a is not None and b is not None:
                votes[f"{a}->{b}"] += 1
    return Localization.from_votes(votes, len(paths))


def _localize_both(results):
    return _localize([p for p in [r.probe_path for r in results]
                      + [r.ack_path for r in results] if p is not None])


def _host_processing_abnormal(analyzer, host, results):
    samples = [r.responder_processing_ns for r in results
               if r.responder_processing_ns is not None
               and _host_of_target(analyzer, r) == host]
    samples += [r.prober_processing_ns for r in results
                if r.prober_processing_ns is not None
                and r.prober_host == host]
    if len(samples) < 5:
        return False
    samples.sort()
    p90 = samples[max(0, int(len(samples) * 0.9) - 1)]
    return p90 > analyzer.config.high_processing_delay_ns


def _detect_anomalous_rnics(analyzer, results, classification):
    pool = [r for r in results
            if r.kind == ProbeKind.TOR_MESH and r.seq not in classification]
    anomalous = set()
    while True:
        involved = defaultdict(list)
        for result in pool:
            involved[result.prober_rnic].append(result)
            involved[result.target_rnic].append(result)
        best_rnic, best_score = None, (0.0, 0)
        for rnic, probes in involved.items():
            timeouts = sum(1 for p in probes if p.timeout)
            rate = timeouts / len(probes)
            score = (rate, timeouts)
            if rate > analyzer.config.rnic_timeout_threshold \
                    and score > best_score:
                best_rnic, best_score = rnic, score
        if best_rnic is None:
            return anomalous
        anomalous.add(best_rnic)
        pool = [r for r in pool
                if best_rnic not in (r.prober_rnic, r.target_rnic)]


def _filter_cpu_noise(analyzer, anomalous, results, window):
    by_host = defaultdict(set)
    for rnic in sorted(anomalous):
        by_host[analyzer.cluster.host_of_rnic(rnic).name].add(rnic)
    keep = set(anomalous)
    for host, rnics in by_host.items():
        if len(rnics) >= analyzer.config.cpu_fp_min_rnics \
                or _host_processing_abnormal(analyzer, host, results):
            window.cpu_noise_hosts.add(host)
            keep -= rnics
    return keep


def _classify(analyzer, results, window, now):
    config = analyzer.config
    classification = {}
    for result in results:
        if result.timeout \
                and _host_of_target(analyzer, result) in window.down_hosts:
            classification[result.seq] = ProblemCategory.HOST_DOWN
    for result in results:
        if not result.timeout or result.seq in classification:
            continue
        current = analyzer.controller.current_qpn(result.target_rnic)
        if current is not None and result.target_qpn != current:
            classification[result.seq] = ProblemCategory.QPN_RESET
            window.qpn_reset_timeouts += 1
    anomalous = (_detect_anomalous_rnics(analyzer, results, classification)
                 if config.tor_mesh_rnic_filter_enabled else set())
    if config.cpu_fp_filter_enabled:
        anomalous = _filter_cpu_noise(analyzer, anomalous, results, window)
    window.anomalous_rnics = anomalous
    for rnic in anomalous:
        analyzer._quarantined_until[rnic] = max(
            analyzer._quarantined_until.get(rnic, 0),
            now + config.rnic_quarantine_ns)
    for result in results:
        if not result.timeout or result.seq in classification:
            continue
        for rnic in (result.prober_rnic, result.target_rnic):
            if analyzer._quarantined_until.get(rnic, 0) \
                    >= result.issued_at_ns:
                classification[result.seq] = ProblemCategory.RNIC_PROBLEM
                break
    for result in results:
        if not result.timeout or result.seq in classification:
            continue
        if _host_of_target(analyzer, result) in window.cpu_noise_hosts:
            classification[result.seq] = ProblemCategory.AGENT_CPU_NOISE
    if config.cpu_fp_filter_enabled:
        remaining = [r for r in results
                     if r.timeout and r.seq not in classification]
        involvement = defaultdict(int)
        involved_rnics = defaultdict(set)
        for r in remaining:
            for host in sorted({r.prober_host, _host_of_target(analyzer, r)}):
                involvement[host] += 1
            for rnic in (r.prober_rnic, r.target_rnic):
                involved_rnics[
                    analyzer.cluster.host_of_rnic(rnic).name].add(rnic)
        for host, count in involvement.items():
            if count < 0.8 * len(remaining) or count < 3:
                continue
            multi_rnic = len(involved_rnics[host]) >= config.cpu_fp_min_rnics
            if not (_host_processing_abnormal(analyzer, host, results)
                    or multi_rnic):
                continue
            window.cpu_noise_hosts.add(host)
            for r in remaining:
                if host in (r.prober_host, _host_of_target(analyzer, r)):
                    classification[r.seq] = ProblemCategory.AGENT_CPU_NOISE
    for result in results:
        if result.timeout and result.seq not in classification:
            classification[result.seq] = \
                ProblemCategory.SWITCH_NETWORK_PROBLEM
    return classification


def _emit_latency_problems(analyzer, results, window, now):
    config = analyzer.config
    problems = window.latency_problems
    high_rtt = [r for r in results if r.network_rtt_ns is not None
                and r.network_rtt_ns > config.high_rtt_threshold_ns]
    for service_side in (False, True):
        side = [r for r in high_rtt
                if (r.kind == ProbeKind.SERVICE_TRACING) == service_side]
        if len(side) < config.min_anomalies_for_localization:
            continue
        tor_targets = Counter(r.target_rnic for r in side
                              if r.kind == ProbeKind.TOR_MESH)
        if tor_targets:
            rnic, count = tor_targets.most_common(1)[0]
            if count >= config.min_anomalies_for_localization:
                problems.append(Problem(
                    category=ProblemCategory.HIGH_RTT, locus=rnic,
                    detected_at_ns=now,
                    window_start_ns=window.window_start_ns,
                    evidence_count=count,
                    from_service_tracing=service_side))
        loc = _localize_both(side)
        for suspect in loc.suspects[:1]:
            problems.append(Problem(
                category=ProblemCategory.HIGH_RTT, locus=suspect,
                detected_at_ns=now, window_start_ns=window.window_start_ns,
                evidence_count=len(side), from_service_tracing=service_side,
                detail=f"votes={loc.votes.get(suspect, 0)}"))
    by_host = defaultdict(list)
    for r in results:
        if r.responder_processing_ns is not None:
            by_host[_host_of_target(analyzer, r)].append(
                r.responder_processing_ns)
        if r.prober_processing_ns is not None:
            by_host[r.prober_host].append(r.prober_processing_ns)
    for host, samples in sorted(by_host.items()):
        if len(samples) < 5:
            continue
        samples.sort()
        p90 = samples[max(0, int(len(samples) * 0.9) - 1)]
        if p90 > config.high_processing_delay_ns:
            problems.append(Problem(
                category=ProblemCategory.HIGH_PROCESSING_DELAY, locus=host,
                detected_at_ns=now, window_start_ns=window.window_start_ns,
                evidence_count=len(samples), from_service_tracing=False,
                detail=f"p90={p90}ns"))


def _emit_problems(analyzer, results, classification, window, now):
    by_seq = {r.seq: r for r in results}
    for host in sorted(window.down_hosts):
        window.problems.append(Problem(
            category=ProblemCategory.HOST_DOWN, locus=host,
            detected_at_ns=now, window_start_ns=window.window_start_ns,
            evidence_count=sum(
                1 for s, c in classification.items()
                if c == ProblemCategory.HOST_DOWN
                and _host_of_target(analyzer, by_seq[s]) == host),
            from_service_tracing=False))
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

    def tally(service_side):
        anomalies = [
            by_seq[s] for s, c in classification.items()
            if c == ProblemCategory.SWITCH_NETWORK_PROBLEM
            and (by_seq[s].kind == ProbeKind.SERVICE_TRACING) == service_side]
        loc = _localize_both(anomalies)
        return SideTally(loc.votes, loc.paths_considered, len(anomalies))

    window.tallies = (tally(False), tally(True))
    _emit_latency_problems(analyzer, results, window, now)


def _aggregate_sla(analyzer, results, classification, window):
    report = SlaReport(window.window_start_ns, window.window_end_ns,
                       tracker=analyzer._tracker)
    for result in results:
        scope = (report.service if result.kind == ProbeKind.SERVICE_TRACING
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


def _service_members_seen(analyzer, results):
    seen = set()
    for result in results:
        if result.kind != ProbeKind.SERVICE_TRACING:
            continue
        seen.update((result.prober_rnic, result.target_rnic,
                     result.prober_host, _host_of_target(analyzer, result)))
        for path in (result.probe_path, result.ack_path):
            if path is None:
                continue
            seen.update(h for h in path.hops if h is not None)
            seen.update(f"{a}->{b}" for a, b in zip(path.hops, path.hops[1:])
                        if a is not None and b is not None)
    return tuple(sorted(seen))


def reference_gather(analyzer, uploads):
    """Stage 1 as the multi-pass pipeline computed it over ``uploads``,
    the window's batches (``analyzer`` has received them, for the
    silence clock)."""
    now = analyzer.cluster.sim.now
    evidence = WindowEvidence(
        window_start_ns=now - analyzer.config.analysis_period_ns,
        window_end_ns=now)
    results = [r for batch in uploads for r in batch.results]
    evidence.results_processed = len(results)
    evidence.down_hosts = analyzer._down_hosts(now)
    classification = _classify(analyzer, results, evidence, now)
    _emit_problems(analyzer, results, classification, evidence, now)
    evidence.int_links = analyzer._int_links(now)
    evidence.sla = _aggregate_sla(analyzer, results, classification, evidence)
    evidence.service_members = _service_members_seen(analyzer, results)
    if analyzer.tracer.enabled:
        evidence.verdicts = [
            (r.seq, r.kind == ProbeKind.SERVICE_TRACING,
             classification.get(r.seq)) for r in results]
    return evidence


# -- random windows ---------------------------------------------------------------

TOPOLOGY = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                      hosts_per_tor=3, rnics_per_host=2)
NOW = seconds(40)
REGISTERED_QPN = 100    # what make_analyzer registers for every RNIC
WINDOWS = 64


@pytest.fixture(scope="module")
def cluster():
    cluster = Cluster.clos(TOPOLOGY, seed=3)
    cluster.sim.run_until(NOW)
    return cluster


class WindowMaker:
    """One seeded window: upload batches plus the Analyzer state around
    them, drawn so every classification branch fires on some seed."""

    def __init__(self, cluster, seed):
        self.cluster = cluster
        self.rng = random.Random(seed)
        self.seq = iter(range(1, 1_000_000))
        self.hosts = sorted(cluster.hosts)
        self.rnics = cluster.rnic_names()
        self.by_host = defaultdict(list)    # prober host -> its results
        self.paths = {}                     # (src, dst, port) -> PathRecord
        self.tied_tor = None                # background leaves its mesh alone
        rng = self.rng
        self.down = set(rng.sample(self.hosts, rng.choice((0, 0, 1, 2))))
        self.config = dict(
            sla_sketch=seed % 2 == 1,
            tor_mesh_rnic_filter_enabled=rng.random() < 0.9,
            cpu_fp_filter_enabled=rng.random() < 0.85)
        self.tracing = seed % 4 >= 2
        self.quarantined = {
            rnic: rng.choice((NOW - seconds(30), NOW - seconds(8), NOW))
            for rnic in rng.sample(self.rnics, rng.choice((0, 0, 1, 2)))}

    def path(self, src, dst, port):
        """The traced path of one 5-tuple, shared by all its results the
        way an Agent shares its freshest record; sometimes absent,
        sometimes with rate-limited (``None``) hops, sometimes an equal
        copy instead of the same object."""
        rng = self.rng
        key = (src, dst, port)
        if key not in self.paths:
            record = None
            if rng.random() < 0.85:
                five_tuple = roce_five_tuple(self.cluster.rnic(src).ip,
                                             self.cluster.rnic(dst).ip, port)
                hops = tuple(self.cluster.fabric.path_of(five_tuple, src))
                if rng.random() < 0.25:
                    gap = rng.randrange(1, len(hops) - 1)
                    hops = hops[:gap] + (None,) + hops[gap + 1:]
                record = PathRecord(five_tuple=five_tuple, traced_at_ns=0,
                                    hops=hops, reached=True)
            self.paths[key] = record
        record = self.paths[key]
        if record is not None and rng.random() < 0.1:
            return PathRecord(record.five_tuple, record.traced_at_ns,
                              record.hops, record.reached)
        return record

    def add(self, kind, prober, target, *, timeout=False, qpn=REGISTERED_QPN,
            rtt=6_000, prober_proc=5_000, responder_proc=5_000, port=7000):
        cluster = self.cluster
        host = cluster.host_of_rnic(prober).name
        if host in self.down:
            return      # a down host uploads nothing
        traced = kind != ProbeKind.TOR_MESH or self.rng.random() < 0.3
        self.by_host[host].append(ProbeResult(
            kind=kind, seq=next(self.seq), prober_rnic=prober,
            prober_host=host, target_rnic=target,
            target_ip=cluster.rnic(target).ip, target_qpn=qpn,
            five_tuple=roce_five_tuple(cluster.rnic(prober).ip,
                                       cluster.rnic(target).ip, port),
            issued_at_ns=self.rng.randrange(NOW - seconds(20), NOW),
            completed_at_ns=NOW, timeout=timeout,
            network_rtt_ns=None if timeout else rtt,
            prober_processing_ns=None if timeout else prober_proc,
            responder_processing_ns=None if timeout else responder_proc,
            probe_path=self.path(prober, target, port) if traced else None,
            ack_path=self.path(target, prober, port) if traced else None))

    def background(self):
        """Healthy-ish probing of every kind, with scattered timeouts,
        stale QPNs and high RTTs."""
        rng = self.rng
        for _ in range(rng.randrange(150, 400)):
            prober = rng.choice(self.rnics)
            kind = rng.choice((ProbeKind.TOR_MESH, ProbeKind.TOR_MESH,
                               ProbeKind.INTER_TOR,
                               ProbeKind.SERVICE_TRACING))
            if kind == ProbeKind.TOR_MESH:
                tor = self.cluster.tor_of(prober)
                if tor == self.tied_tor:
                    continue
                peers = self.cluster.rnics_under_tor(tor)
            else:
                peers = self.rnics
            target = rng.choice([p for p in peers if p != prober])
            roll = rng.random()
            if roll < 0.04:
                self.add(kind, prober, target, timeout=True,
                         port=7000 + rng.randrange(3))
            elif roll < 0.07:
                self.add(kind, prober, target, timeout=True, qpn=999)
            elif roll < 0.12:
                self.add(kind, prober, target,
                         rtt=rng.randrange(250, 900) * MICROSECOND,
                         port=7000 + rng.randrange(3))
            else:
                self.add(kind, prober, target,
                         rtt=rng.randrange(4_000, 9_000),
                         prober_proc=rng.randrange(3_000, 8_000),
                         responder_proc=rng.randrange(3_000, 8_000))

    def tied_rnics(self):
        """Only the probes between two RNICs of one ToR time out, every
        ordered pair probed equally often: both score the same
        ``(rate, timeouts)``, and whichever the detection meets first
        takes the other's evidence with it."""
        rng = self.rng
        tor = self.tied_tor = rng.choice(self.cluster.tors())
        peers = self.cluster.rnics_under_tor(tor)
        first = rng.choice(peers)
        second = rng.choice([
            p for p in peers if self.cluster.host_of_rnic(p)
            != self.cluster.host_of_rnic(first)])
        times = rng.randrange(2, 5)
        for prober in peers:
            for target in peers:
                if prober != target:
                    for _ in range(times):
                        self.add(ProbeKind.TOR_MESH, prober, target,
                                 timeout={prober, target} == {first, second})

    def broken_rnic(self):
        """Every ToR-mesh probe to or from one RNIC times out, and so do
        its inter-ToR and service probes (quarantine attribution)."""
        rng = self.rng
        bad = rng.choice(self.rnics)
        for peer in self.cluster.rnics_under_tor(self.cluster.tor_of(bad)):
            if peer != bad:
                for _ in range(rng.randrange(2, 6)):
                    self.add(ProbeKind.TOR_MESH, bad, peer, timeout=True)
                    self.add(ProbeKind.TOR_MESH, peer, bad, timeout=True)
        for _ in range(rng.randrange(0, 8)):
            kind = rng.choice((ProbeKind.INTER_TOR,
                               ProbeKind.SERVICE_TRACING))
            other = rng.choice([r for r in self.rnics if r != bad])
            self.add(kind, other, bad, timeout=True)

    def starved_host(self):
        """An Agent short of CPU: both its RNICs miss deadlines, what it
        still measures is inflated, and its peers time out against it."""
        rng = self.rng
        host = rng.choice([h for h in self.hosts if h not in self.down]
                          or self.hosts)
        mine = [r.name for r in self.cluster.hosts[host].rnics]
        for rnic in mine[:rng.choice((1, 2))]:
            peers = [p for p in self.cluster.rnics_under_tor(
                self.cluster.tor_of(rnic)) if p != rnic]
            for peer in peers:
                for _ in range(rng.randrange(1, 4)):
                    self.add(ProbeKind.TOR_MESH, peer, rnic, timeout=True)
                    self.add(ProbeKind.TOR_MESH, rnic, peer,
                             timeout=rng.random() < 0.5,
                             prober_proc=rng.randrange(300, 900)
                             * MICROSECOND)
        for _ in range(rng.randrange(3, 12)):
            other = rng.choice([r for r in self.rnics if r not in mine])
            self.add(ProbeKind.INTER_TOR, other, rng.choice(mine),
                     timeout=True)

    def fabric_fault(self):
        """Timeouts spread over many prober and target hosts."""
        rng = self.rng
        kind = rng.choice((ProbeKind.INTER_TOR, ProbeKind.SERVICE_TRACING))
        for _ in range(rng.randrange(3, 25)):
            prober, target = rng.sample(self.rnics, 2)
            self.add(kind, prober, target, timeout=True,
                     port=7000 + rng.randrange(2))

    def expiring_quarantine(self):
        """An RNIC whose quarantine ends inside the window, and one prober
        timing out against it on one path all window long: the flow's
        members issued before the end are RNIC problems, the rest go on
        to the noise and fabric checks."""
        rng = self.rng
        bad = rng.choice(self.rnics)
        self.quarantined[bad] = NOW - seconds(8)
        prober = rng.choice([r for r in self.rnics if r != bad])
        kind = rng.choice((ProbeKind.INTER_TOR, ProbeKind.SERVICE_TRACING))
        for _ in range(rng.randrange(3, 9)):
            self.add(kind, prober, bad, timeout=True)

    def batches(self):
        rng = self.rng
        for feature in (self.tied_rnics, self.broken_rnic,
                        self.starved_host, self.fabric_fault,
                        self.fabric_fault, self.expiring_quarantine):
            if rng.random() < 0.5:
                feature()
        self.background()
        out = [AgentUpload(host, 0, []) for host in self.hosts]
        for host, results in self.by_host.items():
            rng.shuffle(results)
            cuts = sorted(rng.sample(range(len(results) + 1),
                                     min(3, len(results) + 1)))
            for i, (lo, hi) in enumerate(zip([0] + cuts,
                                             cuts + [len(results)])):
                out.append(AgentUpload(host, NOW - seconds(15 - 5 * i),
                                       results[lo:hi]))
        tail = out[len(self.hosts):]
        rng.shuffle(tail)
        return out[:len(self.hosts)] + tail

    def analyzer(self, batches):
        analyzer, _ = make_analyzer(self.cluster, **self.config)
        analyzer.tracer = Tracer(enabled=self.tracing)
        analyzer._quarantined_until.update(self.quarantined)
        for batch in batches:
            assert analyzer.receive_upload(batch)
        return analyzer

    def split(self, batches):
        """The same results in the same order, each batch cut again at
        random; a piece is sent a few ns before the next (a resend would
        repeat a timestamp), the last piece at the batch's own time."""
        rng = self.rng
        out = []
        for batch in batches:
            results = batch.results
            cuts = sorted(rng.sample(range(1, len(results)),
                                     min(rng.randrange(3), len(results) - 1))
                          ) if len(results) > 1 else []
            bounds = [0] + cuts + [len(results)]
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                out.append(AgentUpload(
                    batch.host, batch.uploaded_at_ns - (len(bounds) - 2 - i),
                    results[lo:hi]))
        return out


def _samples(tracker):
    if isinstance(tracker, QuantileSketch):
        return tracker.state()
    return tracker.samples()


def _flatten(evidence):
    """Every field of a WindowEvidence as comparable plain data (vote
    tallies with their insertion order, SLA stores with their samples)."""
    flat = {name: getattr(evidence, name) for name in (
        "window_start_ns", "window_end_ns", "results_processed", "down_hosts",
        "qpn_reset_timeouts", "anomalous_rnics", "cpu_noise_hosts",
        "problems", "latency_problems", "service_members", "int_links",
        "verdicts")}
    flat["tallies"] = [(list(t.votes.items()), t.paths, t.anomalies)
                       for t in evidence.tallies]
    for scope in (evidence.sla.cluster, evidence.sla.service):
        flat[scope.scope] = (
            scope.probes_total, scope.probes_ok, scope.timeouts_rnic,
            scope.timeouts_switch, scope.timeouts_non_network,
            _samples(scope.rtt), _samples(scope.processing))
    return flat


def _splits_a_flow(analyzer, flows):
    """Whether a quarantine ends inside some flow's issue times."""
    quarantined = analyzer._quarantined_until
    return any(
        min(f.issued) <= max(quarantined.get(f.first.prober_rnic, 0),
                             quarantined.get(f.first.target_rnic, 0))
        < max(f.issued) for f in flows)


@pytest.mark.parametrize("seed", range(WINDOWS))
def test_fold_matches_the_multi_pass_reference(cluster, seed):
    maker = WindowMaker(cluster, seed)
    batches = maker.batches()
    multi_pass = maker.analyzer(batches)
    fold = maker.analyzer(maker.split(batches))
    expected = _flatten(reference_gather(multi_pass, batches))
    actual = _flatten(fold.gather())
    for name, value in expected.items():
        assert actual[name] == value, name
    assert fold._quarantined_until == multi_pass._quarantined_until
    assert fold.ingest_backlog == 0


def test_the_windows_cover_every_branch(cluster):
    """The generator is only an oracle input if the branches fire."""
    seen = Counter()
    for seed in range(WINDOWS):
        maker = WindowMaker(cluster, seed)
        analyzer = maker.analyzer(maker.batches())
        flows = list(analyzer._fold.flows.values())
        evidence = analyzer.gather()
        categories = {c for _, _, c in evidence.verdicts}
        seen["split"] += _splits_a_flow(analyzer, flows)
        seen["multi-member"] += any(len(f.issued) > 1 for f in flows)
        seen["down"] += any(p.category == ProblemCategory.HOST_DOWN
                            and p.evidence_count for p in evidence.problems)
        seen["qpn"] += evidence.qpn_reset_timeouts > 0
        seen["rnic"] += bool(evidence.anomalous_rnics)
        seen["cpu"] += bool(evidence.cpu_noise_hosts)
        seen["cpu-timeouts"] += ProblemCategory.AGENT_CPU_NOISE in categories
        seen["cluster-votes"] += bool(evidence.tallies[0].votes)
        seen["service-votes"] += bool(evidence.tallies[1].votes)
        seen["latency"] += bool(evidence.latency_problems)
        seen["service"] += bool(evidence.service_members)
        seen["sketch"] += maker.config["sla_sketch"]
        seen["traced"] += bool(evidence.verdicts)
    assert all(seen[name] >= 3 for name in (
        "down", "qpn", "rnic", "cpu", "cpu-timeouts", "cluster-votes",
        "service-votes", "latency", "service", "sketch", "traced", "split",
        "multi-member")), seen


THRESHOLD = RPingmeshConfig().high_processing_delay_ns


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from((THRESHOLD - 1, THRESHOLD, THRESHOLD + 1))
                | st.integers(0, 2 * THRESHOLD), max_size=40))
def test_the_counted_p90_is_the_sorted_p90(cluster, samples):
    """``_abnormal_p90`` counts samples over the threshold and sorts only
    a host that passes; the answer is the sorted list's, duplicates and
    values at, just under and just over the threshold included."""
    analyzer, _ = make_analyzer(cluster)
    expected = None
    if len(samples) >= 5:
        p90 = sorted(samples)[max(0, int(len(samples) * 0.9) - 1)]
        expected = p90 if p90 > THRESHOLD else None
    assert analyzer._abnormal_p90(array("q", samples)) == expected


def test_an_equal_score_goes_to_the_rnic_met_first(cluster):
    """§4.3.2's strict ``>``: of two RNICs with the same (rate, timeouts)
    only the one the window's order meets first is convicted — its probes
    leave the pool and the other's score falls to zero."""
    maker = WindowMaker(cluster, 0)
    maker.config, maker.down, maker.quarantined = {}, set(), {}
    maker.tied_rnics()
    results = [r for rs in maker.by_host.values() for r in rs]
    pair = next({r.prober_rnic, r.target_rnic} for r in results if r.timeout)
    convicted = set()
    for ordering in range(8):
        random.Random(ordering).shuffle(results)
        first = next(rnic for r in results
                     for rnic in (r.prober_rnic, r.target_rnic)
                     if rnic in pair)
        uploads = [AgentUpload(results[0].prober_host, NOW, list(results))]
        assert reference_gather(maker.analyzer(uploads),
                                uploads).anomalous_rnics == {first}
        assert maker.analyzer(maker.split(uploads)).gather(
            ).anomalous_rnics == {first}
        convicted.add(first)
    assert convicted == pair    # the order decides, not the names


# -- sharded ---------------------------------------------------------------------


def test_a_quarantine_learned_mid_window_splits_the_flows_it_meets(cluster):
    """An AnalyzerShard hears the root's quarantines whenever its
    ``cluster_state`` broadcast lands, so what a flow's members were at
    arrival is no verdict: cut between two uploads of one window by a
    quarantine ending inside a folded flow's issue times, the shard's
    evidence equals the reference's over the whole window."""
    split = 0
    for seed in range(16):
        maker = WindowMaker(cluster, seed)
        batches = maker.split(maker.batches())
        half = len(batches) // 2
        flows = defaultdict(list)       # a flow's issue times, first half
        for batch in batches[:half]:
            for r in batch.results:
                if r.timeout:
                    flows[flow_key(r)].append(r.issued_at_ns)
        key, issued = max(flows.items(), key=lambda item: len(item[1]))
        rnic, until = key[2], sorted(issued)[(len(issued) - 1) // 2]

        _, controller = make_analyzer(cluster)
        shard = AnalyzerShard(cluster, controller,
                              RPingmeshConfig(**maker.config), 0)
        shard.tracer = Tracer(enabled=maker.tracing)
        shard._quarantined_until.update(maker.quarantined)
        for batch in batches[:half]:
            assert shard.receive_upload(batch)
        shard._handle_cluster_state(
            {"down_hosts": [], "quarantined": [(rnic, until)]})
        for batch in batches[half:]:
            assert shard.receive_upload(batch)
        reference = maker.analyzer(batches)
        reference._quarantined_until[rnic] = max(
            reference._quarantined_until.get(rnic, 0), until)
        split += _splits_a_flow(shard, shard._fold.flows.values())
        expected = _flatten(reference_gather(reference, batches))
        actual = _flatten(shard.gather())
        for name, value in expected.items():
            assert actual[name] == value, (seed, name)
        assert shard._quarantined_until == reference._quarantined_until
    assert split >= 8


# -- one sharded world ------------------------------------------------------------


def _verdict_keys(shards):
    world = build_world(
        SMALL, seed=5, config=RPingmeshConfig(shards=shards),
        campaign=(FaultEvent.make("rnic_down", "host1-rnic0", start_s=5),
                  FaultEvent.make("host_down", "host7", start_s=8)))
    world.system.run(seconds(65))
    return [sorted(p.key() for p in w.problems if p.category in (
        ProblemCategory.HOST_DOWN, ProblemCategory.RNIC_PROBLEM))
        for w in world.system.analyzer.windows]


def test_two_shards_reach_the_single_analyzers_verdicts():
    single = _verdict_keys(1)
    assert any(single)
    assert _verdict_keys(2) == single
