"""The six benchmark workloads: shared inputs, set-up, one measured step each.

Every workload is built from the public API only and mirrors the fleet
worker's build order (cluster -> config -> RPingmesh -> FaultManager ->
schedule_campaign -> run) so a harness-built world is the world
``repro.fleet.worker.run_scenario`` would build from the equivalent spec.

``--seed`` feeds ``Cluster.clos(seed=)`` / ``ServeSpec(seed=)`` and nothing
else: the program under test only ever sees the generated world.

World workloads are closed-loop by construction — the simulator runs as
fast as the host allows — and a *step* is a fixed span of simulated time
that is a multiple of the 20 s analysis period (10 s for the service world,
whose 400 ms job cycle divides it), so every step holds the same work.
"""

from __future__ import annotations

import copy
import os
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

from repro.cluster import Cluster
from repro.core.analyzer import Analyzer
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.fleet.spec import FaultEvent, schedule_campaign
# Detection is scored by the fleet worker's own rules (fault window,
# expected category, locus match, 25 s grace) rather than a copy of them.
from repro.fleet.worker import _score_fault, _score_precision
from repro.net.clos import ClosParams
from repro.net.faults import FaultManager
from repro.obs.metrics import parse_exposition
from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.session import ServeSession, ServeSpec
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.engine import Simulator
from repro.sim.units import MILLISECOND, SECOND, seconds

# `large-64rnic` of benchmarks/test_scalability.py: 64 RNICs on 32 hosts.
LARGE = ClosParams(pods=2, tors_per_pod=4, aggs_per_pod=2, spines=4,
                   hosts_per_tor=4, rnics_per_host=2)

# Selftest fabric (`small-12rnic`'s shape with two RNICs per host): every
# locus the campaigns name exists here too, at about a third of the cost.
SMALL = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=3, rnics_per_host=2)

# Five open-ended faults, one per Table-2 family the Analyzer separates:
# in-network corruption, a flapping port, a CPU-starved Agent, a dead RNIC
# and a congested uplink.  All are live by 12 sim-s, so the first analysis
# window (closing at 20 sim-s) already carries verdicts.
CAMPAIGN = (
    FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                    start_s=5, drop_prob=0.5),
    FaultEvent.make("switch_port_flapping", "pod1-agg0", "pod1-tor1",
                    start_s=5),
    FaultEvent.make("cpu_overload", "host4", start_s=8, load=0.97),
    FaultEvent.make("rnic_down", "host1-rnic0", start_s=10),
    FaultEvent.make("link_overload", "pod0-agg1", "spine1",
                    start_s=12, extra_gbps=500),
)

SERVE_CAMPAIGN = (
    FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                    start_s=10),
)

ANALYSIS_PERIOD_S = 20

# What a faulted world must still detect for its outputs to count as correct,
# once two analysis windows have closed (every fault live for all of the
# second).  Seeds 1-40 x both configurations hold these at 41, 61, 81 and
# 101 sim-s: the one fault a seed may miss is the 50 % link corruption, and
# the worst precision seen is 0.625 (5 of the 80 worlds ever located
# something no fault explains).
DETECTION_FLOORS = {"analyzer.recall": 0.8, "analyzer.localized_share": 0.8,
                    "analyzer.precision": 0.5}

# The checkout root: the only tree the benchmark may write under.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Counters that are levels, not running totals: reported as read at the end
# of the counted span instead of as a difference over it.
LEVELS = frozenset({
    "agent.results_buffered_peak", "analyzer.memory_bytes", "obs.series",
    "obs.exposition_bytes", "services.connections",
})


@dataclass
class Check:
    """Outcome of a workload's output checks."""

    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)


class Workload:
    """One named workload; subclasses fill in the five hooks."""

    name = ""
    why = ""
    unit_sim_s = 1.0        # simulated seconds one step covers
    min_steps = 3           # steps every timed run takes, whatever --seconds
    trace_steps = 1         # steps the traced pass and its reference count
    runs_microbenchmarks = False    # bench/micro.py rides on one traced pass
    topology = LARGE

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        if quick:
            self.topology = SMALL
            self.shrink()

    def shrink(self) -> None:
        """Selftest sizing: the same code paths, a smaller fabric and span."""
        raise NotImplementedError

    @property
    def sim(self) -> Simulator:
        """The world's simulator (where a tracer installs its hook)."""
        return self.cluster.sim

    def setup(self) -> None:
        """Build + deploy + the first simulated second (timed as setup_s)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Bring the built world to the state measurement starts from."""
        raise NotImplementedError

    def step(self) -> None:
        """One measured unit of work."""
        raise NotImplementedError

    def probes(self) -> int:
        """Running total of probes carried through the measured pipeline."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Exact per-layer counters (running totals, and LEVELS)."""
        raise NotImplementedError

    def check(self) -> Check:
        """Output checks over everything stepped so far."""
        raise NotImplementedError

    def timed_layers(self) -> dict[str, float]:
        """Per-layer metrics timed from outside (untraced pass only)."""
        return {}

    def detection(self) -> dict[str, float]:
        """Detection quality against ground truth (faulted worlds only)."""
        return {}


def system_counts(cluster: Cluster, system: RPingmesh) -> dict[str, float]:
    """Exact counters of one deployed world, by per-layer metric name."""
    agents = system.agents.values()
    rnics = cluster.all_rnics()
    analyzer = system.analyzer
    network = system.network
    out = {
        "sim.events": cluster.sim.events_processed,
        "net.packets_injected": cluster.fabric.packets_injected,
        "net.packets_delivered": cluster.fabric.packets_delivered,
        "net.packets_dropped": sum(cluster.fabric.drop_counts.values()),
        "net.traceroutes": cluster.traceroute.traces_issued,
        "net.traceroute_rate_limited_hops":
            cluster.traceroute.rate_limited_hops,
        "host.tx_packets": sum(r.tx_packets for r in rnics),
        "host.local_drops": sum(sum(r.local_drops.values()) for r in rnics),
        "agent.probes_sent": sum(a.probes_sent for a in agents),
        "agent.acks_sent": sum(a.acks_sent for a in agents),
        "agent.results_buffered_peak":
            max(a.results_buffered_peak for a in agents),
        "controller.pinglist_pushes": system.controller.pinglist_pushes,
        "controller.delta_pushes": system.controller.delta_pushes,
        "controlplane.messages_sent": network.messages_sent,
        "controlplane.messages_delivered": network.messages_delivered,
        "controlplane.messages_dropped": network.messages_dropped,
        "analyzer.windows": len(analyzer.windows),
        "analyzer.results_processed":
            sum(w.results_processed for w in analyzer.windows),
        "analyzer.problems": len(analyzer.problems),
        "analyzer.ingest_dropped": analyzer.ingest_dropped,
        "analyzer.memory_bytes": analyzer.memory_bytes(),
    }
    int_backend = system.backends.get("int")
    if int_backend is not None:
        cost = int_backend.cost()
        fusion = analyzer.fusion
        out["diagnosis.int_stamps"] = cost.events_observed
        out["diagnosis.telemetry_bytes"] = cost.telemetry_bytes
        out["diagnosis.fusion_actions"] = (
            fusion.sharpened + fusion.annotated + fusion.added
            + fusion.ties_broken)
    return out


# -- whole-world workloads ------------------------------------------------------


class World(Workload):
    """A full deployment on LARGE advanced in fixed simulated segments."""

    unit_sim_s = float(ANALYSIS_PERIOD_S)
    warm_until_s = 21       # past the first window close at 20 sim-s
    campaign: tuple[FaultEvent, ...] = ()

    def shrink(self) -> None:
        self.warm_until_s = 6
        self.unit_sim_s = 4.0
        self.min_steps = 1

    def make_config(self) -> RPingmeshConfig:
        return RPingmeshConfig()

    def setup(self) -> None:
        self.cluster = Cluster.clos(self.topology, seed=self.seed)
        self.system = RPingmesh(self.cluster, self.make_config())
        self.faults = schedule_campaign(
            FaultManager(self.cluster), self.cluster, self.campaign)
        self.deploy_extras()
        self.system.run(seconds(1))

    def deploy_extras(self) -> None:
        """Hook: services deployed alongside the monitor."""

    def warm(self) -> None:
        self.cluster.sim.run_until(seconds(self.warm_until_s))
        self._ingest_dropped_at_start = self.system.analyzer.ingest_dropped
        # Tally what Agents upload from here on through the Analyzer's
        # public tap: one call per 5 s batch, independent of where the
        # analysis windows fall inside a step.
        self.results_uploaded = 0
        self.results_timed_out = 0
        self.system.analyzer.add_upload_listener(self._on_upload)

    def _on_upload(self, batch) -> None:
        self.results_uploaded += len(batch.results)
        self.results_timed_out += sum(r.timeout for r in batch.results)

    def step(self) -> None:
        self.cluster.sim.run_for(round(self.unit_sim_s * SECOND))

    def probes(self) -> int:
        return sum(a.probes_sent for a in self.system.agents.values())

    def counts(self) -> dict[str, float]:
        out = system_counts(self.cluster, self.system)
        out["agent.results_uploaded"] = self.results_uploaded
        out["agent.results_timed_out"] = self.results_timed_out
        return out

    def check(self) -> Check:
        analyzer = self.system.analyzer
        errors = []
        due = self.cluster.sim.now // seconds(ANALYSIS_PERIOD_S)
        if len(analyzer.windows) != due:
            errors.append(f"{len(analyzer.windows)} analysis windows closed, "
                          f"{due} due by {self.cluster.sim.now / SECOND:g} s")
        if self.campaign:
            # Timeouts are what a faulted world is for; an operation fails
            # when the monitor loses evidence it was handed.
            failed = analyzer.ingest_dropped - self._ingest_dropped_at_start
            if len(analyzer.windows) >= 2:
                scores = self.detection()
                errors += [f"{name} is {scores[name]:.2f}, floor {floor}"
                           for name, floor in DETECTION_FLOORS.items()
                           if scores[name] < floor]
        else:
            failed = self.results_timed_out
            if failed:
                errors.append(f"{failed} probes timed out on a fault-free "
                              f"world")
        attempted = self.results_uploaded
        return Check(attempted, failed, errors)

    def detection(self) -> dict[str, float]:
        if not self.campaign:
            return {}
        problems = self.system.analyzer.problems
        outcomes = [_score_fault(fault, window, problems)
                    for fault, window in self.faults]
        true_pos, false_pos = _score_precision(self.faults, problems)
        ttds = [o.time_to_detect_ns / SECOND for o in outcomes if o.detected]
        located = true_pos + false_pos
        return {
            "analyzer.recall":
                sum(o.detected for o in outcomes) / len(outcomes),
            "analyzer.localized_share":
                sum(o.localized for o in outcomes) / len(outcomes),
            "analyzer.precision": true_pos / located if located else 0.0,
            "analyzer.ttd_s_p50": statistics.median(ttds) if ttds else 0.0,
        }


class SteadyLarge(World):
    name = "steady-large"
    why = ("fault-free 64-RNIC world at paper probe rates: the fast path, "
           "where sim+net+host+agent own ~97% of wall")
    runs_microbenchmarks = True


class FaultedLarge(World):
    name = "faulted-large"
    why = ("same world under a 5-fault campaign: packets leave the fast "
           "path (drops, timeouts, traceroute, Algorithm 1); has ground truth")
    campaign = CAMPAIGN


class FaultedLargeAlt(FaultedLarge):
    name = "faulted-large-alt"
    why = ("faulted-large inputs with every default-off twin on: 2 shards, "
           "SLA sketch, incremental pinglists, INT backend + fusion")

    def make_config(self) -> RPingmeshConfig:
        return RPingmeshConfig(shards=2, sla_sketch=True,
                               incremental_pinglists=True,
                               backends=("probe", "int"))


class ServiceAll2All(World):
    name = "service-all2all"
    why = ("16-RNIC All2All job traced by eBPF: 10 ms service probes over "
           "links with non-empty queues, the service-aware half of the paper")
    unit_sim_s = 10.0
    job_start_s = 3
    warm_until_s = 11       # 20 job cycles in; every sim-s here costs ~2x

    def deploy_extras(self) -> None:
        self.job = DmlJob(
            self.cluster, self.cluster.rnic_names()[:16],
            DmlConfig(pattern=CommPattern.ALL2ALL,
                      compute_time_ns=400 * MILLISECOND,
                      data_gbits_per_cycle=6.0))
        self.system.attach_service_monitor(self.job)

    def warm(self) -> None:
        self.cluster.sim.run_until(seconds(self.job_start_s))
        self.job.start()
        super().warm()

    def counts(self) -> dict[str, float]:
        out = super().counts()
        out["services.connections"] = len(self.job.connections)
        out["services.cycles"] = self.job.cycles_completed
        return out

    def check(self) -> Check:
        outcome = super().check()
        if self.job.task_failed:
            outcome.errors.append("the All2All job failed")
        return outcome


# -- analyzer-replay --------------------------------------------------------------


class AnalyzerReplay(Workload):
    """One captured 20 s window of uploads replayed into fresh Analyzers."""

    name = "analyzer-replay"
    why = ("128 captured upload batches (~22k results) of a faulted window "
           "replayed into a fresh Analyzer: classification, Algorithm 1 and "
           "the SLA store, ~2% of any whole world")
    unit_sim_s = float(ANALYSIS_PERIOD_S)
    min_steps = 100
    trace_steps = 40
    captured_window = 2     # (20, 40]: every fault live for all of it

    def shrink(self) -> None:
        self.captured_window = 1
        self.min_steps = self.trace_steps = 10

    def setup(self) -> None:
        self.cluster = Cluster.clos(self.topology, seed=self.seed)
        self.config = RPingmeshConfig()
        self.system = RPingmesh(self.cluster, self.config)
        schedule_campaign(FaultManager(self.cluster), self.cluster, CAMPAIGN)
        self.system.run(seconds(1))

    def warm(self) -> None:
        """Run the live world and keep the last window it closes."""
        analyzer = self.system.analyzer
        arriving: list = []
        closed: list = []
        analyzer.add_upload_listener(arriving.append)

        def on_window(window) -> None:
            closed.append((window, list(arriving)))
            arriving.clear()

        analyzer.add_window_listener(on_window)
        self.cluster.sim.run_until(
            seconds(self.captured_window * ANALYSIS_PERIOD_S))
        self.live_window, self.batches = closed[-1]
        self.results_per_step = sum(len(b.results) for b in self.batches)
        self.replay_config = RPingmeshConfig()
        self._reset_tallies()

    def _reset_tallies(self) -> None:
        self.steps = 0
        self.results_replayed = 0
        self.mismatches = 0
        self.close_ms: list[float] = []
        self.last_memory_bytes = 0

    def step(self) -> None:
        analyzer = Analyzer(self.cluster, self.system.controller,
                            self.replay_config)
        for batch in self.batches:
            analyzer.receive_upload(batch)
        start = time.perf_counter()
        window = analyzer.analyze()
        self.close_ms.append((time.perf_counter() - start) * 1e3)
        self.steps += 1
        self.results_replayed += window.results_processed
        self.mismatches += window.problems != self.live_window.problems
        self.last_memory_bytes = analyzer.memory_bytes()

    def probes(self) -> int:
        return self.results_replayed

    def counts(self) -> dict[str, float]:
        return {
            "analyzer.windows": self.steps,
            "analyzer.results_processed": self.results_replayed,
            "analyzer.problems": self.steps * len(self.live_window.problems),
            "analyzer.memory_bytes": self.last_memory_bytes,
        }

    def check(self) -> Check:
        errors = []
        if self.results_per_step != self.live_window.results_processed:
            errors.append(
                f"captured {self.results_per_step} results, the live window "
                f"analysed {self.live_window.results_processed}")
        if self.mismatches:
            errors.append(f"{self.mismatches} of {self.steps} replays "
                          f"disagree with the live window's verdicts")
        return Check(self.steps, self.mismatches, errors)

    def timed_layers(self) -> dict[str, float]:
        out = {
            "analyzer.window_close_ms_p50": statistics.median(self.close_ms),
            "analyzer.window_close_ms_p90": _p90(self.close_ms),
        }
        if not self.replay_config.sla_sketch:
            # The same captured window, as many times, into Analyzers that
            # keep SLA percentiles in the fixed-memory sketch.  The sketch
            # changes percentiles, never verdicts, so the twin is checked
            # against the same live (exact-store) window.
            twin = copy.copy(self)
            twin.replay_config = RPingmeshConfig(sla_sketch=True)
            twin._reset_tallies()
            step_s = []
            for _ in range(self.steps):
                start = time.perf_counter()
                twin.step()
                step_s.append(time.perf_counter() - start)
            self.mismatches += twin.mismatches
            out["analyzer.window_close_ms_p50.sketch"] = \
                statistics.median(twin.close_ms)
            out["analyzer.results_per_s.sketch"] = \
                self.results_per_step / statistics.median(step_s)
        return out


# -- serve-ops ----------------------------------------------------------------------


class ServeOps(Workload):
    name = "serve-ops"
    why = ("serve-mode session on a lossy 200 us control plane with metrics "
           "on: tick + /metrics scrape every sim-second, then checkpoints")
    unit_sim_s = 1.0
    min_steps = 100
    trace_steps = 40
    warm_ticks = 25
    checkpoint_rounds = 5

    def shrink(self) -> None:
        self.warm_ticks = 12    # ready() needs the window closing at tick 20
        self.min_steps = self.trace_steps = 10
        self.checkpoint_rounds = 1

    def setup(self) -> None:
        self.session = ServeSession(ServeSpec(
            seed=self.seed, pods=self.topology.pods,
            tors_per_pod=self.topology.tors_per_pod,
            aggs_per_pod=self.topology.aggs_per_pod,
            spines=self.topology.spines,
            hosts_per_tor=self.topology.hosts_per_tor,
            campaign=SERVE_CAMPAIGN))
        self.cluster = self.session.cluster
        self.session.tick()

    def warm(self) -> None:
        while self.session.ticks < self.warm_ticks:
            self.session.tick()
        self.tick_ms: list[float] = []
        self.scrape_ms: list[float] = []
        self.bad_scrapes = 0
        self.alert_transitions = 0
        self.exposition_bytes = 0
        self.checkpoint_bytes = 0
        self.checkpoint_save_ms: list[float] = []
        self.checkpoint_load_ms: list[float] = []
        self.bad_restores = 0

    def step(self) -> None:
        session = self.session
        start = time.perf_counter()
        transitions = session.tick()
        mid = time.perf_counter()
        text = session.render_metrics()
        end = time.perf_counter()
        self.tick_ms.append((mid - start) * 1e3)
        self.scrape_ms.append((end - mid) * 1e3)
        self.alert_transitions += len(transitions)
        self.exposition_bytes = len(text)
        # Untimed: the scrape must parse back to exactly the registry.
        series = parse_exposition(text).series
        if (series != session.system.obs.metrics.snapshot()
                or not any(k.startswith("repro_build_info") for k in series)):
            self.bad_scrapes += 1

    def probes(self) -> int:
        return sum(a.probes_sent for a in self.session.system.agents.values())

    def counts(self) -> dict[str, float]:
        system = self.session.system
        out = system_counts(self.session.cluster, system)
        out["obs.series"] = len(system.obs.metrics)
        out["obs.exposition_bytes"] = self.exposition_bytes
        out["serve.alert_transitions"] = self.alert_transitions
        # No upload tap here (a listener would ride along in every
        # checkpoint): the closed windows' SLA reports carry the same tally.
        reports = system.analyzer.sla.reports
        out["agent.results_uploaded"] = sum(
            r.cluster.probes_total for r in reports)
        out["agent.results_timed_out"] = sum(
            r.cluster.probes_total - r.cluster.probes_ok for r in reports)
        return out

    def _checkpoints(self) -> None:
        """Save + restore outside the timed loop; digests must agree."""
        if self.checkpoint_save_ms:
            return      # already done for this session
        # Inside the checkout: the benchmark writes nowhere else.
        directory = tempfile.mkdtemp(prefix=".bench_ckpt_", dir=ROOT)
        try:
            path = os.path.join(directory, "session.ckpt")
            digest = self.session.replay_digest()
            for _ in range(self.checkpoint_rounds):
                start = time.perf_counter()
                save_checkpoint(self.session, path)
                mid = time.perf_counter()
                restored = load_checkpoint(path)
                end = time.perf_counter()
                self.checkpoint_save_ms.append((mid - start) * 1e3)
                self.checkpoint_load_ms.append((end - mid) * 1e3)
                self.checkpoint_bytes = os.path.getsize(path)
                self.bad_restores += restored.replay_digest() != digest
                del restored    # one live session at a time, for peak RSS
        finally:
            shutil.rmtree(directory)

    def check(self) -> Check:
        self._checkpoints()
        ticks = len(self.tick_ms)
        errors = []
        if self.bad_scrapes:
            errors.append(f"{self.bad_scrapes} of {ticks} expositions failed "
                          f"the parse round-trip or lack repro_build_info")
        if self.bad_restores:
            errors.append(f"{self.bad_restores} of {self.checkpoint_rounds} "
                          f"restores changed the replay digest")
        if not self.session.ready():
            errors.append("session never became ready")
        return Check(2 * ticks + self.checkpoint_rounds,
                     self.bad_scrapes + self.bad_restores, errors)

    def timed_layers(self) -> dict[str, float]:
        self._checkpoints()
        registry = self.session.system.obs.metrics
        snapshot_ms = []
        for _ in range(20):
            start = time.perf_counter()
            registry.snapshot()
            snapshot_ms.append((time.perf_counter() - start) * 1e3)
        return {
            "serve.tick_ms_p50": statistics.median(self.tick_ms),
            "serve.tick_ms_p90": _p90(self.tick_ms),
            "serve.scrape_ms_p50": statistics.median(self.scrape_ms),
            "serve.scrape_ms_p90": _p90(self.scrape_ms),
            "serve.checkpoint_save_ms":
                statistics.median(self.checkpoint_save_ms),
            "serve.checkpoint_load_ms":
                statistics.median(self.checkpoint_load_ms),
            "serve.checkpoint_bytes": self.checkpoint_bytes,
            "serve.checkpoint_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "obs.snapshot_ms_p50": statistics.median(snapshot_ms),
        }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SteadyLarge, FaultedLarge, FaultedLargeAlt,
                              ServiceAll2All, AnalyzerReplay, ServeOps)}
