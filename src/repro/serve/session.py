"""The serve-mode session: pure, picklable simulation state.

A :class:`ServeSession` owns one deployed cluster and advances it in
fixed ``tick_ns`` steps.  It is deliberately free of threads, sockets,
and wall clocks — those live in :mod:`repro.serve.http` and the CLI
runner — so a session can be pickled mid-run (see
:mod:`repro.serve.checkpoint`) and the restored copy replays
byte-identically to an uninterrupted one.

The spec doubles as the checkpoint identity: its structural digest is
stamped into ``repro_build_info`` and into checkpoint metadata, so a
scrape (or a checkpoint file) always says which world produced it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import __version__
from repro.core.config import RPingmeshConfig
from repro.core.records import structural_digest
from repro.core.system import system_state
from repro.fleet.presets import TINY
from repro.fleet.spec import FaultEvent, build_world, schedule_campaign
from repro.net.clos import ClosParams
from repro.obs import Observability
from repro.serve.alerts import AlertEngine, AlertRule
from repro.sim.units import MICROSECOND, SECOND

# How many per-tick samples the TUI sparklines keep.
HISTORY_TICKS = 120

DEFAULT_ALERT_RULES: tuple[str, ...] = (
    "analyzer_problems: repro_analyzer_problems_total > 0 for 1 keep 2",
    "ingest_drops: repro_analyzer_ingest_dropped_total > 0 for 1 keep 2",
)


@dataclass(frozen=True, slots=True)
class ServeSpec:
    """Everything that defines a serve-mode world, as plain data."""

    seed: int = 0
    pods: int = TINY.pods
    tors_per_pod: int = TINY.tors_per_pod
    aggs_per_pod: int = TINY.aggs_per_pod
    spines: int = TINY.spines
    hosts_per_tor: int = TINY.hosts_per_tor
    shards: int = 1
    sla_sketch: Optional[bool] = None      # None: sketch iff shards > 1
    tick_ns: int = SECOND
    control_latency_ns: int = 200 * MICROSECOND
    control_jitter_ns: int = 50 * MICROSECOND
    control_loss_prob: float = 0.02
    check_invariants: bool = False
    campaign: tuple[FaultEvent, ...] = ()
    rules: tuple[AlertRule, ...] = field(
        default_factory=lambda: tuple(
            AlertRule.parse(text) for text in DEFAULT_ALERT_RULES))

    def __post_init__(self) -> None:
        if self.tick_ns <= 0:
            raise ValueError("tick_ns must be positive")

    def digest(self) -> str:
        """Structural digest of the spec — the world's identity."""
        return structural_digest(self)

    @property
    def topology(self) -> ClosParams:
        return ClosParams(pods=self.pods, tors_per_pod=self.tors_per_pod,
                          aggs_per_pod=self.aggs_per_pod, spines=self.spines,
                          hosts_per_tor=self.hosts_per_tor)

    def config(self) -> RPingmeshConfig:
        """The deployment configuration this spec's fields describe."""
        return RPingmeshConfig(
            control_latency_ns=self.control_latency_ns,
            control_jitter_ns=self.control_jitter_ns,
            control_loss_prob=self.control_loss_prob,
            shards=self.shards,
            sla_sketch=(self.sla_sketch if self.sla_sketch is not None
                        else self.shards > 1))


def parse_fault_spec(text: str) -> FaultEvent:
    """Parse the CLI fault grammar into a :class:`FaultEvent`.

    ``KIND@START[-END]:LOCUS[,LOCUS...][:key=value,...]`` with times in
    simulated seconds, e.g. ``link_corruption@5-25:pod0-tor0,pod0-agg0:
    drop_prob=0.3``.
    """
    parts = text.split(":")
    if len(parts) < 2:
        raise ValueError(f"malformed fault spec {text!r} (want "
                         f"'KIND@START[-END]:LOCUS,...[:k=v,...]')")
    head, loci_part = parts[0], parts[1]
    kind, _, window = head.partition("@")
    if not window:
        raise ValueError(f"fault spec {text!r} needs '@START[-END]'")
    start_text, _, end_text = window.partition("-")

    def seconds(field: str, raw: str) -> float:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(f"fault spec {text!r}: {field} must be a number "
                             f"of seconds, got {raw!r}") from None
    start_s = seconds("start_s", start_text)
    end_s = seconds("end_s", end_text) if end_text else None
    params: dict[str, object] = {}
    for pair in ",".join(parts[2:]).split(",") if len(parts) > 2 else ():
        key, _, raw = pair.partition("=")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return FaultEvent.make(kind, *loci_part.split(","), start_s=start_s,
                           end_s=end_s, **params)


@dataclass(slots=True)
class TickSample:
    """One tick's dashboard history point."""

    tick: int
    sim_now_ns: int
    probes_sent: int                 # cumulative, fleet-wide
    problems: int
    rtt_p50_ns: Optional[float]
    rtt_p99_ns: Optional[float]
    ok_fraction: Optional[float]
    alerts_firing: int


class ServeSession:
    """One serve-mode world plus its tick/alert/history state."""

    def __init__(self, spec: ServeSpec):
        self.spec = spec
        self.ticks = 0
        obs = Observability(metrics=True)
        self.cluster, self.system, self.faults, _ = build_world(
            spec.topology, spec.seed, config=spec.config(),
            campaign=spec.campaign, obs=obs,
            check_invariants=spec.check_invariants)
        self.alerts = AlertEngine(spec.rules, registry=obs.metrics)
        self.history: deque[TickSample] = deque(maxlen=HISTORY_TICKS)
        self.system.start()
        self._export_identity()

    # -- identity -----------------------------------------------------------

    def _export_identity(self) -> None:
        """Self-describing scrape: build info + uptime (DESIGN.md §13)."""
        metrics = self.system.obs.metrics
        metrics.gauge(
            "repro_build_info",
            help="constant 1; labels identify the serving world",
            version=__version__,
            config_digest=self.spec.digest()[:12],
            shards=str(self.spec.shards)).set(1)
        metrics.counter(
            "repro_uptime_ticks",
            help="serve-mode ticks completed (survives checkpoints)"
        ).value = self.ticks

    @property
    def config_digest(self) -> str:
        return self.spec.digest()

    # -- the tick loop body -------------------------------------------------

    def tick(self) -> list:
        """Advance one tick; returns the alert transitions it caused."""
        self.cluster.sim.run_for(self.spec.tick_ns)
        self.ticks += 1
        metrics = self.system.obs.metrics
        metrics.counter("repro_uptime_ticks").value = self.ticks
        snapshot = metrics.snapshot()
        transitions = self.alerts.evaluate(
            snapshot, tick=self.ticks, sim_now_ns=self.cluster.sim.now)
        self.history.append(self._sample())
        return transitions

    def _sample(self) -> TickSample:
        report = self.system.analyzer.sla.latest()
        rtt_p50 = rtt_p99 = ok_fraction = None
        if report is not None:
            window = report.cluster
            rtt = window.rtt_percentiles() or {}
            rtt_p50 = rtt.get("p50")
            rtt_p99 = rtt.get("p99")
            if window.probes_total:
                ok_fraction = window.probes_ok / window.probes_total
        probes_sent = sum(agent.probes_sent
                          for agent in self.system.agents.values())
        return TickSample(
            tick=self.ticks, sim_now_ns=self.cluster.sim.now,
            probes_sent=probes_sent,
            problems=len(self.system.analyzer.problems),
            rtt_p50_ns=rtt_p50, rtt_p99_ns=rtt_p99,
            ok_fraction=ok_fraction,
            alerts_firing=len(self.alerts.firing()))

    # -- probes -------------------------------------------------------------

    def healthy(self) -> bool:
        """Liveness: the session object is intact (always true in-proc)."""
        return True

    def ready(self) -> bool:
        """Readiness: pinglists pushed AND a first analysis window closed."""
        return (self.system.controller.pinglist_pushes > 0
                and len(self.system.analyzer.windows) >= 1)

    # -- runtime fault injection -------------------------------------------

    def inject(self, event: FaultEvent) -> FaultEvent:
        """Schedule a fault event relative to *now* (the ``/inject`` path).

        The event's ``start_s``/``end_s`` are offsets from the current
        simulated time, so ``start_s=0`` activates on the next tick.
        """
        now_s = self.cluster.sim.now / SECOND
        shifted = replace(
            event, start_s=now_s + event.start_s,
            end_s=None if event.end_s is None else now_s + event.end_s)
        schedule_campaign(self.faults, self.cluster, (shifted,))
        return shifted

    # -- read surface -------------------------------------------------------

    def render_metrics(self) -> str:
        """The ``/metrics`` payload."""
        return self.system.obs.metrics.render_prometheus() + "\n"

    def replay_digest(self) -> str:
        """Digest of the full sim state (the determinism contract)."""
        return structural_digest(system_state(self.system))

    def status(self) -> dict:
        """The ``/status`` payload."""
        return {
            "version": __version__,
            "config_digest": self.config_digest,
            "seed": self.spec.seed,
            "shards": self.spec.shards,
            "tick": self.ticks,
            "sim_now_ns": self.cluster.sim.now,
            "tick_ns": self.spec.tick_ns,
            "ready": self.ready(),
            "alerts_firing": self.alerts.firing(),
            "problems": len(self.system.analyzer.problems),
            "windows_analyzed": len(self.system.analyzer.windows),
            "faults_registered": len(self.faults.faults),
        }
