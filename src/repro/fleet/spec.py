"""Declarative scenario and sweep specifications.

A :class:`ScenarioSpec` is everything a fleet worker needs to reproduce
one simulation end to end — topology shape, fault campaign, control-plane
degradation, observability toggles, duration — as *plain frozen data*:
no callables, no cluster references, nothing that cannot cross a process
boundary or land in a JSON artifact.  The seed is deliberately **not**
part of the spec; a :class:`SweepSpec` pairs one or more specs with a
seed list, and every fleet job is a ``(spec, seed)`` pair.  That split is
what makes ``spec_digest`` the right merge key: results from different
seeds of the same spec aggregate into one scorecard row, and two runs of
the same ``(spec_digest, seed)`` pair must be bit-identical no matter
which worker executed them (the determinism contract, DESIGN.md §9).

Fault campaigns are tuples of :class:`FaultEvent` — a registry-keyed,
declarative form of :mod:`repro.net.faults` fault constructors plus an
activation window.  Events naming the same ``(kind, loci, params)``
identity are realised as **one** fault instance whose windows are
refcounted by :class:`~repro.net.faults.FaultManager`, so overlapping
windows on the same locus stay idempotent.

:func:`build_world` is the one place a deployment is stood up from such
data (DESIGN.md §9): the fleet worker, serve sessions, the reference
scenarios, the CLI and the experiment scaffolding all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, NamedTuple, Optional, Union

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.records import structural_digest
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.net.faults import FAULT_KINDS, Fault, FaultManager, Param
from repro.obs import Observability
from repro.sim.units import MICROSECOND, SECOND

ParamValue = Union[int, float, str, bool]
# A fault with its scoring window (start_ns, end_ns or None if never cleared).
ScheduledFault = tuple[Fault, tuple[int, Optional[int]]]
# Where a window's start or end may lie (10^9 s is some 31 years).
_WINDOW_S = Param("window", float, 0.0, 1e9, unit="s")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One fault activation window in a campaign, as plain data.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    the event hashes, pickles, and digests stably; use :meth:`make` to
    build one from keyword arguments.
    """

    kind: str                           # FAULT_KINDS key
    loci: tuple[str, ...]               # positional constructor names
    start_s: float                      # window start, simulated seconds
    end_s: Optional[float] = None       # None = never cleared
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        """Check what needs no world: the kind, the window, and each value
        against its kind's ``PARAMS`` (loci and parameter names wait for
        :func:`validate_campaign_loci`)."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from: "
                f"{', '.join(sorted(FAULT_KINDS))}")
        if not self.loci:
            raise ValueError(f"fault event {self.kind!r} needs >= 1 locus")
        for name in ("start_s", "end_s"):
            value = getattr(self, name)
            if value is not None and not _WINDOW_S.allows(value):
                raise ValueError(f"{name} must be {_WINDOW_S.describe()}, "
                                 f"got {value!r}")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise ValueError("end_s must follow start_s")
        if tuple(sorted(self.params)) != self.params:
            raise ValueError("params must be sorted (name, value) pairs; "
                             "build events with FaultEvent.make()")
        FAULT_KINDS[self.kind].check_params(dict(self.params))

    @classmethod
    def make(cls, kind: str, *loci: str, start_s: float,
             end_s: Optional[float] = None,
             **params: ParamValue) -> "FaultEvent":
        """Ergonomic constructor: keyword params, canonicalised order."""
        return cls(kind=kind, loci=tuple(loci), start_s=start_s,
                   end_s=end_s, params=tuple(sorted(params.items())))

    @property
    def identity(self) -> tuple[str, tuple[str, ...],
                                tuple[tuple[str, ParamValue], ...]]:
        """What makes two events the *same fault* (windows aside)."""
        return (self.kind, self.loci, self.params)

    def params_dict(self) -> dict[str, ParamValue]:
        """Params as keyword arguments for the fault constructor."""
        return dict(self.params)

    def build(self, cluster: Cluster) -> Fault:
        """Realise the event against a live cluster it has been validated
        for (:func:`validate_campaign_loci`)."""
        return FAULT_KINDS[self.kind](cluster, *self.loci,
                                      **self.params_dict())


def validate_campaign_loci(campaign: Iterable[FaultEvent],
                           cluster: Cluster) -> None:
    """Fail fast, with one ``ValueError`` naming the event's kind, if an
    event's loci or parameter names do not fit its kind in this
    deployment (its values were checked when it was made)."""
    for event in campaign:
        why = FAULT_KINDS[event.kind].build_error(
            cluster, event.loci, event.params_dict())
        if why is not None:
            raise ValueError(f"campaign event {event.kind!r} {why}")


def schedule_campaign(manager: FaultManager, cluster: Cluster,
                      campaign: Iterable[FaultEvent]
                      ) -> list[ScheduledFault]:
    """Validate a declarative campaign and realise it onto the simulator.

    Events sharing one identity (kind, loci, params) — in this call or
    an earlier one on the same ``manager`` — land on one fault instance
    with several refcounted windows; the returned scoring window of each
    fault named here is its :attr:`~repro.net.faults.Fault.span`.

    Every event is checked and built before any is armed, so a campaign
    with one bad event raises ``ValueError`` and schedules nothing.
    """
    campaign = tuple(campaign)
    validate_campaign_loci(campaign, cluster)
    faults = [manager.fault(event.identity, partial(event.build, cluster))
              for event in campaign]
    for event, fault in zip(campaign, faults):
        manager.schedule(
            fault, start_ns=round(event.start_s * SECOND),
            end_ns=(None if event.end_s is None
                    else round(event.end_s * SECOND)))
    # Each fault once, in first-named order (faults hash by identity).
    return [(fault, fault.span) for fault in dict.fromkeys(faults)]


class World(NamedTuple):
    """The live parts of one deployment: built and armed, not started."""

    cluster: Cluster
    system: RPingmesh
    faults: FaultManager
    scheduled: list[ScheduledFault]     # the campaign, as scorers want it


def build_world(topology: ClosParams, seed: int, *,
                config: Optional[RPingmeshConfig] = None,
                campaign: Iterable[FaultEvent] = (),
                obs: Optional[Observability] = None,
                check_invariants: bool = False) -> World:
    """Stand one deployment up: cluster -> RPingmesh -> FaultManager ->
    validated, scheduled campaign (the order ``bench/`` builds by hand).

    Nothing is started; callers ``system.start()`` / ``system.run()``.
    """
    cluster = Cluster.clos(topology, seed=seed,
                           check_invariants=check_invariants)
    system = RPingmesh(cluster, config, obs=obs)
    faults = FaultManager(cluster)
    return World(cluster, system, faults,
                 schedule_campaign(faults, cluster, campaign))


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """One simulation scenario, fully declarative and digest-stable.

    The control-plane knobs mirror
    :class:`~repro.core.config.RPingmeshConfig`; observability toggles
    mirror :class:`~repro.obs.Observability` (tracing defaults off — a
    fleet run does not need per-probe spans, and their volume would
    dominate result pickles).
    """

    name: str
    topology: ClosParams = field(default_factory=ClosParams)
    duration_s: int = 60
    campaign: tuple[FaultEvent, ...] = ()
    metrics: bool = True
    tracing: bool = False
    control_latency_us: int = 0
    control_jitter_us: int = 0
    control_loss_prob: float = 0.0
    # Control-plane scale-out (DESIGN.md §11): per-pod Analyzer/Controller
    # shard pairs, and the fixed-memory quantile sketch for SLA windows.
    shards: int = 1
    sla_sketch: bool = False
    # Diagnosis backends to deploy (repro.diagnosis, DESIGN.md §14).
    # Empty = the config default ("probe",), producing results identical
    # to a spec written before this field existed; name backends
    # explicitly ("probe", "int") to race them in a bake-off.
    backends: tuple[str, ...] = ()
    # Wall-clock budget one worker may spend on this scenario before the
    # FleetRunner counts the attempt as hung (None = no limit).
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.control_loss_prob < 1.0:
            raise ValueError("control_loss_prob must be in [0, 1)")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if len(set(self.backends)) != len(self.backends):
            raise ValueError(f"duplicate backends: {self.backends}")
        for event in self.campaign:
            if event.start_s >= self.duration_s:
                raise ValueError(
                    f"campaign event {event.kind!r} starts at "
                    f"{event.start_s}s, beyond the {self.duration_s}s run")

    @property
    def spec_digest(self) -> str:
        """Stable hex digest of the full spec (the merge key).

        ``timeout_s`` is excluded: it budgets *wall clock*, which must
        never influence what a scenario computes — two specs differing
        only in timeout produce identical simulations, so they must
        produce the same digest.
        """
        return structural_digest(replace(self, timeout_s=None))

    def config(self) -> RPingmeshConfig:
        """The deployment configuration this spec's fields describe."""
        config = RPingmeshConfig(
            control_latency_ns=self.control_latency_us * MICROSECOND,
            control_jitter_ns=self.control_jitter_us * MICROSECOND,
            control_loss_prob=self.control_loss_prob,
            shards=self.shards,
            sla_sketch=self.sla_sketch)
        if self.backends:
            config.backends = self.backends
        return config

    @property
    def label(self) -> str:
        """Short human-readable identity: ``name@digest12``."""
        return f"{self.name}@{self.spec_digest[:12]}"


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """A sweep: scenarios x seeds (x replicates), the unit a fleet runs.

    ``replicates > 1`` schedules every ``(spec, seed)`` job that many
    times — redundant work whose only purpose is the determinism check:
    :func:`repro.fleet.merge.merge` verifies that duplicate jobs produced
    identical replay digests regardless of which worker ran them.
    """

    scenarios: tuple[ScenarioSpec, ...]
    seeds: tuple[int, ...]
    replicates: int = 1

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("a sweep needs >= 1 scenario")
        if not self.seeds:
            raise ValueError("a sweep needs >= 1 seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be unique (use replicates= for "
                             "the determinism cross-check)")
        if len({s.name for s in self.scenarios}) != len(self.scenarios):
            raise ValueError("scenario names must be unique within a sweep")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    def jobs(self) -> list[tuple[ScenarioSpec, int]]:
        """The work list, in deterministic submission order."""
        return [(spec, seed)
                for _ in range(self.replicates)
                for spec in self.scenarios
                for seed in self.seeds]

    @property
    def sweep_digest(self) -> str:
        """Stable digest over all scenario digests and seeds."""
        return structural_digest({
            "scenarios": [s.spec_digest for s in self.scenarios],
            "seeds": list(self.seeds),
            "replicates": self.replicates,
        })


def spec_summary(spec: ScenarioSpec) -> dict[str, ParamValue]:
    """Compact scorecard-embeddable description of one scenario."""
    return {
        "name": spec.name,
        "rnics": spec.topology.total_rnics,
        "duration_s": spec.duration_s,
        "campaign_events": len(spec.campaign),
        "metrics": spec.metrics,
        "tracing": spec.tracing,
    }
