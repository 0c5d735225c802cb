"""The pluggable diagnosis-backend contract (DESIGN.md §14).

A *diagnosis backend* is one way of watching a cluster and concluding
"something is wrong *here*": the paper's probe/RTT-vote pipeline, an
in-band-telemetry collector reading per-hop queue state off transiting
packets, the TCP Pingmesh baseline, or anything else that can observe the
fabric per tick and emit per-window verdicts.  Backends share one
protocol so the fleet can run several side by side against the same
ground-truth fault campaign and score them on equal terms — the ROADMAP
item-5 "in-band telemetry vs. probing" bake-off.

The registry maps short names (``"probe"``, ``"int"``, ``"pingmesh"``)
to factories; :class:`~repro.core.system.RPingmesh` instantiates and
attaches the configured set at deployment time.  The default set is
``("probe",)`` whose backend is pure observation — a deployment with the
defaults is bit-for-bit identical to one built before this module
existed (the golden replay digests prove it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.cluster import Cluster


@dataclass(frozen=True, slots=True)
class BackendVerdict:
    """One backend's per-window conclusion, comparable to a
    :class:`~repro.core.records.Problem`.

    ``category`` is a :class:`~repro.core.records.ProblemCategory`
    *value* string so verdicts stay plain data (picklable, digestable)
    while still converting without loss for Analyzer-style scoring.
    """

    backend: str                # registry name of the emitting backend
    category: str               # ProblemCategory value
    locus: str                  # device / directed-link / host name
    detected_at_ns: int
    window_start_ns: int
    evidence: int               # observations backing the verdict
    confidence: float = 1.0
    detail: str = ""

    def key(self) -> tuple[str, str]:
        """Dedup key matching :meth:`Problem.key`."""
        return (self.category, self.locus)

    def as_problem(self):
        """This verdict as a Problem record (the scoring adapter)."""
        from repro.core.records import Problem, ProblemCategory
        return Problem(
            category=ProblemCategory(self.category), locus=self.locus,
            detected_at_ns=self.detected_at_ns,
            window_start_ns=self.window_start_ns,
            evidence_count=self.evidence,
            from_service_tracing=False, detail=self.detail)


@dataclass(frozen=True, slots=True)
class BackendCost:
    """What running a backend cost, in fabric-visible units.

    ``probe_packets``/``probe_bytes`` count active packets the backend
    itself injected; ``telemetry_bytes`` counts metadata piggybacked on
    packets that were crossing the fabric anyway (the INT model);
    ``events_observed`` counts the raw observations the backend folded
    into verdicts.
    """

    probe_packets: int = 0
    probe_bytes: int = 0
    telemetry_bytes: int = 0
    events_observed: int = 0


@runtime_checkable
class DiagnosisBackend(Protocol):
    """What every diagnosis backend implements.

    Lifecycle: ``attach`` binds the backend to a built (not yet started)
    cluster + system pair; ``start`` begins any periodic work once the
    simulation is live.  ``verdicts``/``cost`` may be called at any time
    and must be pure reads — a backend never mutates the simulation when
    asked what it concluded.
    """

    name: str

    def attach(self, cluster: "Cluster", system) -> None:
        """Bind to the deployment (wire collectors, find the analyzer)."""
        ...

    def start(self) -> None:
        """Begin periodic observation (idempotent)."""
        ...

    def verdicts(self) -> list[BackendVerdict]:
        """Every per-window verdict emitted so far."""
        ...

    def cost(self) -> BackendCost:
        """Cumulative overhead of running this backend."""
        ...


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], DiagnosisBackend]] = {}
_BUILTINS_LOADED = False


def register_backend(name: str):
    """Class/factory decorator adding a backend to the registry."""
    def decorate(factory):
        if name in _REGISTRY:
            raise ValueError(f"diagnosis backend {name!r} already registered")
        _REGISTRY[name] = factory
        return factory
    return decorate


def _ensure_builtins() -> None:
    """Import the built-in backend modules so their decorators run."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.diagnosis import inband, pingmesh, probe  # noqa: F401


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def create_backend(name: str, **kwargs) -> DiagnosisBackend:
    """Instantiate a registered backend by name."""
    _ensure_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown diagnosis backend {name!r}; choose from: "
            f"{', '.join(sorted(_REGISTRY))}") from None
    return factory(**kwargs)
