"""Runtime half of the determinism contract: the replay-digest harness.

:func:`replay_digest` runs the same scenario twice with the same seed and
compares a *structural digest* of everything the run produced — simulated
clock, every uploaded probe result, per-stream RNG draw counts, the fabric's
drop log and per-link counters, analyzer conclusions.  If any hidden
nondeterminism slipped past detlint (a wall clock, unordered iteration
feeding the scheduler, process-global state), the two digests diverge and
the mismatching keys name the subsystem that drifted.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Mapping, Optional

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.net.faults import (FaultManager, LinkCorruption, LinkOverload,
                              PfcHeadroomMisconfig)
from repro.sim.units import MICROSECOND, SECOND

Scenario = Callable[[int], Any]


# -- structural digests --------------------------------------------------------

def _canonical(value: Any) -> str:
    """A stable text encoding: order-free for mappings/sets, exact floats."""
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value))
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Mapping):
        items = sorted((_canonical(k), _canonical(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    raise TypeError(
        f"structural_digest cannot canonicalize {type(value).__name__}; "
        "snapshot it into plain data first")


def structural_digest(value: Any) -> str:
    """Hex sha256 of the canonical encoding of ``value``."""
    return hashlib.sha256(_canonical(value).encode()).hexdigest()


# -- state snapshots -----------------------------------------------------------

def system_state(system: RPingmesh) -> dict[str, Any]:
    """A structural snapshot of one deployed run, digest-ready.

    Only *observable behaviour* is pinned: what every probe measured, what
    the fabric dropped and forwarded, every RNG stream's draw count (plus
    the registry state digest, which also pins generator positions), and
    the conclusions the run reached.  How many simulator events it took to
    get there is deliberately not part of it (DESIGN.md §7).
    """
    cluster = system.cluster
    sim = cluster.sim
    fabric = cluster.fabric
    return {
        "sim": {
            "now": sim.now,
            "seed": sim.seed,
        },
        "rng": {
            "draw_counts": cluster.rngs.draw_counts(),
            "digest": cluster.rngs.digest(),
        },
        "fabric": {
            "injected": fabric.packets_injected,
            "delivered": fabric.packets_delivered,
            "drops": [(d.time_ns, d.reason.value, d.link, d.node)
                      for d in fabric.drops],
            "forwarded": fabric.forwarded_by_link(),
        },
        "results": {
            "count": system.upload_digest.count,
            "digest": system.upload_digest.value,
        },
        "analyzer": {
            "windows": [
                {
                    "start": w.window_start_ns,
                    "end": w.window_end_ns,
                    "results": w.results_processed,
                    "down_hosts": sorted(w.down_hosts),
                    "anomalous_rnics": sorted(w.anomalous_rnics),
                    "cpu_noise_hosts": sorted(w.cpu_noise_hosts),
                    "problems": [
                        (p.category.name, p.locus, p.detected_at_ns)
                        for p in w.problems
                    ],
                }
                for w in system.analyzer.windows
            ],
        },
        "control_plane": {
            name: {
                "sent": stats.sent, "delivered": stats.delivered,
                "dropped": stats.dropped, "retries": stats.retries,
            }
            for name, stats in sorted(system.control_plane_stats().items())
        },
    }


# -- the replay harness --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReplayReport:
    """The outcome of running one scenario twice with one seed."""

    seed: int
    digest_first: str
    digest_second: str
    mismatched_keys: tuple[str, ...]

    @property
    def identical(self) -> bool:
        """True iff both runs produced byte-identical structural state."""
        return self.digest_first == self.digest_second


def _diff_keys(first: Any, second: Any, prefix: str = "") -> list[str]:
    """Top-down named paths where two snapshots differ."""
    if isinstance(first, Mapping) and isinstance(second, Mapping):
        keys = sorted(set(first) | set(second), key=str)
        out: list[str] = []
        for key in keys:
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in first or key not in second:
                out.append(path)
            else:
                out.extend(_diff_keys(first[key], second[key], path))
        return out
    if structural_digest(first) != structural_digest(second):
        return [prefix or "<root>"]
    return []


def replay_digest(scenario: Scenario, seed: int) -> ReplayReport:
    """Run ``scenario(seed)`` twice and compare structural digests.

    The scenario must build its entire world from the seed (fresh
    Simulator, fresh RngRegistry) and return a digest-able snapshot —
    typically :func:`system_state` output, but any canonicalizable
    structure works.
    """
    first = scenario(seed)
    second = scenario(seed)
    return ReplayReport(
        seed=seed,
        digest_first=structural_digest(first),
        digest_second=structural_digest(second),
        mismatched_keys=tuple(_diff_keys(first, second)),
    )


def default_scenario(seed: int, *,
                     check_invariants: bool = True,
                     duration_ns: Optional[int] = None,
                     obs: Optional[Any] = None,
                     sanitize: bool = False,
                     poolsan_out: Optional[list] = None) -> dict[str, Any]:
    """The reference scenario for replay tests: small, noisy, eventful.

    A tiny Clos cluster with a lossy/jittery control plane and a
    corrupting fabric link, run for two analysis windows — enough to
    exercise the scheduler, every RNG stream, retries, and the analyzer's
    anomaly paths, while staying fast enough for tier-1 tests.

    ``obs`` (an :class:`~repro.obs.Observability`) opts the run into the
    observability layer; the returned snapshot is sim state only, so it
    must be identical with or without it (DESIGN.md §8).  ``sanitize``
    opts into the PoolSan lifetime sanitizer under the same contract
    (DESIGN.md §12); ``poolsan_out``, if given, receives the live
    :class:`~repro.analysis.sanitize.PoolSanitizer` so callers can pull
    its findings without the snapshot (and thus the digest) changing.
    """
    params = ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2,
                        spines=1, hosts_per_tor=2)
    cluster = Cluster.clos(params, seed=seed,
                           check_invariants=check_invariants,
                           sanitize=sanitize)
    if poolsan_out is not None:
        poolsan_out.append(cluster.sanitizer)
    config = RPingmeshConfig(
        control_latency_ns=200 * MICROSECOND,
        control_jitter_ns=50 * MICROSECOND,
        control_loss_prob=0.02,
    )
    system = RPingmesh(cluster, config, obs=obs)
    system.start()
    fault = LinkCorruption(cluster, "pod0-tor0", "pod0-agg0",
                           drop_prob=0.3)
    fault.inject()
    system.run(duration_ns if duration_ns is not None else 45 * SECOND)
    return system_state(system)


# -- golden reference scenarios ------------------------------------------------
#
# Three fixed workloads spanning the engine's behaviour space, digested by
# tests/sim/test_golden_digests.py against checked-in hashes.  Any
# engine/fabric change that silently alters a probe result, RNG draw order,
# or a drop decision flips a hash and fails tier-1.  Scenario definitions are therefore FROZEN: changing topology,
# durations, fault doses, or config here invalidates the checked-in hashes.

def _golden_cluster(seed: int, *, sanitize: bool = False) -> Cluster:
    params = ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2,
                        spines=1, hosts_per_tor=2)
    return Cluster.clos(params, seed=seed, check_invariants=True,
                        sanitize=sanitize)


def quiet_scenario(seed: int, *, sanitize: bool = False,
                   poolsan_out: Optional[list] = None) -> dict[str, Any]:
    """Golden scenario: healthy fabric, clean control plane, no faults.

    Exercises the pure probe/ack/analyze machinery over a fabric whose
    every hop is quiet: the walker's lookahead end to end.
    """
    cluster = _golden_cluster(seed, sanitize=sanitize)
    if poolsan_out is not None:
        poolsan_out.append(cluster.sanitizer)
    config = RPingmeshConfig(
        control_latency_ns=200 * MICROSECOND,
        control_jitter_ns=50 * MICROSECOND,
        control_loss_prob=0.0,
    )
    system = RPingmesh(cluster, config)
    system.start()
    system.run(45 * SECOND)
    return system_state(system)


def faulted_scenario(seed: int, *, sanitize: bool = False,
                     poolsan_out: Optional[list] = None) -> dict[str, Any]:
    """Golden scenario: the lossy-control-plane + corrupting-link reference.

    Identical to :func:`default_scenario` at its defaults; named here so the
    golden suite reads as (quiet, faulted, congested).
    """
    return default_scenario(seed, sanitize=sanitize,
                            poolsan_out=poolsan_out)


def congested_scenario(seed: int, *, sanitize: bool = False,
                       poolsan_out: Optional[list] = None) -> dict[str, Any]:
    """Golden scenario: a lossy saturated uplink under a fault window.

    A 1.3x-overloaded tor->agg uplink with PFC headroom misconfigured on
    the cable, active from t=5s to t=35s via FaultManager windows.  Covers
    the fluid-queue integration, queue-overflow drops, RTT inflation, and
    the mid-run fast-path -> slow-path -> fast-path transitions.
    """
    cluster = _golden_cluster(seed, sanitize=sanitize)
    if poolsan_out is not None:
        poolsan_out.append(cluster.sanitizer)
    config = RPingmeshConfig(
        control_latency_ns=200 * MICROSECOND,
        control_jitter_ns=50 * MICROSECOND,
        control_loss_prob=0.0,
    )
    system = RPingmesh(cluster, config)
    system.start()
    faults = FaultManager(cluster)
    faults.schedule(
        LinkOverload(cluster, "pod0-tor0", "pod0-agg0", extra_gbps=520.0),
        start_ns=5 * SECOND, end_ns=35 * SECOND)
    faults.schedule(
        PfcHeadroomMisconfig(cluster, "pod0-tor0", "pod0-agg0"),
        start_ns=5 * SECOND, end_ns=35 * SECOND)
    system.run(45 * SECOND)
    return system_state(system)


GOLDEN_SCENARIOS: dict[str, Scenario] = {
    "quiet": quiet_scenario,
    "faulted": faulted_scenario,
    "congested": congested_scenario,
}


# -- sanitized sweeps ----------------------------------------------------------

def sharded_smoke_scenario(seed: int, *, sanitize: bool = False,
                           poolsan_out: Optional[list] = None
                           ) -> dict[str, Any]:
    """A two-pod, ``shards=2`` + sketch-SLA scenario for sanitized runs.

    Not a golden scenario (no pinned hash): its job is to drag the
    sharded control plane — summary shipping, sketch states, fused
    verdicts — across the sanitized pools, per the PoolSan acceptance
    criteria.  Sanitize-on/off digest equality is what tests pin.
    """
    params = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2,
                        spines=1, hosts_per_tor=1)
    cluster = Cluster.clos(params, seed=seed, check_invariants=True,
                           sanitize=sanitize)
    if poolsan_out is not None:
        poolsan_out.append(cluster.sanitizer)
    config = RPingmeshConfig(
        control_latency_ns=200 * MICROSECOND,
        control_jitter_ns=50 * MICROSECOND,
        control_loss_prob=0.01,
        shards=2,
        sla_sketch=True,
    )
    system = RPingmesh(cluster, config)
    system.start()
    fault = LinkCorruption(cluster, "pod0-tor0", "pod0-agg0",
                           drop_prob=0.25)
    fault.inject()
    system.run(45 * SECOND)
    return system_state(system)


def int_smoke_scenario(seed: int, *, sanitize: bool = False,
                       poolsan_out: Optional[list] = None
                       ) -> dict[str, Any]:
    """A congested run with the INT diagnosis backend deployed.

    Not a golden scenario: INT telemetry is off by default (the golden
    digests pin the disabled path).  Its job under PoolSan is the
    telemetry stamp/collect cycle itself — per-hop stamps pushed onto
    pooled packets' payloads on looked-ahead and evaluated hops, popped at
    delivery, window drains, and Analyzer fusion — proving the collector
    neither leaks stamps into reused packets nor retains pooled refs.
    """
    cluster = _golden_cluster(seed, sanitize=sanitize)
    if poolsan_out is not None:
        poolsan_out.append(cluster.sanitizer)
    config = RPingmeshConfig(backends=("probe", "int"))
    system = RPingmesh(cluster, config)
    system.start()
    faults = FaultManager(cluster)
    faults.schedule(
        LinkOverload(cluster, "pod0-tor0", "pod0-agg0", extra_gbps=520.0),
        start_ns=5 * SECOND, end_ns=35 * SECOND)
    system.run(45 * SECOND)
    return system_state(system)


#: What ``python -m repro.analysis --sanitize-check`` (and the CI
#: sanitizer-smoke job) sweeps: every golden scenario plus the sharded
#: and INT-telemetry ones.
SANITIZE_SCENARIOS: dict[str, Scenario] = {
    **GOLDEN_SCENARIOS,
    "sharded": sharded_smoke_scenario,
    "int_telemetry": int_smoke_scenario,
}


@dataclass(frozen=True, slots=True)
class SanitizeReport:
    """Outcome of one sanitized-vs-plain scenario comparison."""

    scenario: str
    seed: int
    digest_plain: str
    digest_sanitized: str
    findings: tuple = ()
    summary: Optional[dict[str, dict[str, int]]] = None

    @property
    def ok(self) -> bool:
        """Digest-neutral and violation-free."""
        return (self.digest_plain == self.digest_sanitized
                and not self.findings)


def sanitize_check(seed: int = 7, *,
                   scenarios: Optional[Mapping[str, Scenario]] = None
                   ) -> list[SanitizeReport]:
    """Run each scenario plain and sanitized; compare digests, collect
    findings.  The runtime half of the CI sanitizer-smoke gate."""
    out: list[SanitizeReport] = []
    for name, scenario in (scenarios or SANITIZE_SCENARIOS).items():
        plain = structural_digest(scenario(seed))
        sink: list = []
        sanitized = structural_digest(
            scenario(seed, sanitize=True, poolsan_out=sink))
        sanitizer = sink[0]
        out.append(SanitizeReport(
            scenario=name, seed=seed,
            digest_plain=plain, digest_sanitized=sanitized,
            findings=tuple(sanitizer.report()),
            summary=sanitizer.summary()))
    return out
