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

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping, Optional

from repro.core.records import structural_digest
from repro.core.system import system_state
from repro.fleet.presets import TINY
from repro.fleet.spec import FaultEvent, ScenarioSpec, build_world
from repro.net.clos import ClosParams
from repro.sim.units import SECOND

Scenario = Callable[[int], Any]


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


# -- reference scenarios -------------------------------------------------------
#
# Fixed workloads spanning the engine's behaviour space.  The golden three
# are digested by tests/sim/test_golden_digests.py against checked-in
# hashes: any engine/fabric change that silently alters a probe result, RNG
# draw order, or a drop decision flips a hash and fails tier-1.  The
# definitions are therefore FROZEN: changing a topology, duration, fault
# dose or config value here invalidates the checked-in hashes.

_SLOW_CONTROL = {"control_latency_us": 200, "control_jitter_us": 50}
_MID_RUN = {"start_s": 5, "end_s": 35}


def _reference(name: str, *campaign: FaultEvent, topology: ClosParams = TINY,
               **config: Any) -> ScenarioSpec:
    return ScenarioSpec(name=name, topology=topology, duration_s=45,
                        campaign=campaign, metrics=False, **config)


SCENARIOS: dict[str, ScenarioSpec] = {spec.name: spec for spec in (
    # Healthy fabric, clean control plane: the pure probe/ack/analyze
    # machinery over hops that are quiet end to end (walker lookahead).
    _reference("quiet", **_SLOW_CONTROL),
    # Lossy/jittery control plane + a corrupting link: every RNG stream,
    # retries, per-hop drop draws, the analyzer's anomaly paths.
    _reference(
        "faulted",
        FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                        start_s=0, drop_prob=0.3),
        control_loss_prob=0.02, **_SLOW_CONTROL),
    # A 1.3x-overloaded uplink with misconfigured PFC headroom from 5 s to
    # 35 s: fluid-queue integration, overflow drops, RTT inflation,
    # quiet -> loaded -> quiet transitions mid-run.
    _reference(
        "congested",
        FaultEvent.make("link_overload", "pod0-tor0", "pod0-agg0",
                        extra_gbps=520.0, **_MID_RUN),
        FaultEvent.make("pfc_headroom_misconfig", "pod0-tor0", "pod0-agg0",
                        **_MID_RUN),
        **_SLOW_CONTROL),
    # Not golden (pinned at one seed only): these drag default-off
    # subsystems through the substrate.
    #
    # Two pods, shards=2 + sketch SLA: summary shipping, sketch states,
    # fused verdicts.
    _reference(
        "sharded",
        FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                        start_s=0, drop_prob=0.25),
        topology=ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2,
                            spines=1, hosts_per_tor=1),
        control_loss_prob=0.01, shards=2, sla_sketch=True, **_SLOW_CONTROL),
    # Congestion with the INT backend deployed: per-hop stamps on
    # packets' payloads, popped at delivery, window drains, Analyzer fusion.
    _reference(
        "int_telemetry",
        FaultEvent.make("link_overload", "pod0-tor0", "pod0-agg0",
                        extra_gbps=520.0, **_MID_RUN),
        backends=("probe", "int")),
    # An RNIC corrupting half of what it sends and receives from 5 s to
    # 35 s: packets lost inside the NIC, which no DropRecord keeps, and
    # host steps that stop being settled mid-run.
    _reference(
        "rnic_corruption",
        FaultEvent.make("rnic_corruption", "host0-rnic0", drop_prob=0.5,
                        **_MID_RUN)),
)}


def run_scenario(name: str, seed: int, *,
                 check_invariants: bool = True,
                 duration_ns: Optional[int] = None,
                 obs: Optional[Any] = None) -> dict[str, Any]:
    """Build ``SCENARIOS[name]`` from ``seed``, run it, snapshot it.

    ``duration_ns`` cuts the spec's 45 s short.  ``obs`` (an
    :class:`~repro.obs.Observability`) opts the run into the
    observability layer; the returned snapshot is sim state only, so it
    must be identical with or without it (DESIGN.md §8).
    """
    spec = SCENARIOS[name]
    _, system, _, _ = build_world(
        spec.topology, seed, config=spec.config(), campaign=spec.campaign,
        obs=obs, check_invariants=check_invariants)
    system.run(duration_ns if duration_ns is not None
               else spec.duration_s * SECOND)
    return system_state(system)


GOLDEN_SCENARIOS: dict[str, Scenario] = {
    name: partial(run_scenario, name)
    for name in ("quiet", "faulted", "congested")}

#: The reference scenario for replay tests: small, noisy, eventful, two
#: analysis windows, fast enough for tier-1.
default_scenario: Scenario = GOLDEN_SCENARIOS["faulted"]
