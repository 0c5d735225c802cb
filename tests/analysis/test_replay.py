"""Replay-digest proof: two seeded runs are bit-identical.

The acceptance bar for the determinism contract: for several seeds, the
reference scenario run twice produces identical structural digests —
including every uploaded probe result and per-stream RNG draw counts —
and the opt-in scheduler invariants hold throughout.
"""

from heapq import heappush

import pytest

from repro.analysis.runtime import (default_scenario, replay_digest,
                                    structural_digest)
from repro.sim.engine import EventHandle, InvariantViolation, Simulator
from repro.sim.units import SECOND

REPLAY_SEEDS = [3, 7, 11]


@pytest.mark.parametrize("seed", REPLAY_SEEDS)
def test_replay_digest_bit_identical(replay, seed):
    report = replay(seed)
    assert report.identical, (
        f"replay diverged for seed {seed}: {report.mismatched_keys}")
    assert report.mismatched_keys == ()
    assert report.digest_first == report.digest_second


def test_replay_state_matches_field_by_field():
    # Digest equality is the contract; this pins the two fields the
    # acceptance criteria name, so a digest-encoding bug cannot hide a
    # real divergence in them.
    first = default_scenario(7)
    second = default_scenario(7)
    assert first["results"] == second["results"]
    assert first["results"]["count"] > 0
    assert first["rng"]["draw_counts"] == second["rng"]["draw_counts"]
    assert sum(first["rng"]["draw_counts"].values()) > 0
    assert first == second


def test_different_seeds_produce_different_digests():
    reports = {seed: replay_digest(default_scenario, seed)
               for seed in REPLAY_SEEDS}
    digests = {r.digest_first for r in reports.values()}
    assert len(digests) == len(REPLAY_SEEDS)


def test_scenario_exercises_the_interesting_paths():
    # The reference scenario is only a meaningful determinism probe if it
    # actually schedules, draws, drops, and analyzes.
    state = default_scenario(7)
    assert state["results"]["count"] > 1_000
    assert state["fabric"]["drops"]              # the corrupting link
    assert {reason for _, reason, _, _ in state["fabric"]["drops"]} \
        == {"corruption"}
    assert sum(state["fabric"]["forwarded"].values()) > 10_000
    assert len(state["analyzer"]["windows"]) >= 2
    draws = state["rng"]["draw_counts"]
    assert any(name.startswith("agent.") for name in draws)
    assert draws.get("fabric", 0) > 0
    cp = state["control_plane"]
    assert sum(s["dropped"] for s in cp.values()) > 0   # lossy control


def test_structural_digest_is_order_free_for_sets_and_dicts():
    a = {"x": {3, 1, 2}, "y": {"k": 1, "j": 2}}
    b = {"y": {"j": 2, "k": 1}, "x": {2, 1, 3}}
    assert structural_digest(a) == structural_digest(b)
    assert structural_digest(a) != structural_digest({"x": {3, 1}})


def test_structural_digest_rejects_opaque_objects():
    with pytest.raises(TypeError):
        structural_digest(object())


def test_invariant_violation_on_past_event():
    # White box: the public API refuses past scheduling, so smuggle an
    # event behind call_at's guard the way a buggy refactor might.
    sim = Simulator(seed=1, check_invariants=True)
    sim.run_until(100)
    heappush(sim._event_heap, (50, 0, EventHandle(50, 0, lambda: None)))
    with pytest.raises(InvariantViolation):
        sim.run_until(200)


def test_invariants_off_by_default_tolerates_same_heap_state():
    sim = Simulator(seed=1)
    sim.run_until(100)
    heappush(sim._event_heap, (50, 0, EventHandle(50, 0, lambda: None)))
    sim.run_until(200)  # silently mis-times the event, but does not raise
    assert sim.now == 200


def test_check_invariants_clean_on_reference_scenario(replay):
    report = replay(5, check_invariants=True, duration_ns=25 * SECOND)
    assert report.identical
