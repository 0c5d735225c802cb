"""Golden replay digests: the byte-identical contract of the sim core.

Each hash below is the structural digest of a run's *observable behaviour*
(clock, every uploaded probe result, RNG draw history, the fabric's drop log
and per-link counters, analyzer windows, control plane — DESIGN.md §7) after
a FROZEN scenario from ``repro.analysis.runtime`` runs to completion.  How
many simulator events a run takes is not part of it, so an optimization
may schedule fewer — as long as every probe still measures the same thing.

If one of these fails, an engine/fabric change altered event
ordering, RNG draw order, or a drop decision.  That is a bug in the change,
not in the hash: do NOT re-capture the digests to make the suite green
unless the behaviour change is deliberate, understood, and called out in
the commit message.

The three scenarios x three seeds span the behaviour space:

* ``quiet``     - healthy fabric, every hop quiet end to end;
* ``faulted``   - lossy control plane + corrupting link (per-hop RNG drop
                  draws, retransmission accounting);
* ``congested`` - saturated uplink with misconfigured PFC headroom under a
                  FaultManager window (fluid-queue integration, overflow
                  drops, and quiet->loaded->quiet mid-run transitions).
"""

import pytest

from repro.analysis.runtime import (GOLDEN_SCENARIOS, SCENARIOS,
                                    run_scenario, structural_digest)

# (scenario, seed) -> sha256 structural digest.  History: captured on the
# per-hop fabric walker and reproduced bit for bit by the lookahead walker
# that replaced it; re-captured once, deliberately, when every PeriodicTask
# got its own jitter stream (firing times moved, nothing else); unchanged
# again when idle service-tracing tasks were parked on top of that.
# ``faulted`` seeds 3 and 7 re-captured once more, deliberately, when the
# Analyzer stopped ingesting a batch twice after a lost ack (this
# scenario's control plane loses 2 % of messages): 2,833 -> 2,716 and
# 2,894 -> 2,801 uploaded results, the resent batches counted once; with
# that one check disabled all nine reproduce the older values bit for bit.
GOLDEN_DIGESTS = {
    ("quiet", 3):
        "fb0a73d114ccb68e5a3d26b9a4add2dee3ddd977028cbc0fee6d65198383593a",
    ("quiet", 7):
        "e3ef829d65c78afe142421c6a7c18c3f25c55df53af1badbb5a376b0464ef1c1",
    ("quiet", 11):
        "786b60b926da803e02e756ff8bb8d35f547fd5b20fa2831dd29e9859e3bc40c6",
    ("faulted", 3):
        "70be2fc80bf28fbf782c285b0f8aea96ad9019ea1f2fc4cd9fc94ec5f27956de",
    ("faulted", 7):
        "55c56cfefdad8b1e16f30eb6c659d450831415187a8105272900b9950d5ee826",
    ("faulted", 11):
        "391e15025931cea61b4048a1159a35f816812b7f7c5558b67b4de4e2c79ecb3e",
    ("congested", 3):
        "9f447a88aefc0d1957a7b1996e63084f3956fdeb25396142d1dfd09292e3fb24",
    ("congested", 7):
        "788fb26fae12b01bfd8ceeb929d6c483f696ea5796df5aceb0939409328be174",
    ("congested", 11):
        "3bb5bb09ee33bcf1dfcc4d714bed344f65e73d550999e69f35496890670fba93",
}

# The reference scenarios that are not golden, pinned at seed 7 only.
SEED7_DIGESTS = {
    "sharded":
        "984ec4ffb15276cde3e563c26a03e9d7d986ef0106eb2813eddc7552c38015d5",
    "int_telemetry":
        "b7ff662c53865ce34dc927548a582605b0a471825eaea86e42c6b0090d6ce23b",
    "rnic_corruption":
        "41c90178b16452459b96abb8f154a7c280edcbb5f8bbe5b4fa7053510d7b536e",
}

# spec_digest[:16] of every reference ScenarioSpec: the definitions are
# FROZEN, and an edit to one shows here before any simulation runs.
SPEC_DIGESTS = {
    "quiet": "9782fba9d473c6d3",
    "faulted": "818d15f3b89b0ea8",
    "congested": "83208737e76e1fc6",
    "sharded": "7249b5df781fe148",
    "int_telemetry": "d1adcd9908ccd7b5",
    "rnic_corruption": "2a8bddd5817d839b",
}


def test_reference_specs_are_frozen():
    assert {name: spec.spec_digest[:16]
            for name, spec in SCENARIOS.items()} == SPEC_DIGESTS
    assert all(spec.name == name for name, spec in SCENARIOS.items())
    assert set(SCENARIOS) == set(GOLDEN_SCENARIOS) | set(SEED7_DIGESTS)


def test_golden_table_covers_every_scenario():
    assert {name for name, _ in GOLDEN_DIGESTS} == set(GOLDEN_SCENARIOS)
    for name in GOLDEN_SCENARIOS:
        assert [s for n, s in GOLDEN_DIGESTS if n == name] == [3, 7, 11]


@pytest.mark.parametrize(
    "name,seed", list(GOLDEN_DIGESTS),
    ids=[f"{name}-seed{seed}" for name, seed in GOLDEN_DIGESTS])
def test_scenario_digest_matches_golden(name, seed):
    state = GOLDEN_SCENARIOS[name](seed)
    digest = structural_digest(state)
    assert digest == GOLDEN_DIGESTS[(name, seed)], (
        f"{name} seed {seed}: replay digest changed - the sim core no "
        f"longer reproduces the pinned behaviour byte-for-byte")


@pytest.mark.parametrize("name", sorted(SEED7_DIGESTS))
def test_seed7_scenario_digest_matches_pinned(name):
    digest = structural_digest(run_scenario(name, 7))
    assert digest == SEED7_DIGESTS[name], (
        f"{name} seed 7: replay digest changed")
