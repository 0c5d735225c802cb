"""Golden replay digests: the byte-identical contract of the sim core.

Each hash below is the structural digest of a run's *observable behaviour*
(clock, every uploaded probe result, RNG draw history, the fabric's drop log
and per-link counters, analyzer windows, control plane — DESIGN.md §7) after
a FROZEN scenario from ``repro.analysis.runtime`` runs to completion.  How
many simulator events a run takes is not part of it, so an optimization
may schedule fewer — as long as every probe still measures the same thing.

If one of these fails, an engine/fabric/pooling change altered event
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

from repro.analysis.runtime import GOLDEN_SCENARIOS, structural_digest

# (scenario, seed) -> sha256 structural digest.
GOLDEN_DIGESTS = {
    ("quiet", 3):
        "46fda223d874953d40211529e7e72800ba35a3fdeaf09ce4a97e4a6594ef7866",
    ("quiet", 7):
        "21f0421b70f4b77ce84762ee93eb2c926b5a3d012899107238bcbcce1f4eec64",
    ("quiet", 11):
        "a1c592c0a0f778fda68d4b143f6a121db87e7ca88048efc693d1e6b2d18d8039",
    ("faulted", 3):
        "ae9fc7af8d68b6899ded5a17c81d30655e020c5d9a781cfd1d9041d918207346",
    ("faulted", 7):
        "d1565a8411846c0a580f0f5658cf3a3372756cfe5b4be2dbf420c4c917b1e828",
    ("faulted", 11):
        "6e8eda3212b5cbe9b5d75c5afcbd2accbe8f9dbe137ce96c8ce1d69af6f7c01c",
    ("congested", 3):
        "398506819e38b9b3e966f49599052c4b429ee4b21ab59955f8058d10561601dd",
    ("congested", 7):
        "953787c7200dd76ca2b7f45ca2692c769982522e51efb472cbae42e5fbaadf61",
    ("congested", 11):
        "93acd99f1ac3c70675d9485135afac1e4efcdf45b79e7a80b10426bd87ab5f0c",
}


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
