"""Built-in sweeps: the CLI's named entry points into the fleet.

Presets are ordinary :class:`~repro.fleet.spec.SweepSpec` builders — a
user wanting a custom parameter study writes the same dataclasses by
hand (see ``examples/seed_sweep.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.fleet.spec import FaultEvent, ScenarioSpec, SweepSpec
from repro.net.clos import ClosParams

# The two fabric shapes src/ runs on, named here and nowhere else.  TINY
# (4 RNICs, one pod): reference scenarios, serve default, most bake-off
# cases.  SMALL (12 RNICs, two pods, 1:1): the CLI and the figure drivers.
TINY = ClosParams(pods=1, tors_per_pod=2, aggs_per_pod=2, spines=1,
                  hosts_per_tor=2)
SMALL = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=3)


def smoke_sweep(seeds: Sequence[int] = (0, 1), *,
                replicates: int = 1) -> SweepSpec:
    """CI-sized: two tiny scenarios, ~40 simulated seconds each.

    One fault campaign per scenario — an RNIC going down and a corrupting
    cable — so detection recall, localisation, and time-to-detect are all
    exercised without the sweep taking more than a few wall seconds per
    job.
    """
    rnic_down = ScenarioSpec(
        name="smoke-rnic-down",
        topology=TINY,
        duration_s=40,
        campaign=(
            FaultEvent.make("rnic_down", "host0-rnic0",
                            start_s=8.0, end_s=30.0),
        ))
    corrupt = ScenarioSpec(
        name="smoke-link-corruption",
        topology=TINY,
        duration_s=40,
        campaign=(
            FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                            start_s=8.0, end_s=30.0, drop_prob=0.5),
        ))
    return SweepSpec(scenarios=(rnic_down, corrupt), seeds=tuple(seeds),
                     replicates=replicates)


def accuracy_sweep(seeds: Sequence[int] = (0, 1, 2), *,
                   episode_s: float = 45.0,
                   replicates: int = 1) -> SweepSpec:
    """Figure 6-flavoured: mixed fault episodes scored across seeds.

    One scenario whose campaign runs a switch episode, an RNIC episode,
    and a CPU-overload false-positive bait back to back on the downscaled
    evaluation fabric; sweeping it over seeds yields the cross-seed
    accuracy bands ``examples/seed_sweep.py`` plots.
    """
    gap = 25.0
    t0 = 30.0
    t1 = t0 + episode_s + gap
    t2 = t1 + episode_s + gap
    scenario = ScenarioSpec(
        name="fig06-episodes",
        topology=SMALL,
        duration_s=int(t2 + episode_s + gap),
        campaign=(
            FaultEvent.make("link_corruption", "pod0-tor0", "pod0-agg0",
                            start_s=t0, end_s=t0 + episode_s,
                            drop_prob=0.5),
            FaultEvent.make("rnic_flapping", "host1-rnic0",
                            start_s=t1, end_s=t1 + episode_s),
            FaultEvent.make("cpu_overload", "host4",
                            start_s=t2, end_s=t2 + episode_s, load=0.97),
        ))
    return SweepSpec(scenarios=(scenario,), seeds=tuple(seeds),
                     replicates=replicates)


def sharded_sweep(seeds: Sequence[int] = (0, 1), *,
                  replicates: int = 1) -> SweepSpec:
    """Scale-out path (DESIGN.md §11): per-pod shards + SLA sketches.

    The same link-corruption campaign runs unsharded/exact and with one
    Analyzer/Controller shard pair per pod over sketch-backed SLAs, so a
    merged scorecard puts the two deployments' detection and SLA numbers
    side by side.
    """
    topology = ClosParams(pods=4, tors_per_pod=2, aggs_per_pod=2,
                          spines=2, hosts_per_tor=2)
    campaign = (
        FaultEvent.make("link_corruption", "pod1-tor0", "pod1-agg0",
                        start_s=10.0, end_s=45.0, drop_prob=0.5),
    )
    unsharded = ScenarioSpec(
        name="podfault-unsharded",
        topology=topology, duration_s=60, campaign=campaign)
    sharded = ScenarioSpec(
        name="podfault-sharded",
        topology=topology, duration_s=60, campaign=campaign,
        shards=4, sla_sketch=True)
    return SweepSpec(scenarios=(unsharded, sharded), seeds=tuple(seeds),
                     replicates=replicates)


PRESETS = {
    "smoke": smoke_sweep,
    "accuracy": accuracy_sweep,
    "sharded": sharded_sweep,
}
