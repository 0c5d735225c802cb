#!/usr/bin/env python3
"""Scale-out deployment: per-pod shards reaching a cluster-wide verdict.

DESIGN.md §11 in action on a 4-pod Clos fabric:

1. the system deploys with one ControllerShard/AnalyzerShard pair per pod
   under a thin RootController/RootAnalyzer;
2. a corrupting cable inside pod1 starts dropping probes;
3. each AnalyzerShard classifies its own pod's evidence and ships a
   mergeable summary (vote tallies, sketch states — never raw results)
   to the RootAnalyzer;
4. the RootAnalyzer fuses the tallies, localises the faulted link
   cluster-wide, and its verdict matches what a single unsharded
   Analyzer concludes from the same fault — at a fraction of the memory.

Run:  python examples/sharded_cluster.py
"""

from repro import Cluster, RPingmesh
from repro.core.config import RPingmeshConfig
from repro.core.dashboard import render_control_plane
from repro.core.records import ProblemCategory
from repro.net.clos import ClosParams
from repro.net.faults import LinkCorruption
from repro.sim import units

TOPOLOGY = ClosParams(pods=4, tors_per_pod=2, aggs_per_pod=2, spines=2,
                      hosts_per_tor=2)
FAULTED = ("pod1-tor0", "pod1-agg0")


def deploy(shards: int) -> RPingmesh:
    cluster = Cluster.clos(TOPOLOGY, seed=11)
    config = RPingmeshConfig(shards=shards, sla_sketch=(shards > 1))
    system = RPingmesh(cluster, config)
    system.start()
    cluster.sim.run_for(units.seconds(10))
    LinkCorruption(cluster, *FAULTED, drop_prob=0.5).inject()
    cluster.sim.run_for(units.seconds(50))
    return system


def switch_suspects(system: RPingmesh) -> set[str]:
    return {p.locus for p in system.analyzer.problems
            if p.category == ProblemCategory.SWITCH_NETWORK_PROBLEM}


def names_faulted_link(suspects: set[str]) -> bool:
    guilty = frozenset(FAULTED)
    return any(frozenset(s.split("->")) == guilty for s in suspects)


def main() -> None:
    print(f"deploying sharded: 4 pods, one shard pair per pod "
          f"({TOPOLOGY.total_rnics} RNICs)")
    sharded = deploy(shards=4)

    pod_map = sharded.pod_map
    for i, tors in enumerate(pod_map.shard_tors):
        print(f"  shard{i}: owns {', '.join(tors)}")

    print(f"\nfault injected at 10s: corruption on "
          f"{FAULTED[0]} <-> {FAULTED[1]}")

    root = sharded.analyzer
    print(f"\nRootAnalyzer fused {len(root.windows)} windows from "
          f"{len(root.shards)} shards")
    for shard in root.shards:
        summary_note = (f"windows retained={len(shard.windows)} "
                        f"(trimmed to {sharded.config.shard_window_retention})")
        print(f"  shard{shard.shard_index}: "
              f"ingested {shard.ingest_accepted} batches, {summary_note}")

    report = root.sla.latest()
    p50 = report.cluster.rtt_percentiles()["p50"]
    print(f"\nfused cluster SLA (sketch-merged): "
          f"probes={report.cluster.probes_total} "
          f"p50 RTT={p50 / 1000:.1f}us")

    suspects = switch_suspects(sharded)
    print(f"sharded verdict: {sorted(suspects)}")
    assert names_faulted_link(suspects), "sharded verdict missed the fault"

    print("\nrunning the same fault unsharded for comparison...")
    unsharded = deploy(shards=1)
    baseline = switch_suspects(unsharded)
    print(f"unsharded verdict: {sorted(baseline)}")
    assert names_faulted_link(baseline), "unsharded verdict missed the fault"

    print("\nboth deployments implicate the faulted cable.")
    sharded_mb = root.memory_bytes() / 1e6
    unsharded_mb = unsharded.analyzer.memory_bytes() / 1e6
    print(f"analyzer memory: sharded={sharded_mb:.2f} MB "
          f"vs unsharded={unsharded_mb:.2f} MB")

    print("\ncontrol-plane view (note the per-shard ingest lines):")
    print(render_control_plane(sharded))


if __name__ == "__main__":
    main()
