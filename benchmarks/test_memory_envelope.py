"""Analyzer memory envelope: sharded+sketch vs unsharded+exact.

The scale-out claim of DESIGN.md §11, measured: on a 4-pod fabric with a
mid-run pod fault, the sharded deployment (per-pod AnalyzerShards with
``shard_window_retention=1``, sketch-backed SLAs) must hold its peak
modelled Analyzer memory at least ``MIN_RATIO``x below the unsharded
deployment's — while reaching the same verdict about the faulted link.

The unsharded Analyzer's exact percentile retention grows linearly with
analysed windows (~0.23 MB/window at this probe volume, 8 bytes a
sample); the sharded tier's growth is one set of fixed-size sketch
states per fused window.  Twelve windows are enough for the envelope to
separate decisively.

Both peaks are modelled bytes, deterministic per seed.  The Analyzer
folds uploads on arrival instead of holding a window of raw results,
exact stores cost 8 bytes a sample instead of 32, and an open window's
timeouts are kept per flow (a representative plus 16 bytes a member)
instead of one raw result each.  The peaks are 2.86 MB unsharded and
0.29 MB sharded: a ratio of 10.01x (7.87x, 2.98 MB vs 0.38 MB, while
timeouts were kept one result each; 6.05x, 12.1 MB vs 2.0 MB, when both
held their raw results).  ``MIN_RATIO`` sits at 6x, under the measured
ratio by a margin for estimate changes that move both sides.  The
sharded ceiling sits at 1 MB, under the 2.86 MB an exact sample-shaped
store reaches here, so sample-shaped growth on the sharded tier fails
it.

Emits one ``BENCH {json}`` line (peaks, ratio, process RSS) for trend
tracking; the bench-smoke CI job runs this file.
"""

import json
import resource

from conftest import print_comparison, run_once

from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.records import ProblemCategory
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.net.faults import LinkCorruption
from repro.sim.units import seconds

POD4 = ClosParams(pods=4, tors_per_pod=2, aggs_per_pod=2, spines=2,
                  hosts_per_tor=3)
FAULTED_LINK = ("pod1-tor0", "pod1-agg0")
DURATION_S = 250            # 12 analysis windows
MIN_RATIO = 6.0
# Hard ceiling on the sharded tier's modelled bytes: growth must stay
# sketch-shaped (fixed per window), not sample-shaped.
SHARDED_ENVELOPE_BYTES = 1_000_000
# Whole-process RSS sanity bound (both deployments, all 48 RNICs, MB).
RSS_ENVELOPE_MB = 1500


def _run_deployment(*, shards: int) -> dict:
    cluster = Cluster.clos(POD4, seed=3)
    config = RPingmeshConfig(shards=shards, sla_sketch=(shards > 1),
                             shard_window_retention=1)
    system = RPingmesh(cluster, config)
    system.start()
    cluster.sim.run_for(seconds(10))
    LinkCorruption(cluster, *FAULTED_LINK, drop_prob=0.5).inject()
    peak = 0
    remaining = DURATION_S - 10
    while remaining > 0:
        cluster.sim.run_for(seconds(min(20, remaining)))
        remaining -= 20
        peak = max(peak, system.analyzer.memory_bytes())
    suspects = {p.locus for p in system.analyzer.problems
                if p.category == ProblemCategory.SWITCH_NETWORK_PROBLEM}
    return {
        "peak_bytes": peak,
        "windows": len(system.analyzer.windows),
        "suspects": suspects,
        "probes_total": sum(r.cluster.probes_total
                            for r in system.analyzer.sla.reports),
    }


def _implicates_fault(suspects: set) -> bool:
    guilty = frozenset(FAULTED_LINK)
    return any(frozenset(s.split("->")) == guilty for s in suspects)


def test_sharded_memory_envelope(benchmark):
    def both():
        return (_run_deployment(shards=1), _run_deployment(shards=4))

    unsharded, sharded = run_once(benchmark, both)

    # Equal detection: both deployments localise the injected fault.
    assert _implicates_fault(unsharded["suspects"]), unsharded["suspects"]
    assert _implicates_fault(sharded["suspects"]), sharded["suspects"]
    assert unsharded["windows"] == sharded["windows"] >= 12

    ratio = unsharded["peak_bytes"] / sharded["peak_bytes"]
    rss_mb = round(resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024)
    print("BENCH " + json.dumps({
        "benchmark": "memory_envelope",
        "rnics": POD4.total_rnics,
        "simulated_s": DURATION_S,
        "windows": sharded["windows"],
        "peak_unsharded_bytes": unsharded["peak_bytes"],
        "peak_sharded_bytes": sharded["peak_bytes"],
        "ratio": round(ratio, 2),
        "min_ratio": MIN_RATIO,
        "sharded_envelope_bytes": SHARDED_ENVELOPE_BYTES,
        "process_rss_mb": rss_mb,
        "passed": ratio >= MIN_RATIO,
    }, sort_keys=True))
    print_comparison("Analyzer memory envelope (12 windows)", [
        ("peak unsharded+exact", ">= linear",
         f"{unsharded['peak_bytes'] / 1e6:.2f} MB"),
        ("peak sharded+sketch", "bounded",
         f"{sharded['peak_bytes'] / 1e6:.2f} MB"),
        ("ratio", f">= {MIN_RATIO}x", f"{ratio:.2f}x"),
    ])

    assert ratio >= MIN_RATIO
    assert sharded["peak_bytes"] <= SHARDED_ENVELOPE_BYTES
    assert rss_mb <= RSS_ENVELOPE_MB
