"""Serve-mode overhead: ticked session + scrapes vs one flat run_for.

Not a paper artifact — this pins the cost of the ISSUE-9 service mode.
A serve tick adds per-second work on top of the raw simulation: a
metrics snapshot, alert-rule evaluation, and a history sample.  The
acceptance bound is a <= 1.2x slowdown with tracing off, and the two
drive styles must end in the identical replay digest (tick boundaries
are not allowed to perturb the sim).  Emits one ``BENCH {json}`` line.
"""

import json
import time

from conftest import run_once

from repro.analysis.runtime import structural_digest, system_state
from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.obs import Observability
from repro.serve import ServeSession, ServeSpec
from repro.sim.units import seconds

SEED = 2
WARMUP_S = 5
MEASURED_S = 30
SPEC = ServeSpec(seed=SEED, pods=2, tors_per_pod=2, aggs_per_pod=2,
                 spines=2, hosts_per_tor=3)


def _drive_batch():
    """The baseline: same world, same metrics layer, one flat run_for."""
    cluster = Cluster.clos(
        ClosParams(pods=SPEC.pods, tors_per_pod=SPEC.tors_per_pod,
                   aggs_per_pod=SPEC.aggs_per_pod, spines=SPEC.spines,
                   hosts_per_tor=SPEC.hosts_per_tor),
        seed=SEED)
    # Identical world to the ServeSession build: same control-plane
    # knobs, so both drive styles replay the same behaviour.
    config = RPingmeshConfig(
        control_latency_ns=SPEC.control_latency_ns,
        control_jitter_ns=SPEC.control_jitter_ns,
        control_loss_prob=SPEC.control_loss_prob,
        shards=SPEC.shards, sla_sketch=False)
    system = RPingmesh(cluster, config, obs=Observability(metrics=True))
    system.start()
    cluster.sim.run_for(seconds(WARMUP_S))
    before = cluster.sim.events_processed
    start = time.perf_counter()  # detlint: disable=DET001 benchmark output: wall time is the measurement, never sim input
    cluster.sim.run_for(seconds(MEASURED_S))
    wall_s = time.perf_counter() - start  # detlint: disable=DET001 benchmark output: wall time is the measurement, never sim input
    return {"events": cluster.sim.events_processed - before,
            "wall_s": wall_s,
            "digest": structural_digest(system_state(system))}


def _drive_serve():
    """Unpaced serve ticks: snapshot + alerts + history every sim-second,
    plus one /metrics-equivalent render per tick (a scraper at 1 Hz)."""
    session = ServeSession(SPEC)
    for _ in range(WARMUP_S):
        session.tick()
    before = session.cluster.sim.events_processed
    start = time.perf_counter()  # detlint: disable=DET001 benchmark output: wall time is the measurement, never sim input
    for _ in range(MEASURED_S):
        session.tick()
        session.render_metrics()
    wall_s = time.perf_counter() - start  # detlint: disable=DET001 benchmark output: wall time is the measurement, never sim input
    return {"events": session.cluster.sim.events_processed - before,
            "wall_s": wall_s, "digest": session.replay_digest()}


def test_serve_tick_overhead(benchmark):
    batch = _drive_batch()
    serve = run_once(benchmark, _drive_serve)
    # Tick boundaries must not change what the simulator does.
    assert serve["digest"] == batch["digest"]
    slowdown = (serve["wall_s"] / batch["wall_s"]
                if batch["wall_s"] else float("inf"))
    print("BENCH " + json.dumps({
        "benchmark": "serve_overhead",
        "events": batch["events"],
        "wall_s_batch": round(batch["wall_s"], 3),
        "wall_s_serve": round(serve["wall_s"], 3),
        "slowdown_x": round(slowdown, 3),
    }, sort_keys=True))
    # The ISSUE-9 acceptance bound: serve mode (tracing off) costs at
    # most 20% over the flat batch drive of the same world.
    assert slowdown <= 1.2
