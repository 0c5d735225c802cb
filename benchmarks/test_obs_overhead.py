"""Observability overhead: wall time with the tracer on vs off.

Not a paper artifact — this measures the reproduction itself.  The
tracing + metrics hooks sit on the substrate's hottest paths (every
fabric hop, every CQE), so this benchmark pins two things: the simulated
behaviour is bit-identical either way (same replay digest from the same
seed — *not* the same event count: with a tracer installed the fabric
evaluates every hop by its own event so ``fabric.hop`` spans carry true
arrival times), and the wall-clock cost of full tracing stays a small
multiple.  Emits one ``BENCH {json}`` line for trend tracking.
"""

import json
import time

from conftest import run_once

from repro.analysis.runtime import structural_digest, system_state
from repro.cluster import Cluster
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.obs import Observability
from repro.sim.units import seconds

PARAMS = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                    hosts_per_tor=3)
WARMUP_S = 5
MEASURED_S = 15


def _drive(obs):
    cluster = Cluster.clos(PARAMS, seed=2)
    system = RPingmesh(cluster, obs=obs)
    system.start()
    cluster.sim.run_for(seconds(WARMUP_S))
    before = cluster.sim.events_processed
    start = time.perf_counter()  # detlint: disable=DET001 benchmark output: events per wall-second, never fed into sim state
    cluster.sim.run_for(seconds(MEASURED_S))
    wall_s = time.perf_counter() - start  # detlint: disable=DET001 benchmark output: events per wall-second, never fed into sim state
    events = cluster.sim.events_processed - before
    return {"events": events, "wall_s": wall_s,
            "digest": structural_digest(system_state(system))}


def test_tracer_overhead(benchmark):
    off = _drive(None)
    on = run_once(benchmark, _drive,
                  Observability(tracing=True, metrics=True))
    # The layer observes; it must not change what the simulator does.
    assert on["digest"] == off["digest"]
    overhead = on["wall_s"] / off["wall_s"] if off["wall_s"] else float("inf")
    print("BENCH " + json.dumps({
        "benchmark": "obs_overhead",
        "events_off": off["events"],
        "events_on": on["events"],
        "wall_s_off": round(off["wall_s"], 3),
        "wall_s_on": round(on["wall_s"], 3),
        "slowdown_x": round(overhead, 3),
    }, sort_keys=True))
    # Generous bound: full tracing may cost real time, but an order of
    # magnitude would mean a hook escaped its enabled-guard.
    assert overhead < 10.0
