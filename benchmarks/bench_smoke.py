"""CI perf-regression smoke: steady-state probes/sec vs a checked-in floor.

Runs the R-Pingmesh system on the small benchmark topology, measures the
steady-state simulation rate, emits one ``BENCH {json}`` line (also written
to ``--out`` when given), and exits non-zero when the rate falls more than
the configured tolerance below ``bench_floor.json``.

Two gates.  **Probes** per wall second — the work the simulator exists to
do — against ``probes_per_sec_floor * tolerance``.  And **events per
probe** against ``events_per_probe_ceiling``, on this world quiet *and
loaded* (the same world once an 8-RNIC All2All job has put standing queues
on the links its Service Tracing probes cross): an exact,
seed-deterministic count (tick + three deliveries + ⑥ = 5, DESIGN.md §10)
that no noisy runner can blur, so a change that quietly puts a per-packet
— or per-loaded-hop — event back fails here even when the rate gate is
lost in VM noise.  Events per second is recorded but not gated: an
optimization that needs fewer events per probe lowers it while making the
simulator faster.

Exit codes: 0 pass, 2 perf regression (rate < floor * tolerance, or
events per probe above the ceiling).

Usage::

    PYTHONPATH=src python benchmarks/bench_smoke.py [--out bench_smoke.json]

Wall-clock reads here are the *product*, not simulation input — the rate
never feeds back into sim state (the golden-digest suite pins that), so
the determinism lint's wall-clock rule is suppressed file-wide.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cluster import Cluster
from repro.core.system import RPingmesh
from repro.net.clos import ClosParams
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, seconds

# Keep in sync with SIZES["small-12rnic"] in test_scalability.py.
SMALL = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=3)
# Job cycles run before the loaded span is counted.
LOADED_WARMUP_SIMULATED_S = 5


def _span(cluster: Cluster, system: RPingmesh,
          simulated_s: float) -> tuple[int, int, float]:
    """(events, probes, wall seconds) of the next ``simulated_s``."""
    events_before = cluster.sim.events_processed
    probes_before = sum(a.probes_sent for a in system.agents.values())
    wall_start = time.perf_counter()  # detlint: disable=DET001 benchmark timer
    cluster.sim.run_for(seconds(simulated_s))
    wall_s = time.perf_counter() - wall_start  # detlint: disable=DET001 benchmark timer
    return (cluster.sim.events_processed - events_before,
            sum(a.probes_sent for a in system.agents.values()) - probes_before,
            wall_s)


def measure(floor_config: dict) -> dict:
    cluster = Cluster.clos(SMALL, seed=1)
    system = RPingmesh(cluster)
    system.start()
    cluster.sim.run_for(seconds(floor_config["warmup_simulated_s"]))
    events, probes, wall_s = _span(cluster, system,
                                   floor_config["measure_simulated_s"])

    # The same world, loaded: counted, not timed.
    job = DmlJob(cluster, cluster.rnic_names()[:8],
                 DmlConfig(pattern=CommPattern.ALL2ALL,
                           compute_time_ns=400 * MILLISECOND,
                           data_gbits_per_cycle=6.0))
    system.attach_service_monitor(job)
    job.start()
    cluster.sim.run_for(seconds(LOADED_WARMUP_SIMULATED_S))
    loaded_events, loaded_probes, _ = _span(
        cluster, system, floor_config["measure_simulated_s"])

    floor = floor_config["probes_per_sec_floor"]
    tolerance = floor_config["tolerance"]
    ceiling = floor_config["events_per_probe_ceiling"]
    probes_per_sec = round(probes / wall_s) if wall_s else 0
    events_per_probe = round(events / probes, 3)
    loaded_events_per_probe = round(loaded_events / loaded_probes, 3)
    return {
        "benchmark": "bench_smoke",
        "size": floor_config["size"],
        "rnics": cluster.size,
        "simulated_s": floor_config["measure_simulated_s"],
        "wall_s": round(wall_s, 3),
        "events": events,
        "probes": probes,
        "events_per_probe": events_per_probe,
        "loaded_events_per_probe": loaded_events_per_probe,
        "events_per_probe_ceiling": ceiling,
        "events_per_sec": round(events / wall_s) if wall_s else 0,
        "probes_per_sec": probes_per_sec,
        "floor_probes_per_sec": floor,
        "fail_below": round(floor * tolerance),
        "passed": (probes_per_sec >= floor * tolerance
                   and events_per_probe <= ceiling
                   and loaded_events_per_probe <= ceiling),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="also write the BENCH record to this file")
    parser.add_argument("--floor", default=None,
                        help="override path to bench_floor.json")
    args = parser.parse_args(argv)

    floor_path = Path(args.floor) if args.floor else (
        Path(__file__).resolve().parent / "bench_floor.json")
    floor_config = json.loads(floor_path.read_text())

    record = measure(floor_config)
    print("BENCH " + json.dumps(record, sort_keys=True))
    if args.out:
        Path(args.out).write_text(
            json.dumps(record, sort_keys=True, indent=2) + "\n")
    for key, world in (("events_per_probe", "quiet"),
                       ("loaded_events_per_probe", "loaded")):
        if record[key] > record["events_per_probe_ceiling"]:
            print(f"PERF REGRESSION: {record[key]} events per probe on a "
                  f"{world} world, ceiling "
                  f"{record['events_per_probe_ceiling']} — a per-packet "
                  f"event is back (DESIGN.md §10)", file=sys.stderr)
    if record["probes_per_sec"] < record["fail_below"]:
        print(f"PERF REGRESSION: {record['probes_per_sec']} probes/sec is "
              f"more than {round((1 - floor_config['tolerance']) * 100)}% "
              f"below the checked-in floor of {record['floor_probes_per_sec']}"
              f" (fail threshold {record['fail_below']})", file=sys.stderr)
    return 0 if record["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
