"""CI perf-regression smoke: steady-state probes/sec vs a checked-in floor.

Runs the R-Pingmesh system on the small benchmark topology, measures the
steady-state simulation rate, emits one ``BENCH {json}`` line (also written
to ``--out`` when given), and exits non-zero when the rate falls more than
the configured tolerance below ``bench_floor.json``.

Two gates.  **Probes** per wall second — the work the simulator exists to
do — against ``probes_per_sec_floor * tolerance``.  And **events per
probe** on this quiet world against ``events_per_probe_ceiling``: an exact,
seed-deterministic count (tick + three deliveries + ⑥ = 5, DESIGN.md §10)
that no noisy runner can blur, so a change that quietly puts a per-packet
event back fails here even when the rate gate is lost in VM noise.  Events
per second is recorded but not gated: an optimization that needs fewer
events per probe lowers it while making the simulator faster.

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
from repro.sim.units import seconds

# Keep in sync with SIZES["small-12rnic"] in test_scalability.py.
SMALL = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=3)


def measure(floor_config: dict) -> dict:
    cluster = Cluster.clos(SMALL, seed=1)
    system = RPingmesh(cluster)
    system.start()
    cluster.sim.run_for(seconds(floor_config["warmup_simulated_s"]))

    events_before = cluster.sim.events_processed
    probes_before = sum(a.probes_sent for a in system.agents.values())
    wall_start = time.perf_counter()  # detlint: disable=DET001 benchmark timer
    cluster.sim.run_for(seconds(floor_config["measure_simulated_s"]))
    wall_s = time.perf_counter() - wall_start  # detlint: disable=DET001 benchmark timer

    events = cluster.sim.events_processed - events_before
    probes = sum(a.probes_sent for a in system.agents.values()) - probes_before
    floor = floor_config["probes_per_sec_floor"]
    tolerance = floor_config["tolerance"]
    ceiling = floor_config["events_per_probe_ceiling"]
    probes_per_sec = round(probes / wall_s) if wall_s else 0
    events_per_probe = round(events / probes, 3)
    return {
        "benchmark": "bench_smoke",
        "size": floor_config["size"],
        "rnics": cluster.size,
        "simulated_s": floor_config["measure_simulated_s"],
        "wall_s": round(wall_s, 3),
        "events": events,
        "probes": probes,
        "events_per_probe": events_per_probe,
        "events_per_probe_ceiling": ceiling,
        "events_per_sec": round(events / wall_s) if wall_s else 0,
        "probes_per_sec": probes_per_sec,
        "floor_probes_per_sec": floor,
        "fail_below": round(floor * tolerance),
        "passed": (probes_per_sec >= floor * tolerance
                   and events_per_probe <= ceiling),
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
    if record["events_per_probe"] > record["events_per_probe_ceiling"]:
        print(f"PERF REGRESSION: {record['events_per_probe']} events per "
              f"probe on a quiet world, ceiling "
              f"{record['events_per_probe_ceiling']} — a per-packet event "
              f"is back (DESIGN.md §10)", file=sys.stderr)
    if record["probes_per_sec"] < record["fail_below"]:
        print(f"PERF REGRESSION: {record['probes_per_sec']} probes/sec is "
              f"more than {round((1 - floor_config['tolerance']) * 100)}% "
              f"below the checked-in floor of {record['floor_probes_per_sec']}"
              f" (fail threshold {record['fail_below']})", file=sys.stderr)
    return 0 if record["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
