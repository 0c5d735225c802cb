"""The repo's benchmark: six named workloads, end-to-end metrics, a per-layer bill.

Two ways in:

* ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of standard
  output, ``{"correct", "attempted", "failed", "metrics"}`` — every
  end-to-end metric of BENCHMARK.json with ``--trace 0`` (tracing off), every
  per-layer metric with ``--trace 1``.
* ``python3 bench/run.py [--seed 1] [--out FILE]`` runs the suite: each
  workload in a fresh subprocess, strictly one after another, timed pass
  then traced pass, prints every metric by name with unit, direction and
  bound, and exits non-zero if any output check failed.  ``--sets 2`` runs it
  twice and prints the agreement table; ``--only``/``--no-trace`` narrow it;
  ``--selftest`` is a <60 s cut-down run that also validates the output
  against BENCHMARK.json.

Results go to standard output and ``--out`` only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit("bench/run.py: no src/repro beside bench/ - nothing to measure")
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare                                          # noqa: E402
from repro.fleet.spec import ScenarioSpec               # noqa: E402
from repro.fleet.worker import run_scenario             # noqa: E402
from repro.sim.units import seconds                     # noqa: E402
from tracer import LAYERS, UNATTRIBUTED, SpanRecorder    # noqa: E402
from workloads import (CAMPAIGN, LARGE, LEVELS, WORKLOADS,    # noqa: E402
                       FaultedLarge, Workload)

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170

# Counters the workloads keep only to derive a declared ratio from.
_DERIVATION_ONLY = ("agent.results_uploaded", "agent.results_timed_out",
                    "controlplane.messages_delivered")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- measuring ----------------------------------------------------------------------


def run_steps(workload: Workload, seconds: float, min_steps: int,
              recorder: SpanRecorder | None = None
              ) -> tuple[list[float], list[int]]:
    """Step until ``seconds`` are used up, and at least ``min_steps`` times.

    A step that would overrun the budget is not started, so a run measures
    whole steps and ends close to ``seconds``.
    """
    walls: list[float] = []
    probes: list[int] = []
    deadline = time.perf_counter() + seconds
    while True:
        before = workload.probes()
        start = time.perf_counter()
        if recorder is None:
            workload.step()
        else:
            with recorder.span(UNATTRIBUTED):
                workload.step()
        end = time.perf_counter()
        walls.append(end - start)
        probes.append(workload.probes() - before)
        if len(walls) >= min_steps and end + walls[-1] > deadline:
            return walls, probes


def _spread(values: list[float], scale: float = 1.0) -> dict[str, float]:
    """Median over steps, with the quartiles and extremes as its spread."""
    low, _, high = (statistics.quantiles(values, n=4) if len(values) > 1
                    else values * 3)
    return {"value": statistics.median(values) * scale,
            "q1": low * scale, "q3": high * scale,
            "min": min(values) * scale, "max": max(values) * scale}


def measure(cls: type[Workload], seed: int, seconds: float,
            quick: bool) -> dict:
    """The timed pass (tracing off): the end-to-end metrics."""
    setups = []
    for _ in range(2 if quick else SETUP_REPEATS):
        workload = None     # one world alive at a time, for peak RSS
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, quick)
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.warm()
    gc.collect()
    walls, probes = run_steps(workload, seconds, workload.min_steps)
    # Read before the checks: serve-ops' checkpoint round-trips hold a second
    # session and its pickle, which is serve.checkpoint_rss_mb's business.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check = workload.check()
    return {
        "steps": len(walls),
        "measured_s": sum(walls),
        "check": check,
        "metrics": {
            "setup_s": _spread(setups),
            "wall_s_per_sim_s": _spread(walls, 1 / workload.unit_sim_s),
            "probes_per_s": _spread([p / w for p, w in zip(probes, walls)]),
            "peak_rss_mb": {"value": peak_rss_mb},
        },
    }


def _counted(before: dict, after: dict) -> dict[str, float]:
    """Counters over a span: totals as differences, LEVELS as read."""
    return {name: value if name in LEVELS else value - before.get(name, 0)
            for name, value in after.items()}


def _run_micro(seed: int, quick: bool) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "micro.py"),
         "--seed", str(seed), "--scale", "0.05" if quick else "1"],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def trace_layers(cls: type[Workload], seed: int, quick: bool) -> dict:
    """The traced pass and its untraced reference.

    The microbenchmarks do not depend on the workload, so only the one
    workload with ``runs_microbenchmarks`` set spawns them; the others
    report those metrics as 0, like any layer they never enter.

    Both worlds take the same fixed number of steps — exact counts need a
    fixed span — so ``--seconds`` bounds only the timed pass.
    """
    errors = []

    reference = cls(seed, quick)
    steps = reference.trace_steps
    reference.setup()
    reference.warm()
    gc.collect()
    before, probes_before = reference.counts(), reference.probes()
    reference_walls, _ = run_steps(reference, 0, steps)
    counts = _counted(before, reference.counts())
    probes = reference.probes() - probes_before
    metrics = dict(counts)
    metrics.update(reference.timed_layers())
    metrics.update(reference.detection())
    check = reference.check()
    del reference
    gc.collect()

    recorder = SpanRecorder()
    with recorder.installed():
        traced = cls(seed, quick)
        traced.setup()
        traced.warm()
        traced.sim.set_profiler(recorder)
        gc.collect()
        before = traced.counts()
        recorder.enabled = True
        traced_walls, _ = run_steps(traced, 0, steps, recorder)
        recorder.enabled = False
        traced.sim.set_profiler(None)
        traced_counts = _counted(before, traced.counts())
        del traced
    for name in ("sim.events", "agent.probes_sent"):
        if traced_counts.get(name) != counts.get(name):
            errors.append(f"traced pass counted {name}="
                          f"{traced_counts.get(name)}, untraced "
                          f"{counts.get(name)}")
    reference_s, traced_s = sum(reference_walls), sum(traced_walls)
    metrics.update(recorder.bill(probes, reference_s * 1e9))
    shares = sum(metrics[f"{layer}.share"] for layer in LAYERS) \
        + metrics["trace.unattributed_share"]
    if abs(shares - 1.0) > 0.02:
        errors.append(f"layer shares sum to {shares:.4f}, not 1")

    events = counts.get("sim.events", 0)
    if events:
        metrics["sim.events_per_s"] = events / reference_s
        metrics["sim.events_per_probe"] = events / probes if probes else 0.0
    uploaded = counts.get("agent.results_uploaded", 0)
    if uploaded:
        metrics["agent.probe_timeout_share"] = \
            counts["agent.results_timed_out"] / uploaded
    sent = counts.get("controlplane.messages_sent", 0)
    if sent:
        metrics["controlplane.delivered_share"] = \
            counts["controlplane.messages_delivered"] / sent
    if "analyzer.window_close_ms_p50" in metrics:
        metrics["analyzer.results_per_s"] = probes / reference_s
    for name in _DERIVATION_ONLY:
        metrics.pop(name, None)
    if cls.runs_microbenchmarks:
        gc.collect()
        metrics.update(_run_micro(seed, quick))

    check.errors.extend(errors)
    return {
        "steps": steps,
        "measured_s": reference_s + traced_s,
        "check": check,
        "metrics": {name: {"value": value}
                    for name, value in metrics.items()},
    }


# -- one workload, this process ---------------------------------------------------------


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(args, spec: dict) -> int:
    """Driver entry: one workload, one pass, the contract line last."""
    started = time.perf_counter()
    cls = WORKLOADS[args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = (trace_layers(cls, args.seed, args.quick) if args.trace
               else measure(cls, args.seed, args.seconds, args.quick))
    check = outcome["check"]
    produced = outcome["metrics"]

    undeclared = sorted(set(produced) - {m["name"] for m in declared})
    if undeclared:
        check.errors.append(f"metrics not in BENCHMARK.json: {undeclared}")
    metrics = {}
    for metric in declared:
        # A per-layer metric of a layer this workload never enters reads 0.
        entry = dict(produced.get(metric["name"], {"value": 0.0}))
        entry["unit"] = metric["unit"]
        metrics[metric["name"]] = entry

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"steps={outcome['steps']}  measured={outcome['measured_s']:.2f}s")
    for metric in declared:
        entry = metrics[metric["name"]]
        bound = (f", bound {metric['bound']:.0%}" if "bound" in metric
                 else "")
        spread = (f"  [{entry['min']:.6g} .. {entry['max']:.6g}]"
                  if "min" in entry else "")
        print(f"  {metric['name']:<40} {entry['value']:>14.6g} "
              f"{metric['unit']:<8} ({metric['better']} is better{bound})"
              f"{spread}")
    print(f"  ops attempted={check.attempted} failed={check.failed}")
    for error in check.errors:
        print(f"  CHECK FAILED: {error}")

    correct = not check.errors
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "quick": args.quick,
        "steps": outcome["steps"], "measured_s": outcome["measured_s"],
        "wall_s": time.perf_counter() - started,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _git_commit(),
        "correct": correct, "attempted": check.attempted,
        "failed": check.failed, "errors": check.errors, "metrics": metrics,
    }
    print("RECORD " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in metrics.items()}}))
    return 0        # the result line carries `correct`; the suite acts on it


# -- the suite: every workload, each in its own subprocess ------------------------------------


def _spawn(workload: str, trace_on: int, args) -> dict | None:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(0 if args.selftest else args.seconds),
               "--trace", str(trace_on)]
    if args.selftest:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    record = None
    for line in done.stdout.splitlines()[:-1]:     # last: the contract line
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    if record is None:
        print(f"{workload} trace={trace_on}: exited {done.returncode} "
              f"without a record\n{done.stderr}", file=sys.stderr)
    return record


def run_suite(args, spec: dict) -> int:
    names = [args.only] if args.only else [w["name"] for w in spec["workloads"]]
    passes = (0,) if args.no_trace else (0, 1)
    records = []
    ok = True
    for index in range(args.sets):
        for name in names:
            for trace_on in passes:
                record = _spawn(name, trace_on, args)
                if record is None:
                    ok = False
                    continue
                record["set"] = index
                records.append(record)
                ok = ok and record["correct"]
    if args.selftest:
        problems = validate(records, spec, names, passes)
        problems += worker_equivalence_problems(args.seed)
        for problem in problems:
            print(f"SELFTEST FAILED: {problem}")
        ok = ok and not problems
    if args.sets > 1:
        first = [r for r in records if r["set"] == 0]
        rest = [r for r in records if r["set"] != 0]
        print("\nagreement between set 0 and the later sets")
        ok = compare.report(first, rest, spec) == 0 and ok
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"benchmark": "bench/run.py", "seed": args.seed,
                       "records": records}, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print("\nall checks passed" if ok else "\nFAILED")
    return 0 if ok else 1


def validate(records: list[dict], spec: dict, names: list[str],
             passes: tuple[int, ...]) -> list[str]:
    """Selftest: BENCHMARK.json's own limits, and a usable record per pass.

    ``run_workload`` already emits exactly the declared names (and fails
    ``correct`` on an undeclared one), so what is left to check is that each
    pass produced a record and no end-to-end metric reads 0.
    """
    problems = compare.spec_problems(spec)
    for name in names:
        for trace_on in passes:
            record = next((r for r in records if r["workload"] == name
                           and r["trace"] == trace_on), None)
            if record is None:
                problems.append(f"{name} trace={trace_on}: no record")
            elif not trace_on:
                problems += [f"{name}: end-to-end {metric} is 0"
                             for metric, entry in record["metrics"].items()
                             if not entry["value"]]
    return problems


def worker_equivalence_problems(seed: int, duration_s: int = 21) -> list[str]:
    """Selftest: faulted-large as built here vs the fleet worker's run.

    The harness mirrors ``run_scenario``'s build order, so both must report
    the same ``events_processed`` and problem counts for the same spec.
    """
    world = FaultedLarge(seed)
    world.setup()
    world.sim.run_until(seconds(duration_s))
    mine = {category.value: count for category, count
            in world.system.analyzer.category_counts.items()}
    theirs = run_scenario(
        ScenarioSpec(name="faulted-large", topology=LARGE,
                     duration_s=duration_s, campaign=CAMPAIGN, metrics=False),
        seed)
    problems = []
    if world.sim.events_processed != theirs.events_processed:
        problems.append(
            f"harness world processed {world.sim.events_processed} events, "
            f"run_scenario {theirs.events_processed}")
    if mine != theirs.problem_counts:
        problems.append(f"harness problem counts {mine}, run_scenario "
                        f"{theirs.problem_counts}")
    return problems


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description="R-Pingmesh reproduction benchmark (see bench/README.md)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process and print the "
                             "result object as the last line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="how long the timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="selftest sizing (with --workload)")
    parser.add_argument("--out", help="write the suite's records here")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the suite this many times back to back and "
                             "print the agreement table")
    parser.add_argument("--only", choices=sorted(WORKLOADS),
                        help="restrict the suite to one workload")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced passes and microbenchmarks")
    parser.add_argument("--selftest", action="store_true",
                        help="cut-down suite (<60 s) validated against "
                             "BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
