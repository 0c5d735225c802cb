"""Compare two benchmark result files: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, each side's
spread, the change, and the bound from BENCHMARK.json.  A row reads
``regressed`` only when B is worse than A by more than the bound; when either
side's spread exceeds the bound the row reads ``unresolved`` — never
``unchanged`` — unless every run of B lies on one side of every run of A.
Per-layer metrics that are exact (pure functions of seed and code: counts,
byte totals, ratios of counts, simulated seconds) are diffed separately: one
that moved is printed, because it says simulated behaviour changed, but does
not fail the comparison.  Exit 1 on any regression or any rise in
failed/attempted.

A file is what ``bench/run.py --out`` writes: ``{"records": [...]}``, one
record per (set, workload, pass).  Spread is the distance between the first
and third quartile as a share of the median: over the records when a side has
several (its value is then their median), over the steps inside the run when
it has one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

# Units whose metrics repeat bit for bit for one seed and one code version.
EXACT_UNITS = frozenset({"count", "bytes", "ratio", "sim_s"})

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def spec_problems(spec: dict) -> list[str]:
    """BENCHMARK.json against the limits its consumers enforce."""
    problems = []
    if not 2 <= len(spec["workloads"]) <= 8:
        problems.append("want 2-8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        problems.append("want 1-16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("want 1-128 per-layer metrics")
    names = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        keys = {"name", "unit", "better"} | (
            {"bound"} if kind == "end_to_end" else set())
        for metric in spec[kind]:
            names.append(metric["name"])
            if set(metric) != keys:
                problems.append(f"{metric['name']}: keys {sorted(metric)}")
            if not UNIT.match(metric.get("unit", "")):
                problems.append(f"{metric['name']}: bad unit")
            if metric.get("better") not in ("higher", "lower"):
                problems.append(f"{metric['name']}: bad direction")
            if kind == "end_to_end" and not 0 <= metric.get("bound", -1) <= 0.25:
                problems.append(f"{metric['name']}: bound outside [0, 0.25]")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        problems.append("no setup_s end-to-end metric in s, lower is better")
    return problems


class Side:
    """One metric on one side: its values, relative spread and full range."""

    def __init__(self, entries: list[dict]):
        self.values = [e["value"] for e in entries]
        self.median = statistics.median(self.values)
        if len(entries) > 1:
            low, _, high = statistics.quantiles(self.values, n=4)
            self.low, self.high = min(self.values), max(self.values)
        else:
            # One run: fall back on the spread over the steps inside it.
            low = entries[0].get("q1", self.median)
            high = entries[0].get("q3", self.median)
            self.low = entries[0].get("min", self.median)
            self.high = entries[0].get("max", self.median)
        self.spread = ((high - low) / abs(self.median) if self.median
                       else 0.0)


def _side(records: list[dict], workload: str, trace: int,
          name: str) -> Side | None:
    entries = [r["metrics"][name] for r in records
               if r["workload"] == workload and r["trace"] == trace
               and name in r["metrics"]]
    return Side(entries) if entries else None


def _verdict(a: Side, b: Side, bound: float,
             lower_is_better: bool) -> tuple[str, float]:
    worse_by = (b.median - a.median) / abs(a.median) if a.median else 0.0
    if lower_is_better:
        apart_worse, apart_better = b.low > a.high, b.high < a.low
    else:
        worse_by = -worse_by
        apart_worse, apart_better = b.high < a.low, b.low > a.high
    noisy = max(a.spread, b.spread) > bound
    if worse_by > bound:
        verdict = "unresolved" if noisy and not apart_worse else "regressed"
    elif worse_by < -bound:
        verdict = "unresolved" if noisy and not apart_better else "better"
    else:
        verdict = "unresolved" if noisy else "within bound"
    return verdict, worse_by


def report(a: list[dict], b: list[dict], spec: dict) -> int:
    """Print the comparison; 0 when B holds every bound against A."""
    failed = False
    print(f"{'workload':<18} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'spread A':>9} {'spread B':>9} {'worse by':>9} {'bound':>6}  "
          f"verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            side_a = _side(a, workload, 0, metric["name"])
            side_b = _side(b, workload, 0, metric["name"])
            if side_a is None or side_b is None:
                continue
            verdict, worse_by = _verdict(
                side_a, side_b, metric["bound"], metric["better"] == "lower")
            failed = failed or verdict == "regressed"
            print(f"{workload:<18} {metric['name']:<18} "
                  f"{side_a.median:>12.6g} {side_b.median:>12.6g} "
                  f"{side_a.spread:>9.1%} {side_b.spread:>9.1%} "
                  f"{worse_by:>+9.1%} {metric['bound']:>6.0%}  {verdict}")

    moved = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["per_layer"]:
            if metric["unit"] not in EXACT_UNITS:
                continue
            side_a = _side(a, workload, 1, metric["name"])
            side_b = _side(b, workload, 1, metric["name"])
            if side_a is None or side_b is None:
                continue
            if set(side_a.values) != set(side_b.values):
                moved.append((workload, metric["name"], sorted(set(
                    side_a.values)), sorted(set(side_b.values))))
    print(f"\nexact per-layer metrics that moved: {len(moved)}")
    for workload, name, was, now in moved:
        print(f"  {workload:<18} {name:<36} {was} -> {now}")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            rate_a = _failure_rate(a, workload, trace)
            rate_b = _failure_rate(b, workload, trace)
            if rate_a is not None and rate_b is not None and rate_b > rate_a:
                print(f"  {workload} trace={trace}: failed/attempted rose "
                      f"{rate_a:.3g} -> {rate_b:.3g}")
                failed = True
    return 1 if failed else 0


def _failure_rate(records: list[dict], workload: str,
                  trace: int) -> float | None:
    rows = [r for r in records
            if r["workload"] == workload and r["trace"] == trace]
    attempted = sum(r["attempted"] for r in rows)
    return sum(r["failed"] for r in rows) / attempted if attempted else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sides = []
    for path in (args.a, args.b):
        with open(path) as handle:
            sides.append(json.load(handle)["records"])
    return report(sides[0], sides[1], spec)


if __name__ == "__main__":
    sys.exit(main())
