"""Drives ``bench/run.py --selftest`` (run with ``pytest bench/test_bench.py``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``): the selftest
takes about a minute, most of it whole-world simulation.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def test_selftest(tmp_path):
    out = tmp_path / "selftest.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--selftest",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
    assert "SELFTEST FAILED" not in done.stdout

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    records = json.loads(out.read_text())["records"]
    # One timed and one traced record per declared workload, each carrying
    # exactly the declared metric names.
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            record, = [r for r in records if r["trace"] == trace
                       and r["workload"] == workload["name"]]
            assert record["correct"] and record["attempted"] >= 1
            assert set(record["metrics"]) == {m["name"] for m in spec[kind]}
    # Nothing is left behind in the repo root.
    assert not [name for name in os.listdir(ROOT)
                if name.startswith(".bench_ckpt_")]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a tree holding only the benchmark, exit non-zero, print no result."""
    import shutil
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
