#!/usr/bin/env python3
"""Write the benchmark snapshot of the checked-out commit, BENCH_<short-sha>.json.

Usage: python scripts/bench_snapshot.py

Runs ``benchmarks/run.py --trace 0 --seed 1`` RUNS = 5 times on each
workload that ``BENCHMARK.json`` gates, alternating the workloads, for
that file's ``run_seconds`` each, then times the Tier-1 test suite once.
The run count and seed are fixed so that snapshots of different commits
compare like with like. The snapshot
at the repository root holds, per workload and end-to-end metric, the
median, quartiles and every run's value; the ops attempted and failed; the
host-speed probe of each run; the machine facts of the result records;
and the Tier-1 wall time and summary line. Run it on a clean tree: the
file is named after HEAD, and ``worktree_clean`` records whether tracked
files differed from it. Exits 1 if a benchmark run or the tests fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = ROOT / "benchmarks" / "results"
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
RUNS = 5
SEED = 1


def summarize(records: list[dict], specs: list[dict]) -> dict:
    """Median, quartiles and values of each end-to-end metric over the
    result records of one workload, with their op counts and probes."""
    metrics = {}
    for spec in specs:
        values = [rec["metrics"][spec["name"]]["value"] for rec in records]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3
        )
        metrics[spec["name"]] = {
            "unit": spec["unit"], "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values,
        }
    return {
        "metrics": metrics,
        "attempted_ops": sum(len(rec["ops"]) for rec in records),
        "failed_ops": sum(len(rec["failures"]) for rec in records),
        "host_probe_s": [rec["info"]["host_probe_s"] for rec in records],
    }


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_benchmark(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(RESULTS_DIR / f"{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_tier1() -> dict:
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": done.returncode, "summary": lines[-1] if lines else ""}


def main(argv: list[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    records = {name: [] for name in names}
    try:
        for _ in range(RUNS):
            for name in names:
                records[name].append(run_benchmark(name, SEED, spec["run_seconds"]))
    except (subprocess.CalledProcessError, OSError, json.JSONDecodeError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    tier1 = run_tier1()
    machine = dict(records[names[0]][0]["machine"])
    snapshot = {
        "git_sha": machine.pop("git_sha"),
        "worktree_clean": git("status", "--porcelain", "--untracked-files=no") == "",
        "command": "python scripts/bench_snapshot.py",
        "seed": SEED,
        "run_seconds": spec["run_seconds"],
        "runs": RUNS,
        "machine": machine,
        "workloads": {name: summarize(records[name], spec["end_to_end"]) for name in names},
        "tier1": tier1,
    }
    path = ROOT / f"BENCH_{git('rev-parse', '--short', 'HEAD')}.json"
    path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    failed = any(w["failed_ops"] for w in snapshot["workloads"].values())
    return 1 if failed or tier1["exit_code"] != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
