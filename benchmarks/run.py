"""Benchmark of decorrelated local linear fits, timed from outside the package.

Usage (from the repository root):

    python3 benchmarks/run.py --workload highdim --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

One op is one fit: a ``dll_pipeline`` call, or one ``dll fit`` command for
``cli-fit``. A run is a closed loop with one client: ops run back to back
for ``--seconds`` seconds in this process, with no worker pool. Every op's
output is checked against the true derivative. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops on the
same inputs and reports per-layer metrics and the tracing overhead. The
last line of standard output is one JSON object; a fuller record (machine
facts, host-speed probe, per-op estimates, spans) goes to
``benchmarks/results/``. See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import CheckFailure, check_fit

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 300


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def limit_threads() -> int:
    """One client, no worker pool, at most nproc BLAS threads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    os.environ.pop("DLL_JOBS", None)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_package() -> float:
    """Import ``dll`` from this checkout's sources; returns the seconds taken."""
    src = ROOT / "src"
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import dll.cli  # noqa: F401  (imports numpy and scipy too)

    elapsed = time.perf_counter() - start
    if not Path(dll.__file__).resolve().is_relative_to(src):
        raise ImportError(f"imported dll from {dll.__file__}, not from {src}")
    return elapsed


def machine_facts(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "git_sha": sha,
    }


def host_probe(reps: int = 5) -> float:
    """Median seconds of a fixed pure-numpy task: host speed, for information."""
    import numpy as np

    rng = np.random.default_rng(20261017)
    a = rng.standard_normal((200, 200))
    v = rng.standard_normal(64)
    times = []
    for _ in range(reps + 1):  # the first call also loads BLAS; it is dropped
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.solve(a @ a.T + 200 * np.eye(200), a[:, 0])
        acc = 0.0
        for _ in range(3000):
            acc += float(np.dot(v, v))
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def tail(durations: list[float]) -> dict | None:
    """Highest listed percentile with at least ten ops beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n) - 1
        if rank >= 0 and n - rank - 1 >= TAIL_MIN_BEYOND:
            return {"percentile": pct, "value": ordered[rank], "ops": n}
    return None


class Run:
    """One workload's run: set-up, the timed loop, and what it measured."""

    def __init__(self, workload, seed: int, tracer=None) -> None:
        from dll import DLLError

        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.errors = (DLLError, CheckFailure)
        self.ops: list[dict] = []

    def attempt(self, inp, traced: bool = False) -> dict:
        """Run one op and check its output; failures are recorded, not raised."""
        record = {"op": len(self.ops), "seed": inp.seed, "estimate": None, "error": None}
        start = time.perf_counter()
        try:
            if traced:
                outcome = self.tracer.record("op", self.workload.call, inp)
            else:
                outcome = self.workload.call(inp)
            record["wall_s"] = time.perf_counter() - start
            values = self.workload.values(inp, outcome)
            record["estimate"] = values[0]
            check_fit(*values, truth=inp.truth)
        except self.errors as exc:
            record.setdefault("wall_s", time.perf_counter() - start)
            record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    def setup(self, workdir: str) -> float:
        """Make the inputs and run one warm-up op; returns the seconds taken."""
        start = time.perf_counter()
        self.pool, warm = self.workload.make_inputs(self.seed, workdir)
        warm_record = self.attempt(warm)
        elapsed = time.perf_counter() - start
        if warm_record["error"]:
            print(f"warm-up op failed: {warm_record['error']}")
        return elapsed

    def timed(self, seconds: float) -> None:
        """Ops back to back until ``seconds`` have passed."""
        start = time.perf_counter()
        while True:
            inp = self.pool[len(self.ops) % len(self.pool)]
            self.ops.append(self.attempt(inp))
            if time.perf_counter() - start >= seconds:
                return

    def traced_pairs(self, seconds: float) -> list[float]:
        """Each input once untraced and once traced, alternating which goes
        first; returns traced-minus-untraced wall time per pair."""
        start = time.perf_counter()
        overheads = []
        pair = 0
        while True:
            inp = self.pool[pair % len(self.pool)]
            walls = {}
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                self.tracer.op = len(self.ops)
                if traced:
                    self.tracer.install()
                record = self.attempt(inp, traced)
                if traced:
                    self.tracer.uninstall()
                record["traced"] = traced
                self.ops.append(record)
                walls[traced] = record["wall_s"]
            overheads.append(walls[True] - walls[False])
            pair += 1
            if time.perf_counter() - start >= seconds:
                return overheads


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_setup(args: argparse.Namespace) -> float:
    """Set-up seconds of the workload in a new process, import included."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if child.returncode != 0:
        raise RuntimeError(f"set-up process failed: {child.stderr.strip()}")
    return json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args: argparse.Namespace, import_s: float, blas_threads: int) -> int:
    try:
        specs = load_spec()["per_layer" if args.trace else "end_to_end"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    run = Run(WORKLOADS[args.workload], args.seed, tracer)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": import_s + run.setup(str(workdir))}))
            return 0
        probe_before = host_probe()
        if tracer:
            tracer.install()
        setup_times = [import_s + run.setup(str(workdir))]
        if tracer:
            tracer.uninstall()
        else:
            setup_times += [fresh_setup(args) for _ in range(SETUP_REPS - 1)]
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        if tracer:
            overheads = run.traced_pairs(args.seconds)
        else:
            run.timed(args.seconds)
        cpu_s, wall = time.process_time() - cpu_start, time.perf_counter() - wall_start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = host_probe()

    ops = run.ops
    failed = [op for op in ops if op["error"]]
    passed = len(ops) - len(failed)
    durations = [op["wall_s"] for op in ops]
    if tracer:
        traced_ops = [op["op"] for op in ops if op["traced"]]
        values = tracer.layer_metrics(traced_ops)
        values["trace.overhead_s"] = statistics.median(overheads)
    else:
        values = {
            "fits_per_s": passed / wall,
            "fit_s.p50": statistics.median(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times),
        }
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    info = {
        "fail_frac": len(failed) / len(ops),
        "fit_s.tail": tail(durations),
        "import_s": import_s,
        "setup_s_reps": setup_times,
        "host_probe_s": [probe_before, probe_after],
        "timed_cpu_s": cpu_s,
        "timed_wall_s": wall,
    }

    RESULTS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(blas_threads),
        "metrics": metrics,
        "info": info,
        "failures": [(op["op"], op["error"]) for op in failed],
        "ops": [(op["op"], op["seed"], op["estimate"], op["wall_s"]) for op in ops],
    }
    with open(RESULTS_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    if tracer:
        tracer.write(str(RESULTS_DIR / f"{tag}.spans.csv"))

    print_summary(args, metrics, info, len(ops), len(failed), record["machine"])
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


def print_summary(args, metrics, info, attempted, failed, machine) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, m in metrics.items():
        print(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':26s} {info['fail_frac']:.6g} fraction ({failed} of {attempted})")
    t = info["fit_s.tail"]
    if args.trace == 0:
        if t is None:
            print(f"  {'fit_s.tail':26s} omitted: {attempted} ops leave fewer than "
                  f"{TAIL_MIN_BEYOND} beyond p{TAIL_PERCENTILES[-1]:g}")
        else:
            print(f"  {'fit_s.tail':26s} {t['value']:.6g} s (p{t['percentile']:g} of {t['ops']} ops)")
    probe = ", ".join(f"{p:.4g}" for p in info["host_probe_s"])
    print(f"  host probe {probe} s (before, after); nproc {machine['nproc']}, "
          f"BLAS threads {machine['blas_threads']}, git {machine['git_sha'][:12]}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            child = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas_threads = limit_threads()
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"error: cannot import dll from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, import_s, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
