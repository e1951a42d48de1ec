import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dll
from dll.cli import _build_parser, write_csv_dataset
from dll.estimator import PipelineOptions
from dll.simulate import SimConfig, make_dataset

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "estimate_parity.py"


def record(tmp_path, name, ops, workload="highdim"):
    path = tmp_path / name
    path.write_text(json.dumps({"workload": workload, "ops": ops}))
    return str(path)


def parity(*paths):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *paths], capture_output=True, text=True
    )


def test_estimate_parity_matches_ops_by_input(tmp_path):
    a = record(tmp_path, "a.json", [[0, 10, 1.5, 0.2], [1, 11, -2.0, 0.2], [2, 10, 1.5, 0.2]])
    b = record(tmp_path, "b.json", [[0, 11, -2.0, 0.1], [1, 10, 1.5, 0.1], [2, 12, 9.0, 0.1]])
    out = parity(a, b)
    assert out.returncode == 0
    assert "2 matched ops, 0 differ" in out.stdout


def test_estimate_parity_reports_the_largest_difference(tmp_path):
    a = record(tmp_path, "a.json", [[0, 10, 2.0, 0.2], [1, 11, 1.0, 0.2]])
    b = record(tmp_path, "b.json", [[0, 10, 2.5, 0.1], [1, 11, 1.0, 0.1]])
    out = parity(a, b)
    assert out.returncode == 1
    assert "2 matched ops, 1 differ; max abs diff 0.5, max rel diff 0.25" in out.stdout
    failed = record(tmp_path, "c.json", [[0, 10, None, 0.1]])
    assert parity(a, failed).returncode == 1


def test_estimate_parity_needs_common_inputs(tmp_path):
    a = record(tmp_path, "a.json", [[0, 10, 2.0, 0.2]])
    assert parity(a, record(tmp_path, "b.json", [[0, 11, 2.0, 0.2]])).returncode == 2
    other = record(tmp_path, "c.json", [[0, 10, 2.0, 0.2]], workload="cli-fit")
    assert parity(a, other).returncode == 2


RSS_PROBE = SCRIPT.parent / "rss_probe.py"


def test_rss_probe_prints_peak_rss_after_each_fit(tmp_path):
    cfg = SimConfig(
        n=200, p=2, gamma_true=(0.5, 0.0), nuisance_components=((0, "sine", (1.0, 1.0)),)
    )
    data = tmp_path / "data.csv"
    write_csv_dataset(make_dataset(cfg, 3), str(data))
    src = str(Path(dll.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["2", "--input", str(data), "--x0", "0", "--output", str(tmp_path / "fit.json")]
    out = subprocess.run(
        [sys.executable, str(RSS_PROBE), *argv], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(",")[0] for line in lines] == ["op 1: exit 0", "op 2: exit 0"]
    peaks = [float(line.rsplit(" ", 1)[1]) for line in lines]
    assert 0 < peaks[0] <= peaks[1]
    bad = subprocess.run([sys.executable, str(RSS_PROBE), "x"], capture_output=True, env=env)
    assert bad.returncode == 2


def test_benchmark_trace_targets_resolve(monkeypatch):
    # Constructing a Tracer looks up every (owner, attribute) in TARGETS, so
    # a traced public name that is removed or renamed fails here, not only
    # in a traced benchmark run.
    monkeypatch.syspath_prepend(str(SCRIPT.parents[1] / "benchmarks"))
    import tracing

    originals = {id(raw) for _, _, raw, _ in tracing.Tracer()._patches}
    for _, owner, attr in tracing.TARGETS:
        assert id(owner.__dict__[attr]) in originals, attr


@pytest.mark.parametrize("name", ["highdim", "lowdim-density", "cli-fit", "univariate"])
def test_benchmark_workload_op_passes_its_check(monkeypatch, tmp_path, name):
    # One op of each benchmark workload, made and checked as the benchmark
    # does, so a change to a call it makes into the package (positional
    # known CDFs, true_projection=, the general_density options, the
    # `dll fit` argv) fails here rather than only in a benchmark run.
    monkeypatch.syspath_prepend(str(SCRIPT.parents[1] / "benchmarks"))
    import check
    import workloads

    workload = workloads.WORKLOADS[name]
    inp = workload.make_input(0, str(tmp_path))
    outcome = workload.call(inp)
    check.check_fit(*workload.values(inp, outcome), inp.truth)


def non_test_sources():
    """Text of every Python file of the package, the scripts and the benchmarks."""
    root = SCRIPT.parents[1]
    return [
        path.read_text(encoding="utf-8")
        for folder in ("src", "scripts", "benchmarks")
        for path in sorted((root / folder).rglob("*.py"))
    ]


def test_every_public_name_has_a_caller():
    # A public top-level function or class of the package that no module,
    # script or benchmark names outside its own definition is surface that
    # only tests reach. A whole-word search stands in for a lint tool.
    root = SCRIPT.parents[1]
    sources = non_test_sources()
    unused = []
    for path in sorted((root / "src" / "dll").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                word = re.compile(rf"\b{node.name}\b")
                if sum(len(word.findall(text)) for text in sources) == 1:
                    unused.append(f"{path.stem}.{node.name}")
    assert unused == []


def test_every_pipeline_option_has_a_setter():
    # A PipelineOptions field that is neither a `dll fit` flag nor passed as
    # `field=` by the package, a script or a benchmark is a knob that only
    # tests turn. The field's own definition is `field: type = default`,
    # which the keyword search does not match.
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    flags = {action.dest for action in sub.choices["fit"]._actions}
    sources = non_test_sources()
    unset = [
        f.name
        for f in dataclasses.fields(PipelineOptions)
        if f.name not in flags
        and not any(re.search(rf"\b{f.name}=(?!=)", text) for text in sources)
    ]
    assert unset == []


def test_bench_snapshot_summarizes_runs_per_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    import bench_snapshot

    def result(fits, rss, failures=()):
        return {
            "metrics": {"fits_per_s": {"value": fits}, "peak_rss_mb": {"value": rss}},
            "ops": [[0, 10, 1.0, 0.5], [1, 10, 1.0, 0.5]],
            "failures": list(failures),
            "info": {"host_probe_s": [0.01, 0.02]},
        }

    specs = [{"name": "fits_per_s", "unit": "1/s"}, {"name": "peak_rss_mb", "unit": "MB"}]
    runs = [result(2.0, 110.0), result(1.0, 100.0), result(4.0, 120.0, [(1, "DataError")]),
            result(3.0, 130.0)]
    out = bench_snapshot.summarize(runs, specs)
    fits = out["metrics"]["fits_per_s"]
    assert (fits["q1"], fits["median"], fits["q3"], fits["iqr"]) == (1.75, 2.5, 3.25, 1.5)
    assert fits["unit"] == "1/s" and fits["values"] == [2.0, 1.0, 4.0, 3.0]
    assert out["metrics"]["peak_rss_mb"]["median"] == 115.0
    assert (out["attempted_ops"], out["failed_ops"]) == (8, 1)
    assert out["host_probe_s"] == [[0.01, 0.02]] * 4
    single = bench_snapshot.summarize(runs[:1], specs)["metrics"]["fits_per_s"]
    assert (single["q1"], single["median"], single["q3"], single["iqr"]) == (2.0, 2.0, 2.0, 0.0)


def run_script(name, *args):
    src = str(Path(dll.__file__).resolve().parents[1])
    env = {**os.environ, "DLL_JOBS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, str(SCRIPT.parent / name), *args],
        capture_output=True, text=True, env=env,
    )


def test_bandwidth_sweep_prints_one_line_per_bandwidth():
    out = run_script("bandwidth_sweep.py", "400", "1")
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.startswith("true derivative")
    assert len(rows) == 5 and all(row.startswith("h=") for row in rows)


def test_decorrelation_benefit_prints_win_rates():
    out = run_script("decorrelation_benefit.py", "4")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    assert "wins" in lines[0]


def test_ab_inprocess_finds_no_difference_between_a_tree_and_itself():
    root = str(SCRIPT.parents[1])
    out = run_script("ab_inprocess.py", root, root, "--rounds", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["parent", "change"]
    assert all(line.endswith("over 12 ops") for line in lines[:2])
    assert lines[2].endswith("of 12 pairs")
    assert lines[3] == "largest relative estimate difference: 0"
