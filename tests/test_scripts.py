import json
import subprocess
import sys
from pathlib import Path

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
