"""Self-test of the benchmark's output check.

Run with ``python -m pytest benchmarks/test_check.py``.
"""

import json
import math

import pytest

from check import CheckFailure, check_fit, report_values

TRUTH = 1.0
GOOD = dict(estimate=0.97, variance=0.04, ci_low=0.578, ci_high=1.362)


def test_good_fit_passes():
    check_fit(**GOOD, truth=TRUTH)


def test_nan_estimate_trips():
    with pytest.raises(CheckFailure, match="finite"):
        check_fit(**{**GOOD, "estimate": math.nan}, truth=TRUTH)


def test_shifted_estimate_trips():
    # 0.97 + 2.0 is ten standard errors (sd 0.2) from the truth; widen the
    # interval so that only the distance to the truth can trip the check.
    with pytest.raises(CheckFailure, match="standard errors"):
        check_fit(**{**GOOD, "estimate": 2.97, "ci_high": 3.5}, truth=TRUTH)


@pytest.mark.parametrize(
    "field, value, reason",
    [
        ("variance", 0.0, "not positive"),
        ("ci_low", math.inf, "finite"),
        ("ci_high", 0.9, "outside"),
    ],
)
def test_other_conditions_trip(field, value, reason):
    with pytest.raises(CheckFailure, match=reason):
        check_fit(**{**GOOD, field: value}, truth=TRUTH)


def test_cli_report_checks(tmp_path):
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(GOOD))
    assert report_values(0, str(path)) == tuple(GOOD.values())
    with pytest.raises(CheckFailure, match="exited"):
        report_values(4, str(path))
    path.write_text("{not json")
    with pytest.raises(CheckFailure, match="unreadable"):
        report_values(0, str(path))
    with pytest.raises(CheckFailure, match="unreadable"):
        report_values(0, str(tmp_path / "missing.json"))
