"""Output check applied to every benchmark op.

Every workload's data is synthetic, so each fit is checked against the
true derivative ``SimConfig.target``: the estimate, variance and interval
must be finite, the variance positive, the interval must contain the
estimate, and the estimate must lie within six standard errors of the
truth. A ``dll fit`` call must also exit with code 0 and leave a
parseable JSON report.
"""

from __future__ import annotations

import json
import math

Z_LIMIT = 6.0


class CheckFailure(Exception):
    """An op's output failed the benchmark's output check."""


def check_fit(
    estimate: float, variance: float, ci_low: float, ci_high: float, truth: float
) -> None:
    """Raise ``CheckFailure`` unless the fit passes every condition."""
    values = {"estimate": estimate, "variance": variance, "ci_low": ci_low, "ci_high": ci_high}
    for key, val in values.items():
        if not isinstance(val, (int, float)) or not math.isfinite(val):
            raise CheckFailure(f"{key} is not a finite number: {val!r}")
    if not variance > 0:
        raise CheckFailure(f"variance {variance!r} is not positive")
    if not ci_low <= estimate <= ci_high:
        raise CheckFailure(f"estimate {estimate!r} outside [{ci_low!r}, {ci_high!r}]")
    limit = Z_LIMIT * math.sqrt(variance)
    if abs(estimate - truth) > limit:
        raise CheckFailure(
            f"estimate {estimate!r} is {abs(estimate - truth):.3g} from the truth "
            f"{truth!r}, more than {Z_LIMIT:g} standard errors ({limit:.3g})"
        )


def fit_values(fit) -> tuple[float, float, float, float]:
    """(estimate, variance, ci_low, ci_high) of a ``DLLFit``."""
    return fit.estimate, fit.variance, fit.ci_low, fit.ci_high


def report_values(exit_code: int, report_path: str) -> tuple[float, float, float, float]:
    """(estimate, variance, ci_low, ci_high) from a ``dll fit`` JSON report."""
    if exit_code != 0:
        raise CheckFailure(f"dll fit exited with code {exit_code}")
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailure(f"unreadable report {report_path}: {exc}") from exc
    if not isinstance(report, dict):
        raise CheckFailure("report is not a JSON object")
    try:
        return tuple(report[k] for k in ("estimate", "variance", "ci_low", "ci_high"))
    except KeyError as exc:
        raise CheckFailure(f"report lacks {exc}") from exc
