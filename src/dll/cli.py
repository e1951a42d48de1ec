"""Command-line front end: CSV ingestion, fitting, simulation, coverage
studies and bandwidth diagnostics.

CSV format: UTF-8, comma-separated, dot decimal, header required with
columns ``y, x1, x2_1 .. x2_p`` (p may be 0). Every data row has p + 2
cells; a cell is a number, optionally in double quotes and with spaces
or tabs around it, and lines end in LF or CRLF. Blank lines, comments
(``#`` is a non-numeric cell), digit separators (``1_0``), empty cells
and NaN or infinite values are data errors naming the line number and
column. Datasets are written with CRLF line ends and 17 significant
digits, so a round trip is exact. Reports are JSON (full precision) or
CSV; Monte Carlo CSV output writes one row per replication plus an
aggregate footer file.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

from .decorrelate import window_tail_ratio
from .errors import DataError, DLLError, NumericalError
from .estimator import (
    Dataset,
    DLLFit,
    PipelineOptions,
    default_bandwidth,
    dll_pipeline,
    kde_density,
    _fit_projection,
)
from .kernel import KernelSpec, effective_sample_size
from .simulate import (
    MCReport,
    RepRecord,
    SimConfig,
    make_dataset,
    monte_carlo_records,
)

USAGE_EXIT, DATA_EXIT, NUMERIC_EXIT = 2, 3, 4
REPORT_FORMATS = ("json", "csv")

# Named scenarios so the standing coverage studies are one command each.
REFERENCE_CONFIGS: dict[str, dict[str, Any]] = {
    "lowdim": dict(
        config=SimConfig(
            n=1000,
            p=5,
            gamma_true=(0.5, -0.5, 0.0, 0.0, 0.0),
            sigma2_true=1.0,
            f1=("sine", (1.0, 1.0)),
            nuisance_components=((0, "sine", (1.0, 1.0)), (1, "sine", (0.8, 0.7))),
            sigma1_true=0.5,
            x0=0.25,
            seed=2024,
        ),
        options=PipelineOptions(transform="known"),
        b=300,
    ),
    "highdim": dict(
        config=SimConfig(
            n=400,
            p=300,
            gamma_true=(0.6, -0.6, 0.6) + (0.0,) * 297,
            sigma2_true=1.0,
            f1=("sine", (1.0, 1.0)),
            nuisance_components=(
                (0, "sine", (1.0, 1.0)),
                (3, "sine", (0.8, 1.3)),
                (4, "quadratic", (0.3,)),
            ),
            sigma1_true=0.5,
            x0=0.0,
            seed=2025,
        ),
        options=PipelineOptions(transform="known"),
        b=200,
    ),
    "univariate-oracle": dict(
        config=SimConfig(
            n=10_000,
            p=0,
            gamma_true=(),
            sigma2_true=1.0,
            f1=("sine", (1.0, 1.0)),
            sigma1_true=0.5,
            x0=0.0,
            seed=2026,
        ),
        options=PipelineOptions(transform="known", sigma1_override=0.5),
        b=500,
    ),
}


# The fit options' defaults are the library's, so that `dll fit` and
# `dll_pipeline` compute the same thing for the same input.
_PIPELINE_DEFAULTS = {f.name: f.default for f in dataclasses.fields(PipelineOptions)}


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI invocation."""

    subcommand: str
    input: str | None = None
    output: str | None = None
    format: str = "json"
    x0: float | None = None
    h: float | None = _PIPELINE_DEFAULTS["h"]
    alpha: float = _PIPELINE_DEFAULTS["alpha"]
    mode: str = _PIPELINE_DEFAULTS["mode"]
    seed: int = _PIPELINE_DEFAULTS["seed"]
    b: int | None = None
    name: str | None = None
    n: int = 200
    p: int = 2
    sigma1: float = 0.5
    sigma2: float = 1.0
    bandwidth_const: float = _PIPELINE_DEFAULTS["bandwidth_const"]
    lasso_const: float = _PIPELINE_DEFAULTS["lasso_const"]
    rho_const: float = _PIPELINE_DEFAULTS["rho_const"]
    lambda_const: float = _PIPELINE_DEFAULTS["lambda_const"]
    knots: int | None = _PIPELINE_DEFAULTS["num_interior_knots"]

    def pipeline_options(self) -> PipelineOptions:
        return PipelineOptions(
            h=self.h,
            alpha=self.alpha,
            mode=self.mode,
            seed=self.seed,
            bandwidth_const=self.bandwidth_const,
            lasso_const=self.lasso_const,
            rho_const=self.rho_const,
            lambda_const=self.lambda_const,
            num_interior_knots=self.knots,
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep argparse's exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="dll", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--output", help="report path (default: stdout)")
        p.add_argument("--format", choices=REPORT_FORMATS, default=None)
        p.add_argument("--seed", type=int, default=None)

    fit = sub.add_parser("fit", help="fit one derivative estimate from a CSV file")
    fit.add_argument("--input", default=None)
    fit.add_argument("--x0", type=float, default=None)
    fit.add_argument("--h", type=float, default=None)
    fit.add_argument("--alpha", type=float, default=None)
    fit.add_argument("--mode", choices=["linear", "exact_gaussian"], default=None)
    fit.add_argument("--bandwidth-const", type=float, default=None)
    fit.add_argument("--lasso-const", type=float, default=None)
    fit.add_argument("--rho-const", type=float, default=None)
    fit.add_argument("--lambda-const", type=float, default=None)
    fit.add_argument("--knots", type=int, default=None)
    common(fit)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset CSV")
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--sigma1", type=float, default=None)
    sim.add_argument("--sigma2", type=float, default=None)
    common(sim)

    cov = sub.add_parser("coverage", help="run a named reference coverage study")
    cov.add_argument("--name", choices=sorted(REFERENCE_CONFIGS), default=None)
    cov.add_argument("--b", type=int, default=None)
    common(cov)

    bw = sub.add_parser("bandwidth", help="pre-flight bandwidth diagnostics")
    bw.add_argument("--input", default=None)
    bw.add_argument("--x0", type=float, default=None)
    bw.add_argument("--bandwidth-const", type=float, default=None)
    common(bw)
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse and validate; flags beat config-file values beat defaults."""
    ns = _build_parser().parse_args(argv)
    values: dict[str, Any] = {}
    if getattr(ns, "config", None):
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit2(f"cannot read config file: {exc}")
        if not isinstance(file_values, dict):
            raise SystemExit2("config file must hold a JSON object")
        values.update(file_values)
    for key, val in vars(ns).items():
        if key == "config":
            continue
        if val is not None:
            values[key] = val
    values.setdefault("subcommand", ns.subcommand)

    fields = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - fields
    if unknown:
        raise SystemExit2(f"unknown configuration keys: {sorted(unknown)}")
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    merged = {**{k: v for k, v in defaults.items() if v is not dataclasses.MISSING},
              **values}
    cfg = RunConfig(**merged)

    # The fit options have one schema, PipelineOptions; check it before
    # any data is read.
    try:
        cfg.pipeline_options()
    except (TypeError, ValueError) as exc:
        raise SystemExit2(str(exc))
    if cfg.format not in REPORT_FORMATS:
        raise SystemExit2(
            f"format must be one of {REPORT_FORMATS}, got {cfg.format!r}"
        )
    if cfg.subcommand in ("fit", "bandwidth"):
        if cfg.input is None:
            raise SystemExit2(f"{cfg.subcommand} requires --input")
        if cfg.x0 is None:
            raise SystemExit2(f"{cfg.subcommand} requires --x0")
    if cfg.subcommand == "coverage" and cfg.name is None:
        raise SystemExit2("coverage requires --name")
    return cfg


def _parse_rows(lines: list[str]) -> np.ndarray:
    return np.loadtxt(
        lines, delimiter=",", comments=None, quotechar='"', dtype=float, ndmin=2
    )


def _parses(line: str, width: int) -> bool:
    try:
        return _parse_rows([line]).shape == (1, width)
    except ValueError:
        return False


def _bad_cell(path: str, body: list[str], header: list[str]) -> DataError:
    """Name the first cell the bulk parse rejected (failure path only)."""
    for i, line in enumerate(body, start=2):
        if _parses(line, len(header)):
            continue
        for name, cell in zip(header, line.split(",")):
            if not cell or not _parses(cell, 1):
                return DataError(f"{path}: row {i} column {name}: non-numeric {cell!r}")
        return DataError(f"{path}: row {i}: cannot parse {line!r}")
    return DataError(f"{path}: cannot parse the data rows")


def load_csv(path: str) -> Dataset:
    """Read a dataset CSV with header ``y, x1, x2_1 .. x2_p``."""
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in next(csv.reader(lines[:1]), [])]
    p = len(header) - 2
    expected = ["y", "x1"] + [f"x2_{j}" for j in range(1, p + 1)]
    if p < 0 or header != expected:
        raise DataError(
            f"{path}: header must be 'y,x1,x2_1..x2_p', got {','.join(header)}"
        )
    body = lines[1:]
    if not body:
        raise DataError(f"{path}: empty dataset (header only)")
    for i, line in enumerate(body, start=2):
        if line.count(",") != p + 1:
            cells = line.count(",") + 1 if line else 0
            raise DataError(f"{path}: row {i} has {cells} cells, expected {p + 2}")
    try:
        data = _parse_rows(body)
    except ValueError:
        data = None
    if data is None or data.shape != (len(body), p + 2):
        raise _bad_cell(path, body, header)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise DataError(f"{path}: row {row + 2} column {header[col]}: non-finite value")
    return Dataset(y=data[:, 0], x1=data[:, 1], x2=data[:, 2:])


def write_csv_dataset(dataset: Dataset, path: str) -> None:
    """Write a dataset in the canonical CSV layout at full precision."""
    header = ["y", "x1"] + [f"x2_{j}" for j in range(1, dataset.p + 1)]
    block = np.column_stack([dataset.y, dataset.x1, dataset.x2])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, block, fmt="%.17g", delimiter=",", newline="\r\n",
                   header=",".join(header), comments="")


def _fit_to_dict(fit: DLLFit) -> dict[str, Any]:
    return {
        "estimate": fit.estimate,
        "s_n": fit.s_n,
        "sigma1": fit.sigma1,
        "variance": fit.variance,
        "ci_low": fit.ci_low,
        "ci_high": fit.ci_high,
        "alpha": fit.alpha,
        "reject_zero": fit.reject_zero,
        "n_effective": fit.n_effective,
        "mode": fit.mode,
        "diagnostics": fit.diagnostics,
    }


def emit_report(
    result: DLLFit | MCReport,
    path: str | None,
    fmt: str = "json",
    records: list[RepRecord] | None = None,
) -> None:
    """Serialize a fit or Monte Carlo report at full precision.

    CSV output for a Monte Carlo report writes one row per replication;
    the aggregate goes to a ``<path>.summary.csv`` footer file.
    """
    if isinstance(result, DLLFit):
        payload = _fit_to_dict(result)
    else:
        payload = dataclasses.asdict(result)
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=repr)
        if path is None:
            print(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return
    if isinstance(result, DLLFit):
        flat = {k: v for k, v in payload.items() if not isinstance(v, dict)}
        _write_csv_rows(path, list(flat), [flat])
        return
    if records is None:
        records = []
    rec_fields = [f.name for f in dataclasses.fields(RepRecord)]
    _write_csv_rows(
        path, rec_fields, [dataclasses.asdict(r) for r in records]
    )
    summary_path = (path or "report") + ".summary.csv"
    _write_csv_rows(summary_path, list(payload), [payload])


def _write_csv_rows(path: str | None, fields: list[str], rows: list[dict]) -> None:
    def fmt_val(v):
        return f"{v:.17g}" if isinstance(v, float) else v

    out = sys.stdout if path is None else open(path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: fmt_val(v) for k, v in row.items() if k in fields})
    finally:
        if path is not None:
            out.close()


def _cmd_fit(cfg: RunConfig) -> None:
    dataset = load_csv(cfg.input)
    fit = dll_pipeline(dataset, cfg.x0, cfg.pipeline_options())
    emit_report(fit, cfg.output, cfg.format)


def _cmd_simulate(cfg: RunConfig) -> None:
    gamma = tuple(0.5 if j < min(3, cfg.p) else 0.0 for j in range(cfg.p))
    nuisance = ((0, "sine", (1.0, 1.0)),) if cfg.p > 0 else ()
    config = SimConfig(
        n=cfg.n,
        p=cfg.p,
        gamma_true=gamma,
        sigma2_true=cfg.sigma2,
        nuisance_components=nuisance,
        sigma1_true=cfg.sigma1,
        seed=cfg.seed,
    )
    dataset = make_dataset(config)
    if cfg.output is None:
        raise SystemExit2("simulate requires --output for the dataset CSV")
    write_csv_dataset(dataset, cfg.output)


def _cmd_coverage(cfg: RunConfig) -> None:
    entry = REFERENCE_CONFIGS[cfg.name]
    b = cfg.b or entry["b"]
    report, records = monte_carlo_records(entry["config"], b, entry["options"])
    emit_report(report, cfg.output, cfg.format, records=records)


def _cmd_bandwidth(cfg: RunConfig) -> None:
    dataset = load_csv(cfg.input)
    h = cfg.h if cfg.h is not None else default_bandwidth(
        dataset.x1, cfg.x0, cfg.bandwidth_const
    )
    density = kde_density(dataset.x1, cfg.x0)
    spec = KernelSpec(cfg.x0, h)
    ratio = None
    if dataset.p > 0:
        proj = _fit_projection(dataset.x2, dataset.x1, cfg.pipeline_options())
        ratio = window_tail_ratio(cfg.x0, h, proj.gamma, proj.sigma2, dataset.n)
    payload = {
        "h_default": h,
        "density_at_x0": density,
        "effective_sample_size": effective_sample_size(dataset.x1, spec),
        "window_tail_ratio": ratio,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if cfg.output is None:
        print(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        if cfg.subcommand == "fit":
            _cmd_fit(cfg)
        elif cfg.subcommand == "simulate":
            _cmd_simulate(cfg)
        elif cfg.subcommand == "coverage":
            _cmd_coverage(cfg)
        elif cfg.subcommand == "bandwidth":
            _cmd_bandwidth(cfg)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (NumericalError, DLLError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
