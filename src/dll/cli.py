"""Command-line front end: CSV ingestion, fitting, simulation, coverage
studies and bandwidth diagnostics.

CSV format: UTF-8 (a leading byte-order mark, as Excel writes, is
accepted), comma-separated, dot decimal, header required with columns
``y, x1, x2_1 .. x2_p`` (p may be 0). Every data row has p + 2
cells; a cell is a number, optionally in double quotes and with spaces
or tabs around it, and lines end in LF or CRLF. Blank lines, comments
(``#`` is a non-numeric cell), digit separators (``1_0``), empty cells,
text outside a cell's quotes (``"2"5``), an unterminated quote and NaN
or infinite values are data errors naming the line number and column. The file is parsed as it is read, so loading holds only the
parsed array (8 bytes per cell); a file that fails is read again to name
its first error. Datasets are written with CRLF line ends and 17
significant digits, so a round trip is exact. Reports are JSON (full
precision) or CSV; Monte Carlo CSV output writes one row per replication
to the ``--output`` file plus an aggregate footer file beside it, so
``coverage --format csv`` requires ``--output``.

Flags of each subcommand (exact names; prefixes are not accepted):

- ``fit``: --input, --x0 (required), --output, --format, --seed, --h,
  --alpha, --mode, --bandwidth-const, --lasso-const, --rho-const,
  --lambda-const, --knots;
- ``simulate``: --output (required), --n, --p, --sigma1, --sigma2, --seed;
- ``coverage``: --name (required), --b, --output, --format;
- ``bandwidth``: --input, --x0 (required), --output, --bandwidth-const.

Each also takes ``--config FILE``, a JSON object whose keys are that
subcommand's flag names (``bandwidth_const`` or ``bandwidth-const``); a
``null`` value leaves the flag unset. Its entries are parsed as flags
placed before the command line's own, so explicit flags win and a bad
key or value is the same usage error as the flag. Every check, among
them that ``--output`` is not a directory and its folder exists, runs
before any input is read.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from typing import Any, Iterable, Iterator

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
    default_jobs,
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep argparse's exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="dll", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name: str, help: str, output_help="report path (default: stdout)"):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--config", help="JSON object of this subcommand's flags")
        p.add_argument("--output", required=name == "simulate", help=output_help)
        return p

    # The fit flags are stored under their PipelineOptions field names and
    # default to unset, so the library's defaults are the only ones.
    fit = command("fit", "fit one derivative estimate from a CSV file")
    fit.add_argument("--input", required=True)
    fit.add_argument("--x0", type=float, required=True)
    fit.add_argument("--format", choices=REPORT_FORMATS, default="json")
    fit.add_argument("--seed", type=int)
    fit.add_argument("--h", type=float)
    fit.add_argument("--alpha", type=float)
    fit.add_argument("--mode", choices=["linear", "exact_gaussian"])
    fit.add_argument("--bandwidth-const", type=float)
    fit.add_argument("--lasso-const", type=float)
    fit.add_argument("--rho-const", type=float)
    fit.add_argument("--lambda-const", type=float)
    fit.add_argument("--knots", dest="num_interior_knots", type=int)

    sim = command("simulate", "generate a synthetic dataset CSV", "dataset CSV path")
    sim.add_argument("--n", type=int, default=200)
    sim.add_argument("--p", type=int, default=2)
    sim.add_argument("--sigma1", type=float, default=0.5)
    sim.add_argument("--sigma2", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)

    cov = command("coverage", "run a named reference coverage study")
    cov.add_argument("--name", choices=sorted(REFERENCE_CONFIGS), required=True)
    cov.add_argument("--b", type=int, help="replications (default: the study's)")
    cov.add_argument("--format", choices=REPORT_FORMATS, default="json")

    bw = command("bandwidth", "pre-flight bandwidth diagnostics")
    bw.add_argument("--input", required=True)
    bw.add_argument("--x0", type=float, required=True)
    bw.add_argument("--bandwidth-const", type=float)
    return parser


def _config_flags(argv: list[str]) -> list[str]:
    """The ``--config`` file's entries as ``--key=value`` flags."""
    pre = _Parser(prog="dll", add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit2(f"cannot read config file: {exc}")
    if not isinstance(values, dict):
        raise SystemExit2("config file must hold a JSON object")
    return [
        f"--{key.replace('_', '-')}={value}"
        for key, value in values.items()
        if value is not None
    ]


_OPTION_FIELDS = {f.name for f in dataclasses.fields(PipelineOptions)}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse and check a CLI run before any input is read.

    Config-file flags go before the command line's, so explicit flags win.
    Adds ``options`` (fit, bandwidth), ``sim`` (simulate) or ``jobs``
    (coverage) to the namespace.
    """
    ns = _build_parser().parse_args(argv[:1] + _config_flags(argv) + argv[1:])
    try:
        if ns.output is not None:
            if os.path.isdir(ns.output):
                raise ValueError(f"--output {ns.output} is a directory")
            if not os.path.isdir(os.path.dirname(ns.output) or "."):
                raise ValueError(f"--output {ns.output}: no such directory")
        if ns.subcommand in ("fit", "bandwidth"):
            if not math.isfinite(ns.x0):
                raise ValueError(f"--x0 must be finite, got {ns.x0}")
            ns.options = PipelineOptions(**{
                k: v for k, v in vars(ns).items() if k in _OPTION_FIELDS and v is not None
            })
        elif ns.subcommand == "simulate":
            # SimConfig checks these ranges too, but names its own fields.
            for flag, least in (("n", 1), ("p", 0), ("sigma1", 0), ("sigma2", 0)):
                value = getattr(ns, flag)
                if not least <= value < math.inf:  # also rejects NaN
                    raise ValueError(f"--{flag} must be finite and >= {least}, got {value}")
            gamma = tuple(0.5 if j < min(3, ns.p) else 0.0 for j in range(ns.p))
            ns.sim = SimConfig(
                n=ns.n,
                p=ns.p,
                gamma_true=gamma,
                sigma2_true=ns.sigma2,
                nuisance_components=((0, "sine", (1.0, 1.0)),) if ns.p > 0 else (),
                sigma1_true=ns.sigma1,
                seed=ns.seed,
            )
        elif ns.subcommand == "coverage":
            if ns.b is not None and ns.b < 1:
                raise ValueError(f"b must be at least 1, got {ns.b}")
            if ns.format == "csv" and ns.output is None:
                raise ValueError("CSV coverage output needs --output (it writes two files)")
            ns.jobs = default_jobs()
    except (TypeError, ValueError) as exc:
        raise SystemExit2(str(exc))
    return ns


# A cell holds no double quote, or is one quoted span with only spaces or
# tabs outside it; loadtxt alone would join ``"2"5`` into 25.
_CELL = r'[^",]*|[ \t]*"[^"]*"[ \t]*'
_QUOTED_CELL = re.compile(_CELL)
_QUOTED_LINE = re.compile(rf"(?:{_CELL})(?:,(?:{_CELL}))*\n?")


def _parse_rows(lines: Iterable[str]) -> np.ndarray:
    return np.loadtxt(
        lines, delimiter=",", comments=None, quotechar='"', dtype=float, ndmin=2
    )


def _parses(line: str, width: int) -> bool:
    try:
        return _parse_rows([line]).shape == (1, width)
    except ValueError:
        return False


def _cells(line: str) -> list[str]:
    """A row's cells as written; ``csv.reader`` finds where each one ends."""
    parts = iter(line.split(","))
    return [",".join(itertools.islice(parts, cell.count(",") + 1))
            for cell in next(csv.reader([line]), [])]


def _header(line: str) -> tuple[list[str], bool]:
    """The header's cells, stripped, and whether they are ``y, x1, x2_1 .. x2_p``."""
    cells = [c.strip() for c in next(csv.reader([line.removesuffix("\n")]), [])]
    return cells, cells == ["y", "x1"] + [f"x2_{j}" for j in range(1, len(cells) - 1)]


def _diagnose(path: str) -> DataError:
    """Name why ``load_csv``'s streamed parse rejected a file (failure path only).

    The checks run in a fixed order, and the first that fails is named:
    the file decodes, has a header, a valid header, data rows, p + 2
    cells on every row (a quoted comma splits none), and a number, bare
    or in one pair of quotes, in every cell. The whole file is decoded
    first, so an undecodable byte anywhere comes first and is named by
    its offset in the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # universal newlines
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        return DataError(f"cannot read {path}: {exc}")
    if lines[-1] == "":
        lines.pop()
    if not lines:
        return DataError(f"{path}: empty file")
    try:
        header, valid = _header(lines[0])
    except csv.Error as exc:
        return DataError(f"{path}: cannot parse the header: {exc}")
    if not valid:
        return DataError(f"{path}: header must be 'y,x1,x2_1..x2_p', got {','.join(header)}")
    body = lines[1:]
    if not body:
        return DataError(f"{path}: empty dataset (header only)")
    for i, line in enumerate(body, start=2):
        try:
            width = len(next(csv.reader([line]), []))
        except csv.Error as exc:
            return DataError(f"{path}: row {i}: {exc}")
        if width != len(header):
            return DataError(f"{path}: row {i} has {width} cells, expected {len(header)}")
    for i, line in enumerate(body, start=2):
        if _QUOTED_LINE.fullmatch(line) and _parses(line, len(header)):
            continue
        for name, cell in zip(header, _cells(line)):
            if not _QUOTED_CELL.fullmatch(cell):
                return DataError(f"{path}: row {i} column {name}: bad quoting in {cell!r}")
            if not cell or not _parses(cell, 1):
                return DataError(f"{path}: row {i} column {name}: non-numeric {cell!r}")
        return DataError(f"{path}: row {i}: cannot parse {line!r}")
    return DataError(f"{path}: cannot parse the data rows")


def load_csv(path: str) -> Dataset:
    """Read a dataset CSV with header ``y, x1, x2_1 .. x2_p``.

    One pass over the open file: ``np.loadtxt`` parses the data lines as
    they are read, and its array is accepted when it has one row of
    p + 2 cells per line (it skips blank lines and joins the lines of a
    quoted newline, which this check catches) and every line with a
    double quote is quoted cell by cell. Any other outcome is named by
    ``_diagnose``, which reads the file again.
    """
    data, n_lines = None, 0

    def counted(lines: Iterable[str]) -> Iterator[str]:
        nonlocal n_lines
        for n_lines, line in enumerate(lines, start=1):
            if '"' in line and not _QUOTED_LINE.fullmatch(line):
                raise ValueError("misquoted cell")  # loadtxt re-raises it
            yield line

    try:
        with open(path, encoding="utf-8-sig") as fh:  # universal newlines
            header, valid = _header(fh.readline())
            first = fh.readline()
            # A blank first row would leave loadtxt no data, and it warns.
            if valid and first.strip("\n"):
                data = _parse_rows(counted(itertools.chain([first], fh)))
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        data = None
    if data is None or data.shape != (n_lines, len(header)):
        raise _diagnose(path)
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


def emit_report(
    result: DLLFit | MCReport,
    path: str | None,
    fmt: str = "json",
    records: list[RepRecord] | None = None,
) -> None:
    """Serialize a fit or Monte Carlo report at full precision.

    The payload is the result's ``repr=True`` fields, in field order. CSV
    output for a Monte Carlo report writes one row per replication to
    ``path``, which it needs; the aggregate goes to a
    ``<path>.summary.csv`` footer file.
    """
    payload = _report_fields(result)
    if fmt == "json":
        _write_json(payload, path)
        return
    if isinstance(result, DLLFit):
        flat = {k: v for k, v in payload.items() if not isinstance(v, dict)}
        _write_csv_rows(path, list(flat), [flat])
        return
    rec_fields = [f.name for f in dataclasses.fields(RepRecord)]
    _write_csv_rows(path, rec_fields, [_report_fields(r) for r in records or ()])
    _write_csv_rows(path + ".summary.csv", list(payload), [payload])


def _report_fields(result) -> dict[str, Any]:
    """A report dataclass's ``repr=True`` fields by name, in field order."""
    return {f.name: getattr(result, f.name) for f in dataclasses.fields(result) if f.repr}


def _write_json(payload: dict[str, Any], path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=repr)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


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


def _cmd_fit(ns: argparse.Namespace) -> None:
    dataset = load_csv(ns.input)
    fit = dll_pipeline(dataset, ns.x0, ns.options)
    emit_report(fit, ns.output, ns.format)


def _cmd_simulate(ns: argparse.Namespace) -> None:
    write_csv_dataset(make_dataset(ns.sim), ns.output)


def _cmd_coverage(ns: argparse.Namespace) -> None:
    entry = REFERENCE_CONFIGS[ns.name]
    b = entry["b"] if ns.b is None else ns.b
    report, records = monte_carlo_records(entry["config"], b, entry["options"], ns.jobs)
    emit_report(report, ns.output, ns.format, records=records)


def _cmd_bandwidth(ns: argparse.Namespace) -> None:
    dataset = load_csv(ns.input)
    h = default_bandwidth(dataset.x1, ns.x0, ns.options.bandwidth_const)
    proj = _fit_projection(dataset.x2, dataset.x1, ns.options)
    _write_json({
        "h_default": h,
        "density_at_x0": kde_density(dataset.x1, ns.x0),
        "effective_sample_size": effective_sample_size(dataset.x1, KernelSpec(ns.x0, h)),
        "window_tail_ratio": window_tail_ratio(ns.x0, h, proj.gamma, proj.sigma2, dataset.n),
    }, ns.output)


_COMMANDS = {
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "coverage": _cmd_coverage,
    "bandwidth": _cmd_bandwidth,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        ns = parse_args(argv)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    try:
        _COMMANDS[ns.subcommand](ns)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_EXIT
    except (NumericalError, DLLError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
