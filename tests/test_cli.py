import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dll.cli import (
    REFERENCE_CONFIGS,
    SystemExit2,
    _build_parser,
    emit_report,
    load_csv,
    main,
    parse_args,
    write_csv_dataset,
)
from dll import cli, spline
from dll.errors import DataError
from dll.estimator import Dataset, DLLFit, PipelineOptions
from dll.simulate import MCReport, RepRecord, SimConfig, make_dataset, run_replication


def test_parse_fit_defaults():
    cfg = parse_args(["fit", "--input", "d.csv", "--x0", "0.5"])
    assert cfg.subcommand == "fit"
    assert cfg.input == "d.csv"
    assert cfg.x0 == 0.5
    assert cfg.options.alpha == 0.05
    assert cfg.options.mode == "exact_gaussian"


def test_parse_fit_options_match_library_defaults():
    argv = ["fit", "--input", "d.csv", "--x0", "0.5"]
    assert parse_args(argv).options == PipelineOptions()
    # The penalty constants default to their modules' constants, not to
    # copies of their values.
    defaults = PipelineOptions()
    assert defaults.rho_const is spline.DEFAULT_RHO_CONST
    assert defaults.lambda_const is spline.DEFAULT_LAMBDA_CONST
    flags = ["--rho-const", "0.2", "--lambda-const", "2", "--seed", "3"]
    assert parse_args(argv + flags).options == PipelineOptions(
        rho_const=0.2, lambda_const=2.0, seed=3
    )


def test_parse_rejects_bad_alpha_and_h():
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--alpha", "1.5"])
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--h", "-1"])
    # 1 - alpha/2 rounds to 1, whose normal quantile is infinite.
    with pytest.raises(SystemExit2, match="alpha"):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--alpha", "1e-300"])
    for h in ("1e300", "2e154"):  # h**2 overflows
        with pytest.raises(SystemExit2, match="h must"):
            parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--h", h])
    assert parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--h", "1e153"]).options.h == 1e153


@pytest.mark.parametrize("subcommand", ["fit", "bandwidth"])
@pytest.mark.parametrize("x0", ["-1e-3", "-2.5E+1", "-.5"])
def test_parse_accepts_any_negative_float_x0(subcommand, x0):
    ns = parse_args([subcommand, "--input", "d.csv", "--x0", x0])
    assert ns.x0 == float(x0)


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--rho-const", "-1"),
        ("--rho-const", "nan"),
        ("--lambda-const", "-2"),
        ("--lambda-const", "inf"),
        ("--alpha", "0"),
        ("--alpha", "1"),
        ("--h", "0"),
        ("--h", "inf"),
        ("--lam", "2"),  # no prefix matching (was --lambda-const)
        ("--x0", "nan"),
        ("--x0", "inf"),
        ("--seed", "-1"),
        ("--alpha", "1e-300"),
        ("--h", "1e300"),
    ],
)
def test_bad_fit_option_is_usage_error_before_reading(tmp_path, capsys, flag, value):
    missing = str(tmp_path / "missing.csv")  # reading it would be a data error (3)
    assert main(["fit", "--input", missing, "--x0", "0", flag, value]) == 2
    assert "error:" in capsys.readouterr().err
    if flag == "--x0":
        assert main(["bandwidth", "--input", missing, "--x0", "0", flag, value]) == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "key, value",
    [
        ("mode", "bogus"),
        ("mode", "general_density"),
        ("mode", "exact_gaussian"),  # the default and the only rule: no flag
        ("format", "xml"),
        ("alpha", 1.5),
        ("h", -1),
        ("seed", 1.5),
    ],
)
def test_bad_config_choice_is_usage_error_before_reading(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({key: value}))
    missing = str(tmp_path / "missing.csv")  # reading it would be a data error (3)
    argv = ["fit", "--input", missing, "--x0", "0", "--config", str(cfg_file)]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_parse_requires_x0_for_fit():
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv"])


def test_parse_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "1", "--bogus", "2"])


def test_config_file_precedence(tmp_path):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"alpha": 0.10, "seed": 7}))
    cfg = parse_args(
        ["fit", "--input", "d.csv", "--x0", "0.5", "--config", str(cfg_file)]
    )
    assert cfg.options.alpha == 0.10 and cfg.options.seed == 7
    cfg = parse_args(
        ["fit", "--input", "d.csv", "--x0", "0.5", "--config", str(cfg_file),
         "--alpha", "0.2"]
    )
    assert cfg.options.alpha == 0.2  # flag beats file
    cfg_file.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--config",
                    str(cfg_file)])


_FIT_PARSER = next(a for a in _build_parser()._actions if a.dest == "subcommand").choices["fit"]
_FIT_FLAGS = [
    a for a in _FIT_PARSER._actions
    if a.dest not in ("help", "input", "x0", "output", "format", "config")
]
_FIT_VALUES = {"seed": 3, "h": 0.4, "alpha": 0.1, "rho_const": 0.2, "lambda_const": 2.0}


def _listed_flags(text, heading, command):
    """The flags that the ``command`` bullet under ``heading`` lists; a
    bullet ends in a semicolon or a full stop at the end of a line."""
    bullet = re.search(rf"^- `+{command}`+: (.*?)[;.]$", text.split(heading, 1)[1], re.M | re.S)
    return sorted(re.findall(r"--[a-z0-9-]+", bullet.group(1)))


@pytest.mark.parametrize("command", ["fit", "simulate", "coverage", "bandwidth"])
def test_documented_flag_lists_match_the_parser(command):
    sub = next(a for a in _build_parser()._actions if a.dest == "subcommand")
    flags = sorted(
        flag for action in sub.choices[command]._actions for flag in action.option_strings
        if flag not in ("-h", "--help", "--config")
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _listed_flags(readme, "Flags are matched", command) == flags
    assert _listed_flags(cli.__doc__, "Flags of each subcommand", command) == flags


def test_fit_flags_are_pipeline_options_fields():
    fields = {f.name for f in dataclasses.fields(PipelineOptions)}
    assert {a.dest for a in _FIT_FLAGS} <= fields
    assert {a.dest for a in _FIT_FLAGS} == set(_FIT_VALUES)


@pytest.mark.parametrize("flag", _FIT_FLAGS, ids=lambda a: a.option_strings[0])
def test_config_key_equals_flag(tmp_path, flag):
    value = _FIT_VALUES[flag.dest]
    name = flag.option_strings[0]
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({name[2:].replace("-", "_"): value}))
    argv = ["fit", "--input", "d.csv", "--x0", "0.5"]
    from_file = parse_args(argv + ["--config", str(cfg_file)]).options
    from_flag = parse_args(argv + [name, str(value)]).options
    assert from_file == from_flag == PipelineOptions(**{flag.dest: value})


def _usage_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    return code == 2 and "error:" in err


@pytest.mark.parametrize(
    "command, config",
    [
        ("fit", {"b": 3}),  # another subcommand's flag
        ("bandwidth", {"h": 0.3}),
        ("bandwidth", {"seed": 1}),
        ("bandwidth", {"format": "csv"}),
        ("simulate", {"n": "abc"}),
        ("simulate", {"format": "json"}),
        ("coverage", {"seed": 1}),
    ],
)
def test_bad_config_key_or_value_is_usage_error(tmp_path, capsys, command, config):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps(config))
    missing = str(tmp_path / "missing.csv")  # reading it would be a data error (3)
    out = tmp_path / "out.csv"
    argv = {
        "fit": ["fit", "--input", missing, "--x0", "0"],
        "bandwidth": ["bandwidth", "--input", missing, "--x0", "0"],
        "simulate": ["simulate", "--output", str(out)],
        "coverage": ["coverage", "--name", "lowdim", "--b", "1"],
    }[command]
    assert _usage_error(capsys, argv + ["--config", str(cfg_file)])
    assert not out.exists()


def test_config_null_leaves_flag_unset(tmp_path):
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({"h": None, "x0": 0.25, "input": "d.csv"}))
    cfg = parse_args(["fit", "--config", str(cfg_file)])
    assert cfg.x0 == 0.25 and cfg.input == "d.csv" and cfg.options == PipelineOptions()


@pytest.fixture
def no_study(monkeypatch):
    def fail(*args):
        raise AssertionError("the study ran")

    monkeypatch.setattr("dll.cli.monte_carlo_records", fail)


@pytest.mark.parametrize(
    "flag, value", [("--h", "0.3"), ("--format", "csv"), ("--seed", "1")]
)
def test_bandwidth_rejects_removed_flags(tmp_path, capsys, flag, value):
    # `--h` was taken as `--help` (exit 0); the others changed nothing.
    missing = str(tmp_path / "missing.csv")
    assert _usage_error(capsys, ["bandwidth", "--input", missing, "--x0", "0", flag, value])


@pytest.mark.parametrize("command", ["fit", "bandwidth"])
@pytest.mark.parametrize("flag", ["--bandwidth-const", "--lasso-const", "--knots"])
def test_retired_tuning_flags_are_usage_errors(tmp_path, capsys, command, flag):
    # The plug-in bandwidth constant, the scaled Lasso's penalty constant and
    # the knot count are fixed; every bandwidth stays reachable through --h.
    missing = str(tmp_path / "missing.csv")  # reading it would be a data error (3)
    argv = [command, "--input", missing, "--x0", "0"]
    assert _usage_error(capsys, argv + [flag, "2"])
    cfg_file = tmp_path / "conf.json"
    cfg_file.write_text(json.dumps({flag[2:].replace("-", "_"): 2}))
    assert _usage_error(capsys, argv + ["--config", str(cfg_file)])


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json"],
        ["--sigma1", "-0.5"],
        ["--sigma1", "nan"],
        ["--sigma2", "-1"],
        ["--n", "-1"],
        ["--n", "0"],
        ["--p", "-1"],
        ["--seed", "-5"],
    ],
)
def test_bad_simulate_flag_is_usage_error(tmp_path, capsys, argv):
    # The message names the flag, not the SimConfig field behind it.
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--output", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and argv[0] in err
    assert "_true" not in err and "need n" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, jobs",
    [
        (["--b", "0"], None),  # ran the full 500-replication study
        (["--b", "-3"], None),
        (["--seed", "1"], None),
        (["--b", "1"], "two"),
        (["--b", "1"], "0"),  # ran one worker
        (["--b", "1"], "-3"),
    ],
)
def test_bad_coverage_run_is_usage_error(monkeypatch, capsys, no_study, argv, jobs):
    if jobs is not None:
        monkeypatch.setenv("DLL_JOBS", jobs)
    assert _usage_error(capsys, ["coverage", "--name", "univariate-oracle"] + argv)


def test_coverage_csv_needs_an_output_path(tmp_path, monkeypatch, capsys, no_study):
    # It wrote report.summary.csv into the working directory.
    monkeypatch.chdir(tmp_path)
    assert main(["coverage", "--name", "univariate-oracle", "--format", "csv"]) == 2
    assert "--output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["fit", "simulate", "coverage", "bandwidth"])
def test_bad_output_path_is_usage_error_before_any_work(tmp_path, capsys, no_study, command):
    # A missing folder failed with a traceback after the whole run; an
    # existing folder as the report path, with IsADirectoryError.
    missing = str(tmp_path / "missing.csv")  # reading it would be a data error (3)
    argv = {
        "fit": ["fit", "--input", missing, "--x0", "0"],
        "simulate": ["simulate", "--n", "5"],
        "coverage": ["coverage", "--name", "lowdim", "--b", "1"],
        "bandwidth": ["bandwidth", "--input", missing, "--x0", "0"],
    }[command]
    for output in (tmp_path / "no" / "such" / "out.json", tmp_path):
        assert main(argv + ["--output", str(output)]) == 2
        assert "--output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_coverage_b_overrides_the_study(monkeypatch, capsys):
    calls = []

    def record(config, b, options, n_jobs, arms):
        calls.append((b, n_jobs))
        raise DataError("stop")

    monkeypatch.setenv("DLL_JOBS", "2")
    monkeypatch.setattr("dll.cli.monte_carlo_records", record)
    main(["coverage", "--name", "lowdim", "--b", "3"])
    main(["coverage", "--name", "lowdim"])
    capsys.readouterr()
    assert calls == [(3, 2), (REFERENCE_CONFIGS["lowdim"]["b"], 2)]


def test_load_csv_small(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1,x2_1,x2_2\n1,2,3,4\n5,6,7,8\n0.5,-1,2,3\n")
    ds = load_csv(str(path))
    assert ds.n == 3 and ds.p == 2
    np.testing.assert_allclose(ds.y, [1, 5, 0.5])
    np.testing.assert_allclose(ds.x1, [2, 6, -1])


def test_load_csv_errors(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n")
    with pytest.raises(DataError, match="empty dataset"):
        load_csv(str(path))
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="header"):
        load_csv(str(path))
    path.write_text("y,x1\n1,2\n3\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(str(path))
    path.write_text("y,x1\n1,abc\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_csv(str(path))
    path.write_text("y,x1\n1,nan\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("y,x1,x2_1\n1,2,3\n4,5\n", "row 3 has 2 cells, expected 3"),
        ("y,x1,x2_1\n1,2,3\n4,5,6,7\n", "row 3 has 4 cells, expected 3"),
        ("y,x1\n1,2\n\n3,4\n", "row 3 has 0 cells, expected 2"),
        ("y,x1\n1,2\n3,4\n\n", "row 4 has 0 cells, expected 2"),
        ("y,x1,x2_1\n1,2,3\n4,abc,6\n", "row 3 column x1: non-numeric 'abc'"),
        ("y,x1\n1,2\n#,4\n", "row 3 column y: non-numeric '#'"),
        ("y,x1\n1,2 # note\n", "row 2 column x1: non-numeric '2 # note'"),
        ("y,x1,x2_1\n1,2,3\n4,5,1_0\n", "row 3 column x2_1: non-numeric '1_0'"),
        ("y,x1\n1,\n", "row 2 column x1: non-numeric ''"),
        ("y,x1\n1,2\n3, \n", "row 3 column x1: non-numeric ' '"),
        ("y,x1\n1,2\n3,0x10\n", "row 3 column x1: non-numeric '0x10'"),
        ("y,x1,x2_1\n1,2,3\n4,5,nan\n", "row 3 column x2_1: non-finite value"),
        ("y,x1,x2_1\n1,2,3\n4,5,6\n-inf,5,6\n", "row 4 column y: non-finite value"),
        ("y,x1\n1,1e400\n", "row 2 column x1: non-finite value"),
        ("y,x1\n1,2\n  \n3,4\n", "row 3 has 1 cells, expected 2"),  # whitespace only
        ("y,x1\n1,2\n3,abc", "row 3 column x1: non-numeric 'abc'"),  # no final newline
        ('y,x1\n1,2\n"3\n",4\n', "row 3 has 1 cells, expected 2"),  # quoted newline
        ('y,x1\n1,"2"5\n', "row 2 column x1: bad quoting in '\"2\"5'"),  # text after
        ('y,x1\n1,2\n3,5"4"\n', "row 3 column x1: bad quoting in '5\"4\"'"),  # text before
        ('y,x1\n1,"2\n3,4\n', "row 2 column x1: bad quoting in '\"2'"),  # unterminated
        ('y,x1\n1,2\n3,"4', "row 3 column x1: bad quoting in '\"4'"),  # unterminated at end
        ('y,x1,x2_1\n"1,5",3\n', "row 2 has 2 cells, expected 3"),  # quoted comma
        ('y,x1\n"1,5",3\n', "row 2 column y: non-numeric '\"1,5\"'"),
        ("y,x1\n\n", "row 2 has 0 cells, expected 2"),
        ("y,x1\n", "empty dataset"),
        ("y,x1", "empty dataset"),
        ("", "empty file"),
        ("y,x2\n1,2\n", "header"),
    ],
)
def test_load_csv_reports_row_and_column(tmp_path, text, message):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataError) as info:
        load_csv(str(path))
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_oversized_header_cell_is_a_data_error(tmp_path):
    # The header cell is longer than csv.field_size_limit() (131,072).
    path = tmp_path / "d.csv"
    path.write_text('"' + "y" * 200_000 + '",x1\n1,2\n')
    with pytest.raises(DataError, match="cannot parse the header"):
        load_csv(str(path))
    assert main(["fit", "--input", str(path), "--x0", "0"]) == 3
    # A data cell as long is named by its row.
    path.write_text('y,x1\n1,"' + "a" * 200_000 + '"\n')
    with pytest.raises(DataError, match="row 2: field larger than field limit"):
        load_csv(str(path))


def test_load_csv_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"y,x1\n1,\xff\n")
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(path))


def test_load_csv_reports_undecodable_bytes_first(tmp_path):
    # A bad byte in the last row beats an earlier wrong cell count, and is
    # named by its offset in the whole file.
    path = tmp_path / "d.csv"
    data = b"y,x1\n" + b"1,2\n" * 5000 + b"3\n" + b"1,2\n" * 3000 + b"4,\xff\n"
    path.write_bytes(data)
    with pytest.raises(DataError) as info:
        load_csv(str(path))
    assert str(info.value) == (
        f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position"
        f" {len(data) - 2}: invalid start byte"
    )


def test_load_csv_holds_only_the_parsed_array(tmp_path):
    # The file's text and lines are never held at once (the text of this
    # file alone is about 2.5x the array).
    rng = np.random.default_rng(0)
    n, p = 20_000, 10
    path = tmp_path / "d.csv"
    write_csv_dataset(Dataset(y=rng.normal(size=n), x1=rng.normal(size=n),
                              x2=rng.normal(size=(n, p))), str(path))
    tracemalloc.start()
    try:
        load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * (p + 2) * 8


def test_load_csv_accepts_crlf_quotes_and_spaces(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b'"y","x1","x2_1"\r\n"1.5", 2 ,3\r\n4,\t-5e-1,"6"\r\n')
    ds = load_csv(str(path))
    np.testing.assert_array_equal(ds.y, [1.5, 4.0])
    np.testing.assert_array_equal(ds.x1, [2.0, -0.5])
    np.testing.assert_array_equal(ds.x2, [[3.0], [6.0]])


def test_fit_accepts_a_byte_order_mark(tmp_path, capsys):
    # Excel writes UTF-8 CSV files with a leading byte-order mark.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    cfg = SimConfig(
        n=150, p=1, gamma_true=(0.4,), sigma2_true=1.0,
        nuisance_components=((0, "sine", (0.5, 1.0)),), sigma1_true=0.3, seed=4,
    )
    write_csv_dataset(make_dataset(cfg), str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = load_csv(str(marked)), load_csv(str(plain))
    for name in ("y", "x1", "x2"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    reports = []
    for data in (plain, marked):
        out = tmp_path / f"{data.stem}.json"
        assert main(["fit", "--input", str(data), "--x0", "0.0", "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_write_csv_dataset_golden(tmp_path):
    ds = Dataset(
        y=np.array([0.1, -2.5e-7]),
        x1=np.array([1.0, 1 / 3]),
        x2=np.array([[-0.0, 1e16], [5e-324, 123.0]]),
    )
    path = tmp_path / "w.csv"
    write_csv_dataset(ds, str(path))
    assert path.read_bytes() == (
        b"y,x1,x2_1,x2_2\r\n"
        b"0.10000000000000001,1,-0,10000000000000000\r\n"
        b"-2.4999999999999999e-07,0.33333333333333331,4.9406564584124654e-324,123\r\n"
    )


@pytest.mark.parametrize("p", [0, 3])
def test_write_csv_dataset_streams_savetxt_bytes(tmp_path, p):
    # 1,031 rows span two write blocks and a partial third.
    rng = np.random.default_rng(p)
    n = 1031
    ds = Dataset(y=rng.normal(size=n), x1=rng.normal(size=n) * 1e-300,
                 x2=rng.standard_cauchy(size=(n, p)))
    header = ",".join(["y", "x1"] + [f"x2_{j}" for j in range(1, p + 1)])
    expected = tmp_path / "savetxt.csv"
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([ds.y, ds.x1, ds.x2]), fmt="%.17g", delimiter=",",
                   newline="\r\n", header=header, comments="")
    path = tmp_path / "w.csv"
    write_csv_dataset(ds, str(path))
    assert path.read_bytes() == expected.read_bytes()


def test_csv_round_trip_is_exact(tmp_path):
    cfg = SimConfig(
        n=50, p=2, gamma_true=(0.5, -0.25), sigma2_true=1.0,
        nuisance_components=((0, "sine", (1.0, 1.0)),), seed=3,
    )
    ds = make_dataset(cfg)
    path = tmp_path / "round.csv"
    write_csv_dataset(ds, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.x1, ds.x1)
    np.testing.assert_array_equal(back.x2, ds.x2)


def fixture_fit():
    return DLLFit(
        estimate=1.25, s_n=0.01, sigma1=0.5, variance=0.04,
        ci_low=0.858, ci_high=1.642, alpha=0.05, reject_zero=True,
        n_effective=37,
        diagnostics={"weight_error": None, "window_tail_ratio": 1.2,
                     "flags": {"h": 0.2}},
    )


def test_emit_fit_json_schema(tmp_path):
    path = tmp_path / "fit.json"
    emit_report(fixture_fit(), str(path), "json")
    payload = json.loads(path.read_text())
    assert set(payload) >= {
        "estimate", "variance", "ci_low", "ci_high", "reject_zero",
        "s_n", "sigma1", "alpha", "n_effective", "diagnostics",
    }
    assert "mode" not in payload  # the options' mode sets the weights; the fit has no flag
    assert payload["estimate"] == 1.25
    assert payload["reject_zero"] is True


def test_emit_report_round_trip_preserves_floats(tmp_path):
    report = MCReport(
        arm="estimated", coverage=0.9375, mean_ci_length=1.234567890123456789,
        bias=-0.000123456789012345, sd=0.5, rmse=0.500000015,
        rejection_rate=0.25, mean_weight_error=float("nan"),
        mean_nuisance_error=0.125, replications=16, failures=0,
    )
    path = tmp_path / "rep.json"
    emit_report([report], str(path), "json")
    [payload] = json.loads(path.read_text().replace("NaN", "null"))
    assert payload["mean_ci_length"] == report.mean_ci_length
    assert payload["bias"] == report.bias
    assert payload["rmse"] == report.rmse


def test_emit_mc_csv_rows_and_footer(tmp_path):
    report = MCReport(
        arm="estimated", coverage=1.0, mean_ci_length=1.0, bias=0.0, sd=0.0, rmse=0.0,
        rejection_rate=0.0, mean_weight_error=0.0, mean_nuisance_error=0.0,
        replications=2, failures=0,
    )
    records = [
        RepRecord(arm="estimated", seed=1, estimate=1.0, ci_low=0.5, ci_high=1.5,
                  ci_length=1.0, covered=True, rejected=False, weight_error=0.0,
                  nuisance_error=0.0),
        RepRecord(arm="estimated", seed=2, estimate=1.1, ci_low=0.6, ci_high=1.6,
                  ci_length=1.0, covered=True, rejected=False, weight_error=0.0,
                  nuisance_error=0.0),
    ]
    path = tmp_path / "mc.csv"
    emit_report([report], str(path), "csv", records=records)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 replications
    footer = (tmp_path / "mc.csv.summary.csv").read_text().strip().splitlines()
    assert len(footer) == 2


def test_main_exit_codes(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cfg = SimConfig(
        n=120, p=1, gamma_true=(0.4,), sigma2_true=1.0,
        nuisance_components=((0, "sine", (0.5, 1.0)),), sigma1_true=0.3, seed=9,
    )
    write_csv_dataset(make_dataset(cfg), str(data))

    assert main(["fit", "--input", str(data), "--x0", "0.0",
                 "--output", str(tmp_path / "out.json")]) == 0
    assert main(["fit", "--input", str(data), "--x0", "0.0",
                 "--alpha", "2.0"]) == 2
    assert main(["fit", "--input", str(tmp_path / "missing.csv"),
                 "--x0", "0.0"]) == 3
    # numerical failure: evaluation point far outside the data
    assert main(["fit", "--input", str(data), "--x0", "99.0",
                 "--h", "0.01"]) == 4
    capsys.readouterr()


def test_main_fit_deterministic_output(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cfg = SimConfig(
        n=150, p=1, gamma_true=(0.4,), sigma2_true=1.0,
        nuisance_components=((0, "sine", (0.5, 1.0)),), sigma1_true=0.3, seed=4,
    )
    write_csv_dataset(make_dataset(cfg), str(data))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["fit", "--input", str(data), "--x0", "0.0", "--seed", "11",
                 "--output", str(out1)]) == 0
    assert main(["fit", "--input", str(data), "--x0", "0.0", "--seed", "11",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_main_bandwidth_payload(tmp_path, capsys):
    data = tmp_path / "d.csv"
    cfg = SimConfig(
        n=200, p=1, gamma_true=(0.4,), sigma2_true=1.0, sigma1_true=0.3, seed=2,
    )
    write_csv_dataset(make_dataset(cfg), str(data))
    out = tmp_path / "bw.json"
    assert main(["bandwidth", "--input", str(data), "--x0", "0.0",
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "h_default", "density_at_x0", "effective_sample_size", "window_tail_ratio",
    }
    assert payload["h_default"] > 0
    assert payload["effective_sample_size"] > 0
    capsys.readouterr()


def test_fit_and_bandwidth_report_one_window_tail_ratio_for_p0(tmp_path, capsys):
    # With no nuisance covariates both commands take the empty projection.
    data = tmp_path / "d.csv"
    cfg = SimConfig(n=200, p=0, gamma_true=(), f1=("linear", (2.0,)), seed=3)
    write_csv_dataset(make_dataset(cfg), str(data))
    fit_out, bw_out = tmp_path / "fit.json", tmp_path / "bw.json"
    assert main(["fit", "--input", str(data), "--x0", "0.1", "--output", str(fit_out)]) == 0
    assert main(["bandwidth", "--input", str(data), "--x0", "0.1", "--output", str(bw_out)]) == 0
    ratio = json.loads(bw_out.read_text())["window_tail_ratio"]
    assert ratio is not None
    assert json.loads(fit_out.read_text())["diagnostics"]["window_tail_ratio"] == (
        pytest.approx(ratio, rel=1e-12)
    )
    capsys.readouterr()


def test_main_simulate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "60", "--p", "2", "--seed", "5",
                 "--output", str(out)]) == 0
    ds = load_csv(str(out))
    assert ds.n == 60 and ds.p == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_every_reference_study_reports_each_arm(tmp_path, monkeypatch, name):
    monkeypatch.delenv("DLL_JOBS", raising=False)
    entry = REFERENCE_CONFIGS[name]
    arms = [arm.name for arm in entry["arms"]]
    argv = ["coverage", "--name", name, "--b", "1", "--output"]
    out = tmp_path / "mc.json"
    assert main(argv + [str(out)]) == 0
    reports = json.loads(out.read_text())
    assert [r["arm"] for r in reports] == arms
    assert all(r["replications"] + r["failures"] == 1 for r in reports)
    out = tmp_path / "mc.csv"
    assert main(argv + [str(out), "--format", "csv"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    seed = str(entry["config"].seed + 1)
    assert [(r["arm"], r["seed"]) for r in rows] == [(arm, seed) for arm in arms]
    with open(f"{out}.summary.csv", newline="", encoding="utf-8") as fh:
        assert [r["arm"] for r in csv.DictReader(fh)] == arms


def test_reference_registry_names():
    assert {"lowdim", "highdim", "univariate-oracle"} <= set(REFERENCE_CONFIGS)
    entry = REFERENCE_CONFIGS["highdim"]
    assert entry["config"].p == 300


def test_reference_studies_use_the_fit_options():
    # A study may fix h (a `dll fit` flag) and sigma1 (a known noise scale);
    # every other option, the transform and the shift rule among them, is
    # the library default that `dll fit` uses.
    for entry in REFERENCE_CONFIGS.values():
        options = dataclasses.replace(entry["options"], h=None, sigma1_override=None)
        assert options == PipelineOptions()


@pytest.mark.parametrize("name", ["lowdim", "highdim", "decorrelation-benefit"])
def test_study_replication_is_a_fit_of_its_csv(tmp_path, capsys, name):
    # The estimated record of a study's first replication is, bit for bit,
    # the report of `dll fit` on that replication's dataset written as CSV.
    entry = REFERENCE_CONFIGS[name]
    cfg, options = entry["config"], entry["options"]
    seed = cfg.seed + 1
    [rec] = run_replication(cfg, options, seed)
    assert not rec.failed
    data, out = tmp_path / "d.csv", tmp_path / "fit.json"
    write_csv_dataset(make_dataset(dataclasses.replace(cfg, seed=seed), seed), str(data))
    argv = ["fit", "--input", str(data), "--x0", repr(cfg.x0), "--seed", str(seed),
            "--output", str(out)] + ([] if options.h is None else ["--h", repr(options.h)])
    assert main(argv) == 0, capsys.readouterr().err
    report = json.loads(out.read_text())
    assert (rec.estimate, rec.ci_low, rec.ci_high) == (
        report["estimate"], report["ci_low"], report["ci_high"]
    )


def test_default_commands_load_no_scipy(tmp_path):
    # No path of the package imports scipy: `import dll`, the default fit
    # (exact Gaussian shifts), the bandwidth, simulate and coverage
    # commands and a fit through known Gaussian CDFs load no scipy module
    # (the normal CDF is a numpy port). Folds of 100 rows and p = 2 take
    # the OLS projection, folds of 60 rows and p = 40 the Lasso. The worker
    # pool's modules load only for studies with workers, so these commands
    # load no concurrent.futures either. The smoothness penalty is a closed
    # form, so no fit loads numpy.polynomial. A step without argv lists is
    # the known-CDF fit, which no command makes.
    ols, lasso = str(tmp_path / "ols.csv"), str(tmp_path / "lasso.csv")
    steps = [
        ("import", []),
        ("simulate", [["simulate", "--output", ols, "--n", "200", "--p", "2"],
                      ["simulate", "--output", lasso, "--n", "120", "--p", "40"]]),
        ("fit-ols", [["fit", "--input", ols, "--x0", "0"]]),
        ("fit-lasso", [["fit", "--input", lasso, "--x0", "0"]]),
        ("bandwidth", [["bandwidth", "--input", ols, "--x0", "0"]]),
        ("coverage", [["coverage", "--name", "univariate-oracle", "--b", "1"]]),
        ("known-cdf", None),
    ]
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import dll, dll.cli

        def known_cdf_fit():
            cfg = dll.SimConfig(n=200, p=2, gamma_true=(0.5, 0.0))
            options = dll.PipelineOptions(transform="known")
            dll.dll_pipeline(dll.simulate.make_dataset(cfg), 0.0, options, cfg.known_cdfs())
            return 0

        out = {{}}
        for name, runs in {steps!r}:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [known_cdf_fit()] if runs is None else [dll.cli.main(a) for a in runs]
            out[name] = codes, sorted(
                m for m in sys.modules
                if m.split(".")[0] in ("scipy", "concurrent") or m.startswith("numpy.polynomial")
            )
        print(json.dumps(out))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    out = json.loads(proc.stdout)
    assert list(out) == [name for name, _ in steps]
    for name, (codes, modules) in out.items():
        assert not any(codes), name
        assert modules == [], name


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    cfg = SimConfig(
        n=200, p=2, gamma_true=(0.5, 0.0), nuisance_components=((0, "sine", (1.0, 1.0)),)
    )
    path = tmp_path_factory.mktemp("fit") / "d.csv"
    write_csv_dataset(make_dataset(cfg, 3), str(path))
    return path


@pytest.mark.parametrize("subcommand", ["fit", "bandwidth"])
def test_spread_past_the_square_root_of_the_largest_float_asks_for_h(tmp_path, capsys, subcommand):
    # The sample sd of x1 overflows; the interquartile range sets the
    # plug-in density's bandwidth, and that density is far below the floor.
    data = tmp_path / "d.csv"
    write_csv_dataset(make_dataset(SimConfig(n=200, p=0, sigma2_true=1e200), 1), str(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([subcommand, "--input", str(data), "--x0", "0"]) == 4
    assert "supply h manually" in capsys.readouterr().err


_WIDE_WINDOWS = [
    ("1e60", "-1e60", "numerically zero"),
    ("1e84", "-1e84", "numerically zero"),
    ("5.6e102", "5.6e102", "numerically zero"),
    ("1e120", "1e120", "overflows"),
    ("1e150", "1e150", "overflows"),
    ("1e153", "-1e153", "overflows"),
]


@pytest.mark.parametrize(
    "h, x0, message", _WIDE_WINDOWS, ids=[f"{h}-{x0}" for h, x0, _ in _WIDE_WINDOWS]
)
def test_window_far_wider_than_the_data_is_numerical_failure(small_csv, capsys, h, x0, message):
    # Examples test_fit_never_raises found, which used to warn and then fail
    # or report: the exact shifts of a window this wide leave weights whose
    # normalizing sum is zero, or the weights' products overflow.
    argv = ["fit", "--input", str(small_csv), "--x0", x0, "--h", h]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 4
    assert message in capsys.readouterr().err


def _flag(name, value):
    return [] if value is None else [name, repr(value)]


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.none() | st.floats(),
    h=st.none() | st.floats(),
    seed=st.none() | st.integers(),
    x0=st.floats(-1.0, 1.0) | st.floats(),
)
def test_fit_never_raises(small_csv, alpha, h, seed, x0):
    # Any flag value is a usage error (2), a data error (3), a numerical
    # failure (4) or a fit (0); no exception escapes.
    argv = ["fit", "--input", str(small_csv), "--x0", repr(x0),
            "--output", str(small_csv.with_suffix(".json"))]
    argv += _flag("--alpha", alpha) + _flag("--h", h) + _flag("--seed", seed)
    assert main(argv) in (0, 2, 3, 4)
