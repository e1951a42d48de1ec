import json
import os

import numpy as np
import pytest

from dll.cli import (
    REFERENCE_CONFIGS,
    SystemExit2,
    emit_report,
    load_csv,
    main,
    parse_args,
    reference_config,
    write_csv_dataset,
)
from dll.errors import DataError
from dll.estimator import DLLFit, PipelineOptions
from dll.simulate import MCReport, RepRecord, SimConfig, make_dataset


def test_parse_fit_defaults():
    cfg = parse_args(["fit", "--input", "d.csv", "--x0", "0.5"])
    assert cfg.subcommand == "fit"
    assert cfg.input == "d.csv"
    assert cfg.x0 == 0.5
    assert cfg.alpha == 0.05
    assert cfg.mode == "linear"


def test_parse_fit_options_match_library_defaults():
    argv = ["fit", "--input", "d.csv", "--x0", "0.5"]
    assert parse_args(argv).pipeline_options() == PipelineOptions()
    flags = ["--rho-const", "0.2", "--lambda-const", "2", "--seed", "3", "--knots", "4"]
    assert parse_args(argv + flags).pipeline_options() == PipelineOptions(
        rho_const=0.2, lambda_const=2.0, seed=3, num_interior_knots=4
    )


def test_parse_rejects_bad_alpha_and_h():
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--alpha", "1.5"])
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--h", "-1"])


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
    assert cfg.alpha == 0.10 and cfg.seed == 7
    cfg = parse_args(
        ["fit", "--input", "d.csv", "--x0", "0.5", "--config", str(cfg_file),
         "--alpha", "0.2"]
    )
    assert cfg.alpha == 0.2  # flag beats file
    cfg_file.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(SystemExit2):
        parse_args(["fit", "--input", "d.csv", "--x0", "0.5", "--config",
                    str(cfg_file)])


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
        n_effective=37, mode="estimated",
        diagnostics={"weight_error": None, "window_tail_ratio": 1.2,
                     "flags": {"h": 0.2}},
    )


def test_emit_fit_json_schema(tmp_path):
    path = tmp_path / "fit.json"
    emit_report(fixture_fit(), str(path), "json")
    payload = json.loads(path.read_text())
    assert set(payload) >= {
        "estimate", "variance", "ci_low", "ci_high", "reject_zero",
        "s_n", "sigma1", "alpha", "n_effective", "mode", "diagnostics",
    }
    assert payload["estimate"] == 1.25
    assert payload["reject_zero"] is True


def test_emit_report_round_trip_preserves_floats(tmp_path):
    report = MCReport(
        coverage=0.9375, mean_ci_length=1.234567890123456789,
        bias=-0.000123456789012345, sd=0.5, rmse=0.500000015,
        rejection_rate=0.25, mean_weight_error=float("nan"),
        mean_nuisance_error=0.125, replications=16, failures=0,
    )
    path = tmp_path / "rep.json"
    emit_report(report, str(path), "json")
    payload = json.loads(path.read_text().replace("NaN", "null"))
    assert payload["mean_ci_length"] == report.mean_ci_length
    assert payload["bias"] == report.bias
    assert payload["rmse"] == report.rmse


def test_emit_mc_csv_rows_and_footer(tmp_path):
    report = MCReport(
        coverage=1.0, mean_ci_length=1.0, bias=0.0, sd=0.0, rmse=0.0,
        rejection_rate=0.0, mean_weight_error=0.0, mean_nuisance_error=0.0,
        replications=2, failures=0,
    )
    records = [
        RepRecord(estimate=1.0, ci_low=0.5, ci_high=1.5, ci_length=1.0,
                  covered=True, rejected=False, weight_error=0.0,
                  nuisance_error=0.0),
        RepRecord(estimate=1.1, ci_low=0.6, ci_high=1.6, ci_length=1.0,
                  covered=True, rejected=False, weight_error=0.0,
                  nuisance_error=0.0),
    ]
    path = tmp_path / "mc.csv"
    emit_report(report, str(path), "csv", records=records)
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


def test_main_simulate_writes_dataset(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "60", "--p", "2", "--seed", "5",
                 "--output", str(out)]) == 0
    ds = load_csv(str(out))
    assert ds.n == 60 and ds.p == 2
    capsys.readouterr()


def test_reference_registry_names():
    assert {"lowdim", "highdim", "highdim-oracle", "univariate-oracle"} <= set(
        REFERENCE_CONFIGS
    )
    entry = reference_config("highdim-oracle")
    assert entry["oracle"] is True
    assert entry["config"].p == 300
