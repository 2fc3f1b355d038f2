import json
import math
import warnings

import pytest

from qutritxxz.cli import build_parser, main
from qutritxxz.model import ModelParams
from qutritxxz.output import csv_text
from qutritxxz.sweeps import CSV_COLUMNS, SweepSpec, run_sweep


def test_negativity_point(capsys):
    assert main(["negativity", "--R", "0.5", "--Dz", "1", "--B", "0", "--T", "0.04"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(out[0].split(","), out[1].split(",")))
    assert float(row["negativity"]) == pytest.approx(0.96596, abs=1e-4)


def test_negativity_json(capsys):
    assert main(["negativity", "--J", "1.0", "--T", "0.5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["J"] == 1.0
    assert 0.0 <= payload["negativity"] <= 1.0


def test_spectrum(capsys):
    assert main(["spectrum", "--R", "1", "--Dz", "1", "--B", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eigenvalues"]["eps1"] == pytest.approx(2.024393, abs=1e-5)
    assert payload["max_gap_vs_numeric"] < 1e-10
    assert payload["chi1"] * payload["chi2"] == pytest.approx(8.0, abs=1e-12)


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--vary", "T", "--from", "0.1", "--to", "1.0",
               "--steps", "10", "--R", "0.5", "--Dz", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 11
    assert (tmp_path / "sweep.csv.meta.json").exists()


def test_sweep_point_reproducible(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main(["sweep", "--vary", "B", "--from", "0.0", "--to", "1.0", "--steps", "5",
          "--R", "0.5", "--Dz", "1", "--T", "0.2", "--out", str(out)])
    capsys.readouterr()
    lines = out.read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    assert main(["negativity", "--R", row["R"], "--Dz", row["Dz"], "--B", row["B"],
                 "--gamma", row["gamma"], "--T", row["T"]]) == 0
    out2 = capsys.readouterr().out.splitlines()
    row2 = dict(zip(out2[0].split(","), out2[1].split(",")))
    assert row2["negativity"] == row["negativity"]


def test_figure_preset_with_svg(tmp_path):
    out, svg = tmp_path / "fig4c.csv", tmp_path / "fig4c.svg"
    assert main(["figure", "fig4c", "--out", str(out), "--svg", str(svg)]) == 0
    assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
    assert svg.read_text().startswith("<svg")


def test_critical_field(capsys):
    assert main(["critical", "--axis", "B", "--R", "1", "--Dz", "1",
                 "--max", "2"]) == 0
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 2
    assert points[0]["value"] == pytest.approx(0.539683, abs=1e-5)
    assert points[1]["value"] == pytest.approx(1.246614, abs=1e-5)


def test_critical_field_degenerate_at_zero_field(capsys):
    assert main(["critical", "--axis", "B", "--J", "0", "--Dz", "0", "--max", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == [
        {"parameter": "B", "value": 0.0, "kind": "LevelCrossing", "bracket": [0.0, 0.0]}]


def test_spectrum_at_r0(capsys):
    # H is diagonal; the labels are basis indices + 1
    diagonal = [2.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0, -1.0, -2.0]
    argv = ["spectrum", "--J", "0", "--Dz", "0", "--B", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == (["label,eigenvalue"]
                     + [f"eps{i + 1},{e!r}" for i, e in enumerate(diagonal)]
                     + ["max_gap_vs_numeric,0.0"])
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["eigenvalues"].values()) == diagonal
    assert payload["chi1"] is None and payload["chi2"] is None
    assert payload["numeric_sorted"] == sorted(diagonal)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--R", "1", "--svg", "x.svg"],
    ["negativity", "--R", "1", "--svg", "x.svg"],
    ["critical", "--axis", "B", "--R", "1", "--svg", "x.svg"],
    ["critical", "--axis", "B", "--R", "1", "--format", "csv"],
    ["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "2", "--format", "json"],
    ["figure", "fig1", "--format", "json"],
    ["figure", "fig1", "--R", "3"],
], ids=["spectrum-svg", "negativity-svg", "critical-svg", "critical-format",
        "sweep-format", "figure-format", "figure-R"])
def test_flags_a_command_ignores_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_spectrum_takes_no_temperature(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--R", "1", "--Dz", "1", "--T", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --T" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"R": 1.0, "T": 3.0}))
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "does not use one" in capsys.readouterr().err


def test_critical_field_takes_no_temperature(tmp_path, capsys):
    # the crossings are T = 0 properties: a temperature would be ignored
    assert main(["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--T", "7"]) == 2
    assert "does not use one" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"R": 1.0, "Dz": 1.0, "T": 7.0}))
    assert main(["critical", "--axis", "B", "--config", str(cfg)]) == 2
    assert main(["critical", "--axis", "Dz", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "0.5", "--Dz", "1", "--T", "1e-309"],
    ["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "3", "--T", "1e-320"],
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "5e-324"],
], ids=["negativity", "sweep", "critical-Dz"])
def test_subnormal_temperature_exits_2_without_warnings(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "1/T overflows" in capsys.readouterr().err


def test_tiny_temperature_runs_without_warnings(capsys):
    # beta times a level gap overflows here, though 1/T does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["negativity", "--R", "0.5", "--Dz", "1", "--B", "30",
                     "--T", "1e-307"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[-3:] == ["inf", "-59.89321661549655", "0.0"]


def test_critical_dz(capsys):
    assert main(["critical", "--axis", "Dz", "--R", "0.5", "--B", "0.5",
                 "--T", "0.08"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "NegativityOnset"
    assert 0.0 < payload["value"] < 1.0


def test_mutually_exclusive_r_and_j(capsys):
    assert main(["negativity", "--R", "0.5", "--J", "1.0", "--T", "1"]) == 2


def test_invalid_temperature(capsys):
    assert main(["negativity", "--R", "0.5", "--T", "-1"]) == 2


@pytest.mark.parametrize("flag", ["R", "J", "B", "Dz", "gamma", "T"])
def test_nan_flag_fails_at_the_boundary(flag, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        assert main(["negativity", f"--{flag}", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nan" in err


@pytest.mark.parametrize("value", ["-inf", "-INF", "-Infinity", "-nan", "-NaN"])
def test_negative_inf_and_nan_reach_the_model_check(value, capsys):
    assert not math.isfinite(build_parser().parse_args(["negativity", "--B", value]).B)
    assert main(["negativity", "--R", "0.5", "--B", value]) == 2
    assert capsys.readouterr().err.startswith("error: B must be finite")


@pytest.mark.parametrize("argv", [
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08", "--max", "nan"],
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08",
     "--threshold", "nan"],
    ["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--max", "nan"],
    ["sweep", "--vary", "B", "--from", "0", "--to", "1e-11", "--steps", "3", "--R", "0.5"],
])
def test_bad_scan_and_grid_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "0.5", "--Dz", "-0.0", "--T", "1"],
    ["spectrum", "--R", "1", "--Dz", "-0.0", "--gamma", "0", "--B", "0"],
])
def test_json_and_csv_numbers_agree(argv, capsys):
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if argv[0] == "negativity":
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        numbers = {k: v for k, v in payload.items() if k != "grid_param"}
    else:
        cells = dict(line.split(",") for line in lines[1:10])
        numbers = payload["eigenvalues"]
    assert {k: repr(v) for k, v in numbers.items()} == {k: cells[k] for k in numbers}


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_figure_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig9"])
    assert exc.value.code == 2


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.5, "Dz": 1.0, "B": 0.0, "T": 0.04}))
    assert main(["negativity", "--config", str(cfg)]) == 0
    base = capsys.readouterr().out.splitlines()
    row = dict(zip(base[0].split(","), base[1].split(",")))
    assert float(row["negativity"]) == pytest.approx(0.96596, abs=1e-4)
    # a flag beats the config value
    assert main(["negativity", "--config", str(cfg), "--T", "5.0"]) == 0
    hot = capsys.readouterr().out.splitlines()
    row_hot = dict(zip(hot[0].split(","), hot[1].split(",")))
    assert float(row_hot["T"]) == 5.0
    assert float(row_hot["negativity"]) == 0.0


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.5, "banana": 1}))
    assert main(["negativity", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "1e200"],
    ["spectrum", "--R", "1e200"],
    ["critical", "--axis", "Dz", "--R", "1e200"],
    ["sweep", "--vary", "R", "--from", "100", "--to", "1e200", "--steps", "3"],
], ids=["negativity", "spectrum", "critical-Dz", "sweep"])
def test_huge_r_has_zero_coupling(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    ["spectrum", "--J", "1e200", "--Dz", "1"],
    ["negativity", "--J", "1e200", "--Dz", "1", "--T", "0"],
    ["critical", "--axis", "B", "--J", "1", "--Dz", "1e200"],
], ids=["spectrum", "negativity", "critical-B"])
def test_overflow_exits_3(argv, capsys):
    assert main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_r_outside_window_warns(capsys):
    assert main(["negativity", "--R", "7.5", "--T", "1"]) == 0
    assert "outside the HF validity window" in capsys.readouterr().err


def test_validate_fast(capsys):
    assert main(["validate", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out
    assert "FAIL" not in out


def test_validate_json_reports_the_time_of_each_check(capsys):
    assert main(["validate", "--fast", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["timings"]) == [
        "check_spectrum", "check_hamiltonian_routes", "check_gibbs_routes",
        "check_ground_mixture", "check_symmetries", "check_invariants",
        "check_oracle", "check_negativity_routes", "check_hf_maximum",
        "check_headline", "check_critical_field"]
    assert all(t >= 0.0 for t in report["timings"].values())
    assert sum(report["timings"].values()) <= report["elapsed_seconds"]


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "0.5", "--Dz", "0", "--T", "5"],
    ["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "4", "--R", "0.5"],
    ["figure", "fig1"],
])
def test_stdout_and_out_file_agree(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == printed


def test_separable_point_prints_positive_zero(tmp_path, capsys):
    argv = ["negativity", "--R", "0.5", "--Dz", "0", "--T", "5"]
    out = tmp_path / "n.csv"
    assert main(argv) == 0
    assert main(argv + ["--out", str(out)]) == 0
    for text in (capsys.readouterr().out, out.read_text()):
        assert text.splitlines()[1].split(",")[-1] == "0.0"


def test_spectrum_csv_has_plain_numbers(capsys):
    assert main(["spectrum", "--R", "1", "--Dz", "1", "--B", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "np.float64" not in "\n".join(lines)
    assert lines[1] == "eps1,2.0243934625956985"


@pytest.mark.parametrize("argv, dest", [
    (["negativity", "--R", "-1e-3"], "R"),
    (["negativity", "--J", "-1e-3"], "J"),
    (["negativity", "--B", "-1e-3"], "B"),
    (["negativity", "--Dz", "-1e-3"], "Dz"),
    (["negativity", "--gamma", "-1e-3"], "gamma"),
    (["negativity", "--T", "-1e-3"], "T"),
    (["sweep", "--vary", "B", "--steps", "3", "--to", "1", "--from", "-1e-3"], "start"),
    (["sweep", "--vary", "B", "--steps", "3", "--from", "-2", "--to", "-1E-3"], "stop"),
    (["critical", "--axis", "B", "--max", "-1e-3"], "axis_max"),
    (["critical", "--axis", "Dz", "--threshold", "-1.e-3"], "threshold"),
])
def test_negative_exponent_values(argv, dest):
    assert getattr(build_parser().parse_args(argv), dest) == -1e-3


def test_negative_exponent_dz_point(capsys):
    assert main(["negativity", "--R", "0.5", "--Dz", "-6.9e-05", "--T", "1"]) == 0
    row = dict(zip(CSV_COLUMNS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert row["Dz"] == "-6.9e-05"


def test_negativity_row_is_a_sweep_row(capsys):
    assert main(["negativity", "--R", "0.5", "--Dz", "1", "--T", "1"]) == 0
    sweep = run_sweep(SweepSpec(vary="T", start=1.0, stop=2.0, steps=2,
                                fixed=ModelParams(R=0.5, Dz=1.0)))
    assert capsys.readouterr().out == csv_text(sweep.rows[:1])

