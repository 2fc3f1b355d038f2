import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qutritxxz import sweeps
from qutritxxz.cli import build_parser, main
from qutritxxz.model import ModelParams
from qutritxxz.output import csv_text
from qutritxxz.sweeps import CSV_COLUMNS, FIGURE_NAMES, SweepError, SweepSpec, run_sweep


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


def test_negativity_json_ln_z_stays_finite_where_z_overflows(capsys):
    assert main(["negativity", "--R", "0.5", "--Dz", "1", "--T", "1e-5",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Z"] == math.inf
    assert math.isfinite(payload["ln_Z"])
    assert payload["ln_Z"] == pytest.approx(-payload["ground_energy"] / 1e-5, rel=1e-14)
    for t, ln_z in (("0", 0.0), ("inf", math.log(9.0))):
        assert main(["negativity", "--R", "0.5", "--Dz", "1", "--T", t, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ln_Z"] == ln_z


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


def _svg_y_axis(svg_text):
    """The y-axis label and the top tick label of an emitted chart."""
    label = re.search(r'rotate\(-90 [^)]*\)">([^<]*)</text>', svg_text).group(1)
    top = re.search(r'<text x="\d+" y="60" text-anchor="end" font-size="11">([^<]*)</text>',
                    svg_text).group(1)
    return label, top


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_svg_plots_the_column_of_its_figure(name, tmp_path):
    # fig1 is the HF coupling J(R); every other figure plots the negativity
    out, svg = tmp_path / f"{name}.csv", tmp_path / f"{name}.svg"
    assert main(["figure", name, "--out", str(out), "--svg", str(svg)]) == 0
    y = "J" if name == "fig1" else "negativity"
    header, *lines = out.read_text().splitlines()
    top = max(float(dict(zip(header.split(","), line.split(",")))[y]) for line in lines)
    assert _svg_y_axis(svg.read_text()) == (y, repr(top))


def test_sweep_svg_plots_negativity(tmp_path, capsys):
    svg = tmp_path / "sweep.svg"
    assert main(["sweep", "--vary", "R", "--from", "0.5", "--to", "2", "--steps", "7",
                 "--Dz", "1", "--B", "1", "--svg", str(svg)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    top = max(float(dict(zip(header.split(","), line.split(",")))["negativity"])
              for line in lines)
    assert _svg_y_axis(svg.read_text()) == ("negativity", repr(top))


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


def test_critical_dz_no_onset_is_a_json_answer(capsys):
    # N is already above the threshold at Dz = 0: an answer, not an error exit
    assert main(["critical", "--axis", "Dz", "--R", "0.5", "--B", "0", "--T", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "error": "NoOnset", "detail": "negativity already exceeds 0.001 at Dz = 0"}


def test_failing_grid_point_is_a_sweep_error(monkeypatch, capsys):
    point, cause = sweeps._point, ZeroDivisionError("spoiled point")

    def failing(p, T):
        if p.B == 0.5:
            raise cause
        return point(p, T)

    monkeypatch.setattr(sweeps, "_point", failing)
    with pytest.raises(SweepError, match="sweep failed at grid value 0.5") as exc:
        run_sweep(SweepSpec(vary="B", start=0.0, stop=1.0, steps=3))
    assert exc.value.grid_value == 0.5
    assert exc.value.__cause__ is cause
    assert main(["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: sweep failed at grid value 0.5: spoiled point\n"


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
    # the Dz onset scan takes the temperature (and no Dz, which it scans)
    cfg.write_text(json.dumps({"R": 1.0, "T": 7.0}))
    assert main(["critical", "--axis", "Dz", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("argv, key", [
    (["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08"], "Dz"),
    (["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--max", "2"], "B"),
    (["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "3", "--R", "0.5"], "B"),
    (["sweep", "--vary", "Dz", "--from", "0", "--to", "1", "--steps", "3", "--R", "0.5"], "Dz"),
    (["sweep", "--vary", "R", "--from", "0.5", "--to", "1", "--steps", "3"], "R"),
    (["sweep", "--vary", "R", "--from", "0.5", "--to", "1", "--steps", "3"], "J"),
], ids=["critical-Dz", "critical-B", "sweep-B", "sweep-Dz", "sweep-R", "sweep-R-J"])
def test_a_scan_takes_no_value_of_its_own_axis(argv, key, tmp_path, capsys):
    # the scan sets that parameter at every point: a fixed value would be
    # ignored (and --J would replace the J(R) that an R sweep varies)
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [f"--{key}", "0.7"]) == 2
    scans = "R" if key == "J" else key
    assert f"a value of {key} was given, but this command scans {scans}" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: 0.7}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "this command scans" in capsys.readouterr().err


def test_temperature_sweep_takes_no_fixed_temperature(tmp_path, capsys):
    # the grid sets T at every point: a fixed temperature would be ignored
    argv = ["sweep", "--vary", "T", "--from", "0.1", "--to", "1", "--steps", "3"]
    assert main(argv + ["--R", "1", "--T", "3"]) == 2
    assert "does not use one" in capsys.readouterr().err
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"R": 1.0, "T": 3.0}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert main(argv + ["--R", "1"]) == 0
    assert main(["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "3",
                 "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_threshold_is_taken_only_with_the_dz_axis(capsys):
    assert main(["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--threshold", "0.5"]) == 2
    assert "--threshold is taken only with --axis Dz" in capsys.readouterr().err
    onset = ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08"]
    values = []
    for extra in ([], ["--threshold", "1e-3"], ["--threshold", "0.05"]):
        assert main(onset + extra) == 0
        values.append(json.loads(capsys.readouterr().out)["value"])
    assert values[0] == values[1] < values[2]


def test_sweep_meta_writes_negative_zero_as_zero(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--vary", "Dz", "--from=-0.0", "--to", "1", "--steps", "3",
                 "--R", "1", "--B=-0.0", "--T", "0.5", "--out", str(out)]) == 0
    text = (tmp_path / "s.csv.meta.json").read_text()
    assert "-0.0" not in text and "-0.0" not in out.read_text()
    meta = json.loads(text)[0]
    assert math.copysign(1.0, meta["start"]) == math.copysign(1.0, meta["fixed"]["B"]) == 1.0
    assert list(meta) == sorted(meta)
    capsys.readouterr()


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
    ["critical", "--axis", "B", "--R", "1", "--Dz", "1", "--max", "-1"],
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08", "--max", "-1"],
    ["critical", "--axis", "Dz", "--R", "0.3", "--B", "0.5", "--T", "0.08",
     "--threshold", "-1"],
])
def test_bad_scan_and_grid_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("start, stop, steps, message", [
    ("0", "1e300", "3", "grid values overflow when rounded to 10 decimals: "
                        "3 steps on [0.0, 1e+300]"),
    ("-inf", "1", "3", "sweep range must be finite, got [-inf, 1.0]"),
    ("0", "1e300", "2", "grid values overflow when rounded to 10 decimals: "
                        "2 steps on [0.0, 1e+300]"),
], ids=["huge-3-steps", "minus-inf", "huge-2-steps"])
def test_non_finite_sweep_range_is_named(start, stop, steps, message, capsys):
    # the grid rounds through x * 1e10, which overflows above about 1.8e298
    argv = ["sweep", "--vary", "B", "--from", start, "--to", stop, "--steps", steps]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
        # ln_Z is JSON-only: the CSV keeps its fixed header
        assert "ln_Z" not in cells
        numbers = {k: v for k, v in payload.items() if k not in ("grid_param", "ln_Z")}
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


@pytest.mark.parametrize("text", ['[]', '"x"', '{"B": "1"}', '{"gamma": [1]}',
                                  '{"B": null}', '{"R": true}', '{"T": false}'])
def test_config_rejects_what_is_not_an_object_of_numbers(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["negativity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "unknown config keys" not in captured.err and captured.out == ""


def test_config_ints_read_as_the_flags_do(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"R": 1, "Dz": 1}')
    assert main(["negativity", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["negativity", "--R", "1", "--Dz", "1"]) == 0
    assert from_config == capsys.readouterr().out
    # an int no float can hold is an invalid config, not a numerical failure
    cfg.write_text('{"B": 1' + "0" * 330 + "}")
    assert main(["negativity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["negativity", "--R", "1e200"],
    ["spectrum", "--R", "1e200"],
    ["critical", "--axis", "Dz", "--R", "1e200"],
    ["sweep", "--vary", "R", "--from", "100", "--to", "1e200", "--steps", "3"],
], ids=["negativity", "spectrum", "critical-Dz", "sweep"])
def test_huge_r_has_zero_coupling(argv, capsys):
    assert main(argv) == 0


@pytest.mark.parametrize("argv", [
    # r = sqrt(2) 1e308: the mixed pair overflows
    ["spectrum", "--J", "1e308", "--Dz", "1e308"],
    ["negativity", "--J", "1e308", "--Dz", "1e308", "--T", "0"],
    ["critical", "--axis", "B", "--J", "1e308", "--Dz", "1e308"],
    # the levels gamma*J +- 2B overflow, at r > 0 and at r = 0
    ["negativity", "--R", "0.5", "--Dz", "1", "--B", "1e308", "--T", "1"],
    ["negativity", "--J", "0", "--Dz", "0", "--B", "1e308", "--T", "1"],
    ["spectrum", "--R", "0.5", "--Dz", "1", "--B", "1e308"],
    ["spectrum", "--J", "0", "--Dz", "0", "--B", "1e308"],
    # the levels are finite, but chi1 = -2 eps9 / r is not
    ["spectrum", "--J", "5e-324", "--gamma", "1e308", "--Dz", "0"],
], ids=["spectrum", "negativity", "critical-B", "negativity-field", "negativity-field-r0",
        "spectrum-field", "spectrum-field-r0", "spectrum-chi"])
def test_overflow_exits_3(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_huge_coupling_at_the_r_equals_gamma_j_landmark(capsys):
    # r = gamma J = 1e200 is J = 1, Dz = 1e-200 scaled by 1e200: the ground
    # level eps9 = -2 gamma J alone, with N = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["negativity", "--J", "1e200", "--Dz", "1", "--T", "0",
                     "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["negativity"], payload["Z"]) == (1.0, 1.0)
    assert payload["ground_energy"] == -2e200


def test_spectrum_at_huge_coupling(capsys):
    # the dense cross-check squares nothing, so it holds where the levels do
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--J", "1e200", "--Dz", "1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eigenvalues"]["eps9"] == -2e200
    assert payload["max_gap_vs_numeric"] <= 1e-15 * 2e200


@pytest.mark.parametrize("argv", [
    ["negativity", "--J", "1e-50", "--gamma", "1e200", "--Dz", "0", "--T", "1"],
    ["negativity", "--J", "1e-50", "--gamma", "-1e200", "--Dz", "0", "--T", "1"],
    ["sweep", "--vary", "T", "--from", "0.5", "--to", "1", "--steps", "3",
     "--J", "1e-50", "--gamma", "1e200", "--Dz", "0"],
    ["critical", "--axis", "B", "--J", "1e-50", "--gamma", "1e200", "--Dz", "0"],
], ids=["negativity-chi1", "negativity-chi2", "sweep-chi1", "critical-B"])
def test_runs_where_chi_is_huge(argv, capsys):
    # |gamma J| / r = 1e200 makes chi1 (gamma > 0) or chi2 (gamma < 0) about
    # 2e200; the state reads only the levels eps8 and eps9, which stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "critical":
        assert isinstance(json.loads(out), list)
        return
    rows = [dict(zip(CSV_COLUMNS, line.split(","))) for line in out.splitlines()[1:]]
    assert len(rows) == (3 if argv[0] == "sweep" else 1)
    assert all(row["negativity"] == "0.0" for row in rows)


@pytest.mark.parametrize("argv", [
    ["negativity", "--J", "0", "--Dz", "0", "--B", "5e307", "--T", "inf"],
    ["negativity", "--R", "0.5", "--Dz", "1", "--B", "5e307", "--T", "inf"],
], ids=["r0", "r>0"])
def test_infinite_temperature_at_overflowing_level_spread(argv, capsys):
    # gamma*J +- 2B are finite, their difference is not; T = inf is still
    # the maximally mixed state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 0
    header, line = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), line.split(",")))
    assert (row["Z"], row["negativity"]) == ("9.0", "0.0")


@pytest.mark.parametrize("j", [1e-160, 1e-310])
def test_spectrum_at_subnormal_coupling(j, capsys):
    # (gamma J)^2 + 8 r^2 is subnormal here; the levels keep their digits
    assert main(["spectrum", "--J", repr(j), "--Dz", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    chi1, chi2 = payload["chi1"], payload["chi2"]
    eps = payload["eigenvalues"]
    assert chi2 > 0 and chi1 * chi2 == pytest.approx(8.0, rel=1e-12)
    assert eps["eps8"] + eps["eps9"] == pytest.approx(-j, rel=1e-12)


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
        "check_headline", "check_critical_field", "check_critical_dz"]
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


def test_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    # main reuses one parser for the whole process; each call must print
    # what a fresh `python -m qutritxxz.cli` prints, whatever ran before it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.7, "Dz": 1.5, "B": 0.2, "T": 0.3}))
    out = tmp_path / "point.csv"
    point = ["negativity", "--R", "0.9", "--Dz", "1", "--B", "0.1", "--T", "0.2"]
    sequence = [
        ["negativity", "--config", str(cfg), "--format", "json"],
        ["negativity", "--format", "json"],
        [*point, "--out", str(out)],
        point,
        ["spectrum", "--R", "0.5", "--Dz", "1", "--T", "1"],        # DomainError
        ["negativity", "--R", "0.5", "--J", "1"],                  # DomainError
        ["negativity", "--R", "abc"],                              # argparse, exit 2
        ["frobnicate"],                                            # argparse, exit 2
        ["--version"],
        ["negativity", "--R", "0.5", "--Dz", "1", "--B", "1e308"],  # exit 3
        ["negativity", "--R", "8", "--T", "0.5"],                  # R-window warning
        ["negativity", "--B", "-inf"],                             # DomainError
        ["negativity", "--R", "1.5", "--Dz", "-0.5", "--T", "0"],
        ["negativity", "--R", "1.5", "--Dz", "-0.5", "--T", "0", "--format", "json"],
        ["spectrum", "--R", "1", "--Dz", "1", "--B", "1"],
        ["spectrum", "--R", "1", "--Dz", "1", "--B", "1", "--format", "json"],
        ["spectrum", "--J", "0", "--Dz", "0", "--format", "json"],
    ]

    def written():
        return out.read_bytes() if out.exists() else None

    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, written()))
    out.unlink()

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv, got in zip(sequence, in_process):
        proc = subprocess.run([sys.executable, "-m", "qutritxxz.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert got == (proc.returncode, proc.stdout, proc.stderr, written()), argv
    assert [got[0] for got in in_process] == [0, 0, 0, 0, 2, 2, 2, 2, 0, 3, 0, 2, 0, 0, 0, 0, 0]


_SWEEP = ["sweep", "--vary", "B", "--from", "0", "--to", "1", "--steps", "2"]


@pytest.mark.parametrize("argv, failing", [
    (["negativity", "--R", "1", "--out", "missing/point.csv"], "missing/point.csv"),
    (_SWEEP + ["--out", "missing/sweep.csv"], "missing/sweep.csv"),
    (_SWEEP + ["--svg", "missing/sweep.svg"], "missing/sweep.svg"),
    (_SWEEP + ["--out", "sweep.csv"], "sweep.csv.meta.json"),
], ids=["point-out", "sweep-out", "sweep-svg", "meta-json"])
def test_a_failed_write_names_its_own_file(argv, failing, tmp_path, monkeypatch, capsys):
    # "missing" is no directory; a directory squats on the companion meta file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.csv.meta.json").mkdir()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: failed writing {failing}: [Errno ")


def _polyline_points(svg_text):
    return [tuple(map(float, xy.split(",")))
            for pts in re.findall(r'<polyline points="([^"]*)"', svg_text)
            for xy in pts.split()]


def test_svg_of_a_flat_curve_has_finite_coordinates(tmp_path, capsys):
    # r = 0 makes every state separable: N = 0 on every row, a flat y range
    svg = tmp_path / "flat.svg"
    assert main(_SWEEP + ["--J", "0", "--Dz", "0", "--svg", str(svg)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert {dict(zip(header.split(","), line.split(",")))["negativity"]
            for line in lines} == {"0.0"}
    points = _polyline_points(svg.read_text())
    assert len(points) == 2 and all(map(math.isfinite, sum(points, ())))
    assert len({y for _, y in points}) == 1
