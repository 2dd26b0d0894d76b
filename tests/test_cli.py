import csv
import json
import math
import warnings

import numpy as np
import pytest

from netmoment import (MU0, EstimatorSpec, b3, build_grid, detrend_backward,
                       estimate_moment, sample_field, scene_to_dict)
from netmoment import specfun
from netmoment.cli import main
from netmoment.specfun import IDENTITIES, DomainError


@pytest.fixture()
def scene_file(tmp_path, demo_scene):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_to_dict(demo_scene)))
    return str(path)


@pytest.fixture()
def empty_scene_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"unit_system": "si", "height": 1.0, "dipoles": []}))
    return str(path)


def test_synth_spot_values(tmp_path, scene_file, demo_scene):
    out = tmp_path / "map.csv"
    rc = main(["synth", "--scene", scene_file, "--radius", "7.5e-4",
               "--n-radial", "20", "--n-angular", "24", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 20 * 24
    vals = np.array([float(r["b3"]) for r in rows])
    pts = np.array([[float(r["x1"]), float(r["x2"])] for r in rows])
    top = np.argmax(vals)
    bottom = np.argmin(vals)
    for idx in (top, bottom, 0):
        assert vals[idx] == pytest.approx(float(b3(demo_scene, pts[idx])), rel=1e-12)


def test_synth_empty_scene_zero_column(tmp_path, empty_scene_file):
    out = tmp_path / "map.csv"
    rc = main(["synth", "--scene", empty_scene_file, "--radius", "1e-3",
               "--n-radial", "8", "--n-angular", "8", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert all(float(r["b3"]) == 0.0 for r in rows)


def test_malformed_scene_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unit_system": "si", "height": "high", "dipoles": []}))
    rc = main(["validate-scene", "--scene", str(bad)])
    assert rc == 1
    assert "height" in capsys.readouterr().err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert main(["validate-scene", "--scene", str(notjson)]) == 1


def test_estimate_matches_library_bitwise(tmp_path, scene_file, demo_scene, capsys):
    rc = main(["estimate", "--scene", scene_file, "--radius", "2e-3",
               "--spec", "m1:2", "--spec", "m3:3:x2",
               "--n-radial", "64", "--n-angular", "64"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    fmap = sample_field(demo_scene, build_grid(2e-3, 64, 64))
    assert report["estimates"][0]["estimate"] == estimate_moment(fmap, EstimatorSpec("m1", 2))
    assert report["estimates"][1]["estimate"] == estimate_moment(
        fmap, EstimatorSpec("m3", 3, "x2"))
    assert report["condition_ok"] is True


def test_estimate_flags_condition_margin(tmp_path, scene_file, capsys):
    rc = main(["estimate", "--scene", scene_file, "--radius", "3e-4",
               "--spec", "m1:1", "--n-radial", "16", "--n-angular", "16"])
    assert rc == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["condition_margin"] >= 1.0
    assert report["condition_ok"] is False
    assert "margin" in captured.err


def test_estimate_from_csv_omits_truth(tmp_path, scene_file, capsys):
    out = tmp_path / "map.csv"
    main(["synth", "--scene", scene_file, "--radius", "1e-3",
          "--n-radial", "24", "--n-angular", "24", "--out", str(out)])
    capsys.readouterr()
    rc = main(["estimate", "--field-csv", str(out), "--spec", "m2:1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "net_moment_true" not in report
    assert "true_value" not in report["estimates"][0]
    assert report["radius"] == pytest.approx(1e-3, rel=1e-12)


def test_estimate_requires_input(capsys):
    assert main(["estimate", "--spec", "m1:1"]) == 1
    assert "scene" in capsys.readouterr().err


def test_sweep_deterministic_bytes(tmp_path, scene_file):
    args = ["sweep", "--scene", scene_file, "--radius-min", "7.5e-4",
            "--radius-max", "2e-3", "--radius-count", "12", "--log-spacing",
            "--spec", "m3:2", "--snr-db", "20", "--seed", "42",
            "--detrend-window", "11", "--n-radial", "40", "--n-angular", "48"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_detrend_columns(tmp_path, scene_file):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scene", scene_file, "--radius-min", "7.5e-4",
               "--radius-max", "2e-3", "--radius-count", "12", "--spec", "m3:2",
               "--spec", "m1:1", "--detrend-window", "11",
               "--n-radial", "32", "--n-angular", "32", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    m3_rows = [r for r in rows if r["component"] == "m3"]
    assert m3_rows[0]["detrend_fitted"] == "false"
    assert m3_rows[-1]["detrend_fitted"] == "true"
    assert m3_rows[-1]["detrended_estimate"] != ""
    # the column is the A**-2 backward fit of the CSV's own m3:2 estimates
    series = [(float(r["A"]), float(r["estimate"])) for r in m3_rows]
    expected = detrend_backward(series, 11, power=-2)[-1].value
    assert float(m3_rows[-1]["detrended_estimate"]) == pytest.approx(expected, rel=1e-12)
    m1_rows = [r for r in rows if r["component"] == "m1"]
    assert all(r["detrended_estimate"] == "" for r in m1_rows)
    assert all(r["predicted_error"] != "" for r in m1_rows)


@pytest.mark.parametrize("window", ["11", "2"])
def test_sweep_rejects_detrend_window_outside_radius_count(tmp_path, scene_file, capsys,
                                                            window):
    # a window above the 6 radii used to drop the detrended columns without a word
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scene", scene_file, "--radius-min", "7.5e-4",
               "--radius-max", "2e-3", "--radius-count", "6", "--spec", "m3:2",
               "--detrend-window", window, "--n-radial", "8", "--n-angular", "8",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--detrend-window" in err and "number of radii, 6" in err and f"got {window}" in err
    assert not out.exists()


def test_sweep_bad_range(tmp_path, scene_file, capsys):
    rc = main(["sweep", "--scene", scene_file, "--radius-min", "2e-3",
               "--radius-max", "1e-3", "--radius-count", "5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


def test_verify_specfun_filter_and_perturb(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    rc = main(["verify-specfun", "--filter", "recursion", "--out", str(out)])
    assert rc == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 3
    assert all(r["status"] == "pass" for r in rows)
    rc = main(["verify-specfun", "--filter", "recursion", "--perturb",
               "recursion:n=1", "--out", str(out)])
    assert rc == 1
    rows = list(csv.DictReader(open(out)))
    statuses = {r["check"]: r["status"] for r in rows}
    assert statuses["recursion:n=1"] == "fail"
    assert statuses["recursion:n=2"] == "pass"


def test_verify_specfun_perturb_fails_exactly_its_row(tmp_path):
    out = tmp_path / "checks.csv"
    for name in IDENTITIES:
        rc = main(["verify-specfun", "--filter", name, "--perturb", name, "--out", str(out)])
        statuses = {r["check"]: r["status"] for r in csv.DictReader(open(out))}
        assert rc == 1, name
        assert statuses[name] == "fail", name
        assert all(s == "pass" for check, s in statuses.items() if check != name), name


def test_verify_specfun_unknown_perturb_is_config_error(tmp_path, capsys):
    rc = main(["verify-specfun", "--perturb", "recursion:1", "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    assert "recursion:1" in capsys.readouterr().err


def test_verify_specfun_filter_runs_only_selected_rows(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("a check outside the filter ran")

    monkeypatch.setattr(specfun, "tail_integral_quadrature", broken)
    monkeypatch.setattr(specfun, "ring_trig_integral", broken)
    monkeypatch.setattr(specfun, "_ring_trig_integrals", broken)
    assert main(["verify-specfun", "--filter", "recursion",
                 "--out", str(tmp_path / "c.csv")]) == 0


def test_verify_specfun_failing_row_prints_a_float(tmp_path, monkeypatch):
    j0 = specfun.bessel_j0
    monkeypatch.setattr(specfun, "bessel_j0", lambda x: j0(x) + 0.1)
    out = tmp_path / "c.csv"
    assert main(["verify-specfun", "--filter", "envelope", "--out", str(out)]) == 1
    (row,) = csv.DictReader(open(out))
    assert row["status"] == "fail"
    assert float(row["max_error"]) > 0.0


def test_verify_specfun_nan_error_fails_its_row(tmp_path, monkeypatch):
    monkeypatch.setattr(specfun, "bessel_j0", lambda x: math.nan)
    out = tmp_path / "c.csv"
    assert main(["verify-specfun", "--filter", "bessel:j0", "--out", str(out)]) == 1
    rows = {r["check"]: r for r in csv.DictReader(open(out))}
    assert set(rows) == {"bessel:j0-ring-representation", "bessel:j0-derivative",
                         "bessel:j0-envelope"}
    for name, row in rows.items():
        assert row["status"] == "fail", name
        assert math.isnan(float(row["max_error"])), name


def test_estimate_rejects_scene_with_field_csv(tmp_path, scene_file, capsys):
    out = tmp_path / "map.csv"
    assert main(["synth", "--scene", scene_file, "--radius", "1e-3",
                 "--n-radial", "8", "--n-angular", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["estimate", "--scene", scene_file, "--field-csv", str(out), "--spec", "m1:1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "--scene" in captured.err and "--field-csv" in captured.err


@pytest.mark.parametrize("flag, value", [("--radius", "5e-3"), ("--snr-db", "0")])
def test_estimate_rejects_synthesis_flags_with_field_csv(tmp_path, scene_file, capsys,
                                                         flag, value):
    out = tmp_path / "map.csv"
    assert main(["synth", "--scene", scene_file, "--radius", "7.5e-4",
                 "--n-radial", "8", "--n-angular", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["estimate", "--field-csv", str(out), "--spec", "m1:1", flag, value,
               "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert flag in captured.err and "--field-csv" in captured.err
    # the flag is rejected before the file is opened
    rc = main(["estimate", "--field-csv", str(tmp_path / "missing.csv"), flag, value])
    captured = capsys.readouterr()
    assert rc == 1
    assert flag in captured.err and "No such file" not in captured.err


@pytest.mark.parametrize("flags", [["--n-radial", "8"], ["--n-angular", "8"], ["--seed", "9"],
                                   ["--plain-variance"]])
def test_estimate_rejects_grid_and_noise_flags_with_field_csv(tmp_path, scene_file, capsys,
                                                              flags):
    out = tmp_path / "map.csv"
    assert main(["synth", "--scene", scene_file, "--radius", "7.5e-4",
                 "--n-radial", "8", "--n-angular", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["estimate", "--field-csv", str(out), "--spec", "m1:1", *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert flags[0] in captured.err and "--field-csv" in captured.err
    # the flag is rejected before the file is opened
    rc = main(["estimate", "--field-csv", str(tmp_path / "missing.csv"), *flags])
    captured = capsys.readouterr()
    assert rc == 1
    assert flags[0] in captured.err and "No such file" not in captured.err


def test_estimate_rejects_nan_radius(scene_file, capsys):
    rc = main(["estimate", "--scene", scene_file, "--radius", "nan", "--spec", "m1:1"])
    assert rc == 1
    assert "radius" in capsys.readouterr().err


def test_estimate_rejects_nan_node_in_field_csv(tmp_path, scene_file, capsys):
    out = tmp_path / "map.csv"
    assert main(["synth", "--scene", scene_file, "--radius", "7.5e-4",
                 "--n-radial", "8", "--n-angular", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    out.write_text("".join(lines))
    capsys.readouterr()
    rc = main(["estimate", "--field-csv", str(out), "--spec", "m1:1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "first node 0 at (nan, " in captured.err


def test_verify_specfun_filter_matching_nothing_is_config_error(tmp_path, capsys):
    # it used to exit 0 with a header-only CSV
    out = tmp_path / "empty.csv"
    rc = main(["verify-specfun", "--filter", "nonexistent-check", "--out", str(out)])
    assert rc == 1
    assert "--filter 'nonexistent-check' matches no check" in capsys.readouterr().err
    assert not out.exists()


def test_verify_specfun_perturb_outside_filter_is_config_error(tmp_path, capsys):
    # the filter used to drop the perturbed row and exit 0
    out = tmp_path / "c.csv"
    rc = main(["verify-specfun", "--filter", "recursion", "--perturb", "tail:j0_total",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--perturb 'tail:j0_total'" in err and "--filter 'recursion'" in err
    assert not out.exists()


def test_verify_specfun_filtered_tail_row_equals_full_run_row(tmp_path):
    # a tail row run alone computes its group on its own, with an empty cache
    rows = {}
    for label, argv in (("alone", ["--filter", "tail:j1_over_x_p5"]), ("full", [])):
        specfun._tail_quadratures.cache_clear()
        out = tmp_path / f"{label}.csv"
        assert main(["verify-specfun", *argv, "--out", str(out)]) == 0
        rows[label] = {line.split(",", 1)[0]: line
                       for line in out.read_text().splitlines()[1:]}
    assert list(rows["alone"]) == ["tail:j1_over_x_p5"]
    assert rows["alone"]["tail:j1_over_x_p5"] == rows["full"]["tail:j1_over_x_p5"]


def test_sweep_repeated_spec_is_run_once(tmp_path, scene_file, capsys):
    # a repeated --spec wrote its rows once per repeat, and with a detrend
    # window the repeated m3 series failed as not strictly ascending in radius
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scene", scene_file, "--radius-min", "7.5e-4",
               "--radius-max", "2e-3", "--radius-count", "4", "--spec", "m1:1",
               "--spec", "m3:2", "--spec", "m1:1", "--spec", "m3:2", "--detrend-window", "3",
               "--n-radial", "8", "--n-angular", "8", "--out", str(out)])
    assert rc == 0
    assert "wrote 8 rows" in capsys.readouterr().out
    rows = list(csv.DictReader(open(out)))
    assert [(r["component"], r["order"]) for r in rows] == [("m1", "1")] * 4 + [("m3", "2")] * 4
    assert rows[-1]["detrend_fitted"] == "true"


@pytest.mark.parametrize("flag, value", [("--radius", "nan"), ("--radius-min", "nan"),
                                         ("--radius-max", "nan"), ("--radius-max", "inf")])
def test_sweep_rejects_nonfinite_radius_flags(tmp_path, scene_file, capsys, flag, value):
    # these failed only inside the sweep, not naming the flag, and inf leaked a
    # RuntimeWarning from numpy; the last of a repeated flag is the one used
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--scene", scene_file, "--radius-min", "7.5e-4",
                   "--radius-max", "2e-3", "--radius-count", "3", flag, value,
                   "--spec", "m1:1", "--n-radial", "8", "--n-angular", "8",
                   "--out", str(out)])
    assert rc == 1
    assert f"{flag} must be finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--radius-min", "5e-4"], ["--radius-max", "2e-3"],
                                   ["--radius-count", "5"], ["--log-spacing"]])
def test_sweep_rejects_range_flags_with_radius(tmp_path, scene_file, capsys, flags):
    # a single --radius wrote one row and dropped these without a word
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scene", scene_file, "--radius", "1e-3", *flags, "--spec", "m1:1",
               "--n-radial", "8", "--n-angular", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and not out.exists()
    assert f"{flags[0]} shapes a radius range and cannot go with --radius" in captured.err


def test_domain_error_exit_code(monkeypatch, tmp_path, scene_file):
    import netmoment.cli as cli_mod

    def boom(args):
        raise DomainError("argument beyond special-function domain")

    monkeypatch.setattr(cli_mod, "cmd_validate_scene", boom)
    parser_rc = main(["validate-scene", "--scene", scene_file])
    assert parser_rc == 2


def test_validate_scene_reports_moment(scene_file, capsys):
    assert main(["validate-scene", "--scene", scene_file]) == 0
    out = capsys.readouterr().out
    assert "4 dipole(s)" in out
    assert "net moment" in out


def test_estimate_out_writes_the_report_to_a_file(tmp_path, scene_file, capsys):
    args = ["estimate", "--scene", scene_file, "--radius", "2e-3", "--spec", "m1:2",
            "--n-radial", "16", "--n-angular", "16"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


def test_one_radius_sweep_and_estimate_draw_the_same_noisy_map(tmp_path, scene_file, capsys):
    # both synthesise through one path, and one radius is noise stream 0
    flags = ["--scene", scene_file, "--radius", "2e-3", "--snr-db", "20", "--seed", "5"]
    assert main(["estimate", *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *flags, "--out", str(out)]) == 0
    rows = {(r["component"], int(r["order"]), r["axis"] or None): float(r["estimate"])
            for r in csv.DictReader(open(out))}
    estimates = {(e["component"], e["order"], e["axis"]): e["estimate"]
                 for e in report["estimates"]}
    assert len(estimates) == 15
    assert rows == estimates


def test_sweep_rejects_an_incomplete_radius_range(tmp_path, scene_file, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scene", scene_file, "--radius-min", "1e-3", "--radius-max", "2e-3",
               "--out", str(out)])
    assert rc == 1
    assert "provide --radius or all of" in capsys.readouterr().err
    assert not out.exists()


def test_estimate_from_a_scene_needs_a_radius(scene_file, capsys):
    assert main(["estimate", "--scene", scene_file, "--spec", "m1:1"]) == 1
    assert "estimate from a scene needs --radius" in capsys.readouterr().err


def test_bad_spec_is_a_configuration_error(scene_file, capsys):
    assert main(["estimate", "--scene", scene_file, "--radius", "2e-3", "--spec", "m1:x"]) == 1
    assert "error: order in 'm1:x' must be an integer" in capsys.readouterr().err


def test_natural_map_read_back_estimates_like_the_scene(tmp_path, demo_scene_natural, capsys):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene_to_dict(demo_scene_natural)))
    grid = ["--radius", "2e-3", "--n-radial", "40", "--n-angular", "64"]
    out = tmp_path / "map.csv"
    assert main(["synth", "--scene", str(path), *grid, "--out", str(out)]) == 0
    capsys.readouterr()
    estimates = {}
    for label, argv in (("scene", ["--scene", str(path), *grid]),
                        ("natural", ["--field-csv", str(out), "--unit-system", "natural"]),
                        ("si", ["--field-csv", str(out)])):
        assert main(["estimate", *argv]) == 0
        report = json.loads(capsys.readouterr().out)
        estimates[label] = [e["estimate"] for e in report["estimates"]]
    assert estimates["natural"] == estimates["scene"]
    # read as si, the same numbers are tesla and every moment is scaled by 1/mu0
    assert estimates["si"] == pytest.approx([v / MU0 for v in estimates["scene"]], rel=1e-12)


def test_estimate_rejects_unit_system_with_scene(scene_file, capsys):
    rc = main(["estimate", "--scene", scene_file, "--radius", "2e-3", "--spec", "m1:1",
               "--unit-system", "si"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "--unit-system" in captured.err and "--field-csv" in captured.err


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--plain-variance"]])
@pytest.mark.parametrize("command", ["synth", "estimate", "sweep"])
def test_noise_flags_without_snr_are_rejected(tmp_path, scene_file, capsys, command, flags):
    out = tmp_path / "out.csv"
    argv = [command, "--scene", scene_file, "--radius", "2e-3", "--n-radial", "8",
            "--n-angular", "8", *flags]
    rc = main(argv if command == "estimate" else argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == "" and not out.exists()
    assert f"{flags[0]} shapes the noise and needs --snr-db" in captured.err
