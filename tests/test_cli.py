"""Command-line interface: sweeps, scan, verify, error handling."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from artifact import cli, plasma_sheet, slab, verification
from artifact.numkernel import DEFAULT_SETTINGS, QuadratureError
from artifact.spectral import ThermoPoint


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_sheet_sweep(tmp_path):
    out = tmp_path / "sheet.csv"
    rc = cli.main(["sheet", "--omega0", "0.5", "--tmin", "0.5",
                   "--tmax", "2.0", "--tpts", "2", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["T"]) == pytest.approx(0.5)
    assert float(rows[-1]["T"]) == pytest.approx(2.0)
    for row in rows:
        assert float(row["F_total"]) == pytest.approx(
            float(row["F_TE_subtr"]) + float(row["F_TM_subtr"])
            + float(row["F_sf_subtr"]), rel=1e-12)
        assert float(row["quad_error"]) < 1e-6


def test_sheet_partial_parts_leaves_nan(tmp_path):
    out = tmp_path / "sheet.csv"
    rc = cli.main(["sheet", "--parts", "TE", "--tmin", "1", "--tmax", "1",
                   "--tpts", "1", "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert math.isfinite(float(row["F_TE_subtr"]))
    assert row["F_TM_subtr"] == "nan"
    assert row["F_total"] == "nan"


def test_jobs_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sheet", "--omega0", "0:0.8:3", "--tmin", "0.5", "--tmax", "5",
            "--tpts", "2"]
    assert cli.main(args + ["--out", str(a), "--jobs", "1"]) == 0
    assert cli.main(args + ["--out", str(b), "--jobs", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()
    # quad_error must not depend on what ran before in the process.
    slab_args = ["slab", "--omegap", "1.25", "--L", "0.75", "--tmin", "1e-2",
                 "--tmax", "1e-1", "--tpts", "1"]
    outs = [tmp_path / f"slab{i}.csv" for i in range(3)]
    for out, jobs in zip(outs, ("1", "1", "2")):
        assert cli.main(slab_args + ["--out", str(out), "--jobs", jobs]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    # One parameter point's 33 temperatures are three tasks.
    for out, jobs in zip(outs, ("1", "2")):
        assert cli.main(["sheet", "--out", str(out), "--jobs", jobs]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # Each scan row integrates its whole T grid in one panel-rule call.
    scan_args = ["scan", "--omega0", "0.6:0.9:4", "--tmax", "100",
                 "--tpts", "4"]
    scans = [tmp_path / f"scan{i}.csv" for i in range(3)]
    for out, jobs in zip(scans, ("1", "1", "3")):
        assert cli.main(scan_args + ["--out", str(out), "--jobs", jobs]) == 0
    assert scans[0].read_bytes() == scans[1].read_bytes() \
        == scans[2].read_bytes()


def test_sheet_stdout(capsys):
    rc = cli.main(["sheet", "--tmin", "1", "--tmax", "1", "--tpts", "1",
                   "--out", "-"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("Omega0,omega0,T,")
    assert len(lines) == 2


def test_slab_sweep_with_plasmon(tmp_path):
    out = tmp_path / "slab.csv"
    plas = tmp_path / "plasmon.csv"
    rc = cli.main(["slab", "--tmin", "1", "--tmax", "1", "--tpts", "1",
                   "--kpts", "5", "--plasmon-out", str(plas),
                   "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    assert len(rows) == 1
    assert float(rows[0]["F_total"]) == pytest.approx(
        sum(float(rows[0][c]) for c in
            ("F_s_TE_subtr", "F_s_TM_subtr", "F_L_TE", "F_L_TM",
             "F_exp_subtr")), rel=1e-12)
    prows = _read_csv(plas)
    assert len(prows) == 5
    for row in prows:
        assert row["included_in_totals"] == "no"
        assert float(row["omega_sf"]) <= 1.0 / math.sqrt(2.0) + 1e-12
        assert float(row["residual"]) < 1e-6


def test_plasmon_residual_holds_on_single_surface_rows(tmp_path):
    # From L = 1.73 and k = 10 on, tanh(gamma L) saturates and the slab
    # plasmon is the single-surface mode; there rho has a pole and
    # e^{-2 gamma L} underflows, and |1 - rho^2 e^{-2 gamma L}| read 1.0.
    plas = tmp_path / "plasmon.csv"
    rc = cli.main(["slab", "--L", "0.1:5:4", "--tmin", "1", "--tmax", "1",
                   "--tpts", "1", "--parts", "exp", "--kmin", "0.01",
                   "--kmax", "100", "--kpts", "9", "--plasmon-out",
                   str(plas), "--out", str(tmp_path / "slab.csv")])
    assert rc == 0
    prows = _read_csv(plas)
    assert len(prows) == 36
    for row in prows:
        assert float(row["residual"]) <= 1e-10, row


def test_plasmon_rows_solve_from_light_line_to_thick_slabs(tmp_path):
    # Below k = 1e-2 omega_p the mode hugs the light line, where eta^2 =
    # (k - omega)(k + omega) resolves a correctly rounded omega only to
    # eps k, so the residual is gated from k = 1e-2 on and omega itself
    # at every k.
    plas = tmp_path / "plasmon.csv"
    rc = cli.main(["slab", "--L", "0.01:50:5", "--tmin", "1", "--tmax", "1",
                   "--tpts", "1", "--parts", "exp", "--kmin", "1e-6",
                   "--kmax", "1e4", "--kpts", "21", "--plasmon-out",
                   str(plas), "--out", str(tmp_path / "slab.csv")])
    assert rc == 0
    prows = _read_csv(plas)
    assert len(prows) == 105
    for row in prows:
        k, w = float(row["k"]), float(row["omega_sf"])
        assert math.isfinite(w), row
        assert w <= 1.0 / math.sqrt(2.0) and w < k, row
        if k >= 1e-2:
            assert float(row["residual"]) <= 1e-10, row


def test_scan_locates_negative_window(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--omega0", "0.68:0.74:4", "--tmax", "100",
                   "--tpts", "8", "--out", str(out)])
    assert rc == 0
    rows = _read_csv(out)
    cs = [float(r["c_logT"]) for r in rows]
    assert cs[0] > 0.0 and cs[-1] < 0.0
    # entropy dips negative only where the log coefficient is negative
    for r in rows:
        if float(r["S_total_min"]) < 0.0:
            assert float(r["c_logT"]) < 0.0


def test_scan_row_with_omega0_next_to_a_breakpoint(tmp_path):
    out = tmp_path / "scan.csv"
    w0 = 0.9999999999999996
    rc = cli.main(["scan", "--omega0", repr(w0), "--tmin", "1", "--tmax", "1",
                   "--out", str(out)])
    assert rc == 0
    row = _read_csv(out)[0]
    assert row["quad_error"] != "failed"
    assert float(row["c_logT"]) == pytest.approx(
        (w0 * w0 - 0.5) * (1.0 - (w0 * w0 - 0.5)) / (-4.0 * math.pi),
        abs=1e-9)
    assert math.isfinite(float(row["S_total_min"]))


def test_scan_through_a_breakpoint_roundoff_point(tmp_path):
    # this grid meets a TM entropy integral on which QUADPACK's
    # breakpoint routine stalls on roundoff at omega0 = 0.5435...
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--omega0",
                   "0.5435269975350088:1.4435269975350087:10",
                   "--tmin", "0.0076685312525454396", "--tmax", "1000",
                   "--tpts", "7.8196968577745585", "--out", str(out)])
    assert rc == 0
    assert all(r["quad_error"] != "failed" for r in _read_csv(out))


def test_verify_json_and_exit_code(capsys):
    rc = cli.main(["verify", "nernst"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows
    assert all(r["pass"] for r in rows)
    assert {r["suite"] for r in rows} == {"nernst"}
    keys = set(rows[0])
    assert {"suite", "check", "expected", "measured",
            "tolerance", "pass"} <= keys


def test_verify_failing_suite_exits_one(capsys, monkeypatch):
    failing = verification.CheckResult(
        "nernst", "deliberately failing check", 1.0, 2.0, 1e-2, False)
    monkeypatch.setattr(verification, "run_suite",
                        lambda suite, settings=None: [failing])
    rc = cli.main(["verify", "nernst"])
    assert rc == 1
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 1
    assert rows[0]["check"] == "deliberately failing check"
    assert rows[0]["pass"] is False


def test_verify_suite_stopped_by_quadrature_error(capsys, monkeypatch):
    # A suite that raises becomes one failed row; the other suites still
    # print theirs, and the run exits 1 without a traceback.
    def stop(settings):
        raise QuadratureError("quadrature on [0, 1] did not\n  converge")

    monkeypatch.setitem(verification._RUNNERS, "constants", stop)
    rc = cli.main(["verify", "nernst", "constants"])
    assert rc == 1
    rows = [json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()]
    assert {r["suite"] for r in rows if r["pass"]} == {"nernst"}
    assert [r for r in rows if not r["pass"]] == [{
        "suite": "constants",
        "check": "suite stopped: quadrature on [0, 1] did not converge",
        "expected": "completes", "measured": "nan", "tolerance": 0.0,
        "pass": False}]


def test_rows_of_failed_quadratures(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise QuadratureError("did not converge")

    monkeypatch.setattr(plasma_sheet, "total", fail)
    monkeypatch.setattr(slab, "total", fail)
    monkeypatch.setattr(slab, "plasmon_dispersion", fail)
    one_T = ["--tmin", "1", "--tmax", "1", "--tpts", "1"]
    out = {name: tmp_path / f"{name}.csv"
           for name in ("sheet", "slab", "plasmon", "scan")}
    assert cli.main(["sheet", *one_T, "--out", str(out["sheet"])]) == 0
    assert cli.main(["slab", *one_T, "--out", str(out["slab"]),
                     "--plasmon-out", str(out["plasmon"]), "--kmin", "1",
                     "--kmax", "1", "--kpts", "1"]) == 0
    assert cli.main(["scan", "--omega0", "0.8", *one_T,
                     "--out", str(out["scan"])]) == 0
    for model in ("sheet", "slab"):
        row = out[model].read_text().splitlines()[1].split(",")
        assert row[3:] == ["nan"] * (len(row) - 4) + ["failed"]
    assert out["scan"].read_text().splitlines()[1] \
        == "1.000000000000e+00,8.000000000000e-01,nan,nan,nan,failed"
    assert out["plasmon"].read_text().splitlines()[1].endswith(
        ",nan,nan,no")


def test_log_range_form(tmp_path, monkeypatch):
    out = tmp_path / "sheet.csv"
    assert cli.main(["sheet", "--omega0", "0.1:1:3:log", "--parts", "TE",
                     "--tmin", "1", "--tmax", "1", "--tpts", "1",
                     "--out", str(out)]) == 0
    assert [float(r["omega0"]) for r in _read_csv(out)] == pytest.approx(
        [0.1, math.sqrt(0.1), 1.0], rel=1e-12)
    # A log range needs a positive start, and "log" is its only suffix.
    for bad in ("0:1:3:log", "0.1:1:3:lin"):
        _assert_usage_error(["sheet", "--omega0", bad], monkeypatch)


def test_config_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega0": "0.5", "tmin": 1.0,
                               "tmax": 1.0, "tpts": 1}))
    out_a = tmp_path / "a.csv"
    assert cli.main(["sheet", "--config", str(cfg),
                     "--out", str(out_a)]) == 0
    assert float(_read_csv(out_a)[0]["omega0"]) == pytest.approx(0.5)
    out_b = tmp_path / "b.csv"
    assert cli.main(["sheet", "--config", str(cfg), "--omega0", "0.9",
                     "--out", str(out_b)]) == 0
    assert float(_read_csv(out_b)[0]["omega0"]) == pytest.approx(0.9)


@pytest.mark.parametrize("argv", [
    ["sheet", "--tmin", "5", "--tmax", "2"],
    ["sheet", "--tmin", "-1", "--tmax", "2"],
    ["sheet", "--parts", "TE,XX"],
    ["slab", "--parts", "bulk"],
    ["verify", "bogus"],
    ["sheet", "--omega0", "1:2"],
    ["sheet", "--Omega0", "0"],
    ["sheet", "--omega0", "-0.5"],
    ["slab", "--L", "0"],
    ["scan", "--omega0", "-1"],
    ["slab", "--plasmon-out", "x", "--kpts", "0"],
    ["sheet", "--config", "no-such-config.json"],
    # Non-finite numbers and tolerances no quadrature can meet once ended
    # in a traceback or wrote wrong rows with exit 0.
    ["slab", "--tmin", "nan", "--tmax", "1"],
    ["slab", "--tpts", "nan"],
    ["slab", "--tmax", "inf"],
    ["slab", "--tmin", "inf", "--tmax", "inf"],
    ["slab", "--rel-tol", "0", "--abs-tol", "0"],
    ["slab", "--abs-tol=-1e-12"],
    ["sheet", "--abs-tol", "nan"],
    ["sheet", "--abs-tol", "inf"],
    ["scan", "--rel-tol", "inf"],
    ["verify", "nernst", "--abs-tol", "nan"],
    ["slab", "--plasmon-out", "-", "--kmin", "nan"],
    ["slab", "--plasmon-out", "-", "--kmax", "inf"],
])
def test_usage_errors_exit_two(argv, monkeypatch, capsys):
    _assert_usage_error(argv, monkeypatch)
    assert capsys.readouterr().out == ""


def _assert_usage_error(argv, monkeypatch):
    def no_work(*args):
        raise AssertionError("a usage error must stop before any work")

    monkeypatch.setattr(cli, "_run_tasks", no_work)
    monkeypatch.setattr(verification, "run_suite", no_work)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("content", [
    "{not json", "[1, 2]", '{"tmni": 1.0}', '{"driver": 1}',
    '{"command": "slab"}',
    # Config values meet the same converters and checks as typed flags.
    '{"abs_tol": NaN}', '{"tmax": Infinity}', '{"tpts": "nan"}',
    '{"rel_tol": 0, "abs_tol": 0}', '{"tmin": [0.1]}',
    # Integer flags meet their converters; true and null are no values.
    '{"kpts": 2.5}', '{"jobs": 1.5}', '{"jobs": true}',
    '{"plasmon_out": null}',
], ids=["invalid-json", "list", "unknown-key", "driver", "command",
        "nan-tolerance", "infinite-tmax", "nan-string", "zero-tolerances",
        "list-value", "fractional-kpts", "fractional-jobs", "boolean-jobs",
        "null-plasmon-out"])
def test_bad_config_file_exits_two(content, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    _assert_usage_error(["slab", "--config", str(cfg)], monkeypatch)
    assert capsys.readouterr().out == ""


# (subcommand, flag, config key, a value its converter refuses) for every
# numeric flag of every subcommand.
_BAD_VALUES = {cli._finite: "nan", cli._count: 2.5, cli._range: "1:2",
               int: 1.5, float: "x"}
_NUMERIC_FLAGS = [
    (cmd, action.option_strings[0], action.dest, _BAD_VALUES[action.type])
    for cmd, sub in cli._build_parser()[1].items()
    for action in sub._actions if action.type in _BAD_VALUES]


@pytest.mark.parametrize("cmd, flag, key, bad", _NUMERIC_FLAGS,
                         ids=[f"{c}{f}" for c, f, _, _ in _NUMERIC_FLAGS])
def test_bad_value_is_refused_alike_typed_or_from_config(
        cmd, flag, key, bad, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: bad}))
    errors = []
    for argv in ([cmd, flag, str(bad)], [cmd, "--config", str(cfg)]):
        _assert_usage_error(argv, monkeypatch)
        out, err = capsys.readouterr()
        assert out == ""
        errors.append([line for line in err.splitlines() if "error:" in line])
    assert len(errors[0]) == 1 and errors[0] == errors[1]


def test_bad_config_value_is_refused_under_an_explicit_flag(
        tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"kpts": 0}')
    _assert_usage_error(["slab", "--config", str(cfg), "--kpts", "4"],
                        monkeypatch)


@pytest.mark.parametrize("cmd, parsed", [
    ("sheet", {"Omega0": (1.0,), "omega0": (0.0,),
               "parts": ("TE", "TM", "sf")}),
    ("slab", {"omegap": (1.0,), "L": (1.0,), "parts": ("s", "L", "exp"),
              "kpts": 64}),
    ("scan", {"Omega0": 1.0, "omega0": tuple(np.linspace(0.6, 0.95, 71)),
              "tmax": 1e3, "tpts": 32.0}),
    ("verify", {"suites": []}),
])
def test_each_subcommand_parses_its_defaults(cmd, parsed, capsys):
    # String defaults pass through the converters on every run.
    args = cli._build_parser()[0].parse_args([cmd])
    assert {key: getattr(args, key) for key in parsed} == parsed
    with pytest.raises(SystemExit) as exc:
        cli.main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: thermo {cmd}")


def test_scale_rescales_stderr_labels_only(tmp_path, capsys):
    out = tmp_path / "s.csv"
    rc = cli.main(["sheet", "--tmin", "1", "--tmax", "1", "--tpts", "1",
                   "--scale", "0.01", "--out", str(out)])
    assert rc == 0
    # CSV stays in working units; the summary label is rescaled
    assert float(_read_csv(out)[0]["T"]) == pytest.approx(1.0)
    assert "0.01" in capsys.readouterr().err


def test_scan_scale_rescales_stderr_labels_only(tmp_path, capsys):
    # The scan's notes give omega0 in units of --scale, as the sweeps'
    # notes give T; the CSV stays in working units.
    argv = ["scan", "--omega0", "0.72:0.9:3", "--tmin", "1", "--tmax",
            "100", "--tpts", "1"]
    rows, notes = [], []
    for scale in ("1", "10"):
        out = tmp_path / f"scan_{scale}.csv"
        assert cli.main([*argv, "--scale", scale, "--out", str(out)]) == 0
        rows.append(out.read_bytes())
        notes.append(capsys.readouterr().err)
    assert rows[0] == rows[1]
    assert "omega0 in [0.72, 0.9] (expected" in notes[0]
    assert "Omega0/sqrt(2) ~ 0.707107" in notes[0]
    assert "omega0 in [7.2, 9] (expected" in notes[1]
    assert "Omega0/sqrt(2) ~ 7.07107" in notes[1]
    assert "S_total < 0 found for omega0 in [7.2, 9]" in notes[1]


def _quad_error(argv, tmp_path):
    out = tmp_path / "row.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    (row,) = _read_csv(out)
    return float(row["quad_error"])


def _largest(point):
    errors = [float(np.max(e)) for e in point.F_error + point.S_error]
    assert len(errors) == 2 * len(point.names) and min(errors) >= 0.0
    return max(errors)


def test_quad_error_is_the_largest_part_error(tmp_path):
    # A sheet, a slab and a partial --parts row: quad_error is the largest
    # F or S error estimate of the row's ThermoPoint (at unit scale).
    T = ["--tmin", "0.7", "--tmax", "0.7"]
    sheet = plasma_sheet.SheetParams(Omega0=2.0, omega0=1.6)
    params = slab.SlabParams(omega_p=1.0, L=0.5)
    partial = [p for p in slab.PARTS if p.group in ("s", "exp")]
    cases = [
        (["sheet", "--Omega0", "2", "--omega0", "1.6", *T],
         plasma_sheet.total(0.7, sheet)),
        (["slab", "--L", "0.5", *T], slab.total(0.7, params)),
        (["slab", "--L", "0.5", "--parts", "s,exp", *T],
         ThermoPoint.evaluate(partial, 0.7, params, DEFAULT_SETTINGS)),
    ]
    for argv, point in cases:
        assert _quad_error(argv, tmp_path) == float(
            format(_largest(point), ".12e")), argv
    assert len(cases[2][1].names) == 3


def test_scan_c_logT_is_the_closed_form(tmp_path, monkeypatch):
    # A scan row integrates no sum rule: c_logT is the closed form, exact
    # at any scale, and quad_error is the parts' largest error estimate.
    def no_sum_rule(*args):
        raise AssertionError("a scan row integrates no sum rule")

    monkeypatch.setattr(plasma_sheet, "spectral_sum_rule", no_sum_rule)
    for Omega0, omega0 in ((1.0, 0.8), (2.0, 1.6)):
        argv = ["scan", "--Omega0", repr(Omega0), "--omega0", repr(omega0),
                "--tmin", "0.02", "--tmax", "0.02"]
        out = tmp_path / "scan.csv"
        assert cli.main([*argv, "--out", str(out)]) == 0
        (row,) = _read_csv(out)
        params = plasma_sheet.SheetParams(Omega0, omega0)
        assert row["c_logT"] == format(
            plasma_sheet.high_T_log_coefficient_closed(params), ".12e")
        point = plasma_sheet.total(np.array([0.02]), params)
        assert float(row["quad_error"]) == float(
            format(_largest(point), ".12e"))


def test_scan_row_is_scale_covariant(tmp_path):
    # The parts run at Omega0 = 1, so doubling Omega0, omega0 and T keeps
    # the row's quad_error and multiplies c_logT and S_total_min by 4.
    rows = []
    for Omega0, omega0, T in (("2", "1.6", "0.02"), ("1", "0.8", "0.01")):
        out = tmp_path / f"scan_{Omega0}.csv"
        assert cli.main(["scan", "--Omega0", Omega0, "--omega0", omega0,
                         "--tmin", T, "--tmax", T, "--out", str(out)]) == 0
        rows.extend(_read_csv(out))
    doubled, unit = rows
    assert doubled["quad_error"] == unit["quad_error"]
    for col in ("c_logT", "S_total_min"):  # to the 13 printed digits
        assert float(doubled[col]) == pytest.approx(4.0 * float(unit[col]),
                                                    rel=1e-11)


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported by the QUADPACK and root-finding calls that need
    # it, so importing the CLI, a sheet run and a scan never pay for it.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, sys, artifact.cli; "
            "artifact.cli.main(['sheet', '--tmin', '1', '--tmax', '1', "
            "'--out', os.devnull]); "
            "artifact.cli.main(['scan', '--omega0', '0.7:0.8:2', "
            "'--tpts', '4', '--out', os.devnull]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_tasks_hold_blocks_of_a_point_grid(monkeypatch, tmp_path):
    # A one-point sweep is split into tasks of at most 16 temperatures,
    # whatever --jobs is, so --jobs has tasks to spread.
    sizes = []
    run = cli._run_tasks

    def recorded(worker, tasks, jobs):
        sizes.extend(len(task[3]) for task in tasks)
        return run(worker, tasks, jobs)

    monkeypatch.setattr(cli, "_run_tasks", recorded)
    out = tmp_path / "sheet.csv"
    assert cli.main(["sheet", "--out", str(out)]) == 0
    assert sizes == [11, 11, 11]
    assert len(_read_csv(out)) == 33


def test_sweep_row_matches_its_temperature_run_alone(tmp_path):
    # A sweep runs each parameter point's T grid in one call per part and
    # block of temperatures; a row written alone runs one temperature.
    # They agree to the rel 1e-8 and abs 1e-14 of the benchmark's scaling
    # check, with room.
    grid = np.geomspace(0.009, 100.0, 4)
    tpts = 3.0 / math.log10(100.0 / 0.009)
    out = tmp_path / "sweep.csv"
    assert cli.main(["slab", "--L", "0.606:1:2", "--tmin", "0.009",
                     "--tmax", "100", "--tpts", repr(tpts),
                     "--out", str(out)]) == 0
    sweep = _read_csv(out)
    assert len(sweep) == 8
    for row in sweep:
        T = repr(float(grid[[float(row["T"]) == pytest.approx(t, rel=1e-11)
                             for t in grid].index(True)]))
        alone = tmp_path / "alone.csv"
        assert cli.main(["slab", "--L", row["L"], "--tmin", T, "--tmax", T,
                         "--out", str(alone)]) == 0
        (one,) = _read_csv(alone)
        assert one["T"] == row["T"]
        for col in cli.SLAB_HEADER[3:-1]:
            assert float(row[col]) == pytest.approx(
                float(one[col]), rel=1e-9, abs=1e-15), (col, row["T"])


def test_a_failing_temperature_fails_only_its_row(tmp_path, monkeypatch):
    # The array call raises, so each temperature runs alone: the one that
    # fails reads "failed", the others are the one-temperature rows.
    total = slab.total

    def fail_at_one(T, params, settings=None):
        if np.any(np.asarray(T) == 0.1):
            raise QuadratureError("did not converge")
        return total(T, params, settings)

    monkeypatch.setattr(slab, "total", fail_at_one)
    out = tmp_path / "slab.csv"
    assert cli.main(["slab", "--tmin", "0.01", "--tmax", "1", "--tpts", "1",
                     "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == [
        "1.000000000000e-02", "1.000000000000e-01", "1.000000000000e+00"]
    assert rows[1].split(",")[3:] == ["nan"] * 12 + ["failed"]
    for line, T in ((rows[0], 0.01), (rows[2], 1.0)):
        alone = tmp_path / "alone.csv"
        assert cli.main(["slab", "--tmin", repr(T), "--tmax", repr(T),
                         "--out", str(alone)]) == 0
        assert alone.read_text().splitlines()[1] == line
