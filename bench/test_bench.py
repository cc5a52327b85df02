"""Tests of the benchmark itself: its checks and its tracing.

Each check must accept a real output of the program and reject a
corrupted copy of it: a part column scaled by 1 + 1e-3, a flipped sign,
or a verify row with "pass": false.  A traced run must write the same
bytes as an untraced one, and two traced runs must count the same calls
and evaluations.  Pace scaling must take the samples' own time out and
scale the rest by the reference over the sampled kernel time.  Real
outputs come from small versions of the workloads, so these tests take
seconds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Output  # noqa: E402

SEED = 7


class SmallSlab(workloads.SlabSweep):
    N_L = 1
    TMIN, TMAX, N_T = 1e-2, 1e-1, 2


class SmallScan(workloads.SheetScan):
    W0, W_STEP, N_W = 0.6, 0.2, 4
    TMIN, TMAX, N_T = 1e-2, 1e3, 6


def _run_in_process(commands, tmp_path):
    from artifact import cli

    outputs = {}
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for cmd in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(cmd.argv))
            data = (tmp_path / cmd.out).read_bytes() if cmd.out else None
            outputs[cmd.label] = Output(rc, buf.getvalue().encode(), data)
    finally:
        os.chdir(cwd)
    return outputs


def _case(workload, tmp_path_factory):
    commands = workload.commands(SEED)
    tmp = tmp_path_factory.mktemp(workload.name)
    return workload, commands, _run_in_process(commands, tmp)


@pytest.fixture(scope="module")
def slab_case(tmp_path_factory):
    return _case(SmallSlab(), tmp_path_factory)


@pytest.fixture(scope="module")
def scan_case(tmp_path_factory):
    return _case(SmallScan(), tmp_path_factory)


@pytest.fixture(scope="module")
def verify_case(tmp_path_factory):
    return _case(workloads.VerifyAll(suites=("nernst",)), tmp_path_factory)


def _edit_csv(data: bytes, column: str, rows, fn) -> bytes:
    reader = list(csv.reader(io.StringIO(data.decode())))
    header = reader[0]
    j = header.index(column)
    for i in rows:
        reader[1 + i][j] = format(fn(float(reader[1 + i][j])), ".12e")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(reader)
    return buf.getvalue().encode()


def _with(outputs, label, column, rows, fn):
    out = dict(outputs)
    o = outputs[label]
    out[label] = Output(rc=o.rc, stdout=o.stdout,
                        csv=_edit_csv(o.csv, column, rows, fn))
    return out


def _scaled(x):
    return x * (1.0 + 1e-3)


def _flipped(x):
    return -x


# ---------------------------------------------------------------------------
# slab-sweep
# ---------------------------------------------------------------------------

def test_slab_checks_accept_real_output(slab_case):
    workload, commands, outputs = slab_case
    refs = []
    assert workload.check(commands, outputs, refs) == []
    assert refs and all(r["command"].startswith("python3 bench/reference.py")
                        for r in refs)
    assert workload.failed_ops(outputs) == 0


@pytest.mark.parametrize("check,label,column,fn", [
    ("check_parts_sum", "slab", "F_L_TE", _scaled),
    ("check_parts_sum", "slab", "S_s_TM_subtr", _flipped),
    ("check_scaling", "slab-scaled", "F_L_TM", _scaled),
    ("check_scaling", "slab-scaled", "S_exp_subtr", _flipped),
    ("check_low_t_laws", "slab", "F_L_TE", _flipped),
    ("check_low_t_laws", "slab", "F_L_TM", _flipped),
    ("check_references", "slab", "F_s_TE_subtr", _scaled),
    ("check_references", "slab", "S_L_TE", _scaled),
    ("check_references", "slab", "F_L_TE", _flipped),
])
def test_slab_check_rejects_corruption(slab_case, check, label, column, fn):
    workload, commands, outputs = slab_case
    rows = range(len(outputs[label].rows()))
    bad = _with(outputs, label, column, rows, fn)
    main, scaled = bad["slab"].rows(), bad["slab-scaled"].rows()
    args = {"check_parts_sum": (main + scaled,),
            "check_scaling": (main, scaled),
            "check_low_t_laws": (main,),
            "check_references": (main, [])}[check]
    assert getattr(workload, check)(*args)
    assert workload.check(commands, bad, [])


def test_slab_entropy_sign_check_rejects_flipped_sign(slab_case):
    workload, commands, outputs = slab_case
    rows = [i for i, r in enumerate(outputs["slab"].rows())
            if float(r["S_total"]) < 0.0]
    assert rows
    bad = _with(outputs, "slab", "S_total", rows, _flipped)
    assert workload.check_entropy_sign(bad["slab"].rows())


# ---------------------------------------------------------------------------
# sheet-scan
# ---------------------------------------------------------------------------

def test_scan_checks_accept_real_output(scan_case):
    workload, commands, outputs = scan_case
    assert workload.check(commands, outputs, []) == []


def test_scan_log_coefficient_check_rejects_scaled_column(scan_case):
    workload, commands, outputs = scan_case
    bad = _with(outputs, "window", "c_logT", [0], _scaled)
    assert workload.check_log_coefficient(bad["window"].rows())
    assert workload.check(commands, bad, [])


def test_scan_sign_checks_reject_flipped_sign(scan_case):
    workload, commands, outputs = scan_case
    fluid = _with(outputs, "fluid", "S_total_min", [0], _flipped)
    assert workload.check_signs(fluid["fluid"].rows(),
                                outputs["window"].rows())
    lo, hi = workload.INSIDE
    inside = [i for i, r in enumerate(outputs["window"].rows())
              if lo <= float(r["omega0"]) <= hi]
    assert inside
    window = _with(outputs, "window", "S_total_min", inside[:1], _flipped)
    assert workload.check_signs(outputs["fluid"].rows(),
                                window["window"].rows())
    assert workload.check(commands, window, [])


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def test_verify_check_accepts_real_output(verify_case):
    workload, commands, outputs = verify_case
    assert workload.check(commands, outputs, []) == []
    assert workload.count_ops(outputs["verify"]) > 0


def test_verify_check_rejects_failed_row(verify_case):
    workload, commands, outputs = verify_case
    lines = outputs["verify"].stdout.decode().splitlines()
    rec = json.loads(lines[0])
    rec["pass"] = False
    stdout = "\n".join([json.dumps(rec)] + lines[1:]).encode()
    bad = {"verify": Output(rc=0, stdout=stdout, csv=None)}
    assert workload.check(commands, bad, [])


def test_verify_check_rejects_missing_suite_and_exit_status(verify_case):
    workload, commands, outputs = verify_case
    assert workload.check(commands, {"verify": Output(0, b"", None)}, [])
    o = outputs["verify"]
    assert workload.check(commands, {"verify": Output(1, o.stdout, None)}, [])


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_traced_run_writes_same_bytes_and_counts(tmp_path):
    cmd = workloads.Command(
        "slab", ["slab", "--L", "0.5", "--tmin", "1e-2", "--tmax", "1e-2",
                 "--out", "slab.csv"], ops=1, out="slab.csv")
    deadline = float("inf")
    plain = run.run_process(cmd, tmp_path / "plain", deadline)
    traced = [run.run_process(cmd, tmp_path / f"traced{i}", deadline,
                              trace=True) for i in range(2)]
    assert plain.output.rc == 0 and plain.output.csv
    for t in traced:
        assert t.output.csv == plain.output.csv
        assert t.output.stdout == plain.output.stdout
    counts = [{k: v for k, v in run.traced_layer_metrics([cmd], [t]).items()
               if spans.PER_LAYER[k][0] != "s"} for t in traced]
    assert counts[0] == counts[1]
    assert counts[0]["numkernel.quad_calls"] > 0
    assert counts[0]["slab.h_L.calls"] > 0
    assert counts[0]["numkernel.inner_quad_calls"] > 0


def test_scaled_time_takes_samples_out_and_scales_by_pace():
    ref = pace.REFERENCE_S
    # Warm-up at 1.0, samples at 2.0, 3.0 and 4.0; the kernel took 2 * ref
    # in the first two and 4 * ref in the last.
    rec = {"warmup": [1.0, 1.0 + 3 * ref],
           "samples": [[2.0, 2.0 + 2 * ref], [3.0, 3.0 + 2 * ref],
                       [4.0, 4.0 + 4 * ref]]}
    a, b = 0.0, 5.0
    assert pace.removed_time(a, b, rec) == pytest.approx(11 * ref)
    # Before the first sample, [0, 1) and [1 + 3 ref, 2), at the mean of
    # the first HEAD_SAMPLES (here all three), 8/3 * ref; then at the mean
    # of the two ends: [2 + 2 ref, 3) at 2 * ref, [3 + 2 ref, 4) at 3 * ref;
    # after the last, [4 + 4 ref, 5) at 4 * ref.
    assert pace.HEAD_SAMPLES >= 3
    want = ((2.0 - 3 * ref) * 3 / 8 + (1.0 - 2 * ref) / 2
            + (1.0 - 2 * ref) / 3 + (1.0 - 4 * ref) / 4)
    assert pace.scaled_time(a, b, rec) == pytest.approx(want)
    assert pace.scaled_time(a, b, rec, ref=2 * ref) == pytest.approx(2 * want)
    assert pace.scaled_time(3.5, 3.75, rec) == pytest.approx(0.25 / 3)


def test_benchmark_json_lists_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(spans.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == spans.PER_LAYER[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
