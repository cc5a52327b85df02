"""Acceptance gate: the full verification battery, one test per criterion.

Each test prints a PASS/FAIL line per underlying check with the measured
and expected values.  The slab's low-T limits (criteria 08a and 08c) are
checked at T = 1e-2 omega_p against the leading law plus its closed-form
subleading terms, which at that temperature are still -6.1% (a
T*log(1/T) term) and -12.6% (mostly a linear-in-T term) of the limit.
Those two tests also print convergence tables with the series
prediction beside each row.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from artifact import plasma_sheet as ps
from artifact import numkernel, slab, verification
from artifact.numkernel import QuadSettings

ZETA3 = 1.2020569031595943
VERIFY_CHECKS = Path(__file__).with_name("golden") / "verify_checks.txt"


@pytest.fixture(scope="module")
def suites():
    return {name: verification.run_suite(name)
            for name in verification.SUITES}


def verify_checks(suites):
    """One line of suite, check and verdict per ``thermo verify`` row, tab
    separated, in the order of the rows."""
    return "".join(
        f"{r.suite}\t{r.check}\t{'pass' if r.passed else 'fail'}\n"
        for name in verification.SUITES for r in suites[name])


def _pick(results, *needles):
    out = [r for r in results if any(n in r.check for n in needles)]
    assert out, f"no checks matched {needles!r}"
    return out


def _report(results):
    lines = []
    ok = True
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.check}: measured {r.measured:.6e}, "
                     f"expected {r.expected} (tol {r.tolerance:g})")
        ok = ok and r.passed
    text = "\n".join(lines)
    print(text)
    return ok, text


def test_criterion_01_sheet_density_oracle(suites):
    # closed-form channel densities against the independent
    # epsilon-parametrized quadrature, three resonance positions
    ok, text = _report(_pick(suites["oracle"],
                             "closed vs epsilon-integral"))
    assert ok, "\n" + text


def test_criterion_02_low_temperature_entropy_slopes(suites):
    ok, text = _report(_pick(suites["asymptotics"],
                             "S_TE/T", "S_TM/T", "S_total/T"))
    assert ok, "\n" + text


def test_criterion_03_high_temperature_fit_coefficients(suites):
    ok, text = _report(_pick(suites["asymptotics"],
                             "raw TE fit", "raw TM fit"))
    assert ok, "\n" + text


def test_criterion_04_tm_sum_rule_vanishes(suites):
    ok, text = _report(_pick(suites["constants"], "TM sum rule"))
    assert ok, "\n" + text


def test_criterion_05_heat_kernel_coefficients(suites):
    ok, text = _report(_pick(suites["asymptotics"], "heat kernel a_"))
    # the TE T log T weight's sign change is reported, not gated
    (crossing,) = _pick(suites["asymptotics"], "sign change located")
    print(f"[REPORT] {crossing.check}: measured {crossing.measured:.9f} "
          f"(Omega0/sqrt(2) = {1.0 / math.sqrt(2.0):.9f})")
    assert math.isfinite(crossing.measured)
    assert ok, "\n" + text


def test_criterion_06_negative_entropy_window(suites):
    ok, text = _report(_pick(suites["constants"], "high-T log coefficient",
                             "c(omega0", "S_total"))
    # literal scan over the stated resonance window
    negative = [w0 for w0 in np.linspace(0.6, 0.95, 15)
                if ps.high_T_log_coefficient(
                    ps.SheetParams(Omega0=1.0, omega0=w0)).value < 0.0]
    lo, hi = 1.0 / math.sqrt(2.0), 1.2 / math.sqrt(2.0)
    print(f"scan: log coefficient negative on [{negative[0]:.3f}, "
          f"{negative[-1]:.3f}], window to overlap: ({lo:.4f}, {hi:.4f})")
    assert negative and any(lo < w0 < hi for w0 in negative)
    assert ok, "\n" + text


def test_criterion_07_slab_constants(suites):
    ok, text = _report(_pick(suites["constants"], "slab constant"))
    assert ok, "\n" + text


def test_criterion_08a_surface_tm_cubic_limit(suites):
    (r,) = _pick(suites["asymptotics"], "F_s_TM/T^3")
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    target = 5.0 * ZETA3 / (4.0 * math.pi)
    # below T ~ 1e-3 the integral itself is ~1e-12 and needs a far
    # tighter absolute floor than the defaults
    tight = QuadSettings(abs_tol=1e-24, rel_tol=1e-10)
    lines = []
    for T in (1e-2, 3e-3, 1e-3, 1e-4):
        measured = slab.F_s_TM(T, params, tight) / T ** 3
        series = target + slab.surface_tm_low_T_correction(T, params)
        lines.append(
            f"    T = {T:8.0e}:  F_s_TM/T^3 = {measured:.6f} "
            f"({measured / target - 1.0:+.2%} from the limit), "
            f"series {series:.6f} ({measured / series - 1.0:+.1e})")
    table = "\n".join(lines)
    ok, text = _report([r])
    print(table)
    assert ok, f"\n{text}\n{table}\n    limit:           {target:.6f}"


def test_criterion_08b_thickness_te_low_T_law(suites):
    ok, text = _report(_pick(suites["asymptotics"], "F_L_TE low-T law"))
    assert ok, "\n" + text


def test_criterion_08c_thickness_ratio(suites):
    (r,) = _pick(suites["asymptotics"], "F_L_TM/F_L_TE")
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    coeffs = slab.thickness_series(params)
    lines = []
    for T in (1e-2, 3e-3, 1e-3):
        measured = slab.F_L_TM(T, params) / slab.F_L_TE(T, params)
        series = 3.0 * coeffs.tm_factor(T) / coeffs.te_factor(T)
        lines.append(
            f"    T = {T:8.0e}:  F_L_TM/F_L_TE = {measured:.6f} "
            f"({measured / 3.0 - 1.0:+.2%} from the limit), "
            f"series {series:.6f} ({measured / series - 1.0:+.1e})")
    table = "\n".join(lines)
    ok, text = _report([r])
    print(table)
    assert ok, f"\n{text}\n{table}\n    limit:           3.000000"


def test_criterion_09_high_temperature_slab_limits(suites):
    ok, text = _report(_pick(suites["asymptotics"],
                             "S_exp_subtr", "T*log(T) coefficient",
                             "S_L_TE plateau", "S_L_TM plateau"))
    assert ok, "\n" + text


def test_criterion_10_slab_oracles(suites):
    ok, text = _report(_pick(suites["oracle"],
                             "slab surface h", "slab h", "slab F_exp",
                             "slab F_s_TE defining",
                             "transmission factorization"))
    assert ok, "\n" + text


def test_criterion_11_guided_modes(suites):
    ok, text = _report(_pick(suites["oracle"], "plasmon"))
    assert ok, "\n" + text


def test_criterion_12_thermodynamic_identity(suites):
    ok, text = _report(suites["thermo-identity"])
    assert ok, "\n" + text


def test_invariant_nernst(suites):
    ok, text = _report(suites["nernst"])
    assert ok, "\n" + text


def test_invariant_defining_representation(suites):
    # the (p, k) double integrals against the radial closed forms
    ok, text = _report(_pick(suites["oracle"], "defining vs closed",
                             "plasmon raw vs polynomial"))
    assert ok, "\n" + text


def test_invariant_results_are_json_serializable(suites):
    # ``thermo verify`` writes every check as one JSON line
    for results in suites.values():
        for r in results:
            assert type(r.passed) is bool, r.check
            json.dumps({"measured": r.measured, "pass": r.passed})


def test_asymptotics_suite_passes_its_settings_to_the_te_crossing(
        monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def crossing(Omega0=1.0, settings=None):
        seen.append(settings)
        raise Stop

    # The heat-kernel fits come first and cost seconds; the exact
    # {channel: (a_1/2, a_1, a_3/2)} values are enough to reach the
    # crossing.
    monkeypatch.setattr(ps, "heat_kernel_fit",
                        lambda params, settings=None:
                        ps.heat_kernel_coeffs(params))
    monkeypatch.setattr(ps, "a_three_half_te_crossing", crossing)
    settings = QuadSettings(rel_tol=1e-8, abs_tol=1e-11)
    with pytest.raises(Stop):
        verification.run_suite("asymptotics", settings)
    assert seen == [settings]


def test_scalar_quadpack_integrands_return_python_floats(monkeypatch):
    # Numpy-scalar arithmetic costs several times float arithmetic, and
    # these integrands run tens of thousands of times in ``thermo verify``.
    seen = set()
    checked = numkernel._checked

    def recorded(f):
        g = checked(f)

        def wrapped(x):
            y = g(x)
            seen.add(type(y))
            return y

        return wrapped

    monkeypatch.setattr(numkernel, "_checked", recorded)
    settings = numkernel.DEFAULT_SETTINGS
    for checks in (verification._slab_h_L_table_checks,
                   verification._slab_tm_swap_checks):
        checks(settings)
    slab.total(np.array([0.1, 1.0, 10.0]), slab.SlabParams(1.0, 0.6))
    assert seen == {float}


def test_verify_checks_match_golden(suites):
    # the same checks, in the same order, with the same verdicts
    assert verify_checks(suites) == VERIFY_CHECKS.read_text()


if __name__ == "__main__":
    VERIFY_CHECKS.write_text(verify_checks(
        {name: verification.run_suite(name) for name in verification.SUITES}))
