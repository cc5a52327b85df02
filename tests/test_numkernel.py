"""Quadrature, special functions and fitting primitives."""

import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from artifact import numkernel
from artifact.numkernel import (
    DEFAULT_SETTINGS,
    QuadratureError,
    QuadSettings,
    find_root_bracketed,
    fit_asymptotic,
    integrate_finite,
    integrate_fixed,
    integrate_panels,
    thermal_weights,
)

ZETA3 = 1.2020569031595943
ZETA5 = 1.0369277551433699


def bose_log(x):
    """The free-energy weight at one point, from ``thermal_weights``."""
    return float(thermal_weights(x)[0])


def g(x):
    """The entropy weight at one point, from ``thermal_weights``."""
    return float(thermal_weights(x)[1])


def test_integrate_finite_sin():
    res = integrate_finite(math.sin, 0.0, math.pi, DEFAULT_SETTINGS)
    assert res.value == pytest.approx(2.0, rel=1e-12)
    assert res.error_estimate < 1e-9


def test_integrate_finite_kink_with_breakpoint():
    # int_0^1 |x - 1/3| dx = 5/18
    res = integrate_finite(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0,
                           DEFAULT_SETTINGS, breakpoints=[1.0 / 3.0])
    assert res.value == pytest.approx(5.0 / 18.0, rel=1e-13)


def test_integrate_finite_ignores_outside_breakpoints():
    res = integrate_finite(math.sin, 0.0, 1.0, DEFAULT_SETTINGS,
                           breakpoints=[-2.0, 0.0, 1.0, 5.0])
    assert res.value == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


def test_integrate_finite_rejects_divergent():
    with pytest.raises(QuadratureError):
        integrate_finite(lambda x: 1.0 / x, 0.0, 1.0, DEFAULT_SETTINGS)


@pytest.mark.parametrize("weight, power, expected", [
    (bose_log, 0, -math.pi ** 2 / 6.0),
    (bose_log, 1, -ZETA3),
    (bose_log, 2, -math.pi ** 4 / 45.0),
    (bose_log, 3, -6.0 * ZETA5),
    (g, 0, math.pi ** 2 / 3.0),
    (g, 1, 3.0 * ZETA3),
    (g, 2, 4.0 * math.pi ** 4 / 45.0),
])
def test_standard_thermal_integrals(weight, power, expected):
    # The scalar weights' moments over [0, inf): the adaptive finite rule
    # on [0, 40], plus the analytic bound on the moment past 40 (row 0 for
    # blog, row 1 for g).
    def f(x):
        return x ** power * weight(x)

    row = 0 if weight is bose_log else 1
    tail = float(numkernel._tail_moment(power, np.array([40.0]))[row, 0])
    res = integrate_finite(f, 0.0, 40.0, DEFAULT_SETTINGS)
    assert res.value == pytest.approx(expected, rel=1e-10)
    assert abs(res.value - expected) <= res.error_estimate + tail
    assert tail <= 1e-10 * abs(expected)


def test_special_values():
    assert bose_log(1.0) == pytest.approx(-0.45867514538708190, rel=1e-14)
    assert g(1.0) == pytest.approx(1.0406518522564083, rel=1e-12)
    assert g(1e-6) == pytest.approx(1.0 - math.log(1e-6), rel=1e-6)


def test_weight_domain_errors():
    for x in (0.0, -1.0):
        with pytest.raises(ValueError):
            thermal_weights(x)


@given(x=st.floats(min_value=1e-8, max_value=50.0),
       y=st.floats(min_value=1e-8, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_weight_signs_and_monotonicity(x, y):
    assert bose_log(x) < 0.0
    assert g(x) > 0.0
    lo, hi = min(x, y), max(x, y)
    assert bose_log(lo) <= bose_log(hi)
    assert g(lo) >= g(hi)


@given(x=st.floats(min_value=1e-6, max_value=30.0))
@settings(max_examples=50, deadline=None)
def test_g_decomposition(x):
    # g = x n(x) - bose_log(x) with n the occupation 1/expm1(x)
    assert g(x) == pytest.approx(x / math.expm1(x) - bose_log(x), rel=1e-12)


def test_find_root_bracketed():
    root = find_root_bracketed(math.cos, 0.0, 2.0, x_tol=1e-13)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_find_root_requires_sign_change():
    with pytest.raises(QuadratureError):
        find_root_bracketed(math.exp, 0.0, 1.0)


@given(c=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_find_root_affine(c):
    root = find_root_bracketed(lambda x: x - c, -4.0, 4.0, x_tol=1e-13)
    assert root == pytest.approx(c, abs=1e-12)


def _poly_samples(coeffs, n=12):
    ts = [100.0 * (10.0 ** (i / (n - 1))) for i in range(n)]
    c3, c2, cl, c1 = coeffs
    return [(t, c3 * t ** 3 + c2 * t ** 2 + cl * t * math.log(t) + c1 * t)
            for t in ts]


def test_fit_asymptotic_exact_recovery():
    fit = fit_asymptotic(_poly_samples((2.0, -0.5, 0.3, -0.1)),
                         basis=("T3", "T2", "TlogT", "T"))
    assert list(fit) == ["T3", "T2", "TlogT", "T"]
    assert fit["T3"] == pytest.approx(2.0, rel=1e-10)
    assert fit["T2"] == pytest.approx(-0.5, rel=1e-9)
    assert fit["TlogT"] == pytest.approx(0.3, rel=1e-8)
    assert fit["T"] == pytest.approx(-0.1, rel=1e-7)


@given(c3=st.floats(min_value=-2.0, max_value=2.0),
       c2=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_fit_asymptotic_two_term(c3, c2):
    samples = [(t, c3 * t ** 3 + c2 * t ** 2)
               for t in (100.0, 160.0, 250.0, 400.0, 630.0, 1000.0)]
    fit = fit_asymptotic(samples, basis=("T3", "T2"))
    assert fit["T3"] == pytest.approx(c3, abs=1e-10 + 1e-9 * abs(c3))
    assert fit["T2"] == pytest.approx(c2, abs=1e-7 + 1e-9 * abs(c2))


def test_fit_asymptotic_rejects_unknown_basis():
    with pytest.raises(ValueError):
        fit_asymptotic(_poly_samples((1.0, 0.0, 0.0, 0.0)), basis=("T4",))


def test_fit_asymptotic_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_asymptotic([(1.0, 1.0), (2.0, 8.0)], basis=("T3", "T2"))


def test_quad_settings_tols():
    s = QuadSettings()
    s2 = replace(s, rel_tol=1e-6)
    assert s2.rel_tol == 1e-6
    assert s2.abs_tol == s.abs_tol
    assert s.tolerance(10.0) >= 10.0 * s.rel_tol


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": math.nan},
    {"abs_tol": -1e-12},
    {"abs_tol": np.array([1e-12, math.nan])},
    {"abs_tol": np.array([1e-12, -1.0])},
    {"rel_tol": math.nan},
    {"rel_tol": math.inf},
    {"rel_tol": -1e-9},
    {"abs_tol": 0.0, "rel_tol": 0.0},
    {"abs_tol": 0.0, "rel_tol": 1e-15},
    {"abs_tol": np.zeros(2), "rel_tol": 1e-15},
], ids=["abs-nan", "abs-negative", "abs-array-nan", "abs-array-negative",
        "rel-nan", "rel-inf", "rel-negative", "both-zero",
        "rel-below-50eps", "abs-array-zero"])
def test_quad_settings_refuses_targets_no_integrator_meets(kwargs):
    # With abs_tol NaN, the panel rule's "error + floor > tol" test is
    # False on its first pass, which it would return as converged.
    with pytest.raises(ValueError):
        QuadSettings(**kwargs)
    with pytest.raises(ValueError):
        replace(DEFAULT_SETTINGS, **kwargs)


def test_quad_settings_keeps_ride_along_and_relative_only_targets():
    # Infinite entries of an array abs_tol mark ride-along components, as
    # in the TM thickness part's propagating half.
    ride = QuadSettings(abs_tol=np.concatenate([np.full(2, 1e-12),
                                                np.full(2, np.inf)]),
                        rel_tol=1e-10)
    assert list(ride.abs_tol) == [1e-12, 1e-12, np.inf, np.inf]
    assert QuadSettings(abs_tol=0.0, rel_tol=1e-9).tolerance(2.0) == 2e-9
    assert QuadSettings(abs_tol=1e-20, rel_tol=0.0).rel_tol == 0.0


def test_g_matches_mpmath():
    # From 1e-14 to 700, and dense on (30, 100), where (x + 1) e^-x alone
    # is off by up to 9.2e-14 relative: it drops the (x + 1/2) e^-2x term.
    x = np.concatenate([np.geomspace(1e-14, 700.0, 300),
                        np.linspace(30.0, 100.0, 141)])
    with mpmath.workdps(50):
        ref = np.array([
            float(v / mpmath.expm1(v) - mpmath.log1p(-mpmath.exp(-v)))
            for v in map(mpmath.mpf, x)])
    assert np.abs(thermal_weights(x)[1] / ref - 1.0).max() <= 1e-15


def test_weight_arrays_match_scalar_forms():
    # blog against mpmath's log1p(-exp(-x)) at 50 digits, on both sides of
    # its branch point ln 2, and of 1e-12 and 30, up to 800.
    x = np.concatenate([np.geomspace(1e-14, 800.0, 400),
                        [math.log(2.0) * (1 + d) for d in (-1e-12, 1e-12)],
                        [1e-12 * (1 + d) for d in (-1e-9, 1e-9)],
                        [30.0 * (1 + d) for d in (-1e-12, 1e-12)]])
    with mpmath.workdps(50):
        ref = [float(mpmath.log1p(-mpmath.exp(-v)))
               for v in map(mpmath.mpf, x)]
    assert thermal_weights(x)[0] == pytest.approx(ref, rel=4e-15, abs=0.0)
    with pytest.raises(ValueError):
        thermal_weights(np.array([1.0, 0.0]))


def test_integrate_panels_components_and_bound():
    # Int_0^1 x^k dx = 1/(k + 1) for three powers at once, and the log
    # singularity Int_0^1 log x dx = -1 on a graded start.
    # Each component's error is returned with it and bounds its gap.
    ks = np.array([0.5, 3.0, 12.0])
    res = integrate_panels(lambda x: x[:, None] ** ks, [0.0, 0.5, 1.0])
    exact = 1.0 / (ks + 1.0)
    assert res.error_estimate.shape == ks.shape
    assert np.all(np.abs(res.value - exact) <= res.error_estimate)
    assert np.all(res.error_estimate
                  <= np.maximum(1e-12, 1e-9 * np.abs(exact)))
    assert res.evaluations % 15 == 0
    graded = [0.0, *(8.0 ** -k for k in range(12, 0, -1)), 1.0]
    res = integrate_panels(lambda x: np.log(x)[:, None], graded)
    assert abs(res.value[0] + 1.0) <= res.error_estimate[0] <= 1e-9


def test_integrate_panels_offset_and_riding_components():
    # An offset makes the relative tolerance refer to a total the integral
    # is part of: Int_0^3 sin(40 x) dx ~ 0.0079 as part of a total of 100
    # needs fewer passes.  A component with an infinite tolerance rides
    # along, integrated on the same panels but never bisected for: 1/x on
    # [0, 1] does not converge within the panel cap, yet rides along with
    # its error.
    def f(x):
        return np.stack([np.sin(40.0 * x), 1.0 / x], axis=1)

    exact = (1.0 - math.cos(120.0)) / 40.0
    alone = integrate_panels(lambda x: f(x)[:, :1], [0.0, 3.0])
    part = integrate_panels(lambda x: f(x)[:, :1], [0.0, 3.0],
                            offset=100.0)
    assert part.evaluations < alone.evaluations
    assert abs(part.value[0] - exact) <= part.error_estimate[0] <= 1e-7
    with pytest.raises(QuadratureError), np.errstate(over="ignore"):
        integrate_panels(f, [0.0, 1.0, 3.0])
    both = integrate_panels(f, [0.0, 1.0, 3.0],
                            QuadSettings(abs_tol=np.array([1e-12, np.inf])))
    assert abs(both.value[0] - exact) <= both.error_estimate[0] <= 1e-9
    assert both.error_estimate[1] > 1e-9


def test_integrate_fixed_runs_many_integrals_at_once():
    # Int_0^a x^k dx for three upper limits a and two powers k, each on
    # its own four panels; a fixed rule's error still bounds its gap.
    a = np.array([0.5, 1.0, 2.0])
    ks = np.array([3.0, 20.0])
    edges = a[:, None] * np.linspace(0.0, 1.0, 5)
    res = integrate_fixed(lambda x: x[..., None] ** ks, edges[:, :-1],
                          edges[:, 1:])
    exact = a[:, None] ** (ks + 1.0) / (ks + 1.0)
    assert res.value.shape == res.error_estimate.shape == (3, 2)
    assert np.all(np.abs(res.value - exact) <= res.error_estimate)
    assert np.all(res.error_estimate[:, 0] <= 2e-14 * exact[:, 0])
    assert res.evaluations == 3 * 4 * 15


def test_integrate_panels_error_includes_roundoff_floor():
    # A constant is integrated exactly by both rules, so |K - G| is pure
    # roundoff; the reported error is at least 50 eps Int |f|.
    res = integrate_panels(lambda x: np.full((len(x), 1), 3.0), [0.0, 2.0])
    assert res.error_estimate[0] >= 50 * np.finfo(float).eps * 6.0


def test_integrate_panels_refuses_unconverged_results(monkeypatch):
    with pytest.raises(QuadratureError), np.errstate(over="ignore"):
        integrate_panels(lambda x: (1.0 / x)[:, None], [0.0, 1.0])
    with pytest.raises(QuadratureError):
        integrate_panels(lambda x: np.where(x > 0.3, np.nan, x)[:, None],
                         [0.0, 1.0])
    # The roundoff floor alone above the tolerance cannot be bisected away.
    with pytest.raises(QuadratureError, match="roundoff"):
        integrate_panels(lambda x: np.ones((len(x), 1)), [0.0, 1.0],
                         QuadSettings(abs_tol=1e-20, rel_tol=1e-17))
    # A panel cap below what the tolerance needs.
    monkeypatch.setattr(numkernel, "_MAX_SUBDIVISIONS", 4)
    with pytest.raises(QuadratureError, match="4 panels"):
        integrate_panels(lambda x: np.sin(40.0 * x)[:, None], [0.0, 3.0])


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_graded_grid_integrates_the_thermal_weights(n):
    # Int_0^inf omega^n (blog, g)(omega/T) d omega = T^(n+1) n! zeta(n+2)
    # times (-1, n + 2), at temperatures six decades apart in one pass on
    # the grid graded at the lowest; each error covers its gap.
    Ts = np.array([1e-3, 1.0, 1e3])
    cut = 40.0 * Ts.max()
    value, error = numkernel.thermal_integral(
        lambda w: w ** n, numkernel.weight_columns(Ts),
        (0.0, cut, Ts.min(), list(Ts)), DEFAULT_SETTINGS,
        numkernel._truncation_bound(Ts, cut, 1.0, n))
    zeta = math.factorial(n) * float(mpmath.zeta(n + 2))
    exact = np.outer([-1.0, n + 2.0], Ts ** (n + 1) * zeta)
    assert np.all(np.abs(value - exact) <= error)
    assert np.all(error <= 1e-9 * np.abs(exact))


def test_graded_grid_refuses_an_underflowing_bottom_panel():
    # The bottom panel [0, a e^-32] must reach 1e-140 of the span's top,
    # or its nodes' squares underflow and the integrand is lost unreported.
    def f(w):
        return (w * w)[:, None]

    res = numkernel._graded(f, 0.0, 1.0, 1e-100, [], DEFAULT_SETTINGS)
    assert res.value[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    for anchor in (1e-120, 1e-150, 5e-324):
        with pytest.raises(QuadratureError, match="underflows"):
            numkernel._graded(f, 0.0, 1e20, anchor, [], DEFAULT_SETTINGS)
