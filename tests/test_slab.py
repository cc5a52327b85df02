"""Dielectric slab: transmission, phase shifts, thermodynamic parts,
guided mode."""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings, strategies as st

from artifact import numkernel, plasma_sheet, slab, verification
from artifact.numkernel import (DEFAULT_SETTINGS, QuadratureError,
                               QuadResult, QuadSettings)
from artifact.spectral import ZETA3, ZETA5, Channel, Part, ThermoPoint

P1 = slab.SlabParams(omega_p=1.0, L=1.0)

# frozen against the defining transmission-phase integrals
H_BELOW = {
    1e-4: -4.710346912292e-4,
    0.01: -4.600276531676e-2,
    0.05: -0.2156042520557,
    0.3: -0.9963327568713,
    0.69: -1.622942061351,
    0.70711: -1.635657296474,
    0.71: -1.637671474767,
    0.9: -1.672506226423,
}
H_ABOVE = {
    1.2: -1.076354637549,
    2.0: -0.614546626009,
    5.0: -0.456304453265,
    50.0: -0.429470382546,
}


def test_h_frozen_values():
    for omega, expected in {**H_BELOW, **H_ABOVE}.items():
        assert slab.h(omega, P1) == pytest.approx(expected, rel=1e-9), \
            f"h({omega})"


def test_h_special_points():
    assert slab.h(1.0, P1) == pytest.approx(-math.pi / 2.0, abs=1e-12)
    # large-omega limit (pi - 4)/2 * omega_p
    assert slab.h(2000.0, P1) == pytest.approx((math.pi - 4.0) / 2.0,
                                               rel=1e-5)


# 41 frequencies across the window |omega - omega_p/sqrt(2)| < 1e-3 omega_p
# where h sums its bracket as a series.
WINDOW = tuple(1.0 / math.sqrt(2.0) + 0.999e-3 * (i / 20.0 - 1.0)
               for i in range(41))


@pytest.mark.parametrize("omega_p", [1.0, 2.5])
def test_h_in_window_matches_defining(omega_p):
    params = slab.SlabParams(omega_p=omega_p, L=1.0)
    for frac in WINDOW:
        w = frac * omega_p
        assert abs(slab.h(w, params) - slab.h_defining(w, params)) \
            < 1e-13 * omega_p, f"h({w})"


@pytest.mark.parametrize("omega_p", [1.0, 2.5])
def test_h_runs_no_quadrature(monkeypatch, omega_p):
    def refuse(*args, **kwargs):
        raise AssertionError("slab.h ran a quadrature")

    monkeypatch.setattr(slab, "integrate_finite", refuse)
    params = slab.SlabParams(omega_p=omega_p, L=1.0)
    for frac in (*WINDOW, 0.3, 0.9, 1.0, 1.5):
        assert math.isfinite(slab.h(frac * omega_p, params))


def test_h_takes_floats_and_arrays():
    # One implementation for both: an array through omega_p/sqrt(2), its
    # series band and omega_p gives the per-float values bit for bit.
    for omega_p in (1.0, 2.5):
        params = slab.SlabParams(omega_p=omega_p, L=1.0)
        w = omega_p * np.concatenate([
            np.geomspace(1e-6, 1e3, 200), WINDOW,
            1.0 / math.sqrt(2.0) + np.array([-1.1e-3, -1e-3, 1e-3, 1.1e-3]),
            1.0 + np.array([-1e-9, 0.0, 1e-9])])
        values = slab.h(w, params)
        assert np.array_equal(values,
                              [slab.h(float(x), params) for x in w])
        assert type(slab.h(0.5 * omega_p, params)) is float
    for bad in (0.0, -1.0, np.array([0.5, 0.0])):
        with pytest.raises(ValueError):
            slab.h(bad, P1)


def test_epsilon():
    assert slab.epsilon(1.0, P1) == 0.0
    assert slab.epsilon(1.0 / math.sqrt(2.0), P1) == pytest.approx(-1.0,
                                                                   rel=1e-12)
    wp2 = slab.SlabParams(omega_p=2.0, L=1.0)
    assert slab.epsilon(2.0, wp2) == 0.0


@given(p=st.floats(min_value=0.05, max_value=20.0),
       k=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_transmission_factorization(p, k):
    assume(abs(p - P1.omega_p) > 1e-6)
    for ch in (Channel.TE, Channel.TM):
        t = slab.transmission(ch, p, k, P1)
        assert t.factorization_residual < 1e-12
        if p > P1.omega_p:
            assert abs(t.value) <= 1.0 + 1e-12


def test_transmission_raises_at_internal_resonance():
    with pytest.raises(ValueError):
        slab.transmission(Channel.TE, 1.0, 0.0, P1)


def test_surface_phase_domain():
    # the TM surface phase extends below the light line
    val = slab.delta_s(Channel.TM, 0.5, 0.3, P1)
    assert math.isfinite(val)
    with pytest.raises(ValueError):
        slab.delta_L(Channel.TM, 0.5, 0.3, P1)


def test_delta_L_vanishes_at_small_p():
    # like 4 p / (omega_p (e^{2 omega_p L} - 1)) in TE
    p = 1e-4
    expected = 4.0 * p / (1.0 * (math.exp(2.0) - 1.0))
    assert slab.delta_L(Channel.TE, p, 2.0, P1) == pytest.approx(
        expected, rel=1e-3)


@pytest.mark.parametrize("omega_p, L", [(1.0, 1.0), (1.0, 2.0), (2.0, 0.7)])
def test_thickness_series_coefficients(omega_p, L):
    params = slab.SlabParams(omega_p=omega_p, L=L)
    c = slab.thickness_series(params)
    assert c.a1 == pytest.approx(
        4.0 / (omega_p * (math.exp(2.0 * omega_p * L) - 1.0)), rel=1e-14)
    assert c.B == pytest.approx(
        -math.pi * c.a1 / (omega_p * (1.0 - math.exp(-2.0 * omega_p * L))),
        rel=1e-14)
    # the three-term series leaves an O(omega^6) remainder
    tight = QuadSettings(abs_tol=1e-30, rel_tol=1e-12)
    w = 3e-3 * omega_p
    series = c.a1 * w ** 3 + c.B * w ** 4 + c.C * w ** 5
    assert abs(slab.h_L(w, params, tight).value - series) \
        < 1e-2 * abs(c.C * w ** 5)
    p = 1e-2 * omega_p
    series = c.a1 * p + c.a3 * p ** 3
    assert abs(slab.delta_L(Channel.TE, p, p, params) - series) \
        < 1e-3 * abs(c.a3 * p ** 3)


def test_h_L_just_above_omega_p():
    # The phase turns next to omega_p here, at gamma = eps p ~ 3e-5;
    # on a linear gamma axis without a breakpoint QUADPACK stalled on
    # roundoff.  Reference value of the evanescent half from mpmath at 30
    # digits; with the propagating half it makes up the whole moment,
    # 4.4039873591615882e-4, of the same mpmath quadrature in p.
    params = slab.SlabParams(omega_p=1.0, L=0.6059292171171541)
    omega = 1.0000152220514424
    assert slab.h_L(omega, params).value == pytest.approx(
        4.3816062881797075e-4, rel=1e-10)
    assert 4.3816062881797075e-4 + float(_h_prop_mpmath(omega, params)) \
        == pytest.approx(4.4039873591615882e-4, rel=1e-10)


def test_h_L_reports_the_sum_of_its_piece_errors(monkeypatch):
    # Above omega_p, h_L sums two quadratures, in p and in gamma; the error
    # it returns (and the h_L table reads) is their summed estimate, not
    # the worst.
    errors = []
    run = slab.integrate_finite

    def recorded(*args, **kwargs):
        res = run(*args, **kwargs)
        errors.append(res.error_estimate)
        return res

    monkeypatch.setattr(slab, "integrate_finite", recorded)
    res = slab.h_L(3.0, P1)
    assert len(errors) == 2
    assert res.error_estimate > max(errors)
    assert res.error_estimate == pytest.approx(math.fsum(errors), rel=1e-12)


def _evanescent_mpmath(p, gam, eps, L):
    z = mpmath.mpf(eps) * p + 1j * mpmath.mpf(gam)
    return mpmath.arg(1 - (z / mpmath.conj(z)) ** 2
                      * mpmath.exp(-2 * mpmath.mpf(gam) * L))


def _propagating_mpmath(p, q, eps, L):
    rho = (mpmath.mpf(eps) * p - q) / (mpmath.mpf(eps) * p + q)
    return -mpmath.arg(1 - rho ** 2 * mpmath.exp(2j * mpmath.mpf(q) * L))


def _h_L_mpmath(omega, params):
    """h_L, Int_0^omega_p p delta_L_TM dp for omega > omega_p, at 30
    digits, in p, split at the turn gamma = eps p."""
    with mpmath.workdps(30):
        wp, L, w = (mpmath.mpf(v) for v in (params.omega_p, params.L, omega))
        eps = 1 - (wp / w) ** 2
        return mpmath.quad(
            lambda p: p * _evanescent_mpmath(
                p, mpmath.sqrt(wp * wp - p * p), eps, L),
            [0, wp / mpmath.sqrt(1 + eps * eps), wp])


def _h_prop_mpmath(omega, params):
    """The propagating half, Int_omega_p^omega p delta_L_TM dp, at 30
    digits, in p, split at every period pi / L of the phase."""
    with mpmath.workdps(30):
        wp, L, w = (mpmath.mpf(v) for v in (params.omega_p, params.L, omega))
        eps = 1 - (wp / w) ** 2
        periods = int(mpmath.sqrt(w * w - wp * wp) * L / mpmath.pi)
        pts = [wp, *(mpmath.sqrt(wp * wp + (k * mpmath.pi / L) ** 2)
                     for k in range(1, periods + 1)), w]
        return mpmath.quad(
            lambda p: p * _propagating_mpmath(
                p, mpmath.sqrt(p * p - wp * wp), eps, L), pts)


@pytest.mark.parametrize("omega_p_L", [0.15, 1.0, 5.0])
def test_h_L_above_omega_p_matches_mpmath(omega_p_L):
    # Above omega_p h_L runs in gamma on a variable graded towards the
    # turn; the reference runs in p.  The tolerance is tight so that the
    # quadrature, not the absolute target, sets the error; the next test
    # runs at the default tolerance.
    params = slab.SlabParams(omega_p=1.0, L=omega_p_L)
    tight = QuadSettings(abs_tol=1e-15)
    for frac in (1.0 + 1e-6, 1.01, 2.0, 10.0, 59.5):
        res = slab.h_L(frac, params, tight)
        assert abs(res.value - float(_h_L_mpmath(frac, params))) \
            <= res.error_estimate + 1e-15, f"h_L({frac})"


@pytest.mark.parametrize("omega_p_L", [0.15, 1.0, 5.0])
def test_h_L_error_estimate_is_honest_next_to_omega_p(omega_p_L):
    # Within ~1% above omega_p the gamma piece's phase turns over a layer
    # ~eps wide at gamma = eps p.  On a linear gamma axis QUADPACK's
    # estimate there fell short of the actual error at the default
    # tolerance, by 1.58 times at (0.15, k = 6) and 3.34 times at k = 8.
    params = slab.SlabParams(omega_p=1.0, L=omega_p_L)
    for k in (2, 4, 6, 8):
        frac = 1.0 + 10.0 ** -k
        res = slab.h_L(frac, params, DEFAULT_SETTINGS)
        assert abs(res.value - float(_h_L_mpmath(frac, params))) \
            <= res.error_estimate, f"h_L(1 + 1e-{k})"


def test_delta_L_kernels_match_mpmath():
    # Both phase kernels, across eps < 0, 0 < eps < 1 (through the turn
    # gamma = eps p) and eps = 1 (TE), next to omega_p and far from it;
    # the propagating one also on arrays, at the same points.
    worst = 0.0
    with mpmath.workdps(30):
        for L in (0.15, 1.0, 5.0):
            for omega in (0.3, 0.7071, 0.999999, 1.000001, 1.01, 1.5, 30.0,
                          math.inf):
                eps = 1.0 if omega == math.inf else slab.epsilon(omega, P1)
                top = min(omega, 1.0)
                ps = [top * t for t in (1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-9)]
                if eps > 0.0:
                    turn = 1.0 / math.sqrt(1.0 + eps * eps)
                    ps += [turn * (1.0 + d) for d in (-1e-3, -1e-9, 0.0, 1e-9)
                           if turn * (1.0 + d) < top]
                for p in ps:
                    gam = math.sqrt((1.0 - p) * (1.0 + p))
                    worst = max(worst, abs(
                        slab._delta_L_evanescent(p, gam, eps, L)
                        - float(_evanescent_mpmath(p, gam, eps, L))))
                qs = np.array([q for q in (1e-9, 1e-4, 0.1, 1.0, 7.0, 29.0)
                               if math.hypot(1.0, q) <= omega and eps > 0.0])
                ps = np.hypot(1.0, qs)
                on_arrays = slab._delta_L_propagating_array(ps, qs, eps, L)
                for p, q, array_value in zip(ps, qs, on_arrays):
                    exact = float(_propagating_mpmath(p, q, eps, L))
                    worst = max(worst,
                                abs(slab._delta_L_propagating(p, q, eps, L)
                                    - exact), abs(array_value - exact))
    assert worst <= 1e-15


def _table_evaluations(monkeypatch, omega_p_L):
    """Evaluations of each h_L call that a full table build makes."""
    evaluations = []
    run = slab.h_L

    def counted(*args, **kwargs):
        res = run(*args, **kwargs)
        evaluations.append(res.evaluations)
        return res

    monkeypatch.setattr(slab, "h_L", counted)
    slab._HLTable(slab.SlabParams(1.0, omega_p_L)).pieces
    return evaluations


def test_h_L_table_evaluation_budget(monkeypatch):
    # With one far piece in x = (omega_p / omega)^2 from 2 omega_p up, the
    # (1, 1) table takes 246 quadratures and 26,481 evaluations in all;
    # with eight segments in omega there it took 405 and 33,159, and with
    # the whole moment in h_L 509 and 114,303.
    evaluations = _table_evaluations(monkeypatch, 1.0)
    assert len(evaluations) == 246
    assert sum(evaluations) <= 27_000


def test_thick_h_L_table_evaluation_budget(monkeypatch):
    # At omega_p L = 10 the whole moment's q piece spanned up to 190
    # periods of the phase: 3,301 quadratures, 5,637,030 evaluations.  The
    # evanescent half took 373 and 29,337 in segments of omega, and takes
    # 230 and 21,861 with the far piece in x.
    evaluations = _table_evaluations(monkeypatch, 10.0)
    assert len(evaluations) == 230
    assert sum(evaluations) <= 22_500


@pytest.mark.parametrize("omega_p_L, T", [(10.0, 1.0), (0.606, 100.0)])
def test_L_TM_swapped_half_matches_nested_quadpack(omega_p_L, T):
    # F's and S's propagating halves, in swapped order on arrays and by
    # nested scalar QUADPACK in the usual order, agree within the sum of
    # their errors; at omega_p L = 10 the nested route took 5.6 million
    # evaluations through the h_L table.
    params = slab.SlabParams(1.0, omega_p_L)
    outer = QuadSettings(rel_tol=1e-8)
    swapped = slab._tm_propagating(
        params, min(40.0 * T, 60.0), slab._thermal_columns(T), outer,
        QuadResult(np.zeros(2), np.zeros(2), 0))
    nested = verification._tm_propagating_nested(T, params, outer)
    for value, error, (ref, ref_error) in zip(
            swapped.value, swapped.error_estimate, nested):
        assert abs(value - ref) <= error + ref_error
        assert error <= max(1e-12, 1e-8 * abs(ref))


def _between_nodes(n, count=12):
    """At least ``count`` points of (-1, 1) strictly between the nodes
    cos(j pi / n), j = 0..n, of a degree-n piece."""
    per_gap = -(-count // n)
    gaps = sorted({j * n // count for j in range(count)}) \
        if n >= count else range(n)
    return [math.cos((j + (i + 1) / (per_gap + 1)) * math.pi / n)
            for j in gaps for i in range(per_gap)]


@pytest.mark.parametrize("omega_p_L", [1.0, 0.15])
def test_h_L_table_bound_holds_between_nodes_of_log_pieces(omega_p_L):
    # The log pieces interpolate h_L / omega in s = log|omega/omega_p - 1|;
    # between their nodes the table must still lie within its pointwise
    # bound plus the error of a direct h_L call.
    params = slab.SlabParams(omega_p=1.0, L=omega_p_L)
    table = slab._table(params)
    log_pieces = [piece for piece in table.pieces if piece[4] in (-1, 1)]
    assert {piece[4] for piece in log_pieces} == {-1, 1}
    for lo, hi, a, b, side, _, rest, _ in log_pieces:
        points = _between_nodes(len(rest))
        assert len(points) >= 12
        for t in points:
            w = slab._fit_omega(0.5 * (a + b) + 0.5 * (b - a) * t, 1.0, side)
            assert lo < w < hi
            direct = slab.h_L(w, params)
            gap = abs(w * table(w) - direct.value)
            assert gap < w * table.bound(w) + direct.error_estimate, w


def test_h_L_table_pieces_tile_and_integrate_exactly():
    # The pieces' omega extents tile [0, 60 omega_p] in order, and the
    # table's integral over each log piece and over the far piece, the
    # difference of two ``_HLTable.integrate`` calls of weight 1, is that
    # of its interpolants: a tanh-sinh quadrature of the table in omega,
    # split where the cusp grades, agrees to the integrals' relative
    # tolerance.  The table is not the shared one of its params: mpmath
    # reads it at mpf frequencies, which it stores.
    wp = 2.0
    table = slab._HLTable(slab.SlabParams(omega_p=wp, L=0.5))
    pieces = table.pieces
    assert pieces[0][0] == 0.0 and pieces[-1][1] == 60.0 * wp
    assert all(lo < hi for lo, hi, *_ in pieces)
    assert all(left[1] == right[0] for left, right in zip(pieces, pieces[1:]))
    fitted = [piece for piece in pieces if piece[4]]
    assert [piece[4] for piece in fitted] == [-1, 1, slab._FAR]
    assert fitted[-1][:2] == (2.0 * wp, 60.0 * wp)
    for piece in fitted:
        lo, hi, _, _, side = piece[:5]
        cuts = sorted(w for w in (wp + side * wp * 4.0 ** -k
                                  for k in range(2, 10)) if lo < w < hi)
        upto_hi, upto_lo = (table.integrate(lambda w: 1.0, W,
                                            DEFAULT_SETTINGS).value
                            for W in (hi, lo))
        reference = float(mpmath.quad(table, [lo, *cuts, hi]))
        assert upto_hi - upto_lo == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("omega_p_L", [0.01, 0.15, 1.0, 10.0])
def test_h_L_table_far_piece_bound_holds(omega_p_L):
    # The far piece fits h_L in x = (omega_p / omega)^2 and reads it over
    # omega; its pointwise bound, in units of h_L / omega, covers the gap
    # to a direct h_L call (plus that call's error) at 40 frequencies
    # between its ends.
    params = slab.SlabParams(omega_p=1.0, L=omega_p_L)
    table = slab._table(params)
    for w in np.geomspace(2.0, 60.0, 42)[1:-1]:
        w = float(w)
        assert table._piece(w)[4] == slab._FAR
        direct = slab.h_L(w, params)
        gap = abs(w * table(w) - direct.value)
        assert gap <= w * table.bound(w) + direct.error_estimate, w


def test_L_TE_error_is_the_pass_bound_plus_its_tail(monkeypatch):
    # The L_TE record's F and S errors are the sawtooth pass's summed panel
    # bounds plus the tail bound past its cut (the last ``_te_tails``
    # call, at the cut rounded up to whole periods), and a cut at half the
    # chosen K leaves a tail that the pass refuses.
    L_TE = Part.named(slab.PARTS, "L_TE")
    fixed, tail, cut = slab.integrate_fixed, slab._te_tails, slab._te_cut
    for T in (0.1, 10.0):
        bounds, tails = [], []

        def recorded_fixed(*args):
            res = fixed(*args)
            bounds.append(res.error_estimate.sum(axis=0))
            return res

        def recorded_tails(*args):
            tails.append(tail(*args))
            return tails[-1]

        monkeypatch.setattr(slab, "integrate_fixed", recorded_fixed)
        monkeypatch.setattr(slab, "_te_tails", recorded_tails)
        monkeypatch.setattr(slab, "_te_cut", cut)
        (_, F_err), (_, S_err) = L_TE.evaluate(T, P1, DEFAULT_SETTINGS)
        # The errors carry the part's prefactors, T / 2 pi^2 and 1 / 2 pi^2.
        units = np.array([T, 1.0]) / (2.0 * math.pi ** 2)
        assert np.all(units * tails[-1] > 1e-3 * np.array([F_err, S_err]))
        assert [F_err, S_err] == pytest.approx(
            units * (np.sum(bounds, axis=0) + tails[-1]), rel=1e-12, abs=0.0)

        monkeypatch.setattr(slab, "_te_cut", lambda *args: 0.5 * cut(*args))
        with pytest.raises(QuadratureError):
            L_TE.evaluate(T, P1, DEFAULT_SETTINGS)


def test_L_TE_array_call_runs_each_temperature_on_its_own(monkeypatch):
    # Each temperature of an array call runs its own sawtooth pass and, if
    # it misses its tolerance, its own halving retry: the array call returns
    # each one-temperature call bit for bit, and at these settings only
    # T = 0.1 takes the halving pass (two ``_te_panels`` calls, the others
    # one each).
    params = slab.SlabParams(omega_p=1.0, L=0.3)
    tight = QuadSettings(1e-16, 1e-13)
    Ts = np.array([1e-3, 0.1, 10.0])
    L_TE = Part.named(slab.PARTS, "L_TE")
    panels, calls = slab._te_panels, []

    def counted(*args):
        calls.append(args)
        return panels(*args)

    monkeypatch.setattr(slab, "_te_panels", counted)
    (F, F_err), (S, S_err) = L_TE.evaluate(Ts, params, tight)
    assert len(calls) == 4
    passes = []
    for i, T in enumerate(Ts):
        calls.clear()
        (f, f_err), (s, s_err) = L_TE.evaluate(T, params, tight)
        assert (f, f_err, s, s_err) == (F[i], F_err[i], S[i], S_err[i])
        passes.append(len(calls))
    assert passes == [1, 2, 1]


def _te_log_D(kappa, L):
    # log D_TE at omega_p = 1: rho^2 = (Q - kappa)^4, Q = sqrt(kappa^2 + 1)
    Q = mpmath.sqrt(kappa * kappa + 1)
    return mpmath.log(1 - (Q - kappa) ** 4 * mpmath.exp(-2 * Q * L))


def _te_matsubara(T, L):
    # (F, S) of L_TE at omega_p = 1 from the Matsubara sum over xi_l = 2 pi
    # l T: F = T Sum'_l G(xi_l) - (1/4 pi^2) Int kappa^2 log D dkappa and
    # S = -[G(0)/2 + Sum_{l>=1} (G(xi_l) + xi_l G'(xi_l))], with G(xi) =
    # (1/2 pi) Int_xi^inf kappa log D dkappa and G'(xi) = -xi log D(xi) /
    # 2 pi.  log D < e^-80 beyond kappa = 40/L + 40.
    h = 2 * mpmath.pi * T
    xi = [h * l for l in range(int((40 / L + 40) / h) + 2)] + [mpmath.inf]
    pieces = [mpmath.quad(lambda k: k * _te_log_D(k, L), [a, b])
              for a, b in zip(xi, xi[1:])]
    G = [mpmath.fsum(pieces[l:]) / (2 * mpmath.pi)
         for l in range(len(pieces))]
    moment = mpmath.quad(lambda k: k * k * _te_log_D(k, L),
                         [0, 1, 5, 20, mpmath.inf])
    F = T * (G[0] / 2 + mpmath.fsum(G[1:])) - moment / (4 * mpmath.pi ** 2)
    S = -(G[0] / 2 + mpmath.fsum(
        G[l] - xi[l] ** 2 * _te_log_D(xi[l], L) / (2 * mpmath.pi)
        for l in range(1, len(G))))
    return F, S


def _te_real_frequency(T, L):
    # (F, S) of L_TE at omega_p = 1 from its defining real-frequency
    # integrals (T, 1)/(2 pi^2) Int p (blog, g)(p/T) delta_L_TE(p) dp, with
    # delta_L_TE = arg(1 - E e^{4 i beta}) below omega_p, E = e^{-2 gamma L},
    # beta = arg(p + i gamma); beyond omega_p the weights are below e^-100.
    def delta(p):
        gam = mpmath.sqrt(1 - p * p)
        E = mpmath.exp(-2 * gam * L)
        return mpmath.arg(1 - E * mpmath.exp(4j * mpmath.atan2(gam, p)))

    def blog(x):
        return mpmath.log(-mpmath.expm1(-x))

    pts = [p for p in (0, T, 4 * T, 16 * T, 64 * T) if p < 1] + [1]
    F = mpmath.quad(lambda p: p * blog(p / T) * delta(p), pts)
    S = mpmath.quad(lambda p: p * (p / T / mpmath.expm1(p / T) - blog(p / T))
                    * delta(p), pts)
    return T * F / (2 * mpmath.pi ** 2), S / (2 * mpmath.pi ** 2)


@pytest.mark.parametrize("T", [1e-4, 1e-3, 1e-2, 1.0, 100.0])
@pytest.mark.parametrize("omega_p_L", [0.3, 1.0, 10.0])
def test_L_TE_matches_mpmath_within_its_error(omega_p_L, T):
    # The sawtooth pass against 30-digit mpmath of the Matsubara sum (T >=
    # 1) or of the real-frequency integrals (T <= 1e-2).  At T = 1e-4 the
    # 4,000 to 61,000 periods cancel to a moment of order T^3; for a thick
    # slab, where the part is of order e^{-2 omega_p L}, the reported
    # relative error stays below 1e-8.
    (F, F_err), (S, S_err) = Part.named(slab.PARTS, "L_TE").evaluate(
        T, slab.SlabParams(1.0, omega_p_L), DEFAULT_SETTINGS)
    with mpmath.workdps(30):
        reference = (_te_matsubara if T >= 1.0 else _te_real_frequency)(
            mpmath.mpf(T), mpmath.mpf(omega_p_L))
    F_ref, S_ref = (float(v) for v in reference)
    assert abs(F - F_ref) <= F_err
    assert abs(S - S_ref) <= S_err
    if omega_p_L == 10.0 and T >= 1.0:
        assert F_err < 1e-8 * abs(F) and S_err < 1e-8 * abs(S)


def test_thickness_te_runs_no_quadpack(monkeypatch):
    # The TE thickness part and the TE route of d run on the panel rule
    # only: with QUADPACK unavailable they still give their values.
    def boom(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(slab, "integrate_finite", boom)
    monkeypatch.setattr(scipy.integrate, "quad", boom)
    for T in (1e-3, 1.0, 100.0):
        (F, _), (S, _) = slab._thickness_te(np.array([T]), P1,
                                            DEFAULT_SETTINGS)
        assert np.isfinite(F[0]) and np.isfinite(S[0])
    assert math.isfinite(slab.slab_constant_d(route="TE").value)


def test_surface_and_exp_parts_run_no_quadpack(monkeypatch):
    # The surface and exp parts run on the panel rule only, and in the
    # whole slab QUADPACK runs only inside the h_L table.
    finite, quad = numkernel.integrate_finite, scipy.integrate.quad

    def boom(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(slab, "integrate_finite", boom)
    monkeypatch.setattr(scipy.integrate, "quad", boom)
    for evaluate in (slab._surface_te, slab._surface_tm, slab._exp):
        for T in (1e-3, 1.0, 100.0):
            (F, _), (S, _) = evaluate(np.array([T]), P1, DEFAULT_SETTINGS)
            assert np.isfinite(F[0]) and np.isfinite(S[0])

    def table_only(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        assert caller in ("h_L", "integrate"), f"QUADPACK in {caller}"
        return finite(*args, **kwargs)

    monkeypatch.setattr(slab, "integrate_finite", table_only)
    monkeypatch.setattr(scipy.integrate, "quad", quad)
    for T in (1e-3, 1.0, 100.0):
        assert math.isfinite(slab.total(T, slab.SlabParams(1.0, 0.7)).S_total)


def test_s_TM_error_is_the_passes_bounds_plus_its_tail(monkeypatch):
    # The s_TM record's F and S errors are the summed bounds of its edge
    # and bulk panel-rule passes plus the bulk's tail bound, whose S row
    # carries the factor T of the column omega n'(omega / T).
    s_TM = Part.named(slab.PARTS, "s_TM")
    panels, tail = numkernel.integrate_panels, slab._truncation_bound
    for T in (0.1, 10.0):
        bounds, tails = [], []

        def recorded_panels(*args, **kwargs):
            res = panels(*args, **kwargs)
            bounds.append(res.error_estimate)
            return res

        def recorded_tail(*args):
            tails.append(tail(*args)[:, 0])
            return tail(*args)

        monkeypatch.setattr(numkernel, "integrate_panels", recorded_panels)
        monkeypatch.setattr(slab, "_truncation_bound", recorded_tail)
        (_, F_err), (_, S_err) = s_TM.evaluate(T, P1, DEFAULT_SETTINGS)
        assert len(bounds) == 2 and len(tails) == 1
        # Each piece's errors carry its prefactors: (T, 1) / 4 pi for the
        # edge piece, (1, 1 / T^2) / 2 pi^2 for the bulk.
        edge = bounds[0] * [T, 1.0] / (4.0 * math.pi)
        bulk = ((bounds[1] + tails[0] * [1.0, T]) * [1.0, 1.0 / T ** 2]
                / (2.0 * math.pi ** 2))
        assert [F_err, S_err] == pytest.approx(edge + bulk, rel=1e-12,
                                               abs=0.0)


@pytest.mark.parametrize("T", [1e-5, 1e-4])
def test_surface_and_exp_parts_follow_their_low_T_laws(T):
    # Far below omega_p the weights live at omega ~ T: s_TE's record S ->
    # -3 zeta(3) T^2 / (2 pi) (1 + O(T)), exp's S -> omega_p^2 L T / 12
    # (1 + O(T^2)) and the raw TM surface S -> -15 zeta(3) T^2 / (4 pi)
    # (1 + O(T log T)).  Scalar QUADPACK missed the peak at omega ~ T on
    # [T, omega_p] here and returned these a factor 1.6 to 3500 off.
    params = slab.SlabParams(omega_p=1.0, L=0.7)
    (_, _), (S_te, _) = Part.named(slab.PARTS, "s_TE").evaluate(T, params)
    assert S_te == pytest.approx(-3.0 * ZETA3 * T * T / (2.0 * math.pi),
                                 rel=1e-3)
    assert slab.S_exp_subtr(T, params) == pytest.approx(0.7 * T / 12.0,
                                                        rel=1e-6)
    assert slab.S_s_TM(T, params) == pytest.approx(
        -15.0 * ZETA3 * T * T / (4.0 * math.pi), rel=1e-2)


def test_surface_and_exp_envelopes_beyond_the_cutoff():
    # The tail bounds assume |omega (h - h_inf)| <= 0.68 omega_p^3 / omega
    # and |_branch_weight| <= 0.126 omega_p^4 / omega^2 beyond 8 omega_p.
    for omega_p in (1.0, 2.5):
        params = slab.SlabParams(omega_p=omega_p, L=1.0)
        w = np.geomspace(8.0 * omega_p, 1e6 * omega_p, 400)
        h_inf = slab._H_INF * omega_p
        assert np.all(np.abs(w * w * (slab.h(w, params) - h_inf))
                      <= 0.68 * omega_p ** 3)
        assert np.all(np.abs(w * w * slab._branch_weight(w, params))
                      <= 0.126 * omega_p ** 4)


@pytest.mark.parametrize("T", [1.0, 100.0])
def test_surface_and_exp_tail_bounds_cover_the_dropped_tail(T):
    # Each cut-off integrand of s_TM (bulk moment) and exp, integrated past
    # its cut at a tight tolerance, against the bound the part adds.
    wp = P1.omega_p
    cut = max(40.0 * T, 8.0 * wp)
    Ts = np.array([T])
    columns = slab._thermal_columns(T)
    cases = [(lambda w: w * (slab.h(w, P1) - slab._H_INF * wp),
              lambda w: columns(np.array([w]))[0],
              slab._truncation_bound(Ts, cut, 0.68 * wp ** 3, -1)[:, 0]
              * [1.0, T]),
             (lambda w: slab._branch_weight(w, P1),
              lambda w: numkernel.thermal_weights(w / T),
              slab._truncation_bound(Ts, cut, 0.126 * wp ** 4, -2)[:, 0])]
    for density, weights, bounds in cases:
        for j, bound in enumerate(bounds):
            dropped = scipy.integrate.quad(
                lambda w: float(density(w) * weights(w)[j]), cut, np.inf,
                epsabs=0.0, epsrel=1e-10)[0]
            assert 0.0 < abs(dropped) <= bound <= 2.0 * abs(dropped)


def test_thickness_te_memory_stays_flat():
    # At omega_p L = 0.6, T = 1e-3 the pass spans about 3,500 sawtooth
    # periods; in chunks, one call's peak stays below 2 MB.
    params = slab.SlabParams(omega_p=1.0, L=0.6)
    tracemalloc.start()
    try:
        slab._thickness_te(np.array([1e-3]), params, DEFAULT_SETTINGS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _counted_h_L(monkeypatch):
    """A list that grows by one entry per ``slab.h_L`` call."""
    calls = []
    run = slab.h_L

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run(*args, **kwargs)

    monkeypatch.setattr(slab, "h_L", counted)
    return calls


def test_h_L_table_does_not_depend_on_build_order():
    # A read depends on (params, omega) alone: whether a T = 0.01 call or a
    # T = 100 call built the table's segments first, on fresh caches, the
    # two calls return the same bits and every stored read is the same.
    params = slab.SlabParams(omega_p=1.0, L=0.8)
    runs = []
    for order in ((0.01, 100.0), (100.0, 0.01)):
        slab._table.cache_clear()
        values = {T: slab.F_L_TM(T, params) for T in order}
        runs.append((values, dict(slab._table(params)._reads)))
    (values, reads), (values_2, reads_2) = runs
    assert values == values_2
    assert reads == reads_2 and len(reads) > 100
    slab._table.cache_clear()


def test_h_L_table_is_shared_by_all_settings(monkeypatch):
    # h_L and the table fix their own tolerances, so a second set of
    # QuadSettings reuses every segment the first one built, and every
    # read: at T = 1 (W = 40) those that start below 40 omega_p.
    params = slab.SlabParams(omega_p=1.0, L=0.8)
    slab._table.cache_clear()
    slab.F_L_TM(1.0, params)
    table = slab._table(params)
    built = [segment is not None for segment in table._segments]
    assert built == [lo < 40.0 for lo in slab._TABLE_EDGES[:-1]]
    calls = _counted_h_L(monkeypatch)
    reads = len(table._reads)
    slab.F_L_TM(1.0, params, QuadSettings(abs_tol=1e-10, rel_tol=1e-6))
    assert calls == [] and len(table._reads) == reads
    assert slab._table(params) is table


def test_second_slab_total_makes_no_h_L_call(monkeypatch):
    # The table of a point, with its stored reads, outlives the call that
    # built it: a second ``slab.total`` at the same point and temperatures
    # runs no h_L quadrature and returns the same bits.
    params = slab.SlabParams(omega_p=1.0, L=0.55)
    slab._table.cache_clear()
    calls = _counted_h_L(monkeypatch)
    Ts = np.array([0.01, 0.3, 10.0])
    first = slab.total(Ts, params)
    assert calls
    calls.clear()
    second = slab.total(Ts, params)
    assert calls == []
    assert np.array_equal(first.S_total, second.S_total)
    assert np.array_equal(first.quad_error, second.quad_error)


def test_h_L_table_cache_is_bounded():
    # One table per params, and no more than ``_TABLES`` of them: a sweep
    # over more points than that drops the oldest.
    slab._table.cache_clear()
    assert slab._table.cache_info().maxsize == slab._TABLES
    tables = [slab._table(slab.SlabParams(1.0, 0.1 * (i + 1)))
              for i in range(slab._TABLES + 3)]
    assert len({id(table) for table in tables}) == slab._TABLES + 3
    assert slab._table.cache_info().currsize == slab._TABLES
    assert slab._table(slab.SlabParams(1.0, 0.1)) is not tables[0]
    assert slab._table(tables[-1]._params) is tables[-1]
    slab._table.cache_clear()


def test_L_TM_quad_error_includes_table_term(monkeypatch):
    terms = []
    error = slab._HLTable.error

    def recorded(self, W, weight):
        terms.append(error(self, W, weight))
        return terms[-1]

    monkeypatch.setattr(slab._HLTable, "error", recorded)
    point = ThermoPoint.evaluate((Part.named(slab.PARTS, "L_TM"),), 2.0,
                                 slab.SlabParams(omega_p=2.0, L=0.5),
                                 DEFAULT_SETTINGS)
    assert len(terms) == 2 and min(terms) > 0.0
    # At unit scale T = 1: the errors carry the prefactors 1 / 2 pi^2 of F
    # and 1 / (2 pi^2 T^2) of S.
    terms = [term / (2.0 * math.pi ** 2) for term in terms]
    assert point.F_error[0] >= terms[0] and point.S_error[0] >= terms[1]
    assert point.quad_error >= max(terms)


def test_h_small_omega_series():
    # h = -3 pi w / 2 + (2 w^2 / omega_p)(log(omega_p / w) + 1) + O(w^3)
    w = 1e-5
    coeff = (slab.h(w, P1) + 1.5 * math.pi * w) / (2.0 * w * w)
    assert coeff - math.log(1.0 / w) == pytest.approx(1.0, abs=1e-6)


def test_series_constants():
    n = range(2, 2000)
    zeta4_prime = (-sum(math.log(k) / k ** 4 for k in n)
                   - (3.0 * math.log(2000) + 1.0) / (9.0 * 2000 ** 3))
    assert slab._ZETA4_LOGDERIV == pytest.approx(
        zeta4_prime / (math.pi ** 4 / 90.0), rel=1e-10)
    zeta5 = 1.0 + sum(1.0 / k ** 5 for k in n) + 1.0 / (4.0 * 2000 ** 4)
    assert ZETA5 == pytest.approx(zeta5, rel=1e-12)


def test_low_T_laws_with_corrections():
    T = 3e-3
    tight = QuadSettings(abs_tol=1e-24, rel_tol=1e-10)
    law = (5.0 * ZETA3 / (4.0 * math.pi)
           + slab.surface_tm_low_T_correction(T, P1))
    assert slab.F_s_TM(T, P1, tight) / T ** 3 == pytest.approx(law, rel=1e-5)
    c = slab.thickness_series(P1)
    ratio = slab.F_L_TM(T, P1, tight) / slab.F_L_TE(T, P1, tight)
    assert ratio == pytest.approx(
        3.0 * c.tm_factor(T) / c.te_factor(T), rel=1e-4)


def test_delta_L_decays_with_thickness():
    thick = slab.SlabParams(omega_p=1.0, L=60.0)
    assert abs(slab.delta_L(Channel.TE, 0.5, 2.0, thick)) < 1e-12


def test_exp_part_scales_linearly_in_L():
    a = slab.S_exp_subtr(3.0, slab.SlabParams(omega_p=1.0, L=1.0))
    b = slab.S_exp_subtr(3.0, slab.SlabParams(omega_p=1.0, L=2.0))
    assert b == pytest.approx(2.0 * a, rel=1e-10)


@given(a=st.floats(min_value=0.3, max_value=3.0),
       T=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_F_exp_subtr_linear_in_L(a, T):
    b = slab.F_exp_subtr(T, slab.SlabParams(omega_p=1.0, L=a))
    assert b == pytest.approx(a * slab.F_exp_subtr(T, P1), rel=1e-9)


def test_F_exp_offset_identity():
    T = 0.7
    assert slab.F_exp(T, P1) == pytest.approx(
        slab.F_exp_subtr(T, P1) + T * T / 24.0, rel=1e-12)


def test_validators_pass():
    # The oracle suite gates the same gaps at (2.5, 0.06), a point off
    # unit scale whose shape omega_p L = 0.15 also differs from P1's.
    for params in (P1, slab.SlabParams(omega_p=2.5, L=0.06)):
        assert slab.validate_surface_weight(params) < 1e-8
        assert slab.validate_exp_part(params) < 1e-6


def test_slab_constant_c():
    assert slab.slab_constant_c() == pytest.approx(math.pi / 2.0, abs=1e-6)


def test_slab_constant_d_literal():
    # d = (1/4 pi) Int_0^inf kappa log D_TE(kappa) dkappa at zero imaginary
    # frequency, omega_p = L = 1: Q = sqrt(kappa^2 + 1),
    # rho = (kappa - Q)/(kappa + Q), D = 1 - rho^2 e^{-2 Q}.
    def f(kappa):
        Q = mpmath.sqrt(kappa * kappa + 1)
        rho = (kappa - Q) / (kappa + Q)
        return kappa * mpmath.log(1 - rho * rho * mpmath.exp(-2 * Q))

    with mpmath.workdps(30):
        d = mpmath.quad(f, [0, 1, 5, 20, mpmath.inf]) / (4 * mpmath.pi)
    assert float(d) == verification._SLAB_D


def test_slab_constant_d_routes_agree():
    # Each route lies within its reported error of the exact d, the TM
    # route with its cut's allowance (the TE route bounds its own tail);
    # the TE route is exact to 1e-13.
    d = verification._SLAB_D
    d_te = slab.slab_constant_d(route="TE")
    d_tm = slab.slab_constant_d(route="TM")
    assert abs(d_te.value - d) <= d_te.error_estimate
    assert d_te.value == pytest.approx(d, rel=1e-13, abs=0.0)
    assert abs(d_tm.value - d) <= d_tm.error_estimate + verification._D_TM_CUT
    # The TM route's error holds the table's bound and the swapped half's.
    bound = slab._table(P1).error(60.0, lambda w: 1.0)
    assert d_tm.error_estimate > bound / (2.0 * math.pi ** 2)


@pytest.mark.parametrize("omega_p", [1.0, 2.5])
def test_tm_moment_refuses_frequencies_beyond_the_table(omega_p):
    # Above 60 omega_p the table's pieces would extrapolate: at W = 120
    # the TM route gave d with the wrong sign and an error of 1.5e-12.
    params = slab.SlabParams(omega_p=omega_p, L=1.0)
    weights = ((lambda w: 1.0,), lambda w: 1.0 / w[..., None])
    with pytest.raises(ValueError, match="table ends"):
        slab._table(params).integrate(weights[0][0], 90.0 * omega_p,
                                      DEFAULT_SETTINGS)
    with pytest.raises(ValueError, match="table ends"):
        slab._tm_moment(params, 90.0 * omega_p, *weights, DEFAULT_SETTINGS)
    if omega_p == 1.0:
        # W = 60 omega_p, the cut of every caller, reads as it did, within
        # the error reported with the table's eight segments in omega from
        # 2 omega_p up (0.011717717076575235, error 2.798345785290127e-11).
        res = slab._tm_moment(params, 60.0, *weights, DEFAULT_SETTINGS)
        assert float(res.value[0]) == 0.011717717076571516
        assert float(res.error_estimate[0]) == 2.3417483659097576e-11


def test_h_L_table_is_integrated_one_way(monkeypatch):
    # The TM route of slab_constant_d runs the TM thickness part's own
    # integrator: both integrate over the h_L table through
    # _HLTable.integrate, once per weight.
    calls = []
    integrate = slab._HLTable.integrate

    def counted(table, weight, W, settings, breakpoints=()):
        calls.append(W)
        return integrate(table, weight, W, settings, breakpoints)

    monkeypatch.setattr(slab._HLTable, "integrate", counted)
    slab.slab_constant_d(route="TM")
    assert calls == [60.0]
    calls.clear()
    slab.F_L_TM(1.0, P1)
    assert calls == [40.0, 40.0]


def test_S_L_plateau():
    assert slab.S_L(Channel.TE, 200.0, P1) == pytest.approx(
        5.936265e-4, rel=1e-3)


@pytest.mark.parametrize("params", [P1, slab.SlabParams(omega_p=2.0,
                                                       L=0.7)],
                         ids=["P1", "P2_07"])
def test_growth_coefficients(params):
    # (c3, c2, c5) of each part's record, written out independently
    zeta3 = 1.2020569031595943
    wp, L = params.omega_p, params.L
    expected = {
        "s_TE": (-zeta3 / (2.0 * math.pi), 0.0, 0.0),
        "s_TM": (-zeta3 / (2.0 * math.pi), (4.0 - math.pi) * wp / 24.0, 0.0),
        "L_TE": (0.0, 0.0, 0.0),
        "L_TM": (0.0, 0.0, 0.0),
        "exp": (0.0, wp * wp * L / 24.0, 0.0),
    }
    for part in slab.PARTS:
        g = part.growth(params)
        assert (g.c3, g.c2, g.c5) == pytest.approx(expected[part.name],
                                                   rel=1e-14)


# Raw (F, S) of the parts with a growth; exp has no public raw entropy.
RAW_ROUTES = {"s_TE": (slab.F_s_TE, slab.S_s_TE),
              "s_TM": (slab.F_s_TM, slab.S_s_TM),
              "exp": (slab.F_exp, None)}


@pytest.mark.parametrize("name", list(RAW_ROUTES))
def test_raw_minus_subtracted_is_growth(name):
    part = Part.named(slab.PARTS, name)
    raw_F, raw_S = RAW_ROUTES[name]
    g = part.growth(P1)
    for T in (0.01, 0.5, 1.0, 4.0, 100.0):
        (F_sub, _), (S_sub, _) = part.evaluate(T, P1, DEFAULT_SETTINGS)
        assert raw_F(T, P1) - F_sub == pytest.approx(
            g.c3 * T ** 3 + g.c2 * T ** 2, rel=1e-10)
        if raw_S is not None:
            assert raw_S(T, P1) - S_sub == pytest.approx(
                -3.0 * g.c3 * T ** 2 - 2.0 * g.c2 * T, rel=1e-10)
    # the growth is all the T^3 and T^2 there is: the rest is T log T
    (F, _), _ = part.evaluate(1e3, P1, DEFAULT_SETTINGS)
    assert abs(F) < 1e-3 * 1e3 ** 2


SLAB_EVALUATORS = ("_surface_te", "_surface_tm", "_thickness_te",
                   "_thickness_tm", "_exp")


def test_total_runs_each_evaluator_once(monkeypatch):
    # The PARTS lambdas look their evaluator up at call time, so the
    # counting wrappers see every call that total makes.
    calls = dict.fromkeys(SLAB_EVALUATORS, 0)
    for name in SLAB_EVALUATORS:
        def counted(*args, _name=name, _evaluate=getattr(slab, name)):
            calls[_name] += 1
            return _evaluate(*args)

        monkeypatch.setattr(slab, name, counted)
    slab.total(0.5, P1)
    assert calls == dict.fromkeys(SLAB_EVALUATORS, 1)


def test_s_TM_record_holds_its_digits_at_high_T():
    # The record integrates h - h_inf, so no c2 T^2 growth is integrated
    # and then taken off: at T = 100 omega_p its F and S stay within 1e-11
    # and 1e-13 of themselves at tight tolerances (taking the growth off
    # missed by 8.3e-11 and 1.3e-12, as S cancelled about 20-fold).
    params = slab.SlabParams(omega_p=1.0, L=0.5)
    part = Part.named(slab.PARTS, "s_TM")
    tight = QuadSettings(abs_tol=1e-17, rel_tol=1e-13)
    (F, _), (S, _) = part.evaluate(100.0, params, DEFAULT_SETTINGS)
    (F_tight, _), (S_tight, _) = part.evaluate(100.0, params, tight)
    assert abs(F - F_tight) < 1e-11
    assert abs(S - S_tight) < 1e-13


def test_total_computes_no_growth(monkeypatch):
    # Every evaluator leaves its part's growth out of its integrand; only
    # the raw selectors read a growth.
    def refuse(params):
        raise AssertionError("an evaluator computed a growth")

    monkeypatch.setattr(slab, "_s_te_growth", refuse)
    monkeypatch.setattr(slab, "_s_tm_growth", refuse)
    for T in (0.01, 1.0, 100.0):
        point = slab.total(T, P1)
        assert math.isfinite(point.F_total) and math.isfinite(point.S_total)


def test_single_surface_mode():
    k = 1.0 / math.sqrt(2.0)
    w = slab.single_surface_mode(k, P1)
    assert w == pytest.approx(math.sqrt(1.0 - k), rel=1e-12)
    assert slab.single_surface_mode(50.0, P1) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-4)


def test_plasmon_dispersion_frozen_root():
    p2 = slab.SlabParams(omega_p=1.0, L=2.0)
    w = slab.plasmon_dispersion(1.0, p2)
    assert w == pytest.approx(0.591564242, abs=1e-8)
    assert slab.plasmon_mode_residual(w, 1.0, p2) < 1e-10


def test_plasmon_dispersion_near_light_line():
    # at small k L the mode pair hugs the light line; the root must
    # still be found and stay below it
    w = slab.plasmon_dispersion(0.05, P1)
    assert w == pytest.approx(0.049711771210, abs=1e-9)
    assert w < 0.05
    assert slab.plasmon_mode_residual(w, 0.05, P1) < 1e-9


@given(k=st.floats(min_value=0.05, max_value=30.0))
@settings(max_examples=30, deadline=None)
def test_plasmon_bound(k):
    w = slab.plasmon_dispersion(k, P1)
    assert w <= 1.0 / math.sqrt(2.0)
    assert w < k


def _single_surface_mpmath(k, wp):
    k, wp = mpmath.mpf(k), mpmath.mpf(wp)
    return wp * k / mpmath.sqrt(wp ** 2 / 2 + k ** 2
                                + mpmath.sqrt(k ** 4 + wp ** 4 / 4))


@pytest.mark.parametrize("wp", [1.0, 2.5])
def test_single_surface_mode_matches_mpmath(wp):
    # omega^2 = wp^2/2 + k^2 - sqrt(k^4 + wp^4/4) cancels on the light
    # line (small k) and toward wp/sqrt(2) (large k); the closed form must
    # keep its relative accuracy at both ends.
    params = slab.SlabParams(omega_p=wp, L=1.0)
    with mpmath.workdps(50):
        for k in np.geomspace(1e-8, 1e6, 57) * wp:
            want = _single_surface_mpmath(k, wp)
            got = slab.single_surface_mode(float(k), params)
            assert abs(got - want) <= 4e-16 * want, k


def _plasmon_mpmath(k, wp, L):
    """omega_-(k) by bisection in 100-digit arithmetic on (omega_s/2^j,
    omega_s), with the mode condition in its plain product form."""
    with mpmath.workdps(100):
        k, wp, L = (mpmath.mpf(v) for v in (k, wp, L))
        w_s = _single_surface_mpmath(k, wp)

        def f(w):
            eta = mpmath.sqrt(k * k - w * w)
            gam = mpmath.sqrt(eta * eta + wp * wp)
            a = (1 - wp * wp / (w * w)) * eta
            return (a + gam) ** 2 - (a - gam) ** 2 * mpmath.exp(-2 * gam * L)

        j = 1
        while f(w_s / 2 ** j) <= 0:
            j += 1
        lo, hi = w_s / 2 ** j, w_s
        for _ in range(j + 90):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        return (lo + hi) / 2


@pytest.mark.parametrize("wL", [0.01, 0.1, 1.0, 5.0, 20.0, 50.0])
def test_plasmon_dispersion_matches_mpmath(wL):
    # From thin slabs, where omega_- hugs the light line at small k and
    # sits far below omega_s at large k, to thick ones, where it is
    # omega_s to within e^{-gamma L}.
    params = slab.SlabParams(omega_p=1.0, L=wL)
    for k in (1e-6, 1e-4, 1e-2, 1.0, 30.0, 100.0, 300.0, 1e4):
        want = _plasmon_mpmath(k, 1.0, wL)
        got = slab.plasmon_dispersion(k, params)
        assert abs(got - want) <= 4e-15 * want, k


def test_plasmon_dispersion_solves_everywhere():
    for wL in np.geomspace(1e-3, 100.0, 11):
        params = slab.SlabParams(omega_p=1.0, L=float(wL))
        for k in np.geomspace(1e-7, 1e5, 49):
            w = slab.plasmon_dispersion(float(k), params)
            assert 0.0 < w <= slab.single_surface_mode(float(k), params)


def test_plasmon_large_L_merges_to_single_surface():
    thick = slab.SlabParams(omega_p=1.0, L=50.0)
    for k in (0.3, 1.0, 5.0):
        assert slab.plasmon_dispersion(k, thick) == pytest.approx(
            slab.single_surface_mode(k, thick), abs=1e-6)


def test_total_breakdown_sums():
    point = slab.total(1.0, P1)
    assert point.names == ("s_TE", "s_TM", "L_TE", "L_TM", "exp")
    assert point.names == tuple(p.name for p in slab.PARTS)
    F = {name: point.part(name)[0] for name in point.names}
    total_F = F["s_TE"] + F["s_TM"] + F["L_TE"] + F["L_TM"] + F["exp"]
    assert point.F_total == pytest.approx(total_F, rel=1e-15)
    assert point.S_total == pytest.approx(sum(point.S), rel=1e-15)
    growth = Part.named(slab.PARTS, "s_TE").growth(P1)
    assert F["s_TE"] == pytest.approx(
        slab.F_s_TE(1.0, P1) - growth.free_energy(1.0), rel=1e-10)
    assert F["L_TE"] == pytest.approx(slab.F_L_TE(1.0, P1), rel=1e-10)
    assert F["exp"] == pytest.approx(slab.F_exp_subtr(1.0, P1), rel=1e-10)
    with pytest.raises(KeyError):
        point.part("sf")


def test_total_is_exactly_scale_covariant():
    # Both run at omega_p = 1, L = 0.5, T = 1e-3, so the scaling is exact
    # even where the absolute tolerance would otherwise show.
    a = slab.total(2e-3, slab.SlabParams(omega_p=2.0, L=0.25))
    b = slab.total(1e-3, slab.SlabParams(omega_p=1.0, L=0.5))
    assert a.F == tuple(8.0 * F for F in b.F)
    assert a.S == tuple(4.0 * S for S in b.S)
    assert (a.F_total, a.S_total) == (8.0 * b.F_total, 4.0 * b.S_total)


# Temperatures that every thermal path refuses: T must be positive and
# finite, a scalar or a non-empty 1-D array.
BAD_TEMPERATURES = (0.0, -2.0, math.nan, math.inf, -math.inf, np.array([]),
                    np.full((2, 2), 0.5), np.array([0.5, math.nan]))


def test_invalid_temperature_rejected():
    # Each is refused at the one boundary (numkernel.per_temperature), by
    # the public functions (F_L_TE(inf) once returned -inf), total and a
    # part's record.
    part = Part.named(slab.PARTS, "L_TM")
    for T in BAD_TEMPERATURES:
        for call in (lambda: slab.F_s_TE(T, P1), lambda: slab.F_exp(T, P1),
                     lambda: slab.F_L_TE(T, P1),
                     lambda: slab.S_L(Channel.TM, T, P1),
                     lambda: slab.total(T, P1),
                     lambda: part.evaluate(T, P1)):
            with pytest.raises(ValueError, match="temperature"):
                call()


@pytest.mark.parametrize("fn", [slab.F_s_TE, slab.S_s_TE, slab.F_s_TM,
                                slab.S_s_TM, slab.F_exp])
def test_raw_routes_take_a_list_of_temperatures(fn):
    # The raw routes add their growth to the record's values; a list T
    # once failed there.
    got = fn([0.5, 1.0], P1)
    assert isinstance(got, np.ndarray)
    assert np.array_equal(got, fn(np.array([0.5, 1.0]), P1))


def _check_unit_scaling(part, lam, T):
    # T, omega_p -> lam *, L -> L / lam: F scales as lam^3, S as lam^2
    scaled = slab.SlabParams(omega_p=lam, L=1.0 / lam)
    (F, _), (S, _) = part.evaluate(lam * T, scaled, DEFAULT_SETTINGS)
    (F_unit, _), (S_unit, _) = part.evaluate(T, P1, DEFAULT_SETTINGS)
    assert F == pytest.approx(lam ** 3 * F_unit, rel=1e-9)
    assert S == pytest.approx(lam ** 2 * S_unit, rel=1e-9)


@given(lam=st.floats(min_value=0.3, max_value=3.0),
       T=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_unit_scaling(lam, T):
    # The absolute quadrature tolerance does not scale, hence T >= 0.05.
    for part in slab.PARTS:
        _check_unit_scaling(part, lam, T)


def test_unit_scaling_thickness_tm():
    # a fixed point on the tabulated h_L path, next to the sampled one above
    _check_unit_scaling(Part.named(slab.PARTS, "L_TM"), 2.0, 1.0)


def test_thickness_parts_decay_like_exp_minus_2_omega_p_L():
    # Each thickness part is O(e^{-2 omega_p L}) once omega_p L is of
    # order one; times e^{2 omega_p L} it stays near its value at L = 1.
    T = 0.1

    def scaled(L):
        params = slab.SlabParams(omega_p=1.0, L=L)
        return [math.exp(2.0 * L) * v for v in (
            slab.F_L_TE(T, params), slab.S_L(Channel.TE, T, params),
            slab.F_L_TM(T, params), slab.S_L(Channel.TM, T, params))]

    ref = scaled(1.0)
    for L in (0.5, 2.0, 3.0):
        for name, v, r in zip(("F_L_TE", "S_L_TE", "F_L_TM", "S_L_TM"),
                              scaled(L), ref):
            assert v == pytest.approx(r, rel=0.2), f"{name}, L={L}"


def test_thin_slab_te_parts_tend_to_the_charged_fluid_sheet():
    # As L -> 0 with omega_p^2 L = 2 Omega0 held (Omega0 = 1), the slab's
    # raw TE parts, with half of the optical-path part that TE and TM
    # share, become the TE channel of a charged-fluid sheet (omega0 = 0).
    # The gap G(L) is O(L): G/L stays within 2% over L = 0.02, 0.01 and
    # 0.005 (about -2.6e-4), and the Richardson value 2 G(0.005) - G(0.01)
    # is below 1e-4 |F_sheet| (4.5e-6 of it).  L_TM and its h_L table are
    # not needed.
    T = 0.3
    sheet = plasma_sheet.free_energy_channel_raw(
        Channel.TE, T, plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0))
    parts = [Part.named(slab.PARTS, name) for name in ("s_TE", "L_TE", "exp")]

    def gap(L):
        params = slab.SlabParams(omega_p=math.sqrt(2.0 / L), L=L)
        point = ThermoPoint.evaluate(parts, T, params, DEFAULT_SETTINGS)
        growths = [part.growth(params) for part in parts]
        s_te, l_te, exp = (F + g.c3 * T ** 3 + g.c2 * T ** 2
                           for F, g in zip(point.F, growths))
        return s_te + l_te + 0.5 * exp - sheet

    G = {L: gap(L) for L in (0.02, 0.01, 0.005)}
    slopes = [g / L for L, g in G.items()]
    assert max(slopes) - min(slopes) <= 0.02 * abs(slopes[-1])
    assert abs(2.0 * G[0.005] - G[0.01]) < 1e-4 * abs(sheet)
