"""Thin plasma sheet: phase shifts, spectral densities, thermodynamics."""

import math
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from artifact import numkernel
from artifact import plasma_sheet as ps
from artifact.numkernel import DEFAULT_SETTINGS
from artifact.spectral import Channel, Part

ZETA3 = 1.2020569031595943
ZETA5 = 1.0369277551433699

P05 = ps.SheetParams(Omega0=1.0, omega0=0.5)
P13 = ps.SheetParams(Omega0=1.0, omega0=1.3)
P00 = ps.SheetParams(Omega0=1.0, omega0=0.0)

# frozen against an independent quadrature of the epsilon representation
H_TE_05 = {
    0.1: -7.332987571151,
    0.3: -4.471426574955e-2,
    0.7: +0.7898456824562,
    1.0: +0.7697220168901,
    2.0: +0.5554791458900,
    5.0: +0.2748818972684,
}
H_TE_13 = {
    0.1: -14.02359807189,
    0.3: -3.640828407871,
    0.7: -0.5700887737887,
    1.0: +0.2810385386761,
    2.0: +0.5919185122186,
    5.0: +0.2763061773346,
}
H_TM_05 = {
    0.1: +4.0529138224,
    0.3: +4.4499017346,
    0.45: +4.9475451872,
    0.49: +5.1018228832,
    0.499: +5.1375949387,
    0.501: -1.1376029136,
    0.51: -1.1025982206,
    0.55: -0.9646750598,
    0.7: -0.6227692550,
    1.0: -0.3182380450,
    2.0: -0.0823186366,
    5.0: -1.3306780321e-2,
}


@pytest.mark.parametrize("table, params", [
    (H_TE_05, P05), (H_TE_13, P13),
])
def test_h_te_frozen_values(table, params):
    for omega, expected in table.items():
        assert ps.h(Channel.TE, omega, params) == pytest.approx(
            expected, rel=1e-9), f"h_TE({omega})"


def test_h_tm_frozen_values():
    for omega, expected in H_TM_05.items():
        assert ps.h(Channel.TM, omega, P05) == pytest.approx(
            expected, rel=1e-9), f"h_TM({omega})"


def test_h_closed_points():
    assert ps.h(Channel.TE, 1.0, P00) == pytest.approx(math.pi / 4.0,
                                                       rel=1e-12)
    assert ps.h(Channel.TM, 1.0, P00) == pytest.approx(
        2.0 - 3.0 * math.pi / 4.0, rel=1e-12)


def test_h_te_continuous_at_resonance():
    # the TE density crosses the shell smoothly with value 2/(3 Omega0)
    lim = 2.0 / 3.0
    below = ps.h(Channel.TE, 0.5 - 1e-7, P05)
    above = ps.h(Channel.TE, 0.5 + 1e-7, P05)
    assert below == pytest.approx(lim, abs=1e-5)
    assert above == pytest.approx(lim, abs=1e-5)


def test_h_tm_jump_at_resonance():
    # the TM density jumps by -pi/omega0 across the shell
    w0 = 0.5
    eps = 1e-9
    jump = ps.h(Channel.TM, w0 + eps, P05) - ps.h(Channel.TM, w0 - eps, P05)
    assert jump == pytest.approx(-math.pi / w0, rel=1e-6)


def test_pole_raises():
    with pytest.raises(ValueError):
        ps.phase_shift(Channel.TE, 0.3, 0.4, P05)
    with pytest.raises(ValueError):
        ps.phase_shift_deriv(Channel.TM, 0.3, 0.4, P05)
    with pytest.raises(ValueError):
        ps.phase_shift(Channel.TE, -0.1, 0.4, P05)
    with pytest.raises(ValueError):
        ps.phase_shift(Channel.TM, 0.0, 0.0, P05)


@pytest.mark.parametrize("p", [1e-4, 1e-8, 1e-12])
def test_phase_deriv_next_to_the_shell(p):
    # At k = omega0, omega^2 - omega0^2 = p^2 exactly, which
    # hypot(p, k)^2 - omega0^2 loses to the rounding of k^2: the derivative
    # read 0.89 instead of 1 (TM) at p = 1e-8, and (1e-12, omega0) raised a
    # false pole.  With a = p^2 the rational derivatives reduce to
    # Omega0 / (p^2 + Omega0^2) (TM) and
    # Omega0 p^2 (p^2 + 3 omega0^2) / (p^6 + Omega0^2 (p^2 + omega0^2)^2) (TE).
    O0, w0 = P05.Omega0, P05.omega0
    tm = O0 / (p * p + O0 * O0)
    te = (O0 * p * p * (p * p + 3.0 * w0 * w0)
          / (p ** 6 + O0 * O0 * (p * p + w0 * w0) ** 2))
    assert ps.phase_shift_deriv(Channel.TM, p, w0, P05) == pytest.approx(
        tm, rel=1e-14)
    assert ps.phase_shift_deriv(Channel.TE, p, w0, P05) == pytest.approx(
        te, rel=1e-14)


def test_h_subtr_removes_rational_tail():
    # h - h_subtr is the full subtraction density: pi/(2 omega)
    # - Omega0/omega^2 (TE) and -Omega0/(3 omega^2) (TM), whose thermal
    # integrals are exactly c3 T^3 + c2 T^2
    for omega in (0.3, 0.9, 5.0):
        te_tail = math.pi / (2.0 * omega) - 1.0 / omega ** 2
        tm_tail = -1.0 / (3.0 * omega ** 2)
        assert ps.h(Channel.TE, omega, P05) - ps.h_subtr(
            Channel.TE, omega, P05) == pytest.approx(te_tail, rel=1e-10)
        assert ps.h(Channel.TM, omega, P05) - ps.h_subtr(
            Channel.TM, omega, P05) == pytest.approx(tm_tail, rel=1e-10)
    for ch in (Channel.TE, Channel.TM):
        assert abs(ps.h_subtr(ch, 500.0, P05)) < 1e-5
    # the omega -> 0 weight omega^2 h_subtr -> Omega0 (TE), Omega0/3
    # (TM) is what produces the linear low-T entropy slopes
    w = 1e-6
    assert w * w * ps.h_subtr(Channel.TE, w, P05) == pytest.approx(
        1.0, rel=1e-4)
    assert w * w * ps.h_subtr(Channel.TM, w, P05) == pytest.approx(
        1.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("w0", [0.5, 0.8, 1.3])
def test_h_subtr_te_on_the_resonance_shell(w0):
    # omega = omega0 exactly: the subtraction of the tail is all that
    # changes, and the value joins its neighbours continuously
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    on_shell = ps.h_subtr(Channel.TE, w0, params)
    assert on_shell == (ps.h(Channel.TE, w0, params)
                        - 0.5 * math.pi / w0 + 1.0 / (w0 * w0))
    for side in (1.0, -1.0):
        near = ps.h_subtr(Channel.TE, w0 * (1.0 + side * 1e-9), params)
        assert near == pytest.approx(on_shell, rel=1.4e-8)


def test_te_sum_rule_with_a_node_on_the_shell():
    # omega0 a few ulps below the breakpoint Omega0 puts a quadrature
    # node exactly on the resonance shell
    params = ps.SheetParams(Omega0=1.0, omega0=0.9999999999999996)
    w0 = params.omega0
    assert ps.spectral_sum_rule(Channel.TE, params).value == pytest.approx(
        math.pi * (0.25 - 0.5 * w0 * w0), abs=1e-9)


def test_shell_weight():
    assert ps.shell_weight(Channel.TM, P05) == pytest.approx(
        -0.5 * math.pi * 0.25, rel=1e-15)
    assert ps.shell_weight(Channel.TE, P00) == 0.0


@pytest.mark.parametrize("params", [P05, ps.SheetParams(Omega0=2.0,
                                                       omega0=1.3)],
                         ids=["P05", "P2_13"])
def test_growth_coefficients(params):
    # (c3, c2, c5) of each part's record, written out independently
    O0, w0 = params.Omega0, params.omega0
    expected = {
        "TE": (-ZETA3 / (4.0 * math.pi), O0 / 12.0, 0.0),
        "TM": (0.0, O0 / 36.0, 0.0),
        "sf": (-(1.0 - 2.0 * (w0 / O0) ** 2) * ZETA3 / (2.0 * math.pi), 0.0,
               -6.0 * ZETA5 / (math.pi * O0 ** 2)),
    }
    for part in ps.PARTS:
        g = part.growth(params)
        assert (g.c3, g.c2, g.c5) == pytest.approx(expected[part.name],
                                                   rel=1e-14)


@pytest.mark.parametrize("params", [P00, P05, P13])
def test_te_sum_rule_closed_form(params):
    # with the shell: pi (Omega0^2/4 - omega0^2/2); continuum alone:
    # pi Omega0^2/4
    w0 = params.omega0
    full = ps.spectral_sum_rule(Channel.TE, params).value
    cont = full - ps.shell_weight(Channel.TE, params)
    assert cont == pytest.approx(math.pi / 4.0, abs=1e-9)
    assert full == pytest.approx(math.pi * (0.25 - 0.5 * w0 * w0), abs=1e-9)


@pytest.mark.parametrize("w0", [0.0, 0.5, 0.7, 1.4])
@pytest.mark.parametrize("ch", Channel.ALL)
def test_sum_rule_error_covers_its_gap_to_the_closed_value(ch, w0):
    # The reported error includes the tail beyond W = 2000 s past the
    # omega^-4 and omega^-5 terms: at omega0 = 0 that tail is most of the
    # TM gap (3.6e-12, against 2.5e-13 from the panel rule alone).
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    J = ps.spectral_sum_rule(ch, params)
    closed = math.pi * (0.25 - 0.5 * w0 * w0) if ch == Channel.TE else 0.0
    assert abs(J.value - closed) <= J.error_estimate


@pytest.mark.parametrize("w0", [0.0, 0.25, 0.49, 0.6, 1.0, 1.4, 10.0])
def test_sum_rule_tail_envelope(w0):
    # Beyond 50 s, omega^2 h_subtr = c4/omega^2 + c5/omega^3 + rest with
    # |rest| <= (|c6| + s^6/omega)/omega^4, the envelope behind the sum
    # rule's tail bound; c6 vanishes near omega0 = 0.25 (TE) and 0.49,
    # 0.60 (TM), where the next terms decide.  The second assertion pins
    # c6 itself (|c7| <= 3 pi s^6).
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    s = params.scale()
    w = np.geomspace(50.0 * s, 1e4 * s, 200)
    for ch in Channel.ALL:
        c4, c5, c6 = ps._tail_coefficients(ch, params)
        rest = w * w * ps.h_subtr(ch, w, params) - c4 / w ** 2 - c5 / w ** 3
        assert np.all(np.abs(rest) * w ** 4 <= abs(c6) + s ** 6 / w)
        assert np.all(np.abs(rest * w ** 4 - c6) <= 10.0 * s ** 6 / w)


def test_tm_sum_rule_vanishes_with_shell():
    full = ps.spectral_sum_rule(Channel.TM, P05).value
    assert abs(full) < 1e-9
    cont = full - ps.shell_weight(Channel.TM, P05)
    assert cont == pytest.approx(0.5 * math.pi * 0.25, abs=1e-9)


# Raw free energy of each part by a route independent of its subtracted
# form (the unsubtracted density, the full plasmon band), and the
# relative tolerance that route reaches.
RAW_ROUTES = {
    "TE": (lambda T, p: ps.free_energy_channel_raw(Channel.TE, T, p), 1e-10),
    "TM": (lambda T, p: ps.free_energy_channel_raw(Channel.TM, T, p), 1e-10),
    "sf": (ps.plasmon_free_energy_raw, 1e-8),
}


@pytest.mark.parametrize("name", list(RAW_ROUTES))
@pytest.mark.parametrize("params", [P05, ps.SheetParams(Omega0=1.0,
                                                       omega0=1.0)],
                         ids=["P05", "P10"])
def test_raw_minus_subtracted_is_growth(name, params):
    part = Part.named(ps.PARTS, name)
    raw_F, rel = RAW_ROUTES[name]
    g = part.growth(params)
    for T in (0.3, 0.8, 4.0):
        (sub, _), _ = part.evaluate(T, params, DEFAULT_SETTINGS)
        assert raw_F(T, params) - sub == pytest.approx(
            g.c3 * T ** 3 + g.c2 * T ** 2 + g.c5 * T ** 5, rel=rel)


def test_omega_sf_band_edge_and_monotonicity():
    assert ps.omega_sf(0.5, P05) == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValueError):
        ps.omega_sf(0.49, P05)
    ws = [ps.omega_sf(k, P05) for k in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(ws, ws[1:]))
    # below the light line everywhere
    for k, w in zip((0.5, 1.0, 2.0, 4.0, 8.0), ws):
        assert w <= k


@pytest.mark.parametrize("w0", [0.0, 0.3, 0.8])
def test_omega_sf_matches_mpmath(w0):
    # ell^2 + Omega0 y cancels where ell^2 < 0 and omega_sf << Omega0
    # (omega0 = 0, small k); floats and arrays must both keep their
    # relative accuracy from the band bottom on.
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    ks = w0 + np.geomspace(1e-8, 1e4, 49)
    got = ps.omega_sf(ks, params)
    with mpmath.workdps(50):
        a = mpmath.mpf(w0) ** 2
        for k, g in zip(ks, got):
            y = mpmath.sqrt(mpmath.mpf(k) ** 2 - a + 0.25)
            want = mpmath.sqrt(a - 0.5 + y)
            assert abs(g - want) <= 3e-16 * want, k
            assert ps.omega_sf(float(k), params) == g


@given(w0=st.floats(min_value=0.0, max_value=2.0),
       dk=st.floats(min_value=1e-3, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_omega_sf_solves_mode_equation(w0, dk):
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    assert ps.plasmon_mode_residual(w0 + dk, params) < 1e-10 * (1.0 + dk) ** 2


def test_plasmon_subtr_vanishes_below_threshold():
    # band bottom at sqrt(omega0^2 - Omega0^2/2) requires
    # omega0 > Omega0/sqrt(2)
    assert ps.plasmon_free_energy_subtr(1.0, P05) == 0.0
    assert ps.plasmon_entropy_subtr(1.0, P05) == 0.0
    params = ps.SheetParams(Omega0=1.0, omega0=1.0)
    assert ps.plasmon_free_energy_subtr(1.0, params) != 0.0


def test_total_breakdown_sums():
    params = ps.SheetParams(Omega0=1.0, omega0=0.8)
    point = ps.total(1.3, params)
    assert point.names == ("TE", "TM", "sf")
    assert point.names == tuple(p.name for p in ps.PARTS)
    (F_TE, S_TE), (F_TM, S_TM), (F_sf, S_sf) = map(point.part, point.names)
    assert point.F_total == pytest.approx(F_TE + F_TM + F_sf, rel=1e-15)
    assert point.S_total == pytest.approx(S_TE + S_TM + S_sf, rel=1e-15)
    assert F_TE == pytest.approx(
        ps.free_energy_channel(Channel.TE, 1.3, params), rel=1e-12)
    assert F_sf == pytest.approx(
        ps.plasmon_free_energy_subtr(1.3, params), rel=1e-12)
    with pytest.raises(KeyError):
        point.part("s_TE")


def test_total_is_exactly_scale_covariant():
    # Both run at Omega0 = 1, omega0 = 0.8, T = 1e-3.
    a = ps.total(2e-3, ps.SheetParams(Omega0=2.0, omega0=1.6))
    b = ps.total(1e-3, ps.SheetParams(Omega0=1.0, omega0=0.8))
    assert a.F == tuple(8.0 * F for F in b.F)
    assert a.S == tuple(4.0 * S for S in b.S)
    assert (a.F_total, a.S_total) == (8.0 * b.F_total, 4.0 * b.S_total)


@pytest.mark.parametrize("w0", [0.0, 0.8, 1.3])
def test_high_T_log_coefficient_matches_closed_form(w0):
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    assert ps.high_T_log_coefficient(params).value == pytest.approx(
        ps.high_T_log_coefficient_closed(params), abs=1e-9)


def test_heat_kernel_closed_coefficients():
    # (a_1/2, a_1, a_3/2) per channel
    hk = ps.heat_kernel_coeffs(P05)
    assert set(hk) == {Channel.TE, Channel.TM}
    assert hk[Channel.TE] == pytest.approx(
        (math.sqrt(math.pi), -2.0, math.sqrt(math.pi) * (1.0 - 2.0 * 0.25)),
        rel=1e-14)
    assert hk[Channel.TM][:2] == pytest.approx(
        (2.0 * math.sqrt(math.pi) * (1.0 - 2.0 * 0.25), -2.0 / 3.0),
        rel=1e-14)
    # x = omega0^2 - Omega0^2/2 < 0 here: no T log T weight
    assert hk[Channel.TM][2] == 0.0
    x = 1.3 ** 2 - 0.5
    assert ps.heat_kernel_coeffs(P13)[Channel.TM][2] == (
        pytest.approx(2.0 * math.sqrt(math.pi) * x * x, rel=1e-14))


@given(lam=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=8, deadline=None)
def test_entropy_scale_covariance(lam):
    # S is a (length)^-2 density: S(lam T; lam Omega0, lam omega0)
    # = lam^2 S(T; Omega0, omega0)
    base = ps.SheetParams(Omega0=1.0, omega0=0.6)
    scaled = ps.SheetParams(Omega0=lam, omega0=0.6 * lam)
    s1 = ps.entropy_channel(Channel.TE, 0.9 * lam, scaled)
    s0 = ps.entropy_channel(Channel.TE, 0.9, base)
    assert s1 == pytest.approx(lam * lam * s0, rel=1e-7)


# Temperatures that every thermal path refuses: T must be positive and
# finite, a scalar or a non-empty 1-D array.
BAD_TEMPERATURES = (0.0, -1.0, math.nan, math.inf, -math.inf, np.array([]),
                    np.full((2, 2), 0.5), np.array([0.5, math.nan]))


def test_invalid_temperature_rejected():
    # Each is refused at the one boundary (numkernel.per_temperature), by a
    # public function, an unsubtracted route, total and a part's record.
    part = Part.named(ps.PARTS, "sf")
    for T in BAD_TEMPERATURES:
        for call in (lambda: ps.free_energy_channel(Channel.TE, T, P05),
                     lambda: ps.entropy_channel(Channel.TM, T, P05),
                     lambda: ps.free_energy_channel_raw(Channel.TE, T, P05),
                     lambda: ps.plasmon_free_energy_raw(T, P05),
                     lambda: ps.total(T, P05),
                     lambda: part.evaluate(T, P05)):
            with pytest.raises(ValueError, match="temperature"):
                call()


@given(lam=st.floats(min_value=0.3, max_value=3.0),
       t=st.floats(min_value=0.05, max_value=20.0),
       w0=st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_unit_scaling(lam, t, w0):
    # T, Omega0, omega0 -> lam *: F scales as lam^3 and S as lam^2.  The
    # absolute quadrature tolerance does not scale, hence T >= 0.05 scale.
    base = ps.SheetParams(Omega0=1.0, omega0=w0)
    scaled = ps.SheetParams(Omega0=lam, omega0=lam * w0)
    T = t * base.scale()
    for part in ps.PARTS:
        (F, _), (S, _) = part.evaluate(lam * T, scaled, DEFAULT_SETTINGS)
        (F_base, _), (S_base, _) = part.evaluate(T, base, DEFAULT_SETTINGS)
        assert F == pytest.approx(lam ** 3 * F_base, rel=1e-9)
        assert S == pytest.approx(lam ** 2 * S_base, rel=1e-9)


def test_tm_entropy_survives_breakpoint_roundoff():
    # QUADPACK's breakpoint routine stalls on roundoff here; the four
    # pieces between the breakpoints converge one by one.
    params = ps.SheetParams(Omega0=1.0, omega0=0.5435269975350088)
    S = ps.entropy_channel(Channel.TM, 0.013818998899930629, params)
    assert S == pytest.approx(7.716634706111e-04, rel=1e-12)


def _h_mpmath(ch, omega, params, subtracted):
    """h or h_subtr from the closed forms at 30 digits (shell: limits)."""
    with mpmath.workdps(30):
        w, w0, O0 = (mpmath.mpf(v) for v in (omega, params.omega0,
                                              params.Omega0))
        a = w * w - w0 * w0
        if ch == Channel.TE:
            if a == 0:
                val = 2 / (3 * O0)
            else:
                val = ((2 * w * w0 ** 2 * O0 * a
                        + (a ** 3 - 2 * w * w * w0 * w0 * O0 * O0)
                        * mpmath.atan(a / (O0 * w))) / (w * a ** 3))
            tail = mpmath.pi / (2 * w) - O0 / w ** 2
        else:
            at = mpmath.pi / 2 if a == 0 else mpmath.atan(O0 * w / a)
            val = (2 * w * O0 - (2 * a + O0 * O0) * at) / (w * O0 * O0)
            tail = -O0 / (3 * w * w)
        return val - tail if subtracted else val


def _switch_frequencies(w0, O0=1.0):
    # omega where x = a/(O0 omega) = c, i.e. omega^2 - c O0 omega - w0^2
    # = 0: |x| = 0.1 (TE), x = 2 (TE subtracted), |u| = 1/|x| = 0.1 (TM)
    # and 0.5 (TM subtracted).
    out = []
    for c in (0.1, -0.1, 2.0, 10.0, -10.0, -2.0):
        w = 0.5 * (c * O0 + math.sqrt(c * c * O0 * O0 + 4.0 * w0 * w0))
        if w > 0.0:
            out.append(w)
    return out


@pytest.mark.parametrize("w0", [0.0, 0.5, 0.7125, 1.3])
@pytest.mark.parametrize("ch", Channel.ALL)
def test_density_arrays_match_mpmath_at_switch_points(ch, w0):
    # Both sides of every switch point, and the resonance shell, in one
    # array call per density.
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    omegas = [w * (1.0 + d) for w in _switch_frequencies(w0)
              for d in (-1e-9, 1e-9, -1e-3, 1e-3)]
    if w0 > 0.0:
        omegas.append(w0)
    omegas = np.array(omegas)
    for fn, subtracted in ((ps.h, False), (ps.h_subtr, True)):
        got = fn(ch, omegas, params)
        assert isinstance(got, np.ndarray)
        want = [float(_h_mpmath(ch, w, params, subtracted)) for w in omegas]
        for w, a, b in zip(omegas, got, want):
            assert a == pytest.approx(b, rel=1e-12), (fn.__name__, w)
            assert fn(ch, float(w), params) == a


@pytest.mark.parametrize("omega", [2.0, 2, np.float64(2.0)])
@pytest.mark.parametrize("fn", [ps.h, ps.h_subtr])
@pytest.mark.parametrize("ch", Channel.ALL)
def test_density_of_a_scalar_is_a_python_float(ch, fn, omega):
    params = ps.SheetParams(Omega0=1.0, omega0=0.5)
    assert type(fn(ch, omega, params)) is float


def test_thermal_parts_take_a_temperature_grid():
    # total(T grid) agrees with one total(T) per temperature within the
    # errors both return for that part, quantity and T.
    params = ps.SheetParams(Omega0=1.0, omega0=0.8)
    grid = np.geomspace(1e-2, 1e3, 9)
    batch = ps.total(grid, params)
    assert isinstance(batch.S_total, np.ndarray)
    assert batch.S_total.shape == grid.shape
    assert all(e.shape == grid.shape for e in batch.F_error + batch.S_error)
    for i, T in enumerate(grid):
        point = ps.total(float(T), params)
        for k, name in enumerate(point.names):
            (F, S), (Fb, Sb) = point.part(name), batch.part(name)
            F_err = batch.F_error[k][i] + point.F_error[k]
            S_err = batch.S_error[k][i] + point.S_error[k]
            assert abs(Fb[i] - F) <= F_err, (name, T)
            assert abs(Sb[i] - S) <= S_err, (name, T)


def test_sheet_runs_no_quadpack(monkeypatch):
    # The sheet's thermal integrals and sum rules run on the panel rule
    # only: with QUADPACK unavailable they still give their values.
    def boom(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    monkeypatch.setattr(ps, "integrate_finite", boom, raising=False)
    monkeypatch.setattr(scipy.integrate, "quad", boom)
    params = ps.SheetParams(Omega0=1.0, omega0=0.8)
    point = ps.total(1.0, params)
    assert math.isfinite(point.F_total) and math.isfinite(point.S_total)
    assert ps.high_T_log_coefficient(params).value == pytest.approx(
        ps.high_T_log_coefficient_closed(params), abs=1e-9)


def test_total_runs_one_panel_rule_per_part(monkeypatch):
    # F and S of a part share one pass: three calls where the plasmon
    # band is real (omega0 = 0.8), not one per part and quantity.
    calls = []
    panels = numkernel.integrate_panels

    def counted(*args, **kwargs):
        calls.append(args)
        return panels(*args, **kwargs)

    monkeypatch.setattr(numkernel, "integrate_panels", counted)
    ps.total(np.geomspace(1e-2, 1e3, 9), ps.SheetParams(Omega0=1.0,
                                                        omega0=0.8))
    assert len(calls) == 3


@pytest.mark.parametrize("T", [1e-4, 1e-5])
@pytest.mark.parametrize("w0", [0.0, 0.8])
def test_entropy_slopes_hold_far_below_omega0(w0, T):
    # S_TE/T -> Omega0/6 and S_TM/T -> Omega0/18 as T -> 0.  The thermal
    # weight lives on [0, ~40 T], which a panel reaching up to Omega0
    # misses (its nearest node at omega/T ~ 44 sees e^-44): the grid must
    # start with panels on the scale of T.
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    assert ps.entropy_channel(Channel.TE, T, params) / T == pytest.approx(
        1.0 / 6.0, abs=1e-3)
    assert ps.entropy_channel(Channel.TM, T, params) / T == pytest.approx(
        1.0 / 18.0, abs=1e-3)
    if w0 > 0.0:
        # The plasmon band's entropy goes as T^2 there.
        slope = ps.plasmon_entropy_subtr(1e-3, params) / 1e-6
        assert ps.plasmon_entropy_subtr(T, params) / T ** 2 == pytest.approx(
            slope, rel=1e-3)


def test_entropy_far_below_the_underflow_guard_raises():
    # T = 1e-120 still resolves the TE slope Omega0/6; at T = 1e-150 the
    # grid's bottom panel would fall under the underflow guard, and the
    # part raises rather than return 0 with an error of 0.
    params = ps.SheetParams(Omega0=1.0, omega0=0.0)
    part = Part.named(ps.PARTS, Channel.TE)
    _, (S, error) = part.evaluate(1e-120, params, DEFAULT_SETTINGS)
    assert S / 1e-120 == pytest.approx(1.0 / 6.0, abs=1e-3)
    assert 0.0 < error < 1e-3 * S
    for T in (1e-150, 1e-200):
        with pytest.raises(numkernel.QuadratureError, match="underflows"):
            part.evaluate(T, params, DEFAULT_SETTINGS)


def _counted_passes(monkeypatch) -> list[int]:
    """A counter of the panel rule's passes (G7-K15 sweeps), entry 0, and
    of the nodes they evaluate, entry 1."""
    calls = [0, 0]
    gk15 = numkernel._gk15

    def counted(f, lo, hi):
        calls[0] += 1
        calls[1] += 15 * len(lo)
        return gk15(f, lo, hi)

    monkeypatch.setattr(numkernel, "_gk15", counted)
    return calls


@pytest.mark.parametrize("w0", [0.0, 0.5, 0.8, 1.3])
def test_single_temperature_parts_converge_in_two_passes(monkeypatch, w0):
    # The octave grid starts every panel on the scale of its integrand, so
    # one pass or two meet the default tolerances (pass counts are
    # deterministic: a regression gate on the work).
    calls = _counted_passes(monkeypatch)
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    for T in np.geomspace(1e-3, 1e3, 7):
        for part in ps.PARTS:
            calls[0] = 0
            part.evaluate(float(T), params, DEFAULT_SETTINGS)
            assert calls[0] <= 2, (part.name, T)


def test_scan_grid_converges_in_forty_passes(monkeypatch):
    # The shape of the sheet-scan benchmark: omega0 = 0 and ten omega0
    # across the window, 41 temperatures from 0.009 to 1e3, three parts
    # per omega0 on the whole grid.  With no panel edge at each
    # temperature, the passes start on fewer panels: 42 passes of 15,765
    # nodes in all (30 of 30,090 when every temperature was an edge).
    calls = _counted_passes(monkeypatch)
    grid = np.geomspace(0.009, 1e3, 41)
    for w0 in [0.0, *np.linspace(0.5375, 1.4375, 10)]:
        ps.total(grid, ps.SheetParams(Omega0=1.0, omega0=w0))
    assert calls[0] <= 42
    assert calls[1] <= 16_000


# (public thermal function, the fused (F, S) evaluation it selects from,
# the half it returns)
_SELECTORS = [(partial(sel, ch), partial(ps._channel, ch=ch), half)
              for ch in Channel.ALL
              for sel, half in ((ps.free_energy_channel, 0),
                                (ps.entropy_channel, 1))]
_SELECTORS += [(partial(ps.free_energy_channel_raw, ch),
                partial(ps._channel, ch=ch, subtracted=False), 0)
               for ch in Channel.ALL]
_SELECTORS += [(ps.plasmon_free_energy_raw,
                partial(ps._plasmon, subtracted=False), 0),
               (ps.plasmon_free_energy_subtr, ps._plasmon, 0),
               (ps.plasmon_entropy_subtr, ps._plasmon, 1)]


@pytest.mark.parametrize("params", [P00, P05, ps.SheetParams(Omega0=1.0,
                                                             omega0=0.8)],
                         ids=["P00", "P05", "P08"])
def test_selectors_are_halves_of_the_fused_pass(params):
    # Each selector returns the value of its half; the fused pass returns
    # it with one error per temperature.
    T = np.geomspace(1e-2, 1e3, 5)
    for selector, fused, half in _SELECTORS:
        value, error = fused(T, params, DEFAULT_SETTINGS)[half]
        assert np.array_equal(selector(T, params), value)
        assert error.shape == T.shape and np.all(error >= 0.0)
        one = fused(np.array([1.3]), params, DEFAULT_SETTINGS)[half][0]
        assert selector(1.3, params) == float(one[0])
        assert type(selector(1.3, params)) is float


def test_entropy_channel_reports_its_own_error():
    # The oracle rows gate |S_panel - S_QUADPACK| by the error of S that
    # the channel's part returns: the S integral's quadrature error and
    # truncation bound, not the F integral's, each times S's prefactor
    # 1 / 2 pi^2.
    params = ps.SheetParams(Omega0=1.0, omega0=0.7125)
    T = np.geomspace(1e-2, 1e3, 5)
    trunc = numkernel._truncation_bound(
        T, ps._cutoff(params, T),
        2.0 * params.scale() ** 3, -2)[1] / (2.0 * math.pi ** 2)
    for ch in Channel.ALL:
        (_, F_error), (S, S_error) = Part.named(ps.PARTS, ch).evaluate(
            T, params, DEFAULT_SETTINGS)
        assert np.array_equal(S, ps.entropy_channel(ch, T, params))
        assert np.any(S_error != F_error)
        assert np.all(S_error >= trunc) and trunc.max() > 0.0


@pytest.mark.parametrize("w0", [5e-324, 1e-200])
def test_vanishing_omega0_matches_omega0_zero(w0):
    # An omega0 edge this close to 0 left panels whose nodes underflow
    # (a node at omega = 0, or 0/0 in the densities).
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    for T in (1e-3, 1.0):
        a, b = ps.total(T, params), ps.total(T, P00)
        assert a.F == pytest.approx(b.F, rel=1e-12)
        assert a.S == pytest.approx(b.S, rel=1e-12)
    assert ps.high_T_log_coefficient(params).value == pytest.approx(
        ps.high_T_log_coefficient(P00).value, rel=1e-12)


@pytest.mark.parametrize("w0", [0.0, 0.3, 0.7, 1.0, 2.0, 10.0])
def test_density_envelopes_beyond_the_cutoff(w0):
    # The truncation bounds assume |omega^2 h_subtr| <= 2 s^3 / omega^2,
    # |omega^2 h| <= 2 omega and |omega X| <= 2.001 omega^3 / Omega0^2 for
    # omega >= 50 s, s = max(Omega0, omega0).
    params = ps.SheetParams(Omega0=1.0, omega0=w0)
    s = params.scale()
    w = np.geomspace(50.0 * s, 1e6 * s, 200)
    for ch in Channel.ALL:
        assert np.all(np.abs(w ** 4 * ps.h_subtr(ch, w, params)) <= 2 * s ** 3)
        assert np.all(np.abs(w * ps.h(ch, w, params)) <= 2.0)
    assert np.all(np.abs(ps.surface_weight(w, params)) <= 2.001 * w * w)


def test_truncation_bound_covers_the_dropped_tail():
    # Raw TE free-energy and entropy integrands beyond the cutoff at
    # T = 1000, against the bounds the channel integral adds to its errors.
    params = ps.SheetParams(Omega0=1.0, omega0=0.5)
    T = 1000.0
    cut = ps._cutoff(params, np.array([T]))
    bounds = numkernel._truncation_bound(np.array([T]), cut, 2.0, 1)[:, 0]
    weights = (numkernel.bose_log,
               lambda x: float(numkernel.thermal_weights(x)[1]))
    for weight, bound in zip(weights, bounds):
        tail = numkernel.integrate_semiinf(
            lambda w: w * w * weight(w / T) * ps.h(Channel.TE, w, params),
            cut, DEFAULT_SETTINGS, scale=T).value
        assert 0.0 < abs(tail) <= bound <= 10.0 * abs(tail)


def test_scan_grid_evaluates_few_weight_pairs(monkeypatch):
    # The log-graded grid below the lowest temperature, with no panel
    # edge at each temperature: on the shape of the sheet-scan benchmark
    # the thermal weights are evaluated at no more than 0.68 M (node,
    # temperature) pairs (1.23 M with the temperatures as edges, 1.75 M
    # on the octave grid before that).
    pairs = [0]
    weights = numkernel.thermal_weights

    def counted(x):
        pairs[0] += np.size(x)
        return weights(x)

    monkeypatch.setattr(numkernel, "thermal_weights", counted)
    grid = np.geomspace(0.009, 1e3, 41)
    for w0 in [0.0, *np.linspace(0.5375, 1.4375, 10)]:
        ps.total(grid, ps.SheetParams(Omega0=1.0, omega0=w0))
    assert 6e5 < pairs[0] <= 6.8e5
