"""Acceptance checks shared by the command line ``verify`` command and pytest.

Each check compares a measured number against an expected value (or bound)
at a stated tolerance and yields a :class:`CheckResult` record.  Checks are
grouped into suites:

``oracle``
    Closed-form scattering quantities against their defining integral
    representations (the sheet and slab densities against committed
    mpmath values, ``references``), the sheet entropies of the panel rule
    against their mpmath references, transmission factorization and
    factor phases, and plasmon dispersions.
``asymptotics``
    Low- and high-temperature laws: Nernst slopes, fitted T^3/T^2
    coefficients, heat-kernel coefficients, slab low-T laws, slab high-T
    entropy plateaus.
``constants``
    Spectral sum rules, the negative-entropy window of the sheet, and the
    slab constants c and d.
``thermo-identity``
    S == -dF/dT by central finite differences for every model part: the
    mean of S at T -/+ h against the difference quotient of F there.
``nernst``
    Subtracted entropies of every part vanish as T -> 0.

The slab's low-T checks at T = 1e-2 omega_p gate each leading law together
with its closed-form subleading terms: the T*log(1/T) term of F_s_TM/T^3
(``slab.surface_tm_low_T_correction``) and the O(T) and O(T^2) terms of
F_L_TM/F_L_TE (``slab.thickness_series``).  Without them the stated
tolerances would be spent on known corrections of about -6% and -13%.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import plasma_sheet, references, slab, spectral
from .numkernel import (
    DEFAULT_SETTINGS,
    QuadratureError,
    QuadResult,
    QuadSettings,
    bose_kernel,
    bose_log,
    bose_occupation,
    find_root_bracketed,
    fit_asymptotic,
    integrate_finite,
    integrate_semiinf,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "summarize"]

SUITES = ("oracle", "asymptotics", "constants", "thermo-identity", "nernst")

_ZETA3 = spectral.ZETA3

# The slab constant d at omega_p = L = 1, (1/4 pi) Int_0^inf kappa
# log D_TE(kappa) dkappa at zero imaginary frequency, by mpmath
# (tests/test_slab.py), and the allowance for the cut of the TM route of
# ``slab_constant_d``, which stops with the h_L table at 60 omega_p; its
# tail has no bound yet.  It is 5.9e-8 of d there and changes sign between
# cuts at 30 and 60 omega_p, so it is allowed 1e-7 of d.  The TE route
# bounds its own tail.
_SLAB_D = -5.9362651694400286e-4
_D_TM_CUT = 1e-7 * abs(_SLAB_D)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single acceptance check.

    Attributes
    ----------
    suite : str
        Suite the check belongs to, one of :data:`SUITES`.
    check : str
        Human-readable check identifier, unique within the suite.
    expected : float or str
        Target value, or a textual bound such as ``"< 0"``.
    measured : float
        The computed quantity.
    tolerance : float
        Tolerance used by the pass criterion (relative or absolute,
        according to the check; bounds use 0.0).
    passed : bool
        Whether the check met its criterion.
    """

    suite: str
    check: str
    expected: float | str
    measured: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        # Checks built from numpy scalars would otherwise carry np.bool_,
        # which the JSON output of ``thermo verify`` cannot encode.
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "passed", bool(self.passed))


def _rel(suite, name, expected, measured, tol):
    ok = math.isfinite(measured) and abs(measured - expected) <= tol * abs(expected)
    return CheckResult(suite, name, expected, measured, tol, ok)


def _abs(suite, name, expected, measured, tol):
    ok = math.isfinite(measured) and abs(measured - expected) <= tol
    return CheckResult(suite, name, expected, measured, tol, ok)


def _below(suite, name, measured, bound, label=None):
    ok = math.isfinite(measured) and measured <= bound
    return CheckResult(suite, name, label or f"<= {bound:g}", measured, bound, ok)


def _negative(suite, name, measured):
    ok = math.isfinite(measured) and measured < 0.0
    return CheckResult(suite, name, "< 0", measured, 0.0, ok)


def _nonnegative(suite, name, measured):
    ok = math.isfinite(measured) and measured >= 0.0
    return CheckResult(suite, name, ">= 0", measured, 0.0, ok)


# ---------------------------------------------------------------------------
# oracle suite
# ---------------------------------------------------------------------------

# The oracle rows below compare against mpmath values in ``references``,
# which tests/make_references.py writes at the grids named here.
_SHEET_H_OMEGA0 = (0.0, 0.5, 1.3)
_SHEET_H_GRID = tuple(np.geomspace(1e-2, 50.0, 24).tolist())


def _worst_gap(values, refs):
    """The largest |value - ref| / max(1, |ref|) over the pairs."""
    return max(abs(v - r) / max(1.0, abs(r)) for v, r in zip(values, refs))


def _sheet_h_oracle_checks():
    # The closed h against its defining epsilon-integral, one array call
    # per row.
    out = []
    for omega0 in _SHEET_H_OMEGA0:
        params = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        for ch in ("TE", "TM"):
            worst = _worst_gap(
                plasma_sheet.h(ch, np.array(_SHEET_H_GRID), params),
                [references.SHEET_H[omega0, ch, w] for w in _SHEET_H_GRID])
            out.append(_below(
                "oracle",
                f"sheet h_{ch} closed vs epsilon-integral, omega0={omega0}",
                worst, 1e-8))
    return out


def _sheet_defining_checks(settings):
    out = []
    T = 1.0
    for omega0 in (0.0, 0.5):
        params = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        te = plasma_sheet.scattering_channel("TE", params)
        tm = plasma_sheet.scattering_channel("TM", params,
                                             include_surface=False)

        f_def = spectral.free_energy_defining(te, T, settings)
        f_closed = plasma_sheet.free_energy_channel_raw(
            "TE", T, params, settings, include_shell=False)
        out.append(_below(
            "oracle",
            f"sheet F_TE defining vs closed, omega0={omega0}, T=1",
            abs(f_def - f_closed) / abs(f_closed), 1e-6))

        f_def = spectral.free_energy_defining(tm, T, settings)
        f_closed = plasma_sheet.free_energy_channel_raw(
            "TM", T, params, settings, include_shell=False)
        out.append(_below(
            "oracle",
            f"sheet F_TM continuum defining vs closed, omega0={omega0}, T=1",
            abs(f_def - f_closed) / abs(f_closed), 1e-6))

    # Surface-mode band: at omega0=0 the k-integral over the mode and the
    # frequency form coincide, so the full TM channel (continuum plus
    # surface mode) can be compared against the defining representation.
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)
    tm_full = plasma_sheet.scattering_channel("TM", params)
    f_def = spectral.free_energy_defining(tm_full, T, settings)
    f_closed = (plasma_sheet.free_energy_channel_raw(
        "TM", T, params, settings, include_shell=False)
        + plasma_sheet.plasmon_free_energy_raw(T, params, settings))
    out.append(_below(
        "oracle", "sheet F_TM+sf defining vs closed, omega0=0, T=1",
        abs(f_def - f_closed) / abs(f_closed), 1e-6))

    # Raw plasmon identity at omega0=Omega0: the full-band integral is an
    # exact cubic/quintic polynomial in T, so the raw value must equal
    # those closed terms plus the finite subtraction integral.
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=1.0)
    growth = spectral.Part.named(plasma_sheet.PARTS, "sf").growth(params)
    raw = plasma_sheet.plasmon_free_energy_raw(T, params, settings)
    ident = (growth.free_energy(T)
             + plasma_sheet.plasmon_free_energy_subtr(T, params, settings))
    out.append(_below(
        "oracle", "sheet plasmon raw vs polynomial + finite integral",
        abs(raw - ident) / abs(raw), 1e-8))
    return out


# The panel rule's sheet entropies against their mpmath references, below,
# to omega0 on both sides of the window.
_PANEL_OMEGA0 = (0.0, 0.7125, 1.4125)
_PANEL_T = tuple(float(T) for T in np.geomspace(1e-2, 1e3, 5))


def _sheet_panel_rule_checks(settings):
    # Each row: the worst |S_panel - S_reference| over the temperatures, in
    # units of the error of S that the channel's part returns for that T.
    out = []
    for omega0 in _PANEL_OMEGA0:
        params = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        for ch in ("TE", "TM"):
            part = spectral.Part.named(plasma_sheet.PARTS, ch)
            _, (S, error) = part.evaluate(np.array(_PANEL_T), params,
                                          settings)
            worst = 0.0
            for T, s, bound in zip(_PANEL_T, S, error):
                ref = references.SHEET_PARTS[omega0, ch, T][1]
                worst = max(worst, abs(s - ref) / bound)
            out.append(_below(
                "oracle", f"sheet S_{ch} panel rule vs mpmath reference "
                f"within its bound, omega0={omega0}", worst, 1.0))
    return out


_SLAB_H_GRID = (0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.69, 0.75, 0.9, 0.97)
_SLAB_H2_GRID = (1.03, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0)


def _slab_h_oracle_checks():
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    out = []
    for grid, side in ((_SLAB_H_GRID, "below"), (_SLAB_H2_GRID, "above")):
        worst = _worst_gap(slab.h(np.array(grid), params),
                           [references.SLAB_H[w] for w in grid])
        out.append(_below(
            "oracle", f"slab surface h {side} omega_p, closed vs defining",
            worst, 1e-8))

    # Continuity at the interior breakpoints: one-sided linear extrapolation
    # from each side must give the same limit.
    def gap(x0, delta):
        lo = 2.0 * slab.h(x0 - delta, params) \
            - slab.h(x0 - 2.0 * delta, params)
        hi = 2.0 * slab.h(x0 + delta, params) \
            - slab.h(x0 + 2.0 * delta, params)
        return abs(hi - lo)

    out.append(_below(
        "oracle", "slab h continuity at omega_p/sqrt(2)",
        gap(1.0 / math.sqrt(2.0), 1.5e-3), 1e-4, label="<= 1e-04"))
    out.append(_below(
        "oracle", "slab h continuity at omega_p",
        gap(1.0, 1e-5), 1e-6))
    out.append(_abs(
        "oracle", "slab h at omega_p equals -pi*omega_p/2",
        -math.pi / 2.0, slab.h(1.0, params), 1e-12))
    return out


def _slab_exp_oracle_checks(settings):
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    out = []
    for T in (0.1, 1.0, 10.0):
        raw = slab.F_exp(T, params, settings)

        def tail(u, T=T):
            return u * u * bose_log(math.hypot(u, params.omega_p) / T)

        ident = (math.pi ** 2 / 90.0) * params.L * T ** 4 \
            + (params.L * T / (2.0 * math.pi ** 2)) * integrate_semiinf(
                tail, 0.0, settings, scale=max(T, params.omega_p)).value
        out.append(_below(
            "oracle", f"slab F_exp closed vs branch identity, T={T}",
            abs(raw - ident) / abs(ident), 1e-8))

        f_def = slab.F_exp_defining(T, params, settings)
        out.append(_below(
            "oracle", f"slab F_exp closed vs defining 2D integral, T={T}",
            abs(raw - f_def) / abs(f_def), 1e-6))
    return out


def _slab_surface_defining_checks(settings):
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    ch = slab.surface_te_channel(params)
    f_def = spectral.free_energy_defining(ch, 1.0, settings)
    f_closed = slab.F_s_TE(1.0, params, settings)
    return [_below(
        "oracle", "slab F_s_TE defining vs closed, T=omega_p",
        abs(f_def - f_closed) / abs(f_closed), 1e-6)]


# Model totals run at omega_p = 1, as do the checks above.  The off-unit
# rows below cover direct calls at another scale and, with
# omega_p L = 0.15 against 1, at another shape.
_OFF_UNIT = (2.5, 0.06)


def _slab_off_unit_checks(settings):
    params = slab.SlabParams(*_OFF_UNIT)
    where = "omega_p={:g}, L={:g}".format(*_OFF_UNIT)
    return [_below("oracle", f"slab surface h closed vs defining, {where}",
                   slab.validate_surface_weight(params, settings), 1e-8),
            _below("oracle",
                   f"slab F_exp closed vs defining, {where}, T=omega_p",
                   slab.validate_exp_part(params, settings), 1e-6)]


def _slab_h_L_table_checks(settings):
    # F_L_TM and S_L_TM read h_L from a table; compare it with h_L itself
    # (into the cusp at omega_p and across [0, 60 omega_p]), and gate the
    # error the table claims for the outer integrals.
    out = []
    for omega_p, L in ((1.0, 1.0), _OFF_UNIT):
        params = slab.SlabParams(omega_p=omega_p, L=L)
        ratio, claimed = slab.validate_h_L_table(params, settings)
        where = f"omega_p={omega_p:g}, L={L:g}"
        out.append(_below(
            "oracle", f"slab h_L table vs h_L within its bound, {where}",
            ratio, 1.0))
        out.append(_below(
            "oracle", f"slab h_L table error bound / omega_p^2, {where}",
            claimed, 1e-9))
    return out


def _osc_block(params: slab.SlabParams) -> float:
    return 40.0 * math.pi / params.L


def _blocked_integral(f, a: float, b: float, settings: QuadSettings,
                      block: float, breakpoints=()) -> QuadResult:
    """Sum of adaptive quadratures over blocks of bounded width.

    Keeps the per-call subdivision need bounded for integrands that
    oscillate with a fixed period over a long range.  The error estimate
    and evaluation count are summed over the blocks.
    """
    if b <= a:
        return QuadResult(0.0, 0.0, 0)
    if b - a <= 1.5 * block:
        return integrate_finite(f, a, b, settings, breakpoints=breakpoints)
    value = err = 0.0
    evals = 0
    lo = a
    while lo < b:
        hi = min(lo + block, b)
        res = integrate_finite(f, lo, hi, settings, breakpoints=breakpoints)
        value += res.value
        err += res.error_estimate
        evals += res.evaluations
        lo = hi
    return QuadResult(value, err, evals)


def _tm_propagating_nested(T, params, settings):
    """The TM thickness part's propagating half in the usual order, by
    nested scalar QUADPACK: Int_omega_p^W k(omega) h_prop(omega) d omega,
    h_prop(omega) = Int_0^Q(omega) q delta_prop dq, for k = n(omega/T) and
    omega n'(omega/T), both levels in blocks of 40 periods and the inner
    one at relative tolerance 1e-10.  Returns a (value, error) per weight;
    each error adds to the outer estimate the worst k times inner estimate
    over the outer nodes, times the range."""
    wp, L = params.omega_p, params.L
    W = min(40.0 * T, 60.0 * wp)
    block = _osc_block(params)
    inner = QuadSettings(abs_tol=settings.abs_tol, rel_tol=1e-10)
    out = []
    for k in (lambda w: bose_occupation(w / T),
              lambda w: w * bose_kernel(w / T)):
        worst = 0.0

        def f(w, k=k):
            nonlocal worst
            eps = slab.epsilon(w, params)
            h = _blocked_integral(
                lambda q: q * slab._delta_L_propagating(
                    math.hypot(wp, q), q, eps, L),
                0.0, math.sqrt((w - wp) * (w + wp)), inner, block)
            worst = max(worst, k(w) * h.error_estimate)
            return k(w) * h.value

        res = _blocked_integral(f, wp, W, settings, block,
                                breakpoints=[T])
        out.append((res.value, res.error_estimate + worst * (W - wp)))
    return out


def _slab_tm_swap_checks(settings):
    # The propagating half of L_TM (p > omega_p) runs in swapped order on
    # arrays; nested scalar QUADPACK in the usual order must agree with it
    # within the sum of their errors, for F's weight and for S's.
    T, params = 0.3, slab.SlabParams(1.0, 1.0)
    W = min(40.0 * T, 60.0)
    swapped = slab._tm_propagating(
        params, W, slab._thermal_columns(T), settings,
        QuadResult(np.zeros(2), np.zeros(2), 0))
    worst = max(abs(v - ref) / (err + ref_err) for v, err, (ref, ref_err)
                in zip(swapped.value, swapped.error_estimate,
                       _tm_propagating_nested(T, params, settings)))
    return [_below("oracle", "slab L_TM propagating half, swapped vs nested "
                   f"QUADPACK within their bounds, omega_p L=1, T={T:g}",
                   worst, 1.0)]


def _transmission_phase_gap(ch, p, k, t, params):
    """Worst |e^{i phi} - f/|f|| over the phases the parts integrate and
    the transmission factors f they come from."""
    omega = math.hypot(p, k)
    # Where eps < 0, delta_s_TM stays on the branch continuous in omega at
    # p = 0, which is pi away from arg t_s.
    flip = ch == "TM" and slab.epsilon(omega, params) < 0.0
    q_re = math.sqrt(max(p * p - params.omega_p ** 2, 0.0))
    pairs = ((slab.delta_s(ch, p, omega, params),
              -t.surface if flip else t.surface),
             (slab.delta_L(ch, p, omega, params), t.thickness),
             ((q_re - p) * params.L, t.propagation))
    return max(abs(cmath.exp(1j * phase) - f / abs(f)) for phase, f in pairs)


def _transmission_checks():
    params = slab.SlabParams(omega_p=1.0, L=1.0)
    out = []
    p_grid = (0.3, 0.7, 0.9, 1.1, 1.5, 3.0, 10.0)
    k_grid = (0.0, 0.5, 2.0)
    for ch in ("TE", "TM"):
        worst = worst_mod = worst_phase = 0.0
        for p in p_grid:
            for k in k_grid:
                t = slab.transmission(ch, p, k, params)
                worst = max(worst, t.factorization_residual)
                if p > params.omega_p:
                    worst_mod = max(worst_mod, abs(t.value))
                worst_phase = max(worst_phase, _transmission_phase_gap(
                    ch, p, k, t, params))
        out.append(_below(
            "oracle", f"transmission factorization residual, {ch}",
            worst, 1e-12))
        out.append(_below(
            "oracle", f"transmission modulus above omega_p, {ch}",
            worst_mod, 1.0 + 1e-12))
        out.append(_below(
            "oracle", "transmission factor phases vs delta_s, delta_L, "
            f"(Re q - p) L, {ch}", worst_phase, 1e-12))
    return out


def _plasmon_checks():
    out = []
    worst = 0.0
    bound = 1.0 / math.sqrt(2.0)
    for L in (1.0, 2.0, 50.0):
        params = slab.SlabParams(omega_p=1.0, L=L)
        for k in np.geomspace(0.05, 20.0, 12):
            worst = max(worst, slab.plasmon_dispersion(k, params) - bound)
    out.append(_below(
        "oracle", "slab plasmon bound omega_sf <= omega_p/sqrt(2)",
        worst, 1e-12))

    params = slab.SlabParams(omega_p=1.0, L=50.0)
    worst = 0.0
    for k in np.geomspace(0.1, 10.0, 10):
        w = slab.plasmon_dispersion(k, params)
        single = slab.single_surface_mode(k, params)
        worst = max(worst, abs(w - single) / single)
    out.append(_below(
        "oracle", "slab plasmon at L=50 vs single-surface mode",
        worst, 1e-6))

    params = slab.SlabParams(omega_p=1.0, L=2.0)
    root = slab.plasmon_dispersion(1.0, params)
    out.append(_below(
        "oracle", "slab plasmon mode residual at k=1, L=2",
        slab.plasmon_mode_residual(root, 1.0, params), 1e-10))

    for omega0 in (0.0, 0.8):
        sheet = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        worst = 0.0
        for k in np.geomspace(max(omega0, 1e-3) + 1e-6, 10.0, 12):
            worst = max(worst, plasma_sheet.plasmon_mode_residual(k, sheet))
        out.append(_below(
            "oracle", f"sheet plasmon dispersion residual, omega0={omega0}",
            worst, 1e-10))
    return out


def _suite_oracle(settings):
    out = []
    out.extend(_sheet_h_oracle_checks())
    out.extend(_sheet_defining_checks(settings))
    out.extend(_sheet_panel_rule_checks(settings))
    out.extend(_slab_h_oracle_checks())
    out.extend(_slab_exp_oracle_checks(settings))
    out.extend(_slab_surface_defining_checks(settings))
    out.extend(_slab_off_unit_checks(settings))
    out.extend(_slab_h_L_table_checks(settings))
    out.extend(_slab_tm_swap_checks(settings))
    out.extend(_transmission_checks())
    out.extend(_plasmon_checks())
    return out


# ---------------------------------------------------------------------------
# asymptotics suite
# ---------------------------------------------------------------------------

def _suite_asymptotics(settings):
    out = []
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)

    # Sheet low temperature: S/T slopes (Nernst behaviour with known slope).
    T = 1e-3
    s_te = plasma_sheet.entropy_channel("TE", T, params, settings)
    s_tm = plasma_sheet.entropy_channel("TM", T, params, settings)
    out.append(_rel("asymptotics", "sheet S_TE/T -> Omega0/6 at T=1e-3",
                    1.0 / 6.0, s_te / T, 1e-2))
    out.append(_rel("asymptotics", "sheet S_TM/T -> Omega0/18 at T=1e-3",
                    1.0 / 18.0, s_tm / T, 1e-2))
    out.append(_rel("asymptotics", "sheet S_total/T -> 2*Omega0/9 at T=1e-3",
                    2.0 / 9.0, (s_te + s_tm) / T, 1e-2))

    # Sheet high temperature: fitted growth coefficients of the raw parts.
    T_grid = np.geomspace(1e2, 1e3, 12)
    for ch, c3_ref, c2_ref in (
            ("TE", -_ZETA3 / (4.0 * math.pi), 1.0 / 12.0),
            ("TM", 0.0, 1.0 / 36.0)):
        samples = list(zip(T_grid, plasma_sheet.free_energy_channel_raw(
            ch, T_grid, params, settings)))
        fit = fit_asymptotic(samples, ("T3", "T2", "TlogT", "T"))
        c3, c2 = fit["T3"], fit["T2"]
        if c3_ref == 0.0:
            out.append(_abs(
                "asymptotics", f"sheet raw {ch} fit: T^3 coefficient",
                0.0, c3, 1e-2 * _ZETA3 / (4.0 * math.pi)))
        else:
            out.append(_rel(
                "asymptotics", f"sheet raw {ch} fit: T^3 coefficient",
                c3_ref, c3, 1e-2))
        out.append(_rel(
            "asymptotics", f"sheet raw {ch} fit: T^2 coefficient",
            c2_ref, c2, 1e-2))

    # Heat-kernel coefficients from asymptotic fits.
    for omega0 in (0.0, 0.5):
        p = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        fitted = plasma_sheet.heat_kernel_fit(p, settings)
        exact = plasma_sheet.heat_kernel_coeffs(p)
        for ch in ("TE", "TM"):
            out.append(_rel(
                "asymptotics", f"heat kernel a_1/2 {ch}, omega0={omega0}",
                exact[ch][0], fitted[ch][0], 2e-2))
            out.append(_rel(
                "asymptotics", f"heat kernel a_1 {ch}, omega0={omega0}",
                exact[ch][1], fitted[ch][1], 2e-2))
    crossing = plasma_sheet.a_three_half_te_crossing(1.0, settings)
    out.append(_rel(
        "asymptotics", "a_3/2 TE sign change located (reported)",
        1.0 / math.sqrt(2.0), crossing, 1e-6))

    # Slab low temperature, T = 1e-2 omega_p, L = 1/omega_p.
    sp = slab.SlabParams(omega_p=1.0, L=1.0)
    T = 1e-2
    f_s_tm = slab.F_s_TM(T, sp, settings)
    target = 5.0 * _ZETA3 / (4.0 * math.pi)
    out.append(_rel(
        "asymptotics",
        "slab F_s_TM/T^3 -> 5*zeta(3)/(4*pi) + O(T*log(1/T)) term at T=1e-2",
        target + slab.surface_tm_low_T_correction(T, sp),
        f_s_tm / T ** 3, 1e-2))

    f_l_te = slab.F_L_TE(T, sp, settings)
    ratio = f_l_te * 45.0 * (math.exp(2.0) - 1.0) / (-2.0 * math.pi ** 2 * T ** 4)
    out.append(_rel(
        "asymptotics", "slab F_L_TE low-T law at T=1e-2", 1.0, ratio, 2e-2))

    f_l_tm = slab.F_L_TM(T, sp, settings)
    series = slab.thickness_series(sp)
    out.append(_rel(
        "asymptotics",
        "slab F_L_TM/F_L_TE -> 3 with O(T) and O(T^2) terms at T=1e-2",
        3.0 * series.tm_factor(T) / series.te_factor(T),
        f_l_tm / f_l_te, 2e-2))

    # Slab high temperature.
    out.append(_rel(
        "asymptotics", "slab S_exp_subtr -> omega_p^3*L/(12*pi) at T=1e3",
        1.0 / (12.0 * math.pi), slab.S_exp_subtr(1e3, sp, settings), 1e-2))

    T_grid = np.geomspace(1e2, 1e3, 10)
    s_te = spectral.Part.named(slab.PARTS, "s_TE")
    samples = list(zip(T_grid, s_te.evaluate(T_grid, sp, settings)[0][0]))
    fit = fit_asymptotic(samples, ("TlogT", "T", "1"))
    out.append(_rel(
        "asymptotics", "slab subtracted F_s_TE: T*log(T) coefficient",
        1.0 / (8.0 * math.pi), fit["TlogT"], 3e-2))

    d = slab.slab_constant_d(settings).value
    out.append(_rel(
        "asymptotics", "slab S_L_TE plateau -> -d*omega_p^2 at T=200",
        -d, slab.S_L("TE", 200.0, sp, settings), 5e-2))
    out.append(_rel(
        "asymptotics", "slab S_L_TM plateau -> -d*omega_p^2 at T=50",
        -d, slab.S_L("TM", 50.0, sp, settings), 5e-2))
    return out


# ---------------------------------------------------------------------------
# constants suite
# ---------------------------------------------------------------------------

def _suite_constants(settings):
    out = []

    # TM spectral sum rule with the shell term.
    for omega0 in (0.0, 0.5):
        params = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        val = plasma_sheet.spectral_sum_rule("TM", params, settings).value
        out.append(_below(
            "constants", f"sheet TM sum rule, omega0={omega0}",
            abs(val), 1e-6))

    # Negative-entropy window of the high-T log coefficient.
    def c_of(omega0):
        p = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
        return plasma_sheet.high_T_log_coefficient(p, settings).value

    root = find_root_bracketed(c_of, 0.65, 0.80)
    out.append(_rel(
        "constants", "high-T log coefficient sign change near Omega0/sqrt(2)",
        1.0 / math.sqrt(2.0), root, 1e-6))
    out.append(_nonnegative("constants", "c(omega0=0.6) >= 0", c_of(0.6)))
    out.append(_negative("constants", "c(omega0=0.85) < 0", c_of(0.85)))
    out.append(_negative("constants", "c(omega0=1.2) < 0", c_of(1.2)))
    out.append(_nonnegative("constants", "c(omega0=1.3) >= 0", c_of(1.3)))

    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.8)
    s_total = plasma_sheet.total(1e3, params, settings).S_total
    out.append(_negative(
        "constants", "sheet S_total < 0 at omega0=0.8, T=1e3", s_total))

    params0 = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)
    s_min = plasma_sheet.total(np.geomspace(1e-2, 1e2, 13), params0,
                               settings).S_total.min()
    out.append(_nonnegative(
        "constants", "sheet S_total >= 0 on T grid at omega0=0", s_min))

    # Slab constants.
    c_val = slab.slab_constant_c(settings)
    out.append(_abs("constants", "slab constant c", 1.5708, c_val, 1e-3))
    # Each route within its reported error and its cut's allowance.
    d_te = slab.slab_constant_d(settings, route="TE")
    d_tm = slab.slab_constant_d(settings, route="TM")
    out.append(_rel("constants", "slab constant d (TE route)",
                    _SLAB_D, d_te.value, d_te.error_estimate / abs(_SLAB_D)))
    out.append(_rel("constants", "slab constant d (TM route vs TE route)",
                    d_te.value, d_tm.value,
                    (d_te.error_estimate + d_tm.error_estimate + _D_TM_CUT)
                    / abs(d_te.value)))
    return out


# ---------------------------------------------------------------------------
# thermo-identity and nernst suites
# ---------------------------------------------------------------------------

# (label format, parts, parameters) of the thermo-identity and nernst
# suites.  The sheet plasmon vanishes identically at omega0 = 0, so it is
# checked at omega0 = 0.8 only.
_IDENTITY_CASES = (
    ("sheet {}, omega0=0",
     tuple(p for p in plasma_sheet.PARTS if p.name != "sf"),
     plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)),
    ("sheet {}, omega0=0.8", plasma_sheet.PARTS,
     plasma_sheet.SheetParams(Omega0=1.0, omega0=0.8)),
    ("slab {}", slab.PARTS, slab.SlabParams(omega_p=1.0, L=1.0)),
)


def _identity_checks():
    """(label, part, params) for every part the two suites check."""
    for label, parts, params in _IDENTITY_CASES:
        for part in parts:
            yield label.format(part.name), part, params


def _suite_thermo_identity(settings):
    # Two temperatures per grid point: the mean of S(T - h) and S(T + h)
    # against -(F(T + h) - F(T - h)) / 2h, both O(h^2) from S(T).  Each
    # side is one call per part over the grid, so the two sides run on
    # panel grids anchored and cut at different temperatures, and the
    # difference quotient sees a quadrature error that moves with the
    # grid rather than having it cancel.
    out = []
    grid = (1e-2, 1e-1, 1.0, 1e1, 1e2)
    Ts = np.array(grid)
    for label, part, params in _identity_checks():
        (F_los, _), (S_los, _) = part.evaluate(Ts - 1e-4 * Ts, params,
                                               settings)
        (F_his, _), (S_his, _) = part.evaluate(Ts + 1e-4 * Ts, params,
                                               settings)
        worst = 0.0
        for T, F_lo, F_hi, S_lo, S_hi in zip(grid, F_los, F_his, S_los,
                                             S_his):
            h = 1e-4 * T
            if not np.all(np.isfinite([F_lo, S_lo, F_hi, S_hi])):
                raise QuadratureError(f"non-finite F or S of {label} "
                                      f"near T={T!r}")
            s = 0.5 * (S_lo + S_hi)
            s_fd = -(F_hi - F_lo) / (2.0 * h)
            scale = max(abs(s), abs(s_fd))
            if scale < 1e-13:
                continue
            worst = max(worst, abs(s - s_fd) / scale)
        out.append(_below(
            "thermo-identity", f"S vs -dF/dT: {label}",
            worst, 1e-4, label="<= 1e-04"))
    return out


def _suite_nernst(settings):
    out = []
    for label, part, params in _identity_checks():
        s_hi, s_lo = part.evaluate(np.array([1e-2, 1e-3]), params,
                                   settings)[1][0]
        if abs(s_hi) < 1e-13 and abs(s_lo) < 1e-13:
            ratio = 0.0
        else:
            ratio = abs(s_lo) / max(abs(s_hi), 1e-300)
        out.append(_below(
            "nernst", f"|S(1e-3)| / |S(1e-2)| decreasing: {label}",
            ratio, 0.5))
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

_RUNNERS = {
    "oracle": _suite_oracle,
    "asymptotics": _suite_asymptotics,
    "constants": _suite_constants,
    "thermo-identity": _suite_thermo_identity,
    "nernst": _suite_nernst,
}


def run_suite(suite, settings=None):
    """Run one named suite of acceptance checks.

    Parameters
    ----------
    suite : str
        One of :data:`SUITES`.
    settings : QuadSettings, optional
        Quadrature settings forwarded to every numeric evaluation.

    Returns
    -------
    list of CheckResult
        A suite stopped by a ``QuadratureError`` gives one failed check
        that names the error, with ``measured`` nan.

    Raises
    ------
    ValueError
        If `suite` is not a known suite name.
    """
    if suite not in _RUNNERS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    if settings is None:
        settings = DEFAULT_SETTINGS
    try:
        return _RUNNERS[suite](settings)
    except QuadratureError as exc:
        reason = " ".join(str(exc).split())
        return [CheckResult(suite, f"suite stopped: {reason}", "completes",
                            math.nan, 0.0, False)]


def summarize(results):
    """Build a short human-readable summary of a list of check results."""
    n_pass = sum(1 for r in results if r.passed)
    lines = [f"{n_pass}/{len(results)} checks passed"]
    for r in results:
        if not r.passed:
            lines.append(
                f"  FAIL [{r.suite}] {r.check}: "
                f"measured {r.measured:.6g}, expected {r.expected}, "
                f"tolerance {r.tolerance:g}")
    return "\n".join(lines)
