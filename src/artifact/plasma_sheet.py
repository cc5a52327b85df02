"""Thin plasma sheet: phase shifts, surface plasmon, thermodynamics.

An infinitesimally thin sheet of charged fluid with plasma strength
Omega0 and internal restoring frequency omega0 scatters TE and TM waves.
In natural units the phase shifts in the radial momentum p at frequency
omega (omega^2 = p^2 + k^2) are elementary:

    delta_TE = -atan(Omega(omega)/p)
    delta_TM = -pi/2 + atan(A/(Omega0 p)),   A = omega^2 - omega0^2

with Omega(omega) = Omega0 omega^2 / A.  The angular average of
d delta/dp over directions reduces every thermodynamic integral to one
radial integral against

    h(omega) = Int_0^1 d eps  d delta/dp (p = eps omega, k = omega
               sqrt(1 - eps^2)),

for which this module carries closed forms with series-stabilized
evaluation near the resonance shell and at large frequency.

Across omega = omega0 the TE phase shift drops by pi (arctangent branch)
and the TM phase shift loses pi at its p -> 0 edge for k < omega0.  In
the radial measure both appear as a point weight -pi omega0^2 / 2 at
omega0 ("shell weight"); it is what makes the TM spectral sum rule
vanish identically and places the TE sign change at Omega0/sqrt(2).

The TM channel carries a discrete surface mode (sheet plasmon)

    omega_sf(k)^2 = omega0^2 - Omega0^2/2
                    + Omega0 sqrt(k^2 - omega0^2 + Omega0^2/4),  k >= omega0,

whose free energy is reduced to a frequency integral over the weight
X(omega) = 2 (omega^2 - ell^2)/Omega0^2, ell^2 = omega0^2 - Omega0^2/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .numkernel import (
    DEFAULT_SETTINGS,
    QuadResult,
    QuadSettings,
    _graded,
    _truncation_bound,
    find_root_bracketed,
    fit_asymptotic,
    per_temperature,
    thermal_integral,
    thermal_weights,
    weight_columns,
)
from .spectral import (
    Channel,
    Part,
    ScatteringChannel,
    SubtractionSpec,
    ThermoPoint,
    ZETA3,
    ZETA5,
)

__all__ = [
    "SheetParams",
    "PARTS",
    "phase_shift",
    "phase_shift_deriv",
    "h",
    "h_subtr",
    "shell_weight",
    "free_energy_channel",
    "entropy_channel",
    "free_energy_channel_raw",
    "spectral_sum_rule",
    "omega_sf",
    "plasmon_mode_residual",
    "surface_weight",
    "plasmon_free_energy_raw",
    "plasmon_free_energy_subtr",
    "plasmon_entropy_subtr",
    "total",
    "high_T_log_coefficient",
    "high_T_log_coefficient_closed",
    "heat_kernel_coeffs",
    "heat_kernel_fit",
    "a_three_half_te_crossing",
    "scattering_channel",
]


@dataclass(frozen=True)
class SheetParams:
    """Sheet parameters: plasma strength Omega0 > 0, resonance omega0 >= 0."""

    Omega0: float
    omega0: float = 0.0

    def __post_init__(self) -> None:
        if not (self.Omega0 > 0.0 and math.isfinite(self.Omega0)):
            raise ValueError(f"Omega0 must be positive, got {self.Omega0}")
        if not (self.omega0 >= 0.0 and math.isfinite(self.omega0)):
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")

    @property
    def ell2(self) -> float:
        """ell^2 = omega0^2 - Omega0^2/2, the surface-band edge squared."""
        return self.omega0 ** 2 - 0.5 * self.Omega0 ** 2

    def scale(self) -> float:
        return max(self.Omega0, self.omega0)

    def reduced(self) -> tuple[float, "SheetParams"]:
        """(Omega0, the same sheet at Omega0 = 1)."""
        return self.Omega0, SheetParams(1.0, self.omega0 / self.Omega0)


def _phase_deriv_pw(ch: str, p: float, k: float,
                    params: SheetParams) -> float:
    # d delta/dp at fixed transverse momentum, rational in (p, k).
    w0, O0 = params.omega0, params.Omega0
    p2 = p * p
    a = p2 + (k - w0) * (k + w0)
    if ch == Channel.TM:
        return O0 * (2.0 * p2 - a) / (a * a + O0 * O0 * p2)
    w2 = p2 + k * k
    num = O0 * (w2 * a + 2.0 * w0 * w0 * p2)
    den = a * a * p2 + O0 * O0 * w2 * w2
    return num / den


def _check_momenta(p: float, k: float, params: SheetParams) -> None:
    """Raise ValueError unless p, k >= 0, not both zero, lie off the
    resonance shell: unless a = p^2 + (k - omega0)(k + omega0) exceeds
    its rounding error."""
    if p < 0.0 or k < 0.0 or p + k <= 0.0:
        raise ValueError(f"need p, k >= 0, not both zero; got p={p}, k={k}")
    w0 = params.omega0
    p2, k2 = p * p, (k - w0) * (k + w0)
    if abs(p2 + k2) <= 2.0 * math.ulp(1.0) * (p2 + abs(k2)):
        raise ValueError(f"pole of the sheet response at p={p}, k={k}")


def phase_shift(ch: str, p: float, k: float, params: SheetParams) -> float:
    """Principal-branch phase shift at radial momentum p, transverse k.

    delta_TE = -atan(Omega/p), delta_TM = -pi/2 + atan(omega^2/(Omega p))
    with omega = sqrt(p^2 + k^2) and Omega the sheet response.  At the
    p = 0 edge the one-sided limit is returned: -pi/2 (TE) and 0 (TM)
    above the resonance shell, +pi/2 and -pi below it (the TM edge
    deficit behind the shell weight).

    Raises ValueError on the resonance shell omega = omega0, that is
    where p^2 + (k - omega0)(k + omega0) is zero to rounding.
    """
    Channel.validate(ch)
    _check_momenta(p, k, params)
    # a = omega^2 - omega0^2 keeps p^2 at k = omega0, which hypot(p, k)^2
    # loses to k^2.
    w0, O0 = params.omega0, params.Omega0
    a = p * p + (k - w0) * (k + w0)
    if ch == Channel.TE:
        if p == 0.0:
            return -0.5 * math.pi if a > 0.0 else 0.5 * math.pi
        return -math.atan(O0 * (p * p + k * k) / (a * p))
    if p == 0.0:
        return -math.pi if a < 0.0 else 0.0
    return -0.5 * math.pi + math.atan(a / (O0 * p))


def phase_shift_deriv(ch: str, p: float, k: float,
                      params: SheetParams) -> float:
    """d delta/dp at fixed transverse momentum k, rational in (p, k).

    The derivative is taken along the radial momentum with k held fixed
    (omega varies with p along the path); branch jumps of the arctangent
    do not enter, so the result is a rational function.  Raises
    ValueError on the resonance shell, as ``phase_shift`` does.
    """
    Channel.validate(ch)
    _check_momenta(p, k, params)
    return _phase_deriv_pw(ch, p, k, params)


# _ATAN_COEFFICIENTS[first][i] = 1 / (first + 2 i).
_ATAN_COEFFICIENTS = {first: tuple(1.0 / (first + 2 * i) for i in range(30))
                      for first in (1, 3, 5)}


def _atan_series(z2, first: int, terms: int = 9):
    """Sum over 0 <= i < terms of (-z2)^i / (first + 2 i), by Horner.

    The tails of atan(z) = z * _atan_series(z^2, 1).  Nine terms leave
    1e-18 of the sum at |z| = 0.1, thirty 1e-19 at |z| = 0.5.
    """
    coefficients = _ATAN_COEFFICIENTS[first][:terms]
    out = coefficients[-1]
    for c in coefficients[-2::-1]:
        out = c - z2 * out
    return out


# The branches of the densities, on arrays of omega.

def _te_series(w2, a, x, w02: float, O0: float):
    # x = 0 on the resonance shell, where the small-x series holds.
    x2 = x * x
    return ((2.0 * w02 * _atan_series(x2, 3) + a * _atan_series(x2, 1))
            / (O0 * w2))


def _te_closed(w, w2, a, x, w02: float, O0: float):
    a3 = a * a * a
    return (2.0 * w * w02 * O0 * a
            + (a3 - 2.0 * w2 * w02 * O0 * O0) * np.arctan(x)) / (w * a3)


def _te_subtr_large(w, w2, a, x, w02: float, O0: float):
    v = 1.0 / x
    a3 = a * a * a
    return (2.0 * O0 * w02 / (a * a)
            - O0 * w02 / (w2 * a)
            - math.pi * w * w02 * O0 * O0 / a3
            + v * v * v * _atan_series(v * v, 3, 30) / w
            + 2.0 * w2 * w02 * O0 * O0 * np.arctan(v) / (w * a3))


def _tm_series(w, a, u, O0: float):
    s = u * u * u * _atan_series(u * u, 3)
    return ((2.0 * a + O0 * O0) * s - O0 * O0 * u) / (w * O0 * O0)


def _tm_closed(w, a, u, O0: float):
    return (2.0 * w * O0 - (2.0 * a + O0 * O0) * np.arctan(u)) / (w * O0 * O0)


def _tm_subtr_series(w, w2, a, u, w0: float, O0: float):
    u2 = u * u
    s5 = -u2 * u2 * u * _atan_series(u2, 5, 30)
    w02 = w0 * w0
    lead = (O0 * (w2 * w2 * (w02 + O0 * O0) - w02 * w02 * w02)
            / (3.0 * w2 * a * a * a))
    return lead + (2.0 * a + O0 * O0) * s5 / (w * O0 * O0)


def _density_array(ch: str, w: np.ndarray, params: SheetParams,
                   subtracted: bool) -> np.ndarray:
    """h or h_subtr on an array of omega > 0: every branch at every
    point, and the switch points pick one."""
    w0, O0 = params.omega0, params.Omega0
    w2 = w * w
    a = w2 - w0 * w0
    if ch == Channel.TE:
        w02 = w0 * w0
        x = a / (O0 * w)
        out = np.where(abs(x) < 0.1, _te_series(w2, a, x, w02, O0),
                       _te_closed(w, w2, a, x, w02, O0))
        if not subtracted:
            return out
        return np.where(x >= 2.0,
                        _te_subtr_large(w, w2, a, x, w02, O0),
                        out - 0.5 * math.pi / w + O0 / w2)
    u = np.where(a == 0.0, math.inf, O0 * w / a)
    out = np.where(abs(u) < 0.1, _tm_series(w, a, u, O0),
                   _tm_closed(w, a, u, O0))
    if not subtracted:
        return out
    return np.where(abs(u) < 0.5, _tm_subtr_series(w, w2, a, u, w0, O0),
                    out + O0 / (3.0 * w2))


def _density(ch: str, omega, params: SheetParams, subtracted: bool):
    """h or h_subtr on a float or an array of omega > 0.

    With x = (omega^2 - omega0^2)/(Omega0 omega) and u = 1/x (+inf on the
    shell a = omega^2 - omega0^2 = 0, the limit from above) the switch
    points are |x| < 0.1 (TE series) and |u| < 0.1 (TM series), and for
    the subtracted densities x >= 2 (TE) and |u| < 0.5 (TM): their closed
    forms cancel the removed tail to about u^4 of its size, which cost
    1e-10 of relative accuracy at |u| = 0.1.  Every branch runs at every
    point (``_density_array``), and the switch points pick one; a float,
    an int or a numpy scalar returns a Python float.
    """
    Channel.validate(ch)
    w = np.asarray(omega, dtype=float)
    if not np.all(w > 0.0):
        raise ValueError(f"omega must be positive, got {omega}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _density_array(ch, w, params, subtracted)
    return out if isinstance(omega, np.ndarray) else float(out)


def h(ch: str, omega: float | np.ndarray, params: SheetParams):
    """Angular average of d delta/dp along the arc p^2 + k^2 = omega^2.

    h(omega) = Int_0^1 d eps d delta/dp(p = eps omega,
    k = omega sqrt(1 - eps^2)), in closed form.  The TE average is
    continuous across omega0 with value 2/(3 Omega0); the TM average
    jumps by -pi/omega0 there (the value at exactly omega0 is the limit
    from above).

    Large-frequency behavior: h -> pi/(2 omega) - Omega0/omega^2 + ...
    (TE), h -> -Omega0/(3 omega^2) + ... (TM).

    ``omega`` is a float (float returned) or a numpy array of positive
    values (array returned).
    """
    return _density(ch, omega, params, subtracted=False)


def h_subtr(ch: str, omega: float | np.ndarray, params: SheetParams):
    """h with its large-frequency tail removed, O(omega^-4) at infinity.

    TE: h - pi/(2 omega) + Omega0/omega^2, TM: h + Omega0/(3 omega^2).
    Rearranged forms avoid the large-omega cancellation, so the result
    stays accurate where it is small.  Float or array ``omega``, as ``h``.
    """
    return _density(ch, omega, params, subtracted=True)


def shell_weight(ch: str, params: SheetParams) -> float:
    """Point weight at omega0 in the radial spectral measure.

    The phase shift loses pi across the resonance shell: for TE as a
    branch jump of the arctangent on p^2 + k^2 = omega0^2, for TM as the
    p -> 0 edge deficit present for k < omega0.  Two-dimensional
    accounting of either gives the weight -pi omega0^2 / 2 per channel,
    booked here as a delta at omega0.  Zero when omega0 = 0.
    """
    Channel.validate(ch)
    return -0.5 * math.pi * params.omega0 ** 2


def _cutoff(params: SheetParams, Ts: np.ndarray) -> float:
    """Upper limit of the thermal integrals: 40 T_max or 50 scale."""
    return max(40.0 * float(Ts.max()), 50.0 * params.scale())


def _grid(params: SheetParams, T_min: float, lo: float,
          hi: float) -> tuple:
    """The panel grid of a thermal integral over [lo, hi] (``_graded``):
    graded at min(T_min, scale), which grades the panels into the
    weights' log singularity at omega = 0 and follows their decay by
    octaves up to the cut-off, with edges at {omega0, Omega0, band edge}.
    The octaves put a panel on the scale of every temperature above the
    anchor, so the temperatures are not edges: a pass's panels do not
    grow with their number."""
    return (lo, hi, min(T_min, params.scale()),
            [params.omega0, params.Omega0, _band_edge(params)])


def _channel(Ts: np.ndarray, params: SheetParams, settings: QuadSettings,
             ch: str, subtracted: bool = True, include_shell: bool = True):
    """((F, F_error), (S, S_error)) of one photonic channel, arrays over
    the temperatures Ts, from one panel-rule pass; each error carries its
    value's prefactor, T / 2 pi^2 for F and 1 / 2 pi^2 for S."""
    dens = h_subtr if subtracted else h
    cut = _cutoff(params, Ts)
    # Beyond 50 scale, |omega^2 h_subtr| <= 2 scale^3 / omega^2 (its
    # omega^-2 and omega^-3 terms, with room) and |omega^2 h| <= 2 omega.
    tail = (2.0 * params.scale() ** 3, -2) if subtracted else (2.0, 1)
    val, err = thermal_integral(lambda w: w * w * dens(ch, w, params),
                                weight_columns(Ts),
                                _grid(params, Ts.min(), 0.0, cut), settings,
                                _truncation_bound(Ts, cut, *tail))
    # The shell weight -pi omega0^2 / 2 is zero for omega0 = 0, and for an
    # omega0 so small that its square underflows.
    shell = shell_weight(ch, params)
    if include_shell and shell != 0.0:
        val = val + shell * np.stack(thermal_weights(params.omega0 / Ts))
    val, err = val / (2.0 * math.pi ** 2), err / (2.0 * math.pi ** 2)
    return (Ts * val[0], Ts * err[0]), (val[1], err[1])


def free_energy_channel(ch: str, T, params: SheetParams,
                        settings: QuadSettings | None = None):
    """Subtracted photonic free energy per unit area of one channel.

    F = (T / 2 pi^2) [ Int_0^inf omega^2 blog(omega/T) h_subtr d omega
        + shell_weight * blog(omega0/T) ].

    The shell point mass belongs to the channel's spectral measure but
    not to the smooth derivative density.  Like every thermal function
    of this module, it takes T as a positive finite float (float
    returned) or a non-empty 1-D array of them (array returned), else
    ValueError; it reads its record in ``PARTS`` (``Part.evaluate``),
    whose evaluator ``run`` takes the array only.  The temperatures of
    an array share one panel rule (``numkernel.integrate_panels``) cut
    off at max(40 max T, 50 scale), which integrates F and S together.
    Each public thermal function selects the value of one of the two;
    the records return both with their errors.  A direct call runs at
    the ``params`` and ``T`` it is given, with absolute tolerances that
    do not scale; only ``total`` reduces to Omega0 = 1.
    """
    return Part.named(PARTS, Channel.validate(ch)).evaluate(
        T, params, settings)[0][0]


def entropy_channel(ch: str, T, params: SheetParams,
                    settings: QuadSettings | None = None):
    """Subtracted photonic entropy per unit area of one channel (-dF/dT).

    S = (1 / 2 pi^2) [ Int omega^2 g(omega/T) h_subtr d omega
        + shell_weight * g(omega0/T) ].  The low-temperature slope
    (Omega0/6 for TE, Omega0/18 for TM) emerges from the omega -> 0
    region of the subtracted density without cancellation.
    """
    return Part.named(PARTS, Channel.validate(ch)).evaluate(
        T, params, settings)[1][0]


def free_energy_channel_raw(ch: str, T, params: SheetParams,
                            settings: QuadSettings | None = None,
                            include_shell: bool = True):
    """Unsubtracted channel free energy, from the unsubtracted density.

    Differs from the subtracted form by the growth c3 T^3 + c2 T^2 of
    the channel's record in ``PARTS``; evaluated independently so the
    coefficients can be recovered by fitting rather than assumed.
    Pass ``include_shell=False`` to get the bare continuum (what the
    defining (p, k) representation integrates to).
    """
    return per_temperature(T, _channel, params, settings or DEFAULT_SETTINGS,
                           ch, False, include_shell)[0][0]


def _tail_coefficients(ch: str,
                       params: SheetParams) -> tuple[float, float, float]:
    """c4, c5, c6 of omega^2 h_subtr = c4/omega^2 + c5/omega^3 + c6/omega^4
    + ... at large omega."""
    w0, O0 = params.omega0, params.Omega0
    r = (w0 / O0) ** 2
    if ch == Channel.TE:
        return (O0 ** 3 / 3.0 + O0 * w0 * w0, -math.pi * w0 * w0 * O0 * O0,
                O0 ** 5 * (15.0 * r * r + 15.0 * r - 1.0) / 5.0)
    return (O0 * w0 * w0 / 3.0 - O0 ** 3 / 15.0, 0.0,
            O0 ** 5 * (35.0 * r * r - 21.0 * r + 3.0) / 35.0)


def spectral_sum_rule(ch: str, params: SheetParams,
                      settings: QuadSettings | None = None) -> QuadResult:
    """Integrated subtracted spectral weight of one channel.

    J = Int_0^inf omega^2 h_subtr(omega) d omega + shell weight.

    This is the coefficient controlling the T log T term of the channel
    free energy, -J T log T / (2 pi^2).  Closed values: the continuum
    alone (J minus ``shell_weight``) integrates to pi Omega0^2 / 4 (TE)
    and pi omega0^2 / 2 (TM) exactly; with the shell weight the TM sum
    rule vanishes identically and the TE one becomes
    pi (Omega0^2/4 - omega0^2/2), changing sign at
    omega0 = Omega0/sqrt(2).

    The panel rule runs to W = 2000 s, s = max(Omega0, omega0), on the
    grid graded at s (``numkernel._graded``) with edges {omega0, Omega0,
    band edge}, and adds the analytic omega^-4 and omega^-5 tails of
    h_subtr beyond W.  Returns a ``QuadResult`` whose error is the panel
    rule's plus a bound on the rest of the tail: beyond 50 s,
    |omega^2 h_subtr - c4/omega^2 - c5/omega^3| <= (|c6| +
    s^6/omega)/omega^4, so the rest is at most (|c6| + s^6/W) / (3 W^3).
    The envelope is tested; the next term,
    c7 = -3 pi Omega0^2 omega0^4 (TE; 0 in TM), adds to |c6| only where
    c6 < 0, at omega0 < Omega0/4, and there it is below s^6/25.
    """
    Channel.validate(ch)
    settings = settings or DEFAULT_SETTINGS
    s = params.scale()
    W = 2000.0 * s

    def f(omega: np.ndarray) -> np.ndarray:
        return (omega * omega * h_subtr(ch, omega, params))[:, None]

    res = _graded(f, 0.0, W, s, [params.omega0, params.Omega0,
                                 _band_edge(params)], settings)
    c4, c5, c6 = _tail_coefficients(ch, params)
    val = float(res.value[0])
    val += c4 / W + 0.5 * c5 / (W * W)
    return QuadResult(val + shell_weight(ch, params),
                      float(res.error_estimate[0])
                      + (abs(c6) + s ** 6 / W) / (3.0 * W ** 3),
                      res.evaluations)


def omega_sf(k: float, params: SheetParams) -> float:
    """Sheet plasmon frequency at transverse momentum k >= omega0 (a
    float or an array).

    Monotone branch of Omega0 sqrt(k^2 - omega^2) = omega^2 - omega0^2:
    omega^2 = ell^2 + Omega0 y, with ell^2 = omega0^2 - Omega0^2/2 and
    y = sqrt(k^2 - omega0^2 + Omega0^2/4).  Where ell^2 < 0 that sum
    cancels as the mode nears the light line (omega0 = 0, small k), so
    it is taken there as (Omega0 k - omega0^2)(Omega0 k + omega0^2) /
    (Omega0 y - ell^2).  The mode sits below the light line, k^2 -
    omega_sf^2 = (y - Omega0/2)^2.
    """
    w0, O0 = params.omega0, params.Omega0
    if np.any(np.less(k, w0)):
        raise ValueError(f"plasmon band starts at k = omega0; got k={k}")
    e2 = params.ell2
    y = np.sqrt((k - w0) * (k + w0) + 0.25 * O0 * O0)
    if e2 >= 0.0:
        return np.sqrt(e2 + O0 * y)
    return np.sqrt((O0 * k - w0 * w0) * (O0 * k + w0 * w0) / (O0 * y - e2))


def plasmon_mode_residual(k: float, params: SheetParams) -> float:
    """Defect of omega_sf(k) in the TM pole condition.

    The surface mode solves Omega(omega) eta = omega^2 with
    eta^2 = (k - omega)(k + omega), equivalently
    Omega0 eta = omega^2 - omega0^2.  Returns the absolute defect of
    that equation at omega = omega_sf(k).
    """
    w = omega_sf(k, params)
    eta2 = (k - w) * (k + w)
    eta = math.sqrt(eta2) if eta2 > 0.0 else 0.0
    return abs(params.Omega0 * eta - (w * w - params.omega0 * params.omega0))


def surface_weight(omega: float, params: SheetParams) -> float:
    """Frequency weight X of the plasmon band, k dk = omega X d omega."""
    return 2.0 * (omega * omega - params.ell2) / params.Omega0 ** 2


def _band_edge(params: SheetParams) -> float:
    e2 = params.ell2
    return math.sqrt(e2) if e2 > 0.0 else 0.0


def _plasmon(Ts: np.ndarray, params: SheetParams, settings: QuadSettings,
             subtracted: bool = True):
    """((F, F_error), (S, S_error)) of the plasmon band, arrays over the
    temperatures Ts, from one panel-rule pass.

    Raw: (T/2 pi, 1/2 pi) Int_ell^inf omega X (blog, g) d omega above the
    band edge ell; subtracted: minus the same integral over [0, ell], and
    zero, with no error, when ell = 0.  Each error carries its value's
    prefactor.
    """
    ell = _band_edge(params)
    if not subtracted:
        # Beyond 50 scale, |omega X| <= 2 (1 + 1/2500) omega^3 / Omega0^2.
        cut = _cutoff(params, Ts)
        span, tail, sign = ((ell, cut), _truncation_bound(
            Ts, cut, 2.001 / params.Omega0 ** 2, 3), 1.0)
    elif ell > 0.0:
        span, tail, sign = (0.0, ell), 0.0, -1.0
    else:
        zero = np.zeros(len(Ts))
        return (zero, zero), (zero, zero)
    val, err = thermal_integral(lambda w: w * surface_weight(w, params),
                                weight_columns(Ts),
                                _grid(params, Ts.min(), *span), settings,
                                tail)
    val, err = sign * val / (2.0 * math.pi), err / (2.0 * math.pi)
    return (Ts * val[0], Ts * err[0]), (val[1], err[1])


def plasmon_free_energy_raw(T, params: SheetParams,
                            settings: QuadSettings | None = None):
    """Raw plasmon free energy, (T/2 pi) Int_max(0, ell) omega X blog.

    The lower limit is the band edge in frequency: ell =
    sqrt(omega0^2 - Omega0^2/2) when positive, else 0.  Equals
    the sf record's growth c3 T^3 + c5 T^5 plus the subtracted part as
    an algebraic identity.
    """
    return per_temperature(T, _plasmon, params, settings or DEFAULT_SETTINGS,
                           False)[0][0]


def plasmon_free_energy_subtr(T, params: SheetParams,
                              settings: QuadSettings | None = None):
    """Plasmon free energy with its c3 T^3 + c5 T^5 part removed.

    Vanishes identically for omega0 <= Omega0/sqrt(2); otherwise equals
    -(T/2 pi) Int_0^ell omega X blog d omega, evaluated directly so no
    cancellation of large terms occurs.
    """
    return Part.named(PARTS, "sf").evaluate(T, params, settings)[0][0]


def plasmon_entropy_subtr(T, params: SheetParams,
                          settings: QuadSettings | None = None):
    """Plasmon entropy beyond the smooth c3/c5 background; >= 0.

    Carries the log T growth (x^2 / (4 pi Omega0^2)) log T at high
    temperature for x = omega0^2 - Omega0^2/2 > 0.
    """
    return Part.named(PARTS, "sf").evaluate(T, params, settings)[1][0]


# Lambdas of (Ts, params, settings) -> ((F, F_error), (S, S_error)), so
# every call looks the part's function up in this module; each integrates
# F and S over the array Ts in one panel-rule pass.  The growth of the
# photonic channels is what h - h_subtr integrates to; the plasmon's is the
# full-band integral.
PARTS = (
    Part("TE", "TE", ("F_TE_subtr", "S_TE_subtr"),
         lambda Ts, p, s: _channel(Ts, p, s, Channel.TE),
         lambda p: SubtractionSpec(c3=-ZETA3 / (4.0 * math.pi),
                                   c2=p.Omega0 / 12.0)),
    Part("TM", "TM", ("F_TM_subtr", "S_TM_subtr"),
         lambda Ts, p, s: _channel(Ts, p, s, Channel.TM),
         lambda p: SubtractionSpec(c2=p.Omega0 / 36.0)),
    Part("sf", "sf", ("F_sf_subtr", "S_sf_subtr"),
         lambda Ts, p, s: _plasmon(Ts, p, s),
         lambda p: SubtractionSpec(
             c3=(-(1.0 - 2.0 * p.omega0 * p.omega0 / (p.Omega0 * p.Omega0))
                 * ZETA3 / (2.0 * math.pi)),
             c5=-6.0 * ZETA5 / (math.pi * p.Omega0 * p.Omega0))),
)


def total(T, params: SheetParams,
          settings: QuadSettings | None = None) -> ThermoPoint:
    """Subtracted F and S of every sheet part at a temperature or a grid.

    Parts, in the order of ``PARTS``: TE and TM photonic channels and the
    surface plasmon sf.  Evaluated at Omega0 = 1 and scaled back
    (``ThermoPoint.evaluate``).  With a 1-D array of T, each part's F and
    S are arrays over it, from one panel-rule call per part.
    """
    return ThermoPoint.evaluate(PARTS, T, params, settings)


def high_T_log_coefficient_closed(params: SheetParams) -> float:
    """Closed coefficient of log T in the total entropy at high T.

    c = (1/4 pi) [ x^2 Theta(x) / Omega0^2 - x ],
    x = omega0^2 - Omega0^2/2.

    Negative exactly on Omega0/sqrt(2) < omega0 < sqrt(3/2) Omega0, the
    window where the total entropy dips below zero at large T.
    """
    x = params.ell2
    out = -x
    if x > 0.0:
        out += x * x / params.Omega0 ** 2
    return out / (4.0 * math.pi)


def high_T_log_coefficient(params: SheetParams,
                           settings: QuadSettings | None = None
                           ) -> QuadResult:
    """Numerical log T entropy coefficient, from the channel sum rules.

    The photonic channels contribute J_ch / (2 pi^2) each (quadrature);
    the plasmon band contributes its analytic x^2/(4 pi Omega0^2) term
    when the band edge is real.  The error is the sum rules' errors
    summed, over 2 pi^2.
    """
    settings = settings or DEFAULT_SETTINGS
    rules = [spectral_sum_rule(ch, params, settings) for ch in Channel.ALL]
    out = sum(r.value for r in rules) / (2.0 * math.pi ** 2)
    x = params.ell2
    if x > 0.0:
        out += x * x / (4.0 * math.pi * params.Omega0 ** 2)
    return QuadResult(out, sum(r.error_estimate for r in rules)
                      / (2.0 * math.pi ** 2),
                      sum(r.evaluations for r in rules))


def heat_kernel_coeffs(params: SheetParams
                       ) -> dict[str, tuple[float, float, float]]:
    """Analytic heat-kernel coefficients (a_1/2, a_1, a_3/2) per channel.

    The TM entry combines the photonic TM part with the surface mode,
    which carries that channel's T^3 and T log T behavior; the TE entry
    is purely photonic.
    """
    w0, O0 = params.omega0, params.Omega0
    x = params.ell2
    rt_pi = math.sqrt(math.pi)
    return {
        Channel.TE: (rt_pi, -2.0 * O0, rt_pi * (O0 * O0 - 2.0 * w0 * w0)),
        Channel.TM: (2.0 * rt_pi * (1.0 - 2.0 * w0 * w0 / (O0 * O0)),
                     -2.0 * O0 / 3.0,
                     2.0 * rt_pi * x * x / (O0 * O0) if x > 0.0 else 0.0),
    }


def heat_kernel_fit(params: SheetParams,
                    settings: QuadSettings | None = None
                    ) -> dict[str, tuple[float, float, float]]:
    """Heat-kernel coefficients (a_1/2, a_1, a_3/2) per channel from
    high-temperature fits.

    Fits the raw channel free energies at 12 log-spaced temperatures
    from 100 to 1000 max(Omega0, omega0) over the basis
    {T^3, T^2, T log T, T}.  The TM samples include the surface mode
    without its T^5 term, which is not in the fit basis; that piece is
    assembled as the analytic T^3 coefficient plus the subtracted
    remainder rather than as raw minus c5 T^5, because the latter
    cancels two T^5-scale numbers and the quadrature noise left over
    swamps the T^2-scale content the a_1 fit needs.
    """
    settings = settings or DEFAULT_SETTINGS
    s = params.scale()
    c3_sf = Part.named(PARTS, "sf").growth(params).c3
    Ts = np.geomspace(100.0 * s, 1000.0 * s, 12)
    te = free_energy_channel_raw(Channel.TE, Ts, params, settings)
    tm = (free_energy_channel_raw(Channel.TM, Ts, params, settings)
          + c3_sf * Ts ** 3
          + plasmon_free_energy_subtr(Ts, params, settings))
    out = {}
    for ch, F in ((Channel.TE, te), (Channel.TM, tm)):
        fit = fit_asymptotic(list(zip(Ts, F)), ("T3", "T2", "TlogT", "T"))
        out[ch] = spectral.heat_kernel_from_expansion(
            fit["T3"], fit["T2"], fit["TlogT"])
    return out


def a_three_half_te_crossing(Omega0: float = 1.0,
                             settings: QuadSettings | None = None) -> float:
    """omega0 where the TE T log T coefficient changes sign (bisection).

    The closed sum rule pi (Omega0^2/4 - omega0^2/2) crosses zero at
    omega0 = Omega0/sqrt(2); this measures the crossing from the
    quadrature-evaluated sum rule.
    """
    settings = settings or DEFAULT_SETTINGS

    def f(w0: float) -> float:
        return spectral_sum_rule(Channel.TE,
                                 SheetParams(Omega0=Omega0, omega0=w0),
                                 settings).value

    return find_root_bracketed(f, 0.5 * Omega0, 0.9 * Omega0, x_tol=1e-9)


def scattering_channel(ch: str, params: SheetParams,
                       include_surface: bool = True) -> ScatteringChannel:
    """Adapter to the generic (p, k) channel interface.

    The surface mode belongs to the TM channel; pass
    ``include_surface=False`` to compare continuum parts in isolation.
    """
    Channel.validate(ch)
    w0 = params.omega0

    def ddelta(p, k):
        return _phase_deriv_pw(ch, p, k, params)

    O0 = params.Omega0

    def brk(k: np.ndarray) -> tuple[np.ndarray, ...]:
        # NaN, or a value <= 0, where a point is absent.
        a0 = k * k - w0 * w0
        with np.errstate(invalid="ignore", divide="ignore"):
            pts = [np.sqrt(-a0)]
            if ch == Channel.TM:
                # The TM phase derivative peaks where |omega^2 - omega0^2|
                # crosses Omega0 p; for small k the peak sits at
                # p ~ (k^2 - omega0^2)/Omega0, far below the thermal
                # scale, and the quadrature needs the hint.
                root = np.sqrt(O0 * O0 - 4.0 * a0)
                pts += [(sgn * O0 + root) / 2.0 for sgn in (1.0, -1.0)]
                pts += [(sgn * O0 - root) / 2.0 for sgn in (1.0, -1.0)]
            else:
                # The TE one has a peak of width ~ Omega0 k^2 / |a0| at
                # p = 0 below the shell (a0 < 0), where |omega^2 -
                # omega0^2| p crosses Omega0 omega^2: the smaller root of
                # Omega0 p^2 + a0 p + Omega0 k^2.
                pts.append(2.0 * O0 * k * k
                           / (np.sqrt(a0 * a0 - 4.0 * O0 * O0 * k * k) - a0))
        return tuple(pts)

    def peak(k: np.ndarray) -> np.ndarray:
        # The TM |deriv| = Omega0 |p^2 - c| / ((p^2 + c)^2 + Omega0^2 p^2),
        # c = k^2 - omega0^2, falls past p^2 = c + sqrt(4 c^2 + Omega0^2 c),
        # the larger root of its derivative in p^2 (NaN: it falls for all
        # p).  That is at least 3 c, past the inner cut-off P where 3 c >
        # P^2.
        c = (k - w0) * (k + w0)
        with np.errstate(invalid="ignore"):
            return np.sqrt(c + np.sqrt(4.0 * c * c + O0 * O0 * c))

    surface = None
    k_min = 0.0
    if ch == Channel.TM and include_surface:
        surface = lambda k: omega_sf(k, params)  # noqa: E731
        k_min = w0
    return ScatteringChannel(
        deriv=ddelta,
        surface_mode=surface,
        k_min_surface=k_min,
        p_breakpoints=brk,
        k_breakpoints=(w0,) if w0 > 0.0 else (),
        scale=params.scale(),
        deriv_peak=peak if ch == Channel.TM else None,
    )

