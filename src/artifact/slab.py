"""Dielectric slab with plasma response: scattering parts and plasmon.

A slab of thickness L with permittivity eps(omega) = 1 - omega_p^2 /
omega^2 splits each polarization channel's scattering phase into three
additive pieces, treated as separate thermodynamic parts:

* a surface part delta_s, independent of L, concentrated at momenta
  p < omega_p (total reflection region);
* a thickness part delta_L from the internal round trips, decaying with
  L and oscillating in p above omega_p;
* an "optical-path" part (Re q - p) L from traversal, whose branch
  point at p = omega_p yields the exponential-tail free energy F_exp.

Parts s and exp need high-temperature subtractions; the L part is
finite as it stands.  The TM surface part is evaluated through the
momentum moment

    h(omega) = Int_0^min(omega, omega_p) delta_s_TM(p, omega) dp,

in closed form at every frequency (an arctangent between omega_p/sqrt(2)
and omega_p, and a series at omega_p/sqrt(2), where the logarithmic
arrangement degenerates), on floats and arrays.  The surface and
optical-path parts integrate F and S in one panel-rule pass
(``thermal_integral``; two for s_TM), the TE thickness part in one
sawtooth pass; only the TM thickness part's h_L table runs QUADPACK.

Every thermal function takes T as a positive finite float (float returned)
or a non-empty 1-D array of them (array returned), else ValueError, as the
sheet's do.  It reads its record in ``PARTS`` (``Part.evaluate``), whose
evaluator ``run`` takes the array only and runs every temperature in one
pass.  A direct call of a per-quantity function (``F_s_TE`` ...
``S_exp_subtr``) runs at the given scale, with absolute tolerances that do
not scale; only ``total`` reduces to omega_p=1.

The TM channel additionally carries a guided surface mode (slab
plasmon) below omega_p/sqrt(2).  Its dispersion is solved here but the
mode is intentionally NOT added to the thermodynamic totals; outputs
that mention it flag this.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .numkernel import (
    DEFAULT_SETTINGS,
    QuadResult,
    QuadratureError,
    QuadSettings,
    _check_T,
    _truncation_bound,
    bose_kernel,
    bose_occupation,
    find_root_bracketed,
    integrate_finite,
    integrate_fixed,
    integrate_panels,
    thermal_integral,
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
    free_energy_defining,
)

__all__ = [
    "SlabParams",
    "PARTS",
    "Transmission",
    "epsilon",
    "transmission",
    "delta_s",
    "h",
    "h_defining",
    "validate_surface_weight",
    "F_s_TE",
    "S_s_TE",
    "F_s_TM",
    "S_s_TM",
    "slab_constant_c",
    "slab_constant_d",
    "delta_L",
    "h_L",
    "validate_h_L_table",
    "F_L_TE",
    "F_L_TM",
    "S_L",
    "surface_tm_low_T_correction",
    "ThicknessSeries",
    "thickness_series",
    "F_exp",
    "F_exp_subtr",
    "S_exp_subtr",
    "F_exp_defining",
    "validate_exp_part",
    "plasmon_dispersion",
    "plasmon_mode_residual",
    "single_surface_mode",
    "total",
    "surface_te_channel",
    "exp_channel",
]

_H_INF = 0.5 * (math.pi - 4.0)  # h(omega) / omega_p as omega -> inf
# Constants of the low-temperature series.
_EULER_GAMMA = 0.5772156649015329
# zeta'(4) / zeta(4), with zeta'(4) = -sum_{n>=2} log(n) / n^4
_ZETA4_LOGDERIV = -0.06366976495537113


@dataclass(frozen=True)
class SlabParams:
    """Slab parameters: plasma frequency omega_p > 0, thickness L > 0."""

    omega_p: float
    L: float

    def __post_init__(self) -> None:
        if not (self.omega_p > 0.0 and math.isfinite(self.omega_p)):
            raise ValueError(f"omega_p must be positive, got {self.omega_p}")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive, got {self.L}")

    def reduced(self) -> tuple[float, "SlabParams"]:
        """(omega_p, the same slab at omega_p = 1)."""
        return self.omega_p, SlabParams(1.0, self.omega_p * self.L)


def epsilon(omega: float, params: SlabParams) -> float:
    """Plasma permittivity 1 - omega_p^2 / omega^2, factored to keep its
    relative accuracy near omega_p."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    wp = params.omega_p
    return (omega - wp) * (omega + wp) / (omega * omega)


def _gamma(p: float, params: SlabParams) -> float:
    return math.sqrt(max(params.omega_p ** 2 - p * p, 0.0))


@dataclass(frozen=True)
class Transmission:
    """Transmission amplitude and its exact three-factor split.

    value = surface * thickness * propagation, with
    surface = 4 a q / (a + q)^2, thickness = 1 / (1 - rho^2 e^{2iqL}),
    propagation = e^{i (q - p) L}, rho = (a - q)/(a + q), and a = p (TE)
    or eps p (TM).
    """

    value: complex
    surface: complex
    thickness: complex
    propagation: complex

    @property
    def factorization_residual(self) -> float:
        return abs(self.value - self.surface * self.thickness
                   * self.propagation)


def transmission(ch: str, p: float, k: float,
                 params: SlabParams) -> Transmission:
    """Transmission amplitude through the slab at momenta (p, k).

    Parameters
    ----------
    ch : str
        "TE" or "TM".
    p, k : float
        Momentum normal to the slab (outside) and transverse momentum;
        the frequency is omega = sqrt(p^2 + k^2) and the internal normal
        momentum is q = sqrt(p^2 - omega_p^2) (evanescent below omega_p).
    params : SlabParams

    Raises
    ------
    ValueError
        On a vanishing denominator (discrete resonance) and on p <= 0.
    """
    Channel.validate(ch)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    L = params.L
    omega = math.hypot(p, k)
    a = complex(p) if ch == Channel.TE else complex(epsilon(omega, params) * p)
    # Internal momentum: real above omega_p, +i gamma below.
    q = np.sqrt(complex(p * p - params.omega_p ** 2, 0.0))
    den = ((a + q) ** 2 * np.exp(-1j * q * L)
           - (a - q) ** 2 * np.exp(1j * q * L))
    scale = (abs(a) + abs(q)) ** 2
    if abs(den) <= 1e-14 * max(scale, 1e-300):
        raise ValueError(
            f"transmission denominator vanishes at p={p}, k={k} "
            "(discrete resonance)"
        )
    t = 4.0 * a * q * np.exp(-1j * p * L) / den
    if a + q == 0.0:
        raise ValueError(f"degenerate surface factor at p={p}, k={k}")
    t_s = 4.0 * a * q / (a + q) ** 2
    rho = (a - q) / (a + q)
    t_l = 1.0 / (1.0 - rho * rho * np.exp(2j * q * L))
    prop = np.exp(1j * (q - p) * L)
    return Transmission(t, t_s, t_l, prop)


def delta_s(ch: str, p: float, omega: float, params: SlabParams) -> float:
    """Surface part of the phase shift (thickness-independent).

    TE: pi/2 - 2 atan(gamma/p) for p < omega_p, 0 above (the pi/2 jump
    at omega_p is compensated by the thickness part).  TM:
    -pi/2 + 2 atan(eps p / gamma) for p <= omega_p, 0 above; the edge
    values are -pi/2 at p = 0 and -3pi/2 (omega < omega_p) or +pi/2
    (omega > omega_p) as p -> omega_p.

    The phase is arg of the transmission's surface factor t_s, except for
    TM where eps(omega) < 0: there delta_s stays on the branch that is
    continuous in omega at p = 0, pi away from arg t_s.  The oracle suite
    checks both cases on a (p, k) grid.
    """
    Channel.validate(ch)
    if p < 0.0:
        raise ValueError(f"p must be >= 0, got {p}")
    wp = params.omega_p
    if ch == Channel.TE:
        if p >= wp:
            return 0.5 * math.pi if p == wp else 0.0
        if p == 0.0:
            return -0.5 * math.pi
        return 0.5 * math.pi - 2.0 * math.atan(_gamma(p, params) / p)
    if p > wp:
        return 0.0
    eps = epsilon(omega, params)
    if p == wp:
        if eps == 0.0:
            return -0.5 * math.pi
        return -0.5 * math.pi + math.copysign(math.pi, eps)
    return -0.5 * math.pi + 2.0 * math.atan(eps * p / _gamma(p, params))


def h_defining(omega: float, params: SlabParams,
               settings: QuadSettings | None = None) -> float:
    """Momentum moment of the TM surface phase by direct quadrature."""
    settings = settings or DEFAULT_SETTINGS
    hi = min(omega, params.omega_p)
    return integrate_finite(
        lambda p: delta_s(Channel.TM, p, omega, params), 0.0, hi, settings
    ).value


def h(omega: float | np.ndarray, params: SlabParams):
    """Closed form of Int_0^min(omega, omega_p) delta_s_TM dp.

    Continuous at omega_p with value -pi omega_p / 2 and tending to
    h_inf = (pi - 4) omega_p / 2 at large frequency; behaves as

        -3 pi omega / 2 + (2 omega^2 / omega_p) (log(omega_p/omega) + 1)
        + O(omega^3)

    near zero (the source of the T log T correction in ``F_s_TM``).
    Closed at every frequency: within 1e-3 omega_p of omega_p/sqrt(2),
    where the closed arrangement is 0/0, its bracket is summed as a
    series in S^2 = omega_p^2 - 2 omega^2.  No quadrature runs;
    ``h_defining`` is the oracle.  Float or array ``omega`` > 0, as
    ``plasma_sheet.h``: every branch runs at every point.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError(f"omega must be positive, got {omega}")
    wp = params.omega_p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w2 = w * w
        D = wp * wp - w2
        S2 = wp * wp - 2.0 * w2
        sD = np.sqrt(D)
        S = np.sqrt(np.abs(S2))
        base = -0.5 * math.pi * w - 2.0 * w * np.arctan(sD / w)
        # Below omega_p the bracket (1/S)[atanh(wp S/D) - atanh(S/sD)] is a
        # difference of logs below omega_p/sqrt(2), one atan free of
        # cancellation above it (S imaginary), and 0/0 at it: there its
        # series in S^2 (terms shrink by <= 4 S^2/wp^2 <= 0.012) is summed.
        a, b = wp / D, 1.0 / sD
        ra, rb = a * a * S2, S2 / D
        bracket = 0.0
        for n in range(12):
            bracket = bracket + (a - b) / (2 * n + 1)
            a, b = a * ra, b * rb
        nu = w2 / (D + sD * S)
        mu = w2 * w2 / (D * (D + wp * S))
        below = base + np.where(
            abs(w - wp / math.sqrt(2.0)) < 1e-3 * wp, 2.0 * w2 * bracket,
            np.where(S2 > 0.0,
                     (w2 / S) * (np.log((2.0 - mu) / mu)
                                 - np.log((2.0 - nu) / nu)),
                     (2.0 * w2 / S) * np.arctan(
                         S * w2 * sD / ((wp + sD) * (D * sD - wp * S2)))))
        above = 0.5 * math.pi * wp + (2.0 * w2 / S) * np.arctan(wp * S / D)
        out = np.where(w == wp, -0.5 * math.pi * wp,
                       np.where(w < wp, below, above))
    return out if np.ndim(omega) else float(out)


_H_VALIDATION_GRID = (0.05, 0.3, 0.69, 0.9, 1.3, 3.0)


def validate_surface_weight(params: SlabParams,
                            settings: QuadSettings | None = None) -> float:
    """Worst relative gap between the closed h and its definition.

    Compares ``h`` with ``h_defining`` on a fixed grid of frequencies in
    units of omega_p, on both sides of omega_p/sqrt(2) and of omega_p.
    The oracle suite gates the gap.
    """
    worst = 0.0
    for frac in _H_VALIDATION_GRID:
        omega = frac * params.omega_p
        defining = h_defining(omega, params, settings)
        gap = abs(h(omega, params) - defining)
        worst = max(worst, gap / max(abs(defining), 1e-12))
    return worst


def _grid(T_min: float, params: SlabParams, hi: float) -> tuple:
    """The panel grid of a thermal integral on [0, hi] (``_graded``):
    graded at min(T_min, omega_p), into the weights' log singularity at 0
    and by octaves along their decay, with edges at omega_p (1 +- 2^-k),
    k = 1..20, into the densities' square-root branch points at omega_p.
    The temperatures are not edges (the octaves already follow them), so
    a pass's panels do not grow with their number."""
    wp = params.omega_p
    return (0.0, hi, min(T_min, wp),
            [wp, *(wp * (1.0 + side * 2.0 ** -k) for k in range(1, 21)
                   for side in (-1.0, 1.0))])


def _surface_te(Ts, params: SlabParams, settings: QuadSettings):
    """((F, F_error), (S, S_error)) of the TE surface part without its T^3
    growth: -(T, 1) / pi^2 Int_0^omega_p omega (blog, g)(omega/T)
    atan(gamma(omega)/omega) d omega, gamma(omega) = sqrt(omega_p^2 -
    omega^2), in one pass for every temperature of the array Ts."""
    wp = params.omega_p
    (F, S), (F_err, S_err) = thermal_integral(
        lambda w: w * np.arctan(np.sqrt((wp - w) * (wp + w)) / w),
        weight_columns(Ts), _grid(Ts.min(), params, wp), settings, 0.0)
    return ((-Ts * F / math.pi ** 2, Ts * F_err / math.pi ** 2),
            (-S / math.pi ** 2, S_err / math.pi ** 2))


def _raw(name: str, T, params: SlabParams, settings: QuadSettings | None):
    """Raw (F, S) of a part: its record's values plus its growth."""
    if np.ndim(T):
        T = np.asarray(T, dtype=float)
    part = Part.named(PARTS, name)
    (F, _), (S, _) = part.evaluate(T, params, settings)
    growth = part.growth(params)
    return F + growth.free_energy(T), S + growth.entropy(T)


def F_s_TE(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """Raw TE surface free energy per unit area: the ``s_TE`` record plus
    its growth -zeta(3) T^3 / (2 pi).

    F = -zeta(3) T^3 / (2 pi) - (T/pi^2) Int_0^omega_p omega
        blog(omega/T) atan(gamma(omega)/omega) d omega,
    gamma(omega) = sqrt(omega_p^2 - omega^2).  Runs at the given scale.
    """
    return _raw("s_TE", T, params, settings)[0]


def S_s_TE(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """Raw TE surface entropy per unit area (-dF/dT)."""
    return _raw("s_TE", T, params, settings)[1]


def _s_te_growth(params: SlabParams) -> SubtractionSpec:
    """T^3 growth of the TE surface part, which its ``PARTS`` record removes.

    Without it the free energy grows as (omega_p^2 / 8 pi) T log(2T/omega_p)
    at high temperature, and the entropy beyond the T^2 term tends to
    -(omega_p^2 / 8 pi) log T: that deficit is the slab's negative surface
    entropy.
    """
    return SubtractionSpec(c3=-ZETA3 / (2.0 * math.pi))


def _tm_weights(T: float):
    """The thermal weights of a TM frequency moment, w n(w/T) for F and
    w^2 n'(w/T) for S (n' = -dn/dx), with their limits T and T^2 at w = 0.
    Both are positive and decreasing."""
    return (lambda w: w * bose_occupation(w / T) if w > 0.0 else T,
            lambda w: w * w * bose_kernel(w / T) if w > 0.0 else T * T)


def _surface_tm(Ts, params: SlabParams, settings: QuadSettings):
    """((F, F_error), (S, S_error)) of the TM surface part without its
    growth, from one pass each for its edge and bulk-moment integrals (see
    ``F_s_TM``), for every temperature of the array Ts: the edge piece
    leaves its T^3 term out and the bulk moment integrates h - h_inf
    against the occupations (``_thermal_columns``).  Each error sums the
    passes' errors and the bulk's tail bound, each times its piece's
    prefactor."""
    wp = params.omega_p
    cut = max(40.0 * float(Ts.max()), 8.0 * wp)
    (a_F, a_S), a_err = thermal_integral(
        lambda w: w, weight_columns(Ts), _grid(Ts.min(), params, wp),
        settings, 0.0)
    # Beyond 8 omega_p, |omega (h - h_inf)| <= 0.68 omega_p^3 / omega; the
    # columns are n(x) and T x n'(x), x = omega / T.
    columns = _thermal_columns(Ts)
    (b_F, b_S), b_err = thermal_integral(
        lambda w: w * (h(w, params) - _H_INF * wp),
        lambda w: columns(w).reshape(len(w), 2, -1).transpose(1, 0, 2),
        _grid(Ts.min(), params, cut), settings,
        _truncation_bound(Ts, cut, 0.68 * wp ** 3, -1)
        * np.stack([np.ones_like(Ts), Ts]))
    # Each piece's prefactor, for F's row and S's.
    a_c = np.stack([Ts, np.ones_like(Ts)]) / (4.0 * math.pi)
    b_c = np.stack([np.ones_like(Ts), 1.0 / (Ts * Ts)]) / (2.0 * math.pi ** 2)
    F_err, S_err = a_c * a_err + b_c * b_err
    F = -Ts * a_F / (4.0 * math.pi) - b_F / (2.0 * math.pi ** 2)
    S = -a_S / (4.0 * math.pi) + b_S / (2.0 * math.pi ** 2 * Ts * Ts)
    return (F, F_err), (S, S_err)


def F_s_TM(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """Raw TM surface free energy per unit area: the ``s_TM`` record plus
    its growth -zeta(3) T^3 / (2 pi) + (4 - pi) omega_p T^2 / 24.

    Sum of the p = omega_p edge contribution

        A = -zeta(3) T^3/(2 pi) - (T/4 pi) Int_0^omega_p omega
            blog(omega/T) d omega

    and the bulk-moment piece

        B = -(1/2 pi^2) Int_0^inf omega n(omega/T) h(omega) d omega

    with n the Bose occupation.  The record integrates h - h_inf, so B's
    growth -h_inf T^2 / 12 is never computed; the oracle suite checks the
    closed h against ``h_defining`` (``validate_surface_weight``).

    At low temperature the small-frequency series of ``h`` gives

        F / T^3 = 5 zeta(3) / (4 pi) - (pi^2 / 15) (T / omega_p)
                  [log(omega_p/T) + gamma_E - 5/6 - zeta'(4)/zeta(4)]
                  + O(T^2),

    see ``surface_tm_low_T_correction``.  The second term is -6.1% of
    the first at T = 1e-2 omega_p.
    """
    return _raw("s_TM", T, params, settings)[0]


def S_s_TM(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """Raw TM surface entropy per unit area (-dF/dT)."""
    return _raw("s_TM", T, params, settings)[1]


def _s_tm_growth(params: SlabParams) -> SubtractionSpec:
    """T^3 and T^2 growth of the TM surface part (T^2 and T in its entropy),
    which its ``PARTS`` record never computes: c2 = -h_inf / 12."""
    return SubtractionSpec(c3=-ZETA3 / (2.0 * math.pi),
                           c2=-_H_INF * params.omega_p / 12.0)


def surface_tm_low_T_correction(T: float, params: SlabParams) -> float:
    """Subleading low-T term of F_s_TM / T^3 beyond 5 zeta(3) / (4 pi).

        -(pi^2 / 15) (T / omega_p)
            [log(omega_p/T) + gamma_E - 5/6 - zeta'(4)/zeta(4)]

    The edge piece A of ``F_s_TM`` is -zeta(3) T^3 / (4 pi) up to
    exponentially small terms.  In the bulk piece B, the term -3 pi
    omega / 2 of ``h`` gives 3 zeta(3) T^3 / (2 pi), and the term
    (2 omega^2 / omega_p)(log(omega_p/omega) + 1) gives this correction
    through Int_0^inf omega^3 n(omega/T) log(omega) d omega
    = 6 zeta(4) T^4 [log T + psi(4) + zeta'(4)/zeta(4)] with
    psi(4) = 11/6 - gamma_E.  The remainder is O(T^2).
    """
    _check_T(T)
    wp = params.omega_p
    return (-(math.pi ** 2 / 15.0) * (T / wp)
            * (math.log(wp / T) + _EULER_GAMMA - 5.0 / 6.0
               - _ZETA4_LOGDERIV))


def slab_constant_c(settings: QuadSettings | None = None) -> float:
    """Linear-in-T coefficient of the TM surface part, at omega_p = 1.

    c = Int_0^inf (h_inf - h(omega)) d omega, minus the ``s_TM`` record's
    bulk moment h - h_inf integrated, so B has + c T / (2 pi^2) at high
    temperature.  Equals pi/2 analytically; dimensionless (scale by
    omega_p^2 for general omega_p).
    """
    settings = settings or DEFAULT_SETTINGS
    params = SlabParams(omega_p=1.0, L=1.0)
    W = 200.0
    res = integrate_panels(lambda w: (_H_INF - h(w, params))[:, None],
                           [0.0, 1.0 / math.sqrt(2.0), 1.0, W], settings)
    # beyond W: h - h_inf = -(2/3)/omega^2 + O(omega^-4)
    return float(res.value[0]) + 2.0 / (3.0 * W)


def delta_L(ch: str, p: float, omega: float, params: SlabParams) -> float:
    """Thickness part of the phase shift (principal branch).

    For p < omega_p the internal momentum is evanescent and the phase is
    arg(1 - r^2 e^{-2 gamma L}) with r the unimodular sub-barrier
    reflection ratio; for p > omega_p it is -arg(1 - rho^2 e^{2iqL}).
    Since |r^2 e^{-2 gamma L}| < 1 and |rho| < 1, the principal argument
    is already continuous in p on each side of omega_p; the jump at
    omega_p itself compensates the surface part.  Vanishes as L -> inf
    and as p -> 0.  Below omega_p (and, in TM, for omega < omega_p) both
    channels are Sum_{n>=1} (E^n / n) sin(4 n beta) with
    E = e^{-2 gamma L}, tan(beta) = gamma / (|eps| p) in TM and
    beta = asin(p/omega_p) in TE, so delta_L_TE is odd in p:

        delta_L_TE(p) = a1 p + a3 p^3 + O(p^5),
        a1 = 4 / (omega_p (e^{2 omega_p L} - 1)),
        a3 = (2 s1 / 3 - 32 s3 / 3) / omega_p^3 + 4 L s2 / omega_p^2,

    with s1 = E0/(1-E0), s2 = E0/(1-E0)^2, s3 = E0 (1+E0)/(1-E0)^3 and
    E0 = e^{-2 omega_p L} (see ``thickness_series``).  Both channels share
    the two real-arithmetic kernels below, TE as eps = 1; ``h_L`` calls the
    evanescent one directly, and ``_tm_propagating`` the propagating one's
    array form.
    """
    Channel.validate(ch)
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    wp, L = params.omega_p, params.L
    if ch == Channel.TM and omega < p:
        raise ValueError(f"need omega >= p, got omega={omega}, p={p}")
    eps = epsilon(omega, params) if ch == Channel.TM else 1.0
    if p < wp:
        return _delta_L_evanescent(p, _gamma(p, params), eps, L)
    return _delta_L_propagating(p, math.sqrt(p * p - wp * wp), eps, L)


def _delta_L_evanescent(p: float, gam: float, eps: float,
                        L: float) -> float:
    """delta_L below omega_p from p, gamma and eps (1 in TE): arg(1 - E
    e^{4 i beta}), E = e^{-2 gamma L}, beta = arg(eps p + i gamma), as
    atan2(-E sin 4 beta, (1 - E) + 2 E sin^2 2 beta), free of cancellation
    as gamma -> 0."""
    a = eps * p
    r2 = a * a + gam * gam
    s, c = 2.0 * a * gam / r2, (a - gam) * (a + gam) / r2
    em1 = math.expm1(-2.0 * gam * L)
    E = 1.0 + em1
    return math.atan2(-2.0 * E * s * c, 2.0 * E * s * s - em1)


def _delta_L_propagating_array(p: np.ndarray, q: np.ndarray,
                               eps: np.ndarray, L: float) -> np.ndarray:
    """``_delta_L_propagating`` on numpy arrays, which broadcast, with the
    same algebra; for q > 0 and eps > 0."""
    a = eps * p
    d = a + q
    r2 = ((a - q) / d) ** 2
    s, c = np.sin(q * L), np.cos(q * L)
    return np.arctan2(2.0 * r2 * s * c,
                      4.0 * a * q / (d * d) + 2.0 * r2 * s * s)


def _delta_L_propagating(p: float, q: float, eps: float, L: float) -> float:
    """delta_L above omega_p from p, q and eps (1 in TE): -arg(1 - rho^2
    e^{2iqL}), rho = (eps p - q) / (eps p + q), as atan2(rho^2 sin 2qL,
    (1 - rho^2) + 2 rho^2 sin^2 qL) with 1 - rho^2 = 4 eps p q / (eps p +
    q)^2, free of cancellation as q -> 0."""
    a = eps * p
    d = a + q
    if d == 0.0:
        return 0.0
    r2 = ((a - q) / d) ** 2
    s, c = math.sin(q * L), math.cos(q * L)
    return math.atan2(2.0 * r2 * s * c,
                      4.0 * a * q / (d * d) + 2.0 * r2 * s * s)


# The TE thickness part runs in imaginary frequency (``_te_integrals``), on
# G7-K15 panels at most _TE_PANEL / L wide, so that e^{-2 kappa L} falls by
# at most e^{-2} across one.  Towards kappa = 0 they are graded by the
# ratio 3/2 from half the distance of log D's nearest singularity: for a
# thin slab the zero of D at kappa = -omega_p sinh(u), 2u = omega_p L cosh
# u (so u >= omega_p L / 2), else the branch points +-i omega_p of Q.
# They are integrated _TE_CHUNK sawtooth periods at a time, so memory
# stays flat at any temperature.
_TE_PANEL = 1.0
_TE_CHUNK = 256


def _te_integrands(kappa: np.ndarray, params: SlabParams) -> np.ndarray:
    """The two integrands of ``_te_integrals`` at kappa before the
    sawtooth, on a last axis: -pi kappa log D and pi [3 kappa log D +
    kappa^2 (log D)'].  With x = rho^2 e^{-2 Q L} and rho^2 = (omega_p /
    (kappa + Q))^4, free of cancellation, log D = log1p(-x) and (log D)' =
    x (4 + 2 kappa L) / (Q (1 - x)).  Both vanish at kappa = 0."""
    wp, L = params.omega_p, params.L
    Q = np.sqrt(kappa * kappa + wp * wp)
    x = (wp / (kappa + Q)) ** 4 * np.exp(-2.0 * Q * L)
    f = kappa * np.log1p(-x)
    s = 3.0 * f + kappa * kappa * x * (4.0 + 2.0 * kappa * L) / (Q * (1.0 - x))
    return math.pi * np.stack([-f, s], axis=-1)


def _te_tails(K: float, params: SlabParams) -> np.ndarray:
    """Bounds on the two integrands of ``_te_integrals`` integrated past
    kappa = K.  x = rho^2 e^{-2 Q L} falls with kappa, so beyond K |log D|
    <= x / (1 - x) <= A e^{-2 Q L}, A = rho(K)^2 / (1 - x(K)), and kappa^2
    (log D)' <= A e^{-2 Q L} kappa (4 + 2 Q L).  With |B| <= 1/2 and kappa
    dkappa = Q dQ both integrals close: (pi A / 2) e^{-a Q_K} times Q_K / a
    + 1 / a^2 (F) and Q_K^2 + 9 Q_K / a + 9 / a^2 (S), a = 2 L."""
    wp, a = params.omega_p, 2.0 * params.L
    Q = math.hypot(K, wp)
    x = (wp / (K + Q)) ** 4 * math.exp(-a * Q)
    c = 0.5 * math.pi * x / (1.0 - x)
    return np.array([c * (Q / a + 1.0 / a ** 2),
                     c * (Q * Q + 9.0 * Q / a + 9.0 / a ** 2)])


def _te_cut(params: SlabParams, settings: QuadSettings) -> float:
    """The cut-off K of ``_te_integrals``: the first multiple of 1 / 2L at
    which S's tail bound is below a sixteenth of the absolute tolerance
    and below 2^-52 of its value at K = 0, a bound on the whole integral
    of |S's integrand|."""
    target = min(settings.abs_tol / 16.0 or math.inf,
                 2.0 ** -52 * _te_tails(0.0, params)[1])
    K = 0.0
    while _te_tails(K, params)[1] > target:
        K += 0.5 / params.L
    return K


def _te_panels(K: float, h: float, params: SlabParams):
    """Panels of ``_te_integrals`` on [0, K], K at most one sawtooth period
    h or a whole number of them, in chunks of ``_TE_CHUNK`` periods: yields
    (n, lo, hi) arrays, panel i being [n_i h + lo_i, n_i h + hi_i], inside
    period n_i.  The edges are the period joins and the graded grid of
    ``_TE_PANEL``; an edge's offset in its period is kept apart from the
    period's start, so that the sawtooth never reads kappa / h -
    floor(kappa / h)."""
    wp, L = params.omega_p, params.L
    width = _TE_PANEL / L
    grid = [0.0, min(0.5 * wp * min(1.0, math.sinh(0.5 * wp * L)), width)]
    while grid[-1] < K:
        grid.append(grid[-1] + min(0.5 * grid[-1], width))
    grid[-1] = K
    grid = np.array(grid)
    if K <= h:
        yield np.zeros(len(grid) - 1, dtype=int), grid[:-1], grid[1:]
        return
    periods = round(K / h)
    at = np.minimum(np.floor(grid / h), periods - 1)
    offset = grid - at * h
    inner = (offset > 0.0) & (offset < h)
    at, offset = at[inner].astype(int), offset[inner]
    for first in range(0, periods, _TE_CHUNK):
        last = min(first + _TE_CHUNK, periods)
        mine = (at >= first) & (at < last)
        n = np.concatenate([np.arange(first, last), at[mine]])
        lo = np.concatenate([np.zeros(last - first), offset[mine]])
        order = np.lexsort((lo, n))
        n, lo = n[order], lo[order]
        yield n, lo, np.append(np.where(n[1:] == n[:-1], lo[1:], h), h)


def _te_integrals(Ts: np.ndarray, params: SlabParams,
                  settings: QuadSettings) -> QuadResult:
    """The TE thickness part's moments Int_0^inf p (blog, g)(p/T)
    delta_L_TE(p) dp at each of the m temperatures ``Ts``, as (2, m)
    arrays (row 0 F's, row 1 S's), in imaginary frequency.

    D_TE = 1 - rho^2 e^{-2 Q L}, with Q = sqrt(kappa^2 + omega_p^2) and rho
    = -omega_p^2 / (kappa + Q)^2, depends on kappa alone, so the Lifshitz
    form, a Matsubara sum over xi_l = l h (h = 2 pi T) minus its integral
    (E. M. Lifshitz, Sov. Phys. JETP 2, 73 (1956)), is one integral
    against the Bernoulli sawtooth B(kappa) = t - 1/2, t = kappa / h -
    floor(kappa / h):

        F moment = -pi Int_0^inf kappa log D B dkappa,
        S moment =  pi Int_0^inf [3 kappa log D + kappa^2 (log D)'] B dkappa,

    the second from S = -dF/dT.  One chunked array pass of
    ``integrate_fixed`` runs both columns for every temperature, whose
    chunks it concatenates, on the panels of ``_te_panels`` up to the cut K
    of ``_te_cut``, rounded up to whole periods when it exceeds one, with B
    = t - 1/2 taken from each panel's offset in its own period.  At low T
    the moments are O(T^3) while the integrands are O(1): so each period's
    chord through the integrands' values at its joins is subtracted, which
    leaves the rule an O(h^2) integrand and a roundoff floor that falls
    with T, and the chords' sawtooth moments, h/12 times their rises, are
    added back; they sum to h (phi(K) - phi(0)) / 12.  Each error is the
    summed panel bound plus the tail bound past K (``_te_tails``).  If an
    error of a temperature misses the tolerance, every panel of that
    temperature is halved once; if it still misses, QuadratureError.  At T
    = inf, B = -1/2 throughout, and the F moment is (pi / 2) Int_0^inf
    kappa log D dkappa (``slab_constant_d``).
    """
    K0 = _te_cut(params, settings)
    hs = 2.0 * math.pi * np.asarray(Ts, dtype=float)
    Ks = [math.ceil(K0 / h) * h if K0 > h else K0 for h in hs]
    chords = np.array([h * _te_integrands(np.array(K), params) / 12.0
                       if K > h else np.zeros(2) for h, K in zip(hs, Ks)])
    tails = np.array([_te_tails(K, params) for K in Ks])
    value, error, evals = chords.copy(), tails.copy(), 0
    todo = list(range(len(hs)))
    for halve in (False, True):
        value[todo], error[todo] = chords[todo], tails[todo]
        for step in zip_longest(*(_te_chunks(hs[i], Ks[i], params, halve)
                                  for i in todo)):
            rows = [(i, chunk) for i, chunk in zip(todo, step) if chunk]
            lo, hi, h, start, a, b = map(np.concatenate,
                                         zip(*(chunk for _, chunk in rows)))

            def f(u: np.ndarray) -> np.ndarray:
                t = (u / h)[..., None]
                y = _te_integrands(start + u, params) - a - (b - a) * t
                return y * (t - 0.5)

            res = integrate_fixed(f, lo[:, None], hi[:, None])
            evals += res.evaluations
            at = 0
            for i, chunk in rows:
                mine = slice(at, at + len(chunk[0]))
                value[i] += res.value[mine].sum(axis=0)
                error[i] += res.error_estimate[mine].sum(axis=0)
                at = mine.stop
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(value))
        todo = [i for i in todo if np.any(error[i] > tol[i])]
        if not todo:
            return QuadResult(value.T, error.T, evals)
    i = todo[0]
    raise QuadratureError(
        f"TE thickness part at T={Ts[i]}: errors {error[i]} exceed the "
        f"tolerances {tol[i]} after halving every panel (values {value[i]})")


def _te_chunks(h: float, K: float, params: SlabParams, halve: bool):
    """The chunks of ``_te_panels`` on [0, K] at the sawtooth period h, as
    rows of an ``_te_integrals`` pass: (lo, hi) of each panel in its
    period, and h, the period's start and the integrands at its two joins
    (zero when K is at most one period) broadcast to each row; with
    ``halve``, every panel halved."""
    for n, lo, hi in _te_panels(K, h, params):
        if halve:
            mid = 0.5 * (lo + hi)
            n = np.repeat(n, 2)
            lo = np.stack([lo, mid], axis=1).ravel()
            hi = np.stack([mid, hi], axis=1).ravel()
        start = np.zeros((len(n), 1))
        a = b = np.zeros((len(n), 1, 2))
        if K > h:
            ends = _te_integrands(np.arange(n[0], n[-1] + 2) * h, params)
            start = n[:, None] * h
            a, b = ends[n - n[0], None], ends[n - n[0] + 1, None]
        yield lo, hi, np.full((len(n), 1), h), start, a, b


def _thickness_te(Ts, params: SlabParams, settings: QuadSettings):
    """((F, F_error), (S, S_error)) of the TE thickness part from its
    moments (``_te_integrals``), for every temperature of the array Ts in
    one pass, each error that pass's summed panel bound plus its tail
    bound, times the value's prefactor."""
    res = _te_integrals(Ts, params, settings)
    (F, S), (F_err, S_err) = res.value, res.error_estimate
    two_pi2 = 2.0 * math.pi ** 2
    return ((Ts * F / two_pi2, Ts * F_err / two_pi2),
            (S / two_pi2, S_err / two_pi2))


def F_L_TE(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """TE thickness free energy per unit area.

    F = (T / 2 pi^2) Int_0^inf p blog(p/T) delta_L_TE(p) dp, evaluated in
    imaginary frequency as

        F = -(T / 2 pi) Int_0^inf kappa log D_TE(kappa) B(kappa / 2 pi T)
            dkappa,

    D_TE = 1 - rho^2 e^{-2 Q L}, B(x) = x - floor(x) - 1/2, in one array
    pass that it shares with ``S_L("TE")`` (``_te_integrals``).  Finite
    without subtraction; tends to a linear-in-T plateau (coefficient
    given by ``slab_constant_d``) at high temperature and vanishes for
    L -> inf.  At low temperature the series of ``delta_L`` gives

        F = -2 pi^2 T^4 / (45 omega_p (e^{2 omega_p L} - 1))
            * (1 + (8 pi^2 / 7)(a3 / a1) T^2 + O(T^4)),

    see ``ThicknessSeries.te_factor``.
    """
    return Part.named(PARTS, "L_TE").evaluate(T, params, settings)[0][0]


def h_L(omega: float, params: SlabParams,
        settings: QuadSettings | None = None) -> QuadResult:
    """Evanescent momentum moment Int_0^min(omega, omega_p) p
    delta_L_TM(p, omega) dp.

    The half of the TM thickness part's inner integral below omega_p; the
    half above it, p > omega_p, is integrated in swapped order
    (``_tm_propagating``).  Evaluated with a tightened relative tolerance
    (1e-10).  It runs in p up to omega_p/sqrt(2), then in gamma =
    sqrt(omega_p^2 - p^2) up to min(omega, omega_p), where p -> omega_p is
    smooth.  The gamma piece runs on a variable graded towards gamma = 0:
    u = log gamma below omega_p, and above it v with gamma = t expm1(v),
    where t = eps omega_p / sqrt(1 + eps^2) is the turn of the phase; v
    is linear across the layer ~eps wide at the turn and logarithmic
    beyond it, so the piece's estimate stays honest next to omega_p at
    the default tolerance.  At omega_p the piece is 0.  Returns a
    ``QuadResult`` whose error is the sum of its pieces' estimates.  The
    TM thickness free energy and entropy do not call it per frequency:
    they read a piecewise Chebyshev table built from it (``_HLTable``).
    h_L vanishes at omega_p, has a log cusp there, and depends on omega
    above it only through eps(omega), smoothly; far above omega_p it
    tends to a constant that the propagating half all but cancels.  Near
    zero frequency

        h_L(omega) = A omega^3 + B omega^4 + C omega^5 + O(omega^6),
        A = 4 s1 / omega_p,   B = -4 pi s2 / omega_p^2,
        C = (14 s1 / 3 + 32 s3 / 3) / omega_p^3 + 4 L s2 / (3 omega_p^2),

    with s1, s2, s3 as in ``delta_L`` (see ``thickness_series``).
    """
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    settings = replace(settings or DEFAULT_SETTINGS, rel_tol=1e-10)
    wp, L = params.omega_p, params.L
    wp2, eps = wp * wp, epsilon(omega, params)

    def f_p(p: float) -> float:
        return p * _delta_L_evanescent(p, math.sqrt(wp2 - p * p), eps, L)

    def f_gamma(g: float) -> float:
        # p dp = -gamma d gamma, with gamma exact rather than recomputed
        # from a p close to omega_p
        p = math.sqrt((wp - g) * (wp + g))
        return g * _delta_L_evanescent(p, g, eps, L)

    def f_log(u: float) -> float:
        # gamma = e^u
        g = math.exp(u)
        return g * f_gamma(g)

    def f_turn(v: float) -> float:
        # gamma = t expm1(v), d gamma = t e^v dv
        g = turn * math.expm1(v)
        return turn * math.exp(v) * f_gamma(g)

    # Up to omega_p / sqrt(2) in p; beyond it in gamma, where p -> omega_p
    # is smooth, graded towards gamma = 0 (above omega_p the phase turns
    # at gamma = eps p over a layer ~eps wide).
    half = wp / math.sqrt(2.0)
    pieces = [integrate_finite(f_p, 0.0, min(omega, half), settings)]
    if half < omega < wp:
        g_lo = math.sqrt((wp - omega) * (wp + omega))
        pieces.append(integrate_finite(f_log, math.log(g_lo),
                                       math.log(half), settings))
    elif eps > 0.0:
        turn = eps * wp / math.sqrt(1.0 + eps * eps)
        pieces.append(integrate_finite(f_turn, 0.0,
                                       math.log1p(half / turn), settings))
    return QuadResult(sum(piece.value for piece in pieces),
                      sum(piece.error_estimate for piece in pieces),
                      sum(piece.evaluations for piece in pieces))


# The propagating half's inner integral runs on this many equal G7-K15
# panels in u = log(omega - omega_p), for this many q nodes at a time.
_INNER_PANELS = 12
_Q_CHUNK = 32


def _tm_propagating(params: SlabParams, W: float, weight,
                    settings: QuadSettings, rest: QuadResult) -> QuadResult:
    """Int_omega_p^W weight(omega) h_prop(omega) d omega for each of the m
    columns of ``weight``, where h_prop(omega) = Int_omega_p^omega p
    delta_L_TM(p, omega) dp is the propagating half of the TM momentum
    moment (``h_L`` is the other half).

    Runs in swapped order, with p dp = q dq and Q(W) = sqrt(W^2 -
    omega_p^2):

        Int_0^Q(W) dq q Int_sqrt(q^2 + omega_p^2)^W d omega
            weight(omega) delta_prop(q, eps(omega)).

    delta_prop oscillates only through sin qL and cos qL, and omega enters
    only through eps(omega), so the inner integral is smooth.  It runs on
    a fixed G7-K15 rule (``integrate_fixed``) with ``_INNER_PANELS`` equal
    panels in u = log(omega - omega_p), graded towards its lower end,
    where eps -> 0 as q -> 0.  The outer integral in q, of period pi/L,
    runs on the adaptive panel rule from whole periods, graded towards
    q = 0.  The halves cancel in part, so each of the m moments is held to
    the tolerance of its total with ``rest``, the other half's (m,) values
    and errors, but not below that half's error, which the total carries
    anyway.  The inner rule's m error bounds ride along, with an infinite
    tolerance.  ``weight``
    maps an array of omega to one with a last axis of m columns, and W >
    omega_p.  Returns (m,) arrays; each error is the outer rule's plus the
    integrated inner bound and that integral's own error, and the
    evaluation count is that of the inner rule.
    """
    wp, L = params.omega_p, params.L
    Q = math.sqrt((W - wp) * (W + wp))
    top = math.log(W - wp)
    steps = np.linspace(0.0, 1.0, _INNER_PANELS + 1)

    def inner(q: np.ndarray) -> np.ndarray:
        p = np.hypot(wp, q)[:, None]
        # At the lower end omega - omega_p = p - omega_p = q^2/(p + omega_p)
        low = np.log(q * q / (p[:, 0] + wp))
        u = low[:, None] + (top - low)[:, None] * steps

        def f(u: np.ndarray) -> np.ndarray:
            x = np.exp(u)
            w = wp + x
            eps = x * (w + wp) / (w * w)
            # d omega = x du
            delta = x * _delta_L_propagating_array(p, q[:, None], eps, L)
            return weight(w) * delta[..., None]

        res = integrate_fixed(f, u[:, :-1], u[:, 1:])
        return q[:, None] * np.concatenate([res.value, res.error_estimate],
                                           axis=1)

    def f(q: np.ndarray) -> np.ndarray:
        return np.concatenate([inner(q[i:i + _Q_CHUNK])
                               for i in range(0, len(q), _Q_CHUNK)])

    step = min(math.pi / L, Q)
    edges = [*np.arange(0.0, Q, step), Q,
             *(step * 0.5 ** k for k in range(1, 8))]
    m = len(rest.value)
    tol = replace(settings, abs_tol=np.concatenate(
        [np.maximum(settings.abs_tol, rest.error_estimate),
         np.full(m, np.inf)]))
    res = integrate_panels(f, edges, tol, offset=np.concatenate(
        [rest.value, np.zeros(m)]))
    bound = res.value[m:] + res.error_estimate[m:]
    return QuadResult(res.value[:m], res.error_estimate[:m] + bound,
                      res.evaluations * 15 * _INNER_PANELS)


# The TM thickness integrals read h_L(omega) / omega, the evanescent half,
# from a table of Chebyshev interpolants on [0, 60 omega_p], the largest
# frequency cutoff they use.  Above omega_p it depends on omega only
# through eps(omega), so it is smooth there and has no period pi / L.
# Next to omega_p, h_L ~ delta (a log(1/delta) - b) in
# delta = |omega/omega_p - 1|: no polynomial in omega follows that cusp,
# but in s = log delta it is smooth.  So in units of omega_p the segment
# from delta = 1/4 to delta = 4^-10 ~ 1e-6 on each side of omega_p is
# fitted in s, the two segments within 4^-10 of omega_p are fitted in
# omega, as are [0, 0.75] and [1.25, 2].  From 2 up, h_L is analytic in x = (omega_p / omega)^2 (eps = 1 - x), so
# the far piece fits h_L itself, not h_L / omega, in x on [2, 60]: 7
# segments.  ``_SIDES`` gives each segment's fit variable.
_TABLE_TOP = 60.0
_CUSP = 4.0 ** -10
_FAR = 2
_TABLE_EDGES = (0.0, 0.75, 1.0 - _CUSP, 1.0, 1.0 + _CUSP, 1.25, 2.0,
                _TABLE_TOP)
_SIDES = {0.75: -1, 1.0 + _CUSP: 1, 2.0: _FAR}
# Each piece is fitted on nested Clenshaw-Curtis nodes of these degrees
# until its coefficient tail, as a bound on h_L / omega, times its width
# is at most _TABLE_TOL omega_p^2, or the tail is below the error of the
# h_L values themselves; it is bisected in its fit variable, at most
# _TABLE_DEPTH times, when the last degree does not suffice.  The table's
# h_L calls use their own tolerances, absolute _TABLE_ABS_TOL omega_p
# omega (omega_p lo on the far piece from lo up) and h_L's relative
# 1e-10, so no caller's QuadSettings reach the table.
_TABLE_TOL = 1e-14
_TABLE_ABS_TOL = 1e-12
_TABLE_DEGREES = (8, 16, 32, 64)
_TABLE_DEPTH = 12


def _cheb_matrix(n: int) -> np.ndarray:
    """Chebyshev coefficients from values at cos(j pi / n), j = 0..n."""
    jk = np.outer(np.arange(n + 1), np.arange(n + 1))
    m = (2.0 / n) * np.cos(jk * math.pi / n)
    m[:, [0, n]] *= 0.5
    m[[0, n], :] *= 0.5
    return m


_CHEB_MATRICES = {n: _cheb_matrix(n) for n in _TABLE_DEGREES}


def _fit_variable(w: float, wp: float, side: int) -> float:
    """Fit variable of a piece at frequency w: w itself on the omega pieces
    (side 0), side log(side (w - omega_p)) on the log pieces (side -1
    below omega_p, 1 above), so that it increases with w on both sides of
    omega_p, and (omega_p / w)^2 on the far piece (side ``_FAR``)."""
    if side == _FAR:
        return (wp / w) ** 2
    # w - omega_p is exact within a factor 2 of omega_p
    return side * math.log(side * (w - wp)) if side else w


def _fit_omega(x: float, wp: float, side: int) -> float:
    """Frequency at fit variable x; the inverse of ``_fit_variable``."""
    if side == _FAR:
        return wp / math.sqrt(x)
    return wp + side * math.exp(side * x) if side else x


def _fit_piece(lo: float, hi: float, params: SlabParams, side: int = 0,
               depth: int = 0) -> list[tuple]:
    """Pieces (lo, hi, a, b, side, c0, c_n..c_1, bound) interpolating
    h_L / omega on [lo, hi] in the fit variable x of ``_fit_variable``,
    which runs over [a, b]; the far piece interpolates h_L itself, and a
    read divides it by omega.

    ``bound`` is a pointwise error bound of the piece, in units of h_L /
    omega: its coefficient tail (the sum of the last quarter of its
    coefficients) plus the Lebesgue constant of its nodes times the worst
    inner error estimate of the values it was fitted to; on the far
    piece that bound on h_L over lo, since omega >= lo there.
    """
    wp = params.omega_p
    a, b = _fit_variable(lo, wp, side), _fit_variable(hi, wp, side)
    mid, half = 0.5 * (b + a), 0.5 * (b - a)
    far = side == _FAR
    # The far piece's bounds on h_L, over lo, bound h_L / omega.
    over = lo if far else 1.0
    worst = 0.0

    def k(x: float) -> float:
        # h_L ~ omega^3 near zero, so its absolute tolerance scales with
        # omega: h_L / omega then has one absolute tolerance throughout.
        # The far piece fits h_L at the tolerance of its lowest frequency.
        nonlocal worst
        w = _fit_omega(mid + half * x, wp, side)
        if w <= 0.0:
            return 0.0
        per = 1.0 if far else w
        res = h_L(w, params,
                  QuadSettings(abs_tol=_TABLE_ABS_TOL * wp * (lo if far
                                                              else w)))
        worst = max(worst, res.error_estimate / per)
        return res.value / per

    n = _TABLE_DEGREES[0]
    values = [k(math.cos(j * math.pi / n)) for j in range(n + 1)]
    while True:
        c = _CHEB_MATRICES[n] @ np.array(values)
        tail = float(np.sum(np.abs(c[3 * n // 4:])))
        lebesgue = 1.0 + 2.0 / math.pi * math.log(n + 1)
        last = n == _TABLE_DEGREES[-1]
        if (tail / over * (hi - lo) <= _TABLE_TOL * wp * wp
                or tail <= lebesgue * worst
                or (last and depth == _TABLE_DEPTH)):
            break
        if last:
            cut = _fit_omega(mid, wp, side)
            return (_fit_piece(lo, cut, params, side, depth + 1)
                    + _fit_piece(cut, hi, params, side, depth + 1))
        n *= 2
        odd = [k(math.cos(j * math.pi / n)) for j in range(1, n, 2)]
        values = [v for pair in zip(values, odd) for v in pair] + values[-1:]
    bound = (tail + lebesgue * worst) / over
    return [(lo, hi, a, b, side, float(c[0]), tuple(map(float, c[:0:-1])),
             bound)]


class _HLTable:
    """h_L(omega) / omega on [0, 60 omega_p], read from fitted Chebyshev
    pieces: the evanescent half of the TM momentum moment over omega.

    Each piece interpolates in its fit variable x (``_fit_variable``):
    omega itself, or s = log|omega/omega_p - 1| up to a shift and sign on
    the two log pieces next to omega_p, where h_L has a log cusp, or
    (omega_p / omega)^2 on the far piece from 2 omega_p up, which fits h_L
    itself and is divided by omega on a read; the pieces' omega extents
    tile the table in order.  A segment of
    ``_TABLE_EDGES`` is fitted when a read first falls in it, so the h_L
    quadratures of a build run under the outer quadrature that first
    reads the table, without the caller's settings.  A read finds its
    piece in the segment that holds omega, never among the segments built
    so far, and is stored by omega: it depends on (params, omega) alone,
    so the table reads the same whichever temperature, settings or
    process asked first, and a node that the F and S integrals, or two
    temperatures, share is evaluated once.  ``_table`` keeps one table
    per params.
    """

    def __init__(self, params: SlabParams) -> None:
        self._params = params
        self._joins = [params.omega_p * edge for edge in _TABLE_EDGES]
        self._segments: list[tuple | None] = [None] * (len(_TABLE_EDGES) - 1)
        self._reads: dict[float, float] = {}

    def _segment(self, i: int) -> tuple[list[float], list[tuple]]:
        """(piece starts, pieces) of segment i, fitted on first use."""
        if self._segments[i] is None:
            lo = _TABLE_EDGES[i]
            pieces = _fit_piece(self._joins[i], self._joins[i + 1],
                                self._params, _SIDES.get(lo, 0))
            self._segments[i] = ([piece[0] for piece in pieces], pieces)
        return self._segments[i]

    def _below(self, W: float) -> list[tuple]:
        """The pieces of every segment that starts below W, in order."""
        return [piece for i, lo in enumerate(self._joins[:-1]) if lo < W
                for piece in self._segment(i)[1]]

    @property
    def pieces(self) -> list[tuple]:
        """Every piece of the table, in order."""
        return self._below(math.inf)

    def _piece(self, w: float) -> tuple:
        i = bisect_right(self._joins, w, 1, len(self._joins) - 1) - 1
        starts, pieces = self._segment(i)
        return pieces[max(bisect_right(starts, w) - 1, 0)]

    def __call__(self, w: float) -> float:
        value = self._reads.get(w)
        if value is None:
            _, _, a, b, side, c0, rest, _ = self._piece(w)
            x = _fit_variable(w, self._params.omega_p, side)
            t = (2.0 * x - a - b) / (b - a)
            t2 = 2.0 * t
            b1 = b2 = 0.0
            for c in rest:
                b1, b2 = c + t2 * b1 - b2, b1
            value = c0 + t * b1 - b2
            if side == _FAR:
                value /= w
            self._reads[w] = value
        return value

    def bound(self, w: float) -> float:
        """Pointwise error bound of the table at w."""
        return self._piece(w)[-1]

    def error(self, W: float, weight) -> float:
        """Bound on |Int_0^W weight(w) (table(w) - h_L(w)/w) dw|.

        ``weight`` must be positive and decreasing, so that its value at
        the start of a piece bounds it on the piece.  On the far piece the
        error of h_L / omega is at most lo bound / omega, whose integral
        is lo bound log(min(hi, W) / lo).
        """
        return math.fsum(
            bound * weight(lo) * (lo * math.log(min(hi, W) / lo)
                                  if side == _FAR else min(hi, W) - lo)
            for lo, hi, _, _, side, *_, bound in self._below(W))

    def integrate(self, weight, W: float, settings: QuadSettings,
                  breakpoints=()) -> QuadResult:
        """Int_0^W weight(w) h_L(w)/w dw: one QUADPACK integral at a
        relative tolerance of 1e-10, with ``breakpoints`` and the
        segments' joins, where the table kinks, as breakpoints; its error
        adds ``error(W, weight)``.  The segments it reads are built inside
        the quadrature.  A W above 60 omega_p, where the pieces would
        extrapolate, raises ValueError."""
        if W > self._joins[-1]:
            raise ValueError(f"the h_L table ends at {_TABLE_TOP:g} omega_p "
                             f"= {self._joins[-1]:g}, got {W}")
        res = integrate_finite(lambda w: weight(w) * self(w), 0.0, W,
                               replace(settings, rel_tol=1e-10),
                               breakpoints=[*breakpoints, *self._joins])
        return QuadResult(res.value,
                          res.error_estimate + self.error(W, weight),
                          res.evaluations)


# The tables of the last few params (a sweep's points), each with its
# fitted segments and stored reads.
_TABLES = 16


@lru_cache(maxsize=_TABLES)
def _table(params: SlabParams) -> _HLTable:
    """The h_L table of ``params``, one per params."""
    return _HLTable(params)


# Frequencies, in units of omega_p, where ``validate_h_L_table`` compares
# the table with h_L: into the cusp at omega_p from both sides, and
# across the table.
_H_L_VALIDATION_GRID = tuple(sorted(
    {1.0 + s * 10.0 ** -k for k in range(1, 10) for s in (-1.0, 1.0)}
    | {0.05, 0.3, 0.6, 0.8, 1.5, 2.7, 4.0, 7.3, 11.0, 17.0, 23.5, 31.0,
       44.0, 52.5, 59.5}))


def validate_h_L_table(params: SlabParams,
                       settings: QuadSettings | None = None
                       ) -> tuple[float, float]:
    """The h_L table against h_L itself, and the table's own error claim.

    Returns the worst ratio, over a fixed grid of frequencies, of the gap
    between the table and a direct ``h_L`` call to the table's pointwise
    bound plus the direct call's error estimate (at most 1 when the bound
    is honest), and the table's bound on Int_0^{60 omega_p} h_L/omega in
    units of omega_p^2 (the error the table adds to the outer integrals
    per unit of thermal weight).  The oracle suite gates both.
    """
    settings = settings or DEFAULT_SETTINGS
    wp = params.omega_p
    table = _table(params)
    worst = 0.0
    for frac in _H_L_VALIDATION_GRID:
        w = frac * wp
        direct = h_L(w, params, settings)
        claim = w * table.bound(w) + direct.error_estimate
        worst = max(worst, abs(w * table(w) - direct.value) / claim)
    return worst, table.error(_TABLE_TOP * wp, lambda w: 1.0) / wp ** 2


def _thermal_columns(Ts):
    """The weights of the propagating moment in the TM thickness part's F
    and S integrals, n(w/T) and w n'(w/T) = w n (1 + n), for each of the k
    temperatures of the array Ts (k = 1 for a float): a map of an array of
    w to one with a last axis of 2 k columns, the k of n first."""
    def weights(w: np.ndarray) -> np.ndarray:
        w = w[..., None]
        with np.errstate(over="ignore"):
            n = 1.0 / np.expm1(w / Ts)
        return np.concatenate([n, w * n * (1.0 + n)], axis=-1)

    return weights


def _tm_moment(params: SlabParams, W, weights, columns,
               settings: QuadSettings, breakpoints=None) -> QuadResult:
    """Int_0^W of m weights times the TM momentum moment, as (m,) arrays:
    W is one cut for every weight or an (m,) array of one cut per weight.
    The evanescent half (p < omega_p) integrates the h_L table once per
    weight of h_L / omega in ``weights``, up to its cut, with its entry of
    ``breakpoints``, one sequence per weight, if given
    (``_HLTable.integrate``), all on the one table of ``params``
    (``_table``), which stores its reads; the propagating half (p > omega_p) runs in
    swapped order once for the weights whose cuts exceed omega_p
    (``_tm_propagating``), cut at the largest of them, with ``settings``
    as the sum's tolerance.  ``columns`` maps an array of omega to those
    weights divided by omega, in their order, on a last axis.  Each error
    adds the two halves'.  A cut above 60 omega_p, beyond the table,
    raises ValueError."""
    Ws = np.broadcast_to(np.asarray(W, dtype=float), (len(weights),))
    breakpoints = breakpoints or [()] * len(weights)
    table = _table(params)
    halves = [table.integrate(weight, w_cut, settings, points)
              for weight, w_cut, points in zip(weights, map(float, Ws),
                                               breakpoints)]
    value = np.array([half.value for half in halves])
    error = np.array([half.error_estimate for half in halves])
    evals = sum(half.evaluations for half in halves)
    prop = Ws > params.omega_p
    if prop.any():
        rest = QuadResult(value[prop], error[prop], 0)
        res = _tm_propagating(params, float(Ws[prop].max()), columns,
                              settings, rest)
        value[prop] += res.value
        error[prop] += res.error_estimate
        evals += res.evaluations
    return QuadResult(value, error, evals)


def _thickness_tm(Ts, params: SlabParams, settings: QuadSettings):
    """((F, F_error), (S, S_error)) of the TM thickness part: Int_0^W of
    each thermal weight times the TM momentum moment, W = min(40 T, 60
    omega_p), for every temperature of the array Ts (``_tm_moment``).  The
    evanescent half integrates the h_L table once per temperature and
    weight; the propagating half, for the temperatures with W > omega_p,
    runs one swapped pass with two columns per temperature, cut at their
    largest W, where the others' weights are below e^-40.  The halves
    cancel in part: at omega_p L = 1 and T = 10 omega_p, S's are -11.8
    and 12.9 in integral units.  So the table's integrals run at a
    relative tolerance of 1e-10, and the propagating half is held to 1e-8
    of the sum."""
    # The momentum moment decays fast enough that frequencies beyond ~60
    # omega_p are negligible at every temperature; the thermal factor
    # cuts earlier when 40 T is smaller.
    Ws = np.minimum(40.0 * Ts, _TABLE_TOP * params.omega_p)
    # F's weight at each T, then S's, as ``_thermal_columns`` orders them.
    F_weights, S_weights = zip(*map(_tm_weights, Ts.tolist()))
    res = _tm_moment(params, np.tile(Ws, 2), F_weights + S_weights,
                     _thermal_columns(Ts[Ws > params.omega_p]),
                     replace(settings, rel_tol=1e-8), [[t] for t in Ts] * 2)
    (F, S), (F_err, S_err) = (res.value.reshape(2, -1),
                              res.error_estimate.reshape(2, -1))
    two_pi2 = 2.0 * math.pi ** 2
    return ((F / -two_pi2, F_err / two_pi2),
            (S / (two_pi2 * Ts * Ts), S_err / (two_pi2 * Ts * Ts)))


def F_L_TM(T: float, params: SlabParams,
           settings: QuadSettings | None = None) -> float:
    """TM thickness free energy per unit area.

    F = -(1/2 pi^2) Int_0^W n(omega/T) (h_L + h_prop)(omega) d omega
    (note: no omega factor; it is consumed by the momentum moment), with
    the cutoff W = min(40 T, 60 omega_p).  h_L, the evanescent half of the
    momentum moment (p < omega_p), is read from a piecewise Chebyshev
    table built once per params and shared by every temperature, every
    ``QuadSettings``, ``S_L`` and ``slab_constant_d``, under one QUADPACK
    integral (``_HLTable.integrate``).  h_prop, the propagating half (p >
    omega_p), oscillates with period pi / L in its upper limit; its
    integral runs in swapped order on numpy arrays (``_tm_propagating``),
    held to the tolerance of the sum.  The error its ``PARTS`` record
    returns adds the table's pointwise bound times the integral of the
    thermal weight, the QUADPACK estimate and the swapped half's error.
    At low temperature the series of ``h_L`` gives

        F = -2 pi^2 T^4 / (15 omega_p (e^{2 omega_p L} - 1))
            * (1 + b1 T + b2 T^2 + O(T^3)),
        b1 = 360 zeta(5) B / (pi^4 A),   b2 = (40 pi^2 / 21) C / A,

    whose leading term is three times that of the TE thickness part.
    b1 = -13.92 / omega_p at omega_p L = 1, so the ratio to F_L_TE is
    still about 13% below 3 at T = 1e-2 omega_p (see
    ``ThicknessSeries.tm_factor``).
    """
    return Part.named(PARTS, "L_TM").evaluate(T, params, settings)[0][0]


def S_L(ch: str, T: float, params: SlabParams,
        settings: QuadSettings | None = None) -> float:
    """Thickness entropy of one channel (-dF/dT); no subtraction needed.

    The TE part, -dF/dT of ``F_L_TE``'s sawtooth form,

        S = (1 / 2 pi) Int_0^inf [3 kappa log D + kappa^2 (log D)']
            B(kappa / 2 pi T) dkappa,

    runs in the same array pass as F (``_te_integrals``) and settles on
    the plateau -slab_constant_d * omega_p^2 > 0 at high temperature,
    where B -> -1/2.  The TM part,
    (1/2 pi^2 T^2) Int_0^W omega n'(omega/T) (h_L + h_prop)(omega) d omega
    with n' = e^x/(e^x - 1)^2, is evaluated with ``F_L_TM``: the same
    h_L table for the evanescent half, and the same swapped pass, one
    column per weight, for the propagating half.
    """
    return Part.named(PARTS, "L_" + Channel.validate(ch)).evaluate(
        T, params, settings)[1][0]


def slab_constant_d(settings: QuadSettings | None = None,
                    route: str = "TE") -> QuadResult:
    """High-temperature linear coefficient of the thickness part.

    d = G_TE(0) / 2 = (1/4 pi) Int_0^inf kappa log D_TE(kappa) dkappa at
    omega_p = L = 1, equal to (1/2 pi^2) Int_0^inf p log(p) delta_L_TE(p)
    dp, so that F_L_TE -> d T at high temperature.  Each route runs a
    thickness part's own integrator: the TE route ``_te_integrals`` at T =
    inf, where the sawtooth is -1/2 throughout and the F moment is 2 pi^2
    d; the equivalent TM route ``_tm_moment`` (h_L table and swapped
    propagating half) under the weight 1 / omega, d = -(1/2 pi^2)
    Int_0^60 (h_L + h_prop)(omega) / omega d omega.  Returns d with its
    error in units of d: the summed quadrature estimates, plus the tail
    bound past the cut on the TE route and the table's bound on the TM
    route.  The TM route does not bound its cut at 60 omega_p.
    """
    settings = settings or DEFAULT_SETTINGS
    params = SlabParams(omega_p=1.0, L=1.0)
    if route == "TM":
        res = _tm_moment(params, _TABLE_TOP, (lambda w: 1.0,),
                         lambda w: 1.0 / w[..., None], settings)
        value, error = -res.value[0], res.error_estimate[0]
    elif route == "TE":
        res = _te_integrals(np.array([math.inf]), params, settings)
        value, error = res.value[0, 0], res.error_estimate[0, 0]
    else:
        raise ValueError(f"route must be 'TE' or 'TM', got {route!r}")
    two_pi2 = 2.0 * math.pi ** 2
    return QuadResult(float(value) / two_pi2, float(error) / two_pi2,
                      res.evaluations)


@dataclass(frozen=True)
class ThicknessSeries:
    """Low-frequency coefficients of the thickness weights.

    delta_L_TE(p) = a1 p + a3 p^3 + O(p^5) and
    h_L(omega) = A omega^3 + B omega^4 + C omega^5 + O(omega^6) with
    A = a1.  Built by ``thickness_series``; the methods turn them into
    the low-temperature laws of the thickness free energies.
    """

    a1: float
    a3: float
    B: float
    C: float

    def te_factor(self, T: float) -> float:
        """F_L_TE over its T^4 law: 1 + (8 pi^2 / 7)(a3 / a1) T^2.

        From Int_0^inf p^n blog(p/T) dp = -n! zeta(n + 2) T^(n+1):
        F_L_TE = -(pi^2 a1 / 90) T^4 - (4 pi^4 / 315) a3 T^6 + O(T^8).
        """
        return 1.0 + (8.0 * math.pi ** 2 / 7.0) * (self.a3 / self.a1) * T * T

    def tm_factor(self, T: float) -> float:
        """F_L_TM over three times the T^4 law of F_L_TE.

        1 + 360 zeta(5) B / (pi^4 A) T + (40 pi^2 / 21)(C / A) T^2, from
        Int_0^inf omega^n n(omega/T) d omega = n! zeta(n + 1) T^(n+1).
        """
        return (1.0 + 360.0 * ZETA5 * self.B / (math.pi ** 4 * self.a1) * T
                + (40.0 * math.pi ** 2 / 21.0) * (self.C / self.a1) * T * T)


def thickness_series(params: SlabParams) -> ThicknessSeries:
    """Closed-form low-frequency series of delta_L_TE and h_L.

    With E0 = e^{-2 omega_p L}, s1 = E0/(1-E0), s2 = E0/(1-E0)^2 and
    s3 = E0 (1+E0)/(1-E0)^3:

        a1 = A = 4 s1 / omega_p,
        a3 = (2 s1 / 3 - 32 s3 / 3) / omega_p^3 + 4 L s2 / omega_p^2,
        B = -4 pi s2 / omega_p^2,
        C = (14 s1 / 3 + 32 s3 / 3) / omega_p^3 + 4 L s2 / (3 omega_p^2).

    Both phases are Sum_n (E^n / n) sin(4 n beta) (see ``delta_L``).
    In TE, beta = asin(p/omega_p) and E = E0 (1 + L p^2 / omega_p + ...)
    give a1 and a3.  In TM, p = omega t and tan(beta) = kappa / t with
    kappa = omega gamma / (omega_p^2 - omega^2).  For constant kappa,
    Int_0^1 t sin(4 n beta) dt = 4 n kappa - 4 pi n^2 kappa^2
    + (4 n + 32 n^3) kappa^3 / 3 + O(kappa^4); the kappa^2 term comes
    from the layer t ~ omega / omega_p and gives B.  C adds the
    O(omega^2 t^2) variation of gamma in kappa and in E.
    """
    wp, L = params.omega_p, params.L
    e0 = math.exp(-2.0 * wp * L)
    s1 = e0 / (1.0 - e0)
    s2 = s1 / (1.0 - e0)
    s3 = s2 * (1.0 + e0) / (1.0 - e0)
    return ThicknessSeries(
        a1=4.0 * s1 / wp,
        a3=(2.0 * s1 - 32.0 * s3) / (3.0 * wp ** 3) + 4.0 * L * s2 / wp ** 2,
        B=-4.0 * math.pi * s2 / wp ** 2,
        C=((14.0 * s1 + 32.0 * s3) / (3.0 * wp ** 3)
           + 4.0 * L * s2 / (3.0 * wp ** 2)),
    )


def _branch_weight(omega: float | np.ndarray, params: SlabParams):
    """Subtracted branch-cut weight of the optical-path part.

    omega_p^2/2 - omega^2 below omega_p;
    omega sqrt(omega^2 - omega_p^2) - omega^2 + omega_p^2/2 above,
    evaluated cancellation-free (-> -omega_p^4 / (8 omega^2)).  Float or
    array ``omega``, as ``h``."""
    w = np.asarray(omega, dtype=float)
    wp = params.omega_p
    s = np.sqrt(np.maximum((w - wp) * (w + wp), 0.0)) / w
    out = np.where(w < wp, 0.5 * wp * wp - w * w,
                   -0.5 * wp ** 4 / (w * w * (1.0 + s) ** 2))
    return out if np.ndim(omega) else float(out)


def _exp(Ts, params: SlabParams, settings: QuadSettings):
    """((F, F_error), (S, S_error)) of the optical-path part, whose
    subtracted branch weight leaves out its T^2 growth, in one pass for
    every temperature of the array Ts."""
    W = max(40.0 * float(Ts.max()), 8.0 * params.omega_p)
    # Beyond 8 omega_p, |_branch_weight| <= 0.126 omega_p^4 / omega^2.
    (F, S), (F_err, S_err) = thermal_integral(
        lambda w: _branch_weight(w, params), weight_columns(Ts),
        _grid(Ts.min(), params, W), settings,
        _truncation_bound(Ts, W, 0.126 * params.omega_p ** 4, -2))
    c = params.L / (2.0 * math.pi ** 2)
    return (c * Ts * F, c * Ts * F_err), (c * S, c * S_err)


def validate_exp_part(params: SlabParams,
                      settings: QuadSettings | None = None) -> float:
    """Relative gap between the optical-path closed form and its definition.

    Compares raw ``F_exp`` (the branch-weight route) with the defining
    double integral at T = omega_p.  The oracle suite gates the gap; the
    defining integral is authoritative on signs.
    """
    T = params.omega_p
    defining = F_exp_defining(T, params, settings)
    gap = abs(F_exp(T, params, settings) - defining)
    return gap / max(abs(defining), 1e-12)


def F_exp_subtr(T: float, params: SlabParams,
                settings: QuadSettings | None = None) -> float:
    """Optical-path free energy with its T^2 growth removed.

    F = (L T / 2 pi^2) Int_0^inf w(omega) blog(omega/T) d omega over the
    subtracted branch weight w; the weight integrates to zero, so no
    T log T term arises and the subtracted entropy saturates at
    omega_p^3 L / (12 pi).  The oracle suite checks the closed route
    against the defining double integral (``validate_exp_part``).
    """
    return Part.named(PARTS, "exp").evaluate(T, params, settings)[0][0]


def F_exp(T: float, params: SlabParams,
          settings: QuadSettings | None = None) -> float:
    """Raw optical-path (exponential-tail) free energy per unit area: the
    ``exp`` record plus its growth omega_p^2 L T^2 / 24.

    Tends to the black-body-like + (pi^2/90) L T^4 as T -> 0.
    """
    return _raw("exp", T, params, settings)[0]


def S_exp_subtr(T: float, params: SlabParams,
                settings: QuadSettings | None = None) -> float:
    """Subtracted optical-path entropy; -> omega_p^3 L / (12 pi)."""
    return Part.named(PARTS, "exp").evaluate(T, params, settings)[1][0]


def F_exp_defining(T: float, params: SlabParams,
                   settings: QuadSettings | None = None) -> float:
    """Optical-path free energy from the defining double integral:
    ``free_energy_defining`` of ``exp_channel``, with its error contract:
    the value is within max(abs_tol, rel_tol |F|) of the integral.
    Cross-check only.
    """
    return free_energy_defining(exp_channel(params), T, settings)


def _plasmon_mode(omega: float, k: float, params: SlabParams) -> float:
    """Signed slab plasmon mode function at 0 < omega <= k: the condition
    1 - rho_TM^2 e^{-2 gamma L} = 0 multiplied through by (a + gamma)^2
    and normalised, ((a + gamma)^2 - (a - gamma)^2 e^{-2 gamma L}) /
    (|a| + gamma)^2 with a = eps eta.  It stays finite on the
    single-surface mode, a = -gamma, where rho has a pole."""
    eta = math.sqrt((k - omega) * (k + omega))
    gam = math.hypot(eta, params.omega_p)
    a = epsilon(omega, params) * eta
    E = math.exp(-2.0 * gam * params.L)
    return ((a + gam) ** 2 - (a - gam) ** 2 * E) / (abs(a) + gam) ** 2


def single_surface_mode(k: float, params: SlabParams) -> float:
    """Surface mode of a single interface, eps eta + gamma = 0: the
    L -> inf limit of the slab plasmon.

    omega = omega_p k / sqrt(omega_p^2/2 + k^2 + sqrt(k^4 + omega_p^4/4)),
    the closed form omega^2 = omega_p^2/2 + k^2 - sqrt(k^4 + omega_p^4/4)
    with its cancellation divided out, so it keeps its relative accuracy
    on the light line (omega ~ k at small k) as well as where it
    approaches omega_p/sqrt(2) from below (large k).
    """
    wp = params.omega_p
    if k <= 0.0:
        raise ValueError(f"k must be positive, got {k}")
    h = 0.5 * wp * wp
    return wp * k / math.sqrt(h + k * k + math.hypot(k * k, h))


def plasmon_dispersion(k: float, params: SlabParams) -> float:
    """Guided TM surface mode (slab plasmon) frequency omega_-(k): the
    lower (antisymmetric) root of the mode function of
    ``plasmon_mode_residual``.

    The single-surface mode omega_s brackets it from above: the mode
    function is -e^{-2 gamma L} < 0 there and tends to 1 - e^{-2 gamma L}
    > 0 as omega -> 0, with omega_- the one root in between.  The lower
    end is halved down from omega_s/2 until the function is positive,
    then one bracketed root solve runs on (lower end, omega_s).  Where the
    function is already >= 0 at omega_s, e^{-2 gamma L} is below the
    rounding of the mode condition: the thickness no longer splits the
    mode in double precision, and omega_s is returned (a thick slab).

    NOTE: this mode is not included in the thermodynamic totals.
    """
    w_s = single_surface_mode(k, params)

    def fn(w: float) -> float:
        return _plasmon_mode(w, k, params)

    if fn(w_s) >= 0.0:
        return w_s
    lo = 0.5 * w_s
    for _ in range(100):
        if fn(lo) > 0.0:
            return find_root_bracketed(fn, lo, w_s, x_tol=1e-15 * w_s)
        lo *= 0.5
    raise QuadratureError(
        f"no slab plasmon bracket found at k={k} "
        f"(omega_p={params.omega_p}, L={params.L})")


def plasmon_mode_residual(omega: float, k: float,
                          params: SlabParams) -> float:
    """|mode function| of the slab plasmon at (omega, k), ~0 on the mode;
    it is the function ``plasmon_dispersion`` solves.  Near the light line
    it is limited by how precisely omega is represented: eta^2 = (k -
    omega)(k + omega) resolves a correctly rounded omega only to eps k."""
    return abs(_plasmon_mode(omega, k, params))


# Lambdas of (Ts, params, settings) -> ((F, F_error), (S, S_error)), so
# every call looks the part's evaluator up in this module.  Each evaluator
# leaves out the part's growth and takes a 1-D array Ts only.  The
# surface and exp parts run F and S at every temperature as columns of one
# panel-rule pass (two for s_TM), L_TE of one sawtooth pass; only L_TM's
# table half integrates each temperature's F and S weights one at a time
# (QUADPACK is scalar), on one h_L table per point that stores its reads,
# so the nodes those integrals share are read once.  The thickness parts
# need no subtraction.
PARTS = (
    Part("s_TE", "s", ("F_s_TE_subtr", "S_s_TE_subtr"),
         lambda Ts, p, s: _surface_te(Ts, p, s), _s_te_growth),
    Part("s_TM", "s", ("F_s_TM_subtr", "S_s_TM_subtr"),
         lambda Ts, p, s: _surface_tm(Ts, p, s), _s_tm_growth),
    Part("L_TE", "L", ("F_L_TE", "S_L_TE"),
         lambda Ts, p, s: _thickness_te(Ts, p, s)),
    Part("L_TM", "L", ("F_L_TM", "S_L_TM"),
         lambda Ts, p, s: _thickness_tm(Ts, p, s)),
    Part("exp", "exp", ("F_exp_subtr", "S_exp_subtr"),
         lambda Ts, p, s: _exp(Ts, p, s),
         lambda p: SubtractionSpec(c2=p.omega_p * p.omega_p * p.L / 24.0)),
)


def total(T, params: SlabParams,
          settings: QuadSettings | None = None) -> ThermoPoint:
    """Subtracted F and S of every slab part at a temperature or a grid.

    Parts, in the order of ``PARTS``: s_TE, s_TM (surface), L_TE, L_TM
    (thickness, which need no subtraction), exp (optical path).  The
    slab plasmon is intentionally not included.  Evaluated at
    omega_p = 1 and scaled back (``ThermoPoint.evaluate``).  With a 1-D
    array of T, each part's F and S are arrays over it, from one call per
    part.
    """
    return ThermoPoint.evaluate(PARTS, T, params, settings)


def surface_te_channel(params: SlabParams) -> ScatteringChannel:
    """TE surface part as a generic scattering channel (cross-checks).

    The phase derivative is 2/gamma below omega_p and zero above; its
    inverse square root at omega_p, a breakpoint, is integrated in s with
    p = omega_p - s^2, where it is smooth.
    """
    wp = params.omega_p

    def ddelta(p, k):
        gamma = np.sqrt(np.maximum((wp - p) * (wp + p), 0.0))
        with np.errstate(divide="ignore"):
            return np.where(p < wp, 2.0 / gamma, 0.0)

    return ScatteringChannel(
        deriv=ddelta,
        p_breakpoints=lambda k: (wp,),
        scale=wp,
    )


def exp_channel(params: SlabParams) -> ScatteringChannel:
    """Optical-path part as a generic scattering channel (cross-checks).

    The phase derivative is d delta/dp = L (p/q - 1) above omega_p and -L
    below, with q = sqrt(p^2 - omega_p^2); its inverse square root at
    omega_p, a breakpoint, is integrated in s with p = omega_p + s^2,
    where it is smooth.
    """
    wp, L = params.omega_p, params.L

    def ddelta(p, k):
        # p/q - 1 = omega_p^2 / (q (p + q)), free of cancellation
        q = np.sqrt(np.maximum((p - wp) * (p + wp), 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            return L * np.where(p > wp, wp * wp / (q * (p + q)), -1.0)

    return ScatteringChannel(deriv=ddelta, p_breakpoints=lambda k: (wp,),
                             scale=wp)
