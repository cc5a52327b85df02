"""Channel abstraction and thermodynamic bookkeeping.

A scattering geometry enters through one object per polarization
channel: the analytic p-derivative of its phase shift at radial momentum
p and fixed transverse momentum k, and optionally a discrete surface-mode
dispersion below the continuum.

``free_energy_defining`` and ``entropy_defining`` evaluate the defining
two-dimensional integrals directly from that data.  They are deliberately
slow and assumption-free; the model modules provide reduced one-dimensional
forms and use these as cross-checks.

Each model lists its additive parts once, in an ordered ``PARTS`` table
of ``Part`` records; ``ThermoPoint`` holds the subtracted free energy and
entropy of every part at one temperature, their totals and their error
estimates, evaluated at unit scale: F(T) = s^3 F_1(T/s) and
S(T) = s^2 S_1(T/s).

The high-temperature expansion of a free energy per unit area,

    F(T) = c_T3 T^3 + c_T2 T^2 + c_TlogT T log T + c_T T + ...

maps term by term onto short-time heat-kernel coefficients of the
underlying spectral problem:

    a_1/2  = -4 pi^(3/2) c_T3 / zeta(3)
    a_1    = -24 c_T2
    a_3/2  = -(4 pi)^(3/2) c_TlogT

``extract_heat_kernel`` performs the fit and mapping per channel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .numkernel import (
    DEFAULT_SETTINGS,
    QuadSettings,
    _check_T,
    bose_log,
    fit_asymptotic,
    g,
    integrate_finite,
    integrate_semiinf,
)

__all__ = [
    "Channel",
    "ScatteringChannel",
    "SubtractionSpec",
    "Part",
    "ThermoPoint",
    "HeatKernelSet",
    "free_energy_defining",
    "entropy_defining",
    "heat_kernel_from_expansion",
    "expansion_from_heat_kernel",
    "extract_heat_kernel",
    "ZETA3",
    "ZETA5",
]

ZETA3 = 1.2020569031595943
ZETA5 = 1.0369277551433699


class Channel:
    """Polarization channel labels."""

    TE = "TE"
    TM = "TM"
    ALL = ("TE", "TM")

    @staticmethod
    def validate(ch: str) -> str:
        if ch not in Channel.ALL:
            raise ValueError(f"unknown channel {ch!r}; expected one of "
                             f"{Channel.ALL}")
        return ch


@dataclass(frozen=True)
class ScatteringChannel:
    """Scattering data of one polarization channel.

    Attributes
    ----------
    deriv : callable
        Analytic d delta/dp at radial momentum p >= 0 and transverse
        momentum k, called as ``deriv(p, k)``.
    surface_mode : callable, optional
        Discrete mode frequency omega(k), defined for k >= k_min_surface.
    k_min_surface : float
        Lower edge of the surface-mode band.
    p_breakpoints : callable, optional
        Known non-smooth p values of the phase shift at given k,
        forwarded to the quadrature.
    scale : float
        Momentum scale of the channel; the defining integrals split and
        seed their quadratures at max(T, scale).

    All callables must be safe to call concurrently.
    """

    deriv: Callable[[float, float], float]
    surface_mode: Callable[[float], float] | None = None
    k_min_surface: float = 0.0
    p_breakpoints: Callable[[float], tuple[float, ...]] | None = None
    scale: float = 1.0


@dataclass(frozen=True)
class SubtractionSpec:
    """Removable high-temperature terms c3*T^3 + c2*T^2 + c5*T^5 of one part.

    Only the sheet plasmon has a T^5 term; a zero c5 is skipped, so it
    never overflows at large T.
    """

    c3: float = 0.0
    c2: float = 0.0
    c5: float = 0.0

    def free_energy(self, T: float) -> float:
        """The terms at T: raw minus subtracted free energy."""
        out = self.c3 * T ** 3 + self.c2 * T ** 2
        return out + self.c5 * T ** 5 if self.c5 else out

    def entropy(self, T: float) -> float:
        """Their -d/dT: raw minus subtracted entropy."""
        out = -3.0 * self.c3 * T ** 2 - 2.0 * self.c2 * T
        return out - 5.0 * self.c5 * T ** 4 if self.c5 else out


@dataclass(frozen=True)
class Part:
    """One additive part of a model's free energy and entropy.

    ``evaluate(T, params, settings)`` returns ((F, F_error), (S, S_error)):
    the part's subtracted free energy and entropy per unit area, one
    spectral integral under the weights T log(1 - e^(-omega/T)) and its
    -d/dT, each with the largest error estimate behind it, in integral
    units before prefactors.  A direct call runs at the scale it is given
    (absolute tolerances do not scale); ``ThermoPoint.evaluate`` reduces
    to unit scale.  The models build it as a lambda over their module's
    functions, looked up at call time.  ``group`` selects the part in
    ``thermo --parts``; ``columns`` are its CSV columns.  ``growth`` maps
    the parameters to the high-temperature polynomial that F and S have
    removed: raw F = F + ``growth(params).free_energy(T)`` and raw S =
    S + ``growth(params).entropy(T)``; zero by default.
    """

    name: str
    group: str
    columns: tuple[str, str]
    evaluate: Callable[[Any, Any, QuadSettings],
                       tuple[tuple[Any, Any], tuple[Any, Any]]]
    growth: Callable[[Any], SubtractionSpec] = lambda params: SubtractionSpec()

    @staticmethod
    def named(parts: Sequence["Part"], name: str) -> "Part":
        """The record called ``name`` in a model's ``PARTS``."""
        return next(p for p in parts if p.name == name)


@dataclass(frozen=True)
class ThermoPoint:
    """Subtracted F and S of each part of a model at one temperature.

    ``F`` and ``S`` are in the order of ``names``, the model's ``PARTS``;
    the totals add them left to right.  ``F_error`` and ``S_error`` hold
    each part's error estimates at unit scale; ``quad_error`` is the
    largest.  Evaluated at a 1-D array of temperatures (the sheet's parts
    accept one), ``T``, every entry of ``F`` and ``S``, the totals and the
    sheet's errors are arrays over it.
    """

    T: float | np.ndarray
    names: tuple[str, ...]
    F: tuple[Any, ...]
    S: tuple[Any, ...]
    F_error: tuple[Any, ...]
    S_error: tuple[Any, ...]

    @classmethod
    def evaluate(cls, parts: Sequence[Part], T, params: Any,
                 settings: QuadSettings) -> "ThermoPoint":
        """Evaluate each part's (F, S) once, in turn, at unit scale.

        ``params.reduced()`` gives the frequency scale s and the unit-scale
        parameters; each part runs at T / s, and F and S are scaled back by
        s^3 and s^2.  Tolerances and error estimates refer to unit scale.
        ``T`` is a float or a 1-D array, passed to each part whole.
        """
        s, unit = params.reduced()
        if np.ndim(T):
            T = np.asarray(T, dtype=float)
        t = T / s
        F, S = zip(*(part.evaluate(t, unit, settings) for part in parts))
        return cls(T, tuple(p.name for p in parts),
                   tuple(s ** 3 * v for v, _ in F),
                   tuple(s ** 2 * v for v, _ in S),
                   tuple(e for _, e in F), tuple(e for _, e in S))

    def part(self, name: str) -> tuple[float, float]:
        """(F, S) of the named part; KeyError for an unknown name."""
        if name not in self.names:
            raise KeyError(f"no part named {name!r}; have {list(self.names)}")
        i = self.names.index(name)
        return self.F[i], self.S[i]

    @property
    def F_total(self) -> float:
        return reduce(operator.add, self.F)

    @property
    def S_total(self) -> float:
        return reduce(operator.add, self.S)

    @property
    def quad_error(self) -> float:
        """The largest error estimate of any part, F or S, at any T."""
        return max(float(np.max(e)) for e in self.F_error + self.S_error)


def free_energy_defining(ch: ScatteringChannel, T: float,
                         settings: QuadSettings | None = None) -> float:
    """Free energy per unit area from the defining double integral.

    F = (T / 2 pi) Int k dk [ blog(omega_s(k)/T)
          + (1/pi) Int dp blog(omega/T) d delta/dp ],   omega^2 = p^2 + k^2

    with blog(x) = log(1 - exp(-x)) and the first term present only on
    the surface-mode band.  Purely a cross-check: quadratic cost in the
    quadrature, no model-specific reductions.
    """
    return _defining(ch, T, settings, entropy=False)


def entropy_defining(ch: ScatteringChannel, T: float,
                     settings: QuadSettings | None = None) -> float:
    """Entropy per unit area from the defining double integral.

    Same structure as ``free_energy_defining`` with T*blog replaced by
    the entropy weight g.
    """
    return _defining(ch, T, settings, entropy=True)


def _defining(ch: ScatteringChannel, T: float,
              settings: QuadSettings | None, entropy: bool) -> float:
    _check_T(T)
    settings = settings or DEFAULT_SETTINGS
    weight = g if entropy else bose_log
    scale = max(T, ch.scale)

    def continuum(k: float) -> float:
        def f(p: float) -> float:
            omega = math.hypot(p, k)
            return weight(omega / T) * ch.deriv(p, k)

        brk = ch.p_breakpoints(k) if ch.p_breakpoints is not None else ()
        # Phase derivatives can vary on scales far below `scale` (the
        # channel marks them via p_breakpoints); integrate the small-p
        # region on a log axis, where such layers are O(1) wide, and the
        # rest linearly.
        u_hi = math.log(scale)
        u_pts = sorted(math.log(b) for b in brk if 0.0 < b < scale)
        u_lo = min(u_pts[0] if u_pts else u_hi, u_hi - 5.0) - 35.0
        small = integrate_finite(lambda u: math.exp(u) * f(math.exp(u)),
                                 u_lo, u_hi, settings, breakpoints=u_pts)
        large = integrate_semiinf(f, scale, settings, scale=scale,
                                  breakpoints=[b for b in brk if b > scale])
        return (small.value + large.value) / math.pi

    total = integrate_semiinf(lambda k: k * continuum(k), 0.0, settings,
                              scale=scale).value

    if ch.surface_mode is not None:
        mode = ch.surface_mode

        def fs(k: float) -> float:
            return k * weight(mode(k) / T)

        total += integrate_semiinf(fs, ch.k_min_surface, settings,
                                   scale=scale).value

    pref = 1.0 / (2.0 * math.pi) if entropy else T / (2.0 * math.pi)
    return pref * total


def heat_kernel_from_expansion(c_t3: float, c_t2: float,
                               c_tlogt: float) -> tuple[float, float, float]:
    """Map free-energy expansion coefficients to (a_1/2, a_1, a_3/2)."""
    a_half = -4.0 * math.pi ** 1.5 * c_t3 / ZETA3
    a_one = -24.0 * c_t2
    a_three_half = -(4.0 * math.pi) ** 1.5 * c_tlogt
    return a_half, a_one, a_three_half


def expansion_from_heat_kernel(a_half: float, a_one: float,
                               a_three_half: float
                               ) -> tuple[float, float, float]:
    """Inverse of ``heat_kernel_from_expansion``."""
    c_t3 = -ZETA3 * a_half / (4.0 * math.pi ** 1.5)
    c_t2 = -a_one / 24.0
    c_tlogt = -a_three_half / (4.0 * math.pi) ** 1.5
    return c_t3, c_t2, c_tlogt


@dataclass(frozen=True)
class HeatKernelSet:
    """Heat-kernel coefficients per part, with fit residuals."""

    a_half: dict[str, float]
    a_one: dict[str, float]
    a_three_half: dict[str, float]
    fit_residuals: dict[str, float]


def extract_heat_kernel(samples: Mapping[str, Sequence[tuple[float, float]]]
                        ) -> HeatKernelSet:
    """Fit raw high-T free energies and map them to heat-kernel terms.

    Parameters
    ----------
    samples : mapping
        Part name -> (T, F_raw) samples on a high-temperature grid, fitted
        over the basis {T^3, T^2, T log T, T}.

    Returns
    -------
    HeatKernelSet
    """
    a_half: dict[str, float] = {}
    a_one: dict[str, float] = {}
    a_three_half: dict[str, float] = {}
    resid: dict[str, float] = {}
    for name, data in samples.items():
        fit = fit_asymptotic(data, ("T3", "T2", "TlogT", "T"))
        ah, a1, a32 = heat_kernel_from_expansion(
            fit.coefficient("T3"), fit.coefficient("T2"),
            fit.coefficient("TlogT"))
        a_half[name] = ah
        a_one[name] = a1
        a_three_half[name] = a32
        resid[name] = fit.residual_norm
    return HeatKernelSet(a_half, a_one, a_three_half, resid)

