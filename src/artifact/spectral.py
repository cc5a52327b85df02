"""Channel abstraction and thermodynamic bookkeeping.

A scattering geometry enters through one object per polarization
channel: the analytic p-derivative of its phase shift at radial momentum
p and fixed transverse momentum k.

``free_energy_defining`` and ``entropy_defining`` evaluate the defining
two-dimensional integrals of the (p, k) continuum directly from that
data, with no model-specific reductions; the model modules provide
reduced one-dimensional forms and use these as cross-checks.  A surface
mode is not part of them: the sheet's plasmon band has its own check
(``verification._sheet_plasmon_band``).  Each is one two-dimensional
array pass: the outer k integral on the adaptive panel rule, over chunks
of outer nodes, and at each node the inner p integral on a fixed panel
rule over that row's own grid (log panels, graded panels around the
channel's breakpoints, linear panels up to a cut-off), its error bound
carried along as a column.  The returned value is within max(abs_tol,
rel_tol |F|) of the integral, truncation included, or QuadratureError
is raised.

Each model lists its additive parts once, in an ordered ``PARTS`` table
of ``Part`` records; ``ThermoPoint`` holds the subtracted free energy and
entropy of every part at a temperature or a 1-D grid of them, their
totals and their error estimates, evaluated at unit scale:
F(T) = s^3 F_1(T/s) and S(T) = s^2 S_1(T/s).

The high-temperature expansion of a free energy per unit area,

    F(T) = c_T3 T^3 + c_T2 T^2 + c_TlogT T log T + c_T T + ...

maps term by term onto short-time heat-kernel coefficients of the
underlying spectral problem:

    a_1/2  = -4 pi^(3/2) c_T3 / zeta(3)
    a_1    = -24 c_T2
    a_3/2  = -(4 pi)^(3/2) c_TlogT

``heat_kernel_from_expansion`` performs that mapping on the coefficients
of ``numkernel.fit_asymptotic``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import Any, Callable, Sequence

import numpy as np

from .numkernel import (
    DEFAULT_SETTINGS,
    QuadratureError,
    QuadSettings,
    _check_T,
    _truncation_bound,
    integrate_fixed,
    integrate_panels,
    per_temperature,
    thermal_weights,
)

__all__ = [
    "Channel",
    "ScatteringChannel",
    "SubtractionSpec",
    "Part",
    "ThermoPoint",
    "free_energy_defining",
    "entropy_defining",
    "heat_kernel_from_expansion",
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
    """Scattering data of one polarization channel: its continuum only.

    Attributes
    ----------
    deriv : callable
        Analytic d delta/dp at radial momentum p >= 0 and transverse
        momentum k, called as ``deriv(p, k)`` on numpy arrays that
        broadcast against each other; the result broadcasts with them.
        It must be finite wherever it is called, p = 0 and a breakpoint
        included (one-sided values will do).  Beyond twice the largest
        of max(T, scale) and the breakpoints at k, and beyond
        ``deriv_peak`` where given, |deriv| must not increase with p: the
        defining integrals bound their p tail with its value there.
    p_breakpoints : callable, optional
        Known non-smooth p values of the phase shift at an array of k:
        a sequence of arrays (or floats) that broadcast against k, with
        NaN or a value <= 0 where a breakpoint is absent.  An inverse
        square root of the distance to a breakpoint is integrable.
    k_breakpoints : tuple of float
        Transverse momenta where a p breakpoint appears or vanishes, or
        the p integral is otherwise not smooth in k.
    scale : float
        Momentum scale of the channel; the defining integrals grade their
        grids from max(T, scale).
    deriv_peak : callable, optional
        At an array of k, the p past which |deriv| falls (NaN where it
        falls for every p), for a channel whose |deriv| still rises past
        the inner cut-off of some rows.

    All callables must be safe to call concurrently.
    """

    deriv: Callable[[np.ndarray, np.ndarray], np.ndarray]
    p_breakpoints: Callable[[np.ndarray], Sequence[Any]] | None = None
    k_breakpoints: tuple[float, ...] = ()
    scale: float = 1.0
    deriv_peak: Callable[[np.ndarray], np.ndarray] | None = None


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

    ``run(Ts, params, settings)``, its evaluator, takes a 1-D array of
    temperatures only and returns ((F, F_error), (S, S_error)), arrays
    over Ts: the part's subtracted free energy and entropy per unit area
    (one spectral integral under the weights T log(1 - e^(-omega/T)) and
    its -d/dT) and their error estimates, in the units of the value.
    ``evaluate(T, params, settings)`` is the way in: T must be positive and
    finite, a scalar (floats returned) or a non-empty 1-D array, else
    ValueError (``numkernel.per_temperature``).  Both run at the scale and
    over every temperature they are given in one call; ``ThermoPoint``
    reduces to unit scale.  The models build ``run`` as a lambda over
    their module's functions, looked up at call time.  ``group`` selects
    the part in ``thermo --parts``; ``columns`` are its CSV columns.
    ``growth`` maps the parameters to the high-temperature polynomial that
    F and S have removed: raw F = F + ``growth(params).free_energy(T)``
    and raw S = S + ``growth(params).entropy(T)``; zero by default.
    """

    name: str
    group: str
    columns: tuple[str, str]
    run: Callable[[np.ndarray, Any, QuadSettings], tuple]
    growth: Callable[[Any], SubtractionSpec] = lambda params: SubtractionSpec()

    def evaluate(self, T, params: Any, settings: QuadSettings | None = None):
        """((F, F_error), (S, S_error)) at T, floats for a scalar T."""
        settings = settings or DEFAULT_SETTINGS
        return per_temperature(T, self.run, params, settings)

    @staticmethod
    def named(parts: Sequence["Part"], name: str) -> "Part":
        """The record called ``name`` in ``parts``; KeyError if none is."""
        by_name = {p.name: p for p in parts}
        if name not in by_name:
            raise KeyError(f"no part named {name!r}; have {list(by_name)}")
        return by_name[name]


@dataclass(frozen=True)
class ThermoPoint:
    """Subtracted F and S of each part of a model at a temperature or a
    grid of them.

    ``F`` and ``S`` are in the order of ``names``, the model's ``PARTS``;
    the totals add them left to right.  ``F_error`` and ``S_error`` hold
    each part's error estimates at unit scale; ``quad_error`` is the
    largest.  Evaluated at a 1-D array of temperatures (every part accepts
    one), ``T``, every entry of ``F``, ``S``, ``F_error`` and ``S_error``,
    the totals and ``quad_error`` are arrays over it: each temperature
    keeps its own errors.
    """

    T: float | np.ndarray
    names: tuple[str, ...]
    F: tuple[Any, ...]
    S: tuple[Any, ...]
    F_error: tuple[Any, ...]
    S_error: tuple[Any, ...]

    @classmethod
    def evaluate(cls, parts: Sequence[Part], T, params: Any,
                 settings: QuadSettings | None) -> "ThermoPoint":
        """Evaluate each part's (F, S) once, in turn, at unit scale.

        ``params.reduced()`` gives the frequency scale s and the unit-scale
        parameters; each part runs at T / s, and F and S are scaled back by
        s^3 and s^2.  Tolerances and error estimates refer to unit scale.
        ``T`` is a float or a 1-D array, checked here in the caller's
        units (``numkernel._check_T``) and passed whole to each part's
        ``evaluate``, which fills in default settings.
        """
        _check_T(T)
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
    def quad_error(self):
        """The largest error estimate of any part, F or S: an array over
        an array T, one entry per temperature."""
        out = reduce(np.maximum, self.F_error + self.S_error)
        return out if np.ndim(self.T) else float(out)


def free_energy_defining(ch: ScatteringChannel, T: float,
                         settings: QuadSettings | None = None) -> float:
    """Free energy per unit area from the defining double integral.

    F = (T / 2 pi^2) Int_0^inf k dk Int_0^inf dp blog(omega/T) d delta/dp,
    omega^2 = p^2 + k^2,

    with blog(x) = log(1 - exp(-x)): the (p, k) continuum only, no
    surface mode.  A cross-check with no model-specific reductions, run
    as one two-dimensional array pass (``_defining``): the returned F is
    within max(abs_tol, rel_tol |F|) of the integral, truncation
    included, or QuadratureError is raised.
    """
    return _defining(ch, T, settings, entropy=False)


def entropy_defining(ch: ScatteringChannel, T: float,
                     settings: QuadSettings | None = None) -> float:
    """Entropy per unit area from the defining double integral.

    Same structure and error contract as ``free_energy_defining``, with
    T*blog replaced by the entropy weight g.
    """
    return _defining(ch, T, settings, entropy=True)


# Inner p rule of the defining integrals (``_rows``): one G7-K15 panel on
# [0, p_x], with p_x this many e-folds below the smallest of max(T,
# scale), k and the row's breakpoints ...
_LOG_DEPTH = 4.0
# ... panels of this width in log p up to max(T, scale) ...
_LOG_PANEL = 1.0
# ... and linear panels from there, with edges this many T above it, up
# to the cut-off P = 2 max(T, scale, breakpoints) + _CUT T, where the
# weight has fallen below e^-40.  The outer k integral ends at the same
# kind of cut-off.
_ABOVE = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0)
_CUT = 40.0
# Outer nodes evaluated at once, so the (nodes, inner nodes) arrays stay
# small; and how often the inner panels are halved before giving up.
_ROWS = 16
_DOUBLINGS = 3
# Panel kinds of the inner rule: in p, in log p, and in s with p = b -+ s^2
# next to a breakpoint b, where an inverse square root of b - p becomes
# smooth.
_LIN, _LOG, _SQRT = 0, 1, 2
# Edges around each breakpoint b, in units of b, and the panel each
# starts: three _SQRT panels on each side of b, from b/2 to 3b/2 (equal in
# s, tag -1 below b and +1 above), then log panels widening away from
# that zone (NaN: the panel continues the one before it).
_GRADING = ((0.25, np.nan), (0.5, -1.0), (7.0 / 9.0, -1.0),
            (17.0 / 18.0, -1.0), (1.0, 1.0), (19.0 / 18.0, 1.0),
            (11.0 / 9.0, 1.0), (1.5, 0.0), (2.0, np.nan), (3.0, np.nan))


def _inner_panels(ch: ScatteringChannel, T: float, top: float,
                  k: np.ndarray, level: int):
    """Per-row panels of the inner rule at the outer nodes ``k``.

    Returns (lo, hi, kind, base, side, P): (n, m) arrays of each panel's
    ends in its own variable and its kind, and for ``_SQRT`` panels the
    breakpoint and the side (-1 below, +1 above) it lies on; and the
    cut-off P of each row.  A row's edges are 0, the log grid from p_x up
    to ``top``, the edges above it, the ``_GRADING`` edges of each
    breakpoint and P; sorted, each row is padded to the longest with
    zero-width panels at P.  Each panel is cut into 2^level equal parts.
    """
    n = len(k)
    zero = np.zeros((n, 1))
    if ch.p_breakpoints is None:
        B = np.empty((n, 0))
    else:
        B = np.stack([np.broadcast_to(b, k.shape).astype(float)
                      for b in ch.p_breakpoints(k)], axis=1)
        with np.errstate(invalid="ignore"):
            B = np.where(B > 0.0, B, np.nan)
    low = np.minimum(np.fmin.reduce(B, axis=1, initial=top), k)
    P = 2.0 * np.fmax.reduce(B, axis=1, initial=top) + _CUT * T
    p_x = low * math.exp(-_LOG_DEPTH)
    count = int(np.ceil(np.max(np.log(top / p_x)) / _LOG_PANEL))
    grid = p_x[:, None] * np.exp(_LOG_PANEL * np.arange(count))
    grid[grid > top * math.exp(-0.5 * _LOG_PANEL)] = np.nan
    above = top + T * np.array(_ABOVE) + zero
    above[above >= P[:, None]] = np.nan
    # Ties go to the first edge: a breakpoint's own tag wins.
    e = np.concatenate([*(c * B for c, _ in _GRADING), zero, grid,
                        top + zero, above, P[:, None]], axis=1)
    tag = np.concatenate([*(z * B for _, z in _GRADING), zero,
                          np.full((n, grid.shape[1] + 1 + above.shape[1]),
                                  np.nan), zero], axis=1)
    order = np.argsort(e, axis=1, kind="stable")
    e = np.take_along_axis(e, order, axis=1)
    tag = np.take_along_axis(tag, order, axis=1)
    m = np.count_nonzero(~np.all(np.isnan(e), axis=0))
    e = np.where(np.isnan(e[:, :m]), P[:, None], e[:, :m])
    # Each untagged edge continues the panel before it.
    idx = np.where(np.isnan(tag[:, :m - 1]), 0, np.arange(m - 1))
    tag = np.take_along_axis(tag, np.maximum.accumulate(idx, axis=1), axis=1)
    lo, hi = e[:, :-1], e[:, 1:]
    base, side = np.abs(tag), np.sign(tag)
    kind = np.where(side != 0.0, _SQRT,
                    np.where((lo > 0.0) & (hi <= top), _LOG, _LIN))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo, t_hi = (np.where(kind == _LOG, np.log(x),
                               np.where(kind == _SQRT,
                                        np.sqrt(side * (x - base)), x))
                      for x in (lo, hi))
    t_lo, t_hi = np.minimum(t_lo, t_hi), np.maximum(t_lo, t_hi)
    parts = 2 ** level
    if parts > 1:
        frac = np.linspace(0.0, 1.0, parts + 1)
        width = (t_hi - t_lo)[..., None]
        t_lo, t_hi = (t_lo[..., None] + width * frac[:-1],
                      t_lo[..., None] + width * frac[1:])
        t_lo, t_hi = t_lo.reshape(n, -1), t_hi.reshape(n, -1)
        kind, base, side = (np.repeat(a, parts, axis=1)
                            for a in (kind, base, side))
    return t_lo, t_hi, kind, base, side, P


def _tail_point(ch: ScatteringChannel, P: np.ndarray,
                k: np.ndarray) -> np.ndarray:
    """Per row, the p at which |deriv| bounds it on [P, inf): the cut-off
    P, or the channel's ``deriv_peak`` where that lies past P."""
    return P if ch.deriv_peak is None else np.fmax(P, ch.deriv_peak(k))


def _rows(ch: ScatteringChannel, T: float, entropy: bool, top: float,
          k: np.ndarray, level: int, absolute: bool = False) -> np.ndarray:
    """(n, 2) columns at the outer nodes k: the continuum's outer
    integrand (k/pi) Int_0^inf w(omega/T) d delta/dp dp and (k/pi) times
    the inner rule's error bound.  With ``absolute``, a third column holds
    the integrand's modulus, (k/pi) Int |w d delta/dp| dp plus the tail
    bound.

    The inner bound is the rule's own (|Kronrod - Gauss| plus roundoff)
    plus the tail past the cut-off P: there |w(omega/T)| <= |w(p/T)|, whose
    integral past P is at most T e^-x/(1 - e^-x) (times x + 2 for g), x =
    P/T (``_truncation_bound`` at n = 0), and |d delta/dp| is at most its
    value at ``_tail_point``, by the contract of ``ScatteringChannel.deriv``.
    """
    col = 1 if entropy else 0
    kc = k[:, None]
    t_lo, t_hi, kind, base, side, P = _inner_panels(ch, T, top, k, level)

    def f(t: np.ndarray) -> np.ndarray:
        kd, b, s = (np.repeat(a, 15, axis=1) for a in (kind, base, side))
        with np.errstate(over="ignore"):
            ex = np.exp(t)
        p = np.where(kd == _LOG, ex, np.where(kd == _SQRT, b + s * t * t, t))
        jac = np.where(kd == _LOG, ex, np.where(kd == _SQRT, 2.0 * t, 1.0))
        y = (thermal_weights(np.hypot(p, kc) / T)[col]
             * ch.deriv(p, kc) * jac)
        return np.stack([y, np.abs(y)], axis=-1) if absolute else y[..., None]

    res = integrate_fixed(f, t_lo, t_hi)
    deriv = np.abs(ch.deriv(_tail_point(ch, P, k), k))
    tail = _truncation_bound(T, P, deriv, 0)[col]
    cols = [res.value[:, 0], res.error_estimate[:, 0] + tail]
    if absolute:
        cols.append(res.value[:, 1] + tail)
    return (k / math.pi)[:, None] * np.stack(cols, axis=1)


def _defining(ch: ScatteringChannel, T: float,
              settings: QuadSettings | None, entropy: bool) -> float:
    """pref Int_0^inf dk G(k), the outer integrand G of ``_rows``, in one
    2-D array pass.  The outer integral runs on ``integrate_panels`` over
    [0, K], on chunks of ``_ROWS`` outer nodes at a time, with the inner
    bound as a ride-along column; K = 2 max(T, scale, k_breakpoints) +
    _CUT T.  Beyond K the outer integrand is bounded by its modulus bound
    at K times (k/K)^2 e^-(k-K)/(3T), the decay of the weight along any
    ray with p <= k (an envelope, not a proof).  The outer rule gets half
    the tolerance; when the sum of its error, the integrated inner bound
    and the tail misses the caller's tolerance on the returned value, the
    inner panels are halved, at most ``_DOUBLINGS`` times, then
    QuadratureError."""
    _check_T(T)
    settings = settings or DEFAULT_SETTINGS
    top = max(T, ch.scale)
    pref = 1.0 / (2.0 * math.pi) if entropy else T / (2.0 * math.pi)
    # Tolerances in integral units, so that they hold for pref times it.
    unit = replace(settings, abs_tol=settings.abs_tol / pref)
    kinks = [x for x in ch.k_breakpoints if x > 0.0]
    K = 2.0 * max([top, *kinks]) + _CUT * T
    edges = {0.0, K, *(top * 2.0 ** j for j in range(-3, 8)
                       if top * 2.0 ** j < K)}
    for x in kinks:
        edges |= {x * (1.0 + s * 0.5 ** j) for j in range(1, 9)
                  for s in (-1.0, 1.0)} | {x}
    tol = replace(unit, abs_tol=np.array([0.5 * unit.abs_tol, np.inf]),
                  rel_tol=0.5 * unit.rel_tol)
    for level in range(_DOUBLINGS + 1):
        def outer(k: np.ndarray) -> np.ndarray:
            return np.concatenate([
                _rows(ch, T, entropy, top, k[i:i + _ROWS], level)
                for i in range(0, len(k), _ROWS)])

        res = integrate_panels(outer, sorted(edges), tol)
        bound = _rows(ch, T, entropy, top, np.array([K]), level,
                      absolute=True)[0, 2]
        tail = bound * 3.0 * T * (1.0 + 6.0 * T / K + 18.0 * (T / K) ** 2)
        value = res.value[0]
        error = (res.error_estimate[0] + res.value[1] + res.error_estimate[1]
                 + tail)
        if error <= unit.tolerance(value):
            return float(pref * value)
    raise QuadratureError(
        f"defining integral at T={T}: error {pref * error:.3e} exceeds the "
        f"tolerance {settings.tolerance(pref * value):.3e} after "
        f"{_DOUBLINGS} halvings of the inner panels "
        f"(value={pref * value:.6e})")


def heat_kernel_from_expansion(c_t3: float, c_t2: float,
                               c_tlogt: float) -> tuple[float, float, float]:
    """Map free-energy expansion coefficients to (a_1/2, a_1, a_3/2)."""
    a_half = -4.0 * math.pi ** 1.5 * c_t3 / ZETA3
    a_one = -24.0 * c_t2
    a_three_half = -(4.0 * math.pi) ** 1.5 * c_tlogt
    return a_half, a_one, a_three_half
