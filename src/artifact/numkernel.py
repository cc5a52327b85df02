"""Numerical kernel: quadrature, roots, thermal weights, asymptotic fits.

Everything downstream funnels its numerics through this module so that
tolerances, truncation of semi-infinite integrals and error accounting
are handled in one place.  Integration wraps adaptive Gauss-Kronrod
quadrature (scipy.integrate.quad); known non-smooth points are passed as
breakpoints so the subdivision never straddles them.

The two thermal weights used throughout are

    bose_log(x) = log(1 - exp(-x))           (free-energy weight)
    g(x)        = x/(e^x - 1) - bose_log(x)   (entropy weight)

both evaluated in cancellation-free form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "QuadratureError",
    "ErrorTracker",
    "QuadSettings",
    "QuadResult",
    "AsymptoticFit",
    "DEFAULT_SETTINGS",
    "integrate_finite",
    "integrate_semiinf",
    "find_root_bracketed",
    "bose_log",
    "g",
    "bose_occupation",
    "bose_kernel",
    "fit_asymptotic",
    "derivative_fd",
]

_LN2 = math.log(2.0)
# Relative integrand size at which the truncation scan of a semi-infinite
# integral stops doubling the cutoff.
_SEMIINF_DECAY_CUT = 1e-12
# Adaptive subdivision budget of every quadrature call.
_MAX_SUBDIVISIONS = 2000


class QuadratureError(RuntimeError):
    """Raised when an integral, root bracket or fit cannot be trusted."""


class ErrorTracker:
    """Mutable record of the worst quadrature error seen.

    Attach an instance to ``QuadSettings.error_tracker`` to collect the
    largest single error estimate produced while evaluating a composite
    quantity (one table row, one verification check, ...).
    """

    __slots__ = ("worst",)

    def __init__(self) -> None:
        self.worst = 0.0

    def update(self, err: float) -> None:
        if err > self.worst:
            self.worst = err

    def reset(self) -> None:
        self.worst = 0.0


@dataclass(frozen=True)
class QuadSettings:
    """Shared tolerances for all quadrature calls.

    Attributes
    ----------
    abs_tol, rel_tol : float
        Absolute and relative integration targets; a result is accepted
        when its error estimate is below ``max(abs_tol, rel_tol*|value|)``.
    error_tracker : ErrorTracker, optional
        When set, every quadrature reports its error estimate here.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9
    error_tracker: ErrorTracker | None = field(
        default=None, compare=False, repr=False
    )

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))

    def report(self, err: float) -> None:
        if self.error_tracker is not None:
            self.error_tracker.update(err)


DEFAULT_SETTINGS = QuadSettings()


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and evaluation count of one integral."""

    value: float
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares fit of thermal data onto named power-law terms."""

    basis: tuple[str, ...]
    coefficients: tuple[float, ...]
    residual_norm: float

    def coefficient(self, name: str) -> float:
        return self.coefficients[self.basis.index(name)]


def _checked(f: Callable[[float], float]) -> Callable[[float], float]:
    def wrapped(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise QuadratureError(
                f"integrand returned non-finite value {y!r} at x={x!r}"
            )
        return y

    return wrapped


def _inner_points(a: float, b: float,
                  breakpoints: Sequence[float]) -> list[float] | None:
    pts = sorted(p for p in set(breakpoints) if a < p < b)
    return pts or None


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     settings: QuadSettings | None = None,
                     breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate ``f`` over the finite interval [a, b].

    Parameters
    ----------
    f : callable
        Real integrand; a non-finite return value aborts the call.
    a, b : float
        Integration limits, ``a <= b``.
    settings : QuadSettings, optional
        Tolerances; module defaults when omitted.
    breakpoints : sequence of float, optional
        Abscissae of known kinks, jumps or integrable singularities.
        Points outside (a, b) are ignored.

    Returns
    -------
    QuadResult

    Raises
    ------
    QuadratureError
        If the adaptive scheme cannot reach the requested tolerance
        within ``_MAX_SUBDIVISIONS`` subdivisions or the integrand
        misbehaves.

    When the call with breakpoints fails, each piece between them is
    integrated on its own at the same tolerances, and the sum is kept
    if its summed error estimate meets the tolerance.
    """
    settings = settings or DEFAULT_SETTINGS
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"finite integration limits required: {a}, {b}")
    if a > b:
        raise QuadratureError(f"inverted integration interval [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    fc = _checked(f)
    pts = _inner_points(a, b, breakpoints)

    def run(lo: float, hi: float, points: list[float] | None = None):
        return quad(fc, lo, hi, epsabs=settings.abs_tol,
                    epsrel=settings.rel_tol,
                    limit=_MAX_SUBDIVISIONS, points=points,
                    full_output=1)

    out = run(a, b, pts)
    value, err, evals = out[0], out[1], int(out[2]["neval"])
    failed = len(out) > 3 and err > settings.tolerance(value)
    if failed and pts:
        # QUADPACK's breakpoint routine extrapolates over all pieces at
        # once and can stall on roundoff that no single piece has.
        pieces = [run(lo, hi) for lo, hi in zip([a, *pts], [*pts, b])]
        value = math.fsum(p[0] for p in pieces)
        err = math.fsum(p[1] for p in pieces)
        evals += sum(int(p[2]["neval"]) for p in pieces)
        failed = err > settings.tolerance(value)
    if failed:
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {out[3]} "
            f"(value={value:.6e}, error={err:.3e})"
        )
    settings.report(err)
    return QuadResult(value, err, evals)


def integrate_semiinf(f: Callable[[float], float], a: float,
                      settings: QuadSettings | None = None,
                      scale: float | None = None,
                      breakpoints: Sequence[float] = ()) -> QuadResult:
    """Integrate a decaying ``f`` over [a, infinity).

    The cutoff is found by scanning octaves of ``scale`` until the
    integrand has fallen below ``_SEMIINF_DECAY_CUT`` times its running
    maximum and keeps at least halving per octave; a geometric bound on
    the discarded tail is added to the error estimate.

    Parameters
    ----------
    f : callable
        Integrand, must decay at least geometrically per octave beyond
        some finite point (exponential decay in practice).
    a : float
        Lower limit.
    settings : QuadSettings, optional
    scale : float, optional
        Characteristic decay scale used to seed the truncation scan
        (default ``max(1, |a|)``).
    breakpoints : sequence of float, optional
        Forwarded to the finite integration after truncation.

    Returns
    -------
    QuadResult
        ``error_estimate`` includes the tail bound.

    Raises
    ------
    QuadratureError
        If no admissible truncation point is found within a huge range
        of ``scale`` (tail-bound failure) or the finite part fails.
    """
    settings = settings or DEFAULT_SETTINGS
    s = scale if scale is not None else max(1.0, abs(a))
    if s <= 0.0 or not math.isfinite(s):
        raise QuadratureError(f"positive finite scale required, got {s}")

    fmax = 0.0
    x = a + s
    prev = abs(f(x))
    fmax = max(fmax, prev)
    doublings = 0
    tail_bound = 0.0
    while True:
        x2 = a + (x - a) * 2.0
        cur = abs(f(x2))
        fmax = max(fmax, cur)
        far_enough = (x - a) >= 8.0 * s
        if far_enough and fmax == 0.0:
            break
        small = cur <= _SEMIINF_DECAY_CUT * fmax
        ratio = (cur + 1e-300) / (prev + 1e-300)
        if far_enough and small and ratio <= 0.25:
            # |f| <= cur * (u/x2)^(log2 ratio) beyond x2 gives a
            # convergent envelope; ratio <= 1/4 makes the bound <= cur*x2.
            tail_bound = cur * x2 / max(-math.log2(ratio) - 1.0, 1.0)
            break
        x, prev = x2, cur
        doublings += 1
        if doublings > 60:
            raise QuadratureError(
                "tail-bound failure: integrand does not decay fast enough "
                f"beyond x={x:.3e} (last |f|={cur:.3e}, max |f|={fmax:.3e})"
            )

    res = integrate_finite(f, a, x2, settings, breakpoints)
    err = res.error_estimate + tail_bound
    settings.report(tail_bound)
    return QuadResult(res.value, err, res.evaluations)


def _check_T(T: float) -> None:
    """Raise ValueError unless the temperature is positive."""
    if T <= 0.0:
        raise ValueError(f"temperature must be positive, got {T}")


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        x_tol: float = 1e-12) -> float:
    """Locate a root of ``f`` inside a sign-changing bracket [lo, hi].

    Raises
    ------
    QuadratureError
        If the bracket does not straddle a sign change.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise QuadratureError(
            f"no sign change on bracket [{lo}, {hi}]: "
            f"f(lo)={flo:.6e}, f(hi)={fhi:.6e}"
        )
    return float(brentq(f, lo, hi, xtol=x_tol, rtol=8.9e-16))


def bose_log(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, without cancellation.

    Negative and strictly increasing; behaves as log(x) for small x and
    as -exp(-x) for large x.
    """
    if x <= 0.0:
        raise ValueError(f"bose_log requires x > 0, got {x}")
    if x < _LN2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def g(x: float) -> float:
    """Entropy weight x/(e^x - 1) - log(1 - exp(-x)) for x > 0.

    Positive and strictly decreasing; behaves as 1 - log(x) for small x
    and as (x + 1) exp(-x) for large x.  Arises as
    -d/dT [T * bose_log(omega/T)] at x = omega/T.
    """
    if x <= 0.0:
        raise ValueError(f"g requires x > 0, got {x}")
    if x > 30.0:
        return (x + 1.0) * math.exp(-x)
    if x < 1e-12:
        return 1.0 - math.log(x)
    return x / math.expm1(x) - bose_log(x)


def bose_occupation(x: float) -> float:
    """1/(e^x - 1) for x > 0, stable for large and small x."""
    if x <= 0.0:
        raise ValueError(f"bose_occupation requires x > 0, got {x}")
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)


def bose_kernel(x: float) -> float:
    """e^x / (e^x - 1)^2 = -d/dx 1/(e^x - 1), for x > 0."""
    if x <= 0.0:
        raise ValueError(f"bose_kernel requires x > 0, got {x}")
    if x > 700.0:
        return 0.0
    e = math.exp(-x)
    return e / math.expm1(-x) ** 2


_BASIS_TERMS: dict[str, Callable[[float], float]] = {
    "T3": lambda t: t ** 3,
    "T2": lambda t: t ** 2,
    "TlogT": lambda t: t * math.log(t),
    "T": lambda t: t,
    "1": lambda t: 1.0,
}


def fit_asymptotic(samples: Sequence[tuple[float, float]],
                   basis: Sequence[str]) -> AsymptoticFit:
    """Fit (T, value) samples onto named asymptotic terms.

    Parameters
    ----------
    samples : sequence of (float, float)
        Temperatures (strictly increasing, positive) and values.
    basis : sequence of str
        Term names among {"T3", "T2", "TlogT", "T", "1"}.

    Returns
    -------
    AsymptoticFit
        Coefficients in the order of ``basis``; ``residual_norm`` is the
        fit residual relative to the data norm.

    Raises
    ------
    QuadratureError
        On a rank-deficient design matrix.
    ValueError
        On unknown basis names or too few samples.
    """
    names = tuple(basis)
    unknown = [n for n in names if n not in _BASIS_TERMS]
    if unknown:
        raise ValueError(f"unknown basis terms {unknown}; "
                         f"choose from {sorted(_BASIS_TERMS)}")
    ts = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    if len(ts) < len(names) + 2:
        raise ValueError(
            f"need at least {len(names) + 2} samples for {len(names)} terms"
        )
    if np.any(ts <= 0.0) or np.any(np.diff(ts) <= 0.0):
        raise ValueError("temperatures must be positive, strictly increasing")

    design = np.column_stack([[_BASIS_TERMS[n](t) for t in ts] for n in names])
    col_scale = np.max(np.abs(design), axis=0)
    col_scale[col_scale == 0.0] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(design / col_scale, ys, rcond=None)
    if rank < len(names):
        raise QuadratureError(
            f"asymptotic fit is rank deficient (rank {rank} < {len(names)})"
        )
    coef = coef / col_scale
    resid = ys - design @ coef
    norm = float(np.linalg.norm(resid) / max(np.linalg.norm(ys), 1e-300))
    return AsymptoticFit(names, tuple(float(c) for c in coef), norm)


def derivative_fd(f: Callable[[float], float], x: float, h: float) -> float:
    """Central finite difference (f(x+h) - f(x-h)) / 2h."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    hi, lo = f(x + h), f(x - h)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise QuadratureError(
            f"non-finite samples in finite difference at x={x!r}, h={h!r}"
        )
    return (hi - lo) / (2.0 * h)
