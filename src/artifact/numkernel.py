"""Numerical kernel: quadrature, roots, thermal weights, asymptotic fits.

Everything downstream funnels its numerics through this module so that
tolerances, truncation of semi-infinite integrals and error accounting
are handled in one place.  Scalar integration wraps adaptive
Gauss-Kronrod quadrature (scipy.integrate.quad, QUADPACK); known
non-smooth points are passed as breakpoints so the subdivision never
straddles them, in one QUADPACK call per integral.  ``integrate_panels``
is a globally adaptive G7-K15 panel rule for integrands that map a whole
array of nodes to several components at once (one per temperature of a
grid, say), so each of its passes is a single array evaluation;
``integrate_fixed`` runs the same rule on fixed panels for many integrals
at once.  All return a ``QuadResult``, with one value and error per
component from the panel rules.  ``thermal_integral``, on which the sheet
and the slab's surface and optical-path parts run, integrates a density
against F's and S's thermal weights at once and adds its tail bound.

The two thermal weights used throughout are

    bose_log(x) = log(1 - exp(-x))           (free-energy weight)
    g(x)        = x/(e^x - 1) - bose_log(x)   (entropy weight)

both evaluated in cancellation-free form, ``bose_log`` as a Python float
and both at once on numpy arrays (``thermal_weights``).  ``g`` is that one
formula for every x, guarded only against the overflow of ``expm1`` at
large x.  scipy is imported by the two calls that run it, as the sheet
needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureError",
    "QuadSettings",
    "QuadResult",
    "DEFAULT_SETTINGS",
    "integrate_finite",
    "integrate_semiinf",
    "integrate_panels",
    "integrate_fixed",
    "find_root_bracketed",
    "bose_log",
    "thermal_weights",
    "weight_columns",
    "thermal_integral",
    "per_temperature",
    "bose_occupation",
    "bose_kernel",
    "fit_asymptotic",
]

_LN2 = math.log(2.0)
# Relative integrand size at which the truncation scan of a semi-infinite
# integral stops doubling the cutoff.
_SEMIINF_DECAY_CUT = 1e-12
# Adaptive subdivision budget of every quadrature call, and the panel
# cap of ``integrate_panels``.
_MAX_SUBDIVISIONS = 2000

# Gauss-Kronrod G7-K15 on [-1, 1] (QUADPACK's qk15; Piessens et al.,
# QUADPACK, 1983): the 15 Kronrod abscissae, their weights, and the
# 7-point Gauss weights on the abscissae they share (zero elsewhere).
_XK = (0.991455371120812639206854697526329,
       0.949107912342758524526189684047851,
       0.864864423359769072789712788640926,
       0.741531185599394439863864773280788,
       0.586087235467691130294144845693013,
       0.405845151377397166906606412076961,
       0.207784955007898467600689403773245)
_WK = (0.022935322010529224963732008058970,
       0.063092092629978553290700663189204,
       0.104790010322250183839876322541518,
       0.140653259715525918745189590510238,
       0.169004726639267902826583426598550,
       0.190350578064785409913256402421014,
       0.204432940075298892414161999234649)
_WK0 = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG0 = 0.417959183673469387755102040816327
_GK_NODES = np.array([*(-x for x in _XK), 0.0, *reversed(_XK)])
# Rows: Kronrod weights, Gauss weights.
_GK_WEIGHTS = np.array([
    [*_WK, _WK0, *reversed(_WK)],
    [0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG0,
     0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0],
])
# Roundoff floor of the panel rule, per unit of Int |f|: QUADPACK's.
_ROUNDOFF = 50.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Raised when an integral, root bracket or fit cannot be trusted."""


@dataclass(frozen=True)
class QuadSettings:
    """Shared tolerances for all quadrature calls.

    Attributes
    ----------
    abs_tol, rel_tol : float
        Absolute and relative integration targets; a result is accepted
        when its error estimate is below ``max(abs_tol, rel_tol*|value|)``.
        ``abs_tol`` may be an array for ``integrate_panels``, whose +inf
        entries mark ride-along components.

    Raises
    ------
    ValueError
        For a NaN or negative ``abs_tol`` entry, a non-finite or negative
        ``rel_tol``, or an all-zero ``abs_tol`` with ``rel_tol`` below
        QUADPACK's 50 eps: targets no integrator can meet.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        # Plain comparisons on a float, as ``h_L`` and ``_fit_piece`` build
        # one of these per call; an array's min is NaN if an entry is.
        lo = hi = self.abs_tol
        if isinstance(lo, np.ndarray):
            lo, hi = lo.min(), lo.max()
        if not lo >= 0.0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol!r}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(
                f"rel_tol must be finite and >= 0, got {self.rel_tol!r}")
        if hi == 0.0 and self.rel_tol < _ROUNDOFF:
            raise ValueError(
                f"with abs_tol 0, rel_tol must be >= 50 eps, got "
                f"{self.rel_tol!r}")

    def tolerance(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


DEFAULT_SETTINGS = QuadSettings()


@dataclass(frozen=True)
class QuadResult:
    """Value, error estimate and evaluation count of one integral.

    From ``integrate_panels``, ``value`` and ``error_estimate`` are arrays
    with one entry per component of the integrand, and ``evaluations``
    counts nodes (each gives every component).
    """

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    evaluations: int


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
    """
    settings = settings or DEFAULT_SETTINGS
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"finite integration limits required: {a}, {b}")
    if a > b:
        raise QuadratureError(f"inverted integration interval [{a}, {b}]")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    from scipy.integrate import quad

    out = quad(_checked(f), a, b, epsabs=settings.abs_tol,
               epsrel=settings.rel_tol, limit=_MAX_SUBDIVISIONS,
               points=_inner_points(a, b, breakpoints), full_output=1)
    value, err = out[0], out[1]
    if len(out) > 3 and err > settings.tolerance(value):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] did not converge: {out[3]} "
            f"(value={value:.6e}, error={err:.3e})"
        )
    return QuadResult(value, err, int(out[2]["neval"]))


def integrate_semiinf(f: Callable[[float], float], a: float,
                      settings: QuadSettings | None = None, *,
                      scale: float,
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
    scale : float
        Characteristic decay scale used to seed the truncation scan.
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
    if scale <= 0.0 or not math.isfinite(scale):
        raise QuadratureError(f"positive finite scale required, got {scale}")

    x2, tail_bound = _semiinf_cut(f, a, scale)
    res = integrate_finite(f, a, x2, settings, breakpoints)
    return QuadResult(res.value, res.error_estimate + tail_bound,
                      res.evaluations)


def _semiinf_cut(f: Callable[[float], float], a: float,
                 scale: float) -> tuple[float, float]:
    """(cutoff, tail bound) of the truncation scan of ``integrate_semiinf``
    for a decaying ``f`` on [a, infinity)."""
    fmax = 0.0
    x = a + scale
    prev = abs(f(x))
    fmax = max(fmax, prev)
    doublings = 0
    tail_bound = 0.0
    while True:
        x2 = a + (x - a) * 2.0
        cur = abs(f(x2))
        fmax = max(fmax, cur)
        far_enough = (x - a) >= 8.0 * scale
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
    return x2, tail_bound


def _gk15(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
          hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod sums, |Kronrod - Gauss| and Kronrod sums of |f| per panel.

    One call of ``f`` on the 15 nodes of every panel [lo_i, hi_i]; each
    result has shape (panels, components).
    """
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    y = np.asarray(f(nodes.ravel()), dtype=float)
    if y.ndim != 2 or y.shape[0] != nodes.size:
        raise ValueError(f"integrand must map {nodes.size} nodes to a "
                         f"({nodes.size}, m) array, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        bad = nodes.ravel()[~np.all(np.isfinite(y), axis=1)][0]
        raise QuadratureError(f"integrand returned a non-finite value at "
                              f"x={bad!r}")
    y = y.reshape(len(lo), 15, -1)
    kg = _GK_WEIGHTS @ y
    absk = _GK_WEIGHTS[0] @ np.abs(y)
    h = half[:, None]
    return h * kg[:, 0], h * np.abs(kg[:, 0] - kg[:, 1]), h * absk


def integrate_panels(f: Callable[[np.ndarray], np.ndarray],
                     edges: Sequence[float],
                     settings: QuadSettings | None = None,
                     offset: float | np.ndarray = 0.0) -> QuadResult:
    """Integrate each component of an array integrand over the edges' span.

    A globally adaptive Gauss-Kronrod (G7-K15) panel rule.  The panels
    start as the intervals between the sorted ``edges`` (so known kinks,
    jumps and a grading toward a singular end go there).  Each pass
    bisects, with one call of ``f`` on the nodes of all new panels, the
    panels that carry the largest share of the error of any component
    still open: for each, the fewest panels whose error leaves less than
    half the component's tolerance outside them.

    Parameters
    ----------
    f : callable
        Maps a 1-D array of n nodes to an (n, m) array, one column per
        component; a non-finite value aborts the call.
    edges : sequence of float
        Panel edges, at least two distinct finite values.
    settings : QuadSettings, optional
        Tolerances; component j is accepted when its error is at most
        ``max(abs_tol, rel_tol * |I_j + offset_j|)``.  ``abs_tol`` may be
        an array, one entry per component; a component with an infinite
        one rides along, integrated on the same panels but never bisected
        for (an integrand's own error bound, say).
    offset : float or array, optional
        Per component, the rest of the total that I_j is a part of, so
        that the relative tolerance applies to the total (0 by default).

    Returns
    -------
    QuadResult
        Per component: the sum of the panels' Kronrod values and, as its
        error, the sum of the panels' |Kronrod - Gauss| plus the roundoff
        floor 50 eps Int |f|.

    Raises
    ------
    QuadratureError
        When the roundoff floor alone exceeds a tolerance, when reaching
        the tolerances would take more than ``_MAX_SUBDIVISIONS`` panels,
        or when the integrand returns a non-finite value.  No unconverged
        result is ever returned.
    """
    settings = settings or DEFAULT_SETTINGS
    edges = np.unique(np.asarray(edges, dtype=float))
    if len(edges) < 2 or not np.all(np.isfinite(edges)):
        raise QuadratureError(f"need two or more finite distinct panel "
                              f"edges, got {edges}")
    lo, hi = edges[:-1], edges[1:]
    K, E, A = _gk15(f, lo, hi)
    evals = 15 * len(lo)
    while True:
        value = K.sum(axis=0)
        floor = _ROUNDOFF * A.sum(axis=0)
        raw = E.sum(axis=0)
        tol = np.maximum(settings.abs_tol,
                         settings.rel_tol * np.abs(value + offset))
        open_ = raw + floor > tol
        if not open_.any():
            break
        if np.any(floor[open_] >= tol[open_]):
            j = np.flatnonzero(open_ & (floor >= tol))[0]
            raise QuadratureError(
                f"panel rule on [{edges[0]}, {edges[-1]}]: roundoff floor "
                f"{floor[j]:.3e} exceeds the tolerance {tol[j]:.3e} "
                f"(component {j}, value={value[j]:.6e})")
        # Per open component, rank the panels by error and mark the
        # fewest whose error leaves at most half the tolerance margin
        # outside them.
        Eo = E[:, open_]
        order = np.argsort(-Eo, axis=0, kind="stable")
        cum = np.cumsum(Eo[order, np.arange(Eo.shape[1])], axis=0)
        need = raw[open_] - 0.5 * (tol[open_] - floor[open_])
        count = (cum < need).sum(axis=0) + 1
        mark = np.zeros(len(lo), dtype=bool)
        mark[order[np.arange(len(lo))[:, None] < count]] = True
        if len(lo) + mark.sum() > _MAX_SUBDIVISIONS:
            j = np.flatnonzero(open_)[0]
            raise QuadratureError(
                f"panel rule on [{edges[0]}, {edges[-1]}] did not converge "
                f"within {_MAX_SUBDIVISIONS} panels (component {j}: "
                f"value={value[j]:.6e}, error={raw[j] + floor[j]:.3e}, "
                f"tolerance={tol[j]:.3e})")
        mid = 0.5 * (lo[mark] + hi[mark])
        new_lo = np.concatenate([lo[mark], mid])
        new_hi = np.concatenate([mid, hi[mark]])
        Kn, En, An = _gk15(f, new_lo, new_hi)
        evals += 15 * len(new_lo)
        keep = ~mark
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        K = np.concatenate([K[keep], Kn])
        E = np.concatenate([E[keep], En])
        A = np.concatenate([A[keep], An])
    return QuadResult(value, raw + floor, evals)


def integrate_fixed(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                    hi: np.ndarray) -> QuadResult:
    """n integrals at once, each by a fixed composite G7-K15 rule.

    Integral i runs over the panels [lo[i, k], hi[i, k]] of the (n, k)
    arrays ``lo`` and ``hi``.  ``f`` maps an (n, 15 k) array of nodes, row
    i holding those of integral i, to an (n, 15 k, m) array: m components
    per node.  Returns (n, m) arrays: the panels' summed Kronrod values
    and, as the error, their summed |Kronrod - Gauss| plus the roundoff
    floor, as ``integrate_panels`` reports them; no panel is bisected.
    """
    n = lo.shape[0]
    K, E, A = _gk15(lambda x: f(x.reshape(n, -1)).reshape(x.size, -1),
                    lo.ravel(), hi.ravel())
    K, E, A = (v.reshape(n, -1, v.shape[1]).sum(axis=1) for v in (K, E, A))
    return QuadResult(K, E + _ROUNDOFF * A, 15 * lo.size)


# Edges, in u = log(omega / a), of the panels below the anchor a of
# ``_graded``: 1 nat wide next to a, widening to 9 nats at u = -32.
_LOG_EDGES = (0.0, -1.0, -2.0, -3.0, -4.0, -5.5, -7.0, -9.0, -11.0, -14.0,
              -18.0, -23.0, -32.0)
_LOG_FLOOR = _LOG_EDGES[-1]
# Edges within this share of hi above lo are left out, and a bottom panel
# this close to lo raises: the squares of such a panel's nodes underflow
# (omega0 = 1e-200 made the sheet's densities 0/0 there).
_UNDERFLOW = 1e-140


def _graded(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
            anchor: float, pts: Sequence[float],
            settings: QuadSettings) -> QuadResult:
    """Int_lo^hi f(omega) d omega by ``integrate_panels`` in a variable u
    graded at the anchor a (the lowest temperature, say).

    Below a, omega = a e^u on panels 1 to 9 nats wide (``_LOG_EDGES``),
    which grade them into the thermal weights' log singularity at 0; from
    0 to a e^-32, omega = a e^-32 (u + 33) on one linear panel.  Above a,
    omega = a (1 + u), with the octaves a 2^k as edges (u = 2^k - 1),
    which follow the weights' decay.  The map is C^1 at both joins, and
    the points ``pts`` inside (lo, hi) are edges too.  Values and errors
    are in units of omega, as ``integrate_panels`` returns them.

    Raises QuadratureError where the bottom panel's top, a e^-32, lies
    within 1e-140 hi of lo: there the nodes' squares underflow and the
    integrand would be lost without a reported error.
    """
    bottom = anchor * math.exp(_LOG_FLOOR)
    if lo <= bottom <= lo + _UNDERFLOW * hi:
        raise QuadratureError(
            f"panel grid on [{lo}, {hi}] at anchor {anchor}: its bottom "
            f"panel [{lo}, {bottom}] underflows")

    def u_of(w: float) -> float:
        if w >= anchor:
            return w / anchor - 1.0
        if w >= bottom:
            return math.log(w / anchor)
        return w / bottom + _LOG_FLOOR - 1.0

    top = math.ceil(math.log2(hi) - math.log2(anchor))
    grading = [*_LOG_EDGES, *(2.0 ** k - 1.0 for k in range(1, top + 1))]
    a, b = u_of(lo), u_of(hi)
    edges = [a, *(u for u in grading if a < u < b),
             *(u_of(v) for v in pts if lo + _UNDERFLOW * hi < v < hi), b]

    def g(u: np.ndarray) -> np.ndarray:
        # d omega / du: a e^u below the anchor, clipped to a at u >= 0 and
        # to a e^-32 below u = -32.
        jac = anchor * np.exp(np.clip(u, _LOG_FLOOR, 0.0))
        w = np.where(u >= 0.0, anchor * (1.0 + u),
                     np.where(u >= _LOG_FLOOR, jac,
                              bottom * (u + 1.0 - _LOG_FLOOR)))
        return f(w) * jac[:, None]

    return integrate_panels(g, edges, settings)


def _tail_moment(n: int, X: np.ndarray) -> np.ndarray:
    """Bounds on Int_X^inf x^n |w(x)| dx for both weights w, X >= 40.

    |bose_log(x)| <= e^-x / (1 - e^-X) and g(x) <= (x + 1) e^-x / (1 - e^-X)
    for x >= X, and Int_X^inf x^m e^-x dx = m! e^-X Sum_{i<=m} X^i / i!.
    A negative n is bounded by X^n times the n = 0 moment.  Row 0 bounds
    bose_log, row 1 g, and also the occupations n(x) <= e^-x / (1 - e^-X)
    and x n'(x) <= x e^-x / (1 - e^-X)^2, whose moment is below row 1's.
    """
    def upper_gamma(m: int) -> np.ndarray:
        terms = sum(X ** i / math.factorial(i) for i in range(m + 1))
        return math.factorial(m) * np.exp(-X) * terms

    m = max(n, 0)
    blog = upper_gamma(m)
    out = np.stack([blog, blog + upper_gamma(m + 1)])
    if n < 0:
        out = out * X ** n
    return out / -np.expm1(-X)


def _truncation_bound(Ts: np.ndarray, cut: float, A: float,
                      n: int) -> np.ndarray:
    """Bound on what a cutoff drops, per weight and temperature: where the
    density f of the integrand f(omega) w(omega/T) obeys |f| <= A omega^n
    beyond ``cut`` (>= 40 T), A T^(n+1) Int_(cut/T)^inf x^n |w(x)| dx."""
    return A * Ts ** (n + 1) * _tail_moment(n, cut / Ts)


def weight_columns(Ts: np.ndarray):
    """bose_log and g at omega/T for each of the m temperatures ``Ts``: a
    map of n frequencies to two (n, m) arrays."""
    return lambda omega: thermal_weights(omega[:, None] / Ts)


def thermal_integral(density, weights, grid, settings: QuadSettings, tail):
    """Int density(omega) w(omega) d omega over [lo, hi] for F's and S's
    weights w at m temperatures, in one panel rule.

    ``density`` maps an array of n omega to an array, ``weights`` to F's
    and S's weights, two (n, m) arrays (``weight_columns``: bose_log and
    g).  ``grid`` is (lo, hi, anchor, points), the arguments of the graded
    panel grid (``_graded``).  ``tail`` bounds what is dropped past hi
    (``_truncation_bound``) and is added to the errors.  Returns values and
    errors as two (2, m) arrays, row 0 under F's weight and row 1 S's.
    """
    def f(omega: np.ndarray) -> np.ndarray:
        d = density(omega)[:, None]
        return np.concatenate([d * w for w in weights(omega)], axis=1)

    res = _graded(f, *grid, settings)
    return (res.value.reshape(2, -1),
            res.error_estimate.reshape(2, -1) + tail)


def _check_T(T) -> None:
    """Refuse T unless positive, finite and a scalar or non-empty 1-D array."""
    Ts = np.asarray(T, dtype=float)
    if Ts.ndim > 1 or Ts.size == 0 or not np.all((Ts > 0.0) & (Ts < np.inf)):
        raise ValueError("temperature must be positive and finite, a scalar "
                         f"or a non-empty 1-D array; got {T!r}")


def per_temperature(T, run, *args):
    """``run(Ts, *args)`` at T as a 1-D array Ts, once T passes ``_check_T``.
    ``run`` returns ((F, F_error), (S, S_error)), arrays over Ts; for a
    scalar T each comes back as a Python float."""
    _check_T(T)
    out = run(np.atleast_1d(np.asarray(T, dtype=float)), *args)
    if np.ndim(T):
        return out
    return tuple(tuple(float(v[0]) for v in pair) for pair in out)


def find_root_bracketed(f: Callable[[float], float], lo: float, hi: float,
                        x_tol: float = 1e-12) -> float:
    """Locate a root of ``f`` inside a sign-changing bracket [lo, hi].

    Raises
    ------
    QuadratureError
        If the bracket does not straddle a sign change.
    """
    from scipy.optimize import brentq

    flo, fhi = f(lo), f(hi)
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


def thermal_weights(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``bose_log``, ``g``) on an array; ``bose_log`` by its scalar
    formula, computed once and entering ``g``.  ``g`` = -d/dT [T
    bose_log(omega/T)] at x = omega/T is positive and decreasing, a sum
    of two positive terms with no cancellation.  Above x ~ 709.8,
    where ``expm1`` overflows, ``g`` keeps only -``bose_log``, which is
    below 1e-305 there."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("thermal weights require x > 0")
    with np.errstate(divide="ignore", over="ignore"):
        blog = np.where(x < _LN2, np.log(-np.expm1(-x)),
                        np.log1p(-np.exp(-x)))
        return blog, x / np.expm1(x) - blog


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
                   basis: Sequence[str]) -> dict[str, float]:
    """Fit (T, value) samples onto named asymptotic terms.

    Parameters
    ----------
    samples : sequence of (float, float)
        Temperatures (strictly increasing, positive) and values.
    basis : sequence of str
        Term names among {"T3", "T2", "TlogT", "T", "1"}.

    Returns
    -------
    dict
        Term name -> fitted coefficient, in the order of ``basis``.

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
    return {n: float(c) for n, c in zip(names, coef / col_scale)}
