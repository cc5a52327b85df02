"""Reference values computed apart from the program, for the benchmark checks.

Nothing here imports ``artifact``.  The slab references are mpmath
quadratures of the one-dimensional TE integrals, written from their
defining formulas (README and the ``slab`` docstrings):

    F_s_TE_subtr = -(T / pi^2) Int_0^wp  w blog(w/T) atan(sqrt(wp^2 - w^2)/w) dw
    S_s_TE_subtr = -(1 / pi^2) Int_0^wp  w g(w/T)    atan(sqrt(wp^2 - w^2)/w) dw
    F_L_TE       =  (T / 2 pi^2) Int_0^inf p blog(p/T) delta_TE(p) dp
    S_L_TE       =  (1 / 2 pi^2) Int_0^inf p g(p/T)    delta_TE(p) dp

with blog(x) = log(1 - e^-x), g(x) = x/(e^x - 1) - blog(x) and the TE
thickness phase delta_TE(p) = -arg(1 - r^2 e^{2 i q L}),
q = sqrt(p^2 - wp^2) (principal root, so q = i gamma below wp),
r = (p - q)/(p + q).  The surface subtraction -zeta(3) T^3/(2 pi) cancels
the closed T^3 term of F_s_TE exactly, which is why it is absent above.

The low-temperature laws of the thickness parts and the sheet's log T
entropy coefficient are closed forms.

Every value can be recomputed from the command line, for example

    python3 bench/reference.py te-surface-F --omegap 1 --L 0.5 --T 0.01
"""

from __future__ import annotations

import argparse
import functools
import math

import mpmath as mp

DPS = 20

# Integrals of the thermal weights beyond this many temperatures are below
# e^-80 of the integral and are dropped.
_DECAY_CUT = 80.0


def _blog(x):
    return mp.log(-mp.expm1(-x))


def _g(x):
    return x / mp.expm1(x) - _blog(x)


def _thermal_points(T, lo, hi):
    return [v for v in (T, 10 * T, 50 * T) if lo < v < hi]


@functools.lru_cache(maxsize=None)
def te_surface(omega_p: float, T: float, entropy: bool) -> float:
    """Subtracted TE surface free energy (or entropy) of the slab."""
    with mp.workdps(DPS):
        wp, T = mp.mpf(omega_p), mp.mpf(T)
        weight = _g if entropy else _blog

        def f(w):
            return w * weight(w / T) * mp.atan(mp.sqrt(wp * wp - w * w) / w)

        pts = [mp.mpf(0)] + _thermal_points(T, 0, wp) + [wp]
        val = mp.quad(f, pts)
        pref = -1 / mp.pi ** 2 if entropy else -T / mp.pi ** 2
        return float(pref * val)


def te_thickness_phase(p, omega_p, L):
    """delta_TE(p) = -arg(1 - r^2 e^{2 i q L}) for one slab (mpmath)."""
    q = mp.sqrt(mp.mpc(p * p - omega_p * omega_p))
    r = (p - q) / (p + q)
    return -mp.arg(1 - r * r * mp.exp(2j * q * L))


@functools.lru_cache(maxsize=None)
def te_thickness(omega_p: float, L: float, T: float, entropy: bool) -> float:
    """TE thickness free energy (or entropy) of the slab."""
    with mp.workdps(DPS):
        wp, L, T = mp.mpf(omega_p), mp.mpf(L), mp.mpf(T)
        weight = _g if entropy else _blog

        def f(p):
            return p * weight(p / T) * te_thickness_phase(p, wp, L)

        top = wp + _DECAY_CUT * T
        pts = {mp.mpf(0), wp, top}
        pts.update(_thermal_points(T, 0, top))
        # Above wp the phase oscillates with period pi/L in q; cut at every
        # half period so each piece is smooth.
        k = 1
        while True:
            q = k * mp.pi / (2 * L)
            p = mp.sqrt(wp * wp + q * q)
            if p >= top:
                break
            pts.add(p)
            k += 1
        val = mp.quad(f, sorted(pts))
        pref = 1 / (2 * mp.pi ** 2) if entropy else T / (2 * mp.pi ** 2)
        return float(pref * val)


def zeta(n: int) -> float:
    with mp.workdps(DPS):
        return float(mp.zeta(n))


def thickness_laws(omega_p: float, L: float, T: float) -> tuple[float, float]:
    """Low-T laws of the slab's thickness parts: (F_L_TE, F_L_TM / F_L_TE).

    With E0 = e^{-2 wp L}, s1 = E0/(1-E0), s2 = E0/(1-E0)^2 and
    s3 = E0 (1+E0)/(1-E0)^3, delta_L_TE = a1 p + a3 p^3 + ... and
    h_L = a1 w^3 + B w^4 + C w^5 + ... with

        a1 = 4 s1 / wp,   a3 = (2 s1 - 32 s3) / (3 wp^3) + 4 L s2 / wp^2,
        B = -4 pi s2 / wp^2,   C = (14 s1 + 32 s3) / (3 wp^3) + 4 L s2 / (3 wp^2).

    Then F_L_TE = -2 pi^2 T^4 / (45 wp (e^{2 wp L} - 1))
    * (1 + (8 pi^2/7)(a3/a1) T^2 + O(T^4)), and F_L_TM / F_L_TE tends to 3
    times (1 + b1 T + b2 T^2) / (1 + (8 pi^2/7)(a3/a1) T^2) with
    b1 = 360 zeta(5) B / (pi^4 a1) and b2 = (40 pi^2/21) C / a1.
    """
    wp = omega_p
    e0 = math.exp(-2.0 * wp * L)
    s1 = e0 / (1.0 - e0)
    s2 = e0 / (1.0 - e0) ** 2
    s3 = e0 * (1.0 + e0) / (1.0 - e0) ** 3
    a1 = 4.0 * s1 / wp
    a3 = (2.0 * s1 - 32.0 * s3) / (3.0 * wp ** 3) + 4.0 * L * s2 / wp ** 2
    B = -4.0 * math.pi * s2 / wp ** 2
    C = (14.0 * s1 + 32.0 * s3) / (3.0 * wp ** 3) + 4.0 * L * s2 / (3.0 * wp ** 2)
    te = 1.0 + (8.0 * math.pi ** 2 / 7.0) * (a3 / a1) * T * T
    tm = (1.0 + 360.0 * zeta(5) * B / (math.pi ** 4 * a1) * T
          + (40.0 * math.pi ** 2 / 21.0) * (C / a1) * T * T)
    f_te = (-2.0 * math.pi ** 2 * T ** 4
            / (45.0 * wp * math.expm1(2.0 * wp * L)) * te)
    return f_te, 3.0 * tm / te


def sheet_log_coefficient(Omega0: float, omega0: float) -> float:
    """Coefficient of log T in the sheet's high-T entropy.

    c = (x^2 Theta(x) / Omega0^2 - x) / (4 pi), x = omega0^2 - Omega0^2/2;
    negative exactly for Omega0/sqrt(2) < omega0 < sqrt(3/2) Omega0.
    """
    x = omega0 * omega0 - 0.5 * Omega0 * Omega0
    c = -x + (x * x / Omega0 ** 2 if x > 0.0 else 0.0)
    return c / (4.0 * math.pi)


SLAB_REFERENCES = {
    "te-surface-F": lambda wp, L, T: te_surface(wp, T, entropy=False),
    "te-surface-S": lambda wp, L, T: te_surface(wp, T, entropy=True),
    "te-thickness-F": lambda wp, L, T: te_thickness(wp, L, T, entropy=False),
    "te-thickness-S": lambda wp, L, T: te_thickness(wp, L, T, entropy=True),
}


def command(name: str, omega_p: float, L: float, T: float) -> str:
    """The command line that recomputes one slab reference value."""
    return (f"python3 bench/reference.py {name} --omegap {omega_p!r} "
            f"--L {L!r} --T {T!r}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("name", choices=sorted(SLAB_REFERENCES))
    parser.add_argument("--omegap", type=float, default=1.0)
    parser.add_argument("--L", type=float, default=1.0)
    parser.add_argument("--T", type=float, required=True)
    args = parser.parse_args(argv)
    print(repr(SLAB_REFERENCES[args.name](args.omegap, args.L, args.T)))


if __name__ == "__main__":
    main()
