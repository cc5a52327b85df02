"""Write, or check, the mpmath references that ``thermo verify`` reads.

    PYTHONPATH=src python tests/make_references.py          # write the table
    PYTHONPATH=src python tests/make_references.py --check  # compare with it

The table, ``src/artifact/references.py``, holds three sets of float
literals, each at the grid of the ``verification`` rows that read it:

``SHEET_PARTS``
    F and S of the sheet's subtracted TE and TM channels at Omega0 = 1,
    keyed (omega0, channel, T) over ``_PANEL_OMEGA0`` x ``_PANEL_T``:
    (T / 2 pi^2, 1 / 2 pi^2) times Int_0^inf omega^2 w(omega/T) h_subtr
    d omega plus the shell weight's term, w = bose_log for F and g for S.
``SHEET_H``
    The defining epsilon-integral of the sheet density h, keyed
    (omega0, channel, omega) over the grid of ``_sheet_h_oracle_checks``.
``SLAB_H``
    The slab's surface moment Int_0^min(omega, omega_p) delta_s_TM dp at
    omega_p = L = 1, keyed omega over ``_SLAB_H_GRID`` and
    ``_SLAB_H2_GRID``.

Every value is computed at 40 and at 60 significant digits.  The script
refuses to write, and ``--check`` fails, when the two disagree past 20
significant digits; ``--check`` also fails when a committed value is not
the 60-digit value rounded to a float.  Either mode takes about 40 s on
a 2-core x86-64 VM.

Near the resonance shell the closed TE density is a 0/0 of order a^3,
a = omega^2 - omega0^2, and mpmath's tanh-sinh nodes come within about
1e-40 of the breakpoint omega0; at large omega both subtracted densities
cancel to omega^-4 of their terms.  So each density value raises the
working precision by 3 log2(1/|a|) + 5 log2(omega) + 64 bits.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath

from artifact import verification as v

OUT = Path(__file__).resolve().parents[1] / "src/artifact/references.py"
PRECISIONS = (40, 60)
AGREE = mpmath.mpf("1e-20")


def sheet_h_subtr(ch: str, w, w0):
    """h_subtr of one sheet channel at Omega0 = 1, closed form (on the
    shell, the limit from above)."""
    a = w * w - w0 * w0
    extra = 64 + 5 * max(0, mpmath.mag(w))
    if w0 and a:
        extra += 3 * max(0, -mpmath.mag(a))
    with mpmath.extraprec(extra):
        a = w * w - w0 * w0
        if ch == "TE":
            if a == 0:
                h = mpmath.mpf(2) / 3
            else:
                h = ((2 * w * w0 * w0 * a
                      + (a ** 3 - 2 * w * w * w0 * w0) * mpmath.atan(a / w))
                     / (w * a ** 3))
            out = h - mpmath.pi / (2 * w) + 1 / (w * w)
        else:
            at = mpmath.pi / 2 if a == 0 else mpmath.atan(w / a)
            out = (2 * w - (2 * a + 1) * at) / w + 1 / (3 * w * w)
    return +out


def _bose_log(x):
    if x < mpmath.ln2:
        return mpmath.log(-mpmath.expm1(-x))
    return mpmath.log1p(-mpmath.exp(-x))


def _g(x):
    return x / mpmath.expm1(x) - _bose_log(x)


def sheet_part(omega0: float, ch: str, T: float, quantity: str):
    """F or S of the subtracted sheet channel ``ch`` at Omega0 = 1."""
    w0, T = mpmath.mpf(omega0), mpmath.mpf(T)
    weight = _bose_log if quantity == "F" else _g
    # Past 300 T both weights are below e^-294 of their size at T.
    top = 300 * T
    points = sorted({mpmath.mpf(0), top, w0, mpmath.mpf(1)}
                    | {T * 4 ** i for i in range(5)})
    points = [p for p in points if p <= top]
    val = mpmath.quad(
        lambda w: w * w * weight(w / T) * sheet_h_subtr(ch, w, w0), points)
    if w0:
        val += -mpmath.pi * w0 * w0 / 2 * weight(w0 / T)
    val /= 2 * mpmath.pi ** 2
    return T * val if quantity == "F" else val


def sheet_h_epsilon(omega0: float, ch: str, omega: float):
    """Int_0^1 d delta/dp (p = eps omega, k = omega sqrt(1 - eps^2)) d eps
    at Omega0 = 1: along the arc a = omega^2 - omega0^2 is constant."""
    w, w0 = mpmath.mpf(omega), mpmath.mpf(omega0)
    a = w * w - w0 * w0

    def deriv(eps):
        p2 = (eps * w) ** 2
        if ch == "TM":
            return (2 * p2 - a) / (a * a + p2)
        return (w * w * a + 2 * w0 * w0 * p2) / (a * a * p2 + w ** 4)

    # The derivatives peak near p ~ |a| (TM) and p ~ omega^2 / |a| (TE).
    peaks = {abs(a) / w, w / abs(a)} if a else set()
    points = sorted({mpmath.mpf(0), mpmath.mpf(1)}
                    | {e for e in peaks if 0 < e < 1})
    return mpmath.quad(deriv, points)


def slab_h(omega: float):
    """Int_0^min(omega, 1) delta_s_TM(p) dp at omega_p = L = 1."""
    w = mpmath.mpf(omega)
    eps = 1 - 1 / (w * w)

    def delta_s(p):
        gamma = mpmath.sqrt(1 - p * p)
        return -mpmath.pi / 2 + 2 * mpmath.atan(eps * p / gamma)

    return mpmath.quad(delta_s, [0, min(w, 1)])


def sheet_part_keys():
    return [(w0, ch, T) for w0 in v._PANEL_OMEGA0 for ch in ("TE", "TM")
            for T in v._PANEL_T]


def sheet_h_keys():
    return [(w0, ch, w) for w0 in v._SHEET_H_OMEGA0 for ch in ("TE", "TM")
            for w in v._SHEET_H_GRID]


def slab_h_keys():
    return list(v._SLAB_H_GRID + v._SLAB_H2_GRID)


def entries():
    """(table, key, function of no arguments) for every reference."""
    for w0, ch, T in sheet_part_keys():
        for q in ("F", "S"):
            yield "SHEET_PARTS", (w0, ch, T, q), (
                lambda w0=w0, ch=ch, T=T, q=q: sheet_part(w0, ch, T, q))
    for w0, ch, w in sheet_h_keys():
        yield "SHEET_H", (w0, ch, w), (
            lambda w0=w0, ch=ch, w=w: sheet_h_epsilon(w0, ch, w))
    for w in slab_h_keys():
        yield "SLAB_H", w, lambda w=w: slab_h(w)


def at_precisions(fn):
    """fn() at each of ``PRECISIONS`` digits."""
    out = []
    for dps in PRECISIONS:
        with mpmath.workdps(dps):
            out.append(fn())
    return out


def compute():
    """{table: {key: float}}, the entries whose precisions disagree and the
    largest relative gap between the precisions."""
    tables = {"SHEET_PARTS": {}, "SHEET_H": {}, "SLAB_H": {}}
    bad, worst = [], mpmath.mpf(0)
    for table, key, fn in entries():
        lo, hi = at_precisions(fn)
        gap = abs(lo - hi) / abs(hi)
        worst = max(worst, gap)
        if not gap <= AGREE:
            bad.append((table, key, (lo, hi)))
        print(table, key, mpmath.nstr(hi, 25), file=sys.stderr)
        value = float(hi)
        if table == "SHEET_PARTS":  # F, then S, under (omega0, channel, T)
            key, value = key[:3], tables[table].get(key[:3], ()) + (value,)
        tables[table][key] = value
    return tables, bad, worst


HEADER = '''"""mpmath references of the oracle rows of ``thermo verify``.

Generated by tests/make_references.py, which documents each table; do not
edit.  Every value is the 60-digit mpmath value rounded to a float, and the
40-digit value agrees with it to 20 significant digits."""
'''

COMMENTS = {
    "SHEET_PARTS": "# (omega0, channel, T) -> (F, S) of the subtracted sheet "
                   "channel at\n# Omega0 = 1.",
    "SHEET_H": "# (omega0, channel, omega) -> the epsilon-integral of the "
               "sheet density\n# h at Omega0 = 1.",
    "SLAB_H": "# omega -> the slab's surface moment h at omega_p = L = 1.",
}


def render(tables) -> str:
    lines = [HEADER]
    for name, comment in COMMENTS.items():
        lines += [comment, f"{name} = {{"]
        lines += [f"    {key!r}: {val!r},"
                  for key, val in tables[name].items()]
        lines += ["}", ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="recompute and compare with the committed table")
    args = parser.parse_args(argv)
    tables, bad, worst = compute()
    print("largest relative gap between {} and {} digits: {}".format(
        *PRECISIONS, mpmath.nstr(worst, 3)))
    for table, key, values in bad:
        print(f"precisions disagree: {table} {key!r}: "
              + ", ".join(mpmath.nstr(x, 30) for x in values),
              file=sys.stderr)
    if bad:
        return 1
    text = render(tables)
    if not args.check:
        OUT.write_text(text)
        print(f"wrote {OUT}")
        return 0
    if OUT.read_text() != text:
        print(f"{OUT} differs from the recomputed table", file=sys.stderr)
        return 1
    print(f"{OUT}: all values reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
