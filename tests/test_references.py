"""The committed mpmath references (``artifact.references``) and the
oracle rows of ``thermo verify`` that read them."""

import mpmath
import numpy as np
import pytest
import scipy.integrate

import make_references
from artifact import numkernel, plasma_sheet, references, slab, verification
from artifact.numkernel import DEFAULT_SETTINGS
from artifact.spectral import Channel, Part


def test_tables_hold_exactly_the_oracle_grids():
    # A grid changed in ``verification`` without regenerating the table
    # would leave its rows without references, or the table with stale
    # ones.
    assert list(references.SHEET_PARTS) == make_references.sheet_part_keys()
    assert list(references.SHEET_H) == make_references.sheet_h_keys()
    assert list(references.SLAB_H) == make_references.slab_h_keys()


@pytest.mark.parametrize("omega0", verification._PANEL_OMEGA0)
@pytest.mark.parametrize("ch", Channel.ALL)
def test_sheet_parts_cover_their_references(ch, omega0):
    # F and S of the TE and TM parts lie within their reported errors of
    # the mpmath reference at every reference temperature.
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0)
    Ts = np.array(verification._PANEL_T)
    (F, F_err), (S, S_err) = Part.named(plasma_sheet.PARTS, ch).evaluate(
        Ts, params, DEFAULT_SETTINGS)
    for i, T in enumerate(verification._PANEL_T):
        F_ref, S_ref = references.SHEET_PARTS[omega0, ch, T]
        assert abs(F[i] - F_ref) <= F_err[i], ("F", T)
        assert abs(S[i] - S_ref) <= S_err[i], ("S", T)


def test_reference_rows_run_no_quadpack(monkeypatch):
    # The 14 rows that read the table, and the slab's three continuity
    # rows, which share a group with two of them.
    def boom(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    for mod in (numkernel, verification, slab):
        monkeypatch.setattr(mod, "integrate_finite", boom)
    monkeypatch.setattr(scipy.integrate, "quad", boom)
    rows = (verification._sheet_h_oracle_checks()
            + verification._sheet_panel_rule_checks(DEFAULT_SETTINGS)
            + verification._slab_h_oracle_checks())
    assert len(rows) == 17
    assert all(r.passed for r in rows), [r.check for r in rows
                                         if not r.passed]


@pytest.mark.parametrize("table, key", [
    ("SHEET_PARTS", (0.7125, "TE", 0.01, "S")),
    ("SHEET_H", (1.3, "TE", 50.0)),
    ("SLAB_H", 0.05),
])
def test_generator_reproduces_an_entry_of_each_table(table, key):
    # One entry of each set at the generator's lower precision; the table
    # holds the higher one's rounded to a float, and the two agree to 20
    # digits.  The sheet entry has its resonance shell inside the range.
    fn = next(fn for t, k, fn in make_references.entries()
              if (t, k) == (table, key))
    with mpmath.workdps(make_references.PRECISIONS[0]):
        value = float(fn())
    if table == "SHEET_PARTS":
        want = references.SHEET_PARTS[key[:3]]["FS".index(key[3])]
    else:
        want = getattr(references, table)[key]
    assert value == pytest.approx(want, rel=2.0 ** -52, abs=0.0)
