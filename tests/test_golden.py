"""Golden outputs: fixed ``thermo`` commands must write the committed bytes.

Each command runs in a fresh interpreter, as it does for a user.  To
regenerate the files after a deliberate change of output, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.  With
``--diff`` it writes nothing and prints each cell a fresh run changes,
with the ratio of its move to its row's committed ``quad_error``; it exits
1 if any ratio is above 1, that is, if a cell moved beyond its row's bound.

Next to the CSVs, ``golden/verify_checks.txt`` holds the suite, check and
verdict of every ``thermo verify`` row; ``tests/test_acceptance.py``
compares it with its run of the suites, and ``PYTHONPATH=src python
tests/test_acceptance.py`` regenerates it.
"""

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "sheet_sweep": ["sheet", "--omega0", "0:0.8:3", "--tmin", "0.5",
                    "--tmax", "5", "--tpts", "2"],
    "sheet_parts_TM_sf": ["sheet", "--omega0", "0.8", "--tmin", "1",
                          "--tmax", "1", "--parts", "TM,sf"],
    "slab_sweep": ["slab", "--L", "0.5:1:2", "--tmin", "1e-2", "--tmax", "1",
                   "--tpts", "1"],
    "slab_parts_L": ["slab", "--L", "1", "--tmin", "1e-1", "--tmax", "1e1",
                     "--tpts", "1", "--parts", "L"],
    "slab_parts_s_exp": ["slab", "--L", "1", "--tmin", "1e-2",
                         "--tmax", "1e-1", "--tpts", "1", "--parts", "s,exp"],
    "slab_thick_L": ["slab", "--L", "3", "--tmin", "1", "--tmax", "100",
                     "--tpts", "1", "--parts", "L"],
    "scan_window": ["scan", "--omega0", "0.68:0.74:4", "--tmax", "100",
                    "--tpts", "4"],
}


def run_thermo(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "artifact.cli", *argv],
                         cwd=ROOT, env=env, capture_output=True, check=True)
    return out.stdout


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert run_thermo(COMMANDS[name]) == expected


def moved_cells(name):
    """(line, ratio) for each cell of ``name``.csv that a fresh run changes:
    ratio is |new - old| over the row's committed ``quad_error`` (inf for
    a changed header or row count)."""
    old, new = (list(csv.reader(io.StringIO(text))) for text in (
        (GOLDEN / f"{name}.csv").read_text(),
        run_thermo(COMMANDS[name]).decode()))
    if old[0] != new[0] or len(old) != len(new):
        return [(f"{name}.csv: header or row count changed", math.inf)]
    header = old[0]
    err = header.index("quad_error")
    moved = []
    for i, (row, fresh) in enumerate(zip(old[1:], new[1:]), start=2):
        for col, a, b in zip(header, row, fresh):
            if a != b:
                ratio = abs(float(b) - float(a)) / float(row[err])
                moved.append((f"{name}.csv line {i} {col}: {a} -> {b} "
                              f"(committed quad_error {row[err]}, "
                              f"ratio {ratio:.3g})", ratio))
    return moved


def test_diff_gives_each_move_over_its_row_bound(monkeypatch):
    # Move line 2's F_L_TM by twice its row's quad_error and leave the rest.
    rows = list(csv.reader(io.StringIO(
        (GOLDEN / "slab_parts_L.csv").read_text())))
    col, err = rows[0].index("F_L_TM"), rows[0].index("quad_error")
    rows[1][col] = repr(float(rows[1][col]) + 2.0 * float(rows[1][err]))
    fresh = io.StringIO()
    csv.writer(fresh, lineterminator="\n").writerows(rows)
    monkeypatch.setattr(sys.modules[__name__], "run_thermo",
                        lambda argv: fresh.getvalue().encode())
    (line, ratio), = moved_cells("slab_parts_L")
    assert line.startswith("slab_parts_L.csv line 2 F_L_TM:")
    assert ratio == pytest.approx(2.0, rel=1e-6)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        worst = 0.0
        for name in COMMANDS:
            moved = moved_cells(name)
            print("\n".join(line for line, _ in moved)
                  or f"{name}.csv: unchanged")
            worst = max([worst, *(ratio for _, ratio in moved)])
        sys.exit(1 if worst > 1.0 else 0)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.csv").write_bytes(run_thermo(argv))
