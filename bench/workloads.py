"""The benchmark's workloads: seeded ``thermo`` commands and output checks.

A workload turns a seed into ``thermo`` command lines (``commands``) and
checks what they wrote (``check``) against computations made apart from
the program (``reference.py``) or against properties the method must have.
The seed shifts each grid within one grid step: the T grid's start moves
down (its end and its number of points stay), and the L and omega0 grids
move up by up to one step.  The program sees only the
generated arguments.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

import reference

SLAB_VALUE_COLUMNS = ("F_s_TE_subtr", "S_s_TE_subtr", "F_s_TM_subtr",
                      "S_s_TM_subtr", "F_L_TE", "S_L_TE", "F_L_TM", "S_L_TM",
                      "F_exp_subtr", "S_exp_subtr", "F_total", "S_total")
SLAB_F_PARTS = ("F_s_TE_subtr", "F_s_TM_subtr", "F_L_TE", "F_L_TM",
                "F_exp_subtr")
SLAB_S_PARTS = tuple("S" + c[1:] for c in SLAB_F_PARTS)
SUITES = ("oracle", "asymptotics", "constants", "thermo-identity", "nernst")


@dataclass
class Command:
    """One ``thermo`` invocation of a workload round."""

    label: str
    argv: list[str]
    # Operations it attempts: CSV rows, (omega0, T) points; None when the
    # output tells (one per verify check).
    ops: int | None
    out: str | None     # name of the CSV it writes; None when stdout is kept
    params: dict = field(default_factory=dict)


@dataclass
class Output:
    """What one command left behind."""

    rc: int
    stdout: bytes
    csv: bytes | None

    def rows(self) -> list[dict]:
        return list(csv.DictReader(io.StringIO(self.csv.decode())))


def shifted_log_grid(tmin: float, tmax: float, n: int, u: float):
    """T grid arguments whose start moves down by ``u`` of one step.

    Returns the ``--tmin/--tmax/--tpts`` arguments and the grid itself;
    ``--tpts`` is chosen so that the program's grid keeps ``n`` points.
    """
    step = math.log10(tmax / tmin) / (n - 1)
    lo = tmin * 10.0 ** (-u * step)
    tpts = (n - 1) / math.log10(tmax / lo)
    args = ["--tmin", repr(lo), "--tmax", repr(tmax), "--tpts", repr(tpts)]
    return args, [float(t) for t in np.geomspace(lo, tmax, n)]


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _ok_rows(rows):
    return [r for r in rows if r["quad_error"] != "failed"]


def _failed_rows(out: Output) -> int:
    return sum(1 for r in out.rows() if r["quad_error"] == "failed")


# ---------------------------------------------------------------------------
# slab-sweep
# ---------------------------------------------------------------------------

class SlabSweep:
    """``thermo slab`` at omega_p = 1 over two thicknesses and a T grid.

    A second, one-row command repeats the second temperature of the first
    thickness in scaled units (T, omega_p -> LAMBDA *, L -> L / LAMBDA) for
    the unit-scaling check.
    """

    name = "slab-sweep"
    OMEGA_P = 1.0
    L0, L_STEP, N_L = 0.5, 0.125, 2
    TMIN, TMAX, N_T = 1e-2, 1e2, 4
    # The T grid's start moves by up to this share of a step: a row's cost
    # depends steeply on T between 0.03 and 0.2, and a whole step moved
    # the round's work by about 20% between the ends of its range.
    T_SHIFT = 0.25
    LAMBDA = 2.0
    # The low-T laws are checked on rows with T / omega_p at most this.
    LAW_T = 1e-2
    # mpmath references are computed for rows with T / omega_p at most this.
    REF_T = 1.0

    def commands(self, seed: int) -> list[Command]:
        rng = random.Random(seed)
        u_t, u_l = rng.random(), rng.random()
        targs, grid = shifted_log_grid(self.TMIN, self.TMAX, self.N_T,
                                       self.T_SHIFT * u_t)
        a = self.L0 + u_l * self.L_STEP
        b = a + (self.N_L - 1) * self.L_STEP
        lengths = [float(x) for x in np.linspace(a, b, self.N_L)]
        main = Command(
            "slab", ["slab", "--omegap", repr(self.OMEGA_P),
                     "--L", f"{a!r}:{b!r}:{self.N_L}", *targs,
                     "--jobs", "1", "--out", "slab.csv"],
            ops=self.N_L * self.N_T, out="slab.csv",
            params={"lengths": lengths, "grid": grid})
        # The second temperature: at the first, T <= 1e-2 omega_p, the
        # absolute quadrature tolerance (which does not scale) shows.
        lam, t1 = self.LAMBDA, grid[1]
        scaled = Command(
            "slab-scaled",
            ["slab", "--omegap", repr(lam * self.OMEGA_P),
             "--L", repr(lengths[0] / lam), "--tmin", repr(lam * t1),
             "--tmax", repr(lam * t1), "--jobs", "1",
             "--out", "slab-scaled.csv"],
            ops=1, out="slab-scaled.csv")
        return [main, scaled]

    def failed_ops(self, outputs: dict[str, Output]) -> int:
        return sum(_failed_rows(o) for o in outputs.values())

    def check(self, commands, outputs, refs: list) -> list[str]:
        """Failures of the slab checks; appends mpmath values to ``refs``."""
        main_cmd = commands[0]
        main, scaled = outputs["slab"].rows(), outputs["slab-scaled"].rows()
        bad = []
        want = [(L, T) for L in main_cmd.params["lengths"]
                for T in main_cmd.params["grid"]]
        got = [(float(r["L"]), float(r["T"])) for r in main]
        if len(got) != len(want) or not all(
                _close(g[0], w[0], 1e-11) and _close(g[1], w[1], 1e-11)
                for g, w in zip(got, want)):
            bad.append(f"slab rows {got} are not the requested grid {want}")
        if len(scaled) != 1:
            bad.append(f"scaled slab command wrote {len(scaled)} rows, not 1")
        main, scaled = _ok_rows(main), _ok_rows(scaled)
        bad += self.check_parts_sum(main + scaled)
        bad += self.check_scaling(main, scaled)
        bad += self.check_low_t_laws(main)
        bad += self.check_references(main, refs)
        bad += self.check_entropy_sign(main)
        return bad

    @staticmethod
    def check_parts_sum(rows) -> list[str]:
        bad = []
        for r in rows:
            for total, parts in (("F_total", SLAB_F_PARTS),
                                 ("S_total", SLAB_S_PARTS)):
                v = [float(r[c]) for c in parts]
                s = sum(v)
                # 12 printed digits per value: allow a few ulps of that.
                if abs(float(r[total]) - s) > 4e-12 * sum(map(abs, v)):
                    bad.append(f"slab L={r['L']} T={r['T']}: {total} "
                               f"{r[total]} != sum of parts {s!r}")
        return bad

    @classmethod
    def check_scaling(cls, main, scaled) -> list[str]:
        """F -> lam^3 F and S -> lam^2 S under T, omega_p -> lam, L -> L/lam."""
        lam = cls.LAMBDA
        bad = []
        for s in scaled:
            T = float(s["T"]) / lam
            L = float(s["L"]) * lam
            match = [r for r in main if _close(float(r["T"]), T, 1e-11)
                     and _close(float(r["L"]), L, 1e-11)]
            if len(match) != 1:
                bad.append(f"no slab row at L={L!r}, T={T!r} for scaled row")
                continue
            r = match[0]
            for c in SLAB_VALUE_COLUMNS:
                power = 3 if c.startswith("F") else 2
                want = lam ** power * float(r[c])
                # Quadrature tolerances do not scale with the units, so
                # allow the rel_tol of the outer integrals (1e-8) and an
                # absolute floor for the near-zero low-T thickness parts.
                if not _close(float(s[c]), want, 1e-8, 1e-14):
                    bad.append(f"slab scaling L={r['L']} T={r['T']} {c}: "
                               f"{s[c]} != lam^{power} * {r[c]}")
        return bad

    @classmethod
    def check_low_t_laws(cls, rows) -> list[str]:
        bad = []
        checked = 0
        for r in rows:
            wp = float(r["omega_p"])
            L, T = float(r["L"]), float(r["T"])
            if T > cls.LAW_T * wp:
                continue
            checked += 1
            f_te, ratio = reference.thickness_laws(wp, L, T)
            got_te = float(r["F_L_TE"])
            got_ratio = float(r["F_L_TM"]) / got_te
            # Beyond the series: O(T^4) for TE, O(T^3) for the ratio,
            # both below 2e-3 at T <= 1e-2 omega_p for omega_p L >= 0.5.
            if not _close(got_te, f_te, 5e-3):
                bad.append(f"slab L={L} T={T}: F_L_TE {got_te!r} misses its "
                           f"low-T law {f_te!r}")
            if not _close(got_ratio, ratio, 1e-2):
                bad.append(f"slab L={L} T={T}: F_L_TM/F_L_TE {got_ratio!r} "
                           f"misses its low-T series {ratio!r}")
        if not checked:
            bad.append(f"no slab row at T <= {cls.LAW_T} omega_p")
        return bad

    @classmethod
    def check_references(cls, rows, refs: list) -> list[str]:
        bad = []
        columns = (("F_s_TE_subtr", "te-surface-F"),
                   ("S_s_TE_subtr", "te-surface-S"),
                   ("F_L_TE", "te-thickness-F"),
                   ("S_L_TE", "te-thickness-S"))
        for r in rows:
            wp, L, T = (float(r[c]) for c in ("omega_p", "L", "T"))
            if T > cls.REF_T * wp:
                continue
            for col, name in columns:
                ref = reference.SLAB_REFERENCES[name](wp, L, T)
                refs.append({"value": ref,
                             "command": reference.command(name, wp, L, T)})
                if not _close(float(r[col]), ref, 1e-7, 1e-14):
                    bad.append(f"slab L={L} T={T}: {col} {r[col]} != "
                               f"mpmath {ref!r}")
        return bad

    @staticmethod
    def check_entropy_sign(rows) -> list[str]:
        if any(float(r["S_total"]) < 0.0 for r in rows):
            return []
        return ["slab S_total is nonnegative on every row; the slab's "
                "entropy is negative at T >= omega_p"]


# ---------------------------------------------------------------------------
# sheet-scan
# ---------------------------------------------------------------------------

class SheetScan:
    """``thermo scan`` for the charged fluid and across the window in omega0."""

    name = "sheet-scan"
    OMEGA0_CAP = 1.0     # Omega0
    W0, W_STEP, N_W = 0.5, 0.1, 10
    TMIN, TMAX, N_T = 1e-2, 1e3, 41
    # omega0 well inside the window (Omega0/sqrt(2), sqrt(3/2) Omega0),
    # where S_total is negative at some T <= 1e3.
    INSIDE = (0.78, 1.12)
    # Each grid moves by (i + 1/2) / SHIFTS of a step, i drawn from the
    # seed.  A continuous shift put omega0 = 0.5435269975350088 next to
    # T = 0.013818998899930629, where the program's TM entropy quadrature
    # fails (see CHANGES.md); every one of these SHIFTS^2 grids runs
    # without a failure.
    SHIFTS = 4

    def commands(self, seed: int) -> list[Command]:
        rng = random.Random(seed)
        i_t, i_w = rng.randrange(self.SHIFTS), rng.randrange(self.SHIFTS)
        return self.grid_commands((i_t + 0.5) / self.SHIFTS,
                                  (i_w + 0.5) / self.SHIFTS)

    def grid_commands(self, u_t: float, u_w: float) -> list[Command]:
        """The commands for grids moved by u_t and u_w of a step."""
        targs, grid = shifted_log_grid(self.TMIN, self.TMAX, self.N_T, u_t)
        a = self.W0 + u_w * self.W_STEP
        b = a + (self.N_W - 1) * self.W_STEP
        omegas = [float(x) for x in np.linspace(a, b, self.N_W)]
        common = ["--Omega0", repr(self.OMEGA0_CAP), *targs, "--jobs", "1"]
        return [
            Command("fluid", ["scan", "--omega0", "0.0", *common,
                              "--out", "fluid.csv"],
                    ops=self.N_T, out="fluid.csv",
                    params={"omegas": [0.0], "grid": grid}),
            Command("window", ["scan", "--omega0", f"{a!r}:{b!r}:{self.N_W}",
                               *common, "--out", "window.csv"],
                    ops=self.N_W * self.N_T, out="window.csv",
                    params={"omegas": omegas, "grid": grid}),
        ]

    def failed_ops(self, outputs: dict[str, Output]) -> int:
        return self.N_T * sum(_failed_rows(o) for o in outputs.values())

    def check(self, commands, outputs, refs: list) -> list[str]:
        bad = []
        rows = {}
        for cmd in commands:
            got = outputs[cmd.label].rows()
            want = cmd.params["omegas"]
            if len(got) != len(want) or not all(
                    _close(float(r["omega0"]), w, 1e-11, 1e-300)
                    for r, w in zip(got, want)):
                bad.append(f"scan {cmd.label}: omega0 column is not {want}")
            rows[cmd.label] = _ok_rows(got)
        grid = commands[0].params["grid"]
        bad += self.check_log_coefficient(rows["fluid"] + rows["window"])
        bad += self.check_t_at_min(rows["fluid"] + rows["window"], grid)
        bad += self.check_signs(rows["fluid"], rows["window"])
        return bad

    @staticmethod
    def check_log_coefficient(rows) -> list[str]:
        bad = []
        for r in rows:
            want = reference.sheet_log_coefficient(float(r["Omega0"]),
                                                   float(r["omega0"]))
            # The program integrates the channel sum rules to ~1e-11.
            if not _close(float(r["c_logT"]), want, 1e-7, 1e-9):
                bad.append(f"scan omega0={r['omega0']}: c_logT {r['c_logT']}"
                           f" != closed form {want!r}")
        return bad

    @staticmethod
    def check_t_at_min(rows, grid) -> list[str]:
        return [f"scan omega0={r['omega0']}: T_at_min {r['T_at_min']} is "
                "not on the T grid" for r in rows
                if not any(_close(float(r["T_at_min"]), t, 1e-11)
                           for t in grid)]

    @classmethod
    def check_signs(cls, fluid, window) -> list[str]:
        bad = [f"scan charged fluid: S_total_min {r['S_total_min']} < 0"
               for r in fluid if float(r["S_total_min"]) < 0.0]
        lo, hi = cls.INSIDE
        inside = [r for r in window if lo <= float(r["omega0"]) <= hi]
        if not inside:
            bad.append(f"scan: no omega0 in [{lo}, {hi}]")
        bad += [f"scan omega0={r['omega0']}: S_total_min "
                f"{r['S_total_min']} >= 0 inside the window"
                for r in inside if float(r["S_total_min"]) >= 0.0]
        return bad


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    """``thermo verify`` with all five suites; one operation per check."""

    name = "verify-all"

    def __init__(self, suites=SUITES):
        self.suites = tuple(suites)

    def commands(self, seed: int) -> list[Command]:
        # Nothing in the suites takes a grid, so the seed changes nothing.
        args = ["verify"] if self.suites == SUITES else ["verify",
                                                          *self.suites]
        return [Command("verify", args, ops=None, out=None)]

    @staticmethod
    def count_ops(out: Output) -> int:
        return len(out.stdout.splitlines())

    def failed_ops(self, outputs: dict[str, Output]) -> int:
        return 0

    def check(self, commands, outputs, refs: list) -> list[str]:
        out = outputs["verify"]
        bad = []
        if out.rc != 0:
            bad.append(f"thermo verify exited with status {out.rc}")
        seen = {s: 0 for s in self.suites}
        for line in out.stdout.decode().splitlines():
            rec = json.loads(line)
            if rec.get("suite") not in seen:
                bad.append(f"verify: unexpected suite in {line}")
                continue
            seen[rec["suite"]] += 1
            if rec.get("pass") is not True:
                bad.append(f"verify: check failed: {line}")
        bad += [f"verify: suite {s} returned no checks"
                for s, n in seen.items() if n == 0]
        return bad


WORKLOADS = {w.name: w for w in (SlabSweep(), SheetScan(), VerifyAll())}
