"""Command line front end: temperature sweeps, scans, and verification.

Subcommands
-----------
``thermo sheet``
    Sweep the sheet model over parameters and a log temperature grid and
    write one CSV row per (parameter point, T) with subtracted per-part
    free energies and entropies.
``thermo slab``
    Same for the slab model; optionally writes the surface-plasmon
    dispersion to a separate CSV (the dispersion is reported only, it is
    not part of the thermodynamic totals).
``thermo scan``
    Scan the sheet resonance frequency for the negative-entropy window:
    per omega0, the high-T log coefficient and the minimum of S_total
    over the T grid.
``thermo verify``
    Run acceptance-check suites; JSON lines on stdout, human summary on
    stderr, exit status 1 if any check fails.

All numeric output is formatted with 12 significant digits and repeat
runs with identical flags produce bit-identical files.  Each flag's
argparse converter checks its value.  A ``--config`` JSON file may hold
any long-flag values, each parsed as that flag typed right after the
subcommand, so explicit flags win.  A config file that cannot be read, is
not a JSON object, has a key that names no long flag or a value that is
not a JSON string or number is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import plasma_sheet, slab, verification
from .numkernel import QuadratureError, QuadSettings
from .spectral import ThermoPoint

__all__ = ["main"]


def _header(params, module):
    cols = tuple(c for part in module.PARTS for c in part.columns)
    return (*params, "T", *cols, "F_total", "S_total", "quad_error")


SHEET_HEADER = _header(("Omega0", "omega0"), plasma_sheet)
SLAB_HEADER = _header(("omega_p", "L"), slab)
SCAN_HEADER = ("Omega0", "omega0", "c_logT", "S_total_min", "T_at_min",
               "quad_error")
PLASMON_HEADER = ("omega_p", "L", "k", "omega_sf", "residual",
                  "included_in_totals")

# model -> (module with a PARTS table, parameter record, CSV header)
_MODELS = {
    "sheet": (plasma_sheet, plasma_sheet.SheetParams, SHEET_HEADER),
    "slab": (slab, slab.SlabParams, SLAB_HEADER),
}


def _fmt(x):
    if isinstance(x, str):
        return x
    if not math.isfinite(x):
        return "nan"
    return format(x, ".12e")


def _finite(text):
    """Converter of a flag that takes a finite float."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")


def _count(text):
    """Converter of a flag that takes an integer of at least 1."""
    with contextlib.suppress(ValueError):
        if (n := int(text)) >= 1:
            return n
    raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")


def _range(text):
    """Converter of "V" or "MIN:MAX:STEPS[:log]" into a tuple of floats."""
    parts = text.split(":")
    with contextlib.suppress(ValueError):
        if len(parts) == 1:
            return (float(parts[0]),)
        if len(parts) in (3, 4):
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            if n >= 1 and lo <= hi and (
                    len(parts) == 3 or (parts[3] == "log" and lo > 0.0)):
                space = np.linspace if len(parts) == 3 else np.geomspace
                return tuple(space(lo, hi, n))
    raise argparse.ArgumentTypeError(
        f"bad range {text!r} (want V or MIN:MAX:STEPS[:log])")


def _groups(module):
    """Converter of ``--parts``: a comma list of the model's part groups."""
    valid = tuple(dict.fromkeys(part.group for part in module.PARTS))

    def parse(text):
        parts = tuple(p.strip() for p in text.split(",") if p.strip())
        if not parts or not set(parts) <= set(valid):
            raise argparse.ArgumentTypeError(
                f"want a comma list from {','.join(valid)}, got {text!r}")
        return parts
    return parse


def _quad_settings(args, parser):
    """The command's one ``QuadSettings``; tolerances must be
    non-negative and not both zero."""
    try:
        return QuadSettings(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    except ValueError as exc:
        parser.error(f"bad tolerances: {exc}")


def _temperature_grid(args, parser):
    if args.tmin <= 0.0 or args.tmax < args.tmin:
        parser.error("temperature grid requires 0 < tmin <= tmax")
    if args.tmin == args.tmax:
        return (args.tmin,)
    decades = math.log10(args.tmax / args.tmin)
    n = int(round(args.tpts * decades)) + 1
    if n < 2:
        parser.error("empty temperature grid (raise --tpts)")
    return tuple(np.geomspace(args.tmin, args.tmax, n))


def _check_params(make, pairs, parser):
    """Build every parameter record before any work; bad values exit 2."""
    try:
        for a, b in pairs:
            make(a, b)
    except ValueError as exc:
        parser.error(str(exc))


# ---------------------------------------------------------------------------
# row workers (module level so they pickle for --jobs)
# ---------------------------------------------------------------------------

# A sweep's tasks hold at most this many temperatures of one parameter
# point, so that ``--jobs`` splits a one-point sweep: the fewest
# consecutive blocks, their sizes within one of each other.  The split
# does not depend on ``--jobs``.  The default grid's 33 temperatures in
# three tasks against one (min of 8 to 20 interleaved runs on a 2-core
# VM): sheet 2.7 against 1.6 ms, slab 63 against 85 ms, since L_TM's
# propagating pass runs every column to its largest temperature's cut.
_TASK_BLOCK = 16


def _part_rows(task):
    """The CSV rows of ``thermo sheet`` or ``thermo slab`` at one parameter
    point and a block of its temperatures, one per temperature.

    Each part runs once over the block.  Should that raise
    ``QuadratureError``, each temperature runs alone, so that only the rows
    that fail read ``failed``.  Totals are written only when every part is
    selected; a partial total would be misleading.  ``quad_error`` is the
    largest error estimate of the selected parts at the row's temperature
    (``ThermoPoint.quad_error``).
    """
    model, a, b, t_grid, settings, groups = task
    module, params_type, header = _MODELS[model]
    params = params_type(a, b)
    selected = tuple(p for p in module.PARTS if p.group in groups)

    def cells(T):
        # The value columns and quad_error, each a float or an array over T.
        vals = dict.fromkeys(header[3:-1], math.nan)
        if selected == module.PARTS:
            point = module.total(T, params, settings)
            vals.update(F_total=point.F_total, S_total=point.S_total)
        else:
            point = ThermoPoint.evaluate(selected, T, params, settings)
        for part, F, S in zip(selected, point.F, point.S):
            vals.update(zip(part.columns, (F, S)))
        return [*vals.values(), point.quad_error]

    def row(T, values):
        return [_fmt(a), _fmt(b), _fmt(T), *map(_fmt, values)]

    def alone(T):
        try:
            return row(T, cells(T))
        except QuadratureError:
            return row(T, [math.nan] * (len(header) - 4) + ["failed"])

    try:
        columns = cells(np.asarray(t_grid))
    except QuadratureError:
        return [alone(T) for T in t_grid]
    columns = [np.broadcast_to(c, len(t_grid)) for c in columns]
    return [row(T, [float(c[i]) for c in columns])
            for i, T in enumerate(t_grid)]


def _scan_row(task):
    """One CSV row of ``thermo scan``: ``c_logT`` from its closed form,
    S over the T grid, and as ``quad_error`` the parts' largest error
    estimate (``ThermoPoint.quad_error``)."""
    Omega0, omega0, t_grid, settings = task
    params = plasma_sheet.SheetParams(Omega0=Omega0, omega0=omega0)
    try:
        point = plasma_sheet.total(np.asarray(t_grid), params, settings)
        i = int(np.argmin(point.S_total))  # the first minimum
        return [_fmt(Omega0), _fmt(omega0),
                _fmt(plasma_sheet.high_T_log_coefficient_closed(params)),
                _fmt(float(point.S_total[i])), _fmt(t_grid[i]),
                _fmt(float(np.max(point.quad_error)))]
    except QuadratureError:
        return [_fmt(Omega0), _fmt(omega0), "nan", "nan", "nan", "failed"]


def _plasmon_row(task):
    omega_p, L, k = task
    params = slab.SlabParams(omega_p=omega_p, L=L)
    try:
        w = slab.plasmon_dispersion(k, params)
        res = slab.plasmon_mode_residual(w, k, params)
        return [_fmt(omega_p), _fmt(L), _fmt(k), _fmt(w), _fmt(res), "no"]
    except QuadratureError:
        return [_fmt(omega_p), _fmt(L), _fmt(k), "nan", "nan", "no"]


def _run_tasks(worker, tasks, jobs):
    if jobs <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=1))


def _write_csv(path, header, rows):
    with (contextlib.nullcontext(sys.stdout) if path == "-"
          else open(path, "w", newline="")) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _note(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommand drivers
# ---------------------------------------------------------------------------

def _sweep(model, args, parser, firsts, seconds):
    """Write the CSV of a sheet or slab sweep over the grids of the
    model's two parameters, in the order of its parameter record."""
    _, params_type, header = _MODELS[model]
    settings = _quad_settings(args, parser)
    t_grid = _temperature_grid(args, parser)
    _check_params(params_type, [(a, b) for a in firsts for b in seconds],
                  parser)
    tasks = [(model, a, b, tuple(block), settings, args.parts)
             for a in firsts for b in seconds
             for block in np.array_split(
                 t_grid, max(1, -(-len(t_grid) // _TASK_BLOCK)))]
    rows = [row for block in _run_tasks(_part_rows, tasks, args.jobs)
            for row in block]
    _write_csv(args.out, header, rows)
    s = args.scale
    _note(f"{model} sweep: {len(rows)} rows "
          f"({len(firsts)} x {len(seconds)} parameter points, "
          f"{len(t_grid)} temperatures, "
          f"T in [{t_grid[0] * s:g}, {t_grid[-1] * s:g}])")


def _cmd_sheet(args, parser):
    _sweep("sheet", args, parser, args.Omega0, args.omega0)
    return 0


def _cmd_slab(args, parser):
    if args.plasmon_out and not 0.0 < args.kmin <= args.kmax:
        parser.error("plasmon grid requires 0 < kmin <= kmax")
    _sweep("slab", args, parser, args.omegap, args.L)
    if args.plasmon_out:
        k_grid = (np.geomspace(args.kmin, args.kmax, args.kpts)
                  if args.kpts > 1 else np.array([args.kmin]))
        ptasks = [(wp, L, float(k))
                  for wp in args.omegap for L in args.L for k in k_grid]
        prows = _run_tasks(_plasmon_row, ptasks, args.jobs)
        _write_csv(args.plasmon_out, PLASMON_HEADER, prows)
        _note("plasmon dispersion written: NOT included in the "
              "thermodynamic totals (reported for reference only)")
    return 0


def _cmd_scan(args, parser):
    settings = _quad_settings(args, parser)
    t_grid = _temperature_grid(args, parser)
    omegas0, Omega0 = args.omega0, args.Omega0
    _check_params(plasma_sheet.SheetParams, [(Omega0, w) for w in omegas0],
                  parser)
    tasks = [(Omega0, w0, t_grid, settings) for w0 in omegas0]
    rows = _run_tasks(_scan_row, tasks, args.jobs)
    _write_csv(args.out, SCAN_HEADER, rows)

    # The notes give frequencies in units of --scale, as the sweeps do.
    s = args.scale
    neg_c = [float(r[1]) * s for r in rows
             if r[2] != "nan" and float(r[2]) < 0.0]
    neg_s = [float(r[1]) * s for r in rows
             if r[3] != "nan" and float(r[3]) < 0.0]
    if neg_c:
        _note(f"high-T log coefficient negative for omega0 in "
              f"[{min(neg_c):g}, {max(neg_c):g}] "
              f"(expected window starts at Omega0/sqrt(2) ~ "
              f"{Omega0 * s / math.sqrt(2.0):.6g})")
    else:
        _note("high-T log coefficient nonnegative over the scanned range")
    if neg_s:
        _note(f"S_total < 0 found for omega0 in "
              f"[{min(neg_s):g}, {max(neg_s):g}] "
              f"({len(neg_s)} of {len(rows)} scanned points)")
    else:
        _note("S_total >= 0 at every scanned point")
    return 0


def _cmd_verify(args, parser):
    suites = args.suites or ["all"]
    for s in suites:
        if s != "all" and s not in verification.SUITES:
            parser.error(f"unknown suite {s!r}; valid: "
                         f"{', '.join(verification.SUITES)}, all")
    if "all" in suites:
        suites = list(verification.SUITES)
    settings = _quad_settings(args, parser)
    results = []
    for suite in suites:
        results.extend(verification.run_suite(suite, settings))
    for r in results:
        measured = r.measured if math.isfinite(r.measured) else "nan"
        expected = r.expected
        if isinstance(expected, float) and not math.isfinite(expected):
            expected = "nan"
        print(json.dumps({"suite": r.suite, "check": r.check,
                          "expected": expected, "measured": measured,
                          "tolerance": r.tolerance, "pass": r.passed},
                         allow_nan=False))
    _note(verification.summarize(results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def _add_tolerances(sub):
    sub.add_argument("--rel-tol", type=_finite, default=1e-9,
                     dest="rel_tol", help="quadrature relative tolerance")
    sub.add_argument("--abs-tol", type=_finite, default=1e-12,
                     dest="abs_tol", help="quadrature absolute tolerance")
    sub.add_argument("--config", default=None,
                     help="JSON file of flag defaults (explicit flags win)")


def _add_common(sub):
    sub.add_argument("--tmin", type=_finite, default=1e-2,
                     help="lowest temperature (default 1e-2)")
    sub.add_argument("--tmax", type=_finite, default=1e2,
                     help="highest temperature (default 1e2)")
    sub.add_argument("--tpts", type=_finite, default=8.0,
                     help="temperature points per decade, log grid")
    sub.add_argument("--out", default="-",
                     help="output CSV path, '-' for stdout")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1)")
    _add_tolerances(sub)
    sub.add_argument("--scale", type=float, default=1.0,
                     help="frequency unit for labels only; never enters "
                          "the computation")


def _build_parser():
    """The ``thermo`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="thermo",
        description="Finite-temperature Casimir free energy and entropy "
                    "for a plasma sheet and a dielectric slab.")
    subs = parser.add_subparsers(dest="command", required=True)

    sheet = subs.add_parser("sheet", help="sweep the sheet model")
    sheet.add_argument("--Omega0", type=_range, default="1.0",
                       help="plasma strength, value or MIN:MAX:STEPS[:log]")
    sheet.add_argument("--omega0", type=_range, default="0.0",
                       help="resonance frequency, value or range")
    sheet.add_argument("--parts", type=_groups(plasma_sheet),
                       default="TE,TM,sf",
                       help="comma list from {TE,TM,sf}")
    _add_common(sheet)
    sheet.set_defaults(driver=_cmd_sheet)

    slab_p = subs.add_parser("slab", help="sweep the slab model")
    slab_p.add_argument("--omegap", type=_range, default="1.0",
                        help="plasma frequency, value or range")
    slab_p.add_argument("--L", type=_range, default="1.0",
                        help="slab thickness, value or range")
    slab_p.add_argument("--parts", type=_groups(slab), default="s,L,exp",
                        help="comma list from {s,L,exp}")
    slab_p.add_argument("--plasmon-out", default=None, dest="plasmon_out",
                        help="also write the (k, omega_sf) dispersion CSV "
                             "(not part of the totals)")
    slab_p.add_argument("--kmin", type=_finite, default=0.1)
    slab_p.add_argument("--kmax", type=_finite, default=10.0)
    slab_p.add_argument("--kpts", type=_count, default=64)
    _add_common(slab_p)
    slab_p.set_defaults(driver=_cmd_slab)

    scan = subs.add_parser("scan",
                           help="scan omega0 for the negative-entropy window")
    scan.add_argument("--Omega0", type=_finite, default=1.0)
    scan.add_argument("--omega0", type=_range, default="0.6:0.95:71",
                      help="omega0 range (default 0.6:0.95:71)")
    _add_common(scan)
    scan.set_defaults(tmax=1e3, tpts=32.0, driver=_cmd_scan)

    verify = subs.add_parser("verify", help="run acceptance-check suites")
    verify.add_argument("suites", nargs="*",
                        help="suites to run from {%s, all} (default: all)"
                             % ", ".join(verification.SUITES))
    _add_tolerances(verify)
    verify.set_defaults(driver=_cmd_verify)
    return parser, subs.choices


def _config_tokens(argv, parser, commands):
    """The ``--config`` file's values as ``--flag=value`` tokens of the
    subcommand ``argv[0]``.

    Placed right after the subcommand, each value meets its flag's own
    converter, and explicit flags, later in argv, win.  Keys are long-flag
    destinations (``rel_tol`` for ``--rel-tol``); keys of another
    subcommand's flags are skipped.  A missing file, invalid JSON, a
    non-object, an unknown key or a value that is not a JSON string or
    number exits 2.
    """
    pre = argparse.ArgumentParser(prog="thermo", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"--config {path} must hold a JSON object")
    flags = {cmd: {a.dest: a.option_strings[0] for a in sub._actions
                   if a.option_strings and a.dest != "help"}
             for cmd, sub in commands.items()}
    unknown = sorted(set(cfg).difference(*flags.values()))
    if unknown:
        parser.error(f"unknown keys in --config {path}: {', '.join(unknown)}")
    for key, value in cfg.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            parser.error(f"--config {path}: {key} must be a JSON string or "
                         f"number, got {json.dumps(value)}")
    own = flags.get(argv[0], {})
    return [f"{own[key]}={value}" for key, value in cfg.items() if key in own]


def main(argv=None):
    """Entry point for the ``thermo`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    argv[1:1] = _config_tokens(argv, parser, commands)
    args = parser.parse_args(argv)
    return args.driver(args, parser)


if __name__ == "__main__":
    sys.exit(main())
