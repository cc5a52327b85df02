"""Spans and counts for a traced ``thermo`` run, recorded from outside.

``install`` wraps the public functions of each ``artifact`` module (by
replacing the module attribute, so calls made through the module's own
globals are seen too) and returns a ``Recorder``.  Each wrapped call
records one span: name, start, end, parent span and, for quadratures, the
integrand evaluations that ``QuadResult`` reports.  Quadratures are
counted under the name each module imported (``slab.integrate_finite``
and so on), so the call that ``integrate_semiinf`` makes to
``integrate_finite`` inside ``numkernel`` is not counted twice.  The
sheet's subtracted density ``plasma_sheet.h_subtr`` runs millions of
times, so it is counted, not spanned.

Spans stay in memory and are written once, at the end (``Recorder.dump``).
``layer_metrics`` turns them into the per-layer metrics of ``PER_LAYER``;
a layer's self time is its span minus the time covered by its children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter

SLAB_PARTS = ("s_TE", "s_TM", "L_TE", "L_TM", "exp")
SHEET_PARTS = ("TE", "TM", "sf")
SUITES = ("oracle", "asymptotics", "constants", "thermo-identity", "nernst")
LAYERS = ("numkernel", "slab", "plasma_sheet", "spectral", "verification",
          "cli")
# slab.L_TM.<band>.s splits the thickness TM time by T / omega_p.
LTM_BANDS = (("lowT", 0.0, 0.1), ("midT", 0.1, 10.0),
             ("highT", 10.0, float("inf")))
QUAD = "numkernel.quad"


def _per_layer() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better)."""
    m = {
        "numkernel.quad_calls": ("count", "lower"),
        "numkernel.integrand_evals": ("count", "lower"),
        "numkernel.evals_per_call": ("evals/call", "lower"),
        "numkernel.inner_quad_calls": ("count", "lower"),
        "numkernel.inner_integrand_evals": ("count", "lower"),
        "slab.total.s_median": ("s", "lower"),
    }
    for part in SLAB_PARTS:
        for q in "FS":
            m[f"slab.{part}.{q}.s"] = ("s", "lower")
            m[f"slab.{part}.{q}.evals"] = ("count", "lower")
    for band, _, _ in LTM_BANDS:
        m[f"slab.L_TM.{band}.s"] = ("s", "lower")
    m["slab.h_L.calls"] = ("count", "lower")
    m["slab.h_L.s"] = ("s", "lower")
    m["slab.validation.s"] = ("s", "lower")
    m["plasma_sheet.total.s_median"] = ("s", "lower")
    for part in SHEET_PARTS:
        for q in "FS":
            m[f"plasma_sheet.{part}.{q}.s"] = ("s", "lower")
            m[f"plasma_sheet.{part}.{q}.evals"] = ("count", "lower")
    m["plasma_sheet.h_subtr.calls"] = ("count", "lower")
    m["plasma_sheet.useful_evals_ratio"] = ("ratio", "higher")
    m["spectral.defining.s"] = ("s", "lower")
    m["spectral.defining.evals"] = ("count", "lower")
    for suite in SUITES:
        m[f"verification.{suite}.s"] = ("s", "lower")
        m[f"verification.{suite}.evals"] = ("count", "lower")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ("s", "lower")
    m["trace.overhead_s"] = ("s", "lower")
    return m


PER_LAYER = _per_layer()


class Recorder:
    """In-memory spans ``[name, start, end, parent, evals, tag]`` and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name_of, quad: bool = False) -> None:
        """Replace ``module.attr`` by a version that records a span per call.

        ``name_of(args, kwargs)`` returns the span's ``(name, tag)``.
        """
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            name, tag = name_of(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, tag]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if quad:
                span[4] = out.evaluations
            return out

        setattr(module, attr, traced)

    def count(self, module, attr: str, name: str) -> None:
        """Replace ``module.attr`` by a version that only counts calls."""
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _fixed(name, tag=None):
    return lambda args, kwargs: (name, tag)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _slab_part(part, q):
    # Slab part functions take (T, params, ...); the tag is T / omega_p.
    def name_of(args, kwargs):
        T = _arg(args, kwargs, 0, "T")
        return (f"slab.{part}.{q}",
                T / _arg(args, kwargs, 1, "params").omega_p)
    return name_of


def _slab_thickness_entropy(args, kwargs):
    ch = _arg(args, kwargs, 0, "ch")
    T = _arg(args, kwargs, 1, "T")
    return (f"slab.L_{ch}.S", T / _arg(args, kwargs, 2, "params").omega_p)


def _sheet_channel(q):
    return lambda args, kwargs: (
        f"plasma_sheet.{_arg(args, kwargs, 0, 'ch')}.{q}", None)


def install() -> Recorder:
    """Wrap the public functions of every ``artifact`` module."""
    from artifact import cli, plasma_sheet, slab, spectral, verification

    rec = Recorder()
    rec.wrap(cli, "main", _fixed("cli.main"))
    for mod in (slab, plasma_sheet, spectral, verification):
        importer = mod.__name__.rsplit(".", 1)[-1]
        for attr in ("integrate_finite", "integrate_semiinf"):
            if hasattr(mod, attr):
                rec.wrap(mod, attr, _fixed(QUAD, importer), quad=True)

    rec.wrap(slab, "total", _fixed("slab.total"))
    for part, F, S in (("s_TE", "F_s_TE", "S_s_TE"),
                       ("s_TM", "F_s_TM", "S_s_TM"),
                       ("exp", "F_exp_subtr", "S_exp_subtr")):
        rec.wrap(slab, F, _slab_part(part, "F"))
        rec.wrap(slab, S, _slab_part(part, "S"))
    rec.wrap(slab, "F_L_TE", _slab_part("L_TE", "F"))
    rec.wrap(slab, "F_L_TM", _slab_part("L_TM", "F"))
    rec.wrap(slab, "S_L", _slab_thickness_entropy)
    rec.wrap(slab, "h_L", _fixed("slab.h_L"))
    rec.wrap(slab, "validate_surface_weight", _fixed("slab.validation"))
    rec.wrap(slab, "validate_exp_part", _fixed("slab.validation"))

    rec.wrap(plasma_sheet, "total", _fixed("plasma_sheet.total"))
    rec.wrap(plasma_sheet, "free_energy_channel", _sheet_channel("F"))
    rec.wrap(plasma_sheet, "entropy_channel", _sheet_channel("S"))
    rec.wrap(plasma_sheet, "plasmon_free_energy_subtr",
             _fixed("plasma_sheet.sf.F"))
    rec.wrap(plasma_sheet, "plasmon_entropy_subtr",
             _fixed("plasma_sheet.sf.S"))
    rec.wrap(plasma_sheet, "high_T_log_coefficient",
             _fixed("plasma_sheet.c_logT"))
    rec.count(plasma_sheet, "h_subtr", "plasma_sheet.h_subtr")

    rec.wrap(spectral, "free_energy_defining", _fixed("spectral.defining"))
    rec.wrap(spectral, "entropy_defining", _fixed("spectral.defining"))

    rec.wrap(verification, "run_suite", lambda a, k: (
        f"verification.{_arg(a, k, 0, 'suite')}", None))
    return rec


def layer_metrics(spans: list[list], counts: dict,
                  f_columns_written: bool) -> dict[str, float]:
    """Per-layer metrics of one traced command (overhead excluded).

    ``f_columns_written`` says whether the command writes the sheet's
    free energies; when it does not (``thermo scan``), the sheet
    evaluations made under a free-energy span are counted as not useful.
    """
    n = len(spans)
    child_time = [0.0] * n
    sub_evals = [0] * n
    for i in range(n - 1, -1, -1):
        name, t0, t1, parent, evals, _ = spans[i]
        sub_evals[i] += evals
        if parent >= 0:
            child_time[parent] += t1 - t0
            sub_evals[parent] += sub_evals[i]
    in_quad = [False] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        if parent >= 0:
            in_quad[i] = spans[parent][0] == QUAD or in_quad[parent]

    m = {name: 0.0 for name in PER_LAYER}
    per_call = {"slab.total": [], "plasma_sheet.total": []}
    sheet_evals = sheet_f_evals = 0
    under_sheet_f = [False] * n
    for i, (name, t0, t1, parent, evals, tag) in enumerate(spans):
        dur = t1 - t0
        if name in per_call:
            per_call[name].append(dur)
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_s"] += dur - child_time[i]
        if parent >= 0:
            under_sheet_f[i] = under_sheet_f[parent]
        if name.startswith("plasma_sheet.") and name.endswith(".F"):
            under_sheet_f[i] = True
        if name == QUAD:
            m["numkernel.quad_calls"] += 1
            m["numkernel.integrand_evals"] += evals
            if in_quad[i]:
                m["numkernel.inner_quad_calls"] += 1
                m["numkernel.inner_integrand_evals"] += evals
            if tag == "plasma_sheet":
                sheet_evals += evals
                sheet_f_evals += evals if under_sheet_f[i] else 0
            continue
        key_s, key_e = f"{name}.s", f"{name}.evals"
        if key_s in m:
            m[key_s] += dur
        if key_e in m:
            m[key_e] += sub_evals[i]
        if name in ("slab.L_TM.F", "slab.L_TM.S"):
            for band, lo, hi in LTM_BANDS:
                if lo <= tag < hi:
                    m[f"slab.L_TM.{band}.s"] += dur
        elif name == "slab.h_L":
            m["slab.h_L.calls"] += 1

    for name, durs in per_call.items():
        if durs:
            m[f"{name}.s_median"] = statistics.median(durs)
    if m["numkernel.quad_calls"]:
        m["numkernel.evals_per_call"] = (m["numkernel.integrand_evals"]
                                         / m["numkernel.quad_calls"])
    if sheet_evals:
        wasted = 0 if f_columns_written else sheet_f_evals
        m["plasma_sheet.useful_evals_ratio"] = 1.0 - wasted / sheet_evals
    m["plasma_sheet.h_subtr.calls"] = counts.get("plasma_sheet.h_subtr", 0)
    return m
