"""Channel-level representation: defining integrals, subtractions,
heat-kernel map."""

import ast
import inspect
import itertools
import math
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

import artifact
from artifact import cli, numkernel, plasma_sheet, slab, spectral, verification
from artifact.numkernel import DEFAULT_SETTINGS, fit_asymptotic
from artifact.spectral import (
    Channel,
    SubtractionSpec,
    heat_kernel_from_expansion,
)


def _central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_channel_names():
    assert Channel.TE == "TE"
    assert Channel.TM == "TM"
    Channel.validate("TE")
    with pytest.raises(ValueError):
        Channel.validate("TEM")


@given(c3=st.floats(min_value=-1.0, max_value=1.0),
       c2=st.floats(min_value=-1.0, max_value=1.0),
       T=st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=40, deadline=None)
def test_subtraction_is_affine_in_raw(c3, c2, T):
    spec = SubtractionSpec(c3=c3, c2=c2)
    raw = 0.37
    assert raw - spec.free_energy(T) == pytest.approx(
        raw - c3 * T ** 3 - c2 * T ** 2, rel=1e-12, abs=1e-12)
    # removing the subtraction from a raw entropy adds the -dF/dT terms
    assert raw - spec.entropy(T) == pytest.approx(
        raw + 3.0 * c3 * T ** 2 + 2.0 * c2 * T, rel=1e-12, abs=1e-12)


def test_subtraction_preserves_thermodynamic_identity():
    # if the raw pair satisfies S = -dF/dT, so must the subtracted pair
    spec = SubtractionSpec(c3=0.7, c2=-0.2)

    def F_raw(T):
        return 0.4 * T ** 4 + spec.c3 * T ** 3 + spec.c2 * T ** 2

    def S_raw(T):
        return -(1.6 * T ** 3 + 3.0 * spec.c3 * T ** 2 + 2.0 * spec.c2 * T)

    for T in (0.5, 2.0, 20.0):
        F_sub = F_raw(T) - spec.free_energy(T)
        S_sub = S_raw(T) - spec.entropy(T)
        slope = _central_difference(
            lambda t: F_raw(t) - spec.free_energy(t), T, 1e-6 * T)
        assert S_sub == pytest.approx(-slope, rel=1e-6)
        assert F_sub == pytest.approx(0.4 * T ** 4, rel=1e-12)


def _expansion_from_heat_kernel(a_half, a_one, a_three_half):
    # The inverse of the dictionary in the ``spectral`` module docstring.
    return (-spectral.ZETA3 * a_half / (4.0 * math.pi ** 1.5),
            -a_one / 24.0,
            -a_three_half / (4.0 * math.pi) ** 1.5)


@given(a_half=st.floats(min_value=-4.0, max_value=4.0),
       a_one=st.floats(min_value=-4.0, max_value=4.0),
       a_three_half=st.floats(min_value=-4.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_heat_kernel_dictionary_round_trip(a_half, a_one, a_three_half):
    c3, c2, c_log = _expansion_from_heat_kernel(a_half, a_one, a_three_half)
    back = heat_kernel_from_expansion(c3, c2, c_log)
    assert back[0] == pytest.approx(a_half, rel=1e-12, abs=1e-12)
    assert back[1] == pytest.approx(a_one, rel=1e-12, abs=1e-12)
    assert back[2] == pytest.approx(a_three_half, rel=1e-12, abs=1e-12)


def test_extract_heat_kernel_recovers_synthetic_coefficients():
    # Samples of known expansions on the sheet's fit grid: fitting them
    # and mapping the fitted coefficients gives back the heat-kernel terms.
    a = {"TE": (1.5, -2.0, 0.0), "TM": (3.0, -0.5, 0.8)}
    basis = ("T3", "T2", "TlogT", "T")
    ts = np.array([100.0 * 10.0 ** (i / 11.0) for i in range(12)])
    for ah, a1, a32 in a.values():
        c3, c2, cl = _expansion_from_heat_kernel(ah, a1, a32)
        ys = c3 * ts ** 3 + c2 * ts ** 2 + cl * ts * np.log(ts) + 0.03 * ts
        fit = fit_asymptotic(list(zip(ts, ys)), basis)
        got = heat_kernel_from_expansion(fit["T3"], fit["T2"], fit["TlogT"])
        assert got[0] == pytest.approx(ah, rel=1e-8)
        assert got[1] == pytest.approx(a1, rel=1e-7)
        assert got[2] == pytest.approx(a32, rel=1e-6, abs=1e-8)
        model = (fit["T3"] * ts ** 3 + fit["T2"] * ts ** 2
                 + fit["TlogT"] * ts * np.log(ts) + fit["T"] * ts)
        assert np.linalg.norm(model - ys) / np.linalg.norm(ys) < 1e-9


def validate_channel_derivative(phase, deriv, points, scale=1.0, tol=1e-5):
    """Worst gap between an analytic d delta/dp and central differences.

    ``phase`` and ``deriv`` are called as f(p, k); the step is
    1e-6 * max(p, scale).  Raises AssertionError where the gap exceeds
    ``tol`` times max(1, |deriv|).
    """
    worst = 0.0
    for p, k in points:
        analytic = deriv(p, k)
        fd = _central_difference(lambda q: phase(q, k), p,
                                 1e-6 * max(p, scale))
        dev = abs(analytic - fd)
        worst = max(worst, dev)
        if dev > tol * max(1.0, abs(analytic)):
            raise AssertionError(
                f"phase-shift derivative mismatch at p={p}, k={k}: "
                f"analytic {analytic:.10e} vs fd {fd:.10e}")
    return worst


def test_validate_channel_derivative_sheet():
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.6)
    pts = [(0.3, 0.5), (1.2, 2.0), (0.05, 0.9), (4.0, 0.1)]
    for name in (Channel.TE, Channel.TM):
        ch = plasma_sheet.scattering_channel(name, params)
        for p, k in pts:
            assert ch.deriv(p, k) == plasma_sheet.phase_shift_deriv(
                name, p, k, params)
        worst = validate_channel_derivative(
            lambda p, k: plasma_sheet.phase_shift(name, p, k, params),
            lambda p, k: plasma_sheet.phase_shift_deriv(name, p, k, params),
            pts, scale=ch.scale)
        assert worst < 1e-5


def test_validate_channel_derivative_catches_wrong_derivative():
    with pytest.raises(AssertionError):
        validate_channel_derivative(lambda p, k: math.atan(p),
                                    lambda p, k: 2.0 / (1.0 + p * p),
                                    [(0.5, 0.5)])


def test_free_energy_defining_matches_sheet_te():
    # TE channel of the sheet at T = 1: the (p, k) double integral must
    # land on the closed-form radial reduction (continuum only; the TE
    # shell weight vanishes at omega0 = 0 anyway).
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)
    ch = plasma_sheet.scattering_channel(Channel.TE, params)
    F_def = spectral.free_energy_defining(ch, 1.0, DEFAULT_SETTINGS)
    F_closed = plasma_sheet.free_energy_channel_raw(
        Channel.TE, 1.0, params, include_shell=False)
    assert F_def == pytest.approx(F_closed, rel=1e-6)


def test_free_energy_defining_sheet_tm_at_tight_tolerance():
    # At these tolerances the 2-D pass (spectral._defining) grades its
    # outer k edges into the kink at k = omega0, and each inner p integral
    # runs on log panels down to p = e^-4 min(k, breakpoints), where the
    # phase keeps omega^2 - omega0^2 = p^2 + (k - omega0)(k + omega0) free
    # of rounding; its summed bound, tails included, must meet 1e-11
    # relative without a QuadratureError.
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.5)
    tight = numkernel.QuadSettings(abs_tol=1e-14, rel_tol=1e-11)
    ch = plasma_sheet.scattering_channel(Channel.TM, params,
                                         include_surface=False)
    F_def = spectral.free_energy_defining(ch, 1.0, tight)
    F_closed = plasma_sheet.free_energy_channel_raw(
        Channel.TM, 1.0, params, tight, include_shell=False)
    assert F_def == pytest.approx(F_closed, rel=1e-10)


def test_entropy_defining_is_minus_dF_dT():
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.0)
    ch = plasma_sheet.scattering_channel(Channel.TE, params)
    S = spectral.entropy_defining(ch, 1.0, DEFAULT_SETTINGS)
    slope = _central_difference(
        lambda T: spectral.free_energy_defining(ch, T, DEFAULT_SETTINGS),
        1.0, 1e-4)
    assert S == pytest.approx(-slope, rel=1e-5)


def _sheet_channel(name, omega0, surface=False):
    return plasma_sheet.scattering_channel(
        name, plasma_sheet.SheetParams(Omega0=1.0, omega0=omega0),
        include_surface=surface)


# Every scattering channel ``thermo verify`` hands to the defining
# integrals ...
_VERIFY_CHANNELS = {
    **{f"sheet-{name}-omega0={w0}": _sheet_channel(name, w0)
       for w0 in (0.0, 0.5) for name in Channel.ALL},
    "sheet-TM+sf": _sheet_channel(Channel.TM, 0.0, True),
    "slab-s_TE": slab.surface_te_channel(slab.SlabParams(1.0, 1.0)),
    "slab-exp": slab.exp_channel(slab.SlabParams(1.0, 1.0)),
}
# ... and every defining integral it reads, as a function of the settings.
_VERIFY_DEFINING = {
    **{name: partial(spectral.free_energy_defining, ch, 1.0)
       for name, ch in _VERIFY_CHANNELS.items() if name != "slab-exp"},
    **{f"slab-exp-T={T}": partial(slab.F_exp_defining, T,
                                  slab.SlabParams(1.0, 1.0))
       for T in (0.1, 1.0, 10.0)},
    "slab-exp-off-unit": partial(slab.F_exp_defining, 2.5,
                                 slab.SlabParams(2.5, 0.06)),
}


@pytest.mark.parametrize("case", sorted(_VERIFY_DEFINING))
def test_defining_integral_meets_its_tolerance(case):
    # The error contract: the value at default settings lies within
    # max(abs_tol, rel_tol |F|) of the same integral run far tighter.
    integral = _VERIFY_DEFINING[case]
    value = integral(DEFAULT_SETTINGS)
    tight = integral(numkernel.QuadSettings(abs_tol=1e-14, rel_tol=1e-11))
    assert abs(value - tight) <= DEFAULT_SETTINGS.tolerance(value)


def test_defining_integral_refuses_a_coarse_inner_grid(monkeypatch):
    # One inner panel per row, however often halved, cannot meet the
    # tolerance: the pass raises instead of returning the value.
    panels = spectral._inner_panels

    def one_panel(ch, T, top, k, level):
        P = panels(ch, T, top, k, 0)[-1]
        edges = P[:, None] * np.linspace(0.0, 1.0, 2 ** level + 1)
        flat = np.zeros_like(edges[:, 1:])
        return edges[:, :-1], edges[:, 1:], flat, flat, flat, P

    monkeypatch.setattr(spectral, "_inner_panels", one_panel)
    with pytest.raises(numkernel.QuadratureError, match="halvings"):
        _VERIFY_DEFINING["sheet-TM-omega0=0.5"](DEFAULT_SETTINGS)


def test_defining_integrals_run_no_quadpack(monkeypatch):
    # The defining integrals run on the panel rules only: with QUADPACK
    # unavailable they still give their values.
    def boom(*args, **kwargs):
        raise AssertionError("QUADPACK called")

    for module in (spectral, slab):
        for name in ("integrate_finite", "integrate_semiinf"):
            monkeypatch.setattr(module, name, boom, raising=False)
    monkeypatch.setattr(scipy.integrate, "quad", boom)
    for case in ("sheet-TE-omega0=0.5", "sheet-TM-omega0=0.5", "sheet-TM+sf",
                 "slab-s_TE", "slab-exp-T=1.0"):
        assert math.isfinite(_VERIFY_DEFINING[case](DEFAULT_SETTINGS)), case


def test_defining_integral_memory_stays_flat():
    # The outer nodes run in chunks, so one call's arrays stay small.
    integral = _VERIFY_DEFINING["sheet-TM-omega0=0.5"]
    integral(DEFAULT_SETTINGS)
    tracemalloc.start()
    try:
        integral(DEFAULT_SETTINGS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("entropy", [False, True], ids=["F", "S"])
@pytest.mark.parametrize("case", sorted(_VERIFY_CHANNELS))
def test_defining_outer_tail_stays_under_its_envelope(case, entropy):
    # Past the outer cut-off K, _defining bounds the outer integrand G by
    # the modulus bound M(K) times (k/K)^2 e^-(k-K)/(3T): an envelope, not
    # a proof, so check it on a grid, k - K from 1e-3 T to 1000 T.
    ch = _VERIFY_CHANNELS[case]
    for T in (0.1, 1.0, 10.0):
        top = max(T, ch.scale)
        K = 2.0 * max([top, *ch.k_breakpoints]) + spectral._CUT * T
        M = spectral._rows(ch, T, entropy, top, np.array([K]), 0,
                           absolute=True)[0, 2]
        k = K + np.geomspace(1e-3 * T, 1e3 * T, 200)
        G = np.concatenate([
            spectral._rows(ch, T, entropy, top, k[i:i + spectral._ROWS], 0)
            for i in range(0, len(k), spectral._ROWS)])[:, 0]
        envelope = M * (k / K) ** 2 * np.exp(-(k - K) / (3.0 * T))
        assert np.all(np.abs(G) <= envelope), T


@pytest.mark.parametrize("case", sorted(_VERIFY_CHANNELS))
def test_defining_p_tail_stays_under_its_bound(case):
    # Past each row's inner cut-off P, _rows bounds |d delta/dp| by its
    # value at _tail_point (P, or the channel's peak past it): check that
    # on 400 rows k in (0, K] and p from P to P + 60 T.
    ch = _VERIFY_CHANNELS[case]
    for T in (0.1, 1.0, 10.0):
        top = max(T, ch.scale)
        K = 2.0 * max([top, *ch.k_breakpoints]) + spectral._CUT * T
        k = np.linspace(K / 400, K, 400)
        P = spectral._inner_panels(ch, T, top, k, 0)[-1]
        bound = np.abs(ch.deriv(spectral._tail_point(ch, P, k), k))
        p = P[:, None] + T * np.linspace(0.0, 60.0, 601)
        scanned = np.abs(ch.deriv(p, k[:, None]))
        assert np.all(scanned <= bound[:, None] * (1.0 + 1e-12)), T


def test_thermo_point_parts():
    params = plasma_sheet.SheetParams(Omega0=1.0, omega0=0.8)
    point = plasma_sheet.total(1.0, params)
    assert point.T == 1.0
    assert point.names == ("TE", "TM", "sf")
    assert point.names == tuple(p.name for p in plasma_sheet.PARTS)
    assert point.part("TE") == (point.F[0], point.S[0])
    assert point.part("sf") == (
        plasma_sheet.plasmon_free_energy_subtr(1.0, params),
        plasma_sheet.plasmon_entropy_subtr(1.0, params))
    with pytest.raises(KeyError):
        point.part("nope")
    # Part.named fails the same way, naming the part and the known ones.
    with pytest.raises(KeyError, match=r"'nope'.*\['TE', 'TM', 'sf'\]"):
        spectral.Part.named(plasma_sheet.PARTS, "nope")
    assert point.F_total == point.F[0] + point.F[1] + point.F[2]
    assert point.S_total == point.S[0] + point.S[1] + point.S[2]


@pytest.mark.parametrize("total, params", [
    (plasma_sheet.total, plasma_sheet.SheetParams(Omega0=2.0, omega0=0.5)),
    (slab.total, slab.SlabParams(omega_p=2.0, L=1.0)),
])
@pytest.mark.parametrize("T, shown", [(-2.0, "-2.0"),
                                      (np.array([1.0, -3.0]), "-3.")])
def test_refused_temperature_is_named_in_the_callers_units(total, params,
                                                           T, shown):
    # Both models run at unit scale, T / 2 here; the message must show the
    # T that was passed, not -1.0 or -1.5.
    with pytest.raises(ValueError, match="temperature") as refused:
        total(T, params)
    assert shown in str(refused.value)


def test_thermo_point_evaluates_parts_in_order():
    calls = []

    def part(name, F, S, errors):
        # An evaluator takes the temperatures as a 1-D array only.
        def run(Ts, params, settings):
            calls.append((name, Ts.tolist(), params, settings))
            return ((np.full_like(Ts, F), np.full_like(Ts, errors[0])),
                    (np.full_like(Ts, S), np.full_like(Ts, errors[1])))
        return spectral.Part(name, name, (f"F_{name}", f"S_{name}"), run)

    parts = (part("a", 1.0, -2.0, (1e-9, 2e-9)),
             part("b", 0.25, 0.5, (3e-9, 5e-10)))
    # The parts see T / s and the unit-scale parameters; F and S come
    # back multiplied by s^3 and s^2, their errors as the parts gave them.
    for s in (1.0, 2.0):
        calls.clear()
        params = SimpleNamespace(reduced=lambda s=s: (s, "p"))
        point = spectral.ThermoPoint.evaluate(parts, 3.0, params,
                                              DEFAULT_SETTINGS)
        t = 3.0 / s
        assert calls == [("a", [t], "p", DEFAULT_SETTINGS),
                         ("b", [t], "p", DEFAULT_SETTINGS)]
        assert point.T == 3.0
        assert point.names == ("a", "b")
        assert point.part("b") == (0.25 * s ** 3, 0.5 * s ** 2)
        assert (point.F_total, point.S_total) == (1.25 * s ** 3,
                                                  -1.5 * s ** 2)
        assert (point.F_error, point.S_error) == ((1e-9, 3e-9),
                                                  (2e-9, 5e-10))
        assert point.quad_error == 3e-9


@pytest.mark.parametrize("module", [artifact, numkernel, spectral,
                                    plasma_sheet, slab, verification, cli],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", [numkernel, spectral, plasma_sheet, slab,
                                    verification, cli],
                         ids=lambda m: m.__name__)
def test_every_import_is_used(module):
    # An imported name counts as used when the module reads it or lists it
    # in __all__; deletions elsewhere otherwise leave stale imports behind.
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(getattr(module, "__all__", ()))
    assert sorted(imported - used) == []


_REPO = Path(__file__).resolve().parents[1]


def _references(path):
    """(owner, name) for every identifier, attribute and whole string read
    in ``path``; owner is the top-level def or class the read sits in.
    ``__all__`` and import lists do not count as reads."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in stmt.targets):
            continue
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                # bench/spans.py wraps functions by their names.
                yield owner, node.value


def test_every_module_level_definition_is_used():
    # A function or class of src/artifact that nothing in src/, tests/ or
    # bench/ names, outside its own definition and __all__, is dead code.
    readers = {}
    for top in ("src", "tests", "bench"):
        for path in (_REPO / top).rglob("*.py"):
            for owner, name in _references(path):
                readers.setdefault(name, set()).add((path, owner))
    unused = []
    for path in sorted((_REPO / "src" / "artifact").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not readers.get(stmt.name, set())
                    - {(path, stmt.name)}):
                unused.append(f"{path.stem}.{stmt.name}")
    assert unused == []


# S = -dF/dT is gated at 1e-4 relative to max(|S|, |S_fd|), as in the
# thermo-identity suite, plus an absolute floor of 1e-9 at unit scale.
# Near a sign change of S (S_s_TM_subtr crosses zero near T = 0.04, and
# S_L_TM dips to 7e-6 near T = 0.22) a relative error means nothing,
# while the difference quotient still carries the quadrature error of F
# over 2h.  On these draws the worst gap is 0.15% of its gate.
_IDENTITY_FLOOR = 1e-9


@given(T=st.floats(0.0, 1.0).map(lambda u: 0.05 * 400.0 ** u))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_entropy_is_minus_dF_dT_at_drawn_points(T):
    # Every part of both models at unit scale, as the thermo-identity
    # suite checks them at fixed temperatures.
    h = 1e-4 * T
    for label, part, params in verification._identity_checks():
        (F_lo, _), (S_lo, _) = part.evaluate(T - h, params, DEFAULT_SETTINGS)
        (F_hi, _), (S_hi, _) = part.evaluate(T + h, params, DEFAULT_SETTINGS)
        s = 0.5 * (S_lo + S_hi)
        s_fd = (F_lo - F_hi) / (2.0 * h)
        gate = 1e-4 * max(abs(s), abs(s_fd)) + _IDENTITY_FLOOR
        assert abs(s - s_fd) <= gate, f"{label} at T={T!r}"


_ARRAY_CASES = [(model, params) for model, kind in ((plasma_sheet,
                                                    plasma_sheet.SheetParams),
                                                   (slab, slab.SlabParams))
                for params in (kind(1.0, 0.606), kind(1.0, 1.0))]


@pytest.mark.parametrize("model, params", _ARRAY_CASES,
                         ids=lambda v: getattr(v, "__name__", repr(v)))
def test_array_and_one_temperature_calls_agree(model, params):
    # Each temperature's F and S from one call over a grid match the
    # one-temperature call: the grid changes the panels, not the result.
    # On the second grid a low temperature shares its call with high ones
    # and still keeps its own thermal weight (the sheet's entropies below
    # T = 1e-4 Omega0 once missed it).
    for Ts in (np.geomspace(0.009, 100.0, 4), np.geomspace(1e-4, 1e3, 5)):
        for part in model.PARTS:
            (F, F_err), (S, S_err) = part.evaluate(Ts, params,
                                                   DEFAULT_SETTINGS)
            assert (F.shape == S.shape == F_err.shape == S_err.shape
                    == Ts.shape)
            for i, T in enumerate(Ts):
                (f, _), (s, _) = part.evaluate(float(T), params,
                                               DEFAULT_SETTINGS)
                assert F[i] == pytest.approx(f, rel=1e-9, abs=1e-300), (
                    part.name, T)
                assert S[i] == pytest.approx(s, rel=1e-9, abs=1e-300), (
                    part.name, T)


@pytest.mark.parametrize("model, params",
                         [(plasma_sheet, plasma_sheet.SheetParams(1.0, 0.8)),
                          (slab, slab.SlabParams(1.0, 1.0))],
                         ids=["sheet", "slab"])
def test_part_run_is_array_only_behind_evaluate(model, params):
    # A record's evaluator takes a 1-D array and returns four float arrays
    # of its shape; evaluate at a float returns Python floats, bit for bit
    # the entries of a one-element call.
    Ts = np.array([0.05, 0.7, 9.0])
    for part in model.PARTS:
        for a in itertools.chain(*part.run(Ts, params, DEFAULT_SETTINGS)):
            assert (isinstance(a, np.ndarray) and a.dtype == float
                    and a.shape == Ts.shape), part.name
        one = part.run(np.array([0.7]), params, DEFAULT_SETTINGS)
        at = part.evaluate(0.7, params, DEFAULT_SETTINGS)
        assert all(type(v) is float for v in itertools.chain(*at))
        assert at == tuple(tuple(float(v[0]) for v in pair) for pair in one)


def test_quad_error_is_per_temperature():
    # Over an array T, quad_error is each temperature's largest part
    # error, not the largest over the grid.
    Ts = np.geomspace(0.01, 100.0, 5)
    point = slab.total(Ts, slab.SlabParams(1.0, 1.0))
    want = np.max(np.stack(point.F_error + point.S_error), axis=0)
    assert np.array_equal(point.quad_error, want)
    assert point.quad_error.shape == Ts.shape
    assert point.quad_error.min() < point.quad_error.max()
    assert isinstance(slab.total(1.0, slab.SlabParams(1.0, 1.0)).quad_error,
                      float)


# The evaluators the PARTS lambdas of each model look up at call time.
_EVALUATORS = ((plasma_sheet, ("_channel", "_plasmon")),
               (slab, ("_surface_te", "_surface_tm", "_thickness_te",
                       "_thickness_tm", "_exp")))


@pytest.mark.parametrize("suite, per_pair", [("thermo-identity", 2),
                                             ("nernst", 1)])
def test_identity_suites_call_each_part_once(monkeypatch, suite, per_pair):
    # One evaluation per (part, parameters) over all of the suite's
    # temperatures, or one per side of the difference quotient: a
    # deterministic gate on the work.
    calls = []
    for module, names in _EVALUATORS:
        for name in names:
            def counted(*args, _evaluate=getattr(module, name), _name=name):
                calls.append(_name)
                return _evaluate(*args)

            monkeypatch.setattr(module, name, counted)
    results = verification.run_suite(suite)
    assert all(r.passed for r in results)
    pairs = list(verification._identity_checks())
    assert len(pairs) == len(results) == 10
    assert len(calls) == per_pair * len(pairs)


def test_thermo_point_passes_each_part_the_whole_array(monkeypatch):
    # A part's work does not grow with the number of its temperatures, so
    # ``total`` hands each part the whole grid in one call: the sheet's at
    # 100 temperatures, the slab's at 33.
    sizes = []
    for module, names in _EVALUATORS:
        for name in names:
            def counted(*args, _evaluate=getattr(module, name)):
                sizes.append(np.size(args[0]))
                return _evaluate(*args)

            monkeypatch.setattr(module, name, counted)
    for model, params, n in ((plasma_sheet, plasma_sheet.SheetParams(1.0, 0.8),
                              100),
                             (slab, slab.SlabParams(1.0, 1.0), 33)):
        Ts = np.geomspace(0.01, 100.0, n)
        sizes.clear()
        point = model.total(Ts, params)
        assert sizes == [n] * len(model.PARTS)
        assert point.S_total.shape == point.quad_error.shape == Ts.shape
        sizes.clear()
        model.total(0.5, params)
        assert sizes == [1] * len(model.PARTS)


# Each part integrated by the panel rule, with the parameters it runs at.
_PANEL_PARTS = ([(plasma_sheet, name, plasma_sheet.SheetParams(1.0, 0.8))
                 for name in ("TE", "TM", "sf")]
                + [(slab, name, slab.SlabParams(1.0, 1.0))
                   for name in ("s_TE", "s_TM", "exp")])


@pytest.mark.parametrize("model, name, params", _PANEL_PARTS,
                         ids=[name for _, name, _ in _PANEL_PARTS])
def test_panel_rule_work_does_not_grow_with_the_temperatures(
        monkeypatch, model, name, params):
    # The temperatures are not panel edges: the octaves of the graded grid
    # already put a panel on the scale of each, so a call over 480
    # temperatures evaluates the panel rule at as many nodes as one over
    # 16 (a deterministic gate on the work).
    nodes = [0]
    gk15 = numkernel._gk15

    def counted(f, lo, hi):
        nodes[0] += 15 * len(lo)
        return gk15(f, lo, hi)

    monkeypatch.setattr(numkernel, "_gk15", counted)
    part = spectral.Part.named(model.PARTS, name)
    counts = []
    for n in (16, 480):
        nodes[0] = 0
        part.evaluate(np.geomspace(0.01, 100.0, n), params, DEFAULT_SETTINGS)
        counts.append(nodes[0])
    assert counts[0] == counts[1] > 0
