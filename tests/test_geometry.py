"""Curve, projection and event tests for the interface geometry."""

import importlib.util
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branch_solvers import KdVTimes, general_real_roots, quintic_times, r_coeff
from heleshaw import geometry
from heleshaw.errors import DomainError
from heleshaw.cli import frame_abscissas, main
from heleshaw.geometry import detect_events, emit_frames, finger_prefactor, finger_samples, left_sum, prefactor_roots
from heleshaw.hodograph import closed_u0
from heleshaw import multiscale
from heleshaw.multiscale import build_composite
from paper_identities import _float_table, oplus_project, prefactor_at, reexpand_curve_series, table_event_quadratics


@pytest.fixture(scope="module")
def comp():
    return build_composite(t_1=-0.8, eps=1e-5, tol=1e-11)


@pytest.fixture(scope="module")
def events(comp):
    return detect_events(comp, (0.6, comp.x_star))


# -- projection ----------------------------------------------------------

def test_oplus_quintic_prefactor():
    u = Fraction(9, 10)
    coeffs = oplus_project(quintic_times(Fraction(-4, 5)), u)
    assert coeffs == [Fraction(3, 8) * u**2 - Fraction(6, 5), u / 2, Fraction(1)]


def test_oplus_zero_times():
    coeffs = oplus_project(KdVTimes(0.0, (0, 0)), Fraction(1, 2))
    assert all(c == 0 for c in coeffs)


def test_oplus_reexpansion_recovers_positive_part():
    rng = np.random.default_rng(7)
    for _ in range(20):
        l = int(rng.integers(1, 5))
        t = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9))) for _ in range(l + 1))
        if all(tk == 0 for tk in t):
            continue
        v = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
        times = KdVTimes(Fraction(0), t)
        coeffs = oplus_project(times, v)
        d = len(coeffs) - 1
        series = reexpand_curve_series(coeffs, v, n_terms=d + 2)
        # coefficient of z^(2k-1) is exactly (k + 1/2) t_k
        for k in range(1, d + 2):
            expected = Fraction(2 * k + 1, 2) * t[k - 1]
            assert series[d - k + 1] == expected


def test_oplus_reexpansion_z_inverse_is_hodograph():
    # with x defined by the hodograph equation, the z^-1 coefficient is x/2
    v = Fraction(3, 5)
    t = (Fraction(-4, 5), Fraction(0), Fraction(2, 7))
    x = -sum((2 * k + 1) * tk * r_coeff(k, v) for k, tk in enumerate(t, start=1))
    times = KdVTimes(x, t)
    coeffs = oplus_project(times, v)
    d = len(coeffs) - 1
    series = reexpand_curve_series(coeffs, v, n_terms=d + 2)
    assert series[d + 1] == x / 2


@settings(max_examples=500, deadline=None)
@given(t1=st.floats(-1e6, -1e-6), delta=st.floats(-1e3, 1e3))
def test_closed_prefactor_and_event_quadratics_equal_the_table_bitwise(t1, delta):
    """finger_prefactor is, bit for bit, the float prefactor table of the quintic finger's times
    evaluated at u, and the event quadratics built from that table vanish at the levels that
    detect_events reads from the fold, -+v_c and -+sqrt(-4.8 t_1), as the oracle solves them.

    u is formed as both branches form it, v_c plus a float: never -0.0 or -5e-324, where the
    table's 0.0 + 0.5 u and 0.5 u would differ in the sign of zero.
    """
    v_c = math.sqrt(-4.0 * t1 / 5.0)
    u = v_c + delta
    table = _float_table(quintic_times(t1))
    assert [c.hex() for c in finger_prefactor(t1, u)] == [c.hex() for c in prefactor_at(table, u)]
    g, disc = table_event_quadratics(table)
    for quadratic, level in ((g, v_c), (disc, math.sqrt(-4.8 * t1))):
        roots = general_real_roots(quadratic)
        assert len(roots) == 2
        assert all(abs(r - e) <= 2.0**-50 * level for r, e in zip(roots, (-level, level)))


# -- finger curve ---------------------------------------------------------

def test_finger_zero_at_branch_point():
    samples = finger_samples(-0.8, 1.0, 400)
    assert samples[0] == (1.0, 0.0)
    assert samples[-1][0] == 2.5


def test_finger_direct_evaluation():
    # Y = (X^2 + (u/2) X + (3/8) u^2 + (3/2) t_1) sqrt(X - u) at each sampled X
    u, t1 = 0.9, -0.8
    for x, y in finger_samples(t1, u, 400):
        assert y == pytest.approx((x * x + u / 2 * x + 3 / 8 * u * u + 1.5 * t1) * math.sqrt(x - u),
                                  rel=1e-14, abs=1e-15)


def test_finger_cusp_onset_double_zero():
    # at u = 4/5 the largest prefactor root collides with u: Y ~ (X-u)^(3/2)
    u = 0.8
    assert np.polynomial.polynomial.polyval(u, finger_prefactor(-0.8, u)) == pytest.approx(0.0, abs=1e-14)
    near = [(x - u, y) for x, y in finger_samples(-0.8, u, 400) if 1e-9 < x - u < 1e-3]  # past the root's rounding
    ratios = [y / d**1.5 for d, y in near]
    assert len(ratios) >= 2
    assert ratios[0] == pytest.approx(ratios[-1], rel=2e-2)


def numpy_finger_samples(t_1, u, n):
    """The numpy sampler that finger_samples replaced, as an oracle: linspace/cos nodes, polyval, a snap
    to each zero in turn (a later zero takes over the points of an earlier one), stable argsort."""
    poly = finger_prefactor(t_1, u)
    hi = max(2.5, u + 1.0)
    zeros = sorted({u, *(r for r in prefactor_roots(*poly[:2]) if r >= u)})
    cuts = [u] + [z for z in zeros if u < z < hi] + [hi]
    segments = [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    total = left_sum(b - a for a, b in segments)
    thetas = [np.linspace(0.0, math.pi, max(8, round(n * (b - a) / total))) for a, b in segments]
    xs = np.concatenate([a + (b - a) * 0.5 * (1.0 - np.cos(t)) for (a, b), t in zip(segments, thetas)])
    ys = np.polynomial.polynomial.polyval(xs, np.asarray(poly, dtype=float)) * np.sqrt(np.maximum(xs - u, 0.0))
    for z in zeros:
        hit = np.abs(xs - z) <= 1e-15 * max(1.0, abs(z))
        xs[hit], ys[hit] = z, 0.0
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    keep = np.concatenate(([True], xs[1:] > xs[:-1]))
    return list(zip(xs[keep].tolist(), ys[keep].tolist()))


def _near_a_level(t_1, ulps):
    """u within `ulps` steps of an event level +-v_c or +-sqrt(6) v_c, where the prefactor roots meet u or
    each other."""
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    return st.sampled_from([v_c, -v_c, math.sqrt(6) * v_c, -math.sqrt(6) * v_c]).map(
        lambda level: level + ulps * math.ulp(level))


def _zeros_within_two_reaches(t_1, u):
    """Two curve zeros (u, the prefactor roots above it) within two snap reaches 2e-15 max(1, |z|) of each
    other: a root just above u (the cusp onset) or a near-double root (root coalescence).  There the old
    sampler snapped the points of the earlier zero onto the later one, the earlier zero's own included."""
    zeros = sorted({u, *(r for r in prefactor_roots(*finger_prefactor(t_1, u)[:2]) if r >= u)})
    return any(b - a <= 2e-15 * max(1.0, abs(a), abs(b)) for a, b in zip(zeros, zeros[1:]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(t_1=st.floats(-3.0, -1e-3), n=st.integers(1, 2000), data=st.data())
def test_finger_samples_equal_the_numpy_sampler_bitwise(t_1, n, data):
    u = data.draw(st.one_of(st.floats(-4.0, 4.0), st.integers(-40, 40).flatmap(lambda k: _near_a_level(t_1, k))))
    assume(not _zeros_within_two_reaches(t_1, u))
    assert [(x.hex(), y.hex()) for x, y in finger_samples(t_1, u, n)] == [
        (x.hex(), y.hex()) for x, y in numpy_finger_samples(t_1, u, n)]


def test_cosine_nodes_are_kept_once_within_the_store(monkeypatch):
    """Each node count is computed once and served again, the store never holds more than NODE_STORE
    doubles, and a count past the budget still gets numpy's nodes, bit for bit."""
    monkeypatch.setattr(geometry, "_NODES", {})
    monkeypatch.setattr(geometry, "NODE_STORE", 1000)
    for m in range(8, 100):
        nodes = geometry._cosine_nodes(m)
        assert geometry._cosine_nodes(m) is nodes or m not in geometry._NODES
        assert nodes.tobytes() == (1.0 - np.cos(np.linspace(0.0, math.pi, m))).tobytes()
    assert sum(map(len, geometry._NODES.values())) <= 1000
    assert sorted(geometry._NODES) == list(range(8, 45))  # 8 + 9 + ... + 44 = 962 doubles; 45 more would pass 1000


def test_cusp_frame_starts_at_its_branch_point(tmp_path, capsys):
    """At the cusp onset u = v_c = 4/5 a prefactor root lies one ulp above u; the frame still starts at
    (u, 0), which is where bench/checks.frames reads each frame's branch point."""
    assert finger_samples(-0.8, 0.8, 400)[:2] == [(0.8, 0.0), (0.8000000000000002, 0.0)]
    spec = importlib.util.spec_from_file_location("bench_checks", Path(__file__).parents[1] / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    # the outer branch reaches the cusp at x_c exactly, u(x_c) = v_c; a switch one ulp above keeps it there
    x_c = 0.6400000000000001
    assert main(["--outdir", str(tmp_path), "frames", "--switch", repr(math.nextafter(x_c, 1.0)),
                 "--from", "0.6", "--to", repr(x_c), "--count", "3"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    problems, ends = checks.frames(tmp_path, manifest, frame_abscissas(0.6, x_c, 3))
    assert problems == []
    assert ends == (closed_u0(0.6, -0.8), 0.8)


def test_finger_empty_window_domain_error():
    # at u = 1e17 the frame window [u, u + 1] rounds to a single point
    with pytest.raises(DomainError, match=r"empty sampling window \[u, max\(2.5, u \+ 1\)\] = "
                                          r"\[1e\+17, 1e\+17\] at the branch point u = 1e\+17"):
        finger_samples(-0.8, 1e17, 400)


@pytest.mark.parametrize("t1, u", [(-0.8, 1e200), (-0.8, -1e200), (-0.8, -math.inf), (-0.8, math.nan),
                                   (math.nan, 1.0), (-math.inf, 1.0), (-1e308, 1.0)], ids=str)
def test_finger_curve_off_the_floats_is_refused_by_name(t1, u):
    """A NaN or infinite t_1 or u, or a curve whose values overflow, is a DomainError naming both, not an
    OverflowError, a ValueError from round, or samples that are NaN or infinite."""
    with pytest.raises(DomainError, match=re.escape(f"is not finite on its window at t_1 = {t1!r}, u = {u!r}")):
        finger_samples(t1, u, 10)


def test_finger_exact_zero_insertion():
    u = 0.7
    zero_xs = [x for x, y in finger_samples(-0.8, u, 400) if y == 0.0]
    assert u in zero_xs
    # largest prefactor root (> u for u < 4/5 on this branch set) hit exactly
    roots = [x for x in zero_xs if x > u]
    assert len(roots) == 1
    c = [float(q) for q in oplus_project(quintic_times(-0.8), u)]
    assert np.polynomial.polynomial.polyval(roots[0], c) == pytest.approx(0.0, abs=1e-13)


def _distinct_real_roots_40(poly):
    """Distinct real roots of the float polynomial `poly` (ascending), from 40-digit mpmath roots."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(poly)], maxsteps=2000, extraprec=800)
        real = sorted(float(mpmath.re(r)) for r in roots if abs(mpmath.im(r)) < 1e-15)
    return [r for i, r in enumerate(real) if i == 0 or r - real[i - 1] > 1e-12]


@pytest.mark.parametrize("roots", [
    (1, 1, -2), (1, 1, 1), (0.5, 0.5, 3), (1, 1, -1, -1), (0.5, 0.5, 0.5, -1),
    (-0.25, -0.25, -0.25, -0.25), (2, 2, 3, -1), (1.5, 1.5, 1.5, 2.5), (-1, -1, 0.75, 0.75),
], ids=str)
def test_finger_real_zeros_multiple_prefactor_roots(roots):
    # dyadic roots keep the float coefficients exact: each multiple root must be one zero.
    # prefactor_roots solves the monic quadratic only; the zeros of a higher-degree prefactor come from the oracle
    poly = tuple(float(c) for c in np.polynomial.polynomial.polyfromroots(roots))
    u = -1.5
    zeros = sorted({u, *(r for r in general_real_roots(poly) if r >= u)})
    expected = [u] + [r for r in _distinct_real_roots_40(poly) if r >= u]
    assert len(zeros) == len(expected)
    assert all(abs(z - e) <= 1e-12 for z, e in zip(zeros, expected))


@pytest.mark.parametrize("roots", [(1, 1), (0.5, 0.5), (-0.25, -0.25), (2, -1), (-2, 3)], ids=str)
def test_finger_real_zeros_quadratic_prefactor(roots):
    # the zeros that finger_samples inserts: u and the prefactor_roots of its prefactor at or above u.
    # dyadic roots keep the float coefficients exact: a double root is one zero
    poly = tuple(float(c) for c in np.polynomial.polynomial.polyfromroots(roots))
    u = -1.5
    assert sorted({u, *(r for r in prefactor_roots(*poly[:2]) if r >= u)}) == sorted({u, *(r for r in roots if r >= u)})


# -- the bubble curve's series -----------------------------------------------

def test_bubble_series_structure_hodograph_consistent():
    # Y = 3 t_3 (z + u) sqrt((z-u)^2 - 4v): with (u, v) on the hodograph pair,
    # the z^0 coefficient equals t and the z^-1 coefficient equals 2x
    u, v, t3 = sympy.Rational(1, 2), sympy.Rational(2, 5), sympy.Rational(3, 2)
    t = -3 * t3 * (u**2 + 2 * v)
    x = -6 * t3 * u * v
    z, w = sympy.symbols("z w", positive=True)
    y = 3 * t3 * (1 / w + u) * sympy.sqrt((1 / w - u) ** 2 - 4 * v)
    series = sympy.series(y, w, 0, 3).removeO()
    y0 = sympy.expand(series).coeff(w, 0)
    y1 = sympy.expand(series).coeff(w, 1)
    assert sympy.simplify(y0 - t) == 0
    assert sympy.simplify(y1 - 2 * x) == 0


# -- events -------------------------------------------------------------

def test_event_sequence_kinds(events):
    kinds = [ev.kind for ev in events]
    assert kinds == ["cusp", "zero-count-change", "cusp", "zero-count-change", "root-coalescence"]


def test_event_u_levels(events):
    assert events[0].u_value == pytest.approx(0.8, abs=1e-6)
    assert events[1].u_value == pytest.approx(0.8, abs=1e-6)
    assert events[2].u_value == pytest.approx(-0.8, abs=1e-6)
    assert events[3].u_value == pytest.approx(-0.8, abs=1e-6)
    assert events[4].u_value == pytest.approx(-4 * math.sqrt(6) / 5, abs=1e-6)


def test_event_x_ordering(events):
    xs = [ev.x_value for ev in events]
    assert xs == sorted(xs)
    assert xs[0] > 0.64  # first cusp slightly beyond the unregularized catastrophe


def test_events_within_domain(events, comp):
    for ev in events:
        assert 0.6 <= ev.x_value < comp.x_star


def test_u_strictly_decreasing(comp):
    # strictly decreasing on each branch; across the switch the glued field
    # may step up by at most the matching error, far below any event spacing
    xs = np.linspace(0.6, comp.x_star - 1e-6, 2000)
    us = comp.eval_many(xs)
    outer = xs < comp.x_switch
    assert np.all(np.diff(us[outer]) < 0)
    assert np.all(np.diff(us[~outer]) < 0)
    assert np.all(np.diff(us) < 5e-4)


def _sweep_scenario():
    # a frames-sweep scenario in which separate bisections of a cusp and its
    # zero-count-change can land one ulp apart, in either order
    t_1, eps = -0.6275320980433127, 5.3572771129885615e-06
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    x_c, zoom = 1.25 * v_c**3, eps**0.8
    comp = build_composite(t_1=t_1, eps=eps, x_switch=x_c - 20 * zoom, tol=1e-13)
    return comp, (x_c - 400 * zoom, comp.x_star - 0.20974150441246414 * (comp.x_star - x_c))


def _readme_scenario():
    comp = build_composite(t_1=-0.8, eps=1e-5, tol=1e-11)
    return comp, (0.6, comp.x_star)


@pytest.mark.parametrize("scenario", [_readme_scenario, _sweep_scenario], ids=["readme", "sweep"])
def test_events_at_exact_levels_cusp_first(scenario):
    comp, window = scenario()
    events = detect_events(comp, window)
    assert events
    kinds = [ev.kind for ev in events]
    for i in (i for i, kind in enumerate(kinds) if kind == "cusp"):
        assert kinds[i + 1:i + 2] == ["zero-count-change"]
        assert events[i + 1].x_value == events[i].x_value
    levels = np.array([1.0, -1.0, math.sqrt(6), -math.sqrt(6)]) * comp.v_c
    for ev in events:
        assert np.min(np.abs(levels - ev.u_value)) < 1e-12


def test_event_levels_within_an_ulp_of_the_exact_levels(comp):
    """Over the frames-sweep range of t_1, every event's u lies within 1 ulp of its exact level,
    sqrt(-4 t_1 / 5) for a cusp or zero-count-change and sqrt(-24 t_1 / 5) for a root-coalescence,
    with the event's sign, the exact level computed to 40 digits at the float t_1."""
    eps, worst, count = 1e-5, 0.0, 0
    zoom = eps**0.8
    for t_1 in np.linspace(-1.2, -0.5, 200).tolist():
        x_c = 1.25 * math.sqrt(-4.0 * t_1 / 5.0) ** 3
        c = build_composite(t_1=t_1, eps=eps, x_switch=x_c - 20 * zoom, tritronquee=comp.tritronquee)
        for ev in detect_events(c, (c.x_c - 400 * zoom, c.x_last)):
            with mpmath.workdps(40):
                exact = mpmath.sqrt(mpmath.mpf(-24 if ev.kind == "root-coalescence" else -4) * t_1 / 5)
                level = float(exact)
                error = float(abs(mpmath.mpf(ev.u_value) - math.copysign(1, ev.u_value) * exact))
            worst, count = max(worst, error / math.ulp(level)), count + 1
    assert count == 1000
    assert worst <= 1.0


def test_switch_jump_straddling_a_level_raises(comp, monkeypatch):
    # the shifted outer branch ends below u = 4/5 while the inner one starts
    # above it: the glued field crosses the cusp level twice
    monkeypatch.setattr(multiscale, "closed_u0", lambda x, t_1: closed_u0(x, t_1) - 0.1)
    with pytest.raises(DomainError, match=r"^u jumps across the event level u = .* at x_switch = 0.638: no single"):
        detect_events(comp, (0.6, comp.x_star))


def test_events_up_to_x_star_at_a_large_eps():
    """At eps = 1e-3 the window is clipped at x_last, one guard short of the pole's image, not inside the guard."""
    comp = build_composite(t_1=-0.8, eps=1e-3, tol=1e-11)
    zoom = comp.scaling.zoom
    events = detect_events(comp, (comp.x_c - 400 * zoom, comp.x_star))
    assert events
    assert all(comp.x_c - 400 * zoom <= ev.x_value <= comp.x_last for ev in events)


def test_empty_event_range(comp):
    assert detect_events(comp, (0.6, 0.63)) == []


@pytest.mark.parametrize("lo", [-1e100, -1e308], ids=str)
def test_wide_window_bisects_to_the_exact_event(comp, lo):
    """The root-coalescence below the fold lies where the outer branch reaches u = sqrt(6) v_c, at the hodograph's
    x(u) = -(5/8) u^3 - (3/2) t_1 u: the bisection reaches it however wide the window."""
    events = detect_events(comp, (lo, 0.64))
    assert [ev.kind for ev in events] == ["root-coalescence"]
    u = events[0].u_value
    assert abs(u - math.sqrt(6) * comp.v_c) <= 2 * math.ulp(u)
    exact = -0.625 * u**3 - 1.5 * comp.cp.t_1 * u
    assert abs(events[0].x_value - exact) <= 4 * math.ulp(exact)


# -- frames --------------------------------------------------------------

def test_emit_frames_reference_endpoints(comp, events, tmp_path):
    manifest = emit_frames(comp, [0.6, 0.6402302], tmp_path, n=100, events=events)
    assert len(manifest["frames"]) == 2
    assert (tmp_path / "frame_000.csv").exists()
    assert (tmp_path / "frame_001.csv").exists()
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert len(data["events"]) == 5
    assert data["frames"][0]["n_events_so_far"] == 0
    assert data["frames"][1]["n_events_so_far"] == 5  # all events precede the last frame


def test_emit_frames_beyond_domain(comp, tmp_path):
    with pytest.raises(DomainError, match=re.escape(f"x = 0.65 is outside the inner branch, which starts where "
                                                    f"(x - x_c)/(eps~^2 beta) is finite and ends a pole guard "
                                                    f"short of x* = {comp.x_star}")):
        emit_frames(comp, [0.65], tmp_path, n=50, events=[])


def test_emit_frames_empty_list(comp, tmp_path):
    manifest = emit_frames(comp, [], tmp_path, events=[])
    assert manifest["frames"] == []
    assert json.loads((tmp_path / "manifest.json").read_text())["frames"] == []


def test_emit_frames_deterministic(comp, events, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit_frames(comp, [0.6, 0.64], d1, n=60, events=events)
    emit_frames(comp, [0.6, 0.64], d2, n=60, events=events)
    for name in ("frame_000.csv", "frame_001.csv", "manifest.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
