"""Curve, projection and event tests for the interface geometry."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from heleshaw.errors import DomainError, HeleShawError, OutOfRange
from heleshaw.geometry import (
    CurveSpec,
    bubble_curve,
    detect_events,
    emit_frames,
    finger_curve,
    oplus_project,
    reexpand_curve_series,
)
from heleshaw.hodograph import KdVTimes, closed_u0, quintic_times, r_coeff
from heleshaw.multiscale import build_composite
from heleshaw.toda import build_toda_inner


@pytest.fixture(scope="module")
def comp():
    return build_composite(t_1=-0.8, eps=1e-5, tol=1e-11)


@pytest.fixture(scope="module")
def events(comp):
    return detect_events(comp, (0.6, comp.x_star), resolution=10_000)


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


# -- finger curve ---------------------------------------------------------

def test_finger_zero_at_branch_point():
    frame = finger_curve(1.0, quintic_times(-0.8, x=0.5))
    assert (1.0, 0.0) in frame.samples


def test_finger_direct_evaluation():
    u = 0.9
    spec_y = (4.0 + u / 2 * 2.0 + 3 / 8 * u * u - 6 / 5) * math.sqrt(2.0 - u)
    frame = finger_curve(u, quintic_times(-0.8, x=0.5), X_range=(u, 3.0), n=50)
    got = CurveSpec("finger", tuple(float(c) for c in oplus_project(quintic_times(-0.8), u)), u).y(2.0)
    assert got == pytest.approx(spec_y, rel=1e-14)


def test_finger_cusp_onset_double_zero():
    # at u = 4/5 the largest prefactor root collides with u: Y ~ (X-u)^(3/2)
    u = 0.8
    spec = CurveSpec("finger", tuple(float(c) for c in oplus_project(quintic_times(-0.8), u)), u)
    assert spec.prefactor(u) == pytest.approx(0.0, abs=1e-14)
    deltas = np.array([1e-4, 1e-6])
    ys = spec.y(u + deltas)
    ratios = ys / deltas**1.5
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_finger_domain_error():
    with pytest.raises(DomainError):
        finger_curve(0.9, quintic_times(-0.8, x=0.5), X_range=(0.5, 2.0))


def test_finger_exact_zero_insertion():
    u = 0.7
    frame = finger_curve(u, quintic_times(-0.8, x=0.5), X_range=(u, 3.0))
    zero_xs = [x for x, y in frame.samples if y == 0.0]
    assert u in zero_xs
    # largest prefactor root (> u for u < 4/5 on this branch set) hit exactly
    roots = [x for x in zero_xs if x > u]
    assert len(roots) == 1
    c = [float(q) for q in oplus_project(quintic_times(-0.8), u)]
    assert np.polynomial.polynomial.polyval(roots[0], c) == pytest.approx(0.0, abs=1e-13)


# -- bubble curve -----------------------------------------------------------

def test_bubble_tip_zeros():
    frame = bubble_curve(0.5, 0.36, 1.0)
    spec = CurveSpec("bubbles", (1.5, 3.0), u=0.5, v=0.36)
    a, b = spec.tips
    zero_xs = [x for x, y in frame.samples if y == 0.0]
    assert a in zero_xs and b in zero_xs
    assert a == pytest.approx(-0.7, abs=1e-15) and b == pytest.approx(1.7, abs=1e-15)


def test_bubble_merged_tips_at_v_zero():
    spec = CurveSpec("bubbles", (1.5, 3.0), u=0.5, v=0.0)
    assert spec.tips == (0.5, 0.5)


def test_bubble_gap_domain_error():
    with pytest.raises(DomainError):
        bubble_curve(0.0, 1.0, 1.0, X_range=(-1.0, 1.0))  # strictly inside (-2, 2)


def test_bubble_negative_v_rejected():
    with pytest.raises(DomainError):
        bubble_curve(0.0, -0.1, 1.0)


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


def test_switch_jump_straddling_a_level_raises(comp):
    # the shifted outer branch ends below u = 4/5 while the inner one starts
    # above it: the glued field crosses the cusp level twice
    shifted = dataclasses.replace(comp, outer=lambda x: closed_u0(x, -0.8) - 0.1)
    with pytest.raises(HeleShawError):
        detect_events(shifted, (0.6, comp.x_star))


def test_empty_event_range(comp):
    assert detect_events(comp, (0.6, 0.63), resolution=500) == []


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
    with pytest.raises(OutOfRange):
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


def test_emit_frames_toda_source(tmp_path):
    inner = build_toda_inner(1.0, -6.0, 1e-5)
    manifest = emit_frames(inner, [-10.0, -5.0, 0.0], tmp_path, n=80)
    assert len(manifest["frames"]) == 3
    assert manifest["events"] == []
    rows = (tmp_path / "frame_000.csv").read_text().strip().splitlines()
    assert rows[0] == "X,Y"
    assert len(rows) > 40
