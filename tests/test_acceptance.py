"""Acceptance gate: the nine exit criteria, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance and runtime bound is pinned here; nothing is
deferred to later calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from branch_solvers import GeneralCriticalPoint, KdVTimes, quintic_times, r_coeff, solve_branch
from heleshaw.diffpoly import DiffPoly, gd_polynomials
from heleshaw.geometry import detect_events
from heleshaw.hodograph import closed_u0, find_critical_25
from heleshaw.multiscale import build_composite, overlap_report
from heleshaw.painleve import integrate_tritronquee
from heleshaw.toda import build_toda_inner, find_toda_critical, toda_inner_V2
from paper_identities import (
    build_leading_ode,
    canonical_m2,
    dispersionless_part,
    is_zero,
    oplus_project,
    pi_reduction_exact_coefficients,
    reduce_to_pi,
    reexpand_curve_series,
    toda_pi_exact_coefficients,
)


def report(num: int, description: str, runtime: float, bound: float, detail: str = ""):
    status = "PASS" if runtime < bound else "SLOW"
    extra = f" | {detail}" if detail else ""
    print(f"ACCEPTANCE {num} {status}: {description} [{runtime * 1e3:.1f} ms < {bound * 1e3:.0f} ms]{extra}")
    assert runtime < bound, f"criterion {num} exceeded its runtime bound"


def test_criterion_1_critical_point_reproduction():
    find_critical_25(-0.8)  # warm caches before timing
    t0 = time.perf_counter()
    cp = find_critical_25(-4 / 5)
    dt = time.perf_counter() - t0
    assert abs(cp.x_c - 0.64) < 1e-12
    assert abs(cp.v_c - 0.8) < 1e-12
    assert cp.m == 2
    report(1, "critical point (x_c, v_c) = (0.64, 0.8)", dt, 1e-3,
           f"x_c err {abs(cp.x_c - 0.64):.1e}, v_c err {abs(cp.v_c - 0.8):.1e}")


def test_criterion_2_closed_form_vs_newton():
    solve_branch(quintic_times(-0.8, x=0.6), 1.0)  # warm
    xs = np.linspace(0.58, 0.6399, 1000)
    t0 = time.perf_counter()
    worst = 0.0
    seed = closed_u0(0.58, -0.8)
    for x in xs:
        u_closed = closed_u0(float(x), -0.8)
        u_newton = solve_branch(quintic_times(-0.8, x=float(x)), seed)
        seed = u_newton
        worst = max(worst, abs(u_closed - u_newton))
    dt = time.perf_counter() - t0
    assert worst < 1e-10
    report(2, "closed form vs Newton branch over [0.58, 0.6399]", dt, 0.1,
           f"max |diff| = {worst:.2e}")


def test_criterion_3_gelfand_dikii_exactness():
    t0 = time.perf_counter()
    rs = gd_polynomials(5)
    u = DiffPoly.field()
    assert rs[1] == u.scale(Fraction(1, 2))
    assert rs[2] == (u.derive().derive() + (u * u).scale(3)).scale(Fraction(1, 8))
    for n in range(1, 6):
        expected = DiffPoly({(0,) * n: r_coeff(n, Fraction(1))})
        assert dispersionless_part(rs[n]) == expected
        assert r_coeff(n, Fraction(1)) == Fraction(math.comb(2 * n, n), 4**n)

    # quadratic generating identity, truncated after R_4: coefficients of
    # w^-1 .. w^3 (w = z^-2) vanish identically in the exact algebra
    N = 3
    series = {n: r for n, r in enumerate(gd_polynomials(N + 1))}

    def series_mul(a, b):
        out = {}
        for i, pa in a.items():
            for j, pb in b.items():
                out[i + j] = out.get(i + j, DiffPoly({})) + pa * pb
        return out

    lhs = series_mul(series, {n: r.derive().derive() for n, r in series.items()})
    for k, p in series_mul({n: r.derive() for n, r in series.items()},
                           {n: r.derive() for n, r in series.items()}).items():
        lhs[k] = lhs.get(k, DiffPoly({})) - p.scale(Fraction(1, 2))
    for k, p in series_mul(series, series).items():
        lhs[k - 1] = lhs.get(k - 1, DiffPoly({})) - p.scale(2)
        lhs[k] = lhs.get(k, DiffPoly({})) + DiffPoly.field() * p.scale(2)
    lhs[-1] = lhs.get(-1, DiffPoly({})) + DiffPoly.const(2)
    for order in range(-1, N + 1):
        assert is_zero(lhs.get(order, DiffPoly({})))
    dt = time.perf_counter() - t0
    report(3, "Gel'fand-Dikii chain exact through R_5 + generating identity", dt, 1.0)


def test_criterion_4_reduction_pipeline_exact():
    cp = GeneralCriticalPoint(
        times_c=quintic_times(Fraction(-4, 5), x=Fraction(16, 25)),
        v_c=Fraction(4, 5),
        c=Fraction(-2, 3),
    )
    build_leading_ode(cp)  # warm
    t0 = time.perf_counter()
    ode = build_leading_ode(cp)
    assert ode.A == Fraction(4)
    one, three, rhs = canonical_m2(ode)
    assert (one, three, rhs) == (1, 3, Fraction(-2))  # u1'' + 3 u1^2 = -(8/(5 v_c)) x~
    red = reduce_to_pi(ode)
    assert red.alpha == -2.0 and red.beta == -1.0
    assert pi_reduction_exact_coefficients(ode.A) == (Fraction(1), Fraction(-6), Fraction(1))
    dt = time.perf_counter() - t0
    report(4, "leading ODE and P-I rescaling with exact coefficients", dt, 1e-3,
           f"A = {ode.A}, alpha = {red.alpha}, beta = {red.beta}")


def test_criterion_5_tritronquee_quality():
    t0 = time.perf_counter()
    sol = integrate_tritronquee(xi0=30.0, tol=1e-12)
    pole = sol.pole

    # no pole on the positive axis
    xs = np.linspace(1e-6, 30.0, 5000)
    w, _ = sol.eval_many(xs)
    assert np.all(np.isfinite(w)) and np.max(np.abs(w)) < 10.0
    assert pole < 0

    # absolute integral-form residual on a 10^4 grid over [pole + 0.1, 30]
    grid = np.linspace(pole + 0.1, 30.0, 10_000)
    resid = sol.residual_defects(grid).max()
    assert resid < 1e-8

    # pole stability under tolerance refinement
    finer = integrate_tritronquee(xi0=30.0, tol=1e-13)
    shift = abs(pole - finer.pole)
    assert shift < 1e-6

    assert -2.40 < pole < -2.37
    x_star = 0.64 + 1e-4 * abs(pole)
    assert x_star > 0.6402302
    dt = time.perf_counter() - t0
    report(5, "tritronquee: pole-free axis, residual, pole location", dt, 5.0,
           f"xi* = {pole:.7f}, resid = {resid:.1e}, shift = {shift:.1e}")


def test_criterion_6_matching_experiment():
    t0 = time.perf_counter()
    comp = build_composite(t_1=-4 / 5, eps=1e-5, tol=1e-11)
    rep = overlap_report(comp, (0.6365, 0.6395), 601)
    dt = time.perf_counter() - t0
    assert rep["max_abs_err"] < 5e-4
    assert rep["max_rel_err"] < 0.000625
    report(6, "matching on (0.6365, 0.6395) at eps = 1e-5", dt, 5.0,
           f"abs = {rep['max_abs_err']:.3e} < 5e-4, rel = {rep['max_rel_err']:.3e} < 6.25e-4")


def test_criterion_7_event_sequence():
    t0 = time.perf_counter()
    comp = build_composite(t_1=-4 / 5, eps=1e-5, tol=1e-11)
    events = detect_events(comp, (0.6, comp.x_star))
    dt = time.perf_counter() - t0
    kinds = [ev.kind for ev in events]
    assert kinds == ["cusp", "zero-count-change", "cusp",
                     "zero-count-change", "root-coalescence"]
    assert events[0].u_value == pytest.approx(+4 / 5, abs=1e-6)
    assert events[2].u_value == pytest.approx(-4 / 5, abs=1e-6)
    assert events[4].u_value == pytest.approx(-4 * math.sqrt(6) / 5, abs=1e-6)
    xs = [ev.x_value for ev in events]
    assert xs == sorted(xs)
    report(7, "event sequence cusp/birth/cusp/change/absorption", dt, 10.0,
           f"absorption u = {events[4].u_value:.9f}")


def test_criterion_8_toda_identities():
    t0 = time.perf_counter()
    for t3 in (0.5, 1.0, 2.0):
        crit = find_toda_critical(t3, -6.0 * t3)
        assert crit.identity_residual() < 1e-12
        crit_alt = find_toda_critical(t3, 1.0)  # the x = x_c = 1 convention
        assert crit_alt.identity_residual() < 1e-12

    # exact change of variables to P-I
    assert toda_pi_exact_coefficients(Fraction(1), Fraction(1)) == (1, 6, 1)
    assert toda_pi_exact_coefficients(Fraction(-3, 2), Fraction(5, 7)) == (1, 6, 1)

    # matching limit at xi = 25 (u_c = 1 configuration)
    inner = build_toda_inner(1.0, -6.0, 1e-5, tol=1e-11)
    tt = -25.0 / inner.a ** 0.2
    v2 = toda_inner_V2(tt, inner)
    asym = (inner.u_c / 3.0) * math.sqrt(-tt / 1.0)
    rel = abs(v2 - asym) / abs(asym)
    assert rel < 1e-3
    dt = time.perf_counter() - t0
    report(8, "toda critical identities, exact P-I reduction, matching limit", dt, 5.0,
           f"rel err at xi=25: {rel:.2e}")


def test_criterion_9_projection_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    checked = 0
    while checked < 20:
        l = int(rng.integers(1, 5))
        t = tuple(Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                  for _ in range(l + 1))
        if all(tk == 0 for tk in t):
            continue
        v = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 9)))
        coeffs = oplus_project(KdVTimes(Fraction(0), t), v)
        d = len(coeffs) - 1
        series = reexpand_curve_series(coeffs, v, n_terms=d + 2)
        for k in range(1, d + 2):
            assert series[d - k + 1] == Fraction(2 * k + 1, 2) * t[k - 1]
        checked += 1

    u = Fraction(7, 9)
    coeffs = oplus_project(quintic_times(Fraction(-4, 5)), u)
    assert coeffs == [Fraction(3, 8) * u**2 - Fraction(6, 5), u / 2, Fraction(1)]
    dt = time.perf_counter() - t0
    report(9, "positive-part projection exact for 20 random time vectors", dt, 1.0)
