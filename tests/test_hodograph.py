"""Hodograph branch tests: generating coefficients, branches, catastrophes."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branch_solvers import (
    DerivativeVanishes,
    KdVTimes,
    c_coeff,
    eval_dH,
    eval_H,
    find_critical,
    hodograph_poly,
    quintic_times,
    r_coeff,
    solve_branch,
)
from heleshaw.errors import DomainError
from heleshaw.geometry import prefactor_roots
from heleshaw.hodograph import closed_u0, find_critical_25
from paper_identities import residuals


# -- r_coeff ------------------------------------------------------------

def test_r0_is_one():
    assert r_coeff(0, 123.4) == 1.0
    assert r_coeff(0, Fraction(7)) == 1


def test_r1_half_v():
    v = sympy.Symbol("v")
    assert r_coeff(1, Fraction(1, 3)) == Fraction(1, 6)


def test_r3_exact():
    assert r_coeff(3, Fraction(1)) == Fraction(5, 16)


@pytest.mark.parametrize("k", range(8))
def test_r_coeff_against_series_oracle(k):
    # oracle: large-z binomial series of z / sqrt(z^2 - v)
    v, w = sympy.symbols("v w", positive=True)
    series = sympy.series((1 - v * w) ** sympy.Rational(-1, 2), w, 0, k + 1).removeO()
    expected = series.coeff(w, k)  # w = 1/z^2
    got = r_coeff(k, Fraction(1))
    assert sympy.nsimplify(got) == expected.subs(v, 1)


def test_r_coeff_negative_k():
    with pytest.raises(DomainError):
        r_coeff(-1, 0.5)


# -- c_coeff ------------------------------------------------------------

def test_c_coeff_vanishes_below_diagonal():
    assert c_coeff(1, 2, 0.77) == 0.0


def test_c_coeff_row_zero_is_hodograph_row():
    for j in range(1, 11):
        v = Fraction(3, 7)
        assert c_coeff(j, 0, v) == (2 * j + 1) * r_coeff(j, v)


def test_c_coeff_3_2():
    assert c_coeff(3, 2, Fraction(1)) == Fraction(35, 2)
    assert c_coeff(3, 2, 0.8) == pytest.approx(14.0, rel=1e-15)


@pytest.mark.parametrize("j,r", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (4, 0)])
def test_c_coeff_against_residue_oracle(j, r):
    # oracle: z^{-1} coefficient of z^{2j} (z^2-v)^{-(2r+1)/2} by sympy series
    z, v = sympy.symbols("z v", positive=True)
    w = sympy.Symbol("w", positive=True)
    f = z ** (2 * j) * (z**2 - v) ** sympy.Rational(-(2 * r + 1), 2)
    g = sympy.series(f.subs(z, 1 / w), w, 0, 2 * (j + 1)).removeO()
    residue = sympy.expand(g).coeff(w, 1)
    expected = sympy.simplify((2 * j + 1) * residue)
    got = c_coeff(j, r, Fraction(1, 2))
    assert sympy.nsimplify(got) == expected.subs(v, sympy.Rational(1, 2))


# -- eval_H / eval_dH -----------------------------------------------------

def test_eval_H_quintic_form():
    # with t_3 = 2/7 the hodograph reads (5/8) v^3 + (3/2) t_1 v + x
    t1, v, x = Fraction(-2, 5), Fraction(1, 3), Fraction(1, 9)
    got = eval_H(quintic_times(t1, x=x), v)
    assert got == Fraction(5, 8) * v**3 + Fraction(3, 2) * t1 * v + x


def test_eval_H_zero_times():
    assert eval_H(KdVTimes(0.0, (0.0, 0.0)), 0.9) == 0.0


def test_eval_dH_critical_slope():
    got = eval_dH(quintic_times(Fraction(-4, 5)), Fraction(4, 5), 1)
    assert got == 0


def test_eval_dH_matches_finite_difference():
    times = quintic_times(-0.63, x=0.21)
    v, h = 0.52, 1e-6
    fd = (eval_H(times, v + h) - eval_H(times, v - h)) / (2 * h)
    assert eval_dH(times, v, 1) == pytest.approx(fd, rel=1e-9)
    fd2 = (eval_dH(times, v + h, 1) - eval_dH(times, v - h, 1)) / (2 * h)
    assert eval_dH(times, v, 2) == pytest.approx(fd2, rel=1e-8)


def test_eval_H_and_dH_exact_with_every_time_nonzero():
    times = KdVTimes(Fraction(1, 9), (1, Fraction(-2, 3), 2))
    v = Fraction(5, 7)
    terms = list(enumerate(times.t, start=1))
    weight = {k: (2 * k + 1) * Fraction(math.comb(2 * k, k), 4**k) for k, _ in terms}
    got = eval_H(times, v)
    assert isinstance(got, Fraction)
    assert got == times.x + sum(weight[k] * tk * v**k for k, tk in terms)
    for j in range(1, 5):
        got = eval_dH(times, v, j)
        assert isinstance(got, Fraction)
        assert got == sum(weight[k] * tk * math.perm(k, j) * v ** (k - j) for k, tk in terms if k >= j)


# -- closed_u0 ------------------------------------------------------------

def test_closed_u0_residual():
    u = closed_u0(0.58, -0.8)
    res = 5 / 8 * u**3 + 3 / 2 * (-0.8) * u + 0.58
    assert abs(res) < 1e-12


def test_closed_u0_local_fold_expansion():
    delta = 1e-6
    u = closed_u0(0.64 - delta, -0.8)
    naive = 0.8 + math.sqrt(2 / 3 * delta)
    assert abs(u - naive) < 5e-7


def test_closed_u0_at_zero_picks_continuous_branch():
    u = closed_u0(0.0, -0.8)
    assert u == pytest.approx(math.sqrt(48 / 25), rel=1e-14)


def test_closed_u0_rejects_positive_t1():
    with pytest.raises(DomainError):
        closed_u0(0.1, 0.2)


def test_closed_u0_rejects_folded_region():
    with pytest.raises(DomainError):
        closed_u0(0.65, -0.8)


@pytest.mark.parametrize("t1, x", [(-1e-300, 0.0), (-1e-300, np.array([-1.0, 0.0])), (-1e300, 0.0)])
def test_closed_u0_refuses_x_c_out_of_float_range(t1, x):
    # x_c = -t_1 v_c underflows to 0 (x = 0 would pass for the fold) or overflows
    with pytest.raises(DomainError) as closed:
        closed_u0(x, t1)
    with pytest.raises(DomainError) as critical:
        find_critical_25(t1)
    assert str(closed.value) == str(critical.value)
    assert "critical abscissa x_c = -t_1 v_c" in str(closed.value)


@pytest.mark.parametrize("x", [-1.7e308, np.array([0.0, -1.7e308])], ids=["float", "array"])
def test_closed_u0_refuses_an_overflowing_k(x):
    # k = (8/5)(x_c - x) is inf: a seed blind to it stays at 1, and u = v_c + 1 = 1.8 would pass
    with pytest.raises(DomainError, match=r"\(8/5\)\(x_c - x\) overflows at t_1 = -0.8"):
        closed_u0(x, -0.8)


@pytest.mark.parametrize("x", [math.nan, np.array([0.5, np.nan])], ids=["float", "array"])
def test_closed_u0_refuses_a_nan_abscissa(x):
    with pytest.raises(DomainError, match=r"^x = nan is not a number$"):
        closed_u0(x, -0.8)


def test_closed_u0_negative_x_continuity():
    # across the casus-irreducibilis boundary at x = -x_c the branch is smooth
    left = closed_u0(-0.64 - 1e-9, -0.8)
    right = closed_u0(-0.64 + 1e-9, -0.8)
    assert abs(left - right) < 1e-4
    assert left > 1.59  # continues the largest root, near +1.6


@pytest.mark.parametrize("t1", [-0.5, -0.73, -0.8, -1.2])
def test_closed_u0_at_the_fold_is_v_c(t1):
    cp = find_critical_25(t1)
    for u in (closed_u0(cp.x_c, t1), closed_u0(np.array([cp.x_c]), t1)[0]):
        assert abs(u - cp.v_c) <= 2 * math.ulp(cp.v_c)


def _largest_real_root(x: float, t1: float):
    """40-digit largest real root of (5/8) u^3 + (3/2) t_1 u + x = 0."""
    with mpmath.workdps(40):
        if x < -100:  # the only real root, s r with s = (-8x/5)^(1/3) and r^3 - (3 t_1 s / 2x) r = 1
            s = mpmath.cbrt(-mpmath.mpf(8) / 5 * x)
            return s * mpmath.findroot(lambda r: r**3 - 1.5 * mpmath.mpf(t1) * s / x * r - 1, 1)
        roots = mpmath.polyroots([mpmath.mpf(5) / 8, 0, 1.5 * mpmath.mpf(t1), mpmath.mpf(x)],
                                 maxsteps=200, extraprec=200)
        return max(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** -30)


@pytest.mark.parametrize("t1", [-0.5, -0.8, -1.2])
def test_closed_u0_against_mpmath(t1):
    # |u - u_ref| <= 2 eps (|u_ref| + |x_c| |du/dx|): two rounding errors of
    # x_c carried through the fold's slope du/dx = -1/((15/8) u^2 + (3/2) t_1).  Far from the
    # fold, x_c - 10^j up to j = 300, Newton descends from the seed 2^ceil(e/3), up to twice the root;
    # at x_c - 10^308, where that seed's cube overflows, it solves the problem halved in scale.
    cp = find_critical_25(t1)
    xs = np.concatenate([cp.x_c - np.logspace(-15, -1, 29), np.linspace(-3 * cp.x_c, cp.x_c - 0.1, 21),
                         cp.x_c - 10.0 ** np.arange(2, 301), [cp.x_c - 1e308]])
    for x, u in zip(xs, closed_u0(xs, t1)):
        ref = _largest_real_root(float(x), t1)
        slope = 1 / abs(mpmath.mpf(15) / 8 * ref**2 + 1.5 * mpmath.mpf(t1))
        assert abs(u - ref) <= 2 * 2.0**-52 * (abs(ref) + abs(cp.x_c) * slope), x


def test_closed_u0_scalar_and_array_bitwise_equal():
    rng = np.random.default_rng(5)
    for t1 in (-0.5, -0.73, -0.8, -1.2, -3.0, -1e-3):
        cp = find_critical_25(t1)
        xs = np.concatenate([cp.x_c - np.logspace(-17, 1, 300), rng.uniform(-3 * cp.x_c, cp.x_c, 300),
                             [cp.x_c, -1e300]])
        assert closed_u0(xs, t1).tolist() == [closed_u0(float(x), t1) for x in xs]


@settings(max_examples=200, deadline=None)
@given(t1=st.floats(min_value=-1e3, max_value=-1e-3),
       distances=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
def test_closed_u0_float_and_array_paths_bitwise_equal(t1, distances):
    """x = x_c - distance: the float path and the array path take the same Newton steps."""
    x_c = find_critical_25(t1).x_c
    xs = np.array([x_c - d for d in distances])
    assert closed_u0(xs, t1).tolist() == [closed_u0(x, t1) for x in xs.tolist()]


def test_closed_u0_array_refuses_any_folded_point():
    with pytest.raises(DomainError):
        closed_u0(np.array([0.5, 0.65]), -0.8)
    assert closed_u0(np.array([]), -0.8).shape == (0,)


def test_closed_u0_fold_asymptotics_little_o():
    cp = find_critical_25(-0.8)
    ratios = []
    for delta in (1e-4, 1e-6, 1e-8):
        u = closed_u0(cp.x_c - delta, -0.8)
        local = cp.v_c + math.sqrt(cp.c * (-delta))
        ratios.append(abs(u - local) / math.sqrt(delta))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < ratios[0] / 10


# -- solve_branch -----------------------------------------------------------

def test_solve_branch_matches_closed_form():
    got = solve_branch(quintic_times(-0.8, x=0.6), 1.0)
    assert got == pytest.approx(closed_u0(0.6, -0.8), abs=1e-10)


def test_solve_branch_beyond_fold_raises():
    times = quintic_times(-0.8, x=0.6405)
    with pytest.raises(DerivativeVanishes):
        solve_branch(times, 0.8)


def test_solve_branch_at_fold_returns_vc():
    cp = find_critical_25(-0.8)
    v = solve_branch(quintic_times(-0.8, x=cp.x_c), 0.85)
    assert v == pytest.approx(0.8, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-1.4, max_value=-0.3),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_solve_branch_agrees_with_closed_u0(t1, frac):
    x_c = -t1 * math.sqrt(-0.8 * t1)
    x = frac * x_c
    expected = closed_u0(x, t1)
    got = solve_branch(quintic_times(t1, x=x), expected + 0.05)
    assert abs(got - expected) < 1e-10


def test_solve_branch_continuation_along_x():
    v = closed_u0(0.0, -0.8)
    for x in [0.1 * i for i in range(1, 7)]:
        v = solve_branch(quintic_times(-0.8, x=x), v)
        assert v == pytest.approx(closed_u0(x, -0.8), abs=1e-10)


def test_solve_branch_bisection_fallback_from_stationary_seed():
    # seeding exactly on the stationary point of H (dH/dv = 0, H != 0)
    # forces the bracket/bisection path; the nearby root is still found
    times = quintic_times(-0.8, x=0.3)
    got = solve_branch(times, 0.8)
    assert got == pytest.approx(closed_u0(0.3, -0.8), abs=1e-9)


# -- critical points --------------------------------------------------------

def test_find_critical_25_float_path():
    cp = find_critical_25(-0.8)
    assert cp.x_c == pytest.approx(0.64, abs=1e-14)
    assert cp.v_c == pytest.approx(0.8, abs=1e-14)
    assert cp.c == pytest.approx(-2 / 3, rel=1e-14)
    assert find_critical_25(Fraction(-3, 4)).v_c == math.sqrt(0.6)


def test_find_critical_25_defining_equations():
    cp = find_critical_25(-0.61)
    times = quintic_times(cp.t_1, x=cp.x_c)
    assert abs(eval_H(times, cp.v_c)) < 1e-12
    assert abs(eval_dH(times, cp.v_c, 1)) < 1e-12
    assert abs(eval_dH(times, cp.v_c, 2)) > 0.1
    assert cp.c == pytest.approx(-2.0 / eval_dH(times, cp.v_c, 2), rel=1e-13)


def test_find_critical_25_rejects_nonnegative_t1():
    with pytest.raises(DomainError):
        find_critical_25(0.0)


def test_find_critical_25_input_beyond_float_range_is_named():
    for t1 in (-5 * 10**401, Fraction(-5 * 10**401 - 5, 4)):
        with pytest.raises(DomainError, match=r"^t_1 is no float: it leaves the float range$"):
            find_critical_25(t1)


@pytest.mark.parametrize("t1", [math.nan, math.inf, -math.inf], ids=str)
def test_find_critical_25_non_finite_input_is_named(t1):
    with pytest.raises(DomainError, match=r"^t_1 is not a finite number$"):
        find_critical_25(t1)


def test_find_critical_25_underflowing_x_c_is_named():
    # v_c = 8.9e-151 is a float, but x_c = -t_1 v_c = 8.9e-451 is not
    with pytest.raises(DomainError, match=r"x_c = -t_1 v_c underflows at t_1 = -1e-300"):
        find_critical_25(-1e-300)


def test_find_critical_newton_matches_closed_form():
    closed = find_critical_25(-0.8)
    searched = find_critical(quintic_times(-0.8, x=0.0), v_seed=1.1)
    assert searched.v_c == pytest.approx(closed.v_c, abs=1e-12)
    assert searched.x_c == pytest.approx(closed.x_c, abs=1e-12)
    assert searched.c == pytest.approx(closed.c, rel=1e-12)


def test_critical_point_residuals_method():
    cp = find_critical_25(-0.8)
    res = residuals(cp)
    assert len(res) == 2
    assert max(res) < 1e-12


def test_kdv_times_requires_two_slots():
    with pytest.raises(ValueError):
        KdVTimes(0.0, (1.0,))


# -- the shared root finder against 40-digit roots ----------------------------

@st.composite
def _kdv_times(draw):
    """3 or 4 deformation times, none of them zero, and an abscissa."""
    times = st.floats(-2.0, 2.0).filter(lambda t: abs(t) >= 0.05)
    return KdVTimes(draw(st.floats(-2.0, 2.0)), tuple(draw(st.lists(times, min_size=3, max_size=4))))


def _nearest_root_distance(v, coeffs):
    """Distance from v to the nearest complex root of the float polynomial `coeffs` (ascending)."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpf(float(c)) for c in reversed(coeffs)], maxsteps=400, extraprec=400)
        gaps = sorted(abs(mpmath.mpf(v) - r) for r in roots)
        # roots closer than 1e-4 are resolved only to about eps/1e-4 (sqrt(eps) when they
        # merge): that fold regime is checked against its cubic in test_toda.py
        assume(len(gaps) == 1 or gaps[1] - gaps[0] > 1e-4)
        return float(gaps[0])


@settings(max_examples=80, deadline=None)
@given(_kdv_times(), st.floats(-2.0, 2.0))
def test_solve_branch_lands_on_a_real_root(times, seed):
    try:
        v = solve_branch(times, seed)
    except DerivativeVanishes:
        return
    assert _nearest_root_distance(v, hodograph_poly(times)) <= 1e-10 * (1 + abs(v))


@settings(max_examples=80, deadline=None)
@given(_kdv_times(), st.floats(-2.0, 2.0))
def test_find_critical_lands_on_a_real_root_of_dH(times, seed):
    try:
        cp = find_critical(times, v_seed=seed)
    except DerivativeVanishes:
        return
    slope = [k * c for k, c in enumerate(hodograph_poly(times))][1:]
    assert _nearest_root_distance(cp.v_c, slope) <= 1e-10 * (1 + abs(cp.v_c))


def _real_roots_40(coeffs):
    """Real roots of the float polynomial `coeffs` (ascending), from 40-digit mpmath roots."""
    with mpmath.workdps(40):
        roots = mpmath.polyroots([mpmath.mpf(float(c)) for c in reversed(coeffs)], maxsteps=400, extraprec=400)
        return sorted(float(mpmath.re(r)) for r in roots if abs(mpmath.im(r)) < 1e-25)


@settings(max_examples=150, deadline=None)
@given(_kdv_times(), st.floats(-2.0, 2.0))
def test_solve_branch_stays_on_the_seeds_monotone_piece(times, seed):
    """The branch is the piece of H between the folds (zeros of dH/dv) around the seed."""
    coeffs = hodograph_poly(times)
    roots = _real_roots_40(coeffs)
    folds = _real_roots_40([k * c for k, c in enumerate(coeffs)][1:])
    # a root within 1e-4 of a fold is a near-double root, resolved only to about sqrt(eps)
    assume(all(abs(r - f) > 1e-4 for r in roots for f in folds))
    assume(all(abs(seed - f) > 1e-9 for f in folds))
    lo = max((f for f in folds if f < seed), default=-math.inf)
    hi = min((f for f in folds if f > seed), default=math.inf)
    on_piece = [r for r in roots if lo < r < hi]
    try:
        v = solve_branch(times, seed)
    except DerivativeVanishes:
        assert not on_piece
        return
    assert len(on_piece) == 1
    assert abs(v - on_piece[0]) <= 1e-10 * (1 + abs(v))


@pytest.mark.parametrize("coeffs, roots", [
    ([1.0, -2.0, 1.0], [1.0]), ([-4.0, 0.0, 1.0], [-2.0, 2.0]), ([1.0, 0.0, 1.0], []),
], ids=str)
def test_real_roots_closed_forms(coeffs, roots):
    """The real roots of a monic quadratic (ascending coefficients), as the finger prefactor's are found."""
    c0, c1, _ = coeffs
    assert prefactor_roots(c0, c1) == roots
