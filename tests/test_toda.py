"""Merging-branch tests: hodograph pair, critical identities, P-I reduction."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from branch_solvers import DerivativeVanishes, TodaTimes, solve_toda_hodograph
from heleshaw.errors import DomainError
from heleshaw.painleve import integrate_tritronquee
from heleshaw.toda import build_toda_inner, find_toda_critical, toda_composite, toda_inner_V2
from paper_identities import (
    discrete_string_residuals,
    hodograph_pair_residuals,
    toda_inner_U2,
    toda_inner_U3,
    toda_inner_U4_of_V4,
    toda_inner_V2_xtilde,
    toda_inner_order4_combination,
    toda_matching_map_identity,
    toda_pi_exact_coefficients,
    toda_r_coeff,
)


@pytest.fixture(scope="module")
def trit():
    return integrate_tritronquee(tol=1e-11)


@pytest.fixture(scope="module")
def inner(trit):
    # u_c = 1 configuration: t_3 = 1, x_c = -6 (so t_c = -9)
    return build_toda_inner(1.0, -6.0, 1e-5, tritronquee=trit)


# -- generating coefficients ------------------------------------------------

def test_toda_r0():
    assert toda_r_coeff(0, 0.3, 0.7) == 1.0
    assert toda_r_coeff(0, Fraction(1), Fraction(2)) == 1


def test_toda_r1_r2():
    u, v = Fraction(2, 3), Fraction(1, 5)
    assert toda_r_coeff(1, u, v) == u
    assert toda_r_coeff(2, u, v) == u * u + 2 * v


def test_first_hodograph_equation_assembles():
    # 1*t*r_0 + 3*t_3*r_2 = t + 3 t_3 (u^2 + 2v)
    u, v, t, t3 = Fraction(1, 2), Fraction(3), Fraction(-7), Fraction(2)
    lhs = t * toda_r_coeff(0, u, v) + 3 * t3 * toda_r_coeff(2, u, v)
    assert lhs == t + 3 * t3 * (u * u + 2 * v)


def test_full_second_equation_reduces_via_first():
    # t r_1 + 3 t_3 r_3 + 2x == (t + 3 t_3 r_2) u + 2 (6 t_3 u v + x), exactly
    u, v, t, t3, x = Fraction(3, 4), Fraction(2, 7), Fraction(-5), Fraction(3, 2), Fraction(1, 3)
    lhs = t * toda_r_coeff(1, u, v) + 3 * t3 * toda_r_coeff(3, u, v) + 2 * x
    rhs = (t + 3 * t3 * toda_r_coeff(2, u, v)) * u + 2 * (6 * t3 * u * v + x)
    assert lhs == rhs


@pytest.mark.parametrize("k", range(9))
def test_toda_r_coeff_against_series_oracle(k):
    # oracle: sympy large-z Taylor expansion at 20 random-ish rational points
    z, w = sympy.symbols("z w", positive=True)
    rng = np.random.default_rng(k)
    for _ in range(3):
        u = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        v = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
        expr = 1 / sympy.sqrt((1 / w - sympy.Rational(u)) ** 2 - 4 * sympy.Rational(v)) / w
        series = sympy.series(expr, w, 0, k + 1).removeO()
        expected = sympy.expand(series).coeff(w, k)
        assert sympy.Rational(toda_r_coeff(k, u, v)) == expected


# -- hodograph pair ----------------------------------------------------------

def test_solve_at_exact_critical_data():
    crit = find_toda_critical(1.0, -6.0)
    times = TodaTimes(t=float(crit.t_c), t_3=1.0, x=float(crit.x_c))
    u, v = solve_toda_hodograph(times, 1.05)
    assert u == pytest.approx(1.0, abs=1e-10)
    assert v == pytest.approx(1.0, abs=1e-10)


def test_elimination_consistency():
    # v from the first equation reduces the pair to a cubic in u; both agree
    times = TodaTimes(t=-12.0, t_3=1.0, x=-6.0)
    u, v = solve_toda_hodograph(times, 0.5)
    assert v == pytest.approx(-(times.t + 3 * times.t_3 * u * u) / (6 * times.t_3), rel=1e-12)
    roots = sorted(np.roots([3 * times.t_3, 0.0, times.t, -times.x]).real)
    assert u == pytest.approx(roots[1], abs=1e-10)


def test_two_branches_before_merging():
    times = TodaTimes(t=-12.0, t_3=1.0, x=-6.0)
    u1, v1 = solve_toda_hodograph(times, 0.5)
    u2, v2 = solve_toda_hodograph(times, 1.7)
    assert u1 < 1.0 < u2
    assert abs(u1 - u2) > 0.5
    for u, v in ((u1, v1), (u2, v2)):
        r1, r2 = hodograph_pair_residuals(times, u, v)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_residuals_below_tolerance():
    times = TodaTimes(t=-9.5, t_3=1.0, x=-6.0)
    u, v = solve_toda_hodograph(times, 0.8)
    r1, r2 = hodograph_pair_residuals(times, u, v)
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


MERGING_POINTS = [(1.0, -6.0), (0.5, -1.0), (2.0, -0.3)]


def _merging_times(t3, x_c, s):
    """Times at t = t_c + s |t_c| of the merging point (t_3, x_c), and its u_c."""
    crit = find_toda_critical(t3, x_c)
    t_c = float(crit.t_c)
    return TodaTimes(t=t_c + s * abs(t_c), t_3=t3, x=x_c), float(crit.u_c)


@pytest.mark.parametrize("t3, x_c", MERGING_POINTS)
@pytest.mark.parametrize("s", [-1e-2, -1e-4, -1e-6, -1e-8, -1e-11])
def test_before_merging_solution_is_a_root_of_the_cubic(t3, x_c, s):
    times, u_c = _merging_times(t3, x_c, s)
    u, v = solve_toda_hodograph(times, u_c)
    with mpmath.workdps(40):
        roots = mpmath.polyroots([3 * mpmath.mpf(t3), 0, mpmath.mpf(times.t), -mpmath.mpf(x_c)],
                                 maxsteps=200, extraprec=200)
        assert min(abs(u - r) for r in roots if abs(mpmath.im(r)) < 1e-30) <= 1e-10
    r1, r2 = hodograph_pair_residuals(times, u, v)
    assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12


@pytest.mark.parametrize("t3, x_c", MERGING_POINTS)
@pytest.mark.parametrize("s", [1e-11, 1e-8, 1e-4])
def test_past_merging_is_refused(t3, x_c, s):
    times, u_c = _merging_times(t3, x_c, s)
    with pytest.raises(DerivativeVanishes):
        solve_toda_hodograph(times, u_c)


# -- critical point --------------------------------------------------------

def test_critical_u_c_one():
    crit = find_toda_critical(1.0, -6.0)
    assert crit.u_c == pytest.approx(1.0, rel=1e-14)
    assert crit.t_c == pytest.approx(-9.0, rel=1e-14)
    assert crit.v_c == pytest.approx(1.0, rel=1e-14)
    # 4 t_c^3 + 81 t_3 x_c^2 = 4(-729) + 81*36 = 0
    assert 4 * (-9.0) ** 3 + 81 * 1.0 * 36.0 == 0.0


def test_critical_exact_fractions():
    crit = find_toda_critical(Fraction(1), Fraction(-6))
    assert crit.u_c == Fraction(1)
    assert 4 * crit.t_c**3 + 81 * crit.t_3 * crit.x_c**2 == 0


def test_critical_input_beyond_float_range_is_named():
    for t3, x_c, name in ((1, -6 * 10**402, "x_c"), (Fraction(10**400), -6.0, "t_3")):
        with pytest.raises(DomainError, match=rf"^{name} is no float: it leaves the float range$"):
            find_toda_critical(t3, x_c)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name", ["t_3", "x_c"])
def test_critical_non_finite_input_is_named(name, bad):
    t3, x_c = (bad, 1.0) if name == "t_3" else (1.0, bad)
    with pytest.raises(DomainError, match=rf"^{name} is not a finite number$"):
        find_toda_critical(t3, x_c)


def test_critical_fields_are_floats():
    crit = find_toda_critical(Fraction(1), Fraction(81, 4))
    assert crit.u_c == -1.5
    assert all(type(q) is float for q in (crit.u_c, crit.v_c, crit.t_c, crit.x_c, crit.t_3))


@pytest.mark.parametrize("t3", [0.5, 1.0, 2.0])
def test_critical_identity_sweep(t3):
    crit = find_toda_critical(t3, 1.0)  # the x_c = 1 convention: u_c < 0
    assert crit.u_c < 0
    assert crit.identity_residual() < 1e-12


def test_critical_cube_root_homogeneity():
    a = find_toda_critical(1.0, -6.0)
    b = find_toda_critical(8.0, -6.0)
    assert b.u_c == pytest.approx(a.u_c / 2.0, rel=1e-14)


@pytest.mark.parametrize("t3, x_c", [(5e-324, 1.0), (-5e-324, 1.0), (1e308, 1.0)])
def test_critical_refuses_data_out_of_float_range(t3, x_c):
    # u_c overflows to -inf at t_3 = 5e-324; t_c = -9 t_3 v_c is nan at t_3 = 1e308
    with pytest.raises(DomainError, match=r"u_c = .* overflows at t_3 = "):
        find_toda_critical(t3, x_c)


def test_critical_degenerate_inputs():
    with pytest.raises(DomainError):
        find_toda_critical(0.0, 1.0)
    with pytest.raises(DomainError):
        find_toda_critical(1.0, 0.0)


# -- P-I reduction, exact ---------------------------------------------------

def test_pi_reduction_exact_coefficients():
    assert toda_pi_exact_coefficients(Fraction(1), Fraction(1)) == (1, 6, 1)
    assert toda_pi_exact_coefficients(Fraction(-5, 3), Fraction(7, 2)) == (1, 6, 1)


def test_matching_map_identity_exact():
    assert toda_matching_map_identity(Fraction(1), Fraction(1))
    assert toda_matching_map_identity(Fraction(22, 7), Fraction(3, 5))


def test_similarity_ode_numerically(inner):
    # V2_tt + 6 V2^2 = -a t~, checked by finite differences of the map
    tt, h = -8.0, 1e-4
    vs = [toda_inner_V2(tt + i * h, inner) for i in (-1, 0, 1)]
    v2_tt = (vs[0] - 2 * vs[1] + vs[2]) / h**2
    assert v2_tt + 6 * vs[1] ** 2 == pytest.approx(-inner.a * tt, rel=1e-6)


# -- inner solution and matching ---------------------------------------------

def test_matching_asymptote_at_xi_25(inner):
    tt = -25.0 / inner.a ** 0.2
    v2 = toda_inner_V2(tt, inner)
    asym = (inner.u_c / 3.0) * math.sqrt(-tt / float(inner.crit.t_3))
    assert abs(v2 - asym) / abs(asym) < 1e-3


def test_sist_relations_by_finite_difference(inner):
    tt, h = -12.0, 1e-5
    u2 = toda_inner_U2(tt, inner)
    assert u2 == pytest.approx(-toda_inner_V2(tt, inner) / inner.u_c, rel=1e-13)
    # U3 = -V2_x~/(2 u_c) with V2_x~ = -V2_t~'/u_c
    dv_dt = (toda_inner_V2(tt + h, inner) - toda_inner_V2(tt - h, inner)) / (2 * h)
    v2_xt = -dv_dt / inner.u_c
    assert toda_inner_V2_xtilde(tt, inner) == pytest.approx(v2_xt, abs=1e-6)
    assert toda_inner_U3(tt, inner) == pytest.approx(-v2_xt / (2 * inner.u_c), abs=1e-6)


def test_order4_combination_and_u4(inner):
    tt = -5.0
    comb = toda_inner_order4_combination(tt, inner)
    v4 = 0.37
    u4 = toda_inner_U4_of_V4(tt, v4, inner)
    assert 2 * (v4 + inner.u_c * u4) == pytest.approx(comb, rel=1e-12)


def test_composite_at_zero_correction(inner):
    # V2 = 0 happens at the tritronquee zero; there (u, v) = (u_c, v_c)
    # synthetically: evaluate the formulas with V2 forced to zero
    e2 = inner.eps_tilde**2
    u = inner.u_c - e2 / inner.u_c * 0.0
    v = float(inner.crit.v_c) + e2 * 0.0
    assert (u, v) == (inner.u_c, 1.0)


def test_composite_outer_limit(inner):
    # t~ -> -infinity limit reproduces u ~ u_c - (1/3) sqrt((t_c - t)/t_3)
    tt = -30.0
    u, v = toda_composite(tt, inner)
    dt = inner.eps_tilde**4 * (-tt)
    assert u == pytest.approx(inner.u_c - math.sqrt(dt) / 3.0, abs=1e-6)
    assert v == pytest.approx(1.0 + inner.u_c * math.sqrt(dt) / 3.0, abs=1e-6)


def test_composite_matches_hodograph_o_eps2(trit):
    crit = find_toda_critical(1.0, -6.0)
    scaled_errs = []
    for eps in (1e-4, 1e-5, 1e-6):
        inn = build_toda_inner(1.0, -6.0, eps, tritronquee=trit)
        et = inn.eps_tilde
        errs = []
        for dt in np.linspace(et**3, 2 * et**3, 11):
            tt = -dt / et**4
            u_in, v_in = toda_composite(tt, inn)
            u_out, v_out = solve_toda_hodograph(
                TodaTimes(t=float(crit.t_c) - dt, t_3=1.0, x=-6.0), 1 - math.sqrt(dt) / 3)
            errs.append(max(abs(u_in - u_out), abs(v_in - v_out)))
        scaled_errs.append(max(errs) / et**2)
    assert scaled_errs[0] > scaled_errs[1] > scaled_errs[2]


@settings(max_examples=100, deadline=None)
@given(t3=st.floats(0.05, 20.0), xc=st.floats(0.05, 20.0),
       ts=st.lists(st.floats(-60.0, 0.5), min_size=1, max_size=20))
def test_composite_float_and_array_paths_bitwise_equal(trit, t3, xc, ts):
    """toda_composite on each float equals its ndarray result, the series above xi0 included."""
    inn = build_toda_inner(t3, xc, 1e-5, tritronquee=trit)
    ts = [t for t in ts if t < inn.t_tilde_pole - 1e-2]  # the window of the regularized flow
    us, vs = toda_composite(np.array(ts), inn)
    assert list(zip(us.tolist(), vs.tolist())) == [toda_composite(t, inn) for t in ts]


def test_discrete_string_residuals_scale(trit):
    vals = []
    for eps in (1e-3, 1e-5):
        inn = build_toda_inner(1.0, -6.0, eps, tritronquee=trit)
        r1, r2 = discrete_string_residuals(-5.0, inn)
        et4 = inn.eps_tilde**4
        assert abs(r1) < 10 * et4 and abs(r2) < 10 * et4
        vals.append(max(abs(r1), abs(r2)))
    # O(eps~^4): two decades of eps shrink the residual by ~10^(8/5)
    assert 10 < vals[0] / vals[1] < 160


def test_inner_requires_positive_a(trit):
    with pytest.raises(DomainError):
        build_toda_inner(-1.0, -6.0, 1e-5, tritronquee=trit)


def test_toda_times_guard():
    with pytest.raises(DomainError):
        TodaTimes(t=1.0, t_3=0.0, x=0.0)
