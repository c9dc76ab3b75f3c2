"""Reduction-pipeline tests: scaling maps, leading ODE, P-I rescaling, matching."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branch_solvers import GeneralCriticalPoint, c_coeff, quintic_times
from heleshaw.errors import DomainError
from heleshaw.hodograph import closed_u0, find_critical_25
from heleshaw.multiscale import ScalingMapKdV, build_composite, overlap_report
from heleshaw.painleve import POLE_GUARD
from paper_identities import (
    DegenerateReduction,
    LeadingODE,
    build_leading_ode,
    canonical_m2,
    pi_reduction_exact_coefficients,
    recover_leading_multiplier,
    reduce_to_pi,
)
from test_painleve import W_REF

EXACT_CP = GeneralCriticalPoint(
    times_c=quintic_times(Fraction(-4, 5), x=Fraction(16, 25)),
    v_c=Fraction(4, 5),
    c=Fraction(-2, 3),
)


@pytest.fixture(scope="module")
def comp():
    return build_composite(t_1=-0.8, eps=1e-5, tol=1e-11)


# -- scaling map ----------------------------------------------------------

def test_scaling_exponent_arithmetic():
    s = ScalingMapKdV(eps=1e-5)
    assert s.eps_tilde == pytest.approx(1e-2, rel=1e-15)
    assert s.zoom == pytest.approx(1e-4, rel=1e-15)
    assert (0.64 + 1e-4 * 3.5 - 0.64) / s.zoom == pytest.approx(3.5, rel=1e-12)


def test_scaling_consistency_identity():
    s = ScalingMapKdV(eps=2e-4)
    assert s.zoom * s.eps_tilde == pytest.approx(s.eps ** (2 * 3 / 5.0), rel=1e-14)


# -- leading ODE ------------------------------------------------------------

def test_leading_ode_exact_quintic_data():
    ode = build_leading_ode(EXACT_CP)
    assert ode.A == Fraction(4)           # (35/2)(2/7) v_c = 5 v_c
    # b covers every deformation slot, zero times included:
    # c_10 = 3 v_c/2 and c_20 = 15 v_c^2/8 both evaluate to 6/5 at v_c = 4/5
    assert ode.b == (Fraction(6, 5), Fraction(6, 5), Fraction(28, 25))


def test_leading_ode_quintic_canonical_form():
    ode = build_leading_ode(EXACT_CP)
    one, three, rhs = canonical_m2(ode)
    assert (one, three) == (1, 3)
    assert rhs == Fraction(-2)            # -8/(5 v_c) with v_c = 4/5


def test_leading_ode_t1_contribution_vanishes():
    # c_{12} = 0 because j < m: only t_3 feeds the multiplier
    assert c_coeff(1, 2, Fraction(4, 5)) == 0


def test_leading_ode_degenerate():
    cp = GeneralCriticalPoint(times_c=quintic_times(Fraction(-4, 5), x=0, t_3=0), v_c=Fraction(4, 5), c=1)
    with pytest.raises(DegenerateReduction):
        build_leading_ode(cp)


# -- P-I reduction -----------------------------------------------------------

def test_reduce_to_pi_quintic_values():
    red = reduce_to_pi(build_leading_ode(EXACT_CP))
    assert red.alpha == -2.0
    assert red.beta == -1.0


def test_reduce_to_pi_exact_coefficients():
    coeffs = pi_reduction_exact_coefficients(Fraction(4))
    assert coeffs == (Fraction(1), Fraction(-6), Fraction(1))
    # a generic positive rational multiplier verifies too
    assert pi_reduction_exact_coefficients(Fraction(7, 3)) == (1, -6, 1)


def test_reduction_inverse_recovers_multiplier():
    for a in (4.0, 2.5, 9.0):
        ode = LeadingODE(A=a, b=(), v_c=0.8)
        red = reduce_to_pi(ode)
        assert recover_leading_multiplier(red) == pytest.approx(a, rel=1e-14)


def test_matching_direction_constant(comp):
    # c beta = alpha^2 / 6 is what maps sqrt(c x~) onto -sqrt(xi/6)
    assert comp.cp.c * comp.beta == pytest.approx(comp.alpha**2 / 6.0, rel=1e-13)


@settings(max_examples=300, deadline=None)
@given(t1=st.floats(-1e6, -1e-6), eps=st.floats(1e-8, 1e-2))
def test_closed_reduction_equals_the_general_route_bitwise(comp, t1, eps):
    """alpha, beta and x* of the package are, bit for bit, those of A as the c_j2 sum over
    the quintic finger's times followed by the P-I rescaling of any A > 0."""
    sol = build_composite(t_1=t1, eps=eps, tol=1e-11, tritronquee=comp.tritronquee)
    cp = sol.cp
    red = reduce_to_pi(build_leading_ode(GeneralCriticalPoint(quintic_times(cp.t_1, x=cp.x_c), cp.v_c, cp.c)))
    x_star = cp.x_c + sol.scaling.zoom * red.beta * sol.tritronquee.pole
    assert [v.hex() for v in (sol.alpha, sol.beta, sol.x_star)] == [
        v.hex() for v in (red.alpha, red.beta, x_star)]


# -- composite solution ------------------------------------------------------

#: the refusal of an abscissa that the inner branch does not serve, between "x = <x> " and x*
INNER_END = ("is outside the inner branch, which starts where (x - x_c)/(eps~^2 beta) is finite and ends a pole guard "
             "short of x* = ")


def test_inner_at_critical_point(comp):
    w0, _ = comp.tritronquee.eval(0.0)
    expected = comp.v_c + comp.scaling.eps_tilde * comp.alpha * w0
    assert comp.inner_u(comp.x_c) == pytest.approx(expected, rel=1e-14)


def test_inner_u_takes_a_sequence(comp):
    xs = [0.638, comp.x_c, 0.6401]
    assert comp.inner_u(xs).tolist() == [comp.inner_u(x) for x in xs]
    with pytest.raises(DomainError, match=re.escape(f"x = {comp.x_star} {INNER_END}{comp.x_star}")):
        comp.inner_u([0.6401, comp.x_star])


def test_inner_matches_fold_asymptotics(comp):
    # at xi = 30 the inner solution equals v_c + eps~ sqrt(c x~) up to O(eps~ xi^-2)
    x = comp.x_c + comp.scaling.zoom * comp.beta * 30.0
    x_tilde = (x - comp.x_c) / comp.scaling.zoom
    naive = comp.v_c + comp.scaling.eps_tilde * math.sqrt(comp.cp.c * x_tilde)
    tol = comp.scaling.eps_tilde * 30.0**-2
    assert abs(comp.inner_u(x) - naive) < tol


def test_composite_outer_region(comp):
    assert comp.eval(0.6) == closed_u0(0.6, -0.8)


def test_composite_inner_region_finite(comp):
    u = comp.eval(0.6402)
    assert math.isfinite(u)
    assert u < comp.v_c  # past the u = v_c crossing already


@pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0], ids=str)
def test_scaling_refuses_eps_outside_the_positive_floats(eps):
    for build in (ScalingMapKdV, lambda eps: build_composite(eps=eps)):
        with pytest.raises(DomainError, match=re.escape(f"dispersion parameter eps = {eps} outside (0, inf)")):
            build(eps)


def test_composite_out_of_range(comp):
    with pytest.raises(DomainError, match=re.escape(f"x = {comp.x_star + 1e-6} {INNER_END}{comp.x_star}")):
        comp.eval(comp.x_star + 1e-6)
    with pytest.raises(DomainError, match=re.escape(f"x = {comp.x_star} {INNER_END}{comp.x_star}")):
        comp.eval(comp.x_star)


def test_x_star_location(comp):
    pole = comp.tritronquee.pole
    assert comp.x_star == pytest.approx(0.64 + 1e-4 * (-pole), rel=1e-12)
    assert comp.x_star > 0.6402302


@pytest.mark.parametrize("t1", [-0.5, -0.8, -1.2])
@pytest.mark.parametrize("eps", [1e-300, 1e-22, 1e-12, 1e-5, 3e-5, 1e-3, 1e-2], ids=str)
def test_x_last_is_the_image_of_xi_last(t1, eps):
    """x_last, the composite's default end, maps back onto the tritronquee's xi_last = pole + 2 POLE_GUARD
    wherever x* - x_c spans enough floats to hold it, and is the float just below x* where it does not."""
    x_c = find_critical_25(t1).x_c
    comp = build_composite(t_1=t1, eps=eps, x_switch=x_c - 20 * eps**0.8)
    assert comp.x_last < comp.x_star
    assert math.isfinite(comp.eval(comp.x_last))
    if comp.x_star - x_c > 1e4 * math.ulp(x_c):
        assert abs(comp.xi_of_x(comp.x_last) - (comp.tritronquee.pole + 2 * POLE_GUARD)) <= 1e-6
    else:
        assert comp.x_last == math.nextafter(comp.x_star, -math.inf)


def test_jump_at_switch_below_matching_bound(comp):
    jump = abs(comp.outer_u(comp.x_switch) - comp.inner_u(comp.x_switch))
    assert jump < 5e-4


def test_eval_many_agrees_with_scalar(comp):
    xs = np.array([0.6, 0.62, 0.638, 0.6401])
    vec = comp.eval_many(xs)
    assert vec == pytest.approx([comp.eval(float(x)) for x in xs], rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(t1=st.floats(-1.2, -0.5), eps=st.floats(1e-7, 1e-3), switch=st.floats(-40.0, 0.0),
       offsets=st.lists(st.floats(-1e3, 2.3), min_size=1, max_size=20))
def test_eval_float_and_array_paths_bitwise_equal(t1, eps, switch, offsets):
    """eval on floats equals eval_many: outer branch, inner branch and the series beyond xi0.

    Abscissas are x_c + zoom * offset below the pole image; the switch is x_c
    + zoom * offset at most x_c, where the outer branch ends.
    """
    comp = build_composite(t_1=t1, eps=eps, tol=1e-11)
    comp.x_switch = comp.x_c + comp.scaling.zoom * switch
    xs = [x for x in (comp.x_c + comp.scaling.zoom * d for d in offsets) if x < comp.x_star]
    assert comp.eval_many(np.array(xs)).tolist() == [comp.eval(x) for x in xs]


@pytest.mark.parametrize("xi_ref", sorted(W_REF))
def test_inner_branch_against_mpmath_reference(comp, xi_ref):
    """inner_u = v_c + eps~ alpha W(xi(x)) against W from an independent 40-digit mpmath run.

    The bound is eps~ |alpha| times 10 tol (the tritronquee's accuracy)
    plus the rounding of xi(x) times |W'| there.
    """
    x = comp.x_c + comp.scaling.zoom * comp.beta * xi_ref
    xi = comp.xi_of_x(x)
    scale = comp.scaling.eps_tilde * abs(comp.alpha)
    expected = comp.v_c + comp.scaling.eps_tilde * comp.alpha * W_REF[xi_ref]
    bound = scale * (10 * comp.tritronquee.tol + abs(xi - xi_ref) * abs(comp.tritronquee.eval(xi)[1]))
    assert abs(comp.inner_u(x) - expected) <= bound


# -- the matching experiment ---------------------------------------------

def test_overlap_error_reference_window(comp):
    rep = overlap_report(comp, (0.6365, 0.6395), 601)
    assert rep["max_abs_err"] < 5e-4
    assert rep["max_rel_err"] < 0.000625


def test_overlap_error_scalar_api(comp):
    assert overlap_report(comp, (0.6365, 0.6395), 301)["max_abs_err"] < 5e-4


@pytest.mark.parametrize("end", [math.inf, -math.inf, math.nan], ids=str)
def test_overlap_report_refuses_a_non_finite_end_by_name(comp, end):
    """Named before numpy's linspace would warn of an infinite span."""
    for a, b in ((end, 0.6395), (0.6365, end)):
        with pytest.raises(DomainError, match=re.escape(f"overlap interval [{a}, {b}] is empty or not finite")):
            overlap_report(comp, (a, b))


def test_composite_refuses_a_nan_switch(comp):
    """A NaN x_switch would send every abscissa to the inner branch and hide every outer event."""
    with pytest.raises(DomainError, match=r"^x_switch = nan is not a number$"):
        build_composite(x_switch=math.nan, tritronquee=comp.tritronquee)


def test_overlap_error_shrinks_with_eps():
    errs = []
    trit = None
    for eps in (1e-4, 1e-5, 1e-6):
        comp = build_composite(t_1=-0.8, eps=eps, tol=1e-11, tritronquee=trit)
        trit = comp.tritronquee
        zoom = comp.scaling.zoom
        window = (comp.x_c - 35.0 * zoom, comp.x_c - 5.0 * zoom)
        errs.append(overlap_report(comp, window, 201)["max_abs_err"])
    # second-order matching: error ~ eps~^2 on a fixed inner window
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < errs[0] / 20
