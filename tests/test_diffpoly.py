"""Exact algebra tests: ring axioms, calculus, and the Gel'fand-Dikii chain."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branch_solvers import r_coeff
from heleshaw.diffpoly import DiffPoly, gd_next, gd_polynomials
from heleshaw.errors import NotExactDerivative
from paper_identities import constant_part, dispersionless_part, homogeneous_weight, is_zero

U = DiffPoly.field()
UX = U.derive()
UXX = UX.derive()


def poly(*terms):
    return DiffPoly({orders: Fraction(*coeff) for orders, coeff in terms})


# -- ring operations ---------------------------------------------------------

def test_additive_inverse():
    assert is_zero(U + (-U))


@pytest.mark.parametrize("expr", [lambda: U + 1, lambda: U - 1, lambda: U - Fraction(1, 2), lambda: 1 + U],
                         ids=["u + 1", "u - 1", "u - 1/2", "1 + u"])
def test_adding_a_number_is_a_type_error(expr):
    # the polynomial 1 is DiffPoly.const(1); a bare number is no DiffPoly
    with pytest.raises(TypeError, match="unsupported operand"):
        expr()


def test_mul_square():
    assert U * U == DiffPoly({(0, 0): 1})


def test_scale():
    assert UXX.scale(Fraction(1, 8)) == DiffPoly({(2,): Fraction(1, 8)})


def test_equal_rationals_give_one_polynomial():
    p, q = DiffPoly({(0, 2): Fraction(2, 4)}), DiffPoly({(0, 2): Fraction(1, 2)})
    assert p == q and hash(p) == hash(q)


def test_constructor_sorts_each_key_and_refuses_a_negative_order():
    # the same orders in any key order name one monomial, and their coefficients add up
    p = DiffPoly({(2, 0, 1): Fraction(1, 3), (0, 1, 2): Fraction(1, 6), (1, 2, 0): Fraction(1, 2), (3,): 2})
    assert p == DiffPoly({(3,): 2, (0, 1, 2): 1})
    assert p.terms() == {(0, 1, 2): 1, (3,): 2}
    for orders in [(-1,), (0, -2), (3, 1, -1)]:
        with pytest.raises(ValueError, match="non-negative"):
            DiffPoly({orders: 1})


@pytest.mark.parametrize("factor", [-1, 0, Fraction(-3, 7)])
def test_scaled_polynomial_is_its_rational_counterpart(factor):
    # the content and the integer part are canonical: equal values compare and hash equal
    p = poly(((0, 0, 1), (3, 7)), ((2, 2), (-1, 4)), ((5,), (2, 1)), ((), (6, 1)))
    counterpart = DiffPoly({m: c * factor for m, c in p.terms().items()})
    for scaled in [p.scale(factor), factor * p] + ([-p] if factor == -1 else []):
        assert scaled == counterpart and hash(scaled) == hash(counterpart)
        assert scaled.terms() == counterpart.terms()


def test_no_zero_coefficients_stored():
    p = U + U.scale(-1) + DiffPoly.const(0)
    assert p.terms() == {}


# -- derive ------------------------------------------------------------------

def test_derive_leibniz_square():
    assert (U * U).derive() == (U * UX).scale(2)


def test_derive_linear():
    assert U.scale(Fraction(1, 2)).derive() == UX.scale(Fraction(1, 2))


def test_derive_constant():
    assert is_zero(DiffPoly.const(7).derive())


# -- integrate ---------------------------------------------------------------

def test_integrate_leibniz_inverse():
    assert ((U * UX).scale(2)).integrate() == U * U


def test_integrate_linear():
    assert UX.scale(Fraction(1, 2)).integrate() == U.scale(Fraction(1, 2))


@pytest.mark.parametrize("poly", [U * U, UX * UX, U * UX * UX, UXX * UXX], ids=str)
def test_integrate_not_exact(poly):
    with pytest.raises(NotExactDerivative):
        poly.integrate()


def test_integrate_constant_not_exact():
    with pytest.raises(NotExactDerivative):
        DiffPoly.const(1).integrate()


@pytest.mark.parametrize("orders", [(1,) * 5 + (2,), (0,) * 6 + (3,), (0,) + (2,) * 5 + (4,), (1,) * 7], ids=str)
def test_integrate_undoes_derive_with_five_equal_factors(orders):
    # by parts divides by p + 1 up to the factor count: all exact in the integer part times lcm(1..count)
    m = DiffPoly({orders: Fraction(-5, 3)})
    assert m.derive().integrate() == m


def test_derive_integrate_identity_on_image():
    p = poly(((0, 0, 1), (3, 7)), ((2, 2), (1, 4)), ((5,), (2, 1)))
    dp = p.derive()
    assert dp.integrate().derive() == dp


# -- Gel'fand-Dikii chain ------------------------------------------------

def test_gd_first_step():
    assert gd_next(DiffPoly.const(1)) == U.scale(Fraction(1, 2))


def test_gd_second_step():
    expected = (UXX + (U * U).scale(3)).scale(Fraction(1, 8))
    assert gd_next(U.scale(Fraction(1, 2))) == expected


def test_gd_r3_structure():
    # hand-derived: R_3 = u_xxxx/32 + 5/16 u u_xx + 5/32 u_x^2 + 5/16 u^3
    expected = poly(
        ((4,), (1, 32)),
        ((0, 2), (5, 16)),
        ((1, 1), (5, 32)),
        ((0, 0, 0), (5, 16)),
    )
    assert gd_polynomials(3)[3] == expected


def test_gd_dispersionless_part_r3():
    r3 = gd_next(gd_next(U.scale(Fraction(1, 2))))
    assert dispersionless_part(r3) == DiffPoly({(0, 0, 0): Fraction(5, 16)})


@pytest.mark.parametrize("n", range(7))
def test_gd_weight_homogeneous(n):
    rn = gd_polynomials(6)[n]
    assert homogeneous_weight(rn) == 2 * n


@pytest.mark.parametrize("n", range(1, 7))
def test_gd_dispersionless_coefficient(n):
    rn = gd_polynomials(6)[n]
    expected = DiffPoly({(0,) * n: r_coeff(n, Fraction(1))})
    assert dispersionless_part(rn) == expected
    assert r_coeff(n, Fraction(1)) == Fraction(math.comb(2 * n, n), 4**n)


@pytest.mark.parametrize("n", range(13))
def test_gd_recursion_identity_exact(n):
    # d/dx R_{n+1} == (1/4 d3 + u d + 1/2 u_x) R_n with zero tolerance: the recursion as the paper
    # states it, so independent of how gd_next integrates; n = 12 is the CLI's `gd --n 12`
    rs = gd_polynomials(13)
    rn, rn1 = rs[n], rs[n + 1]
    lhs = rn1.derive()
    rhs = (
        Fraction(1, 4) * rn.derive().derive().derive()
        + U * rn.derive()
        + Fraction(1, 2) * UX * rn
    )
    assert lhs == rhs


def test_gd_zero_constant_terms():
    for rn in gd_polynomials(6)[1:]:
        assert constant_part(rn) == 0


def test_quadratic_generating_identity_truncated():
    """R R_xx - R_x^2/2 - 2(z^2 - u)R^2 + 2 z^2 = O(z^-8) for R_0..R_4.

    Laurent series in w = z^-2 with DiffPoly coefficients; with the series
    truncated after R_4 every coefficient of w^-1 .. w^3 must vanish
    identically, which pins both the recursion and the integration-constant
    convention at once.
    """
    N = 3
    rs = gd_polynomials(N + 1)

    def series_mul(a, b):
        out = {}
        for i, pa in a.items():
            for j, pb in b.items():
                out[i + j] = out.get(i + j, DiffPoly({})) + pa * pb
        return out

    R = {n: rn for n, rn in enumerate(rs)}
    Rxx = {n: rn.derive().derive() for n, rn in R.items()}
    Rx = {n: rn.derive() for n, rn in R.items()}

    lhs = series_mul(R, Rxx)
    for k, p in series_mul(Rx, Rx).items():
        lhs[k] = lhs.get(k, DiffPoly({})) - p.scale(Fraction(1, 2))
    r_sq = series_mul(R, R)
    for k, p in r_sq.items():
        # -2 z^2 R^2 contributes at w^(k-1), +2u R^2 at w^k
        lhs[k - 1] = lhs.get(k - 1, DiffPoly({})) - p.scale(2)
        lhs[k] = lhs.get(k, DiffPoly({})) + DiffPoly.field() * p.scale(2)
    lhs[-1] = lhs.get(-1, DiffPoly({})) + DiffPoly.const(2)

    for order in range(-1, N + 1):
        assert is_zero(lhs.get(order, DiffPoly({}))), f"w^{order} coefficient nonzero"


# -- property tests ------------------------------------------------------

small_monomials = st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3).map(tuple)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
small_polys = st.dictionaries(small_monomials, rationals, max_size=5).map(DiffPoly)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_derive_is_a_derivation(p, q):
    assert (p * q).derive() == p.derive() * q + p * q.derive()


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_integrate_recovers_up_to_constant(p):
    assert p.derive().integrate() == p - DiffPoly.const(constant_part(p))


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_equal_values_hash_equal(p, q):
    r = (p + q) - q
    assert r == p and hash(r) == hash(p) and r.terms() == p.terms()


@settings(max_examples=60, deadline=None)
@given(small_monomials, small_monomials)
def test_weight_additive_under_mul(m1, m2):
    p, q = DiffPoly({m1: 1}), DiffPoly({m2: 1})
    assert homogeneous_weight(p * q) == homogeneous_weight(p) + homogeneous_weight(q)
