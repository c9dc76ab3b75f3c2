"""Reference oracles for the paper's identities; the tests import them.

The pipeline computes the leading term of the regularization.  The
functions below check what the paper derives around it: the generating
coefficients and the residuals of the Toda pair, the higher-order inner
terms U2, U3 and U4 of the merging branch, the shifted-argument string
equations, the exact change of variables of each reduction to
Painleve-I, the inverse of the quintic reduction, the Laurent coefficient
at the first pole, the re-expansion that inverts the positive-part
projection, and the vanishing H-derivatives at a critical point.  No CLI
run calls them, so they live beside the tests instead of in the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from heleshaw.errors import DomainError
from heleshaw.hodograph import CriticalPoint, eval_dH
from heleshaw.multiscale import LeadingODE, PIReduction
from heleshaw.painleve import TritronqueeSolution
from heleshaw.toda import TodaInner, TodaTimes, toda_inner_V2


# -- hodograph: the critical data ---------------------------------------------

def residuals(cp: CriticalPoint) -> list:
    """|d^j H| for j = 0 .. m-1 at the critical data (all should vanish)."""
    return [abs(eval_dH(cp.times_c, cp.v_c, j)) for j in range(cp.m)]


# -- painleve: the first pole -------------------------------------------------

def laurent_leading_coefficient(sol: TritronqueeSolution) -> float:
    """Fit of sigma in W ~ sigma (xi - xi*)^-2 from the last nodes (should be 1)."""
    assert sol.blew_up, "integration reached xi_min without blow-up"
    pole = sol.pole
    mask = sol.ws > 1e3
    xs, vs = sol.ts[mask][-10:], sol.ws[mask][-10:]
    return float(np.mean(vs * (xs - pole) ** 2))


# -- multiscale: the quintic reduction ----------------------------------------

def canonical_m2(ode: LeadingODE):
    """(1, 3, rhs) of u1'' + 3 u1^2 = rhs * x~ (m = 2)."""
    return (1, 3, -8 / ode.A)


def pi_reduction_exact_coefficients(A: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (W'', W^2, xi) of the rescaled equation, exactly.

    alpha and beta are irrational, but the normalized coefficients
    (1, 3 alpha beta^2, 8 beta^3/(A alpha)) are rational: their fifth powers
    are computed in exact arithmetic from alpha^5 = -32 (4/A)^2 and
    beta^5 = -A/4, and the real fifth root is unique.  Raises if the
    defining identities fail (they cannot, for A > 0).
    """
    if not (isinstance(A, Fraction) and A > 0):
        raise DomainError("exact verification needs a positive Fraction A")
    alpha5 = -32 * Fraction(4, 1) ** 2 / A**2
    beta5 = -A / 4
    # (alpha beta^2)^5 and (8 beta^3 / (A alpha))^5, both exact
    ab2_5 = alpha5 * beta5**2
    ratio5 = Fraction(8) ** 5 * beta5**3 / (A**5 * alpha5)
    if ab2_5 != Fraction(-32) or ratio5 != 1:
        raise ArithmeticError("fifth-power identities of the reduction failed")
    # real fifth roots: alpha beta^2 = -2 (alpha < 0, beta^2 > 0),
    # 8 beta^3/(A alpha) = 1 (both factors negative)
    return (Fraction(1), 3 * Fraction(-2), Fraction(1))


def recover_leading_multiplier(red: PIReduction) -> float:
    """Invert the reduction maps: A = 8 beta^3 / alpha."""
    return 8.0 * red.beta**3 / red.alpha


# -- geometry: the positive-part projection -----------------------------------

def reexpand_curve_series(coeffs: Sequence, v, n_terms: int) -> list:
    """Coefficients of P(z^2) sqrt(z^2 - v) in decreasing odd powers of z.

    Used as the oracle inverting oplus_project: the positive part must
    reproduce (k + 1/2) t_k at z^(2k-1) exactly, and the z^(-1) coefficient
    equals -H(t, v) + x ... i.e. x/2 exactly when the hodograph equation
    holds.  Exact for Fraction inputs.  Entry [j] multiplies
    z^(2(d - j) + 1) with d = deg P.
    """
    # sqrt(z^2 - v) = z * sum_n s_n (v/z^2)^n, s_n the (1-w)^(1/2) series
    s = [Fraction(1)]
    for n in range(1, n_terms + 1):
        s.append(s[-1] * Fraction(2 * n - 3, 2 * n) if n > 1 else Fraction(-1, 2))
    d = len(coeffs) - 1
    out = [0 * coeffs[0]] * (d + n_terms + 1)
    for j, c in enumerate(coeffs):          # c X^j -> c z^(2j+1) * series
        for n, sn in enumerate(s):
            # power z^(2j+1-2n): index by (d - j + n) in decreasing order
            out[d - j + n] = out[d - j + n] + c * sn * v**n
    return out


# -- toda: generating coefficients of the pair --------------------------------

def toda_r_coeff(k: int, u, v):
    """k-th large-z coefficient of z / sqrt((z-u)^2 - 4v), by series composition.

    (1 - w)^(-1/2) with w = 2u/z - (u^2 - 4v)/z^2 gives

        r_k = sum_n binom(2n,n)/4^n * binom(n, k-n) (2u)^(2n-k) (4v - u^2)^(k-n),

    n over max(0, ceil(k/2)) .. k.  Exact for Fraction inputs.
    """
    if k < 0:
        raise DomainError("k must be non-negative")
    return sum(
        Fraction(math.comb(2 * n, n), 4**n) * math.comb(n, k - n)
        * (2 * u) ** (2 * n - k) * (4 * v - u * u) ** (k - n)
        for n in range((k + 1) // 2, k + 1)
    )


def hodograph_pair_residuals(times: TodaTimes, u, v):
    """(t + 3 t_3 (u^2 + 2v),  6 t_3 u v + x)."""
    return (
        times.t + 3 * times.t_3 * (u * u + 2 * v),
        6 * times.t_3 * u * v + times.x,
    )


# -- toda: higher-order inner terms -------------------------------------------

def toda_inner_V2_xtilde(t_tilde, inner: TodaInner):
    """x~-derivative of V2 through the similarity variable: -a^(3/5) W'(xi)/u_c."""
    _, wp = inner.tritronquee.eval_extended(inner.xi_of_ttilde(t_tilde))
    return -(inner.a ** (3.0 / 5.0)) * wp / inner.u_c


def toda_inner_V2_xtilde2(t_tilde, inner: TodaInner):
    """Second x~-derivative, via the similarity ODE V2_tt = -a t~ - 6 V2^2."""
    v2 = toda_inner_V2(t_tilde, inner)
    v2_tt = -inner.a * t_tilde - 6.0 * v2 * v2
    return v2_tt / inner.u_c**2


def toda_inner_U2(t_tilde, inner: TodaInner):
    return -toda_inner_V2(t_tilde, inner) / inner.u_c


def toda_inner_U3(t_tilde, inner: TodaInner):
    return -toda_inner_V2_xtilde(t_tilde, inner) / (2.0 * inner.u_c)


def toda_inner_order4_combination(t_tilde, inner: TodaInner):
    """2 (V4 + u_c U4) = -t~/(3 t_3) - U2^2 - V2_x~x~/2 (computed, unused in the composite)."""
    t3 = float(inner.crit.t_3)
    u2 = toda_inner_U2(t_tilde, inner)
    return -t_tilde / (3.0 * t3) - u2 * u2 - 0.5 * toda_inner_V2_xtilde2(t_tilde, inner)


def toda_inner_U4_of_V4(t_tilde, v4, inner: TodaInner):
    """U4 once a choice of V4 is made (the pair is only constrained jointly)."""
    return (toda_inner_order4_combination(t_tilde, inner) - 2.0 * v4) / (2.0 * inner.u_c)


def discrete_string_residuals(t_tilde, inner: TodaInner):
    """Residuals of the shifted-argument string equations on the composite.

    The shift x -> x +/- eps moves the similarity argument by -/+ eps~/u_c
    in t~.  With the expansion truncated after U3/V2 both residuals are
    O(eps~^4); this is a diagnostic of the expansion orders, not a solver.
    """
    crit, e = inner.crit, inner.eps_tilde
    t3, u_c, v_c = float(crit.t_3), inner.u_c, float(crit.v_c)
    t = float(crit.t_c) + e**4 * t_tilde
    x = float(crit.x_c)
    shift = e / u_c

    def u_field(tt):
        return u_c + e**2 * toda_inner_U2(tt, inner) + e**3 * toda_inner_U3(tt, inner)

    def v_field(tt):
        return v_c + e**2 * toda_inner_V2(tt, inner)

    u0 = u_field(t_tilde)
    v0 = v_field(t_tilde)
    v_plus = v_field(t_tilde - shift)   # v(x + eps)
    u_minus = u_field(t_tilde + shift)  # u(x - eps)
    r1 = t + 3 * t3 * (u0 * u0 + v0 + v_plus)
    r2 = 3 * t3 * (u0 + u_minus) * v0 + x
    return r1, r2


# -- toda: exact verification of the P-I reduction ----------------------------

def toda_pi_exact_coefficients(u_c: Fraction, t_3: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Carry V2_t~t~ + 6 V2^2 = -a t~ to P-I exactly, tracking powers of a.

    Each transformed coefficient is a pair (rational, exponent of a); the
    exponents cancel identically, leaving W'' = 6 W^2 - xi with coefficients
    (1, 6, 1).  All arithmetic is exact.
    """
    if not (isinstance(u_c, Fraction) and isinstance(t_3, Fraction)):
        raise DomainError("exact verification needs Fraction inputs")
    if u_c == 0 or t_3 <= 0:
        raise DomainError("need u_c != 0 and t_3 > 0")
    a = 2 * u_c**2 / (3 * t_3)
    assert a > 0

    def mul(p, q):
        return (p[0] * q[0], p[1] + q[1])

    def div(p, q):
        return (p[0] / q[0], p[1] - q[1])

    v_of_w = (Fraction(-1), Fraction(2, 5))          # V2 = -a^(2/5) W
    dxi_dt = (Fraction(-1), Fraction(1, 5))          # xi = -a^(1/5) t~
    t_of_xi = div((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1, 5)))

    w2_coeff = mul((Fraction(6), Fraction(0)), mul(v_of_w, v_of_w))
    wpp_coeff = mul(v_of_w, mul(dxi_dt, dxi_dt))
    rhs_coeff = mul((Fraction(-1), Fraction(1)), t_of_xi)  # -a t~ in xi units

    # the equation reads wpp W'' + w2 W^2 = rhs xi; normalize by wpp:
    # W'' = -(w2/wpp) W^2 + (rhs/wpp) xi, so P-I needs the triple below = (1, 6, 1)
    w2_n = div(w2_coeff, wpp_coeff)
    rhs_n = div(rhs_coeff, wpp_coeff)
    if w2_n[1] != 0 or rhs_n[1] != 0:
        raise ArithmeticError("powers of a failed to cancel")
    return (Fraction(1), -w2_n[0], -rhs_n[0])


def toda_matching_map_identity(u_c: Fraction, t_3: Fraction) -> bool:
    """The map sends (u_c/3) sqrt(-t~/t_3) exactly onto -sqrt(xi/6).

    Squaring both sides, the claim is (u_c/3)^2 / (a t_3) == 1/6 with
    a = 2 u_c^2/(3 t_3); exact in rational arithmetic.
    """
    a = 2 * u_c**2 / (3 * t_3)
    return (u_c / 3) ** 2 / (a * t_3) == Fraction(1, 6)
