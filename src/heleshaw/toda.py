"""Bubble break-off / merging branch: Toda-type hodograph pair and its
Painleve-I regularization.

The interface data (u, v) of the two-bubble class with only t_1 = t and t_3
active solves the pair

    t + 3 t_3 (u^2 + 2 v) = 0,        6 t_3 u v + x = 0,

whose coefficients are the large-z expansion of r = z / sqrt((z-u)^2 - 4v);
the bubble tips sit at a = u - 2 sqrt(v), b = u + 2 sqrt(v).  The first
equation gives v = -(t + 3 t_3 u^2)/(6 t_3), which turns the second exactly
into the cubic 3 t_3 u^3 + t u - x = 0; the pair is solved through it with
hodograph.branch_root.  A second-order critical point (merging moment) is a
double root of that cubic; it occurs on v_c = u_c^2 with

    t_c + 9 t_3 u_c^2 = 0,    6 t_3 u_c^3 + x_c = 0,    4 t_c^3 + 81 t_3 x_c^2 = 0.

Near it, with eps~ = eps^(1/5), x = x_c + eps~^4 x~, t = t_c + eps~^4 t~, the
fields expand as u = u_c + eps~^2 U2 + eps~^3 U3 + ..., v = v_c + eps~^2 V2
+ ... where U2 = -V2/u_c and U3 = -V2_x~/(2 u_c), and V2 obeys

    V2_x~x~ + (6/u_c^2) V2^2 = (2/(3 t_3 u_c)) (x~ - u_c t~).

The right-hand side depends on (x~, t~) through s = x~ - u_c t~ alone, so V2
does too; we work at x~ = 0 (x frozen at x_c) where the similarity equation
in t~ reads V2_t~t~ + 6 V2^2 = -a t~ with a = 2 u_c^2 / (3 t_3), and

    W = -a^(-2/5) V2,     xi = -a^(1/5) t~

carries it exactly to Painleve-I, W'' = 6 W^2 - xi.  Matching toward
t~ -> -infinity selects the tritronquee and reproduces the pre-merging
branch V2 ~ (u_c/3) sqrt(-t~/t_3) (sign valid on the u_c > 0 branch; the
real cube root u_c = (-x_c/(6 t_3))^(1/3) is negative when x_c/t_3 > 0 and
then the matched branch is the mirror one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DomainError
from .hodograph import branch_root, poly_scales
from .painleve import TritronqueeSolution, integrate_tritronquee


@dataclass(frozen=True)
class TodaTimes:
    """Physical time t (= t_1), cubic deformation t_3, and abscissa x."""

    t: float
    t_3: float
    x: float

    def __post_init__(self):
        if self.t_3 == 0:
            raise DomainError("the worked class needs t_3 != 0")


@dataclass(frozen=True)
class TodaCritical:
    """Merging-point data: v_c = u_c^2 and the closed-form critical times."""

    u_c: object
    v_c: object
    t_c: object
    x_c: object
    t_3: object

    def identity_residual(self) -> float:
        """4 t_c^3 + 81 t_3 x_c^2, scaled; vanishes for consistent data."""
        try:
            lhs = 4 * self.t_c**3 + 81 * self.t_3 * self.x_c**2
        except OverflowError:
            raise DomainError(f"identity residual 4 t_c^3 + 81 t_3 x_c^2 overflows at "
                              f"t_c = {self.t_c!r}, x_c = {self.x_c!r}") from None
        scale = abs(4 * self.t_c**3) + abs(81 * self.t_3 * self.x_c**2)
        return abs(lhs) / scale if scale else 0.0


# -- generating coefficients -------------------------------------------------

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


# -- branch solving ---------------------------------------------------------

def solve_toda_hodograph(times: TodaTimes, seed: tuple[float, float],
                         tol: float = 1e-13, maxiter: int = 60) -> tuple[float, float]:
    """Root (u, v) of the hodograph pair on the bubble branch that seed[0] selects.

    The first equation gives v = -(t + 3 t_3 u^2)/(6 t_3), and the second then
    reads 3 t_3 u^3 + t u - x = 0.  u is the root of that cubic that
    branch_root reaches from seed[0] (seed[1] is not used); its double root
    is the merging point, where the pair's Jacobian 36 t_3^2 (u^2 - v)
    vanishes.  Raises DerivativeVanishes at or beyond the merging point,
    NoConvergence when no root is reachable from the seed.
    """
    t3 = times.t_3
    coeffs = [-float(times.x), float(times.t), 0.0, 3.0 * t3]
    scale, dscale = poly_scales(coeffs, seed[0])
    u = branch_root(coeffs, seed[0], tol * scale, dscale, maxiter)
    return u, -(times.t + 3 * t3 * u * u) / (6 * t3)


def find_toda_critical(t_3, x_c) -> TodaCritical:
    """Closed-form second-order critical point of the merging class.

    u_c is the real cube root of -x_c/(6 t_3); v_c = u_c^2, t_c = -9 t_3
    u_c^2.  Exact for Fraction inputs with an exact cube root.
    """
    if t_3 == 0 or x_c == 0:
        raise DomainError("need t_3 != 0 and x_c != 0 for a nondegenerate merging point")
    u_c = _cbrt_like(-x_c / (6 * t_3))
    v_c = u_c * u_c
    t_c = -9 * t_3 * v_c
    return TodaCritical(u_c=u_c, v_c=v_c, t_c=t_c, x_c=x_c, t_3=t_3)


def _cbrt_like(q):
    if isinstance(q, Fraction):
        for sign in (1, -1):
            num, den = sign * q.numerator, q.denominator
            if num >= 0:
                rn, rd = round(num ** (1 / 3)), round(den ** (1 / 3))
                for cn in (rn - 1, rn, rn + 1):
                    for cd in (rd - 1, rd, rd + 1):
                        if cd > 0 and cn**3 == num and cd**3 == den:
                            return sign * Fraction(cn, cd)
        q = float(q)
    return math.copysign(abs(q) ** (1.0 / 3.0), q)


# -- inner solution ----------------------------------------------------------

@dataclass
class TodaInner:
    """Rescaled inner data: critical point, zoom parameter and tritronquee.

    `a` is the similarity-ODE forcing constant 2 u_c^2 / (3 t_3); the P-I
    change of variables is W = -a^(-2/5) V2, xi = -a^(1/5) t~.
    """

    crit: TodaCritical
    eps: float
    tritronquee: TritronqueeSolution

    def __post_init__(self):
        if not self.eps > 0:
            raise DomainError("eps must be positive")
        if not float(self.a) > 0:
            raise DomainError("similarity constant a = 2 u_c^2/(3 t_3) must be positive "
                              "(t_3 > 0) for the tritronquee matching direction")

    @property
    def u_c(self) -> float:
        return float(self.crit.u_c)

    @property
    def a(self) -> float:
        return 2.0 * self.u_c**2 / (3.0 * float(self.crit.t_3))

    @property
    def eps_tilde(self) -> float:
        return self.eps ** (1.0 / 5.0)

    def xi_of_ttilde(self, t_tilde):
        return -(self.a ** (1.0 / 5.0)) * t_tilde

    @property
    def t_tilde_pole(self) -> float:
        """Image of the first tritronquee pole: end of the regularized window."""
        if self.tritronquee.pole is None:
            raise DomainError("tritronquee was not integrated through its pole")
        return -self.tritronquee.pole / self.a ** (1.0 / 5.0)


def build_toda_inner(t_3: float, x_c: float, eps: float,
                     tritronquee: Optional[TritronqueeSolution] = None,
                     xi0: float = 30.0, tol: float = 1e-11) -> TodaInner:
    crit = find_toda_critical(t_3, x_c)
    trit = tritronquee if tritronquee is not None else integrate_tritronquee(xi0=xi0, tol=tol)
    return TodaInner(crit=crit, eps=eps, tritronquee=trit)


def toda_inner_V2(t_tilde, inner: TodaInner):
    """Leading correction V2(t~) = -a^(2/5) W(-a^(1/5) t~)."""
    w, _ = inner.tritronquee.eval_extended(inner.xi_of_ttilde(t_tilde))
    return -(inner.a ** (2.0 / 5.0)) * w


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


def toda_composite(t_tilde, inner: TodaInner):
    """(u, v) of the regularized merging flow at inner time t~.

    u = u_c - (eps~^2/u_c) V2,  v = v_c + eps~^2 V2.
    """
    v2 = toda_inner_V2(t_tilde, inner)
    e2 = inner.eps_tilde**2
    u = inner.u_c - e2 / inner.u_c * v2
    v = float(inner.crit.v_c) + e2 * v2
    return u, v


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


# -- exact verification of the P-I reduction ---------------------------------

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
