"""Bubble break-off / merging branch: Toda-type hodograph pair and its
Painleve-I regularization.

The interface data (u, v) of the two-bubble class with only t_1 = t and t_3
active solves the pair

    t + 3 t_3 (u^2 + 2 v) = 0,        6 t_3 u v + x = 0,

whose coefficients are the large-z expansion of r = z / sqrt((z-u)^2 - 4v);
the bubble tips sit at a = u - 2 sqrt(v), b = u + 2 sqrt(v).  The first
equation gives v = -(t + 3 t_3 u^2)/(6 t_3), which turns the second exactly
into the cubic 3 t_3 u^3 + t u - x = 0.  The second-order critical point
(merging moment) is a double root of that cubic; it lies on v_c = u_c^2 with

    t_c + 9 t_3 u_c^2 = 0,    6 t_3 u_c^3 + x_c = 0,    4 t_c^3 + 81 t_3 x_c^2 = 0,

in closed form: find_toda_critical takes u_c as the real cube root of
-x_c/(6 t_3), in floats.  Near it, with eps~ = eps^(1/5),
x = x_c + eps~^4 x~, t = t_c + eps~^4 t~, the fields expand as u = u_c +
eps~^2 U2 + eps~^3 U3 + ..., v = v_c + eps~^2 V2 + ... where U2 = -V2/u_c and
U3 = -V2_x~/(2 u_c), and V2 obeys

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

The module computes the leading term, u_c - (eps~^2/u_c) V2 and v_c + eps~^2
V2; it never solves the pair away from the merging point.  A solver of the
pair through its cubic, the higher-order terms (U3, U4), the generating
coefficients of the pair, the shifted string equations and the exact P-I
change of variables check the leading term in the tests
(tests/branch_solvers.py, tests/paper_identities.py).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError
from .hodograph import float_input
from .painleve import TritronqueeSolution, integrate_tritronquee


class TodaCritical(namedtuple("TodaCritical", "u_c v_c t_c x_c t_3")):
    """Merging-point data, floats: v_c = u_c^2 and the closed-form critical times."""

    __slots__ = ()

    def identity_residual(self) -> float:
        """4 t_c^3 + 81 t_3 x_c^2, scaled; vanishes for consistent data."""
        try:
            lhs = 4 * self.t_c**3 + 81 * self.t_3 * self.x_c**2
        except OverflowError:
            raise DomainError(f"identity residual 4 t_c^3 + 81 t_3 x_c^2 overflows at "
                              f"t_c = {self.t_c!r}, x_c = {self.x_c!r}") from None
        scale = abs(4 * self.t_c**3) + abs(81 * self.t_3 * self.x_c**2)
        return abs(lhs) / scale if scale else 0.0


# -- critical point ----------------------------------------------------------

def find_toda_critical(t_3, x_c) -> TodaCritical:
    """Closed-form second-order critical point of the merging class.

    u_c is the real cube root of -x_c/(6 t_3); v_c = u_c^2, t_c = -9 t_3
    u_c^2, all in floats.  Inputs beyond the float range, and results that
    leave it, are refused.
    """
    t_3, x_c = float_input("t_3", t_3), float_input("x_c", x_c)
    if t_3 == 0 or x_c == 0:
        raise DomainError("need t_3 != 0 and x_c != 0 for a nondegenerate merging point")
    q = -x_c / (6 * t_3)
    u_c = math.copysign(abs(q) ** (1.0 / 3), q)
    v_c = u_c * u_c
    t_c = -9 * t_3 * v_c
    if not all(map(math.isfinite, (u_c, v_c, t_c))):
        raise DomainError(f"merging point u_c = (-x_c/(6 t_3))^(1/3) = {u_c!r} (v_c = {v_c!r}, t_c = {t_c!r}) "
                          f"overflows at t_3 = {t_3!r}, x_c = {x_c!r}")
    return TodaCritical(u_c=u_c, v_c=v_c, t_c=t_c, x_c=x_c, t_3=t_3)


# -- inner solution ----------------------------------------------------------

class TodaInner:
    """Rescaled inner data: critical point, zoom parameter and tritronquee.

    `a` is the similarity-ODE forcing constant 2 u_c^2 / (3 t_3); the P-I
    change of variables is W = -a^(-2/5) V2, xi = -a^(1/5) t~.  u_c, a, its
    powers a_fifth = a^(1/5) and a_two_fifths = a^(2/5), and eps~ = eps^(1/5)
    are computed once, at construction.
    """

    def __init__(self, crit: TodaCritical, eps: float, tritronquee: TritronqueeSolution):
        self.crit, self.eps, self.tritronquee = crit, eps, tritronquee
        if not eps > 0:
            raise DomainError("eps must be positive")
        self.u_c = crit.u_c
        self.a = a = 2.0 * self.u_c**2 / (3.0 * crit.t_3)
        if a in (0.0, math.inf):  # a itself leaves the float range
            raise DomainError(f"similarity constant a = 2 u_c^2/(3 t_3) {'overflows' if a else 'underflows'} "
                              f"at t_3 = {crit.t_3!r}, x_c = {crit.x_c!r}")
        if not a > 0:
            raise DomainError("similarity constant a = 2 u_c^2/(3 t_3) must be positive "
                              "(t_3 > 0) for the tritronquee matching direction")
        self.a_fifth, self.a_two_fifths = a ** (1.0 / 5.0), a ** (2.0 / 5.0)
        self.eps_tilde = eps ** (1.0 / 5.0)

    def xi_of_ttilde(self, t_tilde):
        return -self.a_fifth * t_tilde

    @property
    def t_tilde_pole(self) -> float:
        """Image of the first tritronquee pole: end of the regularized window."""
        if self.tritronquee.pole is None:
            raise DomainError("tritronquee was not integrated through its pole")
        return -self.tritronquee.pole / self.a_fifth


def build_toda_inner(t_3: float, x_c: float, eps: float,
                     tritronquee: TritronqueeSolution | None = None, tol: float = 1e-11) -> TodaInner:
    crit = find_toda_critical(t_3, x_c)
    trit = tritronquee if tritronquee is not None else integrate_tritronquee(tol=tol)
    return TodaInner(crit=crit, eps=eps, tritronquee=trit)


def toda_inner_V2(t_tilde, inner: TodaInner):
    """Leading correction V2(t~) = -a^(2/5) W(-a^(1/5) t~) at a float or an ndarray t~.

    A NaN or infinite t~ is refused by its own name, before the tritronquee would name xi."""
    lo, hi = ((t_tilde, t_tilde) if isinstance(t_tilde, (int, float))
              else (t_tilde.min(initial=math.inf), t_tilde.max(initial=-math.inf)))
    if not (-math.inf < lo and hi < math.inf):  # a NaN fails it too
        raise DomainError(f"t~ = {lo if not lo > -math.inf else hi} is not a finite number")
    w, _ = inner.tritronquee.eval_extended(inner.xi_of_ttilde(t_tilde))
    return -inner.a_two_fifths * w


def toda_composite(t_tilde, inner: TodaInner):
    """(u, v) of the regularized merging flow at inner time t~.

    u = u_c - (eps~^2/u_c) V2,  v = v_c + eps~^2 V2.
    """
    v2 = toda_inner_V2(t_tilde, inner)
    e2 = inner.eps_tilde**2
    u = inner.u_c - e2 / inner.u_c * v2
    v = inner.crit.v_c + e2 * v2
    return u, v
