"""Multiscale reduction near a gradient catastrophe and inner/outer matching.

Near an m-th order critical point (t_c, v_c) the small dispersion parameter
eps is traded for

    eps~ = eps^(2/(2m+1)),   x = x_c + eps~^m x~,   t_j = t_cj + eps~^m t~_j,

and the solution is expanded as u = v_c + eps~ u1(x~) + O(eps~^2).  The
leading correction solves an ODE built from the m-th Gel'fand-Dikii
polynomial,

    A R_m(u1) + sum_j b_j t~_j + x~ = 0,
    A = sum_j c_jm(v_c) t_cj,     b_j = c_j0(v_c),

which for m = 2 (with t~ = 0) is  A (u1'' + 3 u1^2) / 8 + x~ = 0.  The affine
substitution u1 = alpha W, x~ = beta xi with

    alpha = -2 (4/A)^(2/5),      beta = -(A/4)^(1/5)

turns it into Painleve-I, W'' = 6 W^2 - xi, and maps the fold asymptotics
u1 ~ sqrt(c x~) (x~ -> -infinity) onto the tritronquee decay W ~ -sqrt(xi/6)
(xi -> +infinity); the identity c beta = alpha^2 / 6 guaranteeing this is a
consequence of A = (4/3) d2H/dv2 at the critical point and holds exactly.

The composite solution glues the outer hodograph branch to the rescaled
inner tritronquee at a switch abscissa and is valid up to x*, the image of
the first negative pole xi*:  x* = x_c + eps~^2 beta xi*.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DegenerateReduction, DomainError, OutOfRange, UnsupportedOrder
from .hodograph import CriticalPoint, KdVTimes, c_coeff, closed_u0, find_critical_25
from .painleve import TritronqueeSolution, integrate_tritronquee


@dataclass(frozen=True)
class ScalingMapKdV:
    """Zoom maps between physical and inner variables near the catastrophe."""

    eps: float
    m: int

    def __post_init__(self):
        if not self.eps > 0:
            raise DomainError("dispersion parameter must be positive")
        if self.m < 2:
            raise DomainError("criticality order must be >= 2")

    @property
    def eps_tilde(self) -> float:
        return self.eps ** (2.0 / (2 * self.m + 1))

    @property
    def zoom(self) -> float:
        """eps~^m, the width of the inner region."""
        return self.eps_tilde**self.m

    def x_to_inner(self, x, x_c):
        return (x - x_c) / self.zoom

    def x_from_inner(self, x_tilde, x_c):
        return x_c + self.zoom * x_tilde

    def t_to_inner(self, t, t_c):
        return (t - t_c) / self.zoom


@dataclass(frozen=True)
class LeadingODE:
    """Reduced equation A R_m(u1) + sum b_j t~_j + x~ = 0 at the critical point.

    Coefficients stay exact Fractions when built from exact critical data.
    """

    A: object
    b: tuple
    m: int
    v_c: object

    def canonical_m2(self):
        """(1, 3, rhs) of u1'' + 3 u1^2 = rhs * x~ for the m = 2 case."""
        if self.m != 2:
            raise UnsupportedOrder("canonical form implemented for m = 2 only")
        return (1, 3, -8 / self.A)


@dataclass(frozen=True)
class PIReduction:
    """Affine maps u1 = alpha W, x~ = beta xi carrying the reduced ODE to P-I."""

    alpha: float
    beta: float

    def xi_of_xtilde(self, x_tilde):
        return x_tilde / self.beta

    def u1_of_w(self, w):
        return self.alpha * w


def build_leading_ode(cp: CriticalPoint, times_c: KdVTimes | None = None) -> LeadingODE:
    """Assemble the reduced-ODE coefficients from critical data.

    A = sum_j c_jm(v_c) t_cj multiplies R_m; b_j = c_j0(v_c) weights the
    rescaled deformation directions.  Exact for Fraction-valued data.
    """
    times = times_c if times_c is not None else cp.times_c
    A = sum(c_coeff(j, cp.m, cp.v_c) * tj for j, tj in times.items())
    if A == 0:
        raise DegenerateReduction("leading multiplier A vanishes")
    b = tuple(c_coeff(j, 0, cp.v_c) for j in range(1, len(times.t) + 1))
    return LeadingODE(A=A, b=b, m=cp.m, v_c=cp.v_c)


def reduce_to_pi(ode: LeadingODE) -> PIReduction:
    """Rescale the m = 2 leading ODE to W'' = 6 W^2 - xi.

    Solving (A alpha / 8 beta^2) W'' + (3 A alpha^2 / 8) W^2 + beta xi = 0
    against the target coefficients gives alpha beta^2 = -2 and
    A alpha = 8 beta^3, i.e. beta = -(A/4)^(1/5), alpha = -2 (4/A)^(2/5).
    A > 0 keeps beta < 0, which is what sends x~ -> -infinity to
    xi -> +infinity, the tritronquee matching direction.
    """
    if ode.m != 2:
        raise UnsupportedOrder(f"only m = 2 reduces to Painleve-I (got m = {ode.m})")
    if not ode.A > 0:
        raise DegenerateReduction("leading multiplier must be positive for the fold branch")
    ratio = float(ode.A) / 4.0
    beta = -(ratio ** (1.0 / 5.0))
    alpha = -2.0 * ratio ** (-2.0 / 5.0)
    return PIReduction(alpha=alpha, beta=beta)


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


@dataclass
class CompositeSolution:
    """Outer hodograph branch glued to the rescaled inner tritronquee.

    Valid for x < x_star, the image of the first tritronquee pole.  The
    outer branch is used below x_switch, the inner one above; for inner
    abscissas that map beyond the integrated window (xi > xi0) the seeding
    series continues the tritronquee, which keeps the matching window fully
    evaluable.
    """

    cp: CriticalPoint
    scaling: ScalingMapKdV
    ode: LeadingODE
    reduction: PIReduction
    tritronquee: TritronqueeSolution
    x_switch: float
    outer: Callable[[float], float]

    @property
    def eps(self) -> float:
        return self.scaling.eps

    @property
    def v_c(self) -> float:
        return float(self.cp.v_c)

    @property
    def x_c(self) -> float:
        return float(self.cp.x_c)

    @property
    def x_star(self) -> float:
        """Image of the first negative pole: end of the composite domain."""
        if self.tritronquee.pole is None:
            raise OutOfRange("tritronquee integration did not reach its pole")
        return self.x_c + self.scaling.zoom * self.reduction.beta * self.tritronquee.pole

    def xi_of_x(self, x):
        return (x - self.x_c) / (self.scaling.zoom * self.reduction.beta)

    def inner_u(self, x):
        """v_c + eps~ alpha W(xi(x)): the inner approximation at physical x."""
        xs = np.asarray(x, dtype=float)
        if np.any(xs >= self.x_star):
            raise OutOfRange(f"x beyond the pole image x* = {self.x_star!r}")
        w, _ = self.tritronquee.eval_extended(self.xi_of_x(xs))
        u = self.v_c + self.scaling.eps_tilde * self.reduction.alpha * w
        return float(u) if np.ndim(x) == 0 else u

    def outer_u(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.array([self.outer(float(xi)) for xi in xs])
        return float(out[0]) if np.ndim(x) == 0 else out

    def eval(self, x: float) -> float:
        """Outer branch below x_switch, inner branch on [x_switch, x_star)."""
        if x >= self.x_star:
            raise OutOfRange(f"x = {x} is at or beyond x* = {self.x_star}")
        if x < self.x_switch:
            return self.outer(float(x))
        return self.inner_u(float(x))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if np.any(xs >= self.x_star):
            raise OutOfRange("abscissa at or beyond x*")
        out = np.empty_like(xs)
        lo = xs < self.x_switch
        if lo.any():
            out[lo] = self.outer_u(xs[lo])
        if (~lo).any():
            out[~lo] = self.inner_u(xs[~lo])
        return out


def build_composite(t_1: float = -0.8, eps: float = 1e-5, x_switch: float = 0.638,
                    xi0: float = 30.0, tol: float = 1e-11,
                    tritronquee: TritronqueeSolution | None = None) -> CompositeSolution:
    """Assemble the quintic-finger composite solution for given (t_1, eps).

    Runs the whole reduction pipeline: critical point, leading ODE,
    P-I rescaling, tritronquee integration (reusable via `tritronquee`).
    """
    cp = find_critical_25(t_1)
    ode = build_leading_ode(cp, cp.times_c)
    red = reduce_to_pi(ode)
    trit = tritronquee if tritronquee is not None else integrate_tritronquee(xi0=xi0, tol=tol)
    if not trit.blew_up:
        raise DomainError("composite needs a tritronquee integrated through its pole")
    scaling = ScalingMapKdV(eps=eps, m=cp.m)
    return CompositeSolution(
        cp=cp, scaling=scaling, ode=ode, reduction=red, tritronquee=trit,
        x_switch=x_switch, outer=lambda x: closed_u0(x, t_1),
    )


def overlap_report(comp: CompositeSolution, interval: tuple[float, float], n: int = 601) -> dict:
    """Max absolute and relative deviation |outer - inner| on a uniform grid."""
    a, b = interval
    if not a < b:
        raise DomainError("empty overlap interval")
    xs = np.linspace(a, b, n)
    outer = comp.outer_u(xs)
    inner = comp.inner_u(xs)
    diff = np.abs(outer - inner)
    return {
        "max_abs_err": float(diff.max()),
        "max_rel_err": float((diff / np.abs(outer)).max()),
        "interval": [float(a), float(b)],
        "eps": comp.eps,
        "n": int(n),
    }


def overlap_error(comp: CompositeSolution, interval: tuple[float, float], n: int = 601) -> float:
    """Max over n uniform samples of |outer(x) - inner(x)|."""
    return overlap_report(comp, interval, n)["max_abs_err"]
