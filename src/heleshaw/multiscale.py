"""Multiscale reduction near a gradient catastrophe and inner/outer matching.

Near a critical point (t_c, v_c) of order m the small dispersion parameter
eps is traded for

    eps~ = eps^(2/(2m+1)),   x = x_c + eps~^m x~,   t_j = t_cj + eps~^m t~_j,

and the solution is expanded as u = v_c + eps~ u1(x~) + O(eps~^2).  The
leading correction solves an ODE built from the m-th Gel'fand-Dikii
polynomial,

    A R_m(u1) + sum_j b_j t~_j + x~ = 0,
    A = sum_j c_jm(v_c) t_cj,     b_j = c_j0(v_c).

The order is fixed at m = 2 (CriticalPoint.m), the paper's case: eps~ =
eps^(2/5), and with t~ = 0 the ODE reads A (u1'' + 3 u1^2) / 8 + x~ = 0.
The affine substitution u1 = alpha W, x~ = beta xi with

    alpha = -2 (4/A)^(2/5),      beta = -(A/4)^(1/5)

turns it into Painleve-I, W'' = 6 W^2 - xi, and maps the fold asymptotics
u1 ~ sqrt(c x~) (x~ -> -infinity) onto the tritronquee decay W ~ -sqrt(xi/6)
(xi -> +infinity); the identity c beta = alpha^2 / 6 guaranteeing this is a
consequence of A = (4/3) d2H/dv2 at the critical point and holds exactly.

The composite solution glues the outer hodograph branch to the rescaled
inner tritronquee at a switch abscissa and is valid up to x*, the image of
the first negative pole xi*:  x* = x_c + eps~^2 beta xi*.

The exact identities of the reduction (the canonical form, the rational
P-I coefficients and the inverse map back to A) are checked in the tests
(tests/paper_identities.py).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateReduction, DomainError, OutOfRange
from .hodograph import CriticalPoint, c_coeff, closed_u0, find_critical_25, left_sum
from .painleve import TritronqueeSolution, integrate_tritronquee


@dataclass(frozen=True)
class ScalingMapKdV:
    """Zoom maps between physical and inner variables near the catastrophe."""

    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise DomainError("dispersion parameter must be positive")

    @property
    def eps_tilde(self) -> float:
        return self.eps ** (2.0 / 5)

    @property
    def zoom(self) -> float:
        """eps~^2, the width of the inner region."""
        return self.eps_tilde**2


@dataclass(frozen=True)
class LeadingODE:
    """Reduced equation A R_2(u1) + sum b_j t~_j + x~ = 0 at the critical point.

    Coefficients stay exact Fractions when built from exact critical data.
    """

    A: object
    b: tuple
    v_c: object


@dataclass(frozen=True)
class PIReduction:
    """Coefficients of u1 = alpha W, x~ = beta xi, the maps carrying the reduced ODE to P-I."""

    alpha: float
    beta: float


def build_leading_ode(cp: CriticalPoint) -> LeadingODE:
    """Assemble the reduced-ODE coefficients from critical data.

    A = sum_j c_j2(v_c) t_cj multiplies R_2; b_j = c_j0(v_c) weights the
    rescaled deformation directions.  Exact for Fraction-valued data.
    """
    A = left_sum(c_coeff(j, 2, cp.v_c) * tj for j, tj in cp.times_c.items())
    if A == 0:
        raise DegenerateReduction("leading multiplier A vanishes")
    b = tuple(c_coeff(j, 0, cp.v_c) for j in range(1, len(cp.times_c.t) + 1))
    return LeadingODE(A=A, b=b, v_c=cp.v_c)


def reduce_to_pi(ode: LeadingODE) -> PIReduction:
    """Rescale the m = 2 leading ODE to W'' = 6 W^2 - xi.

    Solving (A alpha / 8 beta^2) W'' + (3 A alpha^2 / 8) W^2 + beta xi = 0
    against the target coefficients gives alpha beta^2 = -2 and
    A alpha = 8 beta^3, i.e. beta = -(A/4)^(1/5), alpha = -2 (4/A)^(2/5).
    A > 0 keeps beta < 0, which is what sends x~ -> -infinity to
    xi -> +infinity, the tritronquee matching direction.
    """
    if not ode.A > 0:
        raise DegenerateReduction("leading multiplier must be positive for the fold branch")
    ratio = float(ode.A) / 4.0
    beta = -(ratio ** (1.0 / 5.0))
    alpha = -2.0 * ratio ** (-2.0 / 5.0)
    return PIReduction(alpha=alpha, beta=beta)


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

    @property
    def v_c(self) -> float:
        return self.cp.v_c

    @property
    def x_c(self) -> float:
        return self.cp.x_c

    @property
    def x_star(self) -> float:
        """Image of the first negative pole: end of the composite domain."""
        if self.tritronquee.pole is None:
            raise OutOfRange("tritronquee integration did not reach its pole")
        return self.x_c + self.scaling.zoom * self.reduction.beta * self.tritronquee.pole

    def xi_of_x(self, x):
        return (x - self.x_c) / (self.scaling.zoom * self.reduction.beta)

    def inner_u(self, x):
        """v_c + eps~ alpha W(xi(x)): the inner approximation at physical x, a float or an array."""
        scalar = isinstance(x, (int, float))
        if not scalar:
            import numpy as np
            x = np.asarray(x, dtype=float)
        if x >= self.x_star if scalar else (x >= self.x_star).any():
            raise OutOfRange(f"x beyond the pole image x* = {self.x_star!r}")
        w, _ = self.tritronquee.eval_extended(self.xi_of_x(x))
        return self.v_c + self.scaling.eps_tilde * self.reduction.alpha * w

    def outer_u(self, x):
        """The closed-form outer hodograph branch at physical x <= x_c, a float or an ndarray."""
        return closed_u0(x, self.cp.times_c.t[0])

    def eval(self, x: float) -> float:
        """u at one abscissa, on floats: bit for bit the eval_many value."""
        x = float(x)
        if x >= self.x_star:
            raise OutOfRange(f"x = {x} is at or beyond x* = {self.x_star}")
        return self.outer_u(x) if x < self.x_switch else self.inner_u(x)

    def eval_many(self, xs):
        """Outer branch below x_switch, inner branch on [x_switch, x_star)."""
        import numpy as np
        xs = np.asarray(xs, dtype=float)
        if np.any(xs >= self.x_star):
            raise OutOfRange(f"x = {xs.max()} is at or beyond x* = {self.x_star}")
        out = np.empty_like(xs)
        lo = xs < self.x_switch
        if lo.any():
            out[lo] = self.outer_u(xs[lo])
        if not lo.all():
            out[~lo] = self.inner_u(xs[~lo])
        return float(out) if out.ndim == 0 else out


def build_composite(t_1: float = -0.8, eps: float = 1e-5, x_switch: float = 0.638,
                    xi0: float = 30.0, tol: float = 1e-11,
                    tritronquee: TritronqueeSolution | None = None) -> CompositeSolution:
    """Assemble the quintic-finger composite solution for given (t_1, eps).

    Runs the whole reduction pipeline: critical point, leading ODE,
    P-I rescaling, tritronquee integration (reusable via `tritronquee`).
    """
    cp = find_critical_25(t_1)
    ode = build_leading_ode(cp)
    red = reduce_to_pi(ode)
    trit = tritronquee if tritronquee is not None else integrate_tritronquee(xi0=xi0, tol=tol)
    if not trit.blew_up:
        raise DomainError("composite needs a tritronquee integrated through its pole")
    scaling = ScalingMapKdV(eps=eps)
    return CompositeSolution(cp=cp, scaling=scaling, ode=ode, reduction=red, tritronquee=trit,
                             x_switch=x_switch)


def overlap_report(comp: CompositeSolution, interval: tuple[float, float], n: int = 601) -> dict:
    """Max absolute and relative deviation |outer - inner| on a uniform grid."""
    import numpy as np
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
        "eps": comp.scaling.eps,
        "n": int(n),
    }
