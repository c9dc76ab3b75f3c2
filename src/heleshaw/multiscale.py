"""Multiscale reduction of the quintic finger near its gradient catastrophe, and inner/outer matching.

Near the critical point (x_c, v_c), of order m = 2 (CriticalPoint.m), the
small dispersion parameter eps is traded for

    eps~ = eps^(2/5),   x = x_c + eps~^2 x~,

and the solution is expanded as u = v_c + eps~ u1(x~) + O(eps~^2).  The
leading correction solves the ODE built from the second Gel'fand-Dikii
polynomial,

    A R_2(u1) + x~ = A (u1'' + 3 u1^2) / 8 + x~ = 0,    A = c_32(v_c) t_3 = 5 v_c:

of the paper's A = sum_j c_j2(v_c) t_j only the t_3 = 2/7 term is left, as
c_12 = 0 and c_32(v) = (35/2) v.  The affine substitution u1 = alpha W,
x~ = beta xi with

    alpha = -2 (4/A)^(2/5),      beta = -(A/4)^(1/5)

turns it into Painleve-I, W'' = 6 W^2 - xi, and maps the fold asymptotics
u1 ~ sqrt(c x~) (x~ -> -infinity) onto the tritronquee decay W ~ -sqrt(xi/6)
(xi -> +infinity); the identity c beta = alpha^2 / 6 guaranteeing this is a
consequence of A = (4/3) d2H/dv2 at the critical point and holds exactly.

The composite solution glues the outer hodograph branch to the rescaled
inner tritronquee at a switch abscissa and holds up to one pole guard short
of x*, the image of the first negative pole xi*:  x* = x_c + eps~^2 beta xi*.

The general route (the reduced ODE for any deformation times, the P-I
rescaling of any A > 0) and the exact identities of the reduction (the
canonical form, the rational P-I coefficients and the inverse map back to
A) are checked in the tests (tests/paper_identities.py).
"""

from __future__ import annotations

import math

from .errors import DomainError
from .hodograph import CriticalPoint, closed_u0, find_critical_25
from .painleve import TritronqueeSolution, integrate_tritronquee


class ScalingMapKdV:
    """Zoom maps between physical and inner variables near the catastrophe: eps, eps~ = eps^(2/5)
    and zoom = eps~^2, the width of the inner region."""

    __slots__ = ("eps", "eps_tilde", "zoom")

    def __init__(self, eps: float):
        if not 0 < eps < math.inf:  # NaN fails
            raise DomainError(f"dispersion parameter eps = {eps} outside (0, inf)")
        self.eps = eps
        self.eps_tilde = eps ** (2.0 / 5)
        self.zoom = self.eps_tilde**2


class CompositeSolution:
    """Outer hodograph branch glued to the rescaled inner tritronquee.

    The outer branch is used below x_switch (not NaN; one beyond x_c is lowered to the float above x_c,
    so the outer branch ends at its fold), the inner one above, for exactly the x whose
    xi = (x - x_c)/zoom_beta, zoom_beta = eps~^2 beta, the tritronquee serves: a finite xi one POLE_GUARD
    or more above the pole xi*.  Its image x_star = x_c + zoom_beta xi* is reported, not tested; x_last,
    the image of xi_last, is the last abscissa served by default, clamped below x* where it rounds onto
    x* (eps < ~1e-21).  Both are computed once.  Above xi0 the seeding series continues the tritronquee,
    which keeps the matching window fully evaluable.  alpha and beta are the P-I rescaling u1 = alpha W,
    x~ = beta xi.
    """

    def __init__(self, cp: CriticalPoint, scaling: ScalingMapKdV, alpha: float, beta: float,
                 tritronquee: TritronqueeSolution, x_switch: float):
        if math.isnan(x_switch):
            raise DomainError(f"x_switch = {x_switch} is not a number")
        self.cp, self.scaling, self.alpha, self.beta = cp, scaling, alpha, beta
        self.tritronquee, self.x_switch = tritronquee, min(x_switch, math.nextafter(cp.x_c, math.inf))
        self.zoom_beta = scaling.zoom * beta
        self.x_star = cp.x_c + self.zoom_beta * tritronquee.pole
        self.x_last = min(cp.x_c + self.zoom_beta * tritronquee.xi_last, math.nextafter(self.x_star, -math.inf))

    @property
    def v_c(self) -> float:
        return self.cp.v_c

    @property
    def x_c(self) -> float:
        return self.cp.x_c

    def xi_of_x(self, x):
        return (x - self.x_c) / self.zoom_beta

    def inner_u(self, x):
        """v_c + eps~ alpha W(xi(x)): the inner approximation at physical x, a float or an array.

        An x whose xi the tritronquee does not serve is refused by x: the first of an array."""
        xi, bad = self.tritronquee.served_image(self.xi_of_x, x)
        if bad is not None:
            raise DomainError(f"x = {bad} is outside the inner branch, which starts where (x - x_c)/(eps~^2 beta) "
                              f"is finite and ends a pole guard short of x* = {self.x_star}")
        w, _ = self.tritronquee.eval_extended(xi)
        return self.v_c + self.scaling.eps_tilde * self.alpha * w

    def outer_u(self, x):
        """The closed-form outer hodograph branch at physical x <= x_c, a float or an ndarray."""
        return closed_u0(x, self.cp.t_1)

    def eval(self, x: float) -> float:
        """u at one abscissa, on floats: bit for bit the eval_many value."""
        x = float(x)
        return self.outer_u(x) if x < self.x_switch else self.inner_u(x)

    def eval_many(self, xs):
        """Outer branch below x_switch, inner branch from x_switch on."""
        import numpy as np
        xs = np.asarray(xs, dtype=float)
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

    Runs the whole reduction pipeline: critical point, P-I rescaling,
    tritronquee integration (reusable via `tritronquee`).
    """
    cp = find_critical_25(t_1)
    # A / 4 with A = c_32(v_c) t_3 = (35/2) v_c (2/7) = 5 v_c, in the operations of the c_j2 sum over
    # the times, whose bits it keeps (1.25 v_c rounds differently)
    ratio = 17.5 * cp.v_c * (2 / 7) / 4.0
    trit = tritronquee if tritronquee is not None else integrate_tritronquee(xi0=xi0, tol=tol)
    scaling = ScalingMapKdV(eps=eps)
    return CompositeSolution(cp=cp, scaling=scaling, alpha=-2.0 * ratio ** (-2.0 / 5.0),
                             beta=-(ratio ** (1.0 / 5.0)), tritronquee=trit, x_switch=x_switch)


def overlap_report(comp: CompositeSolution, interval: tuple[float, float], n: int = 601) -> dict:
    """Max absolute and relative deviation |outer - inner| on a uniform grid."""
    import numpy as np
    a, b = interval
    if not -math.inf < a < b < math.inf:  # a NaN fails it too
        raise DomainError(f"overlap interval [{a}, {b}] is empty or not finite")
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
