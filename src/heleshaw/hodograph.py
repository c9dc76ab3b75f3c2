"""Dispersionless KdV hodograph equation and its gradient catastrophes.

The interface unknown v solves the implicit hodograph equation

    H(t, v) = sum_k (2k+1) t_k r_k(v) + x = 0,

where r_k(v) = binom(2k, k) (v/4)^k are the large-z expansion coefficients of
z / sqrt(z^2 - v).  An m-th order critical point has dH/dv = ... =
d^{m-1}H/dv^{m-1} = 0 with the m-th derivative nonzero; beyond it the branch
folds and derivatives of v blow up (gradient catastrophe).  Near such a point

    v ~ v_c + (c (x - x_c))^(1/m),      c = -m! / (d^m H/dv^m),

which is what the multiscale reduction removes.

All coefficient formulas are evaluated in exact rational arithmetic and only
degrade to float when the inputs are floats, so the downstream reduced-ODE
construction can be carried out exactly for rational critical data.

The worked configuration throughout is the quintic finger class
(t_3 = 2/7, all other deformation times zero except t_1), for which the
hodograph equation becomes (5/8) v^3 + (3/2) t_1 v + x = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DerivativeVanishes, DomainError, NoConvergence, UnsupportedOrder

#: deformation time t_3 of the quintic finger configuration
T3_QUINTIC = Fraction(2, 7)


@dataclass(frozen=True)
class KdVTimes:
    """Flow abscissa x plus deformation times (t_1, ..., t_{l+1}), l >= 1."""

    x: float
    t: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(self.t))
        if len(self.t) < 2:
            raise ValueError("need at least (t_1, t_2); pure-t_1 flows have no catastrophe")

    def items(self):
        """Pairs (k, t_k) for the nonzero deformation times, 1-based."""
        return [(k, tk) for k, tk in enumerate(self.t, start=1) if tk != 0]

    def with_x(self, x) -> "KdVTimes":
        return KdVTimes(x, self.t)


def quintic_times(t_1, x=0.0, t_3=T3_QUINTIC) -> KdVTimes:
    return KdVTimes(x, (t_1, 0, t_3))


@dataclass(frozen=True)
class CriticalPoint:
    """Gradient catastrophe: order m, critical times, v_c and the constant c.

    c is the local-fold constant of v ~ v_c + (c (x - x_c))^(1/m), equal to
    -m! / (d^m H / dv^m) at the critical point.
    """

    m: int
    times_c: KdVTimes
    v_c: float
    c: float

    @property
    def x_c(self):
        return self.times_c.x

    def residuals(self) -> list:
        """|d^j H| for j = 0 .. m-1 at the critical data (all should vanish)."""
        out = [abs(eval_H(self.times_c, self.v_c))]
        out += [abs(eval_dH(self.times_c, self.v_c, j)) for j in range(1, self.m)]
        return out


# -- generating coefficients ----------------------------------------------

def r_coeff(k: int, v):
    """k-th coefficient of z/sqrt(z^2 - v): r_k(v) = binom(2k,k) (v/4)^k.

    Exact for Fraction input, float for float input.
    """
    if k < 0:
        raise DomainError("k must be non-negative")
    return math.comb(2 * k, k) * v**k / 4**k


def _halfint_rising_coeff(r: int, n: int) -> Fraction:
    """n-th series coefficient of (1 - w)^(-(2r+1)/2)."""
    num = Fraction(1)
    for i in range(n):
        num *= Fraction(2 * r + 1 + 2 * i, 2)
    return num / math.factorial(n)


def c_coeff(j: int, r: int, v):
    """Residue coefficient c_{jr}(v) = (2j+1) * oint dz/(2 pi i) z^{2j} (z^2-v)^{-(2r+1)/2}.

    Extracting the z^{-1} coefficient of the binomial series gives zero for
    j < r and (2j+1) C_{j-r} v^{j-r} otherwise, with C_n the n-th coefficient
    of (1-w)^{-(2r+1)/2}.  c_{j0} = (2j+1) r_j, the hodograph row; c_{jm}
    weights the reduced ODE's leading polynomial.
    """
    if j < 1 or r < 0:
        raise DomainError("need j >= 1 and r >= 0")
    if j < r:
        return 0 * v
    coeff = (2 * j + 1) * _halfint_rising_coeff(r, j - r)
    return coeff * v ** (j - r)


# -- the hodograph function H and its v-derivatives ------------------------

def eval_H(times: KdVTimes, v):
    """H(t, v) = sum (2k+1) t_k r_k(v) + x."""
    total = times.x
    for k, tk in times.items():
        total = total + (2 * k + 1) * tk * r_coeff(k, v)
    return total


def eval_dH(times: KdVTimes, v, j: int):
    """j-th v-derivative of H (term-wise, exact falling factorials)."""
    if j < 0:
        raise DomainError("derivative order must be non-negative")
    if j == 0:
        return eval_H(times, v)
    total = 0 * v
    for k, tk in times.items():
        if k >= j:
            dr = math.perm(k, j) * math.comb(2 * k, k) * v ** (k - j) / 4**k  # j-th derivative of r_k
            total = total + (2 * k + 1) * tk * dr
    return total


def _h_scale(times: KdVTimes, v: float) -> float:
    scale = abs(times.x) + 1.0
    for k, tk in times.items():
        scale += abs((2 * k + 1) * tk * r_coeff(k, float(abs(v)) + 1e-300))
    return scale


# -- branch solving ---------------------------------------------------------

def solve_branch(times: KdVTimes, seed: float, tol: float = 1e-13, maxiter: int = 80) -> float:
    """Newton root of H(t, v) = 0 on the branch selected by the seed.

    Bisection fallback when Newton stalls but a sign change brackets a root
    near the seed; a double-root polish (Newton on dH/dv) handles the exact
    fold abscissa, where the branch root degenerates.  Branch continuity
    under small parameter steps is the caller's contract: reuse the previous
    root as the next seed.

    Raises DerivativeVanishes at/beyond the catastrophe (fold), NoConvergence
    when no root is reachable from the seed (multivalued region entered).
    """
    v = float(seed)
    scale = _h_scale(times, v)
    dscale = abs(eval_dH(times, max(abs(v), 1.0), 1)) + 1.0
    for _ in range(maxiter):
        h = eval_H(times, v)
        if abs(h) < tol * scale:
            dh = eval_dH(times, v, 1)
            if abs(dh) < 1e-6 * dscale:
                # near-double root: |H| underestimates the v error; polish on dH/dv
                polished = _double_root_polish(times, v)
                if polished is not None and abs(eval_H(times, polished)) <= max(abs(h), 4e-16 * scale):
                    return polished
            return v
        dh = eval_dH(times, v, 1)
        if abs(dh) < 1e-6 * dscale:
            bracket = _find_bracket(times, v)
            if bracket is not None:
                return _bisect(times, *bracket, tol * scale)
            polished = _double_root_polish(times, v)
            if polished is not None and abs(eval_H(times, polished)) < 10 * tol * scale:
                return polished
            raise DerivativeVanishes(
                f"dH/dv ~ 0 at v={v:.6g} with |H|={abs(h):.2e}: at or beyond the fold"
            )
        step = h / dh
        # crude damping keeps the iterate on the seeded branch
        limit = 0.5 * (1.0 + abs(v))
        if abs(step) > limit:
            step = math.copysign(limit, step)
        v -= step
    raise NoConvergence(f"no root within {maxiter} iterations from seed {seed!r}")


def _double_root_polish(times: KdVTimes, v0: float):
    """Newton on dH/dv: quadratic convergence to a fold root (if one is near)."""
    v = v0
    for _ in range(60):
        g = eval_dH(times, v, 1)
        gp = eval_dH(times, v, 2)
        if abs(gp) < 1e-300:
            return None
        step = g / gp
        v -= step
        if abs(step) < 1e-15 * (1.0 + abs(v)):
            return v
    return None


def _find_bracket(times: KdVTimes, v0: float, radius: float = 0.5, n: int = 64):
    h0 = eval_H(times, v0)
    for i in range(1, n + 1):
        d = radius * i / n
        for v in (v0 - d, v0 + d):
            if eval_H(times, v) * h0 < 0:
                return (v0, v) if v > v0 else (v, v0)
    return None


def _bisect(times: KdVTimes, lo: float, hi: float, atol: float) -> float:
    hlo = eval_H(times, lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        hm = eval_H(times, mid)
        if abs(hm) < atol or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if hlo * hm <= 0:
            hi = mid
        else:
            lo, hlo = mid, hm
    return 0.5 * (lo + hi)


def closed_u0(x: float, t_1: float) -> float:
    """Closed-form single-valued branch of (5/8) u^3 + (3/2) t_1 u + x = 0.

    Cardano's expression

        u = (2/5)^(2/3) A^(1/3) - 2 (2/5)^(1/3) t_1 / A^(1/3),
        A = sqrt(5 (4 t_1^3 + 5 x^2)) - 5 x,

    is evaluated with principal complex branches.  For -x_c < x < x_c the
    square-root argument is negative (casus irreducibilis: three real roots)
    and the two terms are complex conjugates, so the principal branch returns
    the largest real root -- exactly the branch reached by continuity from
    the fold at x_c, where u -> v_c.  For t_1 < 0 and x <= x_c this is the
    physical finger branch; past x_c the branch folds away and we refuse.
    """
    if not t_1 < 0:
        raise DomainError("closed form requires t_1 < 0 (cusp-forming regime)")
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    x_c = -t_1 * v_c
    if x > x_c:
        raise DomainError(f"x={x} beyond the catastrophe point x_c={x_c}: branch folded")
    disc = 5.0 * (4.0 * t_1**3 + 5.0 * x**2)
    a = cmath.sqrt(complex(disc)) - 5.0 * x
    cbrt = a ** (1.0 / 3.0)
    u = (2.0 / 5.0) ** (2.0 / 3.0) * cbrt - 2.0 * (2.0 / 5.0) ** (1.0 / 3.0) * t_1 / cbrt
    if abs(u.imag) > 1e-9 * (1.0 + abs(u.real)):
        raise DomainError(f"branch evaluation left the real axis (imag={u.imag:.2e})")
    return u.real


def find_critical_25(t_1):
    """Closed-form 2nd-order catastrophe of the quintic finger class.

    v_c = sqrt(-4 t_1 / 5),  x_c = -t_1 v_c = (5/4) v_c^3,  c = -8 / (15 v_c).
    Returns exact Fractions when t_1 is a Fraction with a perfect-square
    -4 t_1/5 (e.g. t_1 = -4/5), floats otherwise.
    """
    if not t_1 < 0:
        raise DomainError("critical point requires t_1 < 0")
    v_c = _sqrt_like(-4 * t_1 / 5)
    x_c = -t_1 * v_c
    c = -8 / (15 * v_c)
    times_c = quintic_times(t_1, x=x_c)
    return CriticalPoint(m=2, times_c=times_c, v_c=v_c, c=c)


def _sqrt_like(q):
    if isinstance(q, Fraction):
        ns, ds = math.isqrt(q.numerator), math.isqrt(q.denominator)
        if ns * ns == q.numerator and ds * ds == q.denominator:
            return Fraction(ns, ds)
        return math.sqrt(float(q))
    return math.sqrt(q)


def find_critical(times: KdVTimes, m: int = 2, v_seed: float = 1.0, tol: float = 1e-12,
                  maxiter: int = 60) -> CriticalPoint:
    """Damped Newton on {dH/dv = 0, H = 0} in (v, x) with t fixed (m = 2 only).

    For m > 2 the system {d^j H = 0, j = 1..m-1; H = 0} in the two unknowns
    (v, x) is overdetermined; higher-order catastrophes need deformation
    times to move as well and are not supported.
    """
    if m != 2:
        raise UnsupportedOrder("only second-order critical points are searched for")
    v = float(v_seed)
    dscale = abs(eval_dH(times, max(abs(v), 1.0), 2)) + 1.0
    for _ in range(maxiter):
        g = eval_dH(times, v, 1)
        if abs(g) < tol * dscale:
            break
        gp = eval_dH(times, v, 2)
        if abs(gp) < 1e-14 * dscale:
            raise DerivativeVanishes("d2H/dv2 ~ 0: critical point is not second order")
        step = g / gp
        limit = 0.5 * (1.0 + abs(v))
        if abs(step) > limit:
            step = math.copysign(limit, step)
        v -= step
    else:
        raise NoConvergence("critical-point Newton did not converge")
    h2 = eval_dH(times, v, 2)
    if abs(h2) <= 0.0:
        raise DerivativeVanishes("vanishing second derivative at the critical point")
    x_c = times.x - eval_H(times, v)  # H is affine in x
    return CriticalPoint(m=2, times_c=times.with_x(x_c), v_c=v, c=-2.0 / h2)
