"""Dispersionless KdV hodograph equation and its gradient catastrophes.

The interface unknown v solves the implicit hodograph equation

    H(t, v) = sum_k (2k+1) t_k r_k(v) + x = 0,

where r_k(v) = binom(2k, k) (v/4)^k are the large-z expansion coefficients of
z / sqrt(z^2 - v).  An m-th order critical point has dH/dv = ... =
d^{m-1}H/dv^{m-1} = 0 with the m-th derivative nonzero; beyond it the branch
folds and derivatives of v blow up (gradient catastrophe).  Near such a point

    v ~ v_c + (c (x - x_c))^(1/m),      c = -m! / (d^m H/dv^m),

which is what the multiscale reduction removes.

H is a polynomial in v.  hodograph_poly gives its coefficients, exact (int
or Fraction) for exact times, and eval_H / eval_dH are Horner evaluations of
them and of their derivatives, so the downstream reduced-ODE construction can
be carried out exactly for rational critical data.

Branches are roots of the float image of H, found by one fold-aware root
finder, branch_root: a damped Newton that, where H' vanishes, takes the best
of the Newton iterate, the double root (the root of H') and a bisected sign
change.  find_critical is the same Newton on dH/dv, and heleshaw.toda solves
the eliminated cubic of the Toda pair with branch_root.

The worked configuration throughout is the quintic finger class
(t_3 = 2/7, all other deformation times zero except t_1), for which the
hodograph equation becomes (5/8) v^3 + (3/2) t_1 v + x = 0.
"""

from __future__ import annotations

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
    try:
        return coeff * v ** (j - r)
    except OverflowError:
        raise DomainError(f"residue coefficient c_{{{j},{r}}}(v) = {coeff} v^{j - r} "
                          f"overflows at v = {v!r}") from None


# -- the hodograph polynomial H and its v-derivatives ----------------------

def hodograph_poly(times: KdVTimes) -> list:
    """Coefficients of H in v, ascending: x, then (2k+1) t_k binom(2k,k)/4^k.

    Exact (int or Fraction) for exact times, float for float times.
    """
    coeffs = [times.x] + [0] * len(times.t)
    for k, tk in times.items():
        coeffs[k] = Fraction((2 * k + 1) * math.comb(2 * k, k), 4**k) * tk
    return coeffs


def _derivative(coeffs: list, j: int = 1) -> list:
    """Ascending coefficients of the j-th derivative of the polynomial `coeffs`."""
    return [math.perm(k, j) * c for k, c in enumerate(coeffs)][j:]


def _horner(coeffs: list, v):
    total = 0 * v
    for c in reversed(coeffs):
        total = total * v + c
    return total


def eval_H(times: KdVTimes, v):
    """H(t, v) = x + sum (2k+1) t_k r_k(v), exact for exact input."""
    return _horner(hodograph_poly(times), v)


def eval_dH(times: KdVTimes, v, j: int):
    """j-th v-derivative of H, exact for exact input."""
    if j < 0:
        raise DomainError("derivative order must be non-negative")
    return _horner(_derivative(hodograph_poly(times), j), v)


# -- fold-aware polynomial roots ---------------------------------------------

def poly_scales(coeffs: list, v: float) -> tuple[float, float]:
    """Term magnitudes 1 + sum |c_k| |v|^k of p and 1 + sum k |c_k| |v|^(k-1) of p'."""
    mags, r = [abs(c) for c in coeffs], abs(v)
    return 1.0 + _horner(mags, r), 1.0 + _horner(_derivative(mags), r)


def _newton(coeffs: list, v: float, atol: float, fold: float, maxiter: int):
    """Damped Newton on the float polynomial `coeffs` from v; returns (v, at_fold).

    Each step is clipped to (1 + |v|)/2, which keeps the iterate on the seeded
    branch.  It stops one step after |p| <= atol or once a step is at most
    1e-15 (1 + |v|), and stops at a fold, without stepping, where |p'| <= fold.
    """
    slope = _derivative(coeffs)
    for _ in range(maxiter):
        p, dp = _horner(coeffs, v), _horner(slope, v)
        if abs(dp) <= fold:
            return v, True
        step = p / dp
        limit = 0.5 * (1.0 + abs(v))
        if abs(step) > limit:
            step = math.copysign(limit, step)
        v -= step
        if abs(p) <= atol or abs(step) <= 1e-15 * (1.0 + abs(v)):
            return v, False
    raise NoConvergence(f"Newton did not converge within {maxiter} iterations")


def _bisect_to_machine(fn, lo, hi, flo):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def branch_root(coeffs: list, seed: float, atol: float, dscale: float, maxiter: int) -> float:
    """Root of the float polynomial `coeffs` on the branch that the seed selects.

    Damped Newton from the seed.  Where it reaches a fold (|p'| <= 1e-6 dscale)
    three candidates compete: the Newton iterate, the root of p' reached by
    Newton from it (a double root of p), and the bisected root of the first
    sign change of p within 0.5 of it.  The one with the smallest |p| is
    returned; DerivativeVanishes is raised when even that has |p| > 10 atol,
    which is the case at or beyond the fold.
    """
    v, at_fold = _newton(coeffs, float(seed), atol, 1e-6 * dscale, maxiter)
    if not at_fold:
        return v

    def p(w):
        return _horner(coeffs, w)

    p0 = p(v)
    candidates = [v, _newton(_derivative(coeffs), v, 0.0, 0.0, maxiter)[0]]
    side = next((w for i in range(1, 65) for w in (v - i / 128, v + i / 128) if p(w) * p0 < 0), None)
    if side is not None:
        lo, hi = min(v, side), max(v, side)
        candidates.append(_bisect_to_machine(p, lo, hi, p(lo)))
    best = min(candidates, key=lambda w: abs(p(w)))
    if abs(p(best)) > 10 * atol:
        raise DerivativeVanishes(f"p' ~ 0 at v={v:.6g} with |p|={abs(p0):.2e}: at or beyond the fold")
    return best


def solve_branch(times: KdVTimes, seed: float, tol: float = 1e-13, maxiter: int = 80) -> float:
    """Root of H(t, v) = 0 on the branch selected by the seed: branch_root on hodograph_poly.

    The residual bound is tol (1 + sum |c_k| |seed|^k) over H's coefficients
    c_k.  At the fold abscissa the double root v_c is returned.
    Branch continuity under small parameter steps is the caller's contract:
    reuse the previous root as the next seed.

    Raises DerivativeVanishes at/beyond the catastrophe (fold), NoConvergence
    when no root is reachable from the seed (multivalued region entered).
    """
    coeffs = [float(c) for c in hodograph_poly(times)]
    scale, dscale = poly_scales(coeffs, seed)
    return branch_root(coeffs, seed, tol * scale, dscale, maxiter)


def _fold_newton(d, k, v_c):
    """Newton iterate for delta^2 (delta + 3 v_c) = k, on floats or arrays."""
    return d - (d * d * (d + 3.0 * v_c) - k) / (d * (3.0 * d + 6.0 * v_c))


def closed_u0(x, t_1):
    """Outer branch of (5/8) u^3 + (3/2) t_1 u + x = 0, elementwise on x <= x_c (t_1 < 0).

    With u = v_c + delta the cubic reads delta^2 (delta + 3 v_c) = k, k = (8/5)(x_c - x),
    increasing and convex in delta >= 0.  Its root delta >= 0 is the largest real
    root, reached by continuity from the fold (u = v_c exactly at x_c).  Newton
    from min(k^(1/3), sqrt(k / (3 v_c))), an upper bound, decreases monotonically
    to it and stops when no iterate moves: no complex arithmetic, no casus
    irreducibilis.  Past x_c the branch has folded away: refused.  A scalar x gives
    a float from the same Newton sequence on floats, bit for bit the array result.
    """
    import numpy as np  # here, so that `critical` runs without numpy

    if not t_1 < 0:
        raise DomainError("closed form requires t_1 < 0 (cusp-forming regime)")
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    x_c = -t_1 * v_c
    scalar = isinstance(x, (int, float))
    top = x if scalar else np.max(x, initial=-math.inf)
    if top > x_c:
        raise DomainError(f"x={top} beyond the catastrophe point x_c={x_c}: branch folded")
    if scalar:  # scalar callers loop over points: the same Newton sequence on floats
        k = 1.6 * (x_c - float(x))
        d = min(float(np.cbrt(k)), math.sqrt(k / (3.0 * v_c)))
        while d > 0 and (nd := _fold_newton(d, k, v_c)) < d:
            d = nd
        finite = math.isfinite(d)
    else:
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite result below
            k = 1.6 * (x_c - np.asarray(x, dtype=float))
            d = np.minimum(np.cbrt(k), np.sqrt(k / (3.0 * v_c)))
            for _ in range(100):
                nd = _fold_newton(d, k, v_c)  # nan where d = k = 0: already the root
                if not np.any(nd < d):
                    break
                d = np.fmin(nd, d)
        finite = np.isfinite(d).all()
    if not finite:
        raise DomainError(f"outer branch is not finite at t_1={t_1} (overflow)")
    u = v_c + d
    return u if scalar or u.ndim else float(u)


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
    """Second-order catastrophe on the branch of v_seed: Newton on dH/dv, then x_c from H = 0.

    The residual bound of dH/dv is tol times its magnitude from poly_scales.
    For m > 2 the system {d^j H = 0, j = 1..m-1; H = 0} in the two unknowns
    (v, x) is overdetermined; higher-order catastrophes need deformation
    times to move as well and are not supported.
    """
    if m != 2:
        raise UnsupportedOrder("only second-order critical points are searched for")
    slope = _derivative([float(c) for c in hodograph_poly(times)])
    scale, dscale = poly_scales(slope, v_seed)
    v, at_fold = _newton(slope, float(v_seed), tol * scale, 1e-14 * dscale, maxiter)
    h2 = _horner(_derivative(slope), v)
    if at_fold or h2 == 0:
        raise DerivativeVanishes("d2H/dv2 ~ 0: critical point is not second order")
    x_c = times.x - eval_H(times, v)  # H is affine in x
    return CriticalPoint(m=2, times_c=times.with_x(x_c), v_c=v, c=-2.0 / h2)
