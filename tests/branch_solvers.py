"""General hodograph branch solvers, kept as independent checks of the package's closed forms.

The package computes the quintic finger's fold (find_critical_25), its
outer branch (closed_u0), the merging point of the Toda pair
(find_toda_critical), the event levels and the finger prefactor's roots
(heleshaw.geometry) in closed form.
The routines below reach the same numbers the general way: any deformation
times and the generating coefficients r_k and c_jr of the hodograph
equation, its polynomial H, the real roots of a polynomial of any degree,
the root on the monotone piece of H that holds a seed, the critical point as
that root of dH/dv, and the Toda pair through its eliminated cubic.  No CLI
run calls them, so they live beside the tests.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from heleshaw.errors import DomainError, HeleShawError


class DerivativeVanishes(HeleShawError):
    """The seed's branch holds no root: it ends at a fold (gradient catastrophe)."""


# -- deformation times and generating coefficients ----------------------------

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


def quintic_times(t_1, x=0.0, t_3=Fraction(2, 7)) -> KdVTimes:
    """The quintic finger configuration: t_3 = 2/7 and t_1, t_2 = 0."""
    return KdVTimes(x, (t_1, 0, t_3))


@dataclass(frozen=True)
class GeneralCriticalPoint:
    """Second-order catastrophe for any deformation times: the times at x_c, v_c and c = -2 / (d^2H/dv^2)."""

    times_c: KdVTimes
    v_c: float
    c: float

    @property
    def x_c(self):
        return self.times_c.x


def r_coeff(k: int, v):
    """k-th coefficient of z/sqrt(z^2 - v): r_k(v) = binom(2k,k) (v/4)^k.

    Exact for Fraction input, float for float input.
    """
    if k < 0:
        raise DomainError("k must be non-negative")
    return math.comb(2 * k, k) * v**k / 4**k


def _halfint_rising_coeff(r: int, n: int) -> Fraction:
    """n-th series coefficient of (1 - w)^(-(2r+1)/2)."""
    return math.prod((Fraction(2 * r + 1 + 2 * i, 2) for i in range(n)), start=Fraction(1)) / math.factorial(n)


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


# -- real roots of a polynomial of any degree ---------------------------------

def poly_scale(coeffs: list, v: float) -> float:
    """Term magnitude 1 + sum |c_k| |v|^k of the polynomial `coeffs` at v."""
    return 1.0 + _horner([abs(c) for c in coeffs], abs(v))


def _piece_root(cs: list, a: float, b: float, pa: float) -> float:
    """Root of p on [a, b], where p is monotone and p(a) = pa has the other sign than p(b).

    Newton from the midpoint, kept inside the shrinking bracket: a step that
    leaves it, or that does not halve the step before last, bisects instead.
    The bracket is closed, so a Newton step from the root itself, which rounds
    to no move where x is already an end of the bracket, ends the search there.
    """
    slope, x = _derivative(cs), 0.5 * a + 0.5 * b
    step = last = b - a
    for _ in range(2200):  # bisection alone reaches adjacent floats within this
        px, dpx = _horner(cs, x), _horner(slope, x)
        if px == 0.0:
            return x
        if (px < 0.0) == (pa < 0.0):
            a, pa = x, px
        else:
            b = x
        newton = dpx != 0.0 and a <= x - px / dpx <= b and abs(2.0 * px) <= abs(last * dpx)
        last, step = step, px / dpx if newton else x - (0.5 * a + 0.5 * b)
        x -= step
        if abs(step) <= 2.0**-50 * abs(x):
            return x
    return x


def general_real_roots(coeffs: list) -> list[float]:
    """Sorted real roots of the polynomial `coeffs` (ascending) of any degree, a multiple root once.

    Degree 1 is -c_0 / c_1.  A higher degree is split at the critical points
    of p (the roots of p', found by this routine) and at the Cauchy bound.
    p is monotone on each piece, so a piece holds a root exactly when p
    changes sign across it:
    _piece_root finds it by Newton kept inside its shrinking bracket, with
    bisection as the fallback.  A critical point where |p| is within
    rounding of zero is a multiple root and is listed once, so
    (X - 1)^2 (X + 2) gives exactly [-2, 1].
    """
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if len(cs) <= 2:
        return [-cs[0] / cs[1]] if len(cs) == 2 else []
    mags, crit = [abs(c) for c in cs], general_real_roots(_derivative(cs))
    roots = [c for c in crit if abs(_horner(cs, c)) <= 2.0**-51 * len(cs) * _horner(mags, abs(c))]
    bound = min(1.0 + max(mags[:-1]) / mags[-1], 1.7976931348623157e308)
    ends = [-bound, *crit, bound]
    for a, b in zip(ends, ends[1:]):
        pa, pb = _horner(cs, a), _horner(cs, b)
        if pa * pb < 0.0 and a not in roots and b not in roots:
            roots.append(_piece_root(cs, a, b, pa))
    return sorted(roots)


# -- branches: the monotone piece that holds a seed ---------------------------

def branch_root(coeffs: list, seed: float, atol: float) -> float:
    """Root of the polynomial `coeffs` on the monotone piece of p that holds the seed.

    A branch of a hodograph equation is the monotone piece of its polynomial
    p between the two folds (zeros of p') that enclose the seed; a fold
    within a few ulps of the seed joins its two pieces.  Newton from the
    seed runs first, and a limit inside the piece is its root.  Otherwise
    the piece's roots are general_real_roots of p, the nearest to the seed
    winning; without one, a bounding fold with |p| <= 10 atol (a double
    root).  Without that either, the branch ends at a fold:
    DerivativeVanishes.  It never returns a root on another piece.
    """
    cs, seed = [float(c) for c in coeffs], float(seed)
    slope, gap = _derivative(cs), 4.0 * math.ulp(seed)
    crit = general_real_roots(slope)
    i, j = bisect.bisect_left(crit, seed - gap), bisect.bisect_right(crit, seed + gap)
    lo, hi, x = ([-math.inf] + crit)[i], (crit + [math.inf])[j], seed
    for _ in range(8 if i == j else 0):  # ample from a continuation seed; else the search below
        px, dpx = _horner(cs, x), _horner(slope, x)
        step = px / dpx if dpx else math.inf
        x -= step
        if not lo < x < hi:
            break
        if abs(px) <= atol or abs(step) <= 2.0**-50 * abs(x):
            return x
    roots = [r for r in general_real_roots(cs) if lo <= r <= hi]
    roots = roots or [c for c in (lo, *crit[i:j], hi) if abs(_horner(cs, c)) <= 10.0 * atol]
    if not roots:
        raise DerivativeVanishes(f"no root on the branch of v={seed:.6g}: it ends at a fold")
    return min(roots, key=lambda r: abs(r - seed))


def solve_branch(times: KdVTimes, seed: float) -> float:
    """Root of H(t, v) = 0 on the branch of the seed: branch_root on hodograph_poly.

    atol is 1e-13 (1 + sum |c_k| |seed|^k) over H's coefficients c_k, so at
    the fold abscissa the double root v_c is returned.  To continue a branch,
    reuse the previous root as the next seed.
    """
    coeffs = [float(c) for c in hodograph_poly(times)]
    return branch_root(coeffs, seed, 1e-13 * poly_scale(coeffs, seed))


def find_critical(times: KdVTimes, v_seed: float = 1.0) -> GeneralCriticalPoint:
    """Second-order catastrophe on the branch of v_seed: branch_root on dH/dv, then x_c from H = 0.

    The residual bound of dH/dv, and the size below which d2H/dv2 counts as
    zero, are 1e-12 times their magnitudes from poly_scale.
    """
    slope = _derivative([float(c) for c in hodograph_poly(times)])
    v = branch_root(slope, v_seed, 1e-12 * poly_scale(slope, v_seed))
    h2 = _horner(_derivative(slope), v)
    if abs(h2) <= 1e-12 * poly_scale(_derivative(slope), v):
        raise DerivativeVanishes("d2H/dv2 ~ 0: critical point is not second order")
    x_c = times.x - eval_H(times, v)  # H is affine in x
    return GeneralCriticalPoint(times_c=KdVTimes(x_c, times.t), v_c=v, c=-2.0 / h2)


# -- the Toda pair through its eliminated cubic -------------------------------

@dataclass(frozen=True)
class TodaTimes:
    """Physical time t (= t_1), cubic deformation t_3, and abscissa x."""

    t: float
    t_3: float
    x: float

    def __post_init__(self):
        if self.t_3 == 0:
            raise DomainError("the worked class needs t_3 != 0")


def solve_toda_hodograph(times: TodaTimes, seed: float) -> tuple[float, float]:
    """Root (u, v) of the hodograph pair on the bubble branch that the seed u selects.

    With v = -(t + 3 t_3 u^2)/(6 t_3) from the first equation, u is
    branch_root's root of the cubic 3 t_3 u^3 + t u - x = 0 on its monotone
    piece around the seed, to the residual 1e-13 poly_scale.  A fold of the
    cubic is the merging point (the pair's Jacobian 36 t_3^2 (u^2 - v)
    vanishes there); beyond it the piece holds no root and DerivativeVanishes
    is raised.  Up to |t - t_c| = 1e-11 |t_c| before the merging point both
    pair residuals stay below 1e-12.
    """
    t3 = times.t_3
    coeffs = [-float(times.x), float(times.t), 0.0, 3.0 * t3]
    u = branch_root(coeffs, seed, 1e-13 * poly_scale(coeffs, seed))
    return u, -(times.t + 3 * t3 * u * u) / (6 * t3)
