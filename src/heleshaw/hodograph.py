"""Dispersionless KdV hodograph equation and its gradient catastrophes.

The interface unknown v solves the implicit hodograph equation

    H(t, v) = sum_k (2k+1) t_k r_k(v) + x = 0,

where r_k(v) = binom(2k, k) (v/4)^k are the large-z expansion coefficients of
z / sqrt(z^2 - v).  A second-order critical point has dH/dv = 0 with
d^2H/dv^2 nonzero; beyond it the branch folds and derivatives of v blow up
(gradient catastrophe).  Near such a point

    v ~ v_c + (c (x - x_c))^(1/2),      c = -2 / (d^2 H/dv^2),

which is what the multiscale reduction removes.  The order m = 2 is fixed
(CriticalPoint.m): higher orders need the deformation times to move too.

H is a polynomial in v.  hodograph_poly gives its coefficients, exact (int
or Fraction) for exact times, and eval_H / eval_dH are Horner evaluations of
them and of their derivatives, so the downstream reduced-ODE construction can
be carried out exactly for rational critical data.

A branch is the monotone piece of H between two folds (zeros of dH/dv).
branch_root finds the root on the piece that holds a seed; real_roots, one
routine for every polynomial (also behind heleshaw.geometry's event levels),
splits the line at the critical points.  find_critical is branch_root on
dH/dv, and heleshaw.toda solves the eliminated cubic of the Toda pair with it.

The worked configuration throughout is the quintic finger class
(t_3 = 2/7, all other deformation times zero except t_1), for which the
hodograph equation becomes (5/8) v^3 + (3/2) t_1 v + x = 0.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DerivativeVanishes, DomainError

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
    """Second-order gradient catastrophe: critical times, v_c and the constant c.

    c is the local-fold constant of v ~ v_c + (c (x - x_c))^(1/2), equal to
    -2 / (d^2 H / dv^2) at the critical point.
    """

    m = 2  # the order, a class constant: only second-order catastrophes are built
    times_c: KdVTimes
    v_c: float
    c: float

    @property
    def x_c(self):
        return self.times_c.x


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


def left_sum(terms, total=0):
    """sum(terms, total) added left to right, also on Python 3.12+, whose sum of floats is compensated."""
    for term in terms:
        total = total + term
    return total


def eval_H(times: KdVTimes, v):
    """H(t, v) = x + sum (2k+1) t_k r_k(v), exact for exact input."""
    return _horner(hodograph_poly(times), v)


def eval_dH(times: KdVTimes, v, j: int):
    """j-th v-derivative of H, exact for exact input."""
    if j < 0:
        raise DomainError("derivative order must be non-negative")
    return _horner(_derivative(hodograph_poly(times), j), v)


# -- real roots of a polynomial ----------------------------------------------

def poly_scale(coeffs: list, v: float) -> float:
    """Term magnitude 1 + sum |c_k| |v|^k of the polynomial `coeffs` at v."""
    return 1.0 + _horner([abs(c) for c in coeffs], abs(v))


def _piece_root(cs: list, a: float, b: float, pa: float) -> float:
    """Root of p on [a, b], where p is monotone and p(a) = pa has the other sign than p(b).

    Newton from the midpoint, kept inside the shrinking bracket: a step that
    leaves it, or that does not halve the step before last, bisects instead.
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
        newton = dpx != 0.0 and a < x - px / dpx < b and abs(2.0 * px) <= abs(last * dpx)
        last, step = step, px / dpx if newton else x - (0.5 * a + 0.5 * b)
        x -= step
        if abs(step) <= 2.0**-50 * abs(x):
            return x
    return x


def real_roots(coeffs: list) -> list[float]:
    """Sorted real roots of the polynomial `coeffs` (ascending), a multiple root once.

    Degrees 1 and 2 are closed forms.  A higher degree splits the real line
    at the critical points of p (real_roots of p') and at the Cauchy bound.
    p is monotone on each piece, so a piece holds a root exactly when p
    changes sign across it (_piece_root).  A critical point where |p| is
    within rounding of zero is a multiple root.
    """
    cs = [float(c) for c in coeffs]
    while cs and cs[-1] == 0.0:
        cs.pop()
    if len(cs) <= 2:
        return [-cs[0] / cs[1]] if len(cs) == 2 else []
    if len(cs) == 3:
        c0, c1, c2 = cs
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc < 0:
            return []
        q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1 if c1 != 0 else 1.0))
        roots = {q / c2} | ({c0 / q} if q != 0 else {-c1 / (2 * c2)})
        return sorted(roots)
    mags, crit = [abs(c) for c in cs], real_roots(_derivative(cs))
    roots = [c for c in crit if abs(_horner(cs, c)) <= 2.0**-51 * len(cs) * _horner(mags, abs(c))]
    bound = min(1.0 + max(mags[:-1]) / mags[-1], 1.7976931348623157e308)
    ends = [-bound, *crit, bound]
    for a, b in zip(ends, ends[1:]):
        pa, pb = _horner(cs, a), _horner(cs, b)
        if pa * pb < 0.0 and a not in roots and b not in roots:
            roots.append(_piece_root(cs, a, b, pa))
    return sorted(roots)


def branch_root(coeffs: list, seed: float, atol: float) -> float:
    """Root of the polynomial `coeffs` on the monotone piece of p that holds the seed.

    The piece runs between the nearest critical points of p on either side
    of the seed; one within a few ulps of the seed joins its two pieces.
    Newton from the seed runs first, and a limit inside the piece is its
    root.  Otherwise the piece's roots are real_roots of p, the nearest to
    the seed winning; without one, a bounding critical point with |p| <=
    10 atol (a double root).  Without that either, the branch ends at a
    fold: DerivativeVanishes.
    """
    cs, seed = [float(c) for c in coeffs], float(seed)
    slope, gap = _derivative(cs), 4.0 * math.ulp(seed)
    crit = real_roots(slope)
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
    roots = [r for r in real_roots(cs) if lo <= r <= hi]
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


def _fold_root(k, v_c, lib, minimum):
    """Root delta >= 0 of delta^2 (delta + 3 v_c) = k; lib is math for a float k, numpy for an ndarray.

    Newton from above while it decreases (elementwise on an ndarray, up to 100 steps).  The seed
    min(2^ceil(e/3), sqrt(k / (3 v_c))), k = m 2^e (frexp), takes two upper bounds: delta^3 < k < 2^e
    and 3 v_c delta^2 <= k.  The first is within a factor 2 of k^(1/3); the second exceeds delta by
    the relative delta / (6 v_c) > 2^-30 at the smallest k > 0 (one ulp of x_c), far above its
    rounding.  A k that is not finite gives a NaN seed (1 + 0 k) and root; a k >= 2^1023 whose seed's
    cube overflows gives -inf.  closed_u0 refuses both.  Every operation is exact or correctly
    rounded, so floats and ndarrays agree bit for bit on every CPU."""
    def step(d):
        return d - (d * d * (d + 3.0 * v_c) - k) / (d * (3.0 * d + 6.0 * v_c))

    d = minimum(lib.ldexp(1.0 + 0.0 * k, -(-lib.frexp(k)[1] // 3)), lib.sqrt(k / (3.0 * v_c)))
    if lib is math:
        while d > 0 and (nd := step(d)) < d:
            d = nd
        return d
    for _ in range(100):
        nd = step(d)
        if not (down := nd < d).any():
            break
        d[down] = nd[down]
    return d


def closed_u0(x, t_1):
    """Outer branch of (5/8) u^3 + (3/2) t_1 u + x = 0 at x <= x_c (t_1 < 0): a float, or elementwise an ndarray.

    With u = v_c + delta the cubic reads delta^2 (delta + 3 v_c) = k, k = (8/5)(x_c - x),
    increasing and convex in delta >= 0.  Its root delta >= 0 is the largest real
    root, reached by continuity from the fold (u = v_c exactly at x_c), by Newton
    from above (_fold_root) until no iterate moves: no complex arithmetic, no
    casus irreducibilis.  Past x_c the branch has folded away: refused, as are an
    x_c that leaves the float range (as in find_critical_25) and a k that does
    (x_c - x >~ 5.6e307).  An ndarray, for which alone numpy loads, gives bit for
    bit the float results.
    """
    if not t_1 < 0:
        raise DomainError("closed form requires t_1 < 0 (cusp-forming regime)")
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    x_c = _fold_abscissa(t_1, v_c)
    scalar = isinstance(x, (int, float))
    if not scalar:
        import numpy as np
    top = x if scalar else np.max(x, initial=-math.inf)
    if top > x_c:
        raise DomainError(f"x={top} beyond the catastrophe point x_c={x_c}: branch folded")
    if scalar:
        d = _fold_root(1.6 * (x_c - float(x)), v_c, math, min)
    else:
        with np.errstate(all="ignore"):  # an overflow shows as a non-finite result below
            d = _fold_root(1.6 * (x_c - np.asarray(x, dtype=float)), v_c, np, np.minimum)
    if not (math.isfinite(d) if scalar else np.isfinite(d).all()):
        raise DomainError(f"outer branch delta^2 (delta + 3 v_c) = (8/5)(x_c - x) overflows at t_1 = {t_1!r}")
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
    v_c = exact_root(-4 * t_1 / 5, 2)
    x_c = _fold_abscissa(t_1, v_c)
    return CriticalPoint(times_c=quintic_times(t_1, x=x_c), v_c=v_c, c=-8 / (15 * v_c))


def _fold_abscissa(t_1, v_c):
    """x_c = -t_1 v_c, nonzero as t_1 < 0: refused where floats underflow it to 0 or overflow it."""
    x_c = -t_1 * v_c
    if x_c == 0 or abs(x_c) == math.inf:
        raise DomainError(f"critical abscissa x_c = -t_1 v_c {'underflows' if x_c == 0 else 'overflows'} "
                          f"at t_1 = {t_1!r}")
    return x_c


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of the integer n >= 0: integer Newton from above."""
    x = 1 << -(-n.bit_length() // k)
    while x > 1 and (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return min(x, n)  # 0 for n = 0


def exact_root(q, k: int):
    """Real k-th root of q (q >= 0 or k odd): exact for a Fraction of two k-th powers, else a float."""
    if isinstance(q, Fraction):
        root = Fraction(_iroot(abs(q.numerator), k), _iroot(q.denominator, k))
        if root**k == abs(q):
            return root if q >= 0 else -root
        try:
            q = float(q)
        except OverflowError:
            exponent = math.log10(abs(q.numerator)) - math.log10(q.denominator)
            raise DomainError(f"radicand {'-' if q < 0 else ''}10^{exponent:.2f} (root of order {k}) "
                              "is no exact power and leaves the float range") from None
    return math.sqrt(q) if k == 2 else math.copysign(abs(q) ** (1.0 / k), q)


def find_critical(times: KdVTimes, v_seed: float = 1.0) -> CriticalPoint:
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
    return CriticalPoint(times_c=times.with_x(x_c), v_c=v, c=-2.0 / h2)
