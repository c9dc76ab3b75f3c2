"""The quintic finger's hodograph equation and its gradient catastrophe, in closed form.

The interface unknown v solves the implicit hodograph equation

    H(t, v) = sum_k (2k+1) t_k r_k(v) + x = 0,

where r_k(v) = binom(2k, k) (v/4)^k are the large-z expansion coefficients of
z / sqrt(z^2 - v).  The pipeline works in the quintic finger class (t_3 = 2/7,
all other deformation times zero except t_1 < 0), where H reads
(5/8) v^3 + (3/2) t_1 v + x.  Its second-order critical point has
dH/dv = 0 with d^2H/dv^2 nonzero; beyond it the branch folds and derivatives
of v blow up (gradient catastrophe).  Near it

    v ~ v_c + (c (x - x_c))^(1/2),      c = -2 / (d^2 H/dv^2),

which is what the multiscale reduction removes.  Everything the pipeline
needs has a closed form, in floats:

  * find_critical_25: the fold v_c = sqrt(-4 t_1 / 5), x_c = (5/4) v_c^3,
    c = -8 / (15 v_c), as a CriticalPoint (t_1, x_c, v_c, c);
  * closed_u0: the outer branch, the largest real root of the cubic for
    x <= x_c, by Newton from above on delta^2 (delta + 3 v_c) = (8/5)(x_c - x).

The fold also gives heleshaw.geometry its event levels u = +-v_c and
u = +-sqrt(6) v_c, so no polynomial in u is solved for them.

The general route checks these closed forms independently in the tests
(tests/branch_solvers.py): the deformation times and the generating
coefficients r_k and c_jr in exact rationals, H for any times, a root finder
for any degree and the branch and critical-point search on it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError


class CriticalPoint(namedtuple("CriticalPoint", "t_1 x_c v_c c")):
    """Second-order gradient catastrophe of the quintic finger at t_1: x_c, v_c and the constant c, floats.

    c is the local-fold constant of v ~ v_c + (c (x - x_c))^(1/2), equal to
    -2 / (d^2 H / dv^2) at the critical point.
    """

    __slots__ = ()
    m = 2  # the order, a class constant: only second-order catastrophes are built


def _fold_root(k, v_c, lib, minimum):
    """Root delta >= 0 of delta^2 (delta + 3 v_c) = k; lib is math for a float k, numpy for an ndarray.

    Newton from above while it decreases (elementwise on an ndarray, up to 100 steps).  The seed
    min(2^ceil(e/3), sqrt(k / (3 v_c))), k = m 2^e (frexp), takes two upper bounds: delta^3 < k < 2^e
    and 3 v_c delta^2 <= k.  The first is within a factor 2 of k^(1/3); the second exceeds delta by
    the relative delta / (6 v_c) > 2^-30 at the smallest k > 0 (one ulp of x_c), far above its
    rounding.  A k that is not finite gives a NaN seed (1 + 0 k) and root, which closed_u0 refuses.
    At k >= 2^1023 the seed's cube would overflow, so there the root is 2 delta(k/8, v_c/2), exact
    in powers of 2.  Every operation is exact or correctly rounded, so floats and ndarrays agree bit
    for bit on every CPU."""
    s = 1.0 + (k >= 2.0**1023)
    k, v_c = k / (s * s * s), v_c / s

    def step(d):
        return d - (d * d * (d + 3.0 * v_c) - k) / (d * (3.0 * d + 6.0 * v_c))

    d = minimum(lib.ldexp(1.0 + 0.0 * k, -(-lib.frexp(k)[1] // 3)), lib.sqrt(k / (3.0 * v_c)))
    if lib is math:
        while d > 0 and (nd := step(d)) < d:
            d = nd
        return s * d
    for _ in range(100):
        nd = step(d)
        if not (down := nd < d).any():
            break
        d[down] = nd[down]
    return s * d


def closed_u0(x, t_1):
    """Outer branch of (5/8) u^3 + (3/2) t_1 u + x = 0 at x <= x_c (t_1 < 0): a float, or elementwise an ndarray.

    With u = v_c + delta the cubic reads delta^2 (delta + 3 v_c) = k, k = (8/5)(x_c - x),
    increasing and convex in delta >= 0.  Its root delta >= 0 is the largest real
    root, reached by continuity from the fold (u = v_c exactly at x_c), by Newton
    from above (_fold_root) until no iterate moves: no complex arithmetic, no
    casus irreducibilis.  Past x_c the branch has folded away: refused, as are a
    NaN x, an x_c that leaves the float range (as in find_critical_25) and a k
    that does (x_c - x >~ 1.1e308).  An ndarray, for which alone numpy loads,
    gives bit for bit the float results.
    """
    v_c, x_c = _fold(t_1)
    scalar = isinstance(x, (int, float))
    if not scalar:
        import numpy as np
    top = x if scalar else np.max(x, initial=-math.inf)
    if not top <= x_c:
        raise DomainError(f"x={top} is not a number" if math.isnan(top)
                          else f"x={top} beyond the catastrophe point x_c={x_c}: branch folded")
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
    """Closed-form 2nd-order catastrophe of the quintic finger class, in floats.

    v_c = sqrt(-4 t_1 / 5),  x_c = -t_1 v_c = (5/4) v_c^3,  c = -8 / (15 v_c).
    """
    t_1 = float_input("t_1", t_1)
    v_c, x_c = _fold(t_1)
    return CriticalPoint(t_1=t_1, x_c=x_c, v_c=v_c, c=-8 / (15 * v_c))


def float_input(name: str, value) -> float:
    """float(value); a value beyond the float range (a large int or Fraction), NaN or inf is refused by name."""
    try:
        x = float(value)
    except OverflowError:
        raise DomainError(f"{name} is no float: it leaves the float range") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} is not a finite number")
    return x


def _fold(t_1):
    """The fold (v_c, x_c) of the quintic finger, v_c = sqrt(-4 t_1 / 5) and x_c = -t_1 v_c, for
    find_critical_25 and closed_u0; a t_1 >= 0 or NaN, and an x_c that underflows to 0 or overflows, is refused."""
    if not t_1 < 0:
        raise DomainError(f"the quintic finger folds only at t_1 < 0, not at t_1 = {t_1!r}")
    v_c = math.sqrt(-4.0 * t_1 / 5.0)
    x_c = -t_1 * v_c
    if x_c == 0 or abs(x_c) == math.inf:
        raise DomainError(f"critical abscissa x_c = -t_1 v_c {'underflows' if x_c == 0 else 'overflows'} "
                          f"at t_1 = {t_1!r}")
    return v_c, x_c

