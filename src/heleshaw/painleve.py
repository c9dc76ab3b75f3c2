"""Numerical tritronquee solution of Painleve-I:  W'' = 6 W^2 - xi.

The tritronquee branch is the unique solution with no poles in a wide sector
around the positive real axis; on the real axis it decays like
W ~ -sqrt(xi/6) as xi -> +infinity and blows up at a first negative pole
xi* ~ -2.3841687696.  It is constructed by seeding the formal asymptotic
series W ~ -sqrt(xi/6) (1 + sum_{k=1..4} b_k (6 xi^5)^(-k/2)) (_SERIES) at a
large abscissa xi_0 and integrating downward with a Taylor method of order
TAYLOR_ORDER: W(xi_n + s) = sum a_k s^k
with (k + 2)(k + 1) a_{k+2} = 6 sum_{i<=k} a_i a_{k-i} - [k = 0] xi_n - [k = 1].
The step h = min_k (STEP_EPS tol max(1, |W|) / |a_k|)^(1/k) over the last
two coefficients keeps the truncated tail near STEP_EPS tol (Jorba & Zou,
Exp. Math. 14, 2005).  Each step's polynomial is the dense output.  The
last step ends exactly at W = BLOWUP_THRESHOLD, where the Laurent form
W ~ (xi - xi*)^-2 gives the pole xi* = xi_N - W_N^(-1/2) to O(W_N^(-5/2)).
The integration always runs to this pole: reaching XI_FLOOR without blow-up is
a HeleShawError, so the dense output covers [xi* + POLE_GUARD, xi0] with
POLE_GUARD = BLOWUP_THRESHOLD^(-1/2), the distance from the last node to the pole.
The solution depends on no flow parameter: equal arguments (xi0, tol)
share one certified, frozen, read-only solution; the last CACHE_SIZE settings are kept, failures never.

No shooting is needed: linearizing around the branch gives delta'' = 12 W
delta, and 12 W < 0 on the positive axis, so perturbations oscillate instead
of growing.  That stability assumption is not taken on faith; the tests
check the overlap between the integrated solution and the series on
[xi_0 - 5, xi_0].

Residual certification works on the ODE in integral form: for a span
[a, b] of the dense output, defect = | W'(b) - W'(a) - int_a^b (6 W^2 - xi) |
vanishes for an exact solution.  Between nodes the integrand is a
polynomial of degree 2 TAYLOR_ORDER, which Gauss-Legendre with
TAYLOR_ORDER + 1 points integrates exactly, so the defect measures genuine
inconsistency of (W, W') with the equation rather than quadrature error.

Solutions are tuples of floats, certified in plain floats: the nodes ts and one Taylor row per step,
whose a_0 and a_1 are (W, W') at the step's start.  numpy loads only for ndarray input and for
eval_many, residual_defects and the arrays ts and _coef, built on first access.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import nullcontext
from functools import cached_property, lru_cache

from .errors import DomainError, HeleShawError

#: |W| beyond this is treated as blown up (double poles grow fast)
BLOWUP_THRESHOLD = 1.0e6
#: evaluation guard around the pole: the last node lies this far above it (exactly 1e-3)
POLE_GUARD = BLOWUP_THRESHOLD ** -0.5
#: the integration refuses to continue below this abscissa without having met the pole
XI_FLOOR = -6.0
#: series seeding is refused below this abscissa
SERIES_MIN_XI = 10.0
#: degree of each step's Taylor polynomial
TAYLOR_ORDER = 20
#: size of the last two Taylor terms per step, relative to tol * max(1, |W|)
STEP_EPS = 1.0e-3
#: steps allowed per integration (xi0 = 1000 needs about 1.3k)
MAX_STEPS = 10_000
#: integrations kept by integrate_tritronquee, one per distinct setting
CACHE_SIZE = 8
#: Gauss-Legendre nodes x >= 0 and weights, 21 = TAYLOR_ORDER + 1 points; with the nodes -x they are leggauss(21)
_GAUSS_HALF = ((0.0, 0.1460811336496907), (0.1455618541608951, 0.14452440398997027),
               (0.2880213168024011, 0.1398873947910734), (0.4243421202074388, 0.13226893863333763),
               (0.5516188358872198, 0.12183141605372864), (0.6671388041974123, 0.1087972991671484),
               (0.7684399634756779, 0.09344442345603395), (0.8533633645833173, 0.07610011362837911),
               (0.9200993341504008, 0.05713442542685717), (0.9672268385663063, 0.03695378977085188),
               (0.9937521706203895, 0.01601722825777436))
_GAUSS_X, _GAUSS_W = zip(*((-x, w) for x, w in _GAUSS_HALF[:0:-1]), *_GAUSS_HALF)


#: b_0..b_4 of the seeding series W = -sqrt(xi/6) (1 + sum_k b_k (6 xi^5)^(-k/2)): substituting it
#: into W'' = 6 W^2 - xi and matching powers of xi^(-5/2) gives
#: b_m = -1/2 [b_{m-1} (25 (m-1)^2 - 1) / 4 + sum_{i=1}^{m-1} b_i b_{m-i}], so 1, 1/8, -49/128, 1225/256,
#: -4412401/32768: dyadic rationals, which these floats hold exactly
_SERIES = (1.0, 0.125, -0.3828125, 4.78515625, -134.655792236328125)


def asymptotic_series(xi):
    """(W, W') of the large-xi series truncated after b_4 (_SERIES).

    Accepts a float or an ndarray, with the same bits.  Refuses xi < 10,
    where the divergent tail is no longer far below double precision, and a
    NaN or infinite xi, naming the value.
    """
    scalar = isinstance(xi, (int, float))
    if not scalar:
        import numpy as np
    lo, hi = (xi, xi) if scalar else (np.min(xi, initial=math.inf), np.max(xi, initial=-math.inf))
    if not (SERIES_MIN_XI <= lo and hi < math.inf):  # a NaN fails it too
        raise DomainError(f"series unreliable at xi = {lo if not lo >= SERIES_MIN_XI else hi}: "
                          f"it holds for finite xi >= {SERIES_MIN_XI}")
    xi, sqrt = (float(xi), math.sqrt) if scalar else (xi, np.sqrt)
    # past xi ~ 1e61, 6 xi^5 overflows: t = 0 and only the leading term remains
    with nullcontext() if scalar else np.errstate(over="ignore"):
        s = sqrt(xi / 6.0)
        t = 1.0 / sqrt(6.0 * (xi * xi * (xi * xi) * xi))  # products: alike on floats and arrays
        poly = 0.0 * xi
        dpoly = 0.0 * xi
        tk = 1.0 + 0.0 * xi
        for k, b in enumerate(_SERIES):
            poly = poly + b * tk
            dpoly = dpoly + (5 * k - 1) * b * tk
            tk = tk * t
        return -s * poly, s * dpoly / (2.0 * xi)


def _horner(coefs, s):
    """(p(s), p'(s)) by synthetic division; coefs run from the top degree down.

    The same operations run on floats and on arrays, so scalar and
    vectorized evaluation agree bit for bit.
    """
    coefs = iter(coefs)
    w, d = next(coefs), 0.0 * s
    for c in coefs:
        d = d * s + w
        w = w * s + c
    return w, d


def _frozen_array(name: str) -> cached_property:
    """A read-only ndarray of the tuple attribute `name`, built once, on first access."""
    def build(self):
        import numpy as np
        array = np.array(getattr(self, name))
        array.setflags(write=False)
        return array
    return cached_property(build)


class TritronqueeSolution:
    """Dense numerical tritronquee with certified residual; immutable.

    nodes: the accepted Taylor steps (xi decreasing from xi0); row n of
    `_rows` holds the coefficients a_0..a_TAYLOR_ORDER of the step from
    ts[n] to ts[n + 1], the only store of the dense output: its a_0 and a_1
    are (W, W') at ts[n].  `pole` is the first negative-axis pole, where the integration ends: the
    covered range is [pole + POLE_GUARD, xi0], and xi_last = pole + 2 POLE_GUARD, the lowest abscissa
    served by default, maps onto the default window ends of the composite and the Toda flow.
    `residual_max`, the largest scaled integral-form defect over the certification range [pole + 0.1,
    xi0] (see module docstring), is certified < 100 * tol at construction, or HeleShawError is raised.
    Its tuples and arrays are read-only.
    """

    ts, _coef = map(_frozen_array, ("_ts", "_rows"))

    def __init__(self, xi0: float, tol: float, pole: float, _ts: tuple, _rows: tuple):
        self.__dict__.update(xi0=xi0, tol=tol, pole=pole, xi_last=pole + 2 * POLE_GUARD, _ts=_ts, _rows=_rows,
                             _keys=tuple(-t for t in _ts[:-1]))
        self.__dict__["residual_max"] = _certify(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        self.__setattr__(name, None)

    def _check_range(self, lo, hi):
        """Refuse [lo, hi] unless it lies in [pole + POLE_GUARD, xi0], naming the pole when lo is near it."""
        if not (self.pole + POLE_GUARD <= lo and hi <= self.xi0):  # NaN fails
            raise DomainError(f"xi = {hi} is not a number" if math.isnan(hi) else
                              f"xi within {POLE_GUARD} of the pole {self.pole:.6g}"
                              if abs(lo - self.pole) < POLE_GUARD else
                              f"xi outside covered range [{self.pole + POLE_GUARD:.6g}, {self.xi0:.6g}]")

    def served_image(self, xi_of, arg):
        """(xi, refused): xi = xi_of(arg) for `arg`, a float or an array in a caller's own variable, and the first
        value of `arg` whose xi eval_extended refuses (NaN, +-inf, or below pole + POLE_GUARD), or None."""
        if isinstance(arg, (int, float)):
            xi = xi_of(arg)
            return xi, None if self.pole + POLE_GUARD <= xi < math.inf else arg  # a NaN fails it too
        import numpy as np
        with np.errstate(over="ignore"):  # an xi that overflows is inf, and refused
            xi = xi_of(arg := np.asarray(arg, dtype=float))
        served = (self.pole + POLE_GUARD <= xi) & (xi < math.inf)
        return xi, None if served.all() else arg[~served][0]

    def _at(self, xi: float):
        """(W, W') at one abscissa from the Taylor step whose span holds it: _dense on floats."""
        n = min(max(bisect_right(self._keys, -xi) - 1, 0), len(self._rows) - 1)
        return _horner(reversed(self._rows[n]), xi - self._ts[n])

    def _dense(self, xi):
        """(W, W') from the Taylor step whose span holds each abscissa of the ndarray xi."""
        import numpy as np
        n = np.clip(np.searchsorted(-self.ts[:-1], -xi, side="right") - 1, 0, len(self._rows) - 1)
        return _horner((col[n] for col in self._coef.T[::-1]), xi - self.ts[n])

    def eval(self, xi: float) -> tuple[float, float]:
        """Dense-output (W, W') at a single abscissa."""
        xi = float(xi)
        self._check_range(xi, xi)
        return self._at(xi)

    def eval_many(self, xi) -> tuple:
        import numpy as np
        xi = np.asarray(xi, dtype=float)
        self._check_range(xi.min(initial=np.inf), xi.max(initial=-np.inf))
        return self._dense(xi)

    def eval_extended(self, xi):
        """Like eval (eval_many on an ndarray), but continue with the seeding series above xi0.

        The series is exactly what the integration was seeded from, so the
        two representations agree to far below the integration tolerance at
        the junction.
        """
        if isinstance(xi, (int, float)):
            return asymptotic_series(float(xi)) if xi > self.xi0 else self.eval(xi)
        import numpy as np
        xi = np.asarray(xi, dtype=float)
        w, wp, above = np.empty_like(xi), np.empty_like(xi), xi > self.xi0
        if above.any():
            w[above], wp[above] = asymptotic_series(xi[above])
        if not above.all():
            w[~above], wp[~above] = self.eval_many(xi[~above])
        return w, wp

    def residual_defects(self, grid):
        """|W'(b) - W'(a) - int (6W^2 - xi)| per span [a, b] of a decreasing or increasing grid.

        Spans are split at the nodes: that keeps every quadrature panel inside a single Taylor
        polynomial, where the Gauss rule integrates the integrand exactly.
        """
        import numpy as np
        grid = np.sort(np.asarray(grid, dtype=float))
        if not (len(grid) >= 2 and np.isfinite(grid).all() and np.all(np.diff(grid) > 0)):
            raise DomainError("residual grid needs two or more distinct finite abscissas")
        cuts = np.sort(np.concatenate((grid, self.ts[(self.ts > grid[0]) & (self.ts < grid[-1])])))
        cuts = cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]  # np.union1d without numpy.ma
        half = 0.5 * np.diff(cuts)
        pts = (cuts[:-1] + half)[:, None] + half[:, None] * np.array(_GAUSS_X)
        rhs = 6.0 * self._dense(pts)[0] ** 2 - pts
        integrals = np.add.reduceat((rhs @ np.array(_GAUSS_W)) * half, np.searchsorted(cuts, grid[:-1]))
        return np.abs(np.diff(self._dense(grid)[1]) - integrals)


def _taylor_step(xi: float, w: float, wp: float, tol: float):
    """Coefficients a_0..a_TAYLOR_ORDER at xi and the (negative) step to take."""
    a = [w, wp]
    for k in range(TAYLOR_ORDER - 1):
        conv = 0.0
        for i in range(k + 1):  # left to right (geometry.left_sum), and faster than sum()
            conv += a[i] * a[k - i]
        forcing = xi if k == 0 else 1.0 if k == 1 else 0.0
        a.append((6.0 * conv - forcing) / ((k + 2) * (k + 1)))
    scale = STEP_EPS * tol * max(1.0, abs(w))
    h = min(((scale / abs(a[k])) ** (1.0 / k) for k in (TAYLOR_ORDER - 1, TAYLOR_ORDER) if a[k]),
            default=math.inf)
    return a, (max(xi - h, XI_FLOOR) - xi)


def _to_threshold(a: list, s: float) -> float:
    """Newton for p(s) = BLOWUP_THRESHOLD; monotone from the far end, as W is convex."""
    for _ in range(50):
        w, wp = _horner(reversed(a), s)
        s, s_prev = s - (w - BLOWUP_THRESHOLD) / wp, s
        if s == s_prev:
            break
    return s


def integrate_tritronquee(xi0: float = 30.0, tol: float = 1e-11) -> TritronqueeSolution:
    """Integrate downward from a series seed at xi0 to blow-up at the first pole.

    tol scales the Taylor step control (module docstring); the errors of W
    and of the pole stay below tol.  More than MAX_STEPS steps, a step that
    underflows, or reaching XI_FLOOR without a pole raise HeleShawError;
    equal settings share one solution.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise DomainError("tol must lie in [1e-13, 1e-6]")
    if not xi0 >= SERIES_MIN_XI:
        raise DomainError(f"seeding abscissa {xi0} below {SERIES_MIN_XI}")
    return _integrate(float(xi0), float(tol))


@lru_cache(maxsize=CACHE_SIZE)
def _integrate(xi0: float, tol: float) -> TritronqueeSolution:
    xi, (w, wp) = xi0, asymptotic_series(xi0)
    ts, rows = [xi], []
    for _ in range(MAX_STEPS):
        if not xi > XI_FLOOR:
            raise HeleShawError(f"no pole above xi = {XI_FLOOR}")
        a, s = _taylor_step(xi, w, wp, tol)
        if not s < 0.0:
            raise HeleShawError(f"step size underflow at xi = {xi:.6g}")
        w, wp = _horner(reversed(a), s)
        rows.append(a)
        if not w < BLOWUP_THRESHOLD:  # the last step ends at the threshold
            s = (xi + _to_threshold(a, s)) - xi
            w, wp = _horner(reversed(a), s)
            ts.append(xi + s)
            break
        xi += s
        ts.append(xi)
    else:
        raise HeleShawError(f"{MAX_STEPS} Taylor steps did not reach xi = {xi:.6g}")

    pole = ts[-1] - w ** -0.5
    if not pole < 0.0:
        raise HeleShawError(f"pole fitted on the positive axis ({pole})")

    return TritronqueeSolution(xi0=xi0, tol=tol, pole=pole, _ts=tuple(ts), _rows=tuple(map(tuple, rows)))


def _certify(sol: TritronqueeSolution) -> float:
    """Max defect of the Taylor steps in [pole + 0.1, xi0], each relative to
    1 + max |6 W^2 - xi| on its step (zero for an exact solution): residual_defects
    in plain floats on step n = [ts[n + 1], ts[n]], with an fsum per Gauss sum."""
    ts = [t for t in sol._ts if t >= sol.pole + 0.1]  # a prefix: the nodes decrease
    worst = 0.0
    for b, a, row in zip(ts, ts[1:], sol._rows):
        half = 0.5 * (b - a)
        pts = [a + half + half * x for x in _GAUSS_X]
        ws = [_horner(reversed(row), xi - b)[0] for xi in pts]
        rhs = [6.0 * (w * w) - xi for w, xi in zip(ws, pts)]
        integral = math.fsum(r * g for r, g in zip(rhs, _GAUSS_W)) * half
        worst = max(worst, abs(sol._at(b)[1] - sol._at(a)[1] - integral) / (1.0 + max(map(abs, rhs))))
    if not worst < 100.0 * sol.tol:
        raise HeleShawError(f"residual certification failed: {worst:.3e} >= 100*tol")
    return worst

