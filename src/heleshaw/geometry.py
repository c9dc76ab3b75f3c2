"""Interface curves, the positive-part projection, and topological events.

Finger curves live on X >= u and read Y(X) = P(X) sqrt(X - u), where the
prefactor P is the polynomial part (non-negative z-powers, X = z^2) of

    sum_k (k + 1/2) t_k z^(2k-1) / sqrt(z^2 - u),

built once as an exact table of polynomials in u.  For the quintic finger
configuration (t_3 = 2/7) this specializes to
P(X) = X^2 + (u/2) X + (3/8) u^2 + (3/2) t_1.
Bubble curves read Y(X) = 3 t_3 (X + u) sqrt((X - u)^2 - 4 v), real outside
the tip gap (a, b) = (u - 2 sqrt(v), u + 2 sqrt(v)).

Topological events along the regularized flow are driven by the roots of P
relative to the branch point u(x):

  * cusp: P(u; u) = 0 (a root collides with the branch point),
  * zero-count-change: the number of real roots >= u jumps by one
    (operational definition of bubble birth/annihilation); P keeps its
    degree, so this happens exactly at the cusps,
  * root-coalescence: the discriminant of P vanishes (both roots merge:
    the remaining bubble is absorbed by the finger).

Both conditions are polynomials in u alone, so the event levels are their
hodograph.real_roots: u = +-v_c and u = +-sqrt(6) v_c for the quintic finger
(the same routine gives the prefactor roots of a curve's zeros).  u(x)
decreases on each branch of the composite flow, so each level is crossed
at most once per branch and its abscissa follows by bisection there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NoConvergence
from .hodograph import KdVTimes, left_sum, r_coeff, real_roots
from .multiscale import CompositeSolution
from .textio import atomic_open, json_text, write_csv
from .toda import TodaInner, toda_composite


# -- the positive-part projection ---------------------------------------

def _prefactor_table(times: KdVTimes) -> list[list]:
    """Finger prefactor as a table of polynomials in u: row j, entry m multiplies X^j u^m.

    Dividing each z^(2k-1) by sqrt(z^2 - u) and keeping non-negative powers
    gives P(X; u) = sum_k (k + 1/2) t_k sum_{m=0}^{k-1} r_m(u) X^(k-1-m), with
    r_m(u) = binom(2m, m) (u/4)^m; exact in rational arithmetic for exact times.
    """
    n = len(times.t)
    table = [[0] * (n - j) for j in range(n)]
    for k, tk in times.items():
        for m in range(k):
            table[k - 1 - m][m] = Fraction(2 * k + 1, 2) * tk * r_coeff(m, Fraction(1))
    return table


def _float_table(times: KdVTimes) -> list[list[float]]:
    """_prefactor_table rounded to floats, for the float paths (frames and events)."""
    return [[float(c) for c in row] for row in _prefactor_table(times)]


def _prefactor_at(table: list[list], v) -> list:
    """Prefactor coefficients (ascending in X) at u = v from a prefactor table."""
    return [left_sum((c * v**m for m, c in enumerate(row)), 0 * v) for row in table]


def oplus_project(times: KdVTimes, v) -> list:
    """Prefactor coefficients (ascending in X) of the finger curve at u = v.

    Evaluates _prefactor_table; exact for Fraction inputs.  For a float v each
    product c * v**m is float(c) * v**m, the bits of the float table of frames.
    """
    return _prefactor_at(_prefactor_table(times), v)


# -- curve specifications ------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """Sampled-curve recipe: prefactor polynomial plus branch data.

    kind "finger": Y = P(X) sqrt(X - u), X >= u (v unused).
    kind "bubbles": Y = P(X) sqrt((X - u)^2 - 4 v), real outside the tips.
    """

    kind: str
    poly: tuple
    u: float
    v: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("finger", "bubbles"):
            raise DomainError(f"unknown curve kind {self.kind!r}")
        if self.kind == "bubbles" and (self.v is None or self.v < 0):
            raise DomainError("bubble curve needs v >= 0")

    @property
    def tips(self) -> tuple[float, float]:
        if self.kind != "bubbles":
            raise DomainError("tips are a bubble-curve notion")
        root = 2.0 * math.sqrt(self.v)
        return (self.u - root, self.u + root)

    def prefactor(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.poly, dtype=float))

    def y(self, x):
        """Upper-branch Y(X); DomainError off the real locus."""
        xs = np.asarray(x, dtype=float)
        if self.kind == "finger":
            if np.any(xs < self.u - 1e-12 * (1 + abs(self.u))):
                raise DomainError("finger curve undefined below the branch point u")
            radicand = np.maximum(xs - self.u, 0.0)
        else:
            a, b = self.tips
            inside = (xs > a + 1e-12) & (xs < b - 1e-12)
            if np.any(inside):
                raise DomainError("bubble curve undefined strictly between the tips")
            radicand = np.maximum((xs - self.u) ** 2 - 4.0 * self.v, 0.0)
        return self.prefactor(xs) * np.sqrt(radicand)

    def real_zeros(self) -> list[float]:
        """Zeros of Y on the real locus: branch/tip points plus prefactor roots."""
        if self.kind == "finger":
            return sorted({self.u, *(r for r in real_roots(self.poly) if r >= self.u)})
        a, b = self.tips
        return sorted({a, b, *(r for r in real_roots(self.poly) if r <= a or r >= b)})


# -- frames ------------------------------------------------------------------

@dataclass(frozen=True)
class Event:
    """Topological change of the interface at flow abscissa x_value."""

    kind: str           # cusp | zero-count-change | root-coalescence
    u_value: float
    x_value: float

    def to_json(self) -> dict:
        return {"kind": self.kind, "u": self.u_value, "x": self.x_value}


@dataclass
class InterfaceFrame:
    """One sampled interface frame (upper branch; lower branch is Y -> -Y)."""

    x: float
    samples: list[tuple[float, float]]


def _sample_segments(spec: CurveSpec, spans: list[tuple[float, float]], n: int):
    """Samples of Y on the spans, cut at the curve zeros and cosine-clustered per segment."""
    zeros = spec.real_zeros()
    segments = []
    for lo, hi in spans:
        cuts = [lo] + [z for z in zeros if lo < z < hi] + [hi]
        segments += [(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    if not segments:
        raise DomainError("empty sampling window")
    total = left_sum(b - a for a, b in segments)
    # cosine clustering toward both ends of each segment: faithful square-root behaviour
    thetas = [np.linspace(0.0, math.pi, max(8, round(n * (b - a) / total))) for a, b in segments]
    xs = np.concatenate([a + (b - a) * 0.5 * (1.0 - np.cos(t)) for (a, b), t in zip(segments, thetas)])
    ys = spec.y(xs)
    # snap to the analytic zeros: exact coordinates, exact Y = 0
    for z in zeros:
        hit = np.abs(xs - z) <= 1e-15 * max(1.0, abs(z))
        xs[hit], ys[hit] = z, 0.0
    # x increasing, shared endpoints once
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    keep = np.concatenate(([True], xs[1:] > xs[:-1]))
    return list(zip(xs[keep].tolist(), ys[keep].tolist()))


def finger_curve(u: float, times: KdVTimes, X_range: Optional[tuple[float, float]] = None,
                 n: int = 400) -> InterfaceFrame:
    """Sampled finger frame at branch point u; abscissa taken from times.x.

    Sampling is densest near the curve zeros (cosine clustering per segment)
    and the zeros themselves are hit exactly with Y = 0.
    """
    return _finger_frame(_float_table(times), float(u), float(times.x), X_range, n)


def _finger_frame(table: list, u: float, x: float, X_range: Optional[tuple], n: int) -> InterfaceFrame:
    """finger_curve from a float prefactor table, which emit_frames builds once for all frames."""
    spec = CurveSpec(kind="finger", poly=tuple(_prefactor_at(table, u)), u=u)
    if X_range is None:
        X_range = (u, max(spec.real_zeros()[-1] + 1.0, u + 1.5))
    lo, hi = float(X_range[0]), float(X_range[1])
    if lo < u - 1e-12 * (1 + abs(u)):
        raise DomainError(f"requested X below the branch point u = {u}")
    return InterfaceFrame(x=x, samples=_sample_segments(spec, [(lo, hi)], n))


def bubble_curve(u: float, v: float, t_3: float, X_range: Optional[tuple[float, float]] = None,
                 n: int = 400, x_label: float = math.nan) -> InterfaceFrame:
    """Sampled two-bubble frame: Y = 3 t_3 (X + u) sqrt((X - u)^2 - 4 v).

    The real locus excludes the open tip gap (a, b); requesting samples
    inside it is a domain error.  v = 0 is the merging moment (tips touch).
    """
    spec = CurveSpec(kind="bubbles", poly=(3.0 * t_3 * u, 3.0 * t_3), u=float(u), v=float(v))
    a, b = spec.tips
    if X_range is None:
        pad = max(b - a, 1.0)
        X_range = (a - pad, b + pad)
    lo, hi = float(X_range[0]), float(X_range[1])
    if lo > a - 1e-15 and hi < b + 1e-15:
        raise DomainError("requested window lies strictly inside the tip gap")
    spans = [(lo, min(a, hi)), (max(b, lo), hi)]
    return InterfaceFrame(x=float(x_label), samples=_sample_segments(spec, spans, n))


# -- event detection -----------------------------------------------------

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


_EVENT_PRIORITY = {"cusp": 0, "zero-count-change": 1, "root-coalescence": 2}


def detect_events(comp: CompositeSolution, x_range: tuple[float, float]) -> list[Event]:
    """Ordered topological events of the composite flow on x_range.

    The event levels are the real_roots of two polynomials in u from the
    prefactor table: g(u) = P(u; u) (a cusp and, as P keeps its degree, a
    zero-count-change) and the discriminant p_1^2 - 4 p_2 p_0 of the
    quadratic P (a root-coalescence).  u(x) decreases on each branch of the
    composite (outer below x_switch, inner above), so one bisection to
    machine precision carries each level in a branch's u-range to x.  Events
    are sorted by x, ties in the order cusp, zero-count-change,
    root-coalescence.  Raises NoConvergence when the jump of u at x_switch
    straddles a level: the glued field has no single crossing of it.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    hi = min(hi, comp.x_star - 2e-7)
    if not lo < hi:
        return []
    P = np.polynomial.polynomial
    p0, p1, p2 = _float_table(comp.cp.times_c)
    g = P.polyadd(P.polyadd(p0, [0.0] + p1), [0.0, 0.0] + p2)
    disc = P.polysub(P.polymul(p1, p1), 4.0 * P.polymul(p2, p0))
    levels = [(r, ("cusp", "zero-count-change")) for r in real_roots(g)]
    levels += [(r, ("root-coalescence",)) for r in real_roots(disc)]

    x_switch = comp.x_switch
    branches = []  # (x_a, x_b, u(x_a), u(x_b), u) with u decreasing on [x_a, x_b]
    if lo < x_switch:
        b = min(hi, x_switch)
        branches.append((lo, b, comp.outer_u(lo), comp.outer_u(b), comp.outer_u))
    if hi > x_switch:
        a = max(lo, x_switch)
        branches.append((a, hi, comp.inner_u(a), comp.inner_u(hi), comp.inner_u))
    jump = sorted((branches[0][3], branches[1][2])) if len(branches) == 2 else (math.inf, -math.inf)

    events: list[Event] = []
    for root, kinds in levels:
        if jump[0] <= root <= jump[1]:
            raise NoConvergence(f"u jumps across the event level u = {root!r} at "
                                f"x_switch = {x_switch!r}: no single crossing")
        for a, b, u_a, u_b, u_of in branches:
            if u_b <= root <= u_a:
                x_ev = _bisect_to_machine(lambda x: u_of(x) - root, a, b, u_a - root)
                events += [Event(kind, u_value=root, x_value=x_ev) for kind in kinds]
    events.sort(key=lambda ev: (ev.x_value, _EVENT_PRIORITY[ev.kind]))
    return events


# -- frame emission ------------------------------------------------------

def emit_frames(source: CompositeSolution | TodaInner, abscissas: Sequence[float], outdir,
                n: int = 400, events: Optional[list[Event]] = None) -> dict:
    """Write frame_<index>.csv per abscissa plus a JSON manifest with events.

    `source` is a KdV CompositeSolution (finger frames on X in [u, max(2.5, u + 1)];
    events detected over the abscissa span unless given) or a TodaInner
    (bubble frames at inner times t~).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    abscissas = [float(x) for x in abscissas]
    # the branch data of all frames come first, so an abscissa out of range writes no file
    if isinstance(source, CompositeSolution):
        if events is None and abscissas:
            events = detect_events(source, (min(abscissas), max(abscissas)))

        table = _float_table(source.cp.times_c)
        frames = (_finger_frame(table, u, x, (u, max(2.5, u + 1.0)), n)
                  for x, u in zip(abscissas, source.eval_many(abscissas).tolist()))
    else:
        us, vs = toda_composite(np.array(abscissas), source)
        frames = (bubble_curve(u, v, float(source.crit.t_3), n=n, x_label=t)
                  for t, u, v in zip(abscissas, us.tolist(), vs.tolist()))

    events = events or []
    manifest: dict = {"frames": [], "events": [ev.to_json() for ev in events]}
    for index, (x, frame) in enumerate(zip(abscissas, frames)):
        name = f"frame_{index:03d}.csv"
        write_csv(outdir / name, "X,Y", frame.samples)
        manifest["frames"].append({"index": index, "x": x, "file": name, "n_samples": len(frame.samples),
                                   "n_events_so_far": sum(ev.x_value <= x for ev in events)})
    with atomic_open(outdir / "manifest.json") as fh:
        fh.write(json_text(manifest) + "\n")
    return manifest
