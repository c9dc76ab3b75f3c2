"""Interface curves of the quintic finger, their topological events, and frames.

Finger curves live on X >= u and read Y(X) = P(X) sqrt(X - u), where the
prefactor P is the polynomial part (non-negative z-powers, X = z^2) of

    sum_k (k + 1/2) t_k z^(2k-1) / sqrt(z^2 - u),

which for the quintic finger configuration (t_3 = 2/7, only t_1 < 0 besides)
is the monic quadratic P(X; u) = X^2 + (u/2) X + (3/8) u^2 + (3/2) t_1
(finger_prefactor), so a curve's zeros are u and the closed-form roots of P
(prefactor_roots) at or above it; finger_samples draws the curve through
them on the frame window u <= X <= max(2.5, u + 1).  The projection for any
deformation times, as a table of polynomials in u, checks P in the tests
(tests/paper_identities.py).

Topological events along the regularized flow are driven by the roots of P
relative to the branch point u(x):

  * cusp: P(u; u) = 0 (a root collides with the branch point),
  * zero-count-change: the number of real roots >= u jumps by one
    (operational definition of bubble birth/annihilation); P keeps its
    degree, so this happens exactly at the cusps,
  * root-coalescence: the discriminant of P vanishes (both roots merge:
    the remaining bubble is absorbed by the finger).

The conditions g(u) = P(u; u) = (15/8) u^2 + (3/2) t_1 and the discriminant
-(5/4) u^2 - 6 t_1 vanish at the fold's levels u = +-v_c = +-sqrt(-4 t_1 / 5)
and u = +-sqrt(6) v_c = +-sqrt(-4.8 t_1), each one square root within an ulp
of the exact level.  u(x) decreases on each branch of the composite flow, so
each level is crossed at most once per branch and its abscissa follows by
bisection there.

The module imports no numpy: finger_samples repeats numpy's linspace, cos and
polyval on floats, so frames have the same bits on every CPU.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import pairwise
from operator import itemgetter

from .errors import DomainError
from .multiscale import CompositeSolution
from .textio import atomic_open, json_text, write_csv


# -- the quintic finger prefactor ----------------------------------------------

def finger_prefactor(t_1: float, u: float) -> tuple[float, float, float]:
    """P(X; u) = X^2 + (u/2) X + (3/8) u^2 + (3/2) t_1, ascending in X."""
    return (1.5 * t_1 + 0.375 * u**2, 0.5 * u, 1.0)


def prefactor_roots(c0: float, c1: float) -> list[float]:
    """Sorted real roots of the monic quadratic X^2 + c1 X + c0, a double root once.

    They are q and c0 / q with q = -(c1 + sign(c1) sqrt(disc)) / 2, which cancels nothing.
    """
    disc = c1 * c1 - 4.0 * c0
    if disc < 0:
        return []
    q = -0.5 * (c1 + math.copysign(math.sqrt(disc), c1 if c1 != 0 else 1.0))
    return sorted({q, c0 / q}) if q else [q]  # q = 0 only at X^2, whose double root it is


# -- the finger curve --------------------------------------------------------

def left_sum(terms, total=0):
    """sum(terms, total) added left to right, also on Python 3.12+, whose sum of floats is compensated."""
    for term in terms:
        total = total + term
    return total


#: node count -> its nodes, each count computed once while the store holds at most NODE_STORE doubles
_NODES: dict[int, memoryview] = {}
NODE_STORE = 2**17  # 1 MiB: every count up to n = 512, 8 n^2 / 2 bytes


def _cosine_nodes(m: int) -> memoryview:
    """1 - cos(theta) at the m angles of numpy's linspace(0, pi, m): i (pi / (m - 1)), the last one pi.

    A frame cut in two by a prefactor root has counts m1 + m2 ~ n that differ from frame to
    frame, so a store of the last few counts keeps missing; this one keeps each count, as a
    read-only view of packed doubles (a tuple of floats takes four times the memory).
    """
    nodes = _NODES.get(m)
    if nodes is None:
        step = math.pi / (m - 1)
        nodes = memoryview(bytearray(8 * m)).cast("d")  # no module import: frames starts cold
        for i in range(m - 1):
            nodes[i] = 1.0 - math.cos(i * step)
        nodes[m - 1] = 1.0 - math.cos(math.pi)
        nodes = nodes.toreadonly()
        if sum(map(len, _NODES.values())) + m <= NODE_STORE:
            _NODES[m] = nodes
    return nodes


def finger_samples(t_1: float, u: float, n: int) -> list[tuple[float, float]]:
    """About n points (X, Y) of Y = P(X; u) sqrt(X - u) on X in [u, max(2.5, u + 1)].

    The upper branch; the lower one is Y -> -Y.  The window is cut at the
    curve zeros (u and the prefactor roots above it) and each segment is
    sampled cosine-clustered toward both ends, which follows the square-root
    behaviour there; a sample within 1e-15 max(1, |z|) of a zero z moves onto
    its nearest zero, with Y = 0, so the zeros are hit exactly.  A curve not
    finite on the window (NaN, infinite or overflowing) is refused.
    """
    hi = max(2.5, u + 1.0)
    m = max(abs(u), hi)  # |X| <= m on the window: |Y|, disc P and each partial result are below the bound
    if not 8.0 * (m * m + abs(t_1)) * math.sqrt(hi - u) < math.inf:  # a NaN fails it too
        raise DomainError(f"finger curve is not finite on its window at t_1 = {t_1!r}, u = {u!r}")
    if not u < hi:
        raise DomainError(f"empty sampling window [u, max(2.5, u + 1)] = [{u!r}, {hi!r}] at the branch point u = {u!r}")
    c0, c1, _ = finger_prefactor(t_1, u)
    zeros = sorted({u, *(r for r in prefactor_roots(c0, c1) if r >= u)})
    segments = list(pairwise([u] + [z for z in zeros if u < z < hi] + [hi]))
    total = left_sum(b - a for a, b in segments)
    samples: list[tuple[float, float]] = []
    for a, b in segments:
        half = (b - a) * 0.5
        xs = [a + half * c for c in _cosine_nodes(max(8, round(n * (b - a) / total)))]
        # P monic by Horner, as numpy's polyval runs it, times sqrt(X - u) (X >= a >= u)
        pts = [(x, (c0 + (c1 + x) * x) * math.sqrt(x - u)) for x in xs]
        for z in zeros:  # the nodes do not decrease: the ones within reach of z are one run
            tol = 1e-15 * max(1.0, abs(z))
            for i in range(bisect_left(xs, -tol, key=lambda x: x - z), bisect_right(xs, tol, key=lambda x: x - z)):
                pts[i] = (min(reversed(zeros), key=lambda w: abs(xs[i] - w)), 0.0)  # nearest, the later on a tie
        samples += pts
    # X increasing (a stable sort; it moves samples only where two zeros lie an ulp or two apart), shared ends once
    samples.sort(key=itemgetter(0))
    return samples[:1] + [q for p, q in pairwise(samples) if q[0] > p[0]]


# -- events ------------------------------------------------------------------

class Event(namedtuple("Event", "kind u_value x_value")):
    """Topological change of the interface at flow abscissa x_value.

    kind is cusp, zero-count-change or root-coalescence; u_value and x_value are floats.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"kind": self.kind, "u": self.u_value, "x": self.x_value}


def _bisect_to_machine(fn, lo, hi, flo):
    """Halve [lo, hi] until its midpoint is an end: at most about 2100 halvings for any finite bracket."""
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return mid


_EVENT_PRIORITY = {"cusp": 0, "zero-count-change": 1, "root-coalescence": 2}


def detect_events(comp: CompositeSolution, x_range: tuple[float, float]) -> list[Event]:
    """Ordered topological events of the composite flow on x_range.

    The event levels come from the fold: u = -+v_c, where g(u) = P(u; u)
    vanishes (a cusp and, as P keeps its degree, a zero-count-change), and
    u = -+sqrt(-4.8 t_1) = -+sqrt(6) v_c, where the discriminant of P
    vanishes (a root-coalescence).  u(x) decreases on each branch of the
    composite (outer below x_switch, inner above), so one bisection to
    machine precision carries each level in a branch's u-range to x.  Events
    are sorted by x, ties in the order cusp, zero-count-change,
    root-coalescence.  Raises DomainError for a NaN end of x_range, and
    when the jump of u at x_switch straddles a level: the glued field has no
    single crossing of it.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if math.isnan(lo) or math.isnan(hi):
        raise DomainError(f"x = {lo if math.isnan(lo) else hi} is not a number")
    hi = min(hi, comp.x_last)
    if not lo < hi:
        return []
    v_c, w_c = comp.v_c, math.sqrt(-4.8 * comp.cp.t_1)
    levels = [(r, ("cusp", "zero-count-change")) for r in (-v_c, v_c)]
    levels += [(r, ("root-coalescence",)) for r in (-w_c, w_c)]

    x_switch = comp.x_switch
    branches = []  # (x_a, x_b, u(x_a), u(x_b), u) with u decreasing on [x_a, x_b]
    if lo < x_switch:
        b = min(hi, x_switch, comp.x_c)
        branches.append((lo, b, comp.outer_u(lo), comp.outer_u(b), comp.outer_u))
    if hi > x_switch:
        a = max(lo, x_switch)
        branches.append((a, hi, comp.inner_u(a), comp.inner_u(hi), comp.inner_u))
    jump = sorted((branches[0][3], branches[1][2])) if len(branches) == 2 else (math.inf, -math.inf)

    events: list[Event] = []
    for root, kinds in levels:
        if jump[0] <= root <= jump[1]:
            raise DomainError(f"u jumps across the event level u = {root!r} at "
                              f"x_switch = {x_switch!r}: no single crossing")
        for a, b, u_a, u_b, u_of in branches:
            if u_b <= root <= u_a:
                x_ev = _bisect_to_machine(lambda x: u_of(x) - root, a, b, u_a - root)
                events += [Event(kind, u_value=root, x_value=x_ev) for kind in kinds]
    events.sort(key=lambda ev: (ev.x_value, _EVENT_PRIORITY[ev.kind]))
    return events


# -- frame emission ------------------------------------------------------

def emit_frames(comp: CompositeSolution, abscissas, outdir, n: int = 400, events: list[Event] | None = None) -> dict:
    """Write frame_<index>.csv per abscissa plus a JSON manifest with events.

    Each frame holds the finger_samples of its branch point u; the events are
    detected over the abscissa span unless given.  `outdir` is a str or os.PathLike.
    """
    os.makedirs(outdir, exist_ok=True)
    abscissas = [float(x) for x in abscissas]
    if events is None and abscissas:
        events = detect_events(comp, (min(abscissas), max(abscissas)))
    events = events or []
    us = [comp.eval(x) for x in abscissas]  # first, so an abscissa out of range writes no file
    manifest: dict = {"frames": [], "events": [ev.to_json() for ev in events]}
    for index, (x, u) in enumerate(zip(abscissas, us)):
        samples = finger_samples(comp.cp.t_1, u, n)
        name = f"frame_{index:03d}.csv"
        write_csv(os.path.join(outdir, name), "X,Y", samples)
        manifest["frames"].append({"index": index, "x": x, "file": name, "n_samples": len(samples),
                                   "n_events_so_far": sum(ev.x_value <= x for ev in events)})
    with atomic_open(os.path.join(outdir, "manifest.json")) as fh:
        fh.write(json_text(manifest) + "\n")
    return manifest
