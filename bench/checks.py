"""Output checks.  Each returns a list of problems; an empty list passes.

The checks read what the program wrote (CSV files, manifests, JSON
summaries) and compare it with facts known independently of the code:
finiteness, monotonicity, the exact event u-values of the quintic finger
and the documented tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

#: the first negative tritronquee pole lies in this bracket
POLE_BRACKET = (-2.40, -2.37)
#: event u-values must match the exact roots this closely
EVENT_TOL = 1e-6
#: README inner/outer mismatch bounds at t1 = -0.8, eps = 1e-5 on (0.6365, 0.6395)
README_OVERLAP = {"max_abs_err": 5e-4, "max_rel_err": 6.25e-4}


def read_csv(path, ncols: int) -> tuple[np.ndarray | None, list[str]]:
    """Rows of a numeric CSV with a header line; problems if malformed or not finite."""
    path = Path(path)
    if not path.is_file():
        return None, [f"{path.name}: missing"]
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return None, [f"{path.name}: unreadable ({exc})"]
    if data.shape[1] != ncols:
        return None, [f"{path.name}: {data.shape[1]} columns, expected {ncols}"]
    if not np.all(np.isfinite(data)):
        return data, [f"{path.name}: non-finite values"]
    return data, []


_NONFINITE = re.compile(r"(?<![A-Za-z0-9_])(nan|inf|infinity)(?![A-Za-z0-9_])", re.IGNORECASE)


def no_nonfinite_tokens(text: str, where: str) -> list[str]:
    """JSON or CSV text must not carry NaN or Infinity tokens."""
    return [f"{where}: non-finite token"] if _NONFINITE.search(text) else []


def decreasing(values, where: str) -> list[str]:
    values = np.asarray(values, dtype=float)
    if values.size > 1 and not np.all(np.diff(values) < 0):
        return [f"{where}: not strictly decreasing"]
    return []


def composite_decreasing(xs, us, x_switch: float, where: str) -> list[str]:
    """u(x) decreases on the outer branch and on the inner branch.

    The glued composite jumps at x_switch by the inner/outer mismatch, so
    monotonicity is required on each side of the switch separately.
    """
    xs = np.asarray(xs, dtype=float)
    outer = xs < x_switch
    return decreasing(np.asarray(us)[outer], f"{where} outer") + decreasing(
        np.asarray(us)[~outer], f"{where} inner")


def switch_jump(xs, us, x_switch: float) -> float:
    """u just above the switch minus u just below it (0 if one side is empty)."""
    xs, us = np.asarray(xs, dtype=float), np.asarray(us, dtype=float)
    below, above = us[xs < x_switch], us[xs >= x_switch]
    return float(above[0] - below[-1]) if below.size and above.size else 0.0


def tritronquee(residual_max: float, tol: float, pole) -> list[str]:
    problems = []
    if not residual_max < 100.0 * tol:
        problems.append(f"residual_max {residual_max!r} not below 100*tol = {100.0 * tol!r}")
    if pole is None or not POLE_BRACKET[0] < pole < POLE_BRACKET[1]:
        problems.append(f"pole {pole!r} outside {POLE_BRACKET}")
    return problems


def overlap(report: dict, readme_config: bool = False) -> list[str]:
    problems = []
    for key, bound in README_OVERLAP.items():
        value = report.get(key)
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"overlap {key} = {value!r} is not finite")
        elif readme_config and not value < bound:
            problems.append(f"overlap {key} = {value!r} not below the README bound {bound}")
    return problems


def exact_event_roots(v_c: float) -> list[tuple[float, tuple[str, ...]]]:
    """Exact event u-values of the quintic finger, in decreasing u.

    P(u; u) = (15/8) u^2 + (3/2) t1 vanishes at u = +-v_c (cusp, and the
    root count >= u changes there too); the discriminant -(5/4) u^2 - 6 t1
    vanishes at u = +-sqrt(6) v_c (root-coalescence).
    """
    s6 = math.sqrt(6.0) * v_c
    cusp = ("cusp", "zero-count-change")
    return [(s6, ("root-coalescence",)), (v_c, cusp), (-v_c, cusp), (-s6, ("root-coalescence",))]


def events(observed: list[dict], v_c: float, u_lo: float, u_hi: float) -> tuple[list[str], float]:
    """Compare events with the exact roots inside [u_lo, u_hi].

    Roots within EVENT_TOL of a window end may be present or absent.
    Returns the problems and the largest |u_event - u_exact| seen.
    """
    problems, worst = [], 0.0
    expected = []
    for root, kinds in exact_event_roots(v_c):
        if u_lo - EVENT_TOL <= root <= u_hi + EVENT_TOL:
            optional = root < u_lo + EVENT_TOL or root > u_hi - EVENT_TOL
            expected.append((root, kinds, optional))
    pos = 0
    for root, kinds, optional in expected:
        present = pos < len(observed) and abs(observed[pos]["u"] - root) <= EVENT_TOL
        if not present:
            if not optional:
                problems.append(f"missing event(s) {kinds} at u = {root!r}")
            continue
        for kind in kinds:
            if pos >= len(observed):
                problems.append(f"missing {kind} at u = {root!r}")
                break
            ev = observed[pos]
            err = abs(ev["u"] - root)
            worst = max(worst, err)
            if ev["kind"] != kind or not err <= EVENT_TOL:
                problems.append(f"event {pos}: {ev['kind']} at u = {ev['u']!r}, expected {kind} at {root!r}")
            pos += 1
    if pos < len(observed):
        problems.append(f"{len(observed) - pos} unexpected event(s), first {observed[pos]}")
    xs = [ev["x"] for ev in observed]
    if xs != sorted(xs):
        problems.append("event abscissas not sorted")
    return problems, worst


def frames(outdir, manifest: dict, abscissas) -> tuple[list[str], tuple[float, float] | None]:
    """Frame files listed, present, finite and as long as the manifest says.

    Returns the problems and the branch-point u of the first and last frame
    (the first sample of a finger frame sits exactly at X = u, Y = 0).
    """
    outdir = Path(outdir)
    listed = manifest.get("frames", [])
    if len(listed) != len(abscissas):
        return [f"{len(listed)} frames listed, {len(abscissas)} requested"], None
    problems, ends = [], []
    for index, (entry, x) in enumerate(zip(listed, abscissas)):
        if entry.get("x") != x or entry.get("index") != index:
            problems.append(f"frame {index}: manifest entry {entry} does not match x = {x!r}")
        data, bad = read_csv(outdir / entry.get("file", f"frame_{index:03d}.csv"), 2)
        problems += bad
        if data is None:
            continue
        if len(data) != entry.get("n_samples"):
            problems.append(f"frame {index}: {len(data)} rows, manifest says {entry.get('n_samples')}")
        if index in (0, len(listed) - 1):
            ends.append(float(data[0, 0]))
    return problems, (tuple(ends) if len(ends) == 2 else None)


def digest(paths) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def read_json(path) -> tuple[dict | None, list[str]]:
    path = Path(path)
    if not path.is_file():
        return None, [f"{path.name}: missing"]
    text = path.read_text()
    problems = no_nonfinite_tokens(text, path.name)
    try:
        return json.loads(text), problems
    except json.JSONDecodeError as exc:
        return None, problems + [f"{path.name}: invalid JSON ({exc})"]


def digits(error: float) -> float:
    """-log10 of an absolute error, capped at 17 digits for an exact hit."""
    return -math.log10(max(error, 1e-17))
