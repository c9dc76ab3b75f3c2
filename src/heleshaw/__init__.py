"""Regularization of critical Hele-Shaw interface flows.

The library follows one pipeline:

1. exact Gel'fand-Dikii algebra (:mod:`heleshaw.diffpoly`),
2. dispersionless hodograph branches and gradient catastrophes
   (:mod:`heleshaw.hodograph`),
3. numerical Painleve-I tritronquee construction (:mod:`heleshaw.painleve`),
4. multiscale reduction and inner/outer matching (:mod:`heleshaw.multiscale`),
5. the bubble break-off / merging branch (:mod:`heleshaw.toda`),
6. interface curves and topological events (:mod:`heleshaw.geometry`),
7. a CLI orchestrating scenarios (:mod:`heleshaw.cli`).

Importing the package loads none of these modules: each public name is
resolved on first access (PEP 562), so a CLI run loads only the layers it
uses.
"""

import importlib

__version__ = "0.1.0"

#: module -> the public names it exports through the package
_EXPORTS = {
    "diffpoly": ("DiffPoly", "Monomial", "gd_next", "gd_polynomials"),
    "hodograph": (
        "CriticalPoint", "KdVTimes", "branch_root", "c_coeff", "closed_u0", "eval_H", "eval_dH",
        "find_critical", "find_critical_25", "hodograph_poly", "quintic_times", "r_coeff", "solve_branch",
    ),
    "painleve": ("TritronqueeSolution", "asymptotic_series", "find_first_negative_pole", "integrate_tritronquee"),
    "multiscale": (
        "CompositeSolution", "LeadingODE", "PIReduction", "ScalingMapKdV", "build_composite",
        "build_leading_ode", "overlap_error", "overlap_report", "reduce_to_pi",
    ),
    "toda": (
        "TodaCritical", "TodaInner", "TodaTimes", "build_toda_inner", "find_toda_critical",
        "solve_toda_hodograph", "toda_composite", "toda_inner_V2", "toda_r_coeff",
    ),
    "geometry": (
        "CurveSpec", "Event", "InterfaceFrame", "bubble_curve", "detect_events", "emit_frames",
        "finger_curve", "oplus_project",
    ),
}
_HOME = {"errors": "errors", **{name: module for module, names in _EXPORTS.items() for name in names}}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    return module if name == home else getattr(module, name)
