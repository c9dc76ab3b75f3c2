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
"""

from . import errors
from .diffpoly import DiffPoly, Monomial, gd_next, gd_polynomials
from .geometry import (
    CurveSpec,
    Event,
    InterfaceFrame,
    bubble_curve,
    detect_events,
    emit_frames,
    finger_curve,
    oplus_project,
)
from .hodograph import (
    CriticalPoint,
    KdVTimes,
    c_coeff,
    closed_u0,
    eval_H,
    eval_dH,
    find_critical,
    find_critical_25,
    quintic_times,
    r_coeff,
    solve_branch,
)
from .multiscale import (
    CompositeSolution,
    LeadingODE,
    PIReduction,
    ScalingMapKdV,
    build_composite,
    build_leading_ode,
    overlap_error,
    overlap_report,
    reduce_to_pi,
)
from .painleve import (
    TritronqueeSolution,
    asymptotic_series,
    find_first_negative_pole,
    integrate_tritronquee,
)
from .toda import (
    TodaCritical,
    TodaInner,
    TodaTimes,
    build_toda_inner,
    find_toda_critical,
    solve_toda_hodograph,
    toda_composite,
    toda_inner_V2,
    toda_r_coeff,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "DiffPoly",
    "Monomial",
    "gd_next",
    "gd_polynomials",
    "CriticalPoint",
    "KdVTimes",
    "c_coeff",
    "closed_u0",
    "eval_H",
    "eval_dH",
    "find_critical",
    "find_critical_25",
    "quintic_times",
    "r_coeff",
    "solve_branch",
    "TritronqueeSolution",
    "asymptotic_series",
    "find_first_negative_pole",
    "integrate_tritronquee",
    "CompositeSolution",
    "LeadingODE",
    "PIReduction",
    "ScalingMapKdV",
    "build_composite",
    "build_leading_ode",
    "overlap_error",
    "overlap_report",
    "reduce_to_pi",
    "TodaCritical",
    "TodaInner",
    "TodaTimes",
    "build_toda_inner",
    "find_toda_critical",
    "solve_toda_hodograph",
    "toda_composite",
    "toda_inner_V2",
    "toda_r_coeff",
    "CurveSpec",
    "Event",
    "InterfaceFrame",
    "bubble_curve",
    "detect_events",
    "emit_frames",
    "finger_curve",
    "oplus_project",
    "__version__",
]
