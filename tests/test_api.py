"""The public API is what the pipeline runs; the oracles (paper identities, general solvers) live in the tests."""

import ast
import builtins
import importlib
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import branch_solvers
import paper_identities
import heleshaw
from heleshaw.errors import DomainError
from heleshaw.geometry import detect_events
from heleshaw.multiscale import build_composite
from heleshaw.hodograph import find_critical_25
from heleshaw.painleve import POLE_GUARD, asymptotic_series, integrate_tritronquee
from heleshaw.toda import build_toda_inner, toda_composite

ORACLES = (paper_identities, branch_solvers)

#: module -> names that left it: deleted (an equivalent stays in the API) or moved to an oracle module
GONE = {
    "painleve": ("find_first_negative_pole", "laurent_leading_coefficient", "_series_coefficients", "SERIES_ORDER"),
    "errors": ("NoPoleInRange", "UnsupportedOrder", "DerivativeVanishes", "DegenerateReduction", "JetTooShort",
               "OutOfRange", "TooCloseToPole", "SeedUnreliable", "StepSizeUnderflow", "CertificationFailed",
               "NoConvergence", "NotExactDerivative"),
    "multiscale": ("overlap_error", "pi_reduction_exact_coefficients", "recover_leading_multiplier", "LeadingODE",
                   "PIReduction", "build_leading_ode", "reduce_to_pi"),
    "toda": (
        "toda_r_coeff", "hodograph_pair_residuals", "toda_inner_V2_xtilde", "toda_inner_V2_xtilde2",
        "toda_inner_U2", "toda_inner_U3", "toda_inner_order4_combination", "toda_inner_U4_of_V4",
        "discrete_string_residuals", "toda_pi_exact_coefficients", "toda_matching_map_identity",
        "TodaTimes", "solve_toda_hodograph",
    ),
    "geometry": (
        "reexpand_curve_series", "oplus_project", "bubble_curve", "finger_curve", "InterfaceFrame",
        "_finger_frame", "_sample_segments", "prefactor_table", "_float_table", "prefactor_at", "CurveSpec",
        "event_quadratics",
    ),
    "hodograph": (
        "exact_root", "_iroot", "hodograph_poly", "eval_H", "eval_dH", "poly_scale", "_piece_root",
        "branch_root", "solve_branch", "find_critical", "_derivative", "_horner", "bisect", "KdVTimes",
        "quintic_times", "T3_QUINTIC", "r_coeff", "_halfint_rising_coeff", "c_coeff", "left_sum",
        "_fold_abscissa", "real_roots",
    ),
    "diffpoly": ("dispersionless_coefficient", "Monomial"),
    "cli": ("build_parser", "_Parser"),
}
GONE_METHODS = {
    ("multiscale", "ScalingMapKdV"): ("x_to_inner", "x_from_inner"),
    ("multiscale", "LeadingODE"): ("canonical_m2",),
    ("hodograph", "CriticalPoint"): ("residuals", "times_c"),
    ("diffpoly", "Monomial"): ("of", "is_constant", "max_order", "orders", "weight", "times"),
    ("multiscale", "CompositeSolution"): ("eps", "ode", "reduction", "check_below_x_star"),
    ("diffpoly", "DiffPoly"): ("is_zero", "dispersionless_part", "constant_part", "homogeneous_weight", "eval",
                               "zero", "monomial", "coeff"),
    ("hodograph", "KdVTimes"): ("with_x",),
    ("geometry", "CurveSpec"): ("kind", "v", "tips", "prefactor", "y", "real_zeros", "samples"),
    ("painleve", "TritronqueeSolution"): ("ws", "wps", "blew_up", "xi_reached"),
}
#: (module, function) -> parameters that left it
GONE_PARAMETERS = {
    ("painleve", "asymptotic_series"): ("order",),
    ("painleve", "integrate_tritronquee"): ("xi_min",),
    ("painleve", "_integrate"): ("step_constants", "xi_min"),
    ("painleve", "_taylor_step"): ("xi_min",),
}
DELETED = {"find_first_negative_pole", "NoPoleInRange", "UnsupportedOrder", "overlap_error", "x_to_inner",
           "x_from_inner", "exact_root", "_iroot", "of", "eps", "is_constant", "max_order",
           "dispersionless_coefficient", "bubble_curve", "finger_curve", "InterfaceFrame", "_finger_frame",
           "_sample_segments", "bisect", "with_x", "kind", "v", "tips", "T3_QUINTIC", "times_c", "ode",
           "reduction", "left_sum",  # left_sum stays in the package, in geometry, its one caller
           "_series_coefficients", "SERIES_ORDER", "JetTooShort", "CurveSpec", "eval", "prefactor", "y",
           "real_zeros", "samples", "Monomial", "orders", "weight", "times", "zero", "monomial", "coeff",
           "build_parser", "_Parser", "ws", "wps", "_fold_abscissa", "OutOfRange", "TooCloseToPole",
           "SeedUnreliable", "StepSizeUnderflow", "CertificationFailed", "NoConvergence", "NotExactDerivative",
           "blew_up", "xi_reached", "real_roots", "event_quadratics", "check_below_x_star"}
#: the error classes, one per remedy: fix the input, fix the configuration (CLI exit 2), or neither (a solver failed)
ERROR_CLASSES = ("ConfigError", "DomainError", "HeleShawError")


@pytest.mark.parametrize("module", sorted(GONE))
def test_moved_and_deleted_names_left_their_module(module):
    mod = importlib.import_module(f"heleshaw.{module}")
    assert [name for name in GONE[module] if hasattr(mod, name)] == []


@pytest.mark.parametrize("owner", sorted(GONE_METHODS), ids="/".join)
def test_moved_and_deleted_methods_left_their_class(owner):
    """Checked where the class lives now: its package module, or an oracle module if it moved there."""
    module, name = owner
    home = next((m for m in (importlib.import_module(f"heleshaw.{module}"), *ORACLES) if hasattr(m, name)), None)
    if home is None:  # the class itself is deleted, and its methods with it
        assert name in GONE[module]
        return
    assert [attr for attr in GONE_METHODS[owner] if hasattr(getattr(home, name), attr)] == []


@pytest.mark.parametrize("owner", sorted(GONE_PARAMETERS), ids="/".join)
def test_deleted_parameters_left_their_function(owner):
    module, name = owner
    parameters = inspect.signature(getattr(importlib.import_module(f"heleshaw.{module}"), name)).parameters
    assert [p for p in GONE_PARAMETERS[owner] if p in parameters] == []


def test_moved_names_are_oracles_beside_the_tests():
    moved = {name for names in [*GONE.values(), *GONE_METHODS.values()] for name in names} - DELETED
    assert sorted(name for name in moved if not any(callable(getattr(m, name, None)) for m in ORACLES)) == []


@pytest.mark.parametrize("module", ["hodograph", "multiscale", "geometry", "painleve", "toda"])
def test_closed_form_layers_import_no_fractions(module):
    """The closed forms and the tritronquee run in floats: these layers import no fractions or decimal."""
    tree = ast.parse(Path(importlib.import_module(f"heleshaw.{module}").__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported.isdisjoint({"fractions", "decimal"})


def test_every_raise_names_one_of_three_error_classes_or_a_builtin():
    """errors.py defines exactly the three classes, and no raise in the package names any other library class."""
    package = Path(heleshaw.__file__).parent
    defined = [node.name for node in ast.walk(ast.parse((package / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)]
    assert sorted(defined) == sorted(ERROR_CLASSES)
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises what it caught
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else ast.unparse(exc))
    assert sorted(raised - set(ERROR_CLASSES) - set(dir(builtins))) == []
    assert set(ERROR_CLASSES) <= raised


NAN, INF = math.nan, math.inf
#: (entry point, abscissa, what its refusal names): each entry point with a float and with an ndarray,
#: detect_events with a window whose one end is NaN
NON_FINITE = [
    ("tritronquee.eval", NAN, "xi=nan"), ("tritronquee.eval_many", np.array([0.0, NAN]), "xi=nan"),
    ("tritronquee.eval_extended", NAN, "xi=nan"), ("tritronquee.eval_extended", INF, "xi = inf"),
    ("tritronquee.eval_extended", np.array([0.0, NAN]), "xi=nan"),
    ("tritronquee.eval_extended", np.array([0.0, INF]), "xi = inf"),
    ("asymptotic_series", NAN, "xi = nan"), ("asymptotic_series", INF, "xi = inf"),
    ("asymptotic_series", np.array([20.0, NAN]), "xi = nan"), ("asymptotic_series", np.array([20.0, INF]), "xi = inf"),
    ("composite.eval", NAN, "x = nan"), ("composite.eval_many", np.array([0.6, NAN]), "x = nan"),
    ("composite.inner_u", NAN, "x = nan"), ("composite.inner_u", np.array([0.6, NAN]), "x = nan"),
    ("composite.inner_u", -1e308, "x = -1e+308"), ("composite.inner_u", np.array([0.6, -1e308]), "x = -1e+308"),
    ("toda_composite", NAN, "t~ = nan"), ("toda_composite", -INF, "t~ = -inf"), ("toda_composite", INF, "t~ = inf"),
    ("toda_composite", np.array([0.0, NAN]), "t~ = nan"), ("toda_composite", np.array([0.0, -INF]), "t~ = -inf"),
    ("toda_composite", np.array([0.0, INF]), "t~ = inf"),
    ("detect_events", (NAN, 0.64), "x=nan"), ("detect_events", (0.6, NAN), "x=nan"),
]


def _case_id(entry, x):
    if isinstance(x, tuple):
        return f"{entry}-window-{x[0]!r}-{x[1]!r}"
    return f"{entry}-{f'array-{float(x[-1])!r}' if isinstance(x, np.ndarray) else f'float-{x!r}'}"


@pytest.mark.parametrize("entry, x, named", NON_FINITE, ids=[_case_id(e, x) for e, x, _ in NON_FINITE])
def test_non_finite_abscissas_are_refused_by_value(entry, x, named):
    """A NaN or infinite abscissa, or one whose inner variable overflows, is a DomainError that names it by
    the caller's own variable, never NaN or an empty result."""
    sol, comp, inner = integrate_tritronquee(), build_composite(), build_toda_inner(1.0, 1.0, 1e-5)
    entries = {"asymptotic_series": asymptotic_series, "toda_composite": lambda t: toda_composite(t, inner),
               **{f"tritronquee.{m}": getattr(sol, m) for m in ("eval", "eval_many", "eval_extended")},
               **{f"composite.{m}": getattr(comp, m) for m in ("eval", "eval_many", "inner_u")},
               "detect_events": lambda window: detect_events(comp, window)}
    with pytest.raises(DomainError, match=re.escape(named)):
        entries[entry](x)


def _refusal(call) -> str:
    """The message of the DomainError that call() raises."""
    with pytest.raises(DomainError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3], ids=str)
@pytest.mark.parametrize("t1", [-0.5, -0.8, -1.2])
def test_composite_refuses_the_guard_band_by_x(t1, eps):
    """Between the last abscissa the tritronquee serves, xi = pole + POLE_GUARD, and the pole image x*, an
    abscissa is refused by x with x*, never by xi, on floats and ndarrays; x_last is still served."""
    x_c = find_critical_25(t1).x_c
    comp = build_composite(t_1=t1, eps=eps, x_switch=x_c - 20 * eps**0.8, tritronquee=integrate_tritronquee())
    x_band = comp.x_c + comp.zoom_beta * (comp.tritronquee.pole + 0.5 * POLE_GUARD)
    assert comp.x_last < x_band < comp.x_star
    assert comp.tritronquee.pole < comp.xi_of_x(x_band) < comp.tritronquee.pole + POLE_GUARD
    for x in (x_band, comp.x_star, comp.x_star + (comp.x_star - comp.x_c)):
        xs = np.array([comp.x_switch, comp.x_last, x])
        messages = [_refusal(lambda: comp.eval(x)), _refusal(lambda: comp.inner_u(x)),
                    _refusal(lambda: comp.eval_many(xs)), _refusal(lambda: comp.inner_u(xs))]
        assert all(f"x = {x} " in m and f"x* = {comp.x_star}" in m and "xi" not in m for m in messages), messages
    assert math.isfinite(comp.eval(comp.x_last)) and math.isfinite(comp.inner_u(comp.x_last))
    assert np.isfinite(comp.eval_many([comp.x_switch, comp.x_last])).all()


@pytest.mark.parametrize("eps", [1e-7, 1e-5, 1e-3], ids=str)
@pytest.mark.parametrize("t3, x_c", [(1.0, 1.0), (1e6, 1.0), (0.5, -1.0)], ids=str)
def test_toda_refuses_the_guard_band_by_t_tilde(t3, x_c, eps):
    """The Toda flow's twin: t~ between the tritronquee's last served abscissa and t~_pole is refused by t~
    with t~_pole, on floats and ndarrays; t~_last is still served."""
    inner = build_toda_inner(t3, x_c, eps, tritronquee=integrate_tritronquee())
    t_band = -(inner.tritronquee.pole + 0.5 * POLE_GUARD) / inner.a_fifth
    assert inner.t_tilde_last < t_band < inner.t_tilde_pole
    assert inner.tritronquee.pole < inner.xi_of_ttilde(t_band) < inner.tritronquee.pole + POLE_GUARD
    for t in (t_band, inner.t_tilde_pole, 2 * inner.t_tilde_pole):
        messages = [_refusal(lambda: toda_composite(t, inner)),
                    _refusal(lambda: toda_composite(np.array([0.0, inner.t_tilde_last, t]), inner))]
        assert all(f"t~ = {t} " in m and f"t~_pole = {inner.t_tilde_pole}" in m and "xi" not in m
                   for m in messages), messages
    for t in (inner.t_tilde_last, np.array([0.0, inner.t_tilde_last])):
        assert all(np.isfinite(field).all() for field in toda_composite(t, inner))
