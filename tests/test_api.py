"""The public API is what the pipeline runs; the oracles (paper identities, general solvers) live in the tests."""

import importlib

import pytest

import branch_solvers
import paper_identities

ORACLES = (paper_identities, branch_solvers)

#: module -> names that left it: deleted (an equivalent stays in the API) or moved to an oracle module
GONE = {
    "painleve": ("find_first_negative_pole", "laurent_leading_coefficient"),
    "errors": ("NoPoleInRange", "UnsupportedOrder", "DerivativeVanishes"),
    "multiscale": ("overlap_error", "pi_reduction_exact_coefficients", "recover_leading_multiplier"),
    "toda": (
        "toda_r_coeff", "hodograph_pair_residuals", "toda_inner_V2_xtilde", "toda_inner_V2_xtilde2",
        "toda_inner_U2", "toda_inner_U3", "toda_inner_order4_combination", "toda_inner_U4_of_V4",
        "discrete_string_residuals", "toda_pi_exact_coefficients", "toda_matching_map_identity",
        "TodaTimes", "solve_toda_hodograph",
    ),
    "geometry": (
        "reexpand_curve_series", "oplus_project", "bubble_curve", "finger_curve", "InterfaceFrame",
        "_finger_frame", "_sample_segments",
    ),
    "hodograph": (
        "exact_root", "_iroot", "hodograph_poly", "eval_H", "eval_dH", "poly_scale", "_piece_root",
        "branch_root", "solve_branch", "find_critical", "_derivative", "_horner", "bisect",
    ),
    "diffpoly": ("dispersionless_coefficient",),
}
GONE_METHODS = {
    ("multiscale", "ScalingMapKdV"): ("x_to_inner", "x_from_inner"),
    ("multiscale", "LeadingODE"): ("canonical_m2",),
    ("hodograph", "CriticalPoint"): ("residuals",),
    ("diffpoly", "Monomial"): ("of", "is_constant", "max_order"),
    ("multiscale", "CompositeSolution"): ("eps",),
    ("diffpoly", "DiffPoly"): ("is_zero", "dispersionless_part", "constant_part", "homogeneous_weight"),
    ("hodograph", "KdVTimes"): ("with_x",),
    ("geometry", "CurveSpec"): ("kind", "v", "tips"),
}
DELETED = {"find_first_negative_pole", "NoPoleInRange", "UnsupportedOrder", "overlap_error", "x_to_inner",
           "x_from_inner", "exact_root", "_iroot", "of", "eps", "is_constant", "max_order",
           "dispersionless_coefficient", "bubble_curve", "finger_curve", "InterfaceFrame", "_finger_frame",
           "_sample_segments", "bisect", "with_x", "kind", "v", "tips"}


@pytest.mark.parametrize("module", sorted(GONE))
def test_moved_and_deleted_names_left_their_module(module):
    mod = importlib.import_module(f"heleshaw.{module}")
    assert [name for name in GONE[module] if hasattr(mod, name)] == []


@pytest.mark.parametrize("owner", sorted(GONE_METHODS), ids="/".join)
def test_moved_and_deleted_methods_left_their_class(owner):
    cls = getattr(importlib.import_module(f"heleshaw.{owner[0]}"), owner[1])
    assert [name for name in GONE_METHODS[owner] if hasattr(cls, name)] == []


def test_moved_names_are_oracles_beside_the_tests():
    moved = {name for names in [*GONE.values(), *GONE_METHODS.values()] for name in names} - DELETED
    assert sorted(name for name in moved if not any(callable(getattr(m, name, None)) for m in ORACLES)) == []
