"""The public API is what the pipeline runs; the paper-identity oracles live in the tests."""

import importlib

import pytest

import heleshaw
import paper_identities

#: module -> names that left it: deleted (an equivalent stays in the API) or moved to paper_identities
GONE = {
    "painleve": ("find_first_negative_pole", "laurent_leading_coefficient"),
    "errors": ("NoPoleInRange", "UnsupportedOrder"),
    "multiscale": ("overlap_error", "pi_reduction_exact_coefficients", "recover_leading_multiplier"),
    "toda": (
        "toda_r_coeff", "hodograph_pair_residuals", "toda_inner_V2_xtilde", "toda_inner_V2_xtilde2",
        "toda_inner_U2", "toda_inner_U3", "toda_inner_order4_combination", "toda_inner_U4_of_V4",
        "discrete_string_residuals", "toda_pi_exact_coefficients", "toda_matching_map_identity",
    ),
    "geometry": ("reexpand_curve_series",),
}
GONE_METHODS = {
    ("multiscale", "ScalingMapKdV"): ("x_to_inner", "x_from_inner"),
    ("multiscale", "LeadingODE"): ("canonical_m2",),
    ("hodograph", "CriticalPoint"): ("residuals",),
}
DELETED = {"find_first_negative_pole", "NoPoleInRange", "UnsupportedOrder", "overlap_error", "x_to_inner",
           "x_from_inner"}


def test_every_public_name_resolves():
    assert [name for name in heleshaw.__all__ if getattr(heleshaw, name, None) is None] == []


@pytest.mark.parametrize("module", sorted(GONE))
def test_moved_and_deleted_names_left_their_module(module):
    mod = importlib.import_module(f"heleshaw.{module}")
    assert [name for name in GONE[module] if hasattr(mod, name)] == []
    assert [name for name in GONE[module] if name in heleshaw.__all__] == []


@pytest.mark.parametrize("owner", sorted(GONE_METHODS), ids="/".join)
def test_moved_and_deleted_methods_left_their_class(owner):
    cls = getattr(importlib.import_module(f"heleshaw.{owner[0]}"), owner[1])
    assert [name for name in GONE_METHODS[owner] if hasattr(cls, name)] == []


def test_moved_names_are_oracles_beside_the_tests():
    moved = {name for names in [*GONE.values(), *GONE_METHODS.values()] for name in names} - DELETED
    assert sorted(name for name in moved if not callable(getattr(paper_identities, name, None))) == []
