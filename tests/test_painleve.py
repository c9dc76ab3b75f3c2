"""Tritronquee construction tests: series, integration, pole, residuals."""

import math
import re
import warnings

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from heleshaw import painleve
from heleshaw.errors import (
    DomainError,
    HeleShawError,
)
from heleshaw.painleve import _SERIES, asymptotic_series, integrate_tritronquee
from paper_identities import laurent_leading_coefficient


#: W on the real axis and the first pole, from a 40-digit mpmath Taylor run
#: seeded by the order-8 series at xi = 30 (independent of this package)
W_REF = {
    20.0: -1.82579390538515522,
    10.0: -1.29120197122541515,
    0.0: -0.187554308340494894,
    -2.0: 6.74868071988330558,
}
POLE_REF = -2.38416876956881664
#: the first real pole of the tritronquee as published, cited here and not recomputed: N. Joshi and
#: A. V. Kitaev, Stud. Appl. Math. 107 (2001); B. Fornberg and J. A. C. Weideman, J. Comput. Phys. 230 (2011)
POLE_PUBLISHED = -2.3841687696


@pytest.fixture(scope="module")
def sol():
    return integrate_tritronquee(xi0=30.0, tol=1e-11)


# -- asymptotic series -----------------------------------------------------

def test_series_leading_term_exact():
    # W = -sqrt(xi/6) (1 + t/8 + O(t^2)), t = (6 xi^5)^(-1/2); -sqrt(24/6) = -2
    t = (6 * 24.0**5) ** -0.5
    w, _ = asymptotic_series(24.0)
    assert abs(w + 2.0 * (1 + t / 8)) < 2 * t**2


def test_series_coefficients_against_formal_solve():
    # independent oracle: plug W = -sqrt(xi/6)(1 + sum a_k xi^(-5k/2)) with
    # unknown a_k into the equation and solve order by order with sympy
    xi = sympy.Symbol("xi", positive=True)
    a = sympy.symbols("a1:5")
    W = -sympy.sqrt(xi / 6) * (1 + sum(ak * xi ** sympy.Rational(-5 * (k + 1), 2) for k, ak in enumerate(a)))
    resid = sympy.expand(sympy.diff(W, xi, 2) - 6 * W**2 + xi)
    s = sympy.Symbol("s", positive=True)  # s = xi^(-1/2)
    resid_s = sympy.expand(resid.subs(xi, s**-2))
    poly = sympy.Poly(sympy.expand(resid_s * s ** 3), s)
    sols = sympy.solve([poly.coeff_monomial(s**p) for p in range(0, 24)], a, dict=True)[0]
    assert len(_SERIES) == 5 and _SERIES[0] == 1.0
    for k in range(1, 5):
        b_k = sympy.Rational(*_SERIES[k].as_integer_ratio())  # the float's exact value
        assert sympy.simplify(b_k * 6 ** sympy.Rational(-k, 2) - sols[a[k - 1]]) == 0  # a_k = b_k 6^(-k/2)


def test_series_residual_small_at_30():
    # 4th-order central stencil for W''
    h = 1e-2
    xi = 30.0
    ws = [asymptotic_series(xi + i * h)[0] for i in (-2, -1, 0, 1, 2)]
    wpp = (-ws[0] + 16 * ws[1] - 30 * ws[2] + 16 * ws[3] - ws[4]) / (12 * h * h)
    assert abs(wpp - 6 * ws[2] ** 2 + xi) < 1e-10


def test_series_wprime_consistent():
    h = 1e-5
    w_minus, _ = asymptotic_series(25.0 - h)
    w_plus, _ = asymptotic_series(25.0 + h)
    _, wp = asymptotic_series(25.0)
    assert wp == pytest.approx((w_plus - w_minus) / (2 * h), rel=1e-7)


def test_series_domain_guard():
    with pytest.raises(DomainError):
        asymptotic_series(9.0)


def test_series_far_out_is_leading_term():
    # 6 xi^5 overflows at xi = 1e70: float ** raises, an array gives inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, wp = asymptotic_series(1e70)
        ws, wps = asymptotic_series(np.array([1e70]))
    assert (w, wp) == (ws[0], wps[0])
    assert w == -math.sqrt(1e70 / 6.0)


# -- integration ------------------------------------------------------------

def test_overlap_with_series(sol):
    w, wp = sol.eval(25.0)
    ws, wps = asymptotic_series(25.0)
    assert abs(w - ws) < 1e-9
    assert abs(wp - wps) < 1e-9


def test_no_pole_on_positive_axis(sol):
    assert sol.pole < 0
    xs = np.linspace(0.0, 30.0, 4001)
    w, _ = sol.eval_many(xs)
    assert np.all(np.isfinite(w))
    assert np.max(np.abs(w)) < 10.0


def test_w0_stable_under_tol_refinement():
    w_coarse = integrate_tritronquee(tol=1e-9).eval(0.0)[0]
    w_fine = integrate_tritronquee(tol=1e-12).eval(0.0)[0]
    assert abs(w_coarse - w_fine) < 1e-8


def test_self_convergence_order():
    ref = integrate_tritronquee(tol=1e-13).eval(0.0)[0]
    errs = [abs(integrate_tritronquee(tol=t).eval(0.0)[0] - ref) for t in (1e-8, 1e-10, 1e-12)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[0] / errs[1] > 5


def test_seed_guard():
    with pytest.raises(DomainError, match=r"^seeding abscissa 8.0 below 10.0$"):
        integrate_tritronquee(xi0=8.0)
    with pytest.raises(DomainError):
        integrate_tritronquee(tol=1e-5)


@pytest.mark.parametrize("tol", [1e-9, 1e-11, 1e-13])
def test_against_mpmath_reference(tol):
    sol = integrate_tritronquee(tol=tol)
    for xi, w_ref in W_REF.items():
        assert abs(sol.eval(xi)[0] - w_ref) <= 10 * tol, xi
    assert abs(sol.pole - POLE_REF) <= 100 * tol


def test_scalar_and_vector_eval_bitwise_equal(sol):
    xs = np.concatenate([np.linspace(sol.pole + 2 * painleve.POLE_GUARD, 30.0, 997), sol.ts[:-1]])
    w, wp = sol.eval_many(xs)
    for x, wv, wpv in zip(xs, w, wp):
        assert sol.eval(x) == (wv, wpv)
        assert sol.eval_extended(float(x)) == (wv, wpv)


@settings(max_examples=200, deadline=None)
@given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_float_and_array_eval_bitwise_equal(sol, fracs):
    """eval and eval_extended on floats against eval_many, anywhere on [pole + 2 guard, xi0]."""
    lo = sol.pole + 2 * painleve.POLE_GUARD
    xs = [lo + f * (30.0 - lo) for f in fracs]
    w, wp = sol.eval_many(np.array(xs))
    assert [sol.eval(x) for x in xs] == list(zip(w.tolist(), wp.tolist()))
    assert [sol.eval_extended(x) for x in xs] == list(zip(w.tolist(), wp.tolist()))


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.floats(-2.0, 1e70), min_size=1, max_size=30))
def test_eval_extended_float_and_array_bitwise_equal(sol, xs):
    """The seeding series above xi0 rounds alike on floats and arrays, up to where 6 xi^5 overflows."""
    xs = [x for x in xs if abs(x - sol.pole) >= painleve.POLE_GUARD]
    w, wp = sol.eval_extended(np.array(xs))
    assert [sol.eval_extended(x) for x in xs] == list(zip(w.tolist(), wp.tolist()))


def test_step_budget_bounds_large_seed():
    with pytest.raises(HeleShawError, match=r"^10000 Taylor steps did not reach xi = "):
        integrate_tritronquee(xi0=1e6)


def test_eval_at_seed_is_exact(sol):
    w0, wp0 = asymptotic_series(30.0)
    w, wp = sol.eval(30.0)
    assert w == w0 and wp == wp0


# -- pole ---------------------------------------------------------------

def test_pole_location(sol):
    pole = sol.pole
    assert -2.40 < pole < -2.37
    assert pole == pytest.approx(-2.3841687, abs=1e-3)


def test_reference_pole_agrees_with_the_published_value():
    """The mpmath reference and the literature agree to the 10 digits published."""
    assert abs(POLE_REF - POLE_PUBLISHED) <= 5e-11


def test_pole_agrees_with_the_published_value():
    tol = 1e-11
    assert abs(integrate_tritronquee(tol=tol).pole - POLE_PUBLISHED) <= 5e-11 + 100 * tol


def test_xi_last_is_one_guard_inside_the_covered_range(sol):
    """xi_last, the lowest abscissa served by default, is computed once, at construction."""
    assert vars(sol)["xi_last"] == sol.pole + 2 * painleve.POLE_GUARD
    assert all(map(math.isfinite, sol.eval(sol.xi_last)))
    with pytest.raises(AttributeError, match="cannot assign to field 'xi_last'"):
        sol.xi_last = 0.0


def test_pole_stable_under_tol_refinement(sol):
    finer = integrate_tritronquee(tol=1e-12)
    assert abs(sol.pole - finer.pole) < 1e-6


def test_laurent_leading_coefficient(sol):
    assert laurent_leading_coefficient(sol) == pytest.approx(1.0, abs=1e-3)


def test_no_pole_error(monkeypatch):
    """Reaching XI_FLOOR without blow-up is a solver failure, and is not cached."""
    monkeypatch.setattr(painleve, "XI_FLOOR", -1.0)
    with pytest.raises(HeleShawError, match=r"^no pole above xi = -1.0$"):
        integrate_tritronquee(tol=4e-9)  # used by no other test
    monkeypatch.undo()
    assert integrate_tritronquee(tol=4e-9).pole == pytest.approx(POLE_REF, abs=1e-6)


@pytest.mark.parametrize("xi0", [10.0, 30.0, 200.0, 1000.0])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11, 1e-13])
def test_last_node_lies_one_guard_above_the_pole(xi0, tol):
    """The last step ends at W = BLOWUP_THRESHOLD, one POLE_GUARD above the fitted pole: the lower end
    of the covered range and the near-pole guard are one boundary.  Integrated past the cache, which the
    16 settings would otherwise empty of the solutions that other tests share."""
    sol = painleve._integrate.__wrapped__(xi0, tol)
    assert painleve.POLE_GUARD == 1e-3
    assert abs(sol._ts[-1] - sol.pole - painleve.POLE_GUARD) < 1e-15
    assert f"{sol._ts[-1]:.6g}" == f"{sol.pole + painleve.POLE_GUARD:.6g}"  # the range that a refusal names


def test_monotone_blowup_tail(sol):
    # approaching the pole (xi decreasing), W increases monotonically: W at a node is its row's a_0
    tail = sol._coef[-30:, 0]
    assert np.all(np.diff(tail) > 0)


# -- evaluation guards -------------------------------------------------------

def test_eval_out_of_range(sol):
    lo = sol.pole + painleve.POLE_GUARD
    for xi in (31.0, -5.0):
        with pytest.raises(DomainError, match=re.escape(f"xi outside covered range [{lo:.6g}, 30]")):
            sol.eval(xi)


def test_eval_too_close_to_pole(sol):
    with pytest.raises(DomainError, match=re.escape(f"xi within 0.001 of the pole {sol.pole:.6g}")):
        sol.eval(sol.pole + 5e-4)
    with pytest.raises(DomainError, match=re.escape(f"xi within 0.001 of the pole {sol.pole:.6g}")):
        sol.eval_many(np.array([sol.pole + 5e-4, 0.0]))


def test_eval_many_names_its_lowest_abscissa(sol):
    """An array reaching far below the pole names the covered range, though some points lie near the pole."""
    lo = sol.pole + painleve.POLE_GUARD
    with pytest.raises(DomainError, match=re.escape(f"xi outside covered range [{lo:.6g}, 30]")):
        sol.eval_many(np.array([-5.0, sol.pole + 5e-4, 0.0]))


def test_covered_range_ends_at_xi0_exactly(sol):
    """eval serves xi0 and refuses the next float above it, which eval_extended takes to the series."""
    lo, above = sol.pole + painleve.POLE_GUARD, math.nextafter(sol.xi0, math.inf)
    assert sol.eval(sol.xi0) == sol._at(sol.xi0)
    for refuse in (sol.eval, lambda xi: sol.eval_many(np.array([0.0, xi]))):
        with pytest.raises(DomainError, match=re.escape(f"xi outside covered range [{lo:.6g}, 30]")):
            refuse(above)
    assert sol.eval_extended(above) == asymptotic_series(above)


def test_lowest_served_abscissa_is_one_guard_above_the_pole(sol):
    lo = sol.pole + painleve.POLE_GUARD
    assert sol.eval(lo) == tuple(a[0] for a in sol.eval_many(np.array([lo])))
    with pytest.raises(DomainError, match="of the pole"):
        sol.eval(math.nextafter(lo, -math.inf))


def test_eval_above_pole_is_finite(sol):
    w, wp = sol.eval(sol.pole + 0.5)
    assert math.isfinite(w) and math.isfinite(wp)
    defect = sol.residual_defects(np.array([sol.pole + 0.45, sol.pole + 0.55]))
    assert defect.max() < 1e-7


def test_eval_extended_crosses_seed(sol):
    xs = np.array([28.0, 30.0, 32.0, 40.0])
    w, wp = sol.eval_extended(xs)
    assert np.all(np.isfinite(w))
    # no jump at the seam: both representations agree there by construction
    h = 1e-9
    w_in, _ = sol.eval_extended(30.0 - h)
    w_out, _ = sol.eval_extended(30.0 + h)
    assert abs(w_out - w_in) < 1e-8


# -- residual certificate ----------------------------------------------------

def test_certificate_bound(sol):
    assert sol.residual_max < 100 * sol.tol


def test_gauss_rule_is_numpys_leggauss_21():
    nodes, weights = np.polynomial.legendre.leggauss(painleve.TAYLOR_ORDER + 1)
    assert (nodes.tolist(), weights.tolist()) == (list(painleve._GAUSS_X), list(painleve._GAUSS_W))


@pytest.mark.parametrize("setting", [{"tol": 1e-9}, {"tol": 1e-11}, {"tol": 1e-13}, {"xi0": 12.0, "tol": 1e-9},
                                     {"xi0": 200.0, "tol": 1e-12}, {"xi0": 10.0, "tol": 2e-9}], ids=str)
def test_float_certificate_agrees_with_array_defects(setting):
    """residual_max (plain floats, fsum) against residual_defects on the certified nodes, each span's
    defect over 1 + max |6 W^2 - xi| at its Gauss points as _certify scales it.  Only the order of
    the 21-term quadrature sums differs: at most 64 eps times the widest half-span."""
    sol = integrate_tritronquee(**setting)
    grid = sol.ts[sol.ts >= sol.pole + 0.1]
    nodes = np.sort(grid)
    half = 0.5 * np.diff(nodes)
    pts = (nodes[:-1] + half)[:, None] + half[:, None] * np.polynomial.legendre.leggauss(21)[0]
    w, _ = sol.eval_many(pts.ravel())
    scale = 1.0 + np.abs(6.0 * w.reshape(pts.shape) ** 2 - pts).max(axis=1)
    array_max = (sol.residual_defects(grid) / scale).max()
    assert abs(sol.residual_max - array_max) <= 64 * 2.0**-52 * half.max()


@pytest.mark.parametrize("grid", [[1.0], [0.0, 1.0, 1.0], [0.0, math.nan], [0.0, math.inf]], ids=str)
def test_residual_grid_guard(sol, grid):
    with pytest.raises(DomainError):
        sol.residual_defects(np.array(grid))


def test_absolute_residual_grid():
    tight = integrate_tritronquee(tol=1e-12)
    grid = np.linspace(tight.pole + 0.1, 30.0, 10_000)
    assert tight.residual_defects(grid).max() < 1e-8


# -- shared immutable solutions ------------------------------------------------

def test_equal_settings_share_one_solution(sol):
    assert integrate_tritronquee(xi0=30, tol=1e-11) is sol
    assert integrate_tritronquee() is sol
    other = integrate_tritronquee(tol=1e-10)
    assert other is not sol and other.tol == 1e-10
    assert painleve._integrate.cache_info().maxsize == painleve.CACHE_SIZE


def test_shared_solution_is_immutable(sol):
    with pytest.raises(ValueError, match="read-only"):
        sol._coef[0, 0] = 0.0
    for array in (sol.ts, sol._coef):
        assert not array.flags.writeable
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'residual_max'$"):
        sol.residual_max = 0.0
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'pole'$"):
        sol.pole = 1.0
    assert all(type(rows) is tuple for rows in (sol._ts, sol._rows, sol._keys))
    assert {"_ws", "_wps", "_starts"}.isdisjoint(vars(sol))  # the rows are the only store of (W, W')
    assert all(type(row) is tuple for row in sol._rows)


def test_failed_integration_is_not_cached(monkeypatch):
    calls = []

    def failing_certify(candidate):
        calls.append(candidate)
        raise HeleShawError("refused once")

    settings = {"xi0": 30.0, "tol": 3e-9}  # used by no other test
    monkeypatch.setattr(painleve, "_certify", failing_certify)
    with pytest.raises(HeleShawError, match="refused once"):
        integrate_tritronquee(**settings)
    monkeypatch.undo()
    first = integrate_tritronquee(**settings)
    assert len(calls) == 1 and first is not calls[0]
    assert first.residual_max < 100 * first.tol
    assert integrate_tritronquee(**settings) is first
