"""Quadrature-layer tests: the Gauss-Kronrod core and the bound table."""

import math

import numpy as np
import pytest

import sepscope.quadrature as quadrature
from sepscope.errors import QuadratureError
from sepscope.estimator import DesfHistogram
from sepscope.quadrature import (
    SPECULATION_REF_VALUE,
    BoundRow,
    QuadratureResult,
    _panel,
    bound_row,
    bound_table,
    complex_speculation_probability,
    integrate_real_line,
    separability_probability,
)
from sepscope.sepfun import eval_desf_array, jacobian_general_beta, jacobian_xi

#: Tags whose reference values are exact expressions (product_int's is a
#: six-digit decimal, so it cannot witness tight error estimates).
_EXACT_REFS = {
    "dom": 1024.0 / (135.0 * math.pi**2),
    "int": 22.0 / 35.0,
    "three_right": 128.0 / 165.0,
    "three_left": 128.0 / 165.0,
    "two_right": 0.5 + 512.0 / (135.0 * math.pi**2),
    "two_left": 0.5 + 512.0 / (135.0 * math.pi**2),
    "conjecture": 29.0 / 64.0,
    "previous": 8.0 / 17.0,
}


# ---------------------------------------------------------------------------
# Panel-level behavior
# ---------------------------------------------------------------------------


def test_panel_integrates_polynomials_exactly():
    # the 15-point Kronrod rule is exact through degree 22
    for k in range(23):
        value, err, n = _panel(lambda x, k=k: x**k, 0.0, 1.0)
        assert n == 15
        assert value == pytest.approx(1.0 / (k + 1), abs=5e-15)
    # degrees the embedded Gauss rule also gets exactly: error ~ roundoff
    for k in range(14):
        _, err, _ = _panel(lambda x, k=k: x**k, 0.0, 1.0)
        assert err < 1e-12


def test_panel_error_estimate_bounds_truth():
    value, err, _ = _panel(np.sin, 0.0, 1.0)
    assert abs(value - (1.0 - math.cos(1.0))) <= err
    value, err, _ = _panel(lambda x: np.exp(-x * x), -4.0, 4.0)
    assert abs(value - math.sqrt(math.pi) * math.erf(4.0)) <= err


# ---------------------------------------------------------------------------
# Adaptive real-line integration
# ---------------------------------------------------------------------------


def test_density_normalization():
    res = integrate_real_line(jacobian_xi, 1e-12)
    assert abs(res.value - 1.0) < 1e-12
    assert res.abs_err_est <= 1e-12
    assert res.evals > 0


def test_tol_validation():
    """A tolerance must be positive and finite on every path: the full line,
    the even half-line shortcut and the beta-density slice quadrature."""
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            integrate_real_line(jacobian_xi, tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            separability_probability("dom", tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            jacobian_general_beta(2.0, np.array([0.0, 1.0]), tol=tol)


def test_even_shortcut_failure_quotes_the_callers_tolerance():
    """The even path integrates 2 S J on the half line at the full ``tol``,
    so a failure names that tolerance and carries the whole-line estimate."""
    with pytest.raises(QuadratureError, match="tolerance 1e-16 ") as exc:
        separability_probability("dom", 1e-16)
    assert exc.value.result.value == pytest.approx(1024 / (135 * math.pi**2), abs=1e-12)


def test_results_are_deterministic():
    a = integrate_real_line(jacobian_xi, 1e-10)
    b = integrate_real_line(jacobian_xi, 1e-10)
    assert a == b  # bitwise-identical dataclasses


def test_breakpoints_help_on_kinked_integrands():
    def triangle(x):
        return np.maximum(0.0, 1.0 - np.abs(x - 0.4) / 0.3)

    with_bp = integrate_real_line(triangle, 1e-12, breakpoints=(0.1, 0.4, 0.7))
    without = integrate_real_line(triangle, 1e-12)
    assert with_bp.value == pytest.approx(0.3, abs=1e-12)
    assert without.value == pytest.approx(0.3, abs=1e-12)
    assert with_bp.evals < without.evals


def test_eval_budget_failure_carries_best_result(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_EVALS", 300)
    with pytest.raises(QuadratureError) as exc:
        integrate_real_line(jacobian_xi, 1e-13)
    best = exc.value.result
    assert isinstance(best, QuadratureResult)
    assert best.evals <= 300
    assert abs(best.value - 1.0) < 1e-3  # the partial answer is still close
    assert best.abs_err_est > 1e-13  # and honestly labeled unconverged


# ---------------------------------------------------------------------------
# Probabilities of the closed-form curves
# ---------------------------------------------------------------------------


def test_error_estimates_are_valid_bounds():
    """At every point of the tolerance ladder, the reported estimate stays
    under the requested tolerance and above the true error."""
    for tag, exact in _EXACT_REFS.items():
        diffs = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            res = separability_probability(tag, tol)
            diff = abs(res.value - exact)
            diffs.append(diff)
            assert res.abs_err_est <= tol, (tag, tol)
            assert diff <= res.abs_err_est + 5e-16, (tag, tol)
        assert diffs[-1] <= diffs[0] + 1e-15  # tightening never hurts


def test_even_shortcut_matches_full_line():
    """An even tag's half-line pass agrees with a full-line pass of S J."""
    for tag in ("dom", "int", "conjecture", "previous", "product_int"):
        half = separability_probability(tag, 1e-12)
        full = integrate_real_line(
            lambda x: eval_desf_array(tag, x) * jacobian_xi(x), 1e-12
        )
        assert abs(half.value - full.value) < 1e-11


@pytest.mark.parametrize("tag", ["nope", "empirical"])
def test_unknown_tag_is_refused(tag):
    with pytest.raises(ValueError, match=f"unknown curve tag {tag!r}"):
        separability_probability(tag, 1e-8)


def test_empirical_curve_integration_is_exact():
    """A histogram, as its own piecewise-constant curve, integrates to
    exactly the bin ratios times the density mass of each bin (its edges
    are seeded as panel bounds)."""
    hist = DesfHistogram(
        bin_edges=np.array([-1.0, 0.0, 1.0]),
        n_psd=np.array([2, 4]),
        n_sep=np.array([1, 1]),
        n_psd_outside=0,
        n_sep_outside=0,
        n_total=10,
    )
    res = integrate_real_line(
        lambda x: hist.ratio_at(x) * jacobian_xi(x), 1e-12, breakpoints=hist.bin_edges
    )
    mass = integrate_real_line(
        lambda x: np.where((x >= 0) & (x < 1), jacobian_xi(x), 0.0),
        1e-13,
        breakpoints=(0.0, 1.0),
    ).value
    assert res.value == pytest.approx(0.75 * mass, abs=1e-12)


# ---------------------------------------------------------------------------
# Bound table
# ---------------------------------------------------------------------------


def test_bound_table_hits_references():
    rows = bound_table(tol=1e-10)
    assert [r.tag for r in rows] == [
        "dom", "int", "three_right", "three_left", "two_right", "two_left",
        "conjecture", "previous", "product_int",
    ]
    for row in rows:
        assert row.converged
        assert row.result.abs_err_est <= 1e-10
        if row.tag == "product_int":
            assert row.diff < 1e-5  # reference is quoted to six digits
        else:
            assert row.diff < 1e-8
        assert row.half == 0.5 * row.result.value  # values lie in [0, 1]


def test_bound_table_row_properties():
    row = BoundRow(
        tag="dom", ref_expr="3/4", ref_value=0.75,
        result=QuadratureResult(1.2, 1e-12, 15),
    )
    assert row.diff == pytest.approx(0.45, abs=1e-15)
    assert row.half == 0.5  # value clamped into [0, 1] before halving


def test_bound_table_survives_unreachable_tolerance():
    """An impossible tolerance must not abort the table: rows come back
    flagged unconverged but still carrying accurate best estimates."""
    rows = bound_table(tol=1e-15)
    assert len(rows) == 9
    assert any(not r.converged for r in rows)
    for row in rows:
        if not row.converged:
            tolr = 1e-5 if row.tag == "product_int" else 1e-9
            assert row.diff < tolr  # best effort is still accurate


def test_bound_row_keeps_no_inner_failure():
    """At tol 1e-17 the beta = 2 row fails in its inner slice quadrature,
    whose error carries a density array, not a QuadratureResult of the row:
    ``bound_row`` re-raises it rather than keep a row no table can print."""
    with pytest.raises(QuadratureError, match="slice quadrature") as exc:
        bound_row("conjecture_sq_beta2", "", 0.25, complex_speculation_probability, 1e-17)
    assert not isinstance(exc.value.result, QuadratureResult)


# ---------------------------------------------------------------------------
# Squared-curve value in the beta = 2 ensemble
# ---------------------------------------------------------------------------


def test_speculation_value():
    res = complex_speculation_probability(tol=1e-6)
    assert SPECULATION_REF_VALUE == pytest.approx(0.252864, abs=5e-7)
    assert abs(res.value - SPECULATION_REF_VALUE) < 2e-6
    assert res.abs_err_est >= 0.25e-6  # inner tolerance is part of the bound
    assert res.abs_err_est <= 1e-6
