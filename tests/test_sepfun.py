"""Curve-layer tests: closed forms, intercepts, and the xi density."""

import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from sepscope.errors import QuadratureError
from sepscope.sepfun import (
    EVEN_TAGS,
    JACOBIAN_AT_ZERO,
    TAGS,
    eval_desf_array,
    _jacobi_rule,
    _jacobian_direct,
    _jacobian_series,
    jacobian_general_beta,
    jacobian_xi,
)

_GRID = np.linspace(-10.0, 10.0, 1001)


# ---------------------------------------------------------------------------
# Curve construction and evaluation mechanics
# ---------------------------------------------------------------------------


def test_curve_validation():
    """A curve is one of the closed-form tags; nothing else evaluates."""
    for tag in TAGS:
        assert eval_desf_array(tag, 0.5) >= 0.0
    for bad in ("nope", "empirical", None):
        with pytest.raises(ValueError, match="unknown curve tag"):
            eval_desf_array(bad, 0.5)


def test_scalar_and_array_paths_agree():
    for tag in TAGS:
        vals = eval_desf_array(tag, _GRID[::50])
        for x, v in zip(_GRID[::50], vals):
            assert eval_desf_array(tag, float(x)) == v


# The splice of the mirrored 3x3 branch at xi = -2 and its neighbours, signed
# zeros, subnormals, arguments whose exponentials underflow (to subnormal and
# to zero), and the infinities.
_PIN_GRID = np.concatenate([
    np.linspace(-60.0, 60.0, 2401),
    np.nextafter(-2.0, [-np.inf, np.inf]), [-2.0, 2.0],
    [0.0, -0.0, 5e-324, -5e-324, np.finfo(float).tiny, -np.finfo(float).tiny],
    [250.0, -250.0, 400.0, -400.0, 740.0, -740.0, 800.0, -800.0,
     1e300, -1e300, np.inf, -np.inf],
])

_PINNED_SHA256 = {
    "dom": "25c41c2d68550bb9daaf885e80a7ad02a3c6256ec39da1872399ceff13d7ab28",
    "int": "9bdaa839f20ed0243ac93fc8091dae554a6e0f14249b7e037c5ccf5da623b834",
    "three_right": "3fe3ca6b2c2d800b464f1a7525fea014920c83bd581cb3ab826b6f0711f8ce14",
    "three_left": "d7d59b6249f830f8cc548e4e384409a1fa04a09acf2cfff773f08e2087886850",
    "two_right": "5c89ec79979703e2f16afe47c13bcd9050f351bdfcb8d64a809a1ca2b6f5a677",
    "two_left": "fc2162766d8f19a4a1f06c0c32b17a6634c4c3b8aad1f3427e9fa9d1999430fa",
    "conjecture": "7182ca0abf9ec1dbe9b5558d54c66d79699c353f4f38a891ef33a75b28028698",
    "previous": "e5c0a7c2e6b36fb84178c55438b71e64ed707ab7dad26543d81e1579a135f1df",
    "product_int": "61b80ca2adf81b3d8e3a6e79fe330246dd20ef0113957bca168579a842a83d4b",
}


def test_curve_values_are_pinned():
    """Curve bytes recorded from a known-good build: any restructure of the
    closed forms must reproduce every value bit for bit."""
    assert tuple(_PINNED_SHA256) == TAGS
    for tag, want in _PINNED_SHA256.items():
        got = hashlib.sha256(eval_desf_array(tag, _PIN_GRID).tobytes()).hexdigest()
        assert got == want, tag


@pytest.mark.parametrize("tag", TAGS)
def test_nan_xi_gives_nan(tag):
    assert np.isnan(eval_desf_array(tag, [np.nan])).all()
    assert math.isnan(eval_desf_array(tag, math.nan))


@pytest.mark.parametrize("tag", TAGS)
def test_far_tail_is_the_limit_at_infinity(tag):
    """Out to the largest double every branch is at its limit (0, 1 or
    39 pi/128), with no overflow of its decaying exponentials on the way."""
    big = 1.7976931348623157e308
    xs = np.array([7e307, -7e307, big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eval_desf_array(tag, xs)
        want = eval_desf_array(tag, np.copysign(np.inf, xs))
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Analytic invariants of the closed forms
# ---------------------------------------------------------------------------


def test_even_tags_are_even():
    for tag in EVEN_TAGS:
        v = eval_desf_array(tag, _GRID)
        w = eval_desf_array(tag, -_GRID)
        assert np.max(np.abs(v - w)) < 1e-13


def test_left_curves_mirror_right_curves():
    assert np.array_equal(
        eval_desf_array("three_left", _GRID), eval_desf_array("three_right", -_GRID)
    )
    assert np.array_equal(
        eval_desf_array("two_left", _GRID), eval_desf_array("two_right", -_GRID)
    )


def test_range_zero_one():
    for tag in TAGS:
        v = eval_desf_array(tag, _GRID)
        assert np.all(v > 0.0)
        assert np.all(v <= 1.0)


def test_curve_ordering():
    dom = eval_desf_array("dom", _GRID)
    mid = eval_desf_array("int", _GRID)
    conj = eval_desf_array("conjecture", _GRID)
    prod = eval_desf_array("product_int", _GRID)
    assert np.all(conj <= mid + 1e-13)
    assert np.all(prod <= mid + 1e-13)
    assert np.all(mid <= dom + 1e-13)


def test_intercepts():
    pi2 = math.pi**2
    at_zero = {tag: float(eval_desf_array(tag, 0.0)) for tag in TAGS}
    assert at_zero["dom"] == 1.0
    assert at_zero["int"] == pytest.approx(45.0 * pi2 / 512.0, abs=0)
    assert at_zero["two_right"] == 1.0
    assert at_zero["conjecture"] == pytest.approx(4095.0 * pi2 / 65536.0, abs=0)
    assert at_zero["previous"] == pytest.approx(135.0 * pi2 / 2176.0, abs=0)
    assert at_zero["product_int"] == pytest.approx((45.0 * pi2 / 512.0) ** 2, abs=0)
    for tag in TAGS:
        assert eval_desf_array(tag, -0.0) == at_zero[tag]


def test_continuity_at_zero():
    for tag in TAGS:
        lo = eval_desf_array(tag, -1e-13)
        hi = eval_desf_array(tag, 1e-13)
        mid = eval_desf_array(tag, 0.0)
        assert abs(lo - mid) < 1e-12 and abs(hi - mid) < 1e-12


def test_two_left_is_one_on_the_right_half_line():
    xs = np.array([0.0, 1e-6, 0.3, 2.0, 50.0])
    assert np.array_equal(eval_desf_array("two_left", xs), np.ones(5))
    assert eval_desf_array("two_right", -0.3) == 1.0


def test_envelope_identities():
    """The envelope min(f(x), f(-x)) of each one-sided curve reproduces an
    even curve exactly: three_right gives int, two_right gives dom."""
    env3 = np.minimum(eval_desf_array("three_right", _GRID),
                      eval_desf_array("three_right", -_GRID))
    env2 = np.minimum(eval_desf_array("two_right", _GRID),
                      eval_desf_array("two_right", -_GRID))
    assert np.array_equal(env3, eval_desf_array("int", _GRID))
    assert np.array_equal(env2, eval_desf_array("dom", _GRID))


def test_three_branch_far_left_plateau():
    limit = 39.0 * math.pi / 128.0
    assert eval_desf_array("three_right", -40.0) == pytest.approx(limit, rel=1e-15)
    xs = -np.linspace(0.5, 30.0, 200)
    v = eval_desf_array("three_right", xs)
    assert np.all(v <= limit)
    # the approach is resolvable in double precision down to xi ~ -15
    near = xs >= -15.0
    assert np.all(v[near] < limit)
    assert np.all(np.diff(v[near]) > 0)  # monotone rise toward the plateau


def test_three_branch_tail_splice_is_smooth():
    # the series/direct handoff sits at xi = -2; both sides must agree
    h = 1e-9
    a = eval_desf_array("three_right", -2.0 + h)
    b = eval_desf_array("three_right", -2.0 - h)
    assert abs(a - b) < 1e-10
    # and the series itself tracks the direct form across the handoff
    xs = np.linspace(-2.2, -1.8, 101)
    v = eval_desf_array("three_right", xs)
    assert np.all(np.diff(v) < 0)  # still monotone through the splice


def test_product_curve_is_the_product():
    v = eval_desf_array("product_int", _GRID)
    w = eval_desf_array("three_right", _GRID) * eval_desf_array("three_right", -_GRID)
    assert np.array_equal(v, w)


# ---------------------------------------------------------------------------
# The xi density
# ---------------------------------------------------------------------------


def _density_oracle(x: float) -> float:
    """High-precision reference for the density, with working precision
    scaled to survive the x^9 cancellation of the numerator near zero."""
    extra = int(9 * abs(mp.log10(abs(x)))) + 30 if abs(x) < 1 else 10
    with mp.workdps(40 + extra):
        t = mp.mpf(repr(x))
        n = (
            -160 * mp.sinh(2 * t)
            - 25 * mp.sinh(4 * t)
            + 12 * t * (16 * mp.cosh(2 * t) + mp.cosh(4 * t) + 18)
        )
        return float(64 * n / (27 * mp.pi**2 * mp.sinh(t) ** 9))


def test_density_against_high_precision_oracle():
    pts = [1e-8, 1e-4, 0.03, 0.049, 0.051, 0.07, 0.3, 0.5, 1.0, 1.24, 1.26,
           2.0, 5.0, 20.0, 100.0]
    for x in pts:
        got = float(jacobian_xi(x))
        ref = _density_oracle(x)
        assert got == pytest.approx(ref, rel=5e-15), f"xi = {x}"


def test_density_at_zero_and_shape():
    assert float(jacobian_xi(0.0)) == JACOBIAN_AT_ZERO
    assert JACOBIAN_AT_ZERO == pytest.approx(16384.0 / (2835.0 * math.pi**2), abs=0)
    v = jacobian_xi(_GRID)
    assert np.array_equal(v, jacobian_xi(-_GRID))  # even
    assert np.all(v > 0)
    assert np.all(v <= JACOBIAN_AT_ZERO)  # unimodal peak at 0
    assert v.shape == _GRID.shape
    assert np.isscalar(float(jacobian_xi(1.0)))


def test_density_series_and_direct_overlap():
    xs = np.linspace(0.02, 0.12, 401)
    series = _jacobian_series(xs)
    direct = _jacobian_direct(xs)
    rel = np.max(np.abs(series - direct) / direct)
    assert rel < 1e-9


def test_density_extreme_tail_underflows_cleanly():
    v = jacobian_xi(np.array([200.0, 500.0]))
    assert v[0] >= 0.0 and v[1] == 0.0  # graceful underflow, no nan/inf
    assert np.all(np.isfinite(v))


def test_density_is_an_exact_zero_out_to_infinity():
    """J(xi) underflows to 0 from |xi| ~ 150; the far branch must not
    overflow into inf * 0 = NaN on the way to +-inf."""
    xs = np.array([np.inf, -np.inf, 1e308, -1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = jacobian_xi(xs)
    assert np.array_equal(v, np.zeros(4))


# ---------------------------------------------------------------------------
# General-beta slice quadrature
# ---------------------------------------------------------------------------


def test_general_beta_matches_closed_form_at_beta_one():
    xs = np.array([0.25, 1.0, 2.5, -0.25, -1.7])
    got = jacobian_general_beta(1.0, xs, tol=1e-12)
    ref = jacobian_xi(xs)
    assert np.max(np.abs(got - ref) / ref) < 1e-9


def test_general_beta_at_zero_is_a_beta_function():
    """At xi = 0 the slice integral collapses to B(2a, 2a) with
    a = 3 beta/2 + 1, giving an exact cross-check of the quadrature."""
    for beta in (1.0, 2.0, 4.0):
        a = 1.5 * beta + 1.0
        ref = (
            (math.gamma(2 * a) / math.gamma(a) ** 2) ** 2
            * 2.0
            * math.gamma(2 * a) ** 2
            / math.gamma(4 * a)
        )
        got = jacobian_general_beta(beta, 0.0, tol=1e-12)
        assert got == pytest.approx(ref, rel=1e-12)


def test_general_beta_shapes_and_symmetry():
    xs = np.linspace(-2.0, 2.0, 9)
    v = jacobian_general_beta(2.0, xs, tol=1e-11)
    assert v.shape == xs.shape
    assert np.allclose(v, v[::-1], rtol=1e-11)  # even in xi
    assert isinstance(jacobian_general_beta(2.0, 0.5), float)
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            jacobian_general_beta(beta, 0.5)


# The rule's parameter is 2a - 1 = 3 beta + 1, for beta = 0.5, 1, 2, 3.
_RULE_ALPHAS = (2.5, 4.0, 7.0, 10.0)


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
@pytest.mark.parametrize("alpha", _RULE_ALPHAS)
def test_jacobi_rule_matches_scipy(alpha, n):
    """The numpy Golub-Welsch rule against ``scipy.special.roots_jacobi``.

    Nodes agree within 4 ulp of the largest node.  scipy's weights come from
    ``1 / (p_{n-1} p_n')`` and are off by up to 1.5e-9 at the outermost
    nodes of the 1024-point rules (see the high-precision test below), so
    they are a reference to 2e-9 only.
    """
    from scipy.special import roots_jacobi

    t, w = _jacobi_rule(n, alpha)
    x_ref, w_ref, mu = roots_jacobi(n, alpha, alpha, mu=True)
    assert t.shape == w.shape == (n,)
    assert np.max(np.abs(t - 0.5 * (x_ref + 1.0))) <= 4 * np.spacing(0.5)
    assert np.max(np.abs(w / (w_ref / mu) - 1.0)) <= 2e-9
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-14)
    # exact mirror symmetry
    assert np.all(t + t[::-1] == 1.0)
    assert np.all(w == w[::-1])


def _rule_oracle(n, alpha, t0):
    """Node near ``t0`` and its Christoffel weight to 40 digits."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        off = [mp.sqrt(k * (k + 2 * a) / ((2 * (k + a)) ** 2 - 1))
               for k in range(1, n + 1)]
        x = 2 * mp.mpf(t0) - 1
        for _ in range(3):
            p_prev, p, d_prev, d, sq = 0, mp.mpf(1), 0, mp.mpf(0), mp.mpf(0)
            b_prev = 0
            for b in off:
                sq += p * p
                p_prev, p = p, (x * p - b_prev * p_prev) / b
                d_prev, d = d, (p_prev + x * d - b_prev * d_prev) / b
                b_prev = b
            x -= p / d
        return (x + 1) / 2, 1 / sq


@pytest.mark.parametrize("alpha,n", [(4.0, 1024), (2.5, 512), (10.0, 64)])
def test_jacobi_rule_against_high_precision(alpha, n):
    """The outermost nodes, where the weights are smallest, and the node
    nearest the centre: nodes within 1 ulp of the largest node, weights
    within 1e-11 relative."""
    t, w = _jacobi_rule(n, alpha)
    for i in (0, 1, 2, n // 2):
        t_ref, w_ref = _rule_oracle(n, alpha, t[i])
        assert abs(float(t[i] - t_ref)) <= np.spacing(0.5)
        assert abs(float(w[i] / w_ref - 1)) <= 1e-11


def test_general_beta_density_is_symmetric_at_beta_two():
    """The density is computed at |xi|, so it is even bit for bit."""
    xs = np.linspace(-8.5, 8.5, 1701)
    assert np.array_equal(jacobian_general_beta(2.0, xs),
                          jacobian_general_beta(2.0, -xs))


def test_general_beta_unreachable_tolerance_reports_best():
    # far in the tail at small beta the node-doubling ladder stalls around
    # 2e-9, so a 1e-9 tolerance is genuinely unreachable
    with pytest.raises(QuadratureError) as exc:
        jacobian_general_beta(0.5, 6.5, tol=1e-9)
    best = exc.value.result
    loose = jacobian_general_beta(0.5, 6.5, tol=1e-6)
    assert best > 0.0
    assert best == pytest.approx(loose, abs=1e-7)
