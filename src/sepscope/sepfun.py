"""Closed-form separability-function curves and the xi-density Jacobian.

Every curve here is a *diagonal-entry-parameterized separability function*
(DESF): a conditional probability, given the correlation matrix Z is PSD and
given the diagonal log-ratio ``xi``, that some separability-related
constraint holds.  The probability weight of ``xi`` itself under the
Hilbert-Schmidt measure is the Jacobian density

    J(xi) = 64 * N(xi) / (27 pi^2 sinh(xi)^9),
    N(xi) = -160 sinh(2 xi) - 25 sinh(4 xi)
            + 12 xi (16 cosh(2 xi) + cosh(4 xi) + 18),

an even probability density on the real line.  ``N`` vanishes through order
``xi^7``, cancelling the ninth-order ``csch`` pole; near zero both the naive
numerator and the quotient are evaluated from exact-rational Maclaurin
coefficients generated at import time, so every path keeps full double
precision (the splice radius is 0.05, guarded by an overlap test).

Curve tags
----------
``dom``            piecewise-exponential dominant curve, intercept 1
``int``            intermediate envelope curve, intercept 45 pi^2 / 512
``three_right``    decaying 3x3-minor branch (its reflection is
``three_left``     the mirrored branch)
``two_right``      2x2-minor box-constraint curve, == 1 for xi <= 0 mirrored
``two_left``       by reflection
``conjecture``     candidate true DESF, intercept 4095 pi^2 / 2^16
``previous``       earlier candidate, intercept 135 pi^2 / 2176
``product_int``    product three_right(xi) * three_right(-xi)

A curve is its tag.  The curves are one table, ``_CURVES``: each tag maps to
its branch at xi = a > 0, its branch at xi = -a, and its exact intercept at
xi = 0; ``TAGS``, ``EVEN_TAGS`` and :func:`eval_desf_array` all read it.
(The one empirical curve, a sampled histogram, evaluates itself:
``estimator.DesfHistogram.ratio_at``.)
A NaN ``xi`` gives NaN for every closed-form tag.  All closed-form
evaluation is vectorized; scalars go through the same code.

General beta
------------
:func:`jacobian_general_beta` integrates the slice with Gauss-Jacobi rules
built here from numpy alone by Golub-Welsch (Math. Comp. 23, 221 (1969)):
the nodes are eigenvalues of the tridiagonal Jacobi matrix, polished by one
Newton step, and the weights are Christoffel numbers, the reciprocal of
``sum_k p_k(x)^2`` over the orthonormal polynomials.  That sum of positive
terms keeps its relative precision at the outermost nodes, whose squared
eigenvector components are tiny and carry only absolute precision: weights
taken from them leave the beta = 2 density asymmetric by ~1e-5.  So no
quadrature command loads ``scipy``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

__all__ = [
    "TAGS",
    "EVEN_TAGS",
    "eval_desf_array",
    "jacobian_xi",
    "jacobian_general_beta",
    "JACOBIAN_AT_ZERO",
    "check_tag",
    "check_tol",
]

_PI2 = math.pi**2

#: J(0) = 16384 / (2835 pi^2), the even limit of the density at the origin.
JACOBIAN_AT_ZERO = 16384.0 / (2835.0 * _PI2)


# ---------------------------------------------------------------------------
# Closed-form branches.  Each takes a = |xi| > 0 and is written overflow-free
# in terms of decaying exponentials.
# ---------------------------------------------------------------------------


def _dom(a):
    # Also P(|z_14| <= e^-a) for the box constraint of the 2x2 minor.
    return 1.5 * np.exp(-a) - 0.5 * np.exp(-3.0 * a)


def _int(a):
    return (9.0 * _PI2 / 2048.0) * (27.0 * np.exp(-a) - 7.0 * np.exp(-3.0 * a))


def _conj(a):
    return (315.0 * _PI2 / 65536.0) * (18.0 * np.exp(-a) - 5.0 * np.exp(-3.0 * a))


def _prev(a):
    return (135.0 * _PI2 / 4352.0) * (3.0 * np.exp(-a) - np.exp(-3.0 * a))


# Tail series for the mirrored 3x3 branch: with u = e^-a the branch equals
# (3 pi / 1024) * F(u) where F(u) = u^-2 sqrt(1-u^2)(2u^4+37u^2+21)
# + 3 u^-3 (27u^2-7) asin(u) = sum_k c_k u^(2k).  The two u^-2 poles cancel;
# below u^2 = e^-4 the direct form has lost ~2 digits, so the exact-rational
# series takes over (its truncation error there is < 1e-27).
_THREE_LEFT_TAIL = tuple(
    float(Fraction(p, q))
    for p, q in [
        (104, 1), (-36, 5), (-9, 5), (-17, 42), (-27, 176), (-333, 4576),
        (-329, 8320), (-513, 21760), (-19899, 1323008), (-1573, 155648),
        (-37323, 5275648), (-192933, 37683200), (-449293, 117964800),
    ]
)

_THREE_LEFT_SPLIT = 2.0


def _three_branch_neg(a):
    """``three_right`` at xi = -a < 0 (values rise toward 39 pi/128)."""
    out = np.empty_like(a)
    near = a < _THREE_LEFT_SPLIT  # 0 < a < 2: direct closed form
    if np.any(near):
        u = np.exp(-a[near])
        u2 = u * u
        f = (np.sqrt(1.0 - u2) * (2.0 * u2 * u2 + 37.0 * u2 + 21.0) / u2
             + 3.0 * (27.0 * u2 - 7.0) * np.arcsin(u) / (u2 * u))
        out[near] = (3.0 * math.pi / 1024.0) * f
    far = ~near
    if np.any(far):
        u2 = np.exp(-2.0 * a[far])
        acc = np.full_like(u2, _THREE_LEFT_TAIL[-1])
        for c in _THREE_LEFT_TAIL[-2::-1]:
            acc = acc * u2 + c
        out[far] = (3.0 * math.pi / 1024.0) * acc
    return out


def _product_int(a):
    return _int(a) * _three_branch_neg(a)


_INT_AT_ZERO = 45.0 * _PI2 / 512.0

# tag -> (value at xi = a > 0, value at xi = -a, exact intercept).  The
# intercepts are two-sided limits, stored so that no branch ever sees an
# indeterminate 0/0.
_CURVES = {
    "dom": (_dom, _dom, 1.0),
    "int": (_int, _int, _INT_AT_ZERO),
    "three_right": (_int, _three_branch_neg, _INT_AT_ZERO),
    "three_left": (_three_branch_neg, _int, _INT_AT_ZERO),
    "two_right": (_dom, np.ones_like, 1.0),
    "two_left": (np.ones_like, _dom, 1.0),
    "conjecture": (_conj, _conj, 4095.0 * _PI2 / 65536.0),
    "previous": (_prev, _prev, 135.0 * _PI2 / 2176.0),
    "product_int": (_product_int, _product_int, _INT_AT_ZERO**2),
}

TAGS = tuple(_CURVES)

#: Tags whose curves are even functions of xi.
EVEN_TAGS = frozenset(tag for tag, (pos, neg, _) in _CURVES.items() if pos is neg)


def eval_desf_array(tag: str, xi) -> np.ndarray:
    """Value of the curve ``tag`` at each ``xi`` (scalar or array; the
    result has its shape).

    Branches are selected by the sign of ``xi``; the xi = 0 value is the
    stored two-sided limit, and a NaN ``xi`` gives NaN for every tag.  All
    curves are finite, nonnegative and bounded by 1 for every other input,
    infinities included.  Raises ``ValueError`` unless ``tag`` is one of
    ``TAGS``.
    """
    check_tag(tag)
    x = np.asarray(xi, dtype=float)
    scalar_shape = x.shape
    x = np.atleast_1d(x)
    pos_branch, neg_branch, at_zero = _CURVES[tag]
    out = np.where(x == 0, at_zero, np.nan)
    pos, neg = x > 0, x < 0
    out[pos] = pos_branch(x[pos])
    out[neg] = neg_branch(-x[neg])
    return out.reshape(scalar_shape)


# ---------------------------------------------------------------------------
# Jacobian density.
# ---------------------------------------------------------------------------


def _numerator_coeffs(m_max: int) -> list[Fraction]:
    """Exact Maclaurin coefficients of N(x) = sum_m c_m x^(2m+1), m >= 4.

    From the sinh/cosh series: c_m = (192*4^m + 12*16^m)/(2m)!
    - (320*4^m + 100*16^m)/(2m+1)!; every coefficient below m = 4 cancels.
    """
    out = []
    for m in range(4, m_max + 1):
        c = Fraction(192 * 4**m + 12 * 16**m, math.factorial(2 * m)) - Fraction(
            320 * 4**m + 100 * 16**m, math.factorial(2 * m + 1)
        )
        out.append(c)
    return out


def _series_coefficients():
    """Exact-rational series data computed once at import.

    Returns (numerator series scaled by x^-9, J series) as float tuples; the
    J series divides N/x^9 by (sinh x / x)^9 term-by-term in rational
    arithmetic, then folds in the 64/(27 pi^2) prefactor.
    """
    n_terms = 22
    num = _numerator_coeffs(4 + n_terms - 1)  # coefficients of x^(2k) after /x^9

    sinh_over_x = [Fraction(1, math.factorial(2 * k + 1)) for k in range(n_terms + 1)]
    pw = [Fraction(1)] + [Fraction(0)] * n_terms  # (sinh x/x)^9, truncated products
    for _ in range(9):
        nxt = [Fraction(0)] * (n_terms + 1)
        for i, a in enumerate(pw):
            if a == 0:
                continue
            for j in range(n_terms + 1 - i):
                nxt[i + j] += a * sinh_over_x[j]
        pw = nxt

    n_j = 14
    quot = []
    for k in range(n_j):
        acc = num[k]
        for i, q in enumerate(quot):
            acc -= q * pw[k - i]
        quot.append(acc / pw[0])

    pref = Fraction(64, 27)
    j_coeffs = tuple(float(pref * q) / _PI2 for q in quot)
    n_coeffs = tuple(float(c) for c in num)
    return n_coeffs, j_coeffs


_N_COEFFS, _J_COEFFS = _series_coefficients()

# Above this |xi| the exponential-factored direct form is used; below it the
# numerator is summed from its own exact series (the hyperbolic difference
# -160 sinh 2x - 25 sinh 4x + ... cancels ~4 digits at x ~ 1 and far more
# toward 0, so the naive form never appears on any evaluation path).
_N_SERIES_LIMIT = 1.25


def _jacobian_series(x) -> np.ndarray:
    """Maclaurin evaluation of J itself (even series in x^2)."""
    y = np.square(np.asarray(x, dtype=float))
    acc = np.full_like(y, _J_COEFFS[-1])
    for c in _J_COEFFS[-2::-1]:
        acc = acc * y + c
    return acc


def _jacobian_direct(x) -> np.ndarray:
    """Direct formula N(x) * csch(x)^9 * 64/(27 pi^2), stable on |x| > 0.

    For |x| <= 1.25 the numerator uses its exact series (full precision);
    beyond that everything is folded into decaying exponentials:
    J = 64/(27 pi^2) * 512 e^(-5x) * M(x) / (1 - e^(-2x))^9.
    """
    ax = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(ax)
    near = ax <= _N_SERIES_LIMIT
    if np.any(near):
        a = ax[near]
        y = a * a
        acc = np.full_like(y, _N_COEFFS[-1])
        for c in _N_COEFFS[-2::-1]:
            acc = acc * y + c
        num = acc * a**9  # N(x) = x^9 * sum c_k x^(2k)
        out[near] = (64.0 / (27.0 * _PI2)) * num / np.sinh(a) ** 9
    far = ~near
    if np.any(far):
        a = ax[far]
        em = np.exp(-2.0 * a)
        em2 = em * em
        m = (-80.0 * em + 80.0 * em * em2 - 12.5 + 12.5 * em2 * em2
             + a * (96.0 * em + 96.0 * em * em2 + 6.0 + 6.0 * em2 * em2 + 216.0 * em2))
        out[far] = (64.0 * 512.0 / (27.0 * _PI2)) * np.exp(-5.0 * a) * m / (1.0 - em) ** 9
    return out


def jacobian_xi(xi) -> np.ndarray:
    """Vectorized beta = 1 density J(xi); even, positive, integrates to 1."""
    x = np.asarray(xi, dtype=float)
    shape = x.shape
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 0.05  # the splice radius
    if np.any(small):
        out[small] = _jacobian_series(x[small])
    if np.any(~small):
        out[~small] = _jacobian_direct(x[~small])
    return out.reshape(shape)


def check_tag(tag) -> None:
    """Raise ``ValueError`` unless ``tag`` names a curve of ``TAGS``."""
    if not isinstance(tag, str) or tag not in _CURVES:
        raise ValueError(f"unknown curve tag {tag!r}; expected one of {TAGS}")


def check_tol(tol: float) -> None:
    """Raise ``ValueError`` unless a quadrature tolerance is positive and finite."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _jacobi_recurrence(x, off):
    """Orthonormal ``p_n(x)``, ``p_n'(x)`` and ``sum_{k<n} p_k(x)^2``.

    Three-term recurrence ``off[k] p_{k+1} = x p_k - off[k-1] p_{k-1}`` from
    ``p_0 = 1``, with ``n = len(off)``.
    """
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    d_prev, d = np.zeros_like(x), np.zeros_like(x)
    sq = np.zeros_like(x)
    b_prev = 0.0
    for b in off:
        sq += p * p
        p_prev, p = p, (x * p - b_prev * p_prev) / b
        d_prev, d = d, (p_prev + x * d - b_prev * d_prev) / b
        b_prev = b
    return p, d, sq


@lru_cache(maxsize=32)
def _jacobi_rule(n: int, alpha: float):
    """n-point Gauss rule for the Beta(alpha+1, alpha+1) density on [0, 1].

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the weight ``(1-x)^alpha (1+x)^alpha`` on [-1, 1], each
    refined by one Newton step on the recurrence.  The weights are the
    Christoffel numbers ``1 / sum_k p_k(x)^2`` of the orthonormal
    polynomials (``p_0 = 1``, so they sum to 1): a sum of positive squares,
    within ~5e-12 relative even at the outermost nodes of a 1024-point rule,
    where squared eigenvector components and ``1 / (p_{n-1} p_n')`` lose
    digits.  Each node of the nonnegative half starts from the mean of its
    two mirrored eigenvalues, and the negative half is its mirror image, so
    the rule is exactly symmetric.
    """
    k = np.arange(1.0, n + 1.0)
    off = np.sqrt(k * (k + 2.0 * alpha) / ((2.0 * (k + alpha)) ** 2 - 1.0))
    x = np.linalg.eigvalsh(np.diag(off[:-1], 1), UPLO="U")
    half = 0.5 * (x[n // 2:] - x[(n - 1) // 2::-1])  # the middle node of odd n is 0
    p, d, _ = _jacobi_recurrence(half, off)
    half -= p / d
    w_half = 1.0 / _jacobi_recurrence(half, off)[2]
    x = np.concatenate((-half[::-1][:n // 2], half))
    w = np.concatenate((w_half[::-1][:n // 2], w_half))
    return 0.5 * (x + 1.0), w


def jacobian_general_beta(beta: float, xi, tol: float = 1e-10):
    """Normalized xi-density for general ensemble index ``beta``.

    Integrates the Hilbert-Schmidt weight ``(prod rho_ii)^(3 beta/2)`` over
    the two-dimensional slice of the probability simplex at fixed xi.  After
    the xi change of variables, one slice direction integrates in closed form
    (a Beta-function factor absorbed into the normalization, which is exactly
    the Dirichlet constant enforcing a unit integral); the remaining
    direction is done by Gauss-Jacobi quadrature (:func:`_jacobi_rule`,
    whose weights sum to 1) with node doubling:

        J_b(xi) = (Gamma(2a)/Gamma(a)^2)^2 * 2 e^(-2a|xi|)
                  * Int_0^1 [t(1-t)]^(2a-1) (t e^(-2|xi|) + 1 - t)^(-2a) dt,

    with ``a = 3 beta/2 + 1`` and the xi < 0 case evaluated by the
    equivalent unfactored form (the weight is symmetric under relabeling
    1<->2, 3<->4, which maps xi to -xi).

    ``tol`` is absolute: doubling stops once no density value moves by more
    than ``tol / 4``, so values far below ``tol`` (the tails) carry no
    relative accuracy.

    Accepts scalar or array ``xi``; raises :class:`QuadratureError` when node
    doubling fails to reach ``tol`` or, naming ``beta``, as soon as a rule
    gives a value that is not finite (a ``beta`` too large for the slice
    rule), and ``ValueError`` unless ``beta`` and ``tol`` are positive and
    finite.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    check_tol(tol)
    y = np.asarray(xi, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    a = 1.5 * beta + 1.0
    # (Gamma(2a)/Gamma(a)^2)^2 * 2 * B(2a, 2a): the rule's weights sum to 1
    scale = 2.0 * math.exp(4.0 * (math.lgamma(2.0 * a) - math.lgamma(a))
                           - math.lgamma(4.0 * a))
    q = np.exp(-2.0 * np.abs(y))[:, None]
    pos = (y > 0)[:, None]
    pref = np.exp(-2.0 * a * np.abs(y))

    prev = None
    n = 16
    while n <= 1024:
        with np.errstate(all="ignore"):  # a large beta overflows; caught below
            t, w = _jacobi_rule(n, 2.0 * a - 1.0)
            denom = np.where(pos, t * q + (1.0 - t), t + (1.0 - t) * q)
            vals = scale * pref * (w * denom**(-2.0 * a)).sum(axis=1)
        if not np.all(np.isfinite(vals)):
            raise QuadratureError(
                f"slice quadrature is not finite at beta={beta} with {n} nodes; "
                "beta is too large for the slice rule"
            )
        if prev is not None and np.max(np.abs(vals - prev)) <= 0.25 * tol:
            out = vals.reshape(np.shape(xi))
            return float(out) if scalar else out
        prev = vals
        n *= 2
    best = prev.reshape(np.shape(xi))
    raise QuadratureError(
        f"slice quadrature did not reach tol={tol} by {1024} nodes",
        result=float(best) if scalar else best,
    )
