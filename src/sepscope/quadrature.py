"""Adaptive real-line quadrature and the exact separability-bound table.

The workhorse is a Gauss-Kronrod 7/15 embedded pair with greedy bisection of
the worst panel.  Integrands are vectorized callables (called on arrays of 15
abscissae); all the curve-times-density integrands decay like
``|xi| e^(-5|xi|)`` or faster, so the line is truncated to ``[-L, L]`` with
``L = 40`` (tail mass below 1e-80, far under any tolerance used
here).  Panel selection and accumulation follow a fixed deterministic order,
so results are bit-reproducible for a given tolerance regardless of how many
workers the caller runs elsewhere.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .sepfun import (
    EVEN_TAGS,
    check_tag,
    check_tol,
    eval_desf_array,
    jacobian_general_beta,
    jacobian_xi,
)

__all__ = [
    "QuadratureResult",
    "integrate_real_line",
    "separability_probability",
    "complex_speculation_probability",
    "BoundRow",
    "bound_row",
    "bound_table",
    "SPECULATION_REF_EXPR",
    "SPECULATION_REF_VALUE",
]

# Gauss-Kronrod 7/15 nodes and weights (QUADPACK dqk15 constants).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_EPS = np.finfo(float).eps

#: The half-width ``L`` of the truncated line (see the module docstring).
_HALF_RANGE = 40.0

#: Integrand evaluations an adaptive pass may spend before giving up.
_MAX_EVALS = 100_000


@dataclass(frozen=True)
class QuadratureResult:
    """An integral value with its absolute-error estimate and the number of
    integrand evaluations spent."""

    value: float
    abs_err_est: float
    evals: int


def _panel(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel on [a, b] -> (value, error, fcount)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    xs = np.empty(15)
    xs[:7] = c - h * _XGK[:7]
    xs[7] = c
    xs[8:] = c + h * _XGK[6::-1]
    fv = np.asarray(f(xs), dtype=float)
    pair = fv[:7] + fv[14:7:-1]
    resk = float(_WGK[:7] @ pair + _WGK[7] * fv[7])
    resg = float(_WG[:3] @ pair[1::2] + _WG[3] * fv[7])
    reskh = 0.5 * resk
    resasc = float(_WGK[:7] @ (np.abs(fv[:7] - reskh) + np.abs(fv[14:7:-1] - reskh))
                   + _WGK[7] * abs(fv[7] - reskh)) * abs(h)
    value = resk * h
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * abs(value))
    return value, err, 15


def _adaptive(f, points, tol: float) -> QuadratureResult:
    """Greedy bisection over initial segments given by ``points``, within
    ``_MAX_EVALS`` integrand evaluations."""
    check_tol(tol)
    heap = []
    seq = 0
    evals = 0
    total_err = 0.0
    for a, b in zip(points[:-1], points[1:]):
        v, e, n = _panel(f, a, b)
        heapq.heappush(heap, (-e, seq, a, b, v))
        seq += 1
        evals += n
        total_err += e
    while total_err > tol:
        if evals + 30 > _MAX_EVALS:
            value = math.fsum(item[4] for item in sorted(heap, key=lambda t: t[2]))
            best = QuadratureResult(value, total_err, evals)
            raise QuadratureError(
                f"tolerance {tol:g} not reached within {_MAX_EVALS} evaluations "
                f"(current error estimate {total_err:g})",
                result=best,
            )
        neg_e, _, a, b, _ = heapq.heappop(heap)
        total_err += neg_e  # neg_e is -err of the popped panel
        m = 0.5 * (a + b)
        for lo, hi in ((a, m), (m, b)):
            v, e, n = _panel(f, lo, hi)
            heapq.heappush(heap, (-e, seq, lo, hi, v))
            seq += 1
            evals += n
            total_err += e
    value = math.fsum(item[4] for item in sorted(heap, key=lambda t: t[2]))
    err = math.fsum(-item[0] for item in heap)
    return QuadratureResult(value, err, evals)


def _segment_points(lo: float, hi: float, interior=()) -> list[float]:
    pts = {lo, hi}
    pts.update(p for p in interior if lo < p < hi)
    return sorted(pts)


def integrate_real_line(
    f,
    tol: float = 1e-10,
    *,
    breakpoints=(),
) -> QuadratureResult:
    """Integrate a vectorized integrand over the real line.

    ``f`` must accept a numpy array and decay fast enough that the mass
    outside ``[-40, 40]`` is negligible at the requested
    tolerance (the curve-density products here decay like ``xi e^(-5 xi)``).
    ``breakpoints`` seeds extra panel boundaries at known kinks.  On success
    ``abs_err_est <= tol``; otherwise a :class:`QuadratureError` carries the
    best estimate in ``.result``.
    """
    interior = {-1.0, 0.0, 1.0}
    interior.update(float(p) for p in breakpoints)
    return _adaptive(f, _segment_points(-_HALF_RANGE, _HALF_RANGE, interior), tol)


def separability_probability(tag: str, tol: float = 1e-10) -> QuadratureResult:
    """The probability ``Int S(xi) J(xi) dxi`` for the curve ``tag``.

    Even tags integrate ``2 S J`` over ``[0, L]`` (the density is even; the
    doubling is exact, so this is the half-line pass at ``tol/2`` scaled by
    2, bit for bit); every other tag takes the full line.  Raises
    ``ValueError`` unless ``tag`` is one of ``TAGS``.
    """
    check_tag(tag)

    def integrand(x):
        return eval_desf_array(tag, x) * jacobian_xi(x)

    if tag in EVEN_TAGS:
        return _adaptive(lambda x: 2.0 * integrand(x),
                         _segment_points(0.0, _HALF_RANGE, {1.0, 5.0}), tol)
    return integrate_real_line(integrand, tol)


#: Exact value of the squared-candidate probability in the beta = 2 ensemble.
SPECULATION_REF_EXPR = "30660525*pi**4/11811160064"
SPECULATION_REF_VALUE = 30660525.0 * math.pi**4 / 11811160064.0


def complex_speculation_probability(tol: float = 1e-6) -> QuadratureResult:
    """``Int conjecture(xi)^2 J_2(xi) dxi`` via nested quadrature.

    The inner slice integration runs at ``tol/4`` (absolute, on the density
    value); since ``Int conjecture^2 dxi < 1`` its total contribution to the
    outer integral is below ``tol/4``, which is added to the reported error
    estimate.  The outer adaptive pass gets ``tol/2``.  ``evals`` counts
    outer integrand evaluations.
    """
    inner_tol = 0.25 * tol

    def integrand(x):
        s = eval_desf_array("conjecture", x)
        return s * s * jacobian_general_beta(2.0, x, tol=inner_tol)

    res = integrate_real_line(integrand, 0.5 * tol)
    return QuadratureResult(res.value, res.abs_err_est + inner_tol, res.evals)


@dataclass(frozen=True)
class BoundRow:
    """One row of the exact bound table.

    ``converged`` is False when the quadrature gave up before reaching its
    tolerance; the row then carries the best estimate instead of aborting
    the whole table.
    """

    tag: str
    ref_expr: str
    ref_value: float
    result: QuadratureResult
    converged: bool = True

    @property
    def diff(self) -> float:
        return abs(self.result.value - self.ref_value)

    @property
    def half(self) -> float:
        """The bound induced for minimally degenerate (boundary) states:
        exactly half the nondegenerate value, clamped into [0, 1] first."""
        return 0.5 * min(max(self.result.value, 0.0), 1.0)


# Reference expressions for Int S J.  The first group is quoted literature;
# the three_right/two_right values are rational/closed forms derived from the
# exponential moments of the density (Int_0^inf e^-x J = 8704/(2835 pi^2),
# Int_0^inf e^-3x J = 512/(315 pi^2)) and confirmed to 20 digits by
# high-precision quadrature.  The product curve has no known closed form;
# its reference is the quoted 6-digit literature value.
_BOUND_REFS = {
    "dom": ("1024/(135*pi**2)", 1024.0 / (135.0 * math.pi**2)),
    "int": ("22/35", 22.0 / 35.0),
    "three_right": ("128/165", 128.0 / 165.0),
    "three_left": ("128/165", 128.0 / 165.0),
    "two_right": ("1/2 + 512/(135*pi**2)", 0.5 + 512.0 / (135.0 * math.pi**2)),
    "two_left": ("1/2 + 512/(135*pi**2)", 0.5 + 512.0 / (135.0 * math.pi**2)),
    "conjecture": ("29/64", 29.0 / 64.0),
    "previous": ("8/17", 8.0 / 17.0),
    "product_int": ("", 0.576219),
}


def bound_row(tag: str, ref_expr: str, ref_value: float, integrate, *args) -> BoundRow:
    """The row for ``integrate(*args)``.  When the quadrature cannot reach
    its tolerance the row carries the best estimate and ``converged=False``
    rather than aborting the table."""
    try:
        return BoundRow(tag, ref_expr, ref_value, integrate(*args))
    except QuadratureError as exc:
        return BoundRow(tag, ref_expr, ref_value, exc.result, converged=False)


def bound_table(tol: float = 1e-10) -> list[BoundRow]:
    """Quadrature of every closed-form tag against its reference value,
    one :func:`bound_row` per tag in the fixed tag order."""
    return [
        bound_row(tag, expr, ref, separability_probability, tag, tol)
        for tag, (expr, ref) in _BOUND_REFS.items()
    ]
