"""The one registry of sepscope's acceptance criteria, and its runner.

Every criterion is a row of ``CHECKS``: a check function plus the seed,
sample budget, reference value and bound that fix it.  This registry is the
single source of all of them: ``sepscope verify`` runs the rows of a level
through :func:`run_checks`, and ``tests/test_acceptance.py`` parametrizes
over the quick rows and calls each check function directly.  Two rows share
one function when they check the same thing with different seeds or budgets.

The ``quick`` level exercises every cross-module identity and runs the
statistical criteria at reduced, still frozen budgets; ``full`` adds the
rows at the sample sizes the reference values were verified at (tens of
minutes of CPU; honors ``workers``).  Each check returns ``(passed,
detail)``.  Sample-based checks run from frozen seeds, so a passing level
stays passing: there is no run-to-run flakiness to tolerate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.stats import binom

from . import estimator, quadrature, sampling, sepfun
from .qstate import (
    assemble_states,
    corr_matrices,
    event_margin,
    partial_transpose,
    pt_corr_det4,
    pt_correlations,
    werner,
    xi_from_diag,
)

__all__ = [
    "Check", "CheckResult", "CHECKS", "LEVELS", "run_checks", "REFERENCES",
    "binomial_two_sided_pvalue",
]

LEVELS = ("quick", "full")

#: Reference probabilities under the Hilbert-Schmidt measure.
#: ``sep_probability`` is a published Monte Carlo value; the rest are exact.
REFERENCES = {
    "sep_probability": 0.4528427,
    "abs_sep_probability": (6928.0 - 2205.0 * math.pi) / 2.0**4.5,
    "desf_intercept": 135.0 * math.pi**2 / 2176.0,
    "conjecture_sq_beta2": 30660525.0 * math.pi**4 / 11811160064.0,
}

#: Bound-table values and their twofold (boundary-state) column, written
#: independently of the reference table inside ``quadrature``.
_BOUND_VALUES = {
    "dom": 1024.0 / (135.0 * math.pi**2),
    "int": 22.0 / 35.0,
    "conjecture": 29.0 / 64.0,
    "previous": 8.0 / 17.0,
    "product_int": 0.576219,
}
_HALF_VALUES = {
    "dom": 512.0 / (135.0 * math.pi**2),
    "int": 11.0 / 35.0,
    "conjecture": 29.0 / 128.0,
}

_XI_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)

#: Exact binomial p-value below which a sparse histogram bin fails.
_P_MIN = 6.3e-5


@dataclass(frozen=True)
class Check:
    """One registry row: ``fn(workers, **params)`` returns ``(passed, detail)``."""

    name: str
    level: str
    fn: object
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        """The report line; it carries no timing, so reports are deterministic."""
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _prng(seed, dimension=9):
    return sampling.SequenceSpec("pseudo_random", seed, dimension=dimension)


def _lds(seed, dimension=9):
    return sampling.SequenceSpec("low_discrepancy", seed, dimension=dimension)


def _tasks(seed, n):
    """The estimators' batches of ``n`` points of the Philox stream ``seed``."""
    spec = _prng(seed)
    return [(spec, off, size) for off, size in estimator._batch_plan(n)]


def _psd_sample(workers, seed, n):
    """The ``(diag, z)`` of the positive states among ``n`` stream points,
    drawn one batch at a time through the estimators' stage."""
    parts = estimator._run_batches(_tasks(seed, n), estimator._positive_states, workers)
    return tuple(np.concatenate(cols) for cols in zip(*parts))


# ---------------------------------------------------------------------------
# Analytic layer
# ---------------------------------------------------------------------------


def _density_normalization(workers, tol, bound):
    res = quadrature.integrate_real_line(sepfun.jacobian_xi, tol)
    err = abs(res.value - 1.0)
    return err <= bound, f"integral of density = 1 {'+' if err else ''}{err:.2e}"


def _series_overlap(workers, bound):
    xs = np.linspace(0.02, 0.12, 401)
    near = sepfun._jacobian_series(xs)
    far = sepfun._jacobian_direct(xs)
    rel = float(np.max(np.abs(near - far) / far))
    return rel <= bound, f"series vs direct max rel diff {rel:.2e} on [0.02, 0.12]"


def _general_beta_grid(workers, tol, bound):
    """The array path of the beta-density quadrature at beta = 1."""
    xs = np.linspace(-3.0, 3.0, 121)
    gen = sepfun.jacobian_general_beta(1.0, xs, tol=tol)
    ref = sepfun.jacobian_xi(xs)
    rel = float(np.max(np.abs(gen - ref) / ref))
    return rel <= bound, f"beta=1 quadrature vs closed form max rel diff {rel:.2e}"


def _general_beta_points(workers, xs, tol, bound):
    """The scalar path, which stops per point rather than on the grid's worst."""
    worst = max(
        abs(float(sepfun.jacobian_general_beta(1.0, x, tol=tol)) - sepfun.jacobian_xi(x))
        for x in xs
    )
    return worst <= bound, f"scalar beta=1 quadrature at xi in {xs}, worst |diff| {worst:.2e}"


def _bound_table(workers, tol, bound, product_bound):
    """Every table row against its own reference, then against the values
    written here, then the twofold column."""
    rows = {r.tag: r for r in quadrature.bound_table(tol=tol)}

    def limit(tag):
        return product_bound if tag == "product_int" else bound

    groups = {
        "table": [(t, r.diff, limit(t)) for t, r in rows.items()],
        "exact": [(t, abs(rows[t].result.value - v), limit(t))
                  for t, v in _BOUND_VALUES.items()],
        "half": [(t, abs(rows[t].half - v), bound) for t, v in _HALF_VALUES.items()],
    }
    notes = []
    for group, diffs in groups.items():
        for tag, diff, lim in diffs:
            if diff > lim:
                return False, f"{group} {tag}: |value - ref| = {diff:.2e} > {lim:g}"
        tag, diff, _ = max(diffs, key=lambda d: d[1])
        notes.append(f"{group} worst {tag} {diff:.2e}")
    return True, f"{len(rows)} rows within tolerance ({', '.join(notes)})"


def _half_line_doubling(workers, tol, bound):
    """The even tags' half-line pass against a full-line pass of ``S J``."""
    worst = 0.0
    for tag in (t for t in sepfun.TAGS if t in sepfun.EVEN_TAGS):
        a = quadrature.separability_probability(tag, tol)
        b = quadrature.integrate_real_line(
            lambda x: sepfun.eval_desf_array(tag, x) * sepfun.jacobian_xi(x), tol
        )
        worst = max(worst, abs(a.value - b.value))
    return worst <= bound, f"half-line doubling vs full line, max diff {worst:.2e}"


def _error_estimate_valid(workers):
    worst = 0.0
    for tag in ("dom", "three_left", "product_int"):
        loose = quadrature.separability_probability(tag, 1e-6)
        tight = quadrature.separability_probability(tag, 1e-8)
        excess = abs(loose.value - tight.value) - (loose.abs_err_est + 1e-8)
        worst = max(worst, excess)
    ok = worst <= 0.0
    return ok, f"|loose - tight| - bound <= {worst:.2e} (must be <= 0)"


def _beta2_speculation(workers, tol, bound):
    res = quadrature.complex_speculation_probability(tol=tol)
    diff = abs(res.value - REFERENCES["conjecture_sq_beta2"])
    return diff <= bound, f"|value - exact| = {diff:.2e} at tol {tol:g}"


def _isotropic_mixture(workers):
    for w in (0.0, 0.2, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.6, 1.0):
        want = w <= 1.0 / 3.0 + 1e-12
        pt = partial_transpose(werner(w))
        if (np.linalg.det(pt) >= -1e-12) != want:
            return False, f"separability flips at the wrong w = {w}"
        ev_min = float(np.linalg.eigvalsh(pt)[0])
        if abs(ev_min - (1.0 - 3.0 * w) / 4.0) > 1e-12:
            return False, f"PT minimum eigenvalue wrong at w = {w}"
    return True, "separable exactly up to w = 1/3; PT eigenvalue (1-3w)/4"


def _curve_evenness_and_ordering(workers, bound):
    """Even tags are even, and conjecture, product_int <= int <= dom pointwise."""
    xs = np.linspace(-10.0, 10.0, 1001)
    even_worst = max(
        float(np.max(np.abs(sepfun.eval_desf_array(t, xs) - sepfun.eval_desf_array(t, -xs))))
        for t in sepfun.EVEN_TAGS
    )
    dom = sepfun.eval_desf_array("dom", xs)
    mid = sepfun.eval_desf_array("int", xs)
    order_ok = bool(
        np.all(sepfun.eval_desf_array("conjecture", xs) <= mid + bound)
        and np.all(sepfun.eval_desf_array("product_int", xs) <= mid + bound)
        and np.all(mid <= dom + bound)
    )
    return even_worst <= bound and order_ok, (
        f"evenness worst |f(x)-f(-x)| = {even_worst:.1e}, "
        f"ordering {'holds' if order_ok else 'BROKEN'}"
    )


def _pt_involution(workers, seed, n, states):
    diag, z = _psd_sample(workers, seed, n)
    rho = assemble_states(diag[:states], z[:states])
    moved = np.flatnonzero(np.any(partial_transpose(partial_transpose(rho)) != rho, axis=(1, 2)))
    if moved.size:
        return False, f"partial transpose is not an involution on state {moved[0]}"
    return True, f"partial transpose is an involution, bit for bit, on {states} states"


def _pt_minor_implications(workers, seed, n, states, tol):
    """On one sample: separable => 3x3 PT minors >= 0 => 2x2 PT minors >= 0;
    the verdict sees the diagonal only through xi; and the determinant sign
    of the scaled partial transpose agrees with its spectrum."""
    diag, z = _psd_sample(workers, seed, n)  # about 18% of draws are states
    if len(z) < states:
        return False, f"only {len(z)} states among {n} draws, need {states}"
    diag, z = diag[:states], z[:states]
    s = pt_correlations(z, xi_from_diag(diag))
    det4 = event_margin(s, "det")
    minors3, minors2 = (event_margin(s, e) >= -tol for e in ("minors3", "minors2"))
    chain = int(np.sum((det4 >= 0.0) & ~minors3) + np.sum(minors3 & ~minors2))

    # two diagonals with the same xi give the same verdict
    rng_z = z[:10_000]
    rng_xi = np.linspace(-2.0, 2.0, len(rng_z))
    ee = np.exp(rng_xi)
    b = 1.0 / (2.0 * (1.0 + ee))
    diag_a = np.column_stack([ee * b, b, b, ee * b])
    e2 = np.exp(2.0 * rng_xi)
    diag_b = np.column_stack([e2, np.ones_like(e2), np.ones_like(e2),
                              np.ones_like(e2)]) / (3.0 + e2)[:, None]
    det_a = pt_corr_det4(rng_z, xi_from_diag(diag_a))
    det_b = pt_corr_det4(rng_z, xi_from_diag(diag_b))
    clear = (np.abs(det_a) > 1e-12) & (np.abs(det_b) > 1e-12)
    mismatch = int(np.sum((det_a[clear] >= 0) != (det_b[clear] >= 0)))

    ev_min = np.linalg.eigvalsh(corr_matrices(s))[:, 0]
    informative = np.abs(det4) > 1e-10
    sign_mismatch = int(np.sum(
        (det4[informative] >= 0) != (ev_min[informative] >= -1e-12)
    ))
    ok = not chain and not mismatch and clear.sum() >= 9000 and not sign_mismatch
    return ok, (
        f"implication chain {chain} violations on {len(z)} states; "
        f"xi-sufficiency {mismatch} mismatches on {int(clear.sum())} paired "
        f"diagonals; det-sign vs spectrum {sign_mismatch} mismatches on "
        f"{int(informative.sum())} states"
    )


# ---------------------------------------------------------------------------
# Sampling layer
# ---------------------------------------------------------------------------


def _stream_skippability(workers):
    for spec in (_prng(101), _lds(101), _lds(101, dimension=6)):
        whole = sampling.next_points(spec, 1000)
        parts = np.vstack([
            sampling.next_points(spec, 137, 0),
            sampling.next_points(spec, 751, 137),
            sampling.next_points(spec, 112, 888),
        ])
        if not np.array_equal(whole, parts):
            return False, f"chunked != whole for {spec.engine}"
    return True, "chunked reads reproduce whole reads bit-for-bit"


def _star_discrepancy(workers, seed, n):
    d = 3
    d_lds = sampling.star_discrepancy(sampling.next_points(_lds(seed, dimension=d), n))
    d_prng = sampling.star_discrepancy(sampling.next_points(_prng(seed, dimension=d), n))
    return d_lds < d_prng, f"star discrepancy {d_lds:.4f} (lds) vs {d_prng:.4f} (prng)"


def _diagonal_moments(workers, seed, n, z_max):
    diag = sampling.cube_to_bloore_batch(sampling.next_points(_prng(seed), n)[:, :3])
    x = diag[:, 0]
    zm = (x.mean() - 0.25) / (x.std(ddof=1) / math.sqrt(n))
    x2 = x * x
    zv = (x2.mean() - 7.0 / 88.0) / (x2.std(ddof=1) / math.sqrt(n))
    ok = abs(zm) <= z_max and abs(zv) <= z_max
    return ok, f"first-entry moments z = {zm:+.2f} (mean), {zv:+.2f} (second)"


def binomial_two_sided_pvalue(k: int, n: int, p: float) -> float:
    """Conservative two-sided exact binomial p-value (doubled tail).

    Used instead of a Gaussian z-score wherever the expected count in a bin
    is too small for the normal approximation.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    lo = binom.cdf(k, n, p)
    hi = binom.sf(k - 1, n, p)
    return float(min(1.0, 2.0 * min(lo, hi)))


def _xi_counts(workers, seed, n, edges):
    """Histogram of xi over ``n`` stream points, positive or not, in the
    estimators' half-open bins, drawn and mapped one batch at a time; the
    counts of the batches add."""

    def kernel(spec, offset, size):
        diag = sampling.cube_to_bloore_batch(sampling.next_points(spec, size, offset)[:, :3])
        idx = estimator._bin_of(edges, xi_from_diag(diag))
        return np.bincount(idx[idx >= 0], minlength=len(edges) - 1)

    return sum(estimator._run_batches(_tasks(seed, n), kernel, workers))


def _xi_histogram(workers, seed, n, z_max):
    """Sampled xi against bin probabilities of the density, integrated by
    scipy's quad rather than this package's own quadrature."""
    edges = np.linspace(-6.0, 6.0, 61)
    counts = _xi_counts(workers, seed, n, edges)
    probs = np.array([
        quad(sepfun.jacobian_xi, a, b, epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in zip(edges[:-1], edges[1:])
    ])
    worst_z = 0.0
    for k, p in zip(counts, probs):
        expected = n * p
        if expected >= 10.0:
            worst_z = max(worst_z, abs(k - expected) / math.sqrt(expected * (1.0 - p)))
        else:
            pv = binomial_two_sided_pvalue(int(k), n, p)
            if pv < _P_MIN:
                return False, f"sparse bin p-value {pv:.1e} at count {k}"
    p_out = max(1.0 - probs.sum(), 0.0)
    pv = binomial_two_sided_pvalue(int(n - counts.sum()), n, p_out)
    if pv < _P_MIN:
        return False, f"outside-range mass p-value {pv:.1e}"
    ok = worst_z <= z_max
    return ok, f"xi histogram vs density, worst bin z = {worst_z:.2f} (n={n:.0e})"


# ---------------------------------------------------------------------------
# Estimator layer
# ---------------------------------------------------------------------------


def _fraction(workers, target, seed, n, ref=None, z_max=None, window=None):
    """The sampled fraction of ``target``, held within ``z_max`` standard
    errors of ``ref`` or inside the open interval ``window``."""
    res = estimator.estimate_probability(target, _prng(seed), n, workers=workers)
    if window is not None:
        lo, hi = window
        return lo < res.mean < hi, (
            f"{res.mean:.6f} +- {res.stderr:.6f} in ({lo}, {hi}), "
            f"n_eff = {res.n_effective}"
        )
    z = (res.mean - ref) / res.stderr
    return abs(z) <= z_max, f"{res.mean:.6f} vs {ref:.7f} (z = {z:+.2f})"


def _histogram_sum_identity(workers, seed, n):
    spec = _prng(seed)
    hist = estimator.estimate_desf(spec, n, bins=41, workers=workers)
    direct = estimator.estimate_probability("sep", spec, n, workers=workers)
    lhs = (hist.n_sep.sum() + hist.n_sep_outside) / (
        hist.n_psd.sum() + hist.n_psd_outside
    )
    ok = lhs == direct.mean
    return ok, f"pooled histogram ratio equals direct estimate exactly ({lhs:.6f})"


def _curve_reconstruction(workers, seed, n):
    spec = _prng(seed)
    hist = estimator.estimate_desf(spec, n, bins=81, ximax=6.0, workers=workers)
    direct = estimator.estimate_probability("sep", spec, n, workers=workers)
    via_curve = quadrature.integrate_real_line(
        lambda x: hist.ratio_at(x) * sepfun.jacobian_xi(x), 1e-9,
        breakpoints=hist.bin_edges,
    )
    # The curve integral re-weights bins by the exact density instead of the
    # sampled one; at these sizes the two agree to a couple of direct-method
    # standard errors.
    diff = abs(via_curve.value - direct.mean)
    ok = diff <= 2.0 * direct.stderr + 1e-3
    return ok, f"integral of empirical curve vs direct estimate, diff {diff:.2e}"


def _stderr_scaling(workers, seed, n, bound):
    small = estimator.estimate_probability("sep", _prng(seed), n, workers=workers)
    large = estimator.estimate_probability("sep", _prng(seed), 4 * n, workers=workers)
    ratio = large.stderr / small.stderr
    return ratio <= bound, f"stderr(4n)/stderr(n) = {ratio:.3f} (want <= {bound})"


def _worker_invariance(workers, seed, n):
    runs = [
        estimator.estimate_probability("sep", _prng(seed), n, workers=w)
        for w in (1, 2, 4)
    ]
    same = all(
        r.mean == runs[0].mean and r.n_effective == runs[0].n_effective
        for r in runs
    )
    return same, "identical tallies with 1, 2 and 4 workers"


def _lds_vs_prng(workers, seed, n):
    lds = estimator.estimate_probability("sep", _lds(seed), n, replicates=8, workers=workers)
    prng = estimator.estimate_probability("sep", _prng(seed), n, replicates=8,
                                          workers=workers)
    ok = lds.stderr < prng.stderr
    return ok, (
        f"replicate spread {lds.stderr:.2e} (lds) vs {prng.stderr:.2e} (prng)"
        f" at n={n:.0e}"
    )


#: The closed-form branch each informative single-minor event of
#: ``qstate.EVENTS`` follows.  Minors holding the (2, 3) slot of
#: ``qstate.pt_correlations`` follow the right-branch curves, those holding
#: its (1, 4) slot the left-branch ones; the four other pairs have no curve.
_MINORS = {
    "delete:1": "three_right",
    "delete:4": "three_right",
    "delete:2": "three_left",
    "delete:3": "three_left",
    "pair:2,3": "two_right",
    "pair:1,4": "two_left",
}


def _minor_curves(workers, minors, n, grid, z_max, pairs=()):
    """Each minor's estimate against its closed-form branch curve at every
    grid point (a zero-width estimate must hit the curve exactly).  ``minors``
    maps a label of ``_MINORS`` to its stream seed; each pair in ``pairs``
    follows one law, so its two independent estimates are also compared
    two-sample."""
    ests = {}
    worst, worst_at = 0.0, ""
    for text, seed in minors.items():
        tag = _MINORS[text]
        est = ests[text] = estimator.estimate_minor_desf(
            text, _prng(seed, dimension=6), n, grid, workers=workers
        )
        refs = sepfun.eval_desf_array(tag, grid)
        for xi, got, se, ref in zip(grid, est.ratio, est.stderr, refs):
            if se == 0.0:
                if got != ref:
                    return False, f"{text} at xi={xi}: flat reference missed"
                continue
            z = abs(got - ref) / se
            if z > worst:
                worst, worst_at = z, f"{text} at xi={xi:+.1f}"
    pair_z = 0.0
    for a, b in pairs:
        ea, eb = ests[a], ests[b]
        z = np.max(np.abs(ea.ratio - eb.ratio) / np.hypot(ea.stderr, eb.stderr))
        pair_z = max(pair_z, float(z))
    detail = f"{len(minors) * len(grid)} minor/xi cells, worst |z| = {worst:.2f} ({worst_at})"
    if pairs:
        detail += f"; paired minors worst two-sample z = {pair_z:.2f}"
    return worst <= z_max and pair_z <= z_max, detail


def _desf_intercept_exact_xi(workers, seed, n, z_max):
    """S(0) = 135 pi^2 / 2176 at exactly xi = 0: the event ``det`` (the full
    partial-transpose determinant) on every positive sample rather than on a
    histogram bin's share, with the binomial sigma of the reference."""
    est = estimator.estimate_minor_desf(
        "det", _prng(seed, dimension=6), n, (0.0,), workers=workers
    )
    ref = REFERENCES["desf_intercept"]
    z = (est.ratio[0] - ref) / estimator._binomial_se(ref, est.n_psd)
    return abs(z) <= z_max, (
        f"S(0) {est.ratio[0]:.6f} vs {ref:.6f} (z = {z:+.2f}, n_psd = {est.n_psd})"
    )


def _desf_intercept(workers, seed, n, bins, z_max, observed_sigma=False):
    """The central histogram bin against S(0) = 135 pi^2 / 2176, with the
    binomial sigma of the reference or of the observed ratio."""
    hist = estimator.estimate_desf(_prng(seed), n, bins=bins, ximax=4.0, workers=workers)
    i = hist.bin_index(0.0)
    ref = REFERENCES["desf_intercept"]
    if observed_sigma:
        sigma = hist.stderr[i]
    else:
        sigma = estimator._binomial_se(ref, hist.n_psd[i])
    z = (hist.ratio[i] - ref) / sigma
    return abs(z) <= z_max, (
        f"central bin {hist.ratio[i]:.6f} vs {ref:.6f} "
        f"(z = {z:+.2f}, n_bin = {hist.n_psd[i]})"
    )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

# the six informative minors on their own streams, at two budgets
_PAIRED_MINORS = dict(
    minors={"delete:1": 9110, "delete:2": 9111, "delete:3": 9112,
            "delete:4": 9113, "pair:2,3": 9114, "pair:1,4": 9115},
    grid=_XI_GRID, z_max=3.0,
    pairs=(("delete:1", "delete:4"), ("delete:2", "delete:3")),
)

CHECKS = [
    # analytic layer
    Check("jacobian-normalization", "quick", _density_normalization,
          dict(tol=1e-12, bound=1e-11)),
    Check("jacobian-series-overlap", "quick", _series_overlap, dict(bound=1e-9)),
    Check("jacobian-general-beta-matches-closed-form", "quick", _general_beta_grid,
          dict(tol=1e-12, bound=1e-9)),
    Check("jacobian-general-beta-pointwise", "quick", _general_beta_points,
          dict(xs=(0.25, 1.0, 2.5), tol=1e-10, bound=1e-8)),
    Check("bound-table", "quick", _bound_table,
          dict(tol=1e-10, bound=1e-8, product_bound=1e-5)),
    Check("even-shortcut-consistency", "quick", _half_line_doubling,
          dict(tol=1e-12, bound=1e-11)),
    Check("quadrature-error-estimate-valid", "quick", _error_estimate_valid),
    Check("beta2-speculation", "quick", _beta2_speculation, dict(tol=1e-6, bound=2e-6)),
    Check("isotropic-mixture-threshold", "quick", _isotropic_mixture),
    Check("curve-evenness-and-ordering", "quick", _curve_evenness_and_ordering,
          dict(bound=1e-13)),
    Check("pt-involution", "quick", _pt_involution, dict(seed=9107, n=2000, states=300)),
    Check("pt-minor-implications", "quick", _pt_minor_implications,
          dict(seed=9108, n=5_600_000, states=1_000_000, tol=1e-10)),
    # sampling layer
    Check("stream-skippability", "quick", _stream_skippability),
    Check("low-discrepancy-spread", "quick", _star_discrepancy, dict(seed=7, n=64)),
    Check("diagonal-marginal-moments", "quick", _diagonal_moments,
          dict(seed=202, n=200_000, z_max=5.0)),
    Check("xi-distribution-matches-density", "quick", _xi_histogram,
          dict(seed=303, n=400_000, z_max=4.0)),
    Check("xi-distribution-matches-density-1e6", "quick", _xi_histogram,
          dict(seed=9109, n=1_000_000, z_max=4.0)),
    Check("xi-distribution-matches-density-large", "full", _xi_histogram,
          dict(seed=304, n=4_000_000, z_max=4.0)),
    # estimator layer
    Check("separable-fraction-smoke", "quick", _fraction,
          dict(target="sep", seed=404, n=200_000,
               ref=REFERENCES["sep_probability"], z_max=5.0)),
    Check("separable-fraction-window", "quick", _fraction,
          dict(target="sep", seed=9104, n=1_000_000, window=(0.4455, 0.4605))),
    Check("separable-fraction-window-large", "full", _fraction,
          dict(target="sep", seed=9104, n=10_000_000, window=(0.4455, 0.4605))),
    Check("separable-fraction", "full", _fraction,
          dict(target="sep", seed=1404, n=10_000_000,
               ref=REFERENCES["sep_probability"], z_max=3.0)),
    Check("absolutely-separable-fraction-smoke", "quick", _fraction,
          dict(target="abs_sep", seed=505, n=200_000,
               ref=REFERENCES["abs_sep_probability"], z_max=5.0)),
    Check("absolutely-separable-fraction-1e6", "quick", _fraction,
          dict(target="abs_sep", seed=9105, n=1_000_000,
               ref=REFERENCES["abs_sep_probability"], z_max=5.0)),
    Check("absolutely-separable-fraction-1e7", "full", _fraction,
          dict(target="abs_sep", seed=9105, n=10_000_000,
               ref=REFERENCES["abs_sep_probability"], z_max=5.0)),
    Check("absolutely-separable-fraction", "full", _fraction,
          dict(target="abs_sep", seed=1505, n=10_000_000,
               ref=REFERENCES["abs_sep_probability"], z_max=3.0)),
    Check("histogram-sum-identity", "quick", _histogram_sum_identity,
          dict(seed=606, n=200_000)),
    Check("curve-reconstruction-consistency", "quick", _curve_reconstruction,
          dict(seed=707, n=400_000)),
    Check("stderr-scaling", "quick", _stderr_scaling, dict(seed=808, n=100_000, bound=0.6)),
    Check("worker-count-invariance", "quick", _worker_invariance, dict(seed=909, n=300_000)),
    Check("worker-count-invariance-multibatch", "full", _worker_invariance,
          dict(seed=909, n=3 * 2**20 + 12_345)),  # four batches of BATCH_SIZE
    Check("minor-branch-smoke", "quick", _minor_curves,
          dict(minors={"delete:4": 111}, n=200_000, grid=(0.5,), z_max=5.0)),
    Check("minor-curves-and-pairs", "quick", _minor_curves,
          dict(_PAIRED_MINORS, n=1_000_000)),
    Check("minor-curves-and-pairs-large", "full", _minor_curves,
          dict(_PAIRED_MINORS, n=10_000_000)),
    Check("minor-branch-calibration", "full", _minor_curves,
          dict(minors={"delete:1": 7001, "delete:2": 7002, "delete:3": 7003,
                       "delete:4": 7004, "pair:1,4": 7005, "pair:2,3": 7006},
               n=10_000_000, grid=_XI_GRID, z_max=3.0)),
    Check("low-discrepancy-beats-prng-smoke", "quick", _lds_vs_prng,
          dict(seed=212, n=400_000)),
    Check("low-discrepancy-beats-prng", "full", _lds_vs_prng, dict(seed=212, n=1_000_000)),
    Check("desf-intercept-exact-xi", "quick", _desf_intercept_exact_xi,
          dict(seed=9116, n=2**20, z_max=3.0)),
    Check("desf-intercept-601-bins", "quick", _desf_intercept,
          dict(seed=9106, n=10_000_000, bins=601, z_max=3.0, observed_sigma=True)),
    Check("desf-intercept-601-bins-large", "full", _desf_intercept,
          dict(seed=9106, n=100_000_000, bins=601, z_max=3.0, observed_sigma=True)),
    Check("desf-intercept", "full", _desf_intercept,
          dict(seed=1606, n=100_000_000, bins=401, z_max=3.0)),
]


def run_checks(level: str = "quick", *, workers: int = 1, report=None):
    """Run the registry rows of ``level``; returns one CheckResult per row.

    ``full`` runs the quick rows too.  ``report``, when given, is called
    with each result as soon as its check finishes.  A check that raises
    is reported as failed, with the exception in its detail.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    results = []
    for check in CHECKS:
        if check.level == "full" and level != "full":
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = check.fn(workers, **check.params)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        result = CheckResult(check.name, bool(passed), detail, time.perf_counter() - t0)
        results.append(result)
        if report is not None:
            report(result)
    return results
