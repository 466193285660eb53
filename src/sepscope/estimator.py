"""Monte Carlo / quasi-Monte Carlo estimators over the Hilbert-Schmidt body.

Every estimator here follows one discipline:

* each replicate's sample stream is partitioned into fixed-size batches of
  ``2**20`` points, fixed by ``n`` alone;
* each batch reduces to *integer* tallies (counts of positive, separable,
  per-bin, per-grid-point events);
* tallies merge in plan order.

One driver (``_estimate``) plans and merges the batches of all four
estimators.  ``_run_batches`` runs them: it maps a kernel over ``(spec,
offset, size)`` tasks and returns the tallies in task order, and
``_estimate`` sums each replicate's tallies in that order.  ``verify`` draws
its sample of states through ``_run_batches`` too.  Every batch starts with
one survivor-first stage (``_positive_rows``), the one place that splits a
cube point: stream -> correlations ``z = 2u - 1`` of the last six
coordinates -> positivity mask, keeping the stick coordinates and ``z`` of
the points whose ``z`` is a positive correlation matrix.  Positivity never
depends on the diagonal, so the state estimators map only those survivors'
sticks to their diagonal (``_states``), about 18% of the stream, before the
separability test and the tally; the minor estimator takes the survivors'
``z`` and skips the map.  The map is row-wise, so masking first changes no
tally.

Because batch boundaries are fixed by ``n`` alone and integer sums do not
depend on execution order, results are byte-identical no matter how many
worker threads execute the batches.  Statistics (means, standard errors)
are formed only after the merge: every sampled number is a ratio of
positives, whose binomial error ``_binomial_se`` states once.

Probabilities are conditional on positivity: points of the parameter cube
that land outside the positive-semidefinite body are generated but excluded
from the denominator, mirroring how the flat measure on the cube restricts
to the normalized Hilbert-Schmidt measure on states.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamplesError
from .qstate import (
    abs_separable_mask,
    assemble_states,
    corr_minor,
    pt_corr_det4,
    pt_correlations,
    xi_from_diag,
    z_psd_mask,
)
from .sampling import SequenceSpec, cube_to_bloore_batch, next_points

__all__ = [
    "EstimateResult",
    "DesfHistogram",
    "MinorGridEstimate",
    "estimate_sep_probability",
    "estimate_abs_sep_probability",
    "estimate_desf",
    "estimate_minor_desf",
    "CurveComparison",
    "compare_curves",
]

#: Fixed batch size; a power of two so low-discrepancy prefixes stay balanced.
BATCH_SIZE = 1 << 20


@dataclass(frozen=True)
class EstimateResult:
    """A conditional-probability estimate.

    ``n_effective`` counts the samples that satisfied the conditioning
    event (the denominator); ``n_total`` counts raw stream points.
    ``replicate_means`` is populated only when the estimate pooled
    independent replicates.  ``ci95``, the two-standard-error interval, is
    derived from ``mean`` and ``stderr``.
    """

    mean: float
    stderr: float
    n_effective: int
    n_total: int
    replicate_means: tuple = None

    @property
    def ci95(self) -> tuple:
        return (self.mean - 2.0 * self.stderr, self.mean + 2.0 * self.stderr)


def _binomial_se(p, n):
    """Binomial standard error of a ratio ``p`` of ``n`` trials (scalars or
    arrays; a scalar gives a float): NaN where ``p`` is NaN or ``n`` is 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.where(np.asarray(n) > 0, np.sqrt(p * (1.0 - p) / n), np.nan)
    return se if se.ndim else float(se)


def _estimate_result(per_rep, n_total: int) -> EstimateResult:
    """The estimate from each replicate's ``(positives, events)`` tally: one
    replicate's ratio with its binomial error, or the mean of several
    replicates' ratios with the standard error of their spread."""
    if any(eff <= 0 for eff, _ in per_rep):
        raise InsufficientSamplesError(
            "no samples of a replicate satisfied the conditioning event; increase n"
        )
    n_eff = sum(eff for eff, _ in per_rep)
    means = [hits / eff for eff, hits in per_rep]
    if len(means) == 1:
        return EstimateResult(means[0], _binomial_se(means[0], n_eff), n_eff, n_total)
    spread = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    return EstimateResult(float(np.mean(means)), spread, n_eff, n_total, tuple(means))


def _batch_plan(n: int):
    """Fixed partition of ``range(n)`` into (offset, size) batches."""
    return [(off, min(BATCH_SIZE, n - off)) for off in range(0, n, BATCH_SIZE)]


def _run_batches(tasks, kernel, workers: int):
    """Run ``kernel(spec, offset, size)`` for every ``(spec, offset, size)``
    task; returns the tallies in task order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: kernel(*task), tasks))


def _estimate(spec, n, dimension, kernel, workers, replicates=1):
    """The one batch driver: plan, run and merge every estimator's batches.

    Replicate ``r`` of a pooled estimate reads ``n // replicates`` points of
    its own stream ``spec.spawn(r)``.  Returns the merged tally of each
    replicate, in replicate order, and the number of stream points read.
    """
    if spec.dimension != dimension:
        raise ValueError(
            f"this estimator needs a {dimension}-dimensional sequence spec"
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    n_per = n // replicates
    if n_per < 1:
        raise ValueError(f"n={n} is too small for {replicates} replicates")
    specs = [spec] if replicates == 1 else [spec.spawn(r) for r in range(replicates)]
    plan = _batch_plan(n_per)
    tallies = _run_batches(
        [(rep_spec, off, size) for rep_spec in specs for off, size in plan],
        kernel, workers,
    )
    per_rep = []
    for start in range(0, len(tallies), len(plan)):
        merged, *rest = tallies[start:start + len(plan)]
        for tally in rest:
            merged = [a + t for a, t in zip(merged, tally)]
        per_rep.append(merged)
    return per_rep, n_per * replicates


def _default_replicates(spec: SequenceSpec) -> int:
    # Scrambled nets have no per-point error theory; independent
    # re-scramblings supply the spread.  A single pseudorandom or
    # unscrambled stream gets the binomial error instead.
    if spec.engine == "low_discrepancy" and spec.scramble:
        return 8
    return 1


def _positive_rows(spec, offset, size):
    """Stream one batch and split it: the stick coordinates, and ``z = 2u - 1``
    of the last six coordinates, of the points whose z is positive."""
    pts = next_points(spec, size, offset)
    z = 2.0 * pts[:, -6:] - 1.0
    keep = z_psd_mask(z)
    return pts[keep, :-6], z[keep]


def _states(spec, offset, size):
    """Stream and mask one batch, then map only its survivors' sticks: the
    ``(diag, z)`` of its positive states."""
    sticks, z = _positive_rows(spec, offset, size)
    return cube_to_bloore_batch(sticks), z


def _pt_separable(diag, z):
    """xi of each state, and whether its partial transpose has a non-negative
    determinant (for two qubits, exactly separability)."""
    xi = xi_from_diag(diag)
    return xi, pt_corr_det4(z, xi) >= 0.0


def _conditional_estimate(spec, n, workers, replicates, test) -> EstimateResult:
    """P(test | positive), each batch tallying (positive states, passing)."""

    def kernel(batch_spec, offset, size):
        diag, z = _states(batch_spec, offset, size)
        return (len(z), int(test(diag, z).sum()))

    if replicates is None:
        replicates = _default_replicates(spec)
    if replicates > 1 and spec.engine == "low_discrepancy" and not spec.scramble:
        # spawn() changes only the seed, which an unscrambled net ignores
        raise ValueError(
            "an unscrambled low-discrepancy stream has one replicate; "
            f"{replicates} would all read the same points"
        )
    return _estimate_result(*_estimate(spec, n, 9, kernel, workers, replicates))


def estimate_sep_probability(
    spec: SequenceSpec, n: int, *, workers: int = 1, replicates: int = None
) -> EstimateResult:
    """P(separable | positive) under the Hilbert-Schmidt measure.

    For two qubits separability is exactly "the partial transpose has
    non-negative determinant", evaluated here on correlation coordinates so
    no eigensolve is needed.  ``n`` is the total cube-point budget, split
    evenly when replicates are pooled.
    """
    return _conditional_estimate(
        spec, n, workers, replicates, lambda diag, z: _pt_separable(diag, z)[1]
    )


def estimate_abs_sep_probability(
    spec: SequenceSpec, n: int, *, workers: int = 1, replicates: int = None
) -> EstimateResult:
    """P(absolutely separable | positive): separable in every global basis.

    Uses the spectral criterion l1 - l3 - 2 sqrt(l2 l4) <= 0 on the ordered
    eigenvalues, so each positive sample costs one symmetric eigensolve.
    """
    return _conditional_estimate(
        spec, n, workers, replicates,
        lambda diag, z: abs_separable_mask(assemble_states(diag, z)),
    )


# ---------------------------------------------------------------------------
# Diagonal-entry separability function (conditional on xi)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesfHistogram:
    """Binned estimate of P(separable | positive, xi).

    Counts falling outside the binned range are kept in the ``*_outside``
    totals so that ``(sum n_sep + n_sep_outside) / (sum n_psd +
    n_psd_outside)`` reproduces the unconditional estimate exactly.
    """

    bin_edges: np.ndarray
    n_psd: np.ndarray
    n_sep: np.ndarray
    n_psd_outside: int
    n_sep_outside: int
    n_total: int

    @property
    def xi_mid(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def ratio(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(self.n_psd > 0, self.n_sep / self.n_psd, np.nan)

    @property
    def stderr(self) -> np.ndarray:
        return _binomial_se(self.ratio, self.n_psd)

    def bin_index(self, x: float) -> int:
        """Index of the half-open bin [lo, hi) containing ``x``."""
        i = int(_bin_of(self.bin_edges, x))
        if i < 0:
            raise ValueError(f"{x} lies outside the binned range")
        return i

    def ratio_at(self, xi) -> np.ndarray:
        """The histogram as a piecewise-constant curve: at each ``xi``
        (scalar or array; the result has its shape) the ratio of the
        half-open bin [lo, hi) holding it, 0 for an empty bin and 0 outside
        the binned range."""
        idx = _bin_of(self.bin_edges, xi)
        values = np.nan_to_num(self.ratio, nan=0.0)
        return np.where(idx >= 0, values[idx], 0.0)


def _bin_of(edges: np.ndarray, x) -> np.ndarray:
    """Index of the half-open bin [edges[k], edges[k+1]) holding each ``x``
    (the result has its shape): -1 outside [edges[0], edges[-1]) and for NaN."""
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.where(idx < len(edges) - 1, idx, -1)


def _make_desf_kernel(edges: np.ndarray):
    nbins = len(edges) - 1

    def kernel(spec, offset, size):
        xi, sep = _pt_separable(*_states(spec, offset, size))
        idx = _bin_of(edges, xi)
        inside = idx >= 0
        h_psd = np.bincount(idx[inside], minlength=nbins).astype(np.int64)
        h_sep = np.bincount(idx[inside & sep], minlength=nbins).astype(np.int64)
        out_psd = int((~inside).sum())
        out_sep = int(sep[~inside].sum())
        return (h_psd, h_sep, out_psd, out_sep)

    return kernel


def estimate_desf(
    spec: SequenceSpec,
    n: int,
    *,
    bins: int = 101,
    ximax: float = 4.0,
    workers: int = 1,
) -> DesfHistogram:
    """Histogram estimate of the separability function of xi.

    Bins are uniform on ``[-ximax, ximax]``.  An odd ``bins`` puts xi = 0 at
    the center of the middle bin, which is what the intercept comparison
    wants.  Always single-stream (no replicate pooling): the per-bin counts
    are themselves the statistic.
    """
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if not (np.isfinite(ximax) and ximax > 0):
        raise ValueError("ximax must be positive and finite")
    edges = np.linspace(-ximax, ximax, bins + 1)
    [tally], _ = _estimate(spec, n, 9, _make_desf_kernel(edges), workers)
    h_psd, h_sep, out_psd, out_sep = tally
    return DesfHistogram(
        bin_edges=edges,
        n_psd=h_psd,
        n_sep=h_sep,
        n_psd_outside=out_psd,
        n_sep_outside=out_sep,
        n_total=n,
    )


# ---------------------------------------------------------------------------
# Principal minors of the partial transpose at exact xi
# ---------------------------------------------------------------------------

def _make_minor_kernel(rows: tuple, xi_grid: np.ndarray):
    """Per batch: the positive states, and at each xi how many of them have a
    non-negative minor on ``rows`` of their partial transpose.  The sign is
    diagonal-free (see ``qstate.pt_correlations``)."""

    def kernel(spec, offset, size):
        _, z = _positive_rows(spec, offset, size)
        counts = [int((corr_minor(pt_correlations(z, xi), rows) >= 0.0).sum())
                  for xi in xi_grid]
        return (len(z), np.asarray(counts, dtype=np.int64))

    return kernel


@dataclass(frozen=True)
class MinorGridEstimate:
    """P(minor >= 0 | positive) at each point of an xi grid.

    Every grid point reuses one conditioning sample: ``n_psd`` positive
    states, of which ``n_event[k]`` satisfy the minor at ``xi[k]``.
    """

    xi: np.ndarray
    n_psd: int
    n_event: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        return self.n_event / self.n_psd

    @property
    def stderr(self) -> np.ndarray:
        return _binomial_se(self.ratio, self.n_psd)


def estimate_minor_desf(
    spec: SequenceSpec,
    n: int,
    rows,
    xi_grid,
    *,
    workers: int = 1,
) -> MinorGridEstimate:
    """P(minor >= 0 | full matrix positive) at each xi in the grid.

    The minor is the principal minor of the partial transpose on the 0-based
    ``rows`` it keeps: two, three or all four strictly increasing indices in
    0..3, so ``(0, 1, 2, 3)`` is the full determinant and its estimate the
    separability function S(xi) itself.

    Samples correlations uniformly on the cube, conditions once on full
    positivity (which does not involve xi — only the constraint does, via
    the scaled entries of the partial transpose), and reuses the surviving
    sample at every grid point.  Estimates are therefore correlated across
    the grid but individually exact conditional binomials.

    ``ratio[k]`` and ``stderr[k]`` of the result are the estimate at
    ``xi_grid[k]``.  Requires a 6-dimensional sequence spec; raises
    :class:`InsufficientSamplesError` if nothing survives the positivity
    conditioning.
    """
    rows = tuple(rows)
    if not 2 <= len(rows) <= 4 or not all(0 <= a < b <= 3 for a, b in zip(rows, rows[1:])):
        raise ValueError(
            f"rows must be 2 to 4 strictly increasing indices in 0..3, got {rows}"
        )
    grid = np.asarray(list(xi_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("xi_grid must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("xi_grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("xi_grid must be strictly increasing")
    kernel = _make_minor_kernel(rows, grid)
    [(n_psd, counts)], _ = _estimate(spec, n, 6, kernel, workers)
    if n_psd <= 0:
        raise InsufficientSamplesError(
            "no samples satisfied the positivity conditioning; increase n"
        )
    return MinorGridEstimate(xi=grid, n_psd=n_psd, n_event=counts)


# ---------------------------------------------------------------------------
# Histogram-versus-curve comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveComparison:
    """Per-bin residuals of a histogram against a reference curve.

    ``zscore`` uses the reference value for the binomial scale; bins with
    fewer than ``min_count`` conditioning samples are excluded (NaN) and
    counted in ``n_skipped``.  A bin whose reference sits exactly at 0 or 1
    has zero binomial width: its z-score is 0 when the residual is 0 and
    infinite otherwise.
    """

    xi_mid: np.ndarray
    residual: np.ndarray
    sigma: np.ndarray
    zscore: np.ndarray
    max_abs_z: float
    mean_signed: float
    n_used: int
    n_skipped: int


def compare_curves(
    hist: DesfHistogram, ref, *, min_count: int = 10
) -> CurveComparison:
    """Compare a DESF histogram with a reference curve: ``ref`` holds the
    curve's values at ``hist.xi_mid``."""
    if min_count < 1:  # an empty bin has no ratio to compare
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    mid = hist.xi_mid
    ref = np.asarray(ref, dtype=float)
    used = hist.n_psd >= min_count
    residual = np.where(used, hist.ratio - ref, np.nan)
    sigma = np.where(used, _binomial_se(ref, hist.n_psd), np.nan)
    z = np.full(mid.shape, np.nan)
    pos = used & (sigma > 0)
    z[pos] = residual[pos] / sigma[pos]
    flat = used & ~(sigma > 0)
    z[flat] = np.where(residual[flat] == 0.0, 0.0, np.inf)
    max_abs = float(np.max(np.abs(z[used]))) if used.any() else float("nan")
    mean_signed = float(np.mean(residual[used])) if used.any() else float("nan")
    return CurveComparison(
        xi_mid=mid,
        residual=residual,
        sigma=sigma,
        zscore=z,
        max_abs_z=max_abs,
        mean_signed=mean_signed,
        n_used=int(used.sum()),
        n_skipped=int((~used).sum()),
    )

