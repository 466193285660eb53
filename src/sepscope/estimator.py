"""Monte Carlo / quasi-Monte Carlo estimators over the Hilbert-Schmidt body.

Every estimator here follows one discipline:

* the sample stream is partitioned into fixed-size batches of ``2**20``
  points addressed by ``(replicate, batch_index)``;
* each batch reduces to *integer* tallies (counts of positive, separable,
  per-bin, per-grid-point events);
* tallies merge in sorted key order.

One driver (``_estimate``) plans, runs and merges the batches of all four
estimators.  Every batch starts with one survivor-first stage
(``_positive_rows``): stream -> correlations ``z = 2u - 1`` -> positivity
mask, keeping only the cube points whose ``z`` is a positive correlation
matrix.  Positivity never depends on the diagonal, so the state estimators
then run the expensive cube-to-state map on those survivors alone
(``_states``), about 18% of the stream, before the separability test and
the tally; the minor estimator takes the survivors' ``z`` and skips the map.
The map is row-wise, so masking first changes no tally.

Because batch boundaries are fixed by ``n`` alone and integer sums do not
depend on execution order, results are byte-identical no matter how many
worker threads execute the batches.  Statistics (means, standard errors)
are formed only after the merge.

Probabilities are conditional on positivity: points of the parameter cube
that land outside the positive-semidefinite body are generated but excluded
from the denominator, mirroring how the flat measure on the cube restricts
to the normalized Hilbert-Schmidt measure on states.
"""

from __future__ import annotations

import math
import re
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
from .sepfun import DesfCurve, eval_desf_array

__all__ = [
    "EstimateResult",
    "DesfHistogram",
    "MinorSelector",
    "MinorGridEstimate",
    "MINOR_BRANCH_TABLE",
    "minor_event_mask",
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
    ``ci95`` is the two-standard-error interval.  ``replicate_means`` is
    populated only when the estimate pooled independent replicates.
    """

    mean: float
    stderr: float
    n_effective: int
    n_total: int
    ci95: tuple
    replicate_means: tuple = None

    @classmethod
    def from_counts(cls, hits: int, n_eff: int, n_total: int) -> "EstimateResult":
        if n_eff <= 0:
            raise InsufficientSamplesError(
                "no samples satisfied the conditioning event; increase n"
            )
        p = hits / n_eff
        se = math.sqrt(p * (1.0 - p) / n_eff)
        return cls(
            mean=p,
            stderr=se,
            n_effective=n_eff,
            n_total=n_total,
            ci95=(p - 2.0 * se, p + 2.0 * se),
        )


def _batch_plan(n: int):
    """Fixed partition of ``range(n)`` into (index, offset, size) batches."""
    plan = []
    idx = 0
    off = 0
    while off < n:
        size = min(BATCH_SIZE, n - off)
        plan.append((idx, off, size))
        idx += 1
        off += size
    return plan


def _run_batches(tasks, kernel, workers: int):
    """Run ``kernel(spec, offset, size)`` for every task and merge tallies.

    ``tasks`` is a list of ``(key, spec, offset, size)``; the merge walks
    keys in sorted order and sums the tally tuples elementwise into a dict
    keyed by the first element of ``key`` (the replicate id).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {
            key: pool.submit(kernel, spec, off, size)
            for key, spec, off, size in tasks
        }
        results = {key: fut.result() for key, fut in futures.items()}
    merged = {}
    for key in sorted(results):
        rep = key[0]
        tally = results[key]
        if rep not in merged:
            merged[rep] = list(tally)
        else:
            acc = merged[rep]
            for i, part in enumerate(tally):
                acc[i] = acc[i] + part
    return merged


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
    tasks = [
        ((rep, idx), rep_spec, off, size)
        for rep, rep_spec in enumerate(specs)
        for idx, off, size in _batch_plan(n_per)
    ]
    merged = _run_batches(tasks, kernel, workers)
    return [merged[rep] for rep in range(replicates)], n_per * replicates


def _default_replicates(spec: SequenceSpec) -> int:
    # Scrambled nets have no per-point error theory; independent
    # re-scramblings supply the spread.  A single pseudorandom or
    # unscrambled stream gets the binomial error instead.
    if spec.engine == "low_discrepancy" and spec.scramble:
        return 8
    return 1


def _pool_replicates(per_rep, n_total: int) -> EstimateResult:
    """Combine per-replicate (n_eff, hits) tallies into one estimate."""
    means = []
    n_eff = 0
    for eff, hits in per_rep:
        if eff <= 0:
            raise InsufficientSamplesError(
                "a replicate produced no conditioning samples; increase n"
            )
        means.append(hits / eff)
        n_eff += eff
    means = np.asarray(means)
    mean = float(means.mean())
    se = float(means.std(ddof=1) / math.sqrt(len(means)))
    return EstimateResult(
        mean=mean,
        stderr=se,
        n_effective=n_eff,
        n_total=n_total,
        ci95=(mean - 2.0 * se, mean + 2.0 * se),
        replicate_means=tuple(float(m) for m in means),
    )


def _positive_rows(spec, offset, size):
    """Stream one batch; return the points whose correlations -- the last six
    coordinates, mapped by ``z = 2u - 1`` -- form a positive state, and their z."""
    pts = next_points(spec, size, offset)
    z = 2.0 * pts[:, -6:] - 1.0
    keep = z_psd_mask(z)
    return pts[keep], z[keep]


def _states(spec, offset, size):
    """Stream and mask one batch, then map only its survivors: the
    ``(diag, z)`` of its positive states."""
    return cube_to_bloore_batch(_positive_rows(spec, offset, size)[0])


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
    per_rep, n_total = _estimate(spec, n, 9, kernel, workers, replicates)
    if replicates == 1:
        n_eff, hits = per_rep[0]
        return EstimateResult.from_counts(hits, n_eff, n_total)
    return _pool_replicates(per_rep, n_total)


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
        with np.errstate(invalid="ignore", divide="ignore"):
            r = self.ratio
            return np.where(
                self.n_psd > 0, np.sqrt(r * (1.0 - r) / self.n_psd), np.nan
            )

    def bin_index(self, x: float) -> int:
        """Index of the half-open bin [lo, hi) containing ``x``."""
        i = int(np.searchsorted(self.bin_edges, x, side="right")) - 1
        if not 0 <= i < len(self.n_psd):
            raise ValueError(f"{x} lies outside the binned range")
        return i

    def to_curve(self) -> DesfCurve:
        """The histogram as an empirical curve (empty bins become 0)."""
        values = np.nan_to_num(self.ratio, nan=0.0)
        return DesfCurve.empirical(self.bin_edges, values)


def _make_desf_kernel(edges: np.ndarray):
    nbins = len(edges) - 1
    lo, hi = edges[0], edges[-1]

    def kernel(spec, offset, size):
        xi, sep = _pt_separable(*_states(spec, offset, size))
        inside = (xi >= lo) & (xi < hi)
        idx = np.searchsorted(edges, xi[inside], side="right") - 1
        h_psd = np.bincount(idx, minlength=nbins).astype(np.int64)
        h_sep = np.bincount(idx[sep[inside]], minlength=nbins).astype(np.int64)
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
# Single principal minors of the partial transpose
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorSelector:
    """Selects one principal minor of the partially transposed matrix.

    ``kind`` is ``"pair"`` (the 2x2 minor on rows/columns ``(i, j)``) or
    ``"delete"`` (the 3x3 minor that removes row/column ``k``).  Indices are
    1-based, matching the usual labelling of the four diagonal entries.
    """

    kind: str
    index: tuple

    def __post_init__(self):
        if self.kind not in ("pair", "delete"):
            raise ValueError(f"kind must be 'pair' or 'delete', got {self.kind!r}")
        idx = tuple(int(v) for v in self.index)
        if self.kind == "pair" and (len(idx) != 2 or not 1 <= idx[0] < idx[1] <= 4):
            raise ValueError(f"pair index must be 1 <= i < j <= 4, got {self.index}")
        if self.kind == "delete" and (len(idx) != 1 or not 1 <= idx[0] <= 4):
            raise ValueError(f"delete index must be a single 1..4, got {self.index}")
        object.__setattr__(self, "index", idx)

    @classmethod
    def parse(cls, text: str) -> "MinorSelector":
        """Parse ``"pair:i,j"`` or ``"delete:k"``."""
        m = re.fullmatch(r"\s*pair\s*:\s*([1-4])\s*,\s*([1-4])\s*", text)
        if m:
            return cls("pair", (int(m.group(1)), int(m.group(2))))
        m = re.fullmatch(r"\s*delete\s*:\s*([1-4])\s*", text)
        if m:
            return cls("delete", (int(m.group(1)),))
        raise ValueError(f"cannot parse minor selector {text!r}")

    @property
    def rows(self) -> tuple:
        """The 0-based rows/columns the minor keeps, in increasing order."""
        if self.kind == "pair":
            return tuple(i - 1 for i in self.index)
        return tuple(i for i in range(4) if i != self.index[0] - 1)

    @property
    def branch_tag(self) -> str:
        """The closed-form curve this minor's conditional probability follows,
        or None for the four pairs the partial transpose leaves untouched."""
        return MINOR_BRANCH_TABLE.get((self.kind, self.index))

    def __str__(self) -> str:
        if self.kind == "pair":
            return f"pair:{self.index[0]},{self.index[1]}"
        return f"delete:{self.index[0]}"


#: Which closed-form branch each informative minor follows: minors holding
#: the (2, 3) slot of ``qstate.pt_correlations`` follow the right-branch
#: curves, those holding its (1, 4) slot the left-branch ones.
MINOR_BRANCH_TABLE = {
    ("delete", (1,)): "three_right",
    ("delete", (4,)): "three_right",
    ("delete", (2,)): "three_left",
    ("delete", (3,)): "three_left",
    ("pair", (2, 3)): "two_right",
    ("pair", (1, 4)): "two_left",
}


def minor_event_mask(z: np.ndarray, xi: float, minor: MinorSelector) -> np.ndarray:
    """Whether the selected minor of the partial transpose is non-negative.

    Works purely in correlation coordinates: the minor of the full matrix is
    the correlation minor times a positive product of diagonal entries, so
    the sign never depends on which diagonal realizes ``xi``.
    """
    s = pt_correlations(np.asarray(z, dtype=float), float(xi))
    return corr_minor(s, minor.rows) >= 0.0


def _make_minor_kernel(minor: MinorSelector, xi_grid: np.ndarray):
    def kernel(spec, offset, size):
        _, z = _positive_rows(spec, offset, size)
        counts = [int(minor_event_mask(z, xi, minor).sum()) for xi in xi_grid]
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
        r = self.ratio
        return np.sqrt(r * (1.0 - r) / self.n_psd)


def estimate_minor_desf(
    spec: SequenceSpec,
    n: int,
    minor: MinorSelector,
    xi_grid,
    *,
    workers: int = 1,
) -> MinorGridEstimate:
    """P(selected minor >= 0 | full matrix positive) at each xi in the grid.

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
    grid = np.asarray(list(xi_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("xi_grid must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("xi_grid must be finite")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("xi_grid must be strictly increasing")
    kernel = _make_minor_kernel(minor, grid)
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
    hist: DesfHistogram, curve: DesfCurve, *, min_count: int = 10
) -> CurveComparison:
    """Compare a DESF histogram with a curve evaluated at bin midpoints."""
    if min_count < 1:  # an empty bin has no ratio to compare
        raise ValueError(f"min_count must be >= 1, got {min_count}")
    mid = hist.xi_mid
    ref = eval_desf_array(curve, mid)
    used = hist.n_psd >= min_count
    residual = np.where(used, hist.ratio - ref, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.where(used, np.sqrt(ref * (1.0 - ref) / hist.n_psd), np.nan)
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

