"""Estimator-layer tests: tallies, histograms, minors, comparisons."""

import math
import time

import numpy as np
import pytest

import sepscope.estimator as estimator
from sepscope.errors import InsufficientSamplesError
from sepscope.estimator import (
    DesfHistogram,
    compare_curves,
    estimate_abs_sep_probability,
    estimate_desf,
    estimate_minor_desf,
    estimate_sep_probability,
)
from sepscope.qstate import assemble_states, corr_minor, pt_correlations, z_psd_mask
from sepscope.quadrature import integrate_real_line
from sepscope.sampling import SequenceSpec, next_points
from sepscope.sepfun import eval_desf_array, jacobian_xi
from sepscope.verify import _MINORS


def _prng(seed, dimension=9):
    return SequenceSpec("pseudo_random", seed, dimension=dimension)


def _lds(seed, dimension=9):
    return SequenceSpec("low_discrepancy", seed, dimension=dimension)


# ---------------------------------------------------------------------------
# EstimateResult
# ---------------------------------------------------------------------------


def test_from_counts_math():
    res = estimator._estimate_result([(100, 30)], 400)
    assert res.mean == 0.3
    assert res.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 100), abs=1e-15)
    assert res.ci95 == (res.mean - 2 * res.stderr, res.mean + 2 * res.stderr)
    assert res.n_effective == 100 and res.n_total == 400
    assert res.replicate_means is None
    zero = estimator._estimate_result([(50, 0)], 50)
    assert zero.mean == 0.0 and zero.stderr == 0.0


def test_from_counts_requires_conditioning_samples():
    with pytest.raises(InsufficientSamplesError):
        estimator._estimate_result([(0, 0)], 5)
    with pytest.raises(InsufficientSamplesError):
        estimator._estimate_result([(40, 10), (0, 0), (40, 12)], 300)


def test_binomial_se_is_the_ratio_formula():
    for p, n in ((0.3, 100), (0.4528, 123_457), (1.0 / 3.0, 7)):
        assert estimator._binomial_se(p, n) == math.sqrt(p * (1 - p) / n)
    assert math.isnan(estimator._binomial_se(0.5, 0))
    assert math.isnan(estimator._binomial_se(float("nan"), 10))
    got = estimator._binomial_se(np.array([0.25, np.nan, 0.5]), np.array([8, 8, 0]))
    assert got[0] == math.sqrt(0.25 * 0.75 / 8) and np.isnan(got[1:]).all()


def test_run_batches_returns_tallies_in_task_order():
    """Later tasks finish first here, yet the tallies come back in task order."""

    def kernel(spec, offset, size):
        time.sleep(0.002 * (8 - offset))
        return (spec, offset, size)

    tasks = [("s", k, 10 + k) for k in range(8)]
    assert estimator._run_batches(tasks, kernel, 3) == tasks


# ---------------------------------------------------------------------------
# Scalar estimators
# ---------------------------------------------------------------------------


def test_estimator_input_validation():
    with pytest.raises(ValueError):
        estimate_sep_probability(_prng(0), 0)
    with pytest.raises(ValueError):
        estimate_sep_probability(_prng(0, dimension=6), 1000)
    with pytest.raises(ValueError):
        estimate_sep_probability(_prng(0), 1000, replicates=0)
    with pytest.raises(ValueError):
        estimate_sep_probability(_prng(0), 4, replicates=8)  # n too small
    with pytest.raises(ValueError):
        estimate_sep_probability(_prng(0), 1000, workers=0)


def test_reruns_are_bit_identical():
    a = estimate_sep_probability(_prng(61), 50_000)
    b = estimate_sep_probability(_prng(61), 50_000)
    assert a == b


def test_worker_count_never_changes_tallies(monkeypatch):
    # shrink the batch size so a small n spans many batches
    monkeypatch.setattr(estimator, "BATCH_SIZE", 4096)
    runs = [
        estimate_sep_probability(_prng(62), 20_000, workers=w) for w in (1, 2, 4)
    ]
    assert runs[0] == runs[1] == runs[2]


def test_batch_size_never_changes_tallies(monkeypatch):
    # skippability means the partition into batches is invisible
    big = estimate_sep_probability(_prng(63), 20_000)
    monkeypatch.setattr(estimator, "BATCH_SIZE", 1 << 12)
    small = estimate_sep_probability(_prng(63), 20_000, workers=3)
    assert big == small


def _fields(result):
    return tuple(
        v.tolist() if isinstance(v, np.ndarray) else v for v in vars(result).values()
    )


_PARTITIONED_RUNS = {
    "abs-sep": lambda w: _fields(estimate_abs_sep_probability(_prng(66), 20_000, workers=w)),
    "desf-prng": lambda w: _fields(estimate_desf(_prng(67), 20_000, bins=15, workers=w)),
    "desf-lds": lambda w: _fields(estimate_desf(_lds(67), 20_000, bins=15, workers=w)),
    "minor": lambda w: _fields(estimate_minor_desf(
        _prng(68, dimension=6), 20_000, (0, 2, 3),
        [-1.0, 0.0, 0.5], workers=w)),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batch_size", [1000, 4096, 7919])
@pytest.mark.parametrize("run", _PARTITIONED_RUNS.values(), ids=_PARTITIONED_RUNS.keys())
def test_batch_partition_never_changes_tallies(monkeypatch, run, batch_size, workers):
    whole = run(1)  # 20_000 points fit in one default batch
    monkeypatch.setattr(estimator, "BATCH_SIZE", batch_size)
    assert run(workers) == whole


def test_batch_plan_covers_range(monkeypatch):
    monkeypatch.setattr(estimator, "BATCH_SIZE", 1000)
    plan = estimator._batch_plan(2501)
    assert plan == [(0, 1000), (1000, 1000), (2000, 501)]


def test_all_separable_when_constraint_is_disabled(monkeypatch):
    """With the partial-transpose determinant forced positive, the estimate
    must be exactly 1: conditioning and counting share one sample set."""
    monkeypatch.setattr(
        estimator, "pt_corr_det4", lambda z, xi: np.ones(len(z))
    )
    res = estimate_sep_probability(_prng(64), 30_000)
    assert res.mean == 1.0
    assert res.n_effective > 0


def test_positive_rows_split_each_point(monkeypatch):
    """The batch stage is the one place that splits a cube point: z = 2u - 1
    of the last six coordinates, the stick coordinates before them, and
    only the rows whose z is positive survive."""
    pts = np.vstack([np.full((1, 9), 0.5), next_points(_prng(5), 10_000)])
    monkeypatch.setattr(estimator, "next_points", lambda spec, n, offset: pts)
    sticks, z = estimator._positive_rows(_prng(5), 0, len(pts))
    assert np.array_equal(z[0], np.zeros(6))  # u = 0.5 maps to the center
    assert np.array_equal(sticks[0], np.full(3, 0.5))
    assert np.all((z >= -1.0) & (z <= 1.0))
    keep = z_psd_mask(2.0 * pts[:, 3:] - 1.0)
    assert 0 < keep.sum() < len(pts)
    assert np.array_equal(sticks, pts[keep, :3])
    assert np.array_equal(z, 2.0 * pts[keep, 3:] - 1.0)
    # a 6-d point is all correlations: no sticks to carry
    monkeypatch.setattr(estimator, "next_points", lambda spec, n, offset: pts[:, 3:])
    sticks6, z6 = estimator._positive_rows(_prng(5, dimension=6), 0, len(pts))
    assert sticks6.shape == (len(z), 0) and np.array_equal(z6, z)


def test_only_positive_points_are_mapped(monkeypatch):
    """The diagonal map runs on the survivors of the positivity mask alone:
    summed over every batch, its rows equal the conditioning count."""
    monkeypatch.setattr(estimator, "BATCH_SIZE", 4096)
    mapped = []
    real_map = estimator.cube_to_bloore_batch

    def counting_map(points):
        mapped.append(len(points))
        return real_map(points)

    monkeypatch.setattr(estimator, "cube_to_bloore_batch", counting_map)
    hist = estimate_desf(_lds(31), 20_000, bins=15, workers=2)
    assert len(mapped) == 5  # one map call per batch
    assert sum(mapped) == hist.n_psd.sum() + hist.n_psd_outside
    mapped.clear()
    res = estimate_sep_probability(_prng(31), 20_000, workers=2)
    assert len(mapped) == 5
    assert sum(mapped) == res.n_effective


def _tally(res):
    return (res.n_effective, round(res.mean * res.n_effective))


def test_tallies_are_pinned(monkeypatch):
    """Exact integer tallies recorded from a known-good build, over several
    batches.  The invariance tests compare the code only with itself; these
    literals catch any restructure that changes what is counted."""
    monkeypatch.setattr(estimator, "BATCH_SIZE", 4096)
    prng, lds = _prng(2718), _lds(2718)
    assert _tally(estimate_sep_probability(prng, 10_000, workers=2)) == (1808, 797)
    assert _tally(estimate_abs_sep_probability(prng, 10_000, workers=2)) == (1808, 62)

    reps = [(907, 428), (943, 418), (913, 416), (917, 411),
            (933, 404), (922, 417), (898, 421), (931, 428)]
    for r, want in enumerate(reps):
        one = estimate_sep_probability(lds.spawn(r), 5000, replicates=1)
        assert _tally(one) == want, f"replicate {r}"
    pooled = estimate_sep_probability(lds, 40_000, workers=2)
    assert pooled.replicate_means == tuple(h / e for e, h in reps)
    assert pooled.n_effective == sum(e for e, _ in reps)

    desf = {
        prng: ([9, 20, 44, 83, 140, 202, 253, 278, 252, 203, 149, 86, 35, 28, 11],
               [1, 1, 11, 21, 55, 93, 140, 163, 137, 89, 40, 28, 12, 4, 2], 15, 0),
        lds: ([17, 19, 37, 87, 131, 230, 243, 299, 276, 213, 142, 83, 44, 17, 12],
              [3, 5, 7, 27, 39, 104, 139, 174, 161, 92, 54, 24, 4, 4, 0], 16, 2),
    }
    for spec, (n_psd, n_sep, out_psd, out_sep) in desf.items():
        hist = estimate_desf(spec, 10_000, bins=15, ximax=2.0, workers=2)
        assert hist.n_psd.tolist() == n_psd and hist.n_sep.tolist() == n_sep
        assert (hist.n_psd_outside, hist.n_sep_outside) == (out_psd, out_sep)

    minor = estimate_minor_desf(
        _prng(2718, dimension=6), 10_000, (1, 2, 3),
        [-1.0, -0.5, 0.0, 0.5, 1.0], workers=2,
    )
    assert minor.n_psd == 1841
    assert minor.n_event.tolist() == [1748, 1717, 1593, 1186, 780]


def test_absolute_separability_is_rarer():
    sep = estimate_sep_probability(_prng(65), 60_000)
    ab = estimate_abs_sep_probability(_prng(65), 60_000)
    assert ab.n_effective == sep.n_effective  # same conditioning stream
    assert ab.mean < sep.mean


def test_stderr_shrinks_with_sample_size():
    small = estimate_sep_probability(_prng(66), 50_000)
    large = estimate_sep_probability(_prng(66), 200_000)
    assert large.stderr <= 0.6 * small.stderr


def test_replicate_pooling():
    res = estimate_sep_probability(_prng(67), 60_000, replicates=3)
    means = np.asarray(res.replicate_means)
    assert means.shape == (3,)
    assert res.mean == pytest.approx(means.mean(), abs=1e-15)
    assert res.stderr == pytest.approx(means.std(ddof=1) / math.sqrt(3), abs=1e-15)
    assert res.n_total == 60_000  # 3 * (60000 // 3)


def test_low_discrepancy_defaults_to_replicates():
    res = estimate_sep_probability(_lds(68), 40_000)
    assert res.replicate_means is not None and len(res.replicate_means) == 8
    # an unscrambled net has no scrambling to replicate over
    res1 = estimate_sep_probability(
        SequenceSpec("low_discrepancy", 68, scramble=False), 40_000
    )
    assert res1.replicate_means is None


@pytest.mark.parametrize("estimate", [estimate_sep_probability,
                                      estimate_abs_sep_probability])
def test_unscrambled_net_refuses_replicates(estimate):
    """``spawn`` changes only the seed, which an unscrambled net ignores, so
    its replicates would be one stream pooled with itself (stderr 0)."""
    spec = SequenceSpec("low_discrepancy", 68, scramble=False)
    with pytest.raises(ValueError, match="unscrambled"):
        estimate(spec, 4096, replicates=4)
    assert estimate(spec, 4096, replicates=1).replicate_means is None


# ---------------------------------------------------------------------------
# DESF histogram
# ---------------------------------------------------------------------------


def test_histogram_mechanics():
    hist = DesfHistogram(
        bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
        n_psd=np.array([10, 0, 40]),
        n_sep=np.array([5, 0, 10]),
        n_psd_outside=7,
        n_sep_outside=3,
        n_total=100,
    )
    assert np.array_equal(hist.xi_mid, [0.5, 1.5, 2.5])
    assert hist.ratio[0] == 0.5 and hist.ratio[2] == 0.25
    assert np.isnan(hist.ratio[1]) and np.isnan(hist.stderr[1])
    assert hist.stderr[2] == pytest.approx(math.sqrt(0.25 * 0.75 / 40), abs=1e-15)
    assert hist.bin_index(0.0) == 0  # bins are [lo, hi)
    assert hist.bin_index(1.0) == 1
    assert hist.bin_index(2.999) == 2
    for outside in (3.0, -0.1, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            hist.bin_index(outside)


def test_ratio_at_half_open_bins():
    """The histogram as a curve: constant on each half-open bin [lo, hi),
    0 on an empty bin and 0 outside the binned range."""
    hist = DesfHistogram(
        bin_edges=np.array([0.0, 1.0, 2.0, 3.0]),
        n_psd=np.array([10, 5, 0]),
        n_sep=np.array([3, 3, 0]),
        n_psd_outside=0,
        n_sep_outside=0,
        n_total=100,
    )
    xs = np.array([-0.1, 0.0, 0.5, 1.0 - 1e-12, 1.0, 1.999, 2.0, 2.5, 3.0, 3.5, np.nan,
                   np.inf, -np.inf])
    expect = np.array([0.0, 0.3, 0.3, 0.3, 0.6, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(hist.ratio_at(xs), expect)
    assert hist.ratio_at(1.0) == 0.6  # bins are [lo, hi)
    assert np.shape(hist.ratio_at(1.0)) == ()


def test_estimate_desf_validation():
    with pytest.raises(ValueError):
        estimate_desf(_prng(0), 1000, bins=1)
    with pytest.raises(ValueError):
        estimate_desf(_prng(0), 1000, ximax=0.0)
    with pytest.raises(ValueError):
        estimate_desf(_prng(0), 1000, ximax=np.inf)
    with pytest.raises(ValueError):
        estimate_desf(_prng(0, dimension=6), 1000)
    with pytest.raises(ValueError):
        estimate_desf(_prng(0), 0)


def test_histogram_counts_add_up():
    spec = _prng(71)
    n = 150_000
    hist = estimate_desf(spec, n, bins=41)
    direct = estimate_sep_probability(spec, n)
    n_psd = hist.n_psd.sum() + hist.n_psd_outside
    n_sep = hist.n_sep.sum() + hist.n_sep_outside
    assert n_psd == direct.n_effective
    assert n_sep / n_psd == direct.mean  # identical integer tallies
    assert hist.n_total == n


def test_histogram_respects_the_envelope_bound():
    """Every bin's separable fraction must sit at or below the 3x3-minor
    envelope curve: the minor condition is necessary for separability."""
    hist = estimate_desf(_prng(72), 200_000, bins=61, ximax=6.0)
    ref = eval_desf_array("int", hist.xi_mid)
    ok = hist.n_psd >= 20
    z = (hist.ratio[ok] - ref[ok]) / hist.stderr[ok]
    assert np.max(z) < 3.0


def test_histogram_is_statistically_even():
    hist = estimate_desf(_prng(72), 200_000, bins=61, ximax=6.0)
    r, se, npsd = hist.ratio, hist.stderr, hist.n_psd
    m = len(r)
    for i in range(m // 2):
        j = m - 1 - i
        if npsd[i] >= 20 and npsd[j] >= 20:
            z = abs(r[i] - r[j]) / math.hypot(se[i], se[j])
            assert z < 4.0, f"bins {i}/{j}"


def test_histogram_curve_integral_matches_direct_estimate():
    spec = _prng(73)
    n = 200_000
    hist = estimate_desf(spec, n, bins=61, ximax=6.0)
    direct = estimate_sep_probability(spec, n)
    via = integrate_real_line(
        lambda x: hist.ratio_at(x) * jacobian_xi(x), 1e-9, breakpoints=hist.bin_edges
    )
    assert abs(via.value - direct.mean) <= 2.0 * direct.stderr + 1e-3


# ---------------------------------------------------------------------------
# Principal minors of the partial transpose
# ---------------------------------------------------------------------------


def test_minor_branch_table():
    """Each label keeps the rows it names (1-based; "delete:k" drops row k),
    and its curve is a right branch exactly when the minor holds the (2, 3)
    slot of the partial transpose, a left branch when it holds (1, 4)."""
    assert {label: tag for label, (_, tag) in _MINORS.items()} == {
        "delete:1": "three_right", "delete:4": "three_right",
        "delete:2": "three_left", "delete:3": "three_left",
        "pair:2,3": "two_right", "pair:1,4": "two_left",
    }
    for label, (rows, tag) in _MINORS.items():
        kind, index = label.split(":")
        named = [int(i) - 1 for i in index.split(",")]
        kept = named if kind == "pair" else [i for i in range(4) if i != named[0]]
        assert list(rows) == kept, label
        assert tag.endswith("_right") == ({1, 2} <= set(rows)), label
        assert tag.endswith("_left") == ({0, 3} <= set(rows)), label


def _event(z, xi, rows):
    return corr_minor(pt_correlations(z, xi), rows) >= 0.0


def _pt_submatrix_sign(diag, z, rows):
    """Oracle: assemble the state, partially transpose it densely, and take
    the principal minor on ``rows`` with dense linear algebra."""
    states = assemble_states(diag, z)
    pt = states.copy()
    pt[:, 0, 3], pt[:, 1, 2] = states[:, 1, 2], states[:, 0, 3]
    pt[:, 3, 0], pt[:, 2, 1] = states[:, 2, 1], states[:, 3, 0]
    sub = pt[:, rows][:, :, rows]
    return np.linalg.det(sub)


def _two_diagonals_for_xi(xi, n):
    e = math.exp(xi)
    a, b = e / (2 * (1 + e)), 1 / (2 * (1 + e))
    d1 = np.tile([a, b, b, a], (n, 1))
    e2 = math.exp(2 * xi)
    d2 = np.tile([e2, 1.0, 1.0, 1.0], (n, 1)) / (3.0 + e2)
    return d1, d2


_ORACLE_ROWS = {
    "delete:1": (1, 2, 3), "delete:2": (0, 2, 3), "delete:3": (0, 1, 3),
    "delete:4": (0, 1, 2), "pair:2,3": (1, 2), "pair:1,4": (0, 3),
    "pair:1,3": (0, 2), "full": (0, 1, 2, 3),
}


@pytest.mark.parametrize("rows", _ORACLE_ROWS.values(), ids=_ORACLE_ROWS.keys())
def test_minor_event_mask_matches_dense_oracle(rows):
    """The correlation-space event on ``rows`` agrees with the dense minor of
    the partially transposed state (its determinant for all four rows) for
    two different diagonals realizing the same xi."""
    rng = np.random.default_rng(hash(rows) % 2**32)
    z = rng.uniform(-1, 1, size=(20_000, 6))
    z = z[z_psd_mask(z)]
    for xi in (-0.8, 0.0, 1.3):
        mask = _event(z, xi, rows)
        for diag in _two_diagonals_for_xi(xi, len(z)):
            det = _pt_submatrix_sign(diag, z, list(rows))
            clear = np.abs(det) > 1e-15
            assert np.array_equal(mask[clear], det[clear] >= 0)


def test_delete_minors_are_pairwise_equivalent():
    """Relabeling the basis by (1,2,3,4) -> (4,3,2,1) preserves xi and the
    positivity body while swapping delete:1 with delete:4 and delete:2 with
    delete:3, so each pair follows one law exactly."""
    rng = np.random.default_rng(74)
    z = rng.uniform(-1, 1, size=(30_000, 6))
    z_r = z[:, [5, 4, 2, 3, 1, 0]]
    assert np.array_equal(z_psd_mask(z_r), z_psd_mask(z))
    for xi in (-1.0, 0.3, 2.0):
        d1 = _event(z, xi, (1, 2, 3))
        d4 = _event(z_r, xi, (0, 1, 2))
        assert np.array_equal(d1, d4)
        d2 = _event(z, xi, (0, 2, 3))
        d3 = _event(z_r, xi, (0, 1, 3))
        assert np.array_equal(d2, d3)


def test_estimate_minor_desf_validation():
    minor = (1, 2, 3)
    with pytest.raises(ValueError):
        estimate_minor_desf(_prng(0), 1000, minor, [0.0])  # needs dimension 6
    spec = _prng(0, dimension=6)
    for rows in [(1,), (2, 1), (1, 1), (0, 4), (-1, 2), (0, 1, 2, 3, 3), ()]:
        with pytest.raises(ValueError, match="rows must be"):
            estimate_minor_desf(spec, 1000, rows, [0.0])
    with pytest.raises(ValueError):
        estimate_minor_desf(spec, 0, minor, [0.0])
    with pytest.raises(ValueError):
        estimate_minor_desf(spec, 1000, minor, [])
    with pytest.raises(ValueError):
        estimate_minor_desf(spec, 1000, minor, [0.5, 0.5])
    with pytest.raises(ValueError):
        estimate_minor_desf(spec, 1000, minor, [np.nan])


def test_estimate_minor_desf_nothing_survives(monkeypatch):
    monkeypatch.setattr(
        estimator, "z_psd_mask", lambda z: np.zeros(len(z), dtype=bool)
    )
    with pytest.raises(InsufficientSamplesError):
        estimate_minor_desf(
            _prng(0, dimension=6), 100, (1, 2, 3), [0.0]
        )


def test_minor_estimates_track_their_curves():
    grid = [-1.0, 0.0, 1.0]
    est = estimate_minor_desf(
        _prng(881, dimension=6), 200_000, (1, 2, 3), grid
    )
    assert np.array_equal(est.xi, grid)
    for i, xi in enumerate(grid):
        ref = eval_desf_array("three_right", xi)
        z = (est.ratio[i] - ref) / est.stderr[i]
        assert abs(z) < 4.0, f"xi = {xi}"


def test_box_minor_is_certain_on_its_easy_side():
    """The 2x2 minor on rows (1, 2) scales a correlation by e^xi, so for
    xi < 0 it cannot fail; the estimate is exactly 1 with zero spread."""
    est = estimate_minor_desf(
        _prng(882, dimension=6), 50_000, (1, 2),
        [-0.5, 0.25],
    )
    assert est.ratio[0] == 1.0
    assert est.stderr[0] == 0.0
    ref = eval_desf_array("two_right", 0.25)
    assert abs(est.ratio[1] - ref) / est.stderr[1] < 4.0


# ---------------------------------------------------------------------------
# Curve comparison
# ---------------------------------------------------------------------------


def test_compare_curves_separates_right_from_wrong():
    hist = estimate_desf(_prng(73), 200_000, bins=61, ximax=6.0)
    good = compare_curves(hist, eval_desf_array("conjecture", hist.xi_mid), min_count=20)
    wrong = compare_curves(hist, eval_desf_array("int", hist.xi_mid), min_count=20)
    assert good.max_abs_z < 4.0
    assert wrong.max_abs_z > 10.0


def test_compare_curves_flat_reference_bins():
    hist = DesfHistogram(
        bin_edges=np.array([-0.5, 0.5, 1.5]),
        n_psd=np.array([100, 100]),
        n_sep=np.array([100, 90]),
        n_psd_outside=0,
        n_sep_outside=0,
        n_total=1000,
    )
    # two_left is exactly 1 for xi >= 0, a reference of zero binomial width
    cmp_ = compare_curves(hist, eval_desf_array("two_left", hist.xi_mid))
    assert cmp_.zscore[0] == 0.0  # residual zero on a flat bin
    assert np.isinf(cmp_.zscore[1])  # any miss on a flat bin is infinite

