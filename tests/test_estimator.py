"""Estimator-layer tests: tallies, histograms, minors, comparisons."""

import math

import numpy as np
import pytest

import sepscope.estimator as estimator
from sepscope.errors import InsufficientSamplesError
from sepscope.estimator import (
    MINOR_BRANCH_TABLE,
    CurveComparison,
    DesfHistogram,
    EstimateResult,
    MinorSelector,
    compare_curves,
    estimate_abs_sep_probability,
    estimate_desf,
    estimate_minor_desf,
    estimate_sep_probability,
    minor_event_mask,
)
from sepscope.qstate import assemble_states, z_psd_mask
from sepscope.quadrature import separability_probability
from sepscope.sampling import SequenceSpec
from sepscope.sepfun import DesfCurve, eval_desf, eval_desf_array


def _prng(seed, dimension=9):
    return SequenceSpec("pseudo_random", seed, dimension=dimension)


def _lds(seed, dimension=9):
    return SequenceSpec("low_discrepancy", seed, dimension=dimension)


# ---------------------------------------------------------------------------
# EstimateResult
# ---------------------------------------------------------------------------


def test_from_counts_math():
    res = EstimateResult.from_counts(30, 100, 400)
    assert res.mean == 0.3
    assert res.stderr == pytest.approx(math.sqrt(0.3 * 0.7 / 100), abs=1e-15)
    assert res.ci95 == (res.mean - 2 * res.stderr, res.mean + 2 * res.stderr)
    assert res.n_effective == 100 and res.n_total == 400
    assert res.replicate_means is None
    zero = EstimateResult.from_counts(0, 50, 50)
    assert zero.mean == 0.0 and zero.stderr == 0.0


def test_from_counts_requires_conditioning_samples():
    with pytest.raises(InsufficientSamplesError):
        EstimateResult.from_counts(0, 0, 5)


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
        _prng(68, dimension=6), 20_000, MinorSelector.parse("delete:2"),
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
    assert plan == [(0, 0, 1000), (1, 1000, 1000), (2, 2000, 501)]


def test_all_separable_when_constraint_is_disabled(monkeypatch):
    """With the partial-transpose determinant forced positive, the estimate
    must be exactly 1: conditioning and counting share one sample set."""
    monkeypatch.setattr(
        estimator, "pt_corr_det4", lambda z, xi: np.ones(len(z))
    )
    res = estimate_sep_probability(_prng(64), 30_000)
    assert res.mean == 1.0
    assert res.n_effective > 0


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
        _prng(2718, dimension=6), 10_000, MinorSelector.parse("delete:1"),
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
    with pytest.raises(ValueError):
        hist.bin_index(3.0)
    with pytest.raises(ValueError):
        hist.bin_index(-0.1)
    curve = hist.to_curve()
    assert curve.tag == "empirical"
    assert np.array_equal(curve.values, [0.5, 0.0, 0.25])  # empty bin -> 0


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
    via = separability_probability(hist.to_curve(), 1e-9)
    assert abs(via.value - direct.mean) <= 2.0 * direct.stderr + 1e-3


# ---------------------------------------------------------------------------
# Minor selectors
# ---------------------------------------------------------------------------


def test_minor_selector_parse_and_str():
    m = MinorSelector.parse("pair:2,3")
    assert m.kind == "pair" and m.index == (2, 3)
    assert str(m) == "pair:2,3"
    m = MinorSelector.parse(" delete : 4 ")
    assert m.kind == "delete" and m.index == (4,)
    assert str(m) == "delete:4"
    for bad in ("pair:3,2", "pair:0,1", "delete:5", "pair:2", "minor:1", ""):
        with pytest.raises(ValueError):
            MinorSelector.parse(bad)
    with pytest.raises(ValueError):
        MinorSelector("pair", (1, 1))
    with pytest.raises(ValueError):
        MinorSelector("row", (1,))


def test_minor_branch_table():
    assert MinorSelector.parse("delete:1").branch_tag == "three_right"
    assert MinorSelector.parse("delete:4").branch_tag == "three_right"
    assert MinorSelector.parse("delete:2").branch_tag == "three_left"
    assert MinorSelector.parse("delete:3").branch_tag == "three_left"
    assert MinorSelector.parse("pair:2,3").branch_tag == "two_right"
    assert MinorSelector.parse("pair:1,4").branch_tag == "two_left"
    # the four untouched pairs have no curve
    for pair in ("1,2", "1,3", "2,4", "3,4"):
        assert MinorSelector.parse(f"pair:{pair}").branch_tag is None
    assert len(MINOR_BRANCH_TABLE) == 6


def _pt_submatrix_sign(diag, z, xi, minor):
    """Oracle: assemble the state, partially transpose it densely, and take
    the requested principal minor with dense linear algebra."""
    states = assemble_states(diag, z)
    pt = states.copy()
    pt[:, 0, 3], pt[:, 1, 2] = states[:, 1, 2], states[:, 0, 3]
    pt[:, 3, 0], pt[:, 2, 1] = states[:, 2, 1], states[:, 3, 0]
    if minor.kind == "pair":
        keep = [i - 1 for i in minor.index]
    else:
        keep = [i for i in range(4) if i != minor.index[0] - 1]
    sub = pt[:, keep][:, :, keep]
    return np.linalg.det(sub)


def _two_diagonals_for_xi(xi, n):
    e = math.exp(xi)
    a, b = e / (2 * (1 + e)), 1 / (2 * (1 + e))
    d1 = np.tile([a, b, b, a], (n, 1))
    e2 = math.exp(2 * xi)
    d2 = np.tile([e2, 1.0, 1.0, 1.0], (n, 1)) / (3.0 + e2)
    return d1, d2


@pytest.mark.parametrize(
    "text", ["delete:1", "delete:2", "delete:3", "delete:4",
             "pair:2,3", "pair:1,4", "pair:1,3"],
)
def test_minor_event_mask_matches_dense_oracle(text):
    """The correlation-space mask agrees with dense minors of the partially
    transposed state for two different diagonals realizing the same xi."""
    minor = MinorSelector.parse(text)
    rng = np.random.default_rng(hash(text) % 2**32)
    z = rng.uniform(-1, 1, size=(20_000, 6))
    z = z[z_psd_mask(z)]
    for xi in (-0.8, 0.0, 1.3):
        mask = minor_event_mask(z, xi, minor)
        for diag in _two_diagonals_for_xi(xi, len(z)):
            det = _pt_submatrix_sign(diag, z, xi, minor)
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
        d1 = minor_event_mask(z, xi, MinorSelector.parse("delete:1"))
        d4 = minor_event_mask(z_r, xi, MinorSelector.parse("delete:4"))
        assert np.array_equal(d1, d4)
        d2 = minor_event_mask(z, xi, MinorSelector.parse("delete:2"))
        d3 = minor_event_mask(z_r, xi, MinorSelector.parse("delete:3"))
        assert np.array_equal(d2, d3)


def test_estimate_minor_desf_validation():
    minor = MinorSelector.parse("delete:1")
    with pytest.raises(ValueError):
        estimate_minor_desf(_prng(0), 1000, minor, [0.0])  # needs dimension 6
    spec = _prng(0, dimension=6)
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
            _prng(0, dimension=6), 100, MinorSelector.parse("delete:1"), [0.0]
        )


def test_minor_estimates_track_their_curves():
    grid = [-1.0, 0.0, 1.0]
    est = estimate_minor_desf(
        _prng(881, dimension=6), 200_000, MinorSelector.parse("delete:1"), grid
    )
    assert np.array_equal(est.xi, grid)
    for i, xi in enumerate(grid):
        ref = eval_desf("three_right", xi)
        z = (est.ratio[i] - ref) / est.stderr[i]
        assert abs(z) < 4.0, f"xi = {xi}"


def test_box_minor_is_certain_on_its_easy_side():
    """pair:2,3 scales a correlation by e^xi, so for xi < 0 the 2x2 minor
    cannot fail; the estimate is exactly 1 with zero spread."""
    est = estimate_minor_desf(
        _prng(882, dimension=6), 50_000, MinorSelector.parse("pair:2,3"),
        [-0.5, 0.25],
    )
    assert est.ratio[0] == 1.0
    assert est.stderr[0] == 0.0
    ref = eval_desf("two_right", 0.25)
    assert abs(est.ratio[1] - ref) / est.stderr[1] < 4.0


# ---------------------------------------------------------------------------
# Curve comparison
# ---------------------------------------------------------------------------


def test_compare_curves_self_comparison_is_exact():
    hist = estimate_desf(_prng(75), 100_000, bins=41)
    cmp_ = compare_curves(hist, hist.to_curve(), min_count=10)
    assert isinstance(cmp_, CurveComparison)
    used = ~np.isnan(cmp_.residual)
    assert np.all(cmp_.residual[used] == 0.0)
    assert cmp_.max_abs_z == 0.0
    assert cmp_.mean_signed == 0.0
    assert cmp_.n_used + cmp_.n_skipped == 41


def test_compare_curves_separates_right_from_wrong():
    hist = estimate_desf(_prng(73), 200_000, bins=61, ximax=6.0)
    good = compare_curves(hist, DesfCurve("conjecture"), min_count=20)
    wrong = compare_curves(hist, DesfCurve("int"), min_count=20)
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
    # a reference pinned at 1 has zero binomial width
    curve = DesfCurve.empirical([-0.5, 0.5, 1.5], [1.0, 1.0])
    cmp_ = compare_curves(hist, curve)
    assert cmp_.zscore[0] == 0.0  # residual zero on a flat bin
    assert np.isinf(cmp_.zscore[1])  # any miss on a flat bin is infinite

