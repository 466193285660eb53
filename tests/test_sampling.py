"""Sampling-layer tests: stream skippability, the state map, discrepancy."""

import itertools
import json

import numpy as np
import pytest

from sepscope.sampling import (
    ENGINES,
    SequenceSpec,
    cube_to_bloore_batch,
    next_points,
    star_discrepancy,
)


# ---------------------------------------------------------------------------
# SequenceSpec
# ---------------------------------------------------------------------------


def test_spec_validation():
    SequenceSpec("pseudo_random", 0)
    SequenceSpec("low_discrepancy", 5, dimension=6, scramble=False)
    with pytest.raises(ValueError):
        SequenceSpec("mersenne", 0)
    with pytest.raises(ValueError):
        SequenceSpec("pseudo_random", -1)
    with pytest.raises(ValueError):
        SequenceSpec("pseudo_random", 1.5)
    with pytest.raises(ValueError):
        SequenceSpec("pseudo_random", True)  # bools are not seeds
    with pytest.raises(ValueError):
        SequenceSpec("pseudo_random", 0, dimension=0)
    with pytest.raises(ValueError):
        SequenceSpec("low_discrepancy", 0, dimension=30000)


def test_spec_dict_roundtrip():
    """A manifest's ``sequence`` is ``to_dict()``: plain JSON types, every
    field spelled out."""
    spec = SequenceSpec("low_discrepancy", np.uint64(17), dimension=6, scramble=False)
    d = spec.to_dict()
    assert d == {"engine": "low_discrepancy", "seed": 17, "dimension": 6, "scramble": False}
    assert type(d["seed"]) is int
    assert json.loads(json.dumps(d)) == d


def test_spawn_creates_distinct_deterministic_children():
    spec = SequenceSpec("pseudo_random", 42)
    kids = [spec.spawn(i) for i in range(4)]
    seeds = {k.seed for k in kids} | {spec.seed}
    assert len(seeds) == 5  # all distinct
    assert spec.spawn(2) == kids[2]  # and reproducible
    for k in kids:
        assert k.engine == spec.engine and k.dimension == spec.dimension


# ---------------------------------------------------------------------------
# Stream contract
# ---------------------------------------------------------------------------


def test_same_spec_same_points():
    for engine in ENGINES:
        spec = SequenceSpec(engine, 9)
        a = next_points(spec, 200)
        b = next_points(spec, 200)
        assert np.array_equal(a, b)


def test_chunked_reads_reassemble_both_engines():
    """Arbitrary partitions of the index range give bit-identical samples;
    the chunk sizes are chosen so the pseudo-random engine's position lands
    mid-block (offset * dimension not divisible by the block size)."""
    for engine in ENGINES:
        spec = SequenceSpec(engine, 3)
        whole = next_points(spec, 1000)
        parts = np.vstack([
            next_points(spec, 137, 0),
            next_points(spec, 466, 137),
            next_points(spec, 285, 603),
            next_points(spec, 112, 888),
        ])
        assert np.array_equal(whole, parts)


def test_single_row_reads_match_bulk():
    spec = SequenceSpec("pseudo_random", 123, dimension=5)
    whole = next_points(spec, 8)
    for k in range(8):
        row = next_points(spec, 1, k)[0]
        assert np.array_equal(row, whole[k])


def test_pseudo_random_matches_vanilla_generator():
    # with no offset the stream is exactly numpy's Philox generator output
    spec = SequenceSpec("pseudo_random", 77)
    pts = next_points(spec, 50)
    ref = np.random.Generator(np.random.Philox(key=77)).random((50, 9))
    assert np.array_equal(pts, ref)


def test_next_points_validation_and_batch_fields():
    spec = SequenceSpec("pseudo_random", 0)
    with pytest.raises(ValueError):
        next_points(spec, -1)
    with pytest.raises(ValueError):
        next_points(spec, 10, -2)
    batch = next_points(spec, 10, 5)
    assert batch.shape == (10, 9)
    assert np.all((batch >= 0.0) & (batch < 1.0))
    assert np.array_equal(batch, next_points(spec, 15)[5:])


def test_unscrambled_sobol_prefix():
    spec = SequenceSpec("low_discrepancy", 0, dimension=2, scramble=False)
    pts = next_points(spec, 2)
    assert np.array_equal(pts[0], [0.0, 0.0])
    assert np.array_equal(pts[1], [0.5, 0.5])


def test_scramble_seed_changes_low_discrepancy_stream():
    a = next_points(SequenceSpec("low_discrepancy", 1), 64)
    b = next_points(SequenceSpec("low_discrepancy", 2), 64)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Cube -> state coordinates
# ---------------------------------------------------------------------------


def test_cube_map_produces_valid_coordinates():
    pts = next_points(SequenceSpec("pseudo_random", 5), 10_000)
    diag, z = cube_to_bloore_batch(pts)
    assert diag.shape == (10_000, 4) and z.shape == (10_000, 6)
    assert np.max(np.abs(diag.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(diag > 0.0)
    assert np.all((z >= -1.0) & (z <= 1.0))


def test_cube_map_shape_validation():
    with pytest.raises(ValueError):
        cube_to_bloore_batch(np.zeros((5, 8)))
    with pytest.raises(ValueError):
        cube_to_bloore_batch(np.zeros(9))


def test_cube_corners_stay_nondegenerate():
    # quantile arguments are clipped, so even exact cube corners give a
    # strictly positive diagonal (xi stays finite)
    for corner in (np.zeros((1, 9)), np.ones((1, 9)) - 1e-17):
        diag, _ = cube_to_bloore_batch(corner)
        assert np.all(diag > 0.0)
        assert np.isfinite(np.log(diag).sum())


def test_cube_to_bloore_single_point():
    diag, z = cube_to_bloore_batch(np.full((1, 9), 0.5))
    assert np.array_equal(z[0], np.zeros(6))  # 0.5 maps to the center
    assert np.all(diag[0] > 0.0)
    assert abs(diag[0].sum() - 1.0) < 1e-12


def test_diagonal_marginal_moments():
    """Each diagonal entry is Beta(5/2, 15/2): mean 1/4, second moment 7/88.
    Frozen seed; comparisons at four standard errors."""
    pts = next_points(SequenceSpec("pseudo_random", 314), 1_000_000)
    diag, _ = cube_to_bloore_batch(pts)
    n = len(diag)
    for col in range(4):
        x = diag[:, col]
        z_mean = (x.mean() - 0.25) / (x.std(ddof=1) / np.sqrt(n))
        assert abs(z_mean) < 4.0, f"column {col}"
    x2 = diag[:, 0] ** 2
    z_m2 = (x2.mean() - 7.0 / 88.0) / (x2.std(ddof=1) / np.sqrt(n))
    assert abs(z_m2) < 4.0


# ---------------------------------------------------------------------------
# Star discrepancy
# ---------------------------------------------------------------------------


def test_star_discrepancy_hand_values():
    assert star_discrepancy(np.array([[0.5, 0.5]])) == pytest.approx(0.75)
    assert star_discrepancy(np.array([[0.25]])) == pytest.approx(0.75)
    assert star_discrepancy(np.array([[0.7]])) == pytest.approx(0.7)
    # centered one-dimensional grid attains the optimum 1/(2n)
    grid = ((2 * np.arange(4) + 1) / 8.0).reshape(-1, 1)
    assert star_discrepancy(grid) == pytest.approx(1.0 / 8.0)


def _star_discrepancy_oracle(pts):
    """Every corner of the critical grid, one at a time, in plain Python."""
    n, d = pts.shape
    axes = [sorted(set(pts[:, j].tolist()) | {1.0}) for j in range(d)]
    worst = 0.0
    for y in itertools.product(*axes):
        vol = y[0]
        for v in y[1:]:
            vol = vol * v
        closed = sum(all(p[j] <= y[j] for j in range(d)) for p in pts.tolist())
        open_ = sum(all(p[j] < y[j] for j in range(d)) for p in pts.tolist())
        worst = max(worst, closed / n - vol, vol - open_ / n)
    return worst


@pytest.mark.parametrize("seed", range(12))
def test_star_discrepancy_matches_corner_loop(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 17)), int(rng.integers(1, 4))
    pts = rng.random((n, d))
    if seed % 3 == 0:  # ties on the grid
        pts = np.floor(pts * 8.0) / 8.0
    assert star_discrepancy(pts) == _star_discrepancy_oracle(pts)


def test_star_discrepancy_validation():
    with pytest.raises(ValueError):
        star_discrepancy(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        star_discrepancy(np.zeros(3))
    with pytest.raises(ValueError):
        star_discrepancy(np.full((65, 2), 0.5))
    with pytest.raises(ValueError):
        star_discrepancy(np.full((4, 4), 0.5))
    with pytest.raises(ValueError):
        star_discrepancy(np.array([[1.0, 0.5]]))  # right-closed point


def test_low_discrepancy_beats_pseudo_random_spread():
    n, d = 64, 3
    lds = next_points(SequenceSpec("low_discrepancy", 7, dimension=d), n)
    prng = next_points(SequenceSpec("pseudo_random", 7, dimension=d), n)
    assert star_discrepancy(lds) < star_discrepancy(prng)
