"""Sampling-layer tests: stream skippability, the state map and its Beta
quantiles, discrepancy."""

import itertools
import json
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.stats
from scipy.stats import qmc

from sepscope import sampling
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
    SequenceSpec("low_discrepancy", 0, dimension=40)
    SequenceSpec("pseudo_random", 0, dimension=41)
    with pytest.raises(ValueError, match="at most 40 dimensions"):
        SequenceSpec("low_discrepancy", 0, dimension=41)


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


@pytest.mark.parametrize("engine", ENGINES)
def test_next_points_returns_a_fresh_column_major_batch(engine):
    """The batch stage writes z into the array it streamed, one contiguous
    column per coordinate: each read is its caller's own F-ordered array."""
    spec = SequenceSpec(engine, 4)
    a, b = next_points(spec, 5000, 5), next_points(spec, 5000, 5)
    assert a.flags.f_contiguous and a.flags.writeable
    assert not np.shares_memory(a, b)
    a *= 2.0
    assert np.array_equal(b, next_points(spec, 5000, 5))


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


def _scipy_sobol(spec, n, offset):
    """The reference: scipy's Sobol engine, fast-forwarded to ``offset``."""
    eng = qmc.Sobol(d=spec.dimension, scramble=spec.scramble, seed=spec.seed)
    if offset:
        eng.fast_forward(offset)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="The balance properties of Sobol")
        return eng.random(n)


_SOBOL_SEEDS = (0, 5, 123456789, 2**40 + 7, 2**63 + 5, 2**64 - 1)


@pytest.mark.parametrize("d", [1, 2, 3, 6, 7, 9, 20, 40])
def test_sobol_matches_scipy(d):
    """The numpy Sobol stream is byte for byte scipy's: every seed,
    scrambled and not, at aligned and unaligned offsets, for lengths that
    are and are not powers of two."""
    reads = [(0, 0), (1, 0), (1, 7), (1000, 0), (4097, 3), (1000, 2**20),
             (4097, 3 * 2**20 + 17)]
    for seed, scramble in itertools.product(_SOBOL_SEEDS, (True, False)):
        spec = SequenceSpec("low_discrepancy", seed, dimension=d, scramble=scramble)
        for n, offset in reads:
            got = next_points(spec, n, offset)
            want = _scipy_sobol(spec, n, offset)
            assert got.tobytes() == want.tobytes(), (seed, scramble, n, offset)
            assert got.shape == want.shape and got.dtype == want.dtype
    # long reads, one seed each way
    for scramble in (True, False):
        spec = SequenceSpec("low_discrepancy", 5, dimension=d, scramble=scramble)
        reads = [(300_001, 12_345)] + ([(2**20, 2**20)] if d <= 9 else [])
        for n, offset in reads:
            assert np.array_equal(next_points(spec, n, offset),
                                  _scipy_sobol(spec, n, offset)), (scramble, n, offset)


def test_sobol_replicate_streams_match_scipy():
    """The spawned seeds of the lds replicates (64-bit integers) scramble as
    scipy does."""
    spec = SequenceSpec("low_discrepancy", 3)
    for r in range(8):
        child = spec.spawn(r)
        for n, offset in ((4096, 0), (4096, 4096), (3000, 12_345)):
            assert np.array_equal(next_points(child, n, offset),
                                  _scipy_sobol(child, n, offset)), (r, n, offset)


def test_sobol_table_is_scipys():
    """The literal direction numbers are the first 40 rows of the file scipy
    ships, ``vinit`` trimmed to each polynomial's degree."""
    path = Path(scipy.stats.__file__).parent / "_sobol_direction_numbers.npz"
    with np.load(path) as npz:
        poly, vinit = npz["poly"], npz["vinit"]
    table = sampling._SOBOL_TABLE
    assert len(table) == 40
    for k, (p, m_init) in enumerate(table):
        degree = int(poly[k]).bit_length() - 1
        assert p == poly[k], k
        assert m_init == tuple(vinit[k, :degree].tolist()), k


def test_sobol_stream_ends_at_2_to_the_30():
    spec = SequenceSpec("low_discrepancy", 1)
    assert next_points(spec, 5, 2**30 - 5).shape == (5, 9)
    with pytest.raises(ValueError, match="2\\*\\*30"):
        next_points(spec, 10, 2**30 - 5)


def test_scramble_seed_changes_low_discrepancy_stream():
    a = next_points(SequenceSpec("low_discrepancy", 1), 64)
    b = next_points(SequenceSpec("low_discrepancy", 2), 64)
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Cube -> state coordinates
# ---------------------------------------------------------------------------


def test_cube_map_produces_valid_coordinates():
    pts = next_points(SequenceSpec("pseudo_random", 5, dimension=3), 10_000)
    diag = cube_to_bloore_batch(pts)
    assert diag.shape == (10_000, 4)
    assert np.max(np.abs(diag.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(diag > 0.0)


def test_cube_map_shape_validation():
    """The map takes (n, 3) stick coordinates and nothing else."""
    for shape in ((5, 9), (5, 2), (3,)):
        with pytest.raises(ValueError):
            cube_to_bloore_batch(np.zeros(shape))


def test_cube_corners_stay_nondegenerate():
    # quantile arguments are clipped, so even exact cube corners give a
    # strictly positive diagonal (xi stays finite)
    for corner in (np.zeros((1, 3)), np.ones((1, 3)) - 1e-17):
        diag = cube_to_bloore_batch(corner)
        assert np.all(diag > 0.0)
        assert np.isfinite(np.log(diag).sum())


def test_cube_to_bloore_single_point():
    diag = cube_to_bloore_batch(np.full((1, 3), 0.5))
    assert np.all(diag[0] > 0.0)
    assert abs(diag[0].sum() - 1.0) < 1e-12


def test_diagonal_marginal_moments():
    """Each diagonal entry is Beta(5/2, 15/2): mean 1/4, second moment 7/88.
    Frozen seed; comparisons at four standard errors."""
    pts = next_points(SequenceSpec("pseudo_random", 314), 1_000_000)
    diag = cube_to_bloore_batch(pts[:, :3])
    n = len(diag)
    for col in range(4):
        x = diag[:, col]
        z_mean = (x.mean() - 0.25) / (x.std(ddof=1) / np.sqrt(n))
        assert abs(z_mean) < 4.0, f"column {col}"
    x2 = diag[:, 0] ** 2
    z_m2 = (x2.mean() - 7.0 / 88.0) / (x2.std(ddof=1) / np.sqrt(n))
    assert abs(z_m2) < 4.0


# ---------------------------------------------------------------------------
# The stick laws' quantiles
# ---------------------------------------------------------------------------


def _quantile_grid():
    """``_U_CLIP``, 1/2, ``1 - _U_CLIP``, and 10**4 log-spaced tail points on
    each side."""
    tail = np.geomspace(sampling._U_CLIP, 0.5, 10_000)
    return np.unique(np.concatenate((tail, 1.0 - tail)))


def _ulps_from_true_quantile(a, b, u, x):
    """How far each ``x`` lies from the true Beta(a, b) quantile of ``u``,
    in units in the last place of the true quantile.  One Newton step in
    mpmath at 40 digits from ``x`` gives the root to about 1e-30; above
    u = 1/2 it is taken on the complement, I_y(b, a) = 1 - u at y = 1 - x,
    so the root keeps its precision near 1."""
    with mpmath.workdps(40):
        inv_beta = 1 / mpmath.beta(a, b)
        out = []
        for ui, xi in zip(u.tolist(), x.tolist()):
            lower = ui <= 0.5
            p, q, w, v = (a, b, mpmath.mpf(xi), mpmath.mpf(ui)) if lower else \
                (b, a, 1 - mpmath.mpf(xi), 1 - mpmath.mpf(ui))
            cdf = mpmath.betainc(p, q, 0, w, regularized=True)
            root = w - (cdf - v) / (inv_beta * w ** (p - 1) * (1 - w) ** (q - 1))
            true = root if lower else 1 - root
            out.append(float(abs(xi - true) / np.spacing(float(true))))
    return np.array(out)


@pytest.mark.parametrize("a, b", sampling._STICK_PARAMS)
def test_stick_quantile_against_mpmath(a, b):
    """Within the stated bound of the true quantile over the clipped range,
    its end points, 1/2 and both tails included."""
    u = _quantile_grid()
    x = sampling._beta_quantile(a, b, u)
    ulps = _ulps_from_true_quantile(a, b, u, x)
    worst = int(np.argmax(ulps))
    assert ulps[worst] <= sampling._QUANTILE_ULP, (u[worst], ulps[worst])


@pytest.mark.parametrize("a, b", sampling._STICK_PARAMS)
def test_stick_quantile_against_scipy(a, b):
    """``scipy.special.betaincinv``, itself up to a few ulp off, stays
    within the stated bound plus 8 ulp on 10**6 random u."""
    from scipy.special import betaincinv

    u = np.clip(np.random.default_rng(18).random(1_000_000),
                sampling._U_CLIP, 1.0 - sampling._U_CLIP)
    ref = betaincinv(a, b, u)
    ulps = np.abs(sampling._beta_quantile(a, b, u) - ref) / np.spacing(ref)
    assert ulps.max() <= sampling._QUANTILE_ULP + 8


@pytest.mark.parametrize("a, b", sampling._STICK_PARAMS)
def test_stick_quantile_is_strictly_monotone(a, b):
    """Strictly increasing in u across the tail grids, random points, and
    steps of 2**-40 around the half split and the series switch."""
    steps = np.arange(-1000, 1001) * 2.0 ** -40
    u = np.unique(np.concatenate([
        _quantile_grid(), np.random.default_rng(19).random(200_000),
        *(centre + steps for centre in (0.5, sampling._SERIES_BELOW,
                                        1.0 - sampling._SERIES_BELOW)),
    ]))
    x = sampling._beta_quantile(a, b, u)
    assert np.all(np.diff(x) > 0.0)
    assert 0.0 < x[0] and x[-1] < 1.0


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

