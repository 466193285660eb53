"""Skippable sample streams on the unit cube and their map to states.

Two engines produce points in ``[0, 1)^d``:

* ``pseudo_random`` -- counter-based Philox.  Because the generator is
  counter-based, jumping to an arbitrary point index is cheap, which is what
  makes deterministic work-splitting across processes possible.
* ``low_discrepancy`` -- scrambled Sobol, drawn with numpy alone and byte for
  byte the points of ``scipy.stats.qmc.Sobol(d, scramble=..., seed=seed)``
  after ``fast_forward(offset)``.  The direction numbers are the Joe-Kuo set
  (Joe & Kuo, SIAM J. Sci. Comput. 30, 2635 (2008)), stored below for
  dimensions 1-40, so a ``low_discrepancy`` spec has at most 40 dimensions.
  The scramble is the linear matrix scramble (LMS) plus a digital shift,
  drawn from ``np.random.default_rng(seed)`` in scipy's order: first the
  shift bits, then the lower-triangular matrices.  A read splits its row
  range into aligned power-of-two blocks and fills each from its first
  point, so its cost does not depend on the offset.  The stream has 2**30
  rows.

The fundamental contract is *skippability*: for a fixed spec,
``next_points(spec, n, offset)`` returns exactly rows ``offset .. offset+n-1``
of one infinite matrix, so any partition of the index range reassembles to
identical samples.

A 9-dimensional point maps to a random density matrix under the
Hilbert-Schmidt measure in two independent blocks: coordinates 0-2, the
sticks, build the diagonal by stick-breaking through Beta quantile functions
(the diagonal of a HS-random matrix is Dirichlet(5/2, 5/2, 5/2, 5/2)), and
coordinates 3-8 map affinely onto the correlations ``z = 2u - 1``.
Positivity is *not* imposed here; estimators count the fraction of the cube
that lands inside the positive-semidefinite body.  The estimators' batch
stage alone splits a point: it masks on ``z`` (positivity depends on it
alone) and passes only the survivors' sticks (about 18% of the stream) to
:func:`cube_to_bloore_batch`, which returns their diagonal and nothing else.
That map is the only user of ``scipy.special`` (``betaincinv``) and imports
it on its first call, so the quadrature commands load no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ENGINES",
    "SequenceSpec",
    "next_points",
    "cube_to_bloore_batch",
    "star_discrepancy",
]

ENGINES = ("pseudo_random", "low_discrepancy")

# Beta parameters for breaking Dirichlet(5/2)^4 off a stick, in order.
_STICK_PARAMS = ((2.5, 7.5), (2.5, 5.0), (2.5, 2.5))

# Quantile arguments are clipped away from {0, 1} so degenerate diagonals
# (which have undefined xi) cannot arise from a point on the cube boundary.
_U_CLIP = 1e-12

# Corners of the star-discrepancy grid tested per vectorized pass.
_CORNER_CHUNK = 8192

# Joe-Kuo direction numbers of Sobol dimensions 1-40, one row per dimension:
# the primitive polynomial (leading and constant terms included) and the
# initial m_1..m_s, s its degree.  Copied from scipy's
# ``stats/_sobol_direction_numbers.npz`` (``poly[:40]``, ``vinit[:40]``
# trimmed to each degree); the first dimension is the van der Corput
# sequence and takes no numbers.
_SOBOL_TABLE = (
    (1, ()), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)),
)

# Bits of a Sobol coordinate; the stream has 2**_SOBOL_BITS rows.
_SOBOL_BITS = 30


@dataclass(frozen=True)
class SequenceSpec:
    """Defines one reproducible stream of cube points.

    ``seed`` fixes everything: the Philox key, or the Sobol scrambling.
    Distinct replicates should use distinct derived seeds (see
    ``spawn``), never different offsets into one stream.
    """

    engine: str
    seed: int
    dimension: int = 9
    scramble: bool = True

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ValueError("seed must be an integer")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 1 <= self.dimension <= 21201:  # scipy's Sobol limit, kept for Philox
            raise ValueError(f"dimension out of range: {self.dimension}")
        if self.engine == "low_discrepancy" and self.dimension > len(_SOBOL_TABLE):
            raise ValueError(
                f"a low_discrepancy spec has at most {len(_SOBOL_TABLE)} "
                f"dimensions (the Sobol direction-number table), got {self.dimension}"
            )

    def spawn(self, index: int) -> "SequenceSpec":
        """A statistically independent child spec (for replicate r)."""
        child = np.random.SeedSequence(self.seed, spawn_key=(index,))
        return replace(self, seed=int(child.generate_state(1, np.uint64)[0]))

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "seed": int(self.seed),
            "dimension": self.dimension,
            "scramble": self.scramble,
        }


def next_points(spec: SequenceSpec, n: int, offset: int = 0) -> np.ndarray:
    """Rows ``offset .. offset+n-1`` of the stream defined by ``spec``, as an
    ``(n, spec.dimension)`` array."""
    if n < 0 or offset < 0:
        raise ValueError("n and offset must be non-negative")
    d = spec.dimension
    if spec.engine == "pseudo_random":
        bg = np.random.Philox(key=spec.seed)
        total = offset * d
        # Philox emits 64-bit words in blocks of four; one double consumes
        # one word.  Jump whole blocks, then burn the remainder.
        bg.advance(total // 4)
        gen = np.random.Generator(bg)
        rem = total % 4
        if rem:
            gen.random(rem)
        pts = gen.random((n, d))
    else:
        pts = _sobol(spec, n, offset)
    return pts


def _sobol_directions(spec: SequenceSpec) -> tuple[np.ndarray, np.ndarray]:
    """The first point (the digital shift) and the ``(d, 30)`` direction
    vectors of a Sobol stream, scrambled as ``scipy.stats.qmc.Sobol`` does.

    Column ``j`` holds m_j shifted to the top of the 30 bits, with the m_j
    continued past the table by the Joe-Kuo recurrence.
    """
    d, bits = spec.dimension, _SOBOL_BITS
    m = np.empty((d, bits), dtype=np.uint32)
    m[0] = 1
    for row, (poly, m_init) in zip(m[1:], _SOBOL_TABLE[1:]):
        s = len(m_init)
        mj = list(m_init)
        for j in range(s, bits):
            new = mj[j - s]
            for k in range(s):
                if (poly >> (s - 1 - k)) & 1:
                    new ^= mj[j - k - 1] << (k + 1)
            mj.append(new)
        row[:] = mj
    msb = np.arange(bits - 1, -1, -1, dtype=np.uint32)  # bit of column i
    v = m << msb
    if not spec.scramble:
        return np.zeros(d, dtype=np.uint32), v
    rng = np.random.default_rng(spec.seed)
    shift_bits = rng.integers(0, 2, (d, bits), dtype=np.uint32)  # column b is bit b
    shift = shift_bits @ (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    ltm = np.tril(rng.integers(0, 2, (d, bits, bits), dtype=np.uint32))
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # Each vector, as its bits from the top down, times the unit lower-
    # triangular matrix of its dimension over GF(2).
    v_bits = (v[:, :, None] >> msb) & 1
    scrambled = np.einsum("dpi,dji->djp", ltm, v_bits) & 1
    return shift, (scrambled << msb).sum(axis=2, dtype=np.uint32)


def _sobol(spec: SequenceSpec, n: int, offset: int) -> np.ndarray:
    """Rows ``offset .. offset+n-1`` of the Sobol stream of ``spec``.

    Row k is ``shift ^ XOR{v_b : bit b of gray(k)}`` scaled by 2**-30.  The
    range is split into maximal aligned power-of-two blocks; since
    ``gray(a + i) = gray(a) ^ gray(i)`` for ``a`` a multiple of a power of two
    above ``i``, each block doubles from its first row:
    ``x[h:2h] = x[h-1::-1] ^ v_j`` for ``h = 2**j``.
    """
    if offset + n > 1 << _SOBOL_BITS:
        raise ValueError(
            f"a Sobol stream has 2**{_SOBOL_BITS} rows; rows {offset}.."
            f"{offset + n - 1} run past it"
        )
    shift, v = _sobol_directions(spec)
    q = np.empty((n, spec.dimension), dtype=np.uint32)
    start, end = offset, offset + n
    while start < end:
        size = 1 << ((end - start).bit_length() - 1)
        if start:
            size = min(size, start & -start)
        block = q[start - offset:start - offset + size]
        gray = start ^ (start >> 1)
        in_gray = ((gray >> np.arange(_SOBOL_BITS)) & 1).astype(bool)
        block[0] = shift ^ np.bitwise_xor.reduce(v[:, in_gray], axis=1)
        for j in range(size.bit_length() - 1):
            h = 1 << j
            np.bitwise_xor(block[h - 1::-1], v[:, j], out=block[h:2 * h])
        start += size
    return q * 2.0 ** -_SOBOL_BITS


def cube_to_bloore_batch(sticks: np.ndarray) -> np.ndarray:
    """Map ``(n, 3)`` stick coordinates to the ``(n, 4)`` diagonal, inverting
    the stick-breaking representation of Dirichlet(5/2, 5/2, 5/2, 5/2).

    The benchmark (``perfbench/child.py``) wraps this function by its name,
    called once per batch through the ``estimator`` namespace.
    """
    from scipy.special import betaincinv  # ~0.3 s to import; only the map needs it

    pts = np.asarray(sticks, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    u = np.clip(pts, _U_CLIP, 1.0 - _U_CLIP)
    b = np.empty_like(u)
    for j, (a_p, b_p) in enumerate(_STICK_PARAMS):
        b[:, j] = betaincinv(a_p, b_p, u[:, j])
    diag = np.empty((pts.shape[0], 4))
    diag[:, 0] = b[:, 0]
    rest = 1.0 - b[:, 0]
    diag[:, 1] = rest * b[:, 1]
    rest = rest * (1.0 - b[:, 1])
    diag[:, 2] = rest * b[:, 2]
    diag[:, 3] = rest * (1.0 - b[:, 2])
    return diag


def star_discrepancy(points: np.ndarray) -> float:
    """Exact star discrepancy by corner enumeration.

    Exhaustive over all critical boxes, so it is restricted to ``n <= 64``
    and ``d <= 3``; it exists to test that the low-discrepancy engine
    actually out-spreads the pseudorandom one on small prefixes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    n, d = pts.shape
    if n == 0:
        raise ValueError("need at least one point")
    if n > 64 or d > 3:
        raise ValueError("exact enumeration is limited to n <= 64, d <= 3")
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0, 1)")
    candidates = [np.unique(np.concatenate((pts[:, j], [1.0]))) for j in range(d)]
    corners = np.stack(np.meshgrid(*candidates, indexing="ij"), axis=-1).reshape(-1, d)
    worst = 0.0
    # a chunk of corners at a time: (chunk, n, d) booleans stay ~1.5 MB
    for start in range(0, len(corners), _CORNER_CHUNK):
        y = corners[start:start + _CORNER_CHUNK]
        vol = y.prod(axis=1)
        closed = np.count_nonzero(np.all(pts <= y[:, None], axis=2), axis=1) / n
        open_ = np.count_nonzero(np.all(pts < y[:, None], axis=2), axis=1) / n
        worst = max(worst, float(np.max(closed - vol)), float(np.max(vol - open_)))
    return worst
