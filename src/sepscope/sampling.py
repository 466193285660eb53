"""Skippable sample streams on the unit cube and their map to states.

Two engines produce points in ``[0, 1)^d``:

* ``pseudo_random`` -- counter-based Philox.  Because the generator is
  counter-based, jumping to an arbitrary point index is cheap, which is what
  makes deterministic work-splitting across processes possible.
* ``low_discrepancy`` -- scrambled Sobol (``scipy.stats.qmc``),
  fast-forwardable the same way.  ``scipy.stats`` takes about a second to
  import, so it is loaded on the first Sobol draw: a process that reads only
  Philox streams, or none, never pays for it.

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

import warnings
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
        if not 1 <= self.dimension <= 21201:  # Sobol direction-number limit
            raise ValueError(f"dimension out of range: {self.dimension}")

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
        from scipy.stats import qmc  # ~1 s to import; only Sobol streams need it

        eng = qmc.Sobol(d=d, scramble=spec.scramble, seed=spec.seed)
        if offset:
            eng.fast_forward(offset)
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="The balance properties of Sobol"
            )
            pts = eng.random(n)
    return pts


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
