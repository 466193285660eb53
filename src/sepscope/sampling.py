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
identical samples.  Each call returns a fresh column-major (F-contiguous)
array that the caller owns and may overwrite: the batch stage reads it by
column and writes its correlations into it.

A 9-dimensional point maps to a random density matrix under the
Hilbert-Schmidt measure in two independent blocks: coordinates 0-2, the
sticks, build the diagonal by stick-breaking through Beta quantile functions
(the diagonal of a HS-random matrix is Dirichlet(5/2, 5/2, 5/2, 5/2)), and
coordinates 3-8 map affinely onto the correlations ``z = 2u - 1``.
A 6-dimensional point is the correlations alone.  Positivity is *not*
imposed here; estimators count the fraction of the cube that lands inside
the positive-semidefinite body.  Callers split a point themselves and pass
:func:`cube_to_bloore_batch` the sticks, whose diagonal is all the map
returns: ``estimator._positive_states`` of the positive points alone,
``verify._diagonal_moments`` and ``verify._xi_counts`` of every point.
The map's Beta(5/2, 15/2), Beta(5/2, 5) and Beta(5/2, 5/2) quantiles are
numpy too (``_beta_quantile``: closed-form CDFs, a positive-term series in
the tails, Newton steps from a table), within ``_QUANTILE_ULP`` units in the
last place of the true quantile.  So no sampling command loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce

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

# The stick quantiles' error bound, in units in the last place of the true
# quantile, over [_U_CLIP, 1 - _U_CLIP]; tests/test_sampling.py holds them to
# it against mpmath (at most 5.5 seen there).
_QUANTILE_ULP = 16
# Below this CDF value a quantile solve reads the positive-term series, not
# the closed form, which cancels there.
_SERIES_BELOW = 0.25
# Quantile table nodes per Beta law, evenly spaced in log CDF.
_TABLE_NODES = 2048
# Newton steps from the table's guess, which is within about 1e-5 relative:
# the second step reaches the rounding of the CDF itself.
_NEWTON_STEPS = 2

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

# Doubles of a Philox stream drawn per block, 256 KiB, before the block is
# transposed into the column-major batch.
_PHILOX_BLOCK = 1 << 15

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
        if not 1 <= self.dimension <= 21201:  # only a cap: the full Joe-Kuo set
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
    """Rows ``offset .. offset+n-1`` of the stream defined by ``spec``, as a
    fresh, writeable, column-major ``(n, spec.dimension)`` array."""
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
        # The stream runs along rows, the batch is stored by column: draw a
        # block of rows at a time and transpose it while it is in cache.
        rows = max(1, _PHILOX_BLOCK // d)
        cols = np.empty((d, n))
        for start in range(0, n, rows):
            block = gen.random((min(rows, n - start), d))
            cols[:, start:start + len(block)] = block.T
        return cols.T
    return _sobol(spec, n, offset)


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
    """Rows ``offset .. offset+n-1`` of the Sobol stream of ``spec``, a
    column-major view of the ``(d, n)`` array ``q`` it fills.

    Point k, column k of ``q``, is ``shift ^ XOR{v_b : bit b of gray(k)}``
    scaled by 2**-30.  The range is split into maximal aligned power-of-two
    blocks; since ``gray(a + i) = gray(a) ^ gray(i)`` for ``a`` a multiple of
    a power of two above ``i``, each block doubles from its first column:
    ``x[:, h:2h] = x[:, h-1::-1] ^ v_j`` for ``h = 2**j``, each XOR running
    along a contiguous row of ``q``.

    Each 30-bit integer q is filled as the float64 bit pattern
    ``0x3FF << 52 | q << 22``, which is the double 1 + q * 2**-30: the
    exponent bits ride on the shift, and the XORs leave them alone.  One
    subtraction of 1.0, exact, then gives q * 2**-30.
    """
    if offset + n > 1 << _SOBOL_BITS:
        raise ValueError(
            f"a Sobol stream has 2**{_SOBOL_BITS} rows; rows {offset}.."
            f"{offset + n - 1} run past it"
        )
    shift, v = _sobol_directions(spec)
    mantissa_pad = np.uint64(52 - _SOBOL_BITS)
    shift = np.uint64(0x3FF << 52) | shift.astype(np.uint64) << mantissa_pad
    v = v.astype(np.uint64) << mantissa_pad
    q = np.empty((spec.dimension, n), dtype=np.uint64)
    start, end = offset, offset + n
    while start < end:
        size = 1 << ((end - start).bit_length() - 1)
        if start:
            size = min(size, start & -start)
        block = q[:, start - offset:start - offset + size]
        gray = start ^ (start >> 1)
        in_gray = ((gray >> np.arange(_SOBOL_BITS)) & 1).astype(bool)
        block[:, 0] = shift ^ np.bitwise_xor.reduce(v[:, in_gray], axis=1)
        for j in range(size.bit_length() - 1):
            h = 1 << j
            np.bitwise_xor(block[:, h - 1::-1], v[:, j:j + 1], out=block[:, h:2 * h])
        start += size
    pts = q.view(np.float64)
    pts -= 1.0
    return pts.T


def cube_to_bloore_batch(sticks: np.ndarray) -> np.ndarray:
    """Map ``(n, 3)`` stick coordinates to the ``(n, 4)`` diagonal, inverting
    the stick-breaking representation of Dirichlet(5/2, 5/2, 5/2, 5/2).

    The benchmark (``perfbench/child.py``) wraps this function by its name,
    called once per batch through the ``estimator`` namespace.
    """
    pts = np.asarray(sticks, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    u = np.clip(pts, _U_CLIP, 1.0 - _U_CLIP)
    b = np.empty_like(u)
    for j, (a_p, b_p) in enumerate(_STICK_PARAMS):
        b[:, j] = _beta_quantile(a_p, b_p, u[:, j])
    diag = np.empty((pts.shape[0], 4))
    diag[:, 0] = b[:, 0]
    rest = 1.0 - b[:, 0]
    diag[:, 1] = rest * b[:, 1]
    rest = rest * (1.0 - b[:, 1])
    diag[:, 2] = rest * b[:, 2]
    diag[:, 3] = rest * (1.0 - b[:, 2])
    return diag


def _beta_quantile(a: float, b: float, u: np.ndarray) -> np.ndarray:
    """The Beta(a, b) quantile of each ``u`` in ``[_U_CLIP, 1 - _U_CLIP]``,
    for ``2a`` and ``2b`` positive integers.

    For ``u <= 1/2`` it solves I_x(a, b) = u.  Above, it solves the
    complement I_y(b, a) = 1 - u, which is exact for ``u >= 1/2``, and
    returns ``x = 1 - y``: the complement keeps its relative precision
    where x is near 1.  Against the true quantile (mpmath at 40 digits) the
    result is within ``_QUANTILE_ULP`` units in the last place for the
    three laws of ``_STICK_PARAMS`` over the whole clipped range.
    """
    out = np.empty_like(u)
    upper = np.flatnonzero(u > 0.5)
    lower = np.flatnonzero(u <= 0.5)
    out[lower] = _lower_tail(a, b).solve(u[lower])
    out[upper] = 1.0 - _lower_tail(b, a).solve(1.0 - u[upper])
    return out


@cache
def _lower_tail(p: float, q: float) -> "_LowerTail":
    return _LowerTail(p, q)


class _LowerTail:
    """Solves I_w(p, q) = v for ``v`` in ``[_U_CLIP, 1/2]``, with ``2p`` and
    ``2q`` positive integers; built once per process for each (p, q).

    The CDF I has a closed form.  With ``w = sin(t)**2``, it is ``2t/pi``
    plus ``sqrt(w (1 - w))`` times polynomials when p and q are both
    half-integers, ``w**p`` times a polynomial in ``1 - w`` when q is an
    integer, and one minus ``(1 - w)**q`` times a polynomial in w when p is
    an integer.  The closed form cancels where I is small, so below
    ``_SERIES_BELOW`` the solver reads the positive-term series
    ``I = w**p (1 - w)**q / (p B(p, q)) * sum_n (p+q)_n / (p+1)_n w**n``
    instead, cut where its tail is below 2**-60 of the sum.

    Each solve starts from a table of the quantile at ``_TABLE_NODES``
    targets evenly spaced in ``log v`` (linear in ``log w`` between nodes,
    within about 1e-5 relative), and takes ``_NEWTON_STEPS`` Newton steps,
    each kept inside the two nodes that bracket the root.
    """

    def __init__(self, p: float, q: float):
        self.p, self.q = p, q
        p2, q2 = round(2 * p), round(2 * q)  # Gamma arguments are doubled
        self.inv_beta = _gamma_ratio((p2 + q2,), (p2, q2))
        if q2 % 2 == 0:  # I = w**p sum_j (p)_j / j! (1 - w)**j
            self.kind = "q_int"
            self.poly = [_gamma_ratio((p2 + 2 * j,), (p2, 2 * j + 2))
                         for j in range(q2 // 2)]
        elif p2 % 2 == 0:  # I = 1 - (1 - w)**q sum_i (q)_i / i! w**i
            self.kind = "p_int"
            self.poly = [_gamma_ratio((q2 + 2 * i,), (q2, 2 * i + 2))
                         for i in range(p2 // 2)]
        else:
            # Raise q from 1/2, then p from 1/2, starting at
            # I_w(1/2, 1/2) = 2t/pi: each step adds or subtracts a term
            # w**p' (1 - w)**q' Gamma(p'+q') / (Gamma(p') Gamma(q'+1)) or
            # / (Gamma(p'+1) Gamma(q')).  Divided by 2/pi, that is
            # I = (2/pi) (t + sqrt(w (1 - w)) (sum_j A_j (1 - w)**j
            #                                  - (1 - w)**(q - 1/2) sum_i B_i w**i)).
            self.kind = "half"
            half_pi = math.pi / 2
            self.poly = [_gamma_ratio((2 + 2 * j,), (1, 3 + 2 * j)) * half_pi
                         for j in range((q2 - 1) // 2)]
            self.minus = [_gamma_ratio((1 + 2 * i + q2,), (3 + 2 * i, q2)) * half_pi
                          for i in range((p2 - 1) // 2)]
        # The series' n-th coefficient is Gamma(p+q+n) / (Gamma(p+1+n) Gamma(q)).
        # Cut it where a term is below 2**-60 of the first at 1.1 times the
        # largest w it serves, read off a grid of the closed form.
        w = np.exp(np.linspace(math.log(1e-9), math.log(0.999), 4096))
        closed = self._closed(w)
        w_max = 1.1 * w[np.searchsorted(closed, _SERIES_BELOW)]
        self.series = []
        while not self.series or \
                self.series[-1] * w_max ** len(self.series) > 2.0 ** -60 * self.series[0]:
            n2 = 2 * len(self.series)
            self.series.append(_gamma_ratio((p2 + q2 + n2,), (p2 + 2 + n2, q2)))
        # The table: interpolate the grid, then polish every node by Newton.
        cdf = np.where(closed < _SERIES_BELOW, self._series(w), closed)
        self.log_v0 = math.log(_U_CLIP) - 0.5
        self.step = (math.log(0.5) + 0.5 - self.log_v0) / (_TABLE_NODES - 1)
        log_v = self.log_v0 + self.step * np.arange(_TABLE_NODES)
        guess = np.exp(np.interp(log_v, np.log(cdf), np.log(w)))
        self.nodes = self._newton(np.exp(log_v), guess, np.zeros_like(guess),
                                  np.ones_like(guess), 4)
        self.log_nodes = np.log(self.nodes)

    def solve(self, v: np.ndarray) -> np.ndarray:
        pos = (np.log(v) - self.log_v0) * (1.0 / self.step)
        k = pos.astype(np.intp)
        log_lo, log_hi = self.log_nodes[k], self.log_nodes[k + 1]
        w = np.exp(log_lo + (pos - k) * (log_hi - log_lo))
        return self._newton(v, w, self.nodes[k], self.nodes[k + 1], _NEWTON_STEPS)

    def _newton(self, v, w, lo, hi, steps):
        """``steps`` Newton steps on I_w(p, q) = v from ``w``, each clipped to
        ``[lo, hi]``; the series serves ``v < _SERIES_BELOW``."""
        series = v < _SERIES_BELOW
        out = np.empty_like(w)
        for sel, cdf in ((np.flatnonzero(series), self._series),
                         (np.flatnonzero(~series), self._closed)):
            x, target, low, high = w[sel], v[sel], lo[sel], hi[sel]
            for _ in range(steps):
                pdf = self.inv_beta * x ** (self.p - 1.0) * (1.0 - x) ** (self.q - 1.0)
                x = np.clip(x - (cdf(x) - target) / pdf, low, high)
            out[sel] = x
        return out

    def _series(self, w):
        return w ** self.p * (1.0 - w) ** self.q * _horner(self.series, w)

    def _closed(self, w):
        if self.kind == "q_int":
            return w ** self.p * _horner(self.poly, 1.0 - w)
        if self.kind == "p_int":
            return 1.0 - (1.0 - w) ** self.q * _horner(self.poly, w)
        t = 1.0 - w
        # the top coefficient, of t**(q - 1/2), is the array -sum_i B_i w**i
        h = _horner(self.poly, t, top=-_horner(self.minus, w))
        root_w = np.sqrt(w)
        return (np.arcsin(root_w) + root_w * np.sqrt(t) * h) * (2.0 / math.pi)


def _horner(coeffs, t, top=None):
    """``sum_k coeffs[k] t**k``, plus ``top * t**len(coeffs)`` if given."""
    acc = np.full_like(t, coeffs[-1]) if top is None else top * t + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _gamma_ratio(num, den) -> float:
    """``prod Gamma(n/2) / prod Gamma(d/2)`` over the doubled arguments
    ``num`` and ``den``: a rational times a power of sqrt(pi), rounded once."""

    def rational(x2):  # Gamma(x2/2), divided by sqrt(pi) if x2 is odd
        k = x2 // 2
        if x2 % 2 == 0:
            return math.factorial(k - 1), 1
        return math.factorial(2 * k), 4 ** k * math.factorial(k)  # Gamma(k + 1/2)

    ratio = Fraction(1)
    for x2 in num:
        top, bottom = rational(x2)
        ratio *= Fraction(top, bottom)
    for x2 in den:
        top, bottom = rational(x2)
        ratio /= Fraction(top, bottom)
    root_pi = sum(x2 % 2 for x2 in num) - sum(x2 % 2 for x2 in den)
    return float(ratio) * math.pi ** (root_pi / 2)


def star_discrepancy(points: np.ndarray) -> float:
    """Exact star discrepancy by prefix counts over every critical box.

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
    # each point counted at its index among each axis's candidates, plus 1; after
    # a cumsum along every axis, entry [i + 1] counts [0, y_i] and [i] [0, y_i)
    counts = np.zeros([len(c) + 1 for c in candidates], dtype=np.int64)
    np.add.at(counts, tuple(np.searchsorted(c, pts[:, j]) + 1
                            for j, c in enumerate(candidates)), 1)
    for axis in range(d):
        np.cumsum(counts, axis=axis, out=counts)
    closed = counts[(slice(1, None),) * d] / n
    open_ = counts[(slice(None, -1),) * d] / n
    vol = reduce(np.multiply.outer, candidates)  # y_0 * y_1 * y_2, left to right
    return max(0.0, float(np.max(closed - vol)), float(np.max(vol - open_)))
