"""Real two-qubit density-matrix algebra in the correlation (Bloore) picture.

A state is a real symmetric 4x4 matrix ``rho`` with unit trace, expressed in
the product basis ``|00>, |01>, |10>, |11>``.  Every such matrix factors into
its diagonal ``(rho_11, .., rho_44)`` (a point on the probability simplex) and
a unit-diagonal *correlation matrix* ``Z`` with off-diagonal entries

    z_ij = rho_ij / sqrt(rho_ii * rho_jj),   |z_ij| <= 1.

Positivity of ``rho`` depends only on ``Z``, never on the diagonal.  The
partial transpose (transpose on the second qubit) swaps the (1,4) and (2,3)
entries; for a PSD two-qubit state, separability is equivalent to
``det PT(rho) >= 0`` (at most one eigenvalue of the partial transpose can be
negative).  The only diagonal information the separability test needs is the
log-ratio

    xi = 1/2 * log(rho_11 * rho_44 / (rho_22 * rho_33)).

:func:`pt_correlations` is the one statement of where the partial transpose
moves each correlation; every minor of the partial transpose is read from
its six columns by :func:`corr_minor`, which names a principal minor by the
0-based rows it keeps (``(0, 1, 2, 3)`` is the full determinant).

Scalar operations work on :class:`DensityMatrix` / :class:`BlooreCoords`
values; the module-level array kernels (``corr_det3``, ``corr_det4``,
``pt_correlations``, ``corr_minor``, ``z_psd_mask``, ...) provide the same
arithmetic on batches and are the hot path used by the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DegenerateStateError, InvalidStateError, NonPsdError

__all__ = [
    "Z_PAIRS",
    "DEFAULT_TOL",
    "DensityMatrix",
    "BlooreCoords",
    "werner",
    "from_bloore",
    "to_bloore",
    "xi_of",
    "partial_transpose",
    "principal_minors_2x2",
    "principal_minors_3x3",
    "is_psd",
    "is_separable",
    "is_absolutely_separable",
    "corr_det3",
    "corr_det4",
    "corr_minor",
    "corr_matrices",
    "z_psd_mask",
    "pt_correlations",
    "pt_corr_det4",
    "xi_from_diag",
    "assemble_states",
    "abs_separable_mask",
]

#: Index pairs (0-based) of the six correlations, in fixed order
#: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4) in 1-based labels.
Z_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: Default absolute tolerance for positivity tests (eigenvalues and
#: determinants).  Entries are O(1), so double precision leaves roughly
#: 1e-13 of headroom on 4x4 determinants.
DEFAULT_TOL = 1e-12

_STRUCT_TOL = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric 4x4 matrix with unit trace and diagonal in [0, 1].

    The stored array is exactly symmetric (the upper triangle is mirrored
    at construction) and read-only.  Positive semidefiniteness is *not*
    enforced here; callers test it with :func:`is_psd`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (4, 4):
            raise InvalidStateError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidStateError("matrix entries must be finite")
        if np.max(np.abs(m - m.T)) > _STRUCT_TOL:
            raise InvalidStateError("matrix is not symmetric within 1e-12")
        m = np.triu(m) + np.triu(m, 1).T  # mirror exactly
        if abs(m.trace() - 1.0) > _STRUCT_TOL:
            raise InvalidStateError(f"trace must be 1, got {m.trace()!r}")
        d = np.diag(m)
        if np.any(d < -_STRUCT_TOL) or np.any(d > 1.0 + _STRUCT_TOL):
            raise InvalidStateError("diagonal entries must lie in [0, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def diag(self) -> np.ndarray:
        return np.diag(self.matrix)


@dataclass(frozen=True)
class BlooreCoords:
    """Simplex diagonal plus the six correlations ``z_ij``.

    ``z`` is ordered per :data:`Z_PAIRS`.  The coordinates describe a valid
    symmetric unit-trace matrix for any ``|z_ij| <= 1``; whether that matrix
    is PSD depends only on ``z`` (see :func:`is_psd`).
    """

    diag: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if d.shape != (4,):
            raise InvalidStateError(f"diag must have 4 entries, got shape {d.shape}")
        if z.shape != (6,):
            raise InvalidStateError(f"z must have 6 entries, got shape {z.shape}")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z))):
            raise InvalidStateError("coordinates must be finite")
        if np.any(d < -_STRUCT_TOL):
            raise InvalidStateError("diagonal entries must be nonnegative")
        if abs(d.sum() - 1.0) > _STRUCT_TOL:
            raise InvalidStateError(f"diag must sum to 1, got {d.sum()!r}")
        if np.any(np.abs(z) > 1.0 + _STRUCT_TOL):
            raise InvalidStateError("correlations must satisfy |z_ij| <= 1")
        d = d.copy()
        z = np.clip(z, -1.0, 1.0)
        d.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "z", z)

    def correlation_matrix(self) -> np.ndarray:
        """The 4x4 unit-diagonal matrix Z."""
        return corr_matrices(self.z[:, None])[0]


def werner(w: float) -> DensityMatrix:
    """Werner-type state ``w |phi+><phi+| + (1-w) I/4`` with
    ``|phi+> = (|00> + |11>)/sqrt(2)``; separable exactly for ``w <= 1/3``."""
    if not 0.0 <= w <= 1.0:
        raise InvalidStateError(f"mixing weight must be in [0, 1], got {w}")
    m = np.diag([(1 - w) / 4 + w / 2, (1 - w) / 4, (1 - w) / 4, (1 - w) / 4 + w / 2])
    m[0, 3] = m[3, 0] = w / 2
    return DensityMatrix(m)


def from_bloore(c: BlooreCoords) -> DensityMatrix:
    """Assemble ``rho_ij = z_ij * sqrt(rho_ii * rho_jj)`` from coordinates.

    The result is symmetric with unit trace by construction; it is *not*
    guaranteed PSD (test with :func:`is_psd`).
    """
    m = assemble_states(c.diag[None], c.z[None])[0]
    np.fill_diagonal(m, c.diag)  # sqrt(d)**2 is not d in the last ulp
    return DensityMatrix(m)


def to_bloore(rho: DensityMatrix) -> BlooreCoords:
    """Inverse of :func:`from_bloore`; requires a strictly positive diagonal."""
    d = rho.diag
    if np.any(d <= 0.0):
        raise DegenerateStateError(
            "correlation coordinates need strictly positive diagonal entries"
        )
    s = np.sqrt(d)
    z = np.array([rho.matrix[i, j] / (s[i] * s[j]) for i, j in Z_PAIRS])
    return BlooreCoords(diag=d, z=z)


def xi_of(c: BlooreCoords) -> float:
    """The diagonal log-ratio ``xi = 1/2 log(d1*d4/(d2*d3))``.

    Returned as a plain (finite) float; strictly positive diagonal required.
    """
    d = c.diag
    if np.any(d <= 0.0):
        raise DegenerateStateError("xi requires strictly positive diagonal entries")
    return 0.5 * float(np.log(d[0] * d[3] / (d[1] * d[2])))


def partial_transpose(rho: DensityMatrix) -> DensityMatrix:
    """Partial transpose on the second qubit: swaps entries (1,4) and (2,3).

    An involution; trace and diagonal are untouched.
    """
    m = rho.matrix.copy()
    m[0, 3], m[1, 2] = m[1, 2], m[0, 3]
    m[3, 0], m[2, 1] = m[2, 1], m[3, 0]
    return DensityMatrix(m)


def principal_minors_2x2(rho: DensityMatrix) -> np.ndarray:
    """Determinants of the six 2x2 principal submatrices, ordered per
    :data:`Z_PAIRS`."""
    m = rho.matrix
    return np.array([m[i, i] * m[j, j] - m[i, j] ** 2 for i, j in Z_PAIRS])


def principal_minors_3x3(rho: DensityMatrix) -> np.ndarray:
    """Determinants of the four 3x3 principal submatrices obtained by
    deleting index k, for k = 1..4 in that order."""
    m = rho.matrix
    out = np.empty(4)
    for k in range(4):
        keep = [i for i in range(4) if i != k]
        out[k] = np.linalg.det(m[np.ix_(keep, keep)])
    return out


def is_psd(state, tol: float = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue is >= -tol.

    Accepts a :class:`DensityMatrix` or :class:`BlooreCoords`.  For
    coordinates the test is applied to *Z* itself, which is equivalent
    (for a nonnegative diagonal) and manifestly independent of ``diag``.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    if isinstance(state, BlooreCoords):
        m = state.correlation_matrix()
    elif isinstance(state, DensityMatrix):
        m = state.matrix
    else:
        raise TypeError(f"expected DensityMatrix or BlooreCoords, got {type(state)!r}")
    return float(np.linalg.eigvalsh(m)[0]) >= -tol


def is_separable(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> bool:
    """PPT separability test: ``det PT(rho) >= -tol``.

    For a PSD two-qubit state at most one eigenvalue of the partial
    transpose can be negative, so the determinant sign alone decides PSD of
    the partial transpose.  The determinant (a degree-4 polynomial) is the
    hot path; eigenvalue-based equivalence is exercised by the test suite.
    """
    if not is_psd(rho, tol):
        raise NonPsdError("separability test requires a PSD state")
    return float(np.linalg.det(partial_transpose(rho).matrix)) >= -tol


def is_absolutely_separable(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Spectral test for separability under *every* global unitary.

    With eigenvalues sorted ``l1 >= l2 >= l3 >= l4``, the state is
    absolutely separable iff ``l1 - l3 - 2*sqrt(l2*l4) <= 0``.  This is the
    standard two-qubit criterion from the absolute-separability literature
    (external to the separability-function analysis implemented here, which
    quotes only the resulting probability).
    """
    if not is_psd(rho, tol):
        raise NonPsdError("absolute-separability test requires a PSD state")
    return bool(abs_separable_mask(rho.matrix[None])[0])


# ---------------------------------------------------------------------------
# Array kernels.
#
# These operate on batches: ``z`` has shape (n, 6) ordered per Z_PAIRS,
# ``diag`` has shape (n, 4).  They are plain polynomial arithmetic (plus one
# batched eigensolve), with no Python-level loop over rows.
# ---------------------------------------------------------------------------


def corr_det3(p, q, r):
    """det of a unit-diagonal symmetric 3x3 with off-diagonals p, q, r
    (symmetric in its arguments)."""
    return 1.0 + 2.0 * p * q * r - p * p - q * q - r * r


def corr_det4(s12, s13, s14, s23, s24, s34):
    """det of a unit-diagonal symmetric 4x4 with the given off-diagonals."""
    return (
        s12 * s12 * s34 * s34 - s12 * s12 + 2 * s12 * s13 * s23
        - 2 * s12 * s13 * s24 * s34 - 2 * s12 * s14 * s23 * s34
        + 2 * s12 * s14 * s24 + s13 * s13 * s24 * s24 - s13 * s13
        - 2 * s13 * s14 * s23 * s24 + 2 * s13 * s14 * s34
        + s14 * s14 * s23 * s23 - s14 * s14 - s23 * s23 - s24 * s24
        - s34 * s34 + 2 * s23 * s24 * s34 + 1.0
    )


def corr_minor(s, rows):
    """Principal minor on the 0-based ``rows`` (two, three or all four, in
    increasing order) of the unit-diagonal symmetric 4x4 whose six
    off-diagonal columns ``s`` are ordered per :data:`Z_PAIRS`; rows
    ``(0, 1, 2, 3)`` give the full determinant."""
    off = [s[Z_PAIRS.index(pair)] for pair in combinations(rows, 2)]
    if len(off) == 1:
        return 1.0 - off[0] * off[0]
    return (corr_det3 if len(off) == 3 else corr_det4)(*off)


def z_psd_mask(z: np.ndarray) -> np.ndarray:
    """Strict positive-definiteness mask for correlation matrices.

    Sylvester's criterion on the leading minors; the PSD/PD boundary has
    measure zero under the sampling measures used here.  The 4x4
    determinant is evaluated only on rows that pass the 2x2 and 3x3 minors.
    """
    mask = (corr_minor(z.T, (0, 1)) > 0.0) & (corr_minor(z.T, (0, 1, 2)) > 0.0)
    rows = np.flatnonzero(mask)
    mask[rows] = corr_minor(z[rows].T, (0, 1, 2, 3)) > 0.0
    return mask


def pt_correlations(z: np.ndarray, xi):
    """The partial transpose's six correlations, a tuple of columns ordered
    per :data:`Z_PAIRS`: ``z_23 e^-xi`` moves into slot (1,4) and ``z_14 e^xi``
    into slot (2,3).  Each principal minor of the partially transposed state
    is their minor times a positive product of diagonal entries, so its sign
    is diagonal-free."""
    e = np.exp(xi)
    return (z[:, 0], z[:, 1], z[:, 3] / e, z[:, 2] * e, z[:, 4], z[:, 5])


def pt_corr_det4(z: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """det of the partial transpose's correlation matrix; the full
    determinant is this value times ``prod(diag)``."""
    return corr_minor(pt_correlations(z, xi), (0, 1, 2, 3))


def xi_from_diag(diag: np.ndarray) -> np.ndarray:
    """Vectorized diagonal log-ratio; infinite where a diagonal entry is 0."""
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(diag[:, 0] * diag[:, 3] / (diag[:, 1] * diag[:, 2]))


def corr_matrices(s) -> np.ndarray:
    """Stack of unit-diagonal symmetric 4x4 matrices, shape (n, 4, 4), from
    six off-diagonal columns ordered per :data:`Z_PAIRS` (``z.T`` of a batch)."""
    out = np.ones((len(s[0]), 4, 4))
    for k, (i, j) in enumerate(Z_PAIRS):
        out[:, i, j] = out[:, j, i] = s[k]
    return out


def assemble_states(diag: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stack of dense 4x4 states from batched coordinates, shape (n, 4, 4)."""
    s = np.sqrt(diag)
    return s[:, :, None] * s[:, None, :] * corr_matrices(z.T)


def abs_separable_mask(states: np.ndarray) -> np.ndarray:
    """:func:`is_absolutely_separable`'s spectral test on a (n, 4, 4) stack."""
    ev = np.linalg.eigvalsh(states)  # ascending; l2 * l4 clamped at roundoff
    gap = ev[:, 3] - ev[:, 1] - 2.0 * np.sqrt(np.maximum(ev[:, 2] * ev[:, 0], 0.0))
    return gap <= 0.0
