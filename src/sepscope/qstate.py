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

Every function takes a batch: ``z`` has shape (n, 6) ordered per
:data:`Z_PAIRS`, ``diag`` has shape (n, 4), and dense states are (n, 4, 4)
stacks.  The dense :func:`partial_transpose` is the reference;
:func:`pt_correlations` is its form in correlation coordinates and the one
the estimators run.  Every minor of the partial transpose is read from its
six columns by :func:`corr_minor`, which names a principal minor by the
0-based rows it keeps (``(0, 1, 2, 3)`` is the full determinant); each event
the estimators and ``verify`` test, a set of minors that must all be >= 0, is
named in :data:`EVENTS` and evaluated by :func:`event_margin`.  The kernels
are plain polynomial arithmetic (plus one batched eigensolve), with no
Python-level loop over rows.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

__all__ = [
    "Z_PAIRS",
    "werner",
    "partial_transpose",
    "corr_minor",
    "EVENTS",
    "event_margin",
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


def werner(w: float) -> np.ndarray:
    """Werner-type state ``w |phi+><phi+| + (1-w) I/4`` with
    ``|phi+> = (|00> + |11>)/sqrt(2)``, a (4, 4) array; separable exactly
    for ``w <= 1/3``."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixing weight must be in [0, 1], got {w}")
    m = np.diag([(1 - w) / 4 + w / 2, (1 - w) / 4, (1 - w) / 4, (1 - w) / 4 + w / 2])
    m[0, 3] = m[3, 0] = w / 2
    return m


def partial_transpose(states: np.ndarray) -> np.ndarray:
    """Partial transpose on the second qubit of a (..., 4, 4) stack: swaps
    entries (1,4) and (2,3).  An involution; trace and diagonal are
    untouched."""
    out = states.copy()
    out[..., 0, 3], out[..., 1, 2] = states[..., 1, 2], states[..., 0, 3]
    out[..., 3, 0], out[..., 2, 1] = states[..., 2, 1], states[..., 3, 0]
    return out


def _corr_det3(p, q, r):
    """det of a unit-diagonal symmetric 3x3 with off-diagonals p, q, r
    (symmetric in its arguments)."""
    return 1.0 + 2.0 * p * q * r - p * p - q * q - r * r


def _corr_det4(s12, s13, s14, s23, s24, s34):
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
    return (_corr_det3 if len(off) == 3 else _corr_det4)(*off)


#: Events on the partial transpose's principal minors, by name: the 0-based
#: rows of each minor that must be >= 0 ("delete:k" drops 1-based row k,
#: "pair:i,j" keeps rows i and j).
EVENTS = {
    "det": ((0, 1, 2, 3),),
    "minors3": tuple(combinations(range(4), 3)),
    "minors2": tuple(combinations(range(4), 2)),
    "delete:1": ((1, 2, 3),), "delete:2": ((0, 2, 3),),
    "delete:3": ((0, 1, 3),), "delete:4": ((0, 1, 2),),
    "pair:2,3": ((1, 2),), "pair:1,4": ((0, 3),),
}


def event_margin(s, event):
    """The smallest minor of the named ``event`` on six columns ``s`` ordered
    per :data:`Z_PAIRS`: the event holds where it is >= 0.  A one-minor event
    returns that minor itself."""
    return reduce(np.minimum, (corr_minor(s, rows) for rows in EVENTS[event]))


def z_psd_mask(z: np.ndarray) -> np.ndarray:
    """Strict positive-definiteness mask for correlation matrices: each
    row's 2x2, 3x3 and 4x4 leading minors all positive (Sylvester's
    criterion), one expression over every row.  The PSD/PD boundary has
    measure zero under the sampling measures used here."""
    s = z.T
    return ((corr_minor(s, (0, 1)) > 0.0) & (corr_minor(s, (0, 1, 2)) > 0.0)
            & (corr_minor(s, (0, 1, 2, 3)) > 0.0))


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
    return event_margin(pt_correlations(z, xi), "det")


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
    """Spectral test for separability under *every* global unitary, on a
    (n, 4, 4) stack of PSD states.

    With eigenvalues sorted ``l1 >= l2 >= l3 >= l4``, a state is absolutely
    separable iff ``l1 - l3 - 2*sqrt(l2*l4) <= 0``.  This is the standard
    two-qubit criterion from the absolute-separability literature (external
    to the separability-function analysis implemented here, which quotes
    only the resulting probability).
    """
    ev = np.linalg.eigvalsh(states)  # ascending; l2 * l4 clamped at roundoff
    gap = ev[:, 3] - ev[:, 1] - 2.0 * np.sqrt(np.maximum(ev[:, 2] * ev[:, 0], 0.0))
    return gap <= 0.0
