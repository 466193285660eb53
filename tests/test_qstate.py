"""State-layer tests: correlation coordinates, partial transpose, positivity.

Every kernel takes a batch; the dense :func:`partial_transpose` of the
assembled states is the reference the correlation-coordinate kernels are
held to.
"""

from itertools import combinations

import numpy as np
import pytest

from sepscope.qstate import (
    EVENTS,
    Z_PAIRS,
    abs_separable_mask,
    assemble_states,
    corr_matrices,
    corr_minor,
    event_margin,
    partial_transpose,
    pt_corr_det4,
    pt_correlations,
    werner,
    xi_from_diag,
    z_psd_mask,
)

#: Absolute tolerance of the dense verdicts: the smallest eigenvalue for
#: positivity, the determinant of the partial transpose for separability.
_TOL = 1e-12


def _random_coords(rng, n):
    """Batched (diag, z) with z conditioned on the correlation matrix being
    positive definite, so every row assembles to a valid state."""
    z = rng.uniform(-1.0, 1.0, size=(8 * n, 6))
    z = z[z_psd_mask(z)][:n]
    assert len(z) == n, "raise the oversampling factor"
    diag = rng.dirichlet([2.5] * 4, size=n)
    return diag, z


def _separable(states):
    """Dense PPT verdict on a stack: ``det PT(rho) >= -1e-12``."""
    return np.linalg.det(partial_transpose(states)) >= -_TOL


def _psd(states):
    return np.linalg.eigvalsh(states)[:, 0] >= -_TOL


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------


def test_xi_of_matches_formula():
    xi = xi_from_diag(np.array([[0.4, 0.2, 0.1, 0.3]]))
    assert xi[0] == pytest.approx(0.5 * np.log(0.4 * 0.3 / (0.2 * 0.1)), abs=1e-15)


def test_xi_from_diag_zero_entry_is_infinite():
    xi = xi_from_diag(np.array([[0.5, 0.25, 0.0, 0.25], [0.0, 0.5, 0.25, 0.25]]))
    assert xi[0] == np.inf and xi[1] == -np.inf


# ---------------------------------------------------------------------------
# Partial transpose
# ---------------------------------------------------------------------------


def test_partial_transpose_swaps_exactly_one_pair():
    rng = np.random.default_rng(21)
    rho = assemble_states(*_random_coords(rng, 20))
    pt = partial_transpose(rho)
    assert np.array_equal(pt[:, 0, 3], rho[:, 1, 2])
    assert np.array_equal(pt[:, 1, 2], rho[:, 0, 3])
    # everything else untouched
    mask = np.ones((4, 4), dtype=bool)
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        mask[i, j] = False
    assert np.array_equal(pt[:, mask], rho[:, mask])


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(22)
    rho = assemble_states(*_random_coords(rng, 20))
    assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)


def test_forgetting_the_swap_misses_entanglement():
    """det(rho) >= 0 for every state, so a partial transpose that does not
    move the (1,4)/(2,3) entries would declare the Bell mixture separable at
    every weight; the real test flips exactly at w = 1/3."""
    for w in (0.4, 0.7, 1.0):
        rho = werner(w)
        assert float(np.linalg.det(rho)) >= -1e-15  # the broken test
        assert not _separable(rho[None])[0]  # the real one


def test_werner_threshold():
    states = np.stack([werner(w) for w in (0.0, 1.0 / 3.0, 1.0 / 3.0 + 1e-9, 1.0)])
    assert _separable(states).tolist() == [True, True, False, False]
    for w in (0.0, 0.25, 0.5, 0.9):
        ev = np.linalg.eigvalsh(partial_transpose(werner(w)))
        assert ev[0] == pytest.approx((1.0 - 3.0 * w) / 4.0, abs=1e-14)
    with pytest.raises(ValueError):
        werner(1.5)
    with pytest.raises(ValueError):
        werner(-0.1)


# ---------------------------------------------------------------------------
# Positivity and separability verdicts
# ---------------------------------------------------------------------------


def test_is_psd_depends_only_on_correlations():
    """PSD of the assembled state is ``z_psd_mask(z)`` for 15 diagonals per
    z: the diagonal never changes the answer."""
    rng = np.random.default_rng(31)
    z = np.repeat(rng.uniform(-1.0, 1.0, size=(40, 6)), 15, axis=0)
    diag = rng.dirichlet([2.5] * 4, size=len(z))
    verdicts = _psd(assemble_states(diag, z)).reshape(40, 15)
    assert np.array_equal(verdicts, np.repeat(z_psd_mask(z[::15])[:, None], 15, axis=1))
    assert 0 < verdicts[:, 0].sum() < 40


def test_absolutely_separable_examples():
    assert abs_separable_mask(werner(0.0)[None])[0]
    # Boundary of the criterion: eigenvalues (l, 1-l, 0, 0) fail for l > 1/2.
    assert not abs_separable_mask(werner(1.0)[None])[0]
    # Absolute separability is strictly stronger than separability.
    rng = np.random.default_rng(32)
    states = assemble_states(*_random_coords(rng, 400))
    sep = _separable(states)
    ab = abs_separable_mask(states)
    assert not np.any(ab & ~sep)  # abs-separable implies separable
    assert 0 < ab.sum() < sep.sum() < 400


# ---------------------------------------------------------------------------
# Determinant kernels against dense linear algebra
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows", [rows for k in (2, 3, 4) for rows in combinations(range(4), k)],
    ids=lambda rows: "".join(map(str, rows)),
)
def test_corr_minor_is_the_dense_principal_minor(rows):
    """Every principal minor a row subset names -- six pairs, four triples
    and all four rows -- is the determinant of that dense submatrix."""
    s = np.random.default_rng(44).uniform(-1, 1, size=(6, 500))
    dense = corr_matrices(s)
    keep = list(rows)
    want = np.linalg.det(dense[:, keep][:, :, keep])
    assert np.max(np.abs(corr_minor(s, rows) - want)) < 1e-13


def test_principal_minors_match_dense_determinants():
    """Each 2x2 and 3x3 principal minor of a state and of its partial
    transpose is ``corr_minor`` of its correlations times the product of
    the kept diagonal entries."""
    rng = np.random.default_rng(42)
    diag, z = _random_coords(rng, 30)
    rho = assemble_states(diag, z)
    pt = partial_transpose(rho)
    for rows in [rows for k in (2, 3) for rows in combinations(range(4), k)]:
        keep = list(rows)
        scale = diag[:, keep].prod(axis=1)
        for dense, s in ((rho, z.T), (pt, pt_correlations(z, xi_from_diag(diag)))):
            want = np.linalg.det(dense[:, keep][:, :, keep])
            assert np.allclose(corr_minor(s, rows) * scale, want, atol=1e-14), rows


def test_event_margin_is_the_and_of_its_minors():
    """``event_margin >= t`` holds exactly where every minor of the event is
    >= t, also on partial-transpose columns whose xi is +-inf or NaN (a zero
    diagonal entry), where the minors are infinite or NaN."""
    assert EVENTS["minors3"] == tuple(combinations(range(4), 3))
    assert EVENTS["minors2"] == tuple(combinations(range(4), 2))
    rng = np.random.default_rng(45)
    diag, z = _random_coords(rng, 400)
    diag[0::4, 0] = 0.0  # xi = -inf
    diag[1::4, 1] = 0.0  # xi = +inf
    diag[2::4, [0, 2]] = 0.0  # xi = NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xi = xi_from_diag(diag)
        s = pt_correlations(z, xi)
        assert np.isneginf(xi).any() and np.isposinf(xi).any() and np.isnan(xi).any()
        for event, minors in EVENTS.items():
            margin = event_margin(s, event)
            for t in (0.0, -1e-10):
                want = np.logical_and.reduce([corr_minor(s, rows) >= t for rows in minors])
                assert np.array_equal(margin >= t, want), (event, t)


def test_pt_corr_det4_matches_full_determinant():
    rng = np.random.default_rng(43)
    diag, z = _random_coords(rng, 2000)
    xi = xi_from_diag(diag)
    states = assemble_states(diag, z)
    full = np.linalg.det(partial_transpose(states))
    scaled = pt_corr_det4(z, xi) * diag.prod(axis=1)
    assert np.max(np.abs(full - scaled)) < 1e-13


def test_pt_correlations_are_the_dense_partial_transpose():
    """Scaled back by sqrt(d_i d_j), each PT correlation is the matching
    entry of the densely partially-transposed state."""
    rng = np.random.default_rng(46)
    diag, z = _random_coords(rng, 2000)
    pt = partial_transpose(assemble_states(diag, z))
    cols = pt_correlations(z, xi_from_diag(diag))
    assert len(cols) == 6
    for k, (i, j) in enumerate(Z_PAIRS):
        scaled = cols[k] * np.sqrt(diag[:, i] * diag[:, j])
        assert np.allclose(scaled, pt[:, i, j], rtol=1e-14, atol=0.0), (i, j)
        assert np.array_equal(pt[:, i, j], pt[:, j, i])


@pytest.mark.parametrize("order", ["C", "F"], ids=["row-major", "column-major"])
def test_z_psd_mask_matches_eigensolve(order):
    """The mask is the eigensolve's verdict whatever the memory layout of
    ``z``, and it refuses correlations of exactly -1: the ``u = 0`` point of
    an unscrambled Sobol stream, and a singular (3,4) block that only the
    4x4 minor sees."""
    rng = np.random.default_rng(44)
    z = rng.uniform(-1.0, 1.0, size=(3000, 6))
    z[0] = -1.0
    z[1] = (0.0, 0.0, 0.0, 0.0, 0.0, -1.0)
    z = np.array(z, order=order)
    assert z.flags.c_contiguous == (order == "C")
    zz = np.ones((len(z), 4, 4))
    for k, (i, j) in enumerate(Z_PAIRS):
        zz[:, i, j] = zz[:, j, i] = z[:, k]
    ev_min = np.linalg.eigvalsh(zz)[:, 0]
    clear = np.abs(ev_min) > 1e-12  # skip the measure-zero boundary
    mask = z_psd_mask(z)
    assert not mask[0] and not mask[1]
    assert np.array_equal(mask[clear], ev_min[clear] > 0)


def test_assemble_states_matches_scalar_constructor():
    """``rho_ij = z_ij sqrt(rho_ii rho_jj)``, entry by entry."""
    rng = np.random.default_rng(45)
    diag, z = _random_coords(rng, 10)
    states = assemble_states(diag, z)
    for k in range(10):
        rho = np.diag(diag[k])
        for (i, j), zij in zip(Z_PAIRS, z[k]):
            rho[i, j] = rho[j, i] = zij * np.sqrt(diag[k, i] * diag[k, j])
        assert np.allclose(states[k], rho, atol=1e-16)
        assert abs(states[k].trace() - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# Structural properties of the separability test
# ---------------------------------------------------------------------------


def test_eigvalsh_against_characteristic_polynomial():
    """np.linalg.eigvalsh vs root-finding on the characteristic polynomial
    built by the Faddeev-LeVerrier recursion (an independent code path)."""
    rng = np.random.default_rng(51)
    diag, z = _random_coords(rng, 100)
    states = assemble_states(diag, z)
    eye = np.eye(4)
    for m in states:
        coeffs = [1.0]
        mk = np.zeros((4, 4))
        for k in range(1, 5):
            mk = m @ (mk + coeffs[-1] * eye) if k > 1 else m.copy()
            coeffs.append(-np.trace(mk) / k)
        roots = np.sort(np.roots(coeffs).real)
        assert np.max(np.abs(roots - np.linalg.eigvalsh(m))) < 1e-10


def test_determinant_sign_decides_pt_positivity():
    """For a PSD state the partial transpose has at most one negative
    eigenvalue, so det >= 0 is equivalent to PSD of the partial transpose."""
    rng = np.random.default_rng(52)
    diag, z = _random_coords(rng, 5000)
    xi = xi_from_diag(diag)
    det = pt_corr_det4(z, xi)
    ev = np.linalg.eigvalsh(partial_transpose(assemble_states(diag, z)))
    clear = np.abs(det) > 1e-10
    neg_count = (ev < -1e-12).sum(axis=1)
    assert np.all(neg_count <= 1)
    assert np.array_equal(det[clear] >= 0, neg_count[clear] == 0)


def test_xi_is_the_only_diagonal_information_that_matters():
    """Two diagonals with equal xi give identical separability verdicts for
    every correlation matrix: the full determinants agree in sign."""
    rng = np.random.default_rng(53)
    diag1, z = _random_coords(rng, 10_000)
    xi = xi_from_diag(diag1)
    # second family realizing the same xi: (a, b, b, a) with a/b = e^xi
    b = 1.0 / (2.0 * (1.0 + np.exp(xi)))
    a = np.exp(xi) * b
    diag2 = np.stack([a, b, b, a], axis=1)
    assert np.max(np.abs(xi_from_diag(diag2) - xi)) < 1e-12
    det1 = np.linalg.det(partial_transpose(assemble_states(diag1, z)))
    det2 = np.linalg.det(partial_transpose(assemble_states(diag2, z)))
    ref = pt_corr_det4(z, xi)
    clear = np.abs(ref) > 1e-10
    assert clear.sum() > 9000
    assert np.array_equal(det1[clear] >= 0, ref[clear] >= 0)
    assert np.array_equal(det2[clear] >= 0, ref[clear] >= 0)


def test_separable_implies_nonnegative_pt_minors():
    """Separability (PSD partial transpose) forces every principal minor of
    the partial transpose to be nonnegative."""
    rng = np.random.default_rng(54)
    states = assemble_states(*_random_coords(rng, 500))
    pt = partial_transpose(states)[_separable(states)]
    assert len(pt) > 0
    for rows in [rows for k in (2, 3) for rows in combinations(range(4), k)]:
        keep = list(rows)
        assert np.all(np.linalg.det(pt[:, keep][:, :, keep]) >= -1e-10), rows


def test_relabel_symmetry_flips_xi():
    """Swapping the second qubit's basis states permutes the diagonal to
    (2, 1, 4, 3), reorders the correlations, negates xi, and preserves
    positivity, separability and absolute separability."""
    rng = np.random.default_rng(55)
    diag, z = _random_coords(rng, 4000)
    xi = xi_from_diag(diag)
    diag_r = diag[:, [1, 0, 3, 2]]
    z_r = z[:, [0, 4, 3, 2, 1, 5]]
    assert np.max(np.abs(xi_from_diag(diag_r) + xi)) < 1e-12
    assert np.array_equal(z_psd_mask(z_r), z_psd_mask(z))
    assert np.allclose(pt_corr_det4(z_r, -xi), pt_corr_det4(z, xi), atol=1e-13)
    rho, rho_r = assemble_states(diag, z), assemble_states(diag_r, z_r)
    for verdict in (_psd, _separable, abs_separable_mask):
        assert np.array_equal(verdict(rho_r), verdict(rho)), verdict.__name__
