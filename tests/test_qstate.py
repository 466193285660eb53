"""State-layer tests: Bloore coordinates, partial transpose, positivity."""

from itertools import combinations

import numpy as np
import pytest

from sepscope.errors import DegenerateStateError, InvalidStateError, NonPsdError
from sepscope.qstate import (
    BlooreCoords,
    DensityMatrix,
    Z_PAIRS,
    assemble_states,
    corr_det3,
    corr_det4,
    corr_matrices,
    corr_minor,
    from_bloore,
    is_absolutely_separable,
    is_psd,
    is_separable,
    partial_transpose,
    principal_minors_2x2,
    principal_minors_3x3,
    pt_corr_det4,
    pt_correlations,
    to_bloore,
    werner,
    xi_from_diag,
    xi_of,
    z_psd_mask,
)


def _random_coords(rng, n):
    """Batched (diag, z) with z conditioned on the correlation matrix being
    positive definite, so every row assembles to a valid state."""
    z = rng.uniform(-1.0, 1.0, size=(8 * n, 6))
    z = z[z_psd_mask(z)][:n]
    assert len(z) == n, "raise the oversampling factor"
    diag = rng.dirichlet([2.5] * 4, size=n)
    return diag, z


def _pt_batch(states):
    """Partial transpose of a stack of 4x4 matrices."""
    out = states.copy()
    out[:, 0, 3], out[:, 1, 2] = states[:, 1, 2], states[:, 0, 3]
    out[:, 3, 0], out[:, 2, 1] = states[:, 2, 1], states[:, 3, 0]
    return out


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_density_matrix_validation():
    good = np.diag([0.4, 0.3, 0.2, 0.1])
    DensityMatrix(good)
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(3))
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.2]))  # trace 1.1
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([1.2, -0.2, 0.0, 0.0]))  # diag outside [0, 1]
    bad = good.copy()
    bad[0, 1] = 0.05  # not symmetric
    with pytest.raises(InvalidStateError):
        DensityMatrix(bad)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(InvalidStateError):
        DensityMatrix(bad)


def test_bloore_coords_validation():
    BlooreCoords(diag=[0.25] * 4, z=[0.0] * 6)
    with pytest.raises(InvalidStateError):
        BlooreCoords(diag=[0.5, 0.5, 0.0], z=[0.0] * 6)
    with pytest.raises(InvalidStateError):
        BlooreCoords(diag=[0.25] * 4, z=[0.0] * 5)
    with pytest.raises(InvalidStateError):
        BlooreCoords(diag=[0.25] * 4, z=[1.5] + [0.0] * 5)
    with pytest.raises(InvalidStateError):
        BlooreCoords(diag=[0.3, 0.3, 0.3, 0.1001], z=[0.0] * 6)
    with pytest.raises(InvalidStateError):
        BlooreCoords(diag=[-0.1, 0.4, 0.4, 0.3], z=[0.0] * 6)


def test_bloore_roundtrip():
    rng = np.random.default_rng(11)
    diag, z = _random_coords(rng, 50)
    for k in range(50):
        c = BlooreCoords(diag=diag[k], z=z[k])
        rho = from_bloore(c)
        back = to_bloore(rho)
        assert np.allclose(back.diag, c.diag, atol=1e-15)
        assert np.allclose(back.z, c.z, atol=1e-14)
        assert abs(rho.matrix.trace() - 1.0) < 1e-14


def test_degenerate_diagonal_rejected():
    rho = DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(DegenerateStateError):
        to_bloore(rho)
    c = BlooreCoords(diag=[0.5, 0.5, 0.0, 0.0], z=[0.0] * 6)
    with pytest.raises(DegenerateStateError):
        xi_of(c)


def test_xi_of_matches_formula():
    c = BlooreCoords(diag=[0.4, 0.2, 0.1, 0.3], z=[0.0] * 6)
    assert xi_of(c) == pytest.approx(0.5 * np.log(0.4 * 0.3 / (0.2 * 0.1)), abs=1e-15)
    batch = xi_from_diag(np.array([[0.4, 0.2, 0.1, 0.3]]))
    assert batch[0] == pytest.approx(xi_of(c), abs=1e-15)


def test_xi_from_diag_zero_entry_is_infinite():
    xi = xi_from_diag(np.array([[0.5, 0.25, 0.0, 0.25], [0.0, 0.5, 0.25, 0.25]]))
    assert xi[0] == np.inf and xi[1] == -np.inf


# ---------------------------------------------------------------------------
# Partial transpose
# ---------------------------------------------------------------------------


def test_partial_transpose_swaps_exactly_one_pair():
    rng = np.random.default_rng(21)
    diag, z = _random_coords(rng, 20)
    for k in range(20):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        pt = partial_transpose(rho)
        assert pt.matrix[0, 3] == rho.matrix[1, 2]
        assert pt.matrix[1, 2] == rho.matrix[0, 3]
        # everything else untouched
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = False
        assert np.array_equal(pt.matrix[mask], rho.matrix[mask])


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(22)
    diag, z = _random_coords(rng, 20)
    for k in range(20):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        assert np.array_equal(partial_transpose(partial_transpose(rho)).matrix, rho.matrix)


def test_forgetting_the_swap_misses_entanglement():
    """det(rho) >= 0 for every state, so a partial transpose that does not
    move the (1,4)/(2,3) entries would declare the Bell mixture separable at
    every weight; the real test flips exactly at w = 1/3."""
    for w in (0.4, 0.7, 1.0):
        rho = werner(w)
        assert float(np.linalg.det(rho.matrix)) >= -1e-15  # the broken test
        assert not is_separable(rho)  # the real one


def test_werner_threshold():
    assert is_separable(werner(0.0))
    assert is_separable(werner(1.0 / 3.0))
    assert not is_separable(werner(1.0 / 3.0 + 1e-9))
    assert not is_separable(werner(1.0))
    for w in (0.0, 0.25, 0.5, 0.9):
        ev = np.linalg.eigvalsh(partial_transpose(werner(w)).matrix)
        assert ev[0] == pytest.approx((1.0 - 3.0 * w) / 4.0, abs=1e-14)
    with pytest.raises(InvalidStateError):
        werner(1.5)
    with pytest.raises(InvalidStateError):
        werner(-0.1)


# ---------------------------------------------------------------------------
# Positivity and separability predicates
# ---------------------------------------------------------------------------


def test_is_psd_input_validation():
    rho = werner(0.2)
    with pytest.raises(ValueError):
        is_psd(rho, tol=-1e-3)
    with pytest.raises(TypeError):
        is_psd(rho.matrix)  # bare array is ambiguous


def test_predicates_require_psd_input():
    # |z_12| = 1 with conflicting z_13, z_23 makes Z indefinite.
    c = BlooreCoords(diag=[0.25] * 4, z=[1.0, 0.9, 0.0, -0.9, 0.0, 0.0])
    rho = from_bloore(c)
    assert not is_psd(rho)
    with pytest.raises(NonPsdError):
        is_separable(rho)
    with pytest.raises(NonPsdError):
        is_absolutely_separable(rho)


def test_is_psd_depends_only_on_correlations():
    rng = np.random.default_rng(31)
    z_all = rng.uniform(-1.0, 1.0, size=(40, 6))
    picked = 0
    for z in z_all:
        verdicts = set()
        for _ in range(15):
            diag = rng.dirichlet([2.5] * 4)
            c = BlooreCoords(diag=diag, z=z)
            assert is_psd(c) == is_psd(from_bloore(c))
            verdicts.add(is_psd(c))
        assert len(verdicts) == 1  # diagonal never changes the answer
        picked += 1
    assert picked == 40


def test_absolutely_separable_examples():
    assert is_absolutely_separable(werner(0.0))
    # Boundary of the criterion: eigenvalues (l, 1-l, 0, 0) fail for l > 1/2.
    assert not is_absolutely_separable(werner(1.0))
    # Absolute separability is strictly stronger than separability.
    rng = np.random.default_rng(32)
    diag, z = _random_coords(rng, 400)
    n_abs = n_sep = 0
    for k in range(400):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        s = is_separable(rho)
        a = is_absolutely_separable(rho)
        assert not a or s  # abs-separable implies separable
        n_sep += s
        n_abs += a
    assert 0 < n_abs < n_sep < 400


# ---------------------------------------------------------------------------
# Determinant kernels against dense linear algebra
# ---------------------------------------------------------------------------


def test_corr_det_kernels_match_dense_determinants():
    rng = np.random.default_rng(41)
    for _ in range(100):
        p, q, r = rng.uniform(-1, 1, 3)
        m3 = np.array([[1, p, q], [p, 1, r], [q, r, 1]], dtype=float)
        assert corr_det3(p, q, r) == pytest.approx(np.linalg.det(m3), abs=1e-13)
        s = rng.uniform(-1, 1, 6)
        m4 = np.eye(4)
        for k, (i, j) in enumerate(Z_PAIRS):
            m4[i, j] = m4[j, i] = s[k]
        assert corr_det4(*s) == pytest.approx(np.linalg.det(m4), abs=1e-13)


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
    rng = np.random.default_rng(42)
    diag, z = _random_coords(rng, 30)
    for k in range(30):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        m = rho.matrix
        two = [np.linalg.det(m[np.ix_(p, p)]) for p in Z_PAIRS]
        assert np.allclose(principal_minors_2x2(rho), two, atol=1e-14)
        three = [
            np.linalg.det(m[np.ix_(keep, keep)])
            for keep in ([1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2])
        ]
        assert np.allclose(principal_minors_3x3(rho), three, atol=1e-14)


def test_pt_corr_det4_matches_full_determinant():
    rng = np.random.default_rng(43)
    diag, z = _random_coords(rng, 2000)
    xi = xi_from_diag(diag)
    states = assemble_states(diag, z)
    full = np.linalg.det(_pt_batch(states))
    scaled = pt_corr_det4(z, xi) * diag.prod(axis=1)
    assert np.max(np.abs(full - scaled)) < 1e-13


def test_pt_correlations_are_the_dense_partial_transpose():
    """Scaled back by sqrt(d_i d_j), each PT correlation is the matching
    entry of the densely partially-transposed state."""
    rng = np.random.default_rng(46)
    diag, z = _random_coords(rng, 2000)
    pt = _pt_batch(assemble_states(diag, z))
    cols = pt_correlations(z, xi_from_diag(diag))
    assert len(cols) == 6
    for k, (i, j) in enumerate(Z_PAIRS):
        scaled = cols[k] * np.sqrt(diag[:, i] * diag[:, j])
        assert np.allclose(scaled, pt[:, i, j], rtol=1e-14, atol=0.0), (i, j)
        assert np.array_equal(pt[:, i, j], pt[:, j, i])


def test_z_psd_mask_matches_eigensolve():
    rng = np.random.default_rng(44)
    z = rng.uniform(-1.0, 1.0, size=(3000, 6))
    zz = np.ones((len(z), 4, 4))
    for k, (i, j) in enumerate(Z_PAIRS):
        zz[:, i, j] = zz[:, j, i] = z[:, k]
    ev_min = np.linalg.eigvalsh(zz)[:, 0]
    clear = np.abs(ev_min) > 1e-12  # skip the measure-zero boundary
    assert np.array_equal(z_psd_mask(z)[clear], ev_min[clear] > 0)


def test_assemble_states_matches_scalar_constructor():
    rng = np.random.default_rng(45)
    diag, z = _random_coords(rng, 10)
    states = assemble_states(diag, z)
    for k in range(10):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        assert np.allclose(states[k], rho.matrix, atol=1e-16)


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
    ev = np.linalg.eigvalsh(_pt_batch(assemble_states(diag, z)))
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
    det1 = np.linalg.det(_pt_batch(assemble_states(diag1, z)))
    det2 = np.linalg.det(_pt_batch(assemble_states(diag2, z)))
    ref = pt_corr_det4(z, xi)
    clear = np.abs(ref) > 1e-10
    assert clear.sum() > 9000
    assert np.array_equal(det1[clear] >= 0, ref[clear] >= 0)
    assert np.array_equal(det2[clear] >= 0, ref[clear] >= 0)


def test_separable_implies_nonnegative_pt_minors():
    """Separability (PSD partial transpose) forces every principal minor of
    the partial transpose to be nonnegative; the converse ordering holds for
    the 3x3 -> 2x2 chain only where positivity propagates."""
    rng = np.random.default_rng(54)
    diag, z = _random_coords(rng, 500)
    for k in range(500):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        if not is_separable(rho):
            continue
        pt = partial_transpose(rho)
        assert np.all(principal_minors_3x3(pt) >= -1e-10)
        assert np.all(principal_minors_2x2(pt) >= -1e-10)


def test_relabel_symmetry_flips_xi():
    """Swapping the second qubit's basis states permutes the diagonal to
    (2, 1, 4, 3), reorders the correlations, negates xi, and preserves both
    positivity and separability."""
    rng = np.random.default_rng(55)
    diag, z = _random_coords(rng, 4000)
    xi = xi_from_diag(diag)
    diag_r = diag[:, [1, 0, 3, 2]]
    z_r = z[:, [0, 4, 3, 2, 1, 5]]
    assert np.max(np.abs(xi_from_diag(diag_r) + xi)) < 1e-12
    assert np.array_equal(z_psd_mask(z_r), z_psd_mask(z))
    assert np.allclose(pt_corr_det4(z_r, -xi), pt_corr_det4(z, xi), atol=1e-13)
    # spot-check the scalar predicates through the dense representation
    for k in range(0, 4000, 500):
        rho = from_bloore(BlooreCoords(diag=diag[k], z=z[k]))
        rho_r = from_bloore(BlooreCoords(diag=diag_r[k], z=z_r[k]))
        assert is_psd(rho_r) == is_psd(rho)
        assert is_separable(rho_r) == is_separable(rho)
        assert is_absolutely_separable(rho_r) == is_absolutely_separable(rho)
