import numpy as np
import pytest

from ghzgames import linalg
from ghzgames.games import stranger_constraint_matrix
from ghzgames.linalg import commutes, rank
from ghzgames.quantum import SIGMA_X, SIGMA_Y, X_PLUS, expand, ghz_basis, product_basis


def antidiag_entries(m):
    n = m.shape[0]
    return [m[i, n - 1 - i] for i in range(n)]


def test_tensor_three_x_is_all_ones_antidiagonal():
    op = np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X))
    assert np.allclose(op, np.fliplr(np.eye(8)))


def test_tensor_yyx_antidiagonal():
    op = np.kron(SIGMA_Y, np.kron(SIGMA_Y, SIGMA_X))
    assert np.allclose(antidiag_entries(op), [-1, -1, 1, 1, 1, 1, -1, -1])


def test_tensor_of_vectors():
    v = np.kron(X_PLUS, X_PLUS)
    assert v.shape == (4,)
    assert np.allclose(v, np.full(4, 0.5))


def test_matmul_involution():
    assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))


def test_matmul_yx_is_minus_i_z():
    assert np.allclose(SIGMA_Y @ SIGMA_X, -1j * np.diag([1, -1]))


def test_matmul_projector_idempotent():
    p = (np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X)) + np.eye(8)) / 2
    assert np.allclose(p @ p, p)


def test_commutes_context_operators():
    yyx = np.kron(SIGMA_Y, np.kron(SIGMA_Y, SIGMA_X))
    xxx = np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X))
    assert commutes(yyx, xxx)


def test_commutes_single_qubit_pair_fails():
    assert not commutes(SIGMA_X, SIGMA_Y)


def test_commutes_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert commutes(np.eye(8), m)


def test_commutes_shape_check():
    with pytest.raises(ValueError):
        commutes(np.eye(2), np.eye(4))


def test_inner_is_conjugate_linear_in_first_argument():
    # expansion coefficients are <basis vector|state>, so a phase on the
    # state comes through unconjugated
    basis = product_basis("yy")
    assert [c for _, c in expand(1j * basis.vectors[0], basis)] == pytest.approx([1j, 0, 0, 0])


def test_inner_z_plus_with_x_plus():
    assert np.vdot([1, 0], X_PLUS) == pytest.approx(1 / np.sqrt(2))


def test_scale_add_builds_pair_state():
    expected = np.zeros(8)
    expected[0] = expected[7] = 1 / np.sqrt(2)
    assert np.allclose(ghz_basis().vectors[0], expected)


def test_rank_identity():
    assert rank(np.eye(4)) == 4


def test_rank_zero_matrix():
    assert rank(np.zeros((8, 4))) == 0


def test_rank_matches_svd_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        right = rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols))
        m = left @ right if r else np.zeros((rows, cols))
        assert rank(m) == np.linalg.matrix_rank(m, tol=1e-9)


def test_rank_plus_nullity_is_cols():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        kernel = 7 - int((np.linalg.svd(m, compute_uv=False) > 1e-9).sum())
        assert rank(m) + kernel == 7


def test_rank_respects_tolerance():
    # singular values count above EPS = 1e-9 times the largest entry
    assert rank(np.diag([1.0, 1e-12])) == 1
    assert rank(np.diag([1.0, 1e-8])) == 2


# at 1e-12 every entry is below an absolute 1e-9, so only a relative threshold keeps rank 4
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
def test_rank_tolerance_is_relative_to_the_largest_entry(scale):
    assert rank(scale * stranger_constraint_matrix()) == 4


def test_norm_and_unit_predicates():
    v = np.array([3.0, 4.0])
    assert np.linalg.norm(v) == pytest.approx(5.0)
    assert linalg.is_unit(v / 5.0)
    assert not linalg.is_unit(v)


def test_hermitian_and_projector_predicates():
    p = (np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X)) + np.eye(8)) / 2
    assert linalg.is_hermitian(p)
    assert linalg.is_projector(p)
    assert not linalg.is_projector(SIGMA_X + 1)
