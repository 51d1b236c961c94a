import numpy as np
import pytest

from ghzgames import linalg
from ghzgames.games import stranger_constraint_matrix
from ghzgames.linalg import commutes, is_projector, rank
from ghzgames.quantum import SIGMA_X, SIGMA_Y, context_operator

# A perturbation far below the 1e-9 that the operator facts once tolerated.
TINY = 1e-12


def test_commutes_single_qubit_pair_fails():
    assert not commutes(SIGMA_X, SIGMA_Y)


def test_commutes_identity():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert commutes(np.eye(8), m)


def test_commutes_rejects_a_perturbed_commutator():
    xxx = context_operator("xxx")
    nudged = xxx.copy()
    nudged[0, 0] += TINY
    assert commutes(context_operator("yyx"), xxx)
    assert not commutes(context_operator("yyx"), nudged)


def test_commutes_shape_check():
    with pytest.raises(ValueError):
        commutes(np.eye(2), np.eye(4))


def test_rank_identity():
    assert rank(np.eye(4)) == 4


def test_rank_zero_matrix():
    assert rank(np.zeros((8, 4))) == 0
    assert rank(np.zeros((0, 0))) == 0


def test_rank_rejects_a_vector():
    with pytest.raises(ValueError, match="expected a matrix"):
        rank(np.ones(3))


def test_rank_matches_svd_oracle_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        right = rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols))
        m = left @ right if r else np.zeros((rows, cols))
        assert rank(m) == np.linalg.matrix_rank(m, tol=1e-9)


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
    assert linalg.is_unit(v / 5.0)
    assert not linalg.is_unit(v)


def test_projector_predicate():
    p = (np.kron(SIGMA_X, np.kron(SIGMA_X, SIGMA_X)) + np.eye(8)) / 2
    assert is_projector(p)
    assert not is_projector(SIGMA_X + 1)
    # idempotent but not Hermitian: an oblique projection
    oblique = np.array([[1, 1], [0, 0]])
    assert np.array_equal(oblique @ oblique, oblique)
    assert not is_projector(oblique)


@pytest.mark.parametrize("entry", [(0, 0), (0, 7)])
def test_projector_predicate_rejects_a_perturbed_projector(entry):
    # (0, 0) keeps the matrix Hermitian but breaks idempotence; (0, 7) breaks both
    p = (context_operator("xxx") + np.eye(8)) / 2
    p[entry] += TINY
    assert not is_projector(p)
