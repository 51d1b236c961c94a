from fractions import Fraction

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


@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 3)])
def test_rank_of_an_empty_matrix_is_zero(shape):
    assert rank(np.zeros(shape)) == 0


def test_rank_rejects_a_vector():
    with pytest.raises(ValueError, match="expected a matrix"):
        rank(np.ones(3))


@pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)], ids=["nan", "inf", "-inf", "complex-nan"]
)
def test_rank_rejects_a_non_finite_entry(bad):
    with pytest.raises(ValueError, match="expected a matrix"):
        rank([[bad, 1], [1, 1]])


def _fraction_rank(m):
    """Reference rank: row reduction over the Gaussian rationals, each entry a pair of Fractions."""
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in np.asarray(m, dtype=complex).tolist()]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if any(rows[i][col])), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        (c, d), top = rows[r][col], rows[r]
        for i in range(r + 1, len(rows)):
            # subtract (f + gi) = (a + bi) / (c + di) times the pivot row
            a, b = rows[i][col]
            f, g = (a * c + b * d) / (c * c + d * d), (b * c - a * d) / (c * c + d * d)
            rows[i] = [(x - f * u + g * v, y - f * v - g * u) for (x, y), (u, v) in zip(rows[i], top)]
        r += 1
    return r


def test_rank_matches_exact_elimination_on_gaussian_low_rank_products():
    # entries k/4 with k a Gaussian integer: halves and quarters catch a wrong scaling
    rng = np.random.default_rng(42)
    for _ in range(200):
        rows, cols = rng.integers(1, 9, size=2)
        r = int(rng.integers(0, min(rows, cols) + 1))
        left = rng.integers(-3, 4, size=(rows, r)) + 1j * rng.integers(-3, 4, size=(rows, r))
        right = rng.integers(-3, 4, size=(r, cols)) + 1j * rng.integers(-3, 4, size=(r, cols))
        right = right / rng.choice([1, 2, 4])
        m = left @ right
        assert rank(m) == _fraction_rank(m) <= r
    # dense 16x16 products pin the growth bound: without the gcd division each step doubles the entries' length
    for r in (16, 11):
        left = rng.integers(-3, 4, size=(16, r)) + 1j * rng.integers(-3, 4, size=(16, r))
        right = (rng.integers(-3, 4, size=(r, 16)) + 1j * rng.integers(-3, 4, size=(r, 16))) / 4
        m = left @ right
        assert rank(m) == _fraction_rank(m) == r


def test_rank_has_no_threshold():
    # exact: a 1e-12 diagonal entry, even the subnormal 5e-324, is a nonzero pivot
    assert rank(np.diag([1.0, 1e-12])) == 2
    assert rank(np.diag([1.0, 5e-324])) == 2
    assert rank(np.diag([1.0, 0.0])) == 1
    # 1e300 * 1e-300 == 1.0 in floats, but the exact product of the two doubles is not 1
    assert rank([[1e300, 1], [1, 1e-300]]) == 2


# exact elimination is scale-free: every entry below an absolute 1e-9 still gives rank 4
@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6])
def test_rank_is_scale_free(scale):
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
