import math

import numpy as np
import pytest

from ghzgames import quantum
from ghzgames.linalg import is_projector
from ghzgames.quantum import (
    GHZ_CONTEXTS,
    SIGMA_X,
    SIGMA_Y,
    TWO_PARTY_CONTEXTS,
    born_probabilities,
    context_operator,
    expand,
    ghz_basis,
    ghz_superposition,
    lagrange_projectors,
    outcome_entropy,
    product_basis,
    sign_table,
)

SQRT2 = math.sqrt(2.0)

# The shared basis in the standard enumeration: (slot of the leading 1,
# slot of the second entry, its sign).
BASIS_COMPONENTS = (
    (0, 7, +1),
    (0, 7, -1),
    (1, 6, +1),
    (1, 6, -1),
    (2, 5, +1),
    (2, 5, -1),
    (3, 4, +1),
    (3, 4, -1),
)

# Product-basis vectors as Gaussian-integer arrays times 1/(2*sqrt(2)).
PRODUCT_VECTORS = {
    ("xxx", (1, 1, 1)): (1, 1, 1, 1, 1, 1, 1, 1),
    ("xxx", (1, -1, -1)): (1, -1, -1, 1, 1, -1, -1, 1),
    ("xxx", (-1, 1, -1)): (1, -1, 1, -1, -1, 1, -1, 1),
    ("xxx", (-1, -1, 1)): (1, 1, -1, -1, -1, -1, 1, 1),
    ("xyy", (-1, -1, -1)): (1, -1j, -1j, -1, -1, 1j, 1j, 1),
    ("xyy", (-1, 1, 1)): (1, 1j, 1j, -1, -1, -1j, -1j, 1),
    ("xyy", (1, -1, 1)): (1, 1j, -1j, 1, 1, 1j, -1j, 1),
    ("xyy", (1, 1, -1)): (1, -1j, 1j, 1, 1, -1j, 1j, 1),
    ("yxy", (-1, -1, -1)): (1, -1j, -1, 1j, -1j, -1, 1j, 1),
    ("yxy", (-1, 1, 1)): (1, 1j, 1, 1j, -1j, 1, -1j, 1),
    ("yxy", (1, -1, 1)): (1, 1j, -1, -1j, 1j, -1, -1j, 1),
    ("yxy", (1, 1, -1)): (1, -1j, 1, -1j, 1j, 1, 1j, 1),
    ("yyx", (-1, -1, -1)): (1, -1, -1j, 1j, -1j, 1j, -1, 1),
    ("yyx", (-1, 1, 1)): (1, 1, 1j, 1j, -1j, -1j, 1, 1),
    ("yyx", (1, -1, 1)): (1, 1, -1j, -1j, 1j, 1j, 1, 1),
    ("yyx", (1, 1, -1)): (1, -1, 1j, -1j, 1j, -1j, -1, 1),
}


def test_permuted_basis_diagonalizes_the_letter_swapped_operators():
    swapped = [context_operator(c.translate(str.maketrans("xy", "yx"))) for c in GHZ_CONTEXTS]
    assert all(np.array_equal(a, b) for a, b in zip(ghz_basis("permuted").context_operators(), swapped))


def test_context_operator_rejects_bad_labels():
    with pytest.raises(ValueError):
        context_operator("xz")


def test_product_of_the_four_two_party_operators_is_minus_identity():
    xx, xy, yx, yy = (context_operator(c) for c in TWO_PARTY_CONTEXTS)
    assert np.array_equal(xx @ xy @ yx @ yy, -np.eye(4))


def test_lagrange_projectors_identity_case():
    plus, minus = lagrange_projectors(np.eye(8))
    assert np.array_equal(plus, np.eye(8))
    assert np.array_equal(minus, np.zeros((8, 8)))


@pytest.mark.parametrize("label", GHZ_CONTEXTS)
def test_lagrange_projectors_properties(label):
    plus, minus = lagrange_projectors(context_operator(label))
    for proj in (plus, minus):
        assert is_projector(proj)
        assert np.trace(proj) == 4
    assert np.array_equal(plus + minus, np.eye(8))
    assert np.array_equal(plus @ minus, np.zeros((8, 8)))


def test_lagrange_projectors_select_eigenspaces():
    plus, minus = lagrange_projectors(context_operator("yyx"))
    first = ghz_basis().vectors[0]
    assert np.array_equal(plus @ first, np.zeros(8))
    assert np.array_equal(minus @ first, first)


def test_lagrange_projectors_reject_non_involution():
    # a scalar and a non-square array are rejected before any product is formed
    for op in (np.diag([1.0, 2.0]), 5, np.ones((2, 3))):
        with pytest.raises(ValueError, match="not involutory"):
            lagrange_projectors(op)


def test_lagrange_projectors_reject_a_perturbed_involution():
    op = context_operator("xyy")
    op[0, 7] += 1e-12
    with pytest.raises(ValueError):
        lagrange_projectors(op)


def test_standard_basis_components():
    basis = ghz_basis()
    for i, (a, b, sign) in enumerate(BASIS_COMPONENTS):
        expected = np.zeros(8, dtype=complex)
        expected[a] = 1 / SQRT2
        expected[b] = sign / SQRT2
        assert np.array_equal(basis.vectors[i], expected)


def test_permuted_basis_rotates_each_leading_entry():
    standard = ghz_basis().vectors
    permuted = ghz_basis("permuted").vectors
    rotated = set()
    for v in standard:
        w = v.copy()
        w[np.flatnonzero(w)[0]] *= 1j
        rotated.add(tuple(w))
    assert {tuple(v) for v in permuted} == rotated


def test_ghz_basis_rejects_unknown_variant():
    with pytest.raises(ValueError):
        ghz_basis("rotated")


def test_sign_table_rejects_wrong_basis():
    wrong = quantum.GhzBasis(variant="permuted", vectors=ghz_basis("standard").vectors)
    with pytest.raises(ValueError):
        sign_table(wrong)


@pytest.mark.parametrize("slot", [1, 0])  # a nonzero and a zero entry of the state
def test_sign_table_rejects_a_perturbed_eigenvector(slot):
    vectors = ghz_basis().vectors.copy()
    vectors[3, slot] += 1e-12
    with pytest.raises(ValueError):
        sign_table(quantum.GhzBasis(variant="standard", vectors=vectors))


# The local eigenvectors as integer literals: the first component is real and
# positive, and with this sigma_y the +1 eigenvector of y has +i in its second.
@pytest.mark.parametrize(
    ("ch", "s", "second"), [("x", 1, 1), ("x", -1, -1), ("y", 1, 1j), ("y", -1, -1j)], ids=["x+", "x-", "y+", "y-"]
)
def test_local_eigenvectors(ch, s, second):
    # read off the two-party product basis, integer rows divided by 2: outcome
    # (s, +1) of context ch + "x"
    v = np.array([1, second])
    assert np.array_equal((SIGMA_X if ch == "x" else SIGMA_Y) @ v, s * v)
    basis = product_basis(ch + "x")
    assert np.array_equal(basis.vectors[basis.outcome_signs.index((s, 1))] * 2, np.kron(v, [1, 1]))


def test_product_basis_matches_published_vectors():
    for (label, outcome), entries in PRODUCT_VECTORS.items():
        basis = product_basis(label)
        idx = basis.outcome_signs.index(outcome)
        assert np.array_equal(basis.vectors[idx] * 2**1.5, entries), (label, outcome)


@pytest.mark.parametrize("label", GHZ_CONTEXTS + ("xx", "yy"))
def test_product_basis_is_orthonormal(label):
    # 2**(n/2) times each row is its row of 0, +-1 and +-i, so the Gram matrix is exact
    rows = product_basis(label).vectors * 2 ** (len(label) / 2)
    assert np.array_equal(rows.conj() @ rows.T, len(rows) * np.eye(len(rows)))


def test_expand_keeps_a_phase_on_the_state_unconjugated():
    # expansion coefficients are <basis vector|state>, conjugate-linear in the
    # basis vector only
    basis = product_basis("yy")
    assert [c for _, c in expand(1j * basis.vectors[0], basis)] == pytest.approx([1j, 0, 0, 0])


def test_expand_dimension_mismatch():
    with pytest.raises(ValueError):
        expand(np.zeros(4), product_basis("xxx"))


def test_born_probabilities_uniform_quarter_on_support(sign_rows):
    state = ghz_basis().vectors[0]
    for j, label in enumerate(GHZ_CONTEXTS):
        target = sign_rows[0][j]
        for signs, p in born_probabilities(state, product_basis(label)):
            expected = 0.25 if int(np.prod(signs)) == target else 0.0
            assert p == pytest.approx(expected, abs=1e-9)


def test_born_probabilities_product_state_is_uniform_eighth():
    zzz = np.zeros(8, dtype=complex)
    zzz[0] = 1.0
    for _, p in born_probabilities(zzz, product_basis("xxx")):
        assert p == pytest.approx(1 / 8, abs=1e-9)


def test_born_probabilities_reject_unnormalized_state():
    with pytest.raises(ValueError):
        born_probabilities(np.ones(8), product_basis("xxx"))


def test_basis_weights_need_one_per_state():
    with pytest.raises(ValueError, match="eight amplitudes"):
        ghz_superposition(np.ones(7))


def test_superposition_of_all_basis_states():
    state = ghz_superposition(np.full(8, 1 / (2 * SQRT2)))
    expected = np.array([1, 1, 1, 1, 0, 0, 0, 0]) / 2
    assert np.allclose(state, expected, atol=1e-12)
    # equal amplitudes cancel exactly on the lower half
    assert not state[4:].any()


def test_outcome_entropy_degenerate_set():
    assert outcome_entropy((1,)) == 0.0
    with pytest.raises(ValueError, match="nonempty"):
        outcome_entropy(())
