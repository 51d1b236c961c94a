import math

import numpy as np
import pytest

from ghzgames import games, quantum
from ghzgames.linalg import commutes, is_projector
from ghzgames.quantum import (
    GHZ_CONTEXTS,
    born_probabilities,
    context_operator,
    expand,
    ghz_basis,
    ghz_superposition,
    lagrange_projectors,
    maximal_operator,
    outcome_entropy,
    product_basis,
    sign_table,
    signed_projector_sum,
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


def antidiag_matrix(entries):
    m = np.zeros((len(entries), len(entries)), dtype=complex)
    for i, v in enumerate(entries):
        m[i, len(entries) - 1 - i] = v
    return m


@pytest.mark.parametrize("label", GHZ_CONTEXTS)
def test_context_operators_match_antidiagonal_forms(label, antidiagonals):
    assert np.allclose(context_operator(label), antidiag_matrix(antidiagonals[label]), atol=1e-9)


def test_context_operator_rejects_bad_labels():
    with pytest.raises(ValueError):
        context_operator("xz")


def test_all_context_operator_pairs_commute():
    ops = [context_operator(c) for c in GHZ_CONTEXTS]
    for i in range(4):
        for j in range(i + 1, 4):
            assert commutes(ops[i], ops[j])


def test_product_of_all_four_operators_is_minus_identity():
    ops = [context_operator(c) for c in GHZ_CONTEXTS]
    assert np.allclose(ops[0] @ ops[1] @ ops[2] @ ops[3], -np.eye(8), atol=1e-9)


def test_lagrange_projectors_identity_case():
    plus, minus = lagrange_projectors(np.eye(8))
    assert np.allclose(plus, np.eye(8))
    assert np.allclose(minus, np.zeros((8, 8)))


@pytest.mark.parametrize("label", GHZ_CONTEXTS)
def test_lagrange_projectors_properties(label):
    plus, minus = lagrange_projectors(context_operator(label))
    for proj in (plus, minus):
        assert is_projector(proj)
        assert np.trace(proj).real == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(plus + minus, np.eye(8), atol=1e-9)
    assert np.allclose(plus @ minus, np.zeros((8, 8)), atol=1e-9)


def test_lagrange_projectors_select_eigenspaces():
    plus, minus = lagrange_projectors(context_operator("yyx"))
    first = ghz_basis().vectors[0]
    assert np.allclose(plus @ first, np.zeros(8), atol=1e-9)
    assert np.allclose(minus @ first, first, atol=1e-9)


def test_lagrange_projectors_reject_non_involution():
    with pytest.raises(ValueError):
        lagrange_projectors(np.diag([1.0, 2.0]))


def test_standard_basis_components():
    basis = ghz_basis()
    for i, (a, b, sign) in enumerate(BASIS_COMPONENTS):
        expected = np.zeros(8, dtype=complex)
        expected[a] = 1 / SQRT2
        expected[b] = sign / SQRT2
        assert np.allclose(basis.vectors[i], expected, atol=1e-12)


def test_permuted_basis_rotates_each_leading_entry():
    standard = ghz_basis().vectors
    permuted = ghz_basis("permuted").vectors
    rotated = set()
    for v in standard:
        w = v.copy()
        lead = int(np.flatnonzero(np.abs(w) > 1e-12)[0])
        w[lead] *= 1j
        rotated.add(tuple(np.round(w, 12)))
    assert {tuple(np.round(v, 12)) for v in permuted} == rotated


@pytest.mark.parametrize("variant", ["standard", "permuted"])
def test_basis_is_orthonormal(variant):
    vectors = ghz_basis(variant).vectors
    assert np.allclose(vectors.conj() @ vectors.T, np.eye(8), atol=1e-9)


def test_ghz_basis_rejects_unknown_variant():
    with pytest.raises(ValueError):
        ghz_basis("rotated")


@pytest.mark.parametrize("variant", ["standard", "permuted"])
def test_sign_table_reproduces_reference(variant, sign_rows):
    table = sign_table(ghz_basis(variant))
    assert np.array_equal(table.entries, np.array(sign_rows))


def test_sign_table_rows_multiply_to_minus_one():
    table = sign_table(ghz_basis())
    assert np.all(np.prod(table.entries, axis=1) == -1)


def test_sign_table_rejects_wrong_basis():
    wrong = quantum.GhzBasis(variant="permuted", vectors=ghz_basis("standard").vectors)
    with pytest.raises(ValueError):
        sign_table(wrong)


def test_product_basis_matches_published_vectors():
    for (label, outcome), entries in PRODUCT_VECTORS.items():
        basis = product_basis(label)
        idx = basis.outcome_signs.index(outcome)
        expected = np.array(entries, dtype=complex) / (2 * SQRT2)
        assert np.allclose(basis.vectors[idx], expected, atol=1e-12), (label, outcome)


@pytest.mark.parametrize("label", GHZ_CONTEXTS + ("xx", "yy"))
def test_product_basis_is_orthonormal(label):
    vectors = product_basis(label).vectors
    assert np.allclose(vectors.conj() @ vectors.T, np.eye(len(vectors)), atol=1e-9)


def test_expand_first_state_matches_reference(expansion_first):
    state = ghz_basis().vectors[0]
    for label, table in expansion_first.items():
        for signs, coeff in expand(state, product_basis(label)):
            assert coeff == pytest.approx(table.get(signs, 0.0), abs=1e-9), (label, signs)


def test_expand_last_state_matches_reference(expansion_last):
    state = ghz_basis().vectors[7]
    for label, table in expansion_last.items():
        for signs, coeff in expand(state, product_basis(label)):
            assert coeff == pytest.approx(table.get(signs, 0.0), abs=1e-9), (label, signs)


def test_expand_reconstructs_the_state():
    rng = np.random.default_rng(5)
    alphas = rng.normal(size=8) + 1j * rng.normal(size=8)
    alphas /= np.linalg.norm(alphas)
    state = ghz_superposition(alphas)
    for label in GHZ_CONTEXTS:
        basis = product_basis(label)
        coeffs = np.array([c for _, c in expand(state, basis)])
        assert np.allclose(coeffs @ basis.vectors, state, atol=1e-9)


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


def test_play_quantum_respects_the_xxx_support_and_seed():
    # the ---+ share is supported on xxx outcomes whose signs multiply to +1,
    # and on the -1 outcomes of the other three contexts
    game = games.GameSpec.three_party("---+")
    strategy = games.QuantumStrategy(share=ghz_basis().vectors[0])
    result = games.play_quantum(game, strategy, 200, np.random.default_rng(11))
    assert sum(result.plays_by_context) == 200
    assert result.wins_by_context == result.plays_by_context
    assert result == games.play_quantum(game, strategy, 200, np.random.default_rng(11))


def test_play_quantum_negative_context():
    # --++ asks xyy for +1, where the ---+ share answers -1 in every round
    strategy = games.QuantumStrategy(share=ghz_basis().vectors[0])
    result = games.play_quantum(games.GameSpec.three_party("--++"), strategy, 100, np.random.default_rng(2))
    plays = result.plays_by_context
    assert sum(plays) == 100 and plays[2] > 0
    assert result.wins_by_context == (plays[0], plays[1], 0, plays[3])


def test_sampling_frequencies_track_born_weights():
    state = ghz_basis().vectors[0]
    basis = product_basis("xxx")
    probs = np.array([p for _, p in born_probabilities(state, basis)])
    rng = np.random.default_rng(17)
    draws = rng.choice(len(probs), size=100_000, p=probs / probs.sum())
    freq = np.bincount(draws, minlength=len(probs)) / 100_000
    for k, p in enumerate(probs):
        if p > 0:
            assert abs(freq[k] - 0.25) < 0.01
        else:
            assert freq[k] == 0


def test_maximal_operator_eigendecomposition():
    basis = ghz_basis()
    big = maximal_operator(basis)
    for i, v in enumerate(basis.vectors):
        assert np.allclose(big @ v, (i + 1) * v, atol=1e-9)


def test_context_operators_are_functions_of_the_maximal_operator():
    basis = ghz_basis()
    table = sign_table(basis)
    for j, label in enumerate(GHZ_CONTEXTS):
        rebuilt = signed_projector_sum(basis, table.entries[:, j])
        assert np.allclose(rebuilt, context_operator(label), atol=1e-9)


def test_superposition_closed_form_matches_sum():
    rng = np.random.default_rng(23)
    basis = ghz_basis()
    for _ in range(20):
        alphas = rng.normal(size=8) + 1j * rng.normal(size=8)
        alphas /= np.linalg.norm(alphas)
        direct = sum(a * v for a, v in zip(alphas, basis.vectors))
        assert np.allclose(ghz_superposition(alphas), direct, atol=1e-9)


def test_superposition_of_all_basis_states():
    state = ghz_superposition(np.full(8, 1 / (2 * SQRT2)))
    expected = np.array([1, 1, 1, 1, 0, 0, 0, 0]) / 2
    assert np.allclose(state, expected, atol=1e-12)
    # equal amplitudes cancel exactly on the lower half
    assert not state[4:].any()


def test_outcome_entropy_binary_encodings():
    assert outcome_entropy((-1, 1)) == pytest.approx(1.0, abs=1e-12)
    closed_form = -(1 / 8) * math.log2(1 / 8) - (7 / 8) * math.log2(7 / 8)
    assert outcome_entropy((0, 1)) == pytest.approx(closed_form, abs=1e-12)
    assert abs(outcome_entropy((0, 1)) - 0.5436) < 0.0005


def test_outcome_entropy_degenerate_set():
    assert outcome_entropy((1,)) == 0.0


def test_inner_products_of_basis_states():
    basis = ghz_basis()
    assert np.vdot(basis.vectors[0], basis.vectors[1]) == pytest.approx(0.0, abs=1e-12)
    assert np.vdot(basis.vectors[0], basis.vectors[0]) == pytest.approx(1.0, abs=1e-12)
