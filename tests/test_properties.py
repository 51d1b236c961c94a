"""Property-based checks over random inputs."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzgames import games, logic, quantum
from ghzgames.linalg import rank

finite = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


@given(st.text(alphabet="xy", min_size=3, max_size=3))
def test_tensor_is_associative_on_pauli_triples(label):
    a, b, c = (quantum.SIGMA_X if ch == "x" else quantum.SIGMA_Y for ch in label)
    assert np.allclose(quantum.context_operator(label), np.kron(a, np.kron(b, c)), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.randoms(use_true_random=False),
)
def test_rank_agrees_with_svd_and_nullity(rows, cols, pyrandom):
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    assert rank(m) == np.linalg.matrix_rank(m, tol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=8, max_size=8), st.sampled_from(quantum.GHZ_CONTEXTS))
def test_born_probabilities_sum_to_one(pairs, context):
    amps = np.array([re + 1j * im for re, im in pairs])
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps[0] += 1.0
        norm = np.linalg.norm(amps)
    state = quantum.ghz_superposition(amps / norm)
    probs = [p for _, p in quantum.born_probabilities(state, quantum.product_basis(context))]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert all(p >= -1e-12 for p in probs)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(finite, finite), min_size=8, max_size=8), st.sampled_from(quantum.GHZ_CONTEXTS))
def test_expansions_reconstruct_arbitrary_superpositions(pairs, context):
    amps = np.array([re + 1j * im for re, im in pairs])
    state = quantum.ghz_superposition(amps)
    basis = quantum.product_basis(context)
    coeffs = np.array([c for _, c in quantum.expand(state, basis)])
    assert np.allclose(coeffs @ basis.vectors, state, atol=1e-8)


@given(
    st.tuples(*[st.sampled_from((1, -1))] * 4),
    st.sampled_from((None, 1, 2)),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pr_box_law_for_random_inputs_and_seeds(targets, flip, rounds, seed):
    # o1 XOR o2 = i1 AND i2 makes the announced product -1 exactly on yy,
    # and a flip negates it: each context is won in every round or in none
    game = games.GameSpec.two_party(targets)
    result = games.play_prbox(game, games.PrBoxStrategy(flip), rounds, np.random.default_rng(seed))
    assert sum(result.plays_by_context) == rounds
    sign = 1 if flip is None else -1
    for context, t, n, w in zip(game.contexts, targets, result.plays_by_context, result.wins_by_context):
        product = sign * (-1 if context == "yy" else 1)
        assert w == (n if product == t else 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
def test_disjoint_context_state_counts_multiply(sizes):
    atoms, contexts, start = [], [], 0
    for k, size in enumerate(sizes):
        atoms.extend(f"a{k}_{j}" for j in range(size))
        contexts.append(tuple(range(start, start + size)))
        start += size
    h = logic.Hypergraph(atoms=tuple(atoms), contexts=tuple(contexts))
    states = logic.enumerate_states(h)
    expected = int(np.prod(sizes))
    assert len(states) == expected
    assert states == sorted(states)
    assert all(sum(s[a] for a in c) == 1 for s in states for c in h.contexts)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(("standard", "permuted")), st.integers(min_value=0, max_value=7))
def test_every_basis_state_is_a_strict_eigenvector(variant, index):
    basis = quantum.ghz_basis(variant)
    v = basis.vectors[index]
    for op in basis.context_operators():
        w = op @ v
        assert np.allclose(w, v, atol=1e-9) or np.allclose(w, -v, atol=1e-9)


ALL_SIGN_PATTERNS = tuple("".join(p) for p in itertools.product("+-", repeat=4))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=2**32 - 1), st.sampled_from(ALL_SIGN_PATTERNS))
def test_quantum_play_never_loses_with_matched_share(seed, pattern):
    game = games.GameSpec.three_party(pattern)
    index = games.quantum_share_for(game)
    if index is None:
        value, _ = games.best_classical_strategies(game)
        assert value == 1.0
        return
    strategy = games.QuantumStrategy(share=quantum.ghz_basis().vectors[index])
    result = games.play_quantum(game, strategy, 200, np.random.default_rng(seed))
    assert result.win_rate == 1.0


def _scalar_classical(game):
    """Reference: the per-strategy loop, scoring every strategy context by context."""
    pairs = [(x, y) for x in (1, -1) for y in (1, -1)]
    scored, best, winners = [], -1.0, []
    for assignments in itertools.product(pairs, repeat=game.parties):
        flags = []
        for context, target in zip(game.contexts, game.targets):
            prod = 1
            for (x, y), ch in zip(assignments, context):
                prod *= x if ch == "x" else y
            flags.append(prod == target)
        strategy = games.ClassicalStrategy(assignments)
        scored.append((strategy, tuple(flags)))
        value = float(sum(1 / len(game.contexts) for w in flags if w))
        if value > best:
            best, winners = value, [strategy]
        elif value == best:
            winners.append(strategy)
    return scored, best, winners


# The 2 x 16 games are the whole input space, so the check runs on all of them.
def test_classical_search_matches_the_scalar_loop():
    for parties, pattern in itertools.product((2, 3), ALL_SIGN_PATTERNS):
        game = (games.GameSpec.three_party if parties == 3 else games.GameSpec.two_party)(pattern)
        scored, best, winners = _scalar_classical(game)
        value, found = games.best_classical_strategies(game)
        assert type(value) is float and value.hex() == best.hex()
        assert found == winners
        assert games.classical_value(game).hex() == best.hex()
        strategies, products = games._classical_table(game.parties, game.contexts)
        assert list(zip(strategies, map(tuple, (products == game.targets).tolist()))) == scored
        with pytest.raises(ValueError, match="read-only"):
            products[0, 0] = -products[0, 0]
