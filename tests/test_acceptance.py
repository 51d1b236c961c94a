"""Acceptance suite: one test per criterion, one PASS line each.

Run ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
(they are also shown for any failing criterion by pytest itself).
"""

import itertools
import math

import numpy as np

from ghzgames import games, logic, quantum
from ghzgames.linalg import EPS, commutes, is_projector, rank

TOL = EPS  # 1e-9 throughout unless a criterion states otherwise


def _report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def _context_products(contexts, xs, ys):
    """Each context's product of the parties' x or y values."""
    return tuple(math.prod(xs[p] if ch == "x" else ys[p] for p, ch in enumerate(c)) for c in contexts)


def test_criterion_1_operator_block(antidiagonals):
    ops = {c: quantum.context_operator(c) for c in quantum.GHZ_CONTEXTS}
    for label, entries in antidiagonals.items():
        assert np.array_equal(ops[label], np.fliplr(np.diag(entries)))
    labels = list(quantum.GHZ_CONTEXTS)
    for a, b in itertools.combinations(labels, 2):
        assert commutes(ops[a], ops[b])
    product = ops["yyx"] @ ops["yxy"] @ ops["xyy"] @ ops["xxx"]
    assert np.array_equal(product, -np.eye(8))
    _report(1, "context operators antidiagonal-exact, mutually commuting, product -I")


def test_criterion_2_sign_table_both_variants(sign_rows):
    expected = np.array(sign_rows)
    for variant in ("standard", "permuted"):
        table = quantum.sign_table(quantum.ghz_basis(variant))
        assert np.array_equal(table.entries, expected), variant
    _report(2, "sign table reproduced exactly for standard and permuted bases")


def test_criterion_3_expansions(expansion_first, expansion_last):
    basis = quantum.ghz_basis()
    for state, reference in ((basis.vectors[0], expansion_first), (basis.vectors[7], expansion_last)):
        for context, table in reference.items():
            got = dict(quantum.expand(state, quantum.product_basis(context)))
            for outcome in got:
                assert abs(got[outcome] - table.get(outcome, 0.0)) <= TOL, (context, outcome)
            nonzero = {o for o, c in got.items() if abs(c) > TOL}
            assert nonzero == set(table)
    _report(3, "first/last state expansions match coefficient tables incl. imaginary phases")


def test_criterion_4_state_counts_and_partition_logic(tightened_partitions):
    isolated = logic.ghz_isolated_logic()
    iso_states = logic.enumerate_states(isolated)
    assert len(iso_states) == 4096
    assert logic.is_separating(isolated, iso_states)

    tightened = logic.tightened_ghz_logic()
    t_states = logic.enumerate_states(tightened)
    assert len(t_states) == 8
    assert logic.is_separating(tightened, t_states)

    pl = logic.partition_logic(tightened, t_states)
    published = tuple(tuple(frozenset(b) for b in part) for part in tightened_partitions)
    assert pl.contexts[:8] == published
    _report(4, "4096 and 8 separating states; tightened partition logic is the published table")


def test_criterion_5_game_dichotomy_and_witness_table(witness_strategies):
    quantum_patterns, classical_patterns = set(), set()
    for pattern in itertools.product((1, -1), repeat=4):
        game = games.GameSpec.three_party(pattern)
        share = games.quantum_share_for(game)
        value, winners = games.best_classical_strategies(game)
        if share is not None:
            quantum_patterns.add(pattern)
            assert value < 1.0
            assert tuple(quantum.sign_table(quantum.ghz_basis()).row(share)) == pattern
        if value == 1.0:
            classical_patterns.add(pattern)
            assert share is None
    assert len(quantum_patterns) == 8
    assert len(classical_patterns) == 8
    assert quantum_patterns.isdisjoint(classical_patterns)
    assert all(int(np.prod(p)) == -1 for p in quantum_patterns)
    assert all(int(np.prod(p)) == +1 for p in classical_patterns)
    assert classical_patterns == set(witness_strategies)
    for targets, (x_values, y_values) in witness_strategies.items():
        strategy = games.ClassicalStrategy(tuple(zip(x_values, y_values)))
        game = games.GameSpec.three_party(targets)
        assert _context_products(game.contexts, x_values, y_values) == game.targets
        _, winners = games.best_classical_strategies(game)
        assert strategy in winners
    _report(5, "exactly 8 odd patterns have shares, 8 even ones perfect classical witnesses")


def test_criterion_6_quantum_play_and_classical_value():
    basis = quantum.ghz_basis()
    rng = np.random.default_rng(20200807)
    for pattern in itertools.product((1, -1), repeat=4):
        if int(np.prod(pattern)) != -1:
            continue
        game = games.GameSpec.three_party(pattern)
        index = games.quantum_share_for(game)
        strategy = games.QuantumStrategy(share=basis.vectors[index])
        exact = games.exact_win_probabilities(game, strategy)
        assert all(abs(p - 1.0) <= TOL for p in exact)
        result = games.play_quantum(game, strategy, 10_000, rng)
        assert result.win_rate == 1.0
        assert result.wins_by_context == result.plays_by_context
    assert games.best_classical_strategies(games.GameSpec.three_party("---+"))[0] == 0.75
    _report(6, "all 8 shares win exactly (Born support + 10^4 rounds); classical value 3/4")


def test_criterion_7_stranger_than_quantum():
    game = games.GameSpec.two_party("+++-")
    matrix = games.stranger_constraint_matrix()
    assert matrix.shape == (8, 4)
    assert rank(matrix) == 4
    assert np.linalg.matrix_rank(matrix, tol=1e-9) == 4
    # its rows are the losing outcomes, which span each context's -t_c
    # eigenspace, of projector (I - t_c O_c)/2: so 2 M^H M = 4I - W
    w = sum(t * quantum.context_operator(c) for c, t in zip(game.contexts, game.targets))
    assert np.abs(2 * matrix.conj().T @ matrix - (4 * np.eye(4) - w)).max() <= 1e-12
    assert games.stranger_quantum_infeasible(game) == (True, 4)
    assert games.best_classical_strategies(game)[0] == 0.75

    # every wiring announces the XOR law's product: a context's target where
    # it wins every round, the negation where it wins none, and a flip negates
    # the box's own product (-1)**(o1 XOR o2), which must be (-1)**(i1 AND i2)
    rng = np.random.default_rng(7)
    for targets in itertools.product((1, -1), repeat=4):
        for flip in (None, 1, 2):
            game = games.GameSpec.two_party(targets)
            result = games.play_prbox(game, games.PrBoxStrategy(flip), 1_000, rng)
            for c, context in enumerate(game.contexts):
                i1, i2 = ("xy".index(ch) for ch in context)
                plays, wins = result.plays_by_context[c], result.wins_by_context[c]
                assert plays > 0 and wins in (0, plays)
                announced = targets[c] if wins else -targets[c]
                assert (announced if flip is None else -announced) == (-1) ** (i1 & i2)
    result = games.play_prbox(
        games.GameSpec.two_party("+++-"), games.PrBoxStrategy(), 10_000, np.random.default_rng(99)
    )
    assert result.wins_by_context == result.plays_by_context
    assert sum(result.wins_by_context) == 10_000
    _report(7, "rank-4 infeasibility, 2 M^H M = 4I - W, classical value 3/4, box wins 10^4/10^4, XOR law exact")


def test_criterion_8_entropy():
    h01 = quantum.outcome_entropy((0, 1))
    h11 = quantum.outcome_entropy((-1, 1))
    assert abs(h01 - 0.5436) <= 0.0005
    assert h11 == 1.0
    closed_form = -(1 / 8) * math.log2(1 / 8) - (7 / 8) * math.log2(7 / 8)
    assert abs(h01 - closed_form) <= 1e-12
    _report(8, "triple-product entropies 0.5436 +- 0.0005 and exactly 1 bit")


def test_criterion_9_property_suite():
    basis = quantum.ghz_basis()
    for label in quantum.GHZ_CONTEXTS:
        for proj in quantum.lagrange_projectors(quantum.context_operator(label)):
            assert is_projector(proj)
    for variant in ("standard", "permuted"):
        vectors = quantum.ghz_basis(variant).vectors
        assert np.abs(vectors.conj() @ vectors.T - np.eye(8)).max() <= TOL

    rng = np.random.default_rng(424242)
    for _ in range(100):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = quantum.ghz_superposition(amps)
        assert np.abs(state - sum(a * v for a, v in zip(amps, basis.vectors))).max() <= TOL
        context = quantum.GHZ_CONTEXTS[int(rng.integers(0, 4))]
        product = quantum.product_basis(context)
        coeffs = np.array([c for _, c in quantum.expand(state, product)])
        assert np.abs(coeffs @ product.vectors - state).max() <= TOL
        probs = [p for _, p in quantum.born_probabilities(state, product)]
        assert abs(sum(probs) - 1.0) <= TOL

    game = games.GameSpec.three_party("---+")
    strategy = games.QuantumStrategy(share=basis.vectors[0])
    first = games.play_quantum(game, strategy, 2_000, np.random.default_rng(12345))
    second = games.play_quantum(game, strategy, 2_000, np.random.default_rng(12345))
    assert first == second
    assert first != games.play_quantum(game, strategy, 2_000, np.random.default_rng(12346))
    _report(9, "projectors, orthonormality, 100 reconstructions, Born sums, seeded replay")
