import dataclasses
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ghzgames import games, quantum
from ghzgames.games import (
    ClassicalStrategy,
    GameSpec,
    PrBoxStrategy,
    QuantumStrategy,
    best_classical_strategies,
    exact_win_probabilities,
    parse_targets,
    play_contextual,
    play_prbox,
    play_quantum,
    quantum_share_for,
    stranger_constraint_matrix,
    stranger_quantum_infeasible,
    urn_answers,
)
from ghzgames.logic import enumerate_states, ghz_isolated_logic, partition_logic, tightened_partition_logic
from ghzgames.quantum import GHZ_CONTEXTS, TWO_PARTY_CONTEXTS, ghz_basis, ghz_superposition

def brute_force_wins(targets, x_values, y_values, contexts=GHZ_CONTEXTS):
    flags = []
    for context, target in zip(contexts, targets):
        prod = 1
        for party, ch in enumerate(context):
            prod *= x_values[party] if ch == "x" else y_values[party]
        flags.append(prod == target)
    return flags


def brute_force_strategies(game):
    """Every noncontextual strategy with its per-context win flags."""
    values = list(itertools.product((1, -1), repeat=game.parties))
    return [
        (ClassicalStrategy(tuple(zip(xs, ys))), brute_force_wins(game.targets, xs, ys, game.contexts))
        for xs in values
        for ys in values
    ]


def test_parse_targets():
    assert parse_targets("---+") == (-1, -1, -1, 1)
    with pytest.raises(ValueError):
        parse_targets("-+0-")


def test_parity_infeasible_for_the_odd_games():
    assert best_classical_strategies(GameSpec.three_party("---+"))[0] < 1
    assert best_classical_strategies(GameSpec.two_party("+++-"))[0] < 1


def test_parity_feasible_for_the_even_games():
    assert best_classical_strategies(GameSpec.three_party("----"))[0] == 1
    assert best_classical_strategies(GameSpec.three_party("++++"))[0] == 1


def test_classical_search_covers_all_strategies():
    strategies, _ = games._classical_table(GHZ_CONTEXTS)
    assert len(set(strategies)) == 64
    results = brute_force_strategies(GameSpec.three_party("---+"))
    assert len(results) == 64
    assert max(sum(flags) for _, flags in results) == 3


@pytest.mark.parametrize("contexts", [GHZ_CONTEXTS, TWO_PARTY_CONTEXTS])
def test_every_noncontextual_strategy_has_context_product_plus_one(contexts):
    """Each local value occurs in two of the four contexts, so it cancels in
    the product, while the four context operators multiply to -I."""
    strategies, products = games._classical_table(contexts)
    assert products.shape == (len(strategies), 4)
    assert (products.prod(axis=1) == 1).all()


def test_all_negative_game_has_eight_perfect_strategies():
    game = GameSpec.three_party("----")
    perfect = [strat for strat, flags in brute_force_strategies(game) if all(flags)]
    assert len(perfect) == 8
    assert ClassicalStrategy(((-1, 1), (-1, 1), (-1, 1))) in perfect
    assert set(perfect) == set(best_classical_strategies(game)[1])


def test_classical_value_of_the_main_game():
    value, winners = best_classical_strategies(GameSpec.three_party("---+"))
    assert value == 0.75
    assert len(winners) == 32


def test_classical_value_all_negative():
    assert best_classical_strategies(GameSpec.three_party("----"))[0] == 1.0


def test_classical_value_two_party():
    value, winners = best_classical_strategies(GameSpec.two_party("+++-"))
    assert value == 0.75
    assert len(winners) == 8


def test_quantum_share_for_the_main_game():
    assert quantum_share_for(GameSpec.three_party("---+")) == 0
    assert quantum_share_for(GameSpec.three_party("+++-")) == 1
    assert quantum_share_for(GameSpec.three_party("+---")) == 3
    assert quantum_share_for(GameSpec.three_party("----")) is None


def test_quantum_share_for_reads_the_derived_sign_table():
    table = games._ghz_sign_table()
    assert not table.entries.flags.writeable
    assert np.array_equal(table.entries, quantum.sign_table(ghz_basis()).entries)


def test_quantum_share_rejects_other_context_sets():
    with pytest.raises(ValueError):
        quantum_share_for(GameSpec.two_party("+++-"))


def test_dichotomy_over_all_sixteen_patterns():
    for pattern in itertools.product((1, -1), repeat=4):
        game = GameSpec.three_party(pattern)
        share = quantum_share_for(game)
        feasible = best_classical_strategies(game)[0] == 1
        if int(np.prod(pattern)) == -1:
            assert share is not None and not feasible
        else:
            assert share is None and feasible


def test_published_classical_witnesses_win_everything(witness_strategies):
    for targets, (x_values, y_values) in witness_strategies.items():
        assert all(brute_force_wins(targets, x_values, y_values))
        assert quantum_share_for(GameSpec.three_party(targets)) is None


def test_play_quantum_wins_always_with_the_matched_share():
    game = GameSpec.three_party("---+")
    strategy = QuantumStrategy(share=ghz_basis().vectors[0])
    result = play_quantum(game, strategy, 10_000, np.random.default_rng(7))
    assert result.win_rate == 1.0
    assert result.wins_by_context == result.plays_by_context
    assert sum(result.plays_by_context) == 10_000


def test_play_quantum_mismatched_share_loses_the_xxx_context():
    # share 2 carries the opposite sign of share 1 in every context, xxx included
    game = GameSpec.three_party("---+")
    strategy = QuantumStrategy(share=ghz_basis().vectors[1])
    result = play_quantum(game, strategy, 2_000, np.random.default_rng(1))
    assert sum(result.plays_by_context) == 2_000
    assert result.wins_by_context == (0, 0, 0, 0)
    assert result.win_rate == 0.0


def test_play_quantum_other_games():
    game = GameSpec.three_party("+---")
    strategy = QuantumStrategy(share=ghz_basis().vectors[3])
    result = play_quantum(game, strategy, 10_000, np.random.default_rng(3))
    assert result.win_rate == 1.0


def test_play_quantum_is_deterministic_per_seed():
    game = GameSpec.three_party("---+")
    strategy = QuantumStrategy(share=ghz_basis().vectors[0])
    a = play_quantum(game, strategy, 1_000, np.random.default_rng(5))
    b = play_quantum(game, strategy, 1_000, np.random.default_rng(5))
    assert a == b


@pytest.mark.parametrize(
    "amplitudes, targets",
    [
        ((8**-0.5,) * 8, "---+"),  # not an eigenstate: p = 1/2 per context
        ((1, 0, 0, 0, 0, 0, 0, 0), "----"),  # the ---+ share loses xxx outright
        ((0.7**0.5, 0, 0.3**0.5, 0, 0, 0, 0, 0), "+-+-"),
    ],
)
def test_play_quantum_wins_within_six_sigma_of_exact(amplitudes, targets, sign_rows):
    game = GameSpec.three_party(targets)
    strategy = QuantumStrategy(share=ghz_superposition(amplitudes))
    exact = exact_win_probabilities(game, strategy)
    # each basis state is an eigenstate of every context: its weight goes to
    # the outcomes that carry its sign
    by_sign_table = [
        sum(abs(a) ** 2 for a, row in zip(amplitudes, sign_rows) if row[c] == t)
        for c, t in enumerate(game.targets)
    ]
    assert exact == pytest.approx(by_sign_table, abs=1e-9)
    result = play_quantum(game, strategy, 100_000, np.random.default_rng(17))
    assert sum(result.plays_by_context) == 100_000
    for n, w, p in zip(result.plays_by_context, result.wins_by_context, exact):
        assert abs(w - p * n) <= 6 * math.sqrt(n * p * (1 - p)) + 1e-9


def _sessions():
    rng = np.random.default_rng(0)
    return {
        "quantum": lambda n: play_quantum(
            GameSpec.three_party("---+"), QuantumStrategy(share=ghz_basis().vectors[0]), n, rng
        ),
        "prbox": lambda n: play_prbox(GameSpec.two_party("+++-"), PrBoxStrategy(), n, rng),
        "contextual": lambda n: play_contextual(
            GameSpec.three_party("---+"), tightened_partition_logic(), n, rng
        ),
    }


@pytest.mark.parametrize("engine", ["quantum", "prbox", "contextual"])
@pytest.mark.parametrize("rounds", [10**12, 2**63 - 1])
def test_play_cost_does_not_grow_with_rounds(engine, rounds):
    play = _sessions()[engine]
    start = time.perf_counter()
    result = play(rounds)
    assert time.perf_counter() - start < 1.0
    assert sum(result.plays_by_context) == result.rounds == rounds
    assert result.wins_by_context == result.plays_by_context


@pytest.mark.parametrize("engine", ["quantum", "prbox", "contextual"])
@pytest.mark.parametrize("rounds", [0, 2**63])
def test_play_rejects_rounds_out_of_range(engine, rounds):
    with pytest.raises(ValueError, match="rounds"):
        _sessions()[engine](rounds)


@pytest.mark.parametrize("engine", ["quantum", "prbox", "contextual"])
@pytest.mark.parametrize("rounds", [2.5, 3.0, np.float64(4), True, np.True_, "5"])
def test_play_rejects_non_integral_rounds(engine, rounds):
    with pytest.raises(TypeError, match="rounds"):
        _sessions()[engine](rounds)


@pytest.mark.parametrize("engine", ["quantum", "prbox", "contextual"])
def test_play_accepts_numpy_integer_rounds(engine):
    result = _sessions()[engine](np.int64(1_000))
    assert type(result.rounds) is int and result.rounds == sum(result.plays_by_context) == 1_000


def test_exact_win_probabilities_matched_and_disjoint():
    game = GameSpec.three_party("---+")
    matched = QuantumStrategy(share=ghz_basis().vectors[0])
    assert exact_win_probabilities(game, matched) == pytest.approx((1, 1, 1, 1), abs=1e-9)
    opposite = QuantumStrategy(share=ghz_basis().vectors[1])
    assert exact_win_probabilities(game, opposite) == pytest.approx((0, 0, 0, 0), abs=1e-9)


def test_exact_win_probabilities_build_no_product_basis(monkeypatch):
    # they read each context's operator; only the quantum sampler measures in
    # the product bases
    def refuse(context):
        raise AssertionError(f"built the product basis of {context!r}")

    monkeypatch.setattr(quantum, "product_basis", refuse)
    matched = QuantumStrategy(share=ghz_basis().vectors[0])
    assert exact_win_probabilities(GameSpec.three_party("---+"), matched) == (1.0, 1.0, 1.0, 1.0)
    zero_zero = QuantumStrategy(share=np.eye(4)[0])
    assert exact_win_probabilities(GameSpec.two_party("+++-"), zero_zero) == (0.5, 0.5, 0.5, 0.5)


def test_quantum_strategy_requires_unit_share():
    with pytest.raises(ValueError):
        QuantumStrategy(share=np.ones(8))


def test_quantum_engines_reject_a_share_or_game_of_the_wrong_dimension():
    for game, share in ((GameSpec.three_party("---+"), np.eye(4)[0]), (GameSpec.two_party("+++-"), np.eye(8)[0])):
        strategy = QuantumStrategy(share=share)
        with pytest.raises(ValueError, match="dimension"):
            play_quantum(game, strategy, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension") as error:
            exact_win_probabilities(game, strategy)
        dim = 2**game.parties
        assert str(error.value) == f"dimension mismatch: share of shape {share.shape}, game of dimension {dim}"
    with pytest.raises(ValueError, match="context"):
        stranger_quantum_infeasible(GameSpec(("xxxx",), (1,)))


def test_contextual_strategy_published_identification():
    pl = tightened_partition_logic()
    assert urn_answers(pl, "xxx", [1, 3, 4]) == [(1, 1, 1), (1, -1, -1), (1, -1, -1)]
    assert urn_answers(pl, "yyx", [2]) == [(1, 1, -1)]


def test_contextual_strategy_total_and_always_winning():
    pl = tightened_partition_logic()
    targets = dict(zip(GHZ_CONTEXTS, (-1, -1, -1, 1)))
    for ball in range(1, 9):
        for context in GHZ_CONTEXTS:
            [triple] = urn_answers(pl, context, [ball])
            assert int(np.prod(triple)) == targets[context]


def test_contextual_strategy_is_genuinely_contextual():
    pl = tightened_partition_logic()
    for ball in range(1, 9):
        conflicted = False
        for party in range(3):
            for obs in "xy":
                seen = set()
                for context in GHZ_CONTEXTS:
                    if context[party] == obs:
                        seen.add(urn_answers(pl, context, [ball])[0][party])
                if len(seen) > 1:
                    conflicted = True
        assert conflicted, f"ball {ball} admits a noncontextual table"


def test_urn_answers_are_the_support_of_basis_state_one():
    # the answer set per context is read off the Born probabilities of the
    # first shared-basis state, not from the sign table
    pl = tightened_partition_logic()
    share = ghz_basis().vectors[0]
    for context in GHZ_CONTEXTS:
        born = quantum.born_probabilities(share, quantum.product_basis(context))
        support = {signs for signs, p in born if p > 1e-9}
        answers = set(urn_answers(pl, context, range(1, 9)))
        assert answers == support, context


def test_contextual_strategy_errors():
    pl = tightened_partition_logic()
    with pytest.raises(ValueError):
        urn_answers(pl, "xxx", [9])
    with pytest.raises(ValueError):
        urn_answers(pl, "xx", [1])


def test_play_contextual_rejects_a_ball_no_block_covers():
    pl = dataclasses.replace(tightened_partition_logic(), state_count=9)
    with pytest.raises(ValueError, match="ball 9 is not covered"):
        play_contextual(GameSpec.three_party("---+"), pl, 100, np.random.default_rng(0))


def test_urn_rejects_contexts_without_four_blocks():
    h = ghz_isolated_logic()
    pl = partition_logic(h, enumerate_states(h))
    with pytest.raises(ValueError, match="context 'xxx' has 8 blocks"):
        urn_answers(pl, "xxx", [1])
    with pytest.raises(ValueError, match="has 8 blocks"):
        play_contextual(GameSpec.three_party("---+"), pl, 100, np.random.default_rng(0))


def test_play_contextual_wins_the_main_game():
    game = GameSpec.three_party("---+")
    result = play_contextual(game, tightened_partition_logic(), 10_000, np.random.default_rng(9))
    assert result.win_rate == 1.0


def test_play_contextual_honest_on_other_targets():
    game = GameSpec.three_party("----")
    result = play_contextual(game, tightened_partition_logic(), 4_000, np.random.default_rng(9))
    # loses exactly the xxx rounds (answers there multiply to +1)
    xxx = GHZ_CONTEXTS.index("xxx")
    for ci in range(4):
        expected = 0 if ci == xxx else result.plays_by_context[ci]
        assert result.wins_by_context[ci] == expected


def _game_operator(game):
    """W = sum_c t_c O_c: a share wins every round iff W v = |S| v."""
    return sum(t * quantum.context_operator(c) for c, t in zip(game.contexts, game.targets))


def test_stranger_constraint_matrix_has_full_column_rank():
    matrix = stranger_constraint_matrix()
    assert matrix.shape == (8, 4)
    assert np.linalg.matrix_rank(matrix, tol=1e-9) == 4
    assert stranger_quantum_infeasible(GameSpec.two_party("+++-")) == (True, 4)


@pytest.mark.parametrize("targets", list(itertools.product((1, -1), repeat=4)))
def test_no_two_party_share_wins_every_round(targets):
    game = GameSpec.two_party(targets)
    assert np.linalg.matrix_rank(4 * np.eye(4) - _game_operator(game), tol=1e-9) == 4
    assert stranger_quantum_infeasible(game) == (True, 4)


@pytest.mark.parametrize(
    "game", [GameSpec.two_party("+-+-"), GameSpec.three_party("-++-")], ids=["two", "three"]
)
def test_losing_outcomes_carry_the_losing_born_weight(game):
    # context by context, the share's Born weight on the product-basis outcomes
    # that miss the target is the weight it loses, and the projector
    # (I - t_c O_c) / 2 onto the -t_c eigenspace holds the same weight
    rng = np.random.default_rng(3)
    share = rng.normal(size=2**game.parties) + 1j * rng.normal(size=2**game.parties)
    share /= np.linalg.norm(share)
    lost = []
    for c, t in zip(game.contexts, game.targets):
        basis = quantum.product_basis(c)
        born = np.abs(basis.vectors.conj() @ share) ** 2
        lost.append(sum(p for p, s in zip(born, basis.outcome_signs) if math.prod(s) != t))
    projected = [
        (1 - t * np.vdot(share, quantum.context_operator(c) @ share).real) / 2
        for c, t in zip(game.contexts, game.targets)
    ]
    exact = exact_win_probabilities(game, QuantumStrategy(share=share))
    assert lost == pytest.approx(projected, abs=1e-12)
    assert lost == pytest.approx([1 - p for p in exact], abs=1e-12)


@pytest.mark.parametrize("targets", list(itertools.product((1, -1), repeat=4)))
def test_perfect_three_party_shares_are_the_kernel(targets):
    game = GameSpec.three_party(targets)
    w = _game_operator(game)
    perfect = [i for i, v in enumerate(ghz_basis().vectors) if np.abs(w @ v - 4 * v).max() <= 1e-9]
    share = quantum_share_for(game)
    assert perfect == ([] if share is None else [share])
    assert len(perfect) == (math.prod(targets) == -1)


def test_stranger_rank_with_the_real_balanced_fixing():
    # same conclusion when the second basis is pinned to (1, +-1)/sqrt(2)
    x_p, x_m = np.array([1, 0], dtype=complex), np.array([0, -1], dtype=complex)
    y_p = np.array([1, 1], dtype=complex) / np.sqrt(2)
    y_m = np.array([1, -1], dtype=complex) / np.sqrt(2)
    rows = [
        np.kron(x_p, x_p),
        np.kron(x_m, x_m),
        np.kron(x_p, y_p),
        np.kron(x_m, y_m),
        np.kron(y_p, x_p),
        np.kron(y_m, x_m),
        np.kron(y_p, y_m),
        np.kron(y_m, y_p),
    ]
    assert np.linalg.matrix_rank(np.array([r.conj() for r in rows]), tol=1e-9) == 4


def _box_cells():
    """(input pair, output pair, weight) for every cell of all 48 compiled box tables."""
    pairs = list(itertools.product((0, 1), repeat=2))
    for targets in itertools.product((1, -1), repeat=4):
        for flip in (None, 1, 2):
            p, _ = games._box_table(targets, flip)
            for c, context in enumerate(TWO_PARTY_CONTEXTS):
                inputs = tuple("xy".index(ch) for ch in context)
                for pair, weight in zip(pairs, p[4 * c : 4 * c + 4]):
                    yield inputs, pair, weight


def test_pr_box_law_holds_on_every_invocation():
    p, tally = games._box_table((1, 1, 1, -1), None)
    assert not p.flags.writeable and not tally.flags.writeable  # shared by every session
    for (i1, i2), (o1, o2), weight in _box_cells():
        if weight > 0:
            assert o1 ^ o2 == i1 & i2


def test_pr_box_admissible_pairs():
    support = {}
    for inputs, pair, weight in _box_cells():
        if weight > 0:
            support.setdefault(inputs, set()).add(pair)
    assert support[0, 0] == support[0, 1] == support[1, 0] == {(0, 0), (1, 1)}
    assert support[1, 1] == {(0, 1), (1, 0)}


def test_pr_box_outputs_balanced():
    # each context carries weight 1/4, split evenly over its two admissible pairs
    for (i1, i2), (o1, o2), weight in _box_cells():
        assert weight == (1 / 8 if o1 ^ o2 == i1 & i2 else 0)


def test_pr_box_rejects_non_bits():
    # box inputs are read off the observables: only x (0) and y (1) are bits
    with pytest.raises(ValueError):
        game = GameSpec(contexts=("xx", "xy", "yx", "yz"), targets=(1, 1, 1, -1))
        play_prbox(game, PrBoxStrategy(), 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="flip"):
        play_prbox(GameSpec.two_party("+++-"), PrBoxStrategy(flip=3), 10, np.random.default_rng(0))


def test_play_prbox_wins_the_stranger_game():
    game = GameSpec.two_party("+++-")
    result = play_prbox(game, PrBoxStrategy(), 10_000, np.random.default_rng(11))
    assert result.win_rate == 1.0


def test_play_prbox_flip_wins_the_negated_game():
    game = GameSpec.two_party("---+")
    for flip in (1, 2):
        result = play_prbox(game, PrBoxStrategy(flip=flip), 5_000, np.random.default_rng(11))
        assert result.win_rate == 1.0


def test_play_prbox_all_positive_loses_exactly_yy():
    game = GameSpec.two_party("++++")
    result = play_prbox(game, PrBoxStrategy(), 8_000, np.random.default_rng(2))
    yy = game.contexts.index("yy")
    for ci in range(4):
        expected = 0 if ci == yy else result.plays_by_context[ci]
        assert result.wins_by_context[ci] == expected


# Seeded 1000-round box sessions for every wiring at seeds 0 and 1. The box
# law fixes the context draw alone, so every wiring plays the same contexts;
# the wiring decides which of them it wins.
BOX_PLAYS = {0: (241, 260, 260, 239), 1: (236, 266, 255, 243)}
BOX_WINS = {
    ("++++", None): ((241, 260, 260, 0), (236, 266, 255, 0)),
    ("++++", 1): ((0, 0, 0, 239), (0, 0, 0, 243)),
    ("++++", 2): ((0, 0, 0, 239), (0, 0, 0, 243)),
    ("+++-", None): ((241, 260, 260, 239), (236, 266, 255, 243)),
    ("+++-", 1): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("+++-", 2): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("++-+", None): ((241, 260, 0, 0), (236, 266, 0, 0)),
    ("++-+", 1): ((0, 0, 260, 239), (0, 0, 255, 243)),
    ("++-+", 2): ((0, 0, 260, 239), (0, 0, 255, 243)),
    ("++--", None): ((241, 260, 0, 239), (236, 266, 0, 243)),
    ("++--", 1): ((0, 0, 260, 0), (0, 0, 255, 0)),
    ("++--", 2): ((0, 0, 260, 0), (0, 0, 255, 0)),
    ("+-++", None): ((241, 0, 260, 0), (236, 0, 255, 0)),
    ("+-++", 1): ((0, 260, 0, 239), (0, 266, 0, 243)),
    ("+-++", 2): ((0, 260, 0, 239), (0, 266, 0, 243)),
    ("+-+-", None): ((241, 0, 260, 239), (236, 0, 255, 243)),
    ("+-+-", 1): ((0, 260, 0, 0), (0, 266, 0, 0)),
    ("+-+-", 2): ((0, 260, 0, 0), (0, 266, 0, 0)),
    ("+--+", None): ((241, 0, 0, 0), (236, 0, 0, 0)),
    ("+--+", 1): ((0, 260, 260, 239), (0, 266, 255, 243)),
    ("+--+", 2): ((0, 260, 260, 239), (0, 266, 255, 243)),
    ("+---", None): ((241, 0, 0, 239), (236, 0, 0, 243)),
    ("+---", 1): ((0, 260, 260, 0), (0, 266, 255, 0)),
    ("+---", 2): ((0, 260, 260, 0), (0, 266, 255, 0)),
    ("-+++", None): ((0, 260, 260, 0), (0, 266, 255, 0)),
    ("-+++", 1): ((241, 0, 0, 239), (236, 0, 0, 243)),
    ("-+++", 2): ((241, 0, 0, 239), (236, 0, 0, 243)),
    ("-++-", None): ((0, 260, 260, 239), (0, 266, 255, 243)),
    ("-++-", 1): ((241, 0, 0, 0), (236, 0, 0, 0)),
    ("-++-", 2): ((241, 0, 0, 0), (236, 0, 0, 0)),
    ("-+-+", None): ((0, 260, 0, 0), (0, 266, 0, 0)),
    ("-+-+", 1): ((241, 0, 260, 239), (236, 0, 255, 243)),
    ("-+-+", 2): ((241, 0, 260, 239), (236, 0, 255, 243)),
    ("-+--", None): ((0, 260, 0, 239), (0, 266, 0, 243)),
    ("-+--", 1): ((241, 0, 260, 0), (236, 0, 255, 0)),
    ("-+--", 2): ((241, 0, 260, 0), (236, 0, 255, 0)),
    ("--++", None): ((0, 0, 260, 0), (0, 0, 255, 0)),
    ("--++", 1): ((241, 260, 0, 239), (236, 266, 0, 243)),
    ("--++", 2): ((241, 260, 0, 239), (236, 266, 0, 243)),
    ("--+-", None): ((0, 0, 260, 239), (0, 0, 255, 243)),
    ("--+-", 1): ((241, 260, 0, 0), (236, 266, 0, 0)),
    ("--+-", 2): ((241, 260, 0, 0), (236, 266, 0, 0)),
    ("---+", None): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("---+", 1): ((241, 260, 260, 239), (236, 266, 255, 243)),
    ("---+", 2): ((241, 260, 260, 239), (236, 266, 255, 243)),
    ("----", None): ((0, 0, 0, 239), (0, 0, 0, 243)),
    ("----", 1): ((241, 260, 260, 0), (236, 266, 255, 0)),
    ("----", 2): ((241, 260, 260, 0), (236, 266, 255, 0)),
}


@pytest.mark.parametrize("targets, flip", list(BOX_WINS))
def test_play_prbox_golden_tallies_for_every_wiring(targets, flip):
    game = GameSpec.two_party(targets)
    for seed, wins in zip(BOX_PLAYS, BOX_WINS[targets, flip]):
        result = play_prbox(game, PrBoxStrategy(flip=flip), 1000, np.random.default_rng(seed))
        assert result == games.PlayResult(1000, BOX_PLAYS[seed], wins)


@pytest.mark.parametrize("targets, flip", list(BOX_WINS))
def test_pr_box_is_the_law_that_wins_the_stranger_game(targets, flip):
    # the box answers uniformly among the product outcomes that win +++-, and
    # a flip by either party negates the announced product
    _, stranger_win = games._product_outcomes(GameSpec.two_party("+++-"))
    _, target_win = games._product_outcomes(GameSpec.two_party(targets))
    p, tally = games._box_table(parse_targets(targets), flip)
    assert p.tolist() == [1 / 8 if w else 0.0 for w in stranger_win.ravel().tolist()]
    won = target_win if flip is None else ~target_win
    assert tally[:, 4:].sum(axis=1).tolist() == won.ravel().astype(int).tolist()


# Seeded 1000-round quantum sessions at seeds 0 and 1 for every shared-basis
# state and the uniform superposition on every three-party game. The share
# fixes the law of the draw, so the plays depend on the share alone; the
# targets decide which of them win. The exact win probabilities are pinned bit
# for bit as float.hex, per context for target +1 and for target -1.
QUANTUM_SHARES = {f"share{k + 1}": tuple(float(i == k) for i in range(8)) for k in range(8)}
QUANTUM_SHARES["uniform"] = (1 / math.sqrt(8),) * 8
ZERO, HALF, ONE = "0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0"
QUANTUM_PLAYS = {
    "share1": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share2": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share3": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share4": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share5": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share6": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share7": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "share8": ((269, 235, 234, 262), (247, 251, 249, 253)),
    "uniform": ((269, 229, 252, 250), (247, 257, 230, 266)),
}
QUANTUM_EXACT_HEX = {
    "share1": ((ZERO, ONE), (ZERO, ONE), (ZERO, ONE), (ONE, ZERO)),
    "share2": ((ONE, ZERO), (ONE, ZERO), (ONE, ZERO), (ZERO, ONE)),
    "share3": ((ZERO, ONE), (ONE, ZERO), (ONE, ZERO), (ONE, ZERO)),
    "share4": ((ONE, ZERO), (ZERO, ONE), (ZERO, ONE), (ZERO, ONE)),
    "share5": ((ONE, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ZERO)),
    "share6": ((ZERO, ONE), (ONE, ZERO), (ZERO, ONE), (ZERO, ONE)),
    "share7": ((ONE, ZERO), (ONE, ZERO), (ZERO, ONE), (ONE, ZERO)),
    "share8": ((ZERO, ONE), (ZERO, ONE), (ONE, ZERO), (ZERO, ONE)),
    "uniform": ((HALF, HALF), (HALF, HALF), (HALF, HALF), (HALF, HALF)),
}
QUANTUM_WINS = {
    ("share1", "++++"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share1", "+++-"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share1", "++-+"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share1", "++--"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share1", "+-++"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share1", "+-+-"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share1", "+--+"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share1", "+---"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share1", "-+++"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share1", "-++-"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share1", "-+-+"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share1", "-+--"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share1", "--++"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share1", "--+-"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share1", "---+"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share1", "----"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share2", "++++"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share2", "+++-"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share2", "++-+"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share2", "++--"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share2", "+-++"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share2", "+-+-"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share2", "+--+"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share2", "+---"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share2", "-+++"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share2", "-++-"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share2", "-+-+"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share2", "-+--"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share2", "--++"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share2", "--+-"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share2", "---+"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share2", "----"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share3", "++++"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share3", "+++-"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share3", "++-+"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share3", "++--"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share3", "+-++"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share3", "+-+-"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share3", "+--+"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share3", "+---"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share3", "-+++"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share3", "-++-"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share3", "-+-+"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share3", "-+--"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share3", "--++"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share3", "--+-"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share3", "---+"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share3", "----"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share4", "++++"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share4", "+++-"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share4", "++-+"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share4", "++--"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share4", "+-++"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share4", "+-+-"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share4", "+--+"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share4", "+---"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share4", "-+++"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share4", "-++-"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share4", "-+-+"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share4", "-+--"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share4", "--++"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share4", "--+-"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share4", "---+"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share4", "----"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share5", "++++"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share5", "+++-"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share5", "++-+"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share5", "++--"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share5", "+-++"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share5", "+-+-"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share5", "+--+"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share5", "+---"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share5", "-+++"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share5", "-++-"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share5", "-+-+"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share5", "-+--"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share5", "--++"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share5", "--+-"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share5", "---+"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share5", "----"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share6", "++++"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share6", "+++-"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share6", "++-+"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share6", "++--"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share6", "+-++"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share6", "+-+-"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share6", "+--+"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share6", "+---"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share6", "-+++"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share6", "-++-"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share6", "-+-+"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share6", "-+--"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share6", "--++"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share6", "--+-"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share6", "---+"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share6", "----"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share7", "++++"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("share7", "+++-"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share7", "++-+"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share7", "++--"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share7", "+-++"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share7", "+-+-"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share7", "+--+"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share7", "+---"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share7", "-+++"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share7", "-++-"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share7", "-+-+"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share7", "-+--"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share7", "--++"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share7", "--+-"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share7", "---+"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share7", "----"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share8", "++++"): ((0, 0, 234, 0), (0, 0, 249, 0)),
    ("share8", "+++-"): ((0, 0, 234, 262), (0, 0, 249, 253)),
    ("share8", "++-+"): ((0, 0, 0, 0), (0, 0, 0, 0)),
    ("share8", "++--"): ((0, 0, 0, 262), (0, 0, 0, 253)),
    ("share8", "+-++"): ((0, 235, 234, 0), (0, 251, 249, 0)),
    ("share8", "+-+-"): ((0, 235, 234, 262), (0, 251, 249, 253)),
    ("share8", "+--+"): ((0, 235, 0, 0), (0, 251, 0, 0)),
    ("share8", "+---"): ((0, 235, 0, 262), (0, 251, 0, 253)),
    ("share8", "-+++"): ((269, 0, 234, 0), (247, 0, 249, 0)),
    ("share8", "-++-"): ((269, 0, 234, 262), (247, 0, 249, 253)),
    ("share8", "-+-+"): ((269, 0, 0, 0), (247, 0, 0, 0)),
    ("share8", "-+--"): ((269, 0, 0, 262), (247, 0, 0, 253)),
    ("share8", "--++"): ((269, 235, 234, 0), (247, 251, 249, 0)),
    ("share8", "--+-"): ((269, 235, 234, 262), (247, 251, 249, 253)),
    ("share8", "---+"): ((269, 235, 0, 0), (247, 251, 0, 0)),
    ("share8", "----"): ((269, 235, 0, 262), (247, 251, 0, 253)),
    ("uniform", "++++"): ((134, 123, 121, 133), (108, 128, 115, 145)),
    ("uniform", "+++-"): ((134, 123, 121, 117), (108, 128, 115, 121)),
    ("uniform", "++-+"): ((134, 123, 131, 133), (108, 128, 115, 145)),
    ("uniform", "++--"): ((134, 123, 131, 117), (108, 128, 115, 121)),
    ("uniform", "+-++"): ((134, 106, 121, 133), (108, 129, 115, 145)),
    ("uniform", "+-+-"): ((134, 106, 121, 117), (108, 129, 115, 121)),
    ("uniform", "+--+"): ((134, 106, 131, 133), (108, 129, 115, 145)),
    ("uniform", "+---"): ((134, 106, 131, 117), (108, 129, 115, 121)),
    ("uniform", "-+++"): ((135, 123, 121, 133), (139, 128, 115, 145)),
    ("uniform", "-++-"): ((135, 123, 121, 117), (139, 128, 115, 121)),
    ("uniform", "-+-+"): ((135, 123, 131, 133), (139, 128, 115, 145)),
    ("uniform", "-+--"): ((135, 123, 131, 117), (139, 128, 115, 121)),
    ("uniform", "--++"): ((135, 106, 121, 133), (139, 129, 115, 145)),
    ("uniform", "--+-"): ((135, 106, 121, 117), (139, 129, 115, 121)),
    ("uniform", "---+"): ((135, 106, 131, 133), (139, 129, 115, 145)),
    ("uniform", "----"): ((135, 106, 131, 117), (139, 129, 115, 121)),
}


@pytest.mark.parametrize("share, targets", list(QUANTUM_WINS))
def test_play_quantum_golden_tallies_for_every_share(share, targets):
    game = GameSpec.three_party(targets)
    strategy = QuantumStrategy(share=ghz_superposition(QUANTUM_SHARES[share]))
    for seed, (plays, wins) in enumerate(zip(QUANTUM_PLAYS[share], QUANTUM_WINS[share, targets])):
        result = play_quantum(game, strategy, 1000, np.random.default_rng(seed))
        assert result == games.PlayResult(1000, plays, wins)
    exact = [QUANTUM_EXACT_HEX[share][c][t == -1] for c, t in enumerate(game.targets)]
    assert [p.hex() for p in exact_win_probabilities(game, strategy)] == exact


def test_xor_game_census_on_the_eight_three_party_contexts():
    """Every game on a nonempty subset S of the contexts {x, y}^3, one target each.

    Its quantum value with x and y measured is 1/2 + lambda_max(sum_c t_c O_c) / (2|S|).
    The x and y measurements are fixed, so these quantum values are lower
    bounds: rotated measurements can do better.
    """
    contexts = ["".join(c) for c in itertools.product("xy", repeat=3)]
    operators = {c: quantum.context_operator(c) for c in contexts}
    games_played, classes, perfect = 0, Counter(), set()
    for size in range(1, 9):
        for subset in itertools.combinations(contexts, size):
            for targets in itertools.product((1, -1), repeat=size):
                games_played += 1
                classical, _ = best_classical_strategies(GameSpec(subset, targets))
                top = np.linalg.eigvalsh(sum(t * operators[c] for c, t in zip(subset, targets)))[-1]
                assert abs(top**2 - round(top**2)) < 1e-9
                if 0.5 + top / (2 * size) > classical + 1e-9:
                    classes[size, round(top**2), Fraction(round(classical * size), size)] += 1
                if abs(top - size) < 1e-9 and classical < 1:
                    perfect.add((subset, targets))
    assert games_played == 3**8 - 1
    # (contexts, lambda_max squared, classical value) of the 976 games where
    # quantum wins more: 64 with 4 contexts, 512 with 5, 384 with 6, 16 with 8
    assert classes == {
        (4, 8, Fraction(3, 4)): 48,
        (4, 16, Fraction(3, 4)): 16,
        (5, 13, Fraction(4, 5)): 384,
        (5, 17, Fraction(4, 5)): 128,
        (6, 18, Fraction(5, 6)): 192,
        (6, 20, Fraction(5, 6)): 192,
        (8, 32, Fraction(3, 4)): 16,
    }
    families = [("xxx", "xyy", "yxy", "yyx"), ("xxy", "xyx", "yxx", "yyy")]
    odd = [t for t in itertools.product((1, -1), repeat=4) if math.prod(t) == -1]
    assert perfect == {(family, t) for family in families for t in odd}


def test_play_prbox_requires_two_party_contexts():
    with pytest.raises(ValueError):
        play_prbox(GameSpec.three_party("---+"), PrBoxStrategy(), 10, np.random.default_rng(0))


def test_game_spec_validation():
    with pytest.raises(ValueError):
        GameSpec.three_party("--+")
    with pytest.raises(ValueError):
        GameSpec(contexts=("xx", "xy"), targets=(1,))
    with pytest.raises(ValueError):
        GameSpec(contexts=("xx", "xyy"), targets=(1, 1))
    with pytest.raises(ValueError, match="x or y"):
        GameSpec(contexts=("xz", "zx", "xx", "zz"), targets=(1, 1, 1, -1))
    with pytest.raises(ValueError, match="at least one context"):
        GameSpec(contexts=(), targets=())


@pytest.mark.parametrize("bad", [True, False, 1.0, -1.0, np.float64(1), np.True_, "+"])
def test_game_spec_rejects_non_integer_targets(bad):
    with pytest.raises(ValueError, match="integers"):
        GameSpec.two_party((bad, 1, 1, -1))
    with pytest.raises(ValueError, match="integers"):
        GameSpec.three_party((1, 1, 1, bad))


@pytest.mark.parametrize("pattern", list(itertools.product((1, -1), repeat=4)))
def test_game_spec_stores_list_contexts_as_a_tuple(pattern):
    three, two = GameSpec(list(GHZ_CONTEXTS), pattern), GameSpec(list(TWO_PARTY_CONTEXTS), pattern)
    for game, standard in ((three, GameSpec.three_party(pattern)), (two, GameSpec.two_party(pattern))):
        assert type(game.contexts) is tuple
        assert game == standard and hash(game) == hash(standard)
        assert best_classical_strategies(game) == best_classical_strategies(standard)
    assert quantum_share_for(three) == quantum_share_for(GameSpec.three_party(pattern))
    for flip in (None, 1, 2):
        box = PrBoxStrategy(flip)
        assert play_prbox(two, box, 1000, np.random.default_rng(5)) == play_prbox(
            GameSpec.two_party(pattern), box, 1000, np.random.default_rng(5)
        )


def test_game_spec_stores_integer_targets_as_plain_int():
    game = GameSpec.two_party((np.int64(1), 1, np.int8(1), -1))
    assert game.targets == (1, 1, 1, -1)
    assert all(type(t) is int for t in game.targets)


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, np.float64(1), np.True_, "1", 0, 3])
def test_pr_box_strategy_rejects_non_party_flips(bad):
    with pytest.raises(ValueError, match="flip"):
        PrBoxStrategy(flip=bad)


@pytest.mark.parametrize("flip", [1, 2, np.int64(1), np.int32(2)])
def test_pr_box_strategy_stores_integer_flip_as_plain_int(flip):
    strategy = PrBoxStrategy(flip=flip)
    assert strategy.flip == flip and type(strategy.flip) is int
    assert PrBoxStrategy().flip is None


def test_classical_search_rejects_other_party_counts():
    game = GameSpec(contexts=("x", "y"), targets=(1, -1))
    with pytest.raises(ValueError, match="2- and 3-party"):
        best_classical_strategies(game)
