import dataclasses
import functools
import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ghzgames import games, quantum
from ghzgames.games import (
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
    stranger_quantum_infeasible,
    urn_answers,
)
from ghzgames.linalg import rank
from ghzgames.logic import (
    Hypergraph,
    enumerate_states,
    ghz_isolated_logic,
    partition_logic,
    tightened_partition_logic,
)
from ghzgames.quantum import GHZ_CONTEXTS, SIGMA_X, SIGMA_Y, TWO_PARTY_CONTEXTS, ghz_basis, ghz_superposition


def test_parse_targets():
    assert parse_targets("---+") == (-1, -1, -1, 1)
    with pytest.raises(ValueError):
        parse_targets("-+0-")


def test_cached_arrays_are_read_only():
    # the cache hands one array to every caller, and no public call returns it
    assert not games._box_cells((1, 1, 1, -1), None).flags.writeable


@pytest.mark.parametrize("contexts", [GHZ_CONTEXTS, TWO_PARTY_CONTEXTS])
def test_every_noncontextual_strategy_has_context_product_plus_one(contexts):
    """Each local value occurs in two of the four contexts, so it cancels in
    the product, while the four context operators multiply to -I: no strategy
    wins every context of a game whose targets multiply to -1."""
    for targets in itertools.product((1, -1), repeat=4):
        if math.prod(targets) == -1:
            assert best_classical_strategies(GameSpec(contexts, targets))[0] < 1


@pytest.mark.parametrize("contexts", [GHZ_CONTEXTS, TWO_PARTY_CONTEXTS])
def test_the_four_contexts_have_one_parity_dependency(contexts):
    """Each context as the bit mask of the (party, letter) observables it reads:
    of the 15 nonempty sets of contexts, only all four read every observable
    an even number of times, so the one classical parity law is that the four
    products multiply to +1. The operators multiply to -I instead, as the
    `verify` product check (test_verify_all_checks_pass) and
    test_product_of_the_four_two_party_operators_is_minus_identity pin."""
    masks = [sum(1 << 2 * party + "xy".index(letter) for party, letter in enumerate(c)) for c in contexts]
    xors = {s: functools.reduce(int.__xor__, (m for i, m in enumerate(masks) if s >> i & 1)) for s in range(1, 16)}
    assert [s for s, x in xors.items() if x == 0] == [0b1111]


def test_quantum_share_rejects_other_context_sets():
    with pytest.raises(ValueError):
        quantum_share_for(GameSpec.two_party("+++-"))


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


@pytest.mark.parametrize("share", [1.0, np.eye(8)[:1], np.eye(8)[:, :1]], ids=["scalar", "row", "column"])
def test_quantum_strategy_requires_a_vector_share(share):
    # each has unit norm, but a share is one state vector
    with pytest.raises(ValueError, match="share must be a unit vector"):
        QuantumStrategy(share=share)


def test_quantum_engines_reject_a_share_or_game_of_the_wrong_dimension():
    for game, share in ((GameSpec.three_party("---+"), np.eye(4)[0]), (GameSpec.two_party("+++-"), np.eye(8)[0])):
        strategy = QuantumStrategy(share=share)
        with pytest.raises(ValueError, match="dimension"):
            play_quantum(game, strategy, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension") as error:
            exact_win_probabilities(game, strategy)
        dim = 2**game.parties
        assert str(error.value) == f"dimension mismatch: share of shape {share.shape}, game of dimension {dim}"
    # the certificate reads phases, not dense operators, so it answers any party count
    assert stranger_quantum_infeasible(GameSpec(("xxxx",), (1,))) == (False, 8)
    # the engines build each context's operator or product basis, which take 2 or 3 letters
    four_party = GameSpec(("xxxx",), (1,)), QuantumStrategy(share=np.eye(16)[0])
    for play in (exact_win_probabilities, lambda *a: play_quantum(*a, 10, np.random.default_rng(0))):
        with pytest.raises(ValueError) as error:
            play(*four_party)
        assert str(error.value) == "invalid measurement context 'xxxx': need 2 or 3 letters, each x or y"


def test_contextual_strategy_published_identification():
    pl = tightened_partition_logic()
    xxx = urn_answers(pl, "xxx")
    assert [xxx[0], xxx[2], xxx[3]] == [(1, 1, 1), (1, -1, -1), (1, -1, -1)]
    assert urn_answers(pl, "yyx")[1] == (1, 1, -1)


def test_contextual_strategy_is_genuinely_contextual():
    pl = tightened_partition_logic()
    for ball in range(1, 9):
        conflicted = False
        for party in range(3):
            for obs in "xy":
                seen = set()
                for context in GHZ_CONTEXTS:
                    if context[party] == obs:
                        seen.add(urn_answers(pl, context)[ball - 1][party])
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
        answers = set(urn_answers(pl, context))
        assert answers == support, context


def test_contextual_strategy_errors():
    pl = tightened_partition_logic()
    with pytest.raises(ValueError):
        urn_answers(pl, "xx")
    with pytest.raises(ValueError, match="three-party contexts"):
        play_contextual(GameSpec.two_party("+++-"), pl, 100, np.random.default_rng(0))
    with pytest.raises(ValueError, match="four game contexts, got 3"):  # not an IndexError
        urn_answers(dataclasses.replace(pl, **_three_rows(pl)), "yyx")


def test_urn_rejects_contexts_without_four_blocks():
    h = ghz_isolated_logic()
    pl = partition_logic(h, enumerate_states(h))
    with pytest.raises(ValueError, match="context 'xxx' has 8 blocks"):
        urn_answers(pl, "xxx")
    for _ in range(2):
        with pytest.raises(ValueError, match="has 8 blocks"):
            play_contextual(GameSpec.three_party("---+"), pl, 100, np.random.default_rng(0))


def test_urn_law_is_a_share_of_the_balls():
    # ball k + 8 copies ball k in every label, so each answer's share, and so
    # the seeded tallies, stay those of the eight-ball urn
    pl = tightened_partition_logic()
    doubled = dataclasses.replace(pl, state_count=16, labels=tuple(b | {k + 8 for k in b} for b in pl.labels))
    game = GameSpec.three_party("+-++")
    plays = [play_contextual(game, urn, 10_000, np.random.default_rng(5)) for urn in (pl, doubled)]
    assert plays[0] == plays[1]


def _rows(pl):
    """The logic of the tightened logic's four rows, which hold every atom."""
    h = pl.hypergraph
    return dataclasses.replace(pl, hypergraph=Hypergraph(atoms=h.atoms, contexts=h.contexts[:4]))


def _three_rows(pl):
    """The first three rows alone, with their twelve atoms' labels."""
    h = pl.hypergraph
    return {"hypergraph": Hypergraph(atoms=h.atoms[:12], contexts=h.contexts[:3]), "labels": pl.labels[:12]}


def _empty_block(pl):
    """The first row's first two labels merged, which leaves an empty fourth block."""
    a, b, *rest = pl.labels
    return {"labels": (a | b, frozenset(), *rest)}


# a malformed change to the rows' logic, and the ValueError that names the
# fault: the ball count fails when the logic is built, the rest when the urn
# plays it
MALFORMED_URNS = {
    "three contexts": (_three_rows, "four game contexts, got 3"),
    "empty block": (_empty_block, "context 'xxx' has 4 blocks, not 4 nonempty ones"),
    "no balls": (lambda pl: {"state_count": 0}, "positive integer ball count, got 0"),
    "negative balls": (lambda pl: {"state_count": -8}, "positive integer ball count, got -8"),
    "float balls": (lambda pl: {"state_count": 8.0}, "positive integer ball count, got 8.0"),
    "bool balls": (lambda pl: {"state_count": True}, "positive integer ball count, got True"),
}


@pytest.mark.parametrize("case", list(MALFORMED_URNS))
def test_play_contextual_names_a_malformed_logic(case):
    change, message = MALFORMED_URNS[case]
    rows = _rows(tightened_partition_logic())
    game = GameSpec.three_party("---+")
    # the urn's law is cached on the whole logic, so a logic that differs from
    # one already played in its labels alone still gets its own law
    play_contextual(game, rows, 100, np.random.default_rng(0))
    for _ in range(2):  # the urn's cached law never caches the error
        with pytest.raises(ValueError, match=message):
            play_contextual(game, dataclasses.replace(rows, **change(rows)), 100, np.random.default_rng(0))


def _listed_contexts(pl):
    h = pl.hypergraph
    return {"hypergraph": Hypergraph(atoms=h.atoms, contexts=[list(c) for c in h.contexts])}


def _listed_all(pl):
    h = pl.hypergraph
    return {
        "hypergraph": Hypergraph(atoms=list(h.atoms), contexts=[list(c) for c in h.contexts]),
        "labels": [sorted(b) for b in pl.labels],
    }


# a logic's fields given as lists rather than the stored tuples and frozensets
LISTED_LOGICS = {
    "list of contexts": _listed_contexts,
    "list blocks": lambda pl: {"labels": tuple(map(sorted, pl.labels))},
    "lists all the way": _listed_all,
}


@pytest.mark.parametrize("case", list(LISTED_LOGICS))
def test_urn_plays_a_logic_given_as_lists_as_its_tuples(case):
    pl = tightened_partition_logic()
    listed = dataclasses.replace(pl, **LISTED_LOGICS[case](pl))
    assert listed == pl and hash(listed) == hash(pl)  # stored as tuples of frozensets, which no list equals
    game = GameSpec.three_party("+-++")
    plays = [play_contextual(game, urn, 1000, np.random.default_rng(3)) for urn in (pl, listed)]
    assert plays[0] == plays[1]


def _game_operator(game):
    """W = sum_c t_c O_c: a share wins every round iff W v = |S| v."""
    return sum(t * quantum.context_operator(c) for c, t in zip(game.contexts, game.targets))


@pytest.mark.parametrize("targets", list(itertools.product((1, -1), repeat=4)))
def test_no_two_party_share_wins_every_round(targets):
    game = GameSpec.two_party(targets)
    assert np.linalg.matrix_rank(4 * np.eye(4) - _game_operator(game), tol=1e-9) == 4
    assert stranger_quantum_infeasible(game) == (True, 4)


@pytest.mark.parametrize(
    "contexts, targets, certificate",
    [
        (("x", "y"), (1, 1), (True, 2)),
        (("xxxx",), (1,), (False, 8)),
        (("xxxx", "xxyy", "xyxy", "yyyy"), (1, -1, -1, 1), (False, 15)),
    ],
    ids=["one-party", "four-party-xxxx", "four-party-one-perfect-share"],
)
def test_certificate_matches_the_dense_rank_beyond_two_and_three_parties(contexts, targets, certificate):
    # the reference folds each context from the Pauli matrices and takes the
    # exact rank of |S|·I - W; the certificate builds no matrix
    game = GameSpec(contexts, targets)
    ops = [functools.reduce(np.kron, [SIGMA_X if ch == "x" else SIGMA_Y for ch in c]) for c in contexts]
    w = sum(t * op for op, t in zip(ops, targets))
    r = rank(len(contexts) * np.eye(len(w)) - w)
    assert (r == len(w), r) == certificate
    assert stranger_quantum_infeasible(game) == certificate


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
def test_perfect_three_party_shares_are_the_kernel(targets, sign_rows):
    game = GameSpec.three_party(targets)
    w, vectors = _game_operator(game), ghz_basis().vectors
    perfect = [i for i, v in enumerate(vectors) if np.abs(w @ v - 4 * v).max() <= 1e-9]
    share = quantum_share_for(game)
    assert perfect == ([] if share is None else [share])
    assert len(perfect) == (math.prod(targets) == -1)
    # the atlas: basis state i wins context c at (1 + t_c·s_(i,c))/2, so game t at 1/2 + (t·s_i)/8, bit for bit
    for v, row in zip(vectors, sign_rows):
        law = exact_win_probabilities(game, QuantumStrategy(share=v))
        assert law == tuple((1 + t * s) / 2 for t, s in zip(targets, row))


ALL_TARGETS = ["".join(t) for t in itertools.product("+-", repeat=4)]
BOX_WIRINGS = [(targets, flip) for targets in ALL_TARGETS for flip in (None, 1, 2)]

# Seeded 1000-round sessions at seeds 0 and 1. The box, the urn and each
# shared-basis state win every context with probability 0 or 1, and a cell of
# weight 0 draws nothing, so every such session plays these contexts; its
# signs decide which of them it wins.
BOX_PLAYS = {0: (269, 245, 247, 239), 1: (246, 232, 262, 260)}


def _zero_one_results(signs, targets):
    """Seed -> result of a 1000-round session whose law wins context c in every
    round when signs[c] is its target, and in none otherwise."""
    return {
        seed: games.PlayResult(1000, plays, tuple(n if s == t else 0 for n, s, t in zip(plays, signs, targets)))
        for seed, plays in BOX_PLAYS.items()
    }


@pytest.mark.parametrize("targets, flip", BOX_WIRINGS)
def test_play_prbox_golden_tallies_for_every_wiring(targets, flip):
    # the box announces the product that wins +++-, and either flip negates it
    game = GameSpec.two_party(targets)
    announced = [s if flip is None else -s for s in parse_targets("+++-")]
    for seed, expected in _zero_one_results(announced, game.targets).items():
        assert play_prbox(game, PrBoxStrategy(flip=flip), 1000, np.random.default_rng(seed)) == expected


@pytest.mark.parametrize("targets, flip", BOX_WIRINGS)
def test_pr_box_is_the_law_that_wins_the_stranger_game(targets, flip):
    # the box answers among the product outcomes that win +++-, two per
    # context, and a flip by either party negates the announced product: it
    # wins a context in every round when those outcomes win the targets, else
    # in none
    game = GameSpec.two_party(targets)
    sign = 1 if flip is None else -1
    result = play_prbox(game, PrBoxStrategy(flip), 1000, np.random.default_rng(0))
    stranger = GameSpec.two_party("+++-").targets
    rows = zip(game.contexts, stranger, game.targets, result.plays_by_context, result.wins_by_context)
    for context, s, t, n, w in rows:
        support = [o for o in quantum.product_basis(context).outcome_signs if math.prod(o) == s]
        assert len(support) == 2 and n > 0
        assert w == n * all(sign * math.prod(o) == t for o in support)


# Seeded quantum sessions for every shared-basis state and the uniform
# superposition on every three-party game. Share k + 1 is basis state k: it
# wins a context always where row k of the sign table is the target, and
# never elsewhere. The uniform superposition wins every context with
# probability exactly 1/2, so all 16 targets draw the same tallies, at seeds
# 0 and 1. The exact win probabilities are pinned bit for bit as float.hex.
QUANTUM_SHARES = {f"share{k + 1}": tuple(float(i == k) for i in range(8)) for k in range(8)}
QUANTUM_SHARES["uniform"] = (1 / math.sqrt(8),) * 8
UNIFORM_RESULTS = {
    0: games.PlayResult(1000, (241, 260, 260, 239), (114, 126, 138, 119)),
    1: games.PlayResult(1000, (236, 266, 255, 243), (124, 129, 140, 123)),
}
# The uniform superposition spelled two ways, one ulp apart
UNIFORM_SPELLINGS = {"8**-0.5": (8**-0.5,) * 8, "1/sqrt(8)": (1 / math.sqrt(8),) * 8}
ZERO, HALF, ONE = "0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0"


@pytest.mark.parametrize("share, targets", [(share, t) for share in QUANTUM_SHARES for t in ALL_TARGETS])
def test_play_quantum_golden_tallies_for_every_share(share, targets, sign_rows):
    game = GameSpec.three_party(targets)
    strategy = QuantumStrategy(share=ghz_superposition(QUANTUM_SHARES[share]))
    if share == "uniform":
        expected, exact = UNIFORM_RESULTS, [HALF] * 4
    else:
        signs = sign_rows[int(share.removeprefix("share")) - 1]
        expected = _zero_one_results(signs, game.targets)
        exact = [ONE if s == t else ZERO for s, t in zip(signs, game.targets)]
    for seed, result in expected.items():
        assert play_quantum(game, strategy, 1000, np.random.default_rng(seed)) == result
    assert [p.hex() for p in exact_win_probabilities(game, strategy)] == exact


@pytest.mark.parametrize("targets", ALL_TARGETS)
def test_both_uniform_spellings_play_the_same_tallies(targets):
    # the two spellings differ in the last bit, yet both win every context
    # with probability exactly 1/2
    assert 8**-0.5 != 1 / math.sqrt(8)
    game = GameSpec.three_party(targets)
    for amplitudes in UNIFORM_SPELLINGS.values():
        strategy = QuantumStrategy(share=ghz_superposition(amplitudes))
        for seed, result in UNIFORM_RESULTS.items():
            assert play_quantum(game, strategy, 1000, np.random.default_rng(seed)) == result


@pytest.mark.parametrize("targets", ALL_TARGETS)
def test_urn_plays_the_box_contexts(targets, sign_rows):
    # every urn answer in a context carries basis state 1's sign there, so
    # the urn wins each context always or never and plays BOX_PLAYS
    game = GameSpec.three_party(targets)
    for seed, expected in _zero_one_results(sign_rows[0], game.targets).items():
        assert play_contextual(game, tightened_partition_logic(), 1000, np.random.default_rng(seed)) == expected


def _quantum_law(monkeypatch, game, strategy):
    """The per-context win law whose cells ``play_quantum`` samples."""
    laws = []
    monkeypatch.setattr(games, "_cells", laws.append)
    monkeypatch.setattr(games, "_sample", lambda cells, rounds, rng: None)
    play_quantum(game, strategy, 1, None)
    return laws[0]


GOLDEN_SHARES = {**{k: v for k, v in QUANTUM_SHARES.items() if k != "uniform"}, **UNIFORM_SPELLINGS}


@pytest.mark.parametrize("share", list(GOLDEN_SHARES))
def test_born_sum_law_is_the_exact_law_bit_for_bit(monkeypatch, share):
    # on these shares, sampling from exact_win_probabilities instead would
    # change no golden; random shares differ by up to about 1e-16
    strategy = QuantumStrategy(share=ghz_superposition(GOLDEN_SHARES[share]))
    for targets in ALL_TARGETS:
        game = GameSpec.three_party(targets)
        law = _quantum_law(monkeypatch, game, strategy)
        assert [p.hex() for p in law] == [p.hex() for p in exact_win_probabilities(game, strategy)]


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


def test_game_spec_rejects_a_context_with_no_letters():
    # a zero-party game would reach every engine, which fails in its own way
    for contexts in (("",), ("", "")):
        with pytest.raises(ValueError, match="one observable per party"):
            GameSpec(contexts, (1,) * len(contexts))


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
