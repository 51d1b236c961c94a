"""Property-based checks over random inputs."""

import itertools
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzgames import games, logic, quantum
from ghzgames.linalg import rank

@given(st.text(alphabet="xy", min_size=3, max_size=3))
def test_tensor_is_associative_on_pauli_triples(label):
    a, b, c = (quantum.SIGMA_X if ch == "x" else quantum.SIGMA_Y for ch in label)
    assert np.array_equal(quantum.context_operator(label), np.kron(a, np.kron(b, c)))


@st.composite
def parity_games(draw):
    """2 or 3 parties, 1-10 contexts over {x, y} (repeats allowed), random targets."""
    parties = draw(st.sampled_from((2, 3)))
    contexts = draw(st.lists(st.text(alphabet="xy", min_size=parties, max_size=parties), min_size=1, max_size=10))
    targets = draw(st.lists(st.sampled_from((1, -1)), min_size=len(contexts), max_size=len(contexts)))
    return games.GameSpec(tuple(contexts), tuple(targets))


@settings(max_examples=200, deadline=None)
@given(parity_games())
def test_game_operator_certificate_matches_the_losing_outcomes(game):
    # M stacks the conjugated product-basis vectors of every losing outcome, so
    # a share wins every round iff M annihilates it; per context those vectors
    # span the -t_c eigenspace of O_c, whose projector is (I - t_c O_c) / 2
    bases = [quantum.product_basis(c) for c in game.contexts]
    m = np.vstack(
        [b.vectors[[math.prod(s) != t for s in b.outcome_signs]].conj() for b, t in zip(bases, game.targets)]
    )
    dim = 2**game.parties
    r = rank(m)
    assert games.stranger_quantum_infeasible(game) == (r == dim, r)
    w = sum(t * quantum.context_operator(c) for c, t in zip(game.contexts, game.targets))
    assert np.abs(2 * m.conj().T @ m - (len(game.contexts) * np.eye(dim) - w)).max() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(parity_games(), st.randoms(use_true_random=False))
def test_exact_win_probabilities_are_the_winning_born_weight(game, pyrandom):
    # the reference measures the share in each context's product basis and
    # adds the Born weight of the outcomes whose signs multiply to the target
    rng = np.random.default_rng(pyrandom.getrandbits(32))
    share = rng.normal(size=2**game.parties) + 1j * rng.normal(size=2**game.parties)
    share /= np.linalg.norm(share)
    won = []
    for c, t in zip(game.contexts, game.targets):
        basis = quantum.product_basis(c)
        born = np.abs(basis.vectors.conj() @ share) ** 2
        won.append(sum(p for p, s in zip(born, basis.outcome_signs) if math.prod(s) == t))
    exact = games.exact_win_probabilities(game, games.QuantumStrategy(share=share))
    assert exact == pytest.approx(won, abs=1e-12)


def _session_and_law(engine, targets, flip, rounds, seed):
    """One seeded session of ``engine`` and its per-context win law w_c."""
    rng = np.random.default_rng(seed)
    if engine == "prbox":
        # o1 XOR o2 = i1 AND i2 makes the announced product -1 exactly on yy,
        # and a flip negates it: each context is won in every round or in none
        game = games.GameSpec.two_party(targets)
        sign = 1 if flip is None else -1
        law = [float(sign * (-1 if c == "yy" else 1) == t) for c, t in zip(game.contexts, targets)]
        return games.play_prbox(game, games.PrBoxStrategy(flip), rounds, rng), law
    game = games.GameSpec.three_party(targets)
    if engine == "contextual":
        pl = logic.tightened_partition_logic()
        answers = [games.urn_answers(pl, c, range(1, pl.state_count + 1)) for c in game.contexts]
        law = [sum(math.prod(a) == t for a in ans) / len(ans) for ans, t in zip(answers, targets)]
        return games.play_contextual(game, pl, rounds, rng), law
    share = rng.normal(size=8) + 1j * rng.normal(size=8)
    strategy = games.QuantumStrategy(share=share / np.linalg.norm(share))
    return games.play_quantum(game, strategy, rounds, rng), games.exact_win_probabilities(game, strategy)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("quantum", "prbox", "contextual")),
    st.tuples(*[st.sampled_from((1, -1))] * 4),
    st.sampled_from((None, 1, 2)),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampled_tallies_agree_with_each_engine_law(engine, targets, flip, rounds, seed):
    # each round draws one of the 4 contexts uniformly and wins it with
    # probability w_c, so plays and wins are binomial; 6 sigma each
    result, law = _session_and_law(engine, targets, flip, rounds, seed)
    assert result.rounds == sum(result.plays_by_context) == rounds
    for n, w, p in zip(result.plays_by_context, result.wins_by_context, law):
        assert abs(n - rounds / 4) <= 6 * math.sqrt(rounds * 3 / 16)
        assert abs(w - p * n) <= 6 * math.sqrt(n * p * (1 - p)) + 1e-6


@st.composite
def intertwined_hypergraphs(draw):
    """Up to 10 atoms in contexts that may share atoms, be empty or repeat."""
    n = draw(st.integers(min_value=1, max_value=10))
    subsets = st.lists(st.integers(min_value=0, max_value=n - 1), unique=True, min_size=1, max_size=n)
    contexts = draw(st.lists(subsets, min_size=1, max_size=8))
    contexts += draw(st.lists(st.sampled_from(contexts), max_size=1))
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        contexts.append([])
    missing = sorted(set(range(n)) - {a for c in contexts for a in c})
    if missing:
        contexts.append(missing)
    contexts = draw(st.permutations(contexts))
    return logic.Hypergraph(atoms=tuple(f"a{i}" for i in range(n)), contexts=contexts)


@settings(max_examples=300, deadline=None)
@given(intertwined_hypergraphs())
def test_enumerate_states_matches_brute_force_on_intertwined_contexts(h):
    # product() walks the 2^n valuations in ascending lexicographic order
    valuations = itertools.product((0, 1), repeat=len(h.atoms))
    brute = [v for v in valuations if all(sum(v[a] for a in c) == 1 for c in h.contexts)]
    assert logic.enumerate_states(h) == brute


ALL_SIGN_PATTERNS = tuple("".join(p) for p in itertools.product("+-", repeat=4))


def _scalar_classical(game):
    """Reference: the per-strategy loop, scoring every strategy context by context."""
    pairs = [(x, y) for x in (1, -1) for y in (1, -1)]
    best, winners = -1.0, []
    for assignments in itertools.product(pairs, repeat=game.parties):
        flags = []
        for context, target in zip(game.contexts, game.targets):
            prod = 1
            for (x, y), ch in zip(assignments, context):
                prod *= x if ch == "x" else y
            flags.append(prod == target)
        strategy = games.ClassicalStrategy(assignments)
        value = float(sum(1 / len(game.contexts) for w in flags if w))
        if value > best:
            best, winners = value, [strategy]
        elif value == best:
            winners.append(strategy)
    return best, winners


# The 2 x 16 games are the whole input space, so the check runs on all of them.
# On four contexts a strategy's won count moves in steps of 2, so games on three
# contexts also check that a strategy one context short of the best is no winner.
def test_classical_search_matches_the_scalar_loop():
    spec = {2: games.GameSpec.two_party, 3: games.GameSpec.three_party}
    odd = [games.GameSpec(("xxx", "xyy", "yxy"), t) for t in itertools.product((1, -1), repeat=3)]
    for game in [spec[n](p) for n, p in itertools.product((2, 3), ALL_SIGN_PATTERNS)] + odd:
        best, winners = _scalar_classical(game)
        value, found = games.best_classical_strategies(game)
        assert type(value) is float and value.hex() == best.hex()
        assert found == winners
        assert games.best_classical_strategies(game)[0].hex() == best.hex()


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # under the project's warning filters, hypothesis reports a falsified
    # property like any other failure and the tests after it still run
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(n):\n"
        "    assert n != n\n\n\n"
        "def test_after():\n"
        "    pass\n"
    )
    config = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
