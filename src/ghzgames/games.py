"""Parity game engine: classical, quantum, urn-contextual and nonlocal-box play.

A game fixes a target sign per measurement context. Noncontextual classical
strategies assign one value per observable per party; quantum strategies share
an entangled state and measure locally; the two-party variant admits a perfect
nonlocal-box strategy that no quantum share can match.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import quantum
from .linalg import is_unit, rank
from .logic import ISOLATED_CONTEXT_LABELS, PartitionLogic
from .quantum import GHZ_CONTEXTS, TWO_PARTY_CONTEXTS

Targets = tuple[int, ...]


def parse_targets(text: str) -> Targets:
    """Turn a sign string like ``"---+"`` into a tuple of +-1 targets."""
    if any(ch not in "+-" for ch in text) or not text:
        raise ValueError(f"targets must be a string over '+'/'-', got {text!r}")
    return tuple(1 if ch == "+" else -1 for ch in text)


def format_targets(targets: Targets) -> str:
    return "".join("+" if t > 0 else "-" for t in targets)


def _as_int(value) -> int | None:
    """``value`` as a plain int; None for bools, floats and other non-integers."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class GameSpec:
    """Measurement contexts, one target sign each, for 2 or 3 parties."""

    contexts: tuple[str, ...]
    targets: Targets

    def __post_init__(self):
        if not self.contexts:
            raise ValueError("a game needs at least one context")
        if len(self.contexts) != len(self.targets):
            raise ValueError("need one target per context")
        if len({len(c) for c in self.contexts}) != 1:
            raise ValueError("every context must name one observable per party")
        if any(ch not in "xy" for c in self.contexts for ch in c):
            raise ValueError("every observable must be x or y")
        targets = tuple(_as_int(t) for t in self.targets)
        if any(t not in (1, -1) for t in targets):
            raise ValueError("targets must be the integers +1 or -1")
        object.__setattr__(self, "targets", targets)

    @property
    def parties(self) -> int:
        return len(self.contexts[0])

    @classmethod
    def three_party(cls, targets: Targets | str) -> "GameSpec":
        """The standard four-context game; target order (yyx, yxy, xyy, xxx)."""
        t = parse_targets(targets) if isinstance(targets, str) else tuple(targets)
        if len(t) != 4:
            raise ValueError("three-party games take four targets")
        return cls(contexts=GHZ_CONTEXTS, targets=t)

    @classmethod
    def two_party(cls, targets: Targets | str) -> "GameSpec":
        """The two-party variant on contexts (xx, xy, yx, yy)."""
        t = parse_targets(targets) if isinstance(targets, str) else tuple(targets)
        if len(t) != 4:
            raise ValueError("two-party games take four targets")
        return cls(contexts=TWO_PARTY_CONTEXTS, targets=t)


@dataclass(frozen=True)
class ClassicalStrategy:
    """One fixed (x value, y value) pair per party, used in every context."""

    assignments: tuple[tuple[int, int], ...]

    def context_product(self, context: str) -> int:
        prod = 1
        for party, ch in enumerate(context):
            x, y = self.assignments[party]
            prod *= x if ch == "x" else y
        return prod


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """A shared unit state; each party measures the x or y basis as told."""

    share: np.ndarray

    def __post_init__(self):
        if not is_unit(self.share):
            raise ValueError("share must be a unit vector")


@dataclass(frozen=True)
class PrBoxStrategy:
    """Box wiring: x encodes input 0, y input 1; output 0 means +1, 1 means -1.

    ``flip`` (1-based party index or None) negates that party's announced
    value, which swaps the pair of games the wiring wins.
    """

    flip: int | None = None

    def __post_init__(self):
        if self.flip is not None:
            flip = _as_int(self.flip)
            if flip not in (1, 2):
                raise ValueError("flip must be None, 1 or 2")
            object.__setattr__(self, "flip", flip)


@dataclass(frozen=True)
class PlayResult:
    rounds: int
    plays_by_context: tuple[int, ...]
    wins_by_context: tuple[int, ...]

    @property
    def win_rate(self) -> float:
        return sum(self.wins_by_context) / self.rounds if self.rounds else 0.0


@functools.cache
def _classical_table(
    parties: int, contexts: tuple[str, ...]
) -> tuple[tuple[ClassicalStrategy, ...], np.ndarray]:
    """Every noncontextual strategy, in ``itertools.product`` order over the
    parties' (x, y) pairs, with its +-1 product in each context as a read-only
    strategies x contexts matrix.
    """
    pairs = [(x, y) for x in (1, -1) for y in (1, -1)]
    strategies = tuple(ClassicalStrategy(combo) for combo in itertools.product(pairs, repeat=parties))
    products = np.array([[s.context_product(c) for c in contexts] for s in strategies], dtype=np.int64)
    products.setflags(write=False)
    return strategies, products


def classical_value(game: GameSpec) -> float:
    """Best expected win rate over all noncontextual strategies."""
    return best_classical_strategies(game)[0]


def best_classical_strategies(game: GameSpec) -> tuple[float, list[ClassicalStrategy]]:
    """The optimum and every strategy attaining it (ties matter here), with
    the contexts drawn uniformly."""
    if game.parties not in (2, 3):
        raise ValueError("only 2- and 3-party games are supported")
    strategies, products = _classical_table(game.parties, game.contexts)
    won = (products == np.array(game.targets)).sum(axis=1)
    best = int(won.max())
    return best / len(game.contexts), [s for s, w in zip(strategies, won.tolist()) if w == best]


@functools.cache
def _ghz_sign_table() -> quantum.SignTable:
    """The sign table of the standard GHZ basis, derived once and read-only."""
    table = quantum.sign_table(quantum.ghz_basis())
    table.entries.setflags(write=False)
    return table


def quantum_share_for(game: GameSpec) -> int | None:
    """Index of the shared-basis state whose signature equals the targets.

    Exactly the eight target patterns with odd sign product have one; even
    patterns return None.
    """
    if game.contexts != GHZ_CONTEXTS:
        raise ValueError("shared-basis lookup needs the standard three-party contexts")
    table = _ghz_sign_table()
    for i in range(len(table.entries)):
        if table.row(i) == game.targets:
            return i
    return None


def _product_outcomes(game: GameSpec) -> tuple[list[quantum.ProductBasis], np.ndarray]:
    """Each context's ``product_basis``, with the contexts x outcomes win mask:
    an outcome wins when its signs multiply to the context's target."""
    bases = [quantum.product_basis(c) for c in game.contexts]
    win = np.array([[math.prod(signs) == t for signs in b.outcome_signs] for b, t in zip(bases, game.targets)])
    return bases, win


def _born_table(game: GameSpec, strategy: QuantumStrategy) -> tuple[np.ndarray, np.ndarray]:
    """Normalised Born outcome probabilities per context, with the win mask;
    rows follow the contexts and columns the outcomes of ``product_basis``."""
    bases, win = _product_outcomes(game)
    born = np.array([[p for _, p in quantum.born_probabilities(strategy.share, b)] for b in bases])
    return born / born.sum(axis=1, keepdims=True), win


def exact_win_probabilities(game: GameSpec, strategy: QuantumStrategy) -> tuple[float, ...]:
    """Born weight on the winning outcomes, context by context."""
    probs, win = _born_table(game, strategy)
    return tuple(float(p) for p in (probs * win).sum(1))


def _compile(probs: np.ndarray, win: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a session's law into (cell weights, tally matrix), both read-only.

    ``probs[c, k]`` weighs context c together with outcome k and ``win[c, k]``
    says whether that outcome wins. Row ``c * outcomes + k`` of the tally
    matrix has a 1 in column c (a play of context c) and, when the cell wins,
    in column ``contexts + c``.
    """
    p = (probs / probs.sum()).ravel()
    contexts, outcomes = probs.shape
    plays = np.repeat(np.eye(contexts, dtype=np.int64), outcomes, axis=0)
    tally = np.hstack([plays, plays * win.reshape(-1, 1)])
    p.setflags(write=False)
    tally.setflags(write=False)
    return p, tally


def _sample(table: tuple[np.ndarray, np.ndarray], rounds: int, rng: np.random.Generator) -> PlayResult:
    """Tally ``rounds`` independent rounds of a compiled table in one draw.

    The cell counts of independent rounds follow Multinomial(rounds, p)
    exactly, so time and memory do not depend on ``rounds``.
    """
    count = _as_int(rounds)
    if count is None:
        raise TypeError(f"rounds must be an integer, got {rounds!r}")
    if not 1 <= count <= 2**63 - 1:  # numpy draws the counts as int64
        raise ValueError(f"rounds must be between 1 and 2**63 - 1, got {count}")
    p, tally = table
    totals = (rng.multinomial(count, p) @ tally).tolist()
    contexts = len(totals) // 2
    return PlayResult(count, tuple(totals[:contexts]), tuple(totals[contexts:]))


def play_quantum(
    game: GameSpec, strategy: QuantumStrategy, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Seeded rounds: draw a uniform context, measure the share, score the product."""
    return _sample(_compile(*_born_table(game, strategy)), rounds, rng)


@functools.cache
def _support_triples(context: str) -> tuple[tuple[int, int, int], ...]:
    """Shared-basis state 1's support in ``context``: the even-parity triples in
    ``itertools.product`` order, each times the state's eigenvalue there."""
    e = int(_ghz_sign_table().entries[0, GHZ_CONTEXTS.index(context)])
    even = (t for t in itertools.product((1, -1), repeat=3) if math.prod(t) == 1)
    return tuple(tuple(e * s for s in t) for t in even)


def urn_answers(pl: PartitionLogic, context: str, balls) -> list[tuple[int, int, int]]:
    """Answer triple for each drawn ball once the ward discloses the context.

    The logic's first four contexts are the game contexts in the order of
    ``ISOLATED_CONTEXT_LABELS``. The ball's block within the disclosed context
    determines the answer: blocks are ordered by largest element and matched
    to the context's support triples, so e.g. the block {3,4} of the first
    context answers (+1, -1, -1). Context-dependent by construction: no fixed per-observable
    assignment reproduces it.
    """
    if context not in ISOLATED_CONTEXT_LABELS:
        raise ValueError(f"context {context!r} is not one of the four game contexts")
    ordered = sorted(pl.contexts[ISOLATED_CONTEXT_LABELS.index(context)], key=max)
    triples = _support_triples(context)
    if len(ordered) != len(triples):
        raise ValueError(f"context {context!r} has {len(ordered)} blocks, not {len(triples)}")
    answers = []
    for ball in balls:
        position = next((i for i, block in enumerate(ordered) if ball in block), None)
        if position is None:
            raise ValueError(f"ball {ball} is not covered by context {context!r}")
        answers.append(triples[position])
    return answers


def play_contextual(
    game: GameSpec, pl: PartitionLogic, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Urn play with disclosed contexts: uniform ball, uniform context."""
    if game.contexts != GHZ_CONTEXTS:
        raise ValueError("urn play needs the standard three-party contexts")
    balls = range(1, pl.state_count + 1)
    win = [
        [math.prod(answer) == t for answer in urn_answers(pl, c, balls)]
        for c, t in zip(game.contexts, game.targets)
    ]
    return _sample(_compile(np.ones((len(game.contexts), pl.state_count)), np.array(win)), rounds, rng)


def losing_outcome_matrix(game: GameSpec) -> np.ndarray:
    """The conjugated ``product_basis`` vectors of every losing outcome.

    Context by context in game order, the outcomes whose signs do not multiply
    to the target: 8x4 for two parties, 16x8 for three. A share wins every
    round exactly when it is orthogonal to each of them, so a perfect share is
    a nonzero kernel element.
    """
    bases, win = _product_outcomes(game)
    return np.vstack([b.vectors[~w].conj() for b, w in zip(bases, win)])


def stranger_constraint_matrix() -> np.ndarray:
    """The losing outcomes of the two-party game ``+++-``, the single negative
    target of the stranger-than-quantum argument."""
    return losing_outcome_matrix(GameSpec.two_party("+++-"))


def stranger_quantum_infeasible(game: GameSpec) -> tuple[bool, int]:
    """(infeasible, rank): full column rank means only the zero share wins
    every round of ``game``."""
    matrix = losing_outcome_matrix(game)
    r = rank(matrix)
    return r == matrix.shape[1], r


@functools.cache
def _box_table(targets: Targets, flip: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Compiled law of one box wiring; at most 16 targets x 3 flips are cached.

    Each context's outcomes are the output pairs (o1, o2); the box puts equal
    weight on the pairs with o1 XOR o2 = i1 AND i2, and a flip negates the
    announced product.
    """
    sign = 1 if flip is None else -1
    pairs = list(itertools.product((0, 1), repeat=2))
    inputs = [["xy".index(ch) for ch in c] for c in TWO_PARTY_CONTEXTS]
    probs = [[float(o1 ^ o2 == i1 & i2) for o1, o2 in pairs] for i1, i2 in inputs]
    win = [[sign * (1 - 2 * o1) * (1 - 2 * o2) == t for o1, o2 in pairs] for t in targets]
    return _compile(np.array(probs), np.array(win))


def play_prbox(
    game: GameSpec, strategy: PrBoxStrategy, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Two-party play through the box wiring, scored against the targets."""
    if game.contexts != TWO_PARTY_CONTEXTS:
        raise ValueError("box play needs the two-party contexts (xx, xy, yx, yy)")
    return _sample(_box_table(game.targets, strategy.flip), rounds, rng)


def to_report(game: GameSpec, strategy: dict, result: PlayResult, seed: int) -> dict:
    """JSON-ready record of one play session."""
    return {
        "game": format_targets(game.targets),
        "contexts": list(game.contexts),
        "strategy": strategy,
        "rounds": result.rounds,
        "plays_by_context": list(result.plays_by_context),
        "wins_by_context": list(result.wins_by_context),
        "win_rate": result.win_rate,
        "seed": seed,
    }
