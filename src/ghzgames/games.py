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
        object.__setattr__(self, "contexts", tuple(self.contexts))
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


@dataclass(frozen=True, eq=False)
class QuantumStrategy:
    """A shared unit state; each party measures the x or y basis as told."""

    share: np.ndarray

    def __post_init__(self):
        if not is_unit(self.share):
            raise ValueError("share must be a unit vector")


@dataclass(frozen=True)
class PrBoxStrategy:
    """The nonlocal box: in each context it answers uniformly among the sign
    pairs that win ``+++-``. ``flip`` (1-based party index or None) negates
    that party's sign; either flip negates the announced product, so both
    flips give the same law.
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
def _classical_table(contexts: tuple[str, ...]) -> tuple[tuple[ClassicalStrategy, ...], np.ndarray]:
    """Every noncontextual strategy, in ``itertools.product`` order over the
    parties' (x, y) pairs, with its +-1 product in each context as a read-only
    strategies x contexts matrix.

    A context's column is one Kronecker fold of the parties' value columns,
    party 1 leftmost, as its operator is built: over the four pairs, x reads
    (1, 1, -1, -1) and y reads (1, -1, 1, -1).
    """
    pairs = tuple(itertools.product((1, -1), repeat=2))
    values = dict(zip("xy", np.array(pairs, dtype=np.int64).T))
    strategies = tuple(ClassicalStrategy(combo) for combo in itertools.product(pairs, repeat=len(contexts[0])))
    products = np.column_stack([functools.reduce(np.kron, [values[ch] for ch in c]) for c in contexts])
    products.setflags(write=False)
    return strategies, products


def best_classical_strategies(game: GameSpec) -> tuple[float, list[ClassicalStrategy]]:
    """The optimum and every strategy attaining it (ties matter here), with
    the contexts drawn uniformly."""
    if game.parties not in (2, 3):
        raise ValueError("only 2- and 3-party games are supported")
    strategies, products = _classical_table(game.contexts)
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


def _win_mask(answers_by_context, targets: Targets) -> np.ndarray:
    """Contexts x answers: True where an answer's signs multiply to its
    context's target. Every play table scores its answers by this rule."""
    return np.array([[math.prod(a) == t for a in answers] for answers, t in zip(answers_by_context, targets)])


def _product_outcomes(game: GameSpec) -> tuple[list[quantum.ProductBasis], np.ndarray]:
    """Each context's ``product_basis``, with the win mask of its outcomes."""
    bases = [quantum.product_basis(c) for c in game.contexts]
    return bases, _win_mask((b.outcome_signs for b in bases), game.targets)


def exact_win_probabilities(game: GameSpec, strategy: QuantumStrategy) -> tuple[float, ...]:
    """Born weight of each context's winning proposition, the +t_c eigenspace of
    O_c: its projector is (I + t_c·O_c)/2, so (1 + t_c·<psi|O_c|psi>/<psi|psi>)/2."""
    share, dim = np.asarray(strategy.share, dtype=complex), 2**game.parties
    if share.shape != (dim,):
        raise ValueError(f"dimension mismatch: share of shape {share.shape}, game of dimension {dim}")
    norm = np.vdot(share, share).real
    expect = [np.vdot(share, quantum.context_operator(c) @ share).real for c in game.contexts]
    return tuple(float((1 + t * e / norm) / 2) for t, e in zip(game.targets, expect))


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
    bases, win = _product_outcomes(game)
    born = np.array([[p for _, p in quantum.born_probabilities(strategy.share, b)] for b in bases])
    return _sample(_compile(born / born.sum(axis=1, keepdims=True), win), rounds, rng)


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
    win = _win_mask((urn_answers(pl, c, balls) for c in game.contexts), game.targets)
    return _sample(_compile(np.ones(win.shape), win), rounds, rng)


def stranger_constraint_matrix() -> np.ndarray:
    """The conjugated ``product_basis`` vectors of the 8 losing outcomes of the
    two-party game ``+++-``, the single negative target of the
    stranger-than-quantum argument; a perfect share would lie in its kernel."""
    bases, win = _product_outcomes(GameSpec.two_party("+++-"))
    return np.vstack([b.vectors[~w].conj() for b, w in zip(bases, win)])


def stranger_quantum_infeasible(game: GameSpec) -> tuple[bool, int]:
    """(infeasible, rank) of |S|·I - W, with W = sum_c t_c·O_c the game operator.

    A share wins every round exactly when it is a +|S| eigenvector of W. The
    losing outcomes of context c span the -t_c eigenspace of O_c, whose
    projector is (I - t_c·O_c)/2, so the rank equals that of their stacked
    product-basis vectors. Full rank means only the zero share wins every round.
    """
    w = sum(t * quantum.context_operator(c) for c, t in zip(game.contexts, game.targets))
    r = rank(len(game.contexts) * np.eye(len(w)) - w)
    return r == len(w), r


@functools.cache
def _box_table(targets: Targets, flip: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Compiled law of one box wiring; at most 16 targets x 3 flips are cached.

    Each context's outcomes are the sign pairs in ``product_basis`` order. The
    box puts equal weight on the pairs that win ``+++-``, and a flip negates
    the announced product, so it negates the win mask.
    """
    pairs = [tuple(itertools.product((1, -1), repeat=2))] * len(TWO_PARTY_CONTEXTS)
    win = _win_mask(pairs, targets)
    return _compile(_win_mask(pairs, (1, 1, 1, -1)), win if flip is None else ~win)


def play_prbox(
    game: GameSpec, strategy: PrBoxStrategy, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Two-party play through the box wiring, scored against the targets."""
    if game.contexts != TWO_PARTY_CONTEXTS:
        raise ValueError("box play needs the two-party contexts (xx, xy, yx, yy)")
    return _sample(_box_table(game.targets, strategy.flip), rounds, rng)

