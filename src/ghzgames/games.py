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
from .linalg import is_unit
from .logic import ISOLATED_CONTEXT_LABELS, PartitionLogic, _as_int
from .quantum import GHZ_CONTEXTS, TWO_PARTY_CONTEXTS

Targets = tuple[int, ...]


def parse_targets(text: str) -> Targets:
    """Turn a sign string like ``"---+"`` into a tuple of +-1 targets."""
    if any(ch not in "+-" for ch in text) or not text:
        raise ValueError(f"targets must be a string over '+'/'-', got {text!r}")
    return tuple(1 if ch == "+" else -1 for ch in text)


@dataclass(frozen=True)
class GameSpec:
    """Measurement contexts, one target sign each, for any party count; all but the certificate take 2 or 3."""

    contexts: tuple[str, ...]
    targets: Targets

    def __post_init__(self):
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.contexts:
            raise ValueError("a game needs at least one context")
        if len(self.contexts) != len(self.targets):
            raise ValueError("need one target per context")
        if len({len(c) for c in self.contexts}) != 1 or not self.contexts[0]:
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
        if np.ndim(self.share) != 1 or not is_unit(self.share):
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
def _classical_table(contexts: tuple[str, ...]) -> tuple[tuple[ClassicalStrategy, ...], tuple[int, ...]]:
    """Every noncontextual strategy, in ``itertools.product`` order over the
    parties' (x, y) pairs, with its parity mask: bit c is set where the
    strategy's product in context c is -1."""
    pairs = tuple(itertools.product((1, -1), repeat=2))
    combos = tuple(itertools.product(pairs, repeat=len(contexts[0])))
    products = ([math.prod(xy["xy".index(ch)] for xy, ch in zip(combo, c)) for c in contexts] for combo in combos)
    masks = tuple(sum(1 << c for c, p in enumerate(row) if p < 0) for row in products)
    return tuple(map(ClassicalStrategy, combos)), masks


def best_classical_strategies(game: GameSpec) -> tuple[float, list[ClassicalStrategy]]:
    """The optimum and every strategy attaining it (ties matter here), with
    the contexts drawn uniformly. A strategy loses the contexts where its
    parity mask differs from the targets'."""
    if game.parties not in (2, 3):
        raise ValueError("only 2- and 3-party games are supported")
    strategies, masks = _classical_table(game.contexts)
    target = sum(1 << c for c, t in enumerate(game.targets) if t < 0)
    lost = [(m ^ target).bit_count() for m in masks]
    fewest, n = min(lost), len(game.contexts)
    return (n - fewest) / n, [s for s, k in zip(strategies, lost) if k == fewest]


@functools.cache
def _ghz_sign_rows() -> tuple[tuple[int, ...], ...]:
    """The sign table of the standard GHZ basis, derived once, one row per state."""
    return quantum.sign_table(quantum.ghz_basis()).entries


def quantum_share_for(game: GameSpec) -> int | None:
    """Index of the shared-basis state whose signature equals the targets.

    Exactly the eight target patterns with odd sign product have one; even
    patterns return None.
    """
    if game.contexts != GHZ_CONTEXTS:
        raise ValueError("shared-basis lookup needs the standard three-party contexts")
    rows = _ghz_sign_rows()
    return rows.index(game.targets) if game.targets in rows else None


def _product_outcomes(game: GameSpec) -> tuple[list[quantum.ProductBasis], np.ndarray]:
    """Each context's ``product_basis``, with the contexts x outcomes win mask:
    True where an outcome's signs multiply to its context's target."""
    bases = [quantum.product_basis(c) for c in game.contexts]
    return bases, np.array([[math.prod(s) == t for s in b.outcome_signs] for b, t in zip(bases, game.targets)])


def exact_win_probabilities(game: GameSpec, strategy: QuantumStrategy) -> tuple[float, ...]:
    """Born weight of each context's winning proposition, the +t_c eigenspace of
    O_c: its projector is (I + t_c·O_c)/2, so (1 + t_c·<psi|O_c|psi>/<psi|psi>)/2."""
    share, dim = np.asarray(strategy.share, dtype=complex), 2**game.parties
    if share.shape != (dim,):
        raise ValueError(f"dimension mismatch: share of shape {share.shape}, game of dimension {dim}")
    norm = np.vdot(share, share).real
    expect = [np.vdot(share, quantum.context_operator(c) @ share).real for c in game.contexts]
    return tuple(float((1 + t * e / norm) / 2) for t, e in zip(game.targets, expect))


def _cells(law: list[float]) -> np.ndarray:
    """Read-only cell weights of a per-context win law, for ``_sample``: a round
    draws a context uniformly and wins it with probability law[c], so the cells
    (c, win), (c, lose) in turn weigh law[c] / |S| and (1 - law[c]) / |S|."""
    n = len(law)
    cells = np.array([p for w in law for p in (w / n, (1 - w) / n)])
    cells.setflags(write=False)
    return cells


def _sample(cells: np.ndarray, rounds: int, rng: np.random.Generator) -> PlayResult:
    """Tally ``rounds`` independent rounds of a law's ``_cells`` in one draw from
    Multinomial(rounds, cells), so cost does not depend on ``rounds``. The law is
    exact up to 2**53 rounds; above, numpy's binomial steps work in doubles, so a
    count is exact only to double precision, and the counts still sum to
    ``rounds``. A cell of weight 0 draws nothing, so every law of 0s and 1s plays
    the same contexts at a seed."""
    count = _as_int(rounds)
    if count is None:
        raise TypeError(f"rounds must be an integer, got {rounds!r}")
    if not 1 <= count <= 2**63 - 1:  # numpy draws the counts as int64
        raise ValueError(f"rounds must be between 1 and 2**63 - 1, got {count}")
    counts = rng.multinomial(count, cells).tolist()
    wins = counts[0::2]
    return PlayResult(count, tuple(map(operator.add, wins, counts[1::2])), tuple(wins))


def play_quantum(
    game: GameSpec, strategy: QuantumStrategy, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Seeded rounds: draw a uniform context, measure the share, score the product."""
    bases, win = _product_outcomes(game)
    born = np.array([[p for _, p in quantum.born_probabilities(strategy.share, b)] for b in bases])
    return _sample(_cells(((born * win).sum(axis=1) / born.sum(axis=1)).tolist()), rounds, rng)


@functools.cache
def _support_triples(context: str) -> tuple[tuple[int, int, int], ...]:
    """Shared-basis state 1's support in ``context``: the even-parity triples in
    ``itertools.product`` order, each times the state's eigenvalue there."""
    e = _ghz_sign_rows()[0][GHZ_CONTEXTS.index(context)]
    even = (t for t in itertools.product((1, -1), repeat=3) if math.prod(t) == 1)
    return tuple(tuple(e * s for s in t) for t in even)


def urn_answers(pl: PartitionLogic, context: str) -> list[tuple[int, int, int]]:
    """Answer triple for each ball, in ball order, once the ward discloses the context.

    The logic's first four contexts are the game contexts in the order of
    ``ISOLATED_CONTEXT_LABELS``. The ball's block within the disclosed context
    determines the answer: blocks are ordered by largest element and matched
    to the context's support triples, so e.g. the block {3,4} of the first
    context answers (+1, -1, -1). Context-dependent by construction: no fixed per-observable
    assignment reproduces it.
    """
    if context not in ISOLATED_CONTEXT_LABELS:
        raise ValueError(f"context {context!r} is not one of the four game contexts")
    if len(pl.hypergraph.contexts) < 4:
        raise ValueError(f"urn play needs a logic with four game contexts, got {len(pl.hypergraph.contexts)}")
    blocks = pl.contexts[ISOLATED_CONTEXT_LABELS.index(context)]
    triples = _support_triples(context)
    if len(blocks) != len(triples) or not all(blocks):
        raise ValueError(f"context {context!r} has {len(blocks)} blocks, not {len(triples)} nonempty ones")
    answer = {ball: t for block, t in zip(sorted(blocks, key=max), triples) for ball in block}
    return [answer[ball] for ball in range(1, pl.state_count + 1)]


def play_contextual(
    game: GameSpec, pl: PartitionLogic, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Urn play with disclosed contexts: uniform ball, uniform context."""
    if game.contexts != GHZ_CONTEXTS:
        raise ValueError("urn play needs the standard three-party contexts")
    return _sample(_urn_cells(game.targets, pl), rounds, rng)


@functools.cache
def _urn_cells(targets: Targets, pl: PartitionLogic) -> np.ndarray:
    """Cells of the urn's law, cached on the logic itself, which is hashable.
    A context's weight is the count of balls whose answer wins it over the
    ball count; a logic the urn cannot play raises on every call, as a cache
    never stores an exception."""
    answers = (urn_answers(pl, c) for c in GHZ_CONTEXTS)
    return _cells([sum(math.prod(a) == t for a in ans) / pl.state_count for ans, t in zip(answers, targets)])


def stranger_constraint_matrix() -> np.ndarray:
    """The conjugated ``product_basis`` vectors of the 8 losing outcomes of the
    two-party game ``+++-``, the single negative target of the
    stranger-than-quantum argument; a perfect share would lie in its kernel."""
    bases, win = _product_outcomes(GameSpec.two_party("+++-"))
    return np.vstack([b.vectors[~w].conj() for b, w in zip(bases, win)])


def stranger_quantum_infeasible(game: GameSpec) -> tuple[bool, int]:
    """(infeasible, rank) of |S|·I - W, with W = sum_c t_c·O_c the game operator.

    A perfect share is a common +1 eigenvector of the t_c·O_c. With y the mask of the parties measuring y,
    t_c·O_c maps |b> to i^p·|~b>, p = #y + 1 - t_c + 2·|b & y| (mod 4), so the plane of |b> and |~b> holds
    one such share if every context gives b the same p, else none: the rank is 2^n less half the agreeing b.
    """
    ys = [(int(c.translate(str.maketrans("xy", "01")), 2), t) for c, t in zip(game.contexts, game.targets)]
    dim = 2**game.parties
    agree = sum(len({(y.bit_count() + 1 - t + 2 * (b & y).bit_count()) % 4 for y, t in ys}) == 1 for b in range(dim))
    return agree == 0, dim - agree // 2


@functools.cache
def _box_cells(targets: Targets, flip: int | None) -> np.ndarray:
    """Cells of one box wiring's law, cached for each of the 16 x 3 wirings.
    The box answers among the sign pairs whose product is the context's
    ``+++-`` target, and a flip negates that product: a context is won exactly
    when the announced product is its target."""
    sign = 1 if flip is None else -1
    return _cells([float(sign * s == t) for s, t in zip((1, 1, 1, -1), targets)])


def play_prbox(
    game: GameSpec, strategy: PrBoxStrategy, rounds: int, rng: np.random.Generator
) -> PlayResult:
    """Two-party play through the box wiring, scored against the targets."""
    if game.contexts != TWO_PARTY_CONTEXTS:
        raise ValueError("box play needs the two-party contexts (xx, xy, yx, yy)")
    return _sample(_box_cells(game.targets, strategy.flip), rounds, rng)

