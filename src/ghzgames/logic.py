"""Orthogonality hypergraphs, two-valued states and partition logics.

A hypergraph is a list of atoms plus contexts (maximal sets of mutually
exclusive atoms). A two-valued state puts a single 1 in every context;
enumerating all of them and labelling each atom by the states that select it
turns the hypergraph into a partition logic, the classical (generalized-urn)
face of the structure.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, replace

TwoValuedState = tuple[int, ...]

# Classical contexts of the three-party games, in enumeration order.
ISOLATED_CONTEXT_LABELS = ("xxx", "xyy", "yxy", "yyx")


def _as_int(value) -> int | None:
    """``value`` as a plain int; None for bools, floats and other non-integers."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True)
class Hypergraph:
    """Atoms plus contexts; contexts hold indices into the atom list."""

    atoms: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for i, a in enumerate(self.atoms):
            if not isinstance(a, str):
                raise ValueError(f"atom {i} is {a!r}, not a string")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom names must be unique")
        try:
            given = tuple(map(tuple, self.contexts))
        except TypeError as exc:
            raise ValueError(f"contexts must be iterables of atom indices: {exc}") from None
        contexts = tuple(tuple(map(_as_int, c)) for c in given)
        for ci, ctx in enumerate(contexts):
            if None in ctx:
                raise ValueError(f"context {ci} holds index {given[ci][ctx.index(None)]!r}, which is not an integer")
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"context {ctx} lists an atom twice")
        held, everyone = set().union(*contexts), set(range(len(self.atoms)))
        for a in sorted(held - everyone):
            raise ValueError(f"atom index {a} out of range")
        if held != everyone:
            raise ValueError(f"atoms {sorted(everyone - held)} appear in no context")
        object.__setattr__(self, "contexts", contexts)


@dataclass(frozen=True)
class PartitionLogic:
    """A hypergraph plus one label per atom, a set of balls 1..state_count: no
    two labels are equal, and each context's labels, its blocks, are disjoint
    and hold every ball. Labels are stored as frozensets; contexts are derived."""

    hypergraph: Hypergraph
    labels: tuple[frozenset[int], ...]
    state_count: int

    def __post_init__(self):
        if not isinstance(self.hypergraph, Hypergraph):
            raise ValueError(f"a partition logic needs a Hypergraph, got {type(self.hypergraph).__name__}")
        n = _as_int(self.state_count)
        if n is None or n < 1:
            raise ValueError(f"a partition logic needs a positive integer ball count, got {self.state_count!r}")
        try:
            labels = tuple(map(frozenset, self.labels))
        except TypeError as exc:
            raise ValueError(f"labels must be iterables of balls: {exc}") from None
        atoms, balls = self.hypergraph.atoms, frozenset(range(1, n + 1))
        if len(labels) != len(atoms):
            raise ValueError(f"need one label per atom ({len(atoms)}), got {len(labels)}")
        for atom, label in zip(atoms, labels):
            # a set reads True, 1.0 and np.int64(1) as ball 1, so types are checked first
            strays = label - balls if set(map(type, label)) <= {int} else (b for b in label if type(b) is not int)
            for ball in strays:
                raise ValueError(f"atom {atom!r} holds ball {ball!r}, which is not an integer in 1..{n}")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels collide: two atoms hold the same balls")
        object.__setattr__(self, "state_count", n)
        object.__setattr__(self, "labels", labels)
        for ci, blocks in enumerate(self.contexts):
            held = frozenset().union(*blocks)
            if held != balls:
                raise ValueError(f"context {ci}: no block holds ball {min(balls - held)}")
            if sum(map(len, blocks)) != n:
                raise ValueError(f"context {ci} has overlapping blocks")
        object.__setattr__(self, "_hash", hash((self.hypergraph, labels, n)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def contexts(self) -> tuple[tuple[frozenset[int], ...], ...]:
        return tuple(tuple(self.labels[a] for a in ctx) for ctx in self.hypergraph.contexts)


def ghz_isolated_logic() -> Hypergraph:
    """The four disconnected eight-atom contexts of the classical games.

    Atoms are outcome triples such as ``"x+y-y+"``; each context enumerates
    the eight sign combinations of one measurement type.
    """
    atoms: list[str] = []
    contexts: list[tuple[int, ...]] = []
    for label in ISOLATED_CONTEXT_LABELS:
        ctx = []
        for signs in itertools.product("+-", repeat=3):
            ctx.append(len(atoms))
            atoms.append("".join(ch + s for ch, s in zip(label, signs)))
        contexts.append(tuple(ctx))
    return Hypergraph(atoms=tuple(atoms), contexts=tuple(contexts))


def tightened_ghz_logic() -> Hypergraph:
    """The tightly intertwined 12-context logic on a 4x4 grid of 16 atoms.

    The contexts are the rows, the diagonals {(i, i XOR k)} for k = 0, 3, 2, 1
    and the columns. The grid has exactly eight two-valued states, and each
    atom is named by its partition-logic balls, so the first eight contexts are
    the published partitions of {1..8}. The cyclic broken diagonals would not
    partition the balls: their blocks 34 and 13 share ball 3.
    """
    grid = Hypergraph(
        atoms=tuple(str(a) for a in range(16)),
        contexts=[tuple(4 * i + j for j in range(4)) for i in range(4)]
        + [tuple(4 * i + (i ^ k) for i in range(4)) for k in (0, 3, 2, 1)]
        + [tuple(4 * i + j for i in range(4)) for j in range(4)],
    )
    labels = partition_logic(grid, enumerate_states(grid)).labels
    return replace(grid, atoms=tuple("".join(map(str, sorted(label))) for label in labels))


def tightened_partition_logic() -> PartitionLogic:
    """The published partitions: the whole tightened logic's labels on its first eight contexts."""
    h = tightened_ghz_logic()
    pl = partition_logic(h, enumerate_states(h))
    return replace(pl, hypergraph=replace(h, contexts=h.contexts[:8]))


def enumerate_states(h: Hypergraph) -> list[TwoValuedState]:
    """All 0/1 valuations with exactly one 1 per context.

    Reads the logic as an exact cover: a state is a set of atoms that meets
    every context once. Each atom carries the bitmask of its contexts; the
    search takes the first context not yet covered and tries each of its atoms
    whose contexts are all still uncovered. The stack holds immutable entries,
    so nothing is undone and no input depth hits the recursion limit. Results
    are returned in ascending lexicographic order of the value vector.
    """
    contexts, n = h.contexts, len(h.contexts)
    masks = [0] * len(h.atoms)
    for ci, ctx in enumerate(contexts):
        for a in ctx:
            masks[a] |= 1 << ci
    found: list[TwoValuedState] = []
    # (next context index, covered-contexts mask, chosen atoms as (atom, rest))
    stack: list[tuple[int, int, tuple | None]] = [(0, 0, None)]
    while stack:
        ci, covered, chosen = stack.pop()
        while ci < n and covered >> ci & 1:
            ci += 1
        if ci < n:
            for a in contexts[ci]:
                if not masks[a] & covered:
                    stack.append((ci + 1, covered | masks[a], (a, chosen)))
            continue
        values = [0] * len(masks)
        while chosen:
            a, chosen = chosen
            values[a] = 1
        found.append(tuple(values))
    found.sort()
    return found


def _check_states(h: Hypergraph, states: list[TwoValuedState]) -> None:
    if not states or any(len(s) != len(h.atoms) for s in states):
        raise ValueError(f"need at least one state, each with one value per atom ({len(h.atoms)})")


def is_separating(h: Hypergraph, states: list[TwoValuedState]) -> bool:
    """True iff every pair of distinct atoms gets different values somewhere."""
    _check_states(h, states)
    columns = list(zip(*states))
    return len(set(columns)) == len(columns)


def partition_logic(h: Hypergraph, states: list[TwoValuedState]) -> PartitionLogic:
    """Label each atom by the balls of the states selecting it.

    Ball k is the k-th state in descending order of the value vector, the
    numbering of the published tightened partitions. Requires a separating
    state set of two-valued states: ``PartitionLogic`` rejects colliding
    labels and a context whose blocks overlap or miss a ball.
    """
    _check_states(h, states)
    states = sorted(states, reverse=True)
    labels = [frozenset(k + 1 for k, s in enumerate(states) if s[i] == 1) for i in range(len(h.atoms))]
    return PartitionLogic(hypergraph=h, labels=labels, state_count=len(states))


def to_json(h: Hypergraph) -> str:
    return json.dumps(
        {"atoms": list(h.atoms), "contexts": [list(c) for c in h.contexts]},
        sort_keys=True,
        separators=(",", ":"),
    )


def from_json(text: str) -> Hypergraph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid hypergraph JSON: {exc}") from exc
    atoms, contexts = (data.get("atoms"), data.get("contexts")) if isinstance(data, dict) else (None, None)
    if not isinstance(atoms, list) or not isinstance(contexts, list) or not all(isinstance(c, list) for c in contexts):
        raise ValueError('hypergraph JSON must be {"atoms": [...], "contexts": [[...], ...]}')
    h = Hypergraph(atoms=atoms, contexts=contexts)
    for i, a in enumerate(h.atoms):  # json.loads keeps lone surrogates such as "\ud800"
        try:
            a.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"atom {i} cannot be encoded as UTF-8: {exc.reason}") from None
    return h


_DOT_COLORS = ("red", "blue", "darkgreen", "orange", "purple", "brown", "cadetblue", "magenta")


def to_dot(h: Hypergraph) -> str:
    """Graphviz rendering: one node per atom, one colored path per context."""
    lines = ["graph hypergraph {", "  node [shape=circle];"]
    for i, a in enumerate(h.atoms):
        label = a.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for ci, ctx in enumerate(h.contexts):
        color = _DOT_COLORS[ci % len(_DOT_COLORS)]
        lines.append(f"  subgraph context_{ci} {{")
        lines.append(f'    edge [color={color}];')
        if ctx:  # DOT has no empty statement: an empty context keeps its subgraph only
            chain = " -- ".join(f"n{a}" for a in ctx)
            lines.append(f"    {chain};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

