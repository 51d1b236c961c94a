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
from dataclasses import dataclass, replace

TwoValuedState = tuple[int, ...]

# The eight published block partitions of {1..8}: the four game contexts
# restricted to the shared state's support (rows of a 4x4 block grid) followed
# by the four diagonals of that grid.
TIGHTENED_PARTITIONS = (
    ((1, 2), (3, 4), (5, 6), (7, 8)),
    ((5, 7), (6, 8), (1, 3), (2, 4)),
    ((3, 8), (2, 5), (4, 7), (1, 6)),
    ((4, 6), (1, 7), (2, 8), (3, 5)),
    ((1, 2), (6, 8), (4, 7), (3, 5)),
    ((7, 8), (1, 3), (2, 5), (4, 6)),
    ((5, 6), (2, 4), (3, 8), (1, 7)),
    ((3, 4), (5, 7), (1, 6), (2, 8)),
)

# Classical contexts of the three-party games, in enumeration order.
ISOLATED_CONTEXT_LABELS = ("xxx", "xyy", "yxy", "yyx")


@dataclass(frozen=True)
class Hypergraph:
    """Atoms plus contexts; contexts hold indices into the atom list."""

    atoms: tuple[str, ...]
    contexts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "contexts", tuple(tuple(c) for c in self.contexts))
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atom names must be unique")
        seen = set()
        for ctx in self.contexts:
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"context {ctx} lists an atom twice")
            for a in ctx:
                if not 0 <= a < len(self.atoms):
                    raise ValueError(f"atom index {a} out of range")
            seen.update(ctx)
        if seen != set(range(len(self.atoms))):
            missing = sorted(set(range(len(self.atoms))) - seen)
            raise ValueError(f"atoms {missing} appear in no context")


@dataclass(frozen=True)
class PartitionLogic:
    """Contexts as partitions of the state indices {1..state_count}."""

    state_count: int
    contexts: tuple[tuple[frozenset[int], ...], ...]
    atom_labels: dict[str, frozenset[int]]


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


def _block_name(block: tuple[int, int]) -> str:
    return "".join(str(b) for b in sorted(block))


def tightened_ghz_logic() -> Hypergraph:
    """The tightly intertwined 12-context logic on the 16 two-element blocks.

    The eight published partitions come first; laying their first four out as
    the rows of a 4x4 grid, partitions five to eight are that grid's
    diagonals, and the remaining four contexts are its columns (the
    "vertical" contexts, fully determined by the grid). Every atom then sits
    in exactly three contexts and the logic admits exactly eight two-valued
    states.
    """
    atoms: list[str] = []
    for part in TIGHTENED_PARTITIONS:
        for block in part:
            name = _block_name(block)
            if name not in atoms:
                atoms.append(name)
    index = {name: i for i, name in enumerate(atoms)}
    contexts = [tuple(index[_block_name(b)] for b in part) for part in TIGHTENED_PARTITIONS]
    for j in range(4):
        contexts.append(tuple(index[_block_name(TIGHTENED_PARTITIONS[i][j])] for i in range(4)))
    return Hypergraph(atoms=tuple(atoms), contexts=tuple(contexts))


def tightened_partition_logic() -> PartitionLogic:
    """The published partitions: the tightened logic's first eight contexts."""
    h = tightened_ghz_logic()
    pl = partition_logic(h, enumerate_states(h))
    return replace(pl, contexts=pl.contexts[:8])


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


def is_separating(h: Hypergraph, states: list[TwoValuedState]) -> bool:
    """True iff every pair of distinct atoms gets different values somewhere."""
    if not states:
        raise ValueError("need at least one state")
    columns = list(zip(*states))
    return len(set(columns)) == len(columns)


def partition_logic(h: Hypergraph, states: list[TwoValuedState]) -> PartitionLogic:
    """Label each atom by the balls of the states selecting it.

    Ball k is the k-th state in descending order of the value vector, the
    numbering of the published tightened partitions. Requires a separating
    state set; each context then becomes a partition of {1..len(states)}.
    """
    if not states:
        raise ValueError("need at least one state")
    states = sorted(states, reverse=True)
    labels = [frozenset(k + 1 for k, s in enumerate(states) if s[i] == 1) for i in range(len(h.atoms))]
    if len(set(labels)) != len(labels):
        raise ValueError("state set is not separating: atom labels collide")
    balls = list(range(1, len(states) + 1))
    contexts = tuple(tuple(labels[a] for a in ctx) for ctx in h.contexts)
    for ctx, blocks in zip(h.contexts, contexts):
        if sorted(ball for b in blocks for ball in b) != balls:
            raise ValueError(f"context {ctx} does not partition the state indices")
    return PartitionLogic(
        state_count=len(states),
        contexts=contexts,
        atom_labels={h.atoms[i]: labels[i] for i in range(len(h.atoms))},
    )


def to_json(h: Hypergraph) -> str:
    return json.dumps(
        {"atoms": list(h.atoms), "contexts": [list(c) for c in h.contexts]},
        sort_keys=True,
        separators=(",", ":"),
    )


def _is_index(value) -> bool:
    """A JSON integer; bool is an int subclass in Python but not an index."""
    return isinstance(value, int) and not isinstance(value, bool)


def from_json(text: str) -> Hypergraph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid hypergraph JSON: {exc}") from exc
    if not isinstance(data, dict) or "atoms" not in data or "contexts" not in data:
        raise ValueError('hypergraph JSON must be {"atoms": [...], "contexts": [[...], ...]}')
    atoms = data["atoms"]
    contexts = data["contexts"]
    if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
        raise ValueError("atoms must be a list of strings")
    if not isinstance(contexts, list) or not all(
        isinstance(c, list) and all(_is_index(i) for i in c) for c in contexts
    ):
        raise ValueError("contexts must be lists of atom indices")
    return Hypergraph(atoms=tuple(atoms), contexts=tuple(tuple(c) for c in contexts))


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
        chain = " -- ".join(f"n{a}" for a in ctx)
        lines.append(f"    {chain};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"

