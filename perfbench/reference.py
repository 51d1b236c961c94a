"""Facts the benchmark checks results against, computed without the package.

Tables here are the paper's published values; the solvers are independent
re-implementations (bitset exact cover, brute-force classical search), so a
defect in the package cannot make its own check pass.
"""

from __future__ import annotations

import itertools
import math

THREE_PARTY_CONTEXTS = ("yyx", "yxy", "xyy", "xxx")
TWO_PARTY_CONTEXTS = ("xx", "xy", "yx", "yy")

# Eigenvalue signature of each shared-basis state, rows in basis order,
# columns in THREE_PARTY_CONTEXTS order (the paper's sign table).
SIGN_ROWS = (
    (-1, -1, -1, +1),
    (+1, +1, +1, -1),
    (-1, +1, +1, +1),
    (+1, -1, -1, -1),
    (+1, -1, +1, +1),
    (-1, +1, -1, -1),
    (+1, +1, -1, +1),
    (-1, -1, +1, -1),
)

# The urn over the tightened logic answers with the support of basis state 1,
# so every context's answer has that state's sign: it wins exactly "---+".
URN_SIGNS = SIGN_ROWS[0]

# Unflipped box: o1 XOR o2 = i1 AND i2, so the announced product is -1 only
# when both inputs are y.
BOX_SIGNS = (+1, +1, +1, -1)

ALL_TARGETS = tuple(itertools.product((1, -1), repeat=4))
ODD_TARGETS = tuple(t for t in ALL_TARGETS if math.prod(t) == -1)


def sign_string(targets) -> str:
    return "".join("+" if t > 0 else "-" for t in targets)


def deterministic_wins(plays, wins, targets, signs) -> str | None:
    """A strategy whose answer in context c always has sign ``signs[c]``."""
    for c, (n, w, t, s) in enumerate(zip(plays, wins, targets, signs)):
        expected = n if t == s else 0
        if w != expected:
            return f"context {c}: {w} wins of {n} plays, expected {expected}"
    return None


# Two-sided binomial bound in standard deviations; at 6 sigma a correct
# sampler fails a single context check with probability about 2e-9.
Z_BOUND = 6.0


def binomial_wins(plays, wins, probs) -> str | None:
    """Sampled wins per context agree with exact win probabilities."""
    for c, (n, w, p) in enumerate(zip(plays, wins, probs)):
        slack = Z_BOUND * math.sqrt(n * p * (1.0 - p)) + 1e-9
        if abs(w - p * n) > slack:
            return f"context {c}: {w} wins of {n} plays, exact p={p:.6f} allows +-{slack:.1f}"
    return None


def share_win_probabilities(amplitudes, targets) -> tuple[float, ...]:
    """Born win probability per context for a state given on the shared basis.

    Each basis state is an eigenstate of every context operator, so the weight
    on the winning eigenspace is the squared amplitude of the matching rows.
    """
    weights = [abs(a) ** 2 for a in amplitudes]
    return tuple(
        sum(w for w, row in zip(weights, SIGN_ROWS) if row[c] == t) for c, t in enumerate(targets)
    )


def classical_optimum(contexts, targets) -> tuple[float, set]:
    """Brute-force best win rate and every (x, y)-per-party strategy reaching it."""
    parties = len(contexts[0])
    best, winners = -1.0, set()
    for assignment in itertools.product(itertools.product((1, -1), repeat=2), repeat=parties):
        won = sum(
            math.prod(assignment[p][0 if ch == "x" else 1] for p, ch in enumerate(ctx)) == t
            for ctx, t in zip(contexts, targets)
        )
        value = won / len(contexts)
        if value > best:
            best, winners = value, {assignment}
        elif value == best:
            winners.add(assignment)
    return best, winners


def exact_cover_states(atom_count: int, contexts) -> list[tuple[int, ...]]:
    """Every 0/1 valuation with exactly one 1 per context, by Algorithm X.

    Contexts are the items; choosing an atom covers all its contexts and bans
    every atom they hold. Iterative with bitsets, branching on the uncovered
    context with the fewest candidates.
    """
    atom_contexts = [[] for _ in range(atom_count)]
    for ci, ctx in enumerate(contexts):
        for a in ctx:
            atom_contexts[a].append(ci)
    context_atoms = [sum(1 << a for a in ctx) for ctx in contexts]
    full = (1 << len(contexts)) - 1
    found = []
    stack = [(0, 0, 0)]  # covered contexts, banned atoms, chosen atoms
    while stack:
        covered, banned, chosen = stack.pop()
        if covered == full:
            found.append(tuple((chosen >> a) & 1 for a in range(atom_count)))
            continue
        branch = None
        for ci, ctx in enumerate(contexts):
            if not (covered >> ci) & 1:
                candidates = [a for a in ctx if not (banned >> a) & 1]
                if branch is None or len(candidates) < len(branch):
                    branch = candidates
                if not candidates:
                    break
        for a in branch:
            cov, ban = covered, banned
            for ci in atom_contexts[a]:
                cov |= 1 << ci
                ban |= context_atoms[ci]
            stack.append((cov, ban, chosen | (1 << a)))
    found.sort()
    return found


def entropy_line() -> str:
    """The `entropy` report: the triple product over {0,1} is 1 with p = 1/8."""
    p = 1 / 8
    h01 = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    return f"H{{0,1}}^3 = {h01:.4f}, H{{-1,+1}}^3 = {1.0:.4f}"
