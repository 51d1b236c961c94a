"""GHZ operators, shared eigenbases, product bases, expansions and entropies.

Party 1 is the leftmost (most significant) tensor factor throughout, so the
three-party context operators come out as the familiar 8x8 antidiagonal
matrices. Both bases are rows of 0, +-1 and +-i divided once by their norm,
and product rows lead with a real positive entry, so phases stay comparable.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .linalg import is_unit

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# The unnormalised s = +1 and -1 eigenvectors e0 + s * sigma e0 of sigma_x and
# sigma_y, keyed by (letter, s). sigma e0 is read as sigma's first column: a
# matrix product here would load BLAS in every process that imports this.
_E0 = np.eye(2, dtype=complex)[0]
_LOCAL_EIGENVECTORS = {
    (ch, s): _E0 + s * sigma[:, 0] for ch, sigma in (("x", SIGMA_X), ("y", SIGMA_Y)) for s in (1, -1)
}

# Three-party measurement contexts in canonical column order, and the
# two-party contexts of the two-prisoner variant.
GHZ_CONTEXTS = ("yyx", "yxy", "xyy", "xxx")
TWO_PARTY_CONTEXTS = ("xx", "xy", "yx", "yy")


def _validate_context(label: str) -> str:
    if len(label) not in (2, 3) or any(ch not in "xy" for ch in label):
        raise ValueError(f"invalid measurement context {label!r}: need 2 or 3 letters, each x or y")
    return label


def context_operator(label: str) -> np.ndarray:
    """Tensor product of sigma_x/sigma_y factors, one per letter of ``label``."""
    return functools.reduce(np.kron, [SIGMA_X if ch == "x" else SIGMA_Y for ch in _validate_context(label)])


def lagrange_projectors(op) -> tuple[np.ndarray, np.ndarray]:
    """Spectral projectors ``(I + op)/2`` and ``(I - op)/2`` of an involution."""
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1] or not np.array_equal(op @ op, np.eye(len(op))):
        raise ValueError("operator is not involutory")
    eye = np.eye(len(op))
    return (eye + op) / 2, (eye - op) / 2


def _swap(variant: str, context: str) -> str:
    """The context that ``context`` names in a ``variant`` basis: permuted swaps x and y."""
    return context.translate(str.maketrans("xy", "yx")) if variant == "permuted" else context


@dataclass(frozen=True, eq=False)
class GhzBasis:
    """Eight joint eigenvectors of the four commuting context operators.

    ``vectors[i]`` is the i-th basis state. With T the basis's own xxx-type
    operator (xxx, or yyy for the ``permuted`` variant, which swaps the letters
    of every context) and L = 1 (or i when permuted), row 2k is
    (L e_k + T L e_k)/sqrt(2) and row 2k + 1 is (L e_k - T L e_k)/sqrt(2), so
    rows 2k and 2k + 1 live on the components k and 7 - k. In ``GHZ_CONTEXTS``
    order the even rows read ---+, -+++, +-++ and ++-+ and each odd row flips
    every sign of the row before, so every row multiplies to -1, which no
    noncontextual assignment can do. The permuted variant has the same signs
    row by row under its letter-swapped operators.
    """

    variant: str
    vectors: np.ndarray

    def context_operators(self) -> tuple[np.ndarray, ...]:
        """The four operators this basis diagonalizes, in column order."""
        return tuple(context_operator(_swap(self.variant, c)) for c in GHZ_CONTEXTS)


def ghz_basis(variant: str = "standard") -> GhzBasis:
    if variant not in ("standard", "permuted"):
        raise ValueError(f"unknown basis variant {variant!r}")
    t = context_operator(_swap(variant, "xxx"))
    rows = []
    for e in np.eye(4, 8, dtype=complex) * (1j if variant == "permuted" else 1):
        rows += [e + t @ e, e - t @ e]
    return GhzBasis(variant=variant, vectors=np.array(rows) / 2**0.5)


@dataclass(frozen=True, eq=False)
class SignTable:
    """8x4 eigenvalue signs as int rows; rows follow the basis, columns GHZ_CONTEXTS."""

    entries: tuple[tuple[int, ...], ...]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]


def sign_table(basis: GhzBasis) -> SignTable:
    """Eigenvalue sign of every basis state under every context operator.

    The sign is the s in (1, -1) with ``op @ v == s * v`` entry for entry. The
    operators' entries are 0, +-1 or +-i, so this equation holds exactly.
    """
    ops = np.array(basis.context_operators())
    entries = []
    for i, v in enumerate(basis.vectors):
        row = tuple(1 if np.array_equal(w, v) else -1 if np.array_equal(w, -v) else 0 for w in ops @ v)
        if 0 in row:
            raise ValueError(f"{basis.variant} basis: vector {i} is no eigenvector of {GHZ_CONTEXTS[row.index(0)]}")
        entries.append(row)
    return SignTable(entries=tuple(entries))


@dataclass(frozen=True, eq=False)
class ProductBasis:
    """All tensor products of single-particle eigenvectors for one context."""

    outcome_signs: tuple[tuple[int, ...], ...]
    vectors: np.ndarray = field(repr=False)


def product_basis(context: str) -> ProductBasis:
    signs = tuple(itertools.product((1, -1), repeat=len(_validate_context(context))))
    rows = [functools.reduce(np.kron, [_LOCAL_EIGENVECTORS[p] for p in zip(context, outcome)]) for outcome in signs]
    return ProductBasis(outcome_signs=signs, vectors=np.array(rows) / 2 ** (len(context) / 2))


def expand(state, basis: ProductBasis) -> list[tuple[tuple[int, ...], complex]]:
    """Coefficients of ``state`` on the basis vectors, paired with outcomes."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (basis.vectors.shape[1],):
        raise ValueError(f"dimension mismatch: state {state.shape} vs basis dim {basis.vectors.shape[1]}")
    coeffs = basis.vectors.conj() @ state
    return [(signs, complex(c)) for signs, c in zip(basis.outcome_signs, coeffs)]


def born_probabilities(state, basis: ProductBasis) -> list[tuple[tuple[int, ...], float]]:
    """Outcome probabilities ``|<outcome|state>|^2``; requires a unit state."""
    state = np.asarray(state, dtype=complex)
    if not is_unit(state):
        raise ValueError("state is not normalized")
    return [(signs, abs(c) ** 2) for signs, c in expand(state, basis)]


def ghz_superposition(alphas) -> np.ndarray:
    """The state ``sum(alphas[i] * ghz_basis().vectors[i])``, summed entrywise:
    ``alphas @ vectors`` may fuse multiply-adds and leave about 1e-17 where
    equal amplitudes cancel. Unit amplitude vectors give unit states.
    """
    a = np.asarray(alphas, dtype=complex)
    if a.shape != (8,):
        raise ValueError("need exactly eight amplitudes")
    return (a[:, None] * ghz_basis().vectors).sum(axis=0)


def outcome_entropy(values) -> float:
    """Shannon entropy (bits) of the product of three independent uniform draws.

    For outcomes valued in {0, 1} the triple product is 1 with probability 1/8,
    giving roughly 0.54 bits; for {-1, +1} it is a fair coin, giving exactly 1.
    """
    values = tuple(values)
    if not values:
        raise ValueError("value set must be nonempty")
    counts = Counter(a * b * c for a, b, c in itertools.product(values, repeat=3))
    total = len(values) ** 3
    return -sum((n / total) * math.log2(n / total) for n in counts.values())
