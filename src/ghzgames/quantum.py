"""GHZ operators, shared eigenbases, product bases, expansions and entropies.

Party 1 is the leftmost (most significant) tensor factor throughout, so the
three-party context operators come out as the familiar 8x8 antidiagonal
matrices. Product-basis vectors are stored with their first nonzero component
real and positive, which keeps expansion coefficients phase-comparable.
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

_SQRT2 = math.sqrt(2.0)

X_PLUS = np.array([1, 1], dtype=complex) / _SQRT2
X_MINUS = np.array([1, -1], dtype=complex) / _SQRT2
Y_PLUS = np.array([1, 1j], dtype=complex) / _SQRT2
Y_MINUS = np.array([1, -1j], dtype=complex) / _SQRT2

_LOCAL_EIGENVECTORS = {
    ("x", 1): X_PLUS,
    ("x", -1): X_MINUS,
    ("y", 1): Y_PLUS,
    ("y", -1): Y_MINUS,
}

# Three-party measurement contexts in canonical column order, and the
# two-party contexts of the two-prisoner variant.
GHZ_CONTEXTS = ("yyx", "yxy", "xyy", "xxx")
TWO_PARTY_CONTEXTS = ("xx", "xy", "yx", "yy")


def _validate_context(label: str) -> str:
    if len(label) not in (2, 3) or any(ch not in "xy" for ch in label):
        raise ValueError(f"invalid measurement context {label!r}")
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


@dataclass(frozen=True, eq=False)
class GhzBasis:
    """Eight joint eigenvectors of the four commuting context operators.

    ``vectors[i]`` is the i-th basis state. Rows 2k and 2k + 1 live on the
    components k and 7 - k; row 2k has eigenvalue +1 under xxx and row 2k + 1
    has every sign of row 2k flipped. In ``GHZ_CONTEXTS`` order the even rows
    read ---+, -+++, +-++ and ++-+, so every row multiplies to -1, which no
    noncontextual assignment can do. The ``permuted`` variant replaces the
    leading 1 of each vector by the imaginary unit; it diagonalizes the
    letter-swapped operators instead, with the same signs row by row.
    """

    variant: str
    vectors: np.ndarray

    def context_operators(self) -> tuple[np.ndarray, ...]:
        """The four operators this basis diagonalizes, in column order."""
        swap = str.maketrans("xy", "yx") if self.variant == "permuted" else {}
        return tuple(context_operator(c.translate(swap)) for c in GHZ_CONTEXTS)


def ghz_basis(variant: str = "standard") -> GhzBasis:
    if variant not in ("standard", "permuted"):
        raise ValueError(f"unknown basis variant {variant!r}")
    # Each state lives in one of the pair subspaces (0,7), (1,6), (2,5), (3,4).
    # Rotating the leading component to i exchanges the +/- partners of the
    # middle two pairs, so the permuted enumeration flips those signs to keep
    # row i on the signature of standard row i.
    if variant == "permuted":
        lead, pair_signs = 1j, ((1, -1), (-1, 1), (-1, 1), (1, -1))
    else:
        lead, pair_signs = 1.0, ((1, -1),) * 4
    rows = []
    for (a, b), signs in zip(((0, 7), (1, 6), (2, 5), (3, 4)), pair_signs):
        for s in signs:
            v = np.zeros(8, dtype=complex)
            v[a] = lead / _SQRT2
            v[b] = s / _SQRT2
            rows.append(v)
    return GhzBasis(variant=variant, vectors=np.array(rows))


@dataclass(frozen=True, eq=False)
class SignTable:
    """8x4 array of eigenvalue signs; rows follow the basis, columns GHZ_CONTEXTS."""

    entries: np.ndarray

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(int(s) for s in self.entries[i])


def sign_table(basis: GhzBasis) -> SignTable:
    """Eigenvalue sign of every basis state under every context operator.

    The sign is the s in (1, -1) with ``op @ v == s * v`` entry for entry. The
    operators' entries are 0, +-1 or +-i, so this equation holds exactly.
    """
    ops = basis.context_operators()
    entries = np.zeros((len(basis.vectors), len(ops)), dtype=int)
    for i, v in enumerate(basis.vectors):
        for j, op in enumerate(ops):
            w = op @ v
            entries[i, j] = 1 if np.array_equal(w, v) else -1 if np.array_equal(w, -v) else 0
            if not entries[i, j]:
                raise ValueError(f"vector {i} is not an eigenvector of context {j}")
    return SignTable(entries=entries)


@dataclass(frozen=True, eq=False)
class ProductBasis:
    """All tensor products of single-particle eigenvectors for one context."""

    outcome_signs: tuple[tuple[int, ...], ...]
    vectors: np.ndarray = field(repr=False)


def product_basis(context: str) -> ProductBasis:
    signs = tuple(itertools.product((1, -1), repeat=len(_validate_context(context))))
    rows = [
        functools.reduce(np.kron, [_LOCAL_EIGENVECTORS[pair] for pair in zip(context, outcome)])
        for outcome in signs
    ]
    return ProductBasis(outcome_signs=signs, vectors=np.array(rows))


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


def maximal_operator(basis: GhzBasis) -> np.ndarray:
    """Nondegenerate operator with eigenvalue i + 1 on basis state i.

    Every context operator is a function of this operator: summing the rank-one
    projectors weighted by a sign column of the table reproduces it. In floats
    the products of 1/sqrt(2) entries leave residues, at most 2.2e-16 in that
    sum and 8.9e-16 in this operator's eigenvalue equations, so ``verify``
    compares both within 1e-9.
    """
    return signed_projector_sum(basis, range(1, 9))


def signed_projector_sum(basis: GhzBasis, signs) -> np.ndarray:
    """Sum of the basis projectors weighted by ``signs`` (one per state)."""
    s = np.asarray(signs, dtype=complex)
    if s.shape != (len(basis.vectors),):
        raise ValueError("need one sign per basis state")
    return (basis.vectors.T * s) @ basis.vectors.conj()


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
