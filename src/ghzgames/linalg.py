"""Minimal dense complex linear algebra for 2-, 4- and 8-dimensional problems.

Vectors are one-dimensional complex ``numpy`` arrays, matrices two-dimensional
ones. No function mutates its arguments; each returns a bool or an int.
"""

from __future__ import annotations

import math

import numpy as np


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def commutes(a, b) -> bool:
    """True iff ``ab == ba`` entry for entry."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    return np.array_equal(a @ b, b @ a)


def rank(m) -> int:
    """Exact rank: each float is read as the rational it holds, the real form
    [[Re, -Im], [Im, Re]] (twice the complex rank) is scaled to integers by the
    largest denominator, a power of two, and eliminated fraction-free (Bareiss).
    No threshold enters: a matrix only numerically deficient in floats reads full rank."""
    a = _as_complex(m)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise ValueError(f"expected a matrix of finite entries, got shape {a.shape}")
    ratios = [[x.as_integer_ratio() for x in row] for row in np.block([[a.real, -a.imag], [a.imag, a.real]]).tolist()]
    scale = max((d for row in ratios for _, d in row), default=1)
    rows = [[n * (scale // d) for n, d in row] for row in ratios]
    # the divisor starts at the entries' gcd g, so each step holds g times a minor of rows / g
    r, prev = 0, math.gcd(*(x for row in rows for x in row)) or 1
    for col in range(2 * a.shape[1]):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is not None:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            p = rows[r][col]
            for i in range(r + 1, len(rows)):
                q = rows[i][col]
                rows[i] = [(p * x - q * y) // prev for x, y in zip(rows[i], rows[r])]
            prev, r = p, r + 1
    return r // 2


def is_projector(m) -> bool:
    """True iff ``m`` is a square matrix with ``m == m^dagger`` and ``m @ m == m`` exactly."""
    a = _as_complex(m)
    return a.ndim == 2 and np.array_equal(a, a.conj().T) and np.array_equal(a @ a, a)


def is_unit(v) -> bool:
    """Squared norm within 1e-6 of 1."""
    a = _as_complex(v)
    return bool(abs(np.vdot(a, a).real - 1.0) <= 1e-6)
