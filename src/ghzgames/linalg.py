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
    largest denominator, a power of two, and each row in turn is reduced against
    the pivot rows kept so far and divided by the gcd of its entries.
    No threshold enters: a matrix only numerically deficient in floats reads full rank."""
    a = _as_complex(m)
    if a.ndim != 2 or not np.isfinite(a).all():
        raise ValueError(f"expected a matrix of finite entries, got shape {a.shape}")
    ratios = [[x.as_integer_ratio() for x in row] for row in np.block([[a.real, -a.imag], [a.imag, a.real]]).tolist()]
    scale = max((d for row in ratios for _, d in row), default=1)
    pivots = []  # (column, row): each row is zero in the columns of the pivots before it
    for row in ([n * (scale // d) for n, d in row] for row in ratios):
        for col, top in pivots:
            if q := row[col]:
                row = [top[col] * x - q * y for x, y in zip(row, top)]
                g = math.gcd(*row) or 1
                row = [x // g for x in row]
        if any(row):
            pivots.append((next(j for j, x in enumerate(row) if x), row))
    return len(pivots) // 2


def is_projector(m) -> bool:
    """True iff ``m`` is a square matrix with ``m == m^dagger`` and ``m @ m == m`` exactly."""
    a = _as_complex(m)
    return a.ndim == 2 and np.array_equal(a, a.conj().T) and np.array_equal(a @ a, a)


def is_unit(v) -> bool:
    """Squared norm within 1e-6 of 1."""
    a = _as_complex(v)
    return bool(abs(np.vdot(a, a).real - 1.0) <= 1e-6)
