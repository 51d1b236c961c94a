"""Minimal dense complex linear algebra for 2-, 4- and 8-dimensional problems.

Vectors are one-dimensional complex ``numpy`` arrays, matrices two-dimensional
ones. No function mutates its arguments; everything returns fresh arrays, so
values can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-9


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def commutes(a, b) -> bool:
    """True iff ``ab == ba`` entry for entry."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    return np.array_equal(a @ b, b @ a)


def rank(m) -> int:
    """Number of singular values above ``EPS`` times the largest entry's magnitude."""
    a = _as_complex(m)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0
    overall = float(np.abs(a).max())
    if overall == 0.0:
        return 0
    return int(np.linalg.matrix_rank(a, tol=EPS * overall))


def is_projector(m) -> bool:
    """True iff ``m`` is a square matrix with ``m == m^dagger`` and ``m @ m == m`` exactly."""
    a = _as_complex(m)
    return a.ndim == 2 and np.array_equal(a, a.conj().T) and np.array_equal(a @ a, a)


def is_unit(v) -> bool:
    """Squared norm within 1e-6 of 1."""
    a = _as_complex(v)
    return bool(abs(np.vdot(a, a).real - 1.0) <= 1e-6)
