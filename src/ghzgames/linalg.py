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
    """True iff the largest entry of ``ab - ba`` has magnitude at most ``EPS``."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    return float(np.abs(a @ b - b @ a).max()) <= EPS


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


def is_hermitian(m) -> bool:
    a = _as_complex(m)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(np.abs(a - a.conj().T).max() <= EPS)


def is_projector(m) -> bool:
    a = _as_complex(m)
    return is_hermitian(a) and bool(np.abs(a @ a - a).max() <= EPS)


def is_unit(v) -> bool:
    """Squared norm within 1e-6 of 1."""
    a = _as_complex(v)
    return bool(abs(np.vdot(a, a).real - 1.0) <= 1e-6)
