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


def commutes(a, b, tol: float = EPS) -> bool:
    """True iff the largest entry of ``ab - ba`` has magnitude at most ``tol``."""
    a, b = _as_complex(a), _as_complex(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square matrices, got {a.shape} and {b.shape}")
    return float(np.abs(a @ b - b @ a).max()) <= tol


def rank(m, tol: float = EPS) -> int:
    """Numerical rank by Gaussian elimination with scaled partial pivoting.

    A candidate pivot is chosen by the largest magnitude relative to its row's
    initial scale; it is accepted only if its absolute magnitude exceeds
    ``tol`` times the largest entry of the input matrix.
    """
    a = np.array(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return 0
    overall = float(np.abs(a).max())
    if overall == 0.0:
        return 0
    threshold = tol * overall
    scales = np.abs(a).max(axis=1)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        mags = np.abs(a[r:, c])
        ratios = np.where(scales[r:] > 0, mags / np.where(scales[r:] > 0, scales[r:], 1.0), 0.0)
        p = r + int(np.argmax(ratios))
        if abs(a[p, c]) <= threshold:
            continue
        if p != r:
            a[[r, p]] = a[[p, r]]
            scales[[r, p]] = scales[[p, r]]
        a[r + 1 :] -= np.outer(a[r + 1 :, c] / a[r, c], a[r])
        r += 1
    return r


def is_hermitian(m, tol: float = EPS) -> bool:
    a = _as_complex(m)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and bool(np.abs(a - a.conj().T).max() <= tol)


def is_projector(m, tol: float = EPS) -> bool:
    a = _as_complex(m)
    return is_hermitian(a, tol) and bool(np.abs(a @ a - a).max() <= tol)


def is_unit(v, tol: float = EPS) -> bool:
    a = _as_complex(v)
    return bool(abs(np.vdot(a, a).real - 1.0) <= tol)
