"""Small GF(2) linear-algebra helpers (dense uint8 matrices)."""

from __future__ import annotations

import numpy as np


def _eliminate(mat: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan reduction of ``[mat | rhs]`` over GF(2).

    Returns the reduced right-hand side and the pivot column of each of the
    first rank rows.
    """
    a = (np.asarray(mat, dtype=np.uint8) & 1).copy()
    b = (np.asarray(rhs, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    pivot_col = []
    rank = 0
    for col in range(cols):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        piv = rank + pivots[0]
        a[[rank, piv]] = a[[piv, rank]]
        b[[rank, piv]] = b[[piv, rank]]
        elim = np.nonzero(a[:, col])[0]
        elim = elim[elim != rank]
        a[elim] ^= a[rank]
        b[elim] ^= b[rank]
        pivot_col.append(col)
        rank += 1
        if rank == rows:
            break
    return b, pivot_col


def gf2_rank(mat: np.ndarray) -> int:
    """Rank of a binary matrix over GF(2)."""
    return len(_eliminate(mat, np.zeros(np.shape(mat)[0]))[1])


def gf2_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solve ``mat @ x = rhs`` over GF(2).

    Returns one solution (free variables set to 0) or None if inconsistent.
    """
    b, pivot_col = _eliminate(mat, rhs)
    if np.any(b[len(pivot_col):]):
        return None
    x = np.zeros(np.shape(mat)[1], dtype=np.uint8)
    for i, col in enumerate(pivot_col):
        x[col] = b[i]
    return x
