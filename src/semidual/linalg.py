"""Dense linear algebra over a prime field: row reduction, rank, nullspace,
and solving.  Matrices are lists of row lists of ints in [0, p)."""

from __future__ import annotations

__all__ = ["row_reduce", "matrix_rank", "nullspace", "is_invertible"]


def row_reduce(rows, p):
    """Row-reduce in place a copy; returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def matrix_rank(rows, p) -> int:
    if not rows or not rows[0]:
        return 0
    return len(row_reduce(rows, p)[1])


def nullspace(rows, p):
    """Basis of the right nullspace of the matrix, as coordinate lists."""
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_reduce(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f] % p
        basis.append(vec)
    return basis


def is_invertible(rows, p) -> bool:
    n = len(rows)
    if n == 0:
        return True
    if any(len(r) != n for r in rows):
        return False
    return matrix_rank(rows, p) == n
