"""Exact integer lattice plumbing: the determinant (``det_int``), the
canonical row Hermite form (``hnf_int``) and the rank it gives
(``rank_int``), and the Smith form's diagonal with its column transform
(``snf_int`` returns (d, V); the row transform is not built).

These run on small dense matrices (dimensions a few dozen at most), so the
classical cubic algorithms with Python bigints are plenty.
"""

from __future__ import annotations


def det_int(M: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    if n == 0:
        return 1
    A = [[int(x) for x in row] for row in M]
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k] != 0:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def hnf_int(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero rows
    are dropped.  Two generating sets span the same lattice iff their forms
    are equal, which is what the dedup and membership checks rely on.
    """
    if not rows:
        return ()
    A = [[int(x) for x in row] for row in rows]
    m, n = len(A), len(A[0])
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(A[i][c]))
            A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [A[i][j] - q * A[r][j] for j in range(n)]
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and A[r][c] != 0:
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            for k in range(r):
                q = A[k][c] // A[r][c]
                if q:
                    A[k] = [A[k][j] - q * A[r][j] for j in range(n)]
            r += 1
            if r == m:
                break
    return tuple(tuple(row) for row in A[:r])


def snf_int(M: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form with its column transform: returns (d, V) such that
    U*M*V = diag(d) for some unimodular U, which is not built.

    V is unimodular; d holds min(rows, columns) non-negative entries with
    d[i] | d[i+1].
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[int(x) for x in row] for row in M]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q*row_j
        A[i] = [A[i][k] - q * A[j][k] for k in range(n)]

    def col_op(i, j, q):  # col_i -= q*col_j, tracked in V
        for row in A:
            row[i] -= q * row[j]
        for row in V:
            row[i] -= q * row[j]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < m and t < n:
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (piv is None or abs(A[i][j]) < piv[0]):
                    piv = (abs(A[i][j]), i, j)
        if piv is None:
            break
        _, pi, pj = piv
        A[t], A[pi] = A[pi], A[t]
        swap_cols(t, pj)
        dirty = False
        for i in range(t + 1, m):
            if A[i][t]:
                q = A[i][t] // A[t][t]
                row_op(i, t, q)
                dirty = dirty or A[i][t] != 0
        for j in range(t + 1, n):
            if A[t][j]:
                q = A[t][j] // A[t][t]
                col_op(j, t, q)
                dirty = dirty or A[t][j] != 0
        if dirty:
            continue
        # clean pivot: fold in any entry it does not divide, else advance
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        t += 1
    return [abs(A[i][i]) for i in range(min(m, n))], V


def rank_int(M: list[list[int]]) -> int:
    return len(hnf_int(M))
