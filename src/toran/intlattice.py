"""Exact integer lattice plumbing: the determinant (``det_int``), the
canonical row Hermite form (``hnf_int``, run modulo D for a lattice given
to contain D*Z^n) and the rank it gives (``rank_int``), and the Smith
form's diagonal with its column transform (``snf_int`` returns (d, V);
the row transform is not built).

These run on small dense matrices (dimensions a few dozen at most), so the
classical cubic algorithms with Python bigints are plenty.
"""

from __future__ import annotations

from math import gcd


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


def hnf_int(rows: list[list[int]], modulus: int = 0) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot lie in [0, pivot), zero rows
    are dropped.  Two generating sets span the same lattice iff their forms
    are equal, which is what the dedup and membership checks rely on.

    With ``modulus`` D > 0 the lattice is that of ``rows`` together with
    D*Z^n, and the form is computed modulo D (Domich, Kannan and Trotter
    1987; Cohen, Alg. 2.4.8): the pivot of column c starts at D*e_c and
    folds in each row by an extended-gcd 2x2 step, and every entry right of
    the current column stays in [0, D).
    """
    if not rows:
        return ()
    A = [[int(x) % modulus if modulus else int(x) for x in row] for row in rows]
    n = len(A[0])
    H = []
    for c in range(n):
        if modulus:
            P = [modulus * int(j == c) for j in range(n)]
            for R in A:
                if R[c]:
                    # [P; R] <- [[u, v], [-r, p]] [P; R], where u*p + v*r = 1
                    g = gcd(P[c], R[c])
                    p, r = P[c] // g, R[c] // g
                    u = pow(p, -1, r)
                    v = (1 - u * p) // r
                    P, R[:] = ([(u * x + v * y) % modulus for x, y in zip(P, R)],
                               [(p * y - r * x) % modulus for x, y in zip(P, R)])
        else:
            P = None
            while nz := [R for R in A if R[c]]:
                P = min(nz, key=lambda R: abs(R[c]))
                if len(nz) == 1:
                    break
                for R in nz:
                    if R is not P:
                        q = R[c] // P[c]
                        R[:] = [x - q * y for x, y in zip(R, P)]
            if P is None:
                continue
            A = [R for R in A if R is not P]
            P = [-x for x in P] if P[c] < 0 else P
        for K in H:
            q = K[c] // P[c]
            if q:
                K[:] = [x - q * y for x, y in zip(K, P)]
        H.append(P)
    return tuple(tuple(row) for row in H)


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
