"""Integer determinant, Hermite and Smith forms used by the rank-2N model."""

import random
from itertools import permutations

from toran.intlattice import det_int, hnf_int, rank_int, snf_int


def det_oracle(m):
    """Permutation-sum determinant, independent of the Bareiss routine."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def mat_mul_int(A, B):
    """Integer matrix product, the reference for the Smith form's transforms."""
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def random_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_det_matches_permutation_formula():
    rng = random.Random(3)
    for _ in range(150):
        n = rng.choice([1, 2, 3, 4])
        m = random_matrix(rng, n, n)
        assert det_int(m) == det_oracle(m)


def test_hnf_unimodular_invariance():
    rng = random.Random(9)
    for _ in range(150):
        rows, cols = rng.choice([(2, 3), (3, 3), (3, 4), (4, 4)])
        m = random_matrix(rng, rows, cols)
        h = hnf_int(m)
        # shuffled rows, negated rows and added multiples present the same lattice
        shuffled = [list(r) for r in m]
        rng.shuffle(shuffled)
        shuffled[0] = [-x for x in shuffled[0]]
        if rows > 1:
            k = rng.randint(-3, 3)
            shuffled[1] = [a + k * b for a, b in zip(shuffled[1], shuffled[0])]
        assert hnf_int(shuffled) == h
        assert hnf_int([list(r) for r in h]) == h


def test_hnf_shape():
    h = hnf_int([[4, 2], [2, 4]])
    assert h == ((2, 4), (0, 6)) or h == ((2, -2), (0, 6))
    for row in h:
        assert any(row)
    # pivots positive, entries above reduced
    m = hnf_int([[6, 0, 0], [0, 10, 0], [3, 5, 1]])
    pivots = []
    for row in m:
        j = next(i for i, x in enumerate(row) if x)
        pivots.append((j, row[j]))
    assert all(p > 0 for _, p in pivots)
    cols = [j for j, _ in pivots]
    assert cols == sorted(cols)


def test_snf_factorization():
    rng = random.Random(27)
    for _ in range(120):
        rows, cols = rng.choice([(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
        m = random_matrix(rng, rows, cols)
        d, u, v = snf_int(m)
        prod = mat_mul_int(mat_mul_int(u, m), v)
        for i in range(rows):
            for j in range(cols):
                expected = d[i] if i == j and i < len(d) else 0
                assert prod[i][j] == expected
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
        assert all(x >= 0 for x in d)
        # transforms are unimodular
        assert det_int(u) in (1, -1)
        assert det_int(v) in (1, -1)


def test_snf_determinant_product():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice([2, 3, 4])
        m = random_matrix(rng, n, n)
        det = det_int(m)
        d, _, _ = snf_int(m)
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(det)


def test_rank():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0, 0], [0, 0]]) == 0
