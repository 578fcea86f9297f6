"""Integer determinant, Hermite and Smith forms used by the rank-2N model."""

import random
from itertools import combinations, permutations
from math import gcd

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
    """Integer matrix product, the reference for the Smith form's transform."""
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


def test_hnf_modulo_matches_appended_multiples():
    # modulo D the form is that of the rows together with D times the identity
    rng = random.Random(13)
    for k in range(400):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        rows = random_matrix(rng, m, n, -40, 40)
        if k % 3 == 0:
            rows[rng.randrange(m)] = [0] * n
        if k % 17 == 0:
            rows = [[0] * n for _ in range(m)]
        D = 1 if k % 11 == 0 else rng.choice([2, 3, 4, 6, 7, 12, 30, 97])
        eye = [[D * int(i == j) for j in range(n)] for i in range(n)]
        h = hnf_int(rows, modulus=D)
        assert h == hnf_int(rows + eye)
        assert len(h) == n and all(0 < h[i][i] <= D for i in range(n))
    assert hnf_int([[5, 7], [2, 9]], modulus=1) == ((1, 0), (0, 1))
    assert hnf_int([[0, 0, 0]], modulus=4) == ((4, 0, 0), (0, 4, 0), (0, 0, 4))


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


def smith_reference(m):
    """The Smith diagonal from determinantal divisors: with D_k the gcd of
    the k x k minors (D_0 = 1), d_k = D_k / D_(k-1), and 0 once D_k = 0."""
    rows, cols = len(m), len(m[0])
    d, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                dk = gcd(dk, det_int([[m[i][j] for j in ci] for i in ri]))
        d.append(dk // prev if dk else 0)
        prev = dk or 1
    return d


def test_snf_factorization():
    rng = random.Random(27)
    shapes = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (3, 2), (4, 3)]
    cases = [random_matrix(rng, *rng.choice(shapes)) for _ in range(120)]
    cases += [
        [[0, 0, 0], [0, 0, 0]],  # zero
        [[2, 4, 6], [3, 6, 9], [1, 2, 3]],  # rank 1
        [[6, 0], [0, 4], [0, 0]],  # diagonal but not divisible: d = (2, 12)
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # rank 2
    ]
    for m in cases:
        d, v = snf_int(m)
        assert d == smith_reference(m)
        # the column transform is unimodular
        assert abs(det_int(v)) == 1
        # column j of M*V is d_j times an integer column, and zero where
        # d_j = 0 or j lies beyond the diagonal
        mv = mat_mul_int(m, v)
        for j in range(len(v)):
            dj = d[j] if j < len(d) else 0
            col = [row[j] for row in mv]
            if dj == 0:
                assert not any(col)
            else:
                assert all(x % dj == 0 for x in col)


def test_snf_determinant_product():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.choice([2, 3, 4])
        m = random_matrix(rng, n, n)
        det = det_int(m)
        d, _ = snf_int(m)
        prod = 1
        for x in d:
            prod *= x
        assert prod == abs(det)


def test_rank():
    assert rank_int([[1, 2], [2, 4]]) == 1
    assert rank_int([[1, 0], [0, 1]]) == 2
    assert rank_int([[0, 0], [0, 0]]) == 0
