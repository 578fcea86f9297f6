"""Subgroup presentations: echelon forms, saturation, kernels, intersections."""

import hashlib
import itertools
import random

import pytest

from toran.intlattice import det_int, hnf_int, rank_int, snf_int
from toran.orders import EUCLIDEAN_DISCS, OrderElement, _dot, units
from toran.subgroups import (
    BudgetExceededError,
    RankError,
    SubgroupMatrix,
    TorsionPoint,
    _echelon,
    _flat,
    _hnf,
    _identity,
    _kernel_basis,
    _left_kernel,
    _level_steps,
    _rank,
    _right_kernel,
    _transpose,
    _z_basis,
    apply_matrix,
    degree_surrogate,
    hnf,
    integer_model,
    ints_to_vector,
    intersection_cardinality,
    intersection_exponent,
    is_anomalous,
    kernel_at_level,
    kernel_count_at_level,
    kernel_lattice_at_level,
    orthogonal_complement,
    parametrization,
    saturate,
    sum_and_intersection,
    tangent_orthogonal,
)

DISCS = list(EUCLIDEAN_DISCS)


def random_matrix(rng, disc, n_ambient, r):
    """A full-row-rank r x N matrix with small entries."""
    while True:
        rows = [
            [OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n_ambient)]
            for _ in range(r)
        ]
        try:
            return SubgroupMatrix(disc, n_ambient, rows)
        except RankError:
            continue


def _det(rows):
    """Reference determinant of a non-empty square matrix of OrderElement or
    QuadRat entries, by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = rows[0][0] * 0  # the zero of the entries' ring
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _det(minor)
        out = out + term if j % 2 == 0 else out - term
    return out


def unimodular_shuffle(rng, M):
    """Another basis of the same row module."""
    rows = [list(r) for r in M.rows]
    us = units(M.disc)
    for _ in range(6):
        op = rng.randrange(3)
        i = rng.randrange(M.r)
        if op == 0:
            u = rng.choice(us)
            rows[i] = [u * e for e in rows[i]]
        elif op == 1 and M.r > 1:
            j = rng.randrange(M.r)
            if j != i:
                q = OrderElement(M.disc, rng.randint(-2, 2), rng.randint(-2, 2))
                rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
        elif op == 2 and M.r > 1:
            j = rng.randrange(M.r)
            rows[i], rows[j] = rows[j], rows[i]
    return SubgroupMatrix(M.disc, M.N, rows, check_rank=False)


def mat_apply(M, vec):
    out = []
    for row in M.rows:
        acc = OrderElement.zero(M.disc)
        for e, c in zip(row, vec):
            acc = acc + e * c
        out.append(acc)
    return out


def test_constructor_validation():
    M = SubgroupMatrix.from_ints(-4, [[1, (0, 1)]])
    assert M.N == 2 and M.r == 1 and M.dim == 1 and M.codim == 1
    with pytest.raises(RankError):
        SubgroupMatrix.from_ints(-4, [[1, 1], [2, 2]])
    with pytest.raises(TypeError):
        SubgroupMatrix(-4, 2, [[1, 2]])
    with pytest.raises(ValueError):
        SubgroupMatrix.from_ints(-4, [[1, 2], [3]])


def test_hnf_frozen():
    # rows swap so the low-norm pivot leads; nothing else to reduce
    M = SubgroupMatrix.from_ints(-4, [[0, 2], [(1, 1), 0]])
    H = hnf(M)
    assert H.rows == (
        (OrderElement(-4, 1, 1), OrderElement(-4, 0, 0)),
        (OrderElement(-4, 0, 0), OrderElement(-4, 2, 0)),
    )
    assert hnf(H) == H


def test_hnf_unimodular_invariance():
    rng = random.Random(5)
    for _ in range(120):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        M = random_matrix(rng, disc, n, r)
        H = hnf(M)
        assert hnf(unimodular_shuffle(rng, M)) == H
        assert hnf(H) == H
        # same row module, so the same kernel at every level
        for level in (2, 3):
            assert kernel_lattice_at_level(M, level) == kernel_lattice_at_level(H, level)


def test_saturate_frozen():
    # (2, 1+w) = (1-w) * (1+w, w) over the Gaussian order
    M = SubgroupMatrix.from_ints(-4, [[2, (1, 1)]])
    S = saturate(M)
    assert S.rows == ((OrderElement(-4, 1, 1), OrderElement(-4, 0, 1)),)
    assert saturate(S) == S


def test_saturate_properties():
    rng = random.Random(17)
    for _ in range(80):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        M = random_matrix(rng, disc, n, r)
        S = saturate(M)
        assert S.r == M.r
        assert saturate(S) == S
        assert hnf(S) == S
        # scaling a row never changes the saturation
        rows = [list(row) for row in M.rows]
        rows[0] = [OrderElement(disc, 2, 1) * e for e in rows[0]]
        M2 = SubgroupMatrix(disc, n, rows)
        assert saturate(M2) == S
        # the connected kernel is unchanged: parametrizing columns still die
        for col in zip(*parametrization(S)):
            assert all(x.is_zero() for x in mat_apply(M, list(col)))


def test_degree_surrogate_frozen():
    M = SubgroupMatrix.from_ints(-4, [[(1, 1), 1]])
    s = degree_surrogate(M)
    assert s.minor_sum == 3
    assert s.row_product == 3
    assert s.hadamard_bound == 6
    M2 = SubgroupMatrix.from_ints(-4, [[1, (0, 1)], [(1, 1), 2]])
    s2 = degree_surrogate(M2)
    # det = 2 - w*(1+w) = 3 - w, norm 10
    assert s2.minor_sum == 10
    assert s2.row_product == 12
    assert s2.bound_holds()


def test_hadamard_bound_random():
    rng = random.Random(23)
    for _ in range(200):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        M = random_matrix(rng, disc, n, r)
        assert degree_surrogate(M).bound_holds()


def test_degree_surrogate_matches_laplace_reference():
    # minor_sum is the summed norms of the maximal minors, dependent rows too
    rng = random.Random(29)
    for k in range(250):
        disc = DISCS[k % 5]
        n = rng.randint(1, 5)
        r = rng.randint(1, min(n, 4))
        rows = random_rows(rng, disc, r, n, rng.randint(0, r))
        M = SubgroupMatrix(disc, n, rows, check_rank=False)
        expected = sum(
            _det([[row[c] for c in cols] for row in rows]).norm()
            for cols in itertools.combinations(range(n), r)
        )
        assert degree_surrogate(M).minor_sum == expected


def test_torsion_point_order_matches_divisor_scan():
    # the order is the least divisor d of the level that kills every coordinate
    rng = random.Random(31)
    for k in range(400):
        disc = DISCS[k % 5]
        level = rng.randint(1, 60)
        f = rng.choice([1, 2, 3, 4, 6, 12])  # a common factor lowers the order
        coords = [
            OrderElement(disc, f * rng.randrange(level), f * rng.randrange(level))
            for _ in range(rng.randint(1, 3))
        ]
        p = TorsionPoint(disc, level, coords)
        flat = [x for c in p.coords for x in (c.a, c.b)]
        scan = next(d for d in range(1, level + 1) if all(d * x % level == 0 for x in flat))
        assert p.order() == scan


def test_torsion_point_arithmetic():
    p = TorsionPoint(-4, 4, [OrderElement(-4, 2, 0), OrderElement(-4, 0, 0)])
    assert p.order() == 2
    assert p.reduced().level == 2
    assert p.reduced().coords[0] == OrderElement(-4, 1, 0)
    assert p == TorsionPoint(-4, 2, [OrderElement(-4, 1, 0), OrderElement(-4, 0, 0)])
    assert (p + p).is_zero()
    q = TorsionPoint(-4, 3, [OrderElement(-4, 1, 0), OrderElement(-4, 0, 1)])
    s = p + q
    assert s.level == 12
    assert s.order() == 6
    assert (s - q) == p
    w = OrderElement.omega(-4)
    assert q.scaled(w).coords[0] == OrderElement(-4, 0, 1)
    assert hash(p) == hash(p.reduced())


def test_kernel_count_frozen():
    diag = SubgroupMatrix.from_ints(-4, [[1, -1]])
    for n in (1, 2, 3, 4, 6):
        assert kernel_count_at_level(diag, n) == n * n
    empty = SubgroupMatrix(-4, 2, [], check_rank=False)
    assert kernel_count_at_level(empty, 3) == 81
    # imprimitive presentation keeps the torsion translates
    fat = SubgroupMatrix.from_ints(-4, [[2, (0, 2)]])
    assert kernel_count_at_level(fat, 2) == 16
    assert kernel_count_at_level(saturate(fat), 2) == 4


def test_kernel_enumeration_matches_count():
    rng = random.Random(31)
    for _ in range(60):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 3)
        r = rng.randint(1, n)
        M = random_matrix(rng, disc, n, r)
        level = rng.choice([2, 3, 4])
        try:
            points = kernel_at_level(M, level, max_points=4000)
        except BudgetExceededError:
            continue
        assert len(points) == kernel_count_at_level(M, level)
        assert len(set(points)) == len(points)
        for p in points:
            assert apply_matrix(M, p).is_zero()


def test_kernel_budget():
    empty = SubgroupMatrix(-4, 2, [], check_rank=False)
    with pytest.raises(BudgetExceededError):
        kernel_at_level(empty, 7, max_points=100)


@pytest.mark.parametrize("level", [-3, -1, 0])
def test_levels_below_one_are_invalid(level):
    diag = SubgroupMatrix.from_ints(-4, [[1, -1]])
    empty = SubgroupMatrix(-4, 2, [], check_rank=False)
    for M in (diag, empty):
        for f in (kernel_count_at_level, kernel_at_level, kernel_lattice_at_level):
            with pytest.raises(ValueError, match="level >= 1"):
                f(M, level)


def test_sum_and_intersection_frozen():
    diag = SubgroupMatrix.from_ints(-4, [[1, -1]])
    anti = SubgroupMatrix.from_ints(-4, [[1, 1]])
    dim_sum, dim_int, Msum, Mint = sum_and_intersection(diag, anti)
    assert (dim_sum, dim_int) == (2, 0)
    assert Msum.r == 0 and Mint.r == 2
    assert intersection_cardinality(diag, anti) == 4
    assert intersection_exponent(diag, anti) == 2


def test_sum_and_intersection_random():
    rng = random.Random(43)
    for _ in range(60):
        disc = rng.choice(DISCS)
        n = rng.randint(2, 4)
        H = random_matrix(rng, disc, n, rng.randint(1, n - 1))
        K = random_matrix(rng, disc, n, rng.randint(1, n - 1))
        dim_sum, dim_int, Msum, Mint = sum_and_intersection(H, K)
        assert dim_sum + dim_int == H.dim + K.dim
        assert dim_sum >= max(H.dim, K.dim)
        # both kernels vanish under the sum matrix; the intersection matrix
        # kernel vanishes under both inputs
        for M in (H, K):
            for col in zip(*parametrization(M)):
                assert all(x.is_zero() for x in mat_apply(Msum, list(col)))
        for col in zip(*parametrization(Mint)):
            assert all(x.is_zero() for x in mat_apply(H, list(col)))
            assert all(x.is_zero() for x in mat_apply(K, list(col)))



def _sum_and_intersection_reference(H, K):
    """The stacked route: the intersection saturates the row stack, and the
    sum is the Hermite form of the annihilator of both kernels."""
    disc, N = H.disc, H.N
    stack = _right_kernel(_flat(H.rows + K.rows), disc, N)
    inter = _hnf(_right_kernel(stack, disc, N), disc, N)
    kernels = [v for M in (H, K) for v in _right_kernel(_flat(M.rows), disc, N)]
    Msum = _hnf(_right_kernel(kernels, disc, N), disc, N)
    return N - Msum.r, N - inter.r, Msum, inter


def _kernel_pairs(rng, disc, n):
    """Seeded (H, K) pairs over every (rH, rK) up to N, with equal, nested
    and complementary ones, and rows made imprimitive so saturation acts."""
    def matrix(r):
        if not r:
            return SubgroupMatrix(disc, n, [], check_rank=False)
        rows = [list(row) for row in random_matrix(rng, disc, n, r).rows]
        if rng.random() < 0.3:
            rows[0] = [OrderElement(disc, rng.choice([2, 3]), rng.randint(0, 2)) * e for e in rows[0]]
        return SubgroupMatrix(disc, n, rows)

    def extend(H, r):
        # K holds H's rows, so ker(K) lies in ker(H)
        while True:
            extra = random_matrix(rng, disc, n, r - H.r).rows
            try:
                return SubgroupMatrix(disc, n, H.rows + extra)
            except RankError:
                continue

    for r_h in range(n + 1):
        for r_k in range(n + 1):
            H = matrix(r_h)
            yield H, matrix(r_k)
            if r_k > r_h:
                K = extend(H, r_k)
                yield H, K
                yield K, H
        H = matrix(r_h)
        yield H, H
        yield H, SubgroupMatrix(disc, n, H.rows)
        C = orthogonal_complement(H)
        yield H, C
        yield C, H


def test_sum_and_intersection_matches_stacked_reference():
    rng = random.Random(89)
    count = 0
    for disc in DISCS:
        for n in range(1, 6):
            for H, K in _kernel_pairs(rng, disc, n):
                expected = _sum_and_intersection_reference(H, K)
                assert sum_and_intersection(H, K) == expected
                count += 1
    assert count > 500


def test_kernel_readers_ignore_whether_the_kernel_is_filled():
    rng = random.Random(97)
    for disc in DISCS:
        for n in range(1, 5):
            for r in range(n + 1):
                rows = random_matrix(rng, disc, n, r).rows if r else []
                other = random_matrix(rng, disc, n, rng.randint(0, n))
                readers = [
                    saturate,
                    orthogonal_complement,
                    parametrization,
                    lambda M: sum_and_intersection(M, other),
                    lambda M: sum_and_intersection(other, M),
                ]
                if r + other.r == n:
                    readers += [
                        lambda M: intersection_cardinality(M, other),
                        lambda M: intersection_exponent(other, M),
                    ]
                for read in readers:
                    cold = SubgroupMatrix(disc, n, rows)
                    warm = SubgroupMatrix(disc, n, rows)
                    kernel = _kernel_basis(warm)
                    assert kernel == tuple(map(tuple, _right_kernel(_flat(rows), disc, n)))
                    # the kept kernel enters neither == nor hash
                    assert cold == warm and hash(cold) == hash(warm)
                    assert read(warm) == read(cold)
                    assert _kernel_basis(warm) is kernel
                    assert cold == warm and hash(cold) == hash(warm)


def identity_matrix(disc, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    return SubgroupMatrix.from_ints(disc, rows)


def test_kernel_lattice_counts_points():
    # |L / level Z^2N| points die, so count * [Z^2N : L] = level^2N
    rng = random.Random(37)
    for disc in DISCS:
        for n in (1, 2, 3):
            empty = SubgroupMatrix(disc, n, [], check_rank=False)
            whole = hnf_int([[int(i == j) for j in range(2 * n)] for i in range(2 * n)])
            for level in (2, 3, 6):
                assert kernel_lattice_at_level(empty, level) == whole
                some = random_matrix(rng, disc, n, rng.randint(1, n))
                for M in (empty, identity_matrix(disc, n), some):
                    lattice = kernel_lattice_at_level(M, level)
                    det = det_int([list(row) for row in lattice])
                    assert kernel_count_at_level(M, level) * abs(det) == level ** (2 * n)


def _kernel_lattice_reference(M, level):
    """The level lattice as the Hermite form of level * I and the Smith
    steps, with no modulus."""
    n2 = 2 * M.N
    gens = [[level * int(i == j) for j in range(n2)] for i in range(n2)]
    steps, V = _level_steps(M, level)
    for i, s in enumerate(steps):
        gens.append([V[k][i] * s % level for k in range(n2)])
    return hnf_int(gens)


def test_kernel_lattice_matches_unreduced_reference():
    rng = random.Random(41)
    for disc in DISCS:
        for n in range(1, 6):
            for r in range(n + 1):
                M = random_matrix(rng, disc, n, r) if r else SubgroupMatrix(disc, n, [], check_rank=False)
                if r and rng.random() < 0.5:  # an imprimitive row adds torsion
                    rows = [list(row) for row in M.rows]
                    rows[0] = [OrderElement(disc, rng.choice([2, 3]), rng.randint(0, 2)) * e for e in rows[0]]
                    M = SubgroupMatrix(disc, n, rows)
                for level in (1, 2, 3, 4, 6, 7, 12, 30):
                    assert kernel_lattice_at_level(M, level) == _kernel_lattice_reference(M, level)


def test_sum_and_intersection_dims_match_integer_model():
    # the stacked integer model has rank 2*rho for rho = rank of the stack
    rng = random.Random(67)
    for k in range(100):
        disc = DISCS[k % 5]
        n = rng.randint(1, 4)
        H = random_matrix(rng, disc, n, rng.randint(0, n)) if k % 7 else SubgroupMatrix(disc, n, [], check_rank=False)
        K = random_matrix(rng, disc, n, rng.randint(0, n))
        if k % 4 == 0 and H.r:  # share a row, so the stack is dependent
            K = SubgroupMatrix(disc, n, [H.rows[0]] + list(K.rows[1:]))
        rho = rank_int(integer_model(H.rows + K.rows, disc, n)) // 2
        dim_sum, dim_int, Msum, Mint = sum_and_intersection(H, K)
        assert dim_int == n - rho == n - Mint.r
        assert dim_sum == n - (H.r + K.r - rho) == n - Msum.r


def test_right_kernel_matches_integer_kernel():
    # V's columns past the rank span {x : A x = 0} for the integer model A,
    # which is closed under w; the order kernel must give the same lattice
    rng = random.Random(71)
    for k in range(150):
        disc = DISCS[k % 5]
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = random_rows(rng, disc, m, n, rng.randint(0, min(m, n)))
        d, V = snf_int(integer_model(rows, disc, n))
        rank = sum(1 for x in d if x)
        integer_kernel = [[V[i][j] for i in range(2 * n)] for j in range(rank, 2 * n)]
        kernel = _right_kernel(_flat(rows), disc, n)
        assert hnf_int(_z_basis(kernel, disc)) == hnf_int(integer_kernel)


def test_sum_and_intersection_with_empty_and_full_rank():
    rng = random.Random(47)
    for disc in DISCS:
        for n in (1, 2, 3):
            empty = SubgroupMatrix(disc, n, [], check_rank=False)
            full = random_matrix(rng, disc, n, n)
            identity = identity_matrix(disc, n)
            for K in (empty, full, random_matrix(rng, disc, n, rng.randint(1, n))):
                S = saturate(K)
                # E^N absorbs K in the sum; a finite subgroup meets it in 0
                for pair in ((empty, K), (K, empty)):
                    assert sum_and_intersection(*pair) == (n, K.dim, empty, S)
                for pair in ((full, K), (K, full)):
                    assert sum_and_intersection(*pair) == (K.dim, 0, S, identity)
            assert orthogonal_complement(empty) == identity
            assert orthogonal_complement(full) == empty


def random_rows(rng, disc, m, n, rank):
    """m combinations of ``rank`` random rows of length n: rank at most ``rank``."""
    basis = [
        [OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        for _ in range(rank)
    ]
    rows = []
    for _ in range(m):
        c = [OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in basis]
        rows.append([_dot(disc, c, (b[j] for b in basis)) for j in range(n)])
    return rows


def test_echelon_matches_integer_model():
    rng = random.Random(53)
    for k in range(150):
        disc = DISCS[k % 5]
        m, n = rng.randint(1, 6), rng.randint(1, 4)
        rank_cap = min(m, n) if k % 2 else rng.randint(0, min(m, n))
        rows = random_rows(rng, disc, m, n, rank_cap)
        rank = _rank(rows)
        assert 2 * rank == rank_int(integer_model(rows, disc, n))
        # the loop finds the same rank on either orientation
        by_rows = _echelon(_flat(rows), n, disc)[1]
        assert len(by_rows) == len(_echelon(_flat(_transpose(rows)), m, disc)[1]) == rank
        kernel = _right_kernel(_flat(rows), disc, n)
        assert len(kernel) == n - rank
        assert len(_left_kernel(rows, disc)) == m - rank
        for v in kernel:
            assert all(_dot(disc, row, ints_to_vector(disc, v)).is_zero() for row in rows)
        if kernel:
            d, _ = snf_int(_z_basis(kernel, disc))
            assert d == [1] * (2 * len(kernel))


def test_echelon_edge_cases():
    def e(a, b=0):
        return OrderElement(-7, a, b)

    # no rows, and rows with no columns (an r x 0 matrix)
    assert _echelon([], 3, -7) == ([], [])
    assert _echelon([[], []], 0, -7) == ([[], []], [])
    assert _rank([]) == 0 and _rank([[], [], []]) == 0
    # an all-zero first column: the pivots start in the second column
    rows = [[e(0), e(2, 1), e(3)], [e(0), e(1, -1), e(0, 2)]]
    E, pivots = _echelon(_flat(rows), 3, -7)
    assert pivots == [1, 2]
    assert [row[:2] for row in E] == [[0, 0], [0, 0]]
    assert ints_to_vector(-7, E[1])[1].is_zero()


def test_echelon_records_the_transform():
    # the _right_kernel layout [M^T | I]: the identity part of each reduced
    # row is a unimodular U with U M^T equal to the reduced M^T part
    rng = random.Random(59)
    for k in range(40):
        disc = DISCS[k % 5]
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_rows(rng, disc, m, n, rng.randint(0, min(m, n)))
        cols = _flat(_transpose(rows))
        aug = [col + ident for col, ident in zip(cols, _identity(n))]
        E, pivots = _echelon(aug, m, disc)
        U = [ints_to_vector(disc, flat)[m:] for flat in E]
        # the norm of det U is the determinant of its integer model
        assert det_int(integer_model(U, disc, n)) == 1
        for flat, u in zip(E, U):
            reduced = ints_to_vector(disc, flat)[:m]
            assert reduced == [_dot(disc, u, row) for row in rows]
        assert len(pivots) == _rank(rows)


def test_intersection_cardinality_errors():
    diag = SubgroupMatrix.from_ints(-4, [[1, -1]])
    full = SubgroupMatrix.from_ints(-4, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        intersection_cardinality(diag, full)
    with pytest.raises(RankError):
        intersection_cardinality(diag, diag)


def test_orthogonal_complement():
    rng = random.Random(59)
    diag = SubgroupMatrix.from_ints(-4, [[1, -1]])
    perp = orthogonal_complement(diag)
    assert perp.r == 1
    assert tangent_orthogonal(parametrization(diag), parametrization(perp))
    for _ in range(60):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        M = random_matrix(rng, disc, n, r)
        P = orthogonal_complement(M)
        assert M.dim + P.dim == n
        assert tangent_orthogonal(parametrization(M), parametrization(P))
        if M.dim > 0:
            # the conjugate pairing is definite, so a nontrivial kernel is
            # never orthogonal to itself
            assert not tangent_orthogonal(parametrization(M), parametrization(M))


def test_tangent_orthogonal_validation():
    with pytest.raises(ValueError):
        tangent_orthogonal([[OrderElement(-4, 1, 0)]], [])


def test_is_anomalous():
    assert is_anomalous(0, 1, 1, 3)
    assert not is_anomalous(0, 1, 2, 3)
    assert is_anomalous(1, 2, 2, 4)
    with pytest.raises(ValueError):
        is_anomalous(2, 1, 1, 3)
    with pytest.raises(ValueError):
        is_anomalous(0, 3, 1, 3)


# the cases cover every discriminant with r running from 0 to N
FROZEN_SHAPES = ((1, 1), (2, 0), (3, 1), (3, 2), (3, 3), (4, 2))


def _frozen_text():
    """Canonical text of the basis-dependent results on 30 seeded matrices."""
    rng = random.Random(2012)
    lines = []
    for disc in DISCS:
        for n, r in FROZEN_SHAPES:
            M = random_matrix(rng, disc, n, r)
            K = random_matrix(rng, disc, n, rng.randint(0, n))
            dim_sum, dim_int, Msum, Mint = sum_and_intersection(M, K)
            param = parametrization(M)
            left = _left_kernel(M.rows + K.rows, disc)
            lines += [
                repr(M),
                "; ".join(" ".join(str(e) for e in row) for row in param),
                "; ".join(" ".join(str(e) for e in row) for row in left),
                repr(hnf(M)),
                repr(saturate(M)),
                repr(orthogonal_complement(M)),
                f"{dim_sum} {dim_int} {Msum!r} {Mint!r}",
            ]
    return "\n".join(lines)


def test_frozen_bytes():
    # parametrization and the kernels are public bytes that depend on the
    # elimination order, and no benchmark digest covers them
    digest = hashlib.sha256(_frozen_text().encode()).hexdigest()
    assert digest == "a9794ea0ed3026681d4beba3f1b31a35b3c0b8aaf294c3dc7d0b35a143e3919f"
