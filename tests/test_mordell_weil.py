"""Point modules, hermitian pairings and minimal cosets."""

import random
from fractions import Fraction

import pytest

from toran.mordell_weil import (
    ModulePoint,
    ModuleSpec,
    PointInEN,
    essential_minimum_translate,
    isogeny_action,
    minimal_coset,
    nt_height,
    nt_pairing,
    orthogonality_certificate,
)
from toran.orders import EUCLIDEAN_DISCS, OrderElement, QuadRat
from toran.subgroups import SubgroupMatrix, _rank, apply_matrix

from test_subgroups import _det, random_rows

DISCS = list(EUCLIDEAN_DISCS)


def random_spec(rng, disc, rank):
    """Random hermitian positive-definite gram via L L* + identity."""
    L = [
        [QuadRat(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rank)]
        for _ in range(rank)
    ]
    gram = []
    for i in range(rank):
        row = []
        for j in range(rank):
            acc = QuadRat.zero(disc)
            for k in range(rank):
                acc = acc + L[i][k] * L[j][k].conjugate()
            if i == j:
                acc = acc + QuadRat.one(disc)
            row.append(acc)
        gram.append(row)
    return ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2, 3]))


def random_point(rng, spec, n_ambient):
    rows = [
        [OrderElement(spec.disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(spec.rank)]
        for _ in range(n_ambient)
    ]
    torsions = [rng.randrange(spec.torsion_order) for _ in range(n_ambient)]
    return PointInEN.from_rows(spec, rows, torsions)


def test_gram_validation():
    ModuleSpec(-4, 2, [[2, (1, 1)], [(1, -1), 3]])
    with pytest.raises(ValueError):
        ModuleSpec(-4, 2, [[2, (1, 1)], [(1, 1), 3]])  # not hermitian
    with pytest.raises(ValueError):
        ModuleSpec(-4, 2, [[1, 2], [2, 1]])  # indefinite
    with pytest.raises(ValueError):
        ModuleSpec(-4, 1, [[0]])  # degenerate
    with pytest.raises(ValueError):
        ModuleSpec(-4, 1, [[1], [2]])  # wrong shape


@pytest.mark.parametrize(
    "disc, gram, minor",
    [
        (-4, [[0]], 1),
        (-4, [[-1]], 1),
        (-4, [[1, (1, 1)], [(1, -1), 1]], 2),
        (-3, [[2, 1, 0], [1, 2, 0], [0, 0, 0]], 3),
        (-7, [[1, 0], [0, (-1, 0)]], 2),
    ],
)
def test_gram_names_first_failing_minor(disc, gram, minor):
    with pytest.raises(ValueError, match=rf"positive definite \(minor {minor}\)"):
        ModuleSpec(disc, len(gram), gram)


def test_gram_check_matches_leading_minors():
    # Sylvester's criterion through the reference cofactor determinant
    rng = random.Random(37)
    first_failing = set()
    for k in range(300):
        disc = DISCS[k % 5]
        rank = rng.randint(1, 4)
        gram = [[None] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = QuadRat(disc, Fraction(rng.randint(-2, 12), rng.randint(1, 3)), 0)
            for j in range(i + 1, rank):
                gram[i][j] = QuadRat(disc, rng.randint(-2, 2), rng.randint(-2, 2))
                gram[j][i] = gram[i][j].conjugate()
        minors = [_det([row[:m] for row in gram[:m]]) for m in range(1, rank + 1)]
        bad = [m for m, d in enumerate(minors, 1) if d.y != 0 or d.x <= 0]
        if bad:
            with pytest.raises(ValueError, match=rf"\(minor {bad[0]}\)"):
                ModuleSpec(disc, rank, gram)
        else:
            ModuleSpec(disc, rank, gram)
        first_failing.add(bad[0] if bad else 0)
    assert first_failing == {0, 1, 2, 3, 4}


def test_point_shapes():
    spec = ModuleSpec(-4, 1, [[1]], torsion_order=4)
    p = ModulePoint(spec, [3], torsion=(5, 2))
    assert p.torsion == OrderElement(-4, 1, 2)
    with pytest.raises(ValueError):
        ModulePoint(spec, [1, 2])
    x = PointInEN.from_rows(spec, [[1], [0]], [0, 2])
    assert x.N == 2
    assert x.torsion_point().level == 4
    assert not x.is_torsion()
    assert PointInEN.from_rows(spec, [[0], [0]], [1, 3]).is_torsion()
    with pytest.raises(ValueError, match="torsions"):
        PointInEN.from_rows(spec, [[1], [2], [3]], [1])
    with pytest.raises(ValueError, match="torsions"):
        PointInEN.from_rows(spec, [[1]], [1, 2])


def test_pairing_laws():
    rng = random.Random(11)
    for _ in range(120):
        disc = rng.choice(DISCS)
        spec = random_spec(rng, disc, rng.choice([1, 2]))
        n = rng.randint(1, 3)
        p = random_point(rng, spec, n)
        q = random_point(rng, spec, n)
        pq = nt_pairing(p, q)
        assert nt_pairing(q, p) == pq.conjugate()
        tau = OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2))
        assert nt_pairing(p.scaled(tau), q) == QuadRat.from_order(tau) * pq
        assert nt_pairing(p, q.scaled(tau)) == QuadRat.from_order(tau).conjugate() * pq
        r = random_point(rng, spec, n)
        assert nt_pairing(p + r, q) == pq + nt_pairing(r, q)


def test_height_laws():
    rng = random.Random(29)
    for _ in range(150):
        disc = rng.choice(DISCS)
        spec = random_spec(rng, disc, rng.choice([1, 2]))
        n = rng.randint(1, 3)
        p = random_point(rng, spec, n)
        q = random_point(rng, spec, n)
        hp, hq = nt_height(p), nt_height(q)
        assert hp >= 0
        assert (hp == 0) == p.is_torsion()
        # parallelogram law
        assert nt_height(p + q) + nt_height(p - q) == 2 * hp + 2 * hq
        # polarization: rational part of the pairing
        assert nt_height(p + q) - hp - hq == 2 * nt_pairing(p, q).rational_part()
        tau = OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3))
        assert nt_height(isogeny_action(tau, p)) == tau.norm() * hp


def test_height_frozen():
    spec = ModuleSpec(-4, 2, [[2, (1, 1)], [(1, -1), 3]])
    # h(g1 + w g2) = 2 + 3*norm(w) + 2 Re(conj(w) <g1, g2>) = 2 + 3 + 2*Re(-w(1+w)) = 7
    p = PointInEN.from_rows(spec, [[(1, 0), (0, 1)]])
    assert nt_height(p) == Fraction(7)
    w = OrderElement.omega(-4)
    assert nt_height(p.scaled(w)) == Fraction(7)


def test_minimal_coset_frozen():
    spec = ModuleSpec(-4, 1, [[1]], torsion_order=2)
    x = PointInEN.from_rows(spec, [[1], [2]], [1, 0])
    M, zeta, m = minimal_coset(x)
    assert m == 1
    assert M.rows == ((OrderElement(-4, 2, 0), OrderElement(-4, -1, 0)),)
    assert zeta == x.torsion_point()
    assert zeta.level == 2 and zeta.coords[0] == OrderElement(-4, 1, 0)



def test_minimal_coset_of_torsion_point():
    # a torsion point lies in the zero-dimensional coset through itself
    for disc in DISCS:
        spec = ModuleSpec(disc, 2, [[1, 0], [0, 1]], torsion_order=3)
        x = PointInEN.from_rows(spec, [[0, 0], [0, 0], [0, 0]], [1, 0, 2])
        M, zeta, m = minimal_coset(x)
        assert (m, zeta) == (0, x.torsion_point())
        assert M == SubgroupMatrix.from_ints(disc, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_minimal_coset_properties():
    rng = random.Random(37)
    for k in range(100):
        disc = DISCS[k % 5]
        t, n = rng.choice([1, 2]), rng.randint(1, 4)
        spec = random_spec(rng, disc, t)
        if k % 3:
            x = random_point(rng, spec, n)
        else:
            # zero, deficient or full rank
            rows = random_rows(rng, disc, n, t, rng.randint(0, min(n, t)))
            x = PointInEN.from_rows(spec, rows, [rng.randrange(spec.torsion_order) for _ in range(n)])
        M, zeta, m = minimal_coset(x)
        A = x.coefficient_rows()
        assert M.dim == m == _rank(A)
        assert zeta == x.torsion_point()
        # M kills the free part of x coordinate-wise
        for row in M.rows:
            for j in range(spec.rank):
                acc = OrderElement.zero(disc)
                for i in range(n):
                    acc = acc + row[i] * A[i][j]
                assert acc.is_zero()
        if x.is_torsion():
            assert m == 0 and M.r == n
        # the coset membership survives at the torsion level: M x_tors = M zeta
        assert apply_matrix(M, x.torsion_point()) == apply_matrix(M, zeta)


def test_orthogonality_certificate():
    spec = ModuleSpec(-4, 1, [[2]])
    y0 = PointInEN.from_rows(spec, [[0], [1]])
    param = [[OrderElement.one(-4)], [OrderElement.zero(-4)]]
    assert orthogonality_certificate(param, y0)
    assert essential_minimum_translate(param, y0) == Fraction(2)
    bad = PointInEN.from_rows(spec, [[1], [1]])
    assert not orthogonality_certificate(param, bad)
    with pytest.raises(ValueError):
        essential_minimum_translate(param, bad)
    with pytest.raises(ValueError):
        orthogonality_certificate(param, PointInEN.from_rows(spec, [[1]]))


def test_orthogonality_checks_every_generator():
    # rank 2: y0 = (-1 + i) g_1 + 2 g_2 pairs to zero with g_1 but to 4 with g_2
    spec = ModuleSpec(-4, 2, [[2, (1, 1)], [(1, -1), 3]])
    y0 = PointInEN.from_rows(spec, [[(-1, 1), 2]])
    g1 = PointInEN.from_rows(spec, [[1, 0]])
    g2 = PointInEN.from_rows(spec, [[0, 1]])
    assert not nt_pairing(y0, g1) and nt_pairing(y0, g2) == QuadRat(-4, 4, 0)
    assert not orthogonality_certificate([[OrderElement.one(-4)]], y0)


def test_orthogonality_random():
    rng = random.Random(53)
    hits = 0
    for _ in range(200):
        disc = rng.choice(DISCS)
        spec = random_spec(rng, disc, 1)
        # orthogonal by construction: y0 along (a, b), subgroup along (-conj(b), conj(a))
        a = OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3))
        b = OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3))
        y0 = PointInEN.from_rows(spec, [[a], [b]])
        param = [[-b.conjugate()], [a.conjugate()]]
        assert orthogonality_certificate(param, y0)
        if not (a.is_zero() and b.is_zero()):
            hits += 1
            expected = (a.norm() + b.norm()) * spec.gram[0][0].rational_part()
            assert essential_minimum_translate(param, y0) == expected
    assert hits > 150
