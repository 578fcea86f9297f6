"""Relaxed presentations, torsion-variety eliminations and transverse lifts."""

import hashlib
import random

import pytest

from toran.mordell_weil import ModuleSpec, PointInEN, minimal_coset
from toran.orders import EUCLIDEAN_DISCS, DiscMismatchError, OrderElement
from toran.reductions import (
    GammaPoint,
    TorsionCoset,
    VarietyParams,
    classify_point,
    gamma_to_torsion_variety,
    transverse_lift,
)
from toran.serialize import dumps_canonical, matrix_to_json_dict, torsion_point_to_json_dict
from toran.subgroups import SubgroupMatrix, TorsionPoint, _rank, apply_matrix

DISCS = list(EUCLIDEAN_DISCS)


def rank_one_spec(disc, torsion_order=1):
    return ModuleSpec(disc, 1, [[1]], torsion_order=torsion_order)


def random_point(rng, spec, n_ambient):
    rows = [
        [OrderElement(spec.disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(spec.rank)]
        for _ in range(n_ambient)
    ]
    torsions = [rng.randrange(spec.torsion_order) for _ in range(n_ambient)]
    return PointInEN.from_rows(spec, rows, torsions)


def test_gamma_point_validation():
    spec = rank_one_spec(-4)
    x = PointInEN.from_rows(spec, [[1], [2]])
    gp = GammaPoint(x)
    assert all(a == OrderElement.one(-4) for a in gp.multipliers)
    with pytest.raises(ValueError):
        GammaPoint(x, [1, 0])
    with pytest.raises(ValueError):
        GammaPoint(x, [1])


def test_elimination_frozen():
    spec = rank_one_spec(-4)
    x = PointInEN.from_rows(spec, [[(1, 1)], [2]])
    coset = gamma_to_torsion_variety(GammaPoint(x))
    assert coset.dim == 1 and coset.codim == 1
    assert coset.subgroup.rows == (
        (OrderElement(-4, 1, 1), OrderElement(-4, 0, -1)),
    )
    assert coset.zeta.is_zero()
    assert coset.contains(x)


def test_elimination_matches_minimal_coset():
    rng = random.Random(13)
    for _ in range(80):
        disc = rng.choice(DISCS)
        rank = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2]))
        x = random_point(rng, spec, rng.randint(1, 4))
        if x.is_torsion():
            continue
        coset = gamma_to_torsion_variety(GammaPoint(x))
        M, _, dim_b = minimal_coset(x)
        assert coset.subgroup == M
        assert coset.dim == dim_b
        assert coset.contains(x)


def test_elimination_with_multipliers():
    rng = random.Random(19)
    for _ in range(80):
        disc = rng.choice(DISCS)
        spec = rank_one_spec(disc, torsion_order=rng.choice([1, 2, 3]))
        n = rng.randint(1, 4)
        x = random_point(rng, spec, n)
        mult = []
        while len(mult) < n:
            a = OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2))
            if not a.is_zero():
                mult.append(a)
        gp = GammaPoint(x, mult)
        coset = gamma_to_torsion_variety(gp)
        assert coset.codim == x.N - _rank(gp.coefficient_matrix())
        assert coset.contains(x)


def test_elimination_torsion_point():
    spec = rank_one_spec(-7, torsion_order=2)
    x = PointInEN.from_rows(spec, [[0], [0]], [1, 0])
    coset = gamma_to_torsion_variety(GammaPoint(x))
    assert coset.dim == 0
    assert coset.contains(x)
    assert coset.zeta == x.torsion_point()


def _pinned_gamma_points(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        disc = rng.choice(DISCS)
        rank = rng.randint(1, 3)
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        R = rng.randint(1, 6)
        spec = ModuleSpec(disc, rank, gram, torsion_order=R)
        n = rng.randint(1, 5)
        rows = [[(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rank)] for _ in range(n)]
        torsions = [(rng.randrange(R), rng.randrange(R)) for _ in range(n)]
        x = PointInEN.from_rows(spec, rows, torsions)
        mult = None
        if rng.random() < 0.6:
            mult = []
            while len(mult) < n:
                a = OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3))
                if a:
                    mult.append(a)
        out.append(GammaPoint(x, mult))
    return out


def test_elimination_outputs_pinned():
    """Subgroup matrix and base point of 1,000 seeded eliminations, pinned by
    the SHA-256 of their canonical JSON, so any changed base point shows."""
    h = hashlib.sha256()
    nonzero = 0
    for gp in _pinned_gamma_points(23, 1000):
        coset = gamma_to_torsion_variety(gp)
        nonzero += not coset.zeta.is_zero()
        pair = [matrix_to_json_dict(coset.subgroup), torsion_point_to_json_dict(coset.zeta)]
        h.update(dumps_canonical(pair).encode())
    assert nonzero > 400
    assert h.hexdigest() == (
        "875f97419a797aab32070c371a3087cfe245b83f0078e9e616177fd920e4558e"
    )


def test_transverse_lift_frozen():
    spec = rank_one_spec(-4)
    x = PointInEN.from_rows(spec, [[1], [2]])
    lifted, coset = transverse_lift(GammaPoint(x))
    assert lifted.N == 3
    one, zero = OrderElement.one(-4), OrderElement.zero(-4)
    assert coset.subgroup.rows == (
        (one, zero, -one),
        (zero, one, OrderElement(-4, -2, 0)),
    )
    assert coset.dim == 1 and coset.codim == 2
    assert coset.contains(lifted)
    # last coordinate of the lift is the generator itself
    assert lifted.coords[2].free == (one,)


def test_transverse_lift_rejects_torsion():
    spec = rank_one_spec(-4, torsion_order=3)
    x = PointInEN.from_rows(spec, [[0], [0]], [1, 2])
    with pytest.raises(ValueError):
        transverse_lift(GammaPoint(x))


def test_transverse_lift_random():
    rng = random.Random(61)
    for _ in range(60):
        disc = rng.choice(DISCS)
        rank = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2]))
        x = random_point(rng, spec, rng.randint(1, 3))
        if x.is_torsion():
            continue
        lifted, coset = transverse_lift(GammaPoint(x))
        assert lifted.N == x.N + rank
        assert coset.dim == rank and coset.codim == x.N
        assert coset.contains(lifted)


def test_coset_contains_negative():
    spec = rank_one_spec(-4)
    M = SubgroupMatrix.from_ints(-4, [[1, -1]])
    coset = TorsionCoset(M, TorsionPoint.zero(-4, 2))
    assert coset.contains(PointInEN.from_rows(spec, [[1], [1]]))
    assert not coset.contains(PointInEN.from_rows(spec, [[1], [2]]))
    assert not coset.contains(PointInEN.from_rows(spec, [[1]]))
    with pytest.raises(ValueError):
        TorsionCoset(M, TorsionPoint.zero(-4, 3))


def _reference_contains(coset, x):
    # the route contains replaced: both torsion parts mapped through M as
    # TorsionPoints and compared at their exact orders
    M = coset.subgroup
    if x.N != M.N:
        return False
    for column in zip(*x.coefficient_rows()):
        if any(not e.is_zero() for e in M.evaluate(column)):
            return False
    return apply_matrix(M, x.torsion_point()) == apply_matrix(M, coset.zeta)


def _contains_outcome(contains, coset, x):
    try:
        return contains(coset, x)
    except DiscMismatchError as exc:
        return f"DiscMismatchError: {exc}"


@pytest.mark.parametrize("disc", DISCS)
def test_coset_contains_matches_torsion_point_route(disc):
    """Members, translates shifted in their torsion part, r = 0 matrices and
    points or translates over another discriminant, against the
    apply_matrix comparison."""
    rng = random.Random(f"contains/{disc}")
    other = rng.choice([d for d in DISCS if d != disc])
    outcomes = []
    for _ in range(120):
        n, rank = rng.randint(1, 4), rng.randint(0, 2)
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2, 3, 4, 6]))
        x = random_point(rng, spec, n)
        M, zeta, _ = minimal_coset(x)
        kind = rng.choice(["member", "shifted", "empty", "full", "foreign point", "foreign zeta"])
        if kind == "member" and not x.is_torsion():
            coset = gamma_to_torsion_variety(GammaPoint(x))
            M, zeta = coset.subgroup, coset.zeta
        elif kind == "shifted":
            level = rng.choice([1, 2, 3, 4, 5, 6, 12])
            shift = [
                OrderElement(disc, rng.randrange(level), rng.randrange(level)) for _ in range(n)
            ]
            zeta = zeta + TorsionPoint(disc, level, shift)
        elif kind == "empty":
            M = SubgroupMatrix(disc, n, [])
        elif kind == "full":
            M = SubgroupMatrix.from_ints(disc, [[int(i == j) for j in range(n)] for i in range(n)])
            zeta = TorsionPoint(disc, rng.randint(1, 6), [OrderElement(disc, 1, 0)] * n)
        elif kind == "foreign point":
            ospec = ModuleSpec(other, rank, gram, torsion_order=spec.torsion_order)
            x = random_point(rng, ospec, n)
        elif kind == "foreign zeta":
            coords = [OrderElement(other, c.a, c.b) for c in zeta.coords]
            zeta = TorsionPoint(other, zeta.level, coords)
        coset = TorsionCoset(M, zeta)
        for y in (x, random_point(rng, x.spec, n), random_point(rng, x.spec, n + 1)):
            want = _contains_outcome(_reference_contains, coset, y)
            assert _contains_outcome(TorsionCoset.contains, coset, y) == want
            outcomes.append(want)
    assert {True, False} <= set(outcomes)
    assert any(isinstance(o, str) for o in outcomes)


def test_variety_params():
    VarietyParams(3, 1)
    with pytest.raises(ValueError):
        VarietyParams(3, 3)
    with pytest.raises(ValueError):
        VarietyParams(2, -1)


def test_classify_torsion():
    spec = rank_one_spec(-4, torsion_order=2)
    x = PointInEN.from_rows(spec, [[0], [0], [0]], [1, 0, 1])
    report = classify_point(VarietyParams(3, 1), x)
    assert report.verdict == "anomalous"
    assert report.dim_b == 0
    assert report.theorem_id == "manin_mumford"
    assert report.coset.contains(x)


def test_classify_rank_one():
    spec = rank_one_spec(-3)
    x = PointInEN.from_rows(spec, [[1], [2], [3]])
    report = classify_point(VarietyParams(3, 1), x)
    assert report.verdict == "anomalous"
    assert report.dim_b == 1
    assert report.theorem_id == "tadimzero"


def test_classify_curve_regime():
    gram = [[1, 0], [0, 1]]
    spec = ModuleSpec(-4, 2, gram)
    rows = [[1, 0], [0, 1], [1, 1], [0, 0], [0, 0]]
    x = PointInEN.from_rows(spec, rows)
    report = classify_point(VarietyParams(5, 1), x)
    assert report.verdict == "anomalous"
    assert report.dim_b == 2
    assert report.theorem_id == "curva"


def test_classify_not_anomalous():
    gram = [[1, 0], [0, 1]]
    spec = ModuleSpec(-4, 2, gram)
    x = PointInEN.from_rows(spec, [[1, 0], [0, 1]])
    report = classify_point(VarietyParams(2, 1), x)
    assert report.verdict == "not_anomalous"
    assert report.theorem_id == ""
    with pytest.raises(ValueError):
        classify_point(VarietyParams(3, 1), x)


def test_report_json_dict():
    spec = rank_one_spec(-4)
    x = PointInEN.from_rows(spec, [[1], [2]])
    report = classify_point(VarietyParams(2, 1), x)
    d = report.to_json_dict()
    assert set(d) == {"verdict", "dimB", "relative_codim", "theorem_id", "coset"}
    assert set(d["coset"]) == {"matrix", "zeta"}
