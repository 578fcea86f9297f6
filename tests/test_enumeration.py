"""Exhaustive listings and the brute-force minimal-coset oracle."""

import gc
import hashlib
import itertools
import random
import time

import pytest

import toran.enumeration as enumeration
from toran.enumeration import (
    _killing_rows,
    brute_force_minimal_coset,
    count_torsion_points,
    enumerate_subgroups,
    enumerate_torsion,
    surrogate_degree,
)
from toran.mordell_weil import ModuleSpec, PointInEN, minimal_coset
from toran.orders import (
    EUCLIDEAN_DISCS,
    OrderElement,
    _dot,
    _elements_norm_le,
    canonicalizing_unit,
)
from toran.subgroups import (
    BudgetExceededError,
    SubgroupMatrix,
    _rank,
    degree_surrogate,
    hnf,
    integer_model,
    ints_to_vector,
    kernel_lattice_at_level,
    saturate,
    vector_to_ints,
)

DISCS = list(EUCLIDEAN_DISCS)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_count_torsion_level():
    assert count_torsion_points(1, 5) == 25
    assert count_torsion_points(3, 2) == 64
    with pytest.raises(ValueError):
        count_torsion_points(0, 2)


def test_count_torsion_exact_order():
    assert count_torsion_points(1, 1, exact_order=True) == 1
    assert count_torsion_points(1, 2, exact_order=True) == 3
    assert count_torsion_points(1, 3, exact_order=True) == 8
    # multiplicative across coprime orders
    assert count_torsion_points(1, 6, exact_order=True) == 24
    assert count_torsion_points(2, 6, exact_order=True) == (
        count_torsion_points(2, 2, exact_order=True)
        * count_torsion_points(2, 3, exact_order=True)
    )


def test_exact_order_partition():
    # summing exact-order counts over divisors recovers the level count
    for n_ambient in (1, 2, 3):
        for level in (1, 2, 3, 4, 5, 6):
            total = sum(
                count_torsion_points(n_ambient, d, exact_order=True)
                for d in _divisors(level)
            )
            assert total == level ** (2 * n_ambient)


def _mobius(n):
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    if any(n % (p * p) == 0 for p in primes):
        return 0
    return (-1) ** len(primes)


def test_count_exact_order_matches_mobius_sum():
    # Mobius inversion of the level counts d^(2N) over the divisors d of the level
    for n_ambient in (1, 2, 3):
        for level in range(1, 61):
            expected = sum(
                _mobius(level // d) * d ** (2 * n_ambient) for d in _divisors(level)
            )
            assert count_torsion_points(n_ambient, level, exact_order=True) == expected


def test_enumerate_torsion_matches_counts():
    for disc in (-4, -7):
        for level in (1, 2, 3):
            pts = enumerate_torsion(disc, 2, level)
            assert len(pts) == count_torsion_points(2, level)
            assert pts[0].is_zero()
            assert len(set(pts)) == len(pts)
            exact = enumerate_torsion(disc, 2, level, exact_order=True)
            assert len(exact) == count_torsion_points(2, level, exact_order=True)
            for p in exact:
                assert p.order() == level


def test_enumerate_torsion_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_torsion(-4, 3, 7, budget=1000)
    with pytest.raises(BudgetExceededError):  # zero is a valid budget
        enumerate_torsion(-4, 1, 2, budget=0)
    with pytest.raises(ValueError):
        enumerate_torsion(-4, 1, 2, budget=-1)


def test_enumerate_subgroups_frozen_counts():
    assert len(enumerate_subgroups(-4, 2, 1, 1)) == 2
    assert len(enumerate_subgroups(-4, 2, 1, 2)) == 6
    assert len(enumerate_subgroups(-4, 2, 1, 5)) == 22
    # two axes plus one line (1, u) per unit
    assert len(enumerate_subgroups(-3, 2, 1, 2)) == 8
    assert len(enumerate_subgroups(-7, 2, 1, 2)) == 4


def test_enumerate_subgroups_frozen_rows():
    found = enumerate_subgroups(-4, 2, 1, 2)
    want = {
        ((1, 0), (0, 0)),
        ((0, 0), (1, 0)),
        ((1, 0), (1, 0)),
        ((1, 0), (-1, 0)),
        ((1, 0), (0, 1)),
        ((1, 0), (0, -1)),
    }
    got = {tuple((e.a, e.b) for e in m.rows[0]) for m in found}
    assert got == want


def test_enumerate_subgroups_properties():
    # every listed label is fixed by hnf and saturate, listed once, and in
    # (surrogate, minor sum, entries) order
    x_max = {1: 16, 2: 5, 3: 2}
    for disc, n in itertools.product(DISCS, (1, 2, 3)):
        for dim in range(n + 1):
            out = enumerate_subgroups(disc, n, dim, x_max[n])
            keys = []
            for m in out:
                assert m.dim == dim
                assert saturate(m) == m and hnf(m) == m
                assert surrogate_degree(m) <= x_max[n]
                flat = tuple((e.a, e.b) for row in m.rows for e in row)
                keys.append((surrogate_degree(m), degree_surrogate(m).minor_sum, flat))
            assert len(set(out)) == len(out)
            assert keys == sorted(keys)
    # on this key the 22 lines are also told apart by their kernels at level 6
    out = enumerate_subgroups(-4, 2, 1, 5)
    lattices = {kernel_lattice_at_level(m, 6) for m in out}
    assert len(lattices) == len(out)


def test_subgroup_listing_depends_on_coordinate_order_at_codimension_two():
    # at r >= 2 the budget caps the row-norm product of the Hermite label,
    # which depends on the order of the coordinates; the minor sum does not
    def swapped(m):  # coordinates 2 and 3 exchanged, then relabelled
        return hnf(SubgroupMatrix(m.disc, m.N, [[r[0], r[2], r[1]] for r in m.rows]))

    def pairs(m):
        return [[(e.a, e.b) for e in row] for row in m.rows]

    found = enumerate_subgroups(-4, 3, 1, 6)
    moved = {swapped(m) for m in found}
    assert len(found) == len(moved) == 195
    assert len(moved - set(found)) == 28
    # (1, 0, -w), (0, 1, -1-w) turns into (1, -1, -w), (0, 1+w, -1)
    rows = [[(1, 0), (0, 0), (0, -1)], [(0, 0), (1, 0), (-1, -1)]]
    label = next(m for m in found if pairs(m) == rows)
    image = swapped(label)
    assert pairs(image) == [[(1, 0), (-1, 0), (0, -1)], [(0, 0), (1, 1), (-1, 0)]]
    assert (surrogate_degree(label), surrogate_degree(image)) == (6, 9)
    assert degree_surrogate(label).minor_sum == degree_surrogate(image).minor_sum == 4


def test_enumerate_subgroups_extremes():
    ident = enumerate_subgroups(-4, 2, 0, 3)
    assert len(ident) == 1
    one = OrderElement.one(-4)
    zero = OrderElement.zero(-4)
    assert ident[0].rows == ((one, zero), (zero, one))
    full = enumerate_subgroups(-4, 2, 2, 3)
    assert len(full) == 1 and full[0].r == 0


def test_enumerate_subgroups_validation():
    with pytest.raises(ValueError):
        enumerate_subgroups(-5, 2, 1, 3)
    with pytest.raises(ValueError):
        enumerate_subgroups(-4, 2, 3, 3)
    with pytest.raises(ValueError):
        enumerate_subgroups(-4, 2, 1, 0)
    with pytest.raises(BudgetExceededError):
        enumerate_subgroups(-4, 3, 1, 40, budget=10)
    with pytest.raises(ValueError):
        enumerate_subgroups(-4, 2, 1, 2, budget=-5)
    # zero is a valid budget: the full group needs no candidate
    assert len(enumerate_subgroups(-4, 2, 2, 2, budget=0)) == 1


def test_surrogate_degree():
    m = SubgroupMatrix.from_ints(-4, [[1, (1, 1)], [0, 2]])
    assert surrogate_degree(m) == 3 * 4
    empty = SubgroupMatrix(-4, 2, [], check_rank=False)
    assert surrogate_degree(empty) == 1


def rank_one_point(disc, rows, torsion_order=1, torsions=None):
    spec = ModuleSpec(disc, 1, [[1]], torsion_order=torsion_order)
    return PointInEN.from_rows(spec, rows, torsions)


def test_brute_force_matches_kernel_method():
    rng = random.Random(83)
    agreements = 0
    for _ in range(40):
        disc = rng.choice(DISCS)
        n = rng.choice([2, 3])
        rank = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2]))
        rows = [
            [rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)
        ]
        torsions = [rng.randrange(spec.torsion_order) for _ in range(n)]
        x = PointInEN.from_rows(spec, rows, torsions)
        M, zeta, dim_b = minimal_coset(x)
        if M.r and surrogate_degree(M) > 16:
            continue  # the oracle budget cannot see this subgroup
        bm, bz, bdim = brute_force_minimal_coset(x, x_budget=16)
        assert bdim == dim_b
        assert bm == M
        assert bz == zeta
        agreements += 1
    assert agreements >= 25


def test_brute_force_torsion_point():
    x = rank_one_point(-4, [[0], [0]], torsion_order=3, torsions=[1, 2])
    bm, bz, bdim = brute_force_minimal_coset(x)
    assert bdim == 0
    assert bm.r == 2
    assert bz == x.torsion_point()


def test_brute_force_budget_semantics():
    # true minimal subgroup (4, -3) has surrogate 25: invisible at budget 16
    x = rank_one_point(-4, [[3], [4]])
    _, _, dim_tight = brute_force_minimal_coset(x, x_budget=16)
    assert dim_tight == 2
    bm, _, dim_loose = brute_force_minimal_coset(x, x_budget=25)
    assert dim_loose == 1
    M, _, _ = minimal_coset(x)
    assert bm == M
    assert bm.rows == ((OrderElement(-4, 4, 0), OrderElement(-4, -3, 0)),)


def _scan_killing(disc, n, cap, columns):
    """Reference for the oracle's row search: every nonzero row within the
    cap, from a plain product of element boxes, tested with the dot product
    over the order, sorted by (summed norm, flat row)."""
    elems = _elements_norm_le(disc, cap)
    rows = []
    for row in itertools.product(elems, repeat=n):
        used = sum(e.norm() for e in row)
        if 0 < used <= cap and all(_dot(disc, row, col).is_zero() for col in columns):
            rows.append((used, tuple(vector_to_ints(row))))
    return sorted(rows)


def _scan_dedup(disc, rows):
    """Reference unit dedup: the first row of each class, keyed by the row
    scaled with canonicalizing_unit of its first nonzero entry."""
    seen = {}
    for s, flat in rows:
        row = ints_to_vector(disc, flat)
        u = canonicalizing_unit(next(e for e in row if not e.is_zero()))
        seen.setdefault(tuple(vector_to_ints([u * e for e in row])), (s, row))
    return list(seen.values())


def test_killing_rows_match_scan():
    # the prefix search with a last-coordinate lookup against a full scan;
    # a zero last coefficient makes the last block non-injective
    rng = random.Random(1212)
    zero_last = 0
    for disc, n, rank in itertools.product(DISCS, (1, 2, 3, 4), (0, 1, 2)):
        for cap in {1: (4, 9, 16), 2: (4, 9), 3: (4, 6), 4: (3,)}[n]:
            columns = [
                [OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(rank)
            ]
            if rank and rng.random() < 0.3:
                for col in columns:
                    col[-1] = OrderElement.zero(disc)
                zero_last += 1
            killing = _killing_rows(disc, n, cap, integer_model(columns, disc, n))
            want = _scan_killing(disc, n, cap, columns)
            assert killing == want
    assert zero_last > 0


def test_oracle_matches_kernel_method_at_n4():
    # one N = 4 point per discriminant whose minimal coset is within the
    # oracle budget
    rng = random.Random(44)
    for disc in DISCS:
        rank = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=2)
        while True:
            rows = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(4)]
            x = PointInEN.from_rows(spec, rows, [rng.randrange(2) for _ in range(4)])
            M, zeta, dim_b = minimal_coset(x)
            if not M.r or surrogate_degree(M) <= 16:
                break
        start = time.perf_counter()
        assert brute_force_minimal_coset(x, x_budget=16) == (M, zeta, dim_b)
        assert time.perf_counter() - start < 1.0


def test_oracle_and_enumeration_leave_no_cycles():
    # nothing from a call should wait for the cyclic garbage collector
    x = rank_one_point(-3, [[1], [2], [0]], torsion_order=2, torsions=[1, 0, 1])
    brute_force_minimal_coset(x)
    gc.collect()
    gc.disable()
    try:
        brute_force_minimal_coset(x)
        assert gc.collect() == 0
        enumerate_subgroups(-4, 2, 1, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _full_list_choices(rows, r, cap, start=0, chosen=(), prod=1):
    """The independent row search over a fixed list, as the oracle ran it
    before its row list could grow."""
    if len(chosen) == r:
        yield chosen
        return
    for i in range(start, len(rows)):
        s, row = rows[i]
        if prod * s > cap:
            break
        nxt = chosen + (row,)
        if _rank(nxt) != len(nxt):
            continue
        yield from _full_list_choices(rows, r, cap, i + 1, nxt, prod * s)


def _full_list_oracle(point, x_budget, budget=2_000_000):
    """Reference oracle that lists every killing row within the budget before
    it searches; returns its result and the number of candidates examined."""
    disc, n = point.spec.disc, point.N
    model = integer_model(zip(*point.coefficient_rows()), disc, n)
    killing = _scan_dedup(disc, _killing_rows(disc, n, x_budget, model))
    kill_rank = _rank([row for _, row in killing])
    examined = 0
    for r in range(kill_rank, 0, -1):
        candidates = []
        for chosen in _full_list_choices(killing, r, x_budget):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(f"examined more than {budget} candidate matrices")
            canon = saturate(SubgroupMatrix(disc, n, chosen, check_rank=False))
            if canon.r == r and surrogate_degree(canon) <= x_budget:
                candidates.append(canon)
            if r == kill_rank:
                break
        if candidates:
            best = min(
                candidates,
                key=lambda m: (
                    degree_surrogate(m).minor_sum,
                    tuple((e.a, e.b) for row in m.rows for e in row),
                ),
            )
            return (best, point.torsion_point(), n - r), examined
    return (SubgroupMatrix(disc, n, []), point.torsion_point(), n), examined


def test_oracle_matches_full_list_reference(monkeypatch):
    # seeded points over every discriminant, N = 1..4 and rank 1..2, plus
    # all-zero coefficients and (3, 4) over -4, whose kill rank is 0 at cap
    # 16; at N = 4 and cap 9 the top level's saturation often exceeds the
    # cap and the lower levels' labels decide
    rng = random.Random(2024)
    points = [(rank_one_point(-4, [[3], [4]]), 16)]
    for disc, n, rank in itertools.product(DISCS, (1, 2, 3, 4), (1, 2)):
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2]))
        cap = 16 if n < 4 else 9
        if rank == 1 and n < 4:  # the reference lists every row within the cap
            points.append((PointInEN.from_rows(spec, [[0]] * n), cap))
        for _ in range(4):
            rows = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
            torsions = [rng.randrange(spec.torsion_order) for _ in range(n)]
            points.append((PointInEN.from_rows(spec, rows, torsions), cap))
    walked = []

    def counting(*args):
        for label in labels(*args):
            walked.append(label)
            yield label

    labels = enumeration._labels
    monkeypatch.setattr(enumeration, "_labels", counting)
    lower = 0
    for x, cap in points:
        want, reference_examined = _full_list_oracle(x, cap)
        walked.clear()
        assert brute_force_minimal_coset(x, x_budget=cap) == want
        lower += bool(walked)
        if reference_examined:  # the kill rank is positive
            # the top level counts as one label; a budget below the count
            # raises at the same count
            examined = 1 + len(walked)
            with pytest.raises(BudgetExceededError, match=f"more than {examined - 1} "):
                brute_force_minimal_coset(x, x_budget=cap, budget=examined - 1)
            assert brute_force_minimal_coset(x, x_budget=cap, budget=examined) == want
    assert lower >= 5


def test_oracle_stops_listing_at_the_kernel_rank(monkeypatch):
    # every row kills an all-zero point, so the cap-1 stage (the unit
    # vectors) already reaches the bound N
    caps = []

    def recording(disc, n_ambient, cap, model, low=0):
        caps.append(cap)
        return _killing_rows(disc, n_ambient, cap, model, low)

    monkeypatch.setattr(enumeration, "_killing_rows", recording)
    spec = ModuleSpec(-3, 2, [[1, 0], [0, 1]])
    x = PointInEN.from_rows(spec, [[0, 0]] * 3)
    start = time.perf_counter()
    M, _, dim = brute_force_minimal_coset(x)
    assert time.perf_counter() - start < 0.05
    assert caps == [1]
    identity = [[OrderElement(-3, int(i == j), 0) for j in range(3)] for i in range(3)]
    assert dim == 0 and M == hnf(SubgroupMatrix(-3, 3, identity))


def test_enumeration_budget_exit_lists_one_stage():
    # the walk yields its first labels after one bottom row list, so a
    # budget exit does not pay for the rows of every pivot choice
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="more than 10 "):
        enumerate_subgroups(-4, 3, 1, 40, budget=10)
    assert time.perf_counter() - start < 0.05


# count and SHA-256 over the (a, b) entries of every listed label, in
# order: listings past X = 16, where the last stage holds every row in (8, X]
ENUMERATION_PINS = {
    (-4, 2, 1, 17): (238, "7dc6ae8bbefae6c03447d6a68cccc2c6267ed2f9cce0421f99ccd699023f7e9e"),
    (-3, 2, 1, 24): (500, "4a32223c5f81a943bce2bd60ae1622f597d73fe09eb68f8238ba6f52f0953239"),
    (-7, 2, 1, 32): (788, "103f80dfcfaf7b1f08cb9e6802da22065baec1b86569eb06a7ee0e9d47d82d6d"),
    (-8, 2, 1, 40): (1124, "09974da66e59ff1b2403a1d4b54206dc93f03b7ab82fb1e64de2d64bbfd38534"),
    (-11, 2, 1, 20): (268, "5a9ccc1b32febf9c125a9df17b0c15c14a7555d5c00db4bbeed0a6c4c099ca0d"),
    (-7, 3, 2, 17): (4657, "f700b6e721c8a7bdd3692cb89251dbd64c515fbf8b31e6fdbd4a3a4e70fb4e9b"),
}


@pytest.mark.parametrize("key", list(ENUMERATION_PINS), ids=str)
def test_enumeration_pinned_beyond_16(key):
    out = enumerate_subgroups(*key)
    text = repr([[(e.a, e.b) for row in m.rows for e in row] for m in out])
    assert (len(out), hashlib.sha256(text.encode()).hexdigest()) == ENUMERATION_PINS[key]


def _reference_subgroups(disc, n, dim, x_budget):
    """Reference enumerator over every row within the budget, with indices
    that may repeat and the rank checked only at the leaf, saturating each
    choice.  Returns the sorted labels and the number of candidates
    examined."""
    r = n - dim
    if r == 0:
        return (SubgroupMatrix(disc, n, []),), 0
    rows = [(s, ints_to_vector(disc, flat)) for s, flat in _scan_killing(disc, n, x_budget, [])]

    def choices(start, chosen, prod):
        if len(chosen) == r:
            yield chosen
            return
        for i in range(start, len(rows)):
            s, row = rows[i]
            if prod * s > x_budget:
                break
            yield from choices(i, chosen + (row,), prod * s)

    seen = {}
    examined = 0
    for chosen in choices(0, (), 1):
        examined += 1
        if _rank(chosen) < r:
            continue
        canon = saturate(SubgroupMatrix(disc, n, chosen, check_rank=False))
        if canon.r == r and surrogate_degree(canon) <= x_budget:
            seen.setdefault(canon.rows, canon)

    def key(m):
        flat = tuple((e.a, e.b) for row in m.rows for e in row)
        return (surrogate_degree(m), degree_surrogate(m).minor_sum, flat)

    return tuple(sorted(seen.values(), key=key)), examined


def test_enumeration_matches_reference():
    # one seeded key per discriminant, N = 1..3 and dim, with X small enough
    # for the reference's repeated-index search; the label walk must list
    # the same labels in the same order
    rng = random.Random(1515)
    x_max = {1: [16, 16], 2: [3, 6, 6], 3: [1, 2, 3, 3]}
    keys = []
    for disc, n in itertools.product(DISCS, (1, 2, 3)):
        keys += [(disc, n, dim, rng.randint(1, x)) for dim, x in enumerate(x_max[n])]
    for key in keys:
        want, _ = _reference_subgroups(*key)
        assert enumerate_subgroups(*key) == want, key
    # the same call gives the same result
    assert enumerate_subgroups(-4, 2, 1, 2) == enumerate_subgroups(-4, 2, 1, 2)


def test_enumeration_examines_each_label_once():
    # the reference examines 6327 candidates at (-3, 3, 1, 3): every unit
    # multiple of every row, repeated rows and rank-deficient prefixes; the
    # walk examines the 27 Hermite forms within X, 21 of them saturated
    want, examined = _reference_subgroups(-3, 3, 1, 3)
    assert examined == 6327 and len(want) == 21
    assert enumerate_subgroups(-3, 3, 1, 3, budget=27) == want
    with pytest.raises(BudgetExceededError, match="more than 26 "):
        enumerate_subgroups(-3, 3, 1, 3, budget=26)


def test_enumeration_budget_counts_labels():
    # 462 Hermite forms within X = 8, where a search over independent unit
    # rows examines 4104 candidates
    want = enumerate_subgroups(-4, 3, 1, 8)
    assert len(want) == 243
    assert enumerate_subgroups(-4, 3, 1, 8, budget=462) == want
    with pytest.raises(BudgetExceededError, match="more than 461 "):
        enumerate_subgroups(-4, 3, 1, 8, budget=461)

