"""Exhaustive listings: torsion points, small connected subgroups, and a
brute-force oracle for the minimal coset through a point.

Subgroups of codimension r in E^N are listed through r x N coefficient
matrices whose surrogate degree, the product over rows of the summed entry
norms, stays within a budget X.  Matrices are identified with the connected
subgroup they cut out, so the canonical label is the Hermite form of the
saturation; listing all matrices within X and filtering on the label's own
surrogate makes the output exactly the set of canonical labels within X.
"""

from __future__ import annotations

from operator import mul

from .mordell_weil import PointInEN
from .orders import EUCLIDEAN_DISCS, OrderElement, _elements_norm_le, canonicalizing_unit
from .subgroups import (
    BudgetExceededError,
    SubgroupMatrix,
    TorsionPoint,
    _divisors,
    _rank,
    _row_norm_product,
    degree_surrogate,
    integer_model,
    ints_to_vector,
    kernel_lattice_at_level,
    saturate,
    vector_to_ints,
)


def _mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius needs a positive integer")
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def count_torsion_points(n_ambient: int, level: int, exact_order: bool = False) -> int:
    """Points of E^N killed by level, or of exact order level."""
    if n_ambient < 1 or level < 1:
        raise ValueError("need N >= 1 and level >= 1")
    if not exact_order:
        return level ** (2 * n_ambient)
    return sum(_mobius(level // d) * d ** (2 * n_ambient) for d in _divisors(level))


def enumerate_torsion(
    disc: int,
    n_ambient: int,
    level: int,
    exact_order: bool = False,
    budget: int = 200_000,
) -> list[TorsionPoint]:
    """All torsion points at the given level, in lexicographic coordinate
    order; with exact_order only the points of that exact order."""
    total = count_torsion_points(n_ambient, level, exact_order=False)
    if total > budget:
        raise BudgetExceededError(
            f"{total} torsion points at level {level} exceed budget {budget}"
        )
    coords_1d = [
        OrderElement(disc, a, b) for a in range(level) for b in range(level)
    ]
    points = []
    stack = [()]
    for _ in range(n_ambient):
        stack = [tup + (c,) for tup in stack for c in coords_1d]
    for tup in stack:
        p = TorsionPoint(disc, level, tup)
        if exact_order and p.order() != level:
            continue
        points.append(p)
    expected = count_torsion_points(n_ambient, level, exact_order)
    assert len(points) == expected
    return points


def surrogate_degree(m: SubgroupMatrix) -> int:
    """Product over rows of the summed coordinate norms."""
    return _row_norm_product(m.rows)


def _rows_within(disc: int, n_ambient: int, cap: int) -> list[tuple]:
    """Nonzero rows of length N with summed norms <= cap, with the sum."""
    elems = [(e.norm(), e) for e in _elements_norm_le(disc, cap)]
    rows = []

    def rec(prefix, used):
        if len(prefix) == n_ambient:
            if used > 0:
                rows.append((used, tuple(prefix)))
            return
        for ne, e in elems:
            if used + ne > cap:
                break
            prefix.append(e)
            rec(prefix, used + ne)
            prefix.pop()

    rec([], 0)
    rows.sort(key=lambda t: (t[0], vector_to_ints(t[1])))
    return rows


_SUBGROUP_CACHE: dict = {}


def enumerate_subgroups(
    disc: int,
    n_ambient: int,
    dim: int,
    x_budget: int,
    budget: int = 2_000_000,
    witness_level: int | None = None,
) -> tuple[SubgroupMatrix, ...]:
    """Connected subgroups of the given dimension whose canonical matrix has
    surrogate degree at most x_budget, sorted by (surrogate, minors, entries).

    With witness_level set, pairwise distinctness of the listed subgroups is
    re-verified on their kernel lattices at that level.
    """
    if disc not in EUCLIDEAN_DISCS:
        raise ValueError(f"unsupported discriminant {disc}")
    if not 0 <= dim <= n_ambient:
        raise ValueError(f"need 0 <= dim <= N, got dim={dim}, N={n_ambient}")
    if x_budget < 1:
        raise ValueError("need a positive surrogate budget")
    key = (disc, n_ambient, dim, x_budget)
    result = _SUBGROUP_CACHE.get(key)
    if result is None:
        result = _enumerate_uncached(disc, n_ambient, dim, x_budget, budget)
        _SUBGROUP_CACHE[key] = result
        if len(_SUBGROUP_CACHE) > 16:  # drop the oldest, so memory stays flat
            del _SUBGROUP_CACHE[next(iter(_SUBGROUP_CACHE))]
    if witness_level is not None:
        lattices = {kernel_lattice_at_level(m, witness_level) for m in result}
        assert len(lattices) == len(result)
    return result


def _enumerate_uncached(disc, n_ambient, dim, x_budget, budget):
    r = n_ambient - dim
    if r == 0:
        return (SubgroupMatrix(disc, n_ambient, []),)
    rows = _rows_within(disc, n_ambient, x_budget)
    seen: dict = {}
    examined = 0

    def rec(start, chosen, prod):
        nonlocal examined
        if len(chosen) == r:
            examined += 1
            if examined > budget:
                raise BudgetExceededError(
                    f"examined more than {budget} candidate matrices"
                )
            mat = SubgroupMatrix(
                disc, n_ambient, [t[1] for t in chosen], check_rank=False
            )
            if _rank(mat.rows) < r:
                return
            canon = saturate(mat)
            if canon.r != r or surrogate_degree(canon) > x_budget:
                return
            seen.setdefault(canon.rows, canon)
            return
        for i in range(start, len(rows)):
            s, _ = rows[i]
            if prod * s > x_budget:
                break
            rec(i, chosen + [rows[i]], prod * s)

    rec(0, [], 1)

    def sort_key(m):
        surr = degree_surrogate(m)
        flat = tuple((e.a, e.b) for row in m.rows for e in row)
        return (surrogate_degree(m), surr.minor_sum, flat)

    return tuple(sorted(seen.values(), key=sort_key))


def _row_kills(flat, model) -> bool:
    """Whether the row with flat coordinates (a_1, b_1, ..., a_N, b_N) is
    orthogonal to every row of the integer model of the coefficient
    columns, i.e. kills the point's free part."""
    for m in model:
        if sum(map(mul, flat, m)):
            return False
    return True


def _dedup_unit_rows(disc: int, flats) -> list[tuple]:
    """The first flat row of each unit-scaling class, in input order, as
    (summed norm, element row)."""
    seen = {}
    for flat in flats:
        row = ints_to_vector(disc, flat)
        u = canonicalizing_unit(next(e for e in row if not e.is_zero()))
        seen.setdefault(tuple(vector_to_ints([u * e for e in row])), row)
    return [(sum(e.norm() for e in row), row) for row in seen.values()]


def brute_force_minimal_coset(
    point: PointInEN, x_budget: int = 16, budget: int = 2_000_000
):
    """Smallest-dimension connected subgroup within the surrogate budget
    whose coset through the point contains it, found without the one-shot
    kernel computation: every candidate row within the budget is tested
    against the coefficient matrix, and maximal independent sets of killing
    rows are assembled by direct search.  Ties are broken by minor sums,
    then by entries.  Returns (matrix, torsion part, dimension)."""
    disc = point.spec.disc
    n_ambient = point.N
    model = integer_model(zip(*point.coefficient_rows()), disc, n_ambient)
    killing = _dedup_unit_rows(
        disc, (f for f in _rows_for(disc, n_ambient, x_budget) if _row_kills(f, model))
    )
    kill_rank = _rank([row for _, row in killing])

    examined = 0
    for r in range(kill_rank, 0, -1):
        candidates: list[SubgroupMatrix] = []
        # all maximal independent subsets span the same saturation, so the
        # top level is decided by its first leaf
        leaf_cap = 1 if r == kill_rank else None

        class _Done(Exception):
            pass

        def rec(start, chosen, prod):
            nonlocal examined
            if len(chosen) == r:
                examined += 1
                if examined > budget:
                    raise BudgetExceededError(
                        f"examined more than {budget} candidate matrices"
                    )
                mat = SubgroupMatrix(disc, n_ambient, chosen, check_rank=False)
                canon = saturate(mat)
                if canon.r == r and surrogate_degree(canon) <= x_budget:
                    candidates.append(canon)
                if leaf_cap is not None and examined >= leaf_cap:
                    raise _Done
                return
            for i in range(start, len(killing)):
                s, row = killing[i]
                if prod * s > x_budget:
                    break
                if _rank(chosen + [row]) != len(chosen) + 1:
                    continue
                rec(i + 1, chosen + [row], prod * s)

        try:
            rec(0, [], 1)
        except _Done:
            pass
        if candidates:
            best = min(
                candidates,
                key=lambda m: (
                    degree_surrogate(m).minor_sum,
                    tuple((e.a, e.b) for row in m.rows for e in row),
                ),
            )
            return best, point.torsion_point(), n_ambient - r
    empty = SubgroupMatrix(disc, n_ambient, [])
    return empty, point.torsion_point(), n_ambient


_ROWS_CACHE: dict = {}


def _rows_for(disc: int, n_ambient: int, cap: int) -> list[tuple]:
    """The rows of _rows_within as flat integer coordinates, in its order."""
    key = (disc, n_ambient, cap)
    if key not in _ROWS_CACHE:
        _ROWS_CACHE[key] = [
            tuple(vector_to_ints(row)) for _, row in _rows_within(disc, n_ambient, cap)
        ]
    return _ROWS_CACHE[key]
