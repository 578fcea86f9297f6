"""Exhaustive listings: torsion points, small connected subgroups, and a
brute-force oracle for the minimal coset through a point.

Subgroups of codimension r in E^N are listed through r x N coefficient
matrices whose surrogate degree, the product over rows of the summed entry
norms, stays within a budget X.  Matrices are identified with the connected
subgroup they cut out, so the canonical label is the Hermite form of the
saturation; listing all independent matrices within X, one row per unit
class, and filtering on the label's own surrogate makes the output exactly
the set of canonical labels within X.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import add

from .bounds import _jordan_totient
from .intlattice import rank_int
from .mordell_weil import PointInEN
from .orders import _OMEGA, EUCLIDEAN_DISCS, OrderElement, _elements_norm_le, units
from .subgroups import (
    BudgetExceededError,
    SubgroupMatrix,
    TorsionPoint,
    _rank,
    _row_norm_product,
    degree_surrogate,
    integer_model,
    ints_to_vector,
    kernel_lattice_at_level,
    saturate,
)


def count_torsion_points(n_ambient: int, level: int, exact_order: bool = False) -> int:
    """Points of E^N killed by level, or of exact order level."""
    if n_ambient < 1 or level < 1:
        raise ValueError("need N >= 1 and level >= 1")
    if not exact_order:
        return level ** (2 * n_ambient)
    return _jordan_totient(level, 2 * n_ambient)


def enumerate_torsion(
    disc: int,
    n_ambient: int,
    level: int,
    exact_order: bool = False,
    budget: int = 200_000,
) -> list[TorsionPoint]:
    """All torsion points at the given level, in lexicographic coordinate
    order; with exact_order only the points of that exact order."""
    if budget < 0:
        raise ValueError(f"need a non-negative point budget, got {budget}")
    total = count_torsion_points(n_ambient, level, exact_order=False)
    if total > budget:
        raise BudgetExceededError(
            f"{total} torsion points at level {level} exceed budget {budget}"
        )
    coords_1d = [
        OrderElement(disc, a, b) for a in range(level) for b in range(level)
    ]
    points = []
    for tup in product(coords_1d, repeat=n_ambient):
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


def _killing_rows(disc: int, n_ambient: int, cap: int, model, low: int = 0) -> list[tuple]:
    """(summed norm, flat row) for each row of length N with summed norms
    in (low, cap] that the integer model kills, sorted by (sum, flat row),
    where the flat row of (x_1, ..., x_N) is (a_1, b_1, ..., a_N, b_N).

    A row kills iff sum_i B_i (a_i, b_i) = 0, with B_i the two columns of
    coordinate i.  The first N - 1 coordinates are enumerated with their
    running image; the last is looked up by image in a table kept in norm
    order, so the work scales with the prefixes, not with the rows.  An
    empty model kills every row.
    """
    elems = _norm_box(disc, cap)
    cols = [tuple(m[k] for m in model) for k in range(2 * n_ambient)]

    def images(i):
        xs, ys = cols[2 * i], cols[2 * i + 1]
        return [(ne, a, b, tuple(a * x + b * y for x, y in zip(xs, ys))) for ne, a, b in elems]

    last: dict = {}
    for ne, a, b, img in images(n_ambient - 1):
        last.setdefault(tuple(-v for v in img), []).append((ne, a, b))
    steps = [images(i) for i in range(n_ambient - 1)]
    out = []
    stack = [(0, (), (0,) * len(model))]
    while stack:
        used, flat, img = stack.pop()
        i = len(flat) // 2
        if i < n_ambient - 1:
            for ne, a, b, step in steps[i]:
                if used + ne > cap:
                    break
                stack.append((used + ne, flat + (a, b), tuple(map(add, img, step))))
            continue
        for ne, a, b in last.get(img, ()):
            if used + ne > cap:
                break
            if used + ne > low:
                out.append((used + ne, flat + (a, b)))
    out.sort()
    return out


@lru_cache(maxsize=64)
def _norm_box(disc: int, cap: int) -> tuple[tuple, ...]:
    """(norm, a, b) for each element of norm at most cap, sorted by norm."""
    return tuple((e.norm(), e.a, e.b) for e in _elements_norm_le(disc, cap))


def _killing_stages(disc: int, n_ambient: int, x_budget: int, model):
    """Unit-class representatives (_dedup_unit_rows) of the _killing_rows
    within x_budget, in stages of growing cap (1, 2, 4, 8, then x_budget),
    each stage holding the rows above the previous cap.  Unit multiples
    share their summed norm, so each class lies within one stage."""
    caps = [c for c in (1, 2, 4, 8) if c < x_budget] + [x_budget]
    for low, cap in zip([0] + caps, caps):
        yield _dedup_unit_rows(disc, _killing_rows(disc, n_ambient, cap, model, low))


class _StagedRows(list):
    """A sorted row list that ``grow`` extends by the next non-empty one of
    ``stages``, each sorting after the last, or returns False at their end."""

    def __init__(self, stages):
        super().__init__()
        self._stages = stages

    def grow(self) -> bool:
        for rows in self._stages:
            if rows:
                self.extend(rows)
                return True
        return False


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

    Every subgroup is cut out by independent rows, and scaling a row by a
    unit keeps both the subgroup and the row's summed norm, so the search
    runs over unit-class representatives of all rows.  At most ``budget``
    candidate matrices are examined.  With witness_level set, pairwise
    distinctness of the listed subgroups is re-verified on their kernel
    lattices at that level.
    """
    if disc not in EUCLIDEAN_DISCS:
        raise ValueError(f"unsupported discriminant {disc}")
    if not 0 <= dim <= n_ambient:
        raise ValueError(f"need 0 <= dim <= N, got dim={dim}, N={n_ambient}")
    if x_budget < 1:
        raise ValueError("need a positive surrogate budget")
    if budget < 0:
        raise ValueError(f"need a non-negative candidate budget, got {budget}")
    result = _search_subgroups(disc, n_ambient, n_ambient - dim, x_budget, budget)
    if witness_level is not None:
        lattices = {kernel_lattice_at_level(m, witness_level) for m in result}
        assert len(lattices) == len(result)
    return result


def _row_choices(rows, r, cap, start=0, chosen=(), prod=1):
    """Independent choices of r rows from the _StagedRows list ``rows`` of
    (summed norm, row), by strictly increasing index in depth-first order,
    whose norm product stays within cap.  A prefix of deficient rank is
    dropped, and the list grows only when the search reads past its end."""
    if len(chosen) == r:
        yield chosen
        return
    i = start
    while i < len(rows) or rows.grow():
        s, row = rows[i]
        if prod * s > cap:
            break
        i += 1
        nxt = chosen + (row,)
        if _rank(nxt) == len(nxt):
            yield from _row_choices(rows, r, cap, i, nxt, prod * s)


def _search_subgroups(disc, n_ambient, r, x_budget, budget):
    if r == 0:
        return (SubgroupMatrix(disc, n_ambient, []),)
    rows = _StagedRows(_killing_stages(disc, n_ambient, x_budget, []))  # all rows kill
    seen: dict = {}
    examined = 0
    for chosen in _row_choices(rows, r, x_budget):
        examined += 1
        if examined > budget:
            raise BudgetExceededError(f"examined more than {budget} candidate matrices")
        canon = _label_within(disc, n_ambient, chosen, x_budget)
        if canon is not None:
            seen.setdefault(canon.rows, canon)
    return tuple(sorted(seen.values(), key=lambda m: (surrogate_degree(m), _tie_key(m))))


def _label_within(disc: int, n_ambient: int, chosen, x_budget: int):
    """The canonical label (the Hermite form of the saturation) of the
    subgroup that ``chosen`` cuts out, or None when it loses rank or its
    surrogate degree exceeds x_budget."""
    canon = saturate(SubgroupMatrix(disc, n_ambient, chosen, check_rank=False))
    if canon.r == len(chosen) and surrogate_degree(canon) <= x_budget:
        return canon
    return None


def _tie_key(m: SubgroupMatrix) -> tuple:
    """Minor sum, then entries: how the oracle picks among its candidates,
    and how the enumerator orders labels of equal surrogate degree."""
    return degree_surrogate(m).minor_sum, tuple((e.a, e.b) for row in m.rows for e in row)


def _dedup_unit_rows(disc: int, rows) -> list[tuple]:
    """The first of each unit-scaling class among (summed norm, flat) rows,
    in input order, as (summed norm, element row).

    Unit multiples are taken on the flat coordinates.  Every unit multiple
    of a killing row kills and has the same summed norm, so each one is met
    at most once and leaves the seen-set when met.
    """
    t, n0 = _OMEGA[disc]
    others = [(u.a, u.b) for u in units(disc)[1:]]
    seen = set()
    out = []
    for s, flat in rows:
        if flat in seen:
            seen.remove(flat)
            continue
        pairs = list(zip(flat[::2], flat[1::2]))
        for ua, ub in others:
            seen.add(tuple(
                c
                for a, b in pairs
                for c in (ua * a - n0 * ub * b, ua * b + ub * a + t * ub * b)
            ))
        out.append((s, ints_to_vector(disc, flat)))
    return out


def brute_force_minimal_coset(
    point: PointInEN, x_budget: int = 16, budget: int = 2_000_000
):
    """Smallest-dimension connected subgroup within the surrogate budget
    whose coset through the point contains it, found without the one-shot
    kernel computation: rows within the budget that kill the coefficient
    matrix in its integer model are listed, and maximal independent sets of
    killing rows are assembled by direct search.  Ties are broken by minor
    sums, then by entries.  Returns (matrix, torsion part, dimension).

    Every killing row lies in the left kernel of the coefficient matrix, so
    the kill rank is at most N - rank(model)/2.  Rows are listed in stages
    until they reach that rank, and later only as the search reads them."""
    disc = point.spec.disc
    n_ambient = point.N
    model = integer_model(zip(*point.coefficient_rows()), disc, n_ambient)
    bound = n_ambient - rank_int(model) // 2
    killing = _StagedRows(_killing_stages(disc, n_ambient, x_budget, model))
    kill_rank = 0
    while kill_rank < bound and killing.grow():
        kill_rank = _rank([row for _, row in killing])
    if kill_rank > bound:
        raise AssertionError(f"killing rows of rank {kill_rank} exceed the kernel rank {bound}")

    examined = 0
    for r in range(kill_rank, 0, -1):
        candidates: list[SubgroupMatrix] = []
        for chosen in _row_choices(killing, r, x_budget):
            examined += 1
            if examined > budget:
                raise BudgetExceededError(f"examined more than {budget} candidate matrices")
            canon = _label_within(disc, n_ambient, chosen, x_budget)
            if canon is not None:
                candidates.append(canon)
            if r == kill_rank:
                # all maximal independent subsets span the same saturation,
                # so the top level is decided by its first leaf
                break
        if candidates:
            return min(candidates, key=_tie_key), point.torsion_point(), n_ambient - r
    empty = SubgroupMatrix(disc, n_ambient, [])
    return empty, point.torsion_point(), n_ambient
