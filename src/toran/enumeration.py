"""Exhaustive listings: torsion points, small connected subgroups, and a
brute-force oracle for the minimal coset through a point.

Subgroups of codimension r in E^N are listed through r x N coefficient
matrices whose surrogate degree, the product over rows of the summed entry
norms, stays within a budget X.  Each connected subgroup has one label, the
Hermite form of its saturation.  The listing walks the matrices in Hermite
form within X, each once, and keeps the saturated ones, so the output is
exactly the set of labels within X.  The oracle settles its top level with
one saturation and walks the same labels, restricted to killing rows, below
it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from operator import add

from .bounds import _jordan_totient
from .intlattice import hnf_int, rank_int
from .mordell_weil import PointInEN
from .orders import (
    EUCLIDEAN_DISCS,
    OrderElement,
    _elements_norm_le,
    canonical_residue,
    canonicalizing_unit,
)
from .subgroups import (
    BudgetExceededError,
    SubgroupMatrix,
    TorsionPoint,
    _rank,
    _row_norm_product,
    degree_surrogate,
    integer_model,
    ints_to_vector,
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


@lru_cache(maxsize=64)
def _associates(disc: int, cap: int) -> tuple[tuple, ...]:
    """(norm, a, b) for each nonzero canonical associate of norm at most
    cap, sorted by norm: the pivots hnf can leave."""
    return tuple(
        (ne, a, b)
        for ne, a, b in _norm_box(disc, cap)
        if ne and canonicalizing_unit(OrderElement(disc, a, b)) == 1
    )


@lru_cache(maxsize=256)
def _residues(disc: int, a: int, b: int) -> tuple[tuple, ...]:
    """(norm, a, b) for each canonical residue modulo the nonzero a + b*w,
    sorted by norm: the entries hnf can leave above that pivot.  Every
    residue has a smaller norm than the modulus, since all five orders are
    norm-Euclidean."""
    mod = OrderElement(disc, a, b)
    return tuple(
        (ne, x, y)
        for ne, x, y in _norm_box(disc, mod.norm() - 1)
        if canonical_residue(OrderElement(disc, x, y), mod) == OrderElement(disc, x, y)
    )


def _hermite_rows(boxes, cap: int, cols, start: int) -> list[tuple]:
    """(summed norm, flat row) for each row that is zero before column
    ``start``, takes its entry in column start + k from the sorted (norm,
    a, b) tuple boxes[k], has summed norm at most cap and is killed by the
    model whose columns are ``cols``.  The image is accumulated per column,
    as in _killing_rows."""
    n_ambient = start + len(boxes)
    out = []
    stack = [(0, (0, 0) * start, (0,) * len(cols[0]))]
    while stack:
        used, flat, img = stack.pop()
        k = len(flat) // 2
        if k == n_ambient:
            if not any(img):
                out.append((used, flat))
            continue
        xs, ys = cols[2 * k], cols[2 * k + 1]
        for ne, a, b in boxes[k - start]:
            if used + ne > cap:
                break
            step = tuple(v + a * x + b * y for v, x, y in zip(img, xs, ys))
            stack.append((used + ne, flat + (a, b), step))
    return out


def _labels(disc: int, n_ambient: int, r: int, x_budget: int, model):
    """Every r x N matrix in hnf's form whose row-norm product is at most
    x_budget, as a tuple of element rows, whose rows the integer model all
    kills; an empty model kills every row.

    For each choice of pivot columns the rows are built bottom-up, each
    capped at x_budget // (product so far).  A row is zero before its
    pivot, the pivot is a canonical associate, and its entry in each lower
    row's pivot column is a canonical residue modulo that pivot, so hnf
    fixes every matrix listed and each is listed once.
    """
    cols = [tuple(m[k] for m in model) for k in range(2 * n_ambient)]
    box = _norm_box(disc, x_budget)
    for pivots in combinations(range(n_ambient), r):
        stack = [((), 1)]
        while stack:
            below, prod = stack.pop()
            i = r - 1 - len(below)
            if i < 0:
                yield tuple(ints_to_vector(disc, flat) for flat in below)
                continue
            lower = dict(zip(pivots[i + 1 :], below))
            boxes = [_associates(disc, x_budget)]
            for k in range(pivots[i] + 1, n_ambient):
                flat = lower.get(k)
                boxes.append(box if flat is None else _residues(disc, *flat[2 * k : 2 * k + 2]))
            for s, flat in _hermite_rows(boxes, x_budget // prod, cols, pivots[i]):
                stack.append(((flat,) + below, prod * s))


def _saturated_labels(disc, n_ambient, r, x_budget, model, budget, examined=0):
    """The _labels whose integer model has every Smith invariant 1, that
    is the saturated ones, as matrices, with the running count of labels
    examined; past ``budget`` labels it raises BudgetExceededError.  They
    are all 1 exactly when the 2r x 2N model's columns span Z^{2r}: the
    Hermite form of its transpose is the identity, with no Smith transform."""
    out = []
    identity = tuple(tuple(int(i == j) for j in range(2 * r)) for i in range(2 * r))
    for rows in _labels(disc, n_ambient, r, x_budget, model):
        examined += 1
        if examined > budget:
            raise BudgetExceededError(f"examined more than {budget} candidate matrices")
        if hnf_int(list(zip(*integer_model(rows, disc, n_ambient)))) == identity:
            out.append(SubgroupMatrix(disc, n_ambient, rows, check_rank=False))
    return out, examined


def enumerate_subgroups(
    disc: int,
    n_ambient: int,
    dim: int,
    x_budget: int,
    budget: int = 2_000_000,
) -> tuple[SubgroupMatrix, ...]:
    """Connected subgroups of the given dimension whose canonical matrix has
    surrogate degree at most x_budget, sorted by (surrogate, minors, entries).

    Each subgroup is listed through its label, the Hermite form of its
    saturation: the walk over matrices in Hermite form within x_budget
    (_labels) keeps the saturated ones.  At most ``budget`` labels are
    examined.
    """
    if disc not in EUCLIDEAN_DISCS:
        raise ValueError(f"unsupported discriminant {disc}")
    if not 0 <= dim <= n_ambient:
        raise ValueError(f"need 0 <= dim <= N, got dim={dim}, N={n_ambient}")
    if x_budget < 1:
        raise ValueError("need a positive surrogate budget")
    if budget < 0:
        raise ValueError(f"need a non-negative candidate budget, got {budget}")
    if dim == n_ambient:
        return (SubgroupMatrix(disc, n_ambient, []),)
    found, _ = _saturated_labels(disc, n_ambient, n_ambient - dim, x_budget, (), budget)
    return tuple(sorted(found, key=lambda m: (surrogate_degree(m), _tie_key(m))))


def _tie_key(m: SubgroupMatrix) -> tuple:
    """Minor sum, then entries: how the oracle picks among its candidates,
    and how the enumerator orders labels of equal surrogate degree."""
    return degree_surrogate(m).minor_sum, tuple((e.a, e.b) for row in m.rows for e in row)


def brute_force_minimal_coset(
    point: PointInEN, x_budget: int = 16, budget: int = 2_000_000
):
    """Smallest-dimension connected subgroup within the surrogate budget
    whose coset through the point contains it, found without the one-shot
    kernel computation.  Ties are broken by minor sums, then by entries.
    Returns (matrix, torsion part, dimension).

    Rows within the budget that kill the coefficient matrix in its integer
    model lie in its left kernel, so their rank is at most N - rank(model)/2;
    they are listed (_killing_rows) in stages of growing cap (1, 2, 4, 8,
    then x_budget) until they reach that rank.  Every maximal independent
    set of them spans the same saturation, so the top level is one
    saturation of their span, counted as one label examined.  Below it,
    each level walks the labels whose rows all kill (_labels with the model).
    """
    disc = point.spec.disc
    n_ambient = point.N
    model = integer_model(zip(*point.coefficient_rows()), disc, n_ambient)
    bound = n_ambient - rank_int(model) // 2
    caps = [c for c in (1, 2, 4, 8) if c < x_budget] + [x_budget]
    killing = []
    kill_rank = 0
    for low, cap in zip([0] + caps, caps):
        if kill_rank >= bound:
            break
        rows = _killing_rows(disc, n_ambient, cap, model, low)
        if rows:
            killing += [ints_to_vector(disc, flat) for _, flat in rows]
            kill_rank = _rank(killing)
    if kill_rank > bound:
        raise AssertionError(f"killing rows of rank {kill_rank} exceed the kernel rank {bound}")

    empty = SubgroupMatrix(disc, n_ambient, [])
    if kill_rank == 0:
        return empty, point.torsion_point(), n_ambient
    if budget < 1:
        raise BudgetExceededError(f"examined more than {budget} candidate matrices")
    top = saturate(SubgroupMatrix(disc, n_ambient, killing, check_rank=False))
    if surrogate_degree(top) <= x_budget:
        return top, point.torsion_point(), n_ambient - kill_rank
    examined = 1
    for r in range(kill_rank - 1, 0, -1):
        found, examined = _saturated_labels(
            disc, n_ambient, r, x_budget, model, budget, examined
        )
        if found:
            return min(found, key=_tie_key), point.torsion_point(), n_ambient - r
    return empty, point.torsion_point(), n_ambient
