"""Reductions from finite-rank point sets to torsion varieties.

A relaxed presentation a_i * x_i = sum_j b_ij g_j + zeta_i of a point x of
E^N is eliminated against the generators: a saturated basis of the left
kernel of the coefficient matrix yields equations in the x_i alone, which cut
out a torsion variety of codimension N - rank(b).  The same presentation
lifts x against the generator tuple to a transverse coset in E^{N+t}.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm as int_lcm

from .mordell_weil import ModulePoint, PointInEN, minimal_coset
from .orders import OrderElement, QuadRat, _Frozen, _as_element, _dot, _element
from .subgroups import (
    SubgroupMatrix,
    TorsionPoint,
    _check_same,
    _hnf,
    _identity,
    _left_kernel,
    hnf,
    is_anomalous,
)


@dataclass(frozen=True)
class TorsionCoset:
    """The torsion variety {y : M y = M zeta} presented by matrix and translate.

    When M is saturated this is the single coset B + zeta of the connected
    kernel; in general it is a finite union of parallel translates of B.
    """

    subgroup: SubgroupMatrix
    zeta: TorsionPoint

    def __post_init__(self):
        if self.subgroup.N != self.zeta.N:
            raise ValueError("matrix and translate live in different powers")

    @property
    def dim(self) -> int:
        return self.subgroup.dim

    @property
    def codim(self) -> int:
        return self.subgroup.r

    def contains(self, x: PointInEN) -> bool:
        """Exact membership: free parts are killed by M, and the torsion part
        beta/R of x matches the translate zeta/l under M, that is
        M*((L/R)*beta - (L/l)*zeta) vanishes modulo L = lcm(R, l)."""
        M, zeta = self.subgroup, self.zeta
        if x.N != M.N:
            return False
        for column in zip(*x.coefficient_rows()):
            if any(M.evaluate(column)):
                return False
        _check_same(M.disc, M.N, x.spec.disc, x.N)
        _check_same(M.disc, M.N, zeta.disc, zeta.N)
        L = int_lcm(x.spec.torsion_order, zeta.level)
        k, m = L // x.spec.torsion_order, L // zeta.level
        diff = [_element(M.disc, k * c.torsion.a - m * z.a, k * c.torsion.b - m * z.b)
                for c, z in zip(x.coords, zeta.coords)]
        return not any(e.a % L or e.b % L for e in M.evaluate(diff))


class GammaPoint(_Frozen):
    """A point of E^N together with a relaxed presentation over the module:
    multipliers a_i (non-zero) with a_i * x_i = sum_j b_ij g_j + zeta_i."""

    __slots__ = ("point", "multipliers")

    def __init__(self, point: PointInEN, multipliers=None):
        if multipliers is None:
            multipliers = [OrderElement.one(point.spec.disc)] * point.N
        conv = [_as_element(point.spec.disc, a) for a in multipliers]
        if any(a.is_zero() for a in conv):
            raise ValueError("multipliers must be non-zero")
        if len(conv) != point.N:
            raise ValueError(f"need {point.N} multipliers, got {len(conv)}")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "multipliers", tuple(conv))

    def coefficient_matrix(self) -> list[list[OrderElement]]:
        """The N x rank matrix b with b_ij = a_i * alpha_ij."""
        A = self.point.coefficient_rows()
        return [
            [self.multipliers[i] * e for e in row] for i, row in enumerate(A)
        ]


def gamma_to_torsion_variety(gp: GammaPoint) -> TorsionCoset:
    """Eliminate the generators from the relaxed presentation of x.

    Returns a torsion variety of codimension N - rank(b) containing x; a
    non-torsion point of E^1-rank presentation in E^N lands in codimension
    N - 1, and a torsion x yields the zero-dimensional coset through x.
    """
    x = gp.point
    disc, N = x.spec.disc, x.N
    B = gp.coefficient_matrix()
    U = _left_kernel(B, disc)  # (N - rank(b)) x N, saturated
    if len(U) == N:
        M = _hnf(_identity(N), disc, N)  # the identity, already in Hermite form
        return TorsionCoset(M, x.torsion_point())
    raw_rows = [
        [U[k][i] * gp.multipliers[i] for i in range(N)] for k in range(len(U))
    ]
    if not raw_rows:
        M = SubgroupMatrix(disc, N, [], check_rank=False)
        return TorsionCoset(M, TorsionPoint.zero(disc, N))
    R = x.spec.torsion_order
    beta = [c.torsion for c in x.coords]
    # zeta solves M z = M beta / R.  The raw rows are independent (U is a
    # saturated kernel basis, every multiplier is non-zero), so the Hermite
    # form of [M | M beta] pivots only in the first N columns: those are
    # hnf(M), and the last column carries the right-hand side along.
    aug = [row + [_dot(disc, row, beta)] for row in raw_rows]
    H = hnf(SubgroupMatrix(disc, N + 1, aug, check_rank=False)).rows
    # back-substitution gives the one solution that is zero off the pivots
    z = [QuadRat.zero(disc)] * N
    for row in reversed(H):
        c = next(j for j, e in enumerate(row) if e)
        acc = QuadRat.from_order(row[N]) / R
        for j in range(c + 1, N):
            acc = acc - z[j] * row[j]
        z[c] = acc / row[c]
    level = int_lcm(1, *(c.d for c in z))
    coords = [_element(disc, c.p * (level // c.d), c.q * (level // c.d)) for c in z]
    zeta = TorsionPoint(disc, level, coords)
    M = SubgroupMatrix(disc, N, [row[:N] for row in H], check_rank=False)
    coset = TorsionCoset(M, zeta)
    assert coset.contains(x)
    return coset


def transverse_lift(gp: GammaPoint) -> tuple[PointInEN, TorsionCoset]:
    """Lift x against the generator tuple g to the point (x, g) of E^{N+t}.

    The returned coset has codimension N and dimension t and contains the
    lifted point; an all-torsion x has no transverse lift and is rejected.
    """
    x = gp.point
    spec = x.spec
    disc, N, t = spec.disc, x.N, spec.rank
    if x.is_torsion():
        raise ValueError("point is torsion: the lift is degenerate")
    B = gp.coefficient_matrix()
    zero = OrderElement.zero(disc)
    rows = []
    for i in range(N):
        row = [zero] * (N + t)
        row[i] = gp.multipliers[i]
        for j in range(t):
            row[N + j] = -B[i][j]
        rows.append(row)
    M = SubgroupMatrix(disc, N + t, rows, check_rank=False)
    beta = [c.torsion for c in x.coords]
    zeta = TorsionPoint(
        disc, spec.torsion_order, beta + [zero] * t
    )
    coset = TorsionCoset(M, zeta)
    gen_rows = [[int(i == j) for j in range(t)] for i in range(t)]
    lifted = PointInEN(
        spec,
        list(x.coords)
        + [ModulePoint(spec, row, 0) for row in gen_rows],
    )
    assert coset.dim == t and coset.codim == N
    assert coset.contains(lifted)
    return lifted, coset


@dataclass(frozen=True)
class VarietyParams:
    """Ambient power and dimension of the subvariety being intersected."""

    n_ambient: int
    dim: int

    def __post_init__(self):
        if not 0 <= self.dim < self.n_ambient:
            raise ValueError(f"need 0 <= dim < N, got dim={self.dim}, N={self.n_ambient}")


@dataclass(frozen=True)
class AnomalyReport:
    verdict: str
    dim_b: int
    relative_codim: int
    theorem_id: str
    coset: TorsionCoset

    def to_json_dict(self) -> dict:
        from .serialize import matrix_to_json_dict, torsion_point_to_json_dict

        return {
            "verdict": self.verdict,
            "dimB": self.dim_b,
            "relative_codim": self.relative_codim,
            "theorem_id": self.theorem_id,
            "coset": {
                "matrix": matrix_to_json_dict(self.coset.subgroup),
                "zeta": torsion_point_to_json_dict(self.coset.zeta),
            },
        }


def classify_point(V: VarietyParams, x: PointInEN) -> AnomalyReport:
    """Classify x as a candidate torsion-anomalous point of V.

    The minimal coset B + zeta through x decides the verdict: dim-0
    components are anomalous iff dim V + dim B < N.  The theorem id names
    the applicable bound family: the Manin-Mumford regime for torsion x,
    the isolated-point regime for dim B = 1, the curve regime when V is a
    curve and B has codimension above N/2.
    """
    if V.n_ambient != x.N:
        raise ValueError(f"variety lives in E^{V.n_ambient}, point in E^{x.N}")
    M, zeta, dim_b = minimal_coset(x)
    coset = TorsionCoset(M, zeta)
    anomalous = is_anomalous(0, V.dim, dim_b, x.N)
    if dim_b == 0:
        theorem = "manin_mumford"
    elif not anomalous:
        theorem = ""
    elif dim_b == 1:
        theorem = "tadimzero"
    elif V.dim == 1 and 2 * (x.N - dim_b) > x.N:
        theorem = "curva"
    else:
        theorem = ""
    return AnomalyReport(
        verdict="anomalous" if anomalous else "not_anomalous",
        dim_b=dim_b,
        relative_codim=dim_b,
        theorem_id=theorem,
        coset=coset,
    )
