"""Finite-rank modules of points with a hermitian Néron-Tate pairing.

A module spec fixes independent generators g_1..g_t of non-torsion points,
their pairing gram matrix over the CM field, and a cyclic torsion part O/RO.
Points of E^N over the module have coordinates alpha_i . g + beta_i * T with
alpha_i in O^t and beta_i a class mod R; heights and pairings extend from the
gram matrix sesquilinearly (linear in the first slot, conjugate-linear in the
second), so h(tau * p) = norm(tau) * h(p) holds exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .orders import DiscMismatchError, OrderElement, QuadRat, _Frozen, _as_element
from .subgroups import (
    SubgroupMatrix,
    TorsionPoint,
    _left_kernel,
    hnf,
)


class ModuleSpec(_Frozen):
    """Generators-and-gram description of a finite-rank point module."""

    __slots__ = ("disc", "rank", "gram", "torsion_order")

    def __init__(self, disc: int, rank: int, gram, torsion_order: int = 1):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if torsion_order < 1:
            raise ValueError("torsion order must be positive")
        g = []
        for row in gram:
            out = []
            for e in row:
                if isinstance(e, QuadRat):
                    if e.disc != disc:
                        raise DiscMismatchError(f"gram discriminant {e.disc} != {disc}")
                    out.append(e)
                elif isinstance(e, tuple):
                    out.append(QuadRat(disc, e[0], e[1]))
                else:
                    out.append(QuadRat(disc, e, 0))
            g.append(tuple(out))
        if len(g) != rank or any(len(row) != rank for row in g):
            raise ValueError(f"gram must be {rank} x {rank}")
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "gram", tuple(g))
        object.__setattr__(self, "torsion_order", int(torsion_order))
        self._validate_gram()

    def _validate_gram(self) -> None:
        g = self.gram
        for i in range(self.rank):
            for j in range(self.rank):
                if g[j][i] != g[i][j].conjugate():
                    raise ValueError(f"gram is not hermitian at ({i}, {j})")
        # Sylvester: all leading principal minors D_k positive.  Elimination
        # without row exchanges has pivots D_k / D_{k-1}, rational by hermitian
        # symmetry, so the first pivot that is not positive names the minor.
        A = [list(row) for row in g]
        for k, pivot_row in enumerate(A):
            p = pivot_row[k]
            if p.y != 0 or p.x <= 0:
                raise ValueError(f"gram is not positive definite (minor {k + 1})")
            for row in A[k + 1 :]:
                f = row[k] / p
                row[k:] = [x - f * y for x, y in zip(row[k:], pivot_row[k:])]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleSpec):
            return NotImplemented
        return (self.disc, self.rank, self.gram, self.torsion_order) == (
            other.disc,
            other.rank,
            other.gram,
            other.torsion_order,
        )

    def __hash__(self):
        return hash((self.disc, self.rank, self.gram, self.torsion_order))

    def __repr__(self) -> str:
        return (
            f"ModuleSpec(disc={self.disc}, rank={self.rank}, "
            f"torsion_order={self.torsion_order})"
        )


class ModulePoint(_Frozen):
    """A point alpha . g + beta * T of a single factor E."""

    __slots__ = ("spec", "free", "torsion")

    def __init__(self, spec: ModuleSpec, free, torsion: OrderElement | int = 0):
        conv = [_as_element(spec.disc, a) for a in free]
        if len(conv) != spec.rank:
            raise ValueError(f"need {spec.rank} free coefficients, got {len(conv)}")
        torsion = _as_element(spec.disc, torsion)
        R = spec.torsion_order
        torsion = OrderElement(spec.disc, torsion.a % R, torsion.b % R)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "free", tuple(conv))
        object.__setattr__(self, "torsion", torsion)

    def _check(self, other: ModulePoint) -> None:
        if self.spec != other.spec:
            raise ValueError("points live over different module specs")

    def __add__(self, other: ModulePoint) -> ModulePoint:
        self._check(other)
        return ModulePoint(
            self.spec,
            [a + b for a, b in zip(self.free, other.free)],
            self.torsion + other.torsion,
        )

    def __sub__(self, other: ModulePoint) -> ModulePoint:
        return self + (-other)

    def __neg__(self) -> ModulePoint:
        return ModulePoint(self.spec, [-a for a in self.free], -self.torsion)

    def scaled(self, tau: OrderElement | int) -> ModulePoint:
        return ModulePoint(
            self.spec, [tau * a for a in self.free], tau * self.torsion
        )

    def is_torsion(self) -> bool:
        return all(a.is_zero() for a in self.free)

    def is_zero(self) -> bool:
        return self.is_torsion() and self.torsion.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModulePoint):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.free == other.free
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.spec, self.free, self.torsion))

    def __repr__(self) -> str:
        return f"ModulePoint(free={[str(a) for a in self.free]}, torsion={self.torsion})"


class PointInEN(_Frozen):
    """A point of E^N with every coordinate in the same module."""

    __slots__ = ("spec", "N", "coords")

    def __init__(self, spec: ModuleSpec, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("need at least one coordinate")
        for c in coords:
            if not isinstance(c, ModulePoint):
                raise TypeError("coordinates must be ModulePoint")
            if c.spec != spec:
                raise ValueError("coordinate over a different module spec")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "N", len(coords))
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_rows(cls, spec: ModuleSpec, rows, torsions=None) -> PointInEN:
        """Coordinates from an N x rank coefficient array plus torsion classes."""
        rows = list(rows)
        if torsions is None:
            torsions = [0] * len(rows)
        elif len(torsions) != len(rows):
            raise ValueError(f"{len(rows)} coefficient rows but {len(torsions)} torsions")
        return cls(
            spec,
            [ModulePoint(spec, row, tor) for row, tor in zip(rows, torsions)],
        )

    def coefficient_rows(self) -> list[list[OrderElement]]:
        return [list(c.free) for c in self.coords]

    def torsion_point(self) -> TorsionPoint:
        """The torsion part as a point of E[R]^N, T mapped to 1/R."""
        return TorsionPoint(
            self.spec.disc,
            self.spec.torsion_order,
            [c.torsion for c in self.coords],
        )

    def is_torsion(self) -> bool:
        return all(c.is_torsion() for c in self.coords)

    def __add__(self, other: PointInEN) -> PointInEN:
        if self.spec != other.spec or self.N != other.N:
            raise ValueError("points live in different ambient powers")
        return PointInEN(self.spec, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: PointInEN) -> PointInEN:
        return self + (-other)

    def __neg__(self) -> PointInEN:
        return PointInEN(self.spec, [-c for c in self.coords])

    def scaled(self, tau: OrderElement | int) -> PointInEN:
        return PointInEN(self.spec, [c.scaled(tau) for c in self.coords])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointInEN):
            return NotImplemented
        return self.spec == other.spec and self.coords == other.coords

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __repr__(self) -> str:
        return f"PointInEN(N={self.N}, coords={list(self.coords)})"


# ---------------------------------------------------------------------------
# heights and pairings


def _pairing_free(
    spec: ModuleSpec, alpha: tuple[OrderElement, ...], beta: tuple[OrderElement, ...]
) -> QuadRat:
    acc = QuadRat.zero(spec.disc)
    for i in range(spec.rank):
        if alpha[i].is_zero():
            continue
        ai = QuadRat.from_order(alpha[i])
        for j in range(spec.rank):
            if beta[j].is_zero():
                continue
            acc = acc + ai * QuadRat.from_order(beta[j]).conjugate() * spec.gram[i][j]
    return acc


def nt_pairing(p, q) -> QuadRat:
    """Hermitian Néron-Tate pairing, sesquilinear over the CM field.

    Torsion parts pair to zero; the rational part of the value equals the
    classical pairing (h(p+q) - h(p) - h(q)) / 2.
    """
    if isinstance(p, PointInEN):
        if p.N != q.N:
            raise ValueError("points live in different ambient powers")
        acc = QuadRat.zero(p.spec.disc)
        for a, b in zip(p.coords, q.coords):
            acc = acc + nt_pairing(a, b)
        return acc
    if p.spec != q.spec:
        raise ValueError("points live over different module specs")
    return _pairing_free(p.spec, p.free, q.free)


def nt_height(p) -> Fraction:
    """Exact Néron-Tate height; zero exactly on torsion points."""
    v = nt_pairing(p, p)
    assert v.y == 0, "height of a point must be rational"
    return v.x


def isogeny_action(tau: OrderElement | int, p):
    """The image of p under the CM isogeny tau; heights scale by norm(tau)."""
    return p.scaled(tau)


# ---------------------------------------------------------------------------
# minimal cosets


def minimal_coset(x: PointInEN) -> tuple[SubgroupMatrix, TorsionPoint, int]:
    """The smallest connected subgroup B with x in B + torsion.

    B is presented by a saturated basis of the left kernel of the N x rank
    coefficient matrix.  That basis has N - rank(A) rows, so dim B, read off
    as N minus its size, equals the rank of A; the torsion translate is the
    torsion part of x itself.
    """
    A = x.coefficient_rows()
    disc, N = x.spec.disc, x.N
    U = _left_kernel(A, disc)  # (N - rank) x N, saturated
    M = hnf(SubgroupMatrix(disc, N, U, check_rank=False))
    for column in zip(*A):  # the defining equations kill the free part exactly
        assert all(e.is_zero() for e in M.evaluate(column))
    return M, x.torsion_point(), N - len(U)


def orthogonality_certificate(
    param: list[list[OrderElement]], y0: PointInEN
) -> bool:
    """Whether y0 pairs to zero with every generator image of the subgroup
    parametrized by the N x d matrix ``param``."""
    spec = y0.spec
    if len(param) != y0.N:
        raise ValueError(f"parametrization has {len(param)} rows, point has {y0.N}")
    d = len(param[0]) if param and param[0] else 0
    for j in range(d):
        column = [row[j] for row in param]
        for l in range(spec.rank):
            # the image of g_l under column j has coordinates param[i][j] * g_l
            rows = [[c if k == l else 0 for k in range(spec.rank)] for c in column]
            if nt_pairing(y0, PointInEN.from_rows(spec, rows)):
                return False
    return True


def essential_minimum_translate(
    param: list[list[OrderElement]], y0: PointInEN
) -> Fraction:
    """Height lower-bound model for the translate H + y0 with y0 orthogonal
    to the subgroup H parametrized by ``param``: returns h(y0) once the
    orthogonality certificate passes."""
    if not orthogonality_certificate(param, y0):
        raise ValueError("y0 is not orthogonal to the subgroup parametrization")
    return nt_height(y0)
