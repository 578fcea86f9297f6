"""Small exact solutions of linear systems over the order, with certificates.

The kernel of an m x n full-row-rank system is a free module of rank n - m;
its rank-2(n-m) integer image is reduced with exact-arithmetic LLL under the
trace form, and the smallest fraction-field-independent vectors are returned
together with a norm certificate of Siegel shape: the largest coordinate
norm is at most c * (product of row norm sums)^(m/(n-m)).  For small n, when
that certificate fails, an exhaustive box search replaces the reduced basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .orders import (
    _OMEGA,
    OrderElement,
    _as_element,
    _elements_norm_le,
    canonicalizing_unit,
)
from .subgroups import (
    SubgroupMatrix,
    _kernel_basis,
    _rank,
    _row_norm_product,
    _z_basis,
    ints_to_vector,
    orthogonal_complement,
    saturate,
)

#: default certificate constant; empirically stable across the five orders
#: for dense systems with entry norms up to a few hundred.
DEFAULT_SIEGEL_CONSTANT = Fraction(8)


class LinearSystem(SubgroupMatrix):
    """An m x n system over the order: a ``SubgroupMatrix`` with m < n."""

    __slots__ = ()

    def __init__(self, disc: int, rows):
        rows = list(rows)
        if not rows:
            raise ValueError("system needs at least one row")
        m, n = len(rows), len(rows[0])
        if m >= n:
            raise ValueError(f"need fewer equations than unknowns, got {m} x {n}")
        super().__init__(disc, n, rows)

    m = property(lambda self: self.r)
    n = property(lambda self: self.N)

    @classmethod
    def from_ints(cls, disc: int, rows) -> LinearSystem:
        return cls(disc, [[_as_element(disc, e) for e in row] for row in rows])

    def row_height(self, i: int) -> int:
        return _row_norm_product([self.rows[i]])

    def size_term(self) -> int:
        return _row_norm_product(self.rows)


@dataclass(frozen=True)
class SiegelCertificate:
    """Certificate max_i norm(v_i) <= c * size_term^(m/(n-m)) for the returned
    solutions; the comparison is exact via (n-m)-th powers."""

    achieved_norm: int
    size_term: int
    exp_num: int  # m
    exp_den: int  # n - m
    constant: Fraction

    def holds(self) -> bool:
        lhs = Fraction(self.achieved_norm) ** self.exp_den
        rhs = self.constant**self.exp_den * Fraction(self.size_term) ** self.exp_num
        return self.constant > 0 and lhs <= rhs  # even powers hide the sign


def _trace_gram(disc: int, u: list, v: list):
    # sum of Tr(u_i * conj(v_i)) over coordinates, in (a, b) interleaved form;
    # exact for integer or Fraction coordinates
    t, n0 = _OMEGA[disc]
    acc = 0
    for i in range(0, len(u), 2):
        a1, b1, a2, b2 = u[i], u[i + 1], v[i], v[i + 1]
        acc += 2 * a1 * a2 + t * (a1 * b2 + a2 * b1) + 2 * n0 * b1 * b2
    return acc


def _lll(disc: int, basis: list[list[int]]) -> list[list[int]]:
    """Exact LLL (delta = 3/4) under the coordinate-wise trace form.

    Needs a Z-independent basis, as ``_z_basis`` of a saturated kernel is, so
    every |b*_j|^2 > 0.  The Gram-Schmidt runs once; mu and |b*|^2 are then
    kept in place (Cohen, Alg. 2.6.3).  Size reduction b_k -= q*b_j keeps each
    b*_i, so only mu's row k moves (RED): mu_ki -= q*mu_ji for i < j, then
    mu_kj -= q.  Swapping b_{k-1} and b_k (SWAP), with m = mu_k,k-1 and
    B = |b*_k|^2 + m^2 |b*_k-1|^2, sets mu_k,k-1 = m |b*_k-1|^2 / B,
    |b*_k|^2 = |b*_k-1|^2 |b*_k|^2 / B and |b*_k-1|^2 = B; it exchanges rows
    k-1 and k of mu left of column k-1, and for each i > k, with t = mu_ik,
    sets mu_ik = mu_i,k-1 - m*t, then mu_i,k-1 = t + mu_k,k-1 * mu_ik.
    """
    b = [list(v) for v in basis]
    k_max = len(b)
    if k_max <= 1:
        return b
    mu = [[Fraction(0)] * k_max for _ in range(k_max)]
    bstar, bstar_norm = [], []
    for i in range(k_max):
        vec = [Fraction(x) for x in b[i]]
        for j in range(i):
            mu[i][j] = _trace_gram(disc, b[i], bstar[j]) / bstar_norm[j]
            vec = [x - mu[i][j] * y for x, y in zip(vec, bstar[j])]
        bstar.append(vec)
        bstar_norm.append(_trace_gram(disc, vec, vec))
    k = 1
    while k < k_max:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if bstar_norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar_norm[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            m = mu[k][k - 1]
            big = bstar_norm[k] + m * m * bstar_norm[k - 1]
            mu[k][k - 1] = m * bstar_norm[k - 1] / big
            bstar_norm[k] = bstar_norm[k - 1] * bstar_norm[k] / big
            bstar_norm[k - 1] = big
            mu[k - 1][: k - 1], mu[k][: k - 1] = mu[k][: k - 1], mu[k - 1][: k - 1]
            for i in range(k + 1, k_max):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
    return b


def _max_coord_norm(disc: int, flat: list[int]) -> int:
    return max(e.norm() for e in ints_to_vector(disc, flat))


def small_solution(
    system: LinearSystem,
    count: int = 1,
    constant: Fraction = DEFAULT_SIEGEL_CONSTANT,
    box_fallback: bool = True,
) -> tuple[list[list[OrderElement]], SiegelCertificate]:
    """``count`` fraction-field-independent small non-zero kernel vectors.

    Deterministic: reduced basis vectors are taken in increasing max-norm
    order.  If the certificate with the given constant fails and the system
    is small, an exhaustive box search replaces the reduced vectors.  The
    constant must be positive.
    """
    if constant <= 0:
        raise ValueError(f"need a positive constant, got {constant}")
    if not 1 <= count <= system.n - system.m:
        raise ValueError(
            f"count must lie in [1, {system.n - system.m}], got {count}"
        )
    disc = system.disc
    reduced = _lll(disc, _z_basis(_kernel_basis(system), disc))
    ordered = sorted(reduced, key=lambda f: (_max_coord_norm(disc, f), f))
    chosen: list[list[OrderElement]] = []
    for flat in ordered:
        cand = ints_to_vector(disc, flat)
        if all(e.is_zero() for e in cand):
            continue
        if _rank(chosen + [cand]) == len(chosen) + 1:
            chosen.append(_unit_normalize(cand))
        if len(chosen) == count:
            break
    assert len(chosen) == count, "kernel rank cannot be short of count"
    cert = _certificate(system, chosen, constant)
    if not cert.holds() and box_fallback and system.n <= 6:
        boxed = _box_search(system, count)
        if boxed is not None:
            chosen = boxed
            cert = _certificate(system, chosen, constant)
    for v in chosen:
        assert all(e.is_zero() for e in system.evaluate(v))
    return chosen, cert


def _unit_normalize(v: list[OrderElement]) -> list[OrderElement]:
    # scale by a unit so the leading non-zero coordinate is canonical
    for e in v:
        if not e.is_zero():
            u = canonicalizing_unit(e)
            return [u * x for x in v]
    return v


def _certificate(
    system: LinearSystem, vectors: list[list[OrderElement]], constant: Fraction
) -> SiegelCertificate:
    achieved = max(max(e.norm() for e in v) for v in vectors)
    return SiegelCertificate(
        achieved_norm=achieved,
        size_term=system.size_term(),
        exp_num=system.m,
        exp_den=system.n - system.m,
        constant=constant,
    )


def _box_search(system: LinearSystem, count: int, max_cap: int = 9):
    """Smallest solutions by exhaustive search over increasing max norm.

    Returns None when the search space would be too large; callers treat
    that as "no improvement found".
    """
    disc, n = system.disc, system.n
    for cap in range(1, max_cap + 1):
        elems = _elements_norm_le(disc, cap)
        if len(elems) ** n > 2_000_000:
            return None
        chosen: list[list[OrderElement]] = []
        for tup in iproduct(elems, repeat=n):
            v = list(tup)
            if all(e.is_zero() for e in v):
                continue
            if any(not e.is_zero() for e in system.evaluate(v)):
                continue
            if _rank(chosen + [v]) == len(chosen) + 1:
                chosen.append(v)
                if len(chosen) == count:
                    return chosen
    return None


def complete_to_square(
    M: SubgroupMatrix, constant: Fraction = DEFAULT_SIEGEL_CONSTANT
) -> tuple[SubgroupMatrix, SiegelCertificate]:
    """Extend the r x N matrix M to an invertible N x N matrix.

    The added rows are conjugates of small kernel vectors of M, so they
    present exactly the orthogonal complement of ker(M)^0; stacking them
    under M is invertible because a vector in both kernels pairs to zero
    with itself.
    """
    if M.r == 0 or M.r == M.N:
        raise ValueError("matrix must have 1 <= r < N rows to complete")
    system = LinearSystem(M.disc, M.rows)
    vectors, cert = small_solution(system, count=M.N - M.r, constant=constant)
    bottom = [[e.conjugate() for e in v] for v in vectors]
    full = SubgroupMatrix(M.disc, M.N, [list(r) for r in M.rows] + bottom)
    bottom_matrix = SubgroupMatrix(M.disc, M.N, bottom, check_rank=False)
    # system has M's rows and already holds their kernel
    assert saturate(bottom_matrix) == orthogonal_complement(system)
    return full, cert
