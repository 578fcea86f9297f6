"""Catalog of effective height, degree and cardinality bounds.

Every bound is a monomial c * prod(base_i ^ (e_i + eta * c_i)) in a handful
of named base quantities:

    h+deg          h(V) + deg(V)
    deg            deg(V)
    ktor           [k_tor(V) : k_tor]
    k              [k(V) : k]
    h+(hg+1)deg    h(V) + (h(g) + 1) * deg(V)   (lifted-curve bounds)
    kQ, degB, degY, M ...                        (per-theorem inputs)

Exponents and eta-coefficients are exact rationals; the numeric value is
exact whenever the rational power is (flagged otherwise, with a certified
40-digit approximation).  Composite ids obtained by chaining two displayed
bounds report eta-coefficients to first order in eta.  Identifiers are
mnemonics for the bound families, one id per displayed inequality.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, isqrt, lcm

from .subgroups import BudgetExceededError

Frac = Fraction


class BoundRangeError(ValueError):
    """A parameter violates the validity range of the requested bound."""


@dataclass(frozen=True)
class ExponentTerm:
    base: str
    exponent: Fraction
    eta_coeff: Fraction

    def total(self, eta: Fraction) -> Fraction:
        return self.exponent + eta * self.eta_coeff


@dataclass(frozen=True)
class BoundResult:
    theorem_id: str
    direction: str  # "upper", "lower", "interval" or "value"
    constant: Fraction
    terms: tuple[ExponentTerm, ...]
    bases: dict
    eta: Fraction
    value: Fraction
    value_exact: bool
    value_lo: Fraction | None = None

    def to_json_dict(self) -> dict:
        out = {
            "theorem_id": self.theorem_id,
            "direction": self.direction,
            "constant": str(self.constant),
            "eta": str(self.eta),
            "exponents": [
                {
                    "base": t.base,
                    "exponent": str(t.exponent),
                    "eta_coeff": str(t.eta_coeff),
                    "total": str(t.total(self.eta)),
                }
                for t in self.terms
            ],
            "bases": {k: str(v) for k, v in sorted(self.bases.items())},
            "value": exact_str(self.value),
            "value_exact": self.value_exact,
        }
        if self.value_lo is not None:
            out["value_lo"] = exact_str(self.value_lo)
        return out


def exact_str(x) -> str:
    """str(x) for an int or Fraction of any size.  CPython's int-to-str
    digit limit is process-wide, so it is lifted for this conversion only."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# exact evaluation of rational-power monomials


def _int_nth_root(x: int, d: int) -> tuple[int, bool]:
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or d == 1:
        return x, True
    r = 1 << -(-x.bit_length() // d)  # power of two at or above the root
    while True:
        nr = ((d - 1) * r + x // r ** (d - 1)) // d
        if nr >= r:
            break
        r = nr
    while r**d > x:
        r -= 1
    while (r + 1) ** d <= x:
        r += 1
    return r, r**d == x


_APPROX_DIGITS = 40


def _nth_root_fraction(fr: Fraction, d: int) -> tuple[Fraction, bool]:
    rn, en = _int_nth_root(fr.numerator, d)
    rd, ed = _int_nth_root(fr.denominator, d)
    if en and ed:
        return Fraction(rn, rd), True
    scale = 10**_APPROX_DIGITS
    approx, _ = _int_nth_root(fr.numerator * scale**d // fr.denominator, d)
    return Fraction(approx, scale), False


def _evaluate(
    constant: Fraction, terms, bases: dict, eta: Fraction
) -> tuple[Fraction, bool]:
    exps = [t.total(eta) for t in terms]
    if not exps:
        return constant, True
    d = lcm(*(e.denominator for e in exps))
    acc = Fraction(1)
    for t, e in zip(terms, exps):
        if t.base not in bases:
            raise BoundRangeError(f"missing parameter {_OPTIONAL_BASES[t.base]}")
        acc *= Fraction(bases[t.base]) ** int(e * d)
    root, exact = _nth_root_fraction(acc, d)
    return constant * root, exact


# ---------------------------------------------------------------------------
# closed-form exponents used in several places


def _isolated_codim(n: int, d: int) -> int:
    """N - 1 - d, once 1 <= d <= N-2 is checked."""
    _need(n - d - 1 >= 1, f"need d <= N-2, got d={d}, N={n}")
    _need(d >= 1, f"need d >= 1, got d={d}")
    return n - d - 1


def tadimzero_a1(n: int, d: int) -> Fraction:
    """Exponent of (h+deg)*ktor in the isolated-point count bound."""
    s = _isolated_codim(n, d)
    return Frac((n - 1) * (2 * (n + 1) * s + d * n * (2 * n + 1)), 2 * s**2)


def tadimzero_a2(n: int, d: int) -> Fraction:
    """Exponent of deg (less one) and of k in the isolated-point count bound."""
    return Frac(n * (n - 1) * (2 * n + 1), 2 * _isolated_codim(n, d))


def curva_b1(n: int, r: int) -> Fraction:
    """Dominant field-degree exponent in the curve-regime count bound."""
    _need(r >= 2, f"need r >= 2, got r={r}")
    return Frac(r * n * (2 * n + 1), 2 * (r - 1))


def curva_b2(n: int, r: int) -> Fraction:
    """Dominant height exponent in the curve-regime count bound."""
    _need(2 * r > n, f"need 2r > N, got r={r}, N={n}")
    _need(r >= 2, f"need r >= 2, got r={r}")
    return Frac(
        r * (n - r) * (2 * r * n + 2 * r - 2 + 2 * n * n - n),
        2 * (2 * r - n) * (r - 1),
    )


def teoremone_i_exponents(n: int) -> tuple[Fraction, Fraction, Fraction]:
    """The three exponents of the rank-one count bound in E^N, N > 2."""
    _need(n > 2, f"need N > 2, got N={n}")
    e1 = Frac((n - 1) * (4 * n * n - n - 4), 2 * (n - 2) ** 2)
    e2 = Frac(2 * n**3 - n * n + n - 4, 2 * (n - 2))
    e3 = Frac(n * (n - 1) * (2 * n + 1), 2 * (n - 2))
    return e1, e2, e3


def height_exponent_max(n: int) -> tuple[Fraction, int]:
    """max over integer N/2 < r <= N-1 of r / (2r - N), with its argmax."""
    _need(n >= 3, f"need N >= 3, got N={n}")
    best = None
    for r in range(n // 2 + 1, n):
        v = Frac(r, 2 * r - n)
        if best is None or v > best[0]:
            best = (v, r)
    return best


# trial division runs over the primes below _TRIAL; Miller-Rabin on the first
# 13 prime bases is exact below _MR_EXACT (Sorenson & Webster 2015)
_TRIAL = 100
_PRIMES = tuple(p for p in range(2, _TRIAL) if all(p % q for q in range(2, isqrt(p) + 1)))
_MR_BASES = _PRIMES[:13]
_MR_EXACT = 3_317_044_064_679_887_385_961_981
_RHO_STEPS = 1 << 24


def _is_prime(n: int) -> bool:
    """Miller-Rabin for n with no prime factor below _TRIAL.  A base that
    shows n composite settles it; otherwise n is prime below _MR_EXACT and
    unsettled above it, which raises BudgetExceededError."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise BudgetExceededError(
            f"cannot prove {n} prime: Miller-Rabin on 13 bases is exact below {_MR_EXACT}"
        )
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the composite n by Pollard-Brent rho (Brent 1980),
    within _RHO_STEPS iterations of y -> y^2 + c over the choices of c."""
    steps, c = 0, 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_STEPS:
                raise BudgetExceededError(f"no factor of {n} within {_RHO_STEPS} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys, batch = y, min(128, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += batch
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: redo it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def _prime_divisors(n: int) -> set[int]:
    """The primes dividing n >= 1: trial division below _TRIAL, then
    Pollard-Brent rho on the cofactor, each part checked by exact division."""
    out = set()
    for p in _PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    # from here on no part has a prime factor below _TRIAL
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if m < _TRIAL * _TRIAL or _is_prime(m):
            out.add(m)
            continue
        d = _rho_factor(m)
        assert 1 < d < m and m % d == 0
        parts += [d, m // d]
    return out


def _jordan_totient(n: int, k: int) -> int:
    """Jordan's totient J_k(n) = n^k * prod over primes p | n of (1 - p^-k):
    the k-tuples mod n of exact order n, so J_1 is Euler's phi."""
    out = n**k
    for p in _prime_divisors(n):
        out -= out // p**k
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive integer")
    return _jordan_totient(n, 1)


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise BoundRangeError(msg)


# ---------------------------------------------------------------------------
# the catalog

HDEG = "h+deg"
DEG = "deg"
KTOR = "ktor"
KREL = "k"
HDEG_G = "h+(hg+1)deg"


# the bases _standard_bases adds only when their parameter is given
_OPTIONAL_BASES = {KTOR: "ktorV", KREL: "kV"}


def _param(params: dict, name: str):
    _need(params.get(name) is not None, f"missing parameter {name}")
    return params[name]


def _pos(params: dict, name: str, minimum=1) -> Fraction:
    v = Fraction(_param(params, name))
    if v < minimum:
        raise BoundRangeError(f"need {name} >= {minimum}, got {v}")
    return v


def _int_param(params: dict, name: str, minimum=None) -> int:
    v = _param(params, name)
    if int(v) != v:
        raise BoundRangeError(f"{name} must be an integer, got {v}")
    v = int(v)
    if minimum is not None and v < minimum:
        raise BoundRangeError(f"need {name} >= {minimum}, got {v}")
    return v


def _standard_bases(params: dict, lifted: bool = False) -> dict:
    hv = _pos(params, "hV", 0)
    degv = _pos(params, "degV", 1)
    out = {DEG: degv, HDEG: hv + degv}
    for base, name in _OPTIONAL_BASES.items():
        if params.get(name) is not None:
            out[base] = _pos(params, name, 1)
    if lifted:
        hg = _pos(params, "hg", 0)
        out[HDEG_G] = hv + (hg + 1) * degv
    return out


def _t(base: str, e, c=1) -> ExponentTerm:
    return ExponentTerm(base, Fraction(e), Fraction(c))


def _compose_power(terms, outer_exp: Fraction):
    """(prod base^(e+eta c))^(outer_exp+eta), keeping eta to first order."""
    out = []
    for t in terms:
        out.append(
            ExponentTerm(
                t.base,
                t.exponent * outer_exp,
                t.eta_coeff * outer_exp + t.exponent,
            )
        )
    return out


def _b_main_degY(p):
    n, d, s = _tadimzero_range(p)
    return [_t(HDEG, Frac(n - 2, s)), _t(KTOR, Frac(d - 1, s))], _standard_bases(p)


def _b_s2c_h(p):
    return [_t(HDEG, 2), _t(KTOR, 1)], _standard_bases(p)


def _b_s2c_deg(p):
    terms = [_t(DEG, 2), _t(HDEG, 2), _t(KTOR, 2), _t(KREL, 2)]
    return terms, _standard_bases(p)


def _b_altezzacurva_h(p):
    n = _int_param(p, "N", 2)
    return [
        _t(HDEG, Frac(n + 1, 2)),
        _t(KTOR, Frac(n - 1, 2)),
    ], _standard_bases(p)


def _b_altezzacurva_deg(p):
    n = _int_param(p, "N", 2)
    terms = [
        _t(DEG, Frac(n + 1, n - 1)),
        _t(KREL, Frac(n + 1, n - 1)),
        _t(HDEG, Frac(n + 1, 2)),
        _t(KTOR, Frac(n + 1, 2)),
    ]
    return terms, _standard_bases(p)


def _b_ml1(p):
    n = _int_param(p, "N", 3)
    return [
        _t(HDEG, Frac(n - 1, n - 2)),
        _t(KTOR, Frac(1, n - 2)),
    ], _standard_bases(p)


def _b_ml2(p):
    return [_t(KTOR, 1), _t(HDEG_G, 2)], _standard_bases(p, lifted=True)


def _b_mlr(p):
    n, t = _int_param(p, "N", 3), _int_param(p, "t", 1)
    _need(2 * t < n, f"need 2t < N, got t={t}, N={n}")
    return [
        _t(HDEG, Frac(n - t, n - 2 * t)),
        _t(KTOR, Frac(t, n - 2 * t)),
    ], _standard_bases(p)


def _b_mltre(p):
    n, t = _int_param(p, "N", 2), _int_param(p, "t", 1)
    _need(t <= n - 1, f"need t <= N-1, got t={t}, N={n}")
    return [
        _t(KTOR, Frac(t, n - t)),
        _t(HDEG_G, Frac(n, n - t)),
    ], _standard_bases(p, lifted=True)


def _b_teoremone_i(p):
    n = _int_param(p, "N", 3)
    e1, e2, e3 = teoremone_i_exponents(n)
    terms = [_t(HDEG, e1), _t(KTOR, e1), _t(DEG, e2), _t(KREL, e3)]
    return terms, _standard_bases(p)


def _b_teoremone_ii(p):
    terms = [_t(KTOR, 29), _t(HDEG_G, 29), _t(DEG, 22), _t(KREL, 21)]
    return terms, _standard_bases(p, lifted=True)


def _b_teoremone_iii(p):
    n, t = _int_param(p, "N", 3), _int_param(p, "t", 1)
    _need(2 * t < n, f"need 2t < N, got t={t}, N={n}")
    ea = Frac(
        t * (n - t) * (4 * n * n - 2 * n * t + n - 2 * t - 2),
        2 * (n - 2 * t) * (n - t - 1),
    )
    ec = Frac(n * (2 * n + 1) * (n - t), 2 * (n - t - 1))
    terms = [_t(HDEG, ea), _t(KTOR, ea), _t(DEG, ec + 1), _t(KREL, ec)]
    return terms, _standard_bases(p)


def _b_teoremone_iv(p):
    n, t = _int_param(p, "N", 2), _int_param(p, "t", 1)
    _need(t <= n - 1, f"need t <= N-1, got t={t}, N={n}")
    ea = Frac(
        n * t * (4 * n * n + 2 * t * t + 6 * n * t + n - t - 2),
        2 * (n - t) * (n - 1),
    )
    ec = Frac((n + t) * n * (2 * n + 2 * t + 1), 2 * (n - 1))
    terms = [_t(KTOR, ea), _t(HDEG_G, ea), _t(DEG, ec + 1), _t(KREL, ec)]
    return terms, _standard_bases(p, lifted=True)


def _codim_range(p) -> tuple[int, int, int]:
    n, d, r = _int_param(p, "N", 2), _int_param(p, "d", 0), _int_param(p, "r", 1)
    _need(d < n, f"need d < N, got d={d}, N={n}")
    _need(n - d >= 2, f"need codim V >= 2, got codim={n - d}")
    _need(r <= n, f"need r <= N, got r={r}, N={n}")
    return n, d, r


def _b_weakstrict_degB(p):
    n, d, r = _codim_range(p)
    return [_t(HDEG, Frac(r, n - d - 1))], _standard_bases(p)


def _b_weakstrict_degY(p):
    n, d, r = _codim_range(p)
    return [_t(DEG, 1, 0), _t(HDEG, Frac(r, n - d - 1) - 1)], _standard_bases(p)


def _tadimzero_range(p) -> tuple[int, int, int]:
    n, d = _int_param(p, "N", 2), _int_param(p, "d", 1)
    return n, d, _isolated_codim(n, d)


def _b_tadimzero_degB(p):
    n, d, s = _tadimzero_range(p)
    e = Frac(n - 1, s)
    return [_t(HDEG, e), _t(KTOR, e)], _standard_bases(p)


def _b_tadimzero_hY0(p):
    n, d, s = _tadimzero_range(p)
    return [_t(HDEG, Frac(n - 1, s)), _t(KTOR, Frac(d, s))], _standard_bases(p)


def _b_tadimzero_ktorY0(p):
    n, d, s = _tadimzero_range(p)
    terms = [_t(DEG, 1, 0), _t(KTOR, Frac(n - 1, s)), _t(HDEG, Frac(d, s))]
    return terms, _standard_bases(p)


def _kY0_terms(n: int, d: int) -> list[ExponentTerm]:
    s = n - 1 - d
    e1 = Frac(d * (n - 1), s * s)
    e2 = Frac(n - 1, s)
    return [_t(HDEG, e1), _t(KTOR, e1), _t(DEG, e2), _t(KREL, e2)]


def _b_tadimzero2_kY0(p):
    n, d, _ = _tadimzero_range(p)
    return _kY0_terms(n, d), _standard_bases(p)


def _b_tadimzero2_ordzeta(p):
    n, d, _ = _tadimzero_range(p)
    return _compose_power(_kY0_terms(n, d), Frac(n, 2)), _standard_bases(p)


def _b_tadimzero2_S(p):
    n, d, _ = _tadimzero_range(p)
    a1, a2 = tadimzero_a1(n, d), tadimzero_a2(n, d)
    terms = [_t(HDEG, a1), _t(KTOR, a1), _t(DEG, a2 + 1), _t(KREL, a2)]
    return terms, _standard_bases(p)


def _trasla_range(p) -> tuple[int, int, int, int]:
    n, d, r = _codim_range(p)
    r1 = r + d - n + 1  # dim V - dim B + 1
    _need(r1 >= 0, f"need dim B <= dim V + 1, got dim B={n - r}, dim V={d}")
    return n, d, r, r1


def _b_trasla_degB(p):
    n, d, r, _ = _trasla_range(p)
    e = Frac(r, n - d - 1)
    return [_t(HDEG, e), _t(KTOR, e)], _standard_bases(p)


def _b_trasla_h(p):
    n, d, r, r1 = _trasla_range(p)
    s = n - d - 1
    return [_t(HDEG, Frac(r, s)), _t(KTOR, Frac(r1, s))], _standard_bases(p)


def _b_trasla_deg(p):
    n, d, r, r1 = _trasla_range(p)
    e = Frac(r1, n - d - 1)
    return [_t(DEG, 1, 0), _t(HDEG, e), _t(KTOR, e)], _standard_bases(p)


def _trasla2_field_terms(n, d, r, r1):
    s = n - d - 1
    return [
        _t(KREL, r),
        _t(DEG, 3 * r - 1, 0),
        _t(HDEG, Frac((2 * r - 1) * r1 + r * (r - 1), s)),
        _t(KTOR, Frac((3 * r - 2) * r1, s), 0),
    ]


def _b_trasla2_field(p):
    n, d, r, r1 = _trasla_range(p)
    return _trasla2_field_terms(n, d, r, r1), _standard_bases(p)


def _b_trasla2_ord(p):
    n, d, r, r1 = _trasla_range(p)
    return (
        _compose_power(_trasla2_field_terms(n, d, r, r1), Frac(n, 2)),
        _standard_bases(p),
    )


def _b_trasla2_S(p):
    n, d, r, r1 = _trasla_range(p)
    s = n - d - 1
    half = Frac(n * (2 * n + 1), 2)
    d1 = Frac(r) * half
    d2 = Frac(3 * r - 1) * half + 1
    d3 = Frac((n + 1) * r, s) + half * Frac((2 * r - 1) * r1 + r * (r - 1), s)
    d4 = Frac((n + 1) * r, s) + half * Frac((3 * r - 2) * r1, s)
    terms = [
        _t(KREL, d1, 0),
        _t(DEG, d2, 0),
        _t(HDEG, d3, 0),
        _t(KTOR, d4, 0),
    ]
    return terms, _standard_bases(p)


def _curva_range(p) -> tuple[int, int]:
    n, r = _int_param(p, "N", 3), _int_param(p, "r", 2)
    _need(2 * r > n, f"need 2r > N, got r={r}, N={n}")
    _need(r <= n - 1, f"need r <= N-1, got r={r}, N={n}")
    return n, r


def _b_curva_degH(p):
    n, r = _curva_range(p)
    e1 = Frac(r * (n - r) * (n + 2 * r - 2), 2 * (r - 1) * (2 * r - n))
    e2 = Frac(n * r, 2 * (r - 1))
    terms = [_t(HDEG, e1), _t(KTOR, e1), _t(KREL, e2), _t(DEG, e2)]
    return terms, _standard_bases(p)


def _b_curva_hY0(p):
    n, r = _curva_range(p)
    return [
        _t(HDEG, Frac(r, 2 * r - n)),
        _t(KTOR, Frac(n - r, 2 * r - n)),
    ], _standard_bases(p)


def _b_curva_kY0(p):
    n, r = _curva_range(p)
    e1 = Frac(r, r - 1)
    e2 = Frac(r * (n - r), (2 * r - n) * (r - 1))
    terms = [_t(KREL, e1), _t(DEG, e1), _t(HDEG, e2), _t(KTOR, e2)]
    return terms, _standard_bases(p)


def _b_curva_S(p):
    n, r = _curva_range(p)
    b1, b2 = curva_b1(n, r), curva_b2(n, r)
    terms = [_t(KREL, b1, 0), _t(DEG, b1 + 1), _t(HDEG, b2), _t(KTOR, b2)]
    return terms, _standard_bases(p)


def _b_galateau(p):
    dim_b = _int_param(p, "dimB", 1)
    dim_y = _int_param(p, "dimY", 1)
    _need(dim_y < dim_b, f"need dim Y < dim B, got dim Y={dim_y}, dim B={dim_b}")
    s = dim_b - dim_y
    bases = {"degB": _pos(p, "degB", 1), "degY": _pos(p, "degY", 1)}
    terms = [_t("degB", Frac(1, s), -1), _t("degY", Frac(-1, s), -1)]
    return terms, bases


def _b_carrizosa(p):
    dim_b = _int_param(p, "dimB", 1)
    bases = {"degB": _pos(p, "degB", 1), KTOR: _pos(p, "ktorV", 1)}
    terms = [_t("degB", Frac(1, dim_b), -1), _t(KTOR, Frac(-1, dim_b), -1)]
    return terms, bases


def _b_serre_order(p):
    n = _int_param(p, "N", 1)
    return [_t("kQ", Frac(n, 2))], {"kQ": _pos(p, "kQ", 1)}


def _b_count_subgroups(p):
    n = _int_param(p, "N", 1)
    return [_t("degB", n)], {"degB": _pos(p, "degB", 1)}


def _b_count_torsion(p):
    n = _int_param(p, "N", 1)
    m = _int_param(p, "M", 1)
    return [_t("M", 2 * n + 1, 0)], {"M": Fraction(m)}


def _b_bombieri_zannier(p):
    dim_v = _int_param(p, "d", 0)
    return [_t(DEG, 2**dim_v, 0)], {DEG: _pos(p, "degV", 1)}


def _cap_galateau(p):
    return Frac(1, max(1, _int_param(p, "dimB") - _int_param(p, "dimY")))


def _cap_carrizosa(p):
    return Frac(1, max(1, _int_param(p, "dimB")))


def _c_zhang_sandwich(p, constants):
    h, deg = _pos(p, "hX", 0), _pos(p, "degX", 1)
    hi = h / deg
    return {"hX": h, "degX": deg}, hi, hi / (1 + _int_param(p, "dimX", 0))


def _c_bezout(p, constants):
    deg_x, h_x = _pos(p, "degX", 1), _pos(p, "hX", 0)
    deg_y, h_y = _pos(p, "degY", 1), _pos(p, "hY", 0)
    cn = Fraction(constants.get("bezout", 1))
    value = deg_x * h_y + deg_y * h_x + cn * deg_x * deg_y
    return {"degX": deg_x, "hX": h_x, "degY": deg_y, "hY": h_y}, value, None


def _c_kappa(p, constants):
    g0 = _int_param(p, "g0", 1)
    value = 2 ** (2 * g0 + 1) * g0 ** (4 * g0) * factorial(g0 + 1) ** (2 * g0)
    return {"g0": Fraction(g0)}, Fraction(value), None


def _c_mw_field(p, constants):
    n = _int_param(p, "N", 1)
    return {"N": Fraction(n)}, Fraction(3 ** (16 * n**4)), None


@dataclass(frozen=True)
class _Entry:
    """One catalog bound: `rule` maps params to a monomial's (terms, bases),
    or if `closed` maps (params, constants) to (bases, value, value_lo) and
    only echoes the constant; `cap` maps params to the eta cap (None: 1)."""

    rule: Callable
    direction: str = "upper"  # "upper", "lower", "interval" or "value"
    cap: Callable | None = None
    closed: bool = False


# Ids that share a rule state the same bound: main_hY is tadimzero_hY0,
# weakstrict_hY is weakstrict_degB.  No identity in exponent_identities
# compares either pair.
_CATALOG = {
    "main_hY": _Entry(_b_tadimzero_hY0),
    "main_degY": _Entry(_b_main_degY),
    "s2c_h": _Entry(_b_s2c_h),
    "s2c_deg": _Entry(_b_s2c_deg),
    "altezzacurva_h": _Entry(_b_altezzacurva_h),
    "altezzacurva_deg": _Entry(_b_altezzacurva_deg),
    "ml1": _Entry(_b_ml1),
    "ml2": _Entry(_b_ml2),
    "mlr": _Entry(_b_mlr),
    "mltre": _Entry(_b_mltre),
    "teoremone_i": _Entry(_b_teoremone_i),
    "teoremone_ii": _Entry(_b_teoremone_ii),
    "teoremone_iii": _Entry(_b_teoremone_iii),
    "teoremone_iv": _Entry(_b_teoremone_iv),
    "weakstrict_degB": _Entry(_b_weakstrict_degB),
    "weakstrict_hY": _Entry(_b_weakstrict_degB),
    "weakstrict_degY": _Entry(_b_weakstrict_degY),
    "tadimzero_degB": _Entry(_b_tadimzero_degB),
    "tadimzero_hY0": _Entry(_b_tadimzero_hY0),
    "tadimzero_ktorY0": _Entry(_b_tadimzero_ktorY0),
    "tadimzero2_kY0": _Entry(_b_tadimzero2_kY0),
    "tadimzero2_ordzeta": _Entry(_b_tadimzero2_ordzeta),
    "tadimzero2_S": _Entry(_b_tadimzero2_S),
    "trasla_degB": _Entry(_b_trasla_degB),
    "trasla_h": _Entry(_b_trasla_h),
    "trasla_deg": _Entry(_b_trasla_deg),
    "trasla2_field": _Entry(_b_trasla2_field),
    "trasla2_ord": _Entry(_b_trasla2_ord),
    "trasla2_S": _Entry(_b_trasla2_S),
    "curva_degH": _Entry(_b_curva_degH),
    "curva_hY0": _Entry(_b_curva_hY0),
    "curva_kY0": _Entry(_b_curva_kY0),
    "curva_S": _Entry(_b_curva_S),
    "galateau_lower": _Entry(_b_galateau, "lower", _cap_galateau),
    "carrizosa_lower": _Entry(_b_carrizosa, "lower", _cap_carrizosa),
    "serre_order": _Entry(_b_serre_order),
    "count_subgroups": _Entry(_b_count_subgroups),
    "count_torsion": _Entry(_b_count_torsion),
    "bombieri_zannier": _Entry(_b_bombieri_zannier),
    "zhang_sandwich": _Entry(_c_zhang_sandwich, "interval", closed=True),
    "bezout": _Entry(_c_bezout, closed=True),
    "kappa": _Entry(_c_kappa, "value", closed=True),
    "mw_field": _Entry(_c_mw_field, "value", closed=True),
}


def eta_threshold(theorem_id: str, params: dict) -> Fraction:
    """Validity cap for eta: every catalog bound here holds for all positive
    eta below the cap; lower bounds additionally need a positive exponent."""
    entry = _CATALOG.get(theorem_id)
    if entry is None or entry.cap is None:
        return Frac(1)
    return entry.cap(params)


def catalog_ids() -> list[str]:
    return sorted(_CATALOG)


def evaluate_bound(
    theorem_id: str,
    eta: Fraction | int = 0,
    constants: dict | None = None,
    **params,
) -> BoundResult:
    """Evaluate one catalog bound at exact rational parameters.

    Raises BoundRangeError, naming the violated inequality, for parameters
    outside the theorem's range, eta above its cap or a constant <= 0.
    """
    eta = Fraction(eta)
    constants = constants or {}
    c = Fraction(constants.get(theorem_id, constants.get("c", 1)))
    _need(eta >= 0, f"need eta >= 0, got {eta}")
    entry = _CATALOG.get(theorem_id)
    _need(entry is not None, f"unknown theorem id {theorem_id!r}")
    thr = eta_threshold(theorem_id, params)
    _need(eta <= thr, f"need eta <= {thr} for {theorem_id}, got {eta}")
    _need(c > 0, f"need a positive constant, got {c}")
    if entry.closed:
        bases, value, lo = entry.rule(params, constants)
        return BoundResult(theorem_id, entry.direction, c, (), bases, eta, value, True, lo)
    terms, bases = entry.rule(params)
    value, exact = _evaluate(c, terms, bases, eta)
    return BoundResult(
        theorem_id, entry.direction, c, tuple(terms), bases, eta, value, exact
    )



# ---------------------------------------------------------------------------
# minimal obstruction index


@dataclass(frozen=True)
class OmegaMin:
    """min over candidates of (deg V / deg H)^(1/codim), compared exactly."""

    base: Fraction
    exponent: Fraction
    tied: bool

    def key(self):
        return (self.base, self.exponent)


def omega_min(deg_h: int, candidates: list[tuple[int, int]]) -> OmegaMin:
    """Candidates are (deg V, codim-in-H) pairs; comparison uses a common
    power so no roots are ever approximated."""
    if deg_h < 1:
        raise ValueError("deg H must be positive")
    if not candidates:
        raise ValueError("need at least one candidate")
    entries = []
    for deg_v, codim in candidates:
        if deg_v < 1 or codim < 1:
            raise ValueError(f"bad candidate ({deg_v}, {codim})")
        entries.append((Fraction(deg_v, deg_h), codim))
    common = lcm(*(c for _, c in entries))
    keyed = [(b ** (common // c), b, c) for b, c in entries]
    best = min(k[0] for k in keyed)
    winners = [k for k in keyed if k[0] == best]
    base, codim = winners[0][1], winners[0][2]
    tied = len({(k[1], k[2]) for k in winners}) > 1
    return OmegaMin(base, Fraction(1, codim), tied)


# ---------------------------------------------------------------------------
# cross-checks between independently stated bounds


def _terms_of(theorem_id: str, **params) -> dict:
    """Exponent table of a bound without evaluating its numeric value."""
    terms, _ = _CATALOG[theorem_id].rule(params)
    return {t.base: (t.exponent, t.eta_coeff) for t in terms}


def exponent_identities(max_n: int = 12, eta: Fraction = Frac(1, 10)) -> dict:
    """Consistency report: bounds reachable by two routes must agree.

    Each entry maps an identity name to {"holds": bool, "detail": str}.
    Raises BoundRangeError for max_n < 4, where the lifted count identity
    (N from 2 to max_n // 2) checks no case and would still report "holds";
    below 3 so would every other identity over a range of N.
    """
    if max_n < 4:
        raise BoundRangeError(f"need max_n >= 4, got {max_n}")
    report = {}

    def add(name, holds, detail):
        report[name] = {"holds": bool(holds), "detail": detail}

    # the two rank-one count bounds coincide at N = 3
    e1, e2, e3 = teoremone_i_exponents(3)
    add(
        "rank_one_count_at_n3",
        (e1, e2, e3) == (Frac(29), Frac(22), Frac(21)),
        f"exponents at N=3: ({e1}, {e2}, {e3}), fixed-case values (29, 22, 21)",
    )
    a1, a2 = tadimzero_a1(3, 1), tadimzero_a2(3, 1)
    add(
        "isolated_point_count_at_n3",
        (a1, a2) == (Frac(29), Frac(21)),
        f"A1={a1}, A2={a2}; matches the rank-one count (29, 22=21+1, 21)",
    )

    # A1, A2 stay under their stated caps on the whole range
    ok = True
    worst = ""
    for n in range(3, max_n + 1):
        for d in range(1, n - 1):
            a1, a2 = tadimzero_a1(n, d), tadimzero_a2(n, d)
            if a1 > (n + 1) ** 4 or a2 > n**3:
                ok = False
                worst = f"violated at N={n}, d={d}: A1={a1}, A2={a2}"
    add("count_exponent_caps", ok, worst or f"A1 <= (N+1)^4 and A2 <= N^3 for N <= {max_n}")

    # the t-parameter count bound is the curve-regime bound at r = N - t
    ok = True
    detail = "teoremone_iii == curva_S at r = N - t"
    for n in range(3, max_n + 1):
        for t in range(1, (n - 1) // 2 + 1):
            lhs = _terms_of("teoremone_iii", N=n, t=t, hV=1, degV=2, ktorV=3, kV=5)
            rhs = _terms_of("curva_S", N=n, r=n - t, hV=1, degV=2, ktorV=3, kV=5)
            if {k: v[0] for k, v in lhs.items()} != {k: v[0] for k, v in rhs.items()}:
                ok = False
                detail = f"mismatch at N={n}, t={t}"
    add("count_via_curve_regime", ok, detail)

    # the lifted count bound is the curve-regime bound in E^{N+t} with r = N
    ok = True
    detail = "teoremone_iv == curva_S over E^(N+t) at r = N"
    for n in range(2, max_n // 2 + 1):
        for t in range(1, n):
            lm = _terms_of("teoremone_iv", N=n, t=t, hV=1, degV=2, ktorV=3, kV=5, hg=1)
            rm = _terms_of("curva_S", N=n + t, r=n, hV=1, degV=2, ktorV=3, kV=5)
            pairs = [(KTOR, KTOR), (HDEG_G, HDEG), (DEG, DEG), (KREL, KREL)]
            if any(lm[a][0] != rm[b][0] for a, b in pairs):
                ok = False
                detail = f"mismatch at N={n}, t={t}"
    add("lifted_count_via_curve_regime", ok, detail)

    # the t-parameter height bound is the curve-regime height at r = N - t
    ok = True
    detail = "mlr == curva_hY0 at r = N - t"
    for n in range(3, max_n + 1):
        for t in range(1, (n + 1) // 2):
            lhs = _terms_of("mlr", N=n, t=t, hV=1, degV=1, ktorV=1)
            rhs = _terms_of("curva_hY0", N=n, r=n - t, hV=1, degV=1, ktorV=1)
            if lhs != rhs:
                ok = False
                detail = f"mismatch at N={n}, t={t}"
    add("height_via_curve_regime", ok, detail)

    # the rank-one height bound is the isolated-point height bound at d = 1
    ok = True
    for n in range(3, max_n + 1):
        lhs = _terms_of("ml1", N=n, hV=1, degV=1, ktorV=1)
        rhs = _terms_of("tadimzero_hY0", N=n, d=1, hV=1, degV=1, ktorV=1)
        if lhs != rhs:
            ok = False
    add("rank_one_height_is_isolated_point", ok, f"ml1 == tadimzero_hY0(d=1), N <= {max_n}")

    # the E^3 corollary specializes both isolated-point bounds
    lhs = _terms_of("s2c_h", hV=1, degV=1, ktorV=1)
    rhs = _terms_of("tadimzero_hY0", N=3, d=1, hV=1, degV=1, ktorV=1)
    lhs2 = _terms_of("s2c_deg", hV=1, degV=1, ktorV=1, kV=1)
    rhs2 = _terms_of("tadimzero2_kY0", N=3, d=1, hV=1, degV=1, ktorV=1, kV=1)
    add(
        "cube_corollary_specializes",
        lhs == rhs and lhs2 == rhs2,
        "s2c_h == tadimzero_hY0(3,1) and s2c_deg == tadimzero2_kY0(3,1)",
    )

    # height exponent max over the curve regime: (N+1)/2, attained iff N odd
    ok = True
    detail = ""
    for n in range(3, max_n + 1):
        v, _ = height_exponent_max(n)
        cap = Frac(n + 1, 2)
        if v > cap or ((v == cap) != (n % 2 == 1)):
            ok = False
            detail = f"violated at N={n}: max={v}"
    add(
        "uniform_height_exponent",
        ok,
        detail or "max r/(2r-N) <= (N+1)/2 with equality exactly for odd N",
    )

    # curve-regime count at N=3, r=2 equals the isolated-point count at d=1
    add(
        "curve_count_boundary_case",
        curva_b2(3, 2) == Frac(29) and curva_b1(3, 2) + 1 == Frac(22),
        f"B2(3,2)={curva_b2(3, 2)}, B1(3,2)+1={curva_b1(3, 2) + 1}",
    )

    # one-dimensional lower bound has exponents (1-eta, -(1+eta))
    tm = _terms_of("carrizosa_lower", dimB=1, degB=2, ktorV=3)
    add(
        "lower_bound_dim_one",
        tm["degB"] == (Frac(1), Frac(-1)) and tm[KTOR] == (Frac(-1), Frac(-1)),
        f"exponents {tm}",
    )

    # eta-limit: values decrease monotonically to the eta = 0 evaluation
    seq = [
        evaluate_bound("tadimzero_hY0", Frac(1, 2**k), N=3, d=1, hV=2, degV=3, ktorV=5).value
        for k in range(1, 9)
    ]
    base = evaluate_bound("tadimzero_hY0", 0, N=3, d=1, hV=2, degV=3, ktorV=5).value
    ok = all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1)) and seq[-1] >= base
    add(
        "eta_monotone_limit",
        ok and (seq[-1] - base) / base < Frac(1, 10),
        f"values at eta=1/2..1/256 decrease towards {base}",
    )

    # monotone in the input data
    v1 = evaluate_bound("main_hY", eta, N=4, d=1, hV=1, degV=1, ktorV=1).value
    v2 = evaluate_bound("main_hY", eta, N=4, d=1, hV=2, degV=1, ktorV=1).value
    v3 = evaluate_bound("main_hY", eta, N=4, d=1, hV=2, degV=1, ktorV=4).value
    add("monotone_in_data", v1 <= v2 <= v3, f"{v1} <= {v2} <= {v3}")

    return report
