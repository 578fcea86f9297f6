"""Arithmetic in the five norm-Euclidean imaginary quadratic maximal orders.

Elements are written ``a + b*w`` where ``w`` depends on the discriminant:
``w = sqrt(disc)/2`` for even discriminants and ``w = (1 + sqrt(disc))/2``
for odd ones.  Everything is exact: coordinates are Python integers (over a
common denominator for field elements) and norms are computed from the
integral binary form of the order, never from floats.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd, isqrt, lcm as int_lcm
from typing import Iterable

EUCLIDEAN_DISCS = (-3, -4, -7, -8, -11)


class DiscMismatchError(ValueError):
    """Raised when operands live over different discriminants."""


# (trace of w, norm of w) per discriminant: w satisfies w^2 - t*w + n0 = 0,
# with t = 0 for even discriminants and 1 for odd ones, and n0 = (t*t - disc)/4
_OMEGA = {d: (d % 2, (d % 2 - d) // 4) for d in EUCLIDEAN_DISCS}


def _check_disc(disc: int) -> None:
    if disc not in _OMEGA:
        raise ValueError(f"discriminant {disc} is not one of {EUCLIDEAN_DISCS}")


class _Frozen:
    """Base of the value types whose slots are set once, by ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class OrderElement(_Frozen):
    """An element a + b*w of the maximal order of discriminant ``disc``."""

    __slots__ = ("disc", "a", "b")

    def __init__(self, disc: int, a: int, b: int):
        _check_disc(disc)
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "a", a if type(a) is int else _integral(a))
        object.__setattr__(self, "b", b if type(b) is int else _integral(b))

    @classmethod
    def zero(cls, disc: int) -> OrderElement:
        return cls(disc, 0, 0)

    @classmethod
    def one(cls, disc: int) -> OrderElement:
        return cls(disc, 1, 0)

    @classmethod
    def omega(cls, disc: int) -> OrderElement:
        return cls(disc, 0, 1)

    @classmethod
    def from_int(cls, disc: int, n: int) -> OrderElement:
        return cls(disc, n, 0)

    def _coerce(self, other) -> OrderElement:
        if isinstance(other, OrderElement):
            if other.disc != self.disc:
                raise DiscMismatchError(
                    f"discriminants differ: {self.disc} vs {other.disc}"
                )
            return other
        if isinstance(other, int):
            return OrderElement(self.disc, other, 0)
        return NotImplemented

    def __add__(self, other) -> OrderElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _element(self.disc, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other) -> OrderElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _element(self.disc, self.a - other.a, self.b - other.b)

    def __rsub__(self, other) -> OrderElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> OrderElement:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _element(self.disc, *_product(self.disc, self.a, self.b, other.a, other.b))

    __rmul__ = __mul__

    def __neg__(self) -> OrderElement:
        return _element(self.disc, -self.a, -self.b)

    def __pow__(self, n: int) -> OrderElement:
        if n < 0:
            raise ValueError("negative powers are not in the order")
        out = OrderElement.one(self.disc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if not isinstance(other, OrderElement):
            return NotImplemented
        return (self.disc, self.a, self.b) == (other.disc, other.a, other.b)

    def __hash__(self):
        return hash((self.disc, self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def conjugate(self) -> OrderElement:
        return _element(self.disc, self.a + _OMEGA[self.disc][0] * self.b, -self.b)

    def norm(self) -> int:
        """The field norm, a non-negative rational integer."""
        t, n0 = _OMEGA[self.disc]
        return self.a * self.a + t * self.a * self.b + n0 * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + _OMEGA[self.disc][0] * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __repr__(self) -> str:
        return f"OrderElement({self.disc}, {self.a}, {self.b})"

    def __str__(self) -> str:
        return format_element(self)


_SET_DISC, _SET_A, _SET_B = (OrderElement.__dict__[k].__set__ for k in OrderElement.__slots__)


def _element(disc: int, a: int, b: int) -> OrderElement:
    """a + b*w, unchecked, from checked operands; outside values go through OrderElement(...)."""
    e = object.__new__(OrderElement)
    _SET_DISC(e, disc)
    _SET_A(e, a)
    _SET_B(e, b)
    return e


def _product(disc: int, a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """(a + b*w) * (c + d*w) as a pair, from w^2 = t*w - n0."""
    t, n0 = _OMEGA[disc]
    return a * c - n0 * b * d, a * d + b * c + t * b * d


def _integral(v) -> int:
    # a float is refused even when integral: 10**17 + 1.0 is already 10**17
    if isinstance(v, float) or (n := int(v)) != v:
        raise ValueError(f"{v!r} is not an integer")
    return n


def _rational(v) -> Fraction:
    # a binary float is refused, not imported with its rounding error
    if not isinstance(v, (int, Fraction, str)):
        raise ValueError(f"{v!r} is not rational")
    return Fraction(v)


def _as_element(disc: int, e) -> OrderElement:
    """``e`` as an element over ``disc``: an OrderElement of that
    discriminant, an (a, b) pair, or an integral value."""
    if isinstance(e, OrderElement):
        if e.disc != disc:
            raise DiscMismatchError(f"element discriminant {e.disc} != {disc}")
        return e
    if isinstance(e, tuple):
        a, b = e
        return OrderElement(disc, _integral(a), _integral(b))
    return OrderElement(disc, _integral(e), 0)


def _dot(disc: int, xs: Iterable[OrderElement], ys: Iterable[OrderElement]) -> OrderElement:
    """sum x_i * y_i over the order, accumulated left to right from zero: on
    ints while both are elements over disc, through the operators from the
    first other pair on (an int, or a foreign element, which raises there)."""
    _check_disc(disc)
    a = b = 0
    pairs = zip(xs, ys)
    for x, y in pairs:
        if not (type(x) is type(y) is OrderElement and x.disc == y.disc == disc):
            return sum((x * y for x, y in pairs), _element(disc, a, b) + x * y)
        p, q = _product(disc, x.a, x.b, y.a, y.b)
        a, b = a + p, b + q
    return _element(disc, a, b)


def _elements_norm_le(disc: int, cap: int) -> list[OrderElement]:
    """Every element of norm at most ``cap``, sorted by (norm, a, b)."""
    out = []
    b_bound = isqrt(4 * cap // (-disc)) + 1
    for b in range(-b_bound, b_bound + 1):
        a_bound = isqrt(cap) + abs(b) + 1
        for a in range(-a_bound, a_bound + 1):
            e = OrderElement(disc, a, b)
            if e.norm() <= cap:
                out.append(e)
    out.sort(key=lambda e: (e.norm(), e.a, e.b))
    return out


@lru_cache(maxsize=None)
def units(disc: int) -> tuple[OrderElement, ...]:
    """All units of the order: 6 for disc -3, 4 for disc -4, 2 otherwise."""
    _check_disc(disc)
    one = OrderElement.one(disc)
    out = [one, -one]
    if disc == -4:
        w = OrderElement.omega(disc)
        out += [w, -w]
    elif disc == -3:
        w = OrderElement.omega(disc)
        w2 = w * w
        out += [w, -w, w2, -w2]
    return tuple(out)


def canonicalizing_unit(x: OrderElement) -> OrderElement:
    """The unit u with u*x == canonical_associate(x); 1 for zero."""
    # (a, b) > (0, 0) exactly when a > 0, or a = 0 and b > 0
    best_key, best_u = (0, 0), units(x.disc)[0]
    for u in units(x.disc):
        key = _product(x.disc, u.a, u.b, x.a, x.b)
        if key > best_key:
            best_key, best_u = key, u
    return best_u


def canonical_associate(x: OrderElement) -> OrderElement:
    """The canonical representative among the unit multiples of ``x``.

    Among associates with a > 0, or a = 0 and b > 0, the lexicographically
    largest coordinate pair (a, b) is chosen; zero is its own representative.
    """
    return canonicalizing_unit(x) * x


def _nearest(disc: int, xa: int, xb: int, ya: int, yb: int, by_remainder: bool):
    """(m, n) with q = m + n*w of least norm(x - q*y), for x = xa + xb*w and
    y = ya + yb*w != 0.  Ties go to the least (m, n), or with ``by_remainder``
    to the least (a, b) of x - q*y.

    The integer key norm(x*conj(y) - q*norm(y)) is norm(y) * norm(x - q*y).
    With x*conj(y) = A + B*w = norm(y) * (alpha + beta*w), key/norm(y)^2 is
    (alpha - m + t*(beta - n)/2)^2 + c*(beta - n)^2 for c = n0 - t^2/4 in
    {3/4, 1, 7/4, 2, 11/4}.  An n outside {floor(beta), floor(beta) + 1}
    costs at least c > 1/4 + c/4 (as c > 1/3), the most the best n inside
    costs.  For fixed n, with v = B - n*norm(y), only
    m = floor((2A + t*v) / (2*norm(y))) and m + 1 can be least: 4 candidates.
    """
    t, n0 = _OMEGA[disc]
    c = ya + t * yb  # conj(y) = c - yb*w
    A = xa * c + n0 * xb * yb
    B = xb * c - xa * yb - t * xb * yb
    ny = ya * c + n0 * yb * yb
    best = None
    fv = B // ny
    for n in (fv, fv + 1):
        v = B - n * ny
        fm = (2 * A + t * v) // (2 * ny)
        for m in (fm, fm + 1):
            u = A - m * ny
            key = u * u + (t * u + n0 * v) * v
            if best is None or key < best:
                best, q = key, (m, n)
            elif key == best:
                # the remainder at (m, n) minus that at q is (dm + dn*w)*y
                dm, dn = q[0] - m, q[1] - n
                diff = (dm * ya - n0 * dn * yb, dm * yb + dn * c) if by_remainder else (-dm, -dn)
                if diff < (0, 0):
                    q = (m, n)
    return q


def euclid_div(x: OrderElement, y: OrderElement) -> tuple[OrderElement, OrderElement]:
    """Quotient and remainder with norm(r) < norm(y).

    The quotient is the lattice point nearest to x/y in the norm metric;
    ties go to the lexicographically smaller quotient coordinates.
    """
    if isinstance(y, int):
        y = OrderElement.from_int(x.disc, y)
    if y.is_zero():
        raise ZeroDivisionError("euclidean division by zero")
    if x.disc != y.disc:
        raise DiscMismatchError(f"discriminants differ: {x.disc} vs {y.disc}")
    q = _element(x.disc, *_nearest(x.disc, x.a, x.b, y.a, y.b, False))
    r = x - q * y
    assert r.norm() < y.norm()
    return q, r


def canonical_residue(x: OrderElement, mod: OrderElement) -> OrderElement:
    """The representative of x modulo ``mod`` minimizing (norm, a, b).

    Unlike the euclid_div remainder this map is idempotent, which makes the
    echelon forms built on it canonical.
    """
    if x.disc != mod.disc:
        raise DiscMismatchError(f"discriminants differ: {x.disc} vs {mod.disc}")
    if mod.is_zero():
        return x
    q = _element(x.disc, *_nearest(x.disc, x.a, x.b, mod.a, mod.b, True))
    return x - q * mod


def gcd(x: OrderElement, y: OrderElement) -> OrderElement:
    """Greatest common divisor, returned as a canonical associate."""
    if x.disc != y.disc:
        raise DiscMismatchError(f"discriminants differ: {x.disc} vs {y.disc}")
    while not y.is_zero():
        _, r = euclid_div(x, y)
        x, y = y, r
    return canonical_associate(x)


class QuadRat(_Frozen):
    """An element (p + q*w)/d of the quadratic field, stored as integers with
    d > 0 and gcd(p, q, d) = 1; its coordinates over (1, w) are x = p/d and
    y = q/d."""

    __slots__ = ("disc", "p", "q", "d")

    def __new__(cls, disc: int, x, y):
        _check_disc(disc)
        x, y = _rational(x), _rational(y)
        d = int_lcm(x.denominator, y.denominator)
        return _quad(disc, x.numerator * d // x.denominator, y.numerator * d // y.denominator, d)

    x = property(lambda self: Fraction(self.p, self.d))
    y = property(lambda self: Fraction(self.q, self.d))

    @classmethod
    def from_order(cls, e: OrderElement) -> QuadRat:
        return _quad(e.disc, e.a, e.b, 1)

    @classmethod
    def zero(cls, disc: int) -> QuadRat:
        return cls(disc, 0, 0)

    @classmethod
    def one(cls, disc: int) -> QuadRat:
        return cls(disc, 1, 0)

    def _coerce(self, other) -> QuadRat:
        if isinstance(other, (QuadRat, OrderElement)):
            if other.disc != self.disc:
                raise DiscMismatchError(
                    f"discriminants differ: {self.disc} vs {other.disc}"
                )
            return other if isinstance(other, QuadRat) else QuadRat.from_order(other)
        if isinstance(other, (int, Fraction)):
            return _quad(self.disc, other.numerator, 0, other.denominator)
        return NotImplemented

    def __add__(self, other) -> QuadRat:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _quad(self.disc, self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other) -> QuadRat:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self.d, other.d
        return _quad(self.disc, self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other) -> QuadRat:
        return -self + other

    def __mul__(self, other) -> QuadRat:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p, q = _product(self.disc, self.p, self.q, other.p, other.q)
        return _quad(self.disc, p, q, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other) -> QuadRat:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero field element")
        # 1/other = conj(other)/norm(other), with conj(p + e*w) = c - e*w
        t, n0 = _OMEGA[self.disc]
        e, c, f = other.q, other.p + t * other.q, other.d
        return self * _quad(self.disc, c * f, -e * f, other.p * c + n0 * e * e)

    def __neg__(self) -> QuadRat:
        return _quad(self.disc, -self.p, -self.q, self.d)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and (self.p, self.d) == (other.numerator, other.denominator)
        if isinstance(other, OrderElement):
            return (self.disc, self.p, self.q, self.d) == (other.disc, other.a, other.b, 1)
        if not isinstance(other, QuadRat):
            return NotImplemented
        return (self.disc, self.p, self.q, self.d) == (other.disc, other.p, other.q, other.d)

    def __hash__(self):
        return hash((self.disc, self.x, self.y))

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def conjugate(self) -> QuadRat:
        return _quad(self.disc, self.p + _OMEGA[self.disc][0] * self.q, -self.q, self.d)

    def norm(self) -> Fraction:
        t, n0 = _OMEGA[self.disc]
        p, q = self.p, self.q
        return Fraction(p * p + t * p * q + n0 * q * q, self.d * self.d)

    def trace(self) -> Fraction:
        return Fraction(2 * self.p + _OMEGA[self.disc][0] * self.q, self.d)

    def rational_part(self) -> Fraction:
        """The coefficient of 1 in the basis (1, sqrt(disc)); equals trace/2."""
        return Fraction(2 * self.p + _OMEGA[self.disc][0] * self.q, 2 * self.d)

    def is_integral(self) -> bool:
        return self.d == 1

    def to_order(self) -> OrderElement:
        if self.d != 1:
            raise ValueError(f"{self!r} is not integral")
        return OrderElement(self.disc, self.p, self.q)

    def __repr__(self) -> str:
        return f"QuadRat({self.disc}, {self.x!r}, {self.y!r})"


def _quad(disc: int, p: int, q: int, d: int) -> QuadRat:
    """(p + q*w)/d over ``disc`` for d > 0, reduced by gcd(p, q, d); internal
    results skip the public constructor's validation."""
    g = int_gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    z = object.__new__(QuadRat)
    for name, v in zip(QuadRat.__slots__, (disc, p, q, d)):
        object.__setattr__(z, name, v)
    return z


_ELEMENT_RE = re.compile(
    r"""^\s*
    (?:(?P<a>[+-]?\d+)(?=\s*(?:[+-]|$)))?       # integer part, then sign or end
    \s*
    (?:(?P<sign>[+-])?\s*(?:(?P<b>\d+)\s*\*\s*)?(?P<w>w))?
    \s*$""",
    re.VERBOSE,
)


def parse_element(text: str, disc: int) -> OrderElement:
    """Parse "a+b*w" (zero terms elided, "w" meaning 1*w) into an element."""
    m = _ELEMENT_RE.match(text)
    if m is None or (m.group("a") is None and m.group("w") is None):
        raise ValueError(f"cannot parse order element from {text!r}")
    a = int(m.group("a")) if m.group("a") is not None else 0
    b = 0
    if m.group("w") is not None:
        b = int(m.group("b")) if m.group("b") is not None else 1
        if m.group("sign") == "-":
            b = -b
    return OrderElement(disc, a, b)


def format_element(x: OrderElement) -> str:
    """Inverse of parse_element; zero terms are elided."""
    if x.b == 0:
        return str(x.a)
    w_part = f"{x.b}*w"
    if x.a == 0:
        return w_part
    return f"{x.a}+{w_part}" if x.b > 0 else f"{x.a}{x.b}*w"
