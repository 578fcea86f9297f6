"""Ring laws, division, canonical forms and parsing for the five orders."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toran.orders import (
    _OMEGA,
    EUCLIDEAN_DISCS,
    DiscMismatchError,
    OrderElement,
    QuadRat,
    _dot,
    _elements_norm_le,
    canonical_associate,
    canonical_residue,
    canonicalizing_unit,
    euclid_div,
    format_element,
    gcd,
    parse_element,
    units,
)

DISCS = sorted(EUCLIDEAN_DISCS)

elements = st.builds(
    OrderElement,
    st.sampled_from(DISCS),
    st.integers(-30, 30),
    st.integers(-30, 30),
)


def same_disc(x, y):
    return OrderElement(x.disc, y.a, y.b)


@given(elements, st.integers(-30, 30), st.integers(-30, 30))
def test_ring_laws(x, a, b):
    y = OrderElement(x.disc, a, b)
    z = OrderElement(x.disc, a - 3, 1 - b)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x - x == OrderElement.zero(x.disc)


@given(elements, st.integers(-30, 30), st.integers(-30, 30))
def test_conjugation_and_norm(x, a, b):
    y = OrderElement(x.disc, a, b)
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.norm() == (x * y).norm() // y.norm() if not y.is_zero() else True
    assert (x * y).norm() == x.norm() * y.norm()
    # multiplying by the conjugate lands on the rational integer norm
    prod = x * x.conjugate()
    assert prod == OrderElement(x.disc, x.norm(), 0)
    assert x.norm() >= 0
    # and adding it lands on the rational integer trace
    assert x + x.conjugate() == OrderElement(x.disc, x.trace(), 0)


def test_omega_data():
    # trace and norm of the module generator pin down the multiplication
    for disc in DISCS:
        t, n0 = _OMEGA[disc]
        assert t * t - 4 * n0 == disc
        w = OrderElement(disc, 0, 1)
        assert w * w == OrderElement(disc, -n0, t)


@pytest.mark.parametrize("disc", [-5, -19, 0, -12, 5])
def test_unsupported_discriminant_rejected(disc):
    with pytest.raises(ValueError):
        OrderElement(disc, 1, 0)
    with pytest.raises(ValueError):
        QuadRat(disc, Fraction(1, 2), 0)


def test_unit_groups():
    counts = {-3: 6, -4: 4, -7: 2, -8: 2, -11: 2}
    for disc in DISCS:
        us = units(disc)
        assert len(us) == counts[disc]
        assert all(u.is_unit() for u in us)
        assert len({u * v for u in us for v in us}) == len(us)


@given(elements)
def test_canonical_associate_properties(x):
    c = canonical_associate(x)
    assert canonical_associate(c) == c
    for u in units(x.disc):
        assert canonical_associate(x * u) == c
    if not x.is_zero():
        assert canonicalizing_unit(x) * x == c
        assert c.a > 0 or (c.a == 0 and c.b > 0)
        # the lexicographically largest associate in that half-plane
        for u in units(x.disc):
            y = u * x
            assert not (y.a > 0 or (y.a == 0 and y.b > 0)) or (y.a, y.b) <= (c.a, c.b)
    else:
        assert canonicalizing_unit(x) == OrderElement.one(x.disc)


def test_parse_format_round_trip():
    cases = [
        "0", "5", "-3", "w", "-w", "2*w", "1+1*w", "4-3*w", "-2+7*w",
        "10*w", "-12*w", "25", "3-10*w",
    ]
    for disc in DISCS:
        for text in cases:
            e = parse_element(text, disc)
            assert parse_element(format_element(e), disc) == e


def test_parse_rejects_malformed():
    for bad in ["2w", "w+1", "1**w", "", "ww", "1 + + w"]:
        with pytest.raises(ValueError):
            parse_element(bad, -4)


def test_parse_examples():
    assert parse_element("w", -7) == OrderElement(-7, 0, 1)
    assert parse_element("-w", -7) == OrderElement(-7, 0, -1)
    assert parse_element("3-2*w", -8) == OrderElement(-8, 3, -2)


def test_disc_mismatch_rejected():
    with pytest.raises(DiscMismatchError):
        OrderElement(-3, 1, 0) + OrderElement(-4, 1, 0)


@pytest.mark.parametrize("disc", DISCS)
def test_elements_norm_le_matches_box_filter(disc):
    # norm >= (a^2 + b^2) / 2 on all five orders, so |a|, |b| <= 9 at cap 40
    box = [OrderElement(disc, a, b) for a in range(-12, 13) for b in range(-12, 13)]
    for cap in range(1, 41):
        expected = sorted(
            (e for e in box if e.norm() <= cap), key=lambda e: (e.norm(), e.a, e.b)
        )
        assert _elements_norm_le(disc, cap) == expected


COERCING_CALLERS = (
    "SubgroupMatrix.from_ints",
    "LinearSystem.from_ints",
    "ModulePoint.free",
    "ModulePoint.torsion",
    "GammaPoint.multipliers",
)


def _coercing_caller(name, disc):
    """A public constructor that coerces loose input into an element over
    disc, as a function of that one input value."""
    from toran.mordell_weil import ModulePoint, ModuleSpec, PointInEN
    from toran.reductions import GammaPoint
    from toran.siegel import LinearSystem
    from toran.subgroups import SubgroupMatrix

    spec = ModuleSpec(disc, 1, [[1]], torsion_order=3)
    x = PointInEN.from_rows(spec, [[1], [2]])
    return {
        "SubgroupMatrix.from_ints": lambda v: SubgroupMatrix.from_ints(disc, [[v, 1]]),
        "LinearSystem.from_ints": lambda v: LinearSystem.from_ints(disc, [[v, 1]]),
        "ModulePoint.free": lambda v: ModulePoint(spec, [v]),
        "ModulePoint.torsion": lambda v: ModulePoint(spec, [1], torsion=v),
        "GammaPoint.multipliers": lambda v: GammaPoint(x, [v, 1]),
    }[name]


@pytest.mark.parametrize("caller", COERCING_CALLERS)
def test_coercion_accepts_elements_pairs_and_integers(caller):
    build = _coercing_caller(caller, -4)
    for v in (OrderElement(-4, 2, 1), (2, 1), 2, Fraction(4, 2)):
        build(v)


@pytest.mark.parametrize("caller", COERCING_CALLERS)
def test_coercion_rejects_non_integral_values(caller):
    build = _coercing_caller(caller, -4)
    for v in (Fraction(3, 2), (Fraction(3, 2), 0), 1.5, 2.0, (2.0, 0)):
        with pytest.raises(ValueError, match="not an integer"):
            build(v)


@pytest.mark.parametrize("caller", COERCING_CALLERS)
def test_coercion_rejects_other_discriminant(caller):
    with pytest.raises(DiscMismatchError):
        _coercing_caller(caller, -4)(OrderElement(-3, 2, 1))


def test_euclid_div_frozen():
    # (2+i)(2-i) = 5 in the Gaussian order
    q, r = euclid_div(OrderElement(-4, 5, 0), OrderElement(-4, 2, 1))
    assert (q, r) == (OrderElement(-4, 2, -1), OrderElement(-4, 0, 0))


def test_euclid_div_random():
    rng = random.Random(11)
    for _ in range(600):
        disc = rng.choice(DISCS)
        x = OrderElement(disc, rng.randint(-40, 40), rng.randint(-40, 40))
        y = OrderElement(disc, rng.randint(-12, 12), rng.randint(-12, 12))
        if y.is_zero():
            continue
        q, r = euclid_div(x, y)
        assert x == q * y + r
        assert r.norm() < y.norm()


def test_euclid_div_corner_cases():
    # midpoints of the fundamental cell, where naive rounding overshoots
    for disc in (-7, -11):
        y = OrderElement(disc, 2, 0)
        x = OrderElement(disc, 1, 1)
        q, r = euclid_div(x, y)
        assert x == q * y + r and r.norm() < y.norm()


def test_gcd_properties():
    rng = random.Random(17)
    for _ in range(250):
        disc = rng.choice(DISCS)
        x = OrderElement(disc, rng.randint(-15, 15), rng.randint(-15, 15))
        y = OrderElement(disc, rng.randint(-15, 15), rng.randint(-15, 15))
        g = gcd(x, y)
        if x.is_zero() and y.is_zero():
            assert g.is_zero()
            continue
        assert g == canonical_associate(g)
        assert euclid_div(x, g)[1].is_zero()
        assert euclid_div(y, g)[1].is_zero()
        # common scaling passes through up to the canonical unit
        c = OrderElement(disc, 2, 1)
        assert gcd(x * c, y * c) == canonical_associate(c * g)


def test_gcd_frozen():
    # 1 - i = -i (1 + i), so the two are associates
    g = gcd(OrderElement(-4, 1, 1), OrderElement(-4, 1, -1))
    assert g == OrderElement(-4, 1, 1)
    # 1 - w is a unit in the disc -3 order, so the gcd collapses to 1
    assert gcd(OrderElement(-3, 1, 1), OrderElement(-3, 1, -1)) == OrderElement(-3, 1, 0)


def test_canonical_residue_idempotent():
    rng = random.Random(23)
    for _ in range(400):
        disc = rng.choice(DISCS)
        x = OrderElement(disc, rng.randint(-30, 30), rng.randint(-30, 30))
        p = OrderElement(disc, rng.randint(-8, 8), rng.randint(-8, 8))
        if p.is_zero():
            continue
        r = canonical_residue(x, p)
        assert canonical_residue(r, p) == r
        assert r.norm() < p.norm() or r.is_zero()
        # residue differs from x by a multiple of p
        assert euclid_div(x - r, p)[1].is_zero()


def test_quadrat_field_ops():
    rng = random.Random(31)
    for _ in range(200):
        disc = rng.choice(DISCS)
        x = QuadRat(disc, Fraction(rng.randint(-9, 9), rng.randint(1, 4)), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        y = QuadRat(disc, rng.randint(-9, 9), rng.randint(-9, 9))
        if y.x == 0 and y.y == 0:
            continue
        assert (x / y) * y == x
        assert x + x.conjugate() == QuadRat(disc, x.trace(), 0)
        assert x.trace() == 2 * x.rational_part()
    z = QuadRat(-4, Fraction(3, 2), Fraction(-1, 2))
    assert z.rational_part() == Fraction(3, 2)
    w = QuadRat(-3, 2, 5)
    assert w.is_integral() and w.to_order() == OrderElement(-3, 2, 5)
    assert QuadRat(-3, Fraction(1, 2), 0).is_integral() is False


@settings(max_examples=60)
@given(elements)
def test_pow_matches_repeated_multiplication(x):
    acc = OrderElement.one(x.disc)
    for k in range(4):
        assert x**k == acc
        acc = acc * x


def _reference_division(x, y):
    """The 4x4 scan around floor(x/y) in Fraction coordinates, with every
    candidate built as an element: the euclid_div (q, r) with ties to the
    least (m, n), the canonical residue with ties to the least (a, b), and
    the number of candidates of least remainder norm."""
    ny = y.norm()
    num = x * y.conjugate()
    fu = Fraction(num.a, ny).__floor__()
    fv = Fraction(num.b, ny).__floor__()
    cands = []
    for m in range(fu - 1, fu + 3):
        for n in range(fv - 1, fv + 3):
            q = OrderElement(x.disc, m, n)
            r = x - q * y
            cands.append((r.norm(), q, r))
    least = min(c[0] for c in cands)
    _, q, r = min(cands, key=lambda c: (c[0], c[1].a, c[1].b))
    residue = min(cands, key=lambda c: (c[0], c[2].a, c[2].b))[2]
    return q, r, residue, sum(c[0] == least for c in cands)


def _division_pairs(seed, count):
    """Seeded (x, y) over all five orders with entries up to 3000; a third
    of the divisors have entries in [-2, 2], units among them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        disc = rng.choice(DISCS)
        x = OrderElement(disc, rng.randint(-3000, 3000), rng.randint(-3000, 3000))
        k = 2 if rng.random() < 0.3 else 3000
        y = OrderElement(disc, rng.randint(-k, k), rng.randint(-k, k))
        if y:
            out.append((x, y))
    return out


def test_division_matches_fraction_reference():
    ties = 0
    for x, y in _division_pairs(41, 20_000):
        q, r, residue, n_least = _reference_division(x, y)
        assert euclid_div(x, y) == (q, r)
        assert canonical_residue(x, y) == residue
        ties += n_least > 1
    # halves and thirds of small divisors give equidistant lattice points
    assert ties > 1000


def test_division_frozen_bytes():
    h = hashlib.sha256()
    for x, y in _division_pairs(43, 2_000):
        q, r = euclid_div(x, y)
        h.update(repr((q, r, canonical_residue(x, y), gcd(x, y))).encode())
    assert h.hexdigest() == (
        "abeb434d9183891996f0767bdbb7198f8dbfaae8391487a7caaf8c3a5f60fce4"
    )


def test_division_rejects_mismatched_discriminants():
    x = OrderElement(-4, 5, 1)
    for y in (OrderElement(-3, 2, 1), OrderElement(-3, 0, 0)):
        with pytest.raises(DiscMismatchError):
            canonical_residue(x, y)
    with pytest.raises(DiscMismatchError):
        euclid_div(x, OrderElement(-3, 2, 1))


def test_constructors_are_exact():
    for a in (2.5, 0.1, 2.0, 10**17 + 1.0, Fraction(3, 2)):
        with pytest.raises(ValueError, match="not an integer"):
            OrderElement(-4, a, 0)
        with pytest.raises(ValueError, match="not an integer"):
            OrderElement(-4, 0, a)
    for x in (0.1, 2.0, 1j):
        with pytest.raises(ValueError, match="not rational"):
            QuadRat(-4, x, 0)
        with pytest.raises(ValueError, match="not rational"):
            QuadRat(-4, 0, x)
    e = OrderElement(-4, Fraction(4, 2), Fraction(-6, 3))
    assert (type(e.a), type(e.b)) == (int, int) and e == OrderElement(-4, 2, -2)
    z = QuadRat(-4, Fraction(4, 2), Fraction(1, 3))
    assert (z.x, z.y) == (2, Fraction(1, 3))
    assert QuadRat(-4, "3/2", 0) == Fraction(3, 2)
    assert QuadRat(-4, Fraction(6, 3), 5).to_order() == OrderElement(-4, 2, 5)


class _FractionQuadRat:
    """The former Fraction-coordinate field element, kept as the reference
    for QuadRat's integer triples: every operation is written on x and y."""

    def __init__(self, disc, x, y):
        self.disc, self.x, self.y = disc, Fraction(x), Fraction(y)

    def _coerce(self, other):
        if isinstance(other, _FractionQuadRat):
            return other
        if isinstance(other, OrderElement):
            return _FractionQuadRat(other.disc, other.a, other.b)
        return _FractionQuadRat(self.disc, other, 0)

    def __add__(self, other):
        o = self._coerce(other)
        return _FractionQuadRat(self.disc, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return _FractionQuadRat(self.disc, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        t, n0 = _OMEGA[self.disc]
        a, b, c, d = self.x, self.y, o.x, o.y
        return _FractionQuadRat(self.disc, a * c - n0 * b * d, a * d + b * c + t * b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero field element")
        num = self * o.conjugate()
        return _FractionQuadRat(self.disc, num.x / n, num.y / n)

    def __neg__(self):
        return _FractionQuadRat(self.disc, -self.x, -self.y)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.x == other and self.y == 0
        if isinstance(other, OrderElement):
            return self.disc == other.disc and self.x == other.a and self.y == other.b
        return (self.disc, self.x, self.y) == (other.disc, other.x, other.y)

    def __hash__(self):
        return hash((self.disc, self.x, self.y))

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def conjugate(self):
        return _FractionQuadRat(self.disc, self.x + _OMEGA[self.disc][0] * self.y, -self.y)

    def norm(self):
        t, n0 = _OMEGA[self.disc]
        return self.x * self.x + t * self.x * self.y + n0 * self.y * self.y

    def trace(self):
        return 2 * self.x + _OMEGA[self.disc][0] * self.y

    def rational_part(self):
        return self.x + Fraction(_OMEGA[self.disc][0] * self.y, 2)

    def is_integral(self):
        return self.x.denominator == 1 and self.y.denominator == 1

    def to_order(self):
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return OrderElement(self.disc, int(self.x), int(self.y))

    def __repr__(self):
        return f"QuadRat({self.disc}, {self.x!r}, {self.y!r})"


def _assert_same(z, ref):
    """z is a normalised integer triple with the reference's value and face."""
    assert isinstance(z, QuadRat) and z.disc == ref.disc
    assert z.d > 0 and math.gcd(z.p, z.q, z.d) == 1
    assert (z.x, z.y) == (ref.x, ref.y)
    assert (type(z.x), type(z.y)) == (Fraction, Fraction)
    assert hash(z) == hash(ref) and repr(z) == repr(ref)
    assert bool(z) == bool(ref) and z.is_integral() == ref.is_integral()


def test_quadrat_matches_fraction_reference():
    rng = random.Random(1414)

    def coordinate():
        kind = rng.randrange(4)
        if kind == 0:
            return 0
        if kind == 1:
            return rng.randint(-12, 12)
        n, d = rng.randint(-12, 12), rng.randint(1, 9)
        return Fraction(n, d) if kind == 2 else f"{n}/{d}"

    for _ in range(1500):
        disc = rng.choice(DISCS)
        raw = [(coordinate(), coordinate()) for _ in range(2)]
        (x, rx), (y, ry) = [(QuadRat(disc, *c), _FractionQuadRat(disc, *c)) for c in raw]
        _assert_same(x, rx)
        k = rng.choice([0, -3, 2, Fraction(-3, 2), Fraction(5, 4)])
        e = OrderElement(disc, rng.randint(-5, 5), rng.randint(-5, 5))
        pairs = [
            (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
            (-x, -rx), (x.conjugate(), rx.conjugate()),
            (x + k, rx + k), (k + x, k + rx), (x - k, rx - k), (k - x, k - rx),
            (x * k, rx * k), (k * x, k * rx), (x + e, rx + e), (x * e, rx * e),
        ]
        for divisor, ref in ((y, ry), (k, k), (e, e)):
            if ref:
                pairs.append((x / divisor, rx / ref))
            else:
                with pytest.raises(ZeroDivisionError):
                    x / divisor
        for z, ref in pairs:
            _assert_same(z, ref)
        for name in ("norm", "trace", "rational_part"):
            got, want = getattr(x, name)(), getattr(rx, name)()
            assert type(got) is Fraction and got == want
        assert (x == y) == (rx == ry)
        for other in (0, k, x.x, e):
            assert (x == other) == (rx == other)
        assert (x == QuadRat.from_order(e)) == (rx == e)
        if rx.is_integral():
            assert x.to_order() == rx.to_order()
        else:
            with pytest.raises(ValueError, match="not integral"):
                x.to_order()


FROZEN_TYPES = (
    "OrderElement",
    "QuadRat",
    "SubgroupMatrix",
    "LinearSystem",
    "TorsionPoint",
    "ModuleSpec",
    "ModulePoint",
    "PointInEN",
    "GammaPoint",
)


def _frozen_instance(name):
    from toran.mordell_weil import ModulePoint, ModuleSpec, PointInEN
    from toran.orders import QuadRat
    from toran.reductions import GammaPoint
    from toran.siegel import LinearSystem
    from toran.subgroups import SubgroupMatrix, TorsionPoint

    spec = ModuleSpec(-4, 1, [[1]], torsion_order=3)
    x = PointInEN.from_rows(spec, [[1], [2]])
    return {
        "OrderElement": lambda: OrderElement(-4, 2, 1),
        "QuadRat": lambda: QuadRat(-4, Fraction(1, 2), 3),
        "SubgroupMatrix": lambda: SubgroupMatrix.from_ints(-4, [[1, 2]]),
        "LinearSystem": lambda: LinearSystem.from_ints(-4, [[1, 2]]),
        "TorsionPoint": lambda: TorsionPoint(-4, 5, [OrderElement(-4, 2, 3)]),
        "ModuleSpec": lambda: spec,
        "ModulePoint": lambda: x.coords[0],
        "PointInEN": lambda: x,
        "GammaPoint": lambda: GammaPoint(x),
    }[name]()


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_value_types_are_immutable(name):
    obj = _frozen_instance(name)
    assert type(obj).__name__ == name
    assert not hasattr(obj, "__dict__")
    slots = [a for cls in type(obj).__mro__ for a in getattr(cls, "__slots__", ())]
    assert slots
    for attr in slots:
        before = getattr(obj, attr, None)
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            setattr(obj, attr, before)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        obj.extra = 1
    assert not hasattr(obj, "extra")


def _reference_dot(disc, xs, ys):
    # the element-by-element route _dot replaced: one product and one
    # partial sum per term, through the operators
    return sum((x * y for x, y in zip(xs, ys)), OrderElement.zero(disc))


def _dot_outcome(dot, disc, xs, ys):
    try:
        return dot(disc, xs, ys)
    except DiscMismatchError as exc:
        return f"DiscMismatchError: {exc}"


@pytest.mark.parametrize("disc", DISCS)
def test_dot_matches_elementwise_sum(disc):
    """_dot on generators, empty and int-bearing vectors and a foreign element
    against the route that builds an element per product and partial sum."""
    rng = random.Random(f"dot/{disc}")
    foreign = [d for d in DISCS if d != disc]

    def entry(kind):
        if kind == "int":
            return rng.randint(-40, 40)
        d = rng.choice(foreign) if kind == "foreign" else disc
        return OrderElement(d, rng.randint(-40, 40), rng.randint(-40, 40))

    seen_errors = 0
    for n in range(8):
        for _ in range(25):
            kinds = rng.choice(
                [("element",), ("element", "int"), ("element", "element", "foreign")]
            )
            xs = [entry(rng.choice(kinds)) for _ in range(n)]
            ys = [entry(rng.choice(kinds)) for _ in range(n)]
            want = _dot_outcome(_reference_dot, disc, xs, ys)
            got = _dot_outcome(_dot, disc, (x for x in xs), iter(ys))
            assert got == want
            assert type(got) is type(want)
            assert got == _dot_outcome(_dot, disc, xs, ys)
            seen_errors += isinstance(want, str)
    assert seen_errors > 20
    assert _dot(disc, [], []) == OrderElement.zero(disc)
    assert _dot(disc, (e for e in ()), iter(())) == OrderElement.zero(disc)


@pytest.mark.parametrize("disc", DISCS)
def test_canonicalizing_unit_matches_largest_unit_multiple(disc):
    """Every element of norm <= 60: the unit is the one whose multiple has
    the largest (a, b), the first unit (1) for zero."""
    for x in _elements_norm_le(disc, 60):
        want = max(units(disc), key=lambda u: ((u * x).a, (u * x).b))
        assert canonicalizing_unit(x) == want
