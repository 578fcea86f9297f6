"""Small kernel vectors with exact Siegel-shape certificates."""

import math
import random
import signal
from fractions import Fraction

import pytest

from toran import siegel
from toran.intlattice import hnf_int
from toran.orders import EUCLIDEAN_DISCS, OrderElement, format_element, parse_element
from toran.siegel import (
    DEFAULT_SIEGEL_CONSTANT,
    LinearSystem,
    SiegelCertificate,
    _trace_gram,
    complete_to_square,
    small_solution,
)
from toran.subgroups import (
    RankError,
    SubgroupMatrix,
    _kernel_basis,
    _rank,
    _z_basis,
    ints_to_vector,
)

DISCS = list(EUCLIDEAN_DISCS)


def random_system(rng, disc, m, n, span=4):
    while True:
        rows = [
            [OrderElement(disc, rng.randint(-span, span), rng.randint(-span, span)) for _ in range(n)]
            for _ in range(m)
        ]
        try:
            return LinearSystem(disc, rows)
        except RankError:
            continue


def test_system_validation():
    with pytest.raises(ValueError):
        LinearSystem.from_ints(-4, [[1, 2], [3, 4]])  # m == n
    with pytest.raises(ValueError):
        LinearSystem.from_ints(-4, [[1, 2], [3]])
    with pytest.raises(RankError):
        LinearSystem.from_ints(-4, [[1, 2, 3], [2, 4, 6]])
    s = LinearSystem.from_ints(-4, [[2, 3]])
    assert (s.m, s.n) == (1, 2)
    assert s.row_height(0) == 13
    assert s.size_term() == 13


def test_small_solution_frozen():
    system = LinearSystem.from_ints(-4, [[2, 3]])
    sols, cert = small_solution(system)
    assert sols == [[OrderElement(-4, 3, 0), OrderElement(-4, -2, 0)]]
    assert cert.achieved_norm == 9
    assert cert.size_term == 13
    assert (cert.exp_num, cert.exp_den) == (1, 1)
    assert cert.holds()


def test_small_solution_deterministic():
    # the second call reads the kernel that the first one kept on the system
    rng = random.Random(53)
    systems = [LinearSystem.from_ints(-7, [[(1, 1), 2, (0, 1)]])]
    systems += [random_system(rng, disc, m, 4) for disc in DISCS for m in (1, 2)]
    for system in systems:
        count = system.n - system.m
        a, ca = small_solution(system, count=count)
        b, cb = small_solution(system, count=count)
        assert a == b and ca == cb
        assert small_solution(LinearSystem(system.disc, system.rows), count=count) == (a, ca)


def test_small_solution_count_range():
    system = LinearSystem.from_ints(-4, [[1, 1, 1]])
    with pytest.raises(ValueError):
        small_solution(system, count=3)
    sols, _ = small_solution(system, count=2)
    assert _rank([list(v) for v in sols]) == 2


def test_certificate_arithmetic():
    cert = SiegelCertificate(9, 13, 1, 1, Fraction(8))
    assert cert.holds()
    assert not SiegelCertificate(1000, 13, 1, 1, Fraction(8)).holds()
    # fractional exponent handled without floats: 30^2 > 8^2 * 13 = 832
    assert SiegelCertificate(28, 13, 1, 2, Fraction(8)).holds()
    assert not SiegelCertificate(30, 13, 1, 2, Fraction(8)).holds()


def test_random_certificates():
    rng = random.Random(7)
    checked = 0
    for _ in range(120):
        disc = rng.choice(DISCS)
        n = rng.randint(2, 4)
        m = rng.randint(1, n - 1)
        system = random_system(rng, disc, m, n)
        count = rng.choice([1, n - m])
        sols, cert = small_solution(system, count=count)
        assert len(sols) == count
        for v in sols:
            assert any(not e.is_zero() for e in v)
            assert all(e.is_zero() for e in system.evaluate(v))
        assert _rank([list(v) for v in sols]) == count
        assert cert.holds()
        assert cert.constant == DEFAULT_SIEGEL_CONSTANT
        checked += 1
    assert checked == 120


def test_no_box_fallback_still_solves():
    rng = random.Random(77)
    for _ in range(40):
        disc = rng.choice(DISCS)
        system = random_system(rng, disc, 1, 3)
        sols, _ = small_solution(system, box_fallback=False)
        for v in sols:
            assert all(e.is_zero() for e in system.evaluate(v))


def test_complete_to_square():
    rng = random.Random(101)
    for _ in range(50):
        disc = rng.choice(DISCS)
        n = rng.randint(2, 4)
        r = rng.randint(1, n - 1)
        while True:
            rows = [
                [OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                for _ in range(r)
            ]
            try:
                M = SubgroupMatrix(disc, n, rows)
                break
            except RankError:
                continue
        full, cert = complete_to_square(M)
        assert full.N == full.r == n  # constructor enforces full rank
        assert full.rows[:r] == M.rows
        assert cert.holds()


def test_complete_to_square_rejects_square():
    M = SubgroupMatrix.from_ints(-4, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        complete_to_square(M)


def test_nonpositive_constant_is_refused():
    system = LinearSystem.from_ints(-4, [[2, 3, 5]])
    for c in (Fraction(-8), Fraction(0), Fraction(-1, 1000)):
        with pytest.raises(ValueError, match="positive constant"):
            small_solution(system, constant=c)
    M = SubgroupMatrix.from_ints(-4, [[2, 3, 5]])
    with pytest.raises(ValueError, match="positive constant"):
        complete_to_square(M, constant=Fraction(-8))
    # an even exponent n - m must not let -c certify what c certifies
    assert SiegelCertificate(28, 13, 1, 2, Fraction(8)).holds()
    assert not SiegelCertificate(28, 13, 1, 2, Fraction(-8)).holds()
    assert not SiegelCertificate(0, 13, 1, 2, Fraction(0)).holds()


def test_linear_system_is_a_subgroup_matrix():
    s = LinearSystem.from_ints(-7, [[(1, 1), 2, (0, 1)], [1, 0, 3]])
    assert isinstance(s, SubgroupMatrix)
    assert (s.m, s.n) == (s.r, s.N) == (2, 3)
    v = [OrderElement(-7, 1, 0), OrderElement(-7, 0, 1), OrderElement(-7, 2, -1)]
    assert s.evaluate(v) == SubgroupMatrix(-7, 3, s.rows).evaluate(v)
    assert s.evaluate(v) == [sum((a * b for a, b in zip(row, v)), OrderElement.zero(-7)) for row in s.rows]
    with pytest.raises(ValueError, match="at least one row"):
        LinearSystem(-4, [])


# Seeded 1 x n systems (entries a + b*w with |a|, |b| <= 3, drawn from
# random.Random(f"{disc}:{n}:{count}") until the box search returns a result)
# whose LLL vectors fail the certificate at c = 1/1000, so the box search
# replaces them.  The solutions are pinned as the box search returns them:
# not unit-normalised, and different from the LLL path's in every case.
BOX_PINS = [
    (-3, ["-2", "2+2*w"], 1, [["-2+1*w", "-1+1*w"]]),
    (-4, ["3-1*w", "-2-1*w"], 1, [["-1", "-1+1*w"]]),
    (-7, ["3+3*w", "2-2*w"], 1, [["-1*w", "-3"]]),
    (-8, ["-2+1*w", "2*w"], 1, [["-2", "1+1*w"]]),
    (-11, ["-2*w", "3-1*w"], 1, [["-1*w", "2"]]),
    (-3, ["2-1*w", "1-2*w", "1*w"], 1, [["-1", "1*w", "0"]]),
    (-4, ["-2-1*w", "3-1*w", "-2-2*w"], 1, [["-1-1*w", "-1*w", "0"]]),
    (-7, ["-1+3*w", "-3-2*w", "-3+3*w"], 1, [["-1", "1-1*w", "-1*w"]]),
    (-8, ["2", "1+3*w", "-2+1*w"], 1, [["-1-1*w", "0", "-1*w"]]),
    (-11, ["-3+3*w", "1-1*w", "3+1*w"], 1, [["-1", "1*w", "-1+1*w"]]),
    (-3, ["1+1*w", "-2-2*w", "2-1*w"], 2, [["-1", "0", "1*w"], ["-1", "-1", "-1*w"]]),
    (-4, ["-3-3*w", "-3", "2*w"], 2, [["0", "-2", "3*w"], ["-1", "-1+1*w", "3*w"]]),
    (-7, ["1*w", "-3-1*w", "1"], 2, [["-1", "0", "1*w"], ["-1+1*w", "-1", "-1-1*w"]]),
    (-8, ["-2+1*w", "-1+3*w", "-3-2*w"], 2, [["-1*w", "-1+1*w", "-1"], ["-1+1*w", "1*w", "-2"]]),
    (-11, ["-3-1*w", "2-2*w", "-2+3*w"], 2, [["-1", "-2+1*w", "-2+1*w"], ["-2+1*w", "1", "1+1*w"]]),
]


@pytest.mark.parametrize(
    "disc, row, count, expected",
    BOX_PINS,
    ids=[f"disc{d}-n{len(row)}-count{c}" for d, row, c, _ in BOX_PINS],
)
def test_box_search_outputs_pinned(monkeypatch, disc, row, count, expected):
    boxed, box_search = [], siegel._box_search

    def recording_box_search(*args, **kwargs):
        boxed.append(box_search(*args, **kwargs))
        return boxed[-1]

    monkeypatch.setattr(siegel, "_box_search", recording_box_search)
    system = LinearSystem(disc, [[parse_element(e, disc) for e in row]])
    sols, cert = small_solution(system, count=count, constant=Fraction(1, 1000))
    assert [[format_element(e) for e in v] for v in sols] == expected
    assert len(boxed) == 1 and boxed[0] == sols
    assert not cert.holds()
    lll, _ = small_solution(system, count=count, constant=Fraction(1, 1000), box_fallback=False)
    assert lll != sols


# The LLL that re-ran the whole Gram-Schmidt after every size-reduction step
# and every swap, kept verbatim as the reference for the one that keeps mu and
# |b*|^2 through both.
def _reference_lll(disc: int, basis: list[list[int]]) -> list[list[int]]:
    """Exact LLL (delta = 3/4) under the coordinate-wise trace form."""
    b = [list(v) for v in basis]
    k_max = len(b)
    if k_max <= 1:
        return b

    def gso():
        mu = [[Fraction(0)] * k_max for _ in range(k_max)]
        bstar_norm = [Fraction(0)] * k_max
        bstar = [[Fraction(x) for x in b[0]]]
        bstar_norm[0] = Fraction(_trace_gram(disc, b[0], b[0]))
        for i in range(1, k_max):
            vec = [Fraction(x) for x in b[i]]
            for j in range(i):
                denom = bstar_norm[j]
                mu[i][j] = (
                    _trace_gram(disc, b[i], bstar[j]) / denom if denom else Fraction(0)
                )
                vec = [x - mu[i][j] * y for x, y in zip(vec, bstar[j])]
            bstar.append(vec)
            bstar_norm[i] = _trace_gram(disc, vec, vec)
        return mu, bstar, bstar_norm

    mu, bstar, bstar_norm = gso()
    k = 1
    while k < k_max:
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, bstar, bstar_norm = gso()
        if bstar_norm[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar_norm[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, bstar, bstar_norm = gso()
            k = max(k - 1, 1)
    return b


def _trace_form(disc, u, v):
    # sum of Tr(x * conj(y)) over the coordinates, through the order's own
    # arithmetic rather than siegel's interleaved formula
    xs, ys = ints_to_vector(disc, u), ints_to_vector(disc, v)
    return sum((x * y.conjugate()).trace() for x, y in zip(xs, ys))


def _mu_and_norms(disc, basis):
    """mu and |b*_i|^2 from the Gram matrix alone, over Fraction."""
    k = len(basis)
    gram = [[_trace_form(disc, u, v) for v in basis] for u in basis]
    mu = [[Fraction(0)] * k for _ in range(k)]
    r = [[Fraction(0)] * k for _ in range(k)]
    norms = []
    for i in range(k):
        for j in range(i):
            r[i][j] = gram[i][j] - sum(mu[j][l] * r[i][l] for l in range(j))
            mu[i][j] = r[i][j] / norms[j]
        norms.append(gram[i][i] - sum(mu[i][l] * r[i][l] for l in range(i)))
    return mu, norms


def _independent(rows):
    return len(hnf_int(rows)) == len(rows)


def _random_basis(rng, k, span=60, parallel=None):
    """k independent flat rows of length 2n >= k, entries in [-span, span].
    In about a third of the bases, or in each when ``parallel`` is true, every
    row is a small multiple of one vector plus a perturbation of at most 1, and
    such near-parallel rows force many swaps."""
    while True:
        n = rng.randint(math.ceil(k / 2), math.ceil(k / 2) + 2)
        rows = [[rng.randint(-span, span) for _ in range(2 * n)] for _ in range(k)]
        if k >= 2 and (rng.random() < 0.35 if parallel is None else parallel):
            base = [rng.randint(-span // 6, span // 6) for _ in range(2 * n)]
            for i in range(k):
                scale = rng.choice([1, 2, 3, 5])
                rows[i] = [scale * x + rng.randint(-1, 1) for x in base]
        if _independent(rows):
            return rows


def _tie_bases():
    """Bases whose first mu is exactly m/2 for m = +-1, +-3, +-5: m = +-1 sits
    on the size-reduction boundary, m = +-3 and +-5 meet round()'s half-even
    tie.  With c = (1, 1, 0, 0) and e orthogonal to c, b1 = e + m*c and
    b0 = 2*c give mu_10 = m/2 under every trace form, and a third row keeps
    the reduction going past the first step."""
    out = []
    for disc in DISCS:
        c = [1, 1, 0, 0]
        r = [0, 0, 1, 0] if disc % 2 else [1, 0, 0, 1]
        cc, rc = _trace_form(disc, c, c), _trace_form(disc, r, c)
        e = [cc * x - rc * y for x, y in zip(r, c)]
        for m in (1, -1, 3, -3, 5, -5):
            b0 = [2 * x for x in c]
            b1 = [x + m * y for x, y in zip(e, c)]
            assert _mu_and_norms(disc, [b0, b1])[0][1][0] == Fraction(m, 2)
            out.append((disc, [b0, b1]))
            b2 = [x - y for x, y in zip(b1, [0, 1, 1, 1])]
            assert _independent([b0, b1, b2])
            out.append((disc, [b0, b1, b2]))
    return out


def _lll_cases():
    rng = random.Random(20260417)
    cases = _tie_bases()
    for i in range(100):
        disc = DISCS[i % len(DISCS)]
        k = 1 + i % 8 if i % 50 != 49 else 10
        cases.append((disc, _random_basis(rng, k)))
    return cases


def _assert_lll_reduced(disc, basis, reduced):
    assert hnf_int(reduced) == hnf_int(basis)
    assert len(reduced) == len(basis)
    if len(reduced) <= 1:
        return
    mu, norms = _mu_and_norms(disc, reduced)
    for i in range(len(reduced)):
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
    for k in range(1, len(reduced)):
        assert norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]


def test_lll_matches_the_full_gram_schmidt_reference():
    # the reference is slow: it takes every basis with at most 4 rows, every
    # fourth with 5 to 8 and the first with 10, over all five discriminants
    seen = {}
    for disc, basis in _lll_cases():
        k = len(basis)
        seen[k] = seen.get(k, -1) + 1
        if k <= 4 or (k <= 8 and seen[k] % 4 == 0) or seen[k] == 0:
            assert siegel._lll(disc, basis) == _reference_lll(disc, basis)
    assert sorted(seen) == [1, 2, 3, 4, 5, 6, 7, 8, 10]


def test_lll_output_is_reduced_and_spans_the_input():
    # independent of the reference: a wrong mu update leaves some |mu| above
    # 1/2 or some Lovasz condition broken in a Gram-Schmidt computed here
    for disc, basis in _lll_cases():
        _assert_lll_reduced(disc, basis, siegel._lll(disc, basis))
    rng = random.Random(4242)
    for i in range(50):
        disc = DISCS[i % len(DISCS)]
        n = rng.randint(2, 5)
        system = random_system(rng, disc, rng.randint(1, n - 1), n, span=6)
        basis = _z_basis(_kernel_basis(system), disc)
        _assert_lll_reduced(disc, basis, siegel._lll(disc, basis))


def test_lll_reduces_larger_bases():
    # the SWAP update's loop over rows i > k runs longest at large k, and
    # near-parallel rows swap most.  A wrong update there tends to make the
    # reduction run away rather than return, so where the platform has
    # SIGALRM a timer turns that into a failure; the test takes about 0.5 s.
    def runaway(signum, frame):
        raise AssertionError("_lll ran for 15 s on a basis of at most 20 rows")

    timed = hasattr(signal, "setitimer")
    if timed:
        previous = signal.signal(signal.SIGALRM, runaway)
        signal.setitimer(signal.ITIMER_REAL, 15)
    try:
        rng = random.Random(2032)
        for i, k in enumerate((12, 14, 16, 18, 20)):
            for parallel in (False, True):
                disc = DISCS[i]
                basis = _random_basis(rng, k, parallel=parallel)
                _assert_lll_reduced(disc, basis, siegel._lll(disc, basis))
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
