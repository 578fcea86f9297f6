"""Small kernel vectors with exact Siegel-shape certificates."""

import random
from fractions import Fraction

import pytest

from toran import siegel
from toran.orders import EUCLIDEAN_DISCS, OrderElement, format_element, parse_element
from toran.siegel import (
    DEFAULT_SIEGEL_CONSTANT,
    LinearSystem,
    SiegelCertificate,
    complete_to_square,
    small_solution,
)
from toran.subgroups import RankError, SubgroupMatrix, _rank

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
