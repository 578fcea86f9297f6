"""Round trips and failure modes of the text and JSON formats."""

import json
import random
from fractions import Fraction

import pytest

from toran.mordell_weil import ModuleSpec, PointInEN
from toran.orders import EUCLIDEAN_DISCS, OrderElement, format_element, parse_element
from toran.serialize import (
    FormatError,
    dumps_canonical,
    format_matrix_text,
    format_torsion_point_text,
    matrix_from_json_dict,
    matrix_to_json_dict,
    module_spec_from_json_dict,
    module_spec_to_json_dict,
    parse_matrix_text,
    parse_torsion_point_text,
    point_from_json_dict,
    point_to_json_dict,
    torsion_point_from_json_dict,
    torsion_point_to_json_dict,
)
from toran.subgroups import RankError, SubgroupMatrix, TorsionPoint

DISCS = list(EUCLIDEAN_DISCS)


def random_matrix(rng, disc, n, r):
    rows = [
        [OrderElement(disc, rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]
        for _ in range(r)
    ]
    return SubgroupMatrix(disc, n, rows, check_rank=False)


def test_matrix_text_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        disc = rng.choice(DISCS)
        m = random_matrix(rng, disc, rng.randint(1, 4), rng.randint(0, 3))
        text = format_matrix_text(m)
        back = parse_matrix_text(text)
        assert back == m
        assert format_matrix_text(back) == text


def test_matrix_text_frozen():
    m = SubgroupMatrix.from_ints(-4, [[(1, 1), (2, -1)], [0, (0, -3)]])
    assert format_matrix_text(m) == "-4 2 2\n1+1*w 2-1*w\n0 -3*w\n"


def test_matrix_text_errors():
    with pytest.raises(FormatError):
        parse_matrix_text("")
    with pytest.raises(FormatError):
        parse_matrix_text("-4 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_matrix_text("-4 x 1\n1 2\n")
    with pytest.raises(FormatError):
        parse_matrix_text("-4 2 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_matrix_text("-4 2 1\n1 2 3\n")
    with pytest.raises(FormatError):
        parse_matrix_text("-4 2 1\n1 spam\n")
    with pytest.raises(RankError):
        parse_matrix_text("-4 2 2\n1 1\n1 1\n", check_rank=True)


def test_matrix_json_round_trip():
    rng = random.Random(7)
    for _ in range(60):
        disc = rng.choice(DISCS)
        m = random_matrix(rng, disc, rng.randint(1, 3), rng.randint(0, 3))
        obj = matrix_to_json_dict(m)
        json.dumps(obj)  # stays JSON-serializable
        assert matrix_from_json_dict(obj) == m
    with pytest.raises(FormatError):
        matrix_from_json_dict({"disc": -4, "rows": [["1"]]})  # N missing
    with pytest.raises(FormatError):
        matrix_from_json_dict({"disc": -4, "N": 1, "r": 2, "rows": [["1"]]})


def test_torsion_point_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        disc = rng.choice(DISCS)
        level = rng.randint(1, 9)
        coords = [
            OrderElement(disc, rng.randrange(level), rng.randrange(level))
            for _ in range(rng.randint(1, 4))
        ]
        p = TorsionPoint(disc, level, coords)
        text = format_torsion_point_text(p)
        assert parse_torsion_point_text(disc, text) == p
        obj = torsion_point_to_json_dict(p)
        assert torsion_point_from_json_dict(obj) == p


def test_torsion_point_text_frozen():
    p = TorsionPoint(-7, 5, [OrderElement(-7, 2, 3), OrderElement(-7, 0, 0)])
    assert format_torsion_point_text(p) == "level: 5; coords: [2+3*w, 0]"
    assert parse_torsion_point_text(-7, " level : 5 ; coords : [ 2+3*w , 0 ] ") == p


def test_torsion_point_errors():
    with pytest.raises(FormatError):
        parse_torsion_point_text(-4, "coords: [1]")
    with pytest.raises(FormatError):
        parse_torsion_point_text(-4, "level: 2; coords: [1")
    with pytest.raises(FormatError):
        parse_torsion_point_text(-4, "level: 2; coords: [one]")
    with pytest.raises(FormatError):
        torsion_point_from_json_dict({"level": 2, "coords": []})


def test_module_spec_round_trip():
    spec = ModuleSpec(-7, 2, [[2, (1, 1)], [(2, -1), 3]], torsion_order=4)
    x = PointInEN.from_rows(spec, [[1, (0, 1)], [(2, 0), 0]], [3, 1])
    obj = module_spec_to_json_dict(spec, [x])
    json.dumps(obj)
    spec2, points = module_spec_from_json_dict(obj)
    assert spec2 == spec
    assert points == [x]
    # a spec with fractional gram entries survives too
    spec3 = ModuleSpec(-4, 1, [[("3/2", 0)]])
    spec4, _ = module_spec_from_json_dict(module_spec_to_json_dict(spec3))
    assert spec4 == spec3


def test_module_spec_errors():
    with pytest.raises(FormatError):
        module_spec_from_json_dict({"disc": -4, "rank": 1})
    with pytest.raises(FormatError):
        module_spec_from_json_dict(
            {"disc": -4, "rank": 1, "gram": [[{"q": "x"}]], "torsion_order": 1}
        )
    with pytest.raises(FormatError, match="points"):
        module_spec_from_json_dict(
            {"disc": -4, "rank": 1, "gram": [[{"q": "1"}]], "points": 5}
        )


def test_point_json_round_trip():
    spec = ModuleSpec(-3, 2, [[1, 0], [0, 2]], torsion_order=3)
    x = PointInEN.from_rows(spec, [[(1, -1), 0], [2, (0, 2)]], [0, 2])
    obj = point_to_json_dict(x)
    assert point_from_json_dict(spec, obj) == x
    with pytest.raises(FormatError):
        point_from_json_dict(spec, {"torsions": ["1"]})


def test_dumps_canonical_deterministic():
    obj = {"b": [1, 2], "a": {"z": "1/2", "y": 3}}
    one = dumps_canonical(obj)
    two = dumps_canonical({"a": {"y": 3, "z": "1/2"}, "b": [1, 2]})
    assert one == two
    assert one.endswith("\n")
    assert one.index('"a"') < one.index('"b"')


# quotes, backslashes, control characters, non-ASCII, a line separator, an
# astral character and a lone surrogate, all of which json escapes
_CHARS = ["a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f",
          "é", "ß", "€", "\u2028", "\U0001F600", "\U00010000", "\ud800"]


def _random_str(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randint(0, 6)))


def _random_scalar(rng):
    return rng.choice([
        _random_str(rng),
        rng.randint(-10**6, 10**6),
        rng.choice([0, -1, 2**63, -(2**64) - 1, 10**40, -(3**90)]),  # past 64 bits
        True,
        False,
        None,
    ])


def _random_json(rng, depth=0):
    """A seeded nested value of the types ``dumps_canonical`` accepts."""
    kind = rng.randrange(7) if depth < 4 else 0
    size = rng.randint(0, 4)  # 0 puts an empty container at this depth
    if kind == 0:
        return _random_scalar(rng)
    if kind == 1:  # one element type, so a single join writes it
        return [_random_str(rng) for _ in range(size)]
    if kind == 2:
        return [rng.randint(-10**20, 10**20) for _ in range(size)]
    if kind == 3:  # bools next to ints
        return [rng.choice([True, False, 0, 1, 2]) for _ in range(size)]
    if kind in (4, 5):
        items = [_random_json(rng, depth + 1) for _ in range(size)]
        return items if kind == 4 else tuple(items)
    return {_random_str(rng): _random_json(rng, depth + 1) for _ in range(size)}


def test_dumps_canonical_matches_json_dumps():
    rng = random.Random(29)
    for _ in range(2000):
        obj = _random_json(rng)
        assert dumps_canonical(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    nested_empty = {"": [], "a": [{}, [[]], ()], "b": {"c": {"d": {}}}}
    assert dumps_canonical(nested_empty) == json.dumps(nested_empty, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), 0.5, {1, 2}, {1: "a"}, {"a": [{"b": 1.0}]}, [Fraction(3)], {"a": 1, 2: "b"}],
    ids=["fraction", "float", "set", "int-key", "nested-float", "fraction-in-list", "mixed-keys"],
)
def test_dumps_canonical_rejects_other_types(obj):
    with pytest.raises(TypeError):
        dumps_canonical(obj)


def test_element_text_round_trip_via_formats():
    rng = random.Random(17)
    for _ in range(200):
        disc = rng.choice(DISCS)
        e = OrderElement(disc, rng.randint(-30, 30), rng.randint(-30, 30))
        assert parse_element(format_element(e), disc) == e
