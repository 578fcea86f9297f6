"""Text and JSON formats for matrices, torsion points and point modules.

Matrix text files carry a "disc N r" header line followed by r rows of
space-separated elements in a+b*w form.  Torsion points read
"level: n; coords: [c1, c2, ...]".  JSON counterparts spell every exact
rational as a string so round-trips are lossless.  ``dumps_canonical`` writes
all JSON, from str-keyed dicts, lists, tuples, str, int, bool and None only,
byte for byte as ``json.dumps(obj, sort_keys=True, indent=2)`` plus a newline.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .mordell_weil import ModuleSpec, PointInEN
from .orders import QuadRat, format_element, parse_element
from .subgroups import SubgroupMatrix, TorsionPoint


class FormatError(ValueError):
    """Malformed textual or JSON input."""


# ---------------------------------------------------------------------------
# matrices


def format_matrix_text(m: SubgroupMatrix) -> str:
    lines = [f"{m.disc} {m.N} {m.r}"]
    for row in m.rows:
        lines.append(" ".join(format_element(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str, check_rank: bool = False) -> SubgroupMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty matrix input")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(f"header must be 'disc N r', got {lines[0]!r}")
    try:
        disc, n, r = (int(tok) for tok in head)
    except ValueError as exc:
        raise FormatError(f"non-integer header field in {lines[0]!r}") from exc
    if len(lines) - 1 != r:
        raise FormatError(f"expected {r} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        entries = ln.split()
        if len(entries) != n:
            raise FormatError(f"expected {n} entries per row, got {len(entries)}")
        try:
            rows.append([parse_element(tok, disc) for tok in entries])
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
    return SubgroupMatrix(disc, n, rows, check_rank=check_rank)


def matrix_to_json_dict(m: SubgroupMatrix) -> dict:
    return {
        "disc": m.disc,
        "N": m.N,
        "r": m.r,
        "rows": [[format_element(e) for e in row] for row in m.rows],
    }


def matrix_from_json_dict(obj: dict, check_rank: bool = False) -> SubgroupMatrix:
    try:
        disc, n = int(obj["disc"]), int(obj["N"])
        rows = [[parse_element(tok, disc) for tok in row] for row in obj["rows"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad matrix object: {exc}") from exc
    if "r" in obj and int(obj["r"]) != len(rows):
        raise FormatError(f"row count {len(rows)} does not match r={obj['r']}")
    return SubgroupMatrix(disc, n, rows, check_rank=check_rank)


# ---------------------------------------------------------------------------
# torsion points

_POINT_RE = re.compile(
    r"^\s*level\s*:\s*(\d+)\s*;\s*coords\s*:\s*\[(.*)\]\s*$", re.DOTALL
)


def format_torsion_point_text(p: TorsionPoint) -> str:
    inner = ", ".join(format_element(c) for c in p.coords)
    return f"level: {p.level}; coords: [{inner}]"


def parse_torsion_point_text(disc: int, text: str) -> TorsionPoint:
    m = _POINT_RE.match(text)
    if not m:
        raise FormatError(f"expected 'level: n; coords: [...]', got {text!r}")
    level = int(m.group(1))
    body = m.group(2).strip()
    coords = []
    if body:
        for tok in body.split(","):
            try:
                coords.append(parse_element(tok.strip(), disc))
            except ValueError as exc:
                raise FormatError(str(exc)) from exc
    return TorsionPoint(disc, level, coords)


def torsion_point_to_json_dict(p: TorsionPoint) -> dict:
    return {
        "disc": p.disc,
        "level": p.level,
        "coords": [format_element(c) for c in p.coords],
    }


def torsion_point_from_json_dict(obj: dict) -> TorsionPoint:
    try:
        disc = int(obj["disc"])
        level = int(obj["level"])
        coords = [parse_element(tok, disc) for tok in obj["coords"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad torsion point object: {exc}") from exc
    return TorsionPoint(disc, level, coords)


# ---------------------------------------------------------------------------
# point modules and points with coordinates in them


def _fraction_str(fr: Fraction) -> str:
    return str(Fraction(fr))


def _parse_fraction(tok) -> Fraction:
    try:
        return Fraction(str(tok))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {tok!r}") from exc


def module_spec_to_json_dict(spec: ModuleSpec, points=()) -> dict:
    gram = [
        [{"q": _fraction_str(e.x), "w": _fraction_str(e.y)} for e in row]
        for row in spec.gram
    ]
    out = {
        "disc": spec.disc,
        "rank": spec.rank,
        "gram": gram,
        "torsion_order": spec.torsion_order,
        "points": [point_to_json_dict(p) for p in points],
    }
    return out


def module_spec_from_json_dict(obj: dict) -> tuple[ModuleSpec, list[PointInEN]]:
    try:
        disc = int(obj["disc"])
        rank = int(obj["rank"])
        torsion_order = int(obj.get("torsion_order", 1))
        gram = [
            [
                QuadRat(disc, _parse_fraction(e["q"]), _parse_fraction(e.get("w", 0)))
                for e in row
            ]
            for row in obj["gram"]
        ]
        raw_points = obj.get("points", [])
        if not isinstance(raw_points, list):
            raise TypeError(f"points must be a list, got {raw_points!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad module spec object: {exc}") from exc
    spec = ModuleSpec(disc, rank, gram, torsion_order)
    points = [point_from_json_dict(spec, p) for p in raw_points]
    return spec, points


def point_to_json_dict(p: PointInEN) -> dict:
    return {
        "rows": [[format_element(e) for e in c.free] for c in p.coords],
        "torsions": [format_element(c.torsion) for c in p.coords],
    }


def point_from_json_dict(spec: ModuleSpec, obj: dict) -> PointInEN:
    try:
        rows = [[parse_element(tok, spec.disc) for tok in row] for row in obj["rows"]]
        torsions = [parse_element(tok, spec.disc) for tok in obj.get("torsions", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad point object: {exc}") from exc
    if not torsions:
        torsions = None
    return PointInEN.from_rows(spec, rows, torsions)


# ---------------------------------------------------------------------------
# canonical JSON emission


def dumps_canonical(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte, in
    one pass.  Accepts str-keyed dicts, lists, tuples, str, int, bool and
    None; any other type, a float or a Fraction included, raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out) + "\n"


_NAMED = {None: "null", True: "true", False: "false"}
_ATOMS = {str: _quote, int: int.__repr__, bool: _NAMED.get, type(None): _NAMED.get}


def _write(obj, nl: str, out: list[str]) -> None:
    # nl is a newline and the indent of obj's own line
    t = type(obj)
    if t in _ATOMS:
        return out.append(_ATOMS[t](obj))
    if t is not dict and t is not list and t is not tuple:
        raise TypeError(f"{t.__name__} is not canonical JSON")
    if not obj:
        return out.append("{}" if t is dict else "[]")
    inner = nl + "  "
    kinds = set(map(type, obj))
    atom = _ATOMS.get(kinds.pop()) if len(kinds) == 1 and t is not dict else None
    if atom:  # a list of one scalar type is one join
        return out.append(f"[{inner}{(',' + inner).join(map(atom, obj))}{nl}]")
    for i, x in enumerate(sorted(obj) if t is dict else obj):
        out.append(("," if i else "{" if t is dict else "[") + inner)
        if t is dict:  # _quote raises TypeError on a key that is not a str
            out.append(_quote(x) + ": ")
            x = obj[x]
        _write(x, inner, out)
    out.append(nl + ("}" if t is dict else "]"))
