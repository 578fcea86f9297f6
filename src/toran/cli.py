"""Command line front end.

Subcommands
    bounds      evaluate one catalog bound (single shot or CSV sweep)
    identities  cross-check exponent identities between bound families
    classify    anomaly verdict for a point of E^N against a subvariety
    reduce      torsion-variety coset from a relaxed point presentation
    lift        transverse torsion coset in the extended power
    enumerate   torsion points or small connected subgroups
    orthogonal  complement presentation of a subgroup matrix
    siegel      small kernel vectors of a linear system, with certificate
    complement  extend a matrix to an invertible square one

All output is JSON with sorted keys (or CSV in sweep mode), so identical
inputs produce identical bytes.  Exit codes: 0 success, 2 invalid input,
3 search budget exceeded.  TORAN_DISC supplies a default discriminant.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import os
import sys
from fractions import Fraction

from . import serialize
from .bounds import BoundRangeError, evaluate_bound, exact_str, exponent_identities
from .enumeration import (
    count_torsion_points,
    enumerate_subgroups,
    enumerate_torsion,
    surrogate_degree,
)
from .orders import DiscMismatchError, parse_element
from .reductions import (
    GammaPoint,
    VarietyParams,
    classify_point,
    gamma_to_torsion_variety,
    transverse_lift,
)
from .siegel import (
    DEFAULT_SIEGEL_CONSTANT,
    LinearSystem,
    complete_to_square,
    small_solution,
)
from .subgroups import BudgetExceededError, RankError, orthogonal_complement

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _emit(obj) -> None:
    sys.stdout.write(serialize.dumps_canonical(obj))


def _decimal_str(fr: Fraction) -> str:
    """12 significant digits, exact decimal arithmetic (no float range limit)."""
    ctx = decimal.Context(prec=12)
    return str(ctx.divide(decimal.Decimal(fr.numerator), decimal.Decimal(fr.denominator)))


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_matrix(path: str, check_rank: bool = False):
    text = _read_source(path)
    if text.lstrip().startswith("{"):
        return serialize.matrix_from_json_dict(json.loads(text), check_rank=check_rank)
    return serialize.parse_matrix_text(text, check_rank=check_rank)


def _load_module(path: str):
    text = _read_source(path)
    return serialize.module_spec_from_json_dict(json.loads(text))


def _pick_point(points, index: int):
    if not points:
        raise serialize.FormatError("module file contains no points")
    if not 0 <= index < len(points):
        raise serialize.FormatError(
            f"point index {index} out of range (file has {len(points)})"
        )
    return points[index]


def _parse_kv(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise serialize.FormatError(f"expected KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = Fraction(val.strip())
    return out


def _default_disc(value):
    if value is not None:
        return value
    env = os.environ.get("TORAN_DISC")
    if env is None:
        raise serialize.FormatError("no --disc given and TORAN_DISC is not set")
    return int(env)


def _coset_json(coset) -> dict:
    return {
        "matrix": serialize.matrix_to_json_dict(coset.subgroup),
        "zeta": serialize.torsion_point_to_json_dict(coset.zeta),
        "dim": coset.dim,
        "codim": coset.codim,
    }


def _certificate_json(cert) -> dict:
    return {
        "achieved_norm": cert.achieved_norm,
        "size_term": cert.size_term,
        "exp_num": cert.exp_num,
        "exp_den": cert.exp_den,
        "constant": str(cert.constant),
        "holds": cert.holds(),
    }


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_bounds(args) -> int:
    if args.theorem is None:
        raise serialize.FormatError("--theorem is required")
    constants = _parse_kv(args.constant)
    if args.sweep:
        return _sweep(args, constants)
    params = _parse_kv(args.param)
    res = evaluate_bound(
        args.theorem, eta=Fraction(args.eta), constants=constants, **params
    )
    _emit(res.to_json_dict())
    return EXIT_OK


def _sweep(args, constants) -> int:
    text = _read_source(args.sweep)
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise serialize.FormatError("sweep file has no header row")
    rows_out = []
    for row in reader:
        params = {}
        eta = Fraction(args.eta)
        for key, val in row.items():
            if val is None or not str(val).strip():
                continue
            if key == "eta":
                eta = Fraction(val)
            else:
                params[key] = Fraction(val)
        res = evaluate_bound(args.theorem, eta=eta, constants=constants, **params)
        out = dict(row)
        out["value"] = exact_str(res.value)
        out["value_float"] = _decimal_str(res.value)
        out["value_exact"] = str(res.value_exact)
        rows_out.append(out)
    fields = list(reader.fieldnames) + ["value", "value_float", "value_exact"]
    writer = csv.DictWriter(sys.stdout, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for out in rows_out:
        writer.writerow(out)
    return EXIT_OK


def _cmd_identities(args) -> int:
    _emit(exponent_identities(max_n=args.max_n, eta=Fraction(args.id_eta)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    spec, points = _load_module(args.module)
    x = _pick_point(points, args.point_index)
    v = VarietyParams(n_ambient=x.N, dim=args.dim_v)
    report = classify_point(v, x)
    _emit(report.to_json_dict())
    return EXIT_OK


def _gamma_point(args):
    spec, points = _load_module(args.module)
    x = _pick_point(points, args.point_index)
    multipliers = None
    if args.multipliers:
        multipliers = [
            parse_element(tok.strip(), spec.disc)
            for tok in args.multipliers.split(",")
        ]
    return GammaPoint(x, multipliers)


def _cmd_reduce(args) -> int:
    coset = gamma_to_torsion_variety(_gamma_point(args))
    _emit(_coset_json(coset))
    return EXIT_OK


def _cmd_lift(args) -> int:
    lifted, coset = transverse_lift(_gamma_point(args))
    _emit(
        {
            "point": serialize.point_to_json_dict(lifted),
            "coset": _coset_json(coset),
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    disc = _default_disc(args.disc)
    if args.budget < 0:
        raise ValueError(f"need a non-negative budget, got {args.budget}")
    if args.kind == "torsion":
        if args.level is None:
            raise serialize.FormatError("torsion enumeration needs --level")
        count = count_torsion_points(args.ambient, args.level, args.exact_order)
        out = {"disc": disc, "N": args.ambient, "level": args.level, "count": count}
        if not args.count_only:
            pts = enumerate_torsion(
                disc, args.ambient, args.level, args.exact_order, budget=args.budget
            )
            out["items"] = [serialize.format_torsion_point_text(p) for p in pts]
        _emit(out)
        return EXIT_OK
    if args.dim is None or args.x_budget is None:
        raise serialize.FormatError("subgroup enumeration needs --dim and --x-budget")
    subs = enumerate_subgroups(disc, args.ambient, args.dim, args.x_budget, budget=args.budget)
    out = {
        "disc": disc,
        "N": args.ambient,
        "dim": args.dim,
        "x_budget": args.x_budget,
        "count": len(subs),
    }
    if not args.count_only:
        out["items"] = [
            {
                "matrix": serialize.matrix_to_json_dict(m),
                "surrogate": surrogate_degree(m),
            }
            for m in subs
        ]
    _emit(out)
    return EXIT_OK


def _cmd_orthogonal(args) -> int:
    m = _load_matrix(args.matrix, check_rank=True)
    comp = orthogonal_complement(m)
    if args.text:
        sys.stdout.write(serialize.format_matrix_text(comp))
    else:
        _emit({"complement": serialize.matrix_to_json_dict(comp)})
    return EXIT_OK


def _cmd_siegel(args) -> int:
    m = _load_matrix(args.matrix)
    system = LinearSystem(m.disc, m.rows)
    vectors, cert = small_solution(
        system,
        count=args.count,
        constant=Fraction(args.constant),
        box_fallback=not args.no_box_fallback,
    )
    _emit(
        {
            "solutions": [
                [serialize.format_element(e) for e in v] for v in vectors
            ],
            "certificate": _certificate_json(cert),
        }
    )
    return EXIT_OK


def _cmd_complement(args) -> int:
    m = _load_matrix(args.matrix, check_rank=True)
    full, cert = complete_to_square(m, constant=Fraction(args.constant))
    _emit(
        {
            "matrix": serialize.matrix_to_json_dict(full),
            "certificate": _certificate_json(cert),
        }
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toran",
        description="exact computations around torsion-anomalous intersections",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate a catalog bound")
    b.add_argument("--theorem", help="bound identifier")
    b.add_argument("--eta", default="0", help="eta as a fraction, default 0")
    b.add_argument("--param", action="append", metavar="KEY=VALUE")
    b.add_argument("--constant", action="append", metavar="KEY=VALUE")
    b.add_argument("--sweep", metavar="CSV", help="CSV of parameter rows")
    b.set_defaults(func=_cmd_bounds)

    i = sub.add_parser("identities", help="cross-check exponent identities")
    i.add_argument("--max-n", type=int, default=12, dest="max_n")
    i.add_argument("--eta", default="1/10", dest="id_eta")
    i.set_defaults(func=_cmd_identities)

    c = sub.add_parser("classify", help="anomaly verdict for a point")
    c.add_argument("--module", required=True, help="module spec JSON ('-' stdin)")
    c.add_argument("--point-index", type=int, default=0)
    c.add_argument("--dim-v", type=int, required=True, help="dimension of V")
    c.set_defaults(func=_cmd_classify)

    r = sub.add_parser("reduce", help="torsion coset of a relaxed presentation")
    r.add_argument("--module", required=True)
    r.add_argument("--point-index", type=int, default=0)
    r.add_argument("--multipliers", help="comma-separated elements a_i")
    r.set_defaults(func=_cmd_reduce)

    l = sub.add_parser("lift", help="transverse coset in the extended power")
    l.add_argument("--module", required=True)
    l.add_argument("--point-index", type=int, default=0)
    l.add_argument("--multipliers", help="comma-separated elements a_i")
    l.set_defaults(func=_cmd_lift)

    e = sub.add_parser("enumerate", help="torsion points or small subgroups")
    e.add_argument("--kind", choices=["torsion", "subgroups"], required=True)
    e.add_argument("--disc", type=int, help="defaults to TORAN_DISC")
    e.add_argument("--ambient", type=int, required=True, metavar="N")
    e.add_argument("--level", type=int, help="torsion level")
    e.add_argument("--exact-order", action="store_true")
    e.add_argument("--dim", type=int, help="subgroup dimension")
    e.add_argument("--x-budget", type=int, dest="x_budget")
    e.add_argument("--budget", type=int, default=200_000)
    e.add_argument("--count-only", action="store_true")
    e.set_defaults(func=_cmd_enumerate)

    o = sub.add_parser("orthogonal", help="orthogonal complement of a matrix")
    o.add_argument("--matrix", required=True, help="matrix file ('-' stdin)")
    o.add_argument("--text", action="store_true", help="emit matrix text format")
    o.set_defaults(func=_cmd_orthogonal)

    s = sub.add_parser("siegel", help="small kernel vectors with certificate")
    s.add_argument("--matrix", required=True)
    s.add_argument("--count", type=int, default=1)
    s.add_argument("--constant", default=str(DEFAULT_SIEGEL_CONSTANT))
    s.add_argument("--no-box-fallback", action="store_true")
    s.set_defaults(func=_cmd_siegel)

    q = sub.add_parser("complement", help="extend a matrix to a square one")
    q.add_argument("--matrix", required=True)
    q.add_argument("--constant", default=str(DEFAULT_SIEGEL_CONSTANT))
    q.set_defaults(func=_cmd_complement)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (
        serialize.FormatError,
        BoundRangeError,
        RankError,
        DiscMismatchError,
        ValueError,
        ZeroDivisionError,
        KeyError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
