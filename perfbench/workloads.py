"""Seeded inputs, operations and output checks of the four workloads.

A workload is an endless sequence of rounds. A round holds one operation for
each cell of the workload's input grid (discriminant, size, rank, ...), so
every round asks for the same kind and amount of work and a run's mix does
not depend on how many rounds it completes. The seed draws the entries, the
discriminant rotations and, from the second round on, the order of the
operations inside a round.

Operations take their inputs in the CLI's text or JSON formats, call only
public functions of ``toran`` through the tracer ``tr`` (see spans.py), and
return the ``dumps_canonical`` text they would print together with a record
that ``check`` verifies after the timed loop.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count
from math import comb, lcm

from toran import cli, serialize
from toran.bounds import (
    catalog_ids,
    eta_threshold,
    evaluate_bound,
    exponent_identities,
)
from toran.enumeration import (
    brute_force_minimal_coset,
    enumerate_subgroups,
    surrogate_degree,
)
from toran.intlattice import det_int
from toran.mordell_weil import ModuleSpec, PointInEN, minimal_coset, nt_height
from toran.orders import EUCLIDEAN_DISCS, OrderElement, format_element, parse_element
from toran.reductions import (
    GammaPoint,
    TorsionCoset,
    VarietyParams,
    classify_point,
    gamma_to_torsion_variety,
    transverse_lift,
)
from toran.siegel import LinearSystem, complete_to_square, small_solution
from toran.subgroups import (
    RankError,
    SubgroupMatrix,
    degree_surrogate,
    hnf,
    integer_model,
    kernel_count_at_level,
    kernel_lattice_at_level,
    orthogonal_complement,
    saturate,
    sum_and_intersection,
)

DISCS = tuple(EUCLIDEAN_DISCS)


@dataclass
class Op:
    """One operation: its kind, its inputs in CLI formats, and its grid cell."""

    kind: str
    inputs: dict
    cell: tuple = ()


@dataclass
class Record:
    """What an operation returned, kept for the checks after the timed loop.

    ``flags`` holds the yes/no outcomes that the traced run turns into
    useful-work ratios, such as whether the oracle was compared or skipped.
    """

    values: dict
    flags: dict = field(default_factory=dict)


def _dumps(tr, obj) -> str:
    return tr.call("serialize.dumps_canonical", serialize.dumps_canonical, obj)


def _element_norm_le(rng: random.Random, disc: int, cap: int) -> OrderElement:
    while True:
        e = OrderElement(disc, rng.randint(-7, 7), rng.randint(-7, 7))
        if e.norm() <= cap:
            return e


def _full_rank_rows(rng: random.Random, disc: int, n: int, r: int, cap: int):
    while True:
        rows = [[_element_norm_le(rng, disc, cap) for _ in range(n)] for _ in range(r)]
        try:
            return SubgroupMatrix(disc, n, rows)
        except RankError:
            continue


def _shuffled_after_first(rng: random.Random, ops: list, k: int) -> list:
    """Round k in seeded order, except that the first round keeps grid order:
    then the library's caches fill in the same order in every run, and in
    ``coset`` that order alone moves peak RSS by up to 6 MB."""
    if k:
        rng.shuffle(ops)
    return ops


def _disc_rotation(rng: random.Random) -> list[int]:
    discs = list(DISCS)
    rng.shuffle(discs)
    return discs


def _certificate_json(cert) -> dict:
    return {
        "achieved_norm": cert.achieved_norm,
        "size_term": cert.size_term,
        "exp_num": cert.exp_num,
        "exp_den": cert.exp_den,
        "constant": str(cert.constant),
        "holds": cert.holds(),
    }


def _coset_json(M: SubgroupMatrix, zeta) -> dict:
    return {
        "matrix": serialize.matrix_to_json_dict(M),
        "zeta": serialize.torsion_point_to_json_dict(zeta),
    }


def _nonsingular(m: SubgroupMatrix) -> bool:
    return m.r == m.N and det_int(integer_model(list(m.rows), m.disc, m.N)) != 0


# ---------------------------------------------------------------------------
# coset: minimal torsion cosets, the brute-force oracle, reductions


class Coset:
    """Random points of E^N with identity gram, as in acceptance criterion 06.

    Whether the brute-force oracle runs (the minimal coset's surrogate is
    within its budget) makes an operation 50 to 100 times dearer, so the
    rounds fix it: every (disc, N, rank) cell gets points within the budget,
    and each discriminant gets one N = 3, rank 2 point outside it. N = 2
    cells get two points each: they cost a tenth of an N = 3 point and are
    where the median operation lies, so they need the samples.
    """

    name = "coset"
    oracle_budget = 16

    def rounds(self, seed: int):
        rng = random.Random(f"coset/{seed}")
        for k in count():
            ops = []
            for disc in DISCS:
                for n, copies in ((2, 2), (3, 1)):
                    for rank in (1, 2):
                        ops += [self._op(rng, disc, n, rank, True) for _ in range(copies)]
                ops.append(self._op(rng, disc, 3, 2, False))
            yield _shuffled_after_first(rng, ops, k)

    def _within_budget(self, M) -> bool:
        return not M.r or surrogate_degree(M) <= self.oracle_budget

    def _op(self, rng, disc, n, rank, within_budget) -> Op:
        torsion_order = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=torsion_order)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
            torsions = [rng.randrange(torsion_order) for _ in range(n)]
            x = PointInEN.from_rows(spec, rows, torsions)
            if self._within_budget(minimal_coset(x)[0]) == within_budget:
                break
        multipliers = []
        while len(multipliers) < n:
            a = OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2))
            if not a.is_zero():
                multipliers.append(format_element(a))
        module = json.dumps(serialize.module_spec_to_json_dict(spec, [x]))
        inputs = {
            "module": module,
            "multipliers": ",".join(multipliers),
            "dim_v": rng.randrange(n),
        }
        return Op("coset", inputs, (disc, n, rank, within_budget))

    def run(self, op: Op, tr):
        obj = json.loads(op.inputs["module"])
        spec, points = tr.call(
            "serialize.module_spec_from_json_dict", serialize.module_spec_from_json_dict, obj
        )
        x = points[0]
        mult = [parse_element(t, spec.disc) for t in op.inputs["multipliers"].split(",")]
        M, zeta, dim = tr.call("mordell_weil.minimal_coset", minimal_coset, x)
        height = tr.call("mordell_weil.nt_height", nt_height, x)
        oracle = None
        if self._within_budget(M):
            oracle = tr.call(
                "enumeration.brute_force_minimal_coset",
                brute_force_minimal_coset,
                x,
                x_budget=self.oracle_budget,
            )
        report = tr.call(
            "reductions.classify_point",
            classify_point,
            VarietyParams(x.N, op.inputs["dim_v"]),
            x,
        )
        gp = GammaPoint(x, mult)
        reduced = tr.call(
            "reductions.gamma_to_torsion_variety", gamma_to_torsion_variety, gp
        )
        lift = None
        if not x.is_torsion():
            lift = tr.call("reductions.transverse_lift", transverse_lift, gp)
        out = {
            "minimal": dict(_coset_json(M, zeta), dim=dim),
            "height": str(height),
            "oracle": None if oracle is None else dict(_coset_json(*oracle[:2]), dim=oracle[2]),
            "classify": report.to_json_dict(),
            "reduce": _coset_json(reduced.subgroup, reduced.zeta),
            "lift": None
            if lift is None
            else {
                "point": serialize.point_to_json_dict(lift[0]),
                "coset": _coset_json(lift[1].subgroup, lift[1].zeta),
            },
        }
        values = dict(x=x, minimal=(M, zeta, dim), oracle=oracle, report=report,
                      reduced=reduced, lift=lift)
        flags = {"enumeration.oracle_compared": oracle is not None}
        return _dumps(tr, out), Record(values, flags)

    def check(self, op: Op, rec: Record) -> list[str]:
        v = rec.values
        x, (M, zeta, dim) = v["x"], v["minimal"]
        failed = []
        if v["oracle"] is not None and v["oracle"] != (M, zeta, dim):
            failed.append("kernel route != oracle route")
        if not TorsionCoset(M, zeta).contains(x):
            failed.append("minimal coset misses its point")
        if not v["report"].coset.contains(x):
            failed.append("classify coset misses its point")
        if not v["reduced"].contains(x):
            failed.append("reduced coset misses its point")
        if v["lift"] is not None and not v["lift"][1].contains(v["lift"][0]):
            failed.append("lift coset misses the lifted point")
        return failed

    def order_elements(self, ops):
        for op in ops:
            spec, points = serialize.module_spec_from_json_dict(json.loads(op.inputs["module"]))
            for row in points[0].coefficient_rows():
                yield from row
            for t in op.inputs["multipliers"].split(","):
                yield parse_element(t, spec.disc)


# ---------------------------------------------------------------------------
# echelon: Hermite forms, kernels at a level, complements, enumeration


# (N, dim, X) slots of the subgroup enumerations, one per round in this
# cycle; each slot meets every discriminant once before any key repeats.
ENUM_SLOTS = tuple(
    [(2, 1, x) for x in range(1, 13)] + [(3, 2, x) for x in range(1, 5)] + [(3, 1, 1), (3, 1, 2)]
)


class Echelon:
    """Random full-rank r x N matrices, N <= 5, entry norms <= 25."""

    name = "echelon"
    levels = (2, 3, 6)
    count_level = 12

    def rounds(self, seed: int):
        rng = random.Random(f"echelon/{seed}")
        slot_discs = [_disc_rotation(rng) for _ in ENUM_SLOTS]
        for k in count():
            ops = []
            prev: dict = {}
            for disc in DISCS:
                for n in range(2, 6):
                    for r in range(1, n + 1):
                        m = _full_rank_rows(rng, disc, n, r, 25)
                        ops.append(Op("matrix", {"matrix": serialize.format_matrix_text(m)}, (disc, n, r)))
            ops = _shuffled_after_first(rng, ops, k)
            for op in ops:  # pair each matrix with the previous one of its (disc, N)
                key = op.cell[:2]
                op.inputs["previous"] = prev.get(key)
                prev[key] = op.inputs["matrix"]
            slot, turn = k % len(ENUM_SLOTS), k // len(ENUM_SLOTS)
            if turn < len(DISCS):  # keys never repeat within a run
                n, dim, x = ENUM_SLOTS[slot]
                disc = slot_discs[slot][turn]
                ops.insert(rng.randrange(len(ops) + 1),
                           Op("enumerate", {"disc": disc, "N": n, "dim": dim, "X": x}))
            yield ops

    def run(self, op: Op, tr):
        if op.kind == "enumerate":
            return self._run_enumerate(op, tr)
        parse = serialize.parse_matrix_text
        M = tr.call("serialize.parse_matrix_text", parse, op.inputs["matrix"])
        H = tr.call("subgroups.hnf", hnf, M)
        S = tr.call("subgroups.saturate", saturate, M)
        D = tr.call("subgroups.degree_surrogate", degree_surrogate, M)
        lattices = {
            level: tr.call("subgroups.kernel_lattice_at_level", kernel_lattice_at_level, M, level)
            for level in self.levels
        }
        count = tr.call(
            "subgroups.kernel_count_at_level", kernel_count_at_level, M, self.count_level
        )
        C = tr.call("subgroups.orthogonal_complement", orthogonal_complement, M)
        both = None
        if op.inputs["previous"] is not None:
            P = tr.call("serialize.parse_matrix_text", parse, op.inputs["previous"])
            both = tr.call("subgroups.sum_and_intersection", sum_and_intersection, P, M)
        out = {
            "hnf": serialize.matrix_to_json_dict(H),
            "saturate": serialize.matrix_to_json_dict(S),
            "surrogate": {"minor_sum": D.minor_sum, "row_product": D.row_product},
            "kernel_lattices": {str(lv): [list(row) for row in lat] for lv, lat in lattices.items()},
            "kernel_count": {str(self.count_level): count},
            "complement": serialize.matrix_to_json_dict(C),
            "sum_and_intersection": None
            if both is None
            else {
                "dim_sum": both[0],
                "dim_int": both[1],
                "sum": serialize.matrix_to_json_dict(both[2]),
                "intersection": serialize.matrix_to_json_dict(both[3]),
            },
        }
        return _dumps(tr, out), Record(dict(M=M, H=H, D=D, lattices=lattices))

    def _run_enumerate(self, op: Op, tr):
        p = op.inputs
        subs = tr.call(
            "enumeration.enumerate_subgroups", enumerate_subgroups, p["disc"], p["N"], p["dim"], p["X"]
        )
        out = dict(p, count=len(subs), items=[
            {"matrix": serialize.matrix_to_json_dict(m), "surrogate": surrogate_degree(m)}
            for m in subs
        ])
        return _dumps(tr, out), Record(dict(subs=subs))

    def check(self, op: Op, rec: Record) -> list[str]:
        v = rec.values
        if op.kind == "enumerate":
            p, subs = op.inputs, v["subs"]
            failed = []
            if len({m.rows for m in subs}) != len(subs):
                failed.append("enumerated subgroups repeat")
            if any(m.r != p["N"] - p["dim"] or surrogate_degree(m) > p["X"] for m in subs):
                failed.append("enumerated subgroup outside (dim, X)")
            return failed
        M, H, D = v["M"], v["H"], v["D"]
        failed = []
        if hnf(H) != H:
            failed.append("hnf not idempotent")
        if D.minor_sum > comb(M.N, M.r) * D.row_product:
            failed.append("minor_sum > C(N,r)*row_product")
        for level, lat in v["lattices"].items():
            if kernel_lattice_at_level(H, level) != lat:
                failed.append(f"kernel lattice at {level} changed by hnf")
            det = abs(det_int([list(row) for row in lat]))
            if kernel_count_at_level(M, level) * det != level ** (2 * M.N):
                failed.append(f"kernel count at {level} != level^(2N)/det")
        return failed

    def order_elements(self, ops):
        for op in ops:
            if op.kind == "matrix":
                for row in serialize.parse_matrix_text(op.inputs["matrix"]).rows:
                    yield from row


# ---------------------------------------------------------------------------
# siegel: small solutions and completion to a square matrix


class Siegel:
    """Random underdetermined m x n systems, 2 <= n <= 6, entry norms <= 50.

    A round holds one system for every (n, m) with 1 <= m < n <= 5 and for
    n = 6 with m >= 4. The n = 6 systems with m <= 3 take 0.4 to 1.5 s each,
    so they would decide most of a run between them.
    """

    name = "siegel"

    def rounds(self, seed: int):
        rng = random.Random(f"siegel/{seed}")
        cells = [(n, m) for n in range(2, 7) for m in range(1, n) if n < 6 or m >= 4]
        for k in count():
            discs = _disc_rotation(rng)
            ops = []
            for i, (n, m) in enumerate(cells):
                disc = discs[i % len(discs)]
                system = _full_rank_rows(rng, disc, n, m, 50)
                ops.append(Op("system", {"matrix": serialize.format_matrix_text(system)}, (disc, n, m)))
            yield _shuffled_after_first(rng, ops, k)

    def run(self, op: Op, tr):
        M = tr.call("serialize.parse_matrix_text", serialize.parse_matrix_text, op.inputs["matrix"])
        system = LinearSystem(M.disc, [list(r) for r in M.rows])
        sols, cert = tr.call(
            "siegel.small_solution", small_solution, system, count=M.N - M.r
        )
        full, full_cert = tr.call("siegel.complete_to_square", complete_to_square, M)
        out = {
            "siegel": {
                "solutions": [[format_element(e) for e in v] for v in sols],
                "certificate": _certificate_json(cert),
            },
            "complement": {
                "matrix": serialize.matrix_to_json_dict(full),
                "certificate": _certificate_json(full_cert),
            },
        }
        flags = {"siegel.cert_holds": cert.holds() and full_cert.holds()}
        return _dumps(tr, out), Record(dict(M=M, system=system, sols=sols, full=full), flags)

    def check(self, op: Op, rec: Record) -> list[str]:
        v = rec.values
        failed = []
        for sol in v["sols"]:
            if all(e.is_zero() for e in sol):
                failed.append("zero solution")
            if any(not e.is_zero() for e in v["system"].evaluate(sol)):
                failed.append("solution outside the kernel")
        full, M = v["full"], v["M"]
        if full.rows[: M.r] != M.rows or not _nonsingular(full):
            failed.append("completion not square, full-rank and extending M")
        return failed

    def order_elements(self, ops):
        for op in ops:
            for row in serialize.parse_matrix_text(op.inputs["matrix"]).rows:
                yield from row


# ---------------------------------------------------------------------------
# bounds: the exponent catalog at N = 3..6


ETAS = (Fraction(1, 7), Fraction(1, 10))
# N stops at 6: from N = 7 on, single teoremone_iv rows take up to 6 s each
# (root degrees in the thousands), so a handful of rows would make up most
# of a run and decide its throughput.
BOUND_NS = range(3, 7)


def _structural_rows(tid: str, n: int):
    """The structural parameters of ``tid`` at N = n inside its stated range."""
    if tid.startswith(("main_", "tadimzero")):
        return [dict(N=n, d=d) for d in range(1, n - 1)]
    if tid.startswith("weakstrict"):
        return [dict(N=n, d=d, r=r) for d in range(0, n - 1) for r in range(1, n + 1)]
    if tid.startswith("trasla"):
        return [
            dict(N=n, d=d, r=r)
            for d in range(0, n - 1)
            for r in range(max(1, n - d - 1), n + 1)
        ]
    if tid in ("mlr", "teoremone_iii"):
        return [dict(N=n, t=t) for t in range(1, (n + 1) // 2) if 2 * t < n]
    if tid in ("mltre", "teoremone_iv"):
        return [dict(N=n, t=t) for t in range(1, n)]
    if tid.startswith("curva"):
        return [dict(N=n, r=r) for r in range(n // 2 + 1, n)]
    if tid == "galateau_lower":
        return [dict(dimB=b, dimY=y) for b in range(2, n + 1) for y in range(1, b)]
    if tid == "carrizosa_lower":
        return [dict(dimB=b) for b in range(1, n + 1)]
    if tid == "bombieri_zannier":
        return [dict(d=d) for d in range(n)]
    if tid == "zhang_sandwich":
        return [dict(dimX=d) for d in range(n)]
    if tid == "kappa":
        return [dict(g0=n - 2)]
    return [dict(N=n)]


# Every base parameter any catalog entry reads. Each row draws all of them
# from {2, 3}: no base is 1, which would empty its factor of the radicand,
# and the radicand sizes, which set the cost of a row, vary only mildly.
BASE_PARAMS = ("hV", "degV", "ktorV", "kV", "hg", "degB", "degY", "kQ", "M",
               "hX", "degX", "hY")


class Bounds:
    """Every catalog id at N = 3..6 and eta in {1/7, 1/10}, over every
    structural parameter (d, r, t, dim) inside the theorem's stated range."""

    name = "bounds"
    sweep_theorem = "teoremone_i"

    def rounds(self, seed: int):
        rng = random.Random(f"bounds/{seed}")
        for k in count():
            ops = []
            for tid in catalog_ids():
                for n in BOUND_NS:
                    for eta in ETAS:
                        for structural in _structural_rows(tid, n):
                            params = {name: rng.randint(2, 3) for name in BASE_PARAMS}
                            params.update(structural)
                            if eta > eta_threshold(tid, params):
                                continue
                            ops.append(Op("evaluate", {"theorem": tid, "eta": eta, "params": params},
                                          (tid, n)))
            if k == 0:
                ops.append(Op("identities", {"max_n": 12}))
                ops.append(Op("cli", {"argv": ["bounds", "--theorem", self.sweep_theorem,
                                               "--eta", "1/7", "--sweep", "-"],
                                      "stdin": self._sweep_csv(rng)}))
            yield _shuffled_after_first(rng, ops, k)

    def _sweep_csv(self, rng) -> str:
        lines = ["N,hV,degV,ktorV,kV"]
        for n in BOUND_NS:
            lines.append(",".join(str(v) for v in [n] + [rng.randint(2, 3) for _ in range(4)]))
        return "\n".join(lines) + "\n"

    def run(self, op: Op, tr):
        p = op.inputs
        if op.kind == "identities":
            report = tr.call("bounds.exponent_identities", exponent_identities, max_n=p["max_n"])
            return _dumps(tr, report), Record(dict(report=report))
        if op.kind == "cli":
            stdout = io.StringIO()
            with _stdin(p["stdin"]), contextlib.redirect_stdout(stdout):
                code = tr.call("cli.main", cli.main, p["argv"])
            return stdout.getvalue(), Record(dict(code=code, csv=stdout.getvalue()))
        res = tr.call("bounds.evaluate_bound", evaluate_bound, p["theorem"], p["eta"], **p["params"])
        flags = {"bounds.value_exact": res.value_exact}
        return _dumps(tr, res.to_json_dict()), Record(dict(res=res), flags)

    def check(self, op: Op, rec: Record) -> list[str]:
        v = rec.values
        if op.kind == "identities":
            return [f"identity {k} fails" for k, e in v["report"].items() if not e["holds"]]
        if op.kind == "cli":
            return self._check_sweep(op, v)
        return _check_monomial(v["res"])

    def _check_sweep(self, op: Op, v) -> list[str]:
        if v["code"] != 0:
            return [f"cli exit code {v['code']}"]
        rows = list(_csv_rows(v["csv"]))
        want = list(_csv_rows(op.inputs["stdin"]))
        if len(rows) != len(want):
            return ["sweep row count"]
        for row, params in zip(rows, want):
            res = evaluate_bound(self.sweep_theorem, Fraction(1, 7),
                                 **{k: Fraction(x) for k, x in params.items()})
            if row["value"] != str(res.value) or row["value_exact"] != str(res.value_exact):
                return ["sweep value differs from evaluate_bound"]
        return []

    def order_elements(self, ops):
        return iter(())


def _csv_rows(text: str):
    return csv.DictReader(io.StringIO(text))


@contextlib.contextmanager
def _stdin(text: str):
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        yield
    finally:
        sys.stdin = saved


def _check_monomial(res) -> list[str]:
    """value = c * prod b^e: exact values raised to the root degree d give
    c^d * prod b^(e d) back; truncated ones bracket it within 10^-40."""
    if not res.terms:
        return []
    exps = [t.total(res.eta) for t in res.terms]
    d = lcm(*(e.denominator for e in exps))
    radicand = Fraction(1)
    for t, e in zip(res.terms, exps):
        radicand *= Fraction(res.bases[t.base]) ** int(e * d)
    root = res.value / res.constant
    if res.value_exact:
        return [] if root**d == radicand else ["exact value^d != radicand"]
    ulp = Fraction(1, 10**40)
    if root**d <= radicand < (root + ulp) ** d:
        return []
    return ["truncated value does not bracket the root"]


WORKLOADS = {w.name: w for w in (Coset(), Echelon(), Siegel(), Bounds())}
