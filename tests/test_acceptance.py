"""Acceptance suite: ten exact end-to-end properties, one test per criterion.

Each test prints a single PASS line with its counters and asserts its own
runtime budget, so `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import random
import time
from fractions import Fraction
from math import comb

from toran.bounds import (
    evaluate_bound,
    height_exponent_max,
    tadimzero_a1,
    tadimzero_a2,
    teoremone_i_exponents,
)
from toran.enumeration import (
    brute_force_minimal_coset,
    enumerate_torsion,
    surrogate_degree,
)
from toran.mordell_weil import ModuleSpec, PointInEN, minimal_coset, nt_height, nt_pairing
from toran.orders import EUCLIDEAN_DISCS, OrderElement, QuadRat
from toran.reductions import GammaPoint, TorsionCoset, gamma_to_torsion_variety
from toran.siegel import LinearSystem, small_solution
from toran.subgroups import (
    RankError,
    SubgroupMatrix,
    apply_matrix,
    degree_surrogate,
    hnf,
    intersection_cardinality,
    intersection_exponent,
    kernel_lattice_at_level,
    saturate,
    tangent_orthogonal,
    _rank,
)

DISCS = list(EUCLIDEAN_DISCS)


def _element_norm_le(rng, disc, cap):
    while True:
        e = OrderElement(disc, rng.randint(-7, 7), rng.randint(-7, 7))
        if e.norm() <= cap:
            return e


def _random_full_rank(rng, disc, n, r, cap=25):
    while True:
        rows = [[_element_norm_le(rng, disc, cap) for _ in range(n)] for _ in range(r)]
        try:
            return SubgroupMatrix(disc, n, rows)
        except RankError:
            continue


def _random_pd_spec(rng, disc, rank, torsion_order=1):
    L = [
        [QuadRat(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rank)]
        for _ in range(rank)
    ]
    gram = []
    for i in range(rank):
        row = []
        for j in range(rank):
            acc = QuadRat.zero(disc)
            for k in range(rank):
                acc = acc + L[i][k] * L[j][k].conjugate()
            if i == j:
                acc = acc + QuadRat.one(disc)
            row.append(acc)
        gram.append(row)
    return ModuleSpec(disc, rank, gram, torsion_order=torsion_order)


def test_criterion_01_exponent_fidelity():
    start = time.perf_counter()
    r = evaluate_bound("tadimzero_hY0", N=3, d=1, hV=1, degV=1, ktorV=1)
    exps = {t.base: t.exponent for t in r.terms}
    assert exps == {"h+deg": Fraction(2), "ktor": Fraction(1)}
    assert tadimzero_a1(3, 1) == 29
    assert tadimzero_a2(3, 1) == 21
    assert teoremone_i_exponents(3) == (29, 22, 21)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    print(f"PASS criterion 1: displayed exponents (2,1), 29, 21, (29,22,21) exact [{elapsed:.3f}s]")


def test_criterion_02_exponent_bound_properties():
    start = time.perf_counter()
    checked = 0
    for n in range(3, 13):
        for d in range(1, n - 1):
            assert tadimzero_a1(n, d) <= (n + 1) ** 4
            assert tadimzero_a2(n, d) <= n**3
            checked += 1
        v, _ = height_exponent_max(n)
        cap = Fraction(n + 1, 2)
        assert v <= cap
        assert (v == cap) == (n % 2 == 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    print(f"PASS criterion 2: caps on {checked} (N,d) pairs and height maxima, N <= 12 [{elapsed:.3f}s]")


def test_criterion_03_hadamard_invariant():
    start = time.perf_counter()
    rng = random.Random(2024)
    per_disc = 500
    for disc in DISCS:
        for _ in range(per_disc):
            n = rng.randint(1, 5)
            r = rng.randint(1, n)
            m = _random_full_rank(rng, disc, n, r, cap=25)
            s = degree_surrogate(m)
            assert s.minor_sum <= comb(n, r) * s.row_product
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"PASS criterion 3: minor_sum <= C(N,r)*row_product on {per_disc} matrices x {len(DISCS)} discriminants [{elapsed:.1f}s]")


def _image_points(spec, cols):
    """One point of E^N per (column, generator) pair of a parametrization."""
    n = len(cols[0]) if cols else 0
    points = []
    for col in cols:
        for l in range(spec.rank):
            rows = [[OrderElement.zero(spec.disc)] * spec.rank for _ in range(len(col))]
            for i, e in enumerate(col):
                rows[i][l] = e
            points.append(PointInEN.from_rows(spec, rows))
    return points


def test_criterion_04_orthogonality_equivalence():
    start = time.perf_counter()
    rng = random.Random(404)
    trues = falses = 0
    for trial in range(220):
        disc = rng.choice(DISCS)
        n = rng.randint(2, 4)
        rank = rng.choice([1, 2])
        spec = _random_pd_spec(rng, disc, rank)
        da = rng.randint(1, n - 1)
        # independent columns for A
        while True:
            a_cols = [
                [OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(da)
            ]
            if _rank([list(c) for c in a_cols]) == da:
                break
        if trial % 2 == 0:
            # orthogonal by construction: kernel of the conjugated columns
            from toran.subgroups import parametrization

            m = SubgroupMatrix(
                disc, n, [[e.conjugate() for e in col] for col in a_cols], check_rank=False
            )
            b_param = parametrization(m)
            b_cols = [list(col) for col in zip(*b_param)]
        else:
            db = rng.randint(1, n - 1)
            b_cols = [
                [OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(db)
            ]
        if not b_cols:
            continue
        A = [list(row) for row in zip(*a_cols)]
        B = [list(row) for row in zip(*b_cols)]
        tangent = tangent_orthogonal(A, B)
        pairings_vanish = all(
            not nt_pairing(u, v)
            for u in _image_points(spec, a_cols)
            for v in _image_points(spec, b_cols)
        )
        assert tangent == pairings_vanish
        if tangent:
            trues += 1
        else:
            falses += 1
    assert trues + falses >= 200
    assert trues >= 60 and falses >= 60
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"PASS criterion 4: tangent orthogonality <=> pairing vanishing on {trues + falses} pairs ({trues} orthogonal) [{elapsed:.1f}s]")


def test_criterion_05_neron_tate_laws():
    start = time.perf_counter()
    rng = random.Random(55)
    for _ in range(500):
        disc = rng.choice(DISCS)
        spec = _random_pd_spec(rng, disc, rng.choice([1, 2]), torsion_order=rng.choice([1, 3]))
        n = rng.randint(1, 3)
        rows_p = [
            [OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(spec.rank)]
            for _ in range(n)
        ]
        rows_q = [
            [OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(spec.rank)]
            for _ in range(n)
        ]
        p = PointInEN.from_rows(spec, rows_p, [rng.randrange(spec.torsion_order)] * n)
        q = PointInEN.from_rows(spec, rows_q)
        assert nt_height(p + q) + nt_height(p - q) == 2 * nt_height(p) + 2 * nt_height(q)
        tau = OrderElement(disc, rng.randint(-3, 3), rng.randint(-3, 3))
        assert nt_height(p.scaled(tau)) == tau.norm() * nt_height(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    print(f"PASS criterion 5: parallelogram and norm-scaling laws on 500 random (tau, p) [{elapsed:.1f}s]")


def test_criterion_06_minimal_coset_oracle():
    start = time.perf_counter()
    rng = random.Random(660)
    compared = skipped = 0
    trial = 0
    while compared < 100 and trial < 250:
        trial += 1
        disc = rng.choice(DISCS)
        n = rng.choice([2, 3])
        rank = rng.choice([1, 2])
        gram = [[int(i == j) for j in range(rank)] for i in range(rank)]
        spec = ModuleSpec(disc, rank, gram, torsion_order=rng.choice([1, 2]))
        rows = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
        torsions = [rng.randrange(spec.torsion_order) for _ in range(n)]
        x = PointInEN.from_rows(spec, rows, torsions)
        M, zeta, dim_b = minimal_coset(x)
        if M.r and surrogate_degree(M) > 16:
            skipped += 1  # the true subgroup is outside the oracle budget
            continue
        bm, bz, bdim = brute_force_minimal_coset(x, x_budget=16)
        assert bdim == dim_b
        assert bm == M
        assert bz == zeta
        assert TorsionCoset(M, zeta).contains(x)
        compared += 1
    assert compared >= 100
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    print(f"PASS criterion 6: kernel and brute-force minimal cosets agree on {compared} points ({skipped} outside budget) [{elapsed:.1f}s]")


def test_criterion_07_torsion_counting():
    start = time.perf_counter()
    for disc in (-4, -7):
        for n_ambient in (1, 2, 3):
            for level in (1, 2, 3, 4, 5):
                pts = enumerate_torsion(disc, n_ambient, level)
                assert len(pts) == level ** (2 * n_ambient)
    rng = random.Random(77)
    pairs = 0
    while pairs < 50:
        disc = rng.choice(DISCS)
        H = _random_full_rank(rng, disc, 2, 1, cap=10)
        K = _random_full_rank(rng, disc, 2, 1, cap=10)
        try:
            level = intersection_exponent(H, K)
        except RankError:
            continue
        if level > 6:
            continue
        card = intersection_cardinality(H, K)
        # the connected subgroups are cut out by the saturated presentations
        Hs, Ks = saturate(H), saturate(K)
        count = 0
        for p in enumerate_torsion(disc, 2, level):
            if apply_matrix(Hs, p).is_zero() and apply_matrix(Ks, p).is_zero():
                count += 1
        assert count == card
        pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"PASS criterion 7: torsion counts n^(2N) (n<=5, N<=3) and {pairs} exact intersection cardinalities [{elapsed:.1f}s]")


def test_criterion_08_reduction_correctness():
    start = time.perf_counter()
    rng = random.Random(808)
    total = rank_one = 0
    while total < 200:
        disc = rng.choice(DISCS)
        t = rng.randint(1, 3)
        n = rng.randint(max(2, t), 5)
        gram = [[int(i == j) for j in range(t)] for i in range(t)]
        spec = ModuleSpec(disc, t, gram, torsion_order=rng.choice([1, 2]))
        rows = [[rng.randint(-2, 2) for _ in range(t)] for _ in range(n)]
        torsions = [rng.randrange(spec.torsion_order) for _ in range(n)]
        x = PointInEN.from_rows(spec, rows, torsions)
        mult = []
        while len(mult) < n:
            a = OrderElement(disc, rng.randint(-2, 2), rng.randint(-2, 2))
            if not a.is_zero():
                mult.append(a)
        gp = GammaPoint(x, mult)
        coset = gamma_to_torsion_variety(gp)
        assert coset.contains(x)
        assert coset.codim == n - _rank(gp.coefficient_matrix())
        if t == 1 and not x.is_torsion():
            assert coset.codim == n - 1
            rank_one += 1
        total += 1
    assert rank_one >= 30
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"PASS criterion 8: containment and codim N-rank on {total} relaxed points ({rank_one} rank-one checks) [{elapsed:.1f}s]")


def test_criterion_09_siegel_certificates():
    start = time.perf_counter()
    rng = random.Random(909)
    worst = 0.0
    replays = []
    for idx in range(100):
        disc = rng.choice(DISCS)
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        while True:
            rows = [[_element_norm_le(rng, disc, 50) for _ in range(n)] for _ in range(m)]
            try:
                system = LinearSystem(disc, rows)
                break
            except RankError:
                continue
        sols, cert = small_solution(system)
        for v in sols:
            assert any(not e.is_zero() for e in v)
            assert all(e.is_zero() for e in system.evaluate(v))
        assert cert.holds()
        # the least constant that certifies these solutions, for the report
        if cert.achieved_norm:
            worst = max(worst, cert.achieved_norm / cert.size_term ** (cert.exp_num / cert.exp_den))
        if idx % 10 == 0:
            replays.append((system, sols, cert))
    for system, sols, cert in replays:  # identical reruns: deterministic
        again_sols, again_cert = small_solution(system)
        assert again_sols == sols and again_cert == cert
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    print(f"PASS criterion 9: 100 certified nonzero solutions, worst required constant {worst:.3f} (cap 8), replays stable [{elapsed:.1f}s]")


def test_criterion_10_canonicalization_soundness():
    start = time.perf_counter()
    rng = random.Random(1010)
    for _ in range(500):
        disc = rng.choice(DISCS)
        n = rng.randint(1, 4)
        r = rng.randint(1, n)
        m = _random_full_rank(rng, disc, n, r, cap=20)
        h = hnf(m)
        assert hnf(h) == h
        level = rng.choice([2, 3])
        assert kernel_lattice_at_level(m, level) == kernel_lattice_at_level(h, level)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    print(f"PASS criterion 10: hnf idempotent and kernel-preserving on 500 matrices [{elapsed:.1f}s]")
