"""The bound catalog: closed-form exponents, exact values, validity ranges."""

import hashlib
from fractions import Fraction

import pytest

from toran.bounds import (
    BoundRangeError,
    _jordan_totient,
    _prime_divisors,
    catalog_ids,
    curva_b1,
    curva_b2,
    eta_threshold,
    euler_phi,
    evaluate_bound,
    exponent_identities,
    height_exponent_max,
    omega_min,
    tadimzero_a1,
    tadimzero_a2,
    teoremone_i_exponents,
)
from toran.serialize import dumps_canonical
from toran.subgroups import BudgetExceededError

F = Fraction


def exponent_table(result):
    return {t.base: (t.exponent, t.eta_coeff) for t in result.terms}


def total_table(result):
    return {t.base: t.total(result.eta) for t in result.terms}


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_exponents():
    assert tadimzero_a1(3, 1) == 29
    assert tadimzero_a2(3, 1) == 21
    assert tadimzero_a1(4, 1) == 21
    assert tadimzero_a2(4, 1) == 27
    assert tadimzero_a1(5, 2) == F(4 * (2 * 6 * 2 + 2 * 5 * 11), 2 * 2 * 2)
    assert teoremone_i_exponents(3) == (29, 22, 21)
    assert teoremone_i_exponents(4) == (21, 28, 27)
    assert curva_b1(3, 2) == 21
    assert curva_b2(3, 2) == 29
    assert height_exponent_max(3) == (F(2), 2)
    assert height_exponent_max(4) == (F(3, 2), 3)
    assert height_exponent_max(5) == (F(3), 3)


def test_closed_form_ranges():
    with pytest.raises(BoundRangeError):
        tadimzero_a1(3, 2)
    with pytest.raises(BoundRangeError):
        tadimzero_a2(2, 1)
    with pytest.raises(BoundRangeError):
        teoremone_i_exponents(2)
    with pytest.raises(BoundRangeError):
        curva_b2(4, 2)
    with pytest.raises(BoundRangeError):
        height_exponent_max(2)


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert euler_phi(97) == 96
    assert euler_phi(360) == 96
    with pytest.raises(ValueError):
        euler_phi(0)


def _jordan_totient_reference(n, k):
    """J_k(n) by trial division by every integer up to the square root."""
    out, p, m = n**k, 2, n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p**k
        p += 1
    if m > 1:
        out -= out // m**k
    return out


def test_jordan_totient_matches_trial_division():
    for n in range(1, 20_001):
        for k in (1, 2, 4, 6):
            assert _jordan_totient(n, k) == _jordan_totient_reference(n, k)
    # prime powers past the trial primes, and semiprimes near 10^12 whose
    # factors only rho finds
    prime_powers = [2**40, 3**25, 997**4, 1009**2, 1009**3, 999_983**2]
    semiprimes = [999_983 * 1_000_003, 999_979 * 1_000_033, 1_000_003 * 1_000_037]
    for n in prime_powers + semiprimes:
        for k in (1, 2):
            assert _jordan_totient(n, k) == _jordan_totient_reference(n, k)
    assert _prime_divisors(999_983 * 1_000_003) == {999_983, 1_000_003}


def test_prime_divisors_beyond_trial_division():
    # a 17-digit prime, settled by Miller-Rabin; trial division took 13 s
    p = 10_000_000_000_000_061
    assert _prime_divisors(p) == {p}
    assert _jordan_totient(p, 2) == p * p - 1
    # above 3.3e24 rho still splits a composite into primes below it
    m61 = 2**61 - 1
    assert _prime_divisors(m61 * 1_000_000_007 * 998_244_353) == {m61, 1_000_000_007, 998_244_353}
    # but a cofactor that passes every base there is refused, not guessed
    m89 = 2**89 - 1
    for n in (m89, 3 * m89):
        with pytest.raises(BudgetExceededError, match="Miller-Rabin"):
            _prime_divisors(n)


# ---------------------------------------------------------------------------
# evaluation


def test_isolated_point_height_frozen():
    r = evaluate_bound("tadimzero_hY0", N=3, d=1, hV=1, degV=2, ktorV=4)
    assert exponent_table(r) == {"h+deg": (F(2), F(1)), "ktor": (F(1), F(1))}
    assert r.value == 36 and r.value_exact
    assert r.direction == "upper"
    # eta = 1 shifts both exponents by one
    r1 = evaluate_bound("tadimzero_hY0", 1, N=3, d=1, hV=1, degV=3, ktorV=2)
    assert r1.value == 4**3 * 2**2


def test_composite_exponents_first_order():
    r = evaluate_bound(
        "tadimzero2_ordzeta", N=3, d=1, hV=1, degV=1, ktorV=1, kV=1
    )
    for t in r.terms:
        assert t.exponent == 3
        assert t.eta_coeff == F(7, 2)
    r2 = evaluate_bound(
        "trasla2_ord", N=4, d=1, r=3, hV=1, degV=1, ktorV=1, kV=1
    )
    tbl = exponent_table(r2)
    assert tbl["k"] == (F(6), F(5))
    assert tbl["deg"] == (F(16), F(8))
    assert tbl["h+deg"] == (F(11), F(15, 2))
    assert tbl["ktor"] == (F(7), F(7, 2))


def test_lifted_count_frozen():
    r = evaluate_bound(
        "teoremone_ii", hV=0, degV=1, ktorV=1, kV=1, hg=0
    )
    tbl = exponent_table(r)
    assert tbl["ktor"][0] == 29
    assert tbl["h+(hg+1)deg"][0] == 29
    assert tbl["deg"][0] == 22
    assert tbl["k"][0] == 21
    assert r.value == 1 and r.value_exact


def test_inexact_value_flag():
    r = evaluate_bound("serre_order", N=3, kQ=2)
    assert not r.value_exact
    # certified truncation of sqrt(8): correct to well past 30 digits
    assert abs(r.value**2 - 8) < F(1, 10**35)
    assert evaluate_bound("serre_order", N=2, kQ=9).value == 9
    r4 = evaluate_bound("serre_order", N=1, kQ=4)
    assert r4.value == 2 and r4.value_exact


def test_lower_bounds_exact():
    r = evaluate_bound("carrizosa_lower", F(1, 4), dimB=1, degB=8, ktorV=2)
    assert r.direction == "lower"
    assert r.value == 2 and r.value_exact
    g = evaluate_bound("galateau_lower", dimB=2, dimY=1, degB=16, degY=4)
    assert g.direction == "lower"
    assert g.value == 4


def test_zhang_sandwich():
    r = evaluate_bound("zhang_sandwich", hX=6, degX=2, dimX=1)
    assert r.direction == "interval"
    assert r.value == 3 and r.value_lo == F(3, 2)
    assert "value_lo" in r.to_json_dict()


def test_bezout():
    assert evaluate_bound("bezout", degX=2, hX=3, degY=4, hY=5).value == 30
    assert (
        evaluate_bound(
            "bezout", degX=2, hX=3, degY=4, hY=5, constants={"bezout": 2}
        ).value
        == 38
    )


def test_closed_values():
    assert evaluate_bound("kappa", g0=1).value == 32
    assert evaluate_bound("kappa", g0=2).value == 10616832
    assert evaluate_bound("mw_field", N=1).value == 3**16
    assert evaluate_bound("count_torsion", N=2, M=3).value == 243
    assert evaluate_bound("bombieri_zannier", d=2, degV=3).value == 81
    assert evaluate_bound("count_subgroups", N=2, degB=5).value == 25


def test_constant_override():
    r = evaluate_bound(
        "tadimzero_hY0", N=3, d=1, hV=1, degV=2, ktorV=4, constants={"c": 3}
    )
    assert r.value == 108 and r.constant == 3
    r2 = evaluate_bound(
        "tadimzero_hY0",
        N=3,
        d=1,
        hV=1,
        degV=2,
        ktorV=4,
        constants={"tadimzero_hY0": 5, "c": 3},
    )
    assert r2.value == 180


EVAL_PARAMS = {
    "main_hY": dict(N=4, d=1, hV=1, degV=2, ktorV=3),
    "main_degY": dict(N=4, d=2, hV=1, degV=2, ktorV=3),
    "s2c_h": dict(hV=1, degV=2, ktorV=3),
    "s2c_deg": dict(hV=1, degV=2, ktorV=3, kV=5),
    "altezzacurva_h": dict(N=3, hV=1, degV=2, ktorV=3),
    "altezzacurva_deg": dict(N=3, hV=1, degV=2, ktorV=3, kV=5),
    "ml1": dict(N=4, hV=1, degV=2, ktorV=3),
    "ml2": dict(hV=1, degV=2, ktorV=3, hg=1),
    "mlr": dict(N=5, t=1, hV=1, degV=2, ktorV=3),
    "mltre": dict(N=3, t=1, hV=1, degV=2, ktorV=3, hg=1),
    "teoremone_i": dict(N=4, hV=1, degV=2, ktorV=3, kV=5),
    "teoremone_ii": dict(hV=1, degV=2, ktorV=3, kV=5, hg=1),
    "teoremone_iii": dict(N=5, t=2, hV=1, degV=2, ktorV=3, kV=5),
    "teoremone_iv": dict(N=3, t=2, hV=1, degV=2, ktorV=3, kV=5, hg=1),
    "weakstrict_degB": dict(N=4, d=1, r=2, hV=1, degV=2, ktorV=3),
    "weakstrict_hY": dict(N=4, d=1, r=2, hV=1, degV=2, ktorV=3),
    "weakstrict_degY": dict(N=4, d=1, r=2, hV=1, degV=2, ktorV=3),
    "tadimzero_degB": dict(N=4, d=1, hV=1, degV=2, ktorV=3),
    "tadimzero_hY0": dict(N=4, d=1, hV=1, degV=2, ktorV=3),
    "tadimzero_ktorY0": dict(N=4, d=1, hV=1, degV=2, ktorV=3),
    "tadimzero2_kY0": dict(N=4, d=1, hV=1, degV=2, ktorV=3, kV=5),
    "tadimzero2_ordzeta": dict(N=4, d=1, hV=1, degV=2, ktorV=3, kV=5),
    "tadimzero2_S": dict(N=4, d=1, hV=1, degV=2, ktorV=3, kV=5),
    "trasla_degB": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3),
    "trasla_h": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3),
    "trasla_deg": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3),
    "trasla2_field": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "trasla2_ord": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "trasla2_S": dict(N=4, d=1, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "curva_degH": dict(N=5, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "curva_hY0": dict(N=5, r=3, hV=1, degV=2, ktorV=3),
    "curva_kY0": dict(N=5, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "curva_S": dict(N=5, r=3, hV=1, degV=2, ktorV=3, kV=5),
    "galateau_lower": dict(dimB=2, dimY=1, degB=4, degY=2),
    "carrizosa_lower": dict(dimB=2, degB=4, ktorV=3),
    "serre_order": dict(N=3, kQ=2),
    "count_subgroups": dict(N=2, degB=3),
    "count_torsion": dict(N=2, M=3),
    "bombieri_zannier": dict(d=2, degV=3),
    "zhang_sandwich": dict(hX=6, degX=2, dimX=1),
    "bezout": dict(degX=2, hX=3, degY=4, hY=5),
    "kappa": dict(g0=1),
    "mw_field": dict(N=1),
}


def test_catalog_complete():
    ids = catalog_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert set(ids) == set(EVAL_PARAMS)


def test_every_id_evaluates():
    for theorem_id, params in EVAL_PARAMS.items():
        r = evaluate_bound(theorem_id, **params)
        assert r.theorem_id == theorem_id
        assert r.value > 0
        assert r.direction in {"upper", "lower", "interval", "value"}
        d = r.to_json_dict()
        assert d["theorem_id"] == theorem_id
        assert Fraction(d["value"]) == r.value or not r.value_exact


DIRECTIONS = {
    "galateau_lower": "lower",
    "carrizosa_lower": "lower",
    "zhang_sandwich": "interval",
    "kappa": "value",
    "mw_field": "value",
}


def test_every_id_states_its_direction():
    for theorem_id, params in EVAL_PARAMS.items():
        r = evaluate_bound(theorem_id, **params)
        assert r.direction == DIRECTIONS.get(theorem_id, "upper")


def test_catalog_bytes_pinned():
    # every id at eta 0 and at its cap, plus the identity report; the digest
    # was recorded before the catalog became one table
    h = hashlib.sha256()
    for theorem_id, params in EVAL_PARAMS.items():
        for eta in (0, eta_threshold(theorem_id, params)):
            res = evaluate_bound(theorem_id, eta, **params)
            h.update(dumps_canonical(res.to_json_dict()).encode())
    h.update(dumps_canonical(exponent_identities()).encode())
    assert h.hexdigest() == (
        "c592fa8dd1a6349b76847a6e07af95521588e04eaa176e7b636f5c70e897aadd"
    )


def test_every_id_monotone_under_eta():
    # raising eta never shrinks an upper bound with all bases >= 1
    for theorem_id, params in EVAL_PARAMS.items():
        if theorem_id in {"zhang_sandwich", "bezout", "kappa", "mw_field"}:
            continue
        thr = eta_threshold(theorem_id, params)
        lo = evaluate_bound(theorem_id, 0, **params)
        hi = evaluate_bound(theorem_id, thr, **params)
        if lo.direction == "upper":
            assert hi.value >= lo.value - F(1, 10**30)
        else:
            assert hi.value <= lo.value + F(1, 10**30)


def test_range_errors():
    with pytest.raises(BoundRangeError):
        evaluate_bound("tadimzero_hY0", N=3, d=2, hV=1, degV=1, ktorV=1)
    with pytest.raises(BoundRangeError):
        evaluate_bound("mlr", N=4, t=2, hV=1, degV=1, ktorV=1)
    with pytest.raises(BoundRangeError):
        evaluate_bound("curva_hY0", N=4, r=2, hV=1, degV=1, ktorV=1)
    with pytest.raises(BoundRangeError):
        evaluate_bound("tadimzero_hY0", -1, N=3, d=1, hV=1, degV=1, ktorV=1)
    with pytest.raises(BoundRangeError):
        evaluate_bound("nonsense_id", N=3)
    with pytest.raises(BoundRangeError):
        evaluate_bound("tadimzero_hY0", N=3, d=1, hV=1, ktorV=1)  # degV missing
    with pytest.raises(BoundRangeError):
        evaluate_bound("galateau_lower", dimB=1, dimY=1, degB=2, degY=2)
    with pytest.raises(BoundRangeError):
        evaluate_bound("tadimzero_hY0", N=3, d=1, hV=1, degV=0, ktorV=1)
    with pytest.raises(BoundRangeError):
        evaluate_bound("tadimzero_hY0", N=F(7, 2), d=1, hV=1, degV=1, ktorV=1)


def test_eta_thresholds():
    assert eta_threshold("tadimzero_hY0", {}) == 1
    assert eta_threshold("carrizosa_lower", {"dimB": 4}) == F(1, 4)
    assert eta_threshold("galateau_lower", {"dimB": 5, "dimY": 2}) == F(1, 3)
    with pytest.raises(BoundRangeError):
        evaluate_bound("carrizosa_lower", F(3, 4), dimB=2, degB=4, ktorV=3)
    # at most the threshold is fine
    evaluate_bound("carrizosa_lower", F(1, 2), dimB=2, degB=4, ktorV=3)


class _Unreadable(dict):
    def __getitem__(self, key, *default):
        raise AssertionError(f"read {key}")

    get = __getitem__
    __contains__ = __getitem__


def test_eta_threshold_reads_no_parameter_for_cap_one():
    for theorem_id in [*catalog_ids(), "no_such_bound"]:
        if not theorem_id.endswith("_lower"):
            assert eta_threshold(theorem_id, _Unreadable()) == 1


@pytest.mark.parametrize("eta", [F(1, 2), F(1, 4)])
def test_eta_cap_refuses_non_integral_dimensions(eta):
    # the caps used to truncate 7/2 to 3 and 3/2 to 1, and so both asked
    # for eta <= 1/3 at eta = 1/2
    with pytest.raises(BoundRangeError, match="^dimB must be an integer, got 7/2$"):
        evaluate_bound("carrizosa_lower", eta, dimB=F(7, 2), degB=4, ktorV=3)
    with pytest.raises(BoundRangeError, match="^dimY must be an integer, got 3/2$"):
        evaluate_bound("galateau_lower", eta, dimB=4, dimY=F(3, 2), degB=4, degY=2)
    with pytest.raises(BoundRangeError, match="^missing parameter dimY$"):
        evaluate_bound("galateau_lower", eta, dimB=3, degB=4, degY=2)


def test_carrizosa_cap_ignores_dim_y():
    params = dict(dimB=2, degB=4, ktorV=3)
    assert eta_threshold("carrizosa_lower", {**params, "dimY": 1}) == F(1, 2)
    assert evaluate_bound("carrizosa_lower", F(1, 2), dimY=1, **params) == (
        evaluate_bound("carrizosa_lower", F(1, 2), **params)
    )


def test_missing_base_parameter_is_named():
    params = dict(N=4, hV=1, degV=1, ktorV=1, kV=1)
    for name in ("kV", "ktorV"):
        rest = {k: v for k, v in params.items() if k != name}
        with pytest.raises(BoundRangeError, match=f"^missing parameter {name}$"):
            evaluate_bound("teoremone_i", **rest)


@pytest.mark.parametrize("constant", [F(-1), F(0), F(-1, 2)])
def test_every_id_refuses_a_nonpositive_constant(constant):
    for theorem_id, params in EVAL_PARAMS.items():
        for key in ("c", theorem_id):
            with pytest.raises(
                BoundRangeError, match=f"^need a positive constant, got {constant}$"
            ):
                evaluate_bound(theorem_id, constants={key: constant}, **params)
    # an id-keyed constant wins over c, so a positive one is accepted
    r = evaluate_bound("bezout", constants={"c": -1, "bezout": 2}, **EVAL_PARAMS["bezout"])
    assert r.value == 38


def test_every_id_refuses_eta_above_threshold():
    for theorem_id, params in EVAL_PARAMS.items():
        thr = eta_threshold(theorem_id, params)
        with pytest.raises(BoundRangeError, match=f"need eta <= {thr}"):
            evaluate_bound(theorem_id, thr + 4, **params)
    with pytest.raises(BoundRangeError, match="unknown theorem id"):
        evaluate_bound("no_such_bound", 5)


def test_omega_min():
    r = omega_min(2, [(4, 1), (32, 2)])
    assert (r.base, r.exponent, r.tied) == (F(2), F(1), False)
    tie = omega_min(1, [(4, 1), (16, 2)])
    assert tie.tied
    with pytest.raises(ValueError):
        omega_min(0, [(1, 1)])
    with pytest.raises(ValueError):
        omega_min(1, [])
    with pytest.raises(ValueError):
        omega_min(1, [(0, 1)])


def test_exponent_identities_all_hold():
    report = exponent_identities()
    assert len(report) == 13
    for name, entry in report.items():
        assert entry["holds"], f"{name}: {entry['detail']}"


def test_identities_deterministic():
    assert exponent_identities() == exponent_identities()
