import math
import random
from fractions import Fraction

import pytest

from ffpn.errors import DivisibilityViolation
from ffpn.fqpoly import factor_xm1
from ffpn import sieve
from ffpn.numtheory import FactorCache, PartialFactorization, divisors_of, factorize_qm_minus_1, multiplicative_stats
from ffpn.sieve import (
    TABLE1,
    TABLE2,
    asymptotic_condition,
    auto_sieve,
    basic_condition,
    lambda_caseA,
    lemma55_check,
    reproduce_table,
    sieve_lambda,
    sieve_report,
    theta_ratio,
    w_bound_audit,
    w_bound_rhs,
)


def test_basic_condition_examples():
    r = basic_condition(3, 4)
    assert (r["W"], r["Omega"], r["rhs"], r["verdict"]) == (4, 8, 384, "fail")
    r = basic_condition(3, 3)
    assert (r["rhs"], r["verdict"]) == (96, "fail")
    r = basic_condition(3, 1)
    assert (r["rhs"], r["verdict"]) == (24, "fail")


def test_basic_condition_pass_case():
    assert basic_condition(3, 30)["verdict"] == "pass"


# every q = 3^r <= 729, m <= 60 with r*m <= 88: q^m - 1 factors in full
AUDIT_PAIRS = tuple((3**r, m) for r in range(1, 7) for m in range(1, 61) if r * m <= 88)


@pytest.fixture(scope="module")
def audit_cache(tmp_path_factory):
    return FactorCache(str(tmp_path_factory.mktemp("factors") / "cache.json"))


@pytest.fixture(scope="module")
def exact_basic(audit_cache):
    out = {}
    for q, m in AUDIT_PAIRS:
        W = multiplicative_stats(factorize_qm_minus_1(q, m, cache=audit_cache)).W
        out[(q, m)] = (W, basic_condition(q, m))
    return out


def test_basic_condition_default_budget_is_exact(exact_basic):
    assert len(exact_basic) == 186
    for (q, m), (W, res) in exact_basic.items():
        assert res["W_bound"] == "exact" and "unsplit_digits" not in res, (q, m)
        assert res["W"] == W, (q, m)


@pytest.mark.parametrize("rho_iters", [2 * 10**4, 0])
def test_partial_bound_audit(exact_basic, monkeypatch, rho_iters):
    """A smaller rho budget leaves cofactors unsplit; the bound stays sound."""
    monkeypatch.setattr(sieve, "PARTIAL_RHO_ITERS", rho_iters)
    partial = 0
    for (q, m), (W, exact) in exact_basic.items():
        res = basic_condition(q, m)
        assert res["W"] >= W, (q, m)
        assert res["Omega"] == exact["Omega"], (q, m)
        if res["W_bound"] == "partial":
            partial += 1
            assert res["verdict"] == "pass" and exact["verdict"] == "pass", (q, m)
            assert res["unsplit_digits"] and min(res["unsplit_digits"]) > 12, (q, m)
        else:
            assert res == exact, (q, m)
    assert partial == {2 * 10**4: 2, 0: 14}[rho_iters]


def test_basic_condition_stall_pairs_pass_on_partial_bound():
    """Frozen from
        PYTHONPATH=src python -m ffpn.cli --json check --q 27 --m 53
        PYTHONPATH=src python -m ffpn.cli --json check --q 243 --m 35
    Each q^m - 1 keeps one cofactor that rho does not split within
    PARTIAL_RHO_ITERS (nor within minutes of the full schedule); the bound
    omega <= 13 resp. 16 passes all the same.
    """
    for q, m, W, digits in ((27, 53, 2**13, [50]), (243, 35, 2**16, [53])):
        res = basic_condition(q, m)
        assert res["verdict"] == "pass"
        assert res["W_bound"] == "partial"
        assert res["unsplit_digits"] == digits
        assert res["W"] == W and res["rhs"] == 3 * W**2 * res["Omega"]


def test_basic_condition_falls_back_to_full_factorization(monkeypatch):
    # A hand-made partial result for 3^4 - 1 = 2^4 * 5 that leaves 5 unsplit
    # bounds omega by 1; 3 * 2^2 * 8 > 3^2 fails, so W must come from the
    # full factorization.
    calls = []

    def fake_partial(q, m, rho_iters, cache=None):
        return PartialFactorization(80, (2, 2, 2, 2), (), (5,))

    def spy_full(q, m, cache=None):
        calls.append((q, m))
        return factorize_qm_minus_1(q, m, cache=cache)

    monkeypatch.setattr(sieve, "partial_factorize_qm_minus_1", fake_partial)
    monkeypatch.setattr(sieve, "factorize_qm_minus_1", spy_full)
    res = basic_condition(3, 4)
    assert calls == [(3, 4)]
    assert (res["W"], res["W_bound"], res["rhs"], res["verdict"]) == (4, "exact", 384, "fail")
    assert "unsplit_digits" not in res


def test_sieve_report_table_rows():
    rep = sieve_report(3, 18, 14)
    assert rep.config.n == 4 and rep.config.k == 0
    assert rep.config.remaining_primes == (13, 19, 37, 757)
    assert abs(float(rep.Lambda) - 12.231) < 5e-4
    assert rep.verdict == "pass"
    rep = sieve_report(9, 7, 1094)
    assert abs(float(rep.Lambda) - 3.0018) < 5e-4
    rep = sieve_report(27, 5, 22)
    assert abs(float(rep.Lambda) - 5.54729) < 5e-4


def test_sieve_report_empty_sieve_reduces_to_basic():
    # d carries every prime, g = x^m - 1: Lambda = (2*0 + 0 - 1)/1 + 2 = 1,
    # so the condition is exactly the basic q^(m/2) > 3 W^2 Omega.
    q, m = 3, 4
    rep = sieve_report(q, m, q**m - 1, "all")
    assert rep.config.n == 0 and rep.config.k == 0
    assert rep.Delta == 1 and rep.Lambda == 1
    basic = basic_condition(q, m)
    assert rep.rhs == basic["rhs"]
    assert rep.verdict == basic["verdict"]


def test_sieve_report_delta_nonpositive():
    # d = 1 leaves 2 among the remaining primes: Delta = 1 - 2*(1/2 + ...) < 0
    rep = sieve_report(3, 4, 1, "all")
    assert rep.verdict == "delta_nonpositive"
    assert rep.Lambda is None and rep.rhs is None


def test_sieve_report_validates_d():
    with pytest.raises(ValueError):
        sieve_report(3, 4, 7)


def test_lambda_caseA_examples():
    assert lambda_caseA(27, 26) == 677
    assert 677 < 27**2
    assert lambda_caseA(9, 8) == 65
    assert lambda_caseA(9, 4) == Fraction(37, 5)
    with pytest.raises(DivisibilityViolation):
        lambda_caseA(9, 3)


@pytest.mark.parametrize("q", [9, 27, 81])
def test_lambda_caseA_matches_generic(q):
    for m_prime in divisors_of(q - 1):
        # n = 0 (d = q^m - 1), g = 1: the m' linear factors of x^m' - 1 remain
        _delta, lam = sieve_lambda((), (1,) * m_prime, q)
        assert lam == lambda_caseA(q, m_prime)


def test_w_bound_rhs():
    assert w_bound_rhs(1) == 11.25
    n = 510510
    assert 2**7 < w_bound_rhs(n) < 157


def test_w_bound_audit_small():
    assert w_bound_audit(10**4) == []


def test_theta_ratio_examples():
    r = theta_ratio(9, 5)
    assert (r.u, r.M, r.theta) == (2, 1, Fraction(1, 5))
    assert r.bound == Fraction(1, 3) and r.holds
    r = theta_ratio(3, 4)
    assert (r.m_prime, r.u, r.M, r.theta) == (4, 2, 2, Fraction(1, 2))
    assert r.bound == Fraction(1, 2) and r.holds
    r = theta_ratio(27, 26)  # m' | q - 1
    assert (r.u, r.M, r.theta) == (1, 0, Fraction(0))


def test_theta_u_is_the_order_of_q_mod_m_prime():
    # u = ord_{m'}(q), with m' the part of m prime to 3 (u = 1 when m' = 1)
    for q in (3, 9, 27, 81, 243, 729):
        for m in range(1, 200):
            m0 = m
            while m0 % 3 == 0:
                m0 //= 3
            u = next(k for k in range(1, m0 + 1) if pow(q, k, m0) == 1 % m0)
            assert theta_ratio(q, m).u == u, (q, m)


def test_theta_clause_bounds_hold_widely():
    for q in (3, 9, 27, 81):
        for m in range(2, 40):
            assert theta_ratio(q, m).holds, (q, m)


def test_lemma55_lambda_at_most_m_prime():
    for q in (9, 27):
        for m in range(3, 13):
            res = lemma55_check(q, m)
            if res["applicable"] and res["Lambda"] is not None:
                assert res["holds"], (q, m, res)


def test_asymptotic_boundaries():
    third = Fraction(1, 3)
    assert asymptotic_condition(81, 47, third)["verdict"] == "pass"
    assert asymptotic_condition(81, 46, third)["verdict"] == "fail"
    assert asymptotic_condition(27, 108, third)["verdict"] == "pass"
    assert asymptotic_condition(27, 107, third)["verdict"] == "fail"
    with pytest.raises(ValueError):
        asymptotic_condition(3, 4, Fraction(1, 4))


def test_auto_sieve_finds_pass_for_3_18():
    rep = auto_sieve(3, 18)
    assert rep.verdict == "pass"


def test_auto_sieve_3_3_has_no_pass():
    rep = auto_sieve(3, 3)
    assert rep.verdict == "fail"


def test_auto_sieve_27_26_passes():
    rep = auto_sieve(27, 26)
    assert rep.verdict == "pass"


def test_auto_sieve_monotone_with_basic():
    for (q, m) in [(3, 30), (27, 26)]:
        if basic_condition(q, m)["verdict"] == "pass":
            assert auto_sieve(q, m).verdict == "pass"


def test_auto_sieve_deterministic():
    r1 = auto_sieve(3, 6)
    r2 = auto_sieve(3, 6)
    assert r1.config == r2.config and r1.rhs == r2.rhs


# (q, m): (d, g_indices, rhs, verdict) of the best report, from the search
# over all 2^(t+s) cores (t + s <= 16) or the prefix family (t + s > 16)
# that auto_sieve ran before it evaluated only (t+1)(s+1) cores:
#   r = auto_sieve(q, m); (r.config.d, r.config.g_indices, r.rhs, r.verdict)
AUTO_SIEVE_TRUTH = {
    (3, 10): (2, (0,), Fraction(2235372, 5807), "fail"),
    (3, 14): (2, (0,), Fraction(19134267852, 71744611), "pass"),
    (9, 8): (10, (0, 1), Fraction(876584256, 63175), "fail"),
    (9, 16): (10, (5, 6, 7), Fraction(185027767160372736, 6398704171841), "pass"),
    (9, 24): (
        70, (4, 5, 6, 7), Fraction(21011246838575250866033664, 54652472827131560783), "pass"
    ),
    (9, 32): (
        10,
        (5, 6, 7),
        Fraction(75814789633369354303163730029188992, 1915457207122498364702138076121),
        "pass",
    ),
    (9, 40): (
        10,
        (2, 3, 4, 5, 6, 7),
        Fraction(10560404242115075609436342450601935031296, 18174433455706109925625335880350869),
        "pass",
    ),
    (27, 26): (
        182,
        (24, 25),
        Fraction(493343715272241206128615866328016424192, 1018146942908539750440845184008023),
        "pass",
    ),
}


@pytest.mark.parametrize("q,m", list(AUTO_SIEVE_TRUTH))
def test_auto_sieve_frozen_in_both_tie_orders(q, m):
    rep = auto_sieve(q, m)
    assert (rep.config.d, rep.config.g_indices, rep.rhs, rep.verdict) == AUTO_SIEVE_TRUTH[q, m]


def test_auto_sieve_evaluates_t_plus_1_times_s_plus_1_cores(monkeypatch):
    calls = []
    inner = sieve._evaluate_config

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(sieve, "_evaluate_config", counted)
    auto_sieve(9, 16)
    t = len(factorize_qm_minus_1(9, 16).primes())
    s = len(factor_xm1(9, 16).factors)
    assert (t, s) == (6, 12)
    assert len(calls) == (t + 1) * (s + 1)


def test_conditions_build_no_explicit_factor(monkeypatch):
    # the conditions read only the coset degrees of x^m - 1; building the
    # factor polynomials of (729, 46) took 6-7 s of one auto_sieve call
    from ffpn import fqpoly

    def refuse(*args):
        raise AssertionError("built the base field or a factor polynomial")

    monkeypatch.setattr(fqpoly, "_factors_for_divisor", refuse)
    monkeypatch.setattr(fqpoly, "small_field", refuse)
    factor_xm1.cache_clear()
    for q, m in [(729, 46), (9, 16)]:
        basic_condition(q, m)
        best = auto_sieve(q, m)
        sieve_report(q, m, best.config.d, "all")
        assert sieve_report(q, m, best.config.d, best.config.g_indices) == best
        theta_ratio(q, m)
        lemma55_check(q, m)


def exhaustive_auto_sieve(q, m, cache=None):
    """Reference for auto_sieve: all 2^(t+s) cores, first minimum in mask order."""
    primes = factorize_qm_minus_1(q, m, cache=cache).primes()
    degrees = factor_xm1(q, m).degrees
    best = best_key = None
    for dmask in range(1 << len(primes)):
        d = math.prod(p for i, p in enumerate(primes) if dmask >> i & 1)
        for gmask in range(1 << len(degrees)):
            gidx = tuple(i for i in range(len(degrees)) if gmask >> i & 1)
            rep = sieve._evaluate_config(q, m, primes, degrees, d, gidx)
            key = (rep.rhs is None, rep.rhs or 0, rep.config.n + rep.config.k, d)
            if best_key is None or key < best_key:
                best, best_key = rep, key
    return best


def audit_auto_sieve(max_ts, cache=None):
    """AUDIT_PAIRS with t + s <= max_ts, and those whose auto_sieve report
    differs from the exhaustive search."""
    checked, differ = [], []
    for q, m in AUDIT_PAIRS:
        s = len(factor_xm1(q, m).degrees)
        if len(factorize_qm_minus_1(q, m, cache=cache).primes()) + s > max_ts:
            continue
        checked.append((q, m))
        if auto_sieve(q, m, cache=cache) != exhaustive_auto_sieve(q, m, cache):
            differ.append((q, m))
    return checked, differ


def test_auto_sieve_equals_exhaustive_search(audit_cache):
    # all t + s <= 16 pairs (150 of them) also agree, in about 20 s:
    #   PYTHONPATH=src:tests python -c "import test_sieve as t; c, d = t.audit_auto_sieve(16); print(len(c), d)"
    checked, differ = audit_auto_sieve(10, audit_cache)
    assert len(checked) == 90 and (9, 43) in checked
    assert differ == []


def test_reproduce_table1_flags():
    rows = {(r["q"], r["m"]): r for r in reproduce_table(1)}
    assert len(rows) == len(TABLE1)
    # self-consistent rows
    for key in [(3, 18), (3, 27), (9, 9), (27, 5), (27, 8)]:
        assert rows[key]["lambda_matches"], key
        assert rows[key]["n_matches"] and rows[key]["k_matches"], key
    # (9,7): Lambda printed as a rounded 3.01; the recomputation is 3.0018
    assert not rows[(9, 7)]["lambda_matches"]
    assert abs(float(rows[(9, 7)]["Lambda"]) - 3.0018) < 5e-4
    # rhs inconsistencies called out with both values present
    for key in [(9, 7), (9, 9)]:
        assert not rows[key]["rhs_matches"]
        assert rows[key]["rhs"] is not None
    # rows whose printed k disagrees with the stated (d, g)
    for key in [(9, 5), (9, 8)]:
        assert not rows[key]["k_matches"]
    # every row's verdict comes from the recomputation and none is delta_nonpositive
    assert all(r["verdict"] in ("pass", "fail") for r in rows.values())


def test_reproduce_table2_flags():
    rows = {(r["q"], r["m"]): r for r in reproduce_table(2)}
    assert len(rows) == len(TABLE2)
    # (27,5): printed 67.72974 is irreconcilable; recomputed 6.72973
    assert not rows[(27, 5)]["lambda_matches"]
    assert abs(float(rows[(27, 5)]["Lambda"]) - 6.72973) < 5e-4
    # fully consistent rows
    for key in [(27, 8), (27, 10)]:
        assert rows[key]["lambda_matches"] and rows[key]["rhs_matches"], key
    # (9,5) T2 matches the no-polynomial-term Delta, so it must flag here
    assert not rows[(9, 5)]["lambda_matches"]
    assert not rows[(9, 5)]["k_matches"]


def test_sieve_lambda_equals_termwise_fractions():
    # sieve_lambda sums over one common denominator; the values must equal
    # the defining sums of Fraction terms, Delta <= 0 included.
    rng = random.Random(5)
    primes = [2, 5, 7, 11, 13, 757, 1093, 2663568851051]
    for _ in range(400):
        ps = tuple(sorted(rng.sample(primes, rng.randrange(len(primes) + 1))))
        degs = tuple(rng.choice((1, 1, 2, 3, 6)) for _ in range(rng.randrange(6)))
        q = rng.choice((3, 9, 27, 729))
        ref = 1 - 2 * sum(Fraction(1, p) for p in ps) - sum(Fraction(1, q**d) for d in degs)
        delta, lam = sieve_lambda(ps, degs, q)
        assert delta == ref
        if ref <= 0:
            assert lam is None
        else:
            assert lam == Fraction(2 * len(ps) + len(degs) - 1) / ref + 2


def test_exact_verdicts_near_boundary():
    # contrived: rhs exactly q^(m/2) must fail (strict inequality)
    from ffpn.sieve import _exceeds_sqrt

    assert not _exceeds_sqrt(9, 2, Fraction(9))  # 9 > 9 false
    assert _exceeds_sqrt(9, 2, Fraction(17, 2))
    assert not _exceeds_sqrt(3, 3, Fraction(0) + Fraction(26650243, 5127412))  # ~5.19777 > 3^1.5
    assert _exceeds_sqrt(3, 3, Fraction(5196152, 1000000))


def test_pass_verdict_implies_positive_counts():
    # cross-module: a passing sufficient condition must be confirmed by the
    # exact-count oracle on enumerable fields (the converse is not asserted)
    import random

    from ffpn.gf import build_extension
    from ffpn.search import exact_count

    for m in range(2, 7):
        rep = auto_sieve(3, m)
        if rep.verdict != "pass":
            continue
        t = build_extension(3, 1, m)
        rng = random.Random(m)
        done = 0
        while done < 10:
            a = rng.randrange(1, t.Q)
            b = rng.randrange(t.Q)
            c = rng.randrange(t.Q)
            if t.mul_codes(b, b) == t.mul_codes(a, c):
                continue
            assert exact_count(t, (a, b, c), t.N, t.N, "all") > 0
            done += 1


def test_reproduce_table2_qm2_flag():
    rows = {(r["q"], r["m"]): r for r in reproduce_table(2)}
    # the (27,6) row prints 27^4 where q^(m/2) = 27^3 belongs
    assert not rows[(27, 6)]["qm2_matches"]
    assert rows[(27, 10)]["qm2_matches"]
