import cmath
import functools
import math
import random
import threading
import tracemalloc

import numpy as np
import pytest

from ffpn import chars
from ffpn.chars import (
    AddCharacter,
    MultCharacter,
    add_char_order,
    char_context,
    char_sum,
    char_sum_c0_factored,
    freeness_indicator,
    mult_char_eval,
    mult_product,
    order_triples,
    orthogonality_audit,
    random_admissible_quadratics,
    representative_psi,
    trivial_mult,
    weil_audit,
)
from ffpn.errors import SizeBudgetExceeded, ZeroElement
from ffpn.fqpoly import FqPolynomial, poly_stats, tower_poly
from ffpn.gf import FieldTower, build_extension, find_generator, is_e_free
from ffpn.fqpoly import is_g_free
from ffpn.numtheory import divisors_of


def test_mult_char_basics():
    t = build_extension(3, 1, 2)
    chi0 = trivial_mult(t)
    for c in range(1, 9):
        assert mult_char_eval(chi0, t.element(c)) == 1
    assert mult_char_eval(chi0, t.element(0)) == 1  # chi_0(0) = 1
    chi2 = MultCharacter(t, 2, 1)
    g = find_generator(t)
    assert abs(mult_char_eval(chi2, g) + 1) < 1e-12  # quadratic character at g
    assert mult_char_eval(chi2, t.element(0)) == 0  # chi(0) = 0 for d > 1


def test_mult_char_validation():
    t = build_extension(3, 1, 2)
    with pytest.raises(ValueError):
        MultCharacter(t, 3, 1)  # 3 does not divide 8
    with pytest.raises(ValueError):
        MultCharacter(t, 8, 2)  # index not coprime
    assert MultCharacter(t, 8, 0).d == 1  # trivial normalizes


def test_mult_product():
    t = build_extension(3, 1, 2)
    c1 = MultCharacter(t, 8, 1)
    c2 = MultCharacter(t, 8, 7)
    assert mult_product(c1, c2).is_trivial
    c3 = mult_product(c1, MultCharacter(t, 4, 1))
    for code in range(1, 9):
        a = t.element(code)
        lhs = mult_char_eval(c3, a)
        rhs = mult_char_eval(c1, a) * mult_char_eval(MultCharacter(t, 4, 1), a)
        assert abs(lhs - rhs) < 1e-12


def test_add_char_order_examples():
    t = build_extension(3, 1, 2)
    assert add_char_order(AddCharacter(t, 0)).is_one()
    tp = tower_poly(t)
    xm1 = tp.divisors()[-1][0]
    count = sum(
        1 for d in range(9) if add_char_order(AddCharacter(t, d)).coeffs == xm1.coeffs
    )
    assert count == 4  # Phi(x^2 - 1)


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3)])
def test_delta_order_partition(p, r, m):
    t = build_extension(p, r, m)
    ctx = char_context(t)
    tp = tower_poly(t)
    total = 0
    for di, (poly, exps) in enumerate(tp.divisors()):
        size = len(ctx.delta_class(di))
        parts = [(tp.pf.factors[i].degree, e) for i, e in enumerate(exps) if e > 0]
        assert size == poly_stats(t.q, parts).Phi
        total += size
    assert total == t.Q


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3), (3, 1, 4)])
def test_orthogonality(p, r, m):
    assert orthogonality_audit(build_extension(p, r, m)) < 1e-9


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3)])
def test_indicators_match_integer_freeness(p, r, m):
    t = build_extension(p, r, m)
    tp = tower_poly(t)
    for e in divisors_of(t.N):
        for code in range(1, t.Q):
            el = t.element(code)
            val = freeness_indicator("e", e, el)
            assert abs(val - (1.0 if is_e_free(el, e) else 0.0)) < 1e-9
    for poly, _exps in tp.divisors():
        for code in range(t.Q):
            el = t.element(code)
            val = freeness_indicator("g", poly, el)
            assert abs(val - (1.0 if is_g_free(el, poly) else 0.0)) < 1e-9


def test_indicator_rejects_zero_for_rho():
    t = build_extension(3, 1, 2)
    with pytest.raises(ZeroElement):
        freeness_indicator("e", 2, t.element(0))


def test_char_sum_trivial_pair_vanishes():
    # S(chi_0, chi_0, psi) = sum psi(alpha) = 0 for nontrivial psi
    t = build_extension(3, 1, 3)
    chi0 = trivial_mult(t)
    for delta in (1, 2, 5):
        s = char_sum(chi0, chi0, AddCharacter(t, delta), (1, 0, 1))
        assert abs(s) < 1e-9


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3)])
def test_weil_bounds_sample(p, r, m):
    audit = weil_audit(build_extension(p, r, m), quadratics=20, seed=3)
    assert audit["violations"] == []
    assert audit["worst"]["margin"] >= 0


def test_c0_factored_regrouping():
    rng = random.Random(12)
    for (p, r, m) in [(3, 1, 2), (3, 1, 3)]:
        t = build_extension(p, r, m)
        ctx = char_context(t)
        tp = tower_poly(t)
        for _ in range(5):
            a = rng.randrange(1, t.Q)
            b = rng.randrange(1, t.Q)  # ab != 0 admits f = x(ax + b)
            for d1 in divisors_of(t.N):
                for d2 in divisors_of(t.N):
                    for hi in range(len(tp.divisors())):
                        chi1 = MultCharacter(t, d1, 1 if d1 > 1 else 0)
                        chi2 = MultCharacter(t, d2, 1 if d2 > 1 else 0)
                        psi = representative_psi(t, hi)
                        direct = char_sum(chi1, chi2, psi, (a, b, 0))
                        grouped = char_sum_c0_factored(chi1, chi2, psi, a, b)
                        assert abs(direct - grouped) < 1e-9


def test_enumeration_budget_guard():
    t = build_extension(3, 1, 11, tables="off")
    with pytest.raises(SizeBudgetExceeded):
        char_context(t)


def test_weil_audit_threads_consistent():
    # weil_audit accepts threads and ignores it: both values give one audit
    t = build_extension(3, 1, 2)
    assert weil_audit(t, quadratics=10, seed=4, threads=1) == weil_audit(
        t, quadratics=10, seed=4, threads=2
    )


def test_add_char_eval_matches_table():
    t = build_extension(3, 1, 2)
    ctx = char_context(t)
    for delta in range(9):
        psi = AddCharacter(t, delta)
        tab = ctx.add_table(delta)
        for code in range(9):
            assert abs(psi(t.element(code)) - tab[code]) < 1e-12
    assert AddCharacter(t, 0).is_trivial
    assert AddCharacter(t, 5).fq_order().degree >= 1


@pytest.mark.parametrize("p,r,m", [(2, 1, 6), (3, 2, 2), (5, 1, 3), (7, 1, 2), (3, 1, 5)])
def test_trace_table_equals_scalar_trace(p, r, m):
    t = build_extension(p, r, m)
    assert char_context(t).trace_abs.tolist() == [t.trace_abs_code(c) for c in range(t.Q)]


def test_char_context_refuses_a_trace_outside_the_prime_field(monkeypatch):
    # a tower outside the registry, its TowerPoly built before the sums break
    t = FieldTower(3, 1, 3, build_tables=True)
    tower_poly(t)
    monkeypatch.setattr(t, "add_codes", lambda u, v: t.p)
    with pytest.raises(ArithmeticError, match="absolute trace left F_3"):
        char_context(t)


def test_orthogonality_audit_keeps_no_additive_tables():
    t = build_extension(3, 1, 4)
    ctx = char_context(t)
    before = len(ctx._add_tables)
    assert orthogonality_audit(t) < 1e-9
    assert len(ctx._add_tables) <= before


def test_indicator_rejects_non_divisor_g():
    # x^3 + 1 = (x + 1)^3 does not divide x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) over F_3
    t = build_extension(3, 1, 4)
    field = tower_poly(t).pf.factors[0].field
    with pytest.raises(ValueError, match="divide"):
        freeness_indicator("g", FqPolynomial(field, (1, 0, 0, 1)), t.element(5))


def test_representative_psi_rejects_unknown_divisor():
    t = build_extension(3, 1, 2)
    with pytest.raises(ValueError):
        representative_psi(t, len(tower_poly(t).divisors()))


@functools.lru_cache(maxsize=None)
def _per_sum_weil_audit(t, quadratics, seed, tol):
    """weil_audit as one char_sum per (triple, f), in the audit's order."""
    fs = random_admissible_quadratics(t, quadratics, random.Random(seed))
    divs = tower_poly(t).divisors()
    worst, violations, checked = None, [], 0
    for d1, d2, hi in order_triples(t):
        chi1 = MultCharacter(t, d1, 1 if d1 > 1 else 0)
        chi2 = MultCharacter(t, d2, 1 if d2 > 1 else 0)
        psi = representative_psi(t, hi)
        if chi1.is_trivial and chi2.is_trivial and psi.is_trivial:
            continue
        bound = (2 if psi.is_trivial else 3) * math.sqrt(t.Q)
        for f in fs:
            s = abs(char_sum(chi1, chi2, psi, f))
            margin = bound + tol - s
            checked += 1
            if worst is None or margin < worst["margin"]:
                worst = {
                    "d1": d1,
                    "d2": d2,
                    "h": divs[hi][0].render(),
                    "f": list(f),
                    "abs_S": s,
                    "bound": bound,
                    "margin": margin,
                }
            if margin < 0:
                violations.append((d1, d2, hi, f, s, bound))
    return {"worst": worst, "violations": violations, "checked": checked}


# weil_audit accepts threads and ignores it, so both values give the reference
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block_rows", [1, 3, None])
# (3, 2, 2) is F81 over F9: its h-classes lie over q != p, and its 400
# triples leave ragged A blocks at 1 and 3 rows as well as ragged B blocks
@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (3, 2, 2)])
def test_weil_audit_equals_per_sum_reference(monkeypatch, p, r, m, block_rows, threads):
    t = build_extension(p, r, m)
    if block_rows is not None:
        # 7 quadratics in blocks of 3 leave a ragged last block of 1
        monkeypatch.setattr(chars, "_WEIL_BLOCK_TERMS", block_rows * t.Q + t.Q // 2)
        monkeypatch.setattr(chars, "_WEIL_MIN_ROWS", 1)
    # on F_25, 20 quadratics of seed 1 leave four rows tied at the smallest
    # margin, and numpy's sums put their first minimum on another row
    cases = [(7, m)] + ([(20, 1)] if (p, r, m) == (5, 1, 2) else [])
    # a negative tolerance pushes some margins below 0, so violations are compared too
    for quadratics, seed in cases:
        for tol in (1e-6, -1.5 * math.sqrt(t.Q)):
            got = weil_audit(t, quadratics=quadratics, seed=seed, tol=tol, threads=threads)
            want = _per_sum_weil_audit(t, quadratics, seed, tol)
            assert got == want
        assert want["violations"]
        assert want["checked"] == quadratics * (len(order_triples(t)) - 1)


def test_weil_audit_draws_only_admissible_quadratics():
    # b^2 != ac admitted f = 19 x^2 + 11 x + 11 on F_25, where b^2 = 4ac:
    # 19 (x + 2)^2, whose |S| = 24 broke the bound 10
    t = build_extension(5, 1, 2)
    fs = random_admissible_quadratics(t, 20, random.Random(2))
    assert all(t.mul_codes(b, b) != t.mul_codes(4, t.mul_codes(a, c)) for a, b, c in fs)
    assert weil_audit(t, quadratics=20, seed=2)["violations"] == []


def test_weil_audit_small_audit_skips_pool(monkeypatch):
    # every audit runs in the calling thread, whatever threads says
    def no_pool(*args, **kwargs):
        raise AssertionError("a Weil audit started a thread pool")

    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    # F27 x 5, F81 and F243 x 20, as the perfbench audit runs them
    for m, quadratics, seed in ((3, 5, 1), (4, 20, 1), (5, 20, 1)):
        t = build_extension(3, 1, m)
        assert weil_audit(t, quadratics=quadratics, seed=seed, threads=2) == weil_audit(
            t, quadratics=quadratics, seed=seed, threads=1
        )
        assert threading.active_count() == before


def test_weil_audit_blocks_hold_at_least_the_row_floor(monkeypatch):
    # F_{3^9} has 80 A rows (8 d1 x 10 h) and, for one quadratic, 8 B rows
    # (8 d2); 2^18 // Q alone gave 13-row A blocks, 7 thin products
    shapes = []

    class RecordingNumpy:
        """numpy, with abs recording the shape of each block product (given out=)."""

        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, x, out=None):
            if out is not None:
                shapes.append(x.shape)
            return np.abs(x, out=out)

    t = build_extension(3, 1, 9)
    monkeypatch.setattr(chars, "np", RecordingNumpy())
    assert weil_audit(t, quadratics=1)["checked"] == len(order_triples(t)) - 1
    assert chars._WEIL_MIN_ROWS == 32 and shapes == [(32, 8), (32, 8), (16, 8)]


def test_weil_audit_fsums_few_rows(monkeypatch):
    # every row went through fsum before: 31,960 calls for this audit
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    audit = weil_audit(build_extension(3, 1, 4), quadratics=20, seed=0)
    assert audit["checked"] == 15_980
    assert len(calls) <= 40


def test_weil_audit_holds_one_block_per_operand():
    # F_{3^8} x 4 has 768 A rows and 96 B rows of 6561 terms, blocked at 39
    # rows each; the per-triple route that summed one product per character
    # triple peaked at 5,284,968 traced bytes here, and one unblocked A
    # operand alone would take 80 MB
    t = build_extension(3, 1, 8)
    weil_audit(t, quadratics=4)  # builds and keeps the character tables
    tracemalloc.start()
    try:
        weil_audit(t, quadratics=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5_300_000 + 2 * chars._WEIL_BLOCK_TERMS * 16
