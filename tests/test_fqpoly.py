import pytest

from ffpn import gf
from ffpn.fqpoly import (
    FqPolynomial,
    _embedding_table,
    apply_fq_poly,
    factor_xm1,
    fq_order,
    is_g_free,
    poly_one,
    poly_stats,
    small_field,
    tower_poly,
    x_pow_minus_one,
)
from ffpn.gf import build_extension, fe_pow
from fractions import Fraction


def test_factor_examples():
    pf = factor_xm1(3, 4)
    assert pf.multiplicity == 1
    assert {f.coeffs for f in pf.factors} == {(1, 1), (2, 1), (1, 0, 1)}
    pf9 = factor_xm1(3, 9)
    assert pf9.multiplicity == 9
    assert [f.coeffs for f in pf9.factors] == [(2, 1)]
    pf26 = factor_xm1(27, 26)
    assert pf26.multiplicity == 1
    assert len(pf26.factors) == 26
    assert all(f.degree == 1 for f in pf26.factors)


def test_degrees_match_cosets():
    # the coset degrees the conditions read against the explicit factors
    for q, m_max in [(3, 30), (9, 30), (27, 30), (81, 10)]:
        for m in range(1, m_max + 1):
            pf = factor_xm1(q, m)
            assert [f.degree for f in pf.factors] == list(pf.degrees), (q, m)


@pytest.mark.parametrize("q", [3, 9, 27])
def test_reconstruction_up_to_30(q):
    for m in range(1, 31):
        pf = factor_xm1(q, m)
        prod = poly_one(pf.field)
        for f in pf.factors:
            assert f.is_monic()
            prod = prod * f
        assert prod.pow(pf.multiplicity).coeffs == x_pow_minus_one(pf.field, m).coeffs


def test_factor_xm1_9_43_through_an_untabled_tower_above_int64():
    # the degree-21 factors are found in F_{3^42}, whose codes exceed 2^63
    pf = factor_xm1(9, 43)
    assert pf.degrees == (1, 21, 21)
    prod = poly_one(pf.field)
    for f in pf.factors:
        assert f.is_monic()
        prod = prod * f
    assert prod.pow(pf.multiplicity).coeffs == x_pow_minus_one(pf.field, 43).coeffs


@pytest.mark.parametrize("q,mmax", [(3, 12), (9, 12), (27, 12)])
def test_divisor_phi_sum(q, mmax):
    for m in range(1, mmax + 1):
        pf = factor_xm1(q, m)
        total = 0
        for _poly, exps in pf.divisors():
            parts = [
                (pf.factors[i].degree, e) for i, e in enumerate(exps) if e > 0
            ]
            total += poly_stats(q, parts).Phi
        assert total == q**m


def test_poly_stats_examples():
    s = poly_stats(3, [])
    assert (s.Omega, s.Phi, s.mu_prime, s.Theta) == (1, 1, 1, 1)
    s = poly_stats(3, [(2, 1)])
    assert (s.Omega, s.Phi, s.mu_prime) == (2, 8, -1)
    assert s.Theta == Fraction(8, 9)
    s = poly_stats(3, [(1, 2)])
    assert (s.Phi, s.mu_prime) == (6, 0)
    assert s.Theta == Fraction(6, 9)


def test_apply_fq_poly():
    t9 = build_extension(3, 1, 2)
    f3 = small_field(3, 1)
    x_minus_1 = FqPolynomial(f3, (2, 1))
    for c in range(9):
        a = t9.element(c)
        expect = fe_pow(a, 3) - a
        assert apply_fq_poly(x_minus_1, a) == expect
    xm1 = x_pow_minus_one(f3, 2)
    for c in range(9):
        assert apply_fq_poly(xm1, t9.element(c)).code == 0
    # (x+1) o alpha = alpha^3 + alpha kills the root of x^2+1
    assert apply_fq_poly(FqPolynomial(f3, (1, 1)), t9.element(3)).code == 0


def test_fq_order():
    t9 = build_extension(3, 1, 2)
    assert fq_order(t9.element(0)).coeffs == (1,)
    assert fq_order(t9.element(1)).coeffs == (2, 1)
    count = sum(1 for c in range(9) if fq_order(t9.element(c)).coeffs == (2, 0, 1))
    assert count == 4


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3), (3, 1, 4)])
def test_order_divides_and_detects_annihilation(p, r, m):
    t = build_extension(p, r, m)
    tp = tower_poly(t)
    xm1 = x_pow_minus_one(tp.pf.field, m)
    for code in range(t.Q):
        o = fq_order(t.element(code))
        assert o.divides(xm1)
        for g, _exps in tp.divisors():
            annihilates = tp.apply_codes(g, code) == 0
            assert annihilates == o.divides(g)


def test_is_g_free_counts():
    # normal element counts = Phi(x^m - 1)
    for (p, r, m, expected) in [(3, 1, 2, 4), (3, 1, 3, 18), (3, 2, 2, 64), (3, 1, 4, 32)]:
        t = build_extension(p, r, m)
        count = sum(1 for c in range(t.Q) if is_g_free(t.element(c), "all"))
        assert count == expected
        pf = factor_xm1(t.q, m)
        parts = [(f.degree, pf.multiplicity) for f in pf.factors]
        assert count == poly_stats(t.q, parts).Phi


def test_normal_count_3_8():
    t = build_extension(3, 1, 8)
    pf = factor_xm1(3, 8)
    parts = [(f.degree, 1) for f in pf.factors]
    expected = poly_stats(3, parts).Phi
    from ffpn.search import search_context

    ctx = search_context(t)
    assert int(ctx.normal_mask.sum()) == expected


def test_g_free_trivial_and_poly_spec():
    t = build_extension(3, 1, 3)
    f3 = small_field(3, 1)
    for c in range(27):
        assert is_g_free(t.element(c), 1)
    x_minus_1 = FqPolynomial(f3, (2, 1))
    # (x^3-1)/(x-1) = (x-1)^2 = x^2+x+1, so (x-1)-freeness is nonzero trace
    # of that quotient applied; compare against explicit computation
    for c in range(27):
        free = is_g_free(t.element(c), x_minus_1)
        quot = FqPolynomial(f3, (1, 1, 1))
        assert free == (apply_fq_poly(quot, t.element(c)).code != 0)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (3, 3)])
def test_m2_primitive_implies_normal(p, r):
    t = build_extension(p, r, 2)
    from ffpn.gf import is_e_free

    for c in range(1, t.Q):
        el = t.element(c)
        if is_e_free(el, t.N):
            assert is_g_free(el, "all")


def test_divisors_sorted_and_complete():
    pf = factor_xm1(3, 4)
    divs = pf.divisors()
    assert len(divs) == 8
    degrees = [p.degree for p, _ in divs]
    assert degrees == sorted(degrees)
    assert divs[0][0].is_one()
    assert divs[-1][0].coeffs == x_pow_minus_one(pf.field, 4).coeffs


def test_factor_subset_of():
    pf = factor_xm1(3, 4)
    g = FqPolynomial(pf.field, (2, 0, 1))  # x^2 - 1 = (x-1)(x+1)
    idx = pf.factor_subset_of(g)
    assert len(idx) == 2
    assert all(pf.factors[i].degree == 1 for i in idx)


@pytest.mark.parametrize("q,m", [(3, 4), (3, 6), (9, 5)])
def test_exponents_of_reads_every_divisor(q, m):
    pf = factor_xm1(q, m)
    s = len(pf.factors)
    for poly, exps in pf.divisors():
        assert pf.exponents_of(poly) == exps
        assert pf.factor_subset_of(poly) == tuple(j for j in range(s) if exps[j])
    assert pf.exponents_of("all") == (pf.multiplicity,) * s
    assert pf.exponents_of(1) == pf.exponents_of(None) == (0,) * s
    assert pf.exponents_of([s - 1, 0, 0]) == (1,) + (0,) * (s - 2) + (1,)


def test_exponents_of_multiplicity_three():
    # x^6 - 1 = (x^2 - 1)^3 over F_3
    pf = factor_xm1(3, 6)
    assert pf.multiplicity == 3
    cube = pf.factors[0].pow(3)
    assert pf.exponents_of(cube) == (3, 0)
    assert pf.exponents_of(cube * pf.factors[1]) == (3, 1)
    with pytest.raises(ValueError, match="does not divide"):
        pf.exponents_of(pf.factors[0].pow(4))


@pytest.mark.parametrize("spec", [7, 0, "al", "0,1", [0.5], [[0]], object()])
def test_exponents_of_refuses_what_is_not_a_spec(spec):
    with pytest.raises(ValueError, match="not a divisor spec"):
        factor_xm1(3, 4).exponents_of(spec)


@pytest.mark.parametrize("m", [0, -2])
def test_factoring_refuses_m_below_1(m):
    # m = 0 used to spin forever stripping factors of p from 0
    with pytest.raises(ValueError, match="m must be positive"):
        factor_xm1(3, m)


def test_exponents_of_refuses_a_foreign_field():
    pf = factor_xm1(3, 4)
    other = factor_xm1(9, 4).field
    with pytest.raises(ValueError, match="over F_3"):
        pf.exponents_of(FqPolynomial(other, (2, 1)))


def test_fq9_coefficients_are_genuine():
    # x^5 - 1 over F9 has two quadratic factors with coefficients outside F3
    pf = factor_xm1(9, 5)
    assert sorted(f.degree for f in pf.factors) == [1, 2, 2]
    quadratics = [f for f in pf.factors if f.degree == 2]
    assert any(c >= 3 for f in quadratics for c in f.coeffs)


@pytest.mark.parametrize("parts", [[(0, 1)], [(1, 0)], [(2, 1), (1, -1)]])
def test_poly_stats_refuses_nonpositive_parts(parts):
    with pytest.raises(ValueError):
        poly_stats(3, parts)


@pytest.mark.parametrize("p, r, m, tables", [(3, 2, 2, "auto"), (3, 2, 3, "off"), (5, 2, 2, "off")])
def test_embedding_table_is_a_field_embedding(p, r, m, tables):
    t = build_extension(p, r, m, tables=tables)
    small = small_field(p, r)
    emb = _embedding_table(t, small)
    assert sorted(emb) == t.subfield_codes(degree=r)
    for u in range(small.Q):
        for v in range(small.Q):
            assert emb[small.add_codes(u, v)] == t.add_codes(emb[u], emb[v])
            assert emb[small.mul_codes(u, v)] == t.mul_codes(emb[u], emb[v])


def test_embedding_table_refuses_a_subfield_without_a_root(monkeypatch):
    t = build_extension(3, 2, 2)
    # 0 is never a root of an irreducible modulus of degree 2
    monkeypatch.setattr(gf.FieldTower, "subfield_codes", lambda self, degree=None: [0])
    with pytest.raises(ArithmeticError, match="no root"):
        _embedding_table(t, small_field(3, 2))
