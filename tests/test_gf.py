import math
import random
import tracemalloc

import numpy as np
import pytest

from ffpn import gf
from ffpn.errors import NotPrime, SizeBudgetExceeded, ZeroElement
from ffpn.gf import (
    FieldTower,
    build_extension,
    discrete_log,
    fe_pow,
    find_generator,
    frobenius,
    is_e_free,
    trace,
)
from ffpn.numtheory import factorize, multiplicative_stats, small_primes


def T(p, r, m, **kw):
    return build_extension(p, r, m, **kw)


def test_modulus_choices():
    assert T(3, 1, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert T(3, 1, 1).modulus == (0, 1)  # x, the trivial degree-1 tower
    t = T(3, 3, 1)
    assert t.Q == 27 and t.q == 27 and t.m == 1


def test_not_prime():
    with pytest.raises(NotPrime):
        T(4, 1, 2)


def test_table_budget():
    with pytest.raises(SizeBudgetExceeded):
        T(3, 1, 17, tables="on")


def test_fe_pow_basics():
    t = T(3, 1, 2)
    g = find_generator(t)
    assert fe_pow(g, 0).code == 1
    assert fe_pow(t.element(0), 0).code == 1  # 0^0 = 1 by convention
    assert fe_pow(g, t.N).code == 1
    # g^((q^m-1)/2) = -1, the only element of order 2
    assert fe_pow(g, t.N // 2) == t.element(-1)


def test_lagrange_exhaustive_f27():
    t = T(3, 1, 3)
    for code in range(1, 27):
        assert t.pow_code(code, 26) == 1


def test_frobenius():
    t = T(3, 1, 2)
    i = t.element(3)  # the root of x^2 + 1
    assert frobenius(i, 1) == -i
    t27 = T(3, 1, 3)
    for code in range(27):
        a = t27.element(code)
        assert frobenius(a, 0) == a
        assert frobenius(a, t27.m) == a


def test_frobenius_is_automorphism_fixing_q_elements():
    for (p, r, m) in [(3, 1, 2), (3, 1, 3), (3, 2, 2), (3, 1, 6)]:
        t = T(p, r, m)
        fixed = sum(1 for c in range(t.Q) if t.frobenius_code(c, 1) == c)
        assert fixed == t.q
        rng = random.Random(5)
        for _ in range(200):
            u = rng.randrange(t.Q)
            v = rng.randrange(t.Q)
            assert t.frobenius_code(t.mul_codes(u, v), 1) == t.mul_codes(
                t.frobenius_code(u, 1), t.frobenius_code(v, 1)
            )
            assert t.frobenius_code(t.add_codes(u, v), 1) == t.add_codes(
                t.frobenius_code(u, 1), t.frobenius_code(v, 1)
            )


def test_trace():
    t27 = T(3, 1, 3)
    assert trace(t27.element(0), "absolute").code == 0
    assert trace(t27.element(1), "to_Fq").code == 0  # m = 3 kills 1 in char 3
    nonzero_trace = sum(1 for c in range(27) if t27.trace_abs_code(c) != 0)
    assert nonzero_trace == 18


def test_trace_linear_surjective():
    for (p, r, m) in [(3, 1, 2), (3, 1, 3), (3, 2, 2)]:
        t = T(p, r, m)
        images = {t.trace_fq_code(c) for c in range(t.Q)}
        sub = set(t.subfield_codes())
        assert images == sub
        rng = random.Random(11)
        for _ in range(100):
            u, v = rng.randrange(t.Q), rng.randrange(t.Q)
            assert t.trace_fq_code(t.add_codes(u, v)) == t.add_codes(
                t.trace_fq_code(u), t.trace_fq_code(v)
            )
        for lam in sub:
            for _ in range(10):
                u = rng.randrange(t.Q)
                assert t.trace_fq_code(t.mul_codes(lam, u)) == t.mul_codes(
                    lam, t.trace_fq_code(u)
                )


def test_generators():
    assert find_generator(T(3, 1, 1)).code == 2
    t9 = T(3, 1, 2)
    g = find_generator(t9)
    assert fe_pow(g, 4).code != 1 and fe_pow(g, 8).code == 1
    prim9 = [c for c in range(1, 9) if all(t9.pow_code(c, 8 // l) != 1 for l in (2,))]
    assert len(prim9) == 4
    t27 = T(3, 1, 3)
    prim27 = [
        c for c in range(1, 27) if all(t27.pow_code(c, 26 // l) != 1 for l in (2, 13))
    ]
    assert len(prim27) == 12
    assert find_generator(t27).code == min(prim27)


def test_is_e_free():
    t9 = T(3, 1, 2)
    g = find_generator(t9)
    for c in range(1, 9):
        assert is_e_free(t9.element(c), 1)
    assert is_e_free(g, 8)
    assert not is_e_free(g * g, 8)
    with pytest.raises(ZeroElement):
        is_e_free(t9.element(0), 2)


def test_e_free_count_is_phi():
    for (p, r, m) in [(3, 1, 2), (3, 1, 3), (3, 1, 4), (3, 2, 2), (3, 1, 8)]:
        t = T(p, r, m)
        count = sum(1 for c in range(1, t.Q) if is_e_free(t.element(c), t.N))
        assert count == multiplicative_stats(factorize(t.N)).phi


def test_discrete_log_table_path():
    t = T(3, 1, 3)
    g = find_generator(t)
    assert discrete_log(t.element(1)) == 0
    assert discrete_log(g) == 1
    for k in range(t.N):
        assert discrete_log(fe_pow(g, k)) == k
    with pytest.raises(ZeroElement):
        discrete_log(t.element(0))
    # dlog 3 is coprime to 8 in F9, so g^3 is primitive
    t9 = T(3, 1, 2)
    g9 = find_generator(t9)
    assert math.gcd(discrete_log(fe_pow(g9, 3)), t9.N) == 1


def test_discrete_log_bsgs_matches_tables():
    twith = T(3, 1, 5)
    twout = T(3, 1, 5, tables="off")
    assert not twout.has_tables
    for code in range(1, twith.Q, 7):
        assert twout.dlog_code(code) == twith.dlog_code(code)


def test_field_axioms_exhaustive_f9():
    t = T(3, 1, 2)
    for a in range(9):
        for b in range(9):
            assert t.mul_codes(a, b) == t.mul_codes(b, a)
            for c in range(9):
                lhs = t.mul_codes(a, t.add_codes(b, c))
                rhs = t.add_codes(t.mul_codes(a, b), t.mul_codes(a, c))
                assert lhs == rhs
                assert t.mul_codes(t.mul_codes(a, b), c) == t.mul_codes(a, t.mul_codes(b, c))
    for a in range(1, 9):
        assert t.mul_codes(a, t.inv_code(a)) == 1


def test_field_axioms_random_bigger():
    t = T(3, 1, 6)
    rng = random.Random(99)
    for _ in range(10**4):
        a, b, c = (rng.randrange(t.Q) for _ in range(3))
        assert t.mul_codes(t.mul_codes(a, b), c) == t.mul_codes(a, t.mul_codes(b, c))
        assert t.mul_codes(a, t.add_codes(b, c)) == t.add_codes(
            t.mul_codes(a, b), t.mul_codes(a, c)
        )
    for _ in range(100):
        a = rng.randrange(1, t.Q)
        assert t.mul_codes(a, t.inv_code(a)) == 1


def test_inverse_without_tables():
    t = T(3, 2, 2, tables="off")
    for a in range(1, t.Q, 5):
        assert t.mul_codes(a, t.inv_code(a)) == 1


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
def test_untabled_inverse_matches_tables(p, n):
    twith = T(p, 1, n)
    twout = T(p, 1, n, tables="off")
    assert not twout.has_tables
    for code in range(1, twith.Q):
        assert twout.inv_code(code) == twith.inv_code(code)


def _dense_mod(a, mod, p):
    """Schoolbook long division: subtract c x^s mod, every term of mod, per step."""
    a = list(a)
    inv = pow(mod[-1], -1, p)
    while len(a) >= len(mod):
        c, s = a[-1] * inv % p, len(a) - len(mod)
        for j, mj in enumerate(mod):
            a[s + j] = (a[s + j] - c * mj) % p
        assert a.pop() == 0
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pmod_equals_dense_long_division(p):
    rng = random.Random(p)
    sparse = [gf.lex_smallest_irreducible(p, n) for n in range(1, 8)]
    # non-monic, every coefficient nonzero: the remainders _pgcd divides by
    dense = [tuple(rng.randrange(1, p) for _ in range(n + 1)) for n in range(1, 8)]
    for mod in sparse + dense:
        for _ in range(60):
            # untrimmed dividends, as decode gives them, from below mod's degree
            a = tuple(rng.randrange(p) for _ in range(rng.randrange(2 * len(mod) + 2)))
            assert gf._pmod(a, mod, p) == _dense_mod(a, mod, p), (a, mod)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_untabled_products_and_powers_equal_tables(p, n):
    # untabled codes multiply and power through _pmul, _pmod and _ppowmod
    twith = T(p, 1, n)
    twout = T(p, 1, n, tables="off")
    assert twith.has_tables and not twout.has_tables
    for u in range(twith.Q):
        for v in range(twith.Q):
            assert twout.mul_codes(u, v) == twith.mul_codes(u, v), (u, v)
            assert twout.pow_code(u, v) == twith.pow_code(u, v), (u, v)


def test_trace_check_raises_under_optimization(monkeypatch):
    # the F_p range check is a raise, not an assert that python -O strips
    t = T(3, 1, 3, tables="off")
    monkeypatch.setattr(t, "add_codes", lambda u, v: t.p)
    with pytest.raises(ArithmeticError, match="absolute trace left F_3"):
        t.trace_abs_code(5)


def test_subfield():
    t = T(3, 2, 2)
    sub = t.subfield_codes()
    assert len(sub) == 9
    assert all(t.frobenius_code(c, 1) == c for c in sub)
    for u in sub:
        for v in sub:
            assert t.mul_codes(u, v) in sub
            assert t.add_codes(u, v) in sub


@pytest.mark.parametrize("p", [131, 251])
def test_kernel_codes_when_uint8_digit_sums_wrap(p):
    # the kernel of x0 + x1 + x2 over F_p has basis (p-1, 1, 0), (p-1, 0, 1):
    # both hit digit 0, where uint8 sums of two digits pass 255
    t = T(p, 1, 3, tables="off")
    d2, d1 = np.divmod(np.arange(p * p), p)
    want = np.sort((-d1 - d2) % p + d1 * p + d2 * p * p)
    assert t.kernel_codes(np.array([[1, 1, 1], [0, 0, 0], [0, 0, 0]])).tolist() == want.tolist()


def test_subfield_codes_above_int64():
    # F_{3^42} and F_{9^43} have codes above 2^63, so the kernel span is
    # encoded in Python ints
    for r, m in ((42, 1), (2, 43)):
        t = T(3, r, m, tables="off")
        sub = t.subfield_codes(2)
        assert t.Q > 1 << 63
        assert len(sub) == 9 and sub == sorted(sub)
        assert all(type(c) is int and t.pow_code(c, 9) == c for c in sub)
        for u in sub:
            for v in sub:
                assert t.mul_codes(u, v) in sub
                assert t.add_codes(u, v) in sub


def test_element_rendering():
    t = T(3, 1, 2)
    g = find_generator(t)
    assert "g^1" in g.render()
    assert t.element(0).render() == "0,0"


def test_tower_caching_returns_same_object():
    assert T(3, 1, 4) is T(3, 1, 4)


def test_log_table_is_bijection():
    t = T(3, 1, 3)
    logs = sorted(int(t.log[c]) for c in range(1, t.Q))
    assert logs == list(range(t.N))
    assert all(int(t.exp[int(t.log[c])]) == c for c in range(1, t.Q))


def test_element_operators():
    t = T(3, 1, 2)
    a = t.element(4)
    b = t.element(7)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert -(-a) == a
    assert a**3 == fe_pow(a, 3)
    assert a + 0 == a and a * 1 == a
    with pytest.raises(ZeroElement):
        a / t.element(0)


def _scalar_chain(p, r, m):
    """exp/log by one scalar mul_codes per power, on a table-free tower."""
    t = T(p, r, m, tables="off")
    g = t.find_generator_code()
    exp = np.zeros(t.N, dtype=np.int64)
    log = np.full(t.Q, -1, dtype=np.int64)
    cur = 1
    for k in range(t.N):
        exp[k] = cur
        log[cur] = k
        cur = t.mul_codes(cur, g)
    assert cur == 1
    return exp, log


def _assert_same_tables(t, exp, log):
    # codes and logs are below Q <= 2^24, so the tables are int32
    assert t.exp.dtype == np.int32 and t.log.dtype == np.int32
    assert t.exp.tolist() == exp.tolist()
    assert t.log.tolist() == log.tolist()


@pytest.mark.parametrize(
    "p,r,m",
    [
        (2, 1, 1), (2, 1, 8), (2, 2, 4), (2, 4, 2), (2, 8, 1),
        (3, 1, 1), (3, 1, 6), (3, 2, 3), (3, 3, 2), (3, 6, 1),
        (5, 1, 4), (5, 2, 2), (5, 4, 1),
        (7, 1, 3), (7, 3, 1),
    ],
)
def test_block_table_build_equals_scalar_chain(p, r, m):
    _assert_same_tables(FieldTower(p, r, m, build_tables=True), *_scalar_chain(p, r, m))


@pytest.mark.parametrize("block", [1, 2, 5, 7, 64])
@pytest.mark.parametrize("p,r,m", [(3, 1, 6), (2, 3, 3), (5, 1, 4)])
def test_block_table_build_many_and_ragged_blocks(monkeypatch, block, p, r, m):
    # N = 728, 511, 624: block 5 leaves a ragged last block on all three
    monkeypatch.setattr(gf, "_TABLE_BLOCK", block)
    _assert_same_tables(FieldTower(p, r, m, build_tables=True), *_scalar_chain(p, r, m))


@pytest.mark.parametrize("p,r,m,k", [(3, 1, 4, 2), (2, 1, 6, 3), (5, 1, 2, 2), (7, 2, 1, 3)])
def test_table_build_refuses_non_primitive_generator(monkeypatch, p, r, m, k):
    # k divides N, so g^k has order N / k
    t = T(p, r, m, tables="off")
    gk = t.pow_code(t.find_generator_code(), k)
    monkeypatch.setattr(FieldTower, "find_generator_code", lambda self, cache=None: gk)
    with pytest.raises(ArithmeticError, match="not primitive"):
        FieldTower(p, r, m, build_tables=True)


def test_lane_layout_fits_int64_and_never_carries():
    # every tabled field F_{p^n} with n >= 2 steps its log tables on lanes
    fields = 0
    for p in small_primes(1 << 12):
        n = 2
        while p**n <= gf.TABLE_LIMIT:
            b, w = gf._lane_layout(p, n)
            groups = -(-n // w)
            if p == 2:
                assert b == 1  # the lanes are the code's bits, combined by XOR
            else:
                assert groups * (p - 1) < 1 << b  # a sum of G reduced lanes carries nowhere
                assert n * b <= 63
                assert b * w <= 12 or (w == 1 and n == 2)
            fields += 1
            n += 1
    assert fields == 684


@pytest.mark.parametrize("p,r,m", [(2, 1, 13), (3, 1, 9), (5, 1, 6), (4099, 1, 1)])
def test_table_build_past_one_block_equals_scalar_chain(p, r, m):
    # N = 8191, 19682, 15624, 4098 > _TABLE_BLOCK: XOR lanes, added lanes, and F_p
    assert p**m - 1 > gf._TABLE_BLOCK
    _assert_same_tables(FieldTower(p, r, m, build_tables=True), *_scalar_chain(p, r, m))


def test_table_build_holds_no_wide_temporaries():
    # numpy reports its buffers to tracemalloc, so the peak is exact.  A fresh
    # F_{3^11} build keeps exp and log (8 bytes per element) and may allocate
    # 1 more per element beside them (it takes 0.3); stepping int64 digit
    # rows by the matrix of g^B took 6.1.
    t = FieldTower(3, 1, 11, build_tables=False)
    t.find_generator_code()
    tracemalloc.start()
    try:
        t._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= t.exp.nbytes + t.log.nbytes + t.Q


@pytest.mark.parametrize(
    "p,r,m",
    [(2, 1, 1), (2, 1, 10), (2, 3, 4), (3, 1, 1), (3, 1, 7), (3, 2, 4), (5, 1, 5), (7, 1, 4), (131, 1, 1), (131, 1, 2)],
)
def test_matrix_generator_search_equals_scalar_search(p, r, m):
    t = FieldTower(p, r, m, build_tables=False)
    primes = t.n_factorization().primes()
    scalar = next(c for c in range(1, t.Q) if all(t.pow_code(c, t.N // l) != 1 for l in primes))
    assert t.find_generator_code() == scalar


def _scalar_quad(t, a, b, c, x):
    return t.add_codes(t.add_codes(t.mul_codes(a, t.mul_codes(x, x)), t.mul_codes(b, x)), c)


@pytest.mark.parametrize(
    "p,r,m", [(2, 1, 6), (2, 3, 2), (3, 1, 5), (3, 2, 3), (5, 1, 3), (7, 1, 3), (257, 1, 2)]
)
def test_quad_values_equal_scalar_evaluation(p, r, m):
    t = T(p, r, m)
    rng = random.Random(p * 100 + m)
    top = t.Q - 1
    quads = [(1, 0, 0), (top, top, top), (rng.randrange(1, t.Q), 0, rng.randrange(t.Q))]
    if t.Q < 10**4:
        quads += [(rng.randrange(1, t.Q), rng.randrange(t.Q), rng.randrange(t.Q)) for _ in range(3)]
    for a, b, c in quads:
        vals = t.quad_values(a, b, c)
        assert vals.dtype == np.int64
        assert vals.tolist() == [_scalar_quad(t, a, b, c, x) for x in range(t.Q)]


def _digit_row_quad(t, a, b, c):
    # a x^2 + b x + c added as base-p digit rows, products through the tables
    x = np.arange(t.Q, dtype=np.int64)

    def times(u, v):
        out = np.zeros(t.Q, dtype=np.int64)
        nz = (u != 0) & (v != 0)
        out[nz] = t.exp[(t.log[u[nz]] + t.log[np.broadcast_to(v, u.shape)[nz]]) % t.N]
        return out

    pw = np.array([t.p**i for i in range(t.n)], dtype=np.int64)
    terms = (times(times(x, x), a), times(x, b), np.full(t.Q, c, dtype=np.int64))
    digits = sum((u[:, None] // pw) % t.p for u in terms)
    return (digits % t.p) @ pw


@pytest.mark.parametrize("p,r,m", [(2, 1, 7), (2, 2, 3), (3, 1, 6), (3, 2, 2), (5, 1, 3), (7, 1, 3)])
def test_quad_values_equal_digit_rows_for_every_zero_pattern(p, r, m):
    t = T(p, r, m)
    rng = random.Random(17 * p + m)
    for _ in range(3):
        nonzero = [rng.randrange(1, t.Q) for _ in range(3)]
        for pattern in range(8):
            a, b, c = (v if (pattern >> i) & 1 else 0 for i, v in enumerate(nonzero))
            vals = t.quad_values(a, b, c)
            assert vals.dtype == np.int64
            assert vals.tolist() == _digit_row_quad(t, a, b, c).tolist(), (a, b, c)


@pytest.mark.parametrize("p,r,m", [(2, 1, 5), (2, 1, 1), (3, 1, 4), (5, 2, 1), (7, 1, 2)])
def test_zech_table_is_log_of_one_plus_power(p, r, m):
    t = T(p, r, m)
    want = []
    for k in range(t.N):
        s = t.add_codes(1, int(t.exp[k]))
        want.append(-1 if s == 0 else t.dlog_code(s))
    assert t.zech_table().tolist() == want


def test_towers_of_one_field_share_tables_not_contexts():
    from ffpn.fqpoly import tower_poly

    t25, t52 = T(3, 2, 5), T(3, 5, 2)
    assert t25 is not t52 and t25.Q == t52.Q
    assert t25.exp is t52.exp and t25.log is t52.log
    assert t25.generator_code == t52.generator_code
    assert t25.n_factorization() is t52.n_factorization()
    assert tower_poly(t25) is not tower_poly(t52)
    assert tower_poly(t25).tower is t25 and tower_poly(t52).tower is t52
    assert t25.quad_values(5, 7, 11).tolist() == t52.quad_values(5, 7, 11).tolist()


def test_tabled_and_untabled_towers_share_nothing():
    on = T(5, 1, 4, tables="on")
    off = T(5, 2, 2, tables="off")
    off_same = T(5, 1, 4, tables="off")
    on_twin = T(5, 2, 2)
    for t in (off, off_same):
        assert not t.has_tables and t.exp is None and t.log is None and t._zech is None
        with pytest.raises(SizeBudgetExceeded):
            t.zech_table()
    assert on_twin.exp is on.exp and on_twin.has_tables


def test_vectorized_products_refuse_untabled_tower():
    t = T(3, 1, 4, tables="off")
    with pytest.raises(SizeBudgetExceeded):
        t.quad_values(1, 0, 0)


# p = 257 enumerates int64 digit rows, the others uint8 rows
@pytest.mark.parametrize("p,r,m", [(3, 1, 6), (2, 1, 8), (5, 1, 3), (3, 2, 3), (257, 1, 2)])
def test_kernel_codes_is_the_kernel(p, r, m):
    t = T(p, r, m)
    for k in range(1, 4):
        # the F_p-linear map x -> x^(p^k) - x; its kernel is F_{p^gcd(k, n)}
        mat = t.linear_map_matrix(lambda c: t.sub_codes(t.pow_code(c, p**k), c))
        want = [x for x in range(t.Q) if t.pow_code(x, p**k) == x]
        assert t.kernel_codes(mat).tolist() == want
        assert len(want) == p ** math.gcd(k, t.n)
