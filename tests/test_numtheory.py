import json
import math
import os
import random
import subprocess
import sys

import pytest

from ffpn import numtheory
from ffpn.errors import CorruptCache, NotPrime
from ffpn.numtheory import (
    FactorCache,
    IntFactorization,
    cyclotomic_value,
    divisors_of,
    factorize,
    factorize_qm_minus_1,
    moebius,
    multiplicative_stats,
    omega_table,
    partial_factorize_qm_minus_1,
    prime_power_split,
    primality,
    small_primes,
)


def test_factorize_one():
    f = factorize(1)
    assert f.n == 1 and f.factors == ()


def test_factorize_26():
    assert factorize(26).factors == ((2, 1), (13, 1))


def test_factorize_3_18_minus_1():
    f = factorize(3**18 - 1)
    assert f.factors == ((2, 3), (7, 1), (13, 1), (19, 1), (37, 1), (757, 1))


def test_factorize_deterministic():
    n = 10**12 + 39  # semiprime beyond the trial division limit
    assert factorize(n).factors == factorize(n).factors


def test_factorize_rejects_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(12, hints=[4])


def test_factorization_invariants_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n
        ps = f.primes()
        assert ps == sorted(ps)
        assert all(primality(p)[0] for p in ps)


def test_qm_minus_1_split():
    assert factorize_qm_minus_1(3, 3).factors == ((2, 1), (13, 1))
    f = factorize_qm_minus_1(9, 7)
    assert f.n == 4782968
    assert f.factors == ((2, 3), (547, 1), (1093, 1))
    # agrees with direct factorization
    assert f.factors == factorize(9**7 - 1).factors


def test_qm_minus_1_value_exact():
    for q, m in [(3, 5), (9, 4), (27, 3)]:
        assert factorize_qm_minus_1(q, m).n == q**m - 1


def test_multiplicative_stats_examples():
    s = multiplicative_stats(factorize(1))
    assert (s.omega, s.W, s.phi, s.theta, s.radical) == (0, 1, 1, 1, 1)
    s = multiplicative_stats(factorize(26))
    assert (s.omega, s.W, s.phi) == (2, 4, 12)
    assert s.theta == type(s.theta)(6, 13)
    assert s.radical == 26
    s = multiplicative_stats(factorize(80))
    assert (s.omega, s.W, s.phi, s.radical) == (2, 4, 32, 10)
    assert s.theta == type(s.theta)(2, 5)


def test_theta_multiplicative_on_coprime_pairs():
    rng = random.Random(2024)
    done = 0
    while done < 30:
        a = rng.randrange(2, 10**6)
        b = rng.randrange(2, 10**6)
        if math.gcd(a, b) != 1:
            continue
        ta = multiplicative_stats(factorize(a)).theta
        tb = multiplicative_stats(factorize(b)).theta
        tab = multiplicative_stats(factorize(a * b)).theta
        assert tab == ta * tb
        done += 1


def test_omega_table_matches_factorize():
    t = omega_table(10**6)
    for n in range(2, 5000, 37):
        assert int(t[n]) == len(factorize(n).factors)
    rng = random.Random(8)
    for _ in range(2000):
        n = rng.randrange(2, 10**6)
        assert int(t[n]) == len(factorize(n).factors)


def test_primality_knowns():
    assert primality(2)[0] and primality(2**61 - 1)[0]
    assert not primality(561)[0]  # Carmichael
    assert not primality(1)[0]
    # deterministic range is certified
    assert primality(10**18 + 9)[1]


def test_moebius_and_cyclotomic():
    assert [moebius(n) for n in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
    assert cyclotomic_value(1, 3) == 2
    assert cyclotomic_value(2, 3) == 4
    assert cyclotomic_value(6, 3) == 7
    assert math.prod(cyclotomic_value(d, 3) for d in divisors_of(6)) == 3**6 - 1


def test_prime_power_split():
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(81) == (3, 4)
    assert prime_power_split(7) == (7, 1)
    with pytest.raises(NotPrime):
        prime_power_split(12)


def test_factor_cache_roundtrip(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = FactorCache(path)
    f = factorize(3**18 - 1, cache=cache)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data[str(3**18 - 1)] == ["2", "2", "2", "7", "13", "19", "37", "757"]
    # a fresh cache object reads the same file
    again = factorize(3**18 - 1, cache=FactorCache(path))
    assert again.factors == f.factors


def test_cache_ignores_inconsistent_entries(tmp_path):
    path = str(tmp_path / "cache.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"26": ["3", "7"]}, fh)  # wrong product; must be ignored
    f = factorize(26, cache=FactorCache(path))
    assert f.factors == ((2, 1), (13, 1))


def test_hints_used():
    p1, p2 = 1000003, 1000033
    f = factorize(p1 * p2, hints=[p1, p2])
    assert f.factors == ((p1, 1), (p2, 1))


def test_prime_power_split_settles_a_prime_before_trial_division(monkeypatch):
    # trial division of this prime walked all 78,498 primes below 10^6
    q = 1000000000163
    monkeypatch.setattr(numtheory, "_small_primes_cache", (1, []))
    assert prime_power_split(q) == (q, 1)
    assert numtheory._small_primes_cache[0] <= 1 << 12


def test_factorize_routes_prime_powers_minus_one_through_cyclotomic_parts(tmp_path):
    # trial division and rho alone gave up on the 38-digit cofactor
    # 380808546861411923 * 82064241848634269407 of 3^86 - 1
    n = 3**86 - 1
    assert factorize(n) == factorize_qm_minus_1(3, 86)
    cache = FactorCache(str(tmp_path / "cache.json"))
    assert factorize(n, hints=[431], cache=cache) == factorize_qm_minus_1(3, 86)
    assert cache.lookup(n) == factorize_qm_minus_1(3, 86)
    with pytest.raises(ValueError, match="not prime"):
        factorize(n, hints=[4])
    # the root search: a prime above TRIAL_LIMIT squared, a power of a composite, a prime exponent
    assert numtheory._prime_power_root(1000003**2) == (1000003, 2)
    assert numtheory._prime_power_root(6**4) is None and numtheory._prime_power_root(2**89) == (2, 89)


def test_small_primes_sieve():
    sp = small_primes()
    assert sp[:5] == [2, 3, 5, 7, 11]
    assert sp[-1] < 10**6 and len(sp) == 78498


def test_small_primes_sieve_only_as_far_as_asked(monkeypatch):
    # 3^11 - 1 = 2 * 23 * 3851: trial division stops by isqrt(177146) = 420,
    # so a cold factorization sieves to 2^12, not to 10^6
    monkeypatch.setattr(numtheory, "_small_primes_cache", (1, []))
    assert factorize(3**11 - 1).factors == ((2, 1), (23, 1), (3851, 1))
    assert prime_power_split(3**11) == (3, 11)
    assert numtheory._small_primes_cache[0] == 1 << 12
    assert factorize(999_983 * 999_979).factors == ((999_979, 1), (999_983, 1))
    assert numtheory._small_primes_cache[0] == 10**6
    full = small_primes()
    assert len(full) == 78498
    for limit in (0, 1, 2, 3, 420, 4093, 4096, 4097, 10**6 - 1, 10**6, 10**7):
        monkeypatch.setattr(numtheory, "_small_primes_cache", (1, []))
        primes = small_primes(limit)
        assert primes == full[: len(primes)]  # a prefix of the full list
        assert [p for p in primes if p <= limit] == [p for p in full if p <= limit]


def test_small_primes_equal_plain_sieve_as_python_ints():
    sp = small_primes()
    assert len(sp) == 78498
    limit = 10**6
    plain = bytearray([1]) * (limit + 1)
    plain[0] = plain[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if plain[i]:
            plain[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    assert sp == [i for i in range(limit + 1) if plain[i]]
    # trial division takes rem % p on integers beyond int64
    assert all(type(p) is int for p in sp)


def test_int_factorization_validates():
    with pytest.raises(ArithmeticError):
        IntFactorization(n=6, factors=((2, 1),))


_BAD_FACTORIZATIONS = [
    (6, ((2, 1),), ArithmeticError),  # product 2, not 6
    (6, ((3, 1), (2, 1)), ValueError),  # primes out of order
    (4, ((2, 1), (2, 1)), ValueError),  # a prime listed twice
    (0, (), ValueError),
]


def test_int_factorization_raises_under_optimization():
    # python -O strips assert statements; these checks must still raise
    for n, factors, exc in _BAD_FACTORIZATIONS:
        with pytest.raises(exc):
            IntFactorization(n=n, factors=factors)
    code = (
        "from ffpn.numtheory import IntFactorization\n"
        f"for n, factors, exc in {[(n, f, e.__name__) for n, f, e in _BAD_FACTORIZATIONS]!r}:\n"
        "    try:\n"
        "        IntFactorization(n=n, factors=factors)\n"
        "    except Exception as err:\n"
        "        print(exc in [c.__name__ for c in type(err).__mro__])\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.split() == ["True"] * len(_BAD_FACTORIZATIONS), out.stderr


def test_unfactored_cofactor_carries_value(monkeypatch):
    from ffpn import numtheory as nt
    from ffpn.errors import UnfactoredCofactor

    # shrink the rho budget so a modest semiprime survives it
    monkeypatch.setattr(nt, "_RHO_ATTEMPTS", 1)
    monkeypatch.setattr(nt, "_RHO_MAX_ITER", 4)
    n = 1000003 * 1000033
    with pytest.raises(UnfactoredCofactor) as exc:
        nt.factorize(n)
    assert exc.value.cofactor == n
    # a hint unblocks the same call under the same budget
    assert nt.factorize(n, hints=[1000003]).factors == ((1000003, 1), (1000033, 1))


@pytest.mark.parametrize("text", ["{not json", "[]", "\xff\xfe"])
def test_factor_cache_refuses_corrupt_file(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CorruptCache, match=str(path)):
        factorize(3**18 - 1, cache=FactorCache(str(path)))
    assert path.read_bytes() == text.encode("latin-1")  # left as it was


@pytest.mark.parametrize("entry", [["80"], ["2", "2", "4", "5"], ["x"]])
def test_factor_cache_rejects_bad_entry(tmp_path, entry):
    from ffpn.sieve import basic_condition

    path = str(tmp_path / "cache.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(3**4 - 1): entry}, fh)
    with pytest.warns(UserWarning, match="entry for 80 ignored"):
        res = basic_condition(3, 4, cache=FactorCache(path))
    assert res["W"] == 4 and res["W_bound"] == "exact"
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["80"] == ["2", "2", "2", "2", "5"]  # replaced


def test_cyclotomic_value_refuses_inexact_quotient(monkeypatch):
    from ffpn import numtheory as nt

    monkeypatch.setattr(nt, "moebius_divisors", lambda n: [(e, -1) for e in nt.divisors_of(n)])
    with pytest.raises(ArithmeticError, match="Phi_2"):
        nt.cyclotomic_value(2, 3)


def test_qm_minus_1_refuses_parts_that_miss_the_product(monkeypatch):
    from ffpn import numtheory as nt

    monkeypatch.setattr(nt, "cyclotomic_value", lambda d, x: 2)
    with pytest.raises(ArithmeticError, match="3\\^4 - 1"):
        nt.factorize_qm_minus_1(3, 4)


def test_partial_factorization_bounds_omega():
    # 3^59 - 1 = 2 * Phi_59(3); without rho the 28-digit cofactor of
    # Phi_59(3) stays whole and counts for floor(log_{10^6}) = 4 primes.
    pf = partial_factorize_qm_minus_1(3, 59, 0)
    exact = factorize_qm_minus_1(3, 59)
    assert [len(str(c)) for c in pf.unsplit] == [28]
    assert pf.complete() is None
    assert math.prod(pf.primes) * math.prod(pf.unsplit) == pf.n == 3**59 - 1
    assert pf.omega_bound() == 5 >= len(exact.factors) == 3
    full = partial_factorize_qm_minus_1(3, 59, 1 << 20)
    assert full.unsplit == () and full.complete() == exact
    assert full.omega_bound() == len(exact.factors)


def test_partial_factorization_never_cached(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = FactorCache(path)
    pf = partial_factorize_qm_minus_1(3, 59, 0, cache=cache)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert str(3**59 - 1) not in data and str(pf.unsplit[0]) not in data
    assert data == {"2": ["2"]}  # the part Phi_1(3) that did factor
    # a complete entry for q^m - 1 is consulted first, whatever the rho budget
    exact = factorize_qm_minus_1(3, 59)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(exact.n): [str(p) for p in exact.prime_list()]}, fh)
    again = partial_factorize_qm_minus_1(3, 59, 0, cache=FactorCache(path))
    assert again.unsplit == () and again.complete() == exact


def _walk_all_primes(n):
    """Trial division of n by every prime up to TRIAL_LIMIT, stopping past isqrt."""
    found = []
    for p in small_primes():
        if p * p > n:
            break
        while n % p == 0:
            found.append(p)
            n //= p
    return found, n


def test_cyclotomic_trial_division_equals_walk_over_all_primes():
    # Phi_d(p) trial-divided over 2, the primes of d and 1 (mod lcm(2, d))
    # keeps the found primes and the remainder of the walk over all primes;
    # with a rho budget of 0, trial division alone decides
    ended_unsplit = divided_by_d = 0
    for p in (2, 3, 5, 7, 131, 4093):
        for d in range(1, 31):
            n = cyclotomic_value(d, p)
            unsplit = []
            found, _ = numtheory._factor(n, None, None, 0, 0, unsplit, order=d)
            want, rem = _walk_all_primes(n)
            rem_is_prime = primality(rem)[0]
            assert found == want + [rem] * rem_is_prime, (p, d)
            assert unsplit == [rem] * (rem > 1 and not rem_is_prime), (p, d)
            ended_unsplit += bool(unsplit)
            divided_by_d += any(d % l == 0 for l in want)
    # the audit reaches both ends of the walk and the primes of d
    assert ended_unsplit > 10 and divided_by_d > 10


def test_cyclotomic_value_equals_the_moebius_product_over_all_divisors():
    # one factorization of d gives the same Moebius product as factoring
    # every divisor of d on its own
    def by_each_divisor(d, x):
        num = den = 1
        for e in divisors_of(d):
            mu = moebius(e)
            if mu == 1:
                num *= x ** (d // e) - 1
            elif mu == -1:
                den *= x ** (d // e) - 1
        value, rem = divmod(num, den)
        assert rem == 0
        return value

    for x in (2, 3, 5, 131):
        for d in range(1, 201):
            assert cyclotomic_value(d, x) == by_each_divisor(d, x), (d, x)
    assert [(e, mu) for e, mu in numtheory.moebius_divisors(60)] == [
        (e, moebius(e)) for e in divisors_of(60) if moebius(e)
    ]


def _walk_odd_numbers(n):
    # the walk Phi_1(p) and Phi_2(p) took before they walked the primes:
    # 2, then every odd number up to min(TRIAL_LIMIT, isqrt(rem))
    found = []
    for c in [2, *range(3, numtheory.TRIAL_LIMIT + 1, 2)]:
        if c * c > n:
            break
        while n % c == 0:
            found.append(c)
            n //= c
    return found, n


def test_orders_1_and_2_walk_the_primes_as_the_odd_numbers_did():
    # p - 1 and p + 1 trial-divided over the primes keep the found primes
    # and the remainder of the walk over every odd number, the unsplit
    # cofactor included (rho budget 0)
    # 24000864002377 - 1 = 2^3 3 1000003 1000033 ends on an unsplit cofactor
    ps = (3, 5, 7, 131, 4093, 1_000_003, 1_000_000_000_163, 10**12 + 39, 2**61 - 1,
          24_000_864_002_377)
    ended_unsplit = 0
    for p in ps:
        for d in (1, 2):
            n = cyclotomic_value(d, p)
            unsplit = []
            found, _ = numtheory._factor(n, None, None, 0, 0, unsplit, order=d)
            want, rem = _walk_odd_numbers(n)
            rem_is_prime = primality(rem)[0]
            assert found == want + [rem] * rem_is_prime, (p, d)
            assert unsplit == [rem] * (rem > 1 and not rem_is_prime), (p, d)
            ended_unsplit += bool(unsplit)
    assert ended_unsplit == 1
    # q = 3^r: the parts Phi_1(3) = 2 and Phi_2(3) = 4
    assert factorize_qm_minus_1(3, 2).factors == ((2, 3),)


def test_qm_minus_1_trial_division_never_sieves_past_2_12(monkeypatch):
    # every part Phi_d(p) of q^m - 1 steps over 1 (mod lcm(2, d)), so the
    # conditions route never builds the prime table up to TRIAL_LIMIT
    pairs = [(3**r, m) for r in range(1, 7) for m in range(1, 61) if r * m <= 88]
    assert len(pairs) == 186
    monkeypatch.setattr(numtheory, "_small_primes_cache", (1, []))
    for q, m in pairs + [(27, 53), (243, 35)]:  # the benchmark's pairs and stall pairs
        pf = partial_factorize_qm_minus_1(q, m, 0)
        assert math.prod(pf.primes) * math.prod(pf.unsplit) == q**m - 1
    assert numtheory._small_primes_cache[0] == 1 << 12
