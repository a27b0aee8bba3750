"""Integer factorization and multiplicative statistics.

Everything downstream (sieve conditions, primitivity tests, character
orders) consumes factorizations produced here.  The strategy is fixed and
deterministic: trial division up to 10**6, then Brent-cycle Pollard rho
with a fixed parameter schedule.  Targets of the form q^m - 1, whether
given as (q, m) or as an n >= 10^12 with n + 1 a prime power, are split
into cyclotomic-polynomial values Phi_d(p) first, so every hard cofactor
stays small, and each part with d > 2 is trial-divided only by 2, the
primes of d and the numbers 1 (mod lcm(2, d)), which hold all its other
primes; p - 1, p + 1 and any other n are trial-divided by every prime.

Prime powers have one route: prime_power_split and factorize's test of
n + 1 both find p^k by integer k-th roots (_prime_power_root), at any size
of p.  The factor cache file is a state file of errors.py, read by
read_state and written by write_state.
"""

from __future__ import annotations

import random
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, isqrt, prod

import numpy as np

from .errors import CorruptCache, FactorMismatch, NotPrime, UnfactoredCofactor
from .errors import read_state, refuse_unwritable, write_state

TRIAL_LIMIT = 10**6
_SMALL_SIEVE = 1 << 12  # small_primes' first sieve bound
_RHO_ATTEMPTS = 24
_RHO_MAX_ITER = 1 << 21

# Smallest composite that fools this witness set is > 3.3e24 (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_MR_PROBABLE_ROUNDS = 64


def _primes_upto(limit):
    """numpy array of the primes <= limit, ascending: a sieve of Eratosthenes."""
    sieve = np.ones(max(limit + 1, 2), dtype=bool)
    sieve[:2] = False
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return np.flatnonzero(sieve)


def small_primes(limit=TRIAL_LIMIT):
    """The cached primes, ascending: every prime up to min(limit, TRIAL_LIMIT)
    and maybe more, so callers stop at their own bound.  With no argument,
    all primes up to TRIAL_LIMIT.

    The sieve runs only as far as callers ask, to one of two bounds, each
    sieved once: a limit up to _SMALL_SIEVE = 2^12 gets the primes to 2^12,
    enough to trial-divide any n below 2^24 (every tabled field's N), and
    any larger limit the primes to TRIAL_LIMIT.  The list is never sliced:
    a conditions pass copying 78,498-entry prefixes, or re-sieving by
    doubling, ended with up to 3 MB more RSS.  It holds Python ints, not numpy scalars, because
    trial division takes rem % p on integers far beyond int64.
    """
    return _sieved(_SMALL_SIEVE if limit <= _SMALL_SIEVE else TRIAL_LIMIT)


@cache
def _sieved(bound):
    """small_primes' list for one of its two bounds, sieved once."""
    return _primes_upto(bound).tolist()


def _miller_rabin_round(n, a, d, s):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def primality(n):
    """Return (is_prime, certified).

    Deterministic Miller-Rabin below 3.3e24; above that, 64 rounds with
    bases drawn from a PRNG seeded by n itself, reported as uncertified.
    """
    if n < 2:
        return False, True
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p, True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BELOW:
        for a in _MR_WITNESSES:
            if not _miller_rabin_round(n, a, d, s):
                return False, True
        return True, True
    rng = random.Random(n)
    for _ in range(_MR_PROBABLE_ROUNDS):
        a = rng.randrange(2, n - 1)
        if not _miller_rabin_round(n, a, d, s):
            return False, True
    return True, False


def is_prime(n):
    return primality(n)[0]


def moebius(n):
    """Moebius function by factorization (n is expected to be small here)."""
    if n == 1:
        return 1
    result = 1
    for p, e in factorize(n).factors:
        if e > 1:
            return 0
        result = -result
    return result


def divisors_of(n):
    """Sorted divisors of n (via full factorization)."""
    divs = [1]
    for p, e in factorize(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius_divisors(n):
    """(e, mu(e)) for the divisors e of n with mu(e) != 0, ascending: one factorization."""
    signed = [(1, 1)]
    for p, _ in factorize(n).factors:
        signed += [(e * p, -mu) for e, mu in signed]
    return sorted(signed)


def cyclotomic_value(d, x):
    """Phi_d(x) for integer x >= 2, via prod (x^{d/e} - 1)^{mu(e)}."""
    num = 1
    den = 1
    for e, mu in moebius_divisors(d):
        if mu == 1:
            num *= x ** (d // e) - 1
        else:
            den *= x ** (d // e) - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Phi_{d}({x}): quotient of the Moebius product is not exact")
    return value


def _brent_rho(n, c, max_iter=_RHO_MAX_ITER):
    """Brent-cycle rho with fixed start x0=2; returns a factor or None."""
    if n % 2 == 0:
        return 2
    y, r, q_acc = 2, 1, 1
    g, x, ys = 1, 2, 2
    it = 0
    m = 128
    while g == 1 and it < max_iter:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q_acc = q_acc * abs(x - y) % n
            g = gcd(q_acc, n)
            k += m
            it += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(abs(x - ys), n)
            it += 1
            if it >= max_iter:
                return None
    return g if 1 < g < n else None


@dataclass(frozen=True)
class IntFactorization:
    """Complete factorization of a positive integer.

    factors is ((prime, exponent), ...) with strictly increasing primes;
    probable lists any primes that only passed the probabilistic test.
    """

    n: int
    factors: tuple = ()
    probable: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"only positive integers factor, got {self.n}")
        if prod(p**e for p, e in self.factors) != self.n:
            raise FactorMismatch(f"factors {self.factors} do not multiply to {self.n}")
        ps = [p for p, _ in self.factors]
        if ps != sorted(ps) or len(ps) != len(set(ps)):
            raise ValueError(f"primes {ps} are not strictly increasing")

    def primes(self):
        return [p for p, _ in self.factors]

    def prime_list(self):
        """All prime factors with multiplicity, increasing (cache format)."""
        out = []
        for p, e in self.factors:
            out.extend([p] * e)
        return out

    def radical(self):
        return prod(self.primes()) if self.factors else 1


class FactorCache:
    """JSON-backed factor cache: {"<decimal n>": ["<prime>", ...]}.

    Primes are listed with multiplicity in increasing order.  Lookups may
    happen concurrently; writes are serialized and atomic (write_state).  A
    file that is not UTF-8, not JSON or not a JSON object (read_state), a
    directory at the path or at the PATH.tmp that writes go through, or a
    path in a missing or read-only directory raises CorruptCache and is
    left as it is; an entry whose product is not n or
    whose members are not all prime is ignored with a warning that says
    why, and the next store replaces it.
    """

    def __init__(self, path):
        self.path = path
        self._lock = threading.Lock()
        self._data = None

    def _load(self):
        if self._data is None:
            refuse_unwritable(self.path, "factor cache", CorruptCache)
            self._data = read_state(self.path, "factor cache", CorruptCache) or {}
        return self._data

    def _reject(self, n, reason):
        warnings.warn(f"factor cache {self.path}: entry for {n} ignored: {reason}", stacklevel=3)

    def lookup(self, n):
        """The cached factorization of n, checked, or None."""
        entry = self._load().get(str(n))
        if entry is None:
            return None
        try:
            primes = [int(s) for s in entry]
        except (TypeError, ValueError):
            self._reject(n, "not a list of decimal integers")
            return None
        if prod(primes) != n:
            self._reject(n, f"product of the listed primes is {prod(primes)}")
            return None
        probable = []
        for p in set(primes):
            ok, certified = primality(p)
            if not ok:
                self._reject(n, f"{p} is not prime")
                return None
            if not certified:
                probable.append(p)
        return _assemble(n, primes, probable)

    def store(self, n, prime_list):
        with self._lock:
            data = self._load()
            data[str(n)] = [str(p) for p in prime_list]
            write_state(self.path, data, indent=0)


def _assemble(n, primes_with_mult, probable):
    counts = {}
    for p in primes_with_mult:
        counts[p] = counts.get(p, 0) + 1
    factors = tuple(sorted(counts.items()))
    return IntFactorization(n=n, factors=factors, probable=tuple(sorted(set(probable))))


def _factor(n, hints, cache, rho_attempts, rho_iters, unsplit=None, order=None):
    """Prime factors of n >= 1, with multiplicity, and the probable ones.

    Trial division up to TRIAL_LIMIT, then up to rho_attempts Brent-rho
    attempts of rho_iters iterations on each composite cofactor.  A
    composite that survives them raises UnfactoredCofactor, or, when
    unsplit is a list, is appended to it; its prime factors all exceed
    TRIAL_LIMIT.  Only a complete factorization is stored in cache.

    Trial division walks ascending candidates c, divides each out of what
    is left, rem, and stops at the first c above min(TRIAL_LIMIT,
    isqrt(rem)).  With order None the candidates are all primes.  With
    order d > 2, n is Phi_d(p) for a prime p, and the candidates are 2, the
    primes of d and 1 + k lcm(2, d), k >= 1; this is bit-identical to the
    walk over all primes, which orders 1 and 2 take, because for them
    1 (mod lcm(2, d)) would hold every odd number:
      * every prime P of n is a candidate.  p never divides Phi_d(p), whose
        constant term is +-1.  If P does not divide d, the order of p mod P
        is d, so d | P - 1; and P is odd unless d = 1, since an odd p has
        order 1 mod 2.  So P is 2, a prime of d or 1 (mod lcm(2, d)); and
        2 and the primes of d are below 1 + lcm(2, d), so the walk is
        ascending.
      * a composite candidate c never divides rem: its prime factors are
        primes of n below c, so they are candidates that were divided out
        before c.
      * so both walks divide out the same primes of n in the same order.
        rem changes only at those, and a walk reaches the next prime P of
        n iff P <= min(TRIAL_LIMIT, isqrt(rem)), the same test in both.
    Both therefore end with the same found primes and the same rem, so the
    unsplit cofactors, omega bounds and cache entries are the same too.
    """
    if cache is not None:
        cached = cache.lookup(n)
        if cached is not None:
            return cached.prime_list(), list(cached.probable)

    found = []
    probable = []
    rem = n
    if hints:
        for h in sorted(set(int(h) for h in hints)):
            ok, certified = primality(h)
            if not ok:
                raise ValueError(f"hint {h} is not prime")
            while rem % h == 0:
                found.append(h)
                rem //= h
            if not certified and h in found:
                probable.append(h)

    if order is None or order <= 2:
        candidates = small_primes(isqrt(rem))
    else:
        step = order if order % 2 == 0 else 2 * order  # lcm(2, order)
        of_order = sorted({2, *(l for l, _ in factorize(order).factors)})
        candidates = chain(of_order, range(1 + step, TRIAL_LIMIT + 1, step))
    for c in candidates:
        if c * c > rem or c > TRIAL_LIMIT:
            break
        while rem % c == 0:
            found.append(c)
            rem //= c

    left = []
    stack = [rem] if rem > 1 else []
    while stack:
        c = stack.pop()
        if c == 1:
            continue
        ok, certified = primality(c)
        if ok:
            found.append(c)
            if not certified:
                probable.append(c)
            continue
        d = None
        for attempt in range(1, rho_attempts + 1):
            d = _brent_rho(c, attempt, rho_iters)
            if d is not None:
                break
        if d is None:
            if unsplit is None:
                raise UnfactoredCofactor(c)
            left.append(c)
            continue
        stack.append(d)
        stack.append(c // d)

    found.sort()
    if left:
        unsplit.extend(left)
    elif cache is not None and n > 1:
        cache.store(n, found)
    return found, probable


def _iroot(n, k):
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power_root(n):
    """(p, k) with n = p^k, p prime and k >= 2, or None.

    A k-th power is an l-th power for each prime l of k, so only prime
    exponents l <= log2 n are tried, and the first root found is split again.
    """
    bits = n.bit_length()
    for l in small_primes(bits):
        if l > bits:
            break
        r = _iroot(n, l)
        if r**l == n:
            inner = _prime_power_root(r)
            if inner:
                return inner[0], inner[1] * l
            return (r, l) if is_prime(r) else None
    return None


def factorize(n, hints=None, cache=None):
    """Factor n completely.

    hints: optional iterable of known prime factors (verified, then peeled).
    cache: optional FactorCache consulted first and updated on success.
    An n = p^k - 1 with p prime and k >= 2 that trial division alone may not
    finish (n >= TRIAL_LIMIT^2) is split into its cyclotomic parts Phi_d(p),
    as factorize_qm_minus_1 does, which keeps each hard cofactor small.
    Raises UnfactoredCofactor if a composite survives the rho budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return IntFactorization(n=1)
    if n >= TRIAL_LIMIT**2:
        root = _prime_power_root(n + 1)
        if root:
            split = _split_qm_minus_1(*root, cache, _RHO_ATTEMPTS, _RHO_MAX_ITER, partial=False, hints=hints)
            return split.complete()
    found, probable = _factor(n, hints, cache, _RHO_ATTEMPTS, _RHO_MAX_ITER)
    return _assemble(n, found, probable)


def prime_power_split(q):
    """Write q = p^r with p prime; raises NotPrime otherwise.

    A prime q is settled by the primality test, any other q by the root
    search, which finds p at any size.
    """
    if is_prime(q):
        return q, 1
    root = _prime_power_root(q) if q > 1 else None
    if root is None:
        raise NotPrime(f"{q} is not a prime power")
    return root


@dataclass(frozen=True)
class PartialFactorization:
    """q^m - 1 split as far as a given rho budget got.

    primes lists the prime factors found, with multiplicity, increasing;
    unsplit the composite cofactors left over, each with every prime factor
    above TRIAL_LIMIT.  The product of both is n.
    """

    n: int
    primes: tuple
    probable: tuple
    unsplit: tuple

    def complete(self):
        """The IntFactorization, or None while a cofactor is unsplit."""
        return None if self.unsplit else _assemble(self.n, self.primes, self.probable)

    def omega_bound(self):
        """An upper bound on omega(n), exact when nothing is unsplit.

        An unsplit c has only prime factors above L = TRIAL_LIMIT, so it
        has at most max{k : L^k < c} of them.  A prime counted both among
        the found ones and in some c only makes the bound larger.
        """
        bound = len(set(self.primes))
        for c in self.unsplit:
            k = 0
            while TRIAL_LIMIT ** (k + 1) < c:
                k += 1
            bound += k
        return bound


def _split_qm_minus_1(q, m, cache, rho_attempts, rho_iters, partial, hints=None):
    p, r = prime_power_split(q)
    n = q**m - 1
    if cache is not None:
        cached = cache.lookup(n)
        if cached is not None:
            return PartialFactorization(n, tuple(cached.prime_list()), cached.probable, ())
    primes_with_mult = []
    probable = []
    unsplit = [] if partial else None
    for d in divisors_of(r * m):
        found, prob = _factor(cyclotomic_value(d, p), hints, cache, rho_attempts, rho_iters, unsplit, d)
        primes_with_mult.extend(found)
        probable.extend(prob)
    unsplit = tuple(unsplit or ())
    if prod(primes_with_mult) * prod(unsplit) != n:
        raise ArithmeticError(f"the cyclotomic parts of {q}^{m} - 1 do not multiply back to it")
    primes_with_mult.sort()
    if cache is not None and not unsplit:
        cache.store(n, primes_with_mult)
    return PartialFactorization(n, tuple(primes_with_mult), tuple(sorted(set(probable))), unsplit)


def factorize_qm_minus_1(q, m, cache=None):
    """Factor q^m - 1 by splitting into cyclotomic values Phi_d(p), d | rm."""
    return _split_qm_minus_1(q, m, cache, _RHO_ATTEMPTS, _RHO_MAX_ITER, partial=False).complete()


def partial_factorize_qm_minus_1(q, m, rho_iters, cache=None):
    """Split q^m - 1 with one rho attempt of rho_iters per composite cofactor.

    Each cyclotomic part Phi_d(p) is trial-divided up to TRIAL_LIMIT as
    _factor does it for order d, which finds what a walk over all primes
    finds; a composite cofactor that one attempt
    (c = 1) does not split stays in unsplit.
    A complete result is cached as factorize_qm_minus_1 caches it; a
    partial one is never stored.
    """
    return _split_qm_minus_1(q, m, cache, 1, rho_iters, partial=True)


@dataclass(frozen=True)
class MultStats:
    omega: int
    W: int
    phi: int
    theta: Fraction
    radical: int


def multiplicative_stats(f: IntFactorization) -> MultStats:
    """omega, W = 2^omega, Euler phi, theta = phi/n exact, radical."""
    omega = len(f.factors)
    phi = prod((p - 1) * p ** (e - 1) for p, e in f.factors) if f.factors else 1
    return MultStats(
        omega=omega,
        W=1 << omega,
        phi=phi,
        theta=Fraction(phi, f.n),
        radical=f.radical(),
    )


def omega_table(limit):
    """numpy uint8 array t with t[n] = omega(n) for 0 <= n <= limit."""
    t = np.zeros(limit + 1, dtype=np.uint8)
    for p in _primes_upto(limit).tolist():
        t[p::p] += 1
    return t
