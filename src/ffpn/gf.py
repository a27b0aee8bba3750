"""Arithmetic in F_p c F_q c F_{q^m} with one flat representation.

A tower is F_p[x]/(modulus) of degree n = r*m; the intermediate field F_q
(q = p^r) is the fixed set of the r-fold p-power Frobenius.  Elements are
integer codes in [0, p^n): the base-p digits of a code are the coefficients
of the residue polynomial, ascending.  The modulus and the multiplicative
generator are the lexicographically smallest valid choices (coefficient
vectors compared as base-p integers), so every run of every build picks the
same structures.

Log/antilog tables (exp[k] = g^k and its inverse log) are built eagerly for
fields up to 2^24 elements, a block of powers of g at a time
(FieldTower._powers): the first by F_p-matrix products, every later one as
the one before times g^B, stepped by gathers from small tables on int64
lane-packed digits with no digit products.  That takes 0.009 s for 3^11
and 0.3 s for 3^14 on a 2-vCPU Xeon VM (0.044 s and 1.5 s by n x n
F_p-matrix products).  Towers of one field with different splits n = r*m
(F_{3^10} as (9,5) and (243,2)) share one set of tables through
build_extension.  Above 2^24, discrete logs fall back to
baby-step giant-step up to 2^40.

A tabled tower also builds, on first use, the Zech table zech[k] =
log(1 + g^k) (-1 where 1 + g^k = 0), so that g^i + g^j = g^(i + zech[j - i])
is a lookup.  Bulk field arithmetic has one route, FieldTower.quad_values:
a x^2 + b x + c at every code x, summed in logs (b x and b x + c when
a = 0).  The scalar *_code methods are the independent reference.

Every code and log of a tabled field is below 2^24, so exp, log and the
Zech table are int32 (12 bytes per element in all).  Readers form no
product of two logs and no sum past 2^31 in int32: scalar reads go through
int(), and quad_values and the sweep kernel widen logs to int64 before
their index arithmetic.  kernel_codes enumerates spans as uint8 digit rows
while p < 256.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import NotPrime, SizeBudgetExceeded, ZeroElement
from .numtheory import factorize, factorize_qm_minus_1, is_prime

TABLE_LIMIT = 1 << 24
BSGS_LIMIT = 1 << 40
_TABLE_BLOCK = 1 << 12  # powers of g stepped at once by the log-table build


def _lane_layout(p, n):
    """(b, w): lane width in bits and lanes per group of the log-table build.

    In characteristic 2 a lane is one bit of the code and groups combine by
    XOR.  Otherwise b is the least width with G (p - 1) < 2^b for the
    G = ceil(n / w) groups of w = max(1, 12 // b) lanes.
    """
    if p == 2:
        return 1, 12
    b = 1
    while True:
        w = max(1, 12 // b)
        if -(-n // w) * (p - 1) < 1 << b:
            return b, w
        b += 1


# ---------------------------------------------------------------------------
# dense polynomials over F_p: tuples of ints, ascending degree, no trailing 0

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, mod, p):
    """Long division; a step subtracts only mod's nonzero lower terms (3 to 5
    in a lex-smallest modulus: 4 of 175 for F_{3^174}), and the top term it
    cancels is dropped with a[dm:]."""
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    tail = [(j - dm, c) for j, c in enumerate(mod[:dm]) if c]
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] * inv_lead % p
        if c:
            for j, mj in tail:
                a[i + j] = (a[i + j] - c * mj) % p
    return _ptrim(a[:dm])


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = tuple(c * inv % p for c in a)
    return a


def _ppowmod(a, k, mod, p):
    result = (1,)
    a = _pmod(a, mod, p)
    while k:
        if k & 1:
            result = _pmod(_pmul(result, a, p), mod, p)
        a = _pmod(_pmul(a, a, p), mod, p)
        k >>= 1
    return result


def _psub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _ptrim(out)


def is_irreducible(poly, p):
    """Distinct-degree test: no factor of degree <= deg/2 survives."""
    poly = _ptrim(poly)
    n = len(poly) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    if poly[0] == 0:
        return False
    t = (0, 1)
    for _ in range(n // 2):
        t = _ppowmod(t, p, poly, p)
        if len(_pgcd(_psub(t, (0, 1), p), poly, p)) > 1:
            return False
    return True


_modulus_cache = {}


def lex_smallest_irreducible(p, n):
    """Monic irreducible of degree n over F_p with the smallest tail.

    Tails are compared as base-p integers (digit i = coefficient of x^i).
    Degree 1 returns x itself, giving F_p with the zero-residue convention.
    """
    key = (p, n)
    if key in _modulus_cache:
        return _modulus_cache[key]
    if n == 1:
        mod = (0, 1)
    else:
        mod = None
        for k in range(p**n):
            if k % p == 0:
                continue
            digits = []
            v = k
            for _ in range(n):
                digits.append(v % p)
                v //= p
            cand = tuple(digits) + (1,)
            if is_irreducible(cand, p):
                mod = cand
                break
        if mod is None:
            raise ArithmeticError(f"no monic irreducible of degree {n} over F_{p}")
    _modulus_cache[key] = mod
    return mod


class FieldElement:
    """A value in a FieldTower; thin wrapper over an integer code."""

    __slots__ = ("tower", "code")

    def __init__(self, tower, code):
        self.tower = tower
        self.code = code

    @property
    def coeffs(self):
        return self.tower.decode(self.code)

    def is_zero(self):
        return self.code == 0

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.tower is self.tower
            and other.code == self.code
        )

    def __hash__(self):
        return hash((id(self.tower), self.code))

    def __add__(self, other):
        return FieldElement(self.tower, self.tower.add_codes(self.code, self.tower.coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.tower, self.tower.sub_codes(self.code, self.tower.coerce(other)))

    def __neg__(self):
        return FieldElement(self.tower, self.tower.neg_code(self.code))

    def __mul__(self, other):
        return FieldElement(self.tower, self.tower.mul_codes(self.code, self.tower.coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.tower.coerce(other)
        return FieldElement(self.tower, self.tower.mul_codes(self.code, self.tower.inv_code(o)))

    def __pow__(self, k):
        return FieldElement(self.tower, self.tower.pow_code(self.code, k))

    def __repr__(self):
        return f"FieldElement({self.render()})"

    def render(self):
        s = ",".join(str(c) for c in self.coeffs)
        t = self.tower
        if t.has_tables and self.code != 0:
            return f"{s} (g^{t.dlog_code(self.code)})"
        return s


class FieldTower:
    """F_{q^m} over F_q over F_p, flat degree-n representation."""

    def __init__(self, p, r, m, build_tables):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.r = r
        self.m = m
        self.n = r * m
        self.q = p**r
        self.Q = p**self.n
        self.N = self.Q - 1
        self.modulus = lex_smallest_irreducible(p, self.n)
        self._pw = [p**i for i in range(self.n + 1)]
        self.has_tables = False
        self.exp = None
        self.log = None
        self.generator_code = None
        self._nfactors = None
        self._zech = None
        self._bsgs = None
        self._contexts = {}
        if build_tables:
            self._build_tables()

    def context(self, build):
        """build(self), built on the first call and held by this tower.

        The per-tower machinery (TowerPoly, SearchContext, the character
        tables) lives here, keyed by its builder, so a tabled and an
        untabled tower of one field never share it.  Sweep and audit
        threads share it with the tower; their callers build it first.
        """
        ctx = self._contexts.get(build)
        if ctx is None:
            ctx = self._contexts[build] = build(self)
        return ctx

    # -- scalar code arithmetic ------------------------------------------

    def decode(self, code):
        out = []
        for _ in range(self.n):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def encode(self, coeffs):
        code = 0
        for i, c in enumerate(coeffs):
            code += (c % self.p) * self._pw[i]
        return code

    def coerce(self, other):
        """Accept FieldElement, int code, or coefficient iterable.

        An int below 0 is reduced mod p into the prime field; an int code
        from Q up names no element and raises ValueError.
        """
        if isinstance(other, FieldElement):
            if other.tower is not self:
                raise ValueError("element from a different tower")
            return other.code
        if isinstance(other, int):
            if other >= self.Q:
                raise ValueError(
                    f"code {other} names no element of F_{self.Q} (codes run to {self.Q - 1})"
                )
            return other % self.p if other < 0 else other
        return self.encode(other)

    def element(self, v):
        return FieldElement(self, self.coerce(v))

    def add_codes(self, u, v):
        out = 0
        for pw in self._pw[: self.n]:
            du = (u // pw) % self.p
            dv = (v // pw) % self.p
            out += ((du + dv) % self.p) * pw
        return out

    def sub_codes(self, u, v):
        out = 0
        for pw in self._pw[: self.n]:
            du = (u // pw) % self.p
            dv = (v // pw) % self.p
            out += ((du - dv) % self.p) * pw
        return out

    def neg_code(self, u):
        return self.sub_codes(0, u)

    def mul_codes(self, u, v):
        if u == 0 or v == 0:
            return 0
        if self.has_tables:
            return int(self.exp[(int(self.log[u]) + int(self.log[v])) % self.N])
        a, b = self.decode(u), self.decode(v)
        return self.encode(_pmod(_pmul(a, b, self.p), self.modulus, self.p))

    def pow_code(self, u, k):
        if k < 0:
            return self.pow_code(self.inv_code(u), -k)
        if u == 0:
            return 1 if k == 0 else 0
        if self.has_tables:
            return int(self.exp[int(self.log[u]) * (k % self.N) % self.N])
        return self.encode(_ppowmod(self.decode(u), k % self.N, self.modulus, self.p))

    def inv_code(self, u):
        if u == 0:
            raise ZeroElement("0 has no inverse")
        return self.pow_code(u, self.N - 1)

    def frobenius_code(self, u, i=1):
        """u^(q^i)."""
        if u == 0:
            return 0
        return self.pow_code(u, pow(self.q, i, self.N))

    def trace_abs_code(self, u):
        """Absolute trace into F_p, returned as an int in [0, p)."""
        acc = u
        v = u
        for _ in range(self.n - 1):
            v = self.pow_code(v, self.p)
            acc = self.add_codes(acc, v)
        if acc >= self.p:
            raise ArithmeticError(f"absolute trace left F_{self.p} in F_{self.Q}")
        return acc

    def trace_fq_code(self, u):
        """Trace to the intermediate F_q (a subfield code)."""
        acc = u
        v = u
        for _ in range(self.m - 1):
            v = self.frobenius_code(v, 1)
            acc = self.add_codes(acc, v)
        return acc

    # -- canonical generator and tables ----------------------------------

    def n_factorization(self):
        """N = p^n - 1 factored through its cyclotomic parts Phi_d(p), d | n."""
        if self._nfactors is None:
            self._nfactors = factorize_qm_minus_1(self.p, self.n)
        return self._nfactors

    def find_generator_code(self):
        """The smallest code c with c^(N/l) != 1 for every prime l | N.

        For n >= 2 the search starts at c = p: the codes below p are F_p,
        whose orders divide p - 1 < N.  M(c) = sum_i c_i X^i is the n x n
        F_p matrix of multiplication by c, X that of x, and column 0 of
        M(c)^k holds the digits of c^k.  Candidates go in ascending batches
        of 1, 2, 4, ... up to 64, and each batch raises its stack of M(c) to
        every N/l along one square-and-multiply chain in numpy.  Entries
        stay below p, so the products are int64 while n (p - 1)^2 < 2^63
        and Python ints above.
        """
        if self.generator_code is not None:
            return self.generator_code
        p, n = self.p, self.n
        exps = [self.N // l for l in self.n_factorization().primes()]
        dtype = np.int64 if n * (p - 1) ** 2 < 1 << 63 else object
        x = self._pw[1] % self.Q  # x is 0 in F_p[x]/(x)
        X = self.linear_map_matrix(lambda c: self.mul_codes(c, x), dtype)
        x_pows = [np.eye(n, dtype=dtype)]
        for _ in range(n - 1):
            x_pows.append(x_pows[-1] @ X % p)
        x_pows = np.array(x_pows)
        lo, size = (p if n >= 2 else 1), 1
        while lo < self.Q:
            hi = min(lo + size, self.Q)
            digits = np.array([self.decode(c) for c in range(lo, hi)], dtype=dtype)
            square = np.tensordot(digits, x_pows, 1) % p  # M(c) for c in [lo, hi)
            cols = np.zeros((hi - lo, n, len(exps)), dtype=dtype)  # column l: c^(N/l)
            cols[:, 0] = 1
            for bit in range(max(exps, default=0).bit_length()):
                hit = [e >> bit & 1 == 1 for e in exps]
                cols[:, :, hit] = square @ cols[:, :, hit] % p
                square = square @ square % p
            primitive = ~(cols == np.eye(n, 1, dtype=dtype)).all(axis=1).any(axis=1)
            if primitive.any():
                self.generator_code = lo + int(primitive.argmax())
                return self.generator_code
            lo, size = hi, min(2 * size, 64)
        raise AssertionError("no generator found")

    def _build_tables(self):
        """Fill exp[k] = code of g^k (k < N) and its inverse log (log[0] = -1).

        Both are int32: every code and log is below Q <= TABLE_LIMIT = 2^24.
        exp comes from _powers; log is scattered from it a block at a time.

        Raises ArithmeticError unless g^N = 1 and every nonzero code gets
        exactly one log, i.e. unless g really is primitive.
        """
        if self.Q > TABLE_LIMIT:
            raise SizeBudgetExceeded(f"log table for {self.Q} elements exceeds 2^24")
        N, B = self.N, _TABLE_BLOCK
        g = self.find_generator_code()
        exp = self._powers(g)
        log = np.full(self.Q, -1, dtype=np.int32)
        for lo in range(0, N, B):
            hi = min(lo + B, N)
            log[exp[lo:hi]] = np.arange(lo, hi, dtype=np.int32)
        if self.mul_codes(int(exp[-1]), g) != 1 or log[1:].min() < 0:
            raise ArithmeticError(f"generator code {g} is not primitive in F_{self.Q}")
        self.exp = exp
        self.log = log
        self.has_tables = True

    def _times(self, h):
        """M(h)^T, with M(h) the n x n F_p matrix of multiplication by h."""
        return self.linear_map_matrix(lambda c: self.mul_codes(c, h)).T

    def _powers(self, g):
        """int32 codes of g^0 .. g^(N-1), made B = _TABLE_BLOCK at a time.

        Each block is encoded straight into its slice, so no (N, n) array is
        ever held.  The first block doubles up from g^0 as base-p digit
        rows, rows[L:2L] = rows[:L] M(g^L)^T.  Every later block is the one
        before times h = g^B.  In F_p (n = 1) a power is its own code, and
        that step is one product mod p per element.

        For n >= 2 a power steps by table gathers on a lane form.  A power
        with digits d_i (integers congruent to its coefficients mod p, not
        necessarily reduced) is the int64 s = sum_i d_i 2^(b i): digit i sits
        in the b-bit lane [b i, b i + b), with (b, w) from _lane_layout.  The
        lanes fall into G groups of w.  Group j's raw bits
        r_j = (s >> b w j) & (2^(b w) - 1) stand for the element
        e_j = sum_i d_(w j + i) x^(w j + i), and two tables map them:
            step_j[r_j] = the lane form of h e_j, every lane reduced mod p;
            code_j[r_j] = the code of e_j, every digit reduced mod p.
        The e_j sum to the power and multiplication by h is F_p-linear, so
        sum_j step_j[r_j] is the lane form of the next power if the sum
        carries nowhere.  It does not: each lane of a step entry is at most
        p - 1, so the same lane of a sum of G entries is at most
        top = G (p - 1) < 2^b, and integer addition adds lane by lane.  A
        lane thus never exceeds top (first-block lanes are below p), and the
        tables need rows only up to the raw value with every lane at top.
        sum_j code_j[r_j] is the power's code, the groups holding disjoint
        base-p digits each below p.  _lane_layout keeps n b <= 63 for every
        tabled field with p odd, so s fits int64.  In characteristic 2 the
        lanes are the code's bits (b = 1) and adding elements is XOR of
        codes, so there the groups combine by XOR and every lane stays 0 or 1.

        Each table is one (rows, w) x (w, n) product with rows <= 2^(b w),
        at most 2^12 rows while b <= 12; wider lanes (w = 1) come only with
        n = 2 and p > 2^11, at most 2p rows.  A step costs G shifts and
        masks, 2G gathers and 2G - 2 adds per element, and no product.
        """
        p, n, N = self.p, self.n, self.N
        B = min(_TABLE_BLOCK, N)
        block = np.zeros((B, n), dtype=np.int64)
        block[0, 0] = 1
        L, gL = 1, g
        while L < B:
            step = min(L, B - L)
            block[L : L + step] = block[:step] @ self._times(gL) % p
            L, gL = L + step, self.mul_codes(gL, gL)
        exp = np.empty(N, dtype=np.int32)
        exp[:B] = block @ self._pw[:n]
        if B == N:
            return exp
        h = self.pow_code(g, B)
        if n == 1:
            s = block[:, 0]
            for lo in range(B, N, B):
                s = s * h % p
                hi = min(lo + B, N)
                exp[lo:hi] = s[: hi - lo]
            return exp
        b, w = _lane_layout(p, n)
        lane = np.left_shift(1, b * np.arange(n, dtype=np.int64))
        s = block @ lane
        del block
        top = 1 if p == 2 else -(-n // w) * (p - 1)  # the largest value a lane holds
        h_rows = self._times(h)

        def tables(i):  # step_j and code_j of the group of lanes from lane i
            k = min(w, n - i)
            raw = np.arange(sum(top << b * j for j in range(k)) + 1)
            digits = raw[:, None] >> b * np.arange(k) & (1 << b) - 1
            step = digits @ h_rows[i : i + k]
            step %= p  # in place: (rows, n) is the widest array the build makes
            return step @ lane, (digits % p @ self._pw[i : i + k]).astype(np.int32)

        starts = range(0, n, w)
        steps, codes = zip(*map(tables, starts))
        combine = np.bitwise_xor if p == 2 else np.add
        idx = np.empty((len(starts), B), dtype=np.int64)

        def split():  # idx[j] = the raw bits of group j of every s
            for j, i in enumerate(starts):
                np.right_shift(s, b * i, out=idx[j])
                idx[j] &= (1 << b * w) - 1

        split()
        for lo in range(B, N, B):
            np.take(steps[0], idx[0], out=s)
            for j in range(1, len(steps)):
                combine(s, steps[j][idx[j]], out=s)
            split()
            hi = min(lo + B, N)
            out = exp[lo:hi]
            np.take(codes[0], idx[0, : hi - lo], out=out)
            for j in range(1, len(codes)):
                out += codes[j][idx[j, : hi - lo]]
        return exp

    def _share_tables(self, twin):
        """Take the tables of twin, a tabled tower of the same field F_{p^n}.

        The modulus and the generator depend only on (p, n), so exp, log,
        the generator, the factorization of N and any Zech table already
        built are the same arrays for every split n = r*m; contexts stay
        per tower.
        """
        self.exp, self.log, self._zech = twin.exp, twin.log, twin._zech
        self.generator_code, self._nfactors = twin.generator_code, twin._nfactors
        self.has_tables = True

    def dlog_code(self, u):
        if u == 0:
            raise ZeroElement("discrete log of 0")
        if self.has_tables:
            return int(self.log[u])
        if self.Q > BSGS_LIMIT:
            raise SizeBudgetExceeded(f"field of {self.Q} elements exceeds the BSGS budget")
        return self._bsgs_log(u)

    def _bsgs_log(self, u):
        g = self.find_generator_code()
        if self._bsgs is None:
            ms = isqrt(self.N) + 1
            baby = {}
            cur = 1
            for j in range(ms):
                baby.setdefault(cur, j)
                cur = self.mul_codes(cur, g)
            self._bsgs = (ms, baby, self.pow_code(g, -ms % self.N))  # g^(-ms)
        ms, baby, giant = self._bsgs
        y = u
        for i in range(ms + 1):
            j = baby.get(y)
            if j is not None:
                return (i * ms + j) % self.N
            y = self.mul_codes(y, giant)
        raise AssertionError("BSGS failed")

    # -- bulk helpers (numpy) --------------------------------------------

    def quad_codes(self, f):
        """Codes (a, b, c) of a quadratic.

        f is a tuple or list of codes, elements or digit vectors, or an
        object with FieldElement attributes a, b, c (a QuadraticSpec).
        """
        if isinstance(f, (tuple, list)):
            return tuple(self.coerce(x) for x in f)
        return f.a.code, f.b.code, f.c.code

    def admissible(self, a, b, c):
        """a x^2 + b x + c is not a (x + h)^2: a != 0 and b^2 != 4ac, 4 in F_p.

        That is b^2 != ac in characteristic 3 and b != 0 in characteristic 2."""
        return a != 0 and self.mul_codes(b, b) != self.mul_codes(4 % self.p, self.mul_codes(a, c))

    def zech_table(self):
        """zech[k] = log(1 + g^k) for k < N, -1 where 1 + g^k = 0 (cached).

        1 + u only changes u's lowest base-p digit, so the table is one
        gather of log.  Needs tables.
        """
        if not self.has_tables:
            raise SizeBudgetExceeded("the Zech table needs log tables")
        if self._zech is None:
            # 1 + u adds 1 to the lowest digit, or takes p - 1 off it when it is p - 1
            p, idx = self.p, self.exp + 1
            np.subtract(idx, p, out=idx, where=self.exp % p == p - 1)
            self._zech = self.log[idx]
        return self._zech

    def quad_values(self, a, b, c):
        """Codes of a alpha^2 + b alpha + c for every alpha code. Needs tables.

        a, b, c are codes with logs la, lb, lc.  At alpha = g^k the sum is
        carried as a log, -1 for 0: a alpha^2 + b alpha has log
        la + 2k + zech[lb - la - k], and adding c adds zech[lc - L] to that
        log L (all mod N).  The first zech index runs down through k, so it
        is a reversed slice, not a gather.  alpha = 0 gives c.  The logs
        are int64 (numpy's index type, the fast gather) and updated in
        place, and each temporary is dropped once dead: about 13 bytes per
        element beside the int64 result.
        """
        N, zech = self.N, self.zech_table()
        la, lb, lc = (int(self.log[x]) for x in (a, b, c))
        if not (a or b):
            return np.full(self.Q, c, dtype=np.int64)
        lead, step = (la, 2) if a else (lb, 1)
        L = np.arange(lead, lead + step * N, step, dtype=np.int64)
        zero = None  # where a alpha^2 + b alpha = 0 with alpha != 0
        if a and b:
            d = (lb - la) % N
            z = np.concatenate((zech[d::-1], zech[:d:-1]))  # zech[(d - k) mod N]
            L += z
            zero = z < 0
            del z
        L %= N
        if c:
            np.subtract(lc, L, out=L)  # in (lc - N, lc]: negative indices wrap mod N
            z = zech[L]
            np.subtract(lc, L, out=L)
            L += z
            L %= N
            L[z < 0] = -1
            del z
            if zero is not None:
                L[zero] = lc
        elif zero is not None:
            L[zero] = -1
        del zero
        vals = self.exp[L]
        vals[L < 0] = 0
        del L
        out = np.empty(self.Q, dtype=np.int64)
        out[0] = c
        out[self.exp] = vals
        return out

    def linear_map_matrix(self, func, dtype=np.int64):
        """n x n matrix over F_p of a linear map given on codes."""
        cols = []
        for j in range(self.n):
            cols.append(self.decode(func(self._pw[j])))
        return np.array(cols, dtype=dtype).T % self.p

    def kernel_codes(self, mat):
        """Ascending codes of the kernel {v : mat v = 0} of an n x n F_p matrix.

        v is a column of base-p digits; the kernel's span is enumerated as
        digit rows, so this costs O(#kernel n) and needs no log tables.
        Digit rows are uint8 while p < 256 (int64 above) and are encoded
        into the codes by Horner's rule in place, so nothing wider than one
        code per row is held beside them.  Codes are int64 while Q <= 2^63
        and Python ints above.
        """
        p, n = self.p, self.n
        digit = np.uint8 if p < 256 else np.int64
        span = np.zeros((1, n), dtype=digit)
        for vec in _kernel_mod_p(mat, p):
            steps = (np.arange(p)[:, None, None] * np.array(vec) % p).astype(digit)
            # (span + steps) mod p: the digit sum passes p exactly where
            # span >= p - steps, and subtracting p there is exact even after
            # a uint8 sum wrapped, since the reduced digit fits
            new = span + steps
            np.subtract(new, p, out=new, where=span >= p - steps)
            span = new.reshape(-1, n)
        codes = np.zeros(len(span), dtype=np.int64 if self.Q <= 1 << 63 else object)
        for i in range(n - 1, -1, -1):
            codes *= p
            codes += span[:, i]
        codes.sort()
        return codes

    def subfield_codes(self, degree=None):
        """Codes of the subfield of p^degree elements, ascending.

        degree defaults to r (the intermediate F_q); must divide n.
        Works without log tables (kernel of Frobenius^degree - id).
        """
        if degree is None:
            degree = self.r
        if self.n % degree:
            raise ValueError(f"subfield degree {degree} does not divide {self.n}")
        pfrob = self.linear_map_matrix(lambda c: self.pow_code(c, self.p))
        mat = np.eye(self.n, dtype=np.int64)
        for _ in range(degree):
            mat = mat @ pfrob % self.p
        eye = np.eye(self.n, dtype=np.int64)
        codes = self.kernel_codes((mat - eye) % self.p)
        if len(codes) != self.p**degree:
            raise ArithmeticError(f"Frobenius^{degree} fixes {len(codes)} elements")
        return codes.tolist()


def _kernel_mod_p(mat, p):
    """Kernel basis of an integer matrix mod p (row-reduced, deterministic)."""
    m = [[int(x) % p for x in row] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    rank = 0
    for c in range(cols):
        piv = None
        for rr in range(rank, rows):
            if m[rr][c] % p:
                piv = rr
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for rr in range(rows):
            if rr != rank and m[rr][c]:
                f = m[rr][c]
                m[rr] = [(a - f * b) % p for a, b in zip(m[rr], m[rank])]
        pivots.append(c)
        rank += 1
    basis = []
    free = [c for c in range(cols) if c not in pivots]
    for fc in free:
        vec = [0] * cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-m[i][fc]) % p
        basis.append(vec)
    return basis


_tower_cache = {}


def build_extension(p, r, m, tables="auto"):
    """Deterministic tower F_p c F_{p^r} c F_{p^(r*m)}.

    tables: 'auto' builds log tables when the field has at most 2^24
    elements, 'on' forces them (SizeBudgetExceeded above the limit),
    'off' skips them.  A tabled tower takes its tables from an already
    built tabled tower of F_{p^(r*m)} when there is one.
    """
    if r < 1 or m < 1:
        raise ValueError("r and m must be positive")
    Q = p ** (r * m)
    if tables == "on" and Q > TABLE_LIMIT:
        raise SizeBudgetExceeded(f"table prebuild for {Q} elements")
    effective = tables == "on" or (tables == "auto" and Q <= TABLE_LIMIT)
    key = (p, r, m, effective)
    tower = _tower_cache.get(key)
    if tower is None:
        twin = None
        if effective:  # a tabled tower of the same field under another split
            twin = next(
                (t for (tp, tr, tm, tab), t in _tower_cache.items()
                 if tab and tp == p and tr * tm == r * m),
                None,
            )
        tower = FieldTower(p, r, m, build_tables=effective and twin is None)
        if twin is not None:
            tower._share_tables(twin)
        _tower_cache[key] = tower
    return tower


# ---------------------------------------------------------------------------
# spec-level operations on FieldElement


def fe_pow(alpha: FieldElement, k) -> FieldElement:
    """alpha^k with 0^0 = 1."""
    return FieldElement(alpha.tower, alpha.tower.pow_code(alpha.code, k))


def frobenius(alpha: FieldElement, i) -> FieldElement:
    """alpha^(q^i)."""
    return FieldElement(alpha.tower, alpha.tower.frobenius_code(alpha.code, i))


def trace(alpha: FieldElement, target="to_Fq") -> FieldElement:
    """Trace to F_q ('to_Fq') or to F_p ('absolute')."""
    t = alpha.tower
    if target == "absolute":
        return FieldElement(t, t.trace_abs_code(alpha.code))
    if target == "to_Fq":
        return FieldElement(t, t.trace_fq_code(alpha.code))
    raise ValueError(f"unknown trace target {target!r}")


def find_generator(tower: FieldTower) -> FieldElement:
    """Lexicographically smallest primitive element."""
    return FieldElement(tower, tower.find_generator_code())


def is_e_free(alpha: FieldElement, e) -> bool:
    """True iff alpha is not an l-th power for any prime l | e."""
    t = alpha.tower
    if alpha.code == 0:
        raise ZeroElement("0 is not e-free for any e")
    if t.N % e != 0:
        raise ValueError("e must divide q^m - 1")
    primes = factorize(e).primes()
    if t.has_tables:
        k = t.dlog_code(alpha.code)
        return all(k % l for l in primes)
    return all(t.pow_code(alpha.code, t.N // l) != 1 for l in primes)


def discrete_log(alpha: FieldElement) -> int:
    if alpha.code == 0:
        raise ZeroElement("discrete log of 0")
    return alpha.tower.dlog_code(alpha.code)
