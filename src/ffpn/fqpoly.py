"""Polynomial algebra over F_q: factorization of x^m - 1 and the module action.

x^m - 1 = (x^m0 - 1)^(p^a) with m = m0 * p^a, gcd(m0, p) = 1, and the
distinct irreducible factors over F_q correspond to the cyclotomic cosets
of q modulo divisors of m0 (coset size = factor degree).  factor_xm1 keeps
only that integer coset data, which is all the sufficient conditions read.
The canonical F_q and the explicit coefficient polynomials are built on
first read of PolyFactorization.field and .factors: single-coset divisors
reduce the integer cyclotomic polynomial mod p, multi-coset divisors take
orbit products over a deterministic scratch extension and map the
coefficients back to the canonical F_q.

The F_q[x]-module action on F_{q^m} is f o alpha = sum a_i alpha^(q^i),
with the i = 0 constant term included.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

from . import gf
from .numtheory import divisors_of, factorize, moebius_divisors, prime_power_split


# ---------------------------------------------------------------------------
# polynomials with coefficients in a small field (codes)


class FqPolynomial:
    """Dense polynomial over F_q; coeffs are small-field codes, ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return (
            isinstance(other, FqPolynomial)
            and other.field is self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.coeffs))

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return FqPolynomial(f, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = f.add_codes(out[i + j], f.mul_codes(a, b))
        return FqPolynomial(f, out)

    def divmod(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FqPolynomial(f, ()), self
        quot = [0] * (dq + 1)
        inv_lead = f.inv_code(other.coeffs[-1])
        for i in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = f.mul_codes(rem[i], inv_lead)
            if c:
                k = i - (len(other.coeffs) - 1)
                quot[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = f.sub_codes(rem[k + j], f.mul_codes(c, oc))
        return FqPolynomial(f, quot), FqPolynomial(f, rem)

    def divides(self, other):
        return other.divmod(self)[1].is_zero()

    def monic(self):
        if self.is_zero() or self.is_monic():
            return self
        f = self.field
        inv = f.inv_code(self.coeffs[-1])
        return FqPolynomial(f, [f.mul_codes(c, inv) for c in self.coeffs])

    def pow(self, k):
        result = FqPolynomial(self.field, (1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def render(self):
        r = self.field.r
        parts = []
        for i, c in enumerate(self.coeffs):
            cs = str(c) if r == 1 else "(" + ",".join(map(str, self.field.decode(c)[:r])) + ")"
            parts.append(cs if i == 0 else (f"{cs}*x" if i == 1 else f"{cs}*x^{i}"))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"FqPolynomial({self.render()})"


def poly_one(field):
    return FqPolynomial(field, (1,))


def x_pow_minus_one(field, m):
    return FqPolynomial(field, (field.neg_code(1),) + (0,) * (m - 1) + (1,))


def small_field(p, r):
    """Canonical F_q as a degree-r tower over F_p (with tables)."""
    return gf.build_extension(p, r, 1)


# ---------------------------------------------------------------------------
# cyclotomic cosets and explicit factors


def _cosets_mod(d, q):
    """Orbits of multiplication by q on the primitive residues mod d."""
    if d == 1:
        return [(0,)]
    todo = sorted(j for j in range(1, d) if gcd(j, d) == 1)
    seen = set()
    orbits = []
    for start in todo:
        if start in seen:
            continue
        orb = []
        j = start
        while j not in seen:
            seen.add(j)
            orb.append(j)
            j = j * q % d
        orbits.append(tuple(orb))
    return orbits


def _int_cyclotomic_mod_p(d, p, field):
    """Phi_d(x) with integer coefficients reduced mod p, over field."""
    num = FqPolynomial(field, (1,))
    den = FqPolynomial(field, (1,))
    for e, mu in moebius_divisors(d):
        part = x_pow_minus_one(field, d // e)
        if mu == 1:
            num = num * part
        else:
            den = den * part
    quot, rem = num.divmod(den)
    if not rem.is_zero():
        raise ArithmeticError(f"Phi_{d} is not an exact quotient mod {p}")
    return quot


def _element_of_order(tower, d):
    """Deterministically-first element of multiplicative order d."""
    cof = tower.N // d
    prim = factorize(d).primes()
    for c in range(2, tower.Q):
        z = tower.pow_code(c, cof)
        if z != 1 and all(tower.pow_code(z, d // l) != 1 for l in prim):
            return z
    raise AssertionError(f"no element of order {d}")


def _factors_for_divisor(d, q, p, r, field):
    """Distinct irreducible factors of Phi_d over F_q, sorted."""
    orbits = _cosets_mod(d, q % d)
    if len(orbits) == 1:
        return [_int_cyclotomic_mod_p(d, p, field)]
    e = len(orbits[0])
    scratch = gf.build_extension(p, r * e, 1, tables="off")
    zeta = _element_of_order(scratch, d)
    back = {v: code for code, v in enumerate(_embedding_table(scratch, field))}
    factors = []
    for orb in orbits:
        # product of (X - zeta^i) over the orbit, coefficients in scratch codes
        cur = [1]
        for i in orb:
            root = scratch.pow_code(zeta, i)
            nxt = [0] * (len(cur) + 1)
            for k, c in enumerate(cur):
                nxt[k + 1] = scratch.add_codes(nxt[k + 1], c)
                nxt[k] = scratch.sub_codes(nxt[k], scratch.mul_codes(c, root))
            cur = nxt
        if not all(c in back for c in cur):
            raise ArithmeticError(f"an orbit product over Phi_{d} escaped F_{q}")
        factors.append(FqPolynomial(field, [back[c] for c in cur]))
    return sorted(factors, key=lambda f: (f.degree, f.coeffs))


@dataclass(frozen=True)
class PolyFactorization:
    """Distinct irreducible factors of x^m - 1 over F_q, common multiplicity p^a.

    Built from coset data: degrees[i] is the degree of factor i, ascending.
    field (the canonical F_q) and factors (sorted by (degree, coeffs), so
    factors[i] has degree degrees[i]) are built on first read.
    """

    q: int
    m: int
    p: int
    r: int
    m0: int
    a: int
    multiplicity: int
    degrees: tuple

    @cached_property
    def field(self):
        return small_field(self.p, self.r)

    @cached_property
    def factors(self):
        factors = [
            f
            for d in divisors_of(self.m0)
            for f in _factors_for_divisor(d, self.q, self.p, self.r, self.field)
        ]
        return tuple(sorted(factors, key=lambda f: (f.degree, f.coeffs)))

    def divisors(self):
        """All monic divisors of x^m - 1 as (poly, exponent tuple), by degree."""
        items = [(poly_one(self.field), (0,) * len(self.factors))]
        for j, f in enumerate(self.factors):
            new = []
            for base, exps in items:
                cur = base
                for e in range(self.multiplicity + 1):
                    new.append((cur, exps[:j] + (e,) + exps[j + 1 :]))
                    if e < self.multiplicity:
                        cur = cur * f
            items = new
        items.sort(key=lambda t: (t[0].degree, t[0].coeffs))
        return items

    def exponents_of(self, g):
        """Exponent of each distinct factor in a divisor spec g of x^m - 1.

        g is 'all' (x^m - 1 itself), 1 or None (the unit divisor), an
        FqPolynomial over this F_q that divides x^m - 1 (up to a unit), or
        an iterable of indices into self.factors (their squarefree product).
        Anything else raises ValueError.
        """
        s = len(self.degrees)
        if g == "all":
            return (self.multiplicity,) * s
        if g is None or g == 1:
            return (0,) * s
        if isinstance(g, FqPolynomial):
            if g.field is not self.field or g.is_zero():
                raise ValueError(f"g must be a nonzero polynomial over F_{self.q}")
            rem = g.monic()
            exps = []
            for f in self.factors:
                e = 0
                while e < self.multiplicity:
                    quot, r = rem.divmod(f)
                    if not r.is_zero():
                        break
                    rem = quot
                    e += 1
                exps.append(e)
            if not rem.is_one():
                raise ValueError(f"g = {g.render()} does not divide x^{self.m} - 1")
            return tuple(exps)
        try:
            idx = {operator.index(j) for j in g}
        except TypeError:
            raise ValueError(f"not a divisor spec of x^{self.m} - 1: {g!r}") from None
        if not idx <= set(range(s)):
            raise ValueError(
                f"factor indices must lie in range({s}) for x^{self.m} - 1 over F_{self.q}, got {sorted(idx)}"
            )
        return tuple(int(j in idx) for j in range(s))

    def factor_subset_of(self, g):
        """Indices of the distinct factors in a divisor spec g (see exponents_of)."""
        return tuple(j for j, e in enumerate(self.exponents_of(g)) if e)


@lru_cache(maxsize=None)
def factor_xm1(q, m):
    """x^m - 1 over F_q, m = m0 p^a: one distinct factor of degree |C| per
    coset C of q on the residues prime to d, for each d | m0."""
    p, r = prime_power_split(q)
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    m0, a = m, 0
    while m0 % p == 0:
        m0 //= p
        a += 1
    degrees = sorted(len(orb) for d in divisors_of(m0) for orb in _cosets_mod(d, q % d))
    return PolyFactorization(q, m, p, r, m0, a, p**a, tuple(degrees))


@dataclass(frozen=True)
class PolyStats:
    Omega: int
    Phi: int
    mu_prime: int
    Theta: Fraction


def poly_stats(q, parts) -> PolyStats:
    """Stats of a monic divisor given as (degree, multiplicity) per factor.

    Omega = 2^(number of distinct factors); Phi = |(F_q[x]/g)*|;
    mu_prime = (-1)^s for squarefree, 0 otherwise; Theta = Phi / q^deg(g).
    """
    parts = list(parts)
    phi = 1
    deg = 0
    squarefree = True
    for d, mult in parts:
        if d < 1 or mult < 1:
            raise ValueError(f"factor degree and multiplicity must be >= 1, got ({d}, {mult})")
        phi *= (q**d - 1) * q ** (d * (mult - 1))
        deg += d * mult
        if mult > 1:
            squarefree = False
    mu = 0 if not squarefree else (-1) ** len(parts)
    return PolyStats(
        Omega=1 << len(parts),
        Phi=phi,
        mu_prime=mu,
        Theta=Fraction(phi, q**deg),
    )


# ---------------------------------------------------------------------------
# module action on a tower


class TowerPoly:
    """Per-tower bundle: factorization of x^m - 1 and the action machinery."""

    def __init__(self, tower):
        self.tower = tower
        self.pf = factor_xm1(tower.q, tower.m)
        self.embed = _embedding_table(tower, self.pf.field)
        xm1 = x_pow_minus_one(self.pf.field, tower.m)
        self.xm1 = xm1
        self.quotients = []
        for f in self.pf.factors:
            quot, rem = xm1.divmod(f)
            if not rem.is_zero():
                raise ArithmeticError(f"factor {f.render()} does not divide x^{tower.m} - 1")
            self.quotients.append(quot)
        self._divisors = None
        self._quotient_mats = None

    def divisors(self):
        if self._divisors is None:
            self._divisors = self.pf.divisors()
        return self._divisors

    def apply_codes(self, poly, code):
        """(poly o alpha) on codes: sum emb(c_i) * alpha^(q^i)."""
        t = self.tower
        acc = 0
        v = code
        for i, c in enumerate(poly.coeffs):
            if c:
                acc = t.add_codes(acc, t.mul_codes(self.embed[c], v))
            if i + 1 < len(poly.coeffs):
                v = t.frobenius_code(v, 1)
        return acc

    def quotient_matrices(self):
        """F_p matrices of alpha -> ((x^m-1)/h_j) o alpha, per factor j."""
        if self._quotient_mats is None:
            t = self.tower
            self._quotient_mats = [
                t.linear_map_matrix(lambda c, q=qt: self.apply_codes(q, c))
                for qt in self.quotients
            ]
        return self._quotient_mats

    def order_code(self, code):
        """F_q-order of the element with this code (minimal annihilator)."""
        for poly, _exps in self.divisors():
            if self.apply_codes(poly, code) == 0:
                return poly
        raise AssertionError("x^m - 1 must annihilate")

    def is_g_free_code(self, code, g):
        idx = self.pf.factor_subset_of(g)
        return all(self.apply_codes(self.quotients[j], code) != 0 for j in idx)


def tower_poly(tower) -> TowerPoly:
    return tower.context(TowerPoly)


def _embedding_table(tower, small):
    """small-field code -> tower code, through the first root of small's modulus.

    The root is the first (ascending code) in tower's subfield of small.Q
    elements; a prime field embeds as itself.
    """
    if small.n == 1:
        return list(range(small.p))
    sub = tower.subfield_codes(degree=small.n)
    w = None
    for cand in sub:
        acc = 0
        for c in reversed(small.modulus):
            acc = tower.add_codes(tower.mul_codes(acc, cand), c)
        if acc == 0:
            w = cand
            break
    if w is None:
        raise ArithmeticError(f"no root of the F_{small.Q} modulus in F_{tower.Q}")
    out = [0] * small.Q
    for code in range(small.Q):
        digs = small.decode(code)[: small.n]
        val = 0
        wp = 1
        for c in digs:
            if c:
                val = tower.add_codes(val, tower.mul_codes(c, wp))
            wp = tower.mul_codes(wp, w)
        out[code] = val
    return out


# ---------------------------------------------------------------------------
# spec-level operations


def apply_fq_poly(f: FqPolynomial, alpha: gf.FieldElement) -> gf.FieldElement:
    """The module action f o alpha = sum a_i alpha^(q^i) (i = 0 included)."""
    tp = tower_poly(alpha.tower)
    if f.field is not tp.pf.field:
        raise ValueError("polynomial base field does not match the tower's F_q")
    return gf.FieldElement(alpha.tower, tp.apply_codes(f, alpha.code))


def fq_order(alpha: gf.FieldElement) -> FqPolynomial:
    """Minimal-degree monic divisor g of x^m - 1 with g o alpha = 0."""
    return tower_poly(alpha.tower).order_code(alpha.code)


def is_g_free(alpha: gf.FieldElement, g) -> bool:
    """True iff ((x^m-1)/h) o alpha != 0 for every distinct irreducible h | g.

    g is a divisor spec read by PolyFactorization.exponents_of: 'all'
    (x^m - 1 itself), 1, an FqPolynomial divisor of x^m - 1, or an iterable
    of factor indices.  g-free with g = x^m - 1 means normal.
    """
    return tower_poly(alpha.tower).is_g_free_code(alpha.code, g)
