"""Multiplicative and additive characters, character sums, and audits.

Multiplicative characters are indexed by (order d, index j): the character
sends the canonical generator g to exp(2*pi*i*j/d), and 0 to 0 unless it is
the trivial character (which sends 0 to 1).  Additive characters are
psi_delta with psi_delta(alpha) = exp(2*pi*i*Tr(delta*alpha)/p); the
canonical psi_0 is delta = 1 (the prime-field character lifted through the
absolute trace).

Every character is a cached table over all Q codes, so a sum is one numpy
product of table rows.  char_sum accumulates through math.fsum on the real
and imaginary parts, which is correctly rounded: the result depends only on
the terms, not on their order or grouping.  weil_audit batches its work:
each quadratic is evaluated once, and every sum is one entry of a complex
matrix product A @ B.T, A with a row chi1(alpha) psi(alpha) per (d1, psi)
and B a row chi2(f(alpha)) per (f, d2), both built and multiplied in
blocks of bounded size.  It fsums again only the few sums that a proven
bound on the product's rounding error cannot rule out of the result, so
it still returns exactly the floats of one char_sum per (triple, f).  It
draws admissible quadratics: a != 0 and b^2 != 4ac, 4 read in F_p
(b^2 != ac in char 3, b != 0 in char 2).

Sums that are equal by a proof are formed once.  orthogonality_audit sums
each class of equal sums once: the characters j of one gcd(j, N) sum the
same multiset of roots, and every nontrivial psi_delta the values of psi_0
permuted, and fsum depends only on the multiset.  freeness_indicator keeps
each target's alpha-free plan on the context and sums only over alpha.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from math import gcd

import numpy as np

from . import fqpoly, gf
from .errors import SizeBudgetExceeded, ZeroElement
from .numtheory import divisors_of, factorize, moebius_divisors, multiplicative_stats

ENUM_BUDGET = 3**10
_WEIL_BLOCK_TERMS = 1 << 18  # rows x Q terms per block of the Weil audit's A and B
# rows per block at least, so products on the largest fields stay square:
# F_3^10 blocks of 4 rows made the audit rebuild-bound
_WEIL_MIN_ROWS = 32

@cache
def _roots_of_unity(d):
    return np.exp(2j * np.pi * np.arange(d) / d)


@dataclass(frozen=True)
class MultCharacter:
    """chi with chi(g^k) = zeta_d^(j*k); trivial iff j == 0 (then d == 1)."""

    tower: object
    d: int
    j: int

    def __post_init__(self):
        if self.tower.N % self.d != 0:
            raise ValueError("character order must divide q^m - 1")
        if self.j == 0:
            object.__setattr__(self, "d", 1)
        elif not (0 < self.j < self.d and gcd(self.j, self.d) == 1):
            raise ValueError("index must be 0 or in [1, d) and coprime to the order")

    @property
    def is_trivial(self):
        return self.j == 0

    def __call__(self, alpha):
        return mult_char_eval(self, alpha)


def trivial_mult(tower):
    return MultCharacter(tower, 1, 0)


def mult_product(c1: MultCharacter, c2: MultCharacter) -> MultCharacter:
    """Pointwise product character on the nonzero elements."""
    N = c1.tower.N
    e = (c1.j * (N // c1.d) + c2.j * (N // c2.d)) % N
    if e == 0:
        return trivial_mult(c1.tower)
    d = N // gcd(e, N)
    return MultCharacter(c1.tower, d, e // (N // d))


@dataclass(frozen=True)
class AddCharacter:
    """psi_delta; delta = 1 is the canonical character, delta = 0 trivial."""

    tower: object
    delta: int

    @property
    def is_trivial(self):
        return self.delta == 0

    def __call__(self, alpha):
        return add_char_eval(self, alpha)

    def fq_order(self):
        return add_char_order(self)


class _CharContext:
    """Cached per-tower tables for character evaluation."""

    def __init__(self, tower):
        if tower.Q > ENUM_BUDGET:
            raise SizeBudgetExceeded(
                f"character enumeration budget is 3^10 elements, got {tower.Q}"
            )
        if not tower.has_tables:
            raise SizeBudgetExceeded("character evaluation needs log tables")
        self.tower = tower
        self.tp = fqpoly.tower_poly(tower)
        p = tower.p
        # absolute trace of every code by F_p-linearity, Tr(sum d_i x^i) =
        # sum d_i Tr(x^i) mod p: the codes below p^(i+1) are d p^i + (a code
        # below p^i), d < p, so each basis trace extends the table p-fold
        tr = np.zeros(1, dtype=np.int64)
        for i in range(tower.n):
            ti = tower.trace_abs_code(p**i)
            tr = ((tr + ti * np.arange(p, dtype=np.int64)[:, None]) % p).ravel()
        self.trace_abs = tr
        self.psi0_vals = _roots_of_unity(p)[tr]
        self._mult_tables = {}
        self._add_tables = {}
        self._delta_orders = None
        self._plans = {"e": {}, "g": {}}  # freeness_indicator's, by kind and target

    def mult_table(self, d, j):
        key = (d, j)
        tab = self._mult_tables.get(key)
        if tab is None:
            t = self.tower
            tab = np.zeros(t.Q, dtype=np.complex128)
            tab[t.exp] = _roots_of_unity(d)[(j * np.arange(t.N)) % d]
            tab[0] = 1.0 if j == 0 else 0.0
            self._mult_tables[key] = tab
        return tab

    def add_values(self, delta):
        """psi_delta over all Q codes, formed afresh and not kept."""
        return self.psi0_vals[self.tower.quad_values(0, delta, 0)]

    def add_table(self, delta):
        tab = self._add_tables.get(delta)
        if tab is None:
            tab = self._add_tables[delta] = self.add_values(delta)
        return tab

    def delta_orders(self):
        """Divisor index of the F_q-order of psi_delta, for every delta.

        psi_delta has order h iff delta is trace-orthogonal to the image of
        h o (dot); divisors are tested in increasing degree, so the first
        hit is the minimal one.
        """
        if self._delta_orders is None:
            t = self.tower
            orders = np.full(t.Q, -1, dtype=np.int64)
            for di, (poly, _exps) in enumerate(self.tp.divisors()):
                ok = np.ones(t.Q, dtype=bool)
                for i in range(t.n):  # the image of h o (dot) is spanned by h o x^i
                    vcode = self.tp.apply_codes(poly, t.p**i)
                    if vcode:
                        ok &= self.trace_abs[t.quad_values(0, vcode, 0)] == 0
                newly = ok & (orders < 0)
                orders[newly] = di
            if orders.min() < 0:
                raise ArithmeticError("some additive character has no F_q-order")
            self._delta_orders = orders
        return self._delta_orders

    def delta_class(self, divisor_index):
        """All delta codes whose psi_delta has the given divisor as order."""
        return np.nonzero(self.delta_orders() == divisor_index)[0]


def char_context(tower) -> _CharContext:
    return tower.context(_CharContext)


def mult_char_eval(chi: MultCharacter, alpha) -> complex:
    t = chi.tower
    code = t.coerce(alpha)
    if code == 0:
        return 1.0 + 0j if chi.is_trivial else 0j
    k = t.dlog_code(code)
    return cmath.exp(2j * cmath.pi * ((chi.j * k) % chi.d) / chi.d)


def add_char_eval(psi: AddCharacter, alpha) -> complex:
    t = psi.tower
    code = t.coerce(alpha)
    tr = t.trace_abs_code(t.mul_codes(psi.delta, code))
    return cmath.exp(2j * cmath.pi * tr / t.p)


def add_char_order(psi: AddCharacter) -> fqpoly.FqPolynomial:
    """Minimal monic divisor h of x^m - 1 with psi(h o alpha) = 1 for all alpha."""
    ctx = char_context(psi.tower)
    di = int(ctx.delta_orders()[psi.delta])
    return ctx.tp.divisors()[di][0]


def _csum(terms) -> complex:
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def char_sum(chi1: MultCharacter, chi2: MultCharacter, psi: AddCharacter, f) -> complex:
    """S = sum over all alpha of chi1(alpha) chi2(f(alpha)) psi(alpha).

    f is a coefficient triple (a, b, c) of codes/elements, or an object with
    .a/.b/.c FieldElement attributes.  The chi(0) extension rule applies.
    """
    t = chi1.tower
    ctx = char_context(t)
    fv = t.quad_values(*t.quad_codes(f))
    terms = (
        ctx.mult_table(chi1.d, chi1.j)
        * ctx.mult_table(chi2.d, chi2.j)[fv]
        * ctx.add_table(psi.delta)
    )
    return _csum(terms)


def char_sum_c0_factored(chi1, chi2, psi, a, b) -> complex:
    """The x(ax+b) sum through the chi3 = chi1*chi2 regrouping.

    Sums chi3(alpha) chi2(a*alpha + b) psi(alpha) over nonzero alpha, plus
    the alpha = 0 term of the direct form (the regrouping identity holds
    pointwise only away from 0).
    """
    t = chi1.tower
    ctx = char_context(t)
    chi3 = mult_product(chi1, chi2)
    lin = t.quad_values(0, t.coerce(a), t.coerce(b))
    terms = (
        ctx.mult_table(chi3.d, chi3.j)
        * ctx.mult_table(chi2.d, chi2.j)[lin]
        * ctx.add_table(psi.delta)
    )
    s = _csum(terms[1:])
    if chi1.is_trivial and chi2.is_trivial:
        s += 1.0
    return s


# ---------------------------------------------------------------------------
# characteristic functions of freeness


def _phi_int(d):
    return multiplicative_stats(factorize(d)).phi


def _e_plan(ctx, e):
    """theta(e) and, per squarefree d | e, mu(d) / phi(d) and the j < d coprime to d."""
    if e < 1 or ctx.tower.N % e:
        raise ValueError("e must divide q^m - 1")
    theta = float(multiplicative_stats(factorize(e)).theta)
    return theta, [
        (d, mu / _phi_int(d), np.array([j for j in range(d) if gcd(j, d) == 1], dtype=np.int64))
        for d, mu in moebius_divisors(e)
    ]


def _g_plan(ctx, g):
    """Theta(g) and, per squarefree divisor of g's radical, (-1)^s / Phi and its delta class."""
    tp = ctx.tp
    exps = tp.pf.exponents_of(g)
    q = ctx.tower.q
    support = [i for i, ex in enumerate(exps) if ex > 0]
    Theta = float(fqpoly.poly_stats(q, [(tp.pf.degrees[i], exps[i]) for i in support]).Theta)
    div_index = {ex: i for i, (_poly, ex) in enumerate(tp.divisors())}
    nfac = len(tp.pf.degrees)
    terms = []
    for ssize in range(len(support) + 1):
        for subset in combinations(support, ssize):
            ex = tuple(1 if i in subset else 0 for i in range(nfac))
            phi_f = fqpoly.poly_stats(q, [(tp.pf.degrees[i], 1) for i in subset]).Phi
            terms.append(((-1) ** ssize / phi_f, ctx.delta_class(div_index[ex])))
    return Theta, terms


def freeness_indicator(kind, target, alpha) -> float:
    """rho_e (kind 'multiplicative'/'e') or kappa_g (kind 'additive'/'g').

    Moebius-weighted character averages; mathematically 1 on the free
    elements and 0 elsewhere, evaluated here in floating point.

    All that does not depend on alpha is the target's plan, built once per
    _CharContext and kept by fqpoly.memo_by_spec (e as an int, g by
    value): theta or Theta, the Moebius coefficients, the j < d coprime to
    d and the delta classes.  A call sums only over alpha, in the order of
    the loops that built the plan: the j-sums left to right from 0, as
    Python's sum() adds them, and each delta class through fsum, so the
    value does not depend on whether the plan was kept.
    """
    if not isinstance(alpha, gf.FieldElement):
        raise TypeError("alpha must be a FieldElement")
    t = alpha.tower
    ctx = char_context(t)
    code = alpha.code

    if kind in ("multiplicative", "e"):
        theta, terms = fqpoly.memo_by_spec(ctx._plans["e"], int(target), lambda e: _e_plan(ctx, e))
        if code == 0:
            raise ZeroElement("rho_e is defined on nonzero elements")
        k = t.dlog_code(code)
        total = 0.0 + 0j
        for d, coef, js in terms:
            # accumulate adds left to right from 0j, as sum() over j does
            inner = np.add.accumulate(np.append(0j, _roots_of_unity(d)[js * k % d]))[-1]
            total += coef * inner
        return theta * total.real

    if kind in ("additive", "g"):
        Theta, terms = fqpoly.memo_by_spec(ctx._plans["g"], target, lambda g: _g_plan(ctx, g))
        psi_at_alpha = ctx.add_values(code)  # psi_delta(alpha) = psi_alpha(delta), by delta
        total = 0.0 + 0j
        for coef, deltas in terms:
            total += coef * _csum(psi_at_alpha[deltas])
        return Theta * total.real

    raise ValueError(f"unknown indicator kind {kind!r}")


# ---------------------------------------------------------------------------
# audits


def orthogonality_audit(tower) -> float:
    """Worst |sum| over the orthogonality relations (all are 0 exactly).

    Covers both directions for both character families: the sum of each
    nontrivial character over its group, and the sum over all characters at
    a fixed nontrivial element (the two multiplicative relations evaluate
    the same sums, as do the two additive ones, by the symmetry of j*k and
    Tr(delta*alpha)).

    It forms one sum per class of equal sums, not N - 1 + Q - 1 of them.
    For 0 < j < N with gcd(j, N) = g, the terms roots[j k mod N], k < N,
    are g copies of roots[g t], t < N / g, since j / g is a unit mod N / g.
    For delta != 0, psi_delta(alpha) = psi_0(delta alpha) runs over
    psi_0's values permuted.  fsum is correctly rounded, so a sum depends
    only on the multiset of its terms: one sum per divisor g < N and one
    over psi_0's values are bit for bit the sums of every j and delta,
    and their worst is the same float.
    """
    ctx = char_context(tower)
    N = tower.N
    roots = _roots_of_unity(N)
    sums = [_csum(np.tile(roots[::g], g)) for g in divisors_of(N) if g < N]
    sums.append(_csum(ctx.psi0_vals))
    return max([0.0, *map(abs, sums)])


def order_triples(tower):
    """(d1, d2, additive-divisor-index) triples for the Weil audit."""
    ctx = char_context(tower)
    ds = divisors_of(tower.N)
    return [
        (d1, d2, hi)
        for d1 in ds
        for d2 in ds
        for hi in range(len(ctx.tp.divisors()))
    ]


def representative_psi(tower, divisor_index) -> AddCharacter:
    """First delta (ascending code) whose character has the given order."""
    deltas = char_context(tower).delta_class(divisor_index)
    if not len(deltas):
        raise ValueError(f"no divisor of x^m - 1 has index {divisor_index}")
    return AddCharacter(tower, int(deltas[0]))


def random_admissible_quadratics(tower, count, rng):
    """Admissible (a, b, c) code triples: a != 0 and b^2 != 4ac (FieldTower.admissible)."""
    out = []
    while len(out) < count:
        a = rng.randrange(1, tower.Q)
        b = rng.randrange(tower.Q)
        c = rng.randrange(tower.Q)
        if tower.admissible(a, b, c):
            out.append((a, b, c))
    return out


def weil_audit(tower, quadratics=100, seed=0, tol=1e-6, threads=1):
    """Check |S| <= 3 q^(m/2) (2 q^(m/2) for trivial psi) over random f.

    Returns {"worst": row, "violations": [...], "checked": count}; the fully
    trivial triple is excluded (its sum is q^m - #zeros, not bounded).
    threads is accepted for callers that pass it, and ignored.

    The sums are batched, not computed one char_sum at a time: every
    quadratic is evaluated once, and every sum is an entry of a complex
    matrix product, S = (A @ B.T)[(d1, delta), (f, d2)] with
    A[(d1, delta), alpha] = chi1(alpha) psi_delta(alpha) per distinct
    (d1, delta) of the live triples and B[(f, d2), alpha] = chi2(f(alpha)),
    f-major.  Both are built and multiplied in blocks of
    max(_WEIL_MIN_ROWS, _WEIL_BLOCK_TERMS // Q) rows, and the A blocks are
    walked back and forth over the B blocks so the A block at each turn is
    kept, not rebuilt.  Only the rows whose margin could be the smallest or
    negative are summed again by char_sum, whose floats the result carries:
    abs_S, margins, the worst row and the violations equal those of one
    char_sum per (triple, f), bit for bit.

    Why that is exact.  Let u = 2^-53 and n = Q, 2 <= n <= ENUM_BUDGET,
    so nu < 2^-37.  Every table entry is 0, 1 or a rounded (cos, sin)
    pair, of modulus at most 1 + 2u.  Let x be a term's exact product of
    its three table entries.  char_sum forms it through two complex
    multiplies (relative error at most sqrt(5) u each, fused or not), so
    each component of its term is within 5u of x's; fsum, correctly
    rounded, is then within 6.0001 nu of the exact sum.  Here A's entry
    a = fl(chi1 psi) is rounded once, so |a b - x| <= sqrt(5) u |x| for
    B's table entry b, and |a| |b| <= 1 + 9u.  A component of numpy's S is
    a real dot product of 2n products (Re S sums Re a Re b - Im a Im b,
    Im S sums Re a Im b + Im a Re b), accumulated in any order, fused or
    not, as BLAS (zgemm, or zgemv and zdotu for one-row blocks) or numpy's
    own loop does it: a four-multiply complex product, never a
    three-multiply one.  Each product then meets at most
    2n roundings, so the component is within gamma_2n sum |a| |b| <=
    2.0001 n^2 u of the exact dot product, which is within 2.24 nu of the
    exact sum of the x.  Each hypot adds at most 1 ulp of |S| <= 1.5n.  So
    numpy's |S| and char_sum's differ by at most
    sqrt(2) (2.0001 n^2 + 8.25 n) u + 6nu <= 13 n^2 u for n >= 2.  A
    margin is fl(c - |S|) with c = fl(bound + tol) the same float in both
    routes, and its rounding adds at most 2u (|c| + 1.5n), so the two
    margins of one row differ by at most D = 16 u (n^2 + |c|).  Let m' be
    numpy's margins.  char_sum's smallest margin is at most min m' + D, so
    a row with m' > min m' + 2D has a margin strictly above the smallest
    and is neither the worst row nor tied with it, and a row with m' >= D
    has a margin >= 0 and is no violation.  Every other row is a
    candidate.  The candidates, folded in (live triple, f) order with the
    strict < of the per-sum loop, give its worst row (its tie winner
    included) and its violations in order.  The code doubles D, which
    absorbs the rounding of the thresholds themselves, and a tol that is
    not finite makes every row a candidate.
    """
    import random as _random

    t = tower
    fs = random_admissible_quadratics(t, quadratics, _random.Random(seed))
    triples = order_triples(t)
    ctx = char_context(t)
    bound3 = 3 * math.sqrt(t.Q)
    bound2 = 2 * math.sqrt(t.Q)
    divs = ctx.tp.divisors()
    deltas = {hi: representative_psi(t, hi).delta for hi in {hi for _, _, hi in triples}}
    live = [(d1, d2, hi, deltas[hi]) for d1, d2, hi in triples if d1 > 1 or d2 > 1 or deltas[hi]]
    if not live or not fs:
        return {"worst": None, "violations": [], "checked": 0}
    a_keys = {key: i for i, key in enumerate(dict.fromkeys((d1, delta) for d1, _, _, delta in live))}
    d2s = {d2: i for i, d2 in enumerate(dict.fromkeys(d2 for _, d2, _, _ in live))}
    a_tabs = [(ctx.mult_table(d1, 1 if d1 > 1 else 0), ctx.add_table(delta)) for d1, delta in a_keys]
    b_tabs = [ctx.mult_table(d2, 1 if d2 > 1 else 0) for d2 in d2s]
    na, nb = len(a_keys), len(fs) * len(b_tabs)
    rows = max(_WEIL_MIN_ROWS, _WEIL_BLOCK_TERMS // t.Q)
    a_blk = np.empty((min(rows, na), t.Q), dtype=np.complex128)
    b_blk = np.empty((min(rows, nb), t.Q), dtype=np.complex128)
    sums = np.empty((na, nb))  # numpy |S| by (d1, delta) and (f, d2)
    a_starts = list(range(0, na, rows))
    held = fi = None
    for b0 in range(0, nb, rows):
        b1 = min(b0 + rows, nb)
        for k in range(b0, b1):
            i, j = divmod(k, len(b_tabs))
            if fi != i:
                fi, fv = i, t.quad_values(*t.quad_codes(fs[i]))
            np.take(b_tabs[j], fv, out=b_blk[k - b0], mode="clip")
        for a0 in a_starts:
            a1 = min(a0 + rows, na)
            if held != a0:
                held = a0
                for k in range(a0, a1):
                    np.multiply(*a_tabs[k], out=a_blk[k - a0])
            np.abs(a_blk[: a1 - a0] @ b_blk[: b1 - b0].T, out=sums[a0:a1, b0:b1])
        a_starts.reverse()  # the next B block starts at the A block held
    ai = [a_keys[d1, delta] for d1, _, _, delta in live]
    di = [d2s[d2] for _, d2, _, _ in live]
    margins = sums.reshape(na, len(fs), len(b_tabs))[ai, :, di]  # (live triple, f)
    del sums
    limits = np.array([(bound3 if delta else bound2) + tol for *_, delta in live])
    np.subtract(limits[:, None], margins, out=margins)
    slack = 32 * 2.0**-53 * (t.Q**2 + float(np.abs(limits).max()))
    cut = float(margins.min()) + 2 * slack  # inf or NaN if tol is not finite
    worst = None
    violations = []
    for li, i in zip(*np.nonzero(~((margins > cut) & (margins >= slack)))):
        d1, d2, hi, delta = live[li]
        f = fs[i]
        chi1 = MultCharacter(t, d1, 1 if d1 > 1 else 0)
        chi2 = MultCharacter(t, d2, 1 if d2 > 1 else 0)
        s = abs(char_sum(chi1, chi2, AddCharacter(t, delta), f))
        bound = bound3 if delta else bound2
        margin = bound + tol - s
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
    return {"worst": worst, "violations": violations, "checked": margins.size}
