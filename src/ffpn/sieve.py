"""Sufficient-condition engine: the basic bound, the prime/polynomial sieve,
closed forms, and reproduction of the published decision tables.

Every verdict is decided in exact arithmetic: comparisons of the shape
q^(m/2) > X square both sides, so no boundary case can flip under floating
point rounding.  Floats appear only in rendered report fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisibilityViolation
from .fqpoly import FqPolynomial, factor_xm1
from .numtheory import factorize_qm_minus_1, multiplicative_stats, partial_factorize_qm_minus_1

# auto_sieve's order among equal-degree factors: it leaves out the
# highest-index ones when t + s is at most this, else the lowest-index ones.
HIGH_INDEX_TIES_MAX_TS = 16
# Rho iterations per composite cofactor in basic_condition's first pass.
# Every cofactor of 3^k - 1, k <= 88, splits on the first attempt within
# 707,456 iterations (the 31-digit one of Phi_85(3) takes the most).
PARTIAL_RHO_ITERS = 1 << 20

W_BOUND_COEFF = Fraction(45, 4)  # 11.25


def _exceeds_sqrt(q, m, x: Fraction) -> bool:
    """Exact q^(m/2) > x for x >= 0."""
    if x < 0:
        return True
    return q**m * x.denominator**2 > x.numerator**2


def _float_pow(base, exponent):
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SieveConfig:
    q: int
    m: int
    d: int
    d_primes: tuple
    remaining_primes: tuple
    g_indices: tuple
    remaining_degrees: tuple

    @property
    def n(self):
        return len(self.remaining_primes)

    @property
    def k(self):
        return len(self.remaining_degrees)


@dataclass(frozen=True)
class SieveReport:
    config: SieveConfig
    Delta: Fraction
    Lambda: Fraction | None
    W_d: int
    Omega_g: int
    rhs: Fraction | None
    verdict: str  # pass | fail | delta_nonpositive

    @property
    def lhs(self):
        return _float_pow(self.config.q, self.config.m / 2)

    def to_dict(self):
        c = self.config
        return {
            "q": c.q,
            "m": c.m,
            "d": str(c.d),
            "n": c.n,
            "remaining_primes": [str(p) for p in c.remaining_primes],
            "g_indices": list(c.g_indices),
            "k": c.k,
            "Delta": self.Delta,
            "Lambda": self.Lambda,
            "W_d": self.W_d,
            "Omega_g": self.Omega_g,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "verdict": self.verdict,
        }


def sieve_lambda(remaining_primes, remaining_degrees, q):
    """Delta and Lambda of a sieve configuration (Lambda None if Delta <= 0).

    Delta = 1 - 2 sum 1/p_i - sum 1/q^deg(g_i);
    Lambda = (2n + k - 1)/Delta + 2.
    Both are summed over one common denominator and reduced once.
    """
    den = math.prod(remaining_primes) * q ** max(remaining_degrees, default=0)
    num = den - 2 * sum(den // p for p in remaining_primes) - sum(den // q**d for d in remaining_degrees)
    delta = Fraction(num, den)
    if num <= 0:
        return delta, None
    n = len(remaining_primes)
    k = len(remaining_degrees)
    return delta, Fraction((2 * n + k - 1) * den + 2 * num, num)


def basic_condition(q, m, cache=None):
    """q^(m/2) > 3 W(q^m-1)^2 Omega(x^m-1), decided exactly.

    The condition is sufficient, so an upper bound on W decides a pass as
    well as W does.  A first pass splits q^m - 1 by trial division and one
    rho attempt of PARTIAL_RHO_ITERS iterations per composite cofactor.  If
    a cofactor stays unsplit, W is bounded through
    PartialFactorization.omega_bound; a pass with that bound is reported
    with "W_bound": "partial" and the digit counts of the unsplit cofactors
    in "unsplit_digits".  Only when the bound fails is q^m - 1 factored in
    full.  Otherwise "W_bound" is "exact" and "W" is W(q^m - 1).
    """
    Omega = 1 << len(factor_xm1(q, m).degrees)
    part = partial_factorize_qm_minus_1(q, m, PARTIAL_RHO_ITERS, cache=cache)
    W = 1 << part.omega_bound()
    unsplit = part.unsplit
    if unsplit and not _exceeds_sqrt(q, m, Fraction(3 * W**2 * Omega)):
        W = multiplicative_stats(factorize_qm_minus_1(q, m, cache=cache)).W
        unsplit = ()
    rhs = 3 * W**2 * Omega
    res = {
        "q": q,
        "m": m,
        "W": W,
        "W_bound": "partial" if unsplit else "exact",
        "Omega": Omega,
        "lhs": _float_pow(q, m / 2),
        "rhs": rhs,
        "verdict": "pass" if _exceeds_sqrt(q, m, Fraction(rhs)) else "fail",
    }
    if unsplit:
        res["unsplit_digits"] = [len(str(c)) for c in unsplit]
    return res


def _evaluate_config(q, m, primes, degrees, d, g_indices):
    """Sieve report for core (d, g) given the primes of q^m - 1 and the
    degrees of the distinct factors of x^m - 1; g_indices index degrees."""
    d_primes = tuple(p for p in primes if d % p == 0)
    remaining = tuple(p for p in primes if d % p != 0)
    g_set = set(g_indices)
    rem_deg = tuple(deg for i, deg in enumerate(degrees) if i not in g_set)
    config = SieveConfig(
        q=q,
        m=m,
        d=d,
        d_primes=d_primes,
        remaining_primes=remaining,
        g_indices=tuple(g_indices),
        remaining_degrees=rem_deg,
    )
    delta, lam = sieve_lambda(remaining, rem_deg, q)
    W_d = 1 << len(d_primes)
    omega_g = 1 << len(g_indices)
    if lam is None:
        return SieveReport(config, delta, None, W_d, omega_g, None, "delta_nonpositive")
    rhs = 3 * W_d**2 * omega_g * lam
    verdict = "pass" if _exceeds_sqrt(q, m, rhs) else "fail"
    return SieveReport(config, delta, lam, W_d, omega_g, rhs, verdict)


def sieve_report(q, m, d, g="all", cache=None) -> SieveReport:
    """Evaluate the sieve condition q^(m/2) > 3 W(d)^2 Omega(g) Lambda.

    d: divisor of q^m - 1 carrying the sieved-in primes; the remaining
    primes are those of q^m - 1 not dividing d.  g: a divisor spec of
    x^m - 1 read by PolyFactorization.exponents_of ('all', 1, an
    FqPolynomial divisor, or distinct-factor indices).
    """
    nf = factorize_qm_minus_1(q, m, cache=cache)
    if d < 1 or nf.n % d != 0:
        raise ValueError("d must be a positive divisor of q^m - 1")
    pf = factor_xm1(q, m)
    return _evaluate_config(q, m, nf.primes(), pf.degrees, d, pf.factor_subset_of(g))


def lambda_caseA(q, m_prime) -> Fraction:
    """Closed-form Lambda for m' | q - 1: (q^2 - 3q + aq + 2)/(aq - q + 1)."""
    if m_prime < 1 or (q - 1) % m_prime != 0:
        raise DivisibilityViolation(f"{m_prime} does not divide q - 1 = {q - 1}")
    a = (q - 1) // m_prime
    return Fraction(q * q - 3 * q + a * q + 2, a * q - q + 1)


def w_bound_rhs(n) -> float:
    """11.25 * n^(1/5)."""
    return float(W_BOUND_COEFF) * n**0.2


def w_bound_audit(limit=10**6):
    """Exact check W(n) < 11.25 n^(1/5) for 1 <= n <= limit.

    Uses a sieve-built omega table and the integer equivalent
    1024 W^5 < 45^5 n.  Returns the list of violating n (expected empty).
    """
    import numpy as np

    from .numtheory import omega_table

    om = omega_table(limit).astype(np.int64)
    n = np.arange(limit + 1, dtype=np.int64)
    W5 = (np.int64(1) << (5 * om))
    bad = np.nonzero(1024 * W5 >= 45**5 * n)[0]
    return [int(x) for x in bad if x >= 1]


@dataclass(frozen=True)
class ThetaReport:
    q: int
    m: int
    m_prime: int
    u: int
    M: int
    theta: Fraction
    clause: str
    bound: Fraction
    holds: bool


def theta_ratio(q, m) -> ThetaReport:
    """theta(q, m) = M/m with M = #distinct factors of x^m - 1 of degree < u.

    u is the multiplicative order of q mod m' (1 when m' | q - 1), which is
    the largest factor degree: the coset of 1 mod m' has u elements and no
    coset is longer.  Also reports which bound clause applies (1/2, 3/8, or
    1/3) and whether the computed ratio satisfies it.
    """
    pf = factor_xm1(q, m)
    u = pf.degrees[-1]
    M = sum(deg < u for deg in pf.degrees)
    theta = Fraction(M, m)
    g1 = math.gcd(q - 1, pf.m0)
    if m == 2 * g1:
        clause, bound = "m = 2 gcd(q-1, m')", Fraction(1, 2)
    elif m == 4 * g1:
        clause, bound = "m = 4 gcd(q-1, m')", Fraction(3, 8)
    else:
        clause, bound = "otherwise", Fraction(1, 3)
    return ThetaReport(q, m, pf.m0, u, M, theta, clause, bound, theta <= bound)


def lemma55_check(q, m):
    """Empirical check of Lambda <= m' for the degree-< u sieve choice.

    Core g = product of the factors of x^m - 1 of degree < u; the remaining
    factors all have degree exactly u; d = q^m - 1 (no prime terms).
    """
    tr = theta_ratio(q, m)
    applicable = (q - 1) % tr.m_prime != 0
    rem = tuple(deg for deg in factor_xm1(q, m).degrees if deg >= tr.u)
    delta, lam = sieve_lambda((), rem, q)
    return {
        "q": q,
        "m": m,
        "m_prime": tr.m_prime,
        "u": tr.u,
        "k": len(rem),
        "Delta": delta,
        "Lambda": lam,
        "applicable": applicable,
        "holds": (lam is not None and lam <= tr.m_prime),
    }


_THETA_BOUNDS = (Fraction(1, 3), Fraction(3, 8), Fraction(1, 2))


def asymptotic_condition(q, m, theta_bound):
    """q^(m/10) > 3 (11.25)^2 m 2^(m*theta), decided exactly.

    theta_bound must be one of 1/3, 3/8, 1/2 (the theta clause bounds).
    Both sides are raised to lcm(10, denominator) so all exponents are
    integers; the comparison is exact rational.
    """
    theta_bound = Fraction(theta_bound)
    if theta_bound not in _THETA_BOUNDS:
        raise ValueError("theta bound must be 1/3, 3/8 or 1/2")
    t = m * theta_bound
    L = 10 * t.denominator // math.gcd(10, t.denominator)
    coeff = 3 * W_BOUND_COEFF**2 * m
    lhs_L = Fraction(q) ** (m * L // 10)
    rhs_L = coeff**L * Fraction(2) ** int(t * L)
    verdict = "pass" if lhs_L > rhs_L else "fail"
    return {
        "q": q,
        "m": m,
        "theta_bound": theta_bound,
        "lhs": _float_pow(q, m / 10),
        "rhs": float(coeff) * _float_pow(2, float(t)),
        "verdict": verdict,
    }


def auto_sieve(q, m, cache=None) -> SieveReport:
    """Best sieve report of all 2^(t+s) cores (d, g), from (t+1)(s+1) of them.

    t counts the primes of q^m - 1 and s the distinct factors of x^m - 1.
    Best = minimal exact rhs, ties broken by smaller n + k, then smaller d.
    For each n and k only the core that leaves out the n largest primes and
    k factors of largest degree is evaluated.

    Proof.  In the class (n, k), W(d) = 2^(t-n) and Omega(g) = 2^(s-k) are
    fixed and Lambda = (2n+k-1)/Delta + 2 falls strictly as Delta = 1 - 2 sum
    1/p_i - sum q^-deg(g_i) rises, unless 2n + k <= 1, where the class has
    one core (n = k = 0) or all its cores tie (n = 0, k = 1, Lambda = 2).
    Delta is largest for the n largest primes, a unique set, and the k
    largest degrees, a unique multiset: any other, sorted, is pointwise no
    larger and somewhere smaller.  Keys (rhs, n + k, d) never tie across
    classes, as d fixes n and then n + k fixes k.  The core n = k = 0 has
    Delta = 1, so the best has an rhs.

    Equal-degree factors still tie.  For t + s <= HIGH_INDEX_TIES_MAX_TS the
    highest-index ones are left out (the first minimum of the exhaustive
    search in mask order), above it the lowest-index ones (the
    (-degree, coeffs) order); both keep earlier reports unchanged.
    """
    primes = factorize_qm_minus_1(q, m, cache=cache).primes()
    degrees = factor_xm1(q, m).degrees
    t = len(primes)
    s = len(degrees)
    # factors are sorted by (degree, coeffs), so index order is coeffs order
    tie = -1 if t + s <= HIGH_INDEX_TIES_MAX_TS else 1
    left_out = sorted(range(s), key=lambda i: (-degrees[i], tie * i))
    reports = [
        _evaluate_config(q, m, primes, degrees, math.prod(primes[: t - n]), tuple(sorted(left_out[k:])))
        for n in range(t + 1)
        for k in range(s + 1)
    ]
    return min(
        (rep for rep in reports if rep.rhs is not None),
        key=lambda rep: (rep.rhs, rep.config.n + rep.config.k, rep.config.d),
    )


# ---------------------------------------------------------------------------
# published decision tables

# (q, m, d, n, g printed name, g coefficient codes or None for x^m - 1,
#  k, Lambda, q^(m/2), rhs) as printed.
TABLE1 = (
    (3, 18, 14, 4, "x^18-1", None, 0, 12.231, 19683.0, 2348.65),
    (3, 27, 26, 4, "x^27-1", None, 0, 9.18577, 2.76145e6, 881.834),
    (9, 5, 2, 2, "x-1", (2, 1), 0, 7.0939, 243.0, 85.1275),
    (9, 7, 1094, 1, "x^7-1", None, 0, 3.01, 2187.0, 577.92),
    (9, 8, 10, 3, "x^2+1", (1, 0, 1), 4, 19.1006, 6561.0, 916.803),
    (9, 9, 14, 4, "x^9-1", None, 0, 12.231, 19683.0, 782.784),
    (27, 5, 22, 2, "x^5-1", None, 0, 5.54729, 3788.0, 1065.08),
    (27, 8, 10, 5, "x^8-1", None, 0, 20.5968, 531441.0, 31636.7),
)

TABLE2 = (
    (9, 5, 22, 1, "x+2", (2, 1), 1, 4.0682, 243.0, 195.274),
    (9, 7, 1094, 1, "x+2", (2, 1), 1, 4.00367, 2187.0, 192.176),
    (9, 15, 14, 6, "x+2", (2, 1), 1, 23.4645, 1.43487e7, 1126.3),
    (27, 5, 22, 2, "x+2", (2, 1), 1, 67.72974, 3788.0, 2167.35),
    (27, 6, 26, 4, "x+2", (2, 1), 1, 17.5253, 531441.0, 841.214),
    (27, 8, 10, 5, "x^8-1", None, 0, 20.5968, 531441.0, 31636.7),
    (27, 10, 14, 6, "(x+1)(x+2)", (2, 0, 1), 2, 25.2471, 14348907.0, 4847.44),
)

LAMBDA_PRINT_TOL = 5e-4
REL_PRINT_TOL = 1e-3


def reproduce_table(which, cache=None):
    """Recompute a published table row by row, flagging inconsistencies.

    Each row is re-evaluated from the stated (d, g) through the defining
    formulas; printed n, k, Lambda, q^(m/2), rhs values that disagree with
    the recomputation are flagged, with both values reported.
    """
    table = TABLE1 if int(which) == 1 else TABLE2
    rows = []
    for q, m, d, n_p, g_name, g_spec, k_p, lam_p, qm2_p, rhs_p in table:
        pf = factor_xm1(q, m)
        g = "all" if g_spec is None else FqPolynomial(pf.field, g_spec)
        rep = sieve_report(q, m, d, g, cache=cache)
        lam_f = float(rep.Lambda) if rep.Lambda is not None else None
        rhs_f = float(rep.rhs) if rep.rhs is not None else None
        rows.append(
            {
                "q": q,
                "m": m,
                "d": d,
                "g_printed": g_name,
                "n_printed": n_p,
                "n": rep.config.n,
                "n_matches": rep.config.n == n_p,
                "k_printed": k_p,
                "k": rep.config.k,
                "k_matches": rep.config.k == k_p,
                "Lambda_printed": lam_p,
                "Lambda": rep.Lambda,
                "lambda_matches": lam_f is not None and abs(lam_f - lam_p) < LAMBDA_PRINT_TOL,
                "qm2_printed": qm2_p,
                "qm2_matches": abs(rep.lhs - qm2_p) <= REL_PRINT_TOL * qm2_p,
                "rhs_printed": rhs_p,
                "rhs": rep.rhs,
                "rhs_matches": rhs_f is not None and abs(rhs_f - rhs_p) <= REL_PRINT_TOL * rhs_p,
                "lhs": rep.lhs,
                "verdict": rep.verdict,
            }
        )
    return rows
