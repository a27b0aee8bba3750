"""Ground truth by enumeration: counts, witnesses, and pair resolution.

The counting domain always excludes alpha = 0 and the zeros of f, matching
the accounting that the sufficient-condition bounds are derived under.

A quadratic is admissible when a != 0 and b^2 != 4ac, 4 read in F_p: b^2 !=
ac in characteristic 3, b != 0 in characteristic 2.  resolve_pair settles
every admissible triple (a, b, c) of odd characteristic without visiting
each one.  With f = a g, g = x^2 + b'x + c' monic, admissibility is c' !=
b'^2/4, and f(alpha) is primitive exactly when g(alpha) != 0 and
dlog(a) + dlog(g(alpha)) is coprime to N = q^m - 1, which
depends on dlog(a) only modulo rad(N), the product of N's primes.  So the
kernel sweeps the Q^2 - Q admissible monic g, probing the primitive-normal
set in discrete-log order and keeping per g a bitset of the residues mod
rad(N) witnessed so far; residues never witnessed expand to the bad
triples (a, a b', a c').  It works in discrete logs: the Zech table gives
dlog(g(alpha)) with one gather per g and probe, and the residues a value
witnesses depend only on its dlog mod rad, so its tables are O(N) long and
it holds no Q x Q table.  Probes are counted as the plain per-triple scan
counts them, budget cuts land on deterministic b'-block boundaries
independent of worker count, and sweeps checkpoint to JSON for resume.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fqpoly, gf
from .errors import SizeBudgetExceeded, refuse_unwritable
from .numtheory import prime_power_split

SWEEP_FIELD_LIMIT = 4096  # largest field resolve_pair sweeps; larger ones are refused
SWEEP_BLOCK = 8  # b'-values per unit of work / budget granularity
# cover words (rows x words per row) a batch of blocks may hold: wide rounds
# share their fixed cost and release the GIL for longer, and a large-rad
# batch stays one block
SWEEP_BATCH_WORDS = 1 << 16
# plain-scan probes; the largest fields under SWEEP_FIELD_LIMIT, (3,7) and (2187,1), need 2.09e10
RESOLVE_BUDGET = 10**11
# cover rows of this many words or more popcount in one reduce, not word by
# word: through _sweep_kernel the loop wins at 6 and 8 words (F_{13^3}, F_{2^9})
# and the reduce from 9 (F_563: 0.08 s against 0.12 s) to 35 (F_{3^7}: 0.17 s
# against 0.23 s), 2 vCPUs
SWEEP_WIDE_WORDS = 9
SWEEP_POOL_MIN_G = 1 << 17  # fewer monic g sweep in one thread: two sweep them more slowly
# checkpoints from another kernel count sweep positions in other units
SWEEP_KERNEL = "radical-residue-1"
CHECKPOINT_EVERY = 64  # blocks folded between checkpoint writes
CHECKPOINT_KEYS = {"kernel", "q", "m", "sweep_position", "bad_quadratics", "probes_done"}


@dataclass(frozen=True)
class QuadraticSpec:
    """f(x) = a x^2 + b x + c, admissible: a != 0 and b^2 != 4ac (FieldTower.admissible)."""

    a: gf.FieldElement
    b: gf.FieldElement
    c: gf.FieldElement

    def __post_init__(self):
        if not self.a.tower.admissible(self.a.code, self.b.code, self.c.code):
            raise ValueError("inadmissible quadratic: needs a != 0 and b^2 != 4ac")

    @classmethod
    def from_codes(cls, tower, a, b, c):
        return cls(tower.element(a), tower.element(b), tower.element(c))

    def render(self):
        return f"({self.a.render()})x^2 + ({self.b.render()})x + ({self.c.render()})"


class SearchContext:
    """Cached per-tower enumeration machinery."""

    def __init__(self, tower):
        if not tower.has_tables:
            raise SizeBudgetExceeded("enumeration needs log tables (<= 2^24 elements)")
        self.tower = tower
        self.tp = fqpoly.tower_poly(tower)
        Q = tower.Q
        self.primes = tower.n_factorization().primes()
        # N < 2^24 has at most 8 primes: the first nine multiply to 223,092,870
        assert len(self.primes) <= 8, "free_bits holds one bit per prime of N in a uint8"
        # bit i set <=> code is p_i-free (its dlog is not divisible by p_i)
        fb = np.zeros(Q, dtype=np.uint8)
        for i, p in enumerate(self.primes):
            fb |= (tower.log % p != 0).view(np.uint8) << i
        fb[0] = 0
        self.free_bits = fb
        self.all_prime_mask = (1 << len(self.primes)) - 1
        # bit j set <=> ((x^m - 1)/h_j) o alpha != 0, i.e. alpha is off that
        # map's kernel, the multiples of h_j (q^(m - deg h_j) of the Q codes);
        # x^m - 1 has at most m <= n <= 24 distinct factors
        nfactors = len(self.tp.pf.degrees)
        assert nfactors <= 24, "g_bits holds one bit per factor of x^m - 1"
        self.all_g_mask = (1 << nfactors) - 1
        gb = np.full(Q, self.all_g_mask, dtype=np.min_scalar_type(self.all_g_mask))
        for j, mat in enumerate(self.tp.quotient_matrices()):
            gb[tower.kernel_codes(mat)] &= self.all_g_mask ^ (1 << j)
        self.g_bits = gb
        self.prim_mask = fb == self.all_prime_mask
        self.prim_mask[0] = False
        self.normal_mask = gb == self.all_g_mask
        # exp lists the nonzero codes in discrete-log order already
        self.pn_codes = tower.exp[(self.prim_mask & self.normal_mask)[tower.exp]]
        self.rad = math.prod(self.primes)
        self._pair_tables = None
        self._g_masks = {}

    def prime_mask_of(self, e):
        if e < 1 or self.tower.N % e != 0:
            raise ValueError("e must be a positive divisor of q^m - 1")
        return sum(1 << i for i, p in enumerate(self.primes) if e % p == 0)

    def g_mask_of(self, g):
        """Bit j set <=> factor j of x^m - 1 is in the divisor spec g.

        Memoized per spec by value, a list as its tuple; a spec of another
        type or one that does not hash is evaluated every time, and a spec
        that raises is never stored.
        """
        key = tuple(g) if isinstance(g, list) else g
        try:
            return self._g_masks[key]
        except KeyError:
            by_value = isinstance(key, (type(None), int, str, tuple, fqpoly.FqPolynomial))
        except TypeError:  # unhashable
            by_value = False
        mask = sum(1 << j for j in self.tp.pf.factor_subset_of(key))
        if by_value:
            self._g_masks[key] = mask
        return mask

    def pair_tables(self):
        """(zx, rows): the sweep kernel's log-indexed tables, O(N) entries each.

        rows[L] is the cover bitset of a value with dlog L, 0 <= L < 2N: bit
        x is set iff x + L is coprime to rad(N), so it depends on L mod rad
        only; rows[2N] is empty (g(alpha) = 0 witnesses nothing).  A row is
        ceil(rad / 64) words.

        zx lays out the Zech table so that g(alpha) = u + c' has the row
        index L = zx[lcN - lu] + lu with no branch.  lu = log u, or -3N for
        u = 0; lcN = log c' + N, or 3N for c' = 0.  So zx[j] is:
          - zech[j mod N] for j <= 2N, and 2N where zech is -1 (u + c' = 0),
            so that L >= 2N, which the kernel clips to the empty row;
          - 0 for 2N < j < 4N, so that c' = 0 gives L = lu;
          - j - N from 4N on, so that u = 0 gives L = lc (or 2N for c' = 0).
        """
        if self._pair_tables is None:
            N, rad = self.tower.N, self.rad
            zx = np.zeros(6 * N + 1, dtype=np.int64)
            zx[: 2 * N + 1] = self.tower.zech_table()[np.arange(2 * N + 1) % N]
            zx[zx < 0] = 2 * N
            zx[4 * N :] = np.arange(3 * N, 5 * N + 1)
            coprime = np.gcd(np.arange(2 * rad), rad) == 1
            rows = np.zeros((rad + 1, 8 * -(-rad // 64)), dtype=np.uint8)
            rows[:rad, : -(-rad // 8)] = np.packbits(
                sliding_window_view(coprime, rad)[:rad], axis=1, bitorder="little"
            )
            residue = np.append(np.arange(2 * N) % rad, rad)
            self._pair_tables = (zx, rows.view("<u8")[residue])
        return self._pair_tables


def search_context(tower) -> SearchContext:
    return tower.context(SearchContext)


def enumerate_primitive_normal(tower):
    """All primitive normal elements, ascending discrete log."""
    ctx = search_context(tower)
    return [gf.FieldElement(tower, int(c)) for c in ctx.pn_codes]


def _count_masks(ctx, fvals, e1m, e2m, gm):
    """Count alpha != 0, f(alpha) != 0 passing the three freeness masks."""
    fv = fvals[1:]
    dom = fv != 0
    ok = (ctx.free_bits[1:] & e1m) == e1m
    ok &= (ctx.g_bits[1:] & gm) == gm
    ok &= dom
    sel = fv[ok]
    return int(np.count_nonzero((ctx.free_bits[sel] & e2m) == e2m))


def _quadratic(tower, f):
    """f admitted as a QuadraticSpec (a != 0, b^2 != 4ac), else ValueError.

    f is a QuadraticSpec or a triple of codes, elements or digit vectors.
    """
    if isinstance(f, QuadraticSpec):
        return f
    return QuadraticSpec.from_codes(tower, *f)


def exact_count(tower, f, e1, e2, g) -> int:
    """#{alpha : alpha e1-free and g-free, f(alpha) e2-free}.

    alpha = 0 and the zeros of f are excluded from the domain.  f must be
    admissible, as for find_witness.  e1, e2 are divisors of q^m - 1; g is
    a divisor spec of x^m - 1 ('all', 1, an FqPolynomial, or factor indices).
    """
    ctx = search_context(tower)
    fvals = tower.quad_values(*tower.quad_codes(_quadratic(tower, f)))
    return _count_masks(
        ctx, fvals, ctx.prime_mask_of(e1), ctx.prime_mask_of(e2), ctx.g_mask_of(g)
    )


def find_witness(tower, f):
    """First primitive normal alpha (by dlog) with f(alpha) primitive."""
    ctx = search_context(tower)
    a, b, c = tower.quad_codes(_quadratic(tower, f))
    for code in ctx.pn_codes:
        val = tower.add_codes(
            tower.add_codes(
                tower.mul_codes(a, tower.mul_codes(int(code), int(code))),
                tower.mul_codes(b, int(code)),
            ),
            c,
        )
        if ctx.prim_mask[val]:
            return gf.FieldElement(tower, int(code))
    return None


def verify_sieve_inequality(tower, f, d, g) -> dict:
    """Both sides of the sieve inequality with exact counts.

    d: divisor of q^m - 1 (core primes); g: core divisor spec of x^m - 1.
    The remaining primes/factors are the complements.  Returns lhs, rhs,
    the term breakdown, and whether lhs >= rhs.  f must be admissible
    (a != 0, b^2 != 4ac), as for exact_count.
    """
    ctx = search_context(tower)
    fvals = tower.quad_values(*tower.quad_codes(_quadratic(tower, f)))
    dm = ctx.prime_mask_of(d) if d > 1 else 0
    gm = ctx.g_mask_of(g)
    rem_primes = [i for i, p in enumerate(ctx.primes) if d % p != 0]
    rem_factors = [j for j in range(len(ctx.tp.pf.degrees)) if not (gm >> j) & 1]
    n = len(rem_primes)
    k = len(rem_factors)
    full = _count_masks(ctx, fvals, ctx.all_prime_mask, ctx.all_prime_mask, ctx.all_g_mask)
    base = _count_masks(ctx, fvals, dm, dm, gm)
    terms = []
    rhs = -(2 * n + k - 1) * base
    for i in rem_primes:
        t1 = _count_masks(ctx, fvals, dm | (1 << i), dm, gm)
        t2 = _count_masks(ctx, fvals, dm, dm | (1 << i), gm)
        terms.append((f"p={ctx.primes[i]}", t1, t2))
        rhs += t1 + t2
    for j in rem_factors:
        t3 = _count_masks(ctx, fvals, dm, dm, gm | (1 << j))
        terms.append((f"g_{j}", t3, None))
        rhs += t3
    return {
        "lhs": full,
        "rhs": rhs,
        "base": base,
        "n": n,
        "k": k,
        "terms": terms,
        "holds": full >= rhs,
    }


# ---------------------------------------------------------------------------
# pair resolution


@dataclass
class PairReport:
    q: int
    m: int
    status: str  # resolved_no_exception | exception_found | budget_exhausted
    quadratics_checked: int
    probes_done: int
    bad_quadratics: list
    witnesses: list
    elapsed: float
    budget: int
    # b' positions swept out of Q (names kept for CLI and JSON compatibility)
    sweep_position: int
    total_a: int

    def to_dict(self):
        return asdict(self) | {
            "bad_quadratics": [list(t) for t in self.bad_quadratics],
            "elapsed": round(self.elapsed, 3),
        }


def _sweep_context(p, r, m):
    if p == 2:
        raise ValueError("pair sweeps need odd p: for p = 2, b^2 != 4ac reads b != 0")
    if p ** (r * m) > SWEEP_FIELD_LIMIT:
        raise SizeBudgetExceeded(f"pair sweeps capped at {SWEEP_FIELD_LIMIT} elements")
    ctx = search_context(gf.build_extension(p, r, m))
    ctx.pair_tables()
    return ctx


def _batch_blocks(ctx):
    """Blocks per batch: as many as keep its cover under SWEEP_BATCH_WORDS, at least one."""
    block_words = SWEEP_BLOCK * (ctx.tower.Q - 1) * -(-ctx.rad // 64)
    return max(1, SWEEP_BATCH_WORDS // block_words)


def _sweep_batch(ctx, ib0, ib1, cut=None):
    """Worker: sweep b'-positions [ib0, ib1) as one batch of rows.

    Returns one (bads, probes) pair per SWEEP_BLOCK block from ib0, in
    order; a block's pair does not depend on which blocks share its batch.
    Once the event cut is set it returns [] at once: nothing reads it.
    """
    if cut is not None and cut.is_set():
        return []
    return _sweep_kernel(ctx, ib0, ib1)[0]


def _u_logs(tower, ka, bvals):
    """lu[i, k] = log(alpha^2 + alpha b') for alpha = g^ka[i], b' held as bvals[k].

    b' is held as its log + N, or 3N for 0.  lu is 2 ka for b' = 0, else
    2 ka + zech[log b' - ka] mod N, and -3N where that zech is -1 (u = 0).
    lu is int64, as all of the kernel's index arithmetic, whatever ka's dtype.
    """
    N, ka = tower.N, ka.astype(np.int64)[:, None]
    z = tower.zech_table()[(bvals - N - ka) % N]
    lu = np.where(z < 0, -3 * N, (2 * ka + z) % N)
    lu[:, bvals == 3 * N] = 2 * ka % N
    return lu


def _sweep_kernel(ctx, ib0, ib1, want_samples=0):
    """Sweep b'-positions [ib0, ib1) as one batch of rows, one per monic g.

    Each admissible monic g = x^2 + b'x + c' (c' != b'^2/4) carries a cover:
    the residues x mod rad(N) for which some alpha probed so far makes
    a g(alpha) primitive whenever dlog(a) = x (mod rad).  Round i ORs in
    the cover row of g(alpha_i); the residues left uncovered after the last
    round expand to the bad triples (a, a b', a c').  Each round counts the
    (f, alpha) probes of the plain scan: N / rad for every uncovered residue
    of every g.  A row keeps the index of its b' in the batch, which names
    its SWEEP_BLOCK block.  Returns (blocks, samples): blocks holds one
    (bads, probes) pair per block, in order.

    Everything is in logs.  A row holds lcN = log c' + N (3N for c' = 0);
    round i takes lu = log(alpha_i^2 + alpha_i b') for the row's b' (-3N for
    0) and reads the cover row L = zx[lcN - lu] + lu, which pair_tables lays
    out so that the zero cases need no branch.

    Rows whose cover is full stay in place until they are half or more of
    the rows, then are dropped all at once.  That changes nothing: a full
    row counts no probe, gains no fresh residue, stays full and expands to
    no bad triple, and dropping keeps the order of the rest.  While samples
    holds fewer than want_samples witnesses, round i adds one: from the
    first row whose cover grew, the lowest residue x it newly covered, as
    (a, a b', a c', alpha_i, a g(alpha_i)) with a = exp[x].  Only one-block
    calls ask for samples, so they are that block's.
    """
    tower = ctx.tower
    zx, rows = ctx.pair_tables()
    rad, words = ctx.rad, rows.shape[1]
    N, exp = tower.N, tower.exp
    per_residue = N // rad
    # b' and c' sweep order: zero first, then ascending discrete log.  A value
    # is held as lv = its log + N, or 3N for 0, so exp4[x + lv] = g^x times it
    order = np.arange(N - 1, 2 * N)
    order[0] = 3 * N
    exp4 = np.concatenate((exp, exp, exp, np.zeros(N, dtype=exp.dtype)))
    bvals = order[ib0:ib1]
    nb = -(-len(bvals) // SWEEP_BLOCK)
    lu = _u_logs(tower, tower.log[ctx.pn_codes], bvals)
    bi = np.repeat(np.arange(len(bvals)), N + 1)
    cc = np.tile(order, len(bvals))
    # admissible: c' != b'^2/4, whose lv is (2 log b' - log 4) mod N + N, or 3N for b' = 0
    sq4 = np.where(bvals == 3 * N, 3 * N, (2 * (bvals - N) - tower.log[4 % tower.p]) % N + N)
    adm = cc != sq4[bi]
    bi, cc = bi[adm], cc[adm]
    # each round writes the new cover into spare, then the two swap
    cover = np.zeros((len(bi), words), dtype=rows.dtype)
    spare = np.empty_like(cover)
    # counts of uncovered residues; rad <= N < SWEEP_FIELD_LIMIT fits int16
    uncovered = np.full(len(bi), rad, dtype=np.int16)
    seen = np.zeros(len(bi), dtype=np.int64)  # per row: uncovered residues summed over rounds
    probes = np.zeros(nb, dtype=np.int64)
    samples = []
    for i, alpha in enumerate(ctx.pn_codes.tolist()):
        if not len(bi):
            break
        seen += uncovered
        lui = lu[i][bi]
        L = zx[cc - lui]
        L += lui
        new = rows.take(L, axis=0, out=spare, mode="clip")  # clip: unbuffered, L >= 2N empty
        new |= cover
        if words >= SWEEP_WIDE_WORDS:
            covered = np.add.reduce(np.bitwise_count(new), axis=1, dtype=np.int16)
        else:
            covered = np.bitwise_count(new[:, 0]).astype(np.int16)
            for w in range(1, words):
                covered += np.bitwise_count(new[:, w])
        unc = rad - covered
        if len(samples) < want_samples and (grew := unc < uncovered).any():
            # the first residue x newly witnessed; a = exp[x] has dlog x
            j = int(np.argmax(grew))
            fresh = new[j] & ~cover[j]
            x = int(np.argmax(np.unpackbits(fresh.view(np.uint8), bitorder="little")))
            f = (exp[x], exp4[x + bvals[bi[j]]], exp4[x + cc[j]])
            samples.append((*map(int, f), alpha, int(exp[(x + L[j]) % N])))
        cover, spare, uncovered = new, cover, unc
        if 2 * np.count_nonzero(uncovered) <= len(uncovered):
            full = uncovered == 0
            np.add.at(probes, bi[full] // SWEEP_BLOCK, seen[full])
            live = np.flatnonzero(~full)
            bi, cc, uncovered, seen = bi[live], cc[live], uncovered[live], seen[live]
            n = len(live)
            cover, spare = cover.take(live, axis=0, out=spare[:n], mode="clip"), cover[:n]
    np.add.at(probes, bi // SWEEP_BLOCK, seen)
    bads = [[] for _ in range(nb)]
    if len(bi):
        clear = np.unpackbits(cover.view(np.uint8), axis=1, bitorder="little")[:, :rad] == 0
        gi, x = np.nonzero(clear)
        # a = g^la for every la = x (mod rad)
        la = (x[:, None] + rad * np.arange(per_residue)).ravel()
        gi = np.repeat(gi, per_residue)
        bad = zip(
            (bi[gi] // SWEEP_BLOCK).tolist(),
            exp[la].tolist(),
            exp4[la + bvals[bi[gi]]].tolist(),
            exp4[la + cc[gi]].tolist(),
        )
        for k, *t in bad:
            bads[k].append(tuple(t))
    return [(bads[k], per_residue * int(probes[k])) for k in range(nb)], samples


def _write_checkpoint(path, q, m, sweep_position, bad, probes):
    payload = {
        "kernel": SWEEP_KERNEL,
        "q": q,
        "m": m,
        "sweep_position": sweep_position,
        "bad_quadratics": [list(t) for t in bad],
        "probes_done": probes,
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def _in_range(v, hi):
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= hi


def _read_checkpoint(path, q, m):
    """The checkpoint at path if this kernel wrote it for (q, m), None if no file is there.

    Any other file raises ValueError naming it and the reason, so resuming
    leaves it as it is: one that is not UTF-8, not JSON or not a JSON
    object; one of another sweep (with q, m and sweep_position, but a
    kernel, q or m that differs; a missing kernel is the format from before
    kernels were named); one short of a key; and one with a value out of
    range: sweep_position must be in [0, Q], probes_done >= 0 and
    bad_quadratics a list of 3-code lists, each code in [0, Q).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    except UnicodeDecodeError:
        raise ValueError(f"checkpoint {path} is not UTF-8") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"checkpoint {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"checkpoint {path} is not a JSON object")
    if {"q", "m", "sweep_position"} <= set(data):
        differ = [f"{key} {data.get(key)!r}, not {want!r}"
                  for key, want in (("kernel", SWEEP_KERNEL), ("q", q), ("m", m))
                  if data.get(key) != want]
        if differ:
            raise ValueError(f"checkpoint {path} is of another sweep: {'; '.join(differ)}")
    missing = sorted(CHECKPOINT_KEYS - set(data))
    if missing:
        raise ValueError(f"checkpoint {path} lacks {', '.join(missing)}")
    Q, bad = q**m, data["bad_quadratics"]
    position, probes = data["sweep_position"], data["probes_done"]
    if not _in_range(position, Q):
        reason = f"sweep_position {position!r} is not an integer in [0, {Q}]"
    elif not _in_range(probes, math.inf):
        reason = f"probes_done {probes!r} is not an integer >= 0"
    elif not (isinstance(bad, list) and all(
        isinstance(f, list) and len(f) == 3 and all(_in_range(x, Q - 1) for x in f) for f in bad
    )):
        reason = f"bad_quadratics is not a list of three codes in [0, {Q})"
    else:
        return data
    raise ValueError(f"checkpoint {path} is out of range: {reason}")


@contextmanager
def _ordered_map(fn, items, threads):
    """Yield an iterator of fn(item) over items, in order, on `threads` threads.

    The workers are threads of this process: they share the tower registry
    and every context built on it, so nothing is forked, copied or
    inherited.  Under two threads it maps lazily in this thread.  Leaving
    the block cancels the items no thread has started and joins the running
    ones.
    """
    if threads < 2:
        yield map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor  # imported only where a pool starts

    pool = ThreadPoolExecutor(threads)
    try:
        yield pool.map(fn, items)
    finally:
        pool.shutdown(cancel_futures=True)


def resolve_pair(
    q,
    m,
    budget=RESOLVE_BUDGET,
    threads=None,
    checkpoint_path=None,
    witness_samples=10,
) -> PairReport:
    """Definitively resolve the pair (q, m) by full coefficient sweep.

    Decides every admissible f = (a, b, c), a in F*_{q^m}, b, c in F_{q^m},
    b^2 != 4ac, as if probing the primitive-normal set in dlog order until f
    has a witness; f with no witness is recorded as bad.  The sweep runs
    over monic g = f / a in blocks of b' (see the module docstring for why
    that loses nothing), evaluating g(alpha) in logs through the Zech
    table.  The budget counts probes of the plain per-triple
    scan, not kernel work: one probe is one (f, alpha) primitivity test,
    each f taking the primitive-normal alpha in dlog order up to its first
    witness, or all of them if it has none.  The whole sweeps of (3,7) and
    (2187,1) count 20,921,201,317 and 20,922,951,606 probes, so the default
    lets every field under SWEEP_FIELD_LIMIT finish; exhaustion is a status,
    not an error.  Fields above SWEEP_FIELD_LIMIT raise SizeBudgetExceeded
    before any sweeping, and a checkpoint_path that is a directory, whose
    PATH.tmp (written before each replace) is a directory, or that is in no
    existing directory or in one this process may not write raises
    ValueError before any table is built, as do a checkpoint file that
    cannot be resumed (see _read_checkpoint) and characteristic 2.

    Only the leading blocks' witness samples reach the report, so those
    blocks sweep in this thread, one kernel call each, until witness_samples
    are kept; the rest sweep without samples, in batches of _batch_blocks
    blocks, on `threads` threads of a pool that share ctx, or one batch at
    a time in this thread.  Fields with fewer than SWEEP_POOL_MIN_G monic g
    always sweep in this thread.  Blocks are folded in one by one, in
    order, so the report does not depend on threads.  Once the budget cuts
    the sweep, batches not started are cancelled and those that start
    anyway return at once.
    """
    p, r = prime_power_split(q)
    if checkpoint_path:
        refuse_unwritable(checkpoint_path, "checkpoint path", ValueError)
    ck = checkpoint_path and _read_checkpoint(checkpoint_path, q, m)
    # every table the kernel reads is built here, before any thread starts
    ctx = _sweep_context(p, r, m)
    tower = ctx.tower
    start = time.monotonic()
    Q = tower.Q

    sweep_position, probes = (ck["sweep_position"], ck["probes_done"]) if ck else (0, 0)
    bad = [tuple(t) for t in ck["bad_quadratics"]] if ck else []

    samples = []
    blocks_done = 0
    exhausted = False

    def consume(block):
        """Fold in one block's (bads, probes); False once the budget cuts the sweep."""
        nonlocal probes, sweep_position, blocks_done, exhausted
        b_bads, b_probes = block
        bad.extend(b_bads)
        probes += b_probes
        sweep_position += min(SWEEP_BLOCK, Q - sweep_position)
        blocks_done += 1
        if checkpoint_path and blocks_done % CHECKPOINT_EVERY == 0:
            _write_checkpoint(checkpoint_path, q, m, sweep_position, bad, probes)
        exhausted = probes >= budget and sweep_position < Q
        return not exhausted

    # only the leading blocks' samples reach the report: sweep them here, one
    # at a time, and every later block without samples
    while not exhausted and sweep_position < Q and len(samples) < witness_samples:
        end = min(sweep_position + SWEEP_BLOCK, Q)
        (block,), got = _sweep_kernel(ctx, sweep_position, end, witness_samples - len(samples))
        samples += got
        consume(block)
    stop = sweep_position if exhausted else Q
    if threads is None:
        threads = os.cpu_count() or 1
    span = SWEEP_BLOCK * _batch_blocks(ctx)
    spans = [(ib, min(ib + span, Q)) for ib in range(sweep_position, stop, span)]
    threads = 1 if Q * Q < SWEEP_POOL_MIN_G else min(threads, len(spans))
    cut = threading.Event()
    with _ordered_map(lambda ibs: _sweep_batch(ctx, *ibs, cut), spans, threads) as results:
        for blocks in results:
            if not all(map(consume, blocks)):
                cut.set()
                break

    bad.sort(key=lambda t: _sweep_sort_key(tower, t))
    status = ("budget_exhausted" if exhausted
              else "exception_found" if bad else "resolved_no_exception")
    if checkpoint_path:
        _write_checkpoint(checkpoint_path, q, m, sweep_position, bad, probes)

    witnesses = [
        {
            "f": [a, b, c],
            "f_render": QuadraticSpec.from_codes(tower, a, b, c).render(),
            "alpha": al,
            "alpha_render": tower.element(al).render(),
            "f_alpha": fv,
        }
        for (a, b, c, al, fv) in samples
    ]
    return PairReport(
        q=q,
        m=m,
        status=status,
        # each b' position holds Q - 1 admissible monic g, each g N triples
        quadratics_checked=sweep_position * (Q - 1) * tower.N,
        probes_done=probes,
        bad_quadratics=bad,
        witnesses=witnesses,
        elapsed=time.monotonic() - start,
        budget=budget,
        sweep_position=sweep_position,
        total_a=Q,
    )


def _sweep_sort_key(tower, triple):
    """(dlog a, dlog b, dlog c), -1 for a zero b or c: the sweep's order."""
    return tuple(int(tower.log[x]) if x else -1 for x in triple)


# ---------------------------------------------------------------------------
# the +-f(+-x) symmetry reduction and its validation


def quadratic_orbit(tower, a, b, c):
    """The four coefficient triples {f(x), f(-x), -f(x), -f(-x)}."""
    na, nb, nc = tower.neg_code(a), tower.neg_code(b), tower.neg_code(c)
    return {(a, b, c), (a, nb, c), (na, nb, nc), (na, b, nc)}


def validate_quadratic_symmetry(tower) -> dict:
    """Check whether witness-existence is constant on +-f(+-x) orbits.

    Sweeping one representative per orbit is sound only when no orbit mixes
    witnessed and bad triples.  That depends on how negation meets
    primitivity (whether -1 is an even power of the generator, i.e. on q^m
    mod 4), so it is checked per field against the full sweep: an orbit is
    mixed when it holds one of resolve_pair's bad triples but not only bad
    ones.  Fields above SWEEP_FIELD_LIMIT raise SizeBudgetExceeded.
    """
    rep = resolve_pair(tower.q, tower.m, threads=1, witness_samples=0)
    bad = set(rep.bad_quadratics)
    orbits = (quadratic_orbit(tower, *f) for f in bad)
    mixed = sorted({tuple(sorted(orbit)) for orbit in orbits if not orbit <= bad})
    return {
        "q": tower.q,
        "m": tower.m,
        "orbits_checked": rep.quadratics_checked,
        "mixed_orbits": [list(orbit) for orbit in mixed],
        "reduction_valid": not mixed,
    }
