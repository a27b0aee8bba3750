import json
import math
import os
import random
import signal
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ffpn.search as search_mod
from ffpn import gf
from ffpn.chars import (
    AddCharacter, MultCharacter, char_context, char_sum, freeness_indicator, trivial_mult,
)
from ffpn.errors import SizeBudgetExceeded
from ffpn.fqpoly import (
    FqPolynomial, factor_xm1, is_g_free, poly_stats, tower_poly,
)
from ffpn.gf import TABLE_LIMIT, build_extension
from ffpn.numtheory import divisors_of, factorize, is_prime, multiplicative_stats
from ffpn.sieve import sieve_report
from ffpn.search import (
    QuadraticSpec,
    quadratic_orbit,
    validate_quadratic_symmetry,
    enumerate_primitive_normal,
    exact_count,
    find_witness,
    resolve_pair,
    search_context,
    verify_sieve_inequality,
)

TWELVE_F3_QUADRATICS = [
    (1, 0, 1), (1, 0, 2), (2, 0, 1), (2, 0, 2),
    (1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0),
    (1, 1, 2), (1, 2, 2), (2, 2, 1), (2, 1, 1),
]


def test_quadratic_admission():
    t = build_extension(3, 1, 2)
    with pytest.raises(ValueError):
        QuadraticSpec.from_codes(t, 0, 1, 1)  # a = 0
    with pytest.raises(ValueError):
        QuadraticSpec.from_codes(t, 1, 1, 1)  # b^2 = ac
    QuadraticSpec.from_codes(t, 1, 1, 0)  # c = 0 with b != 0 is fine
    with pytest.raises(ValueError):
        QuadraticSpec.from_codes(t, 1, 0, 0)  # c = 0 with b = 0 is not
    # the rule is b^2 != 4ac, 4 read in F_p: b^2 != ac in characteristic 3
    for a, b, c in np.ndindex(t.Q, t.Q, t.Q):
        assert t.admissible(a, b, c) == (a != 0 and t.mul_codes(b, b) != t.mul_codes(a, c))
    # b != 0 in characteristic 2
    t = build_extension(2, 1, 2)
    for a, b, c in np.ndindex(t.Q, t.Q, t.Q):
        assert t.admissible(a, b, c) == (a != 0 and b != 0)
    # F_25: 4 = -1, so 19 x^2 + 11 x + 11 has b^2 = 4ac though b^2 != ac
    t = build_extension(5, 1, 2)
    assert t.mul_codes(11, 11) == t.mul_codes(4, t.mul_codes(19, 11)) != t.mul_codes(19, 11)
    with pytest.raises(ValueError):
        QuadraticSpec.from_codes(t, 19, 11, 11)


def test_enumerate_primitive_normal_counts():
    assert len(enumerate_primitive_normal(build_extension(3, 1, 1))) == 1
    pn9 = enumerate_primitive_normal(build_extension(3, 1, 2))
    assert len(pn9) == 4
    pn27 = enumerate_primitive_normal(build_extension(3, 1, 3))
    assert len(pn27) == 9
    t = build_extension(3, 1, 3)
    dlogs = [t.dlog_code(e.code) for e in pn27]
    assert dlogs == sorted(dlogs)


def test_exact_count_trivial_freeness():
    t = build_extension(3, 2, 2)  # F81 over F9
    # f = x^2 - 1: 81 minus alpha = 0 minus the two roots
    assert exact_count(t, (1, 0, 2), 1, 1, 1) == 78


def test_exact_count_definitional_consistency():
    rng = random.Random(31)
    for (p, r, m) in [(3, 1, 3), (3, 1, 4)]:
        t = build_extension(p, r, m)
        ctx = search_context(t)
        pn = [e.code for e in enumerate_primitive_normal(t)]
        for _ in range(10):
            a = rng.randrange(1, t.Q)
            b = rng.randrange(t.Q)
            c = rng.randrange(t.Q)
            if t.mul_codes(b, b) == t.mul_codes(a, c):
                continue
            full = exact_count(t, (a, b, c), t.N, t.N, "all")
            brute = 0
            zeros = 0
            for code in pn:
                val = t.add_codes(
                    t.add_codes(
                        t.mul_codes(a, t.mul_codes(code, code)), t.mul_codes(b, code)
                    ),
                    c,
                )
                if val == 0:
                    zeros += 1
                elif ctx.prim_mask[val]:
                    brute += 1
            assert full == brute
            # e2 = 1 counts the whole primitive-normal set minus zeros of f
            assert exact_count(t, (a, b, c), t.N, 1, "all") == len(pn) - zeros
            # witness exists iff the full count is positive
            w = find_witness(t, (a, b, c))
            assert (w is not None) == (full > 0)


def _geq_times_sqrt(x: Fraction, y: Fraction, s: int) -> bool:
    """x >= y*sqrt(s), exactly."""
    if y == 0:
        return x >= 0
    if y > 0:
        return x >= 0 and x * x >= y * y * s
    return x >= 0 or x * x <= y * y * s


def _theorem_bound_holds(t, count, e1, e2, g_parts):
    q_m = t.Q
    th1 = multiplicative_stats(factorize(e1)).theta
    th2 = multiplicative_stats(factorize(e2)).theta
    st = poly_stats(t.q, g_parts)
    A = th1 * th2 * st.Theta
    W1 = multiplicative_stats(factorize(e1)).W
    W2 = multiplicative_stats(factorize(e2)).W
    B = 3 * W1 * W2 * st.Omega
    # count >= A*q^m - A*B*q^(m/2)
    return _geq_times_sqrt(Fraction(count) - A * q_m, -A * B, q_m)


def test_theorem_bound_sample():
    rng = random.Random(77)
    t = build_extension(3, 1, 3)
    pf = factor_xm1(3, 3)
    divisor_items = pf.divisors()
    for _ in range(10):
        a = rng.randrange(1, t.Q)
        b = rng.randrange(t.Q)
        c = rng.randrange(t.Q)
        if t.mul_codes(b, b) == t.mul_codes(a, c):
            continue
        for e1 in divisors_of(t.N):
            for e2 in divisors_of(t.N):
                for gpoly, exps in divisor_items:
                    parts = [
                        (pf.factors[i].degree, e) for i, e in enumerate(exps) if e > 0
                    ]
                    cnt = exact_count(t, (a, b, c), e1, e2, gpoly)
                    assert _theorem_bound_holds(t, cnt, e1, e2, parts)


def test_sieve_inequality_spec_cases():
    t81 = build_extension(3, 1, 4)
    rng = random.Random(5)
    # n = 0 cases and a genuine remainder case, on x^2 + 1
    res = verify_sieve_inequality(t81, (1, 0, 1), 10, "all")
    assert res["n"] == 0 and res["holds"]  # d = 10 carries both primes of 80
    res = verify_sieve_inequality(t81, (1, 0, 1), 2, "all")
    assert res["n"] == 1 and res["holds"]  # 5 remains
    for _ in range(10):
        a = rng.randrange(1, 81)
        b = rng.randrange(81)
        c = rng.randrange(81)
        if t81.mul_codes(b, b) == t81.mul_codes(a, c):
            continue
        for d in (1, 2, 5, 10):
            for g in ((), (0,), (0, 1), (0, 1, 2)):
                assert verify_sieve_inequality(t81, (a, b, c), d, g)["holds"]


def test_scaling_preserves_normality():
    for (p, r, m) in [(3, 1, 3), (3, 1, 4)]:
        t = build_extension(p, r, m)
        ctx = search_context(t)
        sub = [c for c in t.subfield_codes() if c != 0]
        for code in range(t.Q):
            for lam in sub:
                assert (
                    ctx.normal_mask[t.mul_codes(lam, code)] == ctx.normal_mask[code]
                )


def test_resolve_pair_3_2_ground_truth():
    rep = resolve_pair(3, 2, threads=1)
    assert rep.status == "exception_found"
    assert rep.quadratics_checked == 576
    assert len(rep.bad_quadratics) == 32
    # every reported bad triple really has no witness
    t = build_extension(3, 1, 2)
    for (a, b, c) in rep.bad_quadratics:
        assert find_witness(t, (a, b, c)) is None


def test_resolve_pair_3_3_ground_truth():
    rep = resolve_pair(3, 3, threads=1)
    assert rep.status == "exception_found"
    assert len(rep.bad_quadratics) == 31
    f3_bad = [t3 for t3 in rep.bad_quadratics if all(x < 3 for x in t3)]
    assert f3_bad == [(1, 1, 2)]  # x^2 + x - 1


def test_twelve_f3_quadratics_on_f27():
    t = build_extension(3, 1, 3)
    missing = [f for f in TWELVE_F3_QUADRATICS if find_witness(t, f) is None]
    assert missing == [(1, 1, 2)]


@pytest.mark.parametrize("blocks_per_batch", [1, 4, 1000])
def test_resolve_pair_pool_matches_in_process(monkeypatch, blocks_per_batch):
    # (3,5) is one batch at the real width, so it sweeps in this thread:
    # force the pool.  On 2 threads the blocks after the sample block go out
    # 1 or 4 per batch, or all in one batch, which then sweeps in this thread
    monkeypatch.setattr(search_mod, "_batch_blocks", lambda ctx: blocks_per_batch)
    r1 = resolve_pair(3, 5, threads=1)
    r2 = resolve_pair(3, 5, threads=2)
    assert r1.to_dict() | {"elapsed": 0} == r2.to_dict() | {"elapsed": 0}


def test_pooled_runs_never_fork(monkeypatch):
    # sweep workers are threads of this process: with fork refused, a
    # forced pool still gives the in-process result, and its work runs off
    # the calling thread
    import threading

    def no_fork():
        raise AssertionError("a pooled run forked")

    sweep_threads = set()
    sweep_kernel = search_mod._sweep_kernel

    def spy(*args, **kwargs):
        sweep_threads.add(threading.get_ident())
        return sweep_kernel(*args, **kwargs)

    one = resolve_pair(3, 5, threads=1).to_dict() | {"elapsed": 0}
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(search_mod, "_batch_blocks", lambda ctx: 1)
    monkeypatch.setattr(search_mod, "_sweep_kernel", spy)
    assert resolve_pair(3, 5, threads=2).to_dict() | {"elapsed": 0} == one
    assert sweep_threads - {threading.get_ident()}


def test_small_runs_stay_on_the_calling_thread(monkeypatch):
    # (3,5) is one batch at the real width, so it starts no thread, whatever
    # `threads` says; at one block per batch it starts one pool of 2 threads
    import concurrent.futures
    import threading

    pools = []
    executor = concurrent.futures.ThreadPoolExecutor

    def spy(threads):
        pools.append(threads)
        return executor(threads)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", spy)
    before = threading.active_count()
    one = resolve_pair(3, 5, threads=2).to_dict() | {"elapsed": 0}
    assert pools == [] and threading.active_count() == before
    monkeypatch.setattr(search_mod, "_batch_blocks", lambda ctx: 1)
    assert resolve_pair(3, 5, threads=2).to_dict() | {"elapsed": 0} == one
    assert pools == [2] and threading.active_count() == before


def test_batch_width_follows_the_cover_budget():
    # (3,7): rad = 2186, 35 words per row, so one block of 8 x 2186 rows
    # is over the budget alone; (27,2): rad = 182, 3 words per row
    assert search_mod._batch_blocks(search_mod._sweep_context(3, 1, 7)) == 1
    assert search_mod._batch_blocks(search_mod._sweep_context(3, 3, 2)) >= 2


@pytest.mark.parametrize("p,r,m", [(3, 1, 4), (3, 2, 2), (3, 1, 5)])
def test_batched_run_equals_single_block_sweeps(p, r, m):
    # a batch's per-block (bads, probes) do not depend on which blocks share
    # its rows, at the width the cover budget gives and at narrower ones;
    # Q = 81 and 243 end in a ragged block
    Q = p ** (r * m)
    step = search_mod.SWEEP_BLOCK
    ctx = search_mod._sweep_context(p, r, m)
    single = []
    for ib in range(0, Q, step):
        blocks, samples = search_mod._sweep_kernel(ctx, ib, min(ib + step, Q))
        assert len(blocks) == 1 and samples == []
        single += blocks

    def batches_from(ib0, span):
        out = []
        for ib in range(ib0, Q, span):
            out += search_mod._sweep_kernel(ctx, ib, min(ib + span, Q))[0]
        return out

    for width in sorted({2, 3, search_mod._batch_blocks(ctx)}):
        assert batches_from(0, width * step) == single
        # batches that start mid-sweep, on a block boundary
        assert batches_from(3 * step, width * step) == single[3:]


def test_pool_budget_cut_matches_in_process(monkeypatch):
    # the cut lands on the first block whose probes reach the budget, even
    # inside a pooled batch of several blocks
    import ffpn.search as search_mod

    monkeypatch.setattr(search_mod, "_batch_blocks", lambda ctx: 4)
    budget = 400_000
    cut = [resolve_pair(3, 4, budget=budget, threads=t) for t in (1, 2)]
    one, pool = ({k: d[k] for k in ("status", "sweep_position", "probes_done", "bad_quadratics")}
                 for d in (rep.to_dict() for rep in cut))
    assert pool == one
    step = search_mod.SWEEP_BLOCK
    ctx = search_mod._sweep_context(3, 1, 4)
    probes = position = 0
    while probes < budget:
        (block,), _ = search_mod._sweep_kernel(ctx, position, position + step)
        probes += block[1]
        position += step
    assert (one["status"], one["sweep_position"], one["probes_done"]) == (
        "budget_exhausted", position, probes
    )
    assert 0 < position < 81


def test_pool_budget_cuts_do_not_hang():
    # a cut leaves the pool's block, which cancels the batches not started
    # and joins the threads still sweeping; 80 pooled cuts in a fresh
    # interpreter must each end with the frozen probe count and leave no
    # thread behind (a forked pool once hung 3 runs in 5 when terminated)
    code = (
        "import threading\n"
        "import ffpn.search as s\n"
        "s._batch_blocks = lambda ctx: 1\n"
        "for _ in range(80):\n"
        "    rep = s.resolve_pair(3, 4, budget=400_000, threads=2, witness_samples=0)\n"
        "    assert rep.probes_done == 512_256\n"
        "    assert threading.active_count() == 1\n"
    )
    src = os.path.dirname(os.path.dirname(search_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, timeout=60, check=True)


def test_killed_sweep_resumes_from_its_checkpoint(tmp_path):
    # the child writes its first checkpoint after 2 blocks, then dies at
    # once
    ck = str(tmp_path / "ck.json")
    code = (
        "import os, signal, sys\n"
        "import ffpn.search as s\n"
        "s.CHECKPOINT_EVERY = 2\n"
        "write = s._write_checkpoint\n"
        "def write_and_die(*args):\n"
        "    write(*args)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "s._write_checkpoint = write_and_die\n"
        "s.resolve_pair(3, 4, threads=1, checkpoint_path=sys.argv[1])\n"
    )
    src = os.path.dirname(os.path.dirname(search_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, ck], env=env, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    with open(ck, encoding="utf-8") as fh:
        assert json.load(fh)["sweep_position"] == 2 * search_mod.SWEEP_BLOCK
    resumed = resolve_pair(3, 4, threads=1, checkpoint_path=ck).to_dict()
    full = resolve_pair(3, 4, threads=1).to_dict()
    skip = {"elapsed", "witnesses"}
    assert {k: v for k, v in resumed.items() if k not in skip} == {
        k: v for k, v in full.items() if k not in skip
    }


def test_resolve_pair_deterministic_and_idempotent():
    r1 = resolve_pair(3, 2, threads=1)
    r2 = resolve_pair(3, 2, threads=2)
    assert r1.bad_quadratics == r2.bad_quadratics
    assert r1.probes_done == r2.probes_done
    assert r1.quadratics_checked == r2.quadratics_checked
    assert [w["f"] for w in r1.witnesses] == [w["f"] for w in r2.witnesses]


def test_resolve_pair_budget_and_resume(tmp_path):
    ck = str(tmp_path / "ck.json")
    partial = resolve_pair(3, 3, budget=5000, threads=1, checkpoint_path=ck)
    assert partial.status == "budget_exhausted"
    assert 0 < partial.sweep_position < partial.total_a
    with open(ck, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"kernel", "q", "m", "sweep_position", "bad_quadratics", "probes_done"}
    assert data["sweep_position"] == partial.sweep_position
    resumed = resolve_pair(3, 3, threads=1, checkpoint_path=ck)
    full = resolve_pair(3, 3, threads=1)
    assert resumed.status == full.status
    assert resumed.bad_quadratics == full.bad_quadratics
    assert resumed.probes_done == full.probes_done


# (q, m, budget, threads): sweep_position, probes_done, quadratics_checked,
# bad count, witness count; frozen while blocks still carried their own
# counts, by
#   PYTHONPATH=src python -c "from ffpn.search import resolve_pair
#   for q, m, b, t in [(3, 4, 400000, 1), (3, 3, 5000, 1), (27, 2, 10**8, 1), (27, 2, 10**8, 2)]:
#       r = resolve_pair(q, m, budget=b, threads=t)
#       print(r.sweep_position, r.probes_done, r.quadratics_checked,
#             len(r.bad_quadratics), len(r.witnesses))"
BUDGET_CUTS = {
    (3, 4, 400_000, 1): (32, 512_256, 204_800, 32, 10),
    (3, 3, 5000, 1): (8, 11_527, 5_408, 13, 9),
    (27, 2, 10**8, 1): (80, 107_014_232, 42_398_720, 0, 10),
    (27, 2, 10**8, 2): (80, 107_014_232, 42_398_720, 0, 10),
}


@pytest.mark.parametrize("q,m,budget,threads", list(BUDGET_CUTS))
def test_budget_cuts_are_frozen_and_resume_to_the_full_sweep(tmp_path, q, m, budget, threads):
    ck = str(tmp_path / "ck.json")
    cut = resolve_pair(q, m, budget=budget, threads=threads, checkpoint_path=ck)
    assert cut.status == "budget_exhausted"
    assert (cut.sweep_position, cut.probes_done, cut.quadratics_checked,
            len(cut.bad_quadratics), len(cut.witnesses)) == BUDGET_CUTS[q, m, budget, threads]
    # witnesses come from the leading blocks of each call, so they differ
    resumed, full = (
        {k: v for k, v in rep.to_dict().items() if k not in ("elapsed", "witnesses")}
        for rep in (resolve_pair(q, m, threads=threads, checkpoint_path=ck),
                    resolve_pair(q, m, threads=threads))
    )
    assert resumed == full


def _no_sweep_context(*args):
    raise AssertionError("built sweep tables for a checkpoint that is refused")


def test_resolve_pair_refuses_checkpoint_of_another_pair(capsys, monkeypatch, tmp_path):
    # a (3,3) run used to overwrite the (3,4) checkpoint, so (3,4) resumed from 0
    from ffpn.cli import main

    ck = tmp_path / "ck.json"
    cut = resolve_pair(3, 4, budget=400_000, threads=1, checkpoint_path=str(ck))
    assert (cut.status, cut.sweep_position) == ("budget_exhausted", 32)
    written = ck.read_bytes()
    monkeypatch.setattr(search_mod, "_sweep_context", _no_sweep_context)
    with pytest.raises(ValueError) as exc:
        resolve_pair(3, 3, threads=1, checkpoint_path=str(ck))
    assert str(exc.value) == f"checkpoint {ck} is of another sweep: m 4, not 3"
    assert main(["--threads", "1", "resolve-pair", "--q", "9", "--m", "2",
                 "--checkpoint", str(ck)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: checkpoint {ck} is of another sweep: q 3, not 9; m 4, not 2\n"
    assert ck.read_bytes() == written


@pytest.mark.parametrize(
    "key,value",
    [
        ("sweep_position", 50),
        ("sweep_position", "4"),
        ("sweep_position", -8),
        ("sweep_position", True),
        ("probes_done", -1),
        ("bad_quadratics", [[1, 2]]),
    ],
    ids=["position-past-Q", "position-string", "position-negative", "position-bool",
         "probes-negative", "bad-pair"],
)
def test_resolve_pair_ignores_checkpoint_with_values_out_of_range(monkeypatch, tmp_path, key, value):
    # refused, no longer ignored: resuming these gave a wrong verdict
    # (position 50 of 9 swept nothing) or a traceback, and ignoring them
    # restarted the sweep from 0 over the file
    ck = tmp_path / "ck.json"
    fresh = {"kernel": search_mod.SWEEP_KERNEL, "q": 3, "m": 2, "sweep_position": 0,
             "bad_quadratics": [], "probes_done": 0}
    ck.write_text(json.dumps(dict(fresh, **{key: value})), encoding="utf-8")
    written = ck.read_bytes()
    monkeypatch.setattr(search_mod, "_sweep_context", _no_sweep_context)
    with pytest.raises(ValueError) as exc:
        resolve_pair(3, 2, threads=1, checkpoint_path=str(ck))
    assert str(exc.value).startswith(f"checkpoint {ck} is out of range: {key} ")
    assert ck.read_bytes() == written


@pytest.mark.parametrize(
    "content,reason",
    [
        (b'{"q": 3', "is not JSON: "),
        (b"[0, 0]", "is not a JSON object"),
        (b"{}", "lacks bad_quadratics, kernel, m, probes_done, q, sweep_position"),
        (json.dumps({"kernel": search_mod.SWEEP_KERNEL, "q": 3, "m": 2, "sweep_position": 0,
                     "bad_quadratics": []}).encode(), "lacks probes_done"),
    ],
    ids=["truncated", "list", "empty-object", "no-probes"],
)
def test_resolve_pair_refuses_checkpoint_it_cannot_read(monkeypatch, tmp_path, content, reason):
    ck = tmp_path / "ck.json"
    ck.write_bytes(content)
    monkeypatch.setattr(search_mod, "_sweep_context", _no_sweep_context)
    with pytest.raises(ValueError) as exc:
        resolve_pair(3, 2, threads=1, checkpoint_path=str(ck))
    assert str(exc.value).startswith(f"checkpoint {ck} {reason}")
    assert ck.read_bytes() == content


def test_bad_quadratics_sorted_by_sweep_order():
    rep = resolve_pair(3, 2, threads=1)
    t = build_extension(3, 1, 2)

    def key(t3):
        a, b, c = t3
        return (
            t.dlog_code(a),
            -1 if b == 0 else t.dlog_code(b),
            -1 if c == 0 else t.dlog_code(c),
        )

    keys = [key(t3) for t3 in rep.bad_quadratics]
    assert keys == sorted(keys)


def test_symmetry_reduction_validation():
    # Frozen from the full sweep, for F27 by
    #   PYTHONPATH=src python -c "from ffpn.gf import build_extension as b; \
    #   from ffpn.search import validate_quadratic_symmetry as v; print(v(b(3, 1, 3)))"
    # Valid on F9 (32 bad triples) and on F81 as (3,1,4) (48); invalid on F27,
    # where each of the 31 bad triples lies in its own mixed orbit (x^2+x-1's
    # among them), so the +-f(+-x) reduction is never trusted for sweeps.
    for m, nbad in [(2, 32), (4, 48)]:
        t = build_extension(3, 1, m)
        res = validate_quadratic_symmetry(t)
        assert res["reduction_valid"] and res["mixed_orbits"] == []
        assert res["orbits_checked"] == t.Q * (t.Q - 1) ** 2
        assert len(resolve_pair(3, m, threads=1).bad_quadratics) == nbad
    res27 = validate_quadratic_symmetry(build_extension(3, 1, 3))
    bad = set(resolve_pair(3, 3, threads=1).bad_quadratics)
    assert not res27["reduction_valid"] and res27["orbits_checked"] == 18252
    mixed = res27["mixed_orbits"]
    assert len(mixed) == len(bad) == 31 and mixed == sorted(mixed)
    assert [sum(f in bad for f in orb) for orb in mixed] == [1] * 31
    assert sorted(t for orb in mixed for t in orb).count((1, 1, 2)) == 1


def test_symmetry_audit_refuses_field_above_sweep_cap():
    # F_6561 is past SWEEP_FIELD_LIMIT: refused at once, not decided triple by triple
    with pytest.raises(SizeBudgetExceeded):
        validate_quadratic_symmetry(build_extension(3, 1, 8, tables="off"))


def test_quadratic_orbit_structure():
    t = build_extension(3, 1, 3)
    orb = quadratic_orbit(t, 1, 1, 2)
    assert (1, 1, 2) in orb and len(orb) == 4
    # orbit members are mutually reachable (closure)
    for (a, b, c) in orb:
        assert quadratic_orbit(t, a, b, c) == orb


def test_resolve_pair_refuses_oversized_field_before_sweeping(monkeypatch, tmp_path):
    def no_sweep(*args):
        raise AssertionError("swept a field above the sweep cap")

    monkeypatch.setattr(search_mod, "SWEEP_FIELD_LIMIT", 8)
    monkeypatch.setattr(search_mod, "_sweep_kernel", no_sweep)
    # the 2N x rad(N) cover rows must not be sized before the refusal
    monkeypatch.setattr(search_mod.SearchContext, "pair_tables", no_sweep)
    ck = tmp_path / "ck.json"
    with pytest.raises(SizeBudgetExceeded):
        resolve_pair(3, 2, threads=1, checkpoint_path=str(ck))
    assert not ck.exists()


def test_resolve_pair_refuses_rad_past_int16(monkeypatch):
    # the kernel counts uncovered residues in int16; F_32771 has rad = 32770,
    # so under a raised cap it is refused before the cover rows are sized
    def no_tables(*args):
        raise AssertionError("built the pair tables of a field whose rad passes int16")

    monkeypatch.setattr(search_mod, "SWEEP_FIELD_LIMIT", 40_000)
    monkeypatch.setattr(search_mod.SearchContext, "pair_tables", no_tables)
    with pytest.raises(SizeBudgetExceeded, match="int16"):
        resolve_pair(32771, 1, threads=1)


def test_resolve_pair_refuses_checkpoint_of_another_kernel(monkeypatch, tmp_path):
    # written before checkpoints carried a kernel id: position 3 counted
    # a-values, so resuming it as a b' position would drop bad quadratics;
    # it used to be overwritten by a sweep from 0
    ck = tmp_path / "ck.json"
    monkeypatch.setattr(search_mod, "_sweep_context", _no_sweep_context)
    stale = {"q": 3, "m": 3, "sweep_position": 3, "bad_quadratics": [], "probes_done": 1}
    for payload, kernel in ((stale, "None"), (dict(stale, kernel="flat"), "'flat'")):
        ck.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            resolve_pair(3, 3, threads=1, checkpoint_path=str(ck))
        assert str(exc.value) == (f"checkpoint {ck} is of another sweep: "
                                  f"kernel {kernel}, not {search_mod.SWEEP_KERNEL!r}")
        assert json.loads(ck.read_text(encoding="utf-8")) == payload


def _quad_value(t, a, b, c, x):
    return t.add_codes(
        t.add_codes(t.mul_codes(a, t.mul_codes(x, x)), t.mul_codes(b, x)), c
    )


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (5, 2)], ids=["2", "3", "5-2"])
def test_resolve_pair_equals_unreduced_scan(p, m):
    # every admissible (a, b, c), scanned one by one by find_witness
    t = build_extension(p, 1, m)
    pn = [int(x) for x in search_context(t).pn_codes]
    bad = set()
    depth = 0
    for a in range(1, t.Q):
        for b in range(t.Q):
            for c in range(t.Q):
                if not t.admissible(a, b, c):
                    continue
                w = find_witness(t, (a, b, c))
                if w is None:
                    bad.add((a, b, c))
                    depth += len(pn)
                else:
                    depth += pn.index(w.code) + 1
    rep = resolve_pair(p, m, threads=1)
    assert set(rep.bad_quadratics) == bad
    assert rep.probes_done == depth


def test_resolve_pair_probe_counts_frozen():
    # values of the per-triple scan, before the monic-g reduction
    for (q, m), (status, nbad, probes) in {
        (3, 4): ("exception_found", 48, 1296432),
        (9, 2): ("resolved_no_exception", 0, 1295440),
    }.items():
        rep = resolve_pair(q, m, threads=1)
        assert (rep.status, len(rep.bad_quadratics), rep.probes_done) == (status, nbad, probes)


@pytest.mark.parametrize("m", [2, 4])
def test_witness_samples_are_witnesses(m):
    t = build_extension(3, 1, m)
    ctx = search_context(t)
    rep = resolve_pair(3, m, threads=1)
    assert rep.witnesses
    for w in rep.witnesses:
        a, b, c = w["f"]
        QuadraticSpec.from_codes(t, a, b, c)  # admissible
        assert w["alpha"] in ctx.pn_codes
        assert _quad_value(t, a, b, c, w["alpha"]) == w["f_alpha"]
        assert ctx.prim_mask[w["f_alpha"]]


@pytest.mark.parametrize(
    "p,r,m", [(3, 1, 3), (3, 1, 4), (3, 1, 6), (3, 2, 3), (2, 1, 4), (2, 1, 6), (5, 1, 5), (7, 1, 2)]
)
def test_context_masks_equal_digit_matrix_reference(p, r, m):
    # g_bits from kernel enumeration vs every code through each quotient matrix
    t = build_extension(p, r, m)
    ctx = search_context(t)
    digits = np.arange(t.Q)[:, None] // p ** np.arange(t.n) % p
    gb = np.zeros(t.Q, dtype=np.int64)
    for j, mat in enumerate(ctx.tp.quotient_matrices()):
        gb |= (digits @ mat.T % p).any(axis=1).astype(np.int64) << j
    assert ctx.g_bits.dtype == np.min_scalar_type(ctx.all_g_mask)
    assert ctx.g_bits.tolist() == gb.tolist()
    fb = [0] + [sum(1 << i for i, l in enumerate(ctx.primes) if t.log[x] % l) for x in range(1, t.Q)]
    assert ctx.free_bits.dtype == np.uint8 and ctx.free_bits.tolist() == fb
    normal = [x for x in range(t.Q) if gb[x] == ctx.all_g_mask]
    assert ctx.normal_mask.tolist() == [gb[x] == ctx.all_g_mask for x in range(t.Q)]
    pn = sorted((x for x in normal if ctx.prim_mask[x]), key=lambda x: t.log[x])
    assert ctx.pn_codes.tolist() == pn


@pytest.mark.parametrize(
    "p,r,m", [(3, 1, 2), (3, 1, 5), (3, 2, 3), (3, 3, 2), (2, 1, 6), (2, 3, 2), (5, 1, 3), (7, 1, 2)]
)
def test_pn_codes_equal_argsort_construction(p, r, m):
    t = build_extension(p, r, m)
    ctx = search_context(t)
    pn = np.nonzero(ctx.prim_mask & ctx.normal_mask)[0]
    want = pn[np.argsort(t.log[pn], kind="stable")]
    assert ctx.pn_codes.dtype == np.int32
    assert ctx.pn_codes.tolist() == want.tolist()


def test_contexts_belong_to_the_tower_object_not_its_field():
    # build_extension returns a tabled and an untabled tower of one field as
    # two objects; each context must be built on, and held by, its own tower
    on = build_extension(3, 1, 3, tables="on")
    off = build_extension(3, 1, 3, tables="off")
    assert on is not off
    assert search_context(on).tower is on
    assert char_context(on).tower is on
    with pytest.raises(SizeBudgetExceeded):
        search_context(off)
    with pytest.raises(SizeBudgetExceeded):
        char_context(off)
    for t in (on, off):
        assert tower_poly(t).tower is t
    # the other order: the untabled tower's TowerPoly first
    off4 = build_extension(3, 1, 4, tables="off")
    on4 = build_extension(3, 1, 4, tables="on")
    assert tower_poly(off4).tower is off4
    assert tower_poly(on4).tower is on4 and tower_poly(on4).tower.has_tables
    assert search_context(on4).tp.tower is on4


# Divisor specs of x^4 - 1 = (x - 1)(x + 1)(x^2 + 1) over F_3 that name no
# divisor: indices outside range(3), the zero polynomial and x^3 + x^2 + 1.
_BAD_G_SPECS = {
    "index-3": lambda field: [3],
    "index-7": lambda field: (0, 7),
    "index-minus-1": lambda field: [-1],
    "zero-polynomial": lambda field: FqPolynomial(field, ()),
    "non-divisor": lambda field: FqPolynomial(field, (1, 0, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(_BAD_G_SPECS))
def test_bad_g_specs_are_refused_everywhere(name):
    t = build_extension(3, 1, 4)
    g = _BAD_G_SPECS[name](factor_xm1(3, 4).field)
    el = t.element(5)
    with pytest.raises(ValueError):
        is_g_free(el, g)
    with pytest.raises(ValueError):
        exact_count(t, (1, 0, 1), t.N, t.N, g)
    with pytest.raises(ValueError):
        sieve_report(3, 4, 1, g)
    with pytest.raises(ValueError):
        freeness_indicator("g", g, el)
    with pytest.raises(ValueError):
        search_context(t).g_mask_of(g)


@pytest.mark.parametrize("p,r,m", [(3, 1, 4), (3, 2, 2), (3, 1, 5), (5, 1, 3), (7, 1, 2)])
def test_pair_tables_give_the_cover_row_of_every_g_alpha(p, r, m):
    # For every alpha != 0, b' and c', the row the sweep kernel reads for
    # g(alpha) = alpha^2 + b' alpha + c' is the cover row of dlog(g(alpha))
    # mod rad, or the empty row for g(alpha) = 0; g(alpha) comes from a
    # digit-built ADD table and exp/log products.
    t = build_extension(p, r, m)
    ctx = search_context(t)
    zx, rows = ctx.pair_tables()
    Q, N, rad = t.Q, t.N, ctx.rad
    digits = np.arange(Q)[:, None] // p ** np.arange(t.n) % p
    pw = np.array([p**i for i in range(t.n)], dtype=np.int64)
    add = np.array([((digits[u] + digits) % p) @ pw for u in range(Q)])
    codes = np.arange(Q)
    lv = np.where(codes == 0, 3 * N, t.log + N)  # how the kernel holds b' and c'
    coprime = np.gcd(np.arange(rad)[:, None] + np.arange(rad), rad) == 1
    ref_rows = np.zeros((rad + 1, rows.shape[1] * 8), dtype=np.uint8)
    ref_rows[:rad, : -(-rad // 8)] = np.packbits(coprime, axis=1, bitorder="little")
    ref_rows = ref_rows.view(rows.dtype)
    seen = dict.fromkeys(("b' = 0", "c' = 0", "u = 0", "g(alpha) = 0"), 0)
    for k in range(N):
        times_alpha = np.where(codes == 0, 0, t.exp[(k + t.log) % N])
        u = add[t.exp[2 * k % N], times_alpha]  # alpha^2 + alpha b', by b'
        g = add[u[:, None], codes]  # by b', c'
        want = ref_rows[np.where(g == 0, rad, t.log[g] % rad)]
        lu = search_mod._u_logs(t, np.array([k]), lv)[0][:, None]
        got = rows.take(zx[lv - lu] + lu, axis=0, mode="clip")
        assert np.array_equal(got, want)
        for name, hit in zip(seen, (codes == 0, codes == 0, u == 0, g == 0)):
            seen[name] += int(np.count_nonzero(hit))
    assert all(seen.values()), seen


@pytest.mark.parametrize("f", [(0, 0, 1), (1, 1, 1), (81, 0, 1)])
def test_exact_count_refuses_what_find_witness_refuses(f):
    # a = 0, b^2 = ac, and a code outside F_81
    t = build_extension(3, 1, 4)
    with pytest.raises(ValueError):
        find_witness(t, f)
    with pytest.raises(ValueError):
        exact_count(t, f, 1, t.N, 1)
    with pytest.raises(ValueError):
        verify_sieve_inequality(t, f, 10, "all")


def test_elements_of_another_tower_are_refused_everywhere():
    # F_9 codes were once read as F_27 codes: chi(5) came out -1, and
    # exact_count 0 and find_witness None for an F_9 quadratic
    t27, t9 = build_extension(3, 1, 3), build_extension(3, 1, 2)
    foreign = t9.element(5)
    spec = QuadraticSpec.from_codes(t9, 1, 1, 2)
    one = t27.element(1)
    chi, psi = MultCharacter(t27, 2, 1), AddCharacter(t27, 1)
    refused = [
        lambda: chi(foreign),
        lambda: psi(foreign),
        lambda: char_sum(chi, trivial_mult(t27), psi, (1, foreign, 2)),
        lambda: char_sum(chi, trivial_mult(t27), psi, spec),
        lambda: exact_count(t27, spec, 26, 26, "all"),
        lambda: find_witness(t27, spec),
        lambda: verify_sieve_inequality(t27, spec, 2, "all"),
        lambda: QuadraticSpec(one, foreign, one),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="different tower"):
            call()


def test_context_mask_bounds_hold_on_every_tabled_field():
    # SearchContext asserts that N = Q - 1 has at most 8 primes (free_bits is
    # uint8) and x^m - 1 at most 24 distinct factors (g_bits is at most
    # uint32) for every Q <= TABLE_LIMIT.  For a prime field N < 2^24 is below
    # the product of the first nine primes, and x - 1 is one factor.
    assert math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23]) > TABLE_LIMIT
    # A count table has 2^(2t + s) entries for t primes and s factors: at
    # most 2^17 (F_{211^3}, and prime fields of 8 primes).
    most_primes = most_factors = most_bits = 0
    for p in filter(is_prime, range(2, math.isqrt(TABLE_LIMIT) + 1)):
        n = 2
        while p**n <= TABLE_LIMIT:
            t = len(factorize(p**n - 1).primes())
            most_primes = max(most_primes, t)
            for m in divisors_of(n):
                s = len(factor_xm1(p ** (n // m), m).degrees)
                most_factors = max(most_factors, s)
                most_bits = max(most_bits, 2 * t + s)
            n += 1
    assert most_primes <= 8 and most_factors <= 24
    assert most_bits == 17 and search_mod.COUNT_TABLE_ENTRIES >> 17 >= 8


def test_context_and_count_hold_no_wide_temporaries(monkeypatch):
    # numpy reports its buffers to tracemalloc, so the peaks are exact.  On a
    # fresh F_{3^11}, building the context may allocate what it keeps plus 8
    # bytes per element (it takes 5.4), and the first exact count the Zech
    # table it keeps plus 20 (it takes 14, 8 of them the int64 values of f).
    # int64 digit rows and masks take 64 and 33, so either comes back as a failure.
    monkeypatch.setattr(gf, "_tower_cache", {})
    t = build_extension(3, 1, 11)
    tracemalloc.start()
    try:
        ctx = search_context(t)
        held = sum(
            a.nbytes for a in (ctx.free_bits, ctx.g_bits, ctx.prim_mask, ctx.normal_mask, ctx.pn_codes)
        )
        assert tracemalloc.get_traced_memory()[1] <= held + 8 * t.Q
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        exact_count(t, (1, 1, 2), t.N, t.N, "all")
        peak = tracemalloc.get_traced_memory()[1] - base
        assert peak <= t.zech_table().nbytes + 20 * t.Q
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p,r,m,ib1", [(3, 1, 4, 81), (239, 1, 1, 48), (5, 1, 4, 32)])
def test_wide_row_popcount_equals_word_loop(monkeypatch, p, r, m, ib1):
    # rad(N) = 10, 238, 78: cover rows of 1, 4 and 2 words
    ctx = search_mod._sweep_context(p, r, m)
    runs = []
    for wide in (10**9, 1):
        monkeypatch.setattr(search_mod, "SWEEP_WIDE_WORDS", wide)
        runs.append(search_mod._sweep_kernel(ctx, 0, ib1, want_samples=5))
    assert runs[0] == runs[1]


def test_g_mask_of_memoizes_by_value_and_stores_no_refusal(monkeypatch):
    t = build_extension(3, 1, 4)
    ctx = search_mod.SearchContext(t)  # its own, empty memo
    pf = ctx.tp.pf
    real = type(pf).factor_subset_of
    calls = []

    def counted(self, g):
        calls.append(g)
        return real(self, g)

    monkeypatch.setattr(type(pf), "factor_subset_of", counted)
    x2p1 = (1, 0, 1)  # x^2 + 1, factor 2 of x^4 - 1
    specs = ["all", 1, None, [0, 2], (0, 2), FqPolynomial(pf.field, x2p1), FqPolynomial(pf.field, x2p1)]
    want = [sum(1 << j for j in real(pf, g)) for g in specs]
    assert [ctx.g_mask_of(g) for g in specs + specs] == want + want
    # [0, 2] and (0, 2) are one key, and so are the two equal polynomials
    assert len(calls) == 5
    # a refusal is raised every time; an iterator is evaluated every time
    for _ in range(2):
        with pytest.raises(ValueError):
            ctx.g_mask_of([3])
        assert ctx.g_mask_of(iter([0, 2])) == want[3]
    assert len(calls) == 9 and (3,) not in ctx._g_masks


def _masked_count(ctx, fvals, e1m, e2m, gm):
    # the direct count that count_table replaced: alpha != 0 and f(alpha) != 0
    # passing the three freeness masks
    fv = fvals[1:]
    ok = (ctx.free_bits[1:] & e1m) == e1m
    ok &= (ctx.g_bits[1:] & gm) == gm
    ok &= fv != 0
    return int(np.count_nonzero((ctx.free_bits[fv[ok]] & e2m) == e2m))


@pytest.mark.parametrize("p,r,m", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2), (2, 1, 6)])
def test_count_table_equals_direct_masked_counts(p, r, m):
    t = build_extension(p, r, m)
    ctx = search_context(t)
    rng = random.Random(p * 100 + m)
    fs = [tuple(rng.randrange(1 if i == 0 else 0, t.Q) for i in range(3)) for _ in range(40)]
    fs = [f for f in fs if t.admissible(*f)][:5]
    # (x - u)(x - v) with u != v nonzero: two zeros of f in the domain
    u, v = 1, int(t.exp[1])
    fs.append((1, t.neg_code(t.add_codes(u, v)), t.mul_codes(u, v)))
    nt, ns = len(ctx.primes), len(ctx.tp.pf.degrees)
    for f in fs:
        fvals = t.quad_values(*f)
        table = ctx.count_table(f)
        assert table.shape == (1 << ns, 1 << nt, 1 << nt)
        for gm, e2m, e1m in np.ndindex(table.shape):
            assert table[gm, e2m, e1m] == _masked_count(ctx, fvals, e1m, e2m, gm)
    assert np.count_nonzero(fvals[1:] == 0) == 2


def test_count_tables_are_kept_up_to_the_entry_bound(monkeypatch):
    t = build_extension(3, 1, 4)
    ctx = search_mod.SearchContext(t)  # its own, empty memo
    size = 1 << (2 * len(ctx.primes) + len(ctx.tp.pf.degrees))
    monkeypatch.setattr(search_mod, "COUNT_TABLE_ENTRIES", 3 * size + size // 2)
    fs = [(1, 0, 1), (1, 0, 2), (2, 1, 0), (5, 7, 11)]
    tables = [ctx.count_table(f) for f in fs]
    assert list(ctx._count_tables) == fs[1:]  # three fit: the oldest is dropped
    assert ctx.count_table(fs[3]) is tables[3]
    assert np.array_equal(ctx.count_table(fs[0]), tables[0])
    assert list(ctx._count_tables) == fs[2:] + fs[:1]
    with pytest.raises(ValueError, match="inadmissible"):
        ctx.count_table((1, 1, 1))
    assert (1, 1, 1) not in ctx._count_tables


@pytest.mark.parametrize("d", [0, -80, -1, 3, 160])
def test_verify_sieve_inequality_refuses_d_not_a_positive_divisor(d):
    # d = 0 and d = -80 once read as "every prime in the core": lhs 8, rhs 32
    t = build_extension(3, 1, 4)
    with pytest.raises(ValueError, match=r"d must be a positive divisor of q\^m - 1"):
        verify_sieve_inequality(t, (1, 1, 2), d, "all")
    assert verify_sieve_inequality(t, (1, 1, 2), 80, "all")["rhs"] == 8
