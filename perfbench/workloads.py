"""One pass of an ffpn benchmark workload, run in a fresh process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload sweep --seed 1 --trace 0 --t0 EPOCH

run.py starts this once per pass.  The pass imports ffpn as the CLI does,
runs the workload's input list once as closed-loop calls from one client
(each call waits for the previous one; at most THREADS worker processes),
checks every output against truth.json and prints one JSON line with its
timings, outcomes and, when traced, its spans and per-layer figures.

With --trace 1 the pass also makes the calls that isolate one layer
(factoring before basic_condition, an untabled tower before the tabled one,
contexts and pair tables before resolve_pair, a one-worker sweep of
PARALLEL_PAIR).  Those calls are the part of the tracing overhead that is
not span bookkeeping.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import sys
import time
from contextlib import contextmanager

import numpy

import ffpn.cli  # noqa: F401  (setup_s is the CLI's import cost)
from ffpn import chars, fqpoly, gf, numtheory, search, sieve
from tracing import Tracer, duration, layer_self_times

HERE = os.path.dirname(os.path.abspath(__file__))
TRUTH_PATH = os.path.join(HERE, "truth.json")

THREADS = min(2, os.cpu_count() or 1)

# conditions: `ffpn check` then, when the basic condition fails,
# `ffpn auto-sieve`, for every q = 3^r <= 729, m <= 60 with r*m <= 88 (the
# range where q^m - 1 factors within seconds).
CONDITION_PAIRS = tuple(
    (3**r, m) for r in range(1, 7) for m in range(1, 61) if r * m <= 88
)
# q^m - 1 of these pairs does not factor within minutes and the program has
# no deadline of its own, so each runs under the benchmark's DEADLINE_S as a
# probe: its time counts in wall_s, a miss counts in numtheory.timeouts.
STALL_PAIRS = ((27, 53), (243, 35))
# Bounds each call of the conditions workload.  The slowest decided call
# takes about 1.1 s on a 2-core Xeon, so 3 s separates a stall from noise.
DEADLINE_S = 3.0

# sweep: `ffpn resolve-pair`; exception pairs, witness-everywhere pairs,
# m = 1 and field sizes 9 to 729.
SWEEP_PAIRS = ((3, 2), (3, 3), (3, 4), (9, 2), (3, 5), (243, 1), (27, 2))
PARALLEL_PAIR = (3, 5)

# audit: character route on small fields, exact counts on large towers.
CHAR_FIELDS = ((3, 1, 3), (3, 1, 4), (3, 1, 5))
WEIL_QUADRATICS = 20
INDICATOR_ELEMENTS = 12
INDICATOR_TOL = 1e-6
ORTHOGONALITY_TOL = 1e-9
VERIFY_FIELD = (3, 1, 6)
CENSUS_FIELDS = ((3, 1, 11), (3, 2, 5), (3, 5, 2))  # the last two are both F_{3^10}
POOL = 8  # frozen quadratics per field in truth.json
PICK = 3  # quadratics the seed draws from each pool

LAYERS = ("bench", "numtheory", "fqpoly", "sieve", "gf", "search", "chars")


def pair_label(q, m):
    return f"{q}_{m}"


def field_label(p, r, m):
    return f"F{p ** (r * m)}"


# ---------------------------------------------------------------------------
# records compared against truth.json (freeze.py writes them with the same code)


def decision_record(basic, best):
    rec = {"basic": basic["verdict"], "W": basic["W"], "Omega": basic["Omega"]}
    if best is not None:
        rec["auto"] = best.verdict
        rec["d"] = str(best.config.d)
        rec["g"] = list(best.config.g_indices)
    return rec


def bad_digest(bad):
    canon = json.dumps(sorted(list(map(int, t)) for t in bad))
    return hashlib.sha256(canon.encode()).hexdigest()


def sweep_record(rep):
    return {
        "status": rep.status,
        "bad": len(rep.bad_quadratics),
        "digest": bad_digest(rep.bad_quadratics),
    }


def verify_record(res):
    return [res["lhs"], res["rhs"]]


# ---------------------------------------------------------------------------
# one pass


class Deadline(BaseException):
    """Raised by SIGALRM; BaseException so no handler in ffpn can absorb it."""


def _alarm(_signum, _frame):
    raise Deadline()


@contextmanager
def deadline(seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Pass:
    """State of one pass: inputs' rng, tracer, outcomes and work counts."""

    def __init__(self, workload, seed, traced, truth):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tr = Tracer(traced)
        self.truth = truth[workload]
        self.labels = {}  # op id -> label
        self.ops = []  # [label, latency_s, error or None]
        self.probes = []  # [label, seconds, "deadline" | "decided"]
        self.work_items = 0
        self.work_s = 0.0
        self.counts = {"sieve.configs": 0, "search.probes": 0, "search.quadratics": 0, "chars.weil_sums": 0}
        self._warm = set()

    def _new_op(self, label):
        op = len(self.labels) + 1
        self.labels[op] = label
        return op

    def op(self, label, call, check):
        """Time call(op_id), then check its output; a miss or mismatch fails the op."""
        op = self._new_op(label)
        with self.tr.span("bench.op", op):
            t = time.perf_counter()
            try:
                out = call(op)
            except Deadline:
                out, error = None, "deadline"
            else:
                error = None
            latency = time.perf_counter() - t
            if error is None:
                error = check(out)
        self.ops.append([label, latency, error])

    def probe(self, label, call):
        op = self._new_op(label)
        with self.tr.span("bench.probe", op):
            t = time.perf_counter()
            try:
                call(op)
                outcome = "decided"
            except Deadline:
                outcome = "deadline"
        self.probes.append([label, time.perf_counter() - t, outcome])

    def add_work(self, items, seconds):
        self.work_items += items
        self.work_s += seconds

    def prelude(self):
        """Traced only: build the trial-division prime table on its own."""
        with self.tr.span("bench.prelude", 0), self.tr.span("numtheory.small_primes", 0):
            numtheory.small_primes()

    def tower(self, p, r, m, op):
        """gf.build_extension as the CLI calls it; traced, the first call per
        tower is split into the modulus (tables off) and the tabled build."""
        key = ("tower", p, r, m)
        if not self.tr.enabled or key in self._warm:
            return gf.build_extension(p, r, m)
        self._warm.add(key)
        with self.tr.span("gf.build_extension.off", op):
            gf.build_extension(p, r, m, tables="off")
        with self.tr.span(f"gf.build_extension.{pair_label(p**r, m)}", op):
            return gf.build_extension(p, r, m)

    def warm(self, name, fn, tower, op):
        """Traced only: make a cached per-tower call once, under its own span."""
        key = (name, tower.p, tower.r, tower.m)
        if self.tr.enabled and key not in self._warm:
            self._warm.add(key)
            with self.tr.span(name, op):
                fn(tower)


def _mismatch(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# -- conditions --------------------------------------------------------------


def _bounded(tr, name, op, fn, *args):
    """One program call under the benchmark's deadline, in its own span."""
    with deadline(DEADLINE_S), tr.span(name, op):
        return fn(*args)


def _decide(ps, q, m, op):
    tr = ps.tr
    if tr.enabled:
        _bounded(tr, "numtheory.factorize_qm_minus_1", op, numtheory.factorize_qm_minus_1, q, m)
    basic = _bounded(tr, "sieve.basic_condition", op, sieve.basic_condition, q, m)
    best = None
    if basic["verdict"] != "pass":
        if tr.enabled:
            _bounded(tr, "fqpoly.factor_xm1", op, fqpoly.factor_xm1, q, m)
        best = _bounded(tr, "sieve.auto_sieve", op, sieve.auto_sieve, q, m)
    return decision_record(basic, best)


def _count_sieve_configs(ps):
    """Traced only: count auto_sieve's configuration evaluations.

    The count wraps sieve._evaluate_config from outside the package; if a
    later version drops that function the count reads 0.
    """
    inner = getattr(sieve, "_evaluate_config", None)
    if inner is None:
        return

    def counted(*args, **kwargs):
        ps.counts["sieve.configs"] += 1
        return inner(*args, **kwargs)

    sieve._evaluate_config = counted


def run_conditions(ps):
    if ps.tr.enabled:
        _count_sieve_configs(ps)
    items = [(q, m, False) for q, m in CONDITION_PAIRS]
    items += [(q, m, True) for q, m in STALL_PAIRS]
    ps.rng.shuffle(items)
    for q, m, stall in items:
        label = pair_label(q, m)

        def call(op, q=q, m=m):
            return _decide(ps, q, m, op)

        if stall:
            ps.probe(label, call)
            ps.add_work(0, ps.probes[-1][1])  # a stalled call still costs the client its time
            continue
        ps.op(label, call, lambda out, want=ps.truth[label]: _mismatch("decision", out, want))
        _label, latency, error = ps.ops[-1]
        if error is None:
            ps.add_work(1, latency)


# -- sweep -------------------------------------------------------------------


def _resolve(ps, q, m, op):
    tr = ps.tr
    if tr.enabled:
        p, r = numtheory.prime_power_split(q)
        tower = ps.tower(p, r, m, op)
        ps.warm("search.search_context", search.search_context, tower, op)
        ps.warm("search.pair_tables", lambda t: search.search_context(t).pair_tables(), tower, op)
    t = time.perf_counter()
    with tr.span("search.resolve_pair", op):
        rep = search.resolve_pair(q, m, threads=THREADS)
    Q = q**m
    ps.add_work((Q - 1) ** 2 * Q, time.perf_counter() - t)
    ps.counts["search.probes"] += rep.probes_done
    ps.counts["search.quadratics"] += rep.quadratics_checked
    records = [sweep_record(rep)]
    if tr.enabled and (q, m) == PARALLEL_PAIR:
        with tr.span("search.resolve_pair_t1", op):
            records.append(sweep_record(search.resolve_pair(q, m, threads=1)))
    return records


def run_sweep(ps):
    pairs = list(SWEEP_PAIRS)
    ps.rng.shuffle(pairs)
    for q, m in pairs:
        label = pair_label(q, m)
        want = ps.truth[label]
        ps.op(
            label,
            lambda op, q=q, m=m: _resolve(ps, q, m, op),
            lambda records, want=want: _check_sweep(records, want),
        )


def _check_sweep(records, want):
    for rec in records:
        error = _mismatch("sweep", rec, want)
        if error:
            return error
    return None


# -- audit -------------------------------------------------------------------


def _char_audit(ps, p, r, m, op):
    tr = ps.tr
    tower = ps.tower(p, r, m, op)
    ps.warm("chars.char_context", chars.char_context, tower, op)
    with tr.span("chars.orthogonality_audit", op):
        worst = chars.orthogonality_audit(tower)
    t = time.perf_counter()
    with tr.span(f"chars.weil_audit.{field_label(p, r, m)}", op):
        audit = chars.weil_audit(tower, quadratics=WEIL_QUADRATICS, seed=ps.seed, threads=THREADS)
    ps.add_work(audit["checked"], time.perf_counter() - t)
    ps.counts["chars.weil_sums"] += audit["checked"]
    return {"orthogonality": worst, "violations": len(audit["violations"]), "checked": audit["checked"]}


def _check_char_audit(out, want):
    if not out["orthogonality"] < ORTHOGONALITY_TOL:
        return f"orthogonality {out['orthogonality']:.3e} >= {ORTHOGONALITY_TOL}"
    return _mismatch("weil violations", out["violations"], 0) or _mismatch(
        "weil sums checked", out["checked"], want["checked"]
    )


def _indicators(ps, p, r, m, codes, op):
    tower = ps.tower(p, r, m, op)
    targets = [("e", e) for e in numtheory.divisors_of(tower.N)]
    targets += [("g", g) for g, _exps in fqpoly.tower_poly(tower).divisors()]
    with ps.tr.span("chars.freeness_indicator", op):
        return tower, [
            (kind, target, code, chars.freeness_indicator(kind, target, tower.element(code)))
            for kind, target in targets
            for code in codes
        ]


def _check_indicators(out):
    """Compare each indicator with integer freeness, the other route."""
    tower, rows = out
    bad = 0
    for kind, target, code, val in rows:
        el = tower.element(code)
        free = gf.is_e_free(el, target) if kind == "e" else fqpoly.is_g_free(el, target)
        bad += abs(val - (1.0 if free else 0.0)) > INDICATOR_TOL
    return _mismatch("indicator mismatches", bad, 0)


def _verify(ps, f, configs, op):
    tower = ps.tower(*VERIFY_FIELD, op)
    ps.warm("search.search_context", search.search_context, tower, op)
    with ps.tr.span("search.verify_sieve_inequality", op):
        return [verify_record(search.verify_sieve_inequality(tower, f, d, tuple(g))) for d, g in configs]


def _count(ps, field, f, op):
    tower = ps.tower(*field, op)
    ps.warm("search.search_context", search.search_context, tower, op)
    with ps.tr.span("search.exact_count", op):
        return search.exact_count(tower, f, tower.N, tower.N, "all")


def run_audit(ps):
    truth = ps.truth
    for p, r, m in CHAR_FIELDS:
        label = field_label(p, r, m)
        ps.op(
            f"char_audit.{label}",
            lambda op, p=p, r=r, m=m: _char_audit(ps, p, r, m, op),
            lambda out, want=truth["chars"][label]: _check_char_audit(out, want),
        )
    for p, r, m in CHAR_FIELDS:
        codes = ps.rng.sample(range(1, p ** (r * m)), INDICATOR_ELEMENTS)
        ps.op(
            f"indicators.{field_label(p, r, m)}",
            lambda op, p=p, r=r, m=m, codes=codes: _indicators(ps, p, r, m, codes, op),
            _check_indicators,
        )
    v = truth["verify"]
    for i in sorted(ps.rng.sample(range(POOL), PICK)):
        ps.op(
            f"verify.{field_label(*VERIFY_FIELD)}.{i}",
            lambda op, f=tuple(v["pool"][i]): _verify(ps, f, v["configs"], op),
            lambda out, want=v["values"][i]: _mismatch("sieve inequality", out, want),
        )
    for field in CENSUS_FIELDS:
        p, r, m = field
        label = pair_label(p**r, m)
        census = truth["census"][label]
        for i in sorted(ps.rng.sample(range(POOL), PICK)):
            ps.op(
                f"count.{label}.{i}",
                lambda op, field=field, f=tuple(census["pool"][i]): _count(ps, field, f, op),
                lambda out, want=census["counts"][i]: _mismatch("exact count", out, want),
            )


RUNNERS = {"conditions": run_conditions, "sweep": run_sweep, "audit": run_audit}


# ---------------------------------------------------------------------------
# per-layer figures of a traced pass


def layer_metrics(ps, wall):
    spans = ps.tr.spans
    done = [s for s in spans if s["error"] is None]

    def total(name):
        return sum(duration(s) for s in done if s["name"] == name)

    def by_op(name):
        return {s["op"]: duration(s) for s in done if s["name"] == name}

    out = {}
    factor = by_op("numtheory.factorize_qm_minus_1")
    out["numtheory.small_primes_s"] = total("numtheory.small_primes")
    out["numtheory.factorize_s"] = sum(factor.values())
    out["numtheory.factorize_max_s"] = max(factor.values(), default=0.0)
    out["numtheory.timeouts"] = sum(
        s["name"].startswith("numtheory.") and s["error"] == "Deadline" for s in spans
    )
    out["fqpoly.factor_xm1_s"] = total("fqpoly.factor_xm1")

    # a sieve call's own time is the call minus that pair's factoring
    for key, name in (("basic", "sieve.basic_condition"), ("auto", "sieve.auto_sieve")):
        out[f"sieve.{key}_self_s"] = sum(t - factor.get(op, 0.0) for op, t in by_op(name).items())
    out["sieve.configs"] = ps.counts["sieve.configs"]
    auto = out["sieve.auto_self_s"]
    out["sieve.configs_per_s"] = ps.counts["sieve.configs"] / auto if auto > 0 else 0.0

    out["gf.modulus_s"] = total("gf.build_extension.off")
    tabled = {
        s["name"].rsplit(".", 1)[1]: duration(s)
        for s in done
        if s["name"].startswith("gf.build_extension.") and s["name"] != "gf.build_extension.off"
    }
    out["gf.log_table_s"] = sum(tabled.values())
    for p, r, m in CENSUS_FIELDS:
        label = pair_label(p**r, m)
        out[f"gf.log_table_s.{label}"] = tabled.get(label, 0.0)
    elems = sum(int(q) ** int(m) for q, m in (label.split("_") for label in tabled))
    out["gf.log_table_elems_per_s"] = elems / out["gf.log_table_s"] if tabled else 0.0

    out["search.context_s"] = total("search.search_context")
    out["search.pair_tables_s"] = total("search.pair_tables")
    kernel = by_op("search.resolve_pair")
    out["search.kernel_s"] = sum(kernel.values())
    per_pair = {ps.labels[op]: t for op, t in kernel.items()}
    for q, m in SWEEP_PAIRS:
        out[f"search.kernel_s.{pair_label(q, m)}"] = per_pair.get(pair_label(q, m), 0.0)
    quads = ps.counts["search.quadratics"]
    out["search.probes"] = ps.counts["search.probes"]
    out["search.probes_per_quadratic"] = ps.counts["search.probes"] / quads if quads else 0.0
    one = total("search.resolve_pair_t1")
    many = per_pair.get(pair_label(*PARALLEL_PAIR), 0.0)
    out["search.parallel_eff"] = one / (THREADS * many) if one and many else 0.0
    out["search.count_s"] = total("search.exact_count")
    out["search.verify_s"] = total("search.verify_sieve_inequality")

    out["chars.context_s"] = total("chars.char_context")
    out["chars.orthogonality_s"] = total("chars.orthogonality_audit")
    out["chars.indicator_s"] = total("chars.freeness_indicator")
    for p, r, m in CHAR_FIELDS:
        label = field_label(p, r, m)
        out[f"chars.weil_s.{label}"] = total(f"chars.weil_audit.{label}")
    out["chars.weil_sums"] = ps.counts["chars.weil_sums"]

    selfs = layer_self_times(spans)
    for layer in LAYERS:
        out[f"self_s.{layer}"] = selfs.get(layer, 0.0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(selfs.values())
    out["trace.spans"] = len(spans)
    return out


def _peak_rss_mb():
    """Peak RSS of this process plus that of its largest worker (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="epoch time the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(TRUTH_PATH, encoding="utf-8") as fh:
        truth = json.load(fh)
    ps = Pass(args.workload, args.seed, bool(args.trace), truth)
    start = time.perf_counter()
    if args.trace:
        ps.prelude()
    RUNNERS[args.workload](ps)
    wall = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "ops": ps.ops,
        "probes": ps.probes,
        "work_items": ps.work_items,
        "work_s": ps.work_s,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": numpy.__version__,
    }
    if args.trace:
        result["layers"] = layer_metrics(ps, wall)
        result["spans"] = ps.tr.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
