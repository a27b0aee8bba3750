"""Write perfbench/truth.json, the frozen outputs the benchmark checks.

    PYTHONPATH=src python3 perfbench/freeze.py

Run it only when a change is meant to alter ffpn's results; a performance
change leaves truth.json as it is.  It takes about a minute on two cores
(the sweep of (27, 2) dominates).  The quadratic pools are drawn from fixed
generators, so rerunning it on unchanged code rewrites the same file.
"""

from __future__ import annotations

import json
import random
import sys

from ffpn import chars, gf, search, sieve
from workloads import (
    CENSUS_FIELDS,
    CHAR_FIELDS,
    CONDITION_PAIRS,
    POOL,
    SWEEP_PAIRS,
    THREADS,
    TRUTH_PATH,
    VERIFY_FIELD,
    WEIL_QUADRATICS,
    decision_record,
    field_label,
    pair_label,
    sweep_record,
    verify_record,
)


def _pool(tower, salt):
    return [list(f) for f in chars.random_admissible_quadratics(tower, POOL, random.Random(salt))]


def conditions():
    out = {}
    for q, m in CONDITION_PAIRS:
        basic = sieve.basic_condition(q, m)
        best = sieve.auto_sieve(q, m) if basic["verdict"] != "pass" else None
        out[pair_label(q, m)] = decision_record(basic, best)
    return out


def sweep():
    return {
        pair_label(q, m): sweep_record(search.resolve_pair(q, m, threads=THREADS))
        for q, m in SWEEP_PAIRS
    }


def audit():
    out = {"chars": {}, "census": {}}
    for p, r, m in CHAR_FIELDS:
        tower = gf.build_extension(p, r, m)
        res = chars.weil_audit(tower, quadratics=WEIL_QUADRATICS, seed=0, threads=THREADS)
        out["chars"][field_label(p, r, m)] = {"checked": res["checked"]}

    tower = gf.build_extension(*VERIFY_FIELD)
    ctx = search.search_context(tower)
    configs = []
    for dmask in range(1 << len(ctx.primes)):
        d = 1
        for i, p in enumerate(ctx.primes):
            if dmask >> i & 1:
                d *= p
        for gmask in range(1 << len(ctx.tp.pf.factors)):
            configs.append([d, [j for j in range(len(ctx.tp.pf.factors)) if gmask >> j & 1]])
    pool = _pool(tower, tower.Q)
    out["verify"] = {
        "pool": pool,
        "configs": configs,
        "values": [
            [verify_record(search.verify_sieve_inequality(tower, tuple(f), d, tuple(g))) for d, g in configs]
            for f in pool
        ],
    }

    for p, r, m in CENSUS_FIELDS:
        tower = gf.build_extension(p, r, m)
        pool = _pool(tower, tower.Q + r)
        out["census"][pair_label(p**r, m)] = {
            "pool": pool,
            "counts": [search.exact_count(tower, tuple(f), tower.N, tower.N, "all") for f in pool],
        }
    return out


def main():
    truth = {"conditions": conditions(), "sweep": sweep(), "audit": audit()}
    with open(TRUTH_PATH, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
