"""resolve_pair reports frozen before the sweep kernel was reworked.

The file tests/data/golden_sweep.json holds, for each case, the report's
to_dict() without "elapsed": status, probes_done, witness samples and the
bad lists.  Any change to the kernel must reproduce it byte for byte.
Regenerate (only from a kernel already known to be right) with

    PYTHONPATH=src python tests/test_golden_sweep.py --write
"""

import json
import os
import sys

import pytest

import ffpn.search as search_mod
from ffpn.search import resolve_pair

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_sweep.json")

# (q, m, witness_samples, pool): pool sweeps on 2 threads with one block per
# batch, so that a small field still splits into many batches and starts the pool.
# (3,3) spans two blocks with the default 10 samples (9 per block);
# (3,4) with 40 samples draws them from three of its 11 blocks.
CASES = [
    (3, 2, 10, False),
    (3, 3, 10, False),
    (3, 4, 10, False),
    (9, 2, 10, False),
    (3, 5, 10, False),
    (243, 1, 10, False),
    (3, 4, 10, True),
    (3, 4, 40, False),
]


def case_key(q, m, samples, pool):
    return f"{q},{m},samples={samples}" + (",pool=2" if pool else "")


def sweep_report(q, m, samples, pool):
    """resolve_pair(q, m).to_dict() without elapsed, as JSON text.

    Checking and --write both come here, so both force the pool alike.
    """
    saved = search_mod.SWEEP_BATCH_WORDS
    if pool:
        search_mod.SWEEP_BATCH_WORDS = 1
    try:
        rep = resolve_pair(q, m, threads=2 if pool else 1, witness_samples=samples)
    finally:
        search_mod.SWEEP_BATCH_WORDS = saved
    d = rep.to_dict()
    del d["elapsed"]
    return json.dumps(d, sort_keys=True)


def test_sweep_reports_are_byte_identical():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)["cases"]
    assert sorted(golden) == sorted(case_key(*c) for c in CASES)
    for q, m, samples, pool in CASES:
        got = sweep_report(q, m, samples, pool)
        assert got == golden[case_key(q, m, samples, pool)], (q, m, samples, pool)


@pytest.mark.parametrize("p,r,m,samples,blocks", [(3, 1, 3, 10, 2), (3, 1, 4, 40, 3)])
def test_golden_sweep_samples_span_blocks(p, r, m, samples, blocks):
    # the edge cases above (q = p^r) draw their witness samples from several blocks
    Q = p ** (r * m)
    ctx = search_mod._sweep_context(p, r, m)
    got = used = 0
    for ib in range(0, Q, search_mod.SWEEP_BLOCK):
        if got >= samples:
            break
        end = min(ib + search_mod.SWEEP_BLOCK, Q)
        got += len(search_mod._sweep_kernel(ctx, ib, end, samples - got)[1])
        used += 1
    assert used == blocks


def _write():
    cases = {}
    for q, m, samples, pool in CASES:
        cases[case_key(q, m, samples, pool)] = sweep_report(q, m, samples, pool)
    payload = {
        "about": "resolve_pair(q, m).to_dict() without elapsed, as sorted-key JSON, "
        "frozen from the sweep kernel before its per-round work was cut; "
        "written by `PYTHONPATH=src python tests/test_golden_sweep.py --write`",
        "cases": cases,
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_sweep.py --write")
    _write()
