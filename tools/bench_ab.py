"""A/B benchmark: a base revision against the working tree, runs alternating.

    python3 tools/bench_ab.py --base HEAD --number 9 sweep:8 audit:6 conditions:6

Exports BASE with `git archive` into <tmp>/base and copies the working
tree's files (`git ls-files -co --exclude-standard`: tracked ones and
untracked ones not ignored) into <tmp>/work, so both sides run from paths
of equal length: copies of one tree at paths of different lengths read
`peak_rss_mb` up to 1.3 MB apart.  "trees" records both paths.  Then for
each WORKLOAD:PAIRS runs `python3 perfbench/run.py --workload W --seed S
--seconds T` PAIRS times on each side, with T the run_seconds of
BENCHMARK.json, alternating which side goes first and using seed
S = 1, 2, ... for pair 1, 2, ...  Each side runs its own
perfbench/ and src/.  Writes BENCH_<number>.json at the repository root
with every run's end-to-end metrics and, per workload and metric, each
side's median and quartiles and how many pairs the working tree won
(better by the direction BENCHMARK.json gives; ties count for neither).
Each run also records src_lines and src_sha256 from the `env {...}` line
that perfbench/run.py prints, and "src" holds them per side, so the line
count of src/ stands next to the numbers.  After the benchmark runs, each
side's Tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
on its own src/) runs once, and "src" holds its passed, failed and error
counts and its wall seconds under "tier1".
Exits 1 if any run reports "correct": false or produces no result.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600  # perfbench/run.py ends each run within 180 s
TIER1_TIMEOUT_S = 1800  # the suite takes 15-30 s on 2 vCPUs


def export_revision(rev, dest):
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return subprocess.run(
        ["git", "rev-parse", rev], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def copy_working_tree(dest):
    """Copy the working tree's tracked and unignored untracked files into dest."""
    names = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.split("\0")
    for name in filter(None, names):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):  # a tracked file deleted in the working tree stays out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def bench_once(tree, workload, seed, seconds):
    """One perfbench run in tree: its metrics, or correct False if it gave none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env {")), {})
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "exit": proc.returncode}
    return {
        "correct": result["correct"] and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "exit": proc.returncode,
        "src_lines": env.get("src_lines"),
        "src_sha256": env.get("src_sha256"),
    }


def tier1(tree):
    """Run tree's Tier-1 suite once: its passed, failed and error counts and wall seconds."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=tree, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S,
        env=dict(os.environ, PYTHONPATH=os.path.join(tree, "src")),
    )
    seconds = round(time.monotonic() - start, 2)
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    # pytest says "1 error" but "2 errors"
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error)s?\b", summary)}
    return {
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("error", 0),
        "seconds": seconds,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, directions):
    """Per metric: each side's median and quartiles, and the working tree's wins."""
    out = {}
    for name, better in directions.items():
        sides = {}
        for side in ("base", "work"):
            vals = [r["metrics"][name] for r in runs if r["side"] == side and name in r["metrics"]]
            if vals:
                q1, med, q3 = quartiles(vals)
                sides[side] = {"median": med, "q1": q1, "q3": q3}
        if len(sides) < 2:
            continue
        wins = losses = 0
        for pair in sorted({r["pair"] for r in runs}):
            got = {r["side"]: r["metrics"].get(name) for r in runs if r["pair"] == pair}
            if None in got.values() or len(got) < 2 or got["work"] == got["base"]:
                continue
            work_better = (got["work"] < got["base"]) == (better == "lower")
            wins += work_better
            losses += not work_better
        out[name] = {"better": better, **sides, "work_wins": wins, "work_losses": losses}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--number", required=True, type=int, help="writes BENCH_<number>.json")
    ap.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    plan = []
    for item in args.plan:
        workload, _, pairs = item.partition(":")
        plan.append((workload, int(pairs or 1)))

    report = {
        "command": "python3 tools/bench_ab.py " + " ".join(argv if argv is not None else sys.argv[1:]),
        "seconds_per_run": seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_ab_") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "work": os.path.join(tmp, "work")}
        report["base"] = export_revision(args.base, trees["base"])
        copy_working_tree(trees["work"])
        report["trees"] = trees
        for workload, pairs in plan:
            runs = []
            for pair in range(pairs):
                seed = pair + 1
                order = ("base", "work") if pair % 2 == 0 else ("work", "base")
                for side in order:
                    run = bench_once(trees[side], workload, seed, seconds)
                    run.update(side=side, pair=pair, seed=seed)
                    runs.append(run)
                    all_correct &= run["correct"]
                    wall = run["metrics"].get("wall_s")
                    print(f"{workload} pair {pair + 1}/{pairs} {side}: wall_s {wall} "
                          f"correct {run['correct']}", flush=True)
            report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, directions)}
        report["src"] = {
            r["side"]: {"src_lines": r.get("src_lines"), "src_sha256": r.get("src_sha256")}
            for entry in report["workloads"].values()
            for r in entry["runs"]
            if r.get("src_sha256")
        }
        for side, tree in trees.items():
            report["src"].setdefault(side, {})["tier1"] = tier1(tree)
            print(f"{side} tier1 {report['src'][side]['tier1']}", flush=True)
    report["correct"] = all_correct
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:10s} {name:12s} base {s['base']['median']:.6g} "
                  f"work {s['work']['median']:.6g}  work wins {s['work_wins']}/"
                  f"{s['work_wins'] + s['work_losses']}")
    for side, src in sorted(report["src"].items()):
        print(f"{side} src/ lines {src.get('src_lines')} sha256 {src.get('src_sha256')}")
    print(f"wrote {path}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
