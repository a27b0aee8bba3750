"""ffpn benchmark: one workload, closed loop, checked against frozen truth.

    python3 perfbench/run.py --workload conditions --seed 1 --seconds 30 --trace 0

Run from the repository root; BENCHMARK.json there names the metrics and
perfbench/README.md explains the workloads.  Each pass of the workload runs
in a fresh process (perfbench/workloads.py) that imports ffpn from src/.
Before each pass and after the last a run starts SETUP_PROBES import-only
processes to measure setup; it starts passes while the next one is expected
to end within --seconds (at least one).  With --trace 1 it alternates
untraced and traced passes (at least one of each) and reports the per-layer
metrics; otherwise the end-to-end ones.  It prints every metric with its unit, an environment
block, and as its last line the JSON object
{"correct", "attempted", "failed", "metrics"}.  Per-pass records and the
spans of traced passes go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_SCRIPT = os.path.join(HERE, "workloads.py")

SETUP_PROBES = 8  # import-only processes before each pass and after the last
RUN_LIMIT_S = 170  # a run must end within 180 s; a pass still going then is killed


class BenchError(Exception):
    """The run cannot produce a result."""


def _kill_group(proc):
    """SIGKILL a pass and its worker processes, then wait until all are gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(200):  # orphaned workers are reaped by init, usually within milliseconds
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args, run_start):
    """Run workloads.py with args in a fresh process group; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, WORKLOAD_SCRIPT, *args, "--t0", repr(time.time())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - run_start)))
    except BaseException as exc:
        _kill_group(proc)
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"pass {' '.join(args)} still running after {RUN_LIMIT_S} s") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"pass {' '.join(args)} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(workload, seed, seconds, trace):
    """Setup probes and passes while the next pass and the closing probes
    are expected to end within `seconds`.

    The probes are spread between the passes, and a batch follows the last
    pass, so that setup_s samples the whole run, not one moment of it.
    """
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]

    def probes():
        return [spawn(base + ["--setup-only"], start)["setup_s"] for _ in range(SETUP_PROBES)]

    setups = []
    passes = []
    longest = 0.0  # one batch of probes plus the longest pass so far
    while True:
        t = time.monotonic()
        setups += probes()
        batch = time.monotonic() - t
        traced = int(trace and len(passes) % 2 == 1)
        res = spawn(base + ["--trace", str(traced)], start)
        longest = max(longest, time.monotonic() - t)
        res["traced"] = traced
        passes.append(res)
        have_all = not trace or len(passes) >= 2
        if have_all and time.monotonic() - start + longest + batch > seconds:
            return setups + probes(), passes


def latency_summary(passes):
    """Median and 90th percentile of operation latency, with the sample count."""
    latencies = [latency for p in passes for _label, latency, _error in p["ops"]]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return statistics.median(latencies), p90, len(latencies)


def end_to_end(setups, passes):
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(error is not None for _label, _latency, error in ops)
    work_s = sum(p["work_s"] for p in passes)
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ok_frac": (len(ops) - failed) / len(ops),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "work_per_s": sum(p["work_items"] for p in passes) / work_s if work_s > 0 else 0.0,
    }


def per_layer(passes):
    traced = [p["layers"] for p in passes if p["traced"]]
    out = {key: statistics.median(layers[key] for layers in traced) for key in traced[0]}
    plain = [p for p in passes if not p["traced"]]
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["bench.op_p50_s"], out["bench.op_p90_s"], out["bench.op_samples"] = latency_summary(plain)
    return out


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment(numpy_version):
    """Machine and code identity, read-only from /proc, /sys and the checkout."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        None,
    )
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level = _read(os.path.join(cache_dir, index, "level")).strip()
        kind = _read(os.path.join(cache_dir, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(os.path.join(cache_dir, index, "size")).strip()
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    # an exported tree has no .git and so no commit; the digest of src/ identifies the code
    src_lines = 0
    digest = hashlib.sha256()
    for dirpath, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                text = _read(path)
                src_lines += text.count("\n")
                digest.update(os.path.relpath(path, SRC).encode() + b"\0" + text.encode() + b"\0")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_per_core": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "src_lines": src_lines,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so spawn() still kills the running pass and its workers
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        if not os.path.isfile(os.path.join(SRC, "ffpn", "__init__.py")):
            raise BenchError(f"no ffpn package under {SRC}")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        setups, passes = run_passes(args.workload, args.seed, args.seconds, args.trace)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        values = per_layer(passes) if args.trace else end_to_end(setups, passes)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not computed: {missing}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ops = [op for p in passes for op in p["ops"]]
    errors = [op for op in ops if op[2] is not None]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment(passes[0]["numpy"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": metrics,
        "setup_probes_s": setups,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "spans": [p["spans"] for p in passes if p["traced"]],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    plain = [p for p in passes if not p["traced"]]
    p50, p90, samples = latency_summary(plain)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} ({len(passes) - len(plain)} traced)  "
          f"setup samples {len(setups) + len(passes)}  operations {len(ops)}")
    print(f"  untraced operation latency: p50 {p50:.6g} s  p90 {p90:.6g} s  ({samples} samples)")
    probes = {}
    for p in passes:
        for label, seconds, outcome in p["probes"]:
            probes.setdefault((label, outcome), []).append(seconds)
    for (label, outcome), times in sorted(probes.items()):
        print(f"  probe {label}: {outcome} in {len(times)} passes, median {statistics.median(times):.3f} s")
    for label, _latency, error in errors:
        print(f"  FAILED {label}: {error}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": all(error == "deadline" for _label, _latency, error in errors),
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
