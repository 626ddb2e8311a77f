"""Benchmark of the heatforms package: one workload per run.

    python3 bench/run.py --workload lp_ceiling --seed 1 --seconds 20 --trace 0

Imports the package from src/ next to this directory, sets it up (import,
input generation, one warm-up item that is also checked against
bench/reference.json), then runs a closed loop of items for --seconds and
checks every item. Set-up is repeated in fresh interpreters, one after
another, so that every set-up time includes the first import of numpy,
scipy and heatforms. End-to-end times are corrected for the host's speed
at the moment they were taken, measured by the calibration kernel in
hostspeed.py; the record line keeps the wall-clock figures next to them.
The metric names and units come from BENCHMARK.json.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is a fuller record of the run.
--trace 0 reports the end-to-end metrics; --trace 1 runs every item twice,
once with spans around the package's public functions and once without,
and reports the per-layer metrics. Exit code 0 when every check passed, 1
when one failed; any other error (such as a missing src/) raises before a
result is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

START = time.perf_counter()  # set-up is timed from here: numpy is not loaded yet

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Outcome  # noqa: E402

MODULES = (
    "asymptotics",
    "cli",
    "exterior",
    "fields",
    "fourier",
    "heatmatrix",
    "multipliers",
    "normsearch",
    "reporting",
    "stochastic",
)
SETUPS = 3  # set-ups in fresh interpreters per run; setup_s is their median
TAIL_BEYOND = 10  # items beyond the tail percentile
REF_RTOL = 1e-6  # relative tolerance against the reference digest
REF_FLOOR = 1e-3  # below this magnitude, deviations count as absolute
REF_FAILED = 1.0  # deviation reported when the reference item itself failed

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Per-layer names that are not <module>.<function>.<stat> of a traced function.
PROCESS_METRICS = (
    "process.cpu_per_item_ms",
    "trace.overhead_frac",
    "trace.coverage_frac",
    "failed_frac",
    "verify.max_rel_dev",
)


def layer_stats_wanted(names):
    """Traced function -> its stats, e.g. "fields.lp_norm" -> ["calls", "busy_s"]."""
    wanted = {}
    for name in names:
        if name not in PROCESS_METRICS:
            fn, stat = name.rsplit(".", 1)
            wanted.setdefault(fn, []).append(stat)
    return wanted


LAYER_STATS = layer_stats_wanted(PER_LAYER)


def import_package():
    """Import heatforms from ROOT/src."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("heatforms")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"heatforms imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"heatforms.{m}") for m in MODULES})


def attempt(item, inputs, idx) -> Outcome:
    """Run one item; an exception counts as a failed check."""
    try:
        return item(inputs, idx)
    except Exception:  # noqa: BLE001 - the loop records the failure and goes on
        traceback.print_exc(file=sys.stderr)
        return Outcome(False)


def reference_deviation(name, outcome) -> float:
    """Largest relative deviation of a warm-up digest from the reference digest."""
    with open(BENCH / "reference.json") as fh:
        ref = json.load(fh)[name]
    if not outcome.ok or set(ref) != set(outcome.digest):
        return REF_FAILED
    return max(
        abs(outcome.digest[k] - v) / max(abs(v), REF_FLOOR) for k, v in ref.items()
    )


@contextlib.contextmanager
def work_dir(name):
    """A directory for the run's input files, removed afterwards."""
    path = OUT / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(name, seed, workdir):
    """Import, generate inputs and run the reference item as the warm-up."""
    hf = import_package()
    workload = WORKLOADS[name](hf, workdir)
    ref_inputs = workload.inputs(DEFAULT_SEED)
    inputs = workload.inputs(seed)
    warm = attempt(workload.item, ref_inputs, 0)
    return workload, inputs, warm


def fresh_set_up(name, seed):
    """Set up once more in a new interpreter; return its wall set-up time, the
    host's slowdown measured right after it, and the reference deviation."""
    cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["setup_s"], out["slowdown"], out["deviation"]


def tail(latencies):
    """The highest percentile with TAIL_BEYOND items beyond it, and its value."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def timed_loop(run_item, seconds):
    """Call run_item(idx) until seconds have passed; return count and wall time."""
    start = time.perf_counter()
    idx = 0
    while True:
        run_item(idx)
        idx += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return idx, elapsed


def layer_value(stats, metric, items):
    fn, stat = metric.rsplit(".", 1)
    st = stats.get(fn, {})
    busy = st.get("busy_s", 0.0)
    if stat in ("calls", "busy_s", "self_s"):
        return st.get(stat, 0) / items
    if stat == "mpts_per_s":
        return st.get("points", 0.0) / busy / 1e6 if busy else 0.0
    if stat == "mb_per_s":
        return st.get("bytes", 0.0) / busy / 1e6 if busy else 0.0
    if stat == "degenerate_ratio":
        evaluations = st.get("evaluations", 0.0)
        return st.get("degenerate", 0.0) / evaluations if evaluations else 0.0
    return st.get(stat, 0.0)


def run_workload(name, seed, seconds, trace):
    """Measure one workload; return (result, record). seconds=0 runs one item."""
    with work_dir(name) as workdir:
        return _measure(name, seed, seconds, trace, workdir)


def _measure(name, seed, seconds, trace, workdir):
    workload, inputs, warm = set_up(name, seed, workdir)
    setups, slowdowns, deviations = [], [], [reference_deviation(name, warm)]
    for _ in range(SETUPS):
        elapsed, slowdown, deviation = fresh_set_up(name, seed)
        setups.append(elapsed)
        slowdowns.append(slowdown)
        deviations.append(deviation)
    ref_failed = sum(d > REF_RTOL for d in deviations)
    hostspeed.kernel_seconds()  # its first pass fills numpy's FFT and LAPACK caches

    latencies, kernel_s, outcomes = [], [], []
    plain_s = traced_s = covered_s = cpu_s = 0.0
    tracer = Tracer(LAYER_STATS) if trace else None

    def run_once(idx, traced):
        nonlocal traced_s, plain_s, covered_s, cpu_s
        first = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out = attempt(workload.item, inputs, idx)
        finally:
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            traced_s += dt
            covered_s += tracer.top_level_time(first)
        else:
            plain_s += dt
            cpu_s += time.process_time() - cpu0
            latencies.append(dt)
        return out

    def run_item(idx):
        if not trace:
            kernel_s.append(hostspeed.kernel_seconds())
            outcomes.append(run_once(idx, False).ok)
            return
        # alternate the order so neither side always runs on warmer caches
        first, second = (False, True) if idx % 2 == 0 else (True, False)
        a, b = run_once(idx, first), run_once(idx, second)
        outcomes.append(a.ok and b.ok and a == b)

    items, wall = timed_loop(run_item, seconds)
    failed = outcomes.count(False) + ref_failed
    attempted = items + len(deviations)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "timed_items": items,
        "timed_wall_s": wall,
        "setup_runs_wall_s": setups,
        "setup_runs_slowdown": slowdowns,
        "failed_frac": failed / attempted,
        "verify.max_rel_dev": max(deviations),
        "verify.rel_tolerance": REF_RTOL,
    }
    if not trace:
        # each item is corrected by the mean of the kernel times just before and after it
        kernel_s.append(hostspeed.kernel_seconds())
        corrected = [
            lat * 2 * hostspeed.REFERENCE_S / (before + after)
            for lat, before, after in zip(latencies, kernel_s, kernel_s[1:])
        ]
        tail_pct, tail_s = tail(corrected)
        record.update(
            {
                "tail_percentile": tail_pct,
                "host_slowdown_p50": statistics.median(kernel_s) / hostspeed.REFERENCE_S,
                "wall_items_per_s": items / sum(latencies),
                "wall_item_p50_ms": 1e3 * statistics.median(latencies),
                "wall_item_tail_ms": 1e3 * tail(latencies)[1],
            }
        )
        metrics = {
            "items_per_s": items / sum(corrected),
            "item_p50_ms": 1e3 * statistics.median(corrected),
            "item_tail_ms": 1e3 * tail_s,
            "setup_s": statistics.median(s / k for s, k in zip(setups, slowdowns)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        stats = tracer.layer_stats()
        metrics = {m: layer_value(stats, m, items) for m in PER_LAYER if m not in PROCESS_METRICS}
        metrics.update(
            {
                "process.cpu_per_item_ms": 1e3 * cpu_s / items,
                "trace.overhead_frac": 1.0 - plain_s / traced_s,
                "trace.coverage_frac": covered_s / traced_s,
                "failed_frac": failed / attempted,
                "verify.max_rel_dev": max(deviations),
            }
        )
        units = PER_LAYER
        record["spans"] = len(tracer.spans)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_only:
        with work_dir(args.workload) as workdir:
            _, _, warm = set_up(args.workload, args.seed, workdir)
            setup_s = time.perf_counter() - START
        slowdown = hostspeed.slowdown()
        deviation = reference_deviation(args.workload, warm)
        out = {"setup_s": setup_s, "slowdown": slowdown, "deviation": deviation}
        print(json.dumps(out, allow_nan=False))
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
