"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/collect.py --seeds 1-10 --trace 0 --out bench/baseline/e2e.json

Each run is a separate `bench/run.py` process of BENCHMARK.json's
run_seconds, made one after another, seeds in the outer loop and every
workload in the inner one. For every
(workload, metric) the summary holds the values, their median, first and
third quartiles (statistics.quantiles, n=4) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. The file also records the machine and the code
measured. No CPU pinning, cache dropping or frequency control is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

# Figures of the untraced runs' records, summarised next to the metrics: the
# percentile item_tail_ms stands for, the uncorrected wall-clock figures and
# the host's slowdown measured by the calibration kernel.
RECORD_FIGURES = (
    "tail_percentile",
    "host_slowdown_p50",
    "wall_items_per_s",
    "wall_item_p50_ms",
    "wall_item_tail_ms",
)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy as np
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "measurement": (
            "one process per run, which times its set-ups in fresh interpreters "
            "before its timed loop; runs one after another; no CPU pinning, cache "
            "dropping or frequency control; other tenants may share the machine; "
            "end-to-end times are corrected for the host's speed with the calibration "
            "kernel of hostspeed.py, and the wall-clock figures are kept under 'record'; "
            "summaries are medians with quartiles across runs"
        ),
    }


def run_one(workload, seed, trace):
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} printed no result:\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2])["record"]


def summarise(values, bound):
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in WORKLOADS}
    all_passed = True
    for seed in seeds:
        for w in WORKLOADS:
            code, result, record = run_one(w, seed, args.trace)
            all_passed &= code == 0 and result["correct"]
            runs[w].append({"exit_code": code, "result": result, "record": record})
            print(f"{w} seed {seed}: correct={result['correct']} "
                  f"items={record['timed_items']}", file=sys.stderr, flush=True)

    summary = {}
    for w, rs in runs.items():
        names = rs[0]["result"]["metrics"]
        summary[w] = {
            "seeds": seeds,
            "timed_items": [r["record"]["timed_items"] for r in rs],
            "failed_frac": [r["record"]["failed_frac"] for r in rs],
            "max_rel_dev": max(r["record"]["verify.max_rel_dev"] for r in rs),
            "record": {
                k: summarise([r["record"][k] for r in rs], None)
                for k in RECORD_FIGURES
                if k in rs[0]["record"]
            },
            "metrics": {
                m: {
                    "unit": names[m]["unit"],
                    **summarise([r["result"]["metrics"][m]["value"] for r in rs], bounds.get(m)),
                }
                for m in names
            },
        }
        print(f"\n{w}: items {summary[w]['timed_items']}, failed_frac max "
              f"{max(summary[w]['failed_frac'])}")
        for m, s in summary[w]["metrics"].items():
            flag = ""
            if s["bound"] is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {m:50s} {s['median']:12.6g} [{s['q1']:.6g}, {s['q3']:.6g}] "
                  f"{s['unit']:10s} spread {s['spread']:.4f} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        payload = {"provenance": provenance(), "trace": args.trace, "seconds": spec["run_seconds"],
                   "workloads": summary}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
