"""Self-tests of the benchmark: one item per workload.

    python3 bench/selftest.py

Checks that
1. every end-to-end and per-layer metric named in BENCHMARK.json is
   emitted, with its unit and a finite value, that every traced function
   is reached by some workload, and that every workload passes its checks;
2. a check made false here only (the L2 ceiling lowered to 0.5) is counted
   as failed and makes bench/run.py exit non-zero, traced and untraced;
3. traced and untraced runs of the same item give identical outcomes;
4. the CLI stdout captured by cli_small is byte-identical with and
   without tracing.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import run
import workloads
from spans import Tracer

SEED = 1
failures = []


def check(ok, message):
    print(f"{'PASS' if ok else 'FAIL'}: {message}")
    if not ok:
        failures.append(message)


def strict_json(line):
    """Parse line as JSON, refusing Infinity and NaN as a strict parser does."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(line, parse_constant=refuse)


def emitted_names(spec):
    reached = set()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            result, _ = run.run_workload(name, SEED, 0.0, trace)
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            check(got == want, f"{name} trace={int(trace)}: emits every {key} metric with its unit")
            check(all(math.isfinite(v["value"]) for v in result["metrics"].values()),
                  f"{name} trace={int(trace)}: every metric value is finite")
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={int(trace)}: every check passes")
            reached |= {m.rsplit(".", 1)[0] for m, v in result["metrics"].items() if v["value"] > 0}
    missed = sorted(set(run.LAYER_STATS) - reached)
    check(not missed, f"every traced function is reached by some workload (missed: {missed})")


def injected_failure(trace):
    saved = workloads.L2_CEILING
    workloads.L2_CEILING = 0.5
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "lp_ceiling", "--seed", str(SEED), "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        workloads.L2_CEILING = saved
    result = strict_json(out.getvalue().splitlines()[-1])
    # the fresh set-up interpreters do not see the lowered ceiling and pass
    check(result["failed"] == result["attempted"] - run.SETUPS and not result["correct"],
          f"trace={trace}: a lowered ceiling is counted in failed")
    check(code != 0, f"trace={trace}: a failed check makes the command exit non-zero")


def traced_equals_untraced():
    for name in workloads.WORKLOADS:
        with run.work_dir(name) as workdir:
            workload, inputs, _ = run.set_up(name, SEED, workdir)
            plain = run.attempt(workload.item, inputs, 1)
            tracer = Tracer(run.LAYER_STATS)
            tracer.install()
            try:
                traced = run.attempt(workload.item, inputs, 1)
            finally:
                tracer.uninstall()
            check(bool(tracer.spans), f"{name}: tracing records spans")
            check(plain.ok == traced.ok and plain.digest == traced.digest,
                  f"{name}: traced and untraced items give identical outcomes")
            if name == "cli_small":
                check(bool(plain.stdout) and plain.stdout.encode() == traced.stdout.encode(),
                      "cli_small: CLI stdout is byte-identical with and without tracing")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    emitted_names(spec)
    injected_failure(0)
    injected_failure(1)
    traced_equals_untraced()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
