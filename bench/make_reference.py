"""Write bench/reference.json: the warm-up item's digest for every workload.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are the accepted reference; every
benchmark run compares its warm-up item against this file.
"""

import json

import run
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    digests = {}
    for name in WORKLOADS:
        with run.work_dir(name) as workdir:
            _, _, warm = run.set_up(name, DEFAULT_SEED, workdir)
        if not warm.ok:
            raise SystemExit(f"{name}: the reference item failed its checks")
        digests[name] = warm.digest
    with open(run.BENCH / "reference.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
