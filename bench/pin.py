"""Record the artifact checksums the benchmark pins, with their environment.

    python3 bench/pin.py --seeds 0-19

Run from the repository root. For each seed it runs every workload's pipeline
once through the CLI, gates the run, and writes bench/pins.json. The stage-
wise workload shares the pipeline's pins, since its artifacts must match
them byte for byte. Re-run it, and say so, whenever a change moves artifact
bytes on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import gate
from run import BENCH_DIR, Bench, fingerprint
from workloads import WORKLOADS

PINNED = ("iris-pipeline", "blobs5k-sammon", "blobs600-lmds")
ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "blas", "nproc")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    lo, hi = (int(s) for s in parser.parse_args(argv).seeds.split("-"))
    root = Path.cwd()
    env = fingerprint(root)
    pins = {"fingerprint": {k: env[k] for k in ENVIRONMENT_KEYS},
            "aliases": {"iris-stagewise": "iris-pipeline"}, "workloads": {}}
    for name in PINNED:
        workload = WORKLOADS[name]
        work = root / ".bench-work" / "pin" / name
        shutil.rmtree(work, ignore_errors=True)
        for seed in range(lo, hi + 1):
            paths = workload.make_input(seed, root, work)
            bench = Bench(root, work)
            _, _, hashes = bench.run_workload(workload, paths, work / "out", None, f"seed {seed}")
            if bench.failures:
                print(f"{name} seed {seed}: {bench.failures}", file=sys.stderr)
                return 1
            pins["workloads"].setdefault(name, {})[str(seed)] = {
                "input.csv": gate.sha256_file(paths["csv"]), **hashes}
            print(f"{name} seed {seed} pinned", file=sys.stderr)
    (BENCH_DIR / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
