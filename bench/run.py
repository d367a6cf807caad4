"""somchroma benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the CLI runs as a user runs it,
one subprocess at a time (a closed loop), for about S seconds, and the end-to-
end metrics are printed: wall_s, setup_s and peak_rss_mb. With --trace 1 one
untraced CLI run is followed by an in-process warm-up and pairs of in-process
runs, one plain and one with every layer wrapped (see tracer.py), and the
per-layer metrics are printed instead. Every run passes through the correctness gate (gate.py).
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a human-readable report and the environment fingerprint
come before it. Scratch files, the spans and a full result record go to
.bench-work/<workload>/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gate  # noqa: E402
from tracer import COUNTS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_TIMEOUT_S = 150.0
SETUP_SAMPLES = 11  # enough for a tail percentile with ten samples above it
TRACE_PROBE_REPEATS = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.sparse, scipy.sparse.csgraph
t2 = time.perf_counter()
import somchroma.cli
t3 = time.perf_counter()
print(json.dumps({"cli.import_numpy_s": t1 - t0, "cli.import_scipy_s": t2 - t1,
                  "cli.import_somchroma_s": t3 - t2}))
"""


@dataclasses.dataclass
class Proc:
    """One finished child process: exit code, wall time, peak RSS and output."""

    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


class Bench:
    """Runs one workload's commands from a checkout and tallies the attempts."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}  # attempted run -> its problems
        self.env = {k: v for k, v in os.environ.items() if k != "SOMCHROMA_CONFIG"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["TMPDIR"] = str(work)

    def spawn(self, argv: list[str]) -> Proc:
        """Run a child to exit; time it from spawn and read its ru_maxrss."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.work, env=self.env)
            timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above; Popen must not wait again
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def fail(self, run: str, problems: list[str]) -> None:
        """Charge problems to one attempted run; a run counts once in `failed`."""
        if problems:
            self.failures.setdefault(run, []).extend(problems)

    def run_workload(self, workload, paths, out: Path, expected: dict | None, what: str):
        """One untraced run of the workload's commands, gated.

        Returns (wall_s, peak_rss_mb, artifact hashes); wall_s sums the
        commands and peak_rss_mb is the largest of them.
        """
        self.attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        procs = []
        for args in workload.commands(paths, out):
            procs.append(self.spawn([sys.executable, "-m", "somchroma", *args]))
            if procs[-1].returncode != 0:
                break
        wall = sum(p.wall_s for p in procs)
        rss = max(p.peak_rss_mb for p in procs)
        bad = [f"exit {p.returncode}: {p.stderr.strip()[-300:]}" for p in procs if p.returncode != 0]
        hashes, problems = gate.check_run(out, workload.stagewise, procs[-1].stdout)
        if expected is not None:
            problems += gate.compare_hashes(hashes, expected["hashes"], expected["source"])
        self.fail(what, bad + problems)
        return wall, rss, hashes

    def probe(self, code: str, run: str) -> Proc | None:
        """A fresh interpreter running `code`; None if it fails.

        A probe is not a run of its own: its failure is charged to `run`.
        """
        proc = self.spawn([sys.executable, "-c", code])
        if proc.returncode != 0:
            self.fail(run, [f"probe: {proc.stderr.strip()[-300:]}"])
            return None
        return proc

    def setup_time(self, run: str) -> list[float]:
        """One fresh-interpreter `import somchroma.cli` time (none if it fails)."""
        proc = self.probe("import somchroma.cli", run)
        return [proc.wall_s] if proc else []


# ----------------------------------------------------------------------------
# statistics and environment

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))  # nearest rank
    return pct, sorted(values)[rank - 1]


def summarize(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {"median": statistics.median(values), "n": len(values),
            "tail_pct": tail[0] if tail else None, "tail": tail[1] if tail else None}


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git repository.

    The ceiling keeps git from taking the HEAD of a repository above it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
    }


def load_pins() -> dict:
    path = BENCH_DIR / "pins.json"
    return json.loads(path.read_text()) if path.is_file() else {}


# ----------------------------------------------------------------------------
# the two modes

def reference(bench: Bench, workload, paths, seed: int, env: dict):
    """What every run of this seed must reproduce: pinned or first-run hashes.

    Returns (expected, pinned, problems). A stage-wise workload is held to a
    pipeline run of the same input, so that run is made first. A generated
    input that differs from the pinned one is a problem of the first run.
    """
    pinned = gate.pinned_hashes(load_pins(), env, workload.name, seed)
    if pinned is not None:
        problems = []
        if gate.sha256_file(paths["csv"]) != pinned["input.csv"]:
            problems.append("generated input differs from the pinned input")
        return {"hashes": pinned, "source": f"pinned checksums (seed {seed})"}, True, problems
    if workload.stagewise:
        pipeline = dataclasses.replace(workload, stagewise=False)
        _, _, hashes = bench.run_workload(pipeline, paths, bench.work / "pipeline",
                                          None, "reference pipeline")
        return {"hashes": hashes, "source": "the pipeline run"}, False, []
    return None, False, []


def timed(bench: Bench, workload, paths, seed: int, seconds: float, env: dict) -> dict:
    """Closed-loop CLI runs for about `seconds`, with setup samples spread among them.

    Before each run, setup samples are taken until they keep pace with the
    share of the budget that will have passed when the run ends, so that
    SETUP_SAMPLES of them are spread over the whole measurement; any still
    missing are taken at the end. Host speed drifts over minutes, and
    samples taken at the start alone would miss it.
    """
    expected, pinned, problems = reference(bench, workload, paths, seed, env)
    bench.fail("run 1", problems)
    bench.probe("import somchroma.cli", "run 1")  # warm-up: bytecode and page cache
    setup, walls, rss = [], [], []
    start = time.perf_counter()
    while True:
        run = f"run {len(walls) + 1}"
        ahead = statistics.median(walls) if walls else 0.0
        while True:
            sample = bench.setup_time(run)
            setup += sample
            share = (time.perf_counter() - start + ahead) / seconds
            if not sample or len(setup) >= min(SETUP_SAMPLES, SETUP_SAMPLES * share):
                break
        wall, peak, hashes = bench.run_workload(workload, paths, bench.work / "out", expected, run)
        walls.append(wall)
        rss.append(peak)
        if expected is None:
            expected = {"hashes": hashes, "source": "the first run"}
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        before = len(setup)
        setup += bench.setup_time(run)
        if len(setup) == before:  # the import fails; it is charged to the last run
            break
    return {"pinned": pinned, "stats": {"wall_s": summarize(walls), "setup_s": summarize(setup),
                                        "peak_rss_mb": summarize(rss)}}


def in_process_run(bench: Bench, workload, paths, out: Path, tracer: Tracer | None):
    """The workload's commands run in this process, traced when `tracer` is set.

    Returns (seconds, artifact hashes, gate problems).
    """
    from somchroma import cli

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    stdout = io.StringIO()
    bench.attempted += 1
    wrapped = tracer.installed() if tracer else contextlib.nullcontext()
    with wrapped, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        codes = [cli.main(args) for args in workload.commands(paths, out)]
        seconds = time.perf_counter() - start
    hashes, problems = gate.check_run(out, workload.stagewise, stdout.getvalue())
    return seconds, hashes, problems + [f"exit {c}" for c in codes if c != 0]


def traced(bench: Bench, workload, paths, seed: int, seconds: float, env: dict) -> dict:
    """Per-layer metrics from traced in-process runs.

    Each traced run is paired with an untraced in-process run of the same
    commands; trace_overhead_frac compares their median times. An untimed
    warm-up run pays the process's first-call costs (imports, BLAS threads)
    before the pairs, and the pairs alternate which of the two goes first.
    Every in-process run must reproduce the artifacts of the untraced CLI
    run byte for byte.
    """
    start = time.perf_counter()
    expected, pinned, problems = reference(bench, workload, paths, seed, env)
    bench.fail("untraced run", problems)
    wall, _, hashes = bench.run_workload(workload, paths, bench.work / "out", expected, "untraced run")
    untraced = {"hashes": hashes, "source": "the untraced CLI run"}
    probes = [bench.probe(IMPORT_PROBE, "untraced run") for _ in range(TRACE_PROBE_REPEATS)]
    imports = [json.loads(p.stdout.strip().splitlines()[-1]) for p in probes if p]

    sys.path.insert(0, str(bench.root / "src"))
    _, got, problems = in_process_run(bench, workload, paths, bench.work / "in-process", None)
    bench.fail("in-process warm-up", problems + gate.compare_hashes(got, untraced["hashes"],
                                                                    untraced["source"]))
    runs, all_spans = [], []
    while True:
        pair = len(runs) + 1
        tracer = Tracer()
        times = {}
        for which in (None, tracer) if pair % 2 else (tracer, None):
            took, got, problems = in_process_run(bench, workload, paths, bench.work / "in-process", which)
            times[which is tracer] = took
            problems += gate.compare_hashes(got, untraced["hashes"], untraced["source"])
            if which is tracer:
                metrics = layer_metrics(tracer.spans)
                problems += [f"{k} changed between traced runs" for k in COUNTS
                             if runs and metrics[k] != runs[0]["metrics"][k]]
            bench.fail(f"{'traced' if which else 'untraced in-process'} run {pair}", problems)
        runs.append({"metrics": metrics, "untraced_s": times[False], "traced_s": times[True]})
        all_spans.append(tracer.spans)
        pair_s = statistics.median(r["untraced_s"] + r["traced_s"] for r in runs)
        if time.perf_counter() - start + pair_s > seconds:
            break

    # Counts repeat exactly (checked above); times are medians over the traced runs.
    layers = {k: v if k in COUNTS else statistics.median(r["metrics"][k] for r in runs)
              for k, v in runs[0]["metrics"].items()}
    layers.update({k: statistics.median(i[k] for i in imports) for k in imports[0]} if imports else {})
    traced_s = statistics.median(r["traced_s"] for r in runs)
    untraced_s = statistics.median(r["untraced_s"] for r in runs)
    layers["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    write_spans(bench.work / "spans.json", all_spans)
    return {"pinned": pinned, "layers": layers, "traced_runs": len(runs), "traced_s": traced_s,
            "untraced_in_process_s": untraced_s, "untraced_cli_wall_s": wall}


def write_spans(path: Path, runs: list[list[dict]]) -> None:
    rows = [{"run": k, "id": s["id"], "name": s["name"], "start": s["start"], "end": s["end"],
             "parent": s["parent"], **s["attrs"]} for k, spans in enumerate(runs) for s in spans]
    path.write_text(json.dumps(rows) + "\n")


# ----------------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "somchroma" / "cli.py").is_file():
        print("error: run from a somchroma checkout (src/somchroma/cli.py not found)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench-work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ.pop("SOMCHROMA_CONFIG", None)

    env = fingerprint(root)
    paths = workload.make_input(args.seed, root, work)
    bench = Bench(root, work)
    mode = traced if args.trace else timed
    result = mode(bench, workload, paths, args.seed, args.seconds, env)

    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": s["median"], "unit": END_TO_END_UNITS[k]}
                   for k, s in result["stats"].items()}
    failed = len(bench.failures)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "fingerprint": env, "attempted": bench.attempted, "failed": failed,
              "failures": bench.failures, **result}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    report(record, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "som.bmu_temp_bytes":
        return "computed_bytes"
    if name == "cli.artifact_bytes":
        return "bytes"
    if name.endswith(("_frac", "_per_iteration")):
        return "ratio"
    return "count"


def report(record: dict, metrics: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, stats in record.get("stats", {}).items():
        tail = f"p{stats['tail_pct']} {stats['tail']:.4f}" if stats["tail"] is not None else "p-tail n/a"
        print(f"  {name:<14} median {stats['median']:.4f} {END_TO_END_UNITS[name]:<3} {tail}  n={stats['n']}")
    if record["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    frac = record["failed"] / record["attempted"]
    print(f"  failed_frac    {frac:.4f}  ({record['failed']} of {record['attempted']} runs)")
    pins = "checked" if record["pinned"] else "not applicable (seed not pinned, or another environment)"
    print(f"  pinned checksums {pins}")
    for run, problems in record["failures"].items():
        print(f"  FAILED {run}: " + "; ".join(problems))
    print(f"correct: {record['failed'] == 0}")


if __name__ == "__main__":
    sys.exit(main())
