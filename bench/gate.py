"""Correctness gate applied to every benchmark run.

Each check returns a list of problems; an empty list means the run passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import ARTIFACTS

METRIC_KEYS = ("final_stress", "goodness", "quantization_error")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def artifact_hashes(out: Path) -> dict[str, str]:
    """sha256 of each of the five artifacts present in `out`."""
    return {name: sha256_file(out / name) for name in ARTIFACTS if (out / name).is_file()}


def check_manifests(out: Path, manifests: list[str]) -> list[str]:
    """Every checksum a manifest vouches for must match the file beside it."""
    problems = []
    for name in manifests:
        path = out / name
        if not path.is_file():
            problems.append(f"missing manifest {name}")
            continue
        listed = json.loads(path.read_text(encoding="utf-8")).get("artifacts") or {}
        if not listed:
            problems.append(f"{name} lists no artifacts")
        for artifact, digest in listed.items():
            target = out / artifact
            if not target.is_file():
                problems.append(f"{name}: {artifact} is missing")
            elif sha256_file(target) != digest:
                problems.append(f"{name}: {artifact} does not match its sha256")
    return problems


def check_metrics(out: Path, stdout: str | None) -> list[str]:
    """Run metrics must be finite and, for a pipeline run, equal its artifacts.

    `stdout` is the pipeline's standard output, whose last line is the metrics
    JSON; stage-wise runs print none, so they pass None.
    """
    try:
        meta = json.loads((out / "grid.json").read_text(encoding="utf-8"))["training_metadata"]
        stress = json.loads((out / "embedding.json").read_text(encoding="utf-8"))["final_stress"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable grid or embedding: {exc}"]
    expected = {"final_stress": stress, "goodness": meta.get("goodness"),
                "quantization_error": meta.get("quantization_error")}
    problems = [f"{k} is not finite: {v!r}" for k, v in expected.items()
                if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if stdout is None:
        return problems
    lines = stdout.strip().splitlines()
    try:
        printed = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["no metrics line on stdout"]
    if sorted(printed) != sorted(METRIC_KEYS):
        return problems + [f"metrics line has keys {sorted(printed)}"]
    problems += [f"stdout {k}={printed[k]!r} but artifacts say {expected[k]!r}"
                 for k in METRIC_KEYS if printed[k] != expected[k]]
    return problems


def compare_hashes(actual: dict[str, str], expected: dict[str, str], against: str) -> list[str]:
    return [f"{name} differs from {against}" for name in ARTIFACTS
            if actual.get(name) != expected.get(name)]


def check_run(out: Path, stagewise: bool, stdout: str | None) -> tuple[dict[str, str], list[str]]:
    """Artifact hashes of one finished run and the problems the gate found."""
    hashes = artifact_hashes(out)
    problems = [f"missing artifact {name}" for name in ARTIFACTS if name not in hashes]
    if stagewise:
        manifests = [f"{name}.manifest.json" for name in
                     ("standardized.json", "grid.json", "embedding.json", "colors.json", "som.svg")]
    else:
        manifests = ["manifest.json"]
    problems += check_manifests(out, manifests)
    problems += check_metrics(out, None if stagewise else stdout)
    return hashes, problems


def pinned_hashes(pins: dict, fingerprint: dict, workload: str, seed: int) -> dict | None:
    """The pinned checksums for this run, or None when none apply.

    Pins hold only on the numeric environment they were recorded in, so a
    different Python, numpy, scipy or BLAS skips them.
    """
    recorded = pins.get("fingerprint", {})
    if any(recorded.get(k) != fingerprint.get(k) for k in ("python", "numpy", "scipy", "blas")):
        return None
    group = pins.get("aliases", {}).get(workload, workload)
    return pins.get("workloads", {}).get(group, {}).get(str(seed))
