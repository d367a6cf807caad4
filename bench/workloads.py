"""Benchmark workloads: a seeded input generator and the CLI runs over it.

Every input is made from the workload seed alone, so the same seed gives the
same CSV bytes. The program sees only that CSV and its command-line flags.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STAGES = ("ingest", "train", "project", "color", "render")

# The five artifacts a run hashes; stage-wise and pipeline runs must agree on them.
ARTIFACTS = ("standardized.json", "grid.json", "embedding.json", "som.svg", "scatter.svg")

IRIS_FLAGS = {
    "ingest": ("--class-column", "species"),
    "train": ("--grid", "6x7"),
    "project": ("--method", "sammon"),
    "color": ("--plane", "cyan-gray-red"),
    "render": (),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how its input is made and how the CLI runs on it.

    `flags` holds each stage's options; the pipeline form passes them all.
    `config`, when set, is written to a JSON file passed with --config; the
    blobs workloads use it to fix the projection's iteration budget, which
    the CLI has no flag for.
    """

    name: str
    why: str
    generator: str
    rows: int
    cols: int
    flags: dict[str, tuple[str, ...]]
    stagewise: bool = False
    config: dict | None = None

    def make_input(self, seed: int, root: Path, work: Path) -> dict[str, Path]:
        """Write the workload's CSV (and config) for `seed` into `work`."""
        work.mkdir(parents=True, exist_ok=True)
        paths = {"csv": work / "input.csv"}
        if self.generator == "iris":
            write_iris(seed, root / "src" / "somchroma" / "data" / "iris.csv", paths["csv"])
        else:
            write_blobs(seed, self.rows, self.cols, paths["csv"])
        if self.config is not None:
            paths["config"] = work / "config.json"
            paths["config"].write_text(json.dumps(self.config, sort_keys=True) + "\n")
        return paths

    def _common(self, paths: dict[str, Path]) -> list[str]:
        common = ["--seed", "0"]
        if "config" in paths:
            common += ["--config", str(paths["config"])]
        return common

    def pipeline_args(self, paths: dict[str, Path], out: Path) -> list[str]:
        args = ["pipeline", "--input", str(paths["csv"]), "--out", str(out)]
        for stage in STAGES:
            args += self.flags[stage]
        return args + self._common(paths)

    def stage_args(self, paths: dict[str, Path], out: Path) -> list[list[str]]:
        """The five stage commands that together match `pipeline_args`."""
        common = self._common(paths)
        std, grid, emb, colors = (out / n for n in (
            "standardized.json", "grid.json", "embedding.json", "colors.json"))
        return [
            ["ingest", "--input", str(paths["csv"]), "--out", str(std), *self.flags["ingest"], *common],
            ["train", "--in", str(std), "--out", str(grid), *self.flags["train"], *common],
            ["project", "--in", str(grid), "--out", str(emb), *self.flags["project"], *common],
            ["color", "--in", str(emb), "--out", str(colors), *self.flags["color"], *common],
            ["render", "--in-data", str(std), "--in-grid", str(grid), "--in-embedding", str(emb),
             "--in-colors", str(colors), "--out-som", str(out / "som.svg"),
             "--out-scatter", str(out / "scatter.svg"), *self.flags["render"], *common],
        ]

    def commands(self, paths: dict[str, Path], out: Path) -> list[list[str]]:
        """CLI argument lists of one run, in order."""
        if self.stagewise:
            return self.stage_args(paths, out)
        return [self.pipeline_args(paths, out)]


def write_iris(seed: int, source: Path, dest: Path) -> None:
    """The bundled iris rows in a seeded order (the data themselves are fixed)."""
    with open(source, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    order = np.random.default_rng(seed).permutation(len(rows))
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows[i] for i in order)


def write_blobs(seed: int, n_rows: int, n_cols: int, dest: Path, n_clusters: int = 8) -> None:
    """Gaussian clusters with seeded centres, plus a `cluster` class column."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (n_clusters, n_cols))
    labels = rng.integers(0, n_clusters, n_rows)
    values = centers[labels] + rng.normal(0.0, 1.0, (n_rows, n_cols))
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(n_cols)] + ["cluster"]) + "\n")
        for row, label in zip(values, labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",c{label}\n")


# A tolerance this small never stops the optimizer, so every seed runs exactly
# `max_iterations` iterations and the work per run does not depend on the data.
_FIXED_BUDGET = {"tolerance": 1e-300}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iris-pipeline",
            why="iris 150x4 (rows shuffled by seed), 6x7, sammon, README quick-start pipeline: "
                "the common small run, where interpreter start and imports dominate",
            generator="iris", rows=150, cols=4, flags=IRIS_FLAGS,
        ),
        Workload(
            name="iris-stagewise",
            why="iris-pipeline run as the five stage commands: pays setup five times and reads "
                "every artifact back, the read path beside the pipeline's write path",
            generator="iris", rows=150, cols=4, flags=IRIS_FLAGS, stagewise=True,
        ),
        Workload(
            name="blobs5k-sammon",
            why="5000x16 in 8 clusters, 15x15, auto sigma (5 candidates x 3 epochs), sammon "
                "(100 iterations): BMU search and its N*M*n temporary dominate time and memory",
            generator="blobs", rows=5000, cols=16,
            flags={"ingest": ("--class-column", "cluster"), "train": ("--grid", "15x15", "--epochs", "3"),
                   "project": ("--method", "sammon"), "color": (), "render": ()},
            config={"max_iterations": 100, **_FIXED_BUDGET},
        ),
        Workload(
            name="blobs600-lmds",
            why="600x8 in 8 clusters, 15x15, sigma-final 1.0 (one schedule), lmds (600 iterations): "
                "the projection's pairwise distances dominate, BMU work is small",
            generator="blobs", rows=600, cols=8,
            flags={"ingest": ("--class-column", "cluster"),
                   "train": ("--grid", "15x15", "--sigma-final", "1.0"),
                   "project": ("--method", "lmds"), "color": (), "render": ()},
            config={"max_iterations": 600, **_FIXED_BUDGET},
        ),
    )
}
