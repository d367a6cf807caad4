"""Outside-in tracing: time somchroma's layers by wrapping module attributes.

The package is not edited. For the length of a traced run, selected module
attributes are replaced with wrappers that record a span (name, start, end,
parent) per call. The modules look these names up as globals at call time,
so calls between them (batch_epoch -> bmu_indices, _lmds_grad ->
pairwise_distances) are captured too. Every attribute is put back when the
run ends, also when it fails.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One attribute to wrap. `on_call` and `on_return` add span attributes."""

    module: str
    attr: str
    name: str
    on_call: Callable[..., dict] | None = None
    on_return: Callable[[object], dict] | None = None


def _bmu_shape(values, grid, *_, **__) -> dict:
    n, dim = values.shape
    return {"pairs": n * grid.m, "temp_bytes": n * grid.m * dim * 8}


def _artifact_size(path, content, *_, **__) -> dict:
    return {"bytes": len(content.encode("utf-8"))}


def _iterations(result) -> dict:
    return {"iterations": result.iterations}


# cli.py imports load_csv and standardize by name, so they are wrapped in the
# cli namespace; everything else is looked up through its own module.
TARGETS = (
    Target("somchroma.cli", "stage_ingest", "cli.stage_ingest"),
    Target("somchroma.cli", "stage_train", "cli.stage_train"),
    Target("somchroma.cli", "stage_project", "cli.stage_project"),
    Target("somchroma.cli", "stage_color", "cli.stage_color"),
    Target("somchroma.cli", "stage_render", "cli.stage_render"),
    Target("somchroma.cli", "canonical_json", "cli.canonical_json"),
    Target("somchroma.cli", "_write_artifact", "cli.write_artifact", on_call=_artifact_size),
    Target("somchroma.cli", "_load_payload", "cli.load_payload"),
    Target("somchroma.cli", "load_csv", "dataset.load_csv"),
    Target("somchroma.cli", "standardize", "dataset.standardize"),
    Target("somchroma.som", "select_sigma", "som.select_sigma"),
    Target("somchroma.som", "train", "som.train"),
    Target("somchroma.som", "batch_epoch", "som.batch_epoch"),
    Target("somchroma.som", "bmu_indices", "som.bmu_indices", on_call=_bmu_shape),
    Target("somchroma.som", "quantization_error", "som.quantization_error"),
    Target("somchroma.som", "goodness", "som.goodness"),
    Target("somchroma.projection", "project", "projection.project", on_return=_iterations),
    Target("somchroma.projection", "pairwise_distances", "projection.pairwise_distances"),
    Target("somchroma.projection", "classical_scaling", "projection.classical_scaling"),
    Target("somchroma.projection", "knn_pairs", "projection.knn_pairs"),
    Target("somchroma.colorspace", "colorize", "colorspace.colorize"),
    Target("somchroma.render", "render_som_svg", "render.render_som_svg"),
    Target("somchroma.render", "render_scatter_svg", "render.render_scatter_svg"),
)


class Tracer:
    """Records spans in memory; `installed()` swaps the wrappers in and out."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                  "end": None, "parent": self._stack[-1] if self._stack else None, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = target.on_call(*args, **kwargs) if target.on_call else {}
            with self.span(target.name, **attrs) as record:
                result = fn(*args, **kwargs)
            if target.on_return:
                record["attrs"].update(target.on_return(result))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for target in TARGETS:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
                saved.append((module, target.attr, original))
                setattr(module, target.attr, self._wrap(target, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    result = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        result[s["id"]] = (s["end"] - s["start"]) - covered
    return result


TOTAL_TIMES = (
    "cli.canonical_json", "cli.write_artifact", "cli.load_payload", "dataset.load_csv",
    "dataset.standardize", "som.select_sigma", "som.bmu_indices", "projection.project",
    "projection.pairwise_distances", "projection.classical_scaling", "projection.knn_pairs",
    "colorspace.colorize", "render.render_som_svg", "render.render_scatter_svg",
)
SELF_TIMES = ("som.batch_epoch", "som.quantization_error", "som.goodness")
CALLS = ("som.train", "som.batch_epoch", "som.bmu_indices", "som.goodness",
         "projection.pairwise_distances")

# Metrics that must repeat exactly between runs of the same input.
COUNTS = tuple(f"{n}_calls" for n in CALLS) + (
    "cli.artifact_bytes", "som.bmu_pairs", "som.bmu_temp_bytes", "projection.iterations",
    "projection.pdist_per_iteration")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals, self times, call counts and computed sizes of one run."""
    own = self_times(spans)
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    attr_sum, attr_max = defaultdict(int), defaultdict(int)
    for s in spans:
        name = s["name"]
        total[name] += s["end"] - s["start"]
        self_s[name] += own[s["id"]]
        calls[name] += 1
        for key, value in s["attrs"].items():
            attr_sum[name, key] += value
            attr_max[name, key] = max(attr_max[name, key], value)
    metrics = {f"{n}_s": total[n] for n in TOTAL_TIMES}
    metrics.update({f"{n}_self_s": self_s[n] for n in SELF_TIMES})
    metrics.update({f"{n}_calls": calls[n] for n in CALLS})
    metrics["cli.artifact_bytes"] = attr_sum["cli.write_artifact", "bytes"]
    metrics["som.bmu_pairs"] = attr_sum["som.bmu_indices", "pairs"]
    metrics["som.bmu_temp_bytes"] = attr_max["som.bmu_indices", "temp_bytes"]
    metrics["projection.iterations"] = attr_sum["projection.project", "iterations"]
    iterations = metrics["projection.iterations"]
    metrics["projection.pdist_per_iteration"] = (
        metrics["projection.pairwise_distances_calls"] / iterations if iterations else 0.0)
    return metrics
