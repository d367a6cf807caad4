"""Tests of the benchmark's own code: run with `python3 -m pytest bench -q`."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import TARGETS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, write_blobs, write_iris  # noqa: E402

IRIS = ROOT / "src" / "somchroma" / "data" / "iris.csv"


def _span(i, name, start, end, parent=None, **attrs):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, "outer", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 4.0, parent=0),   # overlaps a: together they cover 1..4
        _span(3, "c", 8.0, 12.0, parent=0),  # only 8..10 lies inside outer
        _span(4, "leaf", 1.5, 2.5, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_metrics_sum_totals_self_times_and_attributes():
    spans = [
        _span(0, "som.batch_epoch", 0.0, 5.0),
        _span(1, "som.bmu_indices", 1.0, 3.0, parent=0, pairs=10, temp_bytes=80),
        _span(2, "som.bmu_indices", 6.0, 7.0, pairs=4, temp_bytes=32),
        _span(3, "projection.project", 7.0, 9.0, iterations=4),
        _span(4, "projection.pairwise_distances", 7.5, 8.0, parent=3),
        _span(5, "projection.pairwise_distances", 8.0, 8.5, parent=3),
    ]
    m = layer_metrics(spans)
    assert m["som.batch_epoch_self_s"] == pytest.approx(3.0)
    assert m["som.bmu_indices_s"] == pytest.approx(3.0)
    assert m["som.bmu_indices_calls"] == 2
    assert m["som.bmu_pairs"] == 14
    assert m["som.bmu_temp_bytes"] == 80
    assert m["projection.pdist_per_iteration"] == pytest.approx(0.5)
    assert m["projection.knn_pairs_s"] == 0.0


def _originals():
    return {(t.module, t.attr): getattr(importlib.import_module(t.module), t.attr) for t in TARGETS}


def _pipeline(tmp: Path, csv: Path) -> tuple[int, str]:
    from somchroma import cli

    args = WORKLOADS["iris-pipeline"].pipeline_args({"csv": csv}, tmp)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, stdout.getvalue()


def test_traced_run_captures_layers_and_restores_every_attribute(tmp_path):
    before = _originals()
    tracer = Tracer()
    with tracer.installed():
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
        code, _ = _pipeline(tmp_path, IRIS)
    assert code == 0
    assert _originals() == before
    m = layer_metrics(tracer.spans)
    assert m["som.bmu_indices_calls"] > m["som.batch_epoch_calls"] > 0
    assert m["projection.pairwise_distances_calls"] > m["projection.iterations"] > 0
    assert m["dataset.load_csv_s"] > 0 and m["cli.artifact_bytes"] > 0


def test_wrappers_are_restored_when_the_traced_run_fails():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("stage failed")
    assert _originals() == before


def test_generators_are_deterministic_for_a_seed(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    write_blobs(7, 50, 3, a)
    write_blobs(7, 50, 3, b)
    write_blobs(8, 50, 3, c)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    write_iris(7, IRIS, a)
    write_iris(7, IRIS, b)
    assert a.read_bytes() == b.read_bytes()
    rows = IRIS.read_text().splitlines()
    shuffled = a.read_text().splitlines()
    assert shuffled[0] == rows[0] and sorted(shuffled[1:]) == sorted(rows[1:])


@pytest.fixture
def pipeline_run(tmp_path):
    csv = tmp_path / "input.csv"
    write_iris(3, IRIS, csv)
    out = tmp_path / "out"
    code, stdout = _pipeline(out, csv)
    assert code == 0
    return out, stdout


def test_gate_accepts_an_untouched_run(pipeline_run):
    out, stdout = pipeline_run
    hashes, problems = gate.check_run(out, stagewise=False, stdout=stdout)
    assert problems == []
    assert gate.compare_hashes(hashes, hashes, "itself") == []


def test_gate_rejects_a_tampered_artifact(pipeline_run):
    out, stdout = pipeline_run
    hashes, _ = gate.check_run(out, stagewise=False, stdout=stdout)
    svg = out / "som.svg"
    svg.write_bytes(svg.read_bytes().replace(b"<svg", b"<svg ", 1))
    tampered, problems = gate.check_run(out, stagewise=False, stdout=stdout)
    assert any("som.svg does not match" in p for p in problems)
    assert gate.compare_hashes(tampered, hashes, "the first run") == ["som.svg differs from the first run"]


def test_gate_rejects_a_metrics_line_that_disagrees_with_the_artifacts(pipeline_run):
    out, stdout = pipeline_run
    wrong = stdout.replace('"goodness": ', '"goodness": 1', 1)
    _, problems = gate.check_run(out, stagewise=False, stdout=wrong)
    assert any(p.startswith("stdout goodness=") for p in problems)


def test_gate_rejects_a_missing_artifact(pipeline_run):
    out, stdout = pipeline_run
    (out / "scatter.svg").unlink()
    _, problems = gate.check_run(out, stagewise=False, stdout=stdout)
    assert "missing artifact scatter.svg" in problems


def test_pins_apply_only_to_their_environment():
    pins = {"fingerprint": {"python": "3", "numpy": "2", "scipy": "1", "blas": "b"},
            "aliases": {"iris-stagewise": "iris-pipeline"},
            "workloads": {"iris-pipeline": {"4": {"grid.json": "x"}}}}
    same = dict(pins["fingerprint"], git_sha="any")
    assert gate.pinned_hashes(pins, same, "iris-stagewise", 4) == {"grid.json": "x"}
    assert gate.pinned_hashes(pins, same, "iris-pipeline", 5) is None
    assert gate.pinned_hashes(pins, dict(same, numpy="3"), "iris-pipeline", 4) is None


def test_a_run_counts_once_in_failed_and_probes_are_charged_to_a_run(tmp_path):
    bench = run.Bench(ROOT, tmp_path)
    bench.fail("run 1", ["exit 1", "missing artifact som.svg"])
    bench.fail("run 1", ["grid.json differs from the first run"])
    bench.fail("run 2", [])
    assert bench.probe("raise SystemExit(3)", "run 3") is None
    assert bench.attempted == 0
    assert list(bench.failures) == ["run 1", "run 3"]
    assert len(bench.failures["run 1"]) == 3


def test_git_sha_is_none_outside_a_repository(tmp_path):
    assert run.git_sha(tmp_path) is None


def test_tail_percentile_keeps_ten_samples_above_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile([float(v) for v in range(1, 21)]) == (50, 10.0)
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0)


def test_benchmark_json_lists_exactly_the_metrics_the_harness_prints(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probe = run.Bench(ROOT, tmp_path).probe(run.IMPORT_PROBE, "probe")
    imports = json.loads(probe.stdout.splitlines()[-1])
    emitted = {*layer_metrics([]), *imports, "trace_overhead_frac"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: run.layer_unit(k) for k in emitted}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
