import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from somchroma import cli, som

from conftest import make_gaussian_clusters, subprocess_env, write_numeric_csv

ARTIFACTS = ["standardized.json", "grid.json", "embedding.json", "som.svg", "scatter.svg"]


def base_args(iris_path, out_dir):
    return [
        "pipeline",
        "--input", str(iris_path),
        "--class-column", "species",
        "--grid", "4x4",
        "--epochs", "10",
        "--method", "sammon",
        "--plane", "cyan-gray-red",
        "--seed", "0",
        "--out", str(out_dir),
    ]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory, iris_path):
    out = tmp_path_factory.mktemp("pipeline")
    assert cli.main(base_args(iris_path, out)) == 0
    return out


def test_pipeline_writes_all_artifacts(pipeline_dir):
    for name in ARTIFACTS + ["manifest.json"]:
        assert (pipeline_dir / name).exists(), name


def test_pipeline_prints_metrics_line(tmp_path, iris_path, capsys):
    assert cli.main(base_args(iris_path, tmp_path)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    metrics = json.loads(out[-1])
    assert set(metrics) == {"quantization_error", "goodness", "final_stress"}
    assert metrics["quantization_error"] > 0.0


def test_pipeline_rerun_is_byte_identical(tmp_path, iris_path):
    args = base_args(iris_path, tmp_path)
    assert cli.main(args) == 0
    before = {name: (tmp_path / name).read_bytes() for name in ARTIFACTS + ["manifest.json"]}
    assert cli.main(args) == 0
    for name, blob in before.items():
        assert (tmp_path / name).read_bytes() == blob, name


def test_stage_composition_matches_pipeline(pipeline_dir, tmp_path, iris_path):
    d = tmp_path
    steps = [
        ["ingest", "--input", str(iris_path), "--class-column", "species",
         "--out", str(d / "standardized.json")],
        ["train", "--in", str(d / "standardized.json"), "--grid", "4x4",
         "--epochs", "10", "--seed", "0", "--out", str(d / "grid.json")],
        ["project", "--in", str(d / "grid.json"), "--method", "sammon",
         "--seed", "0", "--out", str(d / "embedding.json")],
        ["color", "--in", str(d / "embedding.json"), "--plane", "cyan-gray-red",
         "--out", str(d / "colors.json")],
        ["render", "--in-data", str(d / "standardized.json"),
         "--in-grid", str(d / "grid.json"),
         "--in-embedding", str(d / "embedding.json"),
         "--in-colors", str(d / "colors.json"),
         "--out-som", str(d / "som.svg"), "--out-scatter", str(d / "scatter.svg")],
    ]
    for step in steps:
        assert cli.main(step) == 0, step[0]
    for name in ARTIFACTS:
        assert (d / name).read_bytes() == (pipeline_dir / name).read_bytes(), name
    # each stage's manifest vouches for the bytes of the files it wrote
    manifests = sorted(p.name for p in d.glob("*.manifest.json"))
    assert manifests == sorted(f"{name}.manifest.json" for name in
                               ["standardized.json", "grid.json", "embedding.json",
                                "colors.json", "som.svg"])
    for manifest in manifests:
        for name, checksum in json.loads((d / manifest).read_text())["artifacts"].items():
            assert hashlib.sha256((d / name).read_bytes()).hexdigest() == checksum, name


def test_canonical_json_is_json_dumps_with_a_newline(tmp_path):
    rng = np.random.default_rng(5)
    payload = {"values": rng.standard_normal((700, 16)).tolist(), "b": {"z": [], "a": {}},
               "name": "caf\u00e9", "n": 3, "flag": True, "none": None}
    text = cli.canonical_json(payload)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert cli.canonical_json({}) == "{}\n"
    # a payload may hold arrays: each is written as json.dumps writes its list form
    coords = rng.standard_normal((40, 2))
    values = [coords, coords[:, 0], coords[:, ::-1], np.empty((0, 4)), np.empty((3, 0)),
              np.arange(8.0).reshape(2, 2, 2), np.array(2.5),
              np.array([[math.nan, math.inf], [-math.inf, 0.0]]), [math.nan, -math.inf],
              np.float64(0.1) * 3, [np.float64(1e-300), np.float64(-0.0)],
              (0.5, 1.25, 2.0), np.array(["\u00e9t\u00e9", "\u20ac\U0001f600"]),
              "\u65e5\u672c \U0001f600"]
    for i, value in enumerate(values):
        plain = np.array(value).tolist()  # Python floats and strings in (nested) lists
        text = cli.canonical_json({"x": value})
        assert text == json.dumps({"x": plain}, sort_keys=True, indent=2) + "\n", i
        # the streamed write gives the same bytes and their checksum
        path = tmp_path / f"{i}.json"
        assert cli._write_json(path, {"x": value}) == hashlib.sha256(text.encode()).hexdigest()
        assert path.read_bytes() == text.encode("utf-8"), i
    for write in (cli.canonical_json, lambda p: cli._write_json(tmp_path / "int.json", p)):
        with pytest.raises(TypeError):  # any other non-JSON object still fails
            write({"x": np.int64(1)})
    assert not (tmp_path / "int.json").exists()


def test_write_artifact_writes_the_utf8_encoding_and_its_sha256(tmp_path):
    # multi-byte characters on both sides of the first slice boundary, counted
    # in characters and in encoded bytes
    slice_ = cli._WRITE_SLICE
    text = ("a" * (slice_ - 2) + "\u00e9\u20ac\U0001f600" + "b" * (slice_ // 3)
            + "\u20ac" * slice_ + "\U0001f600\n")
    path = tmp_path / "sub" / "a.txt"
    digest = cli._write_artifact(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert digest == hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert cli._write_artifact(tmp_path / "empty.txt", "") == hashlib.sha256(b"").hexdigest()
    assert (tmp_path / "empty.txt").read_bytes() == b""
    assert sorted(p.name for p in path.parent.iterdir()) == ["a.txt"]


def test_write_artifact_memory_is_bounded_by_a_slice(tmp_path):
    # The whole-text encoding alone was the text's size, 5.3 MB here; a slice peaks near 0.2 MB.
    text = cli.canonical_json({"values": np.random.default_rng(2).standard_normal(
        (12000, 16)).tolist()})
    assert len(text) > 4_000_000
    tracemalloc.start()
    try:
        cli._write_artifact(tmp_path / "big.json", text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(text) // 8


def test_commit_streams_a_payload_in_memory_bounded_by_a_slice(tmp_path):
    # Neither the JSON text (5.3 MB here) nor the matrix as lists and floats is held whole.
    payload = {"values": np.random.default_rng(2).standard_normal((12000, 16))}
    manifest, out = tmp_path / "manifest.json", tmp_path / "big.json"
    tracemalloc.start()
    try:
        cli._commit(manifest, cli.PipelineConfig(), {out: payload})
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = cli.canonical_json(payload)
        _, text_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 4_000_000
    # the string itself is held beside its slices, not beside every encoder chunk
    assert text_peak < 2.5 * len(text)
    assert peak < len(text) // 8
    assert out.read_bytes() == text.encode("utf-8")
    checksums = json.loads(manifest.read_text())["artifacts"]
    assert checksums == {"big.json": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def test_a_payload_failing_mid_stream_keeps_the_old_artifact(tmp_path):
    # "z" sorts after "values", so the encoder fails once the matrix is in the temp file
    out, manifest = tmp_path / "big.json", tmp_path / "manifest.json"
    cli._commit(manifest, cli.PipelineConfig(), {out: {"values": [1.0]}})
    before = out.read_bytes()
    payload = {"values": np.random.default_rng(3).standard_normal((4000, 16)), "z": np.int64(1)}
    with pytest.raises(TypeError):
        cli._commit(manifest, cli.PipelineConfig(), {out: payload})
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]


def test_rerun_from_manifest_reproduces_checksums(tmp_path, iris_path):
    args = base_args(iris_path, tmp_path)
    assert cli.main(args) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    checksums = dict(manifest["artifacts"])
    assert cli.main(["pipeline", "--config", str(tmp_path / "manifest.json")]) == 0
    again = json.loads((tmp_path / "manifest.json").read_text())["artifacts"]
    assert again == checksums


def test_unknown_plane_lists_builtins(tmp_path, iris_path, capsys):
    args = base_args(iris_path, tmp_path)
    args[args.index("--plane") + 1] = "viridis"
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert "error in stage color" in err
    assert "green-yellow-red" in err and "cyan-gray-red" in err


@pytest.fixture(scope="module")
def stage_inputs(pipeline_dir, tmp_path_factory):
    """The pipeline's stage-input artifacts plus the colors.json its color stage gives."""
    colors = tmp_path_factory.mktemp("colors") / "colors.json"
    assert cli.main(["color", "--in", str(pipeline_dir / "embedding.json"),
                     "--plane", "cyan-gray-red", "--out", str(colors)]) == 0
    names = ("standardized.json", "grid.json", "embedding.json")
    return {**{name: pipeline_dir / name for name in names}, "colors.json": colors}


def stage_argv(command, inputs, out_dir):
    return {
        "train": ["train", "--in", str(inputs["standardized.json"]), "--grid", "4x4",
                  "--out", str(out_dir / "g.json")],
        "project": ["project", "--in", str(inputs["grid.json"]), "--out", str(out_dir / "e.json")],
        "color": ["color", "--in", str(inputs["embedding.json"]), "--out", str(out_dir / "c.json")],
        "render": ["render", "--in-data", str(inputs["standardized.json"]),
                   "--in-grid", str(inputs["grid.json"]),
                   "--in-embedding", str(inputs["embedding.json"]),
                   "--in-colors", str(inputs["colors.json"]),
                   "--out-som", str(out_dir / "som.svg"),
                   "--out-scatter", str(out_dir / "scatter.svg")],
    }[command]


def edited_inputs(inputs, name, edit, tmp_path):
    """`inputs` with artifact `name` replaced by a copy that `edit` changed in place."""
    payload = json.loads(inputs[name].read_text())
    edit(payload)
    bad = tmp_path / f"bad-{name}"
    bad.write_text(json.dumps(payload))
    return {**inputs, name: bad}


@pytest.mark.parametrize("command, name, key, value", [
    ("train", "standardized.json", "schema_version", 99),
    ("project", "grid.json", "schema_version", 99),
    ("color", "embedding.json", "schema_version", 99),
    ("render", "colors.json", "schema_version", 99),
    ("render", "colors.json", "kind", "embedding"),
], ids=["train", "project", "color", "render", "render-wrong-kind"])
def test_schema_mismatch_reported(stage_inputs, tmp_path, capsys, command, name, key, value):
    inputs = edited_inputs(stage_inputs, name, lambda p: p.update({key: value}), tmp_path)
    assert cli.main(stage_argv(command, inputs, tmp_path)) == 1
    assert f"error in stage {command}: schema version mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "project", "color", "render", "swatch"])
def test_a_stage_output_path_leaves_the_config_out_alone(stage_inputs, tmp_path, command):
    # the manifest's config is re-runnable; its `out` is the pipeline's directory
    argv = (["swatch", "--out", str(tmp_path / "swatch.svg")] if command == "swatch"
            else stage_argv(command, stage_inputs, tmp_path))
    assert cli.main(argv) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    assert json.loads(manifest.read_text())["config"]["out"] == "."


@pytest.mark.parametrize("som_name, scatter_name", [
    ("same.svg", "same.svg"), ("same.svg", "./same.svg"), ("sub/../same.svg", "same.svg"),
])
def test_render_rejects_two_outputs_naming_one_file(stage_inputs, tmp_path, capsys, monkeypatch,
                                                    som_name, scatter_name):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "stage_render", lambda *args: pytest.fail("stage render ran"))
    argv = stage_argv("render", stage_inputs, tmp_path)
    argv[argv.index("--out-som") + 1] = som_name
    argv[argv.index("--out-scatter") + 1] = scatter_name
    assert cli.main(argv) == 1
    assert "--out-som and --out-scatter both name" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_render_rejects_an_output_its_manifest_would_replace(stage_inputs, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_load_payload", lambda path: pytest.fail("an input was read"))
    monkeypatch.setattr(cli, "stage_render", lambda *args: pytest.fail("stage render ran"))
    argv = stage_argv("render", stage_inputs, tmp_path)
    argv[argv.index("--out-som") + 1] = "a.svg"
    argv[argv.index("--out-scatter") + 1] = "a.svg.manifest.json"
    assert cli.main(argv) == 1
    assert ("--out-scatter and the manifest both name a.svg.manifest.json"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


def _set_first_rgb(value):
    def edit(payload):
        payload["rgb"][0] = value
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("colors.json", _set_first_rgb([-0.1, 0.5, 1.7]),
     "unit_colors.rgb channels must lie in [0, 1]; unit 0 is [-0.1, 0.5, 1.7]"),
    ("colors.json", _set_first_rgb([0.5, float("nan"), 0.5]), "unit_colors.rgb must be finite"),
    ("colors.json", _set_first_rgb([0.5, 0.5]), "unit_colors.rgb must be an Mx3 array"),
    ("colors.json", lambda p: p["rgb"].pop(),
     "unit_colors.rgb has 15 entries for a grid of 16 units"),
    ("embedding.json", lambda p: p["points"].pop(),
     "embedding.points has 15 entries for a grid of 16 units"),
], ids=["out-of-range", "nan", "not-mx3", "too-few-colors", "too-few-points"])
def test_render_rejects_malformed_inputs(stage_inputs, tmp_path, capsys, name, edit, message):
    inputs = edited_inputs(stage_inputs, name, edit, tmp_path)
    assert cli.main(stage_argv("render", inputs, tmp_path)) == 1
    assert f"error in stage render: {message}" in capsys.readouterr().err
    assert not (tmp_path / "som.svg").exists()


def _drop(key):
    return lambda payload: payload.pop(key)


def _set(key, value):
    return lambda payload: payload.update({key: value})


def _set_first_value(key, value):
    def edit(payload):
        payload[key][0][0] = value
    return edit


@pytest.mark.parametrize("command, name, edit, message", [
    ("train", "standardized.json", _drop("values"), "standardized_data.values is missing"),
    ("train", "standardized.json", _drop("column_names"),
     "standardized_data.column_names is missing"),
    ("train", "standardized.json", _set_first_value("values", float("nan")),
     "standardized_data.values must be finite; row 0 is [nan,"),
    ("train", "standardized.json", lambda p: p["values"][2].pop(),
     "standardized_data.values must be an Mx4 array of numbers"),
    ("render", "standardized.json", _drop("values"), "standardized_data.values is missing"),
    ("project", "grid.json", _drop("reference_vectors"), "som_grid.reference_vectors is missing"),
    ("project", "grid.json", _drop("dim"), "som_grid.dim is missing"),
    ("project", "grid.json", _set_first_value("reference_vectors", "x"),
     "som_grid.reference_vectors must be an Mx4 array of numbers"),
    ("project", "grid.json", _set("rows", 6.9), "som_grid.rows must be an integer, got 6.9"),
    ("project", "grid.json", _set("rows", "6"), "som_grid.rows must be an integer, got '6'"),
    ("project", "grid.json", _set("rows", True), "som_grid.rows must be an integer, got True"),
    ("project", "grid.json", _set("rows", None), "som_grid.rows must be an integer, got None"),
    ("project", "grid.json", _set("cols", 7.0), "som_grid.cols must be an integer, got 7.0"),
    ("render", "grid.json", _set("dim", 4.2), "som_grid.dim must be an integer, got 4.2"),
    ("project", "grid.json", _set("rows", 7),
     "som_grid.rows x som_grid.cols is 7x4 = 28 units, but som_grid.reference_vectors has 16"),
    ("train", "standardized.json", _set("column_names", 4),
     "standardized_data.column_names must be a list of strings"),
    ("train", "standardized.json", _set("column_names", "abcd"),
     "standardized_data.column_names must be a list of strings"),
    ("train", "standardized.json", _set("column_names", None),
     "standardized_data.column_names must be a list of strings"),
    ("train", "standardized.json", _set("class_labels", 5),
     "standardized_data.class_labels must be a list of strings"),
    ("train", "standardized.json", _set("class_labels", [[1]] * 150),
     "standardized_data.class_labels must be a list of strings"),
    ("render", "standardized.json", _set("class_labels", [[1]] * 150),
     "standardized_data.class_labels must be a list of strings"),
    ("render", "standardized.json", _set("row_labels", list(range(150))),
     "standardized_data.row_labels must be a list of strings"),
], ids=["train-no-values", "train-no-column-names", "train-nan", "train-ragged",
        "render-no-values", "project-no-vectors", "project-no-dim", "project-not-numbers",
        "project-rows-float", "project-rows-string", "project-rows-bool", "project-rows-null",
        "project-cols-float", "render-dim-float", "project-size-mismatch",
        "train-column-names-int", "train-column-names-string", "train-column-names-null",
        "train-class-labels-int", "train-class-labels-nested", "render-class-labels-nested",
        "render-row-labels-ints"])
def test_missing_or_malformed_field_is_named(stage_inputs, tmp_path, capsys, command, name,
                                             edit, message):
    inputs = edited_inputs(stage_inputs, name, edit, tmp_path)
    assert cli.main(stage_argv(command, inputs, tmp_path)) == 1
    assert f"error in stage {command}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [_set("class_labels", None), _drop("class_labels"),
                                  _drop("row_labels")], ids=["null", "missing", "missing-row"])
def test_optional_label_fields_may_be_null_or_missing(stage_inputs, tmp_path, edit):
    inputs = edited_inputs(stage_inputs, "standardized.json", edit, tmp_path)
    assert cli.main(stage_argv("train", inputs, tmp_path)) == 0
    assert cli.main(stage_argv("render", inputs, tmp_path)) == 0


def test_failed_run_leaves_no_stale_manifest(tmp_path, iris_path, capsys):
    out = tmp_path / "out"
    args = base_args(iris_path, out)
    assert cli.main(args) == 0
    before = file_bytes(out)
    args[args.index("--grid") + 1] = "5x5"
    # only the data show that the marker map has no shape for 'versicolor'
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"marker_map": {"setosa": "circle"}}))
    assert cli.main(args + ["--config", str(cfg_path)]) == 1
    assert "error in stage render" in capsys.readouterr().err
    # the earlier run's files stay as they were, and its manifest still vouches for them
    assert file_bytes(out) == before
    manifest = json.loads(before["manifest.json"])
    assert set(manifest["artifacts"]) == set(ARTIFACTS)
    for name, checksum in manifest["artifacts"].items():
        assert hashlib.sha256(before[name]).hexdigest() == checksum, name


def small_run_config(out, **settings):
    return {"class_column": "species", "rows": 3, "cols": 3, "epochs": 2, "out": str(out),
            **settings}


def run_with_config(config, tmp_path, iris_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return cli.main(["pipeline", "--config", str(cfg_path), "--input", str(iris_path)])


def file_bytes(directory):
    """Every file's bytes, or None when the directory was never made."""
    if not directory.exists():
        return None
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("earlier_run", [False, True], ids=["fresh-out", "earlier-run-in-out"])
@pytest.mark.parametrize("setting, stage", [
    ({"plane": {"name": "x", "L_range": 5, "a_range": [-1, 1], "b_rule": 0}}, "color"),
    ({"tolerance": 0}, "project"),
    ({"shape": "square"}, "render"),
    ({"epochs": 0}, "train"),
    ({"rows": 0}, "train"),
    ({"rows": 1, "cols": 1}, "train"),
    ({"sigma_initial": 0.5, "sigma_final": 2}, "train"),
    ({"sigma_candidates": [9.0]}, "train"),
    ({"sigma_candidates": []}, "train"),
    ({"background": "#-1-1-1"}, "render"),
    ({"method": "lmds", "k_neighbors": 0}, "project"),
    ({"method": "lmds", "k_neighbors": 9}, "project"),
    ({"method": "sammon", "k_neighbors": 7}, "project"),
    ({"method": "mds", "repulsion_t": 0.5}, "project"),
    ({"sigma_final": 1.0, "sigma_candidates": [0.4, 0.7]}, "train"),
    ({"seed": -1}, "train"),
    ({"epochs": 1, "sigma_final": 0.2}, "train"),
    ({"epochs": 1, "sigma_candidates": [0.4]}, "train"),
], ids=["plane", "tolerance", "shape", "epochs", "grid-0x3", "grid-1x1",
        "sigma-final-above-initial", "sigma-candidate-above-initial", "sigma-candidates-empty",
        "background-signed", "lmds-k-0", "lmds-k-all-units", "sammon-k", "mds-repulsion",
        "sigma-final-with-candidates", "negative-seed", "one-epoch-sigma-final",
        "one-epoch-sigma-candidates"])
def test_bad_setting_fails_before_any_write(tmp_path, iris_path, capsys, setting, stage,
                                            earlier_run):
    out = tmp_path / "out"
    if earlier_run:
        assert run_with_config(small_run_config(out), tmp_path, iris_path) == 0
        assert set(file_bytes(out)) == set(ARTIFACTS) | {"manifest.json"}
    before = file_bytes(out)
    capsys.readouterr()
    assert run_with_config(small_run_config(out, **setting), tmp_path, iris_path) == 1
    assert f"error in stage {stage}: " in capsys.readouterr().err
    assert file_bytes(out) == before


def test_swatch_checks_the_full_render_settings(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"marker_radius_px": -5}))
    out = tmp_path / "swatch.svg"
    assert cli.main(["swatch", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error in stage swatch: marker_radius_px must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_failed_write_keeps_old_artifact_and_drops_stage_manifest(pipeline_dir, tmp_path,
                                                                  monkeypatch, capsys):
    out = tmp_path / "colors.json"
    argv = ["color", "--in", str(pipeline_dir / "embedding.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    assert cli.main(argv + ["--swap-axes"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["colors.json"]


def test_a_sigma_final_whose_schedule_rounds_to_zero_is_named_before_any_stage_runs(
        tmp_path, iris_path, capsys, monkeypatch):
    # 1.5 + (1e-200 - 1.5) * 1.0 cancels to 0.0 in the last epoch
    for stage in cli.STAGES:
        monkeypatch.setattr(cli, f"stage_{stage.name}", None)
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--input", str(iris_path), "--grid", "3x3", "--epochs", "2",
                     "--sigma-final", "1e-200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("error in stage train: sigma_final 1e-200 is too small against sigma_initial 1.5"
            in err)
    assert "sigma must be positive" not in err
    assert not out.exists()


def test_one_unit_grid_fails_before_any_stage_runs(tmp_path, iris_path, capsys, monkeypatch):
    for stage in cli.STAGES:  # a stage that ran would fail with another message
        monkeypatch.setattr(cli, f"stage_{stage.name}", None)
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--input", str(iris_path), "--grid", "1x1",
                     "--out", str(out)]) == 1
    assert ("error in stage train: grid 1x1 has 1 unit; a map needs at least 2"
            in capsys.readouterr().err)
    assert not out.exists()


def test_ingest_takes_a_first_class_column_after_a_byte_order_mark(tmp_path):
    text = b"species,x,y\nsetosa,1.5,2\nvirginica,3,-4.25\nsetosa,0,1\n"
    (tmp_path / "plain.csv").write_bytes(text)
    (tmp_path / "bom.csv").write_bytes("\ufeff".encode() + text)
    for name in ("plain", "bom"):
        assert cli.main(["ingest", "--input", str(tmp_path / f"{name}.csv"), "--class-column",
                         "species", "--out", str(tmp_path / name / "standardized.json")]) == 0
    assert ((tmp_path / "bom" / "standardized.json").read_bytes()
            == (tmp_path / "plain" / "standardized.json").read_bytes())


def test_missing_input_artifact(tmp_path, capsys):
    code = cli.main(["train", "--in", str(tmp_path / "nope.json"), "--grid", "3x3",
                     "--out", str(tmp_path / "g.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_config_file_and_env_var(tmp_path, iris_path, monkeypatch):
    config = {
        "input": str(iris_path),
        "class_column": "species",
        "rows": 3,
        "cols": 3,
        "epochs": 5,
        "method": "mds",
        "plane": "green-yellow-red",
        "out": str(tmp_path / "envrun"),
        "seed": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg_path))
    assert cli.main(["pipeline"]) == 0
    assert (tmp_path / "envrun" / "som.svg").exists()
    grid = json.loads((tmp_path / "envrun" / "grid.json").read_text())
    assert grid["rows"] == 3 and grid["cols"] == 3
    emb = json.loads((tmp_path / "envrun" / "embedding.json").read_text())
    assert emb["method"] == "metric_mds"


def test_flags_override_config(tmp_path, iris_path):
    config = {"input": str(iris_path), "class_column": "species",
              "rows": 3, "cols": 3, "epochs": 5, "out": str(tmp_path / "a")}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(cfg_path), "--grid", "2x5",
                     "--out", str(tmp_path / "b")]) == 0
    grid = json.loads((tmp_path / "b" / "grid.json").read_text())
    assert grid["rows"] == 2 and grid["cols"] == 5


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"gird": "6x7"}))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("config, message", [
    ([1, 2], "error: config must be a JSON object, got list"),
    ({"epochs": "40"}, "error: config key 'epochs' must be int, got str '40'"),
    ({"unit_radius_px": float("nan")}, "error: config key 'unit_radius_px' must be finite, got nan"),
    ({"tolerance": math.inf}, "error: config key 'tolerance' must be finite, got inf"),
], ids=["not-an-object", "wrong-type", "nan", "infinity"])
def test_malformed_config_rejected_before_any_stage(tmp_path, iris_path, capsys, config, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--config", str(cfg_path), "--input", str(iris_path),
                     "--grid", "3x3", "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("epochs", 40.0), ("seed", True), ("has_header", 1), ("tolerance", "1e-9"),
    ("sigma_candidates", [0.5, "1"]), ("plane", 3), ("epochs", None),
])
def test_config_value_of_wrong_json_type_is_named(key, value):
    with pytest.raises(ValueError, match=f"^config key '{key}' must be "):
        cli.PipelineConfig.from_dict({key: value})


@pytest.mark.parametrize("key, value", [
    ("unit_radius_px", float("nan")), ("tolerance", float("nan")), ("spacing_fraction", -math.inf),
    ("marker_radius_px", math.inf), ("sigma_candidates", [0.5, float("nan")]),
    ("plane", {"name": "x", "L_range": [30, math.inf], "a_range": [-1, 1], "b_rule": 0}),
])
def test_non_finite_config_number_is_named(key, value):
    with pytest.raises(ValueError, match=f"^config key '{key}' must be finite, got "):
        cli.PipelineConfig.from_dict({key: value})


def test_non_finite_flag_value_is_rejected(tmp_path, iris_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["pipeline", "--input", str(iris_path), "--grid", "3x3",
                     "--unit-radius", "nan", "--out", str(out)]) == 1
    assert "error: config key 'unit_radius_px' must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_threads_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "manifest.json"
    cfg_path.write_text(json.dumps({"kind": "manifest", "config": {"threads": None}}))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


# scipy is a test dependency only; the rest are what xml.sax.saxutils pulls in
UNUSED_MODULES = ("scipy", "xml.sax", "urllib.request", "http.client", "email", "ssl")


def test_cli_pipeline_loads_no_scipy(tmp_path, iris_path):
    # a CLI run must import none of UNUSED_MODULES
    argv = ["pipeline", "--input", str(iris_path), "--class-column", "species", "--grid", "6x7",
            "--method", "sammon", "--seed", "0", "--out", str(tmp_path / "out")]
    code = ("import sys\n"
            "import somchroma.cli\n"
            f"status = somchroma.cli.main({argv!r})\n"
            f"print(sorted(m for m in sys.modules if m.startswith({UNUSED_MODULES!r})))\n"
            "sys.exit(status)\n")
    result = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "manifest.json").exists()


def checksums_at_blas_threads(argv, tmp_path):
    """Manifest checksums of `somchroma pipeline <argv>` under OPENBLAS_NUM_THREADS 1 and 2."""
    checksums = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = subprocess_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "somchroma", "pipeline", *argv, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        checksums.append(json.loads((out / "manifest.json").read_text())["artifacts"])
    assert set(checksums[0]) == set(ARTIFACTS)
    return checksums


def test_blas_thread_count_leaves_checksums_unchanged(tmp_path, iris_path):
    one, two = checksums_at_blas_threads(
        ["--input", str(iris_path), "--class-column", "species", "--grid", "6x7",
         "--method", "sammon", "--seed", "0"], tmp_path)
    assert one == two


@pytest.fixture(scope="module")
def blobs_checksums_at_blas_threads(tmp_path_factory):
    # 3000 x 225 row-unit pairs: the nearest-unit GEMM runs over several blocks
    tmp_path = tmp_path_factory.mktemp("blas-blobs")
    data = make_gaussian_clusters(3000, 16, n_clusters=8, seed=11)
    csv_path = write_numeric_csv(tmp_path / "blobs.csv", data.values, data.column_names)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_iterations": 50}))
    return checksums_at_blas_threads(
        ["--input", str(csv_path), "--grid", "15x15", "--epochs", "2", "--method", "sammon",
         "--config", str(config), "--seed", "0"], tmp_path)


def test_blas_thread_count_leaves_blocked_search_checksums_unchanged(
        blobs_checksums_at_blas_threads):
    one, two = ({k: v for k, v in c.items() if k != "embedding.json"}
                for c in blobs_checksums_at_blas_threads)
    assert one == two


@pytest.mark.xfail(strict=True, reason="classical_scaling's eigh rounds differently with 1 "
                   "and 2 BLAS threads at M=225, so the embedding bytes move")
def test_blas_thread_count_leaves_blobs_embedding_unchanged(blobs_checksums_at_blas_threads):
    one, two = blobs_checksums_at_blas_threads
    assert one["embedding.json"] == two["embedding.json"]


def test_swap_axes_swaps_unit_coords(pipeline_dir, tmp_path):
    emb = pipeline_dir / "embedding.json"
    out_a = tmp_path / "colors_a.json"
    out_b = tmp_path / "colors_b.json"
    assert cli.main(["color", "--in", str(emb), "--plane", "cyan-gray-red",
                     "--out", str(out_a)]) == 0
    assert cli.main(["color", "--in", str(emb), "--plane", "cyan-gray-red",
                     "--swap-axes", "--out", str(out_b)]) == 0
    a = np.asarray(json.loads(out_a.read_text())["unit_coords"])
    b = np.asarray(json.loads(out_b.read_text())["unit_coords"])
    assert np.array_equal(a[:, ::-1], b)


def test_train_stage_grid_payload(pipeline_dir):
    payload = json.loads((pipeline_dir / "grid.json").read_text())
    assert payload["kind"] == "som_grid"
    assert len(payload["reference_vectors"]) == 16
    meta = payload["training_metadata"]
    assert set(meta) == {"epochs", "sigma_schedule", "seed", "goodness", "quantization_error"}
    assert len(meta["sigma_schedule"]) == payload["training_metadata"]["epochs"]


def test_project_stage_lmds(pipeline_dir, tmp_path):
    out = tmp_path / "lmds.json"
    assert cli.main(["project", "--in", str(pipeline_dir / "grid.json"),
                     "--method", "lmds", "--seed", "0", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "lmds"
    assert len(payload["points"]) == 16
    assert payload["config"]["k_neighbors"] >= 1


def test_swatch_command(tmp_path):
    out = tmp_path / "swatch.svg"
    assert cli.main(["swatch", "--plane", "green-yellow-red",
                     "--steps-u", "11", "--steps-v", "5", "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<rect") == 56


@pytest.mark.parametrize("flag", [["--swap-axes"], ["--shape", "hexagon"]])
def test_swatch_rejects_flags_it_would_ignore(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(["swatch", *flag, "--out", str(tmp_path / "swatch.svg")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_auto_sigma_train_stage_calls_goodness_once_per_candidate(iris_path, monkeypatch):
    cfg = cli.PipelineConfig(input=str(iris_path), class_column="species", rows=3, cols=3,
                             epochs=3, sigma_candidates=[0.5, 0.8, 1.1])
    std_payload = cli.stage_ingest(cfg)
    real_goodness = som.goodness
    calls = []

    def counting_goodness(grid, data):
        calls.append(grid.m)
        return real_goodness(grid, data)

    monkeypatch.setattr(som, "goodness", counting_goodness)
    payload = cli.stage_train(std_payload, cfg)
    assert len(calls) == 3
    grid, metadata = som.grid_from_dict(payload)
    assert metadata["goodness"] == real_goodness(grid, cli._data_from_payload(std_payload))


def test_one_epoch_train_stage_trains_one_map_with_sigma_initial(iris_path, monkeypatch, capsys):
    cfg = cli.PipelineConfig(input=str(iris_path), class_column="species", rows=6, cols=7,
                             epochs=1)
    std_payload = cli.stage_ingest(cfg)
    real_goodness = som.goodness
    calls = []

    def counting_goodness(grid, data):
        calls.append(grid.m)
        return real_goodness(grid, data)

    monkeypatch.setattr(som, "goodness", counting_goodness)
    payload = cli.stage_train(std_payload, cfg)
    assert calls == [42]
    assert "selected sigma_final=3.5" in capsys.readouterr().err
    assert payload["training_metadata"]["sigma_schedule"] == (3.5,)


def write_blobs_csv(path, seed, n_rows, n_cols, n_clusters=8):
    """Gaussian clusters with seeded centres and a `cluster` class column, six decimals a cell."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, (n_clusters, n_cols))
    labels = rng.integers(0, n_clusters, n_rows)
    values = centers[labels] + rng.normal(0.0, 1.0, (n_rows, n_cols))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join([f"x{j + 1}" for j in range(n_cols)] + ["cluster"]) + "\n")
        for row, label in zip(values, labels):
            fh.write(",".join(f"{v:.6f}" for v in row) + f",c{label}\n")
    return path


def test_ingest_payload_holds_the_values_as_an_array(tmp_path):
    # A pipeline run keeps this payload through every later stage, so it holds the
    # values as one array (0.61 MiB here), not as 80000 Python floats (3.03 MiB traced).
    cfg = cli.PipelineConfig(input=str(write_blobs_csv(tmp_path / "blobs.csv", 0, 5000, 16)),
                             class_column="cluster")
    tracemalloc.start()
    try:
        payload = cli.stage_ingest(cfg)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(payload["values"], np.ndarray)
    assert payload["values"].shape == (5000, 16)
    assert retained < 1.5 * 2**20  # measured: 0.89 MiB, with the 5000 class labels


def test_custom_plane_from_config(tmp_path, iris_path):
    config = {
        "input": str(iris_path), "class_column": "species",
        "rows": 3, "cols": 3, "epochs": 5,
        "plane": {"name": "narrow", "L_range": [35, 75], "a_range": [-20, 20], "b_rule": 10},
        "out": str(tmp_path / "custom"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    colors = json.loads((tmp_path / "custom" / "embedding.json").read_text())
    assert colors["kind"] == "embedding"


def test_render_config_keys_reach_the_svg(tmp_path, iris_path):
    config = {
        "input": str(iris_path), "class_column": "species",
        "rows": 3, "cols": 3, "epochs": 5,
        "shape": "hexagon", "background": "#202020",
        "marker_map": {"setosa": "circle", "versicolor": "circle", "virginica": "circle"},
        "out": str(tmp_path / "styled"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 0
    svg = (tmp_path / "styled" / "som.svg").read_text()
    assert 'fill="#202020"' in svg
    assert svg.count("<polygon") == 9  # hexagon units, circle-only markers
    assert "<rect x=" not in svg.replace('<rect x="0.000"', "")  # no rectangle markers


def test_row_labels_overlay_on_bmus(tmp_path, iris_path):
    out = tmp_path / "labeled"
    args = base_args(iris_path, out)
    args += ["--label-column", "species"]  # reuse species text as row labels
    args[args.index("--class-column") + 1] = "species"
    # use species for labels only: drop the class column to keep markers out
    idx = args.index("--class-column")
    del args[idx:idx + 2]
    assert cli.main(args) == 0
    svg = (out / "som.svg").read_text()
    assert svg.count("<text") == 150
    assert "setosa" in svg


def test_custom_plane_rejected_when_out_of_gamut(tmp_path, iris_path, capsys):
    config = {
        "input": str(iris_path), "class_column": "species",
        "rows": 3, "cols": 3, "epochs": 5,
        "plane": {"name": "loud", "L_range": [20, 80], "a_range": [-90, 90], "b_rule": 0},
        "out": str(tmp_path / "loud"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "leaves the displayable gamut" in err and "(u, v)" in err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_ingest_standardizes_columns_whose_squares_overflow(tmp_path, capsys):
    # 1e300 and 1e200 square to inf, so only scaled statistics keep these
    # columns from an infinite stddev, written as the non-JSON token Infinity
    rng = np.random.default_rng(6)
    values = rng.standard_normal((200, 3))
    values[0, 0], values[1, 1] = 1e300, 1e200
    csv = tmp_path / "big.csv"
    csv.write_text("a,b,c\n" + "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()))
    out = tmp_path / "standardized.json"
    assert cli.main(["ingest", "--input", str(csv), "--out", str(out)]) == 0
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    stddevs = np.array(payload["stddevs"])
    assert np.allclose(stddevs[:2], [1e300, 1e200] / np.sqrt(200), rtol=1e-12)
    std = np.array(payload["values"])
    assert np.allclose(std.std(axis=0, ddof=1), 1.0)
    assert std[0, 0] > 14 and std[1, 1] > 14
    # a stddev beyond the largest float is named, and nothing is written
    csv.write_text("a,wide\n1,1.7e308\n2,-1.7e308\n")
    assert cli.main(["ingest", "--input", str(csv), "--out", str(tmp_path / "w.json")]) == 1
    assert ("error in stage ingest: column(s) ['wide'] spread too wide to standardize"
            in capsys.readouterr().err)
    assert not (tmp_path / "w.json").exists()
