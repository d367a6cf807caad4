import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import somchroma
from somchroma import cli

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


def test_schema_mismatch_reported(pipeline_dir, tmp_path, capsys):
    payload = json.loads((pipeline_dir / "standardized.json").read_text())
    payload["schema_version"] = 99
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code = cli.main(["train", "--in", str(bad), "--grid", "4x4", "--out", str(tmp_path / "g.json")])
    assert code == 1
    assert "schema version mismatch" in capsys.readouterr().err


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


def test_manifest_threads_key_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "manifest.json"
    cfg_path.write_text(json.dumps({"kind": "manifest", "config": {"threads": None}}))
    assert cli.main(["pipeline", "--config", str(cfg_path)]) == 1
    assert "unknown config keys: ['threads']" in capsys.readouterr().err


def test_blas_thread_count_leaves_checksums_unchanged(tmp_path, iris_path):
    src = str(Path(somchroma.__file__).resolve().parents[1])
    checksums = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "somchroma", "pipeline", "--input", str(iris_path),
             "--class-column", "species", "--grid", "6x7", "--method", "sammon",
             "--seed", "0", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        checksums.append(json.loads((out / "manifest.json").read_text())["artifacts"])
    assert set(checksums[0]) == set(ARTIFACTS)
    assert checksums[0] == checksums[1]


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
