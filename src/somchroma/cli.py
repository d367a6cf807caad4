"""Command-line pipeline: ingest -> train -> project -> color -> render.

Each stage reads and writes schema-versioned JSON artifacts, so the pipeline
command and stage-wise execution produce byte-identical outputs. All
pseudo-randomness flows from a single seed; progress goes to stderr and the
final metrics line (quantization error, goodness, final stress) to stdout.
Every run writes a manifest with the resolved config and artifact checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import colorspace, projection, render, som
from .colorspace import ColorPlane, RgbColor
from .dataset import DataMatrix, load_csv, standardize

__all__ = ["PipelineConfig", "cmd_pipeline", "main"]

CONFIG_ENV_VAR = "SOMCHROMA_CONFIG"

ARTIFACT_NAMES = ("standardized.json", "grid.json", "embedding.json", "som.svg", "scatter.svg")

_METHOD_ALIASES = {"mds": "metric_mds", "metric_mds": "metric_mds", "sammon": "sammon", "lmds": "lmds"}


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"error in stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of a full run; flags override config-file keys."""

    input: str | None = None
    has_header: bool = True
    label_column: str | None = None
    class_column: str | None = None
    rows: int | None = None
    cols: int | None = None
    epochs: int = 40
    sigma_initial: float | None = None
    sigma_final: float | None = None
    sigma_candidates: list[float] | None = None
    method: str = "sammon"
    k_neighbors: int | None = None
    repulsion_t: float | None = None
    max_iterations: int = 2000
    tolerance: float = 1e-9
    plane: str | dict = "cyan-gray-red"
    swap_axes: bool = False
    shape: str = "circle"
    spacing_fraction: float = 0.15
    background: str = "#FFFFFF"
    unit_radius_px: float = 18.0
    label_font_size_px: float = 11.0
    marker_radius_px: float | None = None
    marker_map: dict | None = None
    out: str = "."
    seed: int = 0

    def __post_init__(self):
        method = _METHOD_ALIASES.get(self.method)
        if method is None:
            raise ValueError(f"method must be one of mds, sammon, lmds; got {self.method!r}")
        object.__setattr__(self, "method", method)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        if payload.get("kind") == "manifest":  # allow re-running from a manifest
            payload = payload.get("config", {})
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known - {"schema_version"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: v for k, v in payload.items() if k in known})

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["schema_version"] = 1
        return payload


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_artifact(path: Path, content: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    data = content.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _load_payload(path, kind: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("kind") != kind or payload.get("schema_version") != 1:
        raise ValueError(
            f"{path}: schema version mismatch, expected {kind} v1, got "
            f"kind={payload.get('kind')!r} schema_version={payload.get('schema_version')!r}"
        )
    return payload


def _write_manifest(path: Path, cfg: PipelineConfig, checksums: dict[str, str]) -> None:
    payload = {
        "schema_version": 1,
        "kind": "manifest",
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "artifacts": checksums,
    }
    _write_artifact(path, canonical_json(payload))


def _resolve_plane(plane_cfg) -> ColorPlane:
    if isinstance(plane_cfg, str):
        return colorspace.get_plane(plane_cfg)
    plane = colorspace.plane_from_dict(plane_cfg)
    ok, worst_uv, excess = colorspace.check_plane_gamut(plane)
    if not ok:
        raise ValueError(
            f"custom plane {plane.name!r} leaves the displayable gamut: "
            f"worst excess {excess:.4f} at (u, v) = ({worst_uv[0]:.2f}, {worst_uv[1]:.2f})"
        )
    return plane


# ----------------------------------------------------------------------------
# stage computations (payload dicts in, payload dicts out)

def stage_ingest(cfg: PipelineConfig) -> dict:
    if cfg.input is None:
        raise ValueError("no input file configured (--input)")
    data = load_csv(
        cfg.input,
        has_header=cfg.has_header,
        label_column=cfg.label_column,
        class_column=cfg.class_column,
    )
    std, params = standardize(data)
    return {
        "schema_version": 1,
        "kind": "standardized_data",
        "column_names": list(std.column_names),
        "row_labels": std.row_labels,
        "class_labels": std.class_labels,
        "means": [float(v) for v in params.means],
        "stddevs": [float(v) for v in params.stddevs],
        "values": [[float(v) for v in row] for row in std.values],
    }


def _data_from_payload(payload: dict) -> DataMatrix:
    if payload.get("kind") != "standardized_data" or payload.get("schema_version") != 1:
        raise ValueError(
            "schema version mismatch: expected standardized_data v1, got "
            f"kind={payload.get('kind')!r} schema_version={payload.get('schema_version')!r}"
        )
    return DataMatrix(
        values=np.asarray(payload["values"], dtype=float),
        column_names=list(payload["column_names"]),
        row_labels=payload.get("row_labels"),
        class_labels=payload.get("class_labels"),
    )


def stage_train(std_payload: dict, cfg: PipelineConfig) -> dict:
    data = _data_from_payload(std_payload)
    if cfg.rows is None or cfg.cols is None:
        raise ValueError("no grid shape configured (--grid RxC)")
    tc = som.TrainConfig(
        epochs=cfg.epochs,
        sigma_initial=cfg.sigma_initial,
        sigma_final=cfg.sigma_final,
        seed=cfg.seed,
        sigma_candidates=tuple(cfg.sigma_candidates) if cfg.sigma_candidates else None,
    )
    auto = cfg.sigma_final is None and cfg.rows * cfg.cols >= 2
    if auto:
        sigma_final, result = som.select_sigma(data, cfg.rows, cfg.cols, tc)
        print(f"selected sigma_final={sigma_final}", file=sys.stderr)
    else:
        result = som.train(data, cfg.rows, cfg.cols, tc)
    g = som.goodness(result.grid, data) if result.grid.m >= 2 else None
    metadata = {
        "epochs": cfg.epochs,
        "sigma_schedule": [float(s) for s in result.sigmas],
        "seed": cfg.seed,
        "goodness": g,
        "quantization_error": result.quantization_errors[-1],
    }
    return som.grid_to_dict(result.grid, metadata)


def stage_project(grid_payload: dict, cfg: PipelineConfig) -> dict:
    grid, _ = som.grid_from_dict(grid_payload)
    pc = projection.ProjectionConfig(
        method=cfg.method,
        k_neighbors=cfg.k_neighbors,
        repulsion_t=cfg.repulsion_t,
        max_iterations=cfg.max_iterations,
        tolerance=cfg.tolerance,
        seed=cfg.seed,
    )
    result = projection.project(grid.reference_vectors, pc)
    return projection.embedding_to_dict(result, pc)


def stage_color(embedding_payload: dict, cfg: PipelineConfig) -> dict:
    points = projection.embedding_from_dict(embedding_payload)
    plane = _resolve_plane(cfg.plane)
    aligned = projection.align_axes(points) if points.shape[0] >= 2 else points.copy()
    coords = projection.normalize_components(aligned)
    if cfg.swap_axes:
        coords = coords[:, ::-1]
    colors = colorspace.colorize(coords, plane)
    return {
        "schema_version": 1,
        "kind": "unit_colors",
        "plane": colorspace.plane_to_dict(plane),
        "swap_axes": bool(cfg.swap_axes),
        "unit_coords": [[float(u), float(v)] for u, v in coords],
        "rgb": [[c.r, c.g, c.b] for c in colors],
        "hex": [colorspace.rgb_to_hex(c) for c in colors],
    }


def stage_render(
    std_payload: dict,
    grid_payload: dict,
    embedding_payload: dict,
    colors_payload: dict,
    cfg: PipelineConfig,
) -> tuple[str, str]:
    if colors_payload.get("kind") != "unit_colors" or colors_payload.get("schema_version") != 1:
        raise ValueError(
            "schema version mismatch: expected unit_colors v1, got "
            f"kind={colors_payload.get('kind')!r} "
            f"schema_version={colors_payload.get('schema_version')!r}"
        )
    grid, _ = som.grid_from_dict(grid_payload)
    points = projection.embedding_from_dict(embedding_payload)
    colors = [RgbColor(*c) for c in colors_payload["rgb"]]
    data = _data_from_payload(std_payload)

    overlay = render.Overlay()
    if data.class_labels is not None or data.row_labels is not None:
        bmus = som.bmu_indices(data.values, grid)
        for row, unit in enumerate(bmus):
            if data.class_labels is not None:
                overlay.markers.setdefault(int(unit), []).append(data.class_labels[row])
            if data.row_labels is not None:
                overlay.labels.setdefault(int(unit), []).append(data.row_labels[row])

    spec = render.RenderSpec(
        unit_shape=cfg.shape,
        spacing_fraction=cfg.spacing_fraction,
        background=colorspace.hex_to_rgb(cfg.background),
        unit_radius_px=cfg.unit_radius_px,
        label_font_size_px=cfg.label_font_size_px,
        marker_radius_px=cfg.marker_radius_px,
        marker_map=cfg.marker_map,
    )
    som_svg = render.render_som_svg(grid, colors, overlay, spec)
    scatter_svg = render.render_scatter_svg(points, colors, spec)
    return som_svg, scatter_svg


# ----------------------------------------------------------------------------
# commands

def cmd_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage, write the five artifacts plus a manifest, return metrics."""
    out_dir = Path(cfg.out)
    checksums: dict[str, str] = {}

    def emit(name: str, content: str):
        checksums[name] = _write_artifact(out_dir / name, content)
        print(f"wrote {out_dir / name}", file=sys.stderr)

    std_payload = _run("ingest", stage_ingest, cfg)
    emit("standardized.json", canonical_json(std_payload))
    grid_payload = _run("train", stage_train, std_payload, cfg)
    emit("grid.json", canonical_json(grid_payload))
    embedding_payload = _run("project", stage_project, grid_payload, cfg)
    emit("embedding.json", canonical_json(embedding_payload))
    colors_payload = _run("color", stage_color, embedding_payload, cfg)
    som_svg, scatter_svg = _run(
        "render", stage_render, std_payload, grid_payload, embedding_payload, colors_payload, cfg
    )
    emit("som.svg", som_svg)
    emit("scatter.svg", scatter_svg)
    _write_manifest(out_dir / "manifest.json", cfg, checksums)

    metrics = {
        "quantization_error": grid_payload["training_metadata"]["quantization_error"],
        "goodness": grid_payload["training_metadata"]["goodness"],
        "final_stress": embedding_payload["final_stress"],
    }
    return metrics


def _run(stage: str, fn, *args):
    try:
        return fn(*args)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _stage_manifest_path(out_path: Path) -> Path:
    return out_path.with_name(out_path.name + ".manifest.json")


def _finish_stage(cfg: PipelineConfig, outputs: dict[Path, str]) -> None:
    checksums = {}
    for path, content in outputs.items():
        checksums[str(path.name)] = _write_artifact(path, content)
        print(f"wrote {path}", file=sys.stderr)
    first = next(iter(outputs))
    _write_manifest(_stage_manifest_path(first), cfg, checksums)


# ----------------------------------------------------------------------------
# argument parsing

def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ValueError(f"grid must look like RxC (e.g. 6x7), got {text!r}") from None


def _parse_candidates(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"sigma candidates must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise ValueError("sigma candidate list is empty")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somchroma",
        description="Train a batch SOM, project its reference vectors to 2D, "
        "and color the grid with a perceptually uniform CIELAB plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, default=None)
        return p

    def ingest_opts(p):
        p.add_argument("--input", default=None, help="CSV input file")
        p.add_argument("--no-header", dest="has_header", action="store_const", const=False, default=None)
        p.add_argument("--label-column", default=None)
        p.add_argument("--class-column", default=None)

    def train_opts(p):
        p.add_argument("--grid", default=None, metavar="RxC", help="grid shape, e.g. 6x7")
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--sigma-init", dest="sigma_initial", type=float, default=None)
        p.add_argument("--sigma-final", dest="sigma_final", type=float, default=None)
        p.add_argument("--sigma-auto", dest="sigma_candidates", type=_parse_candidates,
                       default=None, metavar="S1,S2,...",
                       help="candidate final sigmas for automatic selection")

    def project_opts(p):
        p.add_argument("--method", choices=sorted(set(_METHOD_ALIASES)), default=None)
        p.add_argument("--k", dest="k_neighbors", type=int, default=None)
        p.add_argument("--repulsion", dest="repulsion_t", type=float, default=None)

    def color_opts(p):
        p.add_argument("--plane", default=None, help="built-in plane name")
        p.add_argument("--swap-axes", dest="swap_axes", action="store_const", const=True, default=None)

    def render_opts(p):
        p.add_argument("--shape", choices=("circle", "hexagon"), default=None)
        p.add_argument("--spacing", dest="spacing_fraction", type=float, default=None)
        p.add_argument("--unit-radius", dest="unit_radius_px", type=float, default=None)

    p = common(sub.add_parser("pipeline", help="run all stages"))
    ingest_opts(p)
    train_opts(p)
    project_opts(p)
    color_opts(p)
    render_opts(p)
    p.add_argument("--out", default=None, help="output directory")

    p = common(sub.add_parser("ingest", help="load and standardize a CSV"))
    ingest_opts(p)
    p.add_argument("--out", default=None, required=False, help="standardized-data JSON path")

    p = common(sub.add_parser("train", help="train the SOM on standardized data"))
    p.add_argument("--in", dest="in_path", required=True, help="standardized-data JSON")
    train_opts(p)
    p.add_argument("--out", default=None, help="grid JSON path")

    p = common(sub.add_parser("project", help="project reference vectors to 2D"))
    p.add_argument("--in", dest="in_path", required=True, help="grid JSON")
    project_opts(p)
    p.add_argument("--out", default=None, help="embedding JSON path")

    p = common(sub.add_parser("color", help="derive unit colors from an embedding"))
    p.add_argument("--in", dest="in_path", required=True, help="embedding JSON")
    color_opts(p)
    p.add_argument("--out", default=None, help="unit-colors JSON path")

    p = common(sub.add_parser("render", help="emit the SOM and scatter SVGs"))
    p.add_argument("--in-data", required=True, help="standardized-data JSON")
    p.add_argument("--in-grid", required=True, help="grid JSON")
    p.add_argument("--in-embedding", required=True, help="embedding JSON")
    p.add_argument("--in-colors", required=True, help="unit-colors JSON")
    render_opts(p)
    p.add_argument("--out-som", default=None, help="SOM SVG path")
    p.add_argument("--out-scatter", default=None, help="scatter SVG path")

    p = common(sub.add_parser("swatch", help="emit a color-plane swatch SVG"))
    color_opts(p)
    render_opts(p)
    p.add_argument("--steps-u", type=int, default=21)
    p.add_argument("--steps-v", type=int, default=7)
    p.add_argument("--out", default=None, help="swatch SVG path")

    return parser


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    payload = {}
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            payload = json.load(fh)
    cfg = PipelineConfig.from_dict(payload)

    overrides = {}
    if getattr(args, "grid", None) is not None:
        overrides["rows"], overrides["cols"] = _parse_grid(args.grid)
    for key in (
        "input", "has_header", "label_column", "class_column", "epochs",
        "sigma_initial", "sigma_final", "sigma_candidates", "method",
        "k_neighbors", "repulsion_t", "plane", "swap_axes", "shape",
        "spacing_fraction", "unit_radius_px", "out", "seed",
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return replace(cfg, **overrides) if overrides else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        command = args.command

        if command == "pipeline":
            metrics = cmd_pipeline(cfg)
            print(json.dumps(metrics, sort_keys=True))
            return 0

        if command == "ingest":
            payload = _run("ingest", stage_ingest, cfg)
            out = Path(getattr(args, "out", None) or "standardized.json")
            _finish_stage(cfg, {out: canonical_json(payload)})
            return 0

        if command == "train":
            std_payload = _load_payload(args.in_path, "standardized_data")
            payload = _run("train", stage_train, std_payload, cfg)
            out = Path(getattr(args, "out", None) or "grid.json")
            _finish_stage(cfg, {out: canonical_json(payload)})
            return 0

        if command == "project":
            grid_payload = _load_payload(args.in_path, "som_grid")
            payload = _run("project", stage_project, grid_payload, cfg)
            out = Path(getattr(args, "out", None) or "embedding.json")
            _finish_stage(cfg, {out: canonical_json(payload)})
            return 0

        if command == "color":
            embedding_payload = _load_payload(args.in_path, "embedding")
            payload = _run("color", stage_color, embedding_payload, cfg)
            out = Path(getattr(args, "out", None) or "colors.json")
            _finish_stage(cfg, {out: canonical_json(payload)})
            return 0

        if command == "render":
            std_payload = _load_payload(args.in_data, "standardized_data")
            grid_payload = _load_payload(args.in_grid, "som_grid")
            embedding_payload = _load_payload(args.in_embedding, "embedding")
            colors_payload = _load_payload(args.in_colors, "unit_colors")
            som_svg, scatter_svg = _run(
                "render", stage_render,
                std_payload, grid_payload, embedding_payload, colors_payload, cfg,
            )
            out_som = Path(getattr(args, "out_som", None) or "som.svg")
            out_scatter = Path(getattr(args, "out_scatter", None) or "scatter.svg")
            _finish_stage(cfg, {out_som: som_svg, out_scatter: scatter_svg})
            return 0

        if command == "swatch":
            plane = _run("swatch", _resolve_plane, cfg.plane)
            spec = render.RenderSpec(
                unit_shape=cfg.shape,
                spacing_fraction=cfg.spacing_fraction,
                background=colorspace.hex_to_rgb(cfg.background),
                unit_radius_px=cfg.unit_radius_px,
            )
            svg = _run(
                "swatch", render.render_plane_swatch_svg, plane, args.steps_u, args.steps_v, spec
            )
            out = Path(getattr(args, "out", None) or "swatch.svg")
            _finish_stage(cfg, {out: svg})
            return 0

        raise ValueError(f"unknown command {command!r}")
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # config/IO errors outside a stage
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
