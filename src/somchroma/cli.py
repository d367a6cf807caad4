"""Command-line pipeline: ingest -> train -> project -> color -> render.

Each stage reads and writes schema-versioned JSON artifacts, so the pipeline
command and stage-wise execution produce byte-identical outputs. This module
is the only one that knows the artifact format: each payload's writer (a
stage_* function) and reader (a *_from_payload function) live here, and the
library modules take and return plain arrays and dataclasses. All
pseudo-randomness flows from a single seed; progress goes to stderr and the
final metrics line (quantization error, goodness, final stress) to stdout.
Every run writes a manifest with the resolved config and artifact checksums.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys
import types
import typing
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import colorspace, projection, render, som
from .colorspace import ColorPlane
from .dataset import DataMatrix, load_csv, standardize

__all__ = ["PipelineConfig", "cmd_pipeline", "main"]

CONFIG_ENV_VAR = "SOMCHROMA_CONFIG"

SCHEMA_VERSION = 1

_METHOD_ALIASES = {"mds": "metric_mds", "metric_mds": "metric_mds", "sammon": "sammon", "lmds": "lmds"}


class StageError(RuntimeError):
    """A stage's failure; the message names the stage, and the cause is chained."""


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative description of a full run; flags override config-file keys.

    Each stage's settings are built from the final config once, by the
    properties below, so the pipeline can check them all before any stage runs.
    A settings object's fields are the config keys of the same names.
    """

    input: str | None = None
    has_header: bool = True
    label_column: str | None = None
    class_column: str | None = None
    rows: int | None = None
    cols: int | None = None
    epochs: int = som.TrainConfig.epochs
    sigma_initial: float | None = None
    sigma_final: float | None = None
    sigma_candidates: list[float] | None = None
    method: str = projection.ProjectionConfig.method
    k_neighbors: int | None = None
    repulsion_t: float | None = None
    max_iterations: int = projection.ProjectionConfig.max_iterations
    tolerance: float = projection.ProjectionConfig.tolerance
    plane: str | dict = "cyan-gray-red"
    swap_axes: bool = False
    shape: str = render.RenderSpec.shape
    spacing_fraction: float = render.RenderSpec.spacing_fraction
    background: str = render.RenderSpec.background
    unit_radius_px: float = render.RenderSpec.unit_radius_px
    label_font_size_px: float = render.RenderSpec.label_font_size_px
    marker_radius_px: float | None = None
    marker_map: dict | None = None
    out: str = "."
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _finite(value):
                raise ValueError(f"config key {f.name!r} must be finite, got {value!r}")
        method = _METHOD_ALIASES.get(self.method)
        if method is None:
            raise ValueError(f"method must be one of mds, sammon, lmds; got {self.method!r}")
        object.__setattr__(self, "method", method)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        if isinstance(payload, dict) and payload.get("kind") == "manifest":
            payload = payload.get("config", {})  # allow re-running from a manifest
        if not isinstance(payload, dict):
            raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known - {"schema_version"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            value = payload.get(f.name)
            if f.name in payload and not _fits(value, hints[f.name]):
                raise ValueError(
                    f"config key {f.name!r} must be {f.type}, got {type(value).__name__} {value!r}"
                )
        return cls(**{k: v for k, v in payload.items() if k in known})

    def to_dict(self) -> dict:
        return {**asdict(self), "schema_version": SCHEMA_VERSION}

    def _settings(self, cls):
        """A stage's settings object, each field taken from the config key of its name."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    @functools.cached_property
    def train_config(self) -> som.TrainConfig:
        if self.rows is None or self.cols is None:
            raise ValueError("no grid shape configured (--grid RxC)")
        tc = self._settings(som.TrainConfig)
        tc.final_sigmas(self.rows, self.cols)  # train's checks, made before anything is written
        return tc

    @functools.cached_property
    def projection_config(self) -> projection.ProjectionConfig:
        return self._settings(projection.ProjectionConfig)

    @functools.cached_property
    def color_plane(self) -> ColorPlane:
        return _resolve_plane(self.plane)

    @functools.cached_property
    def render_spec(self) -> render.RenderSpec:
        return self._settings(render.RenderSpec)


def _finite(value) -> bool:
    """Whether every number in a decoded config value is finite (JSON allows NaN)."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, dict)):
        return all(map(_finite, value.values() if isinstance(value, dict) else value))
    return True


def _fits(value, hint) -> bool:
    """Whether a decoded JSON value has the type a config field is annotated with."""
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, h) for h in typing.get_args(hint))
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):  # JSON true/false is not a number
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


_WRITE_SLICE = 2**16  # characters of an artifact written, or bytes read back, at a time
_BLOCK = _WRITE_SLICE // 32  # array elements made into text at a time


def _dump_value(value, write: Callable[[str], object], pad: str) -> None:
    """Write json.dumps(value, sort_keys=True, indent=2), numpy arrays as lists.

    pad is the newline and indent of value's line. A float or int array of one
    or two dimensions is formatted _BLOCK numbers at a time, as json formats
    them; an array of more dimensions goes a row at a time, and any other
    array as its list form. Scalars go through json.dumps, so np.int64 or a set
    raises TypeError, as does a dict key that is not a str.
    """
    inner = pad + "  "
    if isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.dtype.kind in "fiu":
        number = float.__repr__ if value.dtype.kind == "f" else int.__repr__
        row_pad = inner + "  "
        cell = "," + row_pad
        step = max(1, _BLOCK // max(1, math.prod(value.shape[1:])))
        for start in range(0, len(value), step):
            block = value[start:start + step]
            finite = number is int.__repr__ or np.isfinite(block).all()
            text = number if finite else json.dumps  # NaN and Infinity as json writes them
            rows = (map(text, block.tolist()) if value.ndim == 1 else
                    ("[" + row_pad + cell.join(map(text, row)) + inner + "]" if row
                     else "[]" for row in block.tolist()))
            write(("," if start else "[") + inner + ("," + inner).join(rows))
        write(pad + "]" if len(value) else "[]")
        return
    if isinstance(value, np.ndarray) and value.ndim < 2:
        value = value.tolist()
    if isinstance(value, dict):
        for key in value:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        items = ((json.encoder.encode_basestring_ascii(k) + ": ", value[k]) for k in sorted(value))
        brackets = "{}"
    elif isinstance(value, (list, tuple, np.ndarray)):
        items, brackets = (("", item) for item in value), "[]"
    else:
        write(json.dumps(value))
        return
    for i, (key, item) in enumerate(items):
        write(("," if i else brackets[0]) + inner + key)
        _dump_value(item, write, inner)
    write(pad + brackets[1] if len(value) else brackets)


def _dump_json(payload: dict, fh: typing.TextIO) -> None:
    _dump_value(payload, fh.write, "\n")
    fh.write("\n")


def canonical_json(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) plus a newline, numpy arrays as lists.

    The artifacts are not written through this string: _write_json writes the
    same text into the file as it is made.
    """
    text = io.StringIO()
    _dump_json(payload, text)
    return text.getvalue()


def _write(path: Path, fill: Callable[[typing.TextIO], None]) -> str:
    """Write atomically: readers see the old file or the new one, never a part.

    fill(fh) writes the text into a temp file, as UTF-8 with newlines kept as
    they are. The sha256 returned is read back from the temp file's bytes,
    _WRITE_SLICE at a time, before it replaces `path`, so a manifest vouches
    for the bytes on disk. If anything fails, the temp file goes and the old
    file stays.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fill(fh)
        digest = hashlib.sha256()
        with open(tmp, "rb") as fh:
            for data in iter(functools.partial(fh.read, _WRITE_SLICE), b""):
                digest.update(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _write_artifact(path: Path, content: str) -> str:
    """Write a text artifact, such as an SVG, atomically, a slice at a time; returns its sha256."""
    slices = (content[start:start + _WRITE_SLICE]
              for start in range(0, len(content), _WRITE_SLICE))
    return _write(path, lambda fh: fh.writelines(slices))


def _write_json(path: Path, payload: dict) -> str:
    """Write canonical_json(payload) atomically as it is made; returns its sha256."""
    return _write(path, functools.partial(_dump_json, payload))


def _read_json(path):
    """The JSON value in a UTF-8 file; text that is not one raises a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path} is not UTF-8 JSON: {exc}") from None


def _load_payload(path) -> dict:
    """An artifact a stage command reads; config files are read apart, by _merge_config."""
    return _read_json(path)


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
# the payload envelope and its field readers
#
# Every payload starts from envelope(kind). The one reader of each kind calls
# check_envelope before it reads any other field, and reads its fields with
# field, finite_matrix and string_list, whose errors name the field as
# <kind>.<key>. An array field holds a numpy array when the payload comes
# straight from its stage, and a list when it was read back from JSON; the
# readers take either.

def envelope(kind: str) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": kind}


def check_envelope(payload: dict, kind: str) -> None:
    """Raise ValueError unless ``payload`` is a ``kind`` payload of this schema version."""
    found = payload if isinstance(payload, dict) else {}  # any JSON value can arrive
    if found.get("kind") != kind or found.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema version mismatch: expected {kind} v{SCHEMA_VERSION}, got "
            f"kind={found.get('kind')!r} schema_version={found.get('schema_version')!r}"
        )


def field(payload: dict, kind: str, key: str):
    """``payload[key]``; a missing key raises a ValueError naming ``<kind>.<key>``."""
    if key not in payload:
        raise ValueError(f"{kind}.{key} is missing")
    return payload[key]


def finite_matrix(payload: dict, kind: str, key: str, width: int) -> np.ndarray:
    """``payload[key]`` as a finite M x ``width`` float array."""
    name = f"{kind}.{key}"
    raw = field(payload, kind, key)
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an Mx{width} array of numbers") from None
    if values.ndim != 2 or values.shape[1] != width:
        raise ValueError(f"{name} must be an Mx{width} array, got shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise ValueError(f"{name} must be finite; row {bad[0]} is {values[bad[0]].tolist()}")
    return values


def string_list(payload: dict, kind: str, key: str, optional: bool = False) -> list[str] | None:
    """``payload[key]`` as a list of strings; an ``optional`` field may also be null or missing."""
    if optional and payload.get(key) is None:
        return None
    value = field(payload, kind, key)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{kind}.{key} must be a list of strings")
    return value


def integer(payload: dict, kind: str, key: str) -> int:
    """``payload[key]`` as a JSON integer; a bool, float or string is rejected."""
    value = field(payload, kind, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{kind}.{key} must be an integer, got {value!r}")
    return value


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
        **envelope("standardized_data"),
        "column_names": std.column_names,
        "row_labels": std.row_labels,
        "class_labels": std.class_labels,
        "means": params.means,
        "stddevs": params.stddevs,
        "values": std.values,
    }


def _data_from_payload(payload: dict) -> DataMatrix:
    check_envelope(payload, "standardized_data")
    names = string_list(payload, "standardized_data", "column_names")
    return DataMatrix(
        values=finite_matrix(payload, "standardized_data", "values", len(names)),
        column_names=names,
        row_labels=string_list(payload, "standardized_data", "row_labels", optional=True),
        class_labels=string_list(payload, "standardized_data", "class_labels", optional=True),
    )


def stage_train(std_payload: dict, cfg: PipelineConfig) -> dict:
    data = _data_from_payload(std_payload)
    sigma_final, result, g = som.select_sigma(data, cfg.rows, cfg.cols, cfg.train_config)
    print(f"selected sigma_final={sigma_final}", file=sys.stderr)
    grid = result.grid
    return {  # unit positions are implied by rows and cols
        **envelope("som_grid"),
        "rows": grid.rows,
        "cols": grid.cols,
        "dim": grid.dim,
        "reference_vectors": grid.reference_vectors,
        "training_metadata": {
            "epochs": cfg.epochs,
            "sigma_schedule": result.sigmas,
            "seed": cfg.seed,
            "goodness": g,
            "quantization_error": result.quantization_errors[-1],
        },
    }


def _grid_from_payload(payload: dict) -> som.SomGrid:
    check_envelope(payload, "som_grid")
    rows, cols, dim = (integer(payload, "som_grid", key) for key in ("rows", "cols", "dim"))
    vectors = finite_matrix(payload, "som_grid", "reference_vectors", dim)
    if rows * cols != len(vectors):
        raise ValueError(
            f"som_grid.rows x som_grid.cols is {rows}x{cols} = {rows * cols} units, "
            f"but som_grid.reference_vectors has {len(vectors)}"
        )
    return som.SomGrid(rows, cols, vectors)


def stage_project(grid_payload: dict, cfg: PipelineConfig) -> dict:
    grid = _grid_from_payload(grid_payload)
    pc = cfg.projection_config
    result = projection.project(grid.reference_vectors, pc)
    return {
        **envelope("embedding"),
        "method": result.method,
        "config": {
            "k_neighbors": result.k_neighbors,
            "repulsion_t": result.repulsion_t,
            "max_iterations": pc.max_iterations,
            "tolerance": pc.tolerance,
            "seed": pc.seed,
        },
        "points": result.points,
        "final_stress": result.stress,
        "iterations": result.iterations,
    }


def _points_from_payload(payload: dict) -> np.ndarray:
    check_envelope(payload, "embedding")
    return finite_matrix(payload, "embedding", "points", 2)


def stage_color(embedding_payload: dict, cfg: PipelineConfig) -> dict:
    points = _points_from_payload(embedding_payload)
    plane = cfg.color_plane
    coords = projection.normalize_components(projection.align_axes(points))
    if cfg.swap_axes:
        coords = coords[:, ::-1]
    colors = colorspace.colorize(coords, plane)
    return {
        **envelope("unit_colors"),
        "plane": asdict(plane),
        "swap_axes": bool(cfg.swap_axes),
        "unit_coords": coords,
        "rgb": colors,
        "hex": colorspace.hex_colors(colors),
    }


def _colors_from_payload(payload: dict) -> np.ndarray:
    check_envelope(payload, "unit_colors")
    rgb = finite_matrix(payload, "unit_colors", "rgb", 3)
    bad = np.flatnonzero(((rgb < 0.0) | (rgb > 1.0)).any(axis=1))
    if bad.size:
        raise ValueError(
            f"unit_colors.rgb channels must lie in [0, 1]; unit {bad[0]} is {rgb[bad[0]].tolist()}"
        )
    return rgb


def stage_render(
    std_payload: dict,
    grid_payload: dict,
    embedding_payload: dict,
    colors_payload: dict,
    cfg: PipelineConfig,
) -> tuple[str, str]:
    grid = _grid_from_payload(grid_payload)
    points = _points_from_payload(embedding_payload)
    colors = _colors_from_payload(colors_payload)
    for name, count in (("embedding.points", len(points)), ("unit_colors.rgb", len(colors))):
        if count != grid.m:
            raise ValueError(f"{name} has {count} entries for a grid of {grid.m} units")
    data = _data_from_payload(std_payload)

    overlay = render.Overlay()
    if data.class_labels is not None or data.row_labels is not None:
        bmus = som.bmu_indices(data.values, grid)
        for row, unit in enumerate(bmus):
            if data.class_labels is not None:
                overlay.markers.setdefault(int(unit), []).append(data.class_labels[row])
            if data.row_labels is not None:
                overlay.labels.setdefault(int(unit), []).append(data.row_labels[row])

    som_svg = render.render_som_svg(grid, colors, overlay, cfg.render_spec)
    scatter_svg = render.render_scatter_svg(points, colors, cfg.render_spec)
    return som_svg, scatter_svg


# ----------------------------------------------------------------------------
# the stage table: each stage command's artifacts, options and settings

def _parse_candidates(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"sigma candidates must be comma-separated numbers, got {text!r}") from None


# Each option is (flag, add_argument keywords). Every option defaults to None,
# so that only flags given on the command line override config keys.
_PLANE_OPTIONS = (("--plane", dict(help="built-in plane name")),)
_SIZE_OPTIONS = (("--spacing", dict(dest="spacing_fraction", type=float)),
                 ("--unit-radius", dict(dest="unit_radius_px", type=float)))


class Stage(typing.NamedTuple):
    """A stage command; the module global stage_<name> computes it.

    reads: (flag, default file name of the artifact it reads) per input.
    writes: (flag, default file name, description) per output, in the order
    stage_<name> returns them. The pipeline writes them into --out under their
    default names, unless `kept` is false: then it only hands them on.
    settings: the PipelineConfig property that builds the stage's settings.
    """

    name: str
    help: str
    reads: tuple[tuple[str, str], ...]
    options: tuple[tuple[str, dict], ...]
    writes: tuple[tuple[str, str, str], ...]
    settings: str | None
    kept: bool = True


STAGES = (
    Stage("ingest", "load and standardize a CSV", (),
          (("--input", dict(help="CSV input file")),
           ("--no-header", dict(dest="has_header", action="store_const", const=False)),
           ("--label-column", {}),
           ("--class-column", {})),
          (("--out", "standardized.json", "standardized-data JSON"),), None),
    Stage("train", "train the SOM on standardized data", (("--in", "standardized.json"),),
          (("--grid", dict(metavar="RxC", help="grid shape, e.g. 6x7")),
           ("--epochs", dict(type=int)),
           ("--sigma-init", dict(dest="sigma_initial", type=float)),
           ("--sigma-final", dict(dest="sigma_final", type=float)),
           ("--sigma-auto", dict(dest="sigma_candidates", type=_parse_candidates,
                                 metavar="S1,S2,...",
                                 help="candidate final sigmas for automatic selection"))),
          (("--out", "grid.json", "grid JSON"),), "train_config"),
    Stage("project", "project reference vectors to 2D", (("--in", "grid.json"),),
          (("--method", dict(choices=sorted(set(_METHOD_ALIASES)))),
           ("--k", dict(dest="k_neighbors", type=int)),
           ("--repulsion", dict(dest="repulsion_t", type=float))),
          (("--out", "embedding.json", "embedding JSON"),), "projection_config"),
    Stage("color", "derive unit colors from an embedding", (("--in", "embedding.json"),),
          _PLANE_OPTIONS + (("--swap-axes", dict(action="store_const", const=True)),),
          (("--out", "colors.json", "unit-colors JSON"),), "color_plane", kept=False),
    Stage("render", "emit the SOM and scatter SVGs",
          (("--in-data", "standardized.json"), ("--in-grid", "grid.json"),
           ("--in-embedding", "embedding.json"), ("--in-colors", "colors.json")),
          (("--shape", dict(choices=("circle", "hexagon"))),) + _SIZE_OPTIONS,
          (("--out-som", "som.svg", "SOM SVG"), ("--out-scatter", "scatter.svg", "scatter SVG")),
          "render_spec"),
)


def _dest(flag: str) -> str:
    """The argparse dest of an artifact flag: --in-grid is in_grid_path, --out is out_path.

    The suffix keeps each path apart from the config field of the same name
    (a stage's --out file is not the pipeline's `out` directory), and from the
    keyword `in`.
    """
    return flag[2:].replace("-", "_") + "_path"


# ----------------------------------------------------------------------------
# commands

def _run(stage: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(f"error in stage {stage}: {exc}") from exc


def _run_stage(stage: Stage, inputs: list, cfg: PipelineConfig) -> tuple:
    """The stage's outputs, payload dicts or SVG text, in the order of `stage.writes`."""
    result = _run(stage.name, globals()[f"stage_{stage.name}"], *inputs, cfg)
    return result if isinstance(result, tuple) else (result,)


def cmd_pipeline(cfg: PipelineConfig) -> dict:
    """Run every stage, write the five artifacts plus a manifest, return metrics.

    Every stage runs before the first write, so a failed run leaves --out as it was.
    """
    for stage in STAGES:  # build every stage's settings, so a bad one fails before ingest
        if stage.settings:
            _run(stage.name, getattr, cfg, stage.settings)
    # lmds's k against the grid that gets trained; project checks it again on the grid it reads
    _run("project", cfg.projection_config.neighbor_count, cfg.rows * cfg.cols)
    outputs: dict[str, dict | str] = {}
    for stage in STAGES:
        results = _run_stage(stage, [outputs[name] for _, name in stage.reads], cfg)
        outputs.update((name, result) for (_, name, _), result in zip(stage.writes, results))
    out_dir = Path(cfg.out)
    _commit(out_dir / "manifest.json", cfg,
            {out_dir / name: outputs[name] for stage in STAGES if stage.kept
             for _, name, _ in stage.writes})

    training = outputs["grid.json"]["training_metadata"]
    return {
        "quantization_error": training["quantization_error"],
        "goodness": training["goodness"],
        "final_stress": outputs["embedding.json"]["final_stress"],
    }


def _commit(manifest: Path, cfg: PipelineConfig, outputs: dict[Path, dict | str]) -> None:
    """Write each output, then a manifest with the config and every output's checksum.

    An output is SVG text or a payload dict, streamed as canonical JSON. The old
    manifest goes first: once the first output is replaced it would vouch for a
    mix of old and new artifacts, so a failed write leaves none.
    """
    manifest.unlink(missing_ok=True)
    checksums = {}
    for path, output in outputs.items():
        write = _write_artifact if isinstance(output, str) else _write_json
        checksums[path.name] = write(path, output)
        print(f"wrote {path}", file=sys.stderr)
    payload = {**envelope("manifest"), "config": cfg.to_dict(), "seed": cfg.seed,
               "artifacts": checksums}
    _write_json(manifest, payload)


# ----------------------------------------------------------------------------
# argument parsing

def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError:
        raise ValueError(f"grid must look like RxC (e.g. 6x7), got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="somchroma",
        description="Train a batch SOM, project its reference vectors to 2D, "
        "and color the grid with a perceptually uniform CIELAB plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV_VAR})")
        p.add_argument("--seed", type=int, default=None)
        return p

    def add(p, options):
        for flag, keywords in options:
            p.add_argument(flag, default=None, **keywords)

    p = command("pipeline", "run all stages")
    for stage in STAGES:
        add(p, stage.options)
    p.add_argument("--out", default=None, help="output directory")

    described = {name: what for stage in STAGES for _, name, what in stage.writes}
    for stage in STAGES:
        p = command(stage.name, stage.help)
        for flag, name in stage.reads:
            p.add_argument(flag, dest=_dest(flag), required=True, help=described[name])
        add(p, stage.options)
        for flag, _, what in stage.writes:
            p.add_argument(flag, dest=_dest(flag), default=None, help=f"{what} path")

    p = command("swatch", "emit a color-plane swatch SVG")
    add(p, _PLANE_OPTIONS + _SIZE_OPTIONS)
    p.add_argument("--steps-u", type=int, default=21)
    p.add_argument("--steps-v", type=int, default=7)
    p.add_argument("--out", dest="out_path", default=None, help="swatch SVG path")

    return parser


def _merge_config(args: argparse.Namespace) -> PipelineConfig:
    payload = {}
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        payload = _read_json(config_path)
    cfg = PipelineConfig.from_dict(payload)

    # every flag whose dest is a config field overrides it; --grid sets two
    overrides = {
        f.name: getattr(args, f.name)
        for f in fields(PipelineConfig)
        if getattr(args, f.name, None) is not None
    }
    if getattr(args, "grid", None) is not None:
        overrides["rows"], overrides["cols"] = _parse_grid(args.grid)
    return replace(cfg, **overrides) if overrides else cfg


def _check_distinct(paths: dict[str, Path]) -> None:
    """Reject two outputs naming one file: the later write would replace the earlier."""
    seen: dict[Path, str] = {}
    for flag, path in paths.items():
        other = seen.setdefault(path.resolve(), flag)
        if other != flag:
            raise ValueError(f"{other} and {flag} both name {path}; give each output its own file")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "pipeline":
            print(json.dumps(cmd_pipeline(cfg), sort_keys=True))
            return 0
        stage = {s.name: s for s in STAGES}.get(args.command)  # None for swatch
        writes = stage.writes if stage is not None else (("--out", "swatch.svg", "swatch SVG"),)
        paths = {flag: Path(getattr(args, _dest(flag)) or name) for flag, name, _ in writes}
        first = next(iter(paths.values()))
        manifest = first.with_name(first.name + ".manifest.json")
        _check_distinct({**paths, "the manifest": manifest})  # before any input is read
        settings = (stage.settings,) if stage is not None else ("color_plane", "render_spec")
        for name in filter(None, settings):  # built as the pipeline builds them, before any read
            _run(args.command, getattr, cfg, name)
        if stage is not None:
            inputs = [_load_payload(getattr(args, _dest(flag))) for flag, _ in stage.reads]
            results = _run_stage(stage, inputs, cfg)
        else:
            results = (_run("swatch", lambda: render.render_plane_swatch_svg(
                cfg.color_plane, args.steps_u, args.steps_v, cfg.render_spec)),)
        _commit(manifest, cfg, dict(zip(paths.values(), results)))
        return 0
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except Exception as exc:  # config/IO errors outside a stage
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
