"""SVG rendering of the colored SOM grid, the projection scatter, and plane swatches.

Units are drawn with gaps so the reference background color shows between
them (perceived lightness depends on surround, so a consistent reference
color interleaves the data colors). Output is byte-deterministic: fixed
element order and fixed 3-decimal coordinate formatting.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .colorspace import ColorPlane, colorize, hex_colors, hex_to_rgb
from .som import SomGrid

__all__ = [
    "RenderSpec",
    "Overlay",
    "MARKER_SHAPES",
    "assign_markers",
    "hex_layout",
    "render_som_svg",
    "render_scatter_svg",
    "render_plane_swatch_svg",
]

MARKER_SHAPES = ("circle", "triangle", "rectangle")

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

_SCATTER_CANVAS = 480.0

# characters outside XML 1.0's Char production; kept uncompiled, so import pays nothing
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


@dataclass(frozen=True)
class RenderSpec:
    """Geometry and styling for SVG output."""

    shape: str = "circle"
    spacing_fraction: float = 0.15
    background: str = "#FFFFFF"
    unit_radius_px: float = 18.0
    label_font_size_px: float = 11.0
    marker_map: dict[str, str] | None = None
    marker_radius_px: float | None = None

    def __post_init__(self):
        hex_to_rgb(self.background)  # raises unless #RRGGBB
        object.__setattr__(self, "background", self.background.upper())
        if self.shape not in ("circle", "hexagon"):
            raise ValueError(f"shape must be circle or hexagon, got {self.shape!r}")
        if not 0.0 <= self.spacing_fraction < 0.5:
            raise ValueError(
                f"spacing_fraction must be in [0, 0.5), got {self.spacing_fraction}"
            )
        # a positive size is below inf, and NaN fails every comparison
        if not (0 < self.unit_radius_px < math.inf and 0 < self.label_font_size_px < math.inf):
            raise ValueError("unit_radius_px and label_font_size_px must be positive")
        if self.marker_radius_px is not None and not (0 < self.marker_radius_px < math.inf):
            raise ValueError(f"marker_radius_px must be positive, got {self.marker_radius_px}")
        if self.marker_map is not None:
            for tag, shape in self.marker_map.items():
                if shape not in MARKER_SHAPES:
                    raise ValueError(f"marker shape for {tag!r} must be one of {MARKER_SHAPES}")

    @property
    def marker_radius(self) -> float:
        return self.marker_radius_px if self.marker_radius_px is not None else 0.22 * self.unit_radius_px


@dataclass
class Overlay:
    """Per-unit text labels and class-tagged markers."""

    labels: dict[int, list[str]] = field(default_factory=dict)
    markers: dict[int, list[str]] = field(default_factory=dict)

    def validate(self, m: int):
        for idx in list(self.labels) + list(self.markers):
            if not 0 <= idx < m:
                raise ValueError(f"overlay references unit {idx}, grid has {m} units")

    def all_tags(self) -> list[str]:
        tags = {t for tags in self.markers.values() for t in tags}
        return sorted(tags)


def assign_markers(tags) -> dict[str, str]:
    """Deterministic class-tag -> marker-shape assignment (sorted tags, cycling)."""
    return {tag: MARKER_SHAPES[i % len(MARKER_SHAPES)] for i, tag in enumerate(sorted(set(tags)))}


def _fmt(x: float) -> str:
    s = f"{x:.3f}"
    return "0.000" if s == "-0.000" else s


def _pitch(spec: RenderSpec) -> float:
    """Center-to-center distance of neighboring cells: a diameter plus the gap."""
    return 2.0 * spec.unit_radius_px * (1.0 + spec.spacing_fraction)


def hex_layout(grid: SomGrid, spec: RenderSpec) -> tuple[np.ndarray, tuple[float, float]]:
    """Pixel-space unit centers and the canvas size that contains them.

    Odd rows are offset by half a horizontal step; the vertical step is
    sqrt(3)/2 of the horizontal one, so lattice neighbors stay equidistant.
    The step leaves a gap of spacing_fraction times the unit diameter.
    """
    step = _pitch(spec)
    pad = step / 2.0
    centers = grid.unit_positions * step + pad
    width = float(centers[:, 0].max() + pad)
    height = float(centers[:, 1].max() + pad)
    return centers, (width, height)


def _svg(width: float, height: float, background: str, body: list[str]) -> str:
    """The SVG document: header, background rectangle, body lines, closing tag."""
    w, h = _fmt(width), _fmt(height)
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        f'<rect x="0.000" y="0.000" width="{w}" height="{h}" fill="{background}"/>',
        *body,
        "</svg>\n",
    ])


# pointy-top hexagons match the lattice; triangles point up. Each angle keeps
# the expression that fixes its bits, and so the written coordinates.
_HEXAGON_ANGLES = tuple(math.pi / 2.0 + k * math.pi / 3.0 for k in range(6))
_TRIANGLE_ANGLES = (
    math.pi / 2.0, math.pi / 2.0 + 2.0 * math.pi / 3.0, math.pi / 2.0 + 4.0 * math.pi / 3.0
)


def _polygon_points(cx: float, cy: float, r: float, angles: tuple[float, ...]) -> str:
    return " ".join(f"{_fmt(cx + r * math.cos(a))},{_fmt(cy - r * math.sin(a))}" for a in angles)


def _unit_shape_element(shape: str, cx: float, cy: float, r: float, fill: str) -> str:
    if shape == "circle":
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'
    return f'<polygon points="{_polygon_points(cx, cy, r, _HEXAGON_ANGLES)}" fill="{fill}"/>'


def _marker_element(shape: str, cx: float, cy: float, r: float) -> str:
    style = 'fill="none" stroke="#000000" stroke-width="1.000"'
    if shape == "circle":
        return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {style}/>'
    if shape == "triangle":
        return f'<polygon points="{_polygon_points(cx, cy, 1.2 * r, _TRIANGLE_ANGLES)}" {style}/>'
    side = 1.7 * r
    return (
        f'<rect x="{_fmt(cx - side / 2.0)}" y="{_fmt(cy - side / 2.0)}" '
        f'width="{_fmt(side)}" height="{_fmt(side)}" {style}/>'
    )


def _marker_offsets(count: int, unit_radius: float) -> list[tuple[float, float]]:
    """Deterministic golden-angle spiral for stacking markers inside a unit."""
    if count == 1:
        return [(0.0, 0.0)]
    offsets = []
    for k in range(count):
        rho = 0.55 * unit_radius * math.sqrt((k + 0.5) / count)
        ang = k * _GOLDEN_ANGLE
        offsets.append((rho * math.cos(ang), rho * math.sin(ang)))
    return offsets


def render_som_svg(grid: SomGrid, colors: np.ndarray, overlay: Overlay, spec: RenderSpec) -> str:
    """SVG of the colored grid with class markers and labels.

    `colors` is the Mx3 array `colorize` returns, row k filling unit k.
    Circles (default) leave room for the reference background; markers for
    data mapped to a unit stack in a small spiral, in sorted class-tag order.
    Identical inputs yield identical bytes.
    """
    m = grid.m
    fills = hex_colors(colors)
    if len(fills) != m:
        raise ValueError(f"{len(fills)} colors for {m} units")
    overlay.validate(m)

    centers, (width, height) = hex_layout(grid, spec)
    r = spec.unit_radius_px
    fs = spec.label_font_size_px
    max_lines = max((len(v) for v in overlay.labels.values()), default=0)
    top_extra = max_lines * fs + 4.0 if max_lines else 0.0
    centers = centers + np.array([0.0, top_extra])
    height += top_extra

    marker_map = spec.marker_map if spec.marker_map is not None else assign_markers(overlay.all_tags())

    body = [
        _unit_shape_element(spec.shape, cx, cy, r, fill) for (cx, cy), fill in zip(centers, fills)
    ]
    for k in sorted(overlay.markers):
        tags = sorted(overlay.markers[k])
        cx, cy = centers[k]
        for (dx, dy), tag in zip(_marker_offsets(len(tags), r), tags):
            if tag not in marker_map:
                raise ValueError(f"no marker shape assigned for class {tag!r}")
            body.append(_marker_element(marker_map[tag], cx + dx, cy + dy, spec.marker_radius))
    for k in sorted(overlay.labels):
        cx, cy = centers[k]
        texts = overlay.labels[k]
        for i, text in enumerate(texts):
            if re.search(_NOT_XML_CHAR, text):
                raise ValueError(f"unit {k} label {text!r} holds a character XML cannot hold")
            y = cy - r - 4.0 - (len(texts) - 1 - i) * fs
            # html.escape(text, quote=False), without importing html's entity tables
            text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            body.append(
                f'<text x="{_fmt(cx)}" y="{_fmt(y)}" font-size="{_fmt(fs)}" '
                f'text-anchor="middle" font-family="sans-serif">{text}</text>'
            )
    return _svg(width, height, spec.background, body)


def render_scatter_svg(embedding: np.ndarray, colors: np.ndarray, spec: RenderSpec) -> str:
    """SVG scatter of the raw 2D embedding, isotropically fitted with 5% margin.

    `colors` is the Mx3 array `colorize` returns, row k filling point k.
    A dimension with zero extent falls back to a unit-sized viewport so a
    single or collinear point set still renders at the canvas center.
    """
    pts = np.asarray(embedding, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an Mx2 embedding, got {pts.shape}")
    fills = hex_colors(colors)
    if len(fills) != pts.shape[0]:
        raise ValueError(f"{len(fills)} colors for {pts.shape[0]} points")

    size = _SCATTER_CANVAS
    margin = 0.05 * size
    avail = size - 2.0 * margin
    mins = pts.min(axis=0)
    maxs = pts.max(axis=0)
    ranges = np.where(maxs - mins > 0.0, maxs - mins, 1.0)
    scale = avail / ranges.max()
    mid = (maxs + mins) / 2.0

    dot_r = _fmt(max(2.0, 0.25 * spec.unit_radius_px))
    body = []
    for (px, py), fill in zip(pts, fills):
        x = size / 2.0 + (px - mid[0]) * scale
        y = size / 2.0 - (py - mid[1]) * scale  # flip: y grows downward in SVG
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{dot_r}" fill="{fill}"/>')
    return _svg(size, size, spec.background, body)


def render_plane_swatch_svg(
    plane: ColorPlane, steps_u: int, steps_v: int, spec: RenderSpec
) -> str:
    """SVG swatch grid sampling the plane, gaps exposing the background.

    Lightness (v) increases upward; hue (u) increases rightward.
    """
    if steps_u < 2 or steps_v < 2:
        raise ValueError("swatch sampling needs at least 2 steps per axis")
    pitch = _pitch(spec)
    side = 2.0 * spec.unit_radius_px
    pad = pitch / 2.0
    width = (steps_u - 1) * pitch + side + 2.0 * pad
    height = (steps_v - 1) * pitch + side + 2.0 * pad

    # row-major, top row first: v = 1 at the top
    u, v = np.meshgrid(np.arange(steps_u) / (steps_u - 1), 1.0 - np.arange(steps_v) / (steps_v - 1))
    fills = hex_colors(colorize(np.column_stack([u.ravel(), v.ravel()]), plane))

    body = []
    for k, fill in enumerate(fills):
        j, i = divmod(k, steps_u)
        body.append(
            f'<rect x="{_fmt(pad + i * pitch)}" y="{_fmt(pad + j * pitch)}" '
            f'width="{_fmt(side)}" height="{_fmt(side)}" fill="{fill}"/>'
        )
    return _svg(width, height, spec.background, body)
