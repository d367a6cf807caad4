import hashlib
import html
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from somchroma.colorspace import (
    builtin_planes,
    colorize,
    get_plane,
    hex_colors,
    lab_to_srgb,
    plane_color,
)
from somchroma.render import (
    Overlay,
    RenderSpec,
    assign_markers,
    hex_layout,
    render_plane_swatch_svg,
    render_scatter_svg,
    render_som_svg,
)
from somchroma.som import SomGrid

from conftest import assert_svg_coordinates_within_viewbox as assert_within_viewbox
from conftest import subprocess_env, svg_view_box


def make_grid(rows, cols, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    return SomGrid(rows, cols, rng.standard_normal((rows * cols, dim)))


def gray_colors(m):
    return np.full((m, 3), 0.5)


# ----------------------------------------------------------------------------
# layout

def test_hex_layout_single_unit_centered():
    grid = make_grid(1, 1)
    centers, (w, h) = hex_layout(grid, RenderSpec())
    assert centers.shape == (1, 2)
    assert centers[0, 0] == pytest.approx(w / 2.0)
    assert centers[0, 1] == pytest.approx(h / 2.0)


def test_hex_layout_odd_row_offset():
    grid = make_grid(2, 2)
    spec = RenderSpec()
    centers, _ = hex_layout(grid, spec)
    step = 2.0 * spec.unit_radius_px * (1.0 + spec.spacing_fraction)
    assert centers[2, 0] - centers[0, 0] == pytest.approx(step / 2.0)
    assert centers[2, 1] - centers[0, 1] == pytest.approx(step * math.sqrt(3.0) / 2.0)


def test_hex_layout_neighbor_distances_equal():
    grid = make_grid(6, 7)
    centers, _ = hex_layout(grid, RenderSpec())
    assert len(centers) == 42
    lattice = grid.unit_positions
    step = None
    for i in range(grid.m):
        for j in range(i + 1, grid.m):
            if abs(np.linalg.norm(lattice[i] - lattice[j]) - 1.0) <= 1e-9:
                d = np.linalg.norm(centers[i] - centers[j])
                step = d if step is None else step
                assert abs(d - step) <= 1e-9


def test_hex_layout_gap_property():
    spec = RenderSpec(spacing_fraction=0.2, unit_radius_px=10.0)
    grid = make_grid(3, 4)
    centers, _ = hex_layout(grid, spec)
    lattice = grid.unit_positions
    diameter = 2.0 * spec.unit_radius_px
    for i in range(grid.m):
        for j in range(i + 1, grid.m):
            if abs(np.linalg.norm(lattice[i] - lattice[j]) - 1.0) <= 1e-9:
                boundary_gap = np.linalg.norm(centers[i] - centers[j]) - diameter
                assert boundary_gap >= spec.spacing_fraction * diameter - 1e-6


# ----------------------------------------------------------------------------
# SOM rendering

def test_render_som_single_unit():
    grid = make_grid(1, 1)
    svg = render_som_svg(grid, gray_colors(1), Overlay(), RenderSpec())
    assert svg.count("<circle") == 1
    assert svg.count("<rect") == 1  # background only
    assert_within_viewbox(svg)


def test_render_som_element_count_and_shapes():
    grid = make_grid(6, 7)
    svg = render_som_svg(grid, gray_colors(42), Overlay(), RenderSpec())
    assert svg.count("<circle") == 42
    hex_svg = render_som_svg(grid, gray_colors(42), Overlay(), RenderSpec(shape="hexagon"))
    assert hex_svg.count("<polygon") == 42
    assert_within_viewbox(svg)
    assert_within_viewbox(hex_svg)


def test_render_som_byte_deterministic():
    grid = make_grid(4, 5, seed=3)
    overlay = Overlay(markers={0: ["b", "a"], 7: ["a"]}, labels={3: ["hello"]})
    spec = RenderSpec()
    colors = gray_colors(20)
    assert render_som_svg(grid, colors, overlay, spec) == render_som_svg(grid, colors, overlay, spec)


def test_render_som_markers_all_three_shapes():
    grid = make_grid(2, 3)
    overlay = Overlay(markers={0: ["setosa"], 1: ["versicolor"], 2: ["virginica"]})
    svg = render_som_svg(grid, gray_colors(6), overlay, RenderSpec())
    # markers are stroked, units are filled
    assert svg.count('stroke="#000000"') == 3
    assert re.search(r'<circle[^>]*fill="none"', svg)  # setosa -> circle
    assert re.search(r'<polygon[^>]*fill="none"', svg)  # versicolor -> triangle
    assert re.search(r'<rect[^>]*fill="none"', svg)  # virginica -> rectangle
    assert_within_viewbox(svg)


def test_assign_markers_is_sorted_cycle():
    assert assign_markers(["virginica", "setosa", "versicolor"]) == {
        "setosa": "circle",
        "versicolor": "triangle",
        "virginica": "rectangle",
    }


def test_render_som_marker_stacking_deterministic_and_contained():
    grid = make_grid(2, 2)
    overlay = Overlay(markers={1: ["x"] * 7 + ["w"] * 3})
    svg = render_som_svg(grid, gray_colors(4), overlay, RenderSpec())
    assert svg.count('stroke="#000000"') == 10
    assert_within_viewbox(svg)


def test_labels_are_escaped_as_html_escape_does_without_importing_html():
    # html imports html.entities, about 0.5 MB of tables no artifact needs
    texts = ["a<b", "&amp;", "x > y & z", "\"quoted\" 'single'", "plain", "<&>" * 3]
    svg = render_som_svg(make_grid(1, 2), gray_colors(2), Overlay(labels={0: texts}), RenderSpec())
    got = re.findall(r'font-family="sans-serif">(.*?)</text>', svg)
    assert got == [html.escape(t, quote=False) for t in texts]
    code = "import sys, somchroma.cli\nprint('html' in sys.modules)\n"
    result = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


def test_render_som_labels_above_units():
    grid = make_grid(1, 2)
    spec = RenderSpec()
    overlay = Overlay(labels={1: ["alpha", "<&>"]})
    svg = render_som_svg(grid, gray_colors(2), overlay, spec)
    assert "&lt;&amp;&gt;" in svg
    texts = re.findall(r'<text x="([0-9.]+)" y="([0-9.]+)"', svg)
    assert len(texts) == 2
    circles = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    cy = float(circles[1][1])
    for _, y in texts:
        assert float(y) < cy - spec.unit_radius_px
    assert_within_viewbox(svg)


@pytest.mark.parametrize("radius", [-5.0, 0.0])
def test_render_spec_rejects_non_positive_marker_radius(radius):
    with pytest.raises(ValueError, match=f"marker_radius_px must be positive, got {radius}"):
        RenderSpec(marker_radius_px=radius)


@pytest.mark.parametrize("name", [
    "unit_radius_px", "label_font_size_px", "marker_radius_px", "spacing_fraction",
])
def test_render_spec_rejects_nan(name):
    with pytest.raises(ValueError, match=name):
        RenderSpec(**{name: float("nan")})


def test_render_som_rejects_color_mismatch():
    grid = make_grid(2, 2)
    with pytest.raises(ValueError, match="3 colors for 4 units"):
        render_som_svg(grid, gray_colors(3), Overlay(), RenderSpec())


@pytest.mark.parametrize("colors, got", [
    ([(0.5, 0.5, 0.5)] * 4, "got list"),
    (np.full(4, 0.5), r"got \(4,\)"),
    (np.full((4, 4), 0.5), r"got \(4, 4\)"),
])
def test_renderers_reject_colors_that_are_not_an_mx3_array(colors, got):
    message = f"colors must be an Mx3 array, {got}"
    with pytest.raises(ValueError, match=message):
        render_som_svg(make_grid(2, 2), colors, Overlay(), RenderSpec())
    with pytest.raises(ValueError, match=message):
        render_scatter_svg(np.zeros((4, 2)), colors, RenderSpec())


def test_render_som_rejects_bad_overlay_index():
    grid = make_grid(2, 2)
    overlay = Overlay(markers={4: ["x"]})
    with pytest.raises(ValueError, match="references unit 4"):
        render_som_svg(grid, gray_colors(4), overlay, RenderSpec())


# ----------------------------------------------------------------------------
# scatter rendering

def test_render_scatter_single_point_centered():
    svg = render_scatter_svg(np.array([[5.0, -3.0]]), gray_colors(1), RenderSpec())
    w, h = svg_view_box(svg)
    dots = re.findall(r'<circle cx="([0-9.]+)" cy="([0-9.]+)"', svg)
    assert len(dots) == 1
    assert float(dots[0][0]) == pytest.approx(w / 2.0)
    assert float(dots[0][1]) == pytest.approx(h / 2.0)


def test_render_scatter_colors_match_map_colors():
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((42, 2))
    colors = rng.uniform(0, 1, (42, 3))
    svg = render_scatter_svg(pts, colors, RenderSpec())
    fills = re.findall(r'<circle[^>]*fill="(#[0-9A-F]{6})"', svg)
    assert fills == [hex_colors(c[None])[0] for c in colors]
    assert_within_viewbox(svg)


def test_render_scatter_collinear_points():
    pts = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    svg = render_scatter_svg(pts, gray_colors(3), RenderSpec())
    assert svg.count("<circle") == 3
    assert_within_viewbox(svg)


def test_render_scatter_rejects_length_mismatch():
    with pytest.raises(ValueError, match="2 colors for 3 points"):
        render_scatter_svg(np.zeros((3, 2)), gray_colors(2), RenderSpec())


# ----------------------------------------------------------------------------
# swatch rendering

def test_render_swatch_counts_and_corners():
    cgr = get_plane("cyan-gray-red")
    svg = render_plane_swatch_svg(cgr, 2, 2, RenderSpec())
    fills = re.findall(r'<rect[^>]*fill="(#[0-9A-F]{6})"', svg)
    assert len(fills) == 5  # background + 4 swatches
    swatches = fills[1:]
    dark_cyan, light_red = hex_colors(lab_to_srgb(plane_color(cgr, [0.0, 1.0], [0.0, 1.0])))
    assert dark_cyan in swatches and light_red in swatches
    assert_within_viewbox(svg)


@pytest.mark.parametrize("plane", builtin_planes(), ids=lambda p: p.name)
def test_render_swatch_fills_are_the_colorized_grid_row_major(plane):
    steps_u, steps_v = 7, 4
    # row-major from the top-left swatch, which is u = 0, v = 1
    uv = [[i / (steps_u - 1), 1.0 - j / (steps_v - 1)]
          for j in range(steps_v) for i in range(steps_u)]
    svg = render_plane_swatch_svg(plane, steps_u, steps_v, RenderSpec())
    fills = re.findall(r'<rect[^>]*fill="(#[0-9A-F]{6})"', svg)[1:]
    assert fills == hex_colors(colorize(np.array(uv), plane))
    rects = re.findall(r'<rect x="([0-9.]+)" y="([0-9.]+)" width', svg)[1:]
    assert sorted(rects, key=lambda xy: (float(xy[1]), float(xy[0]))) == rects


def test_render_swatch_grid_count():
    gyr = get_plane("green-yellow-red")
    svg = render_plane_swatch_svg(gyr, 11, 5, RenderSpec())
    assert svg.count("<rect") == 56  # 55 swatches + background


def test_render_swatch_mid_column_is_gray():
    cgr = get_plane("cyan-gray-red")
    svg = render_plane_swatch_svg(cgr, 11, 5, RenderSpec())
    fills = re.findall(r'<rect[^>]*fill="(#[0-9A-F]{6})"', svg)[1:]
    # column u=0.5 is every 6th swatch in each row of 11
    for row in range(5):
        hexcode = fills[row * 11 + 5]
        r, g, b = hexcode[1:3], hexcode[3:5], hexcode[5:7]
        assert max(abs(int(r, 16) - int(g, 16)), abs(int(g, 16) - int(b, 16))) <= 1


def test_render_swatch_rejects_single_step():
    with pytest.raises(ValueError, match="at least 2 steps"):
        render_plane_swatch_svg(get_plane("cyan-gray-red"), 1, 5, RenderSpec())


# ----------------------------------------------------------------------------
# golden bytes: the sha256 of each SVG for fixed inputs. No bench workload
# draws hexagons, labels, a non-default background or a swatch, so these are
# the only hashes that pin those bytes; a change that moves them must say why.

def _golden_som_hexagons():
    grid = make_grid(6, 7)
    colors = np.random.default_rng(5).uniform(0.0, 1.0, (42, 3))
    overlay = Overlay(
        labels={0: ["corner"], 9: ["<&>", "two lines"], 41: ["last"]},
        markers={0: ["a"], 4: ["b", "a", "b"], 20: ["c", "c"], 33: ["a", "b", "c", "a"]},
    )
    return render_som_svg(grid, colors, overlay, RenderSpec(shape="hexagon"))


def _golden_som_circles():
    grid = make_grid(3, 4)
    colors = np.random.default_rng(6).uniform(0.0, 1.0, (12, 3))
    overlay = Overlay(markers={1: ["x", "y"], 10: ["y"]})
    spec = RenderSpec(background="#1a2b3c", spacing_fraction=0.3, unit_radius_px=12.5)
    return render_som_svg(grid, colors, overlay, spec)


def _golden_scatter():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((30, 2)) * [3.0, 0.5] - [4.0, 2.0]
    return render_scatter_svg(pts, rng.uniform(0.0, 1.0, (30, 3)), RenderSpec())


GOLDEN_SVGS = {
    "som-hexagons-labels-markers": (
        _golden_som_hexagons,
        "cceba17b1c06ac03ea998ec82326319417fb1175f353a15448906254420ca709"),
    "som-circles-background-spacing": (
        _golden_som_circles,
        "dcccc14ac1a7150b8bb787c8561a55ce090c18f608f6e123a3c0f24b9110f5d1"),
    "scatter-negative-coordinates": (
        _golden_scatter,
        "0cd02510ce602727b700fc09a81b6dd1f0df11c2609792df986b51046cc87092"),
    "swatch-green-yellow-red": (
        lambda: render_plane_swatch_svg(get_plane("green-yellow-red"), 11, 5, RenderSpec()),
        "398d29a62751dd7b0739f754969f291aa3febb7924a1d6f17768e56da4faba76"),
    "swatch-cyan-gray-red": (
        lambda: render_plane_swatch_svg(get_plane("cyan-gray-red"), 11, 5, RenderSpec()),
        "d84c41763ad3da184417c7d16e4ef61465ac13b4d9e3f7ac0ccadc193e40aa46"),
}


@pytest.mark.parametrize("name", GOLDEN_SVGS)
def test_renderers_keep_their_golden_bytes(name):
    render, digest = GOLDEN_SVGS[name]
    assert hashlib.sha256(render().encode("utf-8")).hexdigest() == digest
