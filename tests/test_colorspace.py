import math

import numpy as np
import pytest

from somchroma.colorspace import (
    ColorPlane,
    _gamut_excess,
    builtin_planes,
    check_plane_gamut,
    colorize,
    delta_e,
    get_plane,
    hex_colors,
    hex_to_rgb,
    in_gamut,
    lab_to_srgb,
    plane_color,
    plane_from_dict,
    srgb_to_lab,
)


# ----------------------------------------------------------------------------
# independent scalar oracle for the CIE conversion chain (distinct constants
# and code path from the implementation under test)

_ORACLE_WHITE = (0.95047, 1.0, 1.08883)
_ORACLE_M = (
    (3.2404542, -1.5371385, -0.4985314),
    (-0.9692660, 1.8760108, 0.0415560),
    (0.0556434, -0.2040259, 1.0572252),
)


def oracle_lab_to_rgb(L, a, b):
    fy = (L + 16.0) / 116.0
    fx = fy + a / 500.0
    fz = fy - b / 200.0

    def finv(f):
        return f ** 3 if f ** 3 > 0.008856 else (f - 16.0 / 116.0) / 7.787

    yr = fy ** 3 if L > 903.3 * 0.008856 else L / 903.3
    xyz = (finv(fx) * _ORACLE_WHITE[0], yr * _ORACLE_WHITE[1], finv(fz) * _ORACLE_WHITE[2])
    out = []
    for row in _ORACLE_M:
        lin = sum(m * c for m, c in zip(row, xyz))
        if lin <= 0.0031308:
            out.append(12.92 * lin)
        else:
            out.append(1.055 * lin ** (1.0 / 2.4) - 0.055)
    return tuple(out)


# ----------------------------------------------------------------------------
# plane definitions

def test_builtin_planes_are_the_two_published_scales():
    planes = builtin_planes()
    assert [p.name for p in planes] == ["green-yellow-red", "cyan-gray-red"]
    gyr, cgr = planes
    assert gyr.L_range == (20.0, 80.0) and gyr.a_range == (-60.0, 60.0) and gyr.b_rule == 40.0
    assert cgr.L_range == (20.0, 80.0) and cgr.a_range == (-45.0, 45.0) and cgr.b_rule == "a"


def test_builtin_plane_anchor_points():
    gyr = get_plane("green-yellow-red")
    cgr = get_plane("cyan-gray-red")
    assert plane_color(gyr, 0.5, 1.0).tolist() == [80.0, 0.0, 40.0]
    assert plane_color(cgr, 0.5, 0.5).tolist() == [50.0, 0.0, 0.0]
    assert plane_color(cgr, 0.0, 0.0).tolist() == [20.0, -45.0, -45.0]


def test_plane_color_endpoints_and_interpolation():
    gyr = get_plane("green-yellow-red")
    assert plane_color(gyr, [0.0, 1.0], [0.0, 1.0]).tolist() == [[20.0, -60.0, 40.0],
                                                                [80.0, 60.0, 40.0]]
    cgr = get_plane("cyan-gray-red")
    assert plane_color(cgr, 0.25, 0.5).tolist() == [50.0, -22.5, -22.5]


def test_plane_color_rejects_out_of_square():
    gyr = get_plane("green-yellow-red")
    with pytest.raises(ValueError, match="unit square"):
        plane_color(gyr, 1.2, 0.5)
    with pytest.raises(ValueError, match="unit square"):
        plane_color(gyr, 0.5, -0.1)
    # elementwise: one bad entry of an array fails, and NaN is outside
    with pytest.raises(ValueError, match=r"unit square, got \(0.5, nan\)"):
        plane_color(gyr, [0.2, 0.5], [0.3, np.nan])


def test_get_plane_unknown_name_lists_builtins():
    with pytest.raises(ValueError, match="green-yellow-red, cyan-gray-red"):
        get_plane("viridis")


def test_plane_from_dict_roundtrip():
    plane = plane_from_dict(
        {"name": "custom", "L_range": [30, 70], "a_range": [-20, 20], "b_rule": 10}
    )
    assert plane == ColorPlane("custom", (30.0, 70.0), (-20.0, 20.0), 10.0)
    diagonal = plane_from_dict(
        {"name": "diag", "L_range": [30, 70], "a_range": [-20, 20], "b_rule": "a"}
    )
    assert diagonal.b_rule == "a"


@pytest.mark.parametrize("key, value", [
    ("L_range", 5), ("L_range", [20]), ("L_range", [20, "80"]), ("L_range", [True, 80]),
    ("a_range", 5), ("a_range", [-20, 0, 20]), ("a_range", None),
])
def test_plane_from_dict_names_malformed_range(key, value):
    payload = {"name": "custom", "L_range": [30, 70], "a_range": [-20, 20], "b_rule": 10}
    payload[key] = value
    with pytest.raises(ValueError, match=rf"^plane\.{key} must be a \[lo, hi\] pair"):
        plane_from_dict(payload)


@pytest.mark.parametrize("key, value", [
    ("b_rule", True), ("b_rule", None), ("b_rule", [10]), ("b_rule", {"b": 10}), ("b_rule", "b"),
    ("name", 5), ("name", None),
])
def test_plane_from_dict_names_malformed_name_or_b_rule(key, value):
    payload = {"name": "custom", "L_range": [30, 70], "a_range": [-20, 20], "b_rule": 10}
    payload[key] = value
    with pytest.raises(ValueError, match=rf"^plane\.{key} must be a "):
        plane_from_dict(payload)


def test_plane_rejects_bad_ranges():
    with pytest.raises(ValueError, match="L_range"):
        ColorPlane("bad", (80.0, 20.0), (-10.0, 10.0), 0.0)
    with pytest.raises(ValueError, match="b_rule"):
        ColorPlane("bad", (20.0, 80.0), (-10.0, 10.0), "b")


# ----------------------------------------------------------------------------
# conversion

def test_lab_to_srgb_white_and_black():
    white, black = lab_to_srgb([[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.abs(white - 1.0).max() <= 1e-9
    assert np.abs(black).max() <= 1e-12
    assert hex_colors(np.array([white, black])) == ["#FFFFFF", "#000000"]


def test_lab_to_srgb_mid_gray_matches_oracle():
    got = lab_to_srgb([53.389, 0.0, 0.0])
    expected = oracle_lab_to_rgb(53.389, 0.0, 0.0)
    assert got.shape == (3,)
    assert np.abs(got - expected).max() <= 2e-4  # oracle uses coarser published constants
    assert np.abs(got - 0.5).max() <= 0.002


def test_lab_to_srgb_matches_oracle_on_random_colors():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 50:
        lab = np.array([rng.uniform(5, 95), rng.uniform(-60, 60), rng.uniform(-60, 60)])
        if not in_gamut(lab, 0.0):
            continue
        expected = oracle_lab_to_rgb(*lab.tolist())
        assert np.abs(lab_to_srgb(lab) - expected).max() <= 2e-4
        checked += 1


def test_in_gamut_examples():
    assert in_gamut([[50.0, 0.0, 0.0], [50.0, -200.0, 0.0]], 0.002).tolist() == [True, False]
    assert in_gamut([50.0, 0.0, 0.0], 0.0)
    # oracle agrees the green channel overflows wildly
    assert min(oracle_lab_to_rgb(50.0, -200.0, 0.0)) < -0.1


def test_roundtrip_delta_e_small():
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 200:
        lab = np.array([rng.uniform(0, 100), rng.uniform(-100, 100), rng.uniform(-100, 100)])
        if not in_gamut(lab, 0.0):
            continue
        back = srgb_to_lab(lab_to_srgb(lab))
        assert delta_e(lab, back) < 0.01
        checked += 1


def test_plane_monotonicity_in_u_and_v():
    for plane in builtin_planes():
        v_grid = np.linspace(0.0, 1.0, 11)
        for u in (0.0, 0.3, 1.0):
            lightness = plane_color(plane, u, v_grid)[:, 0]
            assert np.all(np.diff(lightness) > 0.0)
        u_grid = np.linspace(0.0, 1.0, 11)
        for v in (0.0, 0.5, 1.0):
            hues = plane_color(plane, u_grid, v)[:, 1]
            assert np.all(np.diff(hues) > 0.0)


def test_cyan_gray_red_midline_has_zero_chroma():
    cgr = get_plane("cyan-gray-red")
    c = plane_color(cgr, 0.5, np.linspace(0.0, 1.0, 9))
    assert np.all(np.hypot(c[:, 1], c[:, 2]) == 0.0)


def test_delta_e_is_lab_euclidean_identity():
    plane = get_plane("cyan-gray-red")
    c1 = plane_color(plane, 0.2, 0.8)
    c2 = plane_color(plane, 0.9, 0.1)
    manual = math.sqrt((c1[0] - c2[0]) ** 2 + (c1[1] - c2[1]) ** 2 + (c1[2] - c2[2]) ** 2)
    assert delta_e(c1, c2) == manual
    # many pairs at once: each the same float as alone
    pairs = delta_e(np.array([c1, c2, c1]), np.array([c2, c1, c1]))
    assert pairs.tolist() == [manual, manual, 0.0]


# ----------------------------------------------------------------------------
# colorize

def test_colorize_constant_coordinates_yield_one_color():
    cgr = get_plane("cyan-gray-red")
    coords = np.full((10, 2), 0.5)
    colors = colorize(coords, cgr)
    assert isinstance(colors, np.ndarray) and colors.shape == (10, 3)
    assert len(set(map(tuple, colors.tolist()))) == 1
    mid = lab_to_srgb([50.0, 0.0, 0.0])
    assert np.abs(colors[0] - mid).max() <= 1e-12


def test_colorize_hue_extremes_land_in_opposite_half_planes():
    gyr = get_plane("green-yellow-red")
    for v in (0.2, 0.5, 0.8):
        _, green_a, green_b = plane_color(gyr, 0.0, v)
        _, red_a, red_b = plane_color(gyr, 1.0, v)
        assert math.atan2(green_b, green_a) > math.pi / 2  # green half
        assert math.atan2(red_b, red_a) < math.pi / 2  # red half
        assert green_a < 0 < red_a


def test_colorize_deterministic(iris_std):
    rng = np.random.default_rng(2)
    coords = rng.uniform(0.0, 1.0, size=(42, 2))
    cgr = get_plane("cyan-gray-red")
    a = colorize(coords, cgr)
    b = colorize(coords, cgr)
    assert np.array_equal(a, b)
    assert a.shape == (42, 3)


@pytest.mark.parametrize("plane", builtin_planes(), ids=lambda p: p.name)
def test_scalar_colors_equal_colorize_rows_bitwise(plane):
    uv = np.random.default_rng(7).uniform(0.0, 1.0, size=(3000, 2))
    rows = colorize(uv, plane).tolist()
    scalar = [lab_to_srgb(plane_color(plane, u, v)).tolist() for u, v in uv.tolist()]
    assert scalar == rows


def test_colorize_rejects_out_of_square():
    cgr = get_plane("cyan-gray-red")
    with pytest.raises(ValueError, match="unit square"):
        colorize(np.array([[0.5, 1.2]]), cgr)


@pytest.mark.parametrize("rows, where", [
    ([[np.nan, 0.5]], "row 0, dim 0"),
    ([[0.2, 0.3], [0.5, np.nan]], "row 1, dim 1"),
])
def test_colorize_rejects_nan_coordinates(rows, where):
    with pytest.raises(ValueError, match=f"outside the unit square at {where}"):
        colorize(np.array(rows), get_plane("cyan-gray-red"))


def test_rgb_to_hex_rounds_half_up():
    rgb = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.0, 1.0],
                    # 127.5/255 rounds up to 128, not banker's 128/127 ambiguity
                    [127.5 / 255.0, 0.0, 0.0]])
    assert hex_colors(rgb) == ["#000000", "#FFFFFF", "#8000FF", "#800000"]


def test_hex_colors_matches_per_channel_formula():
    def chan(x):
        return min(255, int(x * 255.0 + 0.5))

    halves = (np.arange(255) + 0.5) / 255.0  # the rounding boundaries
    x = np.concatenate([halves, np.nextafter(halves, 0.0), np.nextafter(halves, 1.0), [0.0, 1.0]])
    rgb = np.column_stack([x, x[::-1], np.roll(x, 1)])
    expected = [f"#{chan(r):02X}{chan(g):02X}{chan(b):02X}" for r, g, b in rgb.tolist()]
    assert hex_colors(rgb) == expected
    assert [hex_colors(row[None])[0] for row in rgb] == expected


@pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 4)), np.array([[np.nan, 0.0, 0.0]])])
def test_hex_colors_rejects_non_mx3_or_non_finite(bad):
    with pytest.raises(ValueError, match="Mx3|finite"):
        hex_colors(bad)


@pytest.mark.parametrize("rgb, row", [
    ([[-0.1, 0.0, 0.5]], "row 0 is \\[-0.1, 0.0, 0.5\\]"),  # not "#-190080"
    ([[0.2, 0.3, 0.4], [0.5, 1.0 + 1e-9, 0.5]], "row 1 is "),  # not "FF" silently
])
def test_hex_colors_rejects_channels_outside_0_1(rgb, row):
    with pytest.raises(ValueError, match=f"channels must lie in \\[0, 1\\]; {row}"):
        hex_colors(np.array(rgb))


def test_hex_to_rgb_roundtrip():
    assert hex_to_rgb("#8000FF").tolist() == [128 / 255.0, 0.0, 1.0]
    assert hex_colors(hex_to_rgb("#1A2B3C")[None]) == ["#1A2B3C"]
    # int(..., 16) takes each of these pairs; the parser must not
    for text in ("white", "#-1-1-1", "# 1 1 1", "#+F+F+F", "#\u0661\u0662\u0663\u0664\u0665\u0666"):
        with pytest.raises(ValueError, match="RRGGBB"):
            hex_to_rgb(text)


# ----------------------------------------------------------------------------
# gamut sweeping

def test_check_plane_gamut_accepts_conservative_plane():
    plane = ColorPlane("narrow", (35.0, 75.0), (-20.0, 20.0), 10.0)
    ok, _, worst = check_plane_gamut(plane)
    assert ok and worst <= 0.002


def test_check_plane_gamut_reports_worst_sample():
    plane = ColorPlane("wide", (20.0, 80.0), (-90.0, 90.0), 0.0)
    ok, (u, v), worst = check_plane_gamut(plane)
    assert not ok
    assert worst > 0.002
    assert u in (0.0, 1.0)  # extremes of the hue axis violate first


def test_in_gamut_and_check_plane_gamut_share_the_boundary(monkeypatch):
    # a channel of exactly 1.002 exceeds [0, 1] by 1.002 - 1.0, which is a
    # hair above 0.002; both tests read that one excess, so they agree
    def encoded(lab):
        enc = np.full(np.shape(lab), 0.5)
        enc[..., 0] = 1.002
        return enc

    monkeypatch.setattr("somchroma.colorspace._lab_to_encoded_rgb", encoded)
    plane = get_plane("cyan-gray-red")
    ok, _, worst = check_plane_gamut(plane)
    assert worst == _gamut_excess(np.zeros(3)) == 1.002 - 1.0
    assert bool(in_gamut(plane_color(plane, 0.5, 0.5), 0.002)) == ok
