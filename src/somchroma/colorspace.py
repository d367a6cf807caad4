"""Two-dimensional CIELAB color planes and display conversion.

A color plane maps the unit square to (L*, a*, b*): the u axis sweeps a line
in the a*b* plane (hue) and the v axis sweeps lightness. Because the plane
lives inside CIELAB, Euclidean distance between any two of its Lab colors is
exactly the perceptual difference Delta-E*ab; between displayed colors, only
where no sRGB channel was clamped. A color is an array whose last axis holds
(L*, a*, b*) or (R, G, B): the functions take (..., 3) arrays, one color or many.

Display conversion is CIELAB -> XYZ (D65) -> linear RGB (sRGB primaries) ->
sRGB gamma encoding. The reference white is taken as the XYZ of RGB(1,1,1)
under the sRGB matrix, which makes L*=100 map to exact display white.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ColorPlane",
    "builtin_planes",
    "get_plane",
    "plane_from_dict",
    "plane_to_dict",
    "plane_color",
    "lab_to_srgb",
    "srgb_to_lab",
    "in_gamut",
    "colorize",
    "delta_e",
    "hex_colors",
    "hex_to_rgb",
    "check_plane_gamut",
    "GAMUT_TOLERANCE",
]

# CIE constants in exact rational form
_EPSILON = 216.0 / 24389.0
_KAPPA = 24389.0 / 27.0

# sRGB D65 linear-RGB -> XYZ (IEC 61966-2-1 primaries)
_M_RGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_M_XYZ_TO_RGB = np.linalg.inv(_M_RGB_TO_XYZ)

# White implied by the matrix (nominal D65); guarantees Lab(100,0,0) -> (1,1,1)
REFERENCE_WHITE = _M_RGB_TO_XYZ @ np.ones(3)

GAMUT_TOLERANCE = 0.002
GAMUT_SWEEP_STEPS = 101


@dataclass(frozen=True)
class ColorPlane:
    """2D subspace of CIELAB over the unit square.

    b_rule is either a constant b* value or the string "a", meaning b* tracks
    a* (a diagonal line in the a*b* plane).
    """

    name: str
    L_range: tuple[float, float]
    a_range: tuple[float, float]
    b_rule: float | str

    def __post_init__(self):
        lo, hi = self.L_range
        if not (0.0 <= lo < hi <= 100.0):
            raise ValueError(f"L_range must satisfy 0 <= lo < hi <= 100, got {self.L_range}")
        if isinstance(self.b_rule, str):
            if self.b_rule != "a":
                raise ValueError(f'b_rule must be a number or "a", got {self.b_rule!r}')
        else:
            object.__setattr__(self, "b_rule", float(self.b_rule))


def builtin_planes() -> list[ColorPlane]:
    """The two built-in scales: green-yellow-red and cyan-gray-red."""
    return [
        ColorPlane("green-yellow-red", (20.0, 80.0), (-60.0, 60.0), 40.0),
        ColorPlane("cyan-gray-red", (20.0, 80.0), (-45.0, 45.0), "a"),
    ]


def get_plane(name: str) -> ColorPlane:
    for plane in builtin_planes():
        if plane.name == name:
            return plane
    known = ", ".join(p.name for p in builtin_planes())
    raise ValueError(f"unknown color plane {name!r}; built-in planes: {known}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _range_field(payload: dict, key: str) -> tuple[float, float]:
    value = payload[key]
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(x) for x in value)
    ):
        raise ValueError(f"plane.{key} must be a [lo, hi] pair of numbers, got {value!r}")
    return float(value[0]), float(value[1])


def plane_from_dict(payload: dict) -> ColorPlane:
    """Build a plane from config ({name, L_range, a_range, b_rule})."""
    try:
        name, b_rule = payload["name"], payload["b_rule"]
        L_range, a_range = _range_field(payload, "L_range"), _range_field(payload, "a_range")
    except KeyError as exc:
        raise ValueError(f"plane definition missing key {exc}") from None
    if not isinstance(name, str):
        raise ValueError(f"plane.name must be a string, got {name!r}")
    if not (b_rule == "a" or _is_number(b_rule)):
        raise ValueError(f'plane.b_rule must be a number or "a", got {b_rule!r}')
    return ColorPlane(name, L_range, a_range, b_rule)


def plane_to_dict(plane: ColorPlane) -> dict:
    return {
        "name": plane.name,
        "L_range": list(plane.L_range),
        "a_range": list(plane.a_range),
        "b_rule": plane.b_rule,
    }


def _plane_lab(plane: ColorPlane, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    L = plane.L_range[0] + v * (plane.L_range[1] - plane.L_range[0])
    a = plane.a_range[0] + u * (plane.a_range[1] - plane.a_range[0])
    b = a if plane.b_rule == "a" else np.full_like(a, plane.b_rule)
    return np.stack([L, a, b], axis=-1)


def plane_color(plane: ColorPlane, u, v) -> np.ndarray:
    """Lab colors at (u, v), one per broadcast element: u drives hue (the a*b* line), v lightness."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    outside = ~((u >= 0.0) & (u <= 1.0) & (v >= 0.0) & (v <= 1.0))  # NaN is outside
    if outside.any():
        bad = int(np.argmax(outside))
        raise ValueError(f"(u, v) must lie in the unit square, got ({u.flat[bad]}, {v.flat[bad]})")
    return _plane_lab(plane, u, v)


def _lab_to_xyz(lab: np.ndarray) -> np.ndarray:
    L, a, b = lab[..., 0], lab[..., 1], lab[..., 2]
    fy = (L + 16.0) / 116.0
    fx = fy + a / 500.0
    fz = fy - b / 200.0

    def f_inv(f):
        f3 = f ** 3
        return np.where(f3 > _EPSILON, f3, (116.0 * f - 16.0) / _KAPPA)

    # KAPPA * EPSILON == 8 exactly
    yr = np.where(L > 8.0, fy ** 3, L / _KAPPA)
    return np.stack([f_inv(fx), yr, f_inv(fz)], axis=-1) * REFERENCE_WHITE


def _xyz_to_lab(xyz: np.ndarray) -> np.ndarray:
    r = xyz / REFERENCE_WHITE
    f = np.where(r > _EPSILON, np.cbrt(r), (_KAPPA * r + 16.0) / 116.0)
    L = 116.0 * f[..., 1] - 16.0
    a = 500.0 * (f[..., 0] - f[..., 1])
    b = 200.0 * (f[..., 1] - f[..., 2])
    return np.stack([L, a, b], axis=-1)


def _gamma_encode(linear: np.ndarray) -> np.ndarray:
    # sign-preserving so slightly negative channels stay comparable
    sign = np.sign(linear)
    mag = np.abs(linear)
    with np.errstate(invalid="ignore"):
        enc = np.where(mag <= 0.0031308, 12.92 * mag, 1.055 * mag ** (1.0 / 2.4) - 0.055)
    return sign * enc


def _gamma_decode(encoded: np.ndarray) -> np.ndarray:
    sign = np.sign(encoded)
    mag = np.abs(encoded)
    lin = np.where(mag <= 0.04045, mag / 12.92, ((mag + 0.055) / 1.055) ** 2.4)
    return sign * lin


def _lab_to_encoded_rgb(lab: np.ndarray) -> np.ndarray:
    """Gamma-encoded sRGB channels before any clamping, on rows whatever the shape.

    A lone color's channels would be numpy scalars, whose powers round apart
    from the array loops; as a row it gets the bits colorize gives it.
    """
    lab = np.asarray(lab, dtype=float)
    linear = np.einsum("ij,...j->...i", _M_XYZ_TO_RGB, _lab_to_xyz(lab.reshape(-1, 3)))
    return _gamma_encode(linear).reshape(lab.shape)


def lab_to_srgb(lab) -> np.ndarray:
    """Display encoding of Lab colors, each channel clamped into [0, 1]; in_gamut tells if it was."""
    return np.clip(_lab_to_encoded_rgb(lab), 0.0, 1.0)


def srgb_to_lab(rgb) -> np.ndarray:
    """Inverse display conversion (sRGB channels in [0, 1])."""
    linear = _gamma_decode(np.asarray(rgb, dtype=float))
    return _xyz_to_lab((_M_RGB_TO_XYZ @ linear[..., None])[..., 0])


def _gamut_excess(lab) -> np.ndarray:
    """How far each color's worst pre-clamp encoded channel lies outside [0, 1]; <= 0 inside."""
    enc = _lab_to_encoded_rgb(lab)
    return np.maximum(-enc, enc - 1.0).max(axis=-1)


def in_gamut(lab, tolerance: float = GAMUT_TOLERANCE) -> np.ndarray:
    """True for each color whose gamut excess is at most tolerance."""
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")
    return _gamut_excess(lab) <= tolerance


def delta_e(lab1, lab2) -> np.ndarray:
    """CIE 1976 color difference (Euclidean distance in Lab)."""
    d = np.asarray(lab1, dtype=float) - np.asarray(lab2, dtype=float)
    return np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)


def colorize(embedding: np.ndarray, plane: ColorPlane) -> np.ndarray:
    """Map Mx2 normalized embedding coordinates to an Mx3 array of sRGB colors in [0, 1].

    Dimension 1 drives hue (u) and dimension 2 lightness (v), per the
    recommendation that hue carry the dominant component.
    """
    pts = np.asarray(embedding, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an Mx2 embedding, got {pts.shape}")
    outside = ~((pts >= 0.0) & (pts <= 1.0))  # NaN compares false both ways, so it is caught
    if outside.any():
        bad = np.argwhere(outside)[0]
        raise ValueError(
            f"embedding coordinate outside the unit square at row {bad[0]}, dim {bad[1]}"
        )
    return lab_to_srgb(_plane_lab(plane, pts[:, 0], pts[:, 1]))


def hex_colors(rgb: np.ndarray) -> list[str]:
    """#RRGGBB for each row of an Mx3 array of channels in [0, 1], rounded half-up."""
    if not (isinstance(rgb, np.ndarray) and rgb.ndim == 2 and rgb.shape[1] == 3):
        raise ValueError(f"colors must be an Mx3 array, got {getattr(rgb, 'shape', type(rgb).__name__)}")
    if not np.isfinite(rgb).all():
        raise ValueError("colors must be finite")
    bad = np.flatnonzero(((rgb < 0.0) | (rgb > 1.0)).any(axis=1))
    if bad.size:
        raise ValueError(f"channels must lie in [0, 1]; row {bad[0]} is {rgb[bad[0]].tolist()}")
    channels = (rgb * 255.0 + 0.5).astype(np.int64)  # truncates as int() does
    return [f"#{r:02X}{g:02X}{b:02X}" for r, g, b in channels.tolist()]


def hex_to_rgb(text: str) -> np.ndarray:
    """Parse #RRGGBB (exactly '#' and six ASCII hex digits) into three channels in [0, 1]."""
    # int(..., 16) alone would also take signs, spaces and non-ASCII digits
    if not (isinstance(text, str) and re.fullmatch("#[0-9A-Fa-f]{6}", text)):
        raise ValueError(f"expected a #RRGGBB color, got {text!r}")
    return np.array([int(text[i:i + 2], 16) for i in (1, 3, 5)]) / 255.0


def check_plane_gamut(plane: ColorPlane) -> tuple[bool, tuple[float, float], float]:
    """Sweep a (u, v) grid, GAMUT_SWEEP_STEPS a side, and report the worst gamut excess.

    Returns (ok, worst (u, v), worst excess beyond [0, 1]), ok when that
    excess is at most GAMUT_TOLERANCE. Used to vet custom planes from config
    before they are accepted.
    """
    u = v = np.linspace(0.0, 1.0, GAMUT_SWEEP_STEPS)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    excess = _gamut_excess(_plane_lab(plane, uu, vv))
    i, j = np.unravel_index(np.argmax(excess), excess.shape)
    worst = float(excess[i, j])
    return worst <= GAMUT_TOLERANCE, (float(u[i]), float(v[j])), worst
