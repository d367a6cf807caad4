"""somchroma: batch SOM training, stress-based 2D projection, and
perceptually uniform CIELAB cluster coloring rendered as SVG."""

from .colorspace import (
    ColorPlane,
    builtin_planes,
    colorize,
    hex_colors,
    in_gamut,
    lab_to_srgb,
    plane_color,
    srgb_to_lab,
)
from .dataset import DataMatrix, StandardizationParams, load_csv, standardize, write_csv
from .projection import (
    ProjectionConfig,
    ProjectionResult,
    align_axes,
    classical_scaling,
    knn_pairs,
    lmds_stress,
    mds_stress,
    normalize_components,
    pairwise_distances,
    project,
    sammon_stress,
)
from .render import Overlay, RenderSpec, render_plane_swatch_svg, render_scatter_svg, render_som_svg
from .som import (
    SomGrid,
    TrainConfig,
    TrainResult,
    batch_epoch,
    bmu,
    goodness,
    init_grid,
    quantization_error,
    select_sigma,
    train,
)

__version__ = "0.1.0"
