import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

import somchroma
from somchroma.dataset import DataMatrix, bundled_data_path, load_csv, standardize


@pytest.fixture(scope="session")
def iris_path():
    return bundled_data_path("iris.csv")


@pytest.fixture(scope="session")
def iris_raw(iris_path):
    return load_csv(iris_path, has_header=True, class_column="species")


@pytest.fixture(scope="session")
def iris_std(iris_raw):
    data, _ = standardize(iris_raw)
    return data


def make_gaussian_clusters(n_rows, n_dims, n_clusters=3, spread=6.0, seed=0):
    """Well-separated Gaussian blobs, standardized for SOM input."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_clusters, n_dims)) * spread
    values = np.vstack(
        [centers[i % n_clusters] + rng.standard_normal(n_dims) for i in range(n_rows)]
    )
    data = DataMatrix(values, [f"f{i + 1}" for i in range(n_dims)])
    out, _ = standardize(data)
    return out


def write_numeric_csv(path, values, header=None):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
    return path


def svg_view_box(svg):
    m = re.search(r'viewBox="0 0 ([0-9.]+) ([0-9.]+)"', svg)
    return float(m.group(1)), float(m.group(2))


def svg_coordinates(svg):
    """Every coordinate attribute emitted in an SVG document."""
    coords = []
    for x, y in re.findall(r'cx="(-?[0-9.]+)" cy="(-?[0-9.]+)"', svg):
        coords.append((float(x), float(y)))
    for x, y in re.findall(r'<(?:rect|text)[^>]* x="(-?[0-9.]+)" y="(-?[0-9.]+)"', svg):
        coords.append((float(x), float(y)))
    for points in re.findall(r'points="([^"]+)"', svg):
        for pair in points.split():
            x, y = pair.split(",")
            coords.append((float(x), float(y)))
    return coords


def assert_svg_coordinates_within_viewbox(svg):
    w, h = svg_view_box(svg)
    for x, y in svg_coordinates(svg):
        assert -1e-9 <= x <= w + 1e-9
        assert -1e-9 <= y <= h + 1e-9


def subprocess_env(**extra):
    """os.environ plus `extra`, with this checkout's somchroma first on PYTHONPATH."""
    src = str(Path(somchroma.__file__).resolve().parents[1])
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
