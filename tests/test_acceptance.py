"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""

import json
import time
from collections import Counter

import numpy as np
import pytest

from somchroma import cli, som
from somchroma.cli import _data_from_payload, _grid_from_payload
from somchroma.colorspace import (
    _gamut_excess,
    builtin_planes,
    delta_e,
    get_plane,
    hex_colors,
    in_gamut,
    lab_to_srgb,
    plane_color,
    srgb_to_lab,
)
from somchroma.dataset import DataMatrix
from somchroma.projection import (
    ProjectionConfig,
    _neighbor_mask,
    _objective,
    knn_pairs,
    lmds_stress,
    mds_stress,
    pairwise_distances,
    project,
    sammon_stress,
)

from conftest import assert_svg_coordinates_within_viewbox, make_gaussian_clusters, write_numeric_csv

ARTIFACTS = ["standardized.json", "grid.json", "embedding.json", "som.svg", "scatter.svg"]


def _report(criterion, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def iris_pipeline_args(iris_path, out_dir):
    return [
        "pipeline",
        "--input", str(iris_path),
        "--class-column", "species",
        "--grid", "6x7",
        "--method", "sammon",
        "--plane", "cyan-gray-red",
        "--seed", "0",
        "--out", str(out_dir),
    ]


@pytest.fixture(scope="module")
def iris_run(tmp_path_factory, iris_path):
    out = tmp_path_factory.mktemp("iris_acceptance")
    start = time.perf_counter()
    code = cli.main(iris_pipeline_args(iris_path, out))
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


def test_criterion_01_iris_setosa_separation(iris_run):
    out, elapsed = iris_run
    data = _data_from_payload(json.loads((out / "standardized.json").read_text()))
    grid = _grid_from_payload(json.loads((out / "grid.json").read_text()))
    points = np.asarray(json.loads((out / "embedding.json").read_text())["points"])

    bmus = som.bmu_indices(data.values, grid)
    majority = {}
    for unit in range(grid.m):
        rows = np.flatnonzero(bmus == unit)
        if rows.size == 0:
            continue  # units attracting no data are excluded
        counts = Counter(data.class_labels[r] for r in rows)
        top = max(counts.values())
        majority[unit] = sorted(tag for tag, c in counts.items() if c == top)[0]
    groups = {}
    for unit, tag in majority.items():
        groups.setdefault(tag, []).append(unit)

    def mean_distance(a_units, b_units):
        return float(np.mean([
            np.linalg.norm(points[a] - points[b]) for a in a_units for b in b_units
        ]))

    setosa_vs_rest = mean_distance(
        groups["setosa"], groups["versicolor"] + groups["virginica"]
    )
    versicolor_vs_virginica = mean_distance(groups["versicolor"], groups["virginica"])
    ratio = setosa_vs_rest / versicolor_vs_virginica
    _report(
        1, "iris-setosa-separation",
        ratio >= 1.5 and elapsed < 10.0,
        f"ratio={ratio:.2f} (>=1.5), runtime={elapsed:.1f}s (<10s)",
    )


def test_criterion_02_exact_embedding_recovery():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(30):
        points = rng.standard_normal((20, 2)) * rng.uniform(0.5, 3.0)
        result = project(points, ProjectionConfig(method="metric_mds", seed=trial))
        worst = max(worst, result.stress)
    elapsed = time.perf_counter() - start
    _report(
        2, "exact-embedding-recovery",
        worst <= 1e-8 and elapsed < 5.0,
        f"worst stress={worst:.2e} (<=1e-8), total={elapsed:.1f}s (<5s)",
    )


def test_criterion_03_gradient_suite():
    rng = np.random.default_rng(3)

    def fd_gradient(f, y, h=1e-6):
        g = np.zeros_like(y)
        for i in range(y.shape[0]):
            for d in range(2):
                plus, minus = y.copy(), y.copy()
                plus[i, d] += h
                minus[i, d] -= h
                g[i, d] = (f(plus) - f(minus)) / (2.0 * h)
        return g

    worst = 0.0
    for trial in range(20):
        x = rng.standard_normal((10, 5))
        dx = pairwise_distances(x)
        y = rng.standard_normal((10, 2))
        pairs = knn_pairs(dx, 3)
        mask = _neighbor_mask(10, pairs)
        dy = pairwise_distances(y)
        cases = [
            (lambda yy: mds_stress(dx, yy), _objective("metric_mds", dx, dy)[1](y, dy)),
            (lambda yy: sammon_stress(dx, yy), _objective("sammon", dx, dy)[1](y, dy)),
            (lambda yy: lmds_stress(dx, yy, pairs, 0.1),
             _objective("lmds", dx, dy, mask, 0.1)[1](y, dy)),
        ]
        for f, analytic in cases:
            fd = fd_gradient(f, y)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-12)
            worst = max(worst, float(rel.max()))
    _report(3, "gradient-suite", worst < 1e-4, f"worst rel err={worst:.2e} (<1e-4)")


def test_criterion_04_lloyd_reduction():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        n_pts = int(rng.integers(4, 21))
        n_units = int(rng.integers(2, 7))
        values = rng.standard_normal((n_pts, 3))
        data = DataMatrix(values, ["a", "b", "c"])
        grid = som.init_grid(1, n_units, data, seed=trial)
        stepped = som.batch_epoch(grid, data, sigma=1e-6)
        bmus = som.bmu_indices(values, grid)
        expected = grid.reference_vectors.copy()
        for unit in range(grid.m):
            mine = np.flatnonzero(bmus == unit)
            if mine.size:
                expected[unit] = values[mine].mean(axis=0)
        worst = max(worst, float(np.max(np.abs(stepped.reference_vectors - expected))))
    _report(4, "lloyd-reduction", worst <= 1e-9, f"worst dev={worst:.2e} (<=1e-9)")


def test_criterion_05_builtin_plane_gamut_sweep():
    grid01 = np.linspace(0.0, 1.0, 101)
    uu, vv = np.meshgrid(grid01, grid01, indexing="ij")
    worst_excess = -np.inf
    worst_where = None
    for plane in builtin_planes():
        excess = _gamut_excess(plane_color(plane, uu, vv))  # 101 x 101, indexed [u, v]
        i, j = np.unravel_index(np.argmax(excess), excess.shape)
        if excess[i, j] > worst_excess:
            worst_excess = float(excess[i, j])
            worst_where = f"{plane.name} (u={grid01[i]:.2f}, v={grid01[j]:.2f})"
    ok = worst_excess <= 0.002
    detail = "all 2x101x101 samples displayable (tol 0.002)"
    if not ok:
        detail = (
            f"worst excess {worst_excess:.3f} at {worst_where}; the built-in plane "
            "ranges exceed the sRGB gamut under the standard conversion"
        )
    _report(5, "builtin-plane-gamut-sweep", ok, detail)


def test_criterion_06_color_anchors():
    gyr = get_plane("green-yellow-red")
    cgr = get_plane("cyan-gray-red")
    v = np.linspace(0.0, 1.0, 21)
    g = plane_color(gyr, 0.5, v)
    c = plane_color(cgr, 0.5, v)
    ok = bool(np.all(g[:, 1] == 0.0) and np.all(g[:, 2] == 40.0)
              and np.all(np.hypot(c[:, 1], c[:, 2]) == 0.0))
    _report(6, "color-anchors", ok, "a=0,b=40 mid-hue; zero chroma midline (exact)")


def test_criterion_07_lab_srgb_roundtrip():
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    while checked < 1000:
        lab = np.array([rng.uniform(0, 100), rng.uniform(-128, 128), rng.uniform(-128, 128)])
        if not in_gamut(lab, 0.0):
            continue
        worst = max(worst, float(delta_e(lab, srgb_to_lab(lab_to_srgb(lab)))))
        checked += 1
    white, black = hex_colors(lab_to_srgb([[100.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    ok = worst < 0.01 and white == "#FFFFFF" and black == "#000000"
    _report(
        7, "lab-srgb-roundtrip", ok,
        f"worst dE={worst:.2e} (<0.01), white={white}, black={black}",
    )


def test_criterion_08_determinism(iris_run, tmp_path, iris_path):
    out, _ = iris_run
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    assert cli.main(iris_pipeline_args(iris_path, out)) == 0
    rerun_same = all((out / name).read_bytes() == before[name] for name in ARTIFACTS)

    d = tmp_path
    steps = [
        ["ingest", "--input", str(iris_path), "--class-column", "species",
         "--out", str(d / "standardized.json")],
        ["train", "--in", str(d / "standardized.json"), "--grid", "6x7",
         "--seed", "0", "--out", str(d / "grid.json")],
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
    stages_match = all((d / name).read_bytes() == before[name] for name in ARTIFACTS)
    _report(
        8, "determinism",
        rerun_same and stages_match,
        f"rerun identical={rerun_same}, stage-wise identical={stages_match}",
    )


def test_criterion_09_sigma_auto_selection():
    data = make_gaussian_clusters(90, 3, seed=9)
    config = som.TrainConfig(seed=0)
    sigma, result, _ = som.select_sigma(data, 5, 5, config)
    chosen_goodness = som.goodness(result.grid, data)

    evaluations = {}
    for candidate in som.DEFAULT_SIGMA_CANDIDATES:
        trained = som.train(
            data, 5, 5,
            som.TrainConfig(sigma_initial=2.5, sigma_final=candidate, seed=0),
        )
        evaluations[candidate] = som.goodness(trained.grid, data)
    best = min(evaluations.values())
    ok = chosen_goodness <= best + 1e-12 and abs(evaluations[sigma] - chosen_goodness) <= 1e-12
    _report(
        9, "sigma-auto-selection", ok,
        f"selected sigma={sigma}, goodness={chosen_goodness:.4f}, exhaustive best={best:.4f}",
    )


def test_criterion_10_nine_by_nine_smoke(tmp_path):
    rng = np.random.default_rng(10)
    centers = rng.standard_normal((3, 15)) * 4.0
    values = np.vstack([centers[i % 3] + rng.standard_normal(15) for i in range(207)])
    csv_path = write_numeric_csv(
        tmp_path / "synthetic.csv", values, header=[f"ind{i + 1}" for i in range(15)]
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    code = cli.main([
        "pipeline", "--input", str(csv_path), "--grid", "9x9",
        "--method", "lmds", "--plane", "green-yellow-red",
        "--seed", "0", "--out", str(out),
    ])
    elapsed = time.perf_counter() - start

    som_svg = (out / "som.svg").read_text()
    scatter_svg = (out / "scatter.svg").read_text()
    structural = (
        som_svg.count("<circle") == 81
        and scatter_svg.count("<circle") == 81
        and json.loads((out / "grid.json").read_text())["dim"] == 15
    )
    assert_svg_coordinates_within_viewbox(som_svg)
    assert_svg_coordinates_within_viewbox(scatter_svg)
    _report(
        10, "nine-by-nine-smoke",
        code == 0 and structural and elapsed < 30.0,
        f"exit={code}, 81 units/dots, runtime={elapsed:.1f}s (<30s)",
    )
