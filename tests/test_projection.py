import math

import numpy as np
import pytest
from scipy.optimize import minimize

from somchroma.projection import (
    ProjectionConfig,
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


# ----------------------------------------------------------------------------
# oracles

def brute_mds(dx, y):
    m = len(dx)
    total = 0.0
    for j in range(m):
        for h in range(j + 1, m):
            dy = math.dist(y[j], y[h])
            total += (dx[j][h] - dy) ** 2
    return total


def brute_sammon(dx, y):
    m = len(dx)
    c = sum(dx[j][h] for j in range(m) for h in range(j + 1, m))
    total = 0.0
    for j in range(m):
        for h in range(j + 1, m):
            dy = math.dist(y[j], y[h])
            total += (dx[j][h] - dy) ** 2 / dx[j][h]
    return total / c


def brute_lmds(dx, y, neighbors, t):
    m = len(dx)
    total = 0.0
    for j in range(m):
        for h in range(j + 1, m):
            dy = math.dist(y[j], y[h])
            if (j, h) in neighbors:
                total += (dx[j][h] - dy) ** 2
            else:
                total -= t * dy
    return total


def rigid_motion(y, angle, reflect, shift):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    if reflect:
        rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return y @ rot.T + shift


# ----------------------------------------------------------------------------
# pairwise distances

def test_pairwise_three_four_five():
    d = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert d[0, 1] == 5.0 and d[1, 0] == 5.0
    assert d[0, 0] == 0.0 and d[1, 1] == 0.0


def test_pairwise_identical_rows():
    d = pairwise_distances(np.ones((4, 3)))
    assert np.array_equal(d, np.zeros((4, 4)))


def test_pairwise_matches_double_loop():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 3))
    d = pairwise_distances(x)
    for j in range(5):
        for h in range(5):
            assert abs(d[j, h] - math.dist(x[j], x[h])) <= 1e-12


# ----------------------------------------------------------------------------
# stress functions

def test_mds_stress_perfect_embedding():
    dx = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert mds_stress(dx, y) == 0.0


def test_mds_stress_single_pair():
    dx = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert mds_stress(dx, y) == 4.0


def test_mds_stress_matches_brute_force():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 2))
    dx = pairwise_distances(x)
    assert abs(mds_stress(dx, y) - brute_mds(dx, y)) <= 1e-12


def test_sammon_stress_perfect_embedding():
    x = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    dx = pairwise_distances(x)
    y = x[:, :2]
    assert sammon_stress(dx, y) <= 1e-30


def test_sammon_stress_single_pair():
    dx = np.array([[0.0, 2.0], [2.0, 0.0]])
    y = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert sammon_stress(dx, y) == 0.25


def test_sammon_stress_matches_brute_force():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 2))
    dx = pairwise_distances(x)
    assert abs(sammon_stress(dx, y) - brute_sammon(dx, y)) <= 1e-12


def test_sammon_stress_rejects_coincident_rows():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    dx = pairwise_distances(x)
    with pytest.raises(ValueError, match="rows 0 and 1 coincide"):
        sammon_stress(dx, np.zeros((3, 2)))


def test_lmds_stress_all_pairs_equals_mds():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 2))
    dx = pairwise_distances(x)
    all_pairs = {(j, h) for j in range(5) for h in range(j + 1, 5)}
    for t in (0.0, 0.5, 2.0):
        assert abs(lmds_stress(dx, y, all_pairs, t) - mds_stress(dx, y)) <= 1e-12


def test_lmds_stress_empty_neighbors_is_pure_repulsion():
    rng = np.random.default_rng(4)
    y = rng.standard_normal((5, 2))
    dx = np.zeros((5, 5))
    dy = pairwise_distances(y)
    iu = np.triu_indices(5, 1)
    assert abs(lmds_stress(dx, y, set(), 1.0) + dy[iu].sum()) <= 1e-12


def test_lmds_stress_matches_brute_force():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 4))
    y = rng.standard_normal((6, 2))
    dx = pairwise_distances(x)
    pairs = knn_pairs(dx, 2)
    assert abs(lmds_stress(dx, y, pairs, 0.1) - brute_lmds(dx, y, pairs, 0.1)) <= 1e-12


# ----------------------------------------------------------------------------
# neighbor pairs

def test_knn_pairs_two_points():
    dx = pairwise_distances(np.array([[0.0], [1.0]]))
    assert knn_pairs(dx, 1) == {(0, 1)}


def test_knn_pairs_collinear_union():
    dx = pairwise_distances(np.array([[0.0], [1.0], [10.0]]))
    assert knn_pairs(dx, 1) == {(0, 1), (1, 2)}


def test_knn_pairs_full_for_k_max():
    rng = np.random.default_rng(6)
    dx = pairwise_distances(rng.standard_normal((5, 3)))
    assert len(knn_pairs(dx, 4)) == 10


def test_knn_pairs_k_out_of_range():
    dx = pairwise_distances(np.zeros((3, 2)))
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must satisfy"):
            knn_pairs(dx, k)


def test_knn_pairs_contains_each_points_neighbors():
    rng = np.random.default_rng(7)
    dx = pairwise_distances(rng.standard_normal((12, 3)))
    k = 3
    pairs = knn_pairs(dx, k)
    for j in range(12):
        d = dx[j].copy()
        d[j] = np.inf
        for h in np.argsort(d, kind="stable")[:k]:
            assert (min(j, int(h)), max(j, int(h))) in pairs


# ----------------------------------------------------------------------------
# classical scaling

def test_classical_scaling_recovers_planar_config():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((12, 2)) * 3.0
    dx = pairwise_distances(x)
    y = classical_scaling(dx)
    assert mds_stress(dx, y) <= 1e-9


def test_classical_scaling_identical_points():
    dx = np.zeros((5, 5))
    assert np.array_equal(classical_scaling(dx), np.zeros((5, 2)))


def test_classical_scaling_tetrahedron_residual():
    # regular tetrahedron (unit edges) is not 2-embeddable
    x = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]) / math.sqrt(8.0)
    dx = pairwise_distances(x)
    cs_stress = mds_stress(dx, classical_scaling(dx))
    assert cs_stress > 0.0

    # oracle: best 2D layout from multi-start general-purpose optimization
    rng = np.random.default_rng(9)
    best = np.inf
    for _ in range(20):
        y0 = rng.standard_normal(8)
        res = minimize(lambda v: brute_mds(dx, v.reshape(4, 2)), y0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 5000})
        best = min(best, res.fun)
    assert best > 0.0
    assert cs_stress >= best - 1e-9


# ----------------------------------------------------------------------------
# descent

def test_project_recovers_2d_input_exactly():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((15, 2)) * 2.0
    result = project(x, ProjectionConfig(method="metric_mds", seed=0))
    assert result.stress <= 1e-8


@pytest.mark.parametrize("method", ["metric_mds", "sammon", "lmds"])
def test_project_stress_history_non_increasing(method):
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = rng.standard_normal((10, 5))
        result = project(x, ProjectionConfig(method=method, seed=trial, max_iterations=200))
        history = np.array(result.stress_history)
        assert np.all(np.diff(history) <= 0.0)
        assert result.stress == history[-1]


@pytest.mark.parametrize("method", ["metric_mds", "sammon", "lmds"])
def test_project_deterministic(method):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((9, 4))
    a = project(x, ProjectionConfig(method=method, seed=3, max_iterations=100))
    b = project(x, ProjectionConfig(method=method, seed=3, max_iterations=100))
    assert np.array_equal(a.points, b.points)
    assert a.stress == b.stress


@pytest.mark.parametrize("method", ["metric_mds", "sammon", "lmds"])
def test_project_stress_equals_public_stress_bitwise(method):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((12, 4))
    result = project(x, ProjectionConfig(method=method, seed=1, max_iterations=50))
    dx = pairwise_distances(x)
    if method == "metric_mds":
        expected = mds_stress(dx, result.points)
    elif method == "sammon":
        expected = sammon_stress(dx, result.points)
    else:
        pairs = knn_pairs(dx, result.k_neighbors)
        expected = lmds_stress(dx, result.points, pairs, result.repulsion_t)
    assert result.stress == expected


def test_project_rejects_coincident_rows_for_sammon():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="coincide"):
        project(x, ProjectionConfig(method="sammon"))


@pytest.mark.parametrize("method", ["metric_mds", "sammon", "lmds"])
def test_stress_rigid_invariance(method):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 4))
    dx = pairwise_distances(x)
    y = rng.standard_normal((8, 2))
    pairs = knn_pairs(dx, 3)

    def stress(points):
        if method == "metric_mds":
            return mds_stress(dx, points)
        if method == "sammon":
            return sammon_stress(dx, points)
        return lmds_stress(dx, points, pairs, 0.2)

    base = stress(y)
    for angle, reflect in [(0.7, False), (2.1, True), (-1.3, False)]:
        moved = rigid_motion(y, angle, reflect, np.array([5.0, -3.0]))
        assert abs(stress(moved) - base) <= 1e-10 * max(1.0, abs(base))


def test_stress_nonnegative_and_zero_iff_exact():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((7, 3))
    dx = pairwise_distances(x)
    y = rng.standard_normal((7, 2))
    assert mds_stress(dx, y) >= 0.0
    assert sammon_stress(dx, y) >= 0.0
    planar = rng.standard_normal((7, 2))
    dplanar = pairwise_distances(planar)
    assert mds_stress(dplanar, planar) == 0.0
    assert sammon_stress(dplanar, planar) == 0.0


# ----------------------------------------------------------------------------
# axis alignment and normalization

def test_align_axes_identity_case():
    # exactly diagonal covariance, var(dim1) > var(dim2), max-|coord| positive
    y = np.array([[3.5, 0.25], [-2.5, 0.25], [0.5, 1.25], [0.5, -0.75]])
    out = align_axes(y)
    assert np.max(np.abs(out - y)) <= 1e-12


def test_align_axes_swaps_dominant_dimension():
    y = np.array([[0.25, 3.5], [0.25, -2.5], [1.25, 0.5], [-0.75, 0.5]])
    out = align_axes(y)
    swapped = y[:, ::-1]
    for d in range(2):
        col = out[:, d]
        ref = swapped[:, d]
        assert np.max(np.abs(col - ref)) <= 1e-10 or np.max(np.abs(col + ref)) <= 1e-10
        assert col[np.argmax(np.abs(col))] > 0.0


def test_align_axes_diagonalizes_covariance():
    rng = np.random.default_rng(15)
    y = rng.standard_normal((40, 2)) @ np.array([[2.0, 0.7], [0.3, 0.5]])
    out = align_axes(y)
    z = out - out.mean(axis=0)
    cov = z.T @ z / (len(z) - 1)
    assert abs(cov[0, 1]) <= 1e-10
    assert cov[0, 0] >= cov[1, 1]


def test_normalize_components_examples():
    y = np.array([[-2.0, 7.0], [0.0, 7.0], [2.0, 7.0]])
    out = normalize_components(y)
    assert np.array_equal(out[:, 0], [0.0, 0.5, 1.0])
    assert np.array_equal(out[:, 1], [0.5, 0.5, 0.5])


def test_normalize_components_hits_exact_bounds():
    rng = np.random.default_rng(16)
    y = rng.standard_normal((20, 2)) * 4.0
    out = normalize_components(y)
    for d in range(2):
        assert out[:, d].min() == 0.0
        assert out[:, d].max() == 1.0
        assert np.all((out[:, d] >= 0.0) & (out[:, d] <= 1.0))


def test_unit_coords_invariant_under_rigid_motion():
    rng = np.random.default_rng(17)
    y = rng.standard_normal((25, 2)) @ np.array([[3.0, 0.0], [0.0, 1.0]])
    base = normalize_components(align_axes(y))
    for angle, reflect in [(0.9, False), (2.4, True)]:
        moved = rigid_motion(y, angle, reflect, np.array([10.0, -4.0]))
        other = normalize_components(align_axes(moved))
        for d in range(2):
            assert {int(np.argmax(base[:, d])), int(np.argmin(base[:, d]))} == {
                int(np.argmax(other[:, d])), int(np.argmin(other[:, d]))
            }
