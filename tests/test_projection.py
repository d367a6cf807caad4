import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from somchroma import projection
from somchroma.projection import (
    METHODS,
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
from somchroma.som import TrainConfig, train

from conftest import make_gaussian_clusters, subprocess_env


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


# The descent's earlier forms, kept as bitwise oracles: an M x M x n einsum for
# the distances, one einsum for the gradient product, and fancy-indexed stress.

def einsum_distances(vectors):
    diff = vectors[:, None, :] - vectors[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, 0.0)
    return d


def einsum_weighted_grad(w, y):
    np.fill_diagonal(w, 0.0)
    return w.sum(axis=1)[:, None] * y - np.einsum("jh,hk->jk", w, y)


def indexed_objective(method, dx, dy, mask=None, t=None):
    iu = np.triu_indices(dx.shape[0], k=1)
    dx_u = dx[iu]
    if method == "metric_mds":

        def stress(dy):
            return float(np.sum((dx_u - dy[iu]) ** 2))

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(dy > 0.0, (dy - dx) / dy, 0.0)
            return 2.0 * einsum_weighted_grad(w, y)

    elif method == "sammon":
        c = np.sum(dx_u)
        positive = dx > 0.0

        def stress(dy):
            return float(np.sum((dx_u - dy[iu]) ** 2 / dx_u) / c)

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where((dy > 0.0) & positive, (dy - dx) / (dx * dy), 0.0)
            return (2.0 / c) * einsum_weighted_grad(w, y)

    else:
        near = mask[iu]
        far_u = ~near
        dx_near = dx_u[near]
        far = ~mask
        np.fill_diagonal(far, False)

        def stress(dy):
            dy_u = dy[iu]
            return float(np.sum((dx_near - dy_u[near]) ** 2) - t * np.sum(dy_u[far_u]))

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(dy > 0.0, 1.0 / dy, 0.0)
            w = np.where(mask, 2.0 * (dy - dx) * inv, 0.0) - t * far * inv
            return einsum_weighted_grad(w, y)

        if t is None:  # 1% of the stress at t = 0, which is the attraction term alone
            t = 0.0
            t = 0.01 * stress(dy)
        return stress, grad, t

    return stress, grad, None


def loop_knn_pairs(dx, k):
    """knn_pairs's earlier form: one stable argsort per row."""
    pairs = set()
    for j in range(dx.shape[0]):
        d = dx[j].copy()
        d[j] = np.inf
        for h in np.argsort(d, kind="stable")[:k]:
            pairs.add((min(j, int(h)), max(j, int(h))))
    return pairs


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_pairwise_rejects_input_that_is_not_2d(shape):
    with pytest.raises(ValueError, match=rf"2-dimensional, got shape \({shape[0]},"):
        pairwise_distances(np.ones(shape))


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


@pytest.mark.parametrize("t", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
def test_lmds_stress_rejects_bad_repulsion_weight(t):
    dx = pairwise_distances(np.eye(3))
    with pytest.raises(ValueError, match="nonnegative"):
        lmds_stress(dx, np.zeros((3, 2)), {(0, 1)}, t)


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


def _knn_inputs():
    # a 6 x 6 square lattice, whose rows are full of exactly tied distances
    lattice = np.array([(r, c) for r in range(6) for c in range(6)], dtype=float)
    rng = np.random.default_rng(25)
    return {"lattice": pairwise_distances(lattice),
            "random": pairwise_distances(rng.standard_normal((20, 3)))}


@pytest.mark.parametrize("name", _knn_inputs().keys())
def test_knn_pairs_match_the_per_row_loop_for_every_k(name):
    dx = _knn_inputs()[name]
    for k in range(1, dx.shape[0]):
        assert knn_pairs(dx, k) == loop_knn_pairs(dx, k), k


def test_knn_pairs_lattice_tells_ties_to_the_higher_index_apart():
    dx = _knn_inputs()["lattice"]
    last = len(dx) - 1

    def higher_index_first(k):  # the loop over the points in reverse order
        return {(last - h, last - j) for j, h in loop_knn_pairs(dx[::-1, ::-1], k)}

    assert any(higher_index_first(k) != loop_knn_pairs(dx, k) for k in range(1, len(dx)))


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


@pytest.mark.parametrize("name, value", [
    pytest.param("tolerance", float("nan"), id="tolerance"),
    pytest.param("tolerance", float("inf"), id="tolerance-inf"),
    pytest.param("repulsion_t", float("nan"), id="repulsion_t"),
    pytest.param("repulsion_t", float("inf"), id="repulsion_t-inf"),
])
def test_projection_config_rejects_nan(name, value):
    with pytest.raises(ValueError, match=f"{name} must be"):
        ProjectionConfig(method="lmds", **{name: value})


@pytest.mark.parametrize("method", ["metric_mds", "sammon"])
@pytest.mark.parametrize("key, value", [("k_neighbors", 7), ("repulsion_t", 0.5)])
def test_projection_config_rejects_lmds_settings_for_other_methods(method, key, value):
    with pytest.raises(ValueError, match=f"^{key} applies to the lmds method only, not {method}$"):
        ProjectionConfig(method=method, **{key: value})


@pytest.mark.parametrize("k", [0, -1])
def test_projection_config_rejects_k_below_one(k):
    with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
        ProjectionConfig(method="lmds", k_neighbors=k)


def test_projection_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ProjectionConfig(seed=-1)


@pytest.mark.parametrize("m, k", [(2, 1), (42, 4), (225, 12)])
def test_neighbor_count_default(m, k):
    # max(4, ceil(0.05 M)) capped at M - 1
    assert ProjectionConfig(method="lmds").neighbor_count(m) == k


def test_neighbor_count_keeps_an_explicit_k():
    assert ProjectionConfig(method="lmds", k_neighbors=7).neighbor_count(42) == 7


@pytest.mark.parametrize("k, m", [(9, 9), (10, 9), (None, 1)])
def test_neighbor_count_rejects_k_outside_range(k, m):
    with pytest.raises(ValueError, match=f"k must satisfy 1 <= k < {m}"):
        ProjectionConfig(method="lmds", k_neighbors=k).neighbor_count(m)


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


@pytest.mark.parametrize("scale", [1e-9, 1e-7, 1e9])
def test_align_axes_rotates_a_cloud_alike_at_any_scale(scale):
    rng = np.random.default_rng(15)
    y = rng.standard_normal((40, 2)) @ np.array([[2.0, 0.7], [0.3, 0.5]])
    assert np.allclose(align_axes(scale * y) / scale, align_axes(y), rtol=1e-9, atol=1e-9)


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


# ----------------------------------------------------------------------------
# the descent's reductions, bit for bit against the oracles above

def _distance_cases():
    rng = np.random.default_rng(20)
    cases = {f"random-{scale:g}": rng.standard_normal((40, 2)) * scale
             for scale in (1e-150, 1e-5, 1.0, 1e5, 1e150)}
    cases["one-column"] = rng.standard_normal((30, 1))
    cases["coincident"] = np.repeat(rng.standard_normal((6, 2)), 3, axis=0)
    cases["mixed-scales"] = rng.standard_normal((50, 2)) * 10.0 ** rng.integers(-8, 9, (50, 1))
    cases["two-points"] = np.array([[0.1, 0.7], [0.3, -0.2]])
    cases["subnormal"] = rng.standard_normal((40, 2)) * 1e-310
    signed_zeros = rng.standard_normal((20, 2))
    signed_zeros[::2, 0] = 0.0
    signed_zeros[1::2, 0] = -0.0
    signed_zeros[5, 0] = 1.5
    cases["signed-zeros"] = signed_zeros
    # 400 * 400 * 2 is above OpenBLAS's single-thread GEMM cutoff (65536 * 4)
    cases["four-hundred"] = rng.standard_normal((400, 2))
    return cases


@pytest.mark.parametrize("vectors", _distance_cases().values(), ids=_distance_cases().keys())
def test_pairwise_distances_match_the_einsum_bitwise(vectors):
    assert same_bits(pairwise_distances(vectors), einsum_distances(vectors))


def test_pairwise_distances_of_three_or_more_columns_are_the_full_einsum_bitwise():
    # shapes from one block to hundreds, and a block of one row (m * n > 2**17)
    rng = np.random.default_rng(21)
    shapes = [(int(rng.integers(3, 301)), int(rng.integers(3, 41))) for _ in range(40)]
    for m, n in shapes + [(3, 3), (15 * 15, 16), (100, 1400)]:
        vectors = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-5, 6)
        assert same_bits(pairwise_distances(vectors), einsum_distances(vectors))


# The M x M x n tensor is 28.8 MB here; a block of differences is 1 MB and
# d 0.7 MB, and the traced peak about 2.6 MiB.
def test_pairwise_distances_memory_is_bounded_by_a_block():
    vectors = np.random.default_rng(22).standard_normal((300, 40))
    tracemalloc.start()
    try:
        pairwise_distances(vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_pairwise_distances_keep_their_bits_at_any_blas_thread_count():
    code = ("import hashlib, numpy as np\n"
            "from somchroma.projection import pairwise_distances\n"
            "rng = np.random.default_rng(23)\n"
            "for m in (400, 800):\n"
            "    for n in (1, 2):\n"
            "        d = pairwise_distances(rng.standard_normal((m, n)) * 10.0 ** rng.integers(-3, 4))\n"
            "        print(m, n, hashlib.sha256(d.tobytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=subprocess_env(OPENBLAS_NUM_THREADS=threads), timeout=300)
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.splitlines())
    assert len(digests[0]) == 4 and digests[0] == digests[1]


def test_pairwise_distances_oracle_tells_hypot_apart():
    def hypot_distances(vectors):
        diff = vectors[:, None, :] - vectors[None, :, :]
        return np.hypot(diff[..., 0], diff[..., 1])

    assert not all(same_bits(hypot_distances(v), einsum_distances(v))
                   for v in _distance_cases().values() if v.shape[1] == 2)


def _grad_cases():
    rng = np.random.default_rng(21)
    for m in (2, 3, 5, 16, 33, 64, 100, 225, 400):
        yield rng.standard_normal((m, m)), rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-3, 4)


def test_weighted_grad_matches_the_einsum_bitwise():
    for w, y in _grad_cases():
        assert same_bits(projection._weighted_grad(w.copy(), y), einsum_weighted_grad(w.copy(), y))


@pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan])
def test_weighted_grad_clears_a_non_finite_diagonal(fill):
    for w, y in _grad_cases():
        dirty = w.copy()
        np.fill_diagonal(dirty, fill)
        assert same_bits(projection._weighted_grad(dirty, y), projection._weighted_grad(w.copy(), y))


def test_weighted_grad_oracle_tells_a_matmul_apart():
    def matmul_grad(w, y):
        np.fill_diagonal(w, 0.0)
        return w.sum(axis=1)[:, None] * y - w @ y

    assert not all(same_bits(matmul_grad(w.copy(), y), einsum_weighted_grad(w.copy(), y))
                   for w, y in _grad_cases())


def _objective_cases():
    """(id, method, dx, y, mask, t) for the gradients' bitwise checks."""
    rng = np.random.default_rng(24)
    dx = pairwise_distances(rng.standard_normal((12, 4)))
    mask = projection._neighbor_mask(12, knn_pairs(dx, 3))
    y = rng.standard_normal((12, 2))
    coincident = y.copy()
    coincident[[5, 9]] = coincident[2]
    # squared differences are subnormal, and a positive dy is at least 2.2e-162
    floor = np.column_stack([np.arange(12.0) // 3, np.arange(12.0) % 3]) * 2e-162
    dx2 = pairwise_distances(rng.standard_normal((2, 4)))
    inputs = {"random": (dx, y, mask), "coincident": (dx, coincident, mask),
              "floor": (dx, floor, mask), "two-points": (dx2, rng.standard_normal((2, 2)),
                                                         projection._neighbor_mask(2, [(0, 1)]))}
    cases = []
    for name, (d, points, near) in inputs.items():
        for method in METHODS:
            for t in ((0.0, 0.37) if method == "lmds" else (None,)):
                label = f"{method}-{name}" + ("" if t is None else f"-t{t:g}")
                cases.append(pytest.param(method, d, points, near, t, id=label))
    return cases


def grads(method, dx, y, mask, t):
    dy = pairwise_distances(y)
    return (projection._objective(method, dx, dy, mask, t)[1](y, dy),
            indexed_objective(method, dx, dy, mask, t)[1](y, dy))


@pytest.mark.parametrize("method, dx, y, mask, t", _objective_cases())
def test_objective_grad_matches_the_masked_oracle_bitwise(method, dx, y, mask, t):
    assert same_bits(*grads(method, dx, y, mask, t))


def test_objective_cases_hold_the_layouts_they_name():
    dists = {c.id: pairwise_distances(c.values[2]) for c in _objective_cases()}
    for name, dy in dists.items():
        off_diagonal = dy[~np.eye(len(dy), dtype=bool)]
        assert np.any(off_diagonal == 0.0) == ("coincident" in name), name
    assert dists["sammon-floor"][0, 1] == math.sqrt(5e-324)


def test_objective_grad_oracle_tells_the_unmasked_form_on_coincident_points_apart(monkeypatch):
    """A zero rule that clears only the diagonal leaves coincident pairs unmasked."""
    monkeypatch.setattr(projection, "_clear_coincident_pairs",
                        lambda w, dy: np.fill_diagonal(w, 0.0))
    for method in METHODS:
        cases = [c for c in _objective_cases() if c.id.startswith(f"{method}-coincident")]
        assert cases, method
        for case in cases:
            with np.errstate(invalid="ignore"):
                assert not same_bits(*grads(*case.values)), case.id


@pytest.fixture(scope="module")
def descent_inputs(iris_std):
    """Reference vectors of a 15x15 map of 600 clustered rows, and of iris on 6x7."""
    blobs = make_gaussian_clusters(600, 8, n_clusters=8, seed=3)
    maps = {"15x15": (blobs, 15, 15, 10), "iris-6x7": (iris_std, 6, 7, 40)}
    return {name: train(data, rows, cols, TrainConfig(epochs=epochs, sigma_final=1.0))
            .grid.reference_vectors for name, (data, rows, cols, epochs) in maps.items()}


def project_with_oracles(monkeypatch, vectors, config):
    with monkeypatch.context() as patch:
        patch.setattr(projection, "pairwise_distances", einsum_distances)
        patch.setattr(projection, "_objective", indexed_objective)
        return project(vectors, config)


def same_descent(a, b):
    return (same_bits(a.points, b.points) and same_bits(a.stress_history, b.stress_history)
            and a.iterations == b.iterations and a.repulsion_t == b.repulsion_t)


@pytest.mark.parametrize("grid", ["15x15", "iris-6x7"])
@pytest.mark.parametrize("method", ["metric_mds", "sammon", "lmds"])
def test_project_matches_the_oracle_descent_bitwise(descent_inputs, monkeypatch, grid, method):
    vectors = descent_inputs[grid]
    config = ProjectionConfig(method=method, max_iterations=150 if grid == "15x15" else 2000)
    result = project(vectors, config)
    assert result.iterations > 10
    assert same_descent(result, project_with_oracles(monkeypatch, vectors, config))


def test_project_oracle_tells_a_matmul_gradient_apart(descent_inputs, monkeypatch):
    def matmul_grad(w, y):
        np.fill_diagonal(w, 0.0)
        return w.sum(axis=1)[:, None] * y - w @ y

    vectors = descent_inputs["15x15"]
    config = ProjectionConfig(method="lmds", max_iterations=150)
    monkeypatch.setattr(projection, "_weighted_grad", matmul_grad)
    assert not same_descent(project(vectors, config),
                            project_with_oracles(monkeypatch, vectors, config))


def spy_on(monkeypatch, name):
    """Count the calls to projection.<name>, which still does its work."""
    calls = []
    function = getattr(projection, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(projection, name, spy)
    return calls


@pytest.mark.parametrize("method", METHODS)
def test_project_builds_one_objective_and_never_clears_pairs_in_the_descent(
    descent_inputs, monkeypatch, method
):
    objectives = spy_on(monkeypatch, "_objective")
    cleared = spy_on(monkeypatch, "_clear_coincident_pairs")
    result = project(descent_inputs["15x15"], ProjectionConfig(method=method, max_iterations=150))
    assert result.iterations > 10
    assert (len(objectives), len(cleared)) == (1, 0)


def test_coincident_rule_runs_exactly_on_the_coincident_cases(monkeypatch):
    cleared = spy_on(monkeypatch, "_clear_coincident_pairs")
    for case in _objective_cases():
        del cleared[:]
        method, dx, y, mask, t = case.values
        dy = pairwise_distances(y)
        assert np.isfinite(projection._objective(method, dx, dy, mask, t)[1](y, dy)).all()
        assert len(cleared) == ("coincident" in case.id), case.id
