import dataclasses
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from somchroma import som
from somchroma.dataset import DataMatrix
from somchroma.som import (
    SomGrid,
    TrainConfig,
    batch_epoch,
    bmu_indices,
    goodness,
    grid_from_dict,
    grid_to_dict,
    hex_positions,
    init_grid,
    quantization_error,
    select_sigma,
    sigma_schedule,
    train,
)

from conftest import make_gaussian_clusters, subprocess_env


def brute_force_goodness(grid, data):
    """Oracle: exhaustive simple-path enumeration over the hex adjacency graph."""
    pos, vec, m = grid.unit_positions, grid.reference_vectors, grid.m
    adj = {
        (i, j)
        for i in range(m)
        for j in range(m)
        if i != j and abs(np.linalg.norm(pos[i] - pos[j]) - 1.0) < 1e-9
    }

    def best_path(a, b):
        best = np.inf
        stack = [(a, frozenset([a]), 0.0)]
        while stack:
            node, seen, cost = stack.pop()
            if node == b:
                best = min(best, cost)
                continue
            for nxt in range(m):
                if (node, nxt) in adj and nxt not in seen:
                    stack.append((nxt, seen | {nxt}, cost + np.linalg.norm(vec[node] - vec[nxt])))
        return best

    total = 0.0
    for x in data.values:
        d = np.linalg.norm(vec - x, axis=1)
        order = np.argsort(d, kind="stable")
        total += d[order[1]] + best_path(order[0], order[1])
    return total / data.n_rows


def two_unit_grid(vectors):
    return SomGrid(1, 2, np.asarray(vectors, dtype=float))


# ----------------------------------------------------------------------------
# lattice geometry

@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 5), (6, 7), (9, 9)])
def test_hex_positions_neighbor_distance(rows, cols):
    pos = hex_positions(rows, cols)
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                assert abs(np.linalg.norm(pos[k] - pos[k + 1]) - 1.0) <= 1e-12
            if r + 1 < rows:
                # one of the two candidate columns below is lattice-adjacent
                down = pos[(r + 1) * cols + c]
                assert abs(np.linalg.norm(pos[k] - down) - 1.0) <= 0.5
    dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
    adjacent = np.abs(dists - 1.0) <= 1e-12
    assert adjacent.sum() > 0
    assert np.all(np.abs(dists[adjacent] - 1.0) <= 1e-12)


def offset_rule_neighbor_table(grid):
    """Oracle: the neighbor table written out from hex_positions' offset rule.

    Row r + 1 sits half a unit right of row r when r is even and half a unit
    left when r is odd, so unit (r, c) touches (r, c + 1) and columns
    c + r % 2 - 1 and c + r % 2 of row r + 1. Slots 0-2 hold those edges and
    slots 3-5 the same edges seen from their far end.
    """
    rows, cols, m = grid.rows, grid.cols, grid.m
    r, c = np.divmod(np.arange(m), cols)
    left = c + r % 2 - 1
    next_r = np.column_stack([r, r + 1, r + 1])
    next_c = np.column_stack([c + 1, left, left + 1])
    i, k = np.nonzero((next_r < rows) & (next_c >= 0) & (next_c < cols))
    j = next_r[i, k] * cols + next_c[i, k]
    vec = grid.reference_vectors
    w = np.linalg.norm(vec[i] - vec[j], axis=1)
    neighbors = np.repeat(np.arange(m)[:, None], 6, axis=1)
    weights = np.full((m, 6), np.inf)
    neighbors[i, k], weights[i, k] = j, w
    neighbors[j, k + 3], weights[j, k + 3] = i, w
    return neighbors, weights


def neighbor_edges(neighbors, weights):
    """A table's (unit, neighbor, weight bits) entries other than padding, sorted."""
    u, slot = np.nonzero(neighbors != np.arange(len(neighbors))[:, None])
    v = neighbors[u, slot]
    order = np.lexsort((v, u))
    return u[order], v[order], weights[u, slot][order].view(np.uint64)


def test_neighbor_table_is_the_offset_rules_bitwise():
    rng = np.random.default_rng(41)
    shapes = [(r, c) for r in range(1, 13) for c in range(1, 13)] + [(1, 30), (30, 1)]
    for rows, cols in shapes:
        for dim in (3, 16):
            grid = SomGrid(rows, cols, rng.standard_normal((rows * cols, dim)))
            neighbors, weights = som._neighbor_table(grid)
            assert neighbors.shape == weights.shape == (grid.m, 6)
            got = neighbor_edges(neighbors, weights)
            expected = neighbor_edges(*offset_rule_neighbor_table(grid))
            assert all(map(np.array_equal, got, expected)), (rows, cols, dim)
            assert np.all(weights[neighbors == np.arange(grid.m)[:, None]] == np.inf)


def test_grid_holds_only_its_shape_and_vectors():
    grid = SomGrid(3, 4, np.zeros((12, 2)))
    assert [f.name for f in dataclasses.fields(grid)] == ["rows", "cols", "reference_vectors"]
    assert np.array_equal(grid.unit_positions, hex_positions(3, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.unit_positions = np.zeros((12, 2))


# ----------------------------------------------------------------------------
# initialization

def test_init_grid_single_unit_is_mean(iris_std):
    grid = init_grid(1, 1, iris_std, seed=0)
    assert grid.m == 1
    assert np.array_equal(grid.reference_vectors[0], iris_std.values.mean(axis=0))


def test_init_grid_iris_shape(iris_std):
    grid = init_grid(6, 7, iris_std, seed=0)
    assert grid.m == 42
    assert grid.reference_vectors.shape == (42, 4)
    assert np.all(np.isfinite(grid.reference_vectors))


def test_init_grid_rank_one_fallback():
    rng = np.random.default_rng(5)
    direction = rng.standard_normal(4)
    direction /= np.linalg.norm(direction)
    t = rng.standard_normal(30)
    data = DataMatrix(np.outer(t, direction), list("wxyz"))
    grid = init_grid(3, 4, data, seed=1)
    # residual off the data line is the seeded 1e-3 perturbation at most
    mean = data.values.mean(axis=0)
    centered = grid.reference_vectors - mean
    residual = centered - np.outer(centered @ direction, direction)
    assert np.all(np.isfinite(grid.reference_vectors))
    assert 0.0 < np.linalg.norm(residual, axis=1).max() <= 1e-3 + 1e-9
    # deterministic given the seed
    again = init_grid(3, 4, data, seed=1)
    assert np.array_equal(grid.reference_vectors, again.reference_vectors)


def test_init_grid_imports_numpy_random_only_for_a_degenerate_component():
    # numpy.random costs several MB of memory; a train stage on full-rank data never draws
    code = ("import sys\n"
            "import numpy as np\n"
            "from somchroma.dataset import DataMatrix\n"
            "from somchroma.som import init_grid\n"
            "values = np.sin(np.arange(40.0)).reshape(10, 4)\n"
            "init_grid(2, 3, DataMatrix(values, list('wxyz')))\n"
            "print('numpy.random' in sys.modules)\n"
            "init_grid(2, 3, DataMatrix(np.ones((10, 4)), list('wxyz')))\n"
            "print('numpy.random' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], env=subprocess_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]


def test_init_grid_rejects_absurd_size():
    data = DataMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ["a", "b"])
    with pytest.raises(ValueError, match="100x larger"):
        init_grid(15, 15, data, seed=0)


# ----------------------------------------------------------------------------
# BMU

def test_bmu_examples():
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    rows = np.array([[0.1, 0.0], [1.0, 1.0], [0.5, 0.5]])
    assert bmu_indices(rows, grid).tolist() == [0, 1, 0]  # tie -> lowest index


def test_bmu_dimension_mismatch():
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="data of dimension 3 against grid of dim 2"):
        bmu_indices(np.array([[1.0, 2.0, 3.0]]), grid)


@pytest.mark.parametrize("shape", [(2,), (3, 4, 2)])
def test_bmu_indices_rejects_data_that_is_not_2d(shape):
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=rf"2-dimensional, got shape \({shape[0]},"):
        bmu_indices(np.ones(shape), grid)


@pytest.mark.parametrize("search", [
    lambda grid, data: bmu_indices(data.values, grid), quantization_error, goodness,
], ids=["bmu_indices", "quantization_error", "goodness"])
def test_searches_name_a_data_dimension_that_is_not_the_grids(search):
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    data = DataMatrix(np.ones((4, 3)), ["a", "b", "c"])
    with pytest.raises(ValueError, match="data of dimension 3 against grid of dim 2"):
        search(grid, data)


def test_bmu_identifies_own_unit():
    rng = np.random.default_rng(2)
    grid = SomGrid(2, 3, rng.standard_normal((6, 4)))
    for i in range(grid.m):
        assert bmu_indices(grid.reference_vectors[i:i + 1], grid)[0] == i


# ----------------------------------------------------------------------------
# batch epoch

def test_batch_epoch_tiny_sigma_is_kmeans_step():
    values = np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 1.0], [1.2, 1.0]])
    data = DataMatrix(values, ["x", "y"])
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    new = batch_epoch(grid, data, sigma=1e-6)
    assert np.allclose(new.reference_vectors[0], [0.1, 0.0], atol=1e-12)
    assert np.allclose(new.reference_vectors[1], [1.1, 1.0], atol=1e-12)


@pytest.mark.parametrize("sigma", [1e-200, 5e-324])
def test_batch_epoch_sigma_whose_square_underflows_is_kmeans_step(iris_std, sigma):
    # 2 sigma^2 rounds to zero here; at 1e-150 it is normal and the kernel
    # already rounds to 1 at distance 0 and 0 elsewhere
    assert -2.0 * sigma * sigma == 0.0
    grid = init_grid(3, 3, iris_std, seed=0)
    bmus = bmu_indices(iris_std.values, grid)
    new = batch_epoch(grid, iris_std, sigma).reference_vectors
    expected = batch_epoch(grid, iris_std, 1e-150).reference_vectors
    assert np.array_equal(new.view(np.uint64), expected.view(np.uint64))
    for u in np.unique(bmus):
        rows = iris_std.values[bmus == u]
        assert new[u].tolist() == [math.fsum(col) / len(rows) for col in rows.T.tolist()]


def test_train_with_a_sigma_whose_square_underflows_runs_kmeans(iris_std):
    def run(sigma):
        return train(iris_std, 3, 3, TrainConfig(epochs=3, sigma_initial=sigma, sigma_final=sigma))

    tiny, small = run(1e-200), run(1e-150)
    assert np.array_equal(tiny.grid.reference_vectors, small.grid.reference_vectors)
    assert tiny.quantization_errors == small.quantization_errors
    assert tiny.quantization_errors[0] < quantization_error(init_grid(3, 3, iris_std), iris_std)


def test_batch_epoch_huge_sigma_gives_global_mean():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((15, 3))
    data = DataMatrix(values, ["a", "b", "c"])
    grid = SomGrid(2, 3, rng.standard_normal((6, 3)))
    new = batch_epoch(grid, data, sigma=1e6)
    assert np.max(np.abs(new.reference_vectors - values.mean(axis=0))) <= 1e-9


def test_batch_epoch_single_point_pulls_both_units():
    # one data point at unit 0; weights cancel in the quotient for both units
    x = np.array([0.3, -0.2])
    data = DataMatrix(x[None, :], ["x", "y"])
    grid = two_unit_grid([[0.3, -0.2], [5.0, 5.0]])
    new = batch_epoch(grid, data, sigma=1.0)
    assert np.max(np.abs(new.reference_vectors - x[None, :])) <= 1e-12


def test_batch_epoch_lloyd_reduction_random():
    rng = np.random.default_rng(123)
    for trial in range(20):
        n_pts = int(rng.integers(4, 21))
        n_units = int(rng.integers(2, 7))
        values = rng.standard_normal((n_pts, 3))
        data = DataMatrix(values, ["a", "b", "c"])
        grid = init_grid(1, n_units, data, seed=trial)
        new = batch_epoch(grid, data, sigma=1e-6)
        bmus = bmu_indices(values, grid)
        expected = grid.reference_vectors.copy()
        for u in range(grid.m):
            mine = np.flatnonzero(bmus == u)
            if mine.size:
                expected[u] = values[mine].mean(axis=0)
        assert np.max(np.abs(new.reference_vectors - expected)) <= 1e-9


@pytest.mark.parametrize("sigma", [1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_batch_epoch_stays_finite(sigma):
    rng = np.random.default_rng(77)
    data = DataMatrix(rng.standard_normal((30, 5)) * 10.0, [f"c{i}" for i in range(5)])
    grid = init_grid(3, 4, data, seed=0)
    new = batch_epoch(grid, data, sigma=sigma)
    assert np.all(np.isfinite(new.reference_vectors))


def test_batch_epoch_permutation_invariant_bitwise():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((40, 4))
    data = DataMatrix(values, list("abcd"))
    grid = init_grid(3, 3, data, seed=0)
    out = batch_epoch(grid, data, sigma=0.8)
    perm = rng.permutation(40)
    shuffled = DataMatrix(values[perm], list("abcd"))
    out_perm = batch_epoch(grid, shuffled, sigma=0.8)
    assert np.array_equal(out.reference_vectors, out_perm.reference_vectors)


# ----------------------------------------------------------------------------
# exact group sums and the kernel update against the per-unit loops they replace

def fsum_group_sums(values, bmus, m):
    """Oracle: one math.fsum per unit and column over the unit's rows."""
    counts = np.bincount(bmus, minlength=m)
    stops = np.cumsum(counts)
    columns = values[np.argsort(bmus, kind="stable")].T.tolist()
    sums = np.zeros((m, values.shape[1]))
    for u in np.flatnonzero(counts):
        start = stops[u] - counts[u]
        sums[u] = [math.fsum(col[start:stops[u]]) for col in columns]
    return sums, counts


def loop_batch_epoch(grid, data, sigma, bmus):
    """Oracle: the kernel from the M x M x 2 einsum, summed by a loop over units."""
    sums, counts = fsum_group_sums(data.values, bmus, grid.m)
    pos = grid.unit_positions
    diff = pos[:, None, :] - pos[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    with np.errstate(under="ignore"):
        kernel = np.exp(-sq / (2.0 * sigma * sigma))
    num = np.zeros_like(grid.reference_vectors)
    den = np.zeros(grid.m)
    for u in range(grid.m):
        if counts[u]:
            num += kernel[u][:, None] * sums[u]
            den += kernel[u] * counts[u]
    vectors = grid.reference_vectors.copy()
    alive = den > 0.0
    vectors[alive] = num[alive] / den[alive, None]
    return vectors


def _cancellation(rng):
    # big values and their exact negatives around small ones, in shuffled order
    big = rng.standard_normal((60, 3)) * 1e16
    small = rng.standard_normal((60, 3))
    values = np.vstack([big, -big, small, 1e-16 * small])[rng.permutation(240)]
    return values, rng.integers(0, 5, size=240), 5


def _wide_magnitudes(rng):
    # 1e-300 to 1e300 in one column, both signs
    values = rng.standard_normal((300, 2)) * 10.0 ** rng.uniform(-300, 300, size=(300, 2))
    return values, rng.integers(0, 7, size=300), 7


def _subnormals(rng):
    values = rng.standard_normal((200, 3)) * 1e-310
    values[:, 2] *= 10.0 ** rng.integers(0, 300, size=200)  # subnormals among normals
    return values, rng.integers(0, 6, size=200), 6


def _signed_zeros(rng):
    # a column of -0.0 only, one of +0.0 and -0.0, and one whose sums cancel exactly
    values = np.zeros((40, 3))
    values[:, 0] = -0.0
    values[::2, 1] = -0.0
    values[:, 2] = np.repeat([1.5, -1.5], 20)
    bmus = np.repeat(np.arange(4), 10)
    bmus[20:] = bmus[:20]
    return values, bmus, 4


def _all_zero_column(rng):
    values = rng.standard_normal((50, 3))
    values[:, 1] = 0.0
    return values, rng.integers(0, 4, size=50), 4


def _one_row_and_empty_units(rng):
    # units 0, 2 and 5 get one row each, 1, 3 and 6 none, 4 the rest
    values = rng.standard_normal((30, 4))
    bmus = np.full(30, 4)
    bmus[[3, 11, 29]] = [0, 2, 5]
    return values, bmus, 7


def _many_levels(rng):
    # 2**16 - 1 rows leave 35 bits to a level, so full mantissas from 2**0
    # down to 2**-45 (column 0) need more than two levels. One unit holds most
    # rows, all negative and near -1 in columns 1-8, so its sums come within
    # a factor of 4 of the largest a level's granularity holds exactly.
    n = (1 << 16) - 1
    values = np.column_stack([
        rng.uniform(0.5, 1.0, n) * 2.0 ** -rng.integers(0, 46, size=n),
        -rng.uniform(0.5, 1.0, (n, 8)),
    ])
    bmus = np.where(rng.random(n) < 0.9, 0, rng.integers(1, 4, size=n))
    assert len(som._split_levels(values)) > 2
    return values, bmus, 4


def _near_overflow_columns(rng):
    # with 30 rows sigma is 2**(e + 6): 2**1023 in column 0, where |v| < 2**1017,
    # and beyond the largest double in column 1, which math.fsum sums alone
    values = rng.uniform(-1.0, 1.0, size=(30, 2)) * 2.0 ** np.array([1016, 1018])
    values[7] = 1.5 * 2.0 ** np.array([1016, 1018])
    levels = som._split_levels(values)
    assert levels[:, :, 0].any() and not levels[:, :, 1].any()
    return values, np.repeat(np.arange(10), 3), 10


GROUP_SUM_CASES = {
    "cancellation": _cancellation,
    "1e-300-to-1e300": _wide_magnitudes,
    "subnormals": _subnormals,
    "signed-zeros": _signed_zeros,
    "all-zero-column": _all_zero_column,
    "one-row-and-empty-units": _one_row_and_empty_units,
    "more-than-two-levels": _many_levels,
    "near-overflow-columns": _near_overflow_columns,
}


@pytest.mark.parametrize("case", list(GROUP_SUM_CASES))
def test_split_levels_follow_their_rows_bitwise(case):
    # each row's levels are the same in any row order, so one split serves
    # every step's grouping of the rows
    rng = np.random.default_rng(23)
    values, _, _ = GROUP_SUM_CASES[case](rng)
    perm = rng.permutation(len(values))
    levels = som._split_levels(values)
    assert np.array_equal(som._split_levels(values[perm]).view(np.uint64),
                          levels[:, perm].view(np.uint64))
    # the levels add up to each value exactly: math.fsum of a row's levels
    # is the value itself (up to a zero's sign, or a column left out)
    cells = zip(*levels.reshape(len(levels), -1).tolist())
    total = np.reshape(list(map(math.fsum, cells)), values.shape)
    covered = levels.any(axis=0)
    assert np.array_equal(total[covered], values[covered])


@pytest.mark.parametrize("case", list(GROUP_SUM_CASES))
def test_group_sums_are_math_fsum_bitwise(case):
    # in the case's row order and in a shuffled one, with the levels split
    # from the rows in that order: the sums do not depend on it
    rng = np.random.default_rng(17)
    values, bmus, m = GROUP_SUM_CASES[case](rng)
    perm = rng.permutation(len(values))
    for rows, units in ((values, bmus), (values[perm], bmus[perm])):
        sums, counts = som._group_sums(rows, som._split_levels(rows), units, m)
        expected, expected_counts = fsum_group_sums(rows, units, m)
        assert np.array_equal(counts, expected_counts)
        assert np.array_equal(sums.view(np.uint64), expected.view(np.uint64))


def test_group_sums_keep_math_fsum_overflow():
    values = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0]])
    bmus = np.zeros(3, dtype=int)
    with pytest.raises(OverflowError):
        fsum_group_sums(values, bmus, 2)
    with pytest.raises(OverflowError):
        som._group_sums(values, som._split_levels(values), bmus, 2)


@pytest.mark.parametrize("sigma", [1e-3, 0.3, 1.0, 4.0])
def test_batch_epoch_is_the_per_unit_loop_bitwise(sigma):
    rng = np.random.default_rng(int(sigma * 1000))
    values = rng.standard_normal((90, 4))
    values[:, 3] = -0.0
    values[:10, 3] = 0.0
    data = DataMatrix(values, list("abcd"))
    grid = SomGrid(4, 5, rng.standard_normal((20, 4)) * 2.0)
    bmus = bmu_indices(values, grid)
    out = batch_epoch(grid, data, sigma).reference_vectors
    expected = loop_batch_epoch(grid, data, sigma, bmus)
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    if sigma == 1e-3:  # the kernel underflows: units no row chose get weight 0
        empty = np.setdiff1d(np.arange(grid.m), bmus)
        assert empty.size and np.array_equal(out[empty], grid.reference_vectors[empty])


def test_batch_epoch_sums_from_plus_zero_like_the_loop():
    # one live unit at the end of a 1 x 40 line: the kernel reaches the far
    # units as subnormals, so their products with tiny negative sums round
    # to -0.0 while their weights stay positive; a running sum from +0.0
    # turns that into +0.0. The rows are all assigned to unit 0 by hand, so
    # the update is called without batch_epoch's search.
    values = np.column_stack([np.full(5, -1e-20), np.arange(5.0)])
    data = DataMatrix(values, ["x", "y"])
    grid = SomGrid(1, 40, np.column_stack([np.zeros(40), np.arange(40.0) + 100.0]))
    bmus = np.zeros(5, dtype=np.intp)
    planar = som._planar_squared_distances(1, 40)
    out = som._update(values, som._split_levels(values), grid.reference_vectors, bmus, 1.0, planar)
    expected = loop_batch_epoch(grid, data, 1.0, bmus)
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
    assert (out[38:, 0] == 0.0).all() and not np.signbit(out[38:, 0]).any()


# ----------------------------------------------------------------------------
# training

@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
def test_batch_epoch_rejects_a_sigma_that_is_not_positive(sigma):
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.standard_normal((10, 2)), ["x", "y"])
    grid = SomGrid(2, 3, rng.standard_normal((6, 2)))
    with pytest.raises(ValueError, match=f"sigma must be positive, got {sigma}"):
        batch_epoch(grid, data, sigma)


@pytest.mark.parametrize("epochs", [0, -3])
def test_sigma_schedule_rejects_fewer_than_one_epoch(epochs):
    with pytest.raises(ValueError, match=f"epochs must be >= 1, got {epochs}"):
        sigma_schedule(2.0, 1.0, epochs)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("name", ["sigma_initial", "sigma_final"])
def test_sigma_schedule_rejects_a_sigma_that_is_not_positive(name, sigma):
    sigmas = {"sigma_initial": 2.0, "sigma_final": 1.0, name: sigma}
    for epochs in (1, 3):
        with pytest.raises(ValueError, match=f"{name} must be positive, got {sigma}"):
            sigma_schedule(sigmas["sigma_initial"], sigmas["sigma_final"], epochs)


def test_sigma_schedule_names_both_sigmas_when_it_rounds_to_zero():
    # 1.5 + (1e-200 - 1.5) * 1.0 cancels to 0.0
    with pytest.raises(ValueError, match="sigma_final 1e-200 is too small against "
                                         "sigma_initial 1.5"):
        sigma_schedule(1.5, 1e-200, 2)
    assert sigma_schedule(1.5, 1e-200, 1) == (1.5,)
    assert sigma_schedule(1.5, 1e-15, 2)[-1] > 0


def test_train_one_epoch_equals_init_plus_epoch(iris_std):
    cfg = TrainConfig(epochs=1, sigma_initial=2.0, seed=0)
    result = train(iris_std, 4, 5, cfg)
    manual = batch_epoch(init_grid(4, 5, iris_std, seed=0), iris_std, 2.0)
    assert np.array_equal(result.grid.reference_vectors, manual.reference_vectors)
    assert result.sigmas == (2.0,)


def test_train_schedule_is_linear():
    assert sigma_schedule(3.0, 1.0, 1) == (3.0,)
    assert sigma_schedule(3.0, 1.0, 3) == (3.0, 2.0, 1.0)
    sched = sigma_schedule(2.5, 0.5, 5)
    assert sched[0] == 2.5 and sched[-1] == 0.5
    steps = np.diff(sched)
    assert np.allclose(steps, steps[0])


def test_train_split_schedule_matches_full(iris_std):
    cfg = TrainConfig(epochs=6, sigma_initial=3.0, sigma_final=0.5, seed=0)
    full = train(iris_std, 3, 4, cfg)
    sched = sigma_schedule(3.0, 0.5, 6)
    grid = init_grid(3, 4, iris_std, seed=0)
    for sigma in sched[:2]:
        grid = batch_epoch(grid, iris_std, sigma)
    for sigma in sched[2:]:
        grid = batch_epoch(grid, iris_std, sigma)
    assert np.array_equal(full.grid.reference_vectors, grid.reference_vectors)


def test_train_iris_improves_quantization(iris_std):
    result = train(iris_std, 6, 7, TrainConfig(seed=0))
    assert result.quantization_errors[-1] < result.quantization_errors[0]
    assert 0.0 < result.quantization_errors[-1] < np.inf


def test_train_9x9_on_15_dim_data():
    data = make_gaussian_clusters(120, 15, seed=4)
    result = train(data, 9, 9, TrainConfig(epochs=10, seed=0))
    assert result.grid.m == 81
    assert result.grid.reference_vectors.shape == (81, 15)


# ----------------------------------------------------------------------------
# quantization error and goodness

def test_quantization_error_zero_when_data_on_units():
    grid = two_unit_grid([[0.0, 0.0], [1.0, 1.0]])
    data = DataMatrix(np.array([[0.0, 0.0], [1.0, 1.0]]), ["x", "y"])
    assert quantization_error(grid, data) == 0.0


def test_quantization_error_single_unit():
    grid = SomGrid(1, 1, np.array([[0.0, 0.0]]))
    data = DataMatrix(np.array([[0.0, 1.0], [0.0, -1.0]]), ["x", "y"])
    assert quantization_error(grid, data) == 1.0


def test_goodness_point_on_unit_with_adjacent_second():
    # x == m_c and m_c' lattice-adjacent: d(x) = 2 ||m_c - m_c'||
    vectors = np.array([[0.0, 0.0], [0.5, 0.0]])
    grid = two_unit_grid(vectors)
    data = DataMatrix(np.array([[0.0, 0.0]]), ["x", "y"])
    assert abs(goodness(grid, data) - 2 * 0.5) <= 1e-12


def test_goodness_matches_exhaustive_paths():
    rng = np.random.default_rng(17)
    for trial in range(5):
        grid = SomGrid(2, 2, rng.standard_normal((4, 3)))
        data = DataMatrix(rng.standard_normal((10, 3)), ["a", "b", "c"])
        assert abs(goodness(grid, data) - brute_force_goodness(grid, data)) <= 1e-12


def test_goodness_single_unit_rejected():
    grid = SomGrid(1, 1, np.array([[0.0]]))
    data = DataMatrix(np.array([[0.5], [1.5]]), ["x"])
    with pytest.raises(ValueError, match="at least 2 units"):
        goodness(grid, data)


def test_goodness_bounded_below_by_second_distance():
    rng = np.random.default_rng(23)
    grid = SomGrid(3, 3, rng.standard_normal((9, 4)))
    data = DataMatrix(rng.standard_normal((25, 4)), list("abcd"))
    diff = data.values[:, None, :] - grid.reference_vectors[None, :, :]
    dist = np.sqrt((diff ** 2).sum(-1))
    second = np.sort(dist, axis=1)[:, 1]
    assert goodness(grid, data) >= second.mean() - 1e-12


# ----------------------------------------------------------------------------
# exact blocked nearest-unit search against the full N x M x n oracle

def brute_force_squared(values, vectors):
    """Oracle: the full N x M x n difference tensor the blocked search replaces."""
    diff = values[:, None, :] - vectors[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def brute_force_quantization_error(values, vectors):
    """Oracle: the mean distance to the best unit, from the full distance matrix."""
    return float(np.mean(np.sqrt(brute_force_squared(values, vectors).min(axis=1))))


def scipy_reference_paths(grid, sources=None):
    """Oracle: scipy's Dijkstra over units at planar distance 1, found by scanning all pairs."""
    pos = grid.unit_positions
    diff = pos[:, None, :] - pos[None, :, :]
    i, j = np.nonzero(np.abs(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) - 1.0) <= 1e-9)
    i, j = i[i < j], j[i < j]
    vec = grid.reference_vectors
    w = np.linalg.norm(vec[i] - vec[j], axis=1)
    graph = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(grid.m, grid.m),
    )
    return dijkstra(graph, directed=False, indices=sources)


def brute_force_search_goodness(grid, data):
    """Oracle: goodness from the full distance matrix, a stable argsort and all-pairs paths."""
    dist = np.sqrt(brute_force_squared(data.values, grid.reference_vectors))
    order = np.argsort(dist, axis=1, kind="stable")
    best, second = order[:, 0], order[:, 1]
    paths = scipy_reference_paths(grid)
    return float(np.mean(dist[np.arange(data.n_rows), second] + paths[best, second]))


def _on_grid(values, vectors, cols):
    rows = len(vectors) // cols
    return values, SomGrid(rows, cols, vectors)


def _duplicated_units(rng):
    vectors = rng.standard_normal((20, 5))
    vectors[[3, 9, 17]] = vectors[11]
    return _on_grid(rng.standard_normal((150, 5)), vectors, 5)


def _rows_on_units(rng):
    vectors = rng.standard_normal((30, 6))
    values = np.vstack([vectors, vectors[::-1], rng.standard_normal((40, 6))])
    return _on_grid(values, vectors, 6)


def _half_integer_ties(rng):
    # integer units, half-integer rows: many rows lie exactly midway between units
    vectors = rng.integers(-2, 3, size=(24, 3)).astype(float)
    values = rng.integers(-5, 6, size=(300, 3)) / 2.0
    return _on_grid(values, vectors, 6)


def _mean_offset(rng):
    # |x|^2 ~ 1e9 cancels in the GEMM form; units 0 and 1 differ far below its error
    vectors = 1e4 + rng.standard_normal((30, 8))
    vectors[1] = vectors[0] + 1e-9
    return _on_grid(1e4 + rng.standard_normal((200, 8)), vectors, 6)


def _scaled(scale):
    def make(rng):
        vectors = rng.standard_normal((35, 7)) * scale
        vectors[1] = vectors[0] * (1.0 + 1e-15)
        return _on_grid(rng.standard_normal((200, 7)) * scale, vectors, 5)
    return make


def _sqrt_rounding_tie(rng):
    # squared distances 1 + 2**-52, 1, 1 all have sqrt 1.0: unit 0 is third by
    # squared distance but first by distance, so goodness must still see it
    vectors = np.array([[1.0, 2.0**-26], [-1.0, 0.0], [0.0, 1.0]])
    return _on_grid(np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.5]]), vectors, 3)


def _overflow(rng):
    # |x|^2 overflows, so the GEMM form is inf or nan; the nearest unit's
    # squared distance is still finite
    vectors = 1e160 * rng.standard_normal((12, 3))
    values = vectors[rng.integers(0, 12, size=40)] + 1e150 * rng.standard_normal((40, 3))
    return _on_grid(values, vectors, 4)


def _overflow_rows_among_normal_rows(rng):
    # one block holds rows whose |x|^2, GEMM entries or distances overflow,
    # rows past the safe reach whose distances are finite, and ordinary rows
    vectors = rng.standard_normal((12, 3))
    values = rng.standard_normal((40, 3))
    values[[2, 9]] = 1e308 * np.array([1.0, -1.0, 1.0])
    values[[5, 17]] = 1e200
    values[[11, 30]] = 5e153
    return _on_grid(values, vectors, 4)


def _kth_ties(rng):
    # a duplicated pair and a triple: a row by the pair has its first and
    # second units tied, and a row by the triple also its second and third,
    # so the (k + 1)-th smallest ties the k-th for k = 1 and, by the triple, k = 2
    vectors = rng.standard_normal((24, 5))
    vectors[7] = vectors[2]
    vectors[13] = vectors[19] = vectors[5]
    near = vectors[rng.choice([2, 5], size=60)] + 1e-3 * rng.standard_normal((60, 5))
    on = vectors[[2, 5, 7, 13, 19]]
    return _on_grid(np.vstack([near, on, rng.standard_normal((40, 5))]), vectors, 6)


def _two_units(rng):
    # M == k for goodness: no (k + 1)-th unit, and the midway rows tie
    vectors = rng.standard_normal((2, 3))
    midway = (vectors[0] + vectors[1]) / 2.0
    return _on_grid(np.vstack([rng.standard_normal((50, 3)), midway, midway]), vectors, 2)


def _clear_tied_and_unsafe_rows(rng):
    # cycles through a clear row, a row on a tripled unit, a row whose
    # |x|^2 overflows and one past the safe reach, so that every block,
    # 7 rows or all of them, holds rows of each kind
    vectors = rng.standard_normal((18, 4))
    vectors[9] = vectors[13] = vectors[4]
    kinds = [
        rng.standard_normal((12, 4)),
        vectors[[4, 9, 13] * 4],
        np.full((12, 4), 1e200) * rng.choice([-1.0, 1.0], size=(12, 4)),
        np.full((12, 4), 5e153) * rng.choice([-1.0, 1.0], size=(12, 4)),
    ]
    values = np.stack(kinds, axis=1).reshape(-1, 4)
    assert len(values) * len(vectors) <= som._BLOCK_PAIRS
    return _on_grid(values, vectors, 6)


def _past_the_safe_reach_with_a_finite_margin(rng):
    # unit 3 lies past the safe reach, so every row is unsafe, but |x|^2 and
    # the margin stay finite; x . w overflows for unit 3, whose s is then the
    # row minimum (-inf) though unit 4 is nearer
    vectors = rng.standard_normal((12, 4))
    vectors[3] = [1.3e154, 0.0, 0.0, 0.0]
    vectors[4] = [0.85e154, 0.0, 0.0, 0.0]
    values = np.vstack([[[1e154, 0.0, 0.0, 0.0]] * 3, rng.standard_normal((20, 4))])
    return _on_grid(values, vectors, 4)


def _several_blocks(rng):
    data = make_gaussian_clusters(3000, 8, n_clusters=8, seed=int(rng.integers(100)))
    grid = init_grid(20, 20, data, seed=0)
    assert data.n_rows * grid.m > 2 * som._BLOCK_PAIRS
    return data.values, grid


NEAREST_CASES = {
    "duplicated-units": _duplicated_units,
    "rows-on-units": _rows_on_units,
    "half-integer-ties": _half_integer_ties,
    "mean-offset-1e4": _mean_offset,
    "scale-1e-3": _scaled(1e-3),
    "scale-1e3": _scaled(1e3),
    "sqrt-rounding-tie": _sqrt_rounding_tie,
    "overflow": _overflow,
    "overflow-rows-among-normal-rows": _overflow_rows_among_normal_rows,
    "kth-ties": _kth_ties,
    "two-units": _two_units,
    "clear-tied-and-unsafe-rows": _clear_tied_and_unsafe_rows,
    "past-the-safe-reach-with-a-finite-margin": _past_the_safe_reach_with_a_finite_margin,
    "several-blocks": _several_blocks,
}


def assert_search_matches_brute_force(values, grid):
    squared = brute_force_squared(values, grid.reference_vectors)
    assert np.array_equal(bmu_indices(values, grid), np.argmin(squared, axis=1))
    assert [bmu_indices(x[None, :], grid)[0] for x in values] == np.argmin(squared, axis=1).tolist()
    data = DataMatrix(values, [f"c{i}" for i in range(values.shape[1])])
    assert quantization_error(grid, data) == float(np.mean(np.sqrt(squared.min(axis=1))))
    assert goodness(grid, data) == brute_force_search_goodness(grid, data)


@pytest.mark.parametrize("rows_per_block", [None, 7], ids=["default-blocks", "7-row-blocks"])
@pytest.mark.parametrize("case", list(NEAREST_CASES))
def test_nearest_unit_search_is_bitwise_brute_force(case, rows_per_block, monkeypatch):
    values, grid = NEAREST_CASES[case](np.random.default_rng(2024))
    if rows_per_block is not None:
        monkeypatch.setattr(som, "_BLOCK_PAIRS", rows_per_block * grid.m)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow case overflows
        assert_search_matches_brute_force(values, grid)


def test_nearest_unit_search_random_adversarial_cases():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n, m = int(rng.integers(1, 40)), int(rng.integers(2, 50))
        scale, offset = 10.0 ** rng.uniform(-3, 3), rng.choice([0.0, 1e2, 1e4])
        vectors = offset + scale * rng.standard_normal((m, n))
        copies = rng.integers(0, m, size=m // 4)
        vectors[copies] = vectors[copies[::-1]]
        values = offset + scale * rng.standard_normal((int(rng.integers(1, 80)), n))
        values = np.vstack([values, vectors[rng.integers(0, m, size=5)]])
        if rng.random() < 0.3:  # a coarse lattice makes exact ties common
            vectors, values = np.round(vectors / scale) * scale, np.round(values / scale) * scale
        assert_search_matches_brute_force(*_on_grid(values, vectors, m))


def stacked_variants(vectors, rng):
    """Five grids of one shape, as the sigma candidates might train: the case's own,
    one past the safe reach (every row unsafe), a unit permutation, a copy
    with a tripled unit, and a rescaling."""
    tripled = vectors.copy()
    tripled[-1] = tripled[len(tripled) // 2] = tripled[0]
    far = vectors * (4e153 / np.abs(vectors).max())  # some |w| >= 4e153 > 2**510
    return np.stack([vectors, far, vectors[rng.permutation(len(vectors))], tripled, 0.5 * vectors])


def brute_force_nearest(squared, k, rank):
    """Oracle: a stable argsort of the full N x M distances, first by rank, then index."""
    order = np.argsort(squared if rank is None else rank(squared), axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(squared, order, axis=1)


@pytest.mark.parametrize("rows_per_block", [None, 7], ids=["default-blocks", "7-row-blocks"])
@pytest.mark.parametrize("case", list(NEAREST_CASES))
def test_stacked_search_is_the_per_grid_search_bitwise(case, rows_per_block, monkeypatch):
    # training searches each candidate's grid alone: every one of the five
    # variants, at training's k = 1 and goodness's k = 2 ranked by distance,
    # is the stable argsort of its full distance matrix
    rng = np.random.default_rng(2024)
    values, grid = NEAREST_CASES[case](rng)
    variants = stacked_variants(grid.reference_vectors, rng)
    if rows_per_block is not None:
        monkeypatch.setattr(som, "_BLOCK_PAIRS", rows_per_block * grid.m)
    with np.errstate(over="ignore", invalid="ignore"):
        for vectors in variants:
            every = np.vstack([brute_force_squared(part, vectors)  # in parts of <= 511 rows
                               for part in np.array_split(values, max(1, len(values) // 256))])
            for k, rank in ((1, None), (2, np.sqrt)):
                indices, squared = som._nearest(values, vectors, k, rank)
                expected_indices, expected_squared = brute_force_nearest(every, k, rank)
                assert indices.shape == squared.shape == (len(values), k)
                assert np.array_equal(indices, expected_indices)
                assert np.array_equal(squared.view(np.uint64), expected_squared.view(np.uint64))


def _path_grid(vectors, cols):
    rows = len(vectors) // cols
    return SomGrid(rows, cols, vectors)


def _path_grid_cases():
    rng = np.random.default_rng(31)
    cases = {}
    for _ in range(24):
        rows, cols = (int(x) for x in rng.integers(1, 20, size=2))
        if rows * cols >= 2:
            vectors = rng.standard_normal((rows * cols, int(rng.integers(1, 17))))
            cases[f"random-{rows}x{cols}"] = _path_grid(vectors, cols)
    cases["1x17"] = _path_grid(rng.standard_normal((17, 4)), 17)
    cases["17x1"] = _path_grid(rng.standard_normal((17, 4)), 1)
    duplicated = rng.standard_normal((42, 4))
    duplicated[[1, 7, 8, 15, 20]] = duplicated[14]  # zero-weight edges
    cases["duplicated-units"] = _path_grid(duplicated, 7)
    # a coarse lattice: many equal weights and equal path sums
    cases["rounded-ties"] = _path_grid(np.round(rng.standard_normal((99, 3))), 11)
    for scale in (1e-150, 1e150):
        cases[f"scale-{scale:g}"] = _path_grid(scale * rng.standard_normal((72, 6)), 9)
    huge = rng.standard_normal((56, 5))
    huge[rng.random(56) < 0.4] *= 1e200  # the edge norms of these units overflow to inf
    cases["inf-edges"] = _path_grid(huge, 8)
    return cases


PATH_GRIDS = _path_grid_cases()


@pytest.mark.parametrize("case", list(PATH_GRIDS))
def test_reference_paths_match_scipy_dijkstra_bitwise(case):
    grid = PATH_GRIDS[case]
    m = grid.m
    with np.errstate(over="ignore"):
        expected = scipy_reference_paths(grid)
        every = som._reference_path_lengths(grid, np.repeat(np.arange(m), m), np.tile(np.arange(m), m))
        assert np.array_equal(every.reshape(m, m).view(np.uint64), expected.view(np.uint64))
        rng = np.random.default_rng(m)
        sources = np.unique(rng.integers(0, m, size=max(1, m // 3)))
        starts = rng.choice(sources, size=3 * m)
        ends = rng.integers(0, m, size=3 * m)
        some = som._reference_path_lengths(grid, starts, ends)
        subset = scipy_reference_paths(grid, sources)[np.searchsorted(sources, starts), ends]
        assert np.array_equal(some.view(np.uint64), subset.view(np.uint64))
    if case == "inf-edges":
        assert np.isinf(expected).any() and (np.isfinite(expected) & (expected > 0)).any()
    if case == "duplicated-units":
        assert expected[14, 1] == 0.0


def peak_traced_bytes(search):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((4000, 30))
    grid = SomGrid(20, 20, rng.standard_normal((400, 30)))
    tracemalloc.start()
    try:
        search(values, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


# The N x M x n difference tensor alone is 384 MB; 2**19-pair blocks peak
# above 9 MiB, 2**17-pair ones near 2.5 MiB.
def test_bmu_search_memory_is_bounded_by_a_block():
    assert peak_traced_bytes(bmu_indices) < 6 * 2**20


def test_goodness_search_memory_is_bounded_by_a_block():
    peak = peak_traced_bytes(lambda v, g: som._nearest(v, g.reference_vectors, 2, np.sqrt))
    assert peak < 6 * 2**20


def spy_on_training(monkeypatch):
    """Counts calls and level splits; records each search (k and the vectors
    searched) and each update (its sigma and the vectors it returned)."""
    calls = {"bmu_indices": 0, "batch_epoch": 0, "_split_levels": 0, "searches": [], "updates": []}
    names = ("bmu_indices", "batch_epoch", "_split_levels", "_nearest", "_update")
    real = {name: getattr(som, name) for name in names}

    def counted(name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real[name](*args, **kwargs)
        return wrapper

    def search(values, vectors, k, rank=None):
        calls["searches"].append((k, vectors.copy()))
        return real["_nearest"](values, vectors, k, rank)

    def update(values, levels, vectors, bmus, sigma, planar):
        out = real["_update"](values, levels, vectors, bmus, sigma, planar)
        calls["updates"].append((sigma, out.copy()))
        return out

    spies = (counted("bmu_indices"), counted("batch_epoch"), counted("_split_levels"),
             search, update)
    for name, spy in zip(names, spies):
        monkeypatch.setattr(som, name, spy)
    return calls


def test_train_searches_each_grid_once(iris_std, monkeypatch):
    # batch_epoch searches the initial grid through bmu_indices and the prefix
    # the first epoch's; each of the 3 later steps searches its new grid once
    calls = spy_on_training(monkeypatch)
    result = train(iris_std, 3, 4, TrainConfig(epochs=4, seed=0))
    monkeypatch.undo()
    assert (calls["bmu_indices"], calls["batch_epoch"], calls["_split_levels"]) == (1, 1, 2)
    assert len(calls["updates"]) == 4 and [k for k, _ in calls["searches"]] == [1] * 5
    grids = [vectors for _, vectors in calls["searches"]]
    assert np.array_equal(grids[0], init_grid(3, 4, iris_std).reference_vectors)
    assert len({g.tobytes() for g in grids}) == 5
    assert np.array_equal(grids[-1], result.grid.reference_vectors)
    expected = [brute_force_quantization_error(iris_std.values, g) for g in grids[1:]]
    assert list(result.quantization_errors) == expected


# ----------------------------------------------------------------------------
# automatic sigma selection

def test_select_sigma_single_candidate(iris_std):
    sigma, result, g = select_sigma(iris_std, 3, 3,
                                    TrainConfig(epochs=3, sigma_candidates=(0.9,), seed=0))
    assert sigma == 0.9
    assert result.sigmas[-1] == 0.9
    assert g == goodness(result.grid, iris_std)


def test_select_sigma_returns_argmin():
    data = make_gaussian_clusters(60, 3, seed=1)
    sigma, result, g = select_sigma(data, 4, 4,
                                    TrainConfig(epochs=10, sigma_candidates=(0.5, 1.0), seed=0))
    chosen = goodness(result.grid, data)
    assert g == chosen
    for cand in (0.5, 1.0):
        other = train(data, 4, 4, TrainConfig(epochs=10, sigma_initial=2.0, sigma_final=cand, seed=0))
        assert chosen <= goodness(other.grid, data) + 1e-12


def test_select_sigma_tie_prefers_smaller(monkeypatch):
    # goodness of the maps in ascending sigma: the larger sigma's is lower,
    # but by less than 1e-12, so the two tie and the smaller sigma wins
    scores = iter([1.0 + 1e-13, 1.0])
    monkeypatch.setattr(som, "goodness", lambda grid, data: next(scores))
    data = make_gaussian_clusters(30, 3, seed=2)
    sigma, result, g = select_sigma(data, 3, 3,
                                    TrainConfig(epochs=2, sigma_candidates=(1.0, 0.5), seed=0))
    assert sigma == 0.5 and result.sigmas == (1.5, 0.5) and g == 1.0 + 1e-13


def test_select_sigma_rejects_empty_candidates(iris_std):
    with pytest.raises(ValueError, match="non-empty"):
        select_sigma(iris_std, 3, 3, TrainConfig(epochs=2, sigma_candidates=(), seed=0))


def test_select_sigma_rejects_out_of_range_candidate(iris_std):
    with pytest.raises(ValueError, match="outside"):
        select_sigma(iris_std, 3, 3, TrainConfig(epochs=2, sigma_candidates=(5.0,), seed=0))


def test_select_sigma_trains_only_a_set_sigma_final(iris_std, monkeypatch):
    calls = spy_on_training(monkeypatch)
    sigma, result, g = select_sigma(iris_std, 3, 3, TrainConfig(epochs=2, sigma_final=0.9))
    # the default candidates would have added updates at 0.4, 0.7, 1.0 and 1.5
    assert [s for s, _ in calls["updates"]] == [1.5, 0.9]
    assert sigma == 0.9 and result.sigmas == (1.5, 0.9)
    assert g == goodness(result.grid, iris_std)


def test_select_sigma_rejects_one_unit(iris_std, monkeypatch):
    # rejected before any training
    monkeypatch.setattr(som, "init_grid", None)
    monkeypatch.setattr(som, "batch_epoch", None)
    with pytest.raises(ValueError, match="grid 1x1 has 1 unit; a map needs at least 2"):
        select_sigma(iris_std, 1, 1, TrainConfig(epochs=2))


def separate_train(data, rows, cols, sigma_initial, sigma_final, epochs):
    """Oracle: one schedule trained on its own, epoch by epoch, each error
    from the full distance matrix."""
    sigmas = sigma_schedule(sigma_initial, sigma_final, epochs)
    grid = init_grid(rows, cols, data, seed=0)
    errors = []
    for sigma in sigmas:
        grid = batch_epoch(grid, data, sigma)
        errors.append(brute_force_quantization_error(data.values, grid.reference_vectors))
    return grid, sigmas, tuple(errors)


def assert_same_training(result, grid, sigmas, errors):
    assert np.array_equal(result.grid.reference_vectors.view(np.uint64),
                          grid.reference_vectors.view(np.uint64))
    assert result.sigmas == sigmas
    assert result.quantization_errors == errors


@pytest.mark.parametrize("epochs", [1, 2, 3, 5])
def test_candidates_sharing_their_first_epoch_train_as_if_alone(iris_std, epochs):
    finals = (0.5, 0.8, 1.1)
    cfg = TrainConfig(epochs=epochs, seed=0)
    for sf, result in zip(finals, som._train_schedules(iris_std, 4, 5, cfg, finals)):
        assert_same_training(result, *separate_train(iris_std, 4, 5, 2.5, sf, epochs))
    # one epoch trains with sigma_initial alone, so it takes no candidates or sigma_final
    several = epochs > 1
    sigma, result, _ = select_sigma(
        iris_std, 4, 5, TrainConfig(epochs=epochs, sigma_candidates=finals if several else None))
    alone = train(iris_std, 4, 5,
                  TrainConfig(epochs=epochs, sigma_final=sigma if several else None, seed=0))
    assert_same_training(result, alone.grid, alone.sigmas, alone.quantization_errors)


def test_lockstep_matches_training_alone_through_kmeans_steps_and_dead_units(iris_std):
    # 2 sigma^2 stays normal for the 1e-150 schedule; the other one's last
    # sigma is about 1e-163, whose 2 sigma^2 underflows (the k-means step)
    cfg = TrainConfig(epochs=3, sigma_initial=1e-150, sigma_candidates=(1e-163, 1e-150))
    finals = cfg.final_sigmas(4, 5)
    results = som._train_schedules(iris_std, 4, 5, cfg, finals)
    widths = [-2.0 * r.sigmas[-1] * r.sigmas[-1] for r in results]
    assert widths[0] == 0.0 and widths[1] != 0.0
    dead = 0
    for sf, result in zip(finals, results):
        assert_same_training(result, *separate_train(iris_std, 4, 5, 1e-150, sf, 3))
        units = np.bincount(bmu_indices(iris_std.values, result.grid), minlength=20)
        dead += np.count_nonzero(units == 0)
    assert dead > 0


@pytest.mark.parametrize("candidates", [(0.9,), (0.5, 0.8, 1.1)])
@pytest.mark.parametrize("epochs", [1, 2, 3, 5])
def test_select_sigma_searches_and_updates_the_shared_first_epoch_once(
    iris_std, monkeypatch, candidates, epochs
):
    # the prefix once (2 searches, 1 update), then each candidate's schedule
    # in turn, whose epochs - 1 steps each update its grid and search the
    # grid that update returned; the levels are split once in batch_epoch and
    # once for the rest; goodness searches each result once. One epoch takes
    # no candidates: it trains one map, with sigma_initial alone
    config = TrainConfig(epochs=epochs, sigma_candidates=candidates if epochs > 1 else None)
    finals = config.final_sigmas(3, 4)
    calls = spy_on_training(monkeypatch)
    select_sigma(iris_std, 3, 4, config)
    assert (calls["bmu_indices"], calls["batch_epoch"], calls["_split_levels"]) == (1, 1, 2)
    assert [sigma for sigma, _ in calls["updates"]] == [2.0] + [
        sigma_schedule(2.0, sf, epochs)[step] for sf in finals for step in range(1, epochs)]
    c = len(finals)
    assert [k for k, _ in calls["searches"]] == [1] * (2 + c * (epochs - 1)) + [2] * c
    assert all(vectors.shape == (12, 4) for _, vectors in calls["searches"])
    searched = [vectors for _, vectors in calls["searches"][1:2 + c * (epochs - 1)]]
    assert len(searched) == len(calls["updates"])
    for vectors, (_, updated) in zip(searched, calls["updates"]):
        assert np.array_equal(vectors, updated)


def test_select_sigma_trains_a_repeated_candidate_once(iris_std, monkeypatch):
    calls = spy_on_training(monkeypatch)
    once = select_sigma(iris_std, 3, 4, TrainConfig(epochs=3, sigma_candidates=(0.5,)))
    updates, searches = len(calls["updates"]), len(calls["searches"])
    del calls["updates"][:], calls["searches"][:]
    twice = select_sigma(iris_std, 3, 4, TrainConfig(epochs=3, sigma_candidates=(0.5, 0.5)))
    # the shared first epoch, then one schedule's two steps; goodness searches once
    assert (len(calls["updates"]), len(calls["searches"])) == (updates, searches) == (3, 5)
    assert twice[0] == once[0] == 0.5 and twice[2] == once[2]
    assert_same_training(twice[1], once[1].grid, once[1].sigmas, once[1].quantization_errors)


@pytest.mark.parametrize("config, rows, cols, expected", [
    (TrainConfig(sigma_final=0.9), 3, 3, (0.9,)),
    (TrainConfig(), 3, 3, (0.4, 0.7, 1.0, 1.5)),
    (TrainConfig(), 6, 7, som.DEFAULT_SIGMA_CANDIDATES),
    (TrainConfig(sigma_candidates=(1.1, 0.5, 0.8)), 3, 3, (0.5, 0.8, 1.1)),
    (TrainConfig(sigma_candidates=(0.8, 0.5, 0.8, 0.5, 0.5)), 3, 3, (0.5, 0.8)),
    (TrainConfig(epochs=1), 6, 7, (3.5,)),
], ids=["fixed", "defaults-up-to-initial", "all-defaults",
        "candidates-ascending", "candidates-without-repeats", "one-epoch"])
def test_final_sigmas(config, rows, cols, expected):
    assert config.final_sigmas(rows, cols) == expected


@pytest.mark.parametrize("settings, rows, cols, message", [
    (dict(sigma_candidates=()), 3, 3, "sigma_candidates must be non-empty"),
    (dict(sigma_candidates=(0.4, 5.0)), 3, 3, r"sigma candidate 5.0 outside \(0, "),
    (dict(sigma_candidates=(0.0,)), 3, 3, "outside"),
    (dict(sigma_initial=0.3), 3, 3, "no default sigma candidate fits"),
    (dict(sigma_initial=0.5, sigma_final=2.0), 3, 3, "need 0 < sigma_final"),
    (dict(sigma_initial=-1.0), 6, 7, "sigma_initial must be positive, got -1.0"),
    (dict(sigma_initial=float("nan")), 6, 7, "sigma_initial must be positive, got nan"),
    (dict(sigma_final=-1.0), 6, 7, "sigma_final must be positive, got -1.0"),
    (dict(sigma_final=0.0), 6, 7, "sigma_final must be positive, got 0.0"),
    (dict(sigma_final=float("nan")), 6, 7, "sigma_final must be positive, got nan"),
    (dict(), 0, 3, "grid must have at least one row and one column"),
    (dict(sigma_final=0.5), 3, 0, "grid must have at least one row and one column"),
    (dict(), 1, 1, "grid 1x1 has 1 unit; a map needs at least 2"),
    (dict(sigma_initial=3.0, sigma_candidates=(0.4, 0.7)), 1, 1, "grid 1x1 has 1"),
    (dict(sigma_final=0.5), 1, 1, "grid 1x1 has 1 unit"),
    (dict(sigma_final=0.9, sigma_candidates=(0.7, 0.4)), 3, 3,
     r"sigma_final 0.9 is fixed, so sigma_candidates \[0.4, 0.7\] would never be tried"),
    (dict(seed=-1), 3, 3, "^seed must be >= 0, got -1$"),
    (dict(epochs=1, sigma_final=0.2), 6, 7,
     "one epoch trains with sigma_initial alone, so sigma_final 0.2 would never be used"),
    (dict(epochs=1, sigma_candidates=(0.7, 0.4)), 6, 7,
     r"so sigma_candidates \(0.4, 0.7\) would never be used"),
], ids=["empty", "out-of-range", "zero", "no-default-fits", "final-above-initial",
        "initial-negative", "initial-nan", "final-negative", "final-zero", "final-nan",
        "grid-0x3", "grid-3x0", "one-unit", "one-unit-over-candidates", "one-unit-fixed",
        "fixed-over-candidates", "seed-negative", "one-epoch-final", "one-epoch-candidates"])
def test_final_sigmas_rejects(settings, rows, cols, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**settings).final_sigmas(rows, cols)


def test_train_rejects_sigma_candidates(iris_std, monkeypatch):
    monkeypatch.setattr(som, "init_grid", None)  # rejected before any training
    with pytest.raises(ValueError, match=r"train takes no sigma_candidates \[0.5, 0.8\]; "
                                         "select_sigma chooses among them"):
        train(iris_std, 3, 3, TrainConfig(epochs=2, sigma_candidates=(0.8, 0.5)))


# ----------------------------------------------------------------------------
# serialization

def test_grid_dict_roundtrip(iris_std):
    grid = train(iris_std, 3, 4, TrainConfig(epochs=2, seed=0)).grid
    payload = grid_to_dict(grid, {"epochs": 2})
    back, meta = grid_from_dict(payload)
    assert np.array_equal(back.reference_vectors, grid.reference_vectors)
    assert back.rows == grid.rows and back.cols == grid.cols
    assert meta == {"epochs": 2}


def test_grid_from_dict_rejects_wrong_schema():
    with pytest.raises(ValueError, match="schema version mismatch"):
        grid_from_dict({"kind": "som_grid", "schema_version": 2})


def test_grid_from_dict_rejects_a_json_array():
    with pytest.raises(ValueError, match="got kind=None schema_version=None"):
        grid_from_dict([])
