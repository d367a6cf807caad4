"""Batch Self-Organizing Map on a 2D hexagonal grid.

Training alternates best-matching-unit assignment with a neighborhood-weighted
averaging update (Gaussian kernel over planar grid distances, width sigma
decaying linearly per epoch). The neighborhood width can be chosen
automatically by minimizing a map-goodness measure that combines the distance
to the second-best unit with the shortest reference-vector path between the
best and second-best units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import DataMatrix
from .envelope import check_envelope, envelope, field, finite_matrix

__all__ = [
    "DEFAULT_SIGMA_CANDIDATES",
    "SomGrid",
    "TrainConfig",
    "TrainResult",
    "hex_positions",
    "init_grid",
    "bmu_indices",
    "batch_epoch",
    "sigma_schedule",
    "train",
    "quantization_error",
    "goodness",
    "select_sigma",
    "grid_to_dict",
    "grid_from_dict",
]

DEFAULT_SIGMA_CANDIDATES = (0.4, 0.7, 1.0, 1.5, 2.0)


def hex_positions(rows: int, cols: int) -> np.ndarray:
    """Planar coordinates of an offset hexagonal lattice, row-major order.

    Unit (r, c) sits at x = c + 0.5*(r % 2), y = r*sqrt(3)/2, which puts every
    pair of lattice-adjacent units at distance 1.
    """
    r_idx, c_idx = np.divmod(np.arange(rows * cols), cols)
    x = c_idx + 0.5 * (r_idx % 2)
    y = r_idx * (math.sqrt(3.0) / 2.0)
    return np.column_stack([x, y]).astype(float)


@dataclass(frozen=True)
class SomGrid:
    """R x C hexagonal lattice of n-dimensional reference vectors."""

    rows: int
    cols: int
    reference_vectors: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.reference_vectors, dtype=float)
        object.__setattr__(self, "reference_vectors", vec)
        m = self.rows * self.cols
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if vec.ndim != 2 or vec.shape[0] != m:
            raise ValueError(f"reference_vectors shape {vec.shape}, expected ({m}, n)")
        if not np.all(np.isfinite(vec)):
            raise ValueError("reference vectors must be finite")

    @property
    def unit_positions(self) -> np.ndarray:
        """Planar unit coordinates: always hex_positions(rows, cols)."""
        return hex_positions(self.rows, self.cols)

    @property
    def m(self) -> int:
        return self.rows * self.cols

    @property
    def dim(self) -> int:
        return self.reference_vectors.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Batch-training parameters.

    sigma_initial defaults to max(rows, cols)/2 and sigma_final to
    min(1, sigma_initial); both are resolved against the grid shape at
    training time. sigma_candidates, kept ascending without repeats, are
    the final sigmas select_sigma tries. final_sigmas says which apply.
    """

    epochs: int = 40
    sigma_initial: float | None = None
    sigma_final: float | None = None
    sigma_candidates: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("sigma_initial", "sigma_final"):
            sigma = getattr(self, name)
            if sigma is not None and not (sigma > 0):  # negated, so that NaN fails too
                raise ValueError(f"{name} must be positive, got {sigma}")
        if self.sigma_candidates is not None:
            cands = tuple(sorted(set(map(float, self.sigma_candidates))))
            object.__setattr__(self, "sigma_candidates", cands)
            if not cands:
                raise ValueError("sigma_candidates must be non-empty")
            if self.sigma_final is not None:
                raise ValueError(f"sigma_final {self.sigma_final} is fixed, so sigma_candidates "
                                 f"{list(cands)} would never be tried")
        if self.epochs == 1:
            for name in ("sigma_final", "sigma_candidates"):
                if getattr(self, name) is not None:
                    raise ValueError(f"one epoch trains with sigma_initial alone, so {name} "
                                     f"{getattr(self, name)} would never be used")

    def resolved_initial(self, rows: int, cols: int) -> float:
        si = self.sigma_initial if self.sigma_initial is not None else max(rows, cols) / 2.0
        return float(si)

    def resolved_sigmas(self, rows: int, cols: int) -> tuple[float, float]:
        si = self.resolved_initial(rows, cols)
        sf = self.sigma_final if self.sigma_final is not None else min(1.0, si)
        if not (0.0 < sf <= si):
            raise ValueError(f"need 0 < sigma_final <= sigma_initial, got {sf} > {si}")
        return si, float(sf)

    def final_sigmas(self, rows: int, cols: int) -> tuple[float, ...]:
        """The final sigmas a rows x cols map is trained with, ascending and checked.

        sigma_initial alone at one epoch, and sigma_final alone when it is
        set. Otherwise the ones to choose from (final sigmas tried with
        sigma_initial fixed): sigma_candidates, or the defaults up to
        sigma_initial. A grid needs at least 2 units, as goodness, the
        projection and the coloring do, and each final sigma's schedule must
        be one sigma_schedule accepts.
        """
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if rows * cols < 2:
            raise ValueError(f"grid {rows}x{cols} has 1 unit; a map needs at least 2")
        si = self.resolved_initial(rows, cols)
        if self.epochs == 1:
            cands = (si,)
        elif self.sigma_final is not None:
            cands = (self.resolved_sigmas(rows, cols)[1],)
        elif self.sigma_candidates is None:
            cands = tuple(s for s in DEFAULT_SIGMA_CANDIDATES if s <= si)
            if not cands:
                raise ValueError(f"no default sigma candidate fits sigma_initial={si}")
        else:
            cands = self.sigma_candidates
            for s in cands:
                if not (0.0 < s <= si):
                    raise ValueError(f"sigma candidate {s} outside (0, sigma_initial={si}]")
        for s in cands:
            sigma_schedule(si, s, self.epochs)
        return cands


@dataclass(frozen=True)
class TrainResult:
    """Trained grid plus the per-epoch sigma schedule and quantization errors."""

    grid: SomGrid
    sigmas: tuple[float, ...]
    quantization_errors: tuple[float, ...]


def _principal_axes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Top-2 covariance eigenpairs (descending), deterministic signs."""
    n = values.shape[1]
    if values.shape[0] < 2:
        return np.zeros(2), np.zeros((2, n))
    cov = np.atleast_2d(np.cov(values, rowvar=False, ddof=1))
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:2]
    lams = np.zeros(2)
    axes = np.zeros((2, n))
    for k, i in enumerate(order):
        lams[k] = max(float(evals[i]), 0.0)
        v = evecs[:, i]
        j = int(np.argmax(np.abs(v)))
        axes[k] = -v if v[j] < 0 else v
    return lams, axes


def init_grid(rows: int, cols: int, data: DataMatrix, seed: int = 0) -> SomGrid:
    """Deterministic initialization on the plane of the top-2 principal components.

    Reference vectors are spread linearly across +-2 standard deviations of
    each component score, with the longer grid dimension following the first
    component. A degenerate component (rank-deficient data) falls back to a
    seeded pseudo-random direction with spread magnitude 1e-3.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid must have at least one row and one column")
    m = rows * cols
    if m > data.n_rows * 100:
        raise ValueError(
            f"{rows}x{cols} grid ({m} units) for {data.n_rows} data rows; "
            "grids more than 100x larger than the data are rejected"
        )
    values = data.values
    mean = values.mean(axis=0)
    lams, axes = _principal_axes(values)
    rng = None  # made on first use: importing numpy.random costs several MB of memory
    thresh = lams[0] * 1e-10
    spans = np.empty(2)
    for k in range(2):
        if lams[k] <= thresh or lams[k] == 0.0:
            if rng is None:
                rng = np.random.default_rng(seed)
            direction = rng.standard_normal(data.n_cols)
            norm = np.linalg.norm(direction)
            axes[k] = direction / norm if norm > 0 else np.eye(data.n_cols)[0]
            spans[k] = 1e-3
        else:
            spans[k] = 2.0 * math.sqrt(lams[k])

    t_col = np.zeros(cols) if cols == 1 else 2.0 * np.arange(cols) / (cols - 1) - 1.0
    t_row = np.zeros(rows) if rows == 1 else 2.0 * np.arange(rows) / (rows - 1) - 1.0
    r, c = np.divmod(np.arange(m), cols)  # unit order of hex_positions
    # longer grid dimension follows the first (largest-variance) component
    t1, t2 = (t_row[r], t_col[c]) if rows > cols else (t_col[c], t_row[r])
    vectors = (
        mean[None, :]
        + np.outer(t1 * spans[0], axes[0])
        + np.outer(t2 * spans[1], axes[1])
    )
    return SomGrid(rows, cols, vectors)


def bmu_indices(values: np.ndarray, grid: SomGrid) -> np.ndarray:
    """Vectorized BMU lookup for every row of `values` (lowest-index ties)."""
    return _nearest(np.asarray(values, dtype=float), grid.reference_vectors, 1)[0][:, 0]


# Rows x units searched at once: the GEMM block and its copies, not N x M x n,
# bound the memory of a nearest-unit search; nothing else is blocked by it.
# 2**17 pairs make a 1 MB block of s, which stays in a 2 MiB L2 cache through
# its elementwise passes.
_BLOCK_PAIRS = 1 << 17
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SMALLEST_SUBNORMAL = np.finfo(float).smallest_subnormal
# Below this `reach` no intermediate of s or of the margin can overflow.
_SAFE_REACH = 2.0**510


def _nearest(values: np.ndarray, vectors: np.ndarray, k: int, rank=None):
    """Each row's k nearest units, nearest first, with exact squared distances.

    Returns (indices, squared), both N x k. Units are ordered by
    rank(squared) (by default the squared distance itself) and then by index,
    so ties go to the lowest index. squared[i, j] is the same float as
    einsum("ijk,ijk->ij") over all N x M differences would give, so the
    choice is too; only the candidates are computed that way.
    """
    if values.ndim != 2:
        raise ValueError(f"data must be 2-dimensional, got shape {values.shape}")
    n = vectors.shape[1]
    if values.shape[1] != n:
        raise ValueError(f"data of dimension {values.shape[1]} against grid of dim {n}")
    x2 = np.einsum("ij,ij->i", values, values)
    w2 = np.einsum("ij,ij->i", vectors, vectors)
    # Rounding bound. With u = 2**-53, g_m = m u / (1 - m u), D = |x - w|^2
    # and S = |x| + max|w| (`reach`), any summation order, FMA use or thread
    # split gives (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3):
    #   the GEMM form  s = |w|^2 - 2 x.w:       |s + |x|^2 - D| <= g_{n+2} S^2,
    #   the einsum     d = sum_k (x_k - w_k)^2:  |d - D| <= g_{n+2} D <= g_{n+2} S^2.
    # Scaling w by -2 is exact, the GEMM's error is at most g_n 2|x||w|, that
    # of |w|^2 at most g_n |w|^2, and the last addition adds u |s|. The row
    # constant |x|^2 is left out of s, as it moves no comparison within a row:
    # for s' = s + |x|^2 (exact), |s' - d| <= e = 2 g_{n+2} S^2. Let t be the
    # row's k-th smallest s, so t' = t + |x|^2 is the k-th smallest s', and
    # let v be its k-th smallest d. The k units with s' <= t' have d <= t' + e,
    # so v <= t' + e. A unit among the top k has rank(d) <= rank(v); for sqrt,
    # which can round two squared distances to one value, that gives
    # d <= v (1 + 5u). Hence its s' <= d + e <= t' + 2e + 5u (t' + e), that is
    # s <= t + 2e + 5u (t' + e) with t' <= S^2 (1 + g_{n+2}). `margin` exceeds
    # that twice over to first order in n u, which covers the rounding of S,
    # of the margin and of t + margin (|t| <= S^2 (1 + g_{n+2}) too). Its
    # subnormal term covers products that underflow. This assumes a
    # conventional GEMM (each entry a sum of n products), not a Strassen-like
    # one. With S <= 2**510, every intermediate is below S^2 (1 + g_{n+2}) <
    # 2**1021; a row past that, or with a NaN, keeps every unit.
    # A safe row whose (k + 1)-th smallest s exceeds t + margin has only the
    # k units with s <= t as candidates, so they are its top k unchanged.
    reach = np.sqrt(x2) + np.sqrt(w2.max())
    margin = 8 * (n + 4) * (_UNIT_ROUNDOFF * reach * reach + _SMALLEST_SUBNORMAL)
    unsafe = ~(reach <= _SAFE_REACH)
    scaled = -2.0 * vectors.T
    indices = np.empty((len(values), k), dtype=np.intp)
    squared = np.empty((len(values), k))
    step = max(1, _BLOCK_PAIRS // len(vectors))
    for lo in range(0, len(values), step):
        x = values[lo:lo + step]
        s = x @ scaled
        s += w2
        # hide the k smallest; what is left has the (k + 1)-th smallest (inf if M == k)
        at = np.arange(len(x))
        near = np.empty((len(x), k), dtype=np.intp)
        for i in range(k):
            near[:, i] = j = s.argmin(axis=1)
            kth = s[at, j]
            s[at, j] = np.inf
        bound = kth + margin[lo:lo + step]
        clear = (s.min(axis=1) > bound) & ~unsafe[lo:lo + step]

        # every row's k hidden units, ordered by rank(squared), then index:
        # the answer for clear rows; the rows below overwrite the others
        diff = x[:, None] - vectors[near]
        d = np.einsum("ijk,ijk->ij", diff, diff)
        if k > 1:
            order = np.lexsort((near, d if rank is None else rank(d)), axis=1)
            near, d = near[at[:, None], order], d[at[:, None], order]
        indices[lo:lo + step] = near
        squared[lo:lo + step] = d

        # the other rows: the hidden k and every unit with s <= t + margin (all if unsafe)
        rows = np.flatnonzero(~clear)
        if not rows.size:
            continue
        keep = s[rows] <= bound[rows, None]
        keep[np.arange(rows.size)[:, None], near[rows]] = True
        keep[unsafe[lo + rows]] = True
        r, c = np.divmod(np.flatnonzero(keep), len(vectors))
        diff = x[rows[r]] - vectors[c]
        d = np.einsum("ij,ij->i", diff, diff)
        order = np.lexsort((c, d if rank is None else rank(d), r))
        counts = np.bincount(r, minlength=rows.size)
        first = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        indices[lo + rows] = c[first]
        squared[lo + rows] = d[first]
    return indices, squared


def _split_levels(values: np.ndarray) -> np.ndarray:
    """The rows of `values` split into levels whose sums are exact.

    Returns a K x N x n array (K >= 1) whose K entries for row i and column j
    add up exactly to values[i, j]. Each pass is the error-free extraction of
    Rump, Ogita and Oishi 2008 ("Accurate floating-point summation, part I").
    With |v| < 2**e over a column and sigma = 2**(e + b), where
    2**(b - 1) > N, p = (sigma + v) - sigma and v - p are both exact, every p
    is a multiple of ulp(sigma) / 2 and |p| <= 2**e. So any partial sum of up
    to N of them is such a multiple below sigma / 2, which a double holds
    exactly: the sum of a level over any group of rows is exact, in any
    order. What is left, v - p, is at most ulp(sigma) / 2, so each pass takes
    52 - b bits off the top until nothing is left. A column where sigma would
    not be finite is left out: its levels are zero. sigma depends only on N
    and the column's max |v|, so a row's levels do not depend on the order
    or the grouping of the rows, and one split serves every grouping.
    """
    rest = values.copy()
    b = len(rest).bit_length() + 1
    levels = []
    top = np.abs(rest).max(axis=0)
    fits = np.isfinite(top) & (np.frexp(top)[1] + b <= 1023)
    rest[:, ~fits] = top[~fits] = 0.0
    while True:  # at least one level, so that every group has a sum
        sigma = np.ldexp(1.0, np.frexp(top)[1] + b)
        p = rest + sigma
        p -= sigma
        rest -= p
        levels.append(p)
        top = np.abs(rest).max(axis=0)
        if not top.any():
            return np.array(levels)


def _group_sums(values: np.ndarray, levels: np.ndarray, bmus: np.ndarray, m: int):
    """Per-unit sums of the rows each unit attracts, and their counts.

    levels is _split_levels(values) and bmus the unit of each row; the sums
    are M x n and the counts M. Each sum is math.fsum's, the exact sum
    rounded once, so it does not depend on row order (batch_epoch stays
    bit-identical under data permutations). Each level's per-unit sums are
    exact, and math.fsum over them rounds their total. A sum whose levels
    are all zero (a column that _split_levels leaves out, or a sum that is
    exactly zero, whose sign fsum takes from the rows) is math.fsum over the
    rows themselves.
    """
    counts = np.bincount(bmus, minlength=m)
    live = np.flatnonzero(counts)
    stops = np.cumsum(counts)[live]
    starts = stops - counts[live]
    order = np.argsort(bmus, kind="stable")  # rows, by unit
    parts = np.array([np.add.reduceat(np.take(level, order, axis=0), starts, axis=0)
                      for level in levels])
    sums = np.zeros((m, values.shape[1]))
    cells = zip(*parts.reshape(len(parts), -1).tolist())
    sums[live] = np.reshape(list(map(math.fsum, cells)), parts.shape[1:])
    for g, j in zip(*np.nonzero(~parts.any(axis=0))):
        sums[live[g], j] = math.fsum(values[order[starts[g]:stops[g]], j].tolist())
    return sums, counts


def _planar_squared_distances(rows: int, cols: int) -> np.ndarray:
    """(x_i - x_j)^2 + (y_i - y_j)^2 over the lattice: the same sums as an
    einsum over the M x M x 2 differences, without that tensor."""
    dx, dy = (np.subtract.outer(p, p) for p in hex_positions(rows, cols).T)
    return dx * dx + dy * dy


def _update(values, levels, vectors, bmus, sigma, planar):
    """batch_epoch's update of one grid's M x n vectors, at width sigma.

    levels is _split_levels(values), bmus the unit of each row and planar
    the lattice's _planar_squared_distances.
    """
    sums, counts = _group_sums(values, levels, bmus, len(planar))
    live = np.flatnonzero(counts)
    # exp(d / -(2 sigma^2)), which rounds as exp(-d / (2 sigma^2)) does; if
    # 2 sigma^2 underflows, the zero-width kernel: 1 at distance 0 only
    width = -2.0 * sigma * sigma
    with np.errstate(under="ignore"):
        weights = np.exp(planar[live] / width) if width else planar[live] == 0.0
    # each column, counts last, sums the live units' terms in unit order,
    # from +0.0, as a running sum over the units would: deterministic
    terms = np.column_stack([
        np.add.reduce(weights * column[:, None], axis=0, initial=0.0)
        for column in np.column_stack([sums[live], counts[live]]).T
    ])
    alive = terms[:, -1] > 0.0
    out = vectors.copy()
    out[alive] = terms[alive, :-1] / terms[alive, -1:]
    return out


def batch_epoch(grid: SomGrid, data: DataMatrix, sigma: float) -> SomGrid:
    """One batch update: every unit moves to the kernel-weighted data average.

    New vector m_i = sum_j h(c(j), i) x_j / sum_j h(c(j), i) with
    h(c, i) = exp(-||p_c - p_i||^2 / (2 sigma^2)) over planar unit positions.
    A sigma so small that 2 sigma^2 underflows to zero gives that kernel's
    limit, 1 at distance 0 and 0 elsewhere: each unit takes the mean of its
    own rows, a k-means step. Units receiving zero total weight (all kernel
    values underflow) keep their previous vector.
    """
    if not (sigma > 0):  # negated, so that NaN fails too
        raise ValueError(f"sigma must be positive, got {sigma}")
    values = data.values
    bmus = bmu_indices(values, grid)
    planar = _planar_squared_distances(grid.rows, grid.cols)
    vectors = _update(values, _split_levels(values), grid.reference_vectors, bmus, sigma, planar)
    return SomGrid(grid.rows, grid.cols, vectors)


def sigma_schedule(sigma_initial: float, sigma_final: float, epochs: int) -> tuple[float, ...]:
    """Linear decay from sigma_initial to sigma_final over `epochs` epochs.

    A sigma_final so far below sigma_initial that the last step rounds to
    zero (sigma_initial + (sigma_final - sigma_initial) cancels) is rejected.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    for name, sigma in (("sigma_initial", sigma_initial), ("sigma_final", sigma_final)):
        if not (sigma > 0):  # negated, so that NaN fails too
            raise ValueError(f"{name} must be positive, got {sigma}")
    if epochs == 1:
        return (float(sigma_initial),)
    steps = np.arange(epochs) / (epochs - 1)
    sigmas = tuple((sigma_initial + (sigma_final - sigma_initial) * steps).tolist())
    if not (sigmas[-1] > 0):
        raise ValueError(
            f"sigma_final {sigma_final} is too small against sigma_initial "
            f"{sigma_initial}: the linear schedule rounds its last sigma to {sigmas[-1]}"
        )
    return sigmas


def train(data: DataMatrix, rows: int, cols: int, config: TrainConfig) -> TrainResult:
    """Run the full batch schedule; deterministic given data and config.

    The result is bit for bit the one select_sigma gives for the same final
    sigma.
    """
    if config.sigma_candidates is not None:
        raise ValueError(f"train takes no sigma_candidates {list(config.sigma_candidates)}; "
                         "select_sigma chooses among them")
    sf = config.resolved_sigmas(rows, cols)[1]
    return _train_schedules(data, rows, cols, config, (sf,))[0]


def _train_schedules(
    data: DataMatrix, rows: int, cols: int, config: TrainConfig, finals: tuple[float, ...]
) -> list[TrainResult]:
    """One trained map per final sigma in `finals`, each from config's sigma_initial.

    Every schedule's first sigma is sigma_initial exactly (si + (sf - si) * 0.0),
    so all maps share the initial grid, the first epoch and the search after
    it: that prefix is trained once. Each schedule then goes on alone; each
    later epoch is one _update, then one _nearest search, whose squared
    distances also give the quantization error. The rows are split into
    levels twice: inside the shared first epoch's batch_epoch, and once more
    for every later update. Every result is the one a separate run of its
    schedule gives, bit for bit.
    """
    si = config.resolved_initial(rows, cols)
    schedules = [sigma_schedule(si, sf, config.epochs) for sf in finals]
    values = data.values
    grid = batch_epoch(init_grid(rows, cols, data, config.seed), data, si)
    first_bmus, squared = _nearest(values, grid.reference_vectors, 1)
    first_error = _quantization_error(squared)
    levels = _split_levels(values)
    planar = _planar_squared_distances(rows, cols)
    results = []
    for sigmas in schedules:
        vectors, bmus, errors = grid.reference_vectors, first_bmus[:, 0], [first_error]
        for sigma in sigmas[1:]:
            vectors = _update(values, levels, vectors, bmus, sigma, planar)
            indices, squared = _nearest(values, vectors, 1)
            bmus = indices[:, 0]
            errors.append(_quantization_error(squared))
        results.append(TrainResult(SomGrid(rows, cols, vectors), sigmas, tuple(errors)))
    return results


def _quantization_error(squared: np.ndarray) -> float:
    """Mean distance to the best unit, from a k = 1 search's N x 1 squared distances."""
    return float(np.mean(np.sqrt(squared[:, 0])))


def quantization_error(grid: SomGrid, data: DataMatrix) -> float:
    """Mean distance from each data point to its best-matching unit."""
    return _quantization_error(_nearest(data.values, grid.reference_vectors, 1)[1])


def _neighbor_table(grid: SomGrid) -> tuple[np.ndarray, np.ndarray]:
    """Each unit's lattice neighbors and the reference-vector distances to them.

    Neighbors are the units at planar distance 1; any other two units are at
    least sqrt(3) apart. Returns two M x 6 arrays, neighbors in unit order; a
    missing neighbor is the unit itself at weight inf.
    """
    m = grid.m
    i, j = np.nonzero(np.abs(_planar_squared_distances(grid.rows, grid.cols) - 1.0) < 0.5)
    slot = np.arange(len(i)) - np.searchsorted(i, i)  # position within unit i's row
    vec = grid.reference_vectors
    neighbors = np.repeat(np.arange(m)[:, None], 6, axis=1)
    weights = np.full((m, 6), np.inf)
    neighbors[i, slot] = j
    weights[i, slot] = np.linalg.norm(vec[i] - vec[j], axis=1)
    return neighbors, weights


def _reference_path_lengths(grid: SomGrid, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Shortest path from unit starts[i] to unit ends[i], for each i.

    Steps move between lattice-adjacent units and cost the input-space
    distance between their reference vectors. Dijkstra's search runs from
    every distinct start at once, settling one unit per start per step, and a
    start stops once all its ends are settled. The weights are nonnegative
    and a rounded addition fl(d + w) is never below d and is monotone in d,
    so a settled length is the least left-to-right rounded sum over all paths
    (Knuth 1977, "A generalization of Dijkstra's algorithm"): the same float
    that any exact shortest-path search over these weights returns.
    """
    neighbors, weights = _neighbor_table(grid)
    sources, row = np.unique(starts, return_inverse=True)
    pending = np.zeros((len(sources), grid.m), dtype=bool)
    pending[row, ends] = True
    left = pending.sum(axis=1)
    dist = np.full((len(sources), grid.m), np.inf)
    dist[np.arange(len(sources)), sources] = 0.0
    frontier = dist.copy()  # dist of the units not yet settled, inf once settled
    lengths = np.empty_like(dist)
    active = np.arange(len(sources))  # the start each row of the arrays belongs to
    while active.size:
        at = np.arange(active.size)
        u = frontier.argmin(axis=1)
        du = frontier[at, u]
        frontier[at, u] = np.inf
        left -= pending[at, u]
        # a settled unit already has dist <= du <= fl(du + w), so it never improves
        v = neighbors[u]
        via_u = du[:, None] + weights[u]
        better = via_u < dist[at[:, None], v]
        at_b, v_b = np.nonzero(better)[0], v[better]
        dist[at_b, v_b] = frontier[at_b, v_b] = via_u[better]
        done = (left == 0) | (du == np.inf)  # inf: the rest is unreachable
        if done.any():
            lengths[active[done]] = dist[done]
            keep = ~done
            active, dist, frontier, pending, left = (
                active[keep], dist[keep], frontier[keep], pending[keep], left[keep]
            )
    return lengths[row, ends]


def goodness(grid: SomGrid, data: DataMatrix) -> float:
    """Map-goodness measure over the data (lower is better).

    For each data point: distance to its second-nearest unit plus the
    shortest path from the best to the second-best unit, where path steps
    move between lattice-adjacent units and cost the input-space distance
    between their reference vectors.
    """
    if grid.m < 2:
        raise ValueError("goodness needs at least 2 units (second-best undefined)")
    # ranked by distance, not its square, with ties to the lower index
    nearest, squared = _nearest(data.values, grid.reference_vectors, 2, np.sqrt)
    best, second = nearest.T
    path_dist = _reference_path_lengths(grid, best, second)
    return float(np.mean(np.sqrt(squared[:, 1]) + path_dist))


def select_sigma(
    data: DataMatrix, rows: int, cols: int, config: TrainConfig
) -> tuple[float, TrainResult, float]:
    """Train one SOM per final sigma of config.final_sigmas and keep the best map.

    Returns the sigma minimizing goodness together with its trained result
    and its goodness; goodness ties within 1e-12 resolve to the smaller
    sigma. The candidates share their first epoch (_train_schedules); each
    result is bit for bit train's for that final sigma.
    """
    finals = config.final_sigmas(rows, cols)
    results = [
        (sf, result, goodness(result.grid, data))
        for sf, result in zip(finals, _train_schedules(data, rows, cols, config, finals))
    ]
    best_g = min(g for _, _, g in results)
    return next(r for r in results if r[2] <= best_g + 1e-12)  # ascending: smallest sigma wins


def grid_to_dict(grid: SomGrid, training_metadata: dict) -> dict:
    """Grid payload, reference vectors as an array (positions are implied by rows/cols)."""
    return {
        **envelope("som_grid"),
        "rows": grid.rows,
        "cols": grid.cols,
        "dim": grid.dim,
        "reference_vectors": grid.reference_vectors,
        "training_metadata": training_metadata,
    }


def _integer_field(payload: dict, key: str) -> int:
    """A grid size field; only a JSON integer (not a bool, float or string) is taken."""
    value = field(payload, "som_grid", key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"som_grid.{key} must be an integer, got {value!r}")
    return value


def grid_from_dict(payload: dict) -> tuple[SomGrid, dict]:
    """Inverse of grid_to_dict; validates the schema envelope."""
    check_envelope(payload, "som_grid")
    rows, cols, dim = (_integer_field(payload, k) for k in ("rows", "cols", "dim"))
    vectors = finite_matrix(payload, "som_grid", "reference_vectors", dim)
    if rows * cols != len(vectors):
        raise ValueError(
            f"som_grid.rows x som_grid.cols is {rows}x{cols} = {rows * cols} units, "
            f"but som_grid.reference_vectors has {len(vectors)}"
        )
    return SomGrid(rows, cols, vectors), dict(payload.get("training_metadata", {}))
