"""Distance-preserving 2D embeddings by stress-minimizing gradient descent.

Three objectives over pairwise distances are supported: plain metric stress
(sum of squared distance errors), the Sammon variant that weights each pair by
its inverse input distance, and a localized variant that restricts attraction
to a k-nearest-neighbor pair set and adds a repulsion term on all remaining
pairs. Each method is one objective that gives the stress and its gradient
from a single pass over the output distances. Descent starts from classical
(Torgerson) scaling and uses an adaptive step: halved whenever a trial
increases stress, grown by 1.2x on success.

The raw embedding is post-processed for coloring by rotating it onto its own
principal axes and min-max scaling each axis to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProjectionConfig",
    "ProjectionResult",
    "pairwise_distances",
    "mds_stress",
    "sammon_stress",
    "lmds_stress",
    "knn_pairs",
    "classical_scaling",
    "project",
    "align_axes",
    "normalize_components",
]

METHODS = ("metric_mds", "sammon", "lmds")

_MAX_HALVINGS = 60


@dataclass(frozen=True)
class ProjectionConfig:
    """Projection method and optimizer controls.

    k_neighbors and repulsion_t apply to the localized method only, and any
    other method rejects them; left at None they default to max(4,
    ceil(0.05*M)) capped at M-1, and to 1% of the attraction term at the
    initial layout, respectively.
    """

    method: str = "sammon"
    k_neighbors: int | None = None
    repulsion_t: float | None = None
    max_iterations: int = 2000
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.k_neighbors is not None and self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {self.k_neighbors}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # a positive tolerance is below inf, and NaN fails every comparison
        if not (0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.repulsion_t is not None and not (0 <= self.repulsion_t < math.inf):
            raise ValueError(f"repulsion_t must be finite and nonnegative, got {self.repulsion_t}")
        if self.method != "lmds":
            for key in ("k_neighbors", "repulsion_t"):
                if getattr(self, key) is not None:
                    raise ValueError(f"{key} applies to the lmds method only, not {self.method}")

    def neighbor_count(self, m: int) -> int:
        """The localized method's k for m points: k_neighbors or its default."""
        k = self.k_neighbors
        if k is None:
            k = min(max(4, math.ceil(0.05 * m)), m - 1)
        _check_neighbor_count(k, m)
        return k


@dataclass(frozen=True)
class ProjectionResult:
    """Embedding plus the optimizer trace needed for diagnostics."""

    points: np.ndarray
    stress: float
    iterations: int
    stress_history: tuple[float, ...]
    method: str
    k_neighbors: int | None = None
    repulsion_t: float | None = None


# Differences pairwise_distances holds at once for 3 or more columns (1 MB).
_BLOCK_ENTRIES = 1 << 17


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix with an exactly zero diagonal."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2:
        raise ValueError(f"vectors must be 2-dimensional, got shape {vectors.shape}")
    if not np.all(np.isfinite(vectors)):
        raise ValueError("vectors must be finite")
    if vectors.shape[1] in (1, 2):
        # Column by column: the same sums as the einsum below, without its
        # M x M x n tensor. For n >= 3 the einsum adds in another order.
        d = _column_differences(vectors[:, 0])
        d *= d
        if vectors.shape[1] == 2:
            diff = _column_differences(vectors[:, 1])
            diff *= diff
            d += diff
        np.sqrt(d, out=d)
    else:
        # the einsum over the M x M x n differences, a block of rows at a
        # time: each entry is the same sum, without the whole tensor
        d = np.empty((len(vectors), len(vectors)))
        step = max(1, _BLOCK_ENTRIES // vectors.size)
        for lo in range(0, len(vectors), step):
            diff = vectors[lo:lo + step, None, :] - vectors[None, :, :]
            np.einsum("ijk,ijk->ij", diff, diff, out=d[lo:lo + step])
        np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _column_differences(a: np.ndarray) -> np.ndarray:
    """a[i] - a[j] for every i, j, as one K = 2 product [a, 1] @ [1; -a].

    Both products multiply by +-1, so they are exact, and their sum is rounded
    once to a[i] - a[j] in either order, with or without FMA, at any BLAS
    thread count. Only a zero's sign may differ from np.subtract.outer, which
    is slower because it calls its inner loop once per row.
    """
    m = a.shape[0]
    left = np.ones((m, 2))
    left[:, 0] = a
    right = np.ones((2, m))
    np.negative(a, out=right[1])
    return left @ right


def _check_sizes(dx: np.ndarray, y: np.ndarray):
    if dx.shape[0] != dx.shape[1] or dx.shape[0] != y.shape[0] or y.shape[1] != 2:
        raise ValueError(f"size mismatch: distances {dx.shape}, embedding {y.shape}")


def _weighted_grad(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over h of w[j, h] * (y[j] - y[h]); w's diagonal is zeroed in place.

    Zeroing clears whatever the diagonal held, inf or nan included, so the
    weights may come from unmasked divisions by a zero diagonal.
    """
    np.fill_diagonal(w, 0.0)
    g = w.sum(axis=1)[:, None] * y
    # One einsum per column adds in the order of einsum("jh,hk->jk", w, y), and
    # faster; w @ y (BLAS) and a contiguous copy of the column round differently.
    for k in range(y.shape[1]):
        g[:, k] -= np.einsum("jh,h->j", w, y[:, k])
    return g


def _check_sammon_distances(iu, dx_u: np.ndarray):
    zero = np.flatnonzero(dx_u == 0.0)
    if zero.size:
        j, h = iu[0][zero[0]], iu[1][zero[0]]
        raise ValueError(
            f"rows {j} and {h} coincide (zero input distance); "
            "the inverse-distance weighting is undefined"
        )


def _clear_coincident_pairs(w: np.ndarray, dy: np.ndarray):
    """Zero the weights of pairs whose embedded points coincide (dy == 0).

    The weights come from divisions by dy, so such pairs hold nan or inf.
    Their direction y[j] - y[h] is undefined, so they get weight 0. Any such
    pair off the diagonal makes its row's gradient non-finite, so `grad`
    applies this rule only to a gradient that came out non-finite, and
    computes it again. Applied to any other w, it would clear only the
    diagonal, which `_weighted_grad` clears anyway.
    """
    w[dy == 0.0] = 0.0


def _objective(method: str, dx: np.ndarray, dy: np.ndarray, mask: np.ndarray | None = None,
               t: float | None = None):
    """Stress and gradient of `method` over the fixed input distances `dx`.

    Returns `(stress, grad, t)`: `stress(dy)` and `grad(y, dy)` take the
    output distances `dy = pairwise_distances(y)` from the caller, so one
    distance pass serves both. Everything that depends on `dx` alone (pair
    indices, the Sammon normalizer, the lmds near/far split over neighbor
    `mask`) is computed here once. The lmds repulsion weight `t` defaults to
    1% of the attraction term at the start layout's distances `dy`; the
    weight used is returned, and None for the other methods.

    Each method computes its pair weights one way, dividing by `dy` without a
    mask; a positive `dy` is at least 2.2e-162, so `1/dy` is finite. The lmds
    near weights are computed only at the neighbor entries, gathered and put
    back through flat indices precomputed here. A gradient that comes out
    non-finite is computed again after `_clear_coincident_pairs`.
    """
    m = dx.shape[0]
    iu = np.triu_indices(m, k=1)
    flat = iu[0] * m + iu[1]  # dy.take(flat) is dy[iu], as one cheaper gather
    dx_u = dx.take(flat)

    if method == "metric_mds":
        scale = 2.0

        def stress(dy):
            return float(np.sum((dx_u - dy.take(flat)) ** 2))

        def weights(dy):
            w = dy - dx
            w /= dy
            return w

    elif method == "sammon":
        _check_sammon_distances(iu, dx_u)
        c = np.sum(dx_u)
        scale = 2.0 / c

        def stress(dy):
            return float(np.sum((dx_u - dy.take(flat)) ** 2 / dx_u) / c)

        def weights(dy):
            # dx is nonzero off the diagonal (checked above)
            w = dy - dx
            w /= dx * dy
            return w

    else:
        near = mask.take(flat)
        near_flat, far_flat = flat[near], flat[~near]
        dx_near = dx_u[near]
        mask_flat = np.flatnonzero(mask)  # both (j, h) and (h, j) of each pair
        dx_mask = dx.take(mask_flat)
        scale = 1.0

        def attraction_term(dy):
            return np.sum((dx_near - dy.take(near_flat)) ** 2)

        t = 0.01 * float(attraction_term(dy)) if t is None else float(t)

        def stress(dy):
            return float(attraction_term(dy) - t * np.sum(dy.take(far_flat)))

        def weights(dy):
            w = np.divide(1.0, dy)
            # near pairs: 2 (dy - dx) / dy
            attraction = dy.take(mask_flat)
            attraction -= dx_mask
            attraction *= 2.0
            attraction *= w.take(mask_flat)
            # far pairs: 0 - t / dy; subtracting from 0 gives +0, not -0, where t / dy is 0
            w *= t
            np.subtract(0.0, w, out=w)
            w.put(mask_flat, attraction)
            return w

    def grad(y, dy):
        with np.errstate(divide="ignore", invalid="ignore"):
            w = weights(dy)
            g = _weighted_grad(w, y)
        if not np.isfinite(g).all():
            _clear_coincident_pairs(w, dy)
            g = _weighted_grad(w, y)
        return scale * g

    return stress, grad, t if method == "lmds" else None


def mds_stress(dx: np.ndarray, y: np.ndarray) -> float:
    """Sum over unordered pairs of squared (input vs output) distance errors."""
    _check_sizes(dx, y)
    dy = pairwise_distances(y)
    return _objective("metric_mds", dx, dy)[0](dy)


def sammon_stress(dx: np.ndarray, y: np.ndarray) -> float:
    """Inverse-distance-weighted stress emphasizing local structure.

    Raises ValueError when two distinct inputs coincide (zero input distance
    cannot be used as a weight); the offending pair is reported.
    """
    _check_sizes(dx, y)
    dy = pairwise_distances(y)
    return _objective("sammon", dx, dy)[0](dy)


def _neighbor_mask(m: int, neighbors) -> np.ndarray:
    mask = np.zeros((m, m), dtype=bool)
    for j, h in neighbors:
        if j == h or not (0 <= j < m and 0 <= h < m):
            raise ValueError(f"invalid neighbor pair ({j}, {h}) for {m} points")
        mask[j, h] = mask[h, j] = True
    return mask


def lmds_stress(dx: np.ndarray, y: np.ndarray, neighbors, t: float) -> float:
    """Localized stress: attraction on neighbor pairs, distance-proportional
    repulsion (weight t) on all other pairs."""
    _check_sizes(dx, y)
    if not (0 <= t < math.inf):  # negated, so that NaN fails too
        raise ValueError(f"repulsion weight t must be finite and nonnegative, got {t}")
    dy = pairwise_distances(y)
    return _objective("lmds", dx, dy, _neighbor_mask(dx.shape[0], neighbors), t)[0](dy)


def _check_neighbor_count(k: int, m: int):
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < {m}, got {k}")


def knn_pairs(dx: np.ndarray, k: int) -> set[tuple[int, int]]:
    """Symmetrized k-nearest-neighbor pair set.

    Pair (j, h) is included when h is among the k nearest of j or vice versa;
    distance ties resolve to the lower index.
    """
    m = dx.shape[0]
    _check_neighbor_count(k, m)
    d = np.array(dx, dtype=float)
    np.fill_diagonal(d, np.inf)
    nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(m), k)
    cols = nearest.ravel()
    return set(zip(np.minimum(rows, cols).tolist(), np.maximum(rows, cols).tolist()))


def classical_scaling(dx: np.ndarray) -> np.ndarray:
    """Torgerson double-centering embedding in 2D.

    Negative eigenvalues of the centered Gram matrix are clamped to zero,
    leaving the corresponding coordinate identically zero.
    """
    m = dx.shape[0]
    if m < 2:
        raise ValueError("classical scaling needs at least 2 points")
    d2 = dx.astype(float) ** 2
    row = d2.mean(axis=1, keepdims=True)
    col = d2.mean(axis=0, keepdims=True)
    b = -0.5 * (d2 - row - col + d2.mean())
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(evals)[::-1][:2]
    y = np.zeros((m, 2))
    for k, i in enumerate(order):
        lam = float(evals[i])
        if lam > 0.0:
            y[:, k] = evecs[:, i] * math.sqrt(lam)
    return y


def project(vectors: np.ndarray, config: ProjectionConfig) -> ProjectionResult:
    """Embed rows of `vectors` in 2D by minimizing the configured stress.

    Starts from classical scaling plus a seeded 1e-6 perturbation (escapes
    symmetric saddle points), then runs adaptive-step gradient descent until
    the relative stress change drops below the tolerance or the iteration
    budget is exhausted. The recorded stress sequence is strictly decreasing
    across accepted steps.
    """
    vectors = np.asarray(vectors, dtype=float)
    m = vectors.shape[0]
    if m < 2:
        raise ValueError("projection needs at least 2 vectors")
    dx = pairwise_distances(vectors)
    rng = np.random.default_rng(config.seed)
    y = classical_scaling(dx) + 1e-6 * rng.standard_normal((m, 2))
    dy = pairwise_distances(y)

    mask = None
    k_used = None
    if config.method == "lmds":
        k_used = config.neighbor_count(m)
        mask = _neighbor_mask(m, knn_pairs(dx, k_used))
    stress, grad, t_used = _objective(config.method, dx, dy, mask, config.repulsion_t)

    step = 0.05 * float(np.mean(dx[np.triu_indices(m, k=1)]))
    if step == 0.0:
        step = 0.05

    energy = stress(dy)
    if not np.isfinite(energy):
        raise ValueError("non-finite stress at iteration 0")
    history = [energy]
    iterations = 0
    for it in range(1, config.max_iterations + 1):
        g = grad(y, dy)
        accepted = False
        for _ in range(_MAX_HALVINGS):
            y_try = y - step * g
            dy_try = pairwise_distances(y_try)
            e_try = stress(dy_try)
            if np.isfinite(e_try) and e_try < energy:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        iterations = it
        rel = (energy - e_try) / max(abs(energy), 1e-12)
        y, dy, energy = y_try, dy_try, e_try
        history.append(energy)
        step *= 1.2
        if rel < config.tolerance:
            break

    return ProjectionResult(
        points=y,
        stress=float(energy),
        iterations=iterations,
        stress_history=tuple(history),
        method=config.method,
        k_neighbors=k_used,
        repulsion_t=t_used,
    )


def align_axes(y: np.ndarray) -> np.ndarray:
    """Rotate the 2D cloud onto its principal axes (no translation).

    Output dimension 1 carries maximal variance; each output dimension is
    sign-flipped if needed so its maximum-absolute coordinate is positive.
    An isotropic cloud (eigenvalue gap within 1e-12 of the total variance)
    keeps the identity rotation, at any scale.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape[0] < 2:
        raise ValueError(f"expected an Mx2 embedding with M >= 2, got {y.shape}")
    z = y - y.mean(axis=0)
    a = float(np.mean(z[:, 0] * z[:, 0]))
    b = float(np.mean(z[:, 1] * z[:, 1]))
    c = float(np.mean(z[:, 0] * z[:, 1]))
    gap = 2.0 * math.hypot(0.5 * (a - b), c)  # lambda_max - lambda_min
    if gap <= 1e-12 * (a + b):
        out = y.copy()
    else:
        theta = 0.5 * math.atan2(2.0 * c, a - b)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])  # columns: v1, v2
        out = y @ rot
    for d in range(2):
        i = int(np.argmax(np.abs(out[:, d])))
        if out[i, d] < 0.0:
            out[:, d] = -out[:, d]
    return out


def normalize_components(y: np.ndarray) -> np.ndarray:
    """Min-max scale each dimension to [0, 1]; a zero-range dimension maps to 0.5."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape[0] < 1:
        raise ValueError(f"expected an Mx2 embedding with M >= 1, got {y.shape}")
    out = np.empty_like(y)
    for d in range(2):
        lo, hi = y[:, d].min(), y[:, d].max()
        if hi == lo:
            out[:, d] = 0.5
        else:
            out[:, d] = (y[:, d] - lo) / (hi - lo)
    return out
