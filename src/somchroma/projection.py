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
    "embedding_to_dict",
    "embedding_from_dict",
]

METHODS = ("metric_mds", "sammon", "lmds")

_MAX_HALVINGS = 60


@dataclass(frozen=True)
class ProjectionConfig:
    """Projection method and optimizer controls.

    k_neighbors and repulsion_t apply to the localized method only; left at
    None they default to max(4, ceil(0.05*M)) capped at M-1, and to 1% of the
    attraction term at the initial layout, respectively.
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
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.repulsion_t is not None and self.repulsion_t < 0:
            raise ValueError("repulsion_t must be nonnegative")


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


def pairwise_distances(vectors: np.ndarray) -> np.ndarray:
    """Full symmetric Euclidean distance matrix with an exactly zero diagonal."""
    vectors = np.asarray(vectors, dtype=float)
    if not np.all(np.isfinite(vectors)):
        raise ValueError("vectors must be finite")
    diff = vectors[:, None, :] - vectors[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    np.fill_diagonal(d, 0.0)
    return d


def _check_sizes(dx: np.ndarray, y: np.ndarray):
    if dx.shape[0] != dx.shape[1] or dx.shape[0] != y.shape[0] or y.shape[1] != 2:
        raise ValueError(f"size mismatch: distances {dx.shape}, embedding {y.shape}")


def _weighted_grad(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over h of w[j, h] * (y[j] - y[h]); w's diagonal is zeroed in place."""
    np.fill_diagonal(w, 0.0)
    return w.sum(axis=1)[:, None] * y - np.einsum("jh,hk->jk", w, y)


def _check_sammon_distances(iu, dx_u: np.ndarray):
    zero = np.flatnonzero(dx_u == 0.0)
    if zero.size:
        j, h = iu[0][zero[0]], iu[1][zero[0]]
        raise ValueError(
            f"rows {j} and {h} coincide (zero input distance); "
            "the inverse-distance weighting is undefined"
        )


def _objective(method: str, dx: np.ndarray, mask: np.ndarray | None = None, t: float | None = None):
    """Stress and gradient of `method` over the fixed input distances `dx`.

    Returns `(stress, grad)`: `stress(dy)` and `grad(y, dy)` take the output
    distances `dy = pairwise_distances(y)` from the caller, so one distance
    pass serves both. Everything that depends on `dx` alone (pair indices,
    the Sammon normalizer, the lmds near/far split over neighbor `mask` with
    repulsion weight `t`) is computed here once.
    """
    iu = np.triu_indices(dx.shape[0], k=1)
    dx_u = dx[iu]

    if method == "metric_mds":

        def stress(dy):
            return float(np.sum((dx_u - dy[iu]) ** 2))

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(dy > 0.0, (dy - dx) / dy, 0.0)
            return 2.0 * _weighted_grad(w, y)

    elif method == "sammon":
        _check_sammon_distances(iu, dx_u)
        c = np.sum(dx_u)
        positive = dx > 0.0

        def stress(dy):
            return float(np.sum((dx_u - dy[iu]) ** 2 / dx_u) / c)

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where((dy > 0.0) & positive, (dy - dx) / (dx * dy), 0.0)
            return (2.0 / c) * _weighted_grad(w, y)

    else:
        near = mask[iu]
        far_u = ~near
        dx_near = dx_u[near]
        far = ~mask
        np.fill_diagonal(far, False)

        def stress(dy):
            dy_u = dy[iu]
            attraction = np.sum((dx_near - dy_u[near]) ** 2)
            repulsion = np.sum(dy_u[far_u])
            return float(attraction - t * repulsion)

        def grad(y, dy):
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(dy > 0.0, 1.0 / dy, 0.0)
            w = np.where(mask, 2.0 * (dy - dx) * inv, 0.0) - t * far * inv
            return _weighted_grad(w, y)

    return stress, grad


def mds_stress(dx: np.ndarray, y: np.ndarray) -> float:
    """Sum over unordered pairs of squared (input vs output) distance errors."""
    _check_sizes(dx, y)
    stress, _ = _objective("metric_mds", dx)
    return stress(pairwise_distances(y))


def sammon_stress(dx: np.ndarray, y: np.ndarray) -> float:
    """Inverse-distance-weighted stress emphasizing local structure.

    Raises ValueError when two distinct inputs coincide (zero input distance
    cannot be used as a weight); the offending pair is reported.
    """
    _check_sizes(dx, y)
    stress, _ = _objective("sammon", dx)
    return stress(pairwise_distances(y))


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
    if t < 0:
        raise ValueError("repulsion weight t must be nonnegative")
    stress, _ = _objective("lmds", dx, _neighbor_mask(dx.shape[0], neighbors), t)
    return stress(pairwise_distances(y))


def knn_pairs(dx: np.ndarray, k: int) -> set[tuple[int, int]]:
    """Symmetrized k-nearest-neighbor pair set.

    Pair (j, h) is included when h is among the k nearest of j or vice versa;
    distance ties resolve to the lower index.
    """
    m = dx.shape[0]
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < {m}, got {k}")
    pairs = set()
    for j in range(m):
        d = dx[j].copy()
        d[j] = np.inf
        nearest = np.argsort(d, kind="stable")[:k]
        for h in nearest:
            pairs.add((min(j, int(h)), max(j, int(h))))
    return pairs


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
    t_used = None
    if config.method == "lmds":
        if config.k_neighbors is not None:
            k_used = config.k_neighbors
        else:
            k_used = min(max(4, math.ceil(0.05 * m)), m - 1)
        mask = _neighbor_mask(m, knn_pairs(dx, k_used))
        if config.repulsion_t is not None:
            t_used = float(config.repulsion_t)
        else:
            # With t = 0 the localized stress is its attraction term alone.
            attraction, _ = _objective("lmds", dx, mask, 0.0)
            t_used = 0.01 * attraction(dy)
    stress, grad = _objective(config.method, dx, mask, t_used)

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
        stress_history=tuple(float(e) for e in history),
        method=config.method,
        k_neighbors=k_used,
        repulsion_t=t_used,
    )


def align_axes(y: np.ndarray) -> np.ndarray:
    """Rotate the 2D cloud onto its principal axes (no translation).

    Output dimension 1 carries maximal variance; each output dimension is
    sign-flipped if needed so its maximum-absolute coordinate is positive.
    An isotropic cloud (eigenvalue gap within 1e-12) keeps the identity
    rotation.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or y.shape[1] != 2 or y.shape[0] < 2:
        raise ValueError(f"expected an Mx2 embedding with M >= 2, got {y.shape}")
    z = y - y.mean(axis=0)
    a = float(np.mean(z[:, 0] * z[:, 0]))
    b = float(np.mean(z[:, 1] * z[:, 1]))
    c = float(np.mean(z[:, 0] * z[:, 1]))
    gap = 2.0 * math.hypot(0.5 * (a - b), c)  # lambda_max - lambda_min
    if gap <= 1e-12:
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


def embedding_to_dict(result: ProjectionResult, config: ProjectionConfig) -> dict:
    """JSON-ready embedding payload with a config echo."""
    return {
        "schema_version": 1,
        "kind": "embedding",
        "method": result.method,
        "config": {
            "k_neighbors": result.k_neighbors,
            "repulsion_t": result.repulsion_t,
            "max_iterations": config.max_iterations,
            "tolerance": config.tolerance,
            "seed": config.seed,
        },
        "points": [[float(a), float(b)] for a, b in result.points],
        "final_stress": result.stress,
        "iterations": result.iterations,
    }


def embedding_from_dict(payload: dict) -> np.ndarray:
    """Points array from an embedding payload; validates the schema envelope."""
    if payload.get("kind") != "embedding" or payload.get("schema_version") != 1:
        raise ValueError(
            "schema version mismatch: expected embedding v1, got "
            f"kind={payload.get('kind')!r} schema_version={payload.get('schema_version')!r}"
        )
    return np.asarray(payload["points"], dtype=float)
