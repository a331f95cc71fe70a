"""Dense symmetric eigendecomposition and seeded k-means clustering.

These are the two generic numerical kernels the clustering pipelines are
built on. Both are deterministic: the eigensolver is a pure function of its
input, and every source of k-means randomness flows from one explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigenSystem",
    "KMeansConfig",
    "KMeansResult",
    "NonFiniteError",
    "NoConvergenceError",
    "InvalidKError",
    "eigh",
    "eigvalsh",
    "kmeans",
]


class NonFiniteError(ValueError):
    """Input contains NaN or Inf entries."""


class NoConvergenceError(RuntimeError):
    """The eigensolver hit its iteration cap without converging."""


class InvalidKError(ValueError):
    """Requested cluster count is outside [1, n]."""


def _freeze(record, dtype=float, **arrays) -> None:
    """Store a read-only copy of each array on a frozen dataclass record, under its keyword name."""
    for name, value in arrays.items():
        copy = np.array(value, dtype=dtype, copy=True)
        copy.flags.writeable = False
        object.__setattr__(record, name, copy)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Column ``vectors[:, i]`` is the unit-norm eigenvector paired with
    ``values[i]``. Arrays are read-only copies, so no caller can change a
    decomposition another caller holds.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _freeze(self, values=np.atleast_1d(self.values), vectors=np.atleast_2d(self.vectors))
        n = self.values.shape[0]
        if self.vectors.shape != (n, n):
            raise ValueError(f"vectors must be {n}x{n}, got {self.vectors.shape}")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("eigenvalues must be sorted ascending")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _validated_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    hi, lo = float(m.max()), float(m.min())  # NaN propagates; +-inf lands in one of them
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise NonFiniteError("matrix contains non-finite entries")
    scale = max(1.0, hi, -lo)
    asym = float((m - m.T).max())  # m - m.T is exactly antisymmetric: its max is its max |entry|
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return m


def eigh(m: np.ndarray) -> EigenSystem:
    """Decompose a dense symmetric matrix into its full eigensystem.

    Args:
        m: square symmetric matrix (max relative asymmetry 1e-12).

    Returns:
        EigenSystem with ascending eigenvalues and orthonormal eigenvectors.

    Raises:
        NonFiniteError: any entry is NaN or Inf.
        NoConvergenceError: the underlying iteration failed to converge.
        ValueError: not square, or asymmetry beyond tolerance.
    """
    m = _validated_symmetric(m)
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return EigenSystem(values=values, vectors=vectors)


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending. Same preconditions as ``eigh``."""
    m = _validated_symmetric(m)
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(f"eigenvalue computation did not converge: {exc}") from exc


@dataclass(frozen=True)
class KMeansConfig:
    """Knobs for the Lloyd/k-means++ clusterer.

    seed drives every random choice; per-restart generators derive from
    ``seed + restart index`` so restarts can run in any order.
    """

    seed: int = 42
    restarts: int = 10
    max_iter: int = 300

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class KMeansResult:
    """Labels, centroids and the inertia of the best restart.

    inertia_history tracks the winning restart's inertia after each
    assignment step; Lloyd guarantees it is non-increasing.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_history: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        _freeze(self, int, labels=self.labels)
        _freeze(self, centroids=self.centroids, inertia_history=self.inertia_history)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # Direct (x - c)^2 broadcast: slightly slower than the Gram trick but
    # never produces negative distances, which keeps tie-breaking sane.
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of initial centers."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = _sq_distances(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center.
            idx = int(rng.integers(n))
        else:
            cum = np.cumsum(d2)
            idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
            idx = min(idx, n - 1)
        centers[i] = points[idx]
        d2 = np.minimum(d2, _sq_distances(points, centers[i : i + 1])[:, 0])
    return centers


def _repair_empty(new_labels: np.ndarray, d2: np.ndarray, k: int) -> None:
    """Give each empty cluster the worst-assigned point from a cluster that can spare one."""
    n = new_labels.shape[0]
    for empty in range(k):
        if np.any(new_labels == empty):
            continue
        assigned = d2[np.arange(n), new_labels].copy()
        counts = np.bincount(new_labels, minlength=k)
        assigned[counts[new_labels] < 2] = -np.inf  # never empty another cluster
        donor = int(np.argmax(assigned))
        new_labels[donor] = empty
        d2[donor, :] = 0.0  # its new centroid will sit on it


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int):
    n = points.shape[0]
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -1, dtype=int)
    history: list[float] = []
    for passes in range(1, max_iter + 2):
        d2 = _sq_distances(points, centers)
        new_labels = np.argmin(d2, axis=1)  # ties: lowest centroid index
        _repair_empty(new_labels, d2, k)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        # A pass after max_iter centroid updates only re-assigns, so the labels
        # stay consistent with the centroids actually returned.
        if passes > max_iter or np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    inertia = float(_sq_distances(points, centers)[np.arange(n), new_labels].sum())
    return new_labels, centers, inertia, min(passes, max_iter), np.asarray(history)


def kmeans(points: np.ndarray, k: int, cfg: KMeansConfig = KMeansConfig()) -> KMeansResult:
    """Cluster row vectors with restarted Lloyd iterations.

    Runs ``cfg.restarts`` independent k-means++ seeded Lloyd passes and
    keeps the one with minimal inertia (lowest restart index on ties).
    Deterministic for a fixed ``cfg.seed``.

    Args:
        points: (n, d) matrix, one observation per row.
        k: number of clusters, 1 <= k <= n.
        cfg: seeding/restart configuration.

    Raises:
        InvalidKError: k outside [1, n].
        NonFiniteError: points contain NaN/Inf.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside [1, {n}]")
    if not np.all(np.isfinite(points)):
        raise NonFiniteError("points contain non-finite entries")

    runs = (
        _lloyd(points, k, np.random.default_rng(cfg.seed + restart), cfg.max_iter)
        for restart in range(cfg.restarts)
    )
    # _lloyd returns KMeansResult's fields in order; min keeps the first of equal inertias.
    return KMeansResult(*min(runs, key=lambda run: run[2]))
