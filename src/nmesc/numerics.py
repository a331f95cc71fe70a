"""Dense symmetric eigendecomposition and seeded k-means clustering.

These are the two generic numerical kernels the clustering pipelines are
built on. Both are deterministic: the eigensolver is a pure function of its
input, and every source of k-means randomness flows from one explicit seed.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "EigenSystem",
    "KMeansResult",
    "NoConvergenceError",
    "eigh",
    "eigvalsh",
    "kmeans",
]


class NoConvergenceError(RuntimeError):
    """The eigensolver hit its iteration cap without converging."""

def _freeze(record, dtype=float, **arrays) -> None:
    """Store a read-only C-order copy of each array on a frozen dataclass record, under its keyword name."""
    for name, value in arrays.items():
        copy = np.array(value, dtype=dtype, order="C", copy=True)
        copy.flags.writeable = False
        object.__setattr__(record, name, copy)


def _check_timeline(starts: np.ndarray, ends: np.ndarray) -> None:
    """Raise ValueError naming the first segment with a non-finite time, else the first with end <= start."""
    finite = np.isfinite(starts) & np.isfinite(ends)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"segment {i}: start and end must be finite, got {starts[i]} and {ends[i]}")
    backwards = ends <= starts
    if backwards.any():
        i = int(np.argmax(backwards))
        raise ValueError(f"segment {i}: end ({ends[i]}) must exceed start ({starts[i]})")


def _zero_norm(vectors: np.ndarray) -> np.ndarray:
    """Whether each vector along the last axis has (numerically) zero norm."""
    return np.linalg.norm(vectors, axis=-1) <= 1e-12


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


@functools.cache
def _lapacke_dsyevd():
    """LAPACKE_dsyevd of the ILP64 OpenBLAS bundled in numpy's wheel, or None where there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_LAPACKE_dsyevd64_
        except (OSError, AttributeError):
            continue
        # (layout, jobz, uplo, n, a, lda, w) -> info; every LAPACK integer is 64-bit.
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
        fn.restype = i64
        return fn
    return None


_LAPACK_COL_MAJOR = 102


def _syevd(m: np.ndarray, vectors: bool):
    """np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m), with one N x N array fewer.

    numpy's eigh holds its copy of m, dsyevd's 2 N^2 workspace and a
    separate output. Here dsyevd overwrites the solver's own C-order copy
    with the eigenvectors, column-major, so they are a.T. That copy's
    column-major matrix is m.T, so dsyevd's lower triangle is m's upper
    one: on an exactly symmetric m, as every matrix nme builds, the
    result is numpy's bit for bit. Where numpy bundles no such library,
    numpy's solver runs.
    """
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    a = np.array(m, dtype=float, order="C")
    n = a.shape[0]
    w = np.empty(n)
    info = dsyevd(_LAPACK_COL_MAJOR, b"V" if vectors else b"N", b"L", n, a.ctypes.data, n, w.ctypes.data)
    if info > 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if info < 0:
        raise RuntimeError(f"LAPACKE_dsyevd failed with info={info}")
    return (w, a.T) if vectors else w


def _solve_symmetric(m: np.ndarray, vectors: bool):
    """Check m as eigh documents, then solve it; a LAPACK failure becomes NoConvergenceError."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    hi, lo = float(m.max()), float(m.min())  # NaN propagates; +-inf lands in one of them
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(1.0, hi, -lo)
    asym = float((m - m.T).max())  # m - m.T is exactly antisymmetric: its max is its max |entry|
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    try:
        return _syevd(m, vectors)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"symmetric eigensolver did not converge: {exc}") from exc


def eigh(m: np.ndarray) -> EigenSystem:
    """Decompose a dense symmetric matrix into its full eigensystem.

    Args:
        m: square symmetric matrix (max relative asymmetry 1e-12).

    Returns:
        EigenSystem with ascending eigenvalues and orthonormal eigenvectors.

    Raises:
        ValueError: not square, any entry NaN or Inf, or asymmetry beyond tolerance.
        NoConvergenceError: the underlying iteration failed to converge.
    """
    return EigenSystem(*_solve_symmetric(m, vectors=True))


def eigvalsh(m: np.ndarray) -> np.ndarray:
    """Eigenvalues only, ascending. Same preconditions as ``eigh``."""
    return _solve_symmetric(m, vectors=False)


# k-means runs this many k-means++ seeded restarts, each of at most this many centroid updates.
_RESTARTS = 10
_MAX_ITER = 300


@dataclass(frozen=True)
class KMeansResult:
    """Labels, centroids and the inertia of the best restart."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float

    def __post_init__(self):
        _freeze(self, int, labels=self.labels)
        _freeze(self, centroids=self.centroids)


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


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator):
    n = points.shape[0]
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -1, dtype=int)
    for passes in range(1, _MAX_ITER + 2):
        d2 = _sq_distances(points, centers)
        new_labels = np.argmin(d2, axis=1)  # ties: lowest centroid index
        _repair_empty(new_labels, d2, k)
        # A pass after _MAX_ITER centroid updates only re-assigns, so the labels
        # stay consistent with the centroids actually returned.
        if passes > _MAX_ITER or np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    inertia = float(_sq_distances(points, centers)[np.arange(n), new_labels].sum())
    return new_labels, centers, inertia


def kmeans(points: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Cluster row vectors with restarted Lloyd iterations.

    Runs _RESTARTS (10) independent k-means++ seeded Lloyd passes of at most
    _MAX_ITER (300) centroid updates each, and keeps the one with minimal
    inertia (lowest restart index on ties). Restart i draws from a generator
    seeded with ``seed + i``, so the result is a function of the seed.

    Args:
        points: (n, d) matrix, one observation per row; a 1-d array is one column.
        k: number of clusters, 1 <= k <= n.
        seed: seed of the first restart's generator.

    Raises:
        ValueError: k outside [1, n], or points contain NaN/Inf.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if not np.all(np.isfinite(points)):
        raise ValueError("points contain non-finite entries")

    runs = (_lloyd(points, k, np.random.default_rng(seed + restart)) for restart in range(_RESTARTS))
    # _lloyd returns KMeansResult's fields in order; min keeps the first of equal inertias.
    return KMeansResult(*min(runs, key=lambda run: run[2]))
