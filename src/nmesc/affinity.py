"""Affinity matrices over speaker-embedding sequences.

Builds the raw-cosine and Gaussian-kernel similarity matrices, and applies
the row-wise top-p binarization plus symmetrization that turn a noisy
similarity matrix into an undirected graph adjacency. Every matrix is a
plain N x N float array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _check_timeline, _freeze, _zero_norm

__all__ = [
    "EmbeddingSequence",
    "ZeroNormError",
    "InvalidSigmaError",
    "InvalidPError",
    "cosine_affinity",
    "kernel_affinity",
    "binarize",
    "symmetrize",
]


class ZeroNormError(ValueError):
    """An embedding vector has (numerically) zero norm."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InvalidSigmaError(ValueError):
    """Kernel scale must be a positive finite number."""


class InvalidPError(ValueError):
    """Binarization threshold p outside [1, n]."""


@dataclass(frozen=True)
class EmbeddingSequence:
    """N time-ordered speech segments with one embedding vector each.

    Invariants enforced on construction: N >= 2, one common dimension D >= 1,
    finite times with end > start per segment, segments sorted by start,
    finite vectors, none of zero norm.
    """

    starts: np.ndarray
    ends: np.ndarray
    vectors: np.ndarray
    recording_id: str = "rec"

    def __post_init__(self):
        _freeze(self, starts=self.starts, ends=self.ends, vectors=np.atleast_2d(self.vectors))
        starts, ends, vectors = self.starts, self.ends, self.vectors
        n = starts.shape[0]
        if n < 2:
            raise ValueError(f"need at least 2 segments, got {n}")
        if ends.shape != (n,) or vectors.shape[0] != n:
            raise ValueError("starts, ends and vectors must agree in length")
        if vectors.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        _check_timeline(starts, ends)
        if not np.isfinite(vectors).all():
            raise ValueError("embeddings contain non-finite values")
        if np.any(np.diff(starts) < 0):
            raise ValueError("segments must be sorted by start time")
        zero = _zero_norm(vectors)
        if zero.any():
            bad = int(np.argmax(zero))
            raise ZeroNormError(f"segment {bad} has a zero-norm embedding", index=bad)

    @property
    def n(self) -> int:
        return self.starts.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _square(a) -> np.ndarray:
    """a as a float array; raise ValueError unless it is a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"affinity matrix must be square, got shape {a.shape}")
    return a


def _check_sigma(sigma: float) -> None:
    """The kernel scale rule kernel_affinity and NjwConfig share: a positive finite number."""
    if not (np.isfinite(sigma) and sigma > 0):
        raise InvalidSigmaError(f"sigma must be a positive finite number, got {sigma}")


def cosine_affinity(emb: EmbeddingSequence) -> np.ndarray:
    """Pairwise raw cosine similarities; diagonal pinned to exactly 1."""
    unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
    a = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(a, 1.0)
    return a


def kernel_affinity(emb: EmbeddingSequence, sigma: float) -> np.ndarray:
    """Gaussian-kernel affinity with a zero diagonal.

    The distance fed to the kernel is the chordal distance between
    direction-normalized embeddings, d^2 = 2 * (1 - cos), so identical
    directions get weight 1 and the weight decays with angle.

    Raises:
        InvalidSigmaError: sigma is not a positive finite number.
    """
    _check_sigma(sigma)
    d2 = np.clip(2.0 * (1.0 - cosine_affinity(emb)), 0.0, None)
    a = np.exp(-d2 / (sigma * sigma))
    np.fill_diagonal(a, 0.0)
    return a


# Rows per block in descending_order. With whole-matrix temporaries instead,
# the meetings benchmark (N = 300-480) peaked 1.6 MiB higher in resident
# memory than with the full argsort they replace; with 64-row blocks it did not.
_ORDER_BLOCK_ROWS = 64


def descending_order(data: np.ndarray, count: int) -> np.ndarray:
    """The first `count` per-row column indices by descending value, ties by ascending column.

    Equals np.argsort(-data, axis=1, kind="stable")[:, :count] for finite
    data, ties included. np.partition finds each row's count-th largest value;
    the entries at or above it (ties can make more than count) sort by their
    negated value and every other entry by +inf, so a stable sort of these
    keys puts the candidates first, in ascending column order among ties.
    Rows go in blocks of _ORDER_BLOCK_ROWS, so every temporary stays small.
    """
    data = np.asarray(data, dtype=float)
    n, width = data.shape
    count = int(count)
    if not 1 <= count <= width:
        raise ValueError(f"count={count} outside [1, {width}]")
    order = np.empty((n, count), dtype=np.intp)
    for start in range(0, n, _ORDER_BLOCK_ROWS):
        block = data[start : start + _ORDER_BLOCK_ROWS]
        threshold = np.partition(block, width - count, axis=1)[:, [width - count]]
        keys = np.where(block >= threshold, -block, np.inf)
        order[start : start + _ORDER_BLOCK_ROWS] = np.argsort(keys, axis=1, kind="stable")[:, :count]
    return order


def binarize(a: np.ndarray, p: int) -> np.ndarray:
    """Keep the p largest entries of each row of a raw-cosine matrix as 1, zero the rest.

    The diagonal competes like any other entry; ties among equal values go
    to the lowest column index. Every output row sums to exactly p.

    Raises:
        ValueError: a is not a square matrix.
        InvalidPError: p outside [1, n].
    """
    a = _square(a)
    n, p = a.shape[0], int(p)
    if not 1 <= p <= n:
        raise InvalidPError(f"p={p} outside [1, {n}]")
    b = np.zeros((n, n))
    np.put_along_axis(b, np.argsort(-a, axis=1, kind="stable")[:, :p], 1.0, axis=1)
    return b


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a binarized matrix with its transpose; entries land in {0, 0.5, 1}.

    Raises:
        ValueError: a is not a square matrix.
    """
    a = _square(a)
    return (a + a.T) / 2.0
