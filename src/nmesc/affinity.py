"""Affinity matrices over speaker-embedding sequences.

Builds the raw-cosine and Gaussian-kernel similarity matrices, and applies
the row-wise top-p binarization plus symmetrization that turn a noisy
similarity matrix into an undirected graph adjacency.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .numerics import _freeze

__all__ = [
    "AffinityKind",
    "AffinityMatrix",
    "EmbeddingSequence",
    "ZeroNormError",
    "InvalidSigmaError",
    "InvalidPError",
    "WrongStateError",
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


class WrongStateError(ValueError):
    """Operation applied to an affinity matrix in the wrong state."""


@dataclass(frozen=True)
class EmbeddingSequence:
    """N time-ordered speech segments with one embedding vector each.

    Invariants enforced on construction: N >= 2, one common dimension D >= 1,
    end > start per segment, segments sorted by start, no zero-norm vector.
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
        if not (np.all(np.isfinite(starts)) and np.all(np.isfinite(ends)) and np.all(np.isfinite(vectors))):
            raise ValueError("segments contain non-finite values")
        if np.any(ends <= starts):
            bad = int(np.argmax(ends <= starts))
            raise ValueError(f"segment {bad}: end ({ends[bad]}) must exceed start ({starts[bad]})")
        if np.any(np.diff(starts) < 0):
            raise ValueError("segments must be sorted by start time")
        norms = np.linalg.norm(vectors, axis=1)
        if np.any(norms <= 1e-12):
            bad = int(np.argmax(norms <= 1e-12))
            raise ZeroNormError(f"segment {bad} has a zero-norm embedding", index=bad)

    @property
    def n(self) -> int:
        return self.starts.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


class AffinityKind(enum.Enum):
    RAW_COSINE = "raw-cosine"
    KERNELIZED = "kernelized"
    BINARIZED = "binarized"
    SYMMETRIZED = "symmetrized"


@dataclass(frozen=True)
class AffinityMatrix:
    """n x n similarity matrix tagged with its processing state."""

    data: np.ndarray
    kind: AffinityKind

    def __post_init__(self):
        _freeze(self, data=self.data)
        if self.data.ndim != 2 or self.data.shape[0] != self.data.shape[1]:
            raise ValueError(f"affinity matrix must be square, got shape {self.data.shape}")

    @property
    def n(self) -> int:
        return self.data.shape[0]


def cosine_affinity(emb: EmbeddingSequence) -> AffinityMatrix:
    """Pairwise raw cosine similarities; diagonal pinned to exactly 1."""
    unit = emb.vectors / np.linalg.norm(emb.vectors, axis=1, keepdims=True)
    data = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(data, 1.0)
    return AffinityMatrix(data=data, kind=AffinityKind.RAW_COSINE)


def kernel_affinity(emb: EmbeddingSequence, sigma: float) -> AffinityMatrix:
    """Gaussian-kernel affinity with a zero diagonal.

    The distance fed to the kernel is the chordal distance between
    direction-normalized embeddings, d^2 = 2 * (1 - cos), so identical
    directions get weight 1 and the weight decays with angle.

    Raises:
        InvalidSigmaError: sigma is not a positive finite number.
    """
    if not np.isfinite(sigma) or sigma <= 0:
        raise InvalidSigmaError(f"sigma must be positive, got {sigma}")
    cos = cosine_affinity(emb).data
    d2 = np.clip(2.0 * (1.0 - cos), 0.0, None)
    data = np.exp(-d2 / (sigma * sigma))
    np.fill_diagonal(data, 0.0)
    return AffinityMatrix(data=data, kind=AffinityKind.KERNELIZED)


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


def binarize(a: AffinityMatrix, p: int) -> AffinityMatrix:
    """Keep the p largest entries of each row as 1, zero the rest.

    The diagonal competes like any other entry; ties among equal values go
    to the lowest column index. Every output row sums to exactly p.

    Raises:
        WrongStateError: input is not a raw-cosine matrix.
        InvalidPError: p outside [1, n].
    """
    if a.kind is not AffinityKind.RAW_COSINE:
        raise WrongStateError(f"binarize expects a raw-cosine matrix, got {a.kind.value}")
    p = int(p)
    if not 1 <= p <= a.n:
        raise InvalidPError(f"p={p} outside [1, {a.n}]")
    data = np.zeros((a.n, a.n))
    np.put_along_axis(data, np.argsort(-a.data, axis=1, kind="stable")[:, :p], 1.0, axis=1)
    return AffinityMatrix(data=data, kind=AffinityKind.BINARIZED)


def symmetrize(a: AffinityMatrix) -> AffinityMatrix:
    """Average a binarized matrix with its transpose; entries land in {0, 0.5, 1}.

    Raises:
        WrongStateError: input is not a binarized matrix.
    """
    if a.kind is not AffinityKind.BINARIZED:
        raise WrongStateError(f"symmetrize expects a binarized matrix, got {a.kind.value}")
    data = (a.data + a.data.T) / 2.0
    return AffinityMatrix(data=data, kind=AffinityKind.SYMMETRIZED)
