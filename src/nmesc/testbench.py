"""Synthetic ground-truth corpora and their label-map accuracy.

`generate` draws embedding corpora whose speaker labels are known by
construction; `best_map_accuracy` scores a clustering against them. The
tests' independent oracles live in tests/oracles.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .affinity import EmbeddingSequence
from .diarization import _optimal_mapping

__all__ = [
    "SynthSpec",
    "generate",
    "best_map_accuracy",
]

_MIN_CENTROID_ANGLE_COS = 0.5  # pairwise centroid angle >= 60 degrees


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic speaker-embedding corpus with known labels.

    segments_per_cluster is either a fixed count or an inclusive (lo, hi)
    range sampled per cluster. noise is the gaussian amplitude added to the
    unit centroid before normalization, so smaller values give tighter
    clusters.
    """

    n_clusters: int
    segments_per_cluster: int | tuple[int, int]
    dim: int
    noise: float = 0.0
    seed: int = 42

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if not 0 <= self.noise < np.inf:  # NaN fails both comparisons
            raise ValueError("noise must be a finite number >= 0")
        if isinstance(self.segments_per_cluster, tuple):
            lo, hi = self.segments_per_cluster
            if not 1 <= lo <= hi:
                raise ValueError("segments_per_cluster range must satisfy 1 <= lo <= hi")
        elif self.segments_per_cluster < 1:
            raise ValueError("segments_per_cluster must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _draw_centroids(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    centroids: list[np.ndarray] = []
    attempts = 0
    budget = 200 * spec.n_clusters
    while len(centroids) < spec.n_clusters:
        if attempts >= budget:
            raise ValueError(
                f"could not place {spec.n_clusters} centroids at >= 60 degrees pairwise "
                f"in dimension {spec.dim} after {budget} draws"
            )
        attempts += 1
        cand = rng.standard_normal(spec.dim)
        cand /= np.linalg.norm(cand)
        if all(float(cand @ c) <= _MIN_CENTROID_ANGLE_COS for c in centroids):
            centroids.append(cand)
    return np.array(centroids)


def generate(spec: SynthSpec) -> tuple[EmbeddingSequence, np.ndarray]:
    """Build a labeled embedding sequence on the unit sphere.

    Unit cluster centroids are rejection-sampled to pairwise angles of at
    least 60 degrees; members are normalize(centroid + noise * g) with g
    standard gaussian, so at noise 0 each member is its centroid to rounding.
    Segment order is shuffled and timestamps are contiguous with
    millisecond-exact durations. Deterministic per seed.

    Returns:
        (embedding sequence, ground-truth label per segment)

    Raises:
        ValueError: the centroid separation cannot be met.
    """
    rng = np.random.default_rng(spec.seed)
    centroids = _draw_centroids(spec, rng)
    if isinstance(spec.segments_per_cluster, tuple):
        lo, hi = spec.segments_per_cluster
        counts = rng.integers(lo, hi + 1, size=spec.n_clusters)
    else:
        counts = np.full(spec.n_clusters, spec.segments_per_cluster, dtype=int)

    vectors = []
    labels = []
    for ci in range(spec.n_clusters):
        for _ in range(int(counts[ci])):
            v = centroids[ci]
            if spec.noise > 0:
                v = v + spec.noise * rng.standard_normal(spec.dim)
            vectors.append(v / np.linalg.norm(v))
            labels.append(ci)
    vectors = np.array(vectors)
    labels = np.array(labels, dtype=int)

    perm = rng.permutation(labels.shape[0])
    vectors, labels = vectors[perm], labels[perm]

    # Millisecond-exact contiguous timestamps keep RTTM round trips lossless.
    dur_ms = rng.integers(500, 2500, size=labels.shape[0])
    edges_ms = np.concatenate(([0], np.cumsum(dur_ms)))
    starts = edges_ms[:-1] / 1000.0
    ends = edges_ms[1:] / 1000.0
    emb = EmbeddingSequence(starts=starts, ends=ends, vectors=vectors)
    return emb, labels


def best_map_accuracy(pred, truth) -> float:
    """Highest matching fraction over all one-to-one label maps (any number of labels).

    Raises:
        ValueError: sequences differ in shape, are not 1-d, or are empty.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"label shapes differ: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise ValueError("empty label sequences")
    counts = Counter(zip(truth.tolist(), pred.tolist()))
    matched = sum(counts[(t, p)] for p, t in _optimal_mapping(counts).items())
    return matched / pred.size
