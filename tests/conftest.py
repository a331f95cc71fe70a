from __future__ import annotations

import numpy as np
import pytest

from nmesc import EmbeddingSequence


@pytest.fixture
def two_ideal_pairs() -> EmbeddingSequence:
    """Four segments in two exactly-separable pairs: (1,0)x2 then (0,1)x2."""
    return EmbeddingSequence(
        starts=np.array([0.0, 1.0, 2.0, 3.0]),
        ends=np.array([1.0, 2.0, 3.0, 4.0]),
        vectors=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
    )


def random_embeddings(rng: np.random.Generator, n: int, dim: int) -> EmbeddingSequence:
    starts = np.arange(n, dtype=float)
    return EmbeddingSequence(
        starts=starts,
        ends=starts + 1.0,
        vectors=rng.standard_normal((n, dim)),
    )
