from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmesc import (
    SynthSpec,
    best_map_accuracy,
    cosine_affinity,
    generate,
)
from nmesc.testbench import _draw_centroids
from oracles import exhaustive_map_accuracy, matrix_component_count


def test_generate_deterministic_and_exact_counts() -> None:
    spec = SynthSpec(n_clusters=3, segments_per_cluster=10, dim=8, noise=0.1, seed=5)
    emb1, truth1 = generate(spec)
    emb2, truth2 = generate(spec)
    assert np.array_equal(emb1.vectors, emb2.vectors)
    assert np.array_equal(truth1, truth2)
    assert np.array_equal(emb1.starts, emb2.starts)
    assert emb1.n == 30
    assert np.bincount(truth1).tolist() == [10, 10, 10]


def test_generate_range_counts_within_bounds() -> None:
    spec = SynthSpec(n_clusters=4, segments_per_cluster=(5, 9), dim=16, noise=0.05, seed=9)
    _, truth = generate(spec)
    counts = np.bincount(truth)
    assert counts.size == 4
    assert np.all((counts >= 5) & (counts <= 9))


def test_generate_single_cluster_all_same_label() -> None:
    _, truth = generate(SynthSpec(n_clusters=1, segments_per_cluster=6, dim=4, seed=1))
    assert set(truth.tolist()) == {0}


def test_generate_noise_free_blocks_are_ideal() -> None:
    emb, truth = generate(SynthSpec(n_clusters=3, segments_per_cluster=5, dim=12, noise=0.0, seed=3))
    a = cosine_affinity(emb)
    same = truth[:, None] == truth[None, :]
    assert a[same].min() >= 1.0 - 1e-12
    assert a[~same].max() <= 0.5 + 1e-12  # centroids at >= 60 degrees


def test_generate_noise_free_members_are_their_centroids() -> None:
    spec = SynthSpec(n_clusters=3, segments_per_cluster=4, dim=5, noise=0.0, seed=8)
    emb, truth = generate(spec)
    centroids = _draw_centroids(spec, np.random.default_rng(spec.seed))  # generate's first draws
    assert np.abs(emb.vectors - centroids[truth]).max() <= 1e-15


def test_generate_unit_norm_and_contiguous_times() -> None:
    emb, _ = generate(SynthSpec(n_clusters=2, segments_per_cluster=8, dim=6, noise=0.2, seed=7))
    assert np.abs(np.linalg.norm(emb.vectors, axis=1) - 1.0).max() <= 1e-12
    assert np.array_equal(emb.starts[1:], emb.ends[:-1])
    assert emb.starts[0] == 0.0


def test_generate_infeasible_spec() -> None:
    message = "^could not place 20 centroids at >= 60 degrees pairwise in dimension 2 after 4000 draws$"
    with pytest.raises(ValueError, match=message):
        generate(SynthSpec(n_clusters=20, segments_per_cluster=2, dim=2, seed=0))


def test_synth_spec_validation() -> None:
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=0, segments_per_cluster=3, dim=4)
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=2, segments_per_cluster=3, dim=1)
    for noise in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="^noise must be a finite number >= 0$"):
            SynthSpec(n_clusters=2, segments_per_cluster=3, dim=4, noise=noise)
    with pytest.raises(ValueError):
        SynthSpec(n_clusters=2, segments_per_cluster=(4, 2), dim=4)
    with pytest.raises(ValueError, match="^segments_per_cluster must be >= 1$"):
        SynthSpec(n_clusters=2, segments_per_cluster=0, dim=4)
    with pytest.raises(ValueError, match="seed"):
        SynthSpec(n_clusters=2, segments_per_cluster=3, dim=4, seed=-1)


def test_best_map_accuracy_identity_and_relabeling() -> None:
    truth = np.array([0, 0, 1, 2, 1])
    assert best_map_accuracy(truth, truth) == 1.0
    relabeled = np.array([2, 2, 0, 1, 0])  # bijection 0->2, 1->0, 2->1
    assert best_map_accuracy(relabeled, truth) == 1.0


def test_best_map_accuracy_hand_case() -> None:
    assert best_map_accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75


def test_best_map_accuracy_constant_prediction_floor() -> None:
    rng = np.random.default_rng(11)
    truth = rng.integers(0, 4, size=40)
    const = np.zeros(40, dtype=int)
    floor = np.bincount(truth).max() / 40
    assert best_map_accuracy(const, truth) == pytest.approx(floor)


def test_best_map_accuracy_errors() -> None:
    with pytest.raises(ValueError, match=r"^label shapes differ: \(2,\) vs \(3,\)$"):
        best_map_accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValueError, match="^empty label sequences$"):
        best_map_accuracy([], [])
    # More labels than an exhaustive search over permutations can afford.
    for m in (10, 12):
        truth = np.repeat(np.arange(m), 3)
        assert best_map_accuracy((truth * 7 + 5) % m, truth) == 1.0


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=40)
)
def test_best_map_accuracy_equals_exhaustive_oracle(pairs) -> None:
    pred, truth = (list(side) for side in zip(*pairs))
    assert best_map_accuracy(pred, truth) == exhaustive_map_accuracy(pred, truth)


def test_connected_components_cases() -> None:
    assert matrix_component_count(np.eye(5)) == 5
    assert matrix_component_count(np.ones((4, 4))) == 1
    two_cliques = np.zeros((4, 4))
    two_cliques[:2, :2] = 1.0
    two_cliques[2:, 2:] = 1.0
    assert matrix_component_count(two_cliques) == 2
    half = np.array([[1.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert matrix_component_count(half) == 2
