from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmesc import (
    EmbeddingSequence,
    binarize,
    cosine_affinity,
    kernel_affinity,
    symmetrize,
)
from nmesc.affinity import descending_order
from conftest import random_embeddings


# ---------------------------------------------------------------------------
# cosine affinity
# ---------------------------------------------------------------------------


def test_cosine_affinity_orthogonal_pair() -> None:
    emb = EmbeddingSequence(
        starts=np.array([0.0, 1.0]),
        ends=np.array([1.0, 2.0]),
        vectors=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert np.array_equal(cosine_affinity(emb), np.eye(2))


def test_cosine_affinity_identical_vectors_all_ones() -> None:
    emb = EmbeddingSequence(
        starts=np.arange(3.0),
        ends=np.arange(3.0) + 1,
        vectors=np.tile([2.0, 1.0, 0.0], (3, 1)),
    )
    assert np.allclose(cosine_affinity(emb), 1.0, atol=1e-12)


def test_cosine_affinity_matches_double_loop_oracle() -> None:
    rng = np.random.default_rng(0)
    emb = random_embeddings(rng, 5, 4)
    a = cosine_affinity(emb)
    for i in range(5):
        for j in range(5):
            u, v = emb.vectors[i], emb.vectors[j]
            want = 1.0 if i == j else float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert a[i, j] == pytest.approx(want, abs=1e-12)


def test_cosine_affinity_scale_invariant() -> None:
    rng = np.random.default_rng(1)
    emb = random_embeddings(rng, 6, 5)
    scales = rng.uniform(0.1, 10.0, 6)
    scaled = EmbeddingSequence(
        starts=emb.starts, ends=emb.ends, vectors=emb.vectors * scales[:, None]
    )
    assert np.abs(cosine_affinity(emb) - cosine_affinity(scaled)).max() <= 1e-12


def test_cosine_affinity_bounds_and_diagonal() -> None:
    rng = np.random.default_rng(2)
    a = cosine_affinity(random_embeddings(rng, 10, 3))
    assert np.all(a <= 1.0) and np.all(a >= -1.0)
    assert np.array_equal(np.diag(a), np.ones(10))
    assert np.array_equal(a, a.T)


# ---------------------------------------------------------------------------
# kernel affinity
# ---------------------------------------------------------------------------


def test_kernel_affinity_identical_directions_weight_one() -> None:
    emb = EmbeddingSequence(
        starts=np.array([0.0, 1.0]),
        ends=np.array([1.0, 2.0]),
        vectors=np.array([[1.0, 0.0], [2.0, 0.0]]),  # same direction, d = 0
    )
    a = kernel_affinity(emb, sigma=0.5)
    assert a[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_kernel_affinity_diagonal_zero_any_sigma() -> None:
    rng = np.random.default_rng(3)
    emb = random_embeddings(rng, 5, 4)
    for sigma in (0.1, 1.0, 10.0):
        assert np.array_equal(np.diag(kernel_affinity(emb, sigma)), np.zeros(5))


def test_kernel_affinity_half_distance_value() -> None:
    # Unit vectors with cos = 0.875 sit at chordal distance 0.5.
    c = 0.875
    emb = EmbeddingSequence(
        starts=np.array([0.0, 1.0]),
        ends=np.array([1.0, 2.0]),
        vectors=np.array([[1.0, 0.0], [c, np.sqrt(1 - c * c)]]),
    )
    a = kernel_affinity(emb, sigma=1.0)
    assert a[0, 1] == pytest.approx(np.exp(-0.25), abs=1e-12)
    assert a[0, 1] == pytest.approx(0.7788, abs=1e-4)


def test_kernel_affinity_entries_in_unit_interval() -> None:
    rng = np.random.default_rng(4)
    a = kernel_affinity(random_embeddings(rng, 8, 6), sigma=0.7)
    off = a[~np.eye(8, dtype=bool)]
    assert np.all(off > 0.0) and np.all(off <= 1.0)


def test_kernel_affinity_invalid_sigma() -> None:
    rng = np.random.default_rng(5)
    emb = random_embeddings(rng, 4, 3)
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^sigma must be a positive finite number, got {sigma}$"):
            kernel_affinity(emb, sigma)


# ---------------------------------------------------------------------------
# binarize / symmetrize
# ---------------------------------------------------------------------------


def test_binarize_p_equals_n_all_ones() -> None:
    rng = np.random.default_rng(6)
    a = cosine_affinity(random_embeddings(rng, 5, 3))
    assert np.array_equal(binarize(a, 5), np.ones((5, 5)))


def test_binarize_hand_enumerated_top2() -> None:
    a = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
    want = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]
    assert np.array_equal(binarize(a, 2), np.array(want))


def test_binarize_p1_is_identity_for_distinct_rows() -> None:
    rng = np.random.default_rng(7)
    a = cosine_affinity(random_embeddings(rng, 9, 5))
    assert np.array_equal(binarize(a, 1), np.eye(9))


def test_binarize_p1_duplicate_ties_go_to_lowest_column() -> None:
    a = np.array([[1.0, 1.0, 0.2], [1.0, 1.0, 0.3], [0.2, 0.3, 1.0]])
    want = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert np.array_equal(binarize(a, 1), np.array(want))


def test_binarize_many_ties_go_to_lowest_columns() -> None:
    # Rows long enough that an unstable sort would reorder ties; the oracle is Python's stable sort.
    rng = np.random.default_rng(15)
    data = rng.integers(0, 3, size=(80, 80)) / 2.0
    for p in (1, 7, 40, 79):
        want = np.zeros_like(data)
        for i, row in enumerate(data):
            want[i, sorted(range(80), key=lambda j: -row[j])[:p]] = 1.0
        assert np.array_equal(binarize(data, p), want)


def test_binarize_row_sums_and_monotone_nesting() -> None:
    rng = np.random.default_rng(8)
    a = cosine_affinity(random_embeddings(rng, 11, 4))
    prev = None
    for p in range(1, 12):
        b = binarize(a, p)
        assert np.array_equal(b.sum(axis=1), np.full(11, float(p)))
        assert np.isin(b, (0.0, 1.0)).all()
        if prev is not None:
            assert np.all(prev <= b)  # 1-entries nest as p grows
        prev = b


def test_binarize_errors() -> None:
    rng = np.random.default_rng(9)
    a = cosine_affinity(random_embeddings(rng, 4, 3))
    with pytest.raises(ValueError, match=r"^p=0 outside \[1, 4\]$"):
        binarize(a, 0)
    with pytest.raises(ValueError, match=r"^p=5 outside \[1, 4\]$"):
        binarize(a, 5)


def test_symmetrize_fixed_point_for_symmetric_input() -> None:
    rng = np.random.default_rng(10)
    a = cosine_affinity(random_embeddings(rng, 6, 4))
    b = binarize(a, 6)  # all ones: already symmetric
    assert np.array_equal(symmetrize(b), b)


def test_symmetrize_direct_two_by_two() -> None:
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(symmetrize(a), np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_symmetrize_matches_transpose_average_oracle() -> None:
    rng = np.random.default_rng(11)
    a = cosine_affinity(random_embeddings(rng, 7, 5))
    b = binarize(a, 3)
    sym = symmetrize(b)
    assert np.array_equal(sym, (b + b.T) / 2.0)
    assert np.isin(sym, (0.0, 0.5, 1.0)).all()
    assert np.array_equal(sym, sym.T)


def test_symmetrize_of_full_binarization_is_all_ones() -> None:
    rng = np.random.default_rng(12)
    a = cosine_affinity(random_embeddings(rng, 5, 3))
    assert np.array_equal(symmetrize(binarize(a, 5)), np.ones((5, 5)))


def test_binarize_symmetrize_permutation_equivariance() -> None:
    rng = np.random.default_rng(14)
    a = cosine_affinity(random_embeddings(rng, 8, 6))
    # Distinct row values make the tie-break immaterial.
    for row in a:
        assert np.unique(row).size == 8
    perm = rng.permutation(8)
    p_mat = np.eye(8)[perm]
    permuted = p_mat @ a @ p_mat.T
    for p in (1, 3, 5):
        direct = symmetrize(binarize(permuted, p))
        mapped = p_mat @ symmetrize(binarize(a, p)) @ p_mat.T
        assert np.array_equal(direct, mapped)


@st.composite
def _tied_matrices(draw) -> np.ndarray:
    """Matrices of 1 to 150 rows and 1 to 30 columns with few distinct values, so rows are full of ties.

    Over 64 rows, descending_order works in more than one block of rows.
    """
    rows, cols = draw(st.integers(1, 150)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([np.array([0.0, -0.0]), np.array([-1.0, 0.5, 1.0]), rng.standard_normal(4)]))
    data = rng.choice(levels, size=(rows, cols))
    if draw(st.booleans()):  # some rows with distinct values as well
        data[rng.random(rows) < 0.3] = rng.standard_normal(cols)
    return data


@settings(max_examples=200, deadline=None)
@given(data=_tied_matrices(), pick=st.floats(0.0, 1.0))
def test_descending_order_is_the_stable_argsort_prefix(data, pick) -> None:
    full = np.argsort(-data, axis=1, kind="stable")
    count = 1 + int(pick * (data.shape[1] - 1))
    for c in {1, count, data.shape[1]}:
        assert np.array_equal(descending_order(data, c), full[:, :c])


def test_descending_order_rejects_a_bad_count() -> None:
    for count in (0, 4):
        with pytest.raises(ValueError):
            descending_order(np.eye(3), count)


# ---------------------------------------------------------------------------
# EmbeddingSequence invariants
# ---------------------------------------------------------------------------


def test_embedding_sequence_rejects_bad_segments() -> None:
    vec = np.ones((2, 3))
    with pytest.raises(ValueError):
        EmbeddingSequence(starts=np.array([0.0, 1.0]), ends=np.array([1.0, 0.5]), vectors=vec)
    with pytest.raises(ValueError):
        EmbeddingSequence(starts=np.array([1.0, 0.0]), ends=np.array([2.0, 1.0]), vectors=vec)
    with pytest.raises(ValueError, match="^segment 1 has a zero-norm embedding$"):
        EmbeddingSequence(
            starts=np.array([0.0, 1.0]),
            ends=np.array([1.0, 2.0]),
            vectors=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        )
    with pytest.raises(ValueError, match="^embeddings contain non-finite values$"):
        EmbeddingSequence(starts=np.array([0.0, 1.0]), ends=np.array([1.0, 2.0]), vectors=[[1.0], [np.inf]])
    with pytest.raises(ValueError):
        EmbeddingSequence(starts=np.array([0.0]), ends=np.array([1.0]), vectors=np.ones((1, 3)))
    with pytest.raises(ValueError, match="^starts, ends and vectors must agree in length$"):
        EmbeddingSequence(starts=np.array([0.0, 1.0]), ends=np.array([1.0, 2.0, 3.0]), vectors=vec)
    with pytest.raises(ValueError, match="^embedding dimension must be >= 1$"):
        EmbeddingSequence(starts=np.array([0.0, 1.0]), ends=np.array([1.0, 2.0]), vectors=np.ones((2, 0)))
