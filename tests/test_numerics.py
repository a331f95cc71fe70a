from __future__ import annotations

import ctypes
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmesc import (
    DiarizationResult,
    EigenSystem,
    EmbeddingSequence,
    KMeansResult,
    NoConvergenceError,
    SynthSpec,
    cosine_affinity,
    eigh,
    eigvalsh,
    generate,
    kmeans,
    nme_sc,
)
from nmesc import numerics
from nmesc.affinity import descending_order
from nmesc.nme import _pruned_laplacians
from oracles import bisection_eigenvalues, brute_force_kmeans_inertia

INV_SQRT2 = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# (record type, its array fields, its other fields) for every record that holds arrays.
_ARRAY_RECORDS = [
    (EmbeddingSequence, {"starts": [0.0, 1.0], "ends": [1.0, 2.0], "vectors": [[1.0, 0.0], [0.0, 1.0]]}, {}),
    (EigenSystem, {"values": [0.0, 2.0], "vectors": [[1.0, 0.0], [0.0, 1.0]]}, {}),
    (KMeansResult, {"labels": [0, 1], "centroids": [[0.0], [1.0]]}, {"inertia": 0.0}),
    (DiarizationResult, {"starts": [0.0, 1.0], "ends": [1.0, 2.0], "labels": [0, 1]}, {"recording_id": "r"}),
]


@pytest.mark.parametrize(("record_type", "arrays", "others"), _ARRAY_RECORDS, ids=[r[0].__name__ for r in _ARRAY_RECORDS])
def test_records_hold_read_only_copies_of_their_arrays(record_type, arrays, others) -> None:
    sources = {name: np.array(value) for name, value in arrays.items()}
    record = record_type(**sources, **others)
    for name, source in sources.items():
        held = getattr(record, name)
        assert not held.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            held[...] = 7
        expected = source.copy()
        source += 1  # the caller's array changes after construction; the record must not
        assert np.array_equal(getattr(record, name), expected), name


# ---------------------------------------------------------------------------
# eigh
# ---------------------------------------------------------------------------


def test_eigh_two_node_path_laplacian() -> None:
    es = eigh(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert es.values == pytest.approx([0.0, 2.0], abs=1e-12)
    # Eigenvectors are defined up to sign.
    v0, v1 = es.vectors[:, 0], es.vectors[:, 1]
    assert np.allclose(np.abs(v0), [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert np.allclose(np.abs(v1), [INV_SQRT2, INV_SQRT2], atol=1e-12)
    assert v0[0] * v0[1] > 0  # same sign: the (1,1) direction
    assert v1[0] * v1[1] < 0  # opposite signs: the (1,-1) direction


def test_eigh_identity() -> None:
    es = eigh(np.eye(3))
    assert es.values == pytest.approx([1.0, 1.0, 1.0], abs=0)


def test_eigh_matches_bisection_oracle_on_random_6x6() -> None:
    rng = np.random.default_rng(42)
    m = rng.uniform(-1, 1, (6, 6))
    m = (m + m.T) / 2
    assert np.abs(eigh(m).values - bisection_eigenvalues(m)).max() <= 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_eigh_invariants(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2
    es = eigh(m)
    assert np.all(np.diff(es.values) >= 0)
    norms = np.linalg.norm(es.vectors, axis=0)
    assert np.abs(norms - 1.0).max() <= 1e-9
    gram = es.vectors.T @ es.vectors - np.eye(n)
    assert np.abs(gram).max() <= 1e-8
    for i in range(n):
        resid = m @ es.vectors[:, i] - es.values[i] * es.vectors[:, i]
        assert np.abs(resid).max() <= 1e-8 * max(1.0, abs(es.values[i]))
    # Trace identity.
    assert abs(es.values.sum() - np.trace(m)) <= 1e-8 * n * max(1.0, np.abs(m).max())


def test_eigh_permutation_similarity_preserves_spectrum() -> None:
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 7))
    m = (m + m.T) / 2
    perm = rng.permutation(7)
    p = np.eye(7)[perm]
    permuted = p @ m @ p.T
    assert np.abs(eigh(m).values - eigh(permuted).values).max() <= 1e-9


def test_eigh_deterministic() -> None:
    rng = np.random.default_rng(11)
    m = rng.standard_normal((9, 9))
    m = (m + m.T) / 2
    a, b = eigh(m), eigh(m)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)


def test_eigen_system_rejects_a_misshapen_or_unsorted_decomposition() -> None:
    with pytest.raises(ValueError, match=r"^vectors must be 2x2, got \(3, 3\)$"):
        EigenSystem(values=[0.0, 1.0], vectors=np.eye(3))
    with pytest.raises(ValueError, match="^eigenvalues must be sorted ascending$"):
        EigenSystem(values=[1.0, 0.0], vectors=np.eye(2))


def test_eigh_rejects_bad_input() -> None:
    with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        eigh(np.zeros((2, 3)))


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
def test_solver_input_checks_at_their_tolerance(solver) -> None:
    import nmesc

    solve = getattr(nmesc, solver)
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            solve(m)
        m[2, 1] = 7.0  # also asymmetric: the finiteness check still comes first
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            solve(m)
    # The asymmetry tolerance is 1e-12 * max(1, max |entry|); here max |entry|
    # is the -100 on the diagonal, so the tolerance is 1e-10.
    for excess, raises in ((1.2e-10, True), (-1.2e-10, True), (0.8e-10, False), (-0.8e-10, False)):
        m = np.diag([-100.0, 1.0, 2.0])
        m[0, 1] = m[1, 0] = 5.0
        m[0, 1] += excess
        if raises:
            with pytest.raises(ValueError, match="not symmetric"):
                solve(m)
        else:
            solve(m)


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
def test_solver_turns_a_lapack_failure_into_no_convergence(monkeypatch, solver) -> None:
    import nmesc

    monkeypatch.setattr(numerics, "_lapacke_dsyevd", lambda: lambda *args: 1)  # dsyevd's info > 0
    with pytest.raises(NoConvergenceError) as info:
        getattr(nmesc, solver)(np.eye(3))
    assert str(info.value) == "symmetric eigensolver did not converge: Eigenvalues did not converge"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_solver_reports_a_lapacke_error_as_is(monkeypatch) -> None:
    monkeypatch.setattr(numerics, "_lapacke_dsyevd", lambda: lambda *args: -1010)  # LAPACKE's out of memory
    with pytest.raises(RuntimeError, match=r"^LAPACKE_dsyevd failed with info=-1010$") as info:
        eigvalsh(np.eye(3))
    assert type(info.value) is RuntimeError


_NEEDS_DIRECT = pytest.mark.skipif(
    numerics._lapacke_dsyevd() is None,
    reason="numpy bundles no OpenBLAS exporting scipy_LAPACKE_dsyevd64_, so eigh and eigvalsh run numpy's solver",
)


@st.composite
def _symmetric_matrices(draw) -> np.ndarray:
    """A random symmetric matrix, or a pruned-graph Laplacian whose zero eigenvalue repeats per component.

    The Laplacian's rows come from at most 4 directions, often exactly
    repeated, so at small p the graph falls apart into components.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if n == 1 or draw(st.booleans()):
        m = rng.standard_normal((n, n))
        return (m + m.T) / 2
    centers = rng.standard_normal((draw(st.integers(1, 4)), 8))
    noise = draw(st.sampled_from([0.0, 0.05]))
    vectors = centers[rng.integers(len(centers), size=n)] + noise * rng.standard_normal((n, 8))
    starts = np.arange(n, dtype=float)
    a = cosine_affinity(EmbeddingSequence(starts=starts, ends=starts + 1.0, vectors=vectors))
    p = draw(st.integers(1, max(1, n // 4)))
    *_, lap = _pruned_laplacians(descending_order(a, p), p)
    return lap


_PATHS = [pytest.param(True, marks=_NEEDS_DIRECT, id="direct"), pytest.param(False, id="fallback")]


@pytest.mark.parametrize("direct", _PATHS)
@settings(max_examples=100, deadline=None)
@given(m=_symmetric_matrices())
def test_solvers_equal_numpy_bit_for_bit_on_either_path(direct, m) -> None:
    lookup = numerics._lapacke_dsyevd if direct else lambda: None
    keep = m.copy()
    with mock.patch.object(numerics, "_lapacke_dsyevd", lookup):
        es = eigh(m)
        assert np.array_equal(m, keep)  # the solver wrote only its own copy
        values = eigvalsh(m)
        assert np.array_equal(m, keep)
    want_values, want_vectors = np.linalg.eigh(keep)
    assert np.array_equal(es.values, want_values)
    assert np.array_equal(es.vectors, want_vectors)
    assert np.array_equal(values, np.linalg.eigvalsh(keep))
    assert es.vectors.flags.c_contiguous and not es.vectors.flags.writeable


@_NEEDS_DIRECT
def test_nme_sc_hands_numpy_no_n_by_n_solve(monkeypatch) -> None:
    emb, _ = generate(SynthSpec(n_clusters=8, segments_per_cluster=50, dim=192, noise=0.15, seed=1))
    sizes = []
    for name in ("eigh", "eigvalsh"):

        def spy(m, *args, _solve=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(m)[0])
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    nme_sc(emb)
    assert sizes, "the scan's w x w Ritz solves call numpy"
    assert max(sizes) < emb.n == 400


def test_lookup_finds_nothing_without_a_bundled_lapacke(monkeypatch, tmp_path) -> None:
    lookup = numerics._lapacke_dsyevd.__wrapped__  # the uncached lookup
    monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    assert lookup() is None  # no numpy.libs directory
    (tmp_path / "numpy.libs").mkdir()
    (tmp_path / "numpy.libs" / "libscipy_openblas64_-junk.so").write_bytes(b"not a shared library")
    assert lookup() is None  # the library does not load
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert lookup() is None  # the library lacks the symbol


def test_eigvalsh_matches_eigh_and_validates() -> None:
    rng = np.random.default_rng(29)
    m = rng.standard_normal((10, 10))
    m = (m + m.T) / 2
    assert np.abs(eigvalsh(m) - eigh(m).values).max() <= 1e-9
    with pytest.raises(ValueError):
        eigvalsh(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------


def test_kmeans_separated_pairs() -> None:
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
    res = kmeans(pts, 2, seed=0)
    assert res.labels[0] == res.labels[1]
    assert res.labels[2] == res.labels[3]
    assert res.labels[0] != res.labels[2]
    assert res.inertia == pytest.approx(0.01, abs=1e-12)


def test_kmeans_k_equals_n() -> None:
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((6, 3))
    res = kmeans(pts, 6, seed=1)
    assert res.inertia == pytest.approx(0.0, abs=1e-12)
    assert sorted(res.labels) == list(range(6))


def test_kmeans_matches_exhaustive_enumeration(monkeypatch) -> None:
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((8, 2))
    monkeypatch.setattr(numerics, "_RESTARTS", 20)
    res = kmeans(pts, 3, seed=7)
    assert res.inertia == pytest.approx(brute_force_kmeans_inertia(pts, 3), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_kmeans_inertia_history_nonincreasing(monkeypatch, seed: int) -> None:
    # One restart capped at 0, 1, 2, ... centroid updates returns the inertia of each of its assignment passes in turn.
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((40, 3))
    monkeypatch.setattr(numerics, "_RESTARTS", 1)
    history = []
    for cap in range(31):
        monkeypatch.setattr(numerics, "_MAX_ITER", cap)
        history.append(kmeans(pts, 4, seed=seed).inertia)
    assert np.all(np.diff(history) <= 1e-12)
    assert history[-1] == history[-2]  # converged within the caps tried


def test_kmeans_restart_reduction_is_min(monkeypatch) -> None:
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((30, 2))
    monkeypatch.setattr(numerics, "_RESTARTS", 8)
    multi = kmeans(pts, 3, seed=100)
    monkeypatch.setattr(numerics, "_RESTARTS", 1)
    singles = [kmeans(pts, 3, seed=100 + i).inertia for i in range(8)]
    assert multi.inertia == min(singles)


def test_kmeans_translation_leaves_labels_unchanged() -> None:
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((25, 4))
    shift = np.array([3.7, -1.2, 0.5, 8.0])
    a = kmeans(pts, 3, seed=2)
    b = kmeans(pts + shift, 3, seed=2)
    assert np.array_equal(a.labels, b.labels)


def test_kmeans_labels_are_nearest_centroid_and_cover_range() -> None:
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((30, 2))
    res = kmeans(pts, 4, seed=3)
    assert set(res.labels.tolist()) == {0, 1, 2, 3}
    d2 = ((pts[:, None, :] - res.centroids[None, :, :]) ** 2).sum(-1)
    assert np.array_equal(res.labels, np.argmin(d2, axis=1))
    assert res.inertia == pytest.approx(d2[np.arange(30), res.labels].sum())


def test_kmeans_duplicate_points_still_fill_every_cluster() -> None:
    pts = np.zeros((5, 2))
    res = kmeans(pts, 3, seed=0)
    assert set(res.labels.tolist()) == {0, 1, 2}
    assert res.inertia == pytest.approx(0.0, abs=0)


def test_kmeans_invalid_inputs() -> None:
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"^k=0 outside \[1, 4\]$"):
        kmeans(pts, 0, 0)
    with pytest.raises(ValueError, match=r"^k=5 outside \[1, 4\]$"):
        kmeans(pts, 5, 0)
    with pytest.raises(ValueError, match="^points contain non-finite entries$"):
        kmeans(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1, 0)


def test_kmeans_takes_a_1d_array_as_one_column() -> None:
    values = np.array([0.0, 5.0, 0.1, 5.2, 0.2])
    flat = kmeans(values, 2, seed=3)
    column = kmeans(values[:, None], 2, seed=3)
    assert flat.centroids.shape == (2, 1)
    assert np.array_equal(flat.labels, column.labels)
    assert np.array_equal(flat.centroids, column.centroids)
    assert flat.labels[0] == flat.labels[2] == flat.labels[4] != flat.labels[1] == flat.labels[3]


def test_kmeans_iteration_cap_keeps_labels_consistent(monkeypatch) -> None:
    rng = np.random.default_rng(31)
    pts = rng.standard_normal((50, 3))
    monkeypatch.setattr(numerics, "_RESTARTS", 2)
    monkeypatch.setattr(numerics, "_MAX_ITER", 1)
    res = kmeans(pts, 5, seed=4)
    d2 = ((pts[:, None, :] - res.centroids[None, :, :]) ** 2).sum(-1)
    assert np.array_equal(res.labels, np.argmin(d2, axis=1))


def test_kmeans_deterministic() -> None:
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((20, 3))
    a = kmeans(pts, 3, seed=77)
    b = kmeans(pts, 3, seed=77)
    assert np.array_equal(a.labels, b.labels)
    assert a.inertia == b.inertia
