from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmesc import (
    EmbeddingSequence,
    NjwConfig,
    NmeConfig,
    NmeScan,
    SynthSpec,
    best_map_accuracy,
    binarize,
    cosine_affinity,
    eigengap_vector,
    eigh,
    eigvalsh,
    generate,
    kernel_affinity,
    nme_at,
    nme_probes,
    nme_sc,
    nme_scan,
    njw_sc,
    normalized_laplacian,
    spectral_embedding,
    symmetrize,
    unnormalized_laplacian,
)
from nmesc.affinity import descending_order
import nmesc.nme
from nmesc.nme import (
    _CERTIFICATE_FLOOR,
    _SKIP_MARGIN,
    _component_count,
    _njw_embedding,
    _nme_metrics,
    _pruned_laplacians,
    _r_lower_bound,
    _rayleigh_ritz_step,
)
from conftest import random_embeddings
from oracles import bfs_component_count, matrix_component_count


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


def test_unnormalized_laplacian_two_node_clique() -> None:
    lap = unnormalized_laplacian(np.ones((2, 2)))
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_unnormalized_laplacian_of_identity_is_zero() -> None:
    assert np.array_equal(unnormalized_laplacian(np.eye(4)), np.zeros((4, 4)))


def test_unnormalized_laplacian_zero_multiplicity_counts_blocks() -> None:
    rng = np.random.default_rng(0)
    blocks = [np.ones((3, 3)), np.ones((2, 2)), np.ones((4, 4))]
    data = np.zeros((9, 9))
    at = 0
    for b in blocks:
        data[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    perm = rng.permutation(9)
    data = data[perm][:, perm]
    values = eigh(unnormalized_laplacian(data)).values
    assert int((values < 1e-9).sum()) == 3
    assert matrix_component_count(data) == 3


def test_unnormalized_laplacian_rows_sum_to_zero_and_psd() -> None:
    rng = np.random.default_rng(1)
    for seed in range(10):
        emb = random_embeddings(np.random.default_rng(seed), 8, 4)
        a = symmetrize(binarize(cosine_affinity(emb), int(rng.integers(1, 9))))
        lap = unnormalized_laplacian(a)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12
        assert eigh(lap).values[0] >= -1e-9


def test_unnormalized_laplacian_self_loop_invariance_exact() -> None:
    rng = np.random.default_rng(2)
    emb = random_embeddings(rng, 7, 3)
    sym = symmetrize(binarize(cosine_affinity(emb), 3))
    lap = unnormalized_laplacian(sym)
    for c in (0.5, 1.0, 2.5):
        bumped = sym + c * np.eye(7)
        assert np.array_equal(unnormalized_laplacian(bumped), lap)


def test_normalized_laplacian_two_node_swap() -> None:
    lap = normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lap, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    assert np.allclose(np.sort(eigh(lap).values), [-1.0, 1.0], atol=1e-12)


def test_normalized_laplacian_triangle_spectrum() -> None:
    data = np.ones((3, 3)) - np.eye(3)
    values = eigh(normalized_laplacian(data)).values
    assert np.allclose(values, [-0.5, -0.5, 1.0], atol=1e-12)


def test_normalized_laplacian_spectral_bound() -> None:
    rng = np.random.default_rng(4)
    for seed in range(10):
        emb = random_embeddings(np.random.default_rng(seed), 7, 4)
        values = eigh(normalized_laplacian(kernel_affinity(emb, 0.8))).values
        assert values[-1] <= 1.0 + 1e-9
        assert values[0] >= -1.0 - 1e-9


def test_normalized_laplacian_isolated_node() -> None:
    with pytest.raises(ValueError, match="^vertex 0 has zero affinity mass$"):
        normalized_laplacian(np.zeros((3, 3)))


# Every step that takes a matrix, called on a 3 x 4 array.
_MATRIX_STEPS = {
    "binarize": lambda a: binarize(a, 1),
    "symmetrize": symmetrize,
    "unnormalized_laplacian": unnormalized_laplacian,
    "normalized_laplacian": normalized_laplacian,
    "nme_scan": nme_scan,
    "nme_probes": lambda a: next(nme_probes(a, [1])),
    "nme_at": lambda a: nme_at(a, 1),
}


@pytest.mark.parametrize("step", _MATRIX_STEPS.values(), ids=_MATRIX_STEPS.keys())
def test_matrix_steps_reject_a_non_square_input(step) -> None:
    with pytest.raises(ValueError, match=r"^affinity matrix must be square, got shape \(3, 4\)$"):
        step(np.ones((3, 4)))


# ---------------------------------------------------------------------------
# Eigengap vector
# ---------------------------------------------------------------------------


def test_eigengap_vector_two_components() -> None:
    e = eigengap_vector(np.array([0.0, 0.0, 2.0, 2.0]), limit=8)
    assert np.array_equal(e, [0.0, 2.0, 0.0])
    assert 1 + int(np.argmax(e)) == 2


def test_eigengap_vector_three_components_with_limit() -> None:
    e = eigengap_vector(np.array([0.0, 0.0, 0.0, 5.0, 5.0]), limit=4)
    assert np.array_equal(e, [0.0, 0.0, 5.0, 0.0])
    assert 1 + int(np.argmax(e)) == 3


def test_eigengap_vector_uniform_spectrum_tie() -> None:
    e = eigengap_vector(np.array([0.0, 1.0, 2.0, 3.0]), limit=8)
    assert np.array_equal(e, [1.0, 1.0, 1.0])
    assert 1 + int(np.argmax(e)) == 1  # lowest index on ties


def test_eigengap_vector_errors() -> None:
    with pytest.raises(ValueError, match="^need at least 2 eigenvalues to form gaps$"):
        eigengap_vector(np.array([1.0]), limit=3)
    with pytest.raises(ValueError, match="^limit must be >= 1$"):
        eigengap_vector(np.array([1.0, 2.0]), limit=0)


# ---------------------------------------------------------------------------
# nme_at / nme_scan
# ---------------------------------------------------------------------------


def test_nme_at_two_ideal_pairs(two_ideal_pairs) -> None:
    probe = nme_at(cosine_affinity(two_ideal_pairs), 2, NmeConfig())
    assert np.allclose(probe.eigensystem.values, [0.0, 0.0, 2.0, 2.0], atol=1e-9)
    assert probe.gp == pytest.approx(1.0, abs=1e-9)
    assert probe.rp == pytest.approx(2.0, abs=1e-8)
    assert probe.k_at_p == 2


def test_nme_at_identical_embeddings_fully_connected() -> None:
    emb = EmbeddingSequence(
        starts=np.arange(5.0),
        ends=np.arange(5.0) + 1,
        vectors=np.tile([1.0, 2.0], (5, 1)),
    )
    a = cosine_affinity(emb)
    probe = nme_at(a, 5, NmeConfig())
    assert probe.k_at_p == 1
    sym = symmetrize(binarize(a, 5))
    zero_mult = int((eigh(unnormalized_laplacian(sym)).values < 1e-9).sum())
    assert zero_mult == matrix_component_count(sym) == 1


def test_nme_probes_yield_each_distinct_p_once_in_ascending_order() -> None:
    a = cosine_affinity(random_embeddings(np.random.default_rng(10), 9, 3))
    probes = list(nme_probes(a, [5, 2, 5]))
    assert [probe.p for probe in probes] == [2, 5]
    for probe in probes:
        single = nme_at(a, probe.p)
        assert (probe.gp, probe.rp, probe.k_at_p) == (single.gp, single.rp, single.k_at_p)
    assert list(nme_probes(a, [])) == []


def test_nme_probes_reject_a_p_outside_one_to_n_at_the_first_next() -> None:
    a = cosine_affinity(random_embeddings(np.random.default_rng(11), 6, 3))
    for p in (0, 7):
        with pytest.raises(ValueError, match=rf"^p={p} outside \[1, 6\]$"):
            nme_at(a, p)
        probes = nme_probes(a, [3, p])  # nothing is checked until the first next()
        with pytest.raises(ValueError, match=rf"^p={p} outside \[1, 6\]$"):
            next(probes)


def test_nme_metrics_bounds_hold_on_random_inputs() -> None:
    for seed in range(15):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        a = cosine_affinity(random_embeddings(rng, n, 3))
        p = int(rng.integers(1, n + 1))
        probe = nme_at(a, p, NmeConfig())
        assert 0.0 <= probe.gp <= 1.0
        assert probe.rp >= p


def _capped(cap: int | None):
    """Patch the scan's p cap rule to min(cap, N); None keeps the rule, floor(N/4)."""
    if cap is None:
        return contextlib.nullcontext()
    return mock.patch.object(nmesc.nme, "_p_cap", lambda n: min(cap, n))


def test_nme_scan_two_ideal_pairs_hand_enumeration(two_ideal_pairs) -> None:
    # Duplicate vectors tie at 1.0, so p=1 keeps column 0 (not the diagonal):
    # each pair collapses to one edge of weight 1/2, spectrum {0,0,1,1},
    # r(1) ~ 1; at p=2 the pairs are 2-cliques, spectrum {0,0,2,2}, r(2) ~ 2.
    # Since r(p) >= p, p=2 cannot beat r(1) ~ 1, so the scan stops after p=1.
    a = cosine_affinity(two_ideal_pairs)
    with _capped(2):
        scan = nme_scan(a, NmeConfig())
    assert [e.p for e in scan.entries] == [1]
    assert scan.p_max == 2
    assert scan.entries[0].rp == pytest.approx(1.0, abs=1e-8)
    assert nme_at(a, 2).rp == pytest.approx(2.0, abs=1e-8)
    assert scan.p_hat == 1
    assert scan.k_hat == 2
    assert scan.entries[0].k_at_p == 2


def test_nme_scan_fixed_k_overrides_only_k(two_ideal_pairs) -> None:
    a = cosine_affinity(two_ideal_pairs)
    with _capped(2):
        free = nme_scan(a, NmeConfig())
        fixed = nme_scan(a, NmeConfig(fixed_k=1))
    assert fixed.k_hat == 1
    assert fixed.p_hat == free.p_hat
    for e_free, e_fixed in zip(free.entries, fixed.entries):
        assert e_free.rp == e_fixed.rp


def test_nme_scan_recovers_three_clusters() -> None:
    emb, truth = generate(SynthSpec(n_clusters=3, segments_per_cluster=20, dim=16, noise=0.05, seed=5))
    scan = nme_scan(cosine_affinity(emb), NmeConfig())
    assert scan.k_hat == 3
    result, scan2 = nme_sc(emb, NmeConfig())
    assert scan2.k_hat == 3
    assert best_map_accuracy(result.labels, truth) == 1.0


def test_nme_scan_entry_structure_and_defaults() -> None:
    rng = np.random.default_rng(6)
    emb = random_embeddings(rng, 17, 4)
    scan = nme_scan(cosine_affinity(emb), NmeConfig())
    assert scan.p_max == 17 // 4
    evaluated = [e.p for e in scan.entries]
    assert evaluated == list(range(1, scan.p_max + 1)) and scan.skipped == ()
    for e in scan.entries:
        assert 0.0 <= e.gp <= 1.0
        assert e.rp >= e.p
        assert 1 <= e.k_at_p <= min(8, 16)
    best = min(scan.entries, key=lambda e: (e.rp, e.p))
    assert scan.p_hat == best.p
    assert scan.k_hat == min(best.k_at_p, 8)


def test_nme_scan_deterministic() -> None:
    rng = np.random.default_rng(7)
    emb = random_embeddings(rng, 20, 5)
    a = cosine_affinity(emb)
    s1 = nme_scan(a, NmeConfig())
    s2 = nme_scan(a, NmeConfig())
    assert (s1.p_hat, s1.k_hat, s1.p_max) == (s2.p_hat, s2.k_hat, s2.p_max)
    assert [e.p for e in s1.entries] == [e.p for e in s2.entries]
    for e1, e2 in zip(s1.entries, s2.entries):
        assert (e1.p, e1.gp, e1.rp, e1.k_at_p) == (e2.p, e2.gp, e2.rp, e2.k_at_p)
    assert s1.skipped == s2.skipped


@st.composite
def _affinities_with_duplicates(draw) -> np.ndarray:
    """Raw cosine affinities, N in [4, 40], whose rows are drawn with replacement.

    Repeated rows are exact duplicates. With {-1, 1}^4 vectors every cosine is
    exact, so a duplicate's cosine ties the pinned diagonal and, the tie going
    to the lower column, row i's nearest neighbour need not be i itself.
    """
    n = draw(st.integers(4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.choice([-1.0, 1.0], size=(n, 4))
    else:
        base = rng.standard_normal((n, int(rng.integers(2, 9))))
    pick = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    starts = np.arange(n, dtype=float)
    return cosine_affinity(EmbeddingSequence(starts=starts, ends=starts + 1.0, vectors=base[pick]))


@settings(max_examples=100, deadline=None)
@given(a=_affinities_with_duplicates())
def test_pruned_laplacians_equal_public_chain_at_every_p(a) -> None:
    n = a.shape[0]
    laplacians = _pruned_laplacians(descending_order(a, n), n)
    probes = nme_probes(a, range(1, n + 1))
    for p, lap, probe in zip(range(1, n + 1), laplacians, probes, strict=True):
        chain = unnormalized_laplacian(symmetrize(binarize(a, p)))
        assert np.array_equal(lap, chain)
        want = eigh(chain)
        for got in (probe, nme_at(a, p)):
            assert got.p == p
            assert np.array_equal(got.eigensystem.values, want.values)
            assert np.array_equal(got.eigensystem.vectors, want.vectors)


@settings(max_examples=100, deadline=None)
@given(
    a=_affinities_with_duplicates(),
    max_speakers=st.integers(1, 8),
    cap=st.one_of(st.none(), st.integers(1, 40)),
)
def test_nme_scan_invariants(a, max_speakers, cap) -> None:
    with _capped(cap):
        scan = nme_scan(a, NmeConfig(max_speakers=max_speakers))
    for e in scan.entries:
        assert 0.0 <= e.gp <= 1.0
        assert e.rp >= e.p
        assert 1 <= e.k_at_p <= min(max_speakers, a.shape[0] - 1)
    best = min(scan.entries, key=lambda e: (e.rp, e.p))
    assert scan.p_hat == best.p
    assert scan.k_hat == min(best.k_at_p, max_speakers)


def _full_reference_scan(a: np.ndarray, cfg: NmeConfig, p_max: int) -> list:
    """(p, g_p, r_p, k_at_p) at every p <= p_max through the public chain, no stop."""
    epsilon = nmesc.nme._EPSILON
    rows = []
    for p in range(1, p_max + 1):
        values = eigvalsh(unnormalized_laplacian(symmetrize(binarize(a, p))))
        if epsilon >= 1e-10:  # the condition under which g_p <= 1, so r_p >= p
            assert values[0] >= -epsilon
        gaps = eigengap_vector(values, cfg.max_speakers)
        gp = float(gaps.max()) / (float(values[-1]) + epsilon)
        rp = p / max(gp, epsilon)
        assert rp >= p * (1 - _SKIP_MARGIN) / max(1.0, epsilon)  # what the early stop relies on
        rows.append((p, gp, rp, 1 + int(np.argmax(gaps))))
    return rows


def _assert_scan_matches_full_scan(a: np.ndarray, cfg: NmeConfig):
    """Compare a scan with the full public-chain reference, p by p."""
    scan = nme_scan(a, cfg)
    ref = _full_reference_scan(a, cfg, scan.p_max)
    evaluated = {e.p: e for e in scan.entries}
    skipped = dict(scan.skipped)
    p_last = max([*evaluated, *skipped])
    assert sorted([*evaluated, *skipped]) == list(range(1, p_last + 1))
    for p, gp, rp, k in ref[:p_last]:
        if p in evaluated:
            e = evaluated[p]
            assert (e.p, e.gp, e.rp, e.k_at_p) == (p, gp, rp, k)
        else:
            assert skipped[p] <= rp  # the certified bound holds against the computed r_p
            assert skipped[p] >= min(e.rp for q, e in evaluated.items() if q < p)
    best = min(ref, key=lambda row: (row[2], row[0]))
    assert scan.p_hat == best[0]
    assert scan.k_hat == (cfg.fixed_k if cfg.fixed_k is not None else min(best[3], cfg.max_speakers))
    epsilon = nmesc.nme._EPSILON
    for p, _, rp, _ in ref[p_last:]:
        if epsilon >= 1e-10:
            assert rp >= p / max(1.0, epsilon)  # r_p >= p for epsilon <= 1
        assert p * (1 - _SKIP_MARGIN) >= best[2]
    return scan


@st.composite
def _clustered_affinities(draw) -> np.ndarray:
    """Raw cosine affinities of synthetic 2-4 speaker corpora, N in [40, 200].

    Past p_hat their scans often skip p, which the small drawn matrices rarely do.
    """
    spec = SynthSpec(
        n_clusters=draw(st.integers(2, 4)),
        segments_per_cluster=draw(st.integers(20, 50)),
        dim=draw(st.sampled_from([32, 64])),
        noise=draw(st.sampled_from([0.1, 0.15, 0.2])),
        seed=draw(st.integers(0, 2**16)),
    )
    return cosine_affinity(generate(spec)[0])


@settings(max_examples=100, deadline=None)
@given(
    a=st.one_of(_affinities_with_duplicates(), _clustered_affinities()),
    max_speakers=st.integers(1, 8),
    cap=st.one_of(st.none(), st.integers(1, 40)),
    epsilon=st.sampled_from([1e-14, 1e-10, 1e-3, 2.0]),
)
def test_nme_scan_early_stop_equals_full_scan(a, max_speakers, cap, epsilon) -> None:
    with mock.patch.object(nmesc.nme, "_EPSILON", epsilon), _capped(cap):
        _assert_scan_matches_full_scan(a, NmeConfig(max_speakers=max_speakers))


def test_nme_scan_early_stop_equals_full_scan_on_a_meeting() -> None:
    emb, _ = generate(SynthSpec(n_clusters=4, segments_per_cluster=75, dim=192, noise=0.15, seed=1))
    scan = _assert_scan_matches_full_scan(cosine_affinity(emb), NmeConfig())
    # Stops once p reaches r(8) ~ 63.1. p = 2 leaves at least m = 9 components,
    # so r(2) = 2/epsilon without a solve; of p = 3..63, all past 12 are skipped.
    assert (emb.n, scan.p_max) == (300, 75)
    assert [e.p for e in scan.entries] == [1] + list(range(3, 13))
    assert [p for p, _ in scan.skipped] == [2] + list(range(13, 64))
    assert (scan.p_hat, scan.k_hat) == (8, 4)


@pytest.mark.parametrize("seed", range(12))
def test_r_lower_bound_holds_at_exact_eigenvectors(seed) -> None:
    # With L_q = L_p and its own eigenvectors as the basis (m of them and the
    # guard columns), each Ritz value equals the eigenvalue up to rounding, and
    # so does ||L_p x|| with x the top eigenvector, so only the margin keeps
    # the bound at or below the computed r_p.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    a = cosine_affinity(random_embeddings(rng, n, int(rng.integers(2, 12))))
    cfg = NmeConfig(max_speakers=int(rng.integers(1, 9)))
    w = min(cfg.max_speakers + 4, n)
    for p, lap in enumerate(_pruned_laplacians(descending_order(a, n // 2), n // 2), start=1):
        values = eigvalsh(lap)
        vectors = eigh(lap).vectors
        basis = np.ascontiguousarray(vectors[:, :w])
        theta = np.linalg.eigvalsh(basis.T @ (lap @ basis))
        bound = _r_lower_bound(lap, theta, values, float(np.linalg.norm(lap @ vectors[:, -1])), p, cfg)
        gp, rp = _nme_metrics(values, p, cfg)[:2]
        assert bound <= rp
        if gp > 1e-3:  # away from the epsilon floor the bound is tight
            assert bound >= rp * (1 - 1e-6)


def _laplacian_at(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    for lap in _pruned_laplacians(descending_order(cosine_affinity(random_embeddings(rng, n, 8)), p), p):
        pass
    return lap


def _refresh_inputs():
    """(L_p, basis) pairs, m = 9: a generic basis, exact eigenvectors, and N = 12 < 2m."""
    rng = np.random.default_rng(3)
    lap, small = _laplacian_at(rng, 60, 12), _laplacian_at(rng, 12, 4)
    return [
        (lap, np.linalg.qr(rng.standard_normal((60, 9)))[0]),
        (lap, np.ascontiguousarray(eigh(lap).vectors[:, :9])),
        (small, np.linalg.qr(rng.standard_normal((12, 9)))[0]),
    ]


@pytest.mark.parametrize("case", range(3), ids=["generic", "exact", "n_below_2m"])
def test_rayleigh_ritz_step_keeps_an_orthonormal_basis_and_sound_ritz_values(case) -> None:
    lap, basis = _refresh_inputs()[case]
    lap_basis = lap @ basis
    if case == 1:  # [V, L V] spans only the m eigenvectors: rank-deficient
        assert np.linalg.matrix_rank(np.hstack((basis, lap_basis))) == basis.shape[1]
    refreshed, theta = _rayleigh_ritz_step(lap, basis, lap_basis)
    m = basis.shape[1]
    assert refreshed.shape == basis.shape and theta.shape == (m,)
    assert np.abs(refreshed.T @ refreshed - np.eye(m)).max() <= 1e-12
    exact = eigvalsh(lap)
    delta = _SKIP_MARGIN * (exact[-1] + 1.0)
    assert np.all(theta >= exact[:m] - delta)  # Courant-Fischer, up to the margin
    assert np.allclose(theta, np.linalg.eigvalsh(refreshed.T @ (lap @ refreshed)), rtol=0, atol=1e-9)
    assert np.all(theta <= np.linalg.eigvalsh(basis.T @ lap_basis) + delta)  # never worse than before
    if case > 0:  # an invariant subspace or the whole space: theta is exact
        assert np.allclose(theta, exact[:m], rtol=0, atol=1e-9)


def test_rayleigh_ritz_step_ignores_rounding_noise_of_a_converged_pair() -> None:
    # The constant vector is a null vector of every L_p, so L_p maps it to
    # rounding noise. That noise must not pick a direction of the new basis.
    rng = np.random.default_rng(4)
    lap = _laplacian_at(rng, 60, 12)
    basis = np.linalg.qr(np.hstack((np.ones((60, 1)), rng.standard_normal((60, 8)))))[0]
    lap_basis = lap @ basis
    results = []
    for noise in (0.0, 1e-15, -1e-15):
        noisy = lap_basis.copy()
        noisy[:, 0] = noise * rng.standard_normal(60)
        results.append(_rayleigh_ritz_step(lap, basis, noisy))
    for refreshed, theta in results[1:]:
        assert np.allclose(theta, results[0][1], rtol=0, atol=1e-12)
        assert np.allclose(np.abs(refreshed.T @ results[0][0]), np.eye(9), rtol=0, atol=1e-9)


def test_nme_scan_takes_at_most_one_basis_eigh(monkeypatch) -> None:
    basis_p = []

    def counting_eigh(lap):
        # trace L_p = (p - 1) N, as p = 1 links each segment only to itself
        basis_p.append(round(np.trace(lap) / lap.shape[0]) + 1)
        return eigh(lap)

    monkeypatch.setattr(nmesc.nme, "eigh", counting_eigh)
    # The basis is taken at p = 6 (seed 79), 5 (seed 60) or 7 (seed 62), and each
    # scan finds a new best after it: at 15, 10 or 8, which a reset would pay for.
    for seed, evaluated, at in ((79, 11, 6), (60, 10, 5), (62, 7, 7)):
        emb, _ = generate(SynthSpec(n_clusters=2, segments_per_cluster=30, dim=16, noise=0.1, seed=seed))
        basis_p.clear()
        scan = nme_scan(cosine_affinity(emb), NmeConfig())
        assert len(scan.entries) == evaluated and scan.skipped
        assert basis_p == [at] and scan.p_hat > at


@settings(max_examples=100, deadline=None)
@given(a=st.one_of(_affinities_with_duplicates(), _clustered_affinities()), pick=st.floats(0.0, 1.0))
def test_component_count_matches_breadth_first_search(a, pick) -> None:
    n = a.shape[0]
    order = descending_order(a, n)
    for p in {1, 2, 3, 1 + int(pick * (n - 1)), n}:
        assert _component_count(order[:, :p]) == bfs_component_count(order[:, :p])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 60, 300])
def test_zero_laplacian_spectrum_is_what_eigvalsh_returns(n) -> None:
    # The scan gives an all-zero L_p the spectrum np.zeros(n) without a solve.
    assert eigvalsh(np.zeros((n, n))).tobytes() == np.zeros(n).tobytes()


def test_nme_scan_does_not_solve_an_all_zero_laplacian(monkeypatch) -> None:
    solved = []

    def counting_eigvalsh(lap):
        solved.append(round(np.trace(lap) / lap.shape[0]) + 1)  # p, as trace L_p = (p - 1) N here
        return eigvalsh(lap)

    monkeypatch.setattr(nmesc.nme, "eigvalsh", counting_eigvalsh)
    a = cosine_affinity(random_embeddings(np.random.default_rng(5), 20, 4))
    assert np.array_equal(descending_order(a, 1)[:, 0], np.arange(20))  # L_1 = 0
    scan = nme_scan(a, NmeConfig())
    first = scan.entries[0]
    assert (first.p, first.gp, first.rp, first.k_at_p) == (1, 0.0, 1e10, 1)
    assert solved == [e.p for e in scan.entries[1:]]


def test_nme_scan_skips_fragmented_p_at_their_exact_r(monkeypatch) -> None:
    # A p whose graph has >= m components has a zero window of gaps, so the
    # public chain's r_p is exactly p/epsilon: the bound the scan records.
    # With m - 1 components one gap in the window is positive, r_p < p/epsilon.
    # With max_speakers = k, m - 1 = k is the component count from p = 3 or so on.
    fragmented = 0
    for seed, (k, per) in enumerate(((2, 30), (3, 20), (4, 20), (6, 15))):
        emb, _ = generate(SynthSpec(n_clusters=k, segments_per_cluster=per, dim=64, noise=0.15, seed=seed))
        a = cosine_affinity(emb)
        for epsilon, max_speakers in itertools.product((1e-10, 1e-3), (k, 8)):
            monkeypatch.setattr(nmesc.nme, "_EPSILON", epsilon)
            cfg = NmeConfig(max_speakers=max_speakers)
            m = min(cfg.max_speakers, a.shape[0] - 1) + 1
            for p, bound in nme_scan(a, cfg).skipped:
                sym = symmetrize(binarize(a, p))
                rp = _nme_metrics(eigvalsh(unnormalized_laplacian(sym)), p, cfg)[1]
                assert bound <= rp
                if matrix_component_count(sym) >= m:
                    fragmented += 1
                    assert bound == p / epsilon == rp
    assert fragmented >= 16  # p = 2 at least, on every corpus and setting


def test_nme_scan_leaves_fragmented_p_to_eigvalsh_below_the_epsilon_floor(monkeypatch) -> None:
    emb, _ = generate(SynthSpec(n_clusters=4, segments_per_cluster=75, dim=192, noise=0.15, seed=1))
    a = cosine_affinity(emb)
    assert 1e-14 < _CERTIFICATE_FLOOR * a.shape[0] * np.finfo(float).eps < 1e-10
    assert 2 in dict(nme_scan(a, NmeConfig()).skipped)
    monkeypatch.setattr(nmesc.nme, "_EPSILON", 1e-14)
    assert nme_scan(a, NmeConfig()).entries[1].p == 2


def test_top_vector_norm_is_a_lower_bound_on_lambda_max() -> None:
    # The scan's carried x: the top eigenvector of L_q, then one power step per p.
    for seed in range(6):
        rng = np.random.default_rng(seed)
        a = cosine_affinity(random_embeddings(rng, int(rng.integers(8, 120)), int(rng.integers(2, 12))))
        half = a.shape[0] // 2
        laplacians = [lap.copy() for lap in _pruned_laplacians(descending_order(a, half), half)]
        start = int(rng.integers(1, len(laplacians)))
        x = eigh(laplacians[start - 1]).vectors[:, -1]
        for p, lap in enumerate(laplacians[start - 1 :], start=start):
            lap_x_norm = float(np.linalg.norm(lap @ x))
            top = eigvalsh(lap)[-1]
            assert lap_x_norm <= top + _SKIP_MARGIN * (top + 1.0)
            if p == start:  # at an eigenvector the bound is tight
                assert lap_x_norm >= top * (1 - 1e-12)
            x = lap @ x / lap_x_norm


_THREAD_SCAN = """
import json
from nmesc import NmeConfig, SynthSpec, cosine_affinity, generate, nme_scan
out = []
for seed, (k, per) in enumerate(((4, 75), (6, 64), (8, 60))):
    emb, _ = generate(SynthSpec(n_clusters=k, segments_per_cluster=per, dim=192, noise=0.15, seed=1000 + seed))
    scan = nme_scan(cosine_affinity(emb), NmeConfig())
    out.append([[e.p for e in scan.entries], [p for p, _ in scan.skipped], scan.p_hat, scan.k_hat])
print(json.dumps(out))
"""


def test_nme_scan_evaluates_the_same_p_at_one_and_two_blas_threads() -> None:
    # The last bits of each spectrum move with OpenBLAS's thread count; which p
    # are evaluated and skipped, and p_hat and k_hat, must not. The count is
    # fixed when the library loads, hence one fresh interpreter per count.
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREAD_SCAN], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert all(skipped for _, skipped, _, _ in runs[0])


def test_nme_scan_agrees_with_probe_within_tolerance() -> None:
    rng = np.random.default_rng(8)
    a = cosine_affinity(random_embeddings(rng, 16, 4))
    cfg = NmeConfig()
    scan = nme_scan(a, cfg)
    probes = nme_probes(a, [e.p for e in scan.entries], cfg)
    for entry, probe in zip(scan.entries, probes, strict=True):
        assert probe.p == entry.p
        assert entry.gp == pytest.approx(probe.gp, abs=1e-9)
        assert entry.rp == pytest.approx(probe.rp, rel=1e-9)
        assert entry.k_at_p == probe.k_at_p


def test_nme_scan_segment_permutation_leaves_metrics() -> None:
    rng = np.random.default_rng(9)
    emb = random_embeddings(rng, 12, 6)
    perm = rng.permutation(12)
    permuted = EmbeddingSequence(
        starts=emb.starts, ends=emb.ends, vectors=emb.vectors[perm]
    )
    cfg = NmeConfig()
    s1 = nme_scan(cosine_affinity(emb), cfg)
    s2 = nme_scan(cosine_affinity(permuted), cfg)
    common = sorted({e.p for e in s1.entries} & {e.p for e in s2.entries})
    assert common == [1, 2, 3]
    by_p1, by_p2 = ({e.p: e for e in s.entries} for s in (s1, s2))
    for p in common:
        e1, e2 = by_p1[p], by_p2[p]
        assert e1.gp == pytest.approx(e2.gp, abs=1e-9)
        assert e1.k_at_p == e2.k_at_p


def test_nme_scan_zero_multiplicity_matches_components_for_all_p() -> None:
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 12))
        a = cosine_affinity(random_embeddings(rng, n, 3))
        for p in range(1, n + 1):
            sym = symmetrize(binarize(a, p))
            values = eigh(unnormalized_laplacian(sym)).values
            assert int((values < 1e-9).sum()) == matrix_component_count(sym)


def test_nme_scan_rejects_small_input() -> None:
    emb = EmbeddingSequence(
        starts=np.arange(3.0), ends=np.arange(3.0) + 1, vectors=np.eye(3)
    )
    with pytest.raises(ValueError, match="^need at least 4 segments, got 3$"):
        nme_scan(cosine_affinity(emb), NmeConfig())


def test_nme_scan_p_max_clamped_to_n() -> None:
    rng = np.random.default_rng(15)
    a = cosine_affinity(random_embeddings(rng, 5, 3))
    with _capped(50):
        scan = nme_scan(a, NmeConfig())
    assert scan.p_max == 5
    # r = 1e10, 3.37, 6.74: the scan stops before p=4 >= r(2); p=4 and p=5,
    # probed directly, cannot beat r(2) either.
    assert [e.p for e in scan.entries] == [1, 2, 3]
    assert scan.p_hat == 2
    for p in (4, 5):
        assert nme_at(a, p).rp >= p >= scan.entries[1].rp


def test_nme_scan_max_speakers_caps_estimate() -> None:
    emb, _ = generate(SynthSpec(n_clusters=4, segments_per_cluster=12, dim=16, noise=0.05, seed=31))
    capped = nme_scan(cosine_affinity(emb), NmeConfig(max_speakers=2))
    assert capped.k_hat <= 2
    for entry in capped.entries:
        assert entry.k_at_p <= 2


def _scan_with_skips() -> NmeScan:
    emb, _ = generate(SynthSpec(n_clusters=2, segments_per_cluster=30, dim=16, noise=0.1, seed=83))
    scan = nme_scan(cosine_affinity(emb), NmeConfig())
    # p = 2 leaves at least m = 9 components, so its bound is r(2) = 2/epsilon.
    # r(6) ~ 46.63 is the best; p = 8, 12 and 14 are certified not to beat it.
    assert [e.p for e in scan.entries] == [1, 3, 4, 5, 6, 7, 9, 10, 11, 13, 15]
    assert [p for p, _ in scan.skipped] == [2, 8, 12, 14]
    assert (scan.p_hat, scan.k_hat, scan.p_max) == (6, 2, 15)
    return scan


def test_nme_scan_record_invariants_enforced(two_ideal_pairs) -> None:
    with _capped(2):
        stopped = nme_scan(cosine_affinity(two_ideal_pairs), NmeConfig())
    assert len(stopped.entries) == 1  # 1 + 1 >= r(1) ~ 1 justifies the stop
    with pytest.raises(ValueError):
        NmeScan(entries=stopped.entries, p_hat=2, k_hat=stopped.k_hat, p_max=stopped.p_max)
    with pytest.raises(ValueError):
        NmeScan(entries=stopped.entries, p_hat=1, k_hat=0, p_max=stopped.p_max)
    with pytest.raises(ValueError):
        NmeScan(entries=stopped.entries, p_hat=1, k_hat=1, p_max=0)

    rng = np.random.default_rng(7)
    full = nme_scan(cosine_affinity(random_embeddings(rng, 20, 4)), NmeConfig())
    assert [e.p for e in full.entries] == [1, 2, 3, 4, 5] and full.p_hat == 2
    entries = full.entries
    NmeScan(entries=entries, p_hat=2, k_hat=1, p_max=5)
    # min r_p = r(2) ~ 26.4, so no stop before p_max = 5 is justified; nor is a gap.
    truncated = (entries[:0], entries[:1], entries[:2], entries[:4])
    for bad in truncated + (entries[:2] + entries[3:], entries[1:], entries[::-1]):
        with pytest.raises(ValueError):
            NmeScan(entries=bad, p_hat=1, k_hat=1, p_max=5)
    with pytest.raises(ValueError):
        NmeScan(entries=entries, p_hat=1, k_hat=1, p_max=4)

    # A scan with skipped p: entries and skipped must tile 1..p_last, and each
    # skipped bound must be >= the best r_p of the entries before it.
    scan = _scan_with_skips()
    entries, skipped = scan.entries, scan.skipped
    r_best = next(e.rp for e in entries if e.p == 6)

    def build(entries=entries, skipped=skipped, p_hat=6):
        return NmeScan(entries=entries, p_hat=p_hat, k_hat=2, p_max=15, skipped=skipped)

    build()
    # A bound equal to the best r may skip: ties go to the lower p.
    build(skipped=skipped[:2] + ((12, r_best),) + skipped[3:])
    bad = (
        dict(skipped=skipped + ((11, 60.0),)),  # overlaps an entry
        dict(skipped=skipped + ((8, 60.0),)),  # skipped twice
        dict(skipped=skipped[:1] + skipped[2:]),  # p = 8 uncovered
        dict(skipped=skipped + ((16, 60.0),)),  # beyond p_max
        dict(skipped=skipped[:1] + ((8, r_best - 1e-9),) + skipped[2:]),  # bound below the best r
        dict(skipped=skipped[:1] + ((8, float("nan")),) + skipped[2:]),
        dict(p_hat=8),  # p_hat must be evaluated
        dict(entries=entries[:8] + entries[9:10] + entries[8:9] + entries[10:]),  # not ascending
        dict(entries=(), skipped=tuple((p, 60.0) for p in range(1, 16))),
    )
    for change in bad:
        with pytest.raises(ValueError):
            build(**change)


def _njw_config(**settings) -> NjwConfig:
    return NjwConfig(sigma=1.0, **settings)


@pytest.mark.parametrize("config", [NmeConfig, _njw_config], ids=["nme", "njw"])
@pytest.mark.parametrize(
    ("settings", "message"),
    [
        ({"max_speakers": 0}, "max_speakers must be >= 1"),
        ({"fixed_k": 0}, "fixed_k must be in [1, 8]"),
        ({"fixed_k": 9}, "fixed_k must be in [1, 8]"),
        ({"max_speakers": 3, "fixed_k": 4}, "fixed_k must be in [1, 3]"),
        ({"max_speakers": 2, "fixed_k": -1}, "fixed_k must be in [1, 2]"),
        ({"max_speakers": 1, "fixed_k": 1}, None),
        ({"fixed_k": 8}, None),
    ],
)
def test_configs_share_the_speaker_count_and_seed_rule(config, settings, message) -> None:
    if message is None:
        assert config(**settings)
        return
    with pytest.raises(ValueError) as info:
        config(**settings)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Spectral embedding
# ---------------------------------------------------------------------------


def test_spectral_embedding_connected_graph_constant_first_column() -> None:
    rng = np.random.default_rng(10)
    emb = random_embeddings(rng, 8, 4)
    sym = symmetrize(binarize(cosine_affinity(emb), 8))  # fully connected
    es = eigh(unnormalized_laplacian(sym))
    col = spectral_embedding(es, 1)[:, 0]
    assert np.abs(col - col.mean()).max() <= 1e-8


def test_spectral_embedding_two_cliques_indicator_rows(two_ideal_pairs) -> None:
    probe = nme_at(cosine_affinity(two_ideal_pairs), 2, NmeConfig())
    rows = spectral_embedding(probe.eigensystem, 2)
    assert np.abs(rows[0] - rows[1]).max() <= 1e-8
    assert np.abs(rows[2] - rows[3]).max() <= 1e-8
    assert np.linalg.norm(rows[0] - rows[2]) > 0.5


def test_spectral_embedding_full_k_orthonormal() -> None:
    rng = np.random.default_rng(11)
    emb = random_embeddings(rng, 6, 3)
    es = eigh(unnormalized_laplacian(symmetrize(binarize(cosine_affinity(emb), 3))))
    full = spectral_embedding(es, 6)
    assert np.abs(full.T @ full - np.eye(6)).max() <= 1e-8


def test_spectral_embedding_invalid_k(two_ideal_pairs) -> None:
    probe = nme_at(cosine_affinity(two_ideal_pairs), 2, NmeConfig())
    with pytest.raises(ValueError, match=r"^k=0 outside \[1, 4\]$"):
        spectral_embedding(probe.eigensystem, 0)
    with pytest.raises(ValueError, match=r"^k=5 outside \[1, 4\]$"):
        spectral_embedding(probe.eigensystem, 5)


# ---------------------------------------------------------------------------
# End-to-end pipelines
# ---------------------------------------------------------------------------


def test_nme_sc_two_ideal_pairs(two_ideal_pairs) -> None:
    result, scan = nme_sc(two_ideal_pairs, NmeConfig())
    assert scan.k_hat == 2
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]


def test_nme_sc_fixed_k_one(two_ideal_pairs) -> None:
    result, _ = nme_sc(two_ideal_pairs, NmeConfig(fixed_k=1))
    assert set(result.labels.tolist()) == {0}


def test_nme_sc_four_clusters_high_accuracy() -> None:
    emb, truth = generate(
        SynthSpec(n_clusters=4, segments_per_cluster=50, dim=64, noise=0.1, seed=21)
    )
    result, scan = nme_sc(emb, NmeConfig())
    assert scan.k_hat == 4
    assert best_map_accuracy(result.labels, truth) >= 0.99
    assert 1 <= result.num_speakers <= 8


def test_nme_sc_deterministic(two_ideal_pairs) -> None:
    with mock.patch.object(nmesc.nme, "_SEED", 7):
        r1, s1 = nme_sc(two_ideal_pairs, NmeConfig())
        r2, s2 = nme_sc(two_ideal_pairs, NmeConfig())
    assert np.array_equal(r1.labels, r2.labels)
    assert s1.p_hat == s2.p_hat and s1.k_hat == s2.k_hat


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps a call's arguments on the caller's stack until the call returns",
)
def test_no_affinity_is_alive_at_an_n_by_n_solve(monkeypatch) -> None:
    # nme_scan, nme_at and nme_sc drop the N x N affinity once they have its row
    # order, so a temporary argument is freed before any eigvalsh or eigh.
    emb, _ = generate(SynthSpec(n_clusters=2, segments_per_cluster=30, dim=16, noise=0.1, seed=79))
    refs, solves = [], []

    def watched_affinity(emb):
        a = cosine_affinity(emb)
        refs.append(weakref.ref(a))
        return a

    def checked(solve):
        def solve_with_no_affinity_alive(lap):
            assert refs and all(ref() is None for ref in refs), "an affinity is alive at an N x N solve"
            solves.append(solve.__name__)
            return solve(lap)

        return solve_with_no_affinity_alive

    monkeypatch.setattr(nmesc.nme, "eigvalsh", checked(eigvalsh))
    monkeypatch.setattr(nmesc.nme, "eigh", checked(eigh))
    scan = nme_scan(watched_affinity(emb))
    assert solves.count("eigvalsh") >= 1 and solves.count("eigh") == 1  # the scan's basis eigh
    solves.clear()
    nme_at(watched_affinity(emb), scan.p_hat)
    assert solves == ["eigh"]

    refs.clear()
    solves.clear()
    monkeypatch.setattr(nmesc.nme, "cosine_affinity", watched_affinity)
    _, sc_scan = nme_sc(emb)
    assert len(refs) == 2 and sc_scan == scan
    assert solves.count("eigvalsh") >= 1 and solves.count("eigh") == 2 and solves[-1] == "eigh"


def test_nme_sc_rejects_small_input() -> None:
    emb = EmbeddingSequence(
        starts=np.arange(2.0), ends=np.arange(2.0) + 1, vectors=np.eye(2)
    )
    with pytest.raises(ValueError, match="^need at least 4 segments, got 2$"):
        nme_sc(emb, NmeConfig())
    with pytest.raises(ValueError, match="^need at least 4 segments, got 2$"):
        njw_sc(emb, NjwConfig(sigma=1.0))


def test_njw_sc_two_ideal_pairs(two_ideal_pairs) -> None:
    result = njw_sc(two_ideal_pairs, NjwConfig(sigma=1.0))
    assert result.num_speakers == 2
    assert result.labels[0] == result.labels[1]
    assert result.labels[2] == result.labels[3]
    assert result.labels[0] != result.labels[2]


def test_njw_sc_k_override(two_ideal_pairs) -> None:
    result = njw_sc(two_ideal_pairs, NjwConfig(sigma=1.0, fixed_k=3))
    assert result.num_speakers == 3
    with pytest.raises(ValueError, match=r"^k=5 outside \[1, 4\]$"):
        njw_sc(two_ideal_pairs, NjwConfig(sigma=1.0, fixed_k=two_ideal_pairs.n + 1))


@pytest.mark.parametrize("seed", range(8))
def test_njw_sc_k_is_the_largest_descending_gap_under_the_cap(seed) -> None:
    # Six true speakers against max_speakers = 3: the window cuts the spectrum short.
    cap, sigma = 3, 0.5
    emb, _ = generate(SynthSpec(n_clusters=6, segments_per_cluster=(6, 12), dim=32, noise=0.1, seed=200 + seed))
    desc = np.linalg.eigvalsh(normalized_laplacian(kernel_affinity(emb, sigma)))[::-1]
    gaps = desc[:-1] - desc[1:]
    window = gaps[: min(cap, emb.n - 1)]
    assert np.argmax(gaps) + 1 > cap  # uncapped, the rule would pick more than the cap
    assert np.diff(np.sort(window))[-1] > 1e-6  # a clear winner, whatever the solver's last bits
    assert njw_sc(emb, NjwConfig(sigma=sigma, max_speakers=cap)).num_speakers == 1 + int(np.argmax(window))


def test_njw_embedding_rows_unit_norm(two_ideal_pairs) -> None:
    es = eigh(normalized_laplacian(kernel_affinity(two_ideal_pairs, 1.0)))
    rows = _njw_embedding(es, 2)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-9


def test_njw_config_validation() -> None:
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^sigma must be a positive finite number, got {sigma}$"):
            NjwConfig(sigma=sigma)


def test_njw_sc_tiny_sigma_starves_the_graph() -> None:
    # With sigma=1e-3 every nonzero pairwise distance makes exp(-d^2/sigma^2)
    # underflow to exactly 0, so vertices end up with no affinity mass.
    emb = EmbeddingSequence(
        starts=np.arange(4.0),
        ends=np.arange(4.0) + 1,
        vectors=np.array([[1.0, 0.0], [0.99, 0.14106736], [0.0, 1.0], [0.14106736, 0.99]]),
    )
    with pytest.raises(ValueError, match="^vertex 0 has zero affinity mass$"):
        njw_sc(emb, NjwConfig(sigma=1e-3))
