"""Independent brute-force oracles used by the test suite.

Nothing here shares an algorithm with the library: eigenvalues come from
inertia-count bisection, k-means optima from exhaustive partition
enumeration, the best one-to-one assignment (and with it label-map accuracy
and DER speaker mappings) from exhaustive permutation search, and the
connected components of a neighbour list or of a matrix's positive entries
from a breadth-first search over adjacency lists.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Eigenvalues via bisection on the shifted characteristic polynomial's inertia
# ---------------------------------------------------------------------------


def _negative_pivots(m: np.ndarray, t: float) -> int | None:
    """Count negative pivots of (m - t*I) under symmetric elimination.

    By Sylvester's law of inertia this equals the number of eigenvalues
    strictly below t. Returns None when a pivot collapses (t effectively on
    an eigenvalue); the caller nudges t and retries.
    """
    a = m - t * np.eye(m.shape[0])
    n = a.shape[0]
    scale = max(1.0, float(np.abs(m).max()))
    negatives = 0
    for i in range(n):
        pivot = a[i, i]
        if abs(pivot) < 1e-14 * scale:
            return None
        if pivot < 0:
            negatives += 1
        col = a[i + 1 :, i]
        a[i + 1 :, i + 1 :] -= np.outer(col, col) / pivot
    return negatives


def _count_below(m: np.ndarray, t: float) -> int:
    scale = max(1.0, float(np.abs(m).max()))
    nudge = 1e-11 * scale
    for attempt in range(6):
        count = _negative_pivots(m, t + attempt * nudge)
        if count is not None:
            return count
    raise RuntimeError("bisection oracle: could not find a stable shift")


def bisection_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues (with multiplicity), ascending, by pure bisection."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    radius = np.abs(m).sum(axis=1) - np.abs(np.diag(m))
    lo = float((np.diag(m) - radius).min()) - 1.0
    hi = float((np.diag(m) + radius).max()) + 1.0
    values = []
    for j in range(1, n + 1):
        a, b = lo, hi
        while b - a > tol:
            mid = (a + b) / 2
            if _count_below(m, mid) >= j:
                b = mid
            else:
                a = mid
        values.append((a + b) / 2)
    return np.array(values)


# ---------------------------------------------------------------------------
# Exhaustive k-means optimum
# ---------------------------------------------------------------------------


def brute_force_kmeans_inertia(points: np.ndarray, k: int) -> float:
    """Global minimum inertia over all partitions into k non-empty clusters."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    assignments = np.array(list(itertools.product(range(k), repeat=n)), dtype=int)
    sq_norms = float((points**2).sum())
    explained = np.zeros(assignments.shape[0])
    valid = np.ones(assignments.shape[0], dtype=bool)
    for c in range(k):
        mask = assignments == c
        counts = mask.sum(axis=1)
        valid &= counts > 0
        sums = mask.astype(float) @ points
        with np.errstate(divide="ignore", invalid="ignore"):
            explained += np.where(counts > 0, (sums**2).sum(axis=1) / counts, 0.0)
    inertias = sq_norms - explained[valid]
    return float(inertias.min())


# ---------------------------------------------------------------------------
# Connected components by breadth-first search
# ---------------------------------------------------------------------------


def bfs_component_count(neighbours: np.ndarray) -> int:
    """Components of the undirected graph with an edge i -- neighbours[i][j] for every i, j."""
    n = len(neighbours)
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(neighbours):
        for j in row:
            adjacent[i].add(int(j))
            adjacent[int(j)].add(i)
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            for j in adjacent[queue.popleft()]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(j)
    return components


def matrix_component_count(data: np.ndarray) -> int:
    """Components of the graph with an edge i -- j wherever data[i, j] > 0."""
    return bfs_component_count([np.flatnonzero(row > 0) for row in np.asarray(data)])


# ---------------------------------------------------------------------------
# Exhaustive one-to-one assignment and label-map accuracy
# ---------------------------------------------------------------------------


def exhaustive_matched_total(weights: dict):
    """Highest total of weights[(a, b)] over every one-to-one map between the a and b names.

    Names are the ones the keys use; a missing pair weighs 0, and with
    non-negative weights leaving a name unmatched never pays more.
    """
    a_names = sorted({a for a, _ in weights})
    b_names = sorted({b for _, b in weights})
    padded = b_names + [None] * max(0, len(a_names) - len(b_names))
    return max(
        sum(weights.get((a, b), 0) for a, b in zip(a_names, perm))
        for perm in itertools.permutations(padded, len(a_names))
    )


def exhaustive_map_accuracy(pred, truth) -> float:
    """Highest matching fraction over every one-to-one map of pred labels onto truth labels."""
    pred, truth = list(pred), list(truth)
    return exhaustive_matched_total(Counter(zip(pred, truth))) / len(pred)


# ---------------------------------------------------------------------------
# Exhaustive speaker-mapping DER oracle
# ---------------------------------------------------------------------------


def _spans(records) -> list[tuple[str, Fraction, Fraction]]:
    out = []
    for r in records:
        s = Fraction(str(r.onset))
        out.append((r.speaker, s, s + Fraction(str(r.duration))))
    return out


def oracle_der_components(ref_records, hyp_records, collar, score_overlap: bool):
    """(scored, missed, false_alarm, speaker_error) with an exhaustive mapping.

    Independently re-derives the scored slices, then minimizes speaker error
    over every injective hypothesis->reference assignment by enumeration.
    """
    ref = _spans(ref_records)
    hyp = _spans(hyp_records)
    half = Fraction(str(collar)) / 2

    dead: list[tuple[Fraction, Fraction]] = []
    if half > 0:
        for _, s, e in ref:
            dead += [(s - half, s + half), (e - half, e + half)]

    edges = sorted(
        {x for _, s, e in ref + hyp for x in (s, e)} | {x for z in dead for x in z}
    )
    ref_names = sorted({spk for spk, _, _ in ref})
    hyp_names = sorted({spk for spk, _, _ in hyp})

    scored = missed = fa = min_active = Fraction(0)
    pair_time = {(r, h): Fraction(0) for r in ref_names for h in hyp_names}
    for lo, hi_ in zip(edges, edges[1:]):
        if hi_ <= lo:
            continue
        mid_ok = not any(z0 <= lo and hi_ <= z1 for z0, z1 in dead)
        if not mid_ok:
            continue
        active_r = [spk for spk, s, e in ref if s <= lo and hi_ <= e]
        active_r = sorted(set(active_r))
        active_h = sorted({spk for spk, s, e in hyp if s <= lo and hi_ <= e})
        if not score_overlap and len(active_r) > 1:
            continue
        span = hi_ - lo
        nr, nh = len(active_r), len(active_h)
        scored += span * nr
        missed += span * max(0, nr - nh)
        fa += span * max(0, nh - nr)
        min_active += span * min(nr, nh)
        for r in active_r:
            for h in active_h:
                pair_time[(r, h)] += span

    return scored, missed, fa, min_active - exhaustive_matched_total(pair_time)
