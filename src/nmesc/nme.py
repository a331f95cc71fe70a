"""Eigengap auto-tuning spectral clustering, plus the classic NJW baseline.

The auto-tuner scans the binarization threshold p, measures the normalized
maximum eigengap g_p of each pruned graph's unnormalized Laplacian, and
picks p-hat = argmin p/g_p. The largest eigengap at p-hat then fixes the
cluster count, and k-means on the low-eigenvalue spectral embedding yields
the final labels. No development-set tuning is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import (
    EmbeddingSequence,
    InvalidPError,
    _check_sigma,
    _square,
    cosine_affinity,
    descending_order,
    kernel_affinity,
)
from .diarization import DiarizationResult
from .numerics import EigenSystem, InvalidKError, KMeansConfig, eigh, eigvalsh, kmeans

__all__ = [
    "NmeConfig",
    "NjwConfig",
    "NmeProbe",
    "NmeScanEntry",
    "NmeScan",
    "NotEvaluatedError",
    "IsolatedNodeError",
    "TooFewEigenvaluesError",
    "InputTooSmallError",
    "unnormalized_laplacian",
    "normalized_laplacian",
    "eigengap_vector",
    "nme_at",
    "nme_probes",
    "nme_scan",
    "spectral_embedding",
    "nme_sc",
    "njw_sc",
]


class IsolatedNodeError(ValueError):
    """A graph vertex carries no affinity mass (zero row sum)."""


class TooFewEigenvaluesError(ValueError):
    """Eigengap analysis needs at least two eigenvalues."""


class InputTooSmallError(ValueError):
    """The scan needs at least 4 segments to be meaningful."""


class NotEvaluatedError(ValueError):
    """The scan holds no entry for this p: it was skipped or lies outside 1..p_last."""


def _check_shared_settings(max_speakers: int, fixed_k: int | None, seed: int) -> None:
    """The settings rule NmeConfig and NjwConfig share: the speaker cap, the known count and the seed."""
    if max_speakers < 1:
        raise ValueError("max_speakers must be >= 1")
    if fixed_k is not None and not 1 <= fixed_k <= max_speakers:
        raise ValueError(f"fixed_k must be in [1, {max_speakers}]")
    if seed < 0:
        raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class NmeConfig:
    """Auto-tuner settings; the defaults require no tuning on any dataset.

    epsilon guards divisions (both in g_p's denominator and the ratio);
    p_max defaults to floor(N/4); max_speakers caps the eigengap search
    window; fixed_k overrides the estimated cluster count for the
    known-speaker-count protocol while p-hat is still auto-selected.
    """

    epsilon: float = 1e-10
    p_max: int | None = None
    max_speakers: int = 8
    fixed_k: int | None = None
    seed: int = 42

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.p_max is not None and self.p_max < 1:
            raise ValueError("p_max must be >= 1 when set")
        _check_shared_settings(self.max_speakers, self.fixed_k, self.seed)


@dataclass(frozen=True)
class NjwConfig:
    """Settings for the kernel-based NJW baseline; sigma has no default, the rest act as in NmeConfig."""

    sigma: float
    fixed_k: int | None = None
    max_speakers: int = 8
    seed: int = 42

    def __post_init__(self):
        _check_sigma(self.sigma)
        _check_shared_settings(self.max_speakers, self.fixed_k, self.seed)


@dataclass(frozen=True)
class NmeScanEntry:
    """Scan record for one p: g_p, r_p and the gap-argmax cluster count k."""

    p: int
    gp: float
    rp: float
    k_at_p: int


@dataclass(frozen=True)
class NmeScan:
    """Scan over p = 1, ..., p_last <= p_max with the selected p_hat and k_hat.

    entries holds the evaluated p, ascending; skipped holds (p, bound) for each
    p whose certified lower bound on r_p was >= the best r_p of the entries
    before it. Together they cover 1..p_last once each. p_last < p_max only
    when p_last + 1 >= min r_p: as r_p >= p up to rounding, no later p wins.
    """

    entries: tuple[NmeScanEntry, ...]
    p_hat: int
    k_hat: int
    p_max: int
    skipped: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        evaluated = [e.p for e in self.entries]
        if not evaluated or any(q <= p for p, q in zip(evaluated, evaluated[1:])):
            raise ValueError("entries must be non-empty and strictly ascending in p")
        covered = sorted(evaluated + [p for p, _ in self.skipped])
        p_last = covered[-1]
        if not p_last <= self.p_max or covered != list(range(1, p_last + 1)):
            raise ValueError("entries and skipped must cover p = 1, ..., p_last <= p_max exactly once")
        r_min = min(e.rp for e in self.entries)
        if p_last < self.p_max and p_last + 1 < r_min:
            raise ValueError(f"scan stops at p={p_last} < p_max={self.p_max}, but min r_p={r_min} > p+1")
        for p, bound in self.skipped:
            before = [e.rp for e in self.entries if e.p < p]
            if not before or not bound >= min(before):
                raise ValueError(f"skipped p={p} has r_p bound {bound} below the best r_p before it")
        if self.p_hat not in evaluated:
            raise ValueError(f"p_hat={self.p_hat} is not an evaluated p")
        if self.k_hat < 1:
            raise ValueError("k_hat must be >= 1")

    def entry_at(self, p: int) -> NmeScanEntry:
        """The entry of an evaluated p.

        Raises:
            NotEvaluatedError: p was skipped, or lies outside 1..p_last.
        """
        for e in self.entries:
            if e.p == p:
                return e
        for q, bound in self.skipped:
            if q == p:
                raise NotEvaluatedError(f"p={p} was skipped: its r_p is at least {bound}")
        raise NotEvaluatedError(f"p={p} was not scanned")


@dataclass(frozen=True)
class NmeProbe(NmeScanEntry):
    """A scan entry for one p plus the full eigensystem of its pruned Laplacian."""

    eigensystem: EigenSystem


def unnormalized_laplacian(a: np.ndarray) -> np.ndarray:
    """L = D - A of a symmetrized affinity A, with D the diagonal of row sums; rows of L sum to zero.

    Self-loops cancel: the diagonal of A contributes identically to D and A.

    Raises:
        ValueError: a is not a square matrix.
    """
    a = _square(a)
    return np.diag(a.sum(axis=1)) - a


def normalized_laplacian(a: np.ndarray) -> np.ndarray:
    """Symmetrically normalized kernel affinity D^-1/2 A D^-1/2 (eigenvalues in [-1, 1]).

    Raises:
        ValueError: a is not a square matrix.
        IsolatedNodeError: some row sums to zero (vertex with no affinity mass).
    """
    a = _square(a)
    d = a.sum(axis=1)
    if np.any(d <= 0):
        bad = int(np.argmax(d <= 0))
        raise IsolatedNodeError(f"vertex {bad} has zero affinity mass")
    s = 1.0 / np.sqrt(d)
    return a * np.outer(s, s)


def eigengap_vector(values: np.ndarray, limit: int) -> np.ndarray:
    """Consecutive differences of ascending eigenvalues, truncated to `limit` gaps.

    Index i holds values[i+1] - values[i]; negative rounding noise is
    clamped to zero. The truncation implements the speaker-count cap at
    estimation time.

    Raises:
        TooFewEigenvaluesError: fewer than two eigenvalues.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.shape[0] < 2:
        raise TooFewEigenvaluesError("need at least 2 eigenvalues to form gaps")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    gaps = np.diff(values)[: min(int(limit), values.shape[0] - 1)]
    return np.maximum(gaps, 0.0)


def _nme_metrics(values: np.ndarray, p: int, cfg: NmeConfig):
    """g_p, r_p and k from one Laplacian spectrum."""
    gaps = eigengap_vector(values, cfg.max_speakers)
    gp = float(gaps.max()) / (float(values[-1]) + cfg.epsilon)
    rp = p / max(gp, cfg.epsilon)
    k = 1 + int(np.argmax(gaps))  # ties: lowest gap index, i.e. fewest clusters
    return gp, rp, k


# Rounding margin of the skip bound (relative to lambda_max + 1) and of the early stop; see nme_scan.
_SKIP_MARGIN = 1e-9
# Guard columns the skip basis carries beyond the m whose Ritz values enter the bound.
_GUARD_COLUMNS = 3
# The component certificate needs epsilon >= this many N * machine epsilons; see nme_scan.
_CERTIFICATE_FLOOR = 100.0


def _r_lower_bound(
    lap: np.ndarray, theta: np.ndarray, lower: np.ndarray, lap_x_norm: float, p: int, cfg: NmeConfig
) -> float:
    """A lower bound on the r_p that eigvalsh(lap) yields, without solving for lap's spectrum.

    lap is the Laplacian L_p, lower the computed ascending eigenvalues of an
    L_q with q <= p, theta the ascending Ritz values of L_p on a basis of at
    least m = min(max_speakers, N - 1) + 1 orthonormal columns, and
    lap_x_norm = ||L_p x|| for a unit vector x. L_p - L_q is a graph
    Laplacian, hence positive semi-definite, so lambda_i(L_p) >= lambda_i(L_q)
    (Weyl), and lambda_i(L_p) <= theta_i for i <= m (Courant-Fischer); the
    window of gaps needs only these m. lambda_max(L_p) >= t =
    max(lambda_max(L_q), max diag L_p, ||L_p x||). Each eigenvalue bound is
    widened by the rounding margin delta = _SKIP_MARGIN * (t + 1).
    """
    m = min(cfg.max_speakers, lap.shape[0] - 1) + 1
    top = max(float(lower[-1]), float(lap.diagonal().max()), lap_x_norm)
    delta = _SKIP_MARGIN * (top + 1.0)
    gap_hi = max(float(np.max(theta[1:m] - lower[: m - 1])) + 2.0 * delta, 0.0)
    gp_hi = gap_hi / (max(top - delta, 0.0) + cfg.epsilon)
    return p / max(gp_hi, cfg.epsilon)


def _component_count(neighbours: np.ndarray) -> int:
    """Connected components of the graph linking each row i to every neighbours[i, j].

    Label propagation: every vertex takes the least label among itself and
    its neighbours in both directions, then the label of its label, until
    nothing changes. Labels stay vertex indices of the same component and
    only fall, so each component ends labelled by its least vertex.
    """
    n, width = neighbours.shape
    heads, tails = np.repeat(np.arange(n), width), neighbours.ravel()
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, heads, label[tails])
        np.minimum.at(new, tails, label[heads])
        new = new[new]
        if np.array_equal(new, label):
            return int(np.count_nonzero(label == np.arange(n)))
        label = new


def _rayleigh_ritz_step(lap: np.ndarray, basis: np.ndarray, lap_basis: np.ndarray):
    """The w lowest Ritz pairs of lap on span[basis, lap @ basis], w = basis.shape[1].

    One block-Krylov step. The basis is first rotated to its own Ritz vectors
    v_i, and lap @ basis to lap v_i, so the new directions are the residuals
    r_i = lap v_i - theta_i v_i. A residual of norm <= _SKIP_MARGIN *
    (max diag lap + 1) marks an eigenpair that has converged, such as the
    constant vector at theta = 0; it is left out, as its direction is rounding
    noise that QR would normalize and pass on to every later column.
    Householder QR makes the columns orthonormal (N of them when there are
    more than N), and eigh of the small Ritz matrix rotates them. lap_basis is
    lap @ basis, already formed by the caller. Returns the new N x w basis and
    its ascending Ritz values.
    """
    w = basis.shape[1]
    theta, s = np.linalg.eigh(basis.T @ lap_basis)  # w x w Ritz matrix, not a spectrum of L
    basis, lap_basis = basis @ s, lap_basis @ s
    residual = lap_basis - basis * theta
    tol = _SKIP_MARGIN * (float(lap.diagonal().max()) + 1.0)
    q = np.linalg.qr(np.hstack((basis, residual[:, np.linalg.norm(residual, axis=0) > tol])))[0]
    theta, y = np.linalg.eigh(q.T @ (lap @ q))  # small Ritz matrix, not a spectrum of L
    return q @ y[:, :w], theta[:w]


def _pruned_laplacians(order: np.ndarray, p_max: int):
    """Yield the pruned graph's unnormalized Laplacian L for p = 1, ..., p_max.

    With order = descending_order(a, p_max), L equals
    unnormalized_laplacian(symmetrize(binarize(a, p))) exactly: p adds one
    neighbour cols[i] per row i, so L loses 0.5 at (i, cols[i]) and (cols[i], i)
    and its diagonal gains 0.5 plus 0.5 per incoming edge; all entries stay
    multiples of 0.5. One buffer is updated in place and yielded at every p.
    """
    n = order.shape[0]
    rows = np.arange(n)
    lap = np.zeros((n, n))
    diag = lap.reshape(-1)[:: n + 1]
    for p in range(1, p_max + 1):
        cols = order[:, p - 1]
        lap[rows, cols] -= 0.5
        lap[cols, rows] -= 0.5
        diag += 0.5 + 0.5 * np.bincount(cols, minlength=n)
        yield lap


def nme_probes(a: np.ndarray, ps, cfg: NmeConfig = NmeConfig()):
    """Yield an NmeProbe for each distinct p in ps, in ascending p, from one Laplacian walk of raw-cosine a.

    One descending_order up to max(ps) and one pass of _pruned_laplacians
    build every pruned graph's unnormalized Laplacian; only the p asked for
    take the full eigendecomposition, from which g_p = max(gap)/(lambda_max +
    eps), r_p = p/max(g_p, eps) and the gap-argmax cluster count follow. An
    empty ps yields nothing. Being a generator, it checks its input at the
    first next(), not at the call.

    Raises:
        ValueError: a is not a square matrix.
        InvalidPError: some p outside [1, n].
    """
    a = _square(a)
    n = a.shape[0]
    wanted = {int(p) for p in ps}
    bad = sorted(p for p in wanted if not 1 <= p <= n)
    if bad:
        raise InvalidPError(f"p={bad[0]} outside [1, {n}]")
    if not wanted:
        return
    p_last = max(wanted)
    for p, lap in enumerate(_pruned_laplacians(descending_order(a, p_last), p_last), start=1):
        if p in wanted:
            es = eigh(lap)
            gp, rp, k = _nme_metrics(es.values, p, cfg)
            yield NmeProbe(p=p, gp=gp, rp=rp, k_at_p=k, eigensystem=es)


def nme_at(a: np.ndarray, p: int, cfg: NmeConfig = NmeConfig()) -> NmeProbe:
    """The probe of one threshold p: nme_probes' one-p case, raising its errors at the call."""
    return next(nme_probes(a, [p], cfg))


def nme_scan(a: np.ndarray, cfg: NmeConfig = NmeConfig()) -> NmeScan:
    """Scan integer p upward from 1 to at most min(p_max, N) over raw-cosine a and select p_hat, k_hat.

    One pass over p updates a single Laplacian and takes only its eigenvalues
    (nme_sc re-probes p_hat for eigenvectors). p_hat is the argmin of r_p
    (lowest p on ties); k_hat is the gap-argmax at p_hat, whose window of
    max_speakers gaps caps it, or cfg.fixed_k when set.

    The scan stops before the first p with p * (1 - 1e-9) >= the best r_p so
    far. L is positive semi-definite with lambda_1 = 0, so every gap is <=
    lambda_max, g_q <= 1 and r_q >= q for epsilon <= 1: no later q can beat
    the best, and ties go to the lower p (for epsilon > 1, r_q = q/epsilon
    grows with q and p_hat = 1). In floating point the computed lambda_1 can
    fall below 0 by the solver's error, about N * u * lambda_max (see below),
    so the computed g_q can exceed 1 by about N * u, some 1e-13 at N = 480;
    hence the factor 1 - 1e-9. With epsilon = 1e-10 the computed lambda_1 >=
    -epsilon at N <= 480, so g_q <= 1 as rounding is monotone, but at
    epsilon = 1e-14 it need not be.

    The scan also skips each p it can prove will not beat the best r_p. Let
    m = min(max_speakers, N - 1) + 1 and w = min(m + 3, N). Before the skip
    basis exists, a p whose graph (each row linked to its p nearest columns)
    has at least m connected components has lambda_1 = ... = lambda_m = 0, so
    every gap in the window is 0, g_p = 0 and r_p = p/epsilon; it is skipped
    with that bound. Components only merge as p grows, so the count stops at
    the first p with fewer than m. An all-zero L_p (p = 1 when each row's
    nearest column is itself) has the all-zero spectrum and needs no solve.
    The first evaluated p that fails to improve on the best, and whose
    spectrum has lambda_{w+1} - lambda_w > 1e-9 * (lambda_max + 1) (or w = N),
    takes one eigh of its Laplacian: the lowest w eigenvectors become the
    basis V, and the top one the vector x. It is the scan's only N x N eigh.
    The gap makes span V unique. At smaller p, L often has more than w
    components, so its zero eigenvalue repeats, and eigh would return a slice
    of that null space chosen by the BLAS build and thread count; the set of
    skipped p would follow it. Every later p first costs one N x N x w
    product, L_p V, and one power step on x: _r_lower_bound bounds r_p from
    below (Weyl against the last evaluated spectrum, Courant-Fischer on the m
    lowest Ritz values of V^T L_p V, and lambda_max >= ||L_p x||), x becomes
    L_p x / ||L_p x||, and p is skipped when the bound is >= the best r_p;
    equality may skip, as ties go to the lower p. The w - m guard columns
    keep the m Ritz values the bound reads away from a block's last ones,
    which converge slowest. When the bound falls short, one Rayleigh-Ritz
    step on span[V, L_p V] (_rayleigh_ritz_step) replaces V by the w lowest
    Ritz vectors of that space, and p is bounded again from their Ritz values
    before it pays for eigvalsh. So V follows the spectrum as p grows, instead
    of going stale or being retaken.

    In floating point: Laplacian entries are multiples of 0.5, so L_p is exact.
    eigvalsh and eigh are backward stable, so each computed eigenvalue, and
    each Ritz value of a basis that is orthonormal to rounding, lies within
    about N * u * ||L_p|| of the exact one (u = 2^-53). The refreshed V is
    orthonormal to rounding: Householder QR returns an orthonormal Q even when
    [V, L_p V] is rank-deficient, as it is when V spans an invariant subspace
    (the extra columns are then any orthonormal completion, which is still a
    valid basis); the residuals that the step leaves out only shrink a space
    that still holds V, so its lowest Ritz values stay upper bounds; the
    eigenvector matrix Y of the small Ritz matrix is orthogonal, so Q Y is
    too; and when Q has N columns, its Ritz values are the whole spectrum.
    The guard columns change none of this: the m lowest Ritz values of any
    w-dimensional subspace bound lambda_1..lambda_m from above. x is a unit
    vector to rounding, so the computed ||L_p x|| <= ||L_p|| = lambda_max up
    to about N * u * ||L_p||; x need not be near an eigenvector. Nor is
    ||L_p x|| ever 0: it is >= x^T L_p x, and neither a power step nor the
    growth of L_p lowers that Rayleigh quotient from lambda_max(L_q) > 0,
    its value at the start. By Gershgorin,
    ||L_p|| <= 2 max diag L_p <= 2t, so the margin delta = 1e-9 * (t + 1) of
    _r_lower_bound exceeds these errors about 1e4 times at N = 480. Hence the
    computed max gap is <= the bound's gap and the computed lambda_max >= its
    lambda_max, and as rounding is monotone the computed r_p >= the bound: a
    skipped p could not have become the best. For the component certificate,
    the computed lambda_1..lambda_m lie within N * u * ||L_p|| of 0 and the
    computed lambda_max within it of ||L_p||, so the computed g_p is at most
    about 2 N u = N * eps (eps = 2^-52), whatever the scale of L_p. When
    epsilon >= 100 * N * eps, the computed g_p <= epsilon, so the computed r_p
    = p / max(g_p, epsilon) is exactly p/epsilon, the bound; below that floor
    (epsilon = 1e-14, say) such p are left to eigvalsh. The default epsilon =
    1e-10 clears the floor up to N = 4500. A fragmented p never beats the
    best, as each evaluated q < p has r_q <= q/epsilon < p/epsilon.

    Kept entries, p_hat and k_hat equal a full scan's bit for bit.

    Raises:
        ValueError: a is not a square matrix.
        InputTooSmallError: fewer than 4 segments.
    """
    a = _square(a)
    n = a.shape[0]
    if n < 4:
        raise InputTooSmallError(f"need at least 4 segments, got {n}")
    p_max = cfg.p_max if cfg.p_max is not None else max(1, n // 4)
    p_max = min(int(p_max), n)
    m = min(cfg.max_speakers, n - 1) + 1
    w = min(m + _GUARD_COLUMNS, n)

    entries, skipped = [], []
    best = basis = None
    certifying = cfg.epsilon >= _CERTIFICATE_FLOOR * n * np.finfo(float).eps  # the component certificate
    order = descending_order(a, p_max)
    for p, lap in enumerate(_pruned_laplacians(order, p_max), start=1):
        if best is not None and p * (1.0 - _SKIP_MARGIN) >= best.rp:
            break
        if certifying and best is not None:
            certifying = _component_count(order[:, :p]) >= m  # components only merge: once off, off for good
            if certifying:
                skipped.append((p, p / cfg.epsilon))
                continue
        if basis is not None:
            lap_basis, lap_x = lap @ basis, lap @ x
            lap_x_norm = float(np.linalg.norm(lap_x))
            x = lap_x / lap_x_norm
            theta = np.linalg.eigvalsh(basis.T @ lap_basis)  # w x w Ritz matrix, not a spectrum of L
            bound = _r_lower_bound(lap, theta, values, lap_x_norm, p, cfg)
            if bound < best.rp:
                basis, theta = _rayleigh_ritz_step(lap, basis, lap_basis)
                bound = _r_lower_bound(lap, theta, values, lap_x_norm, p, cfg)
            if bound >= best.rp:
                skipped.append((p, bound))
                continue
        values = eigvalsh(lap) if lap.any() else np.zeros(n)
        gp, rp, k = _nme_metrics(values, p, cfg)
        entries.append(NmeScanEntry(p=p, gp=gp, rp=rp, k_at_p=k))
        if best is None or rp < best.rp:
            best = entries[-1]
        elif basis is None and (w == n or values[w] - values[w - 1] > _SKIP_MARGIN * (values[-1] + 1.0)):
            vectors = eigh(lap).vectors[:, [*range(w), n - 1]]  # a copy: frees the other columns
            basis, x = vectors[:, :w], vectors[:, w]

    k_hat = cfg.fixed_k if cfg.fixed_k is not None else best.k_at_p
    return NmeScan(entries=tuple(entries), p_hat=best.p, k_hat=k_hat, p_max=p_max, skipped=tuple(skipped))


def spectral_embedding(es: EigenSystem, k: int) -> np.ndarray:
    """Rows of the k eigenvectors with the smallest eigenvalues (not renormalized).

    Raises:
        InvalidKError: k outside [1, n].
    """
    if not 1 <= k <= es.n:
        raise InvalidKError(f"k={k} outside [1, {es.n}]")
    return es.vectors[:, :k].copy()


def nme_sc(emb: EmbeddingSequence, cfg: NmeConfig = NmeConfig()) -> tuple[DiarizationResult, NmeScan]:
    """End-to-end auto-tuned spectral clustering of an embedding sequence.

    Returns the per-segment labels as a DiarizationResult plus the full
    scan for diagnostics. Deterministic for a fixed cfg.seed.
    """
    a = cosine_affinity(emb)
    scan = nme_scan(a, cfg)
    probe = nme_at(a, scan.p_hat, cfg)
    points = spectral_embedding(probe.eigensystem, scan.k_hat)
    return _cluster_rows(emb, points, scan.k_hat, cfg.seed), scan


def _cluster_rows(emb: EmbeddingSequence, points: np.ndarray, k: int, seed: int) -> DiarizationResult:
    """k-means on the spectral rows, one per segment of emb, as a labeled timeline."""
    km = kmeans(points, k, KMeansConfig(seed=seed))
    return DiarizationResult(emb.recording_id, emb.starts, emb.ends, km.labels)


def _njw_embedding(es: EigenSystem, k: int) -> np.ndarray:
    """Top-k eigenvector rows of the normalized adjacency, row-normalized."""
    top = es.vectors[:, ::-1][:, :k]
    norms = np.linalg.norm(top, axis=1, keepdims=True)
    return top / np.where(norms > 1e-12, norms, 1.0)


def njw_sc(emb: EmbeddingSequence, cfg: NjwConfig) -> DiarizationResult:
    """Kernel-affinity NJW spectral clustering baseline.

    Estimates k from the largest gap of the normalized adjacency's
    descending spectrum (window capped at max_speakers) unless cfg.fixed_k
    is set, then clusters the row-normalized top-k eigenvector matrix.
    """
    if emb.n < 4:
        raise InputTooSmallError(f"need at least 4 segments, got {emb.n}")
    es = eigh(normalized_laplacian(kernel_affinity(emb, cfg.sigma)))
    if cfg.fixed_k is not None:
        k = cfg.fixed_k  # kmeans raises InvalidKError for k > N
    else:
        # Gaps of the negated descending values are the descending gaps exactly: (-b) - (-a) = a - b.
        k = 1 + int(np.argmax(eigengap_vector(-es.values[::-1], cfg.max_speakers)))
    return _cluster_rows(emb, _njw_embedding(es, k), k, cfg.seed)
