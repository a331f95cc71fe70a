"""Diarization timelines: embedding ingestion, RTTM I/O and DER scoring.

Scoring runs on exact rationals (seconds held as `Fraction`s parsed from
their decimal rendering, then scaled to common integer ticks) so interval
arithmetic never drifts. The speaker mapping is a Hungarian assignment on
the integer tick overlaps, solved in Python ints, so it is exact at any
recording length and needs nothing beyond the standard library.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .affinity import EmbeddingSequence
from .numerics import _check_timeline, _freeze, _zero_norm

__all__ = [
    "DiarizationResult",
    "RttmRecord",
    "DerReport",
    "ParseError",
    "load_embeddings",
    "write_embeddings",
    "records_from_result",
    "write_rttm",
    "load_rttm",
    "score_der",
    "score_recordings",
]


class ParseError(ValueError):
    """Malformed input line; the message names the line number."""


@dataclass(frozen=True)
class DiarizationResult:
    """Per-segment cluster labels joined with the segment timeline."""

    recording_id: str
    starts: np.ndarray
    ends: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        _freeze(self, starts=self.starts, ends=self.ends)
        _freeze(self, int, labels=self.labels)
        if not (self.starts.shape == self.ends.shape == self.labels.shape) or self.starts.ndim != 1:
            raise ValueError("starts, ends and labels must be 1-d arrays of equal length")
        _check_timeline(self.starts, self.ends)
        distinct = np.unique(self.labels)
        if distinct.size and not np.array_equal(distinct, np.arange(distinct.size)):
            raise ValueError("labels must form a contiguous range [0, k)")

    @property
    def n(self) -> int:
        return self.starts.shape[0]

    @property
    def num_speakers(self) -> int:
        return int(self.labels.max()) + 1 if self.n else 0


def _check_rttm_name(what: str, value) -> None:
    """Raise ValueError unless value can be an RTTM name field: a non-empty string without whitespace."""
    if not (isinstance(value, str) and value.split() == [value]):
        raise ValueError(f"{what} must be a non-empty string without whitespace, got {value!r}")


@dataclass(frozen=True)
class RttmRecord:
    """One speaker turn: finite onset and duration in seconds.

    recording_id and speaker are RTTM fields: non-empty strings without whitespace.
    """

    recording_id: str
    onset: float
    duration: float
    speaker: str

    def __post_init__(self):
        _check_rttm_name("recording_id", self.recording_id)
        _check_rttm_name("speaker", self.speaker)
        if not (math.isfinite(self.onset) and math.isfinite(self.duration)):
            raise ValueError(f"onset and duration must be finite, got {self.onset} and {self.duration}")
        if not self.duration > 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.onset < 0:
            raise ValueError(f"onset must be non-negative, got {self.onset}")


@dataclass(frozen=True)
class DerReport:
    """DER and its components, each as a fraction of scored reference time."""

    der: float
    speaker_error: float
    missed: float
    false_alarm: float
    scored_time: float
    mapping: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Embedding ingestion (JSON Lines)
# ---------------------------------------------------------------------------


def _content_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield the 1-based number and stripped text of each non-blank line; blank lines keep their numbers.

    A byte that is not UTF-8 raises ParseError naming its line.
    """
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                try:
                    raw.encode("utf-8")  # surrogateescape decoded each bad byte to a lone surrogate
                except UnicodeEncodeError as exc:
                    byte = ord(raw[exc.start]) - 0xDC00
                    raise ParseError(f"line {lineno}: byte 0x{byte:02x} is not UTF-8") from None
            line = raw.strip()
            if line:
                yield lineno, line


_JSON_NUMBER_TYPES = frozenset({int, float})  # what json.loads makes of a number; a bool is an int subclass


def _seconds(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in _JSON_NUMBER_TYPES:  # float() would also take a bool or a numeric string
        raise TypeError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


def load_embeddings(path: str | Path) -> EmbeddingSequence:
    """Read an embedding sequence from a JSON-Lines file.

    Each line holds {"start": s, "end": s, "embedding": [...]}; an optional
    first line {"recording_id": ..., "dim": ...} names the recording and
    pins the dimension, which is otherwise the first segment's. The header's
    recording id becomes an RTTM field, so it must be a JSON string, non-empty
    and without whitespace, and its dim an integer >= 1. Start, end and every
    embedding element must be JSON numbers. Segments are re-sorted by start time.

    Each line is converted and checked as it is read, and the first faulty
    line raises. Within a line the checks run in this order: JSON, fields
    and types, value conversion, finiteness, end > start, non-empty
    embedding, dimension, non-zero norm. Line numbers count every line of
    the file, blank ones included. A byte that is not UTF-8 faults its line.

    Raises:
        ParseError: malformed line, inconsistent dimension included (message
            names the line number).
        ValueError: fewer than 2 segments.
    """
    path = Path(path)
    recording_id = "rec"
    dim: int | None = None
    starts: list[float] = []
    ends: list[float] = []
    vectors: list[np.ndarray] = []
    for i, (lineno, line) in enumerate(_content_lines(path)):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            if "embedding" not in obj:
                if i > 0 or not ("recording_id" in obj or "dim" in obj):
                    raise ValueError("missing 'embedding' field")
                recording_id = obj.get("recording_id", recording_id)
                _check_rttm_name("header 'recording_id'", recording_id)
                if "dim" in obj:
                    dim = obj["dim"]
                    if type(dim) is not int or dim < 1:  # bool is an int subclass
                        raise ValueError(f"header 'dim' must be an integer >= 1, got {dim!r}")
                continue
            start, end, values = _seconds(obj, "start"), _seconds(obj, "end"), obj["embedding"]
            if not (isinstance(values, list) and set(map(type, values)) <= _JSON_NUMBER_TYPES):
                raise TypeError("embedding must be a list of numbers")
            vec = np.fromiter(values, dtype=float, count=len(values))
            if dim is None:
                dim = vec.size
            if not (math.isfinite(start) and math.isfinite(end) and np.isfinite(vec).all()):
                raise ValueError("non-finite value")
            if end <= start:
                raise ValueError(f"end ({end}) must exceed start ({start})")
            if vec.size == 0:
                raise ValueError("empty embedding")
            if vec.size != dim:
                raise ValueError(f"embedding has dimension {vec.size}, expected {dim}")
            if _zero_norm(vec):
                raise ValueError("zero-norm embedding")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            detail = f"invalid JSON ({exc.msg})" if isinstance(exc, json.JSONDecodeError) else exc
            raise ParseError(f"line {lineno}: {detail}") from exc
        starts.append(start)
        ends.append(end)
        vectors.append(vec)
    if len(vectors) < 2:
        raise ValueError(f"{path}: need at least 2 segments, found {len(vectors)}")
    order = np.argsort(starts, kind="stable")
    stacked = np.stack([vectors[i] for i in order])
    del vectors  # frees the per-line rows before EmbeddingSequence takes its own copy
    return EmbeddingSequence(
        starts=np.array(starts)[order],
        ends=np.array(ends)[order],
        vectors=stacked,
        recording_id=recording_id,
    )


def write_embeddings(emb: EmbeddingSequence, path: str | Path, header: bool = True) -> None:
    """Write an embedding sequence in the JSON-Lines schema read by load_embeddings.

    With header=False the optional first line is omitted; the loader then
    falls back to the default recording id. With header=True the recording
    id must be one the loader accepts.
    """
    path = Path(path)
    if header:
        _check_rttm_name("recording_id", emb.recording_id)
    with path.open("w", encoding="utf-8") as fh:
        if header:
            fh.write(json.dumps({"recording_id": emb.recording_id, "dim": emb.dim}) + "\n")
        for start, end, vec in zip(emb.starts.tolist(), emb.ends.tolist(), emb.vectors):
            fh.write(json.dumps({"start": start, "end": end, "embedding": vec.tolist()}) + "\n")


# ---------------------------------------------------------------------------
# RTTM I/O
# ---------------------------------------------------------------------------

_MERGE_GAP = 1e-6  # seconds; adjacent same-speaker segments closer than this merge


def records_from_result(result: DiarizationResult) -> list[RttmRecord]:
    """Render a labeled timeline as RTTM records, merging touching same-label runs."""
    runs: list[list] = []  # [start, end, label] of each merged run
    for s, e, lab in zip(result.starts.tolist(), result.ends.tolist(), result.labels.tolist()):
        if runs and lab == runs[-1][2] and s - runs[-1][1] < _MERGE_GAP:
            runs[-1][1] = max(runs[-1][1], e)
        else:
            runs.append([s, e, lab])
    return [RttmRecord(result.recording_id, s, e - s, f"spk{lab}") for s, e, lab in runs]


def write_rttm(result: DiarizationResult | Iterable[RttmRecord], path: str | Path) -> None:
    """Write RTTM lines for a DiarizationResult or an iterable of records to the file at path.

    Onset and end are rendered at millisecond resolution and the duration
    is the difference of the two rendered values, so a record read back
    ends where it was written to end. A record whose rendered duration is
    0 (a turn of under about a millisecond) is dropped: RTTM durations,
    and load_rttm, require a positive duration.
    """
    records = records_from_result(result) if isinstance(result, DiarizationResult) else list(result)
    lines = []
    for rec in records:
        onset = Decimal(f"{rec.onset:.3f}")
        duration = Decimal(f"{rec.onset + rec.duration:.3f}") - onset
        if duration > 0:
            lines.append(
                f"SPEAKER {rec.recording_id} 1 {onset:.3f} {duration:.3f} <NA> <NA> {rec.speaker} <NA> <NA>\n"
            )
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_rttm(path: str | Path) -> list[RttmRecord]:
    """Parse an RTTM file into records, skipping blank lines and `;;` comments.

    Raises:
        ParseError: malformed line (wrong field count, type or values, or a byte
            that is not UTF-8); line numbers count every line of the file,
            blanks and comments included.
    """
    records: list[RttmRecord] = []
    for lineno, line in _content_lines(path):
        if line.startswith(";;"):
            continue
        fields = line.split()
        try:
            if len(fields) != 10:
                raise ValueError(f"expected 10 fields, got {len(fields)}")
            if fields[0] != "SPEAKER":
                raise ValueError(f"expected type SPEAKER, got {fields[0]!r}")
            try:
                onset, duration = float(fields[3]), float(fields[4])
            except ValueError as exc:
                raise ValueError("bad onset/duration") from exc
            records.append(RttmRecord(fields[1], onset, duration, fields[7]))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# DER scoring
# ---------------------------------------------------------------------------


def _frac(x: float) -> Fraction:
    """The exact ratio of x's shortest decimal rendering; Decimal parses it faster than Fraction does."""
    return Fraction(*Decimal(str(x)).as_integer_ratio())


def _check_collar(collar: float) -> None:
    """The collar rule of score_recordings and `nmesc score`: a finite width >= 0."""
    if not 0 <= collar < math.inf:
        raise ValueError("collar must be a finite number >= 0")


def _recording_times(
    ref: Sequence[RttmRecord],
    hyp: Sequence[RttmRecord],
    collar: Fraction,
    score_overlap: bool,
):
    """Exact component times for one recording, in one sweep over boundary events.

    Returns (scored_ref_time, missed, false_alarm, speaker_error, mapping),
    all times as Fractions of seconds. A collar of width `collar` centered
    on every reference boundary is excluded; without score_overlap, slices
    where the reference has 2+ active speakers are excluded too.

    Every turn edge and collar-zone edge is an event. Between consecutive
    event times t0 < t1 the per-speaker and collar-depth counters give the
    active sets: a turn [s, e) covers the slice when s <= t0 < e, a zone
    [z0, z1) when z0 <= t0 < z1. Times are scaled once to integer ticks of
    1/den seconds, den being the LCM of every boundary and half-collar
    denominator, so the sweep itself is integer arithmetic.
    """
    half = collar / 2
    turns = [
        (side, r.speaker, _frac(r.onset), _frac(r.duration))
        for side, recs in ((0, ref), (1, hyp))
        for r in recs
    ]
    den = math.lcm(half.denominator, *(x.denominator for *_, onset, dur in turns for x in (onset, dur)))
    h = half.numerator * (den // half.denominator)

    # Counter slot 0 is the collar depth; every (side, speaker) gets a slot of its own.
    slots: dict[tuple[int, str], int] = {}
    events: list[tuple[int, int, int]] = []
    for side, spk, onset, duration in turns:
        slot = slots.setdefault((side, spk), len(slots) + 1)
        s = onset.numerator * (den // onset.denominator)
        e = s + duration.numerator * (den // duration.denominator)
        events += ((s, slot, 1), (e, slot, -1))
        if side == 0 and h > 0:
            events += ((s - h, 0, 1), (s + h, 0, -1), (e - h, 0, 1), (e + h, 0, -1))
    events.sort()
    names = [None, *slots]
    counts = [0] * len(names)
    active: tuple[set[str], set[str]] = (set(), set())

    overlap: dict[tuple[str, str], int] = {}
    scored = missed = fa = min_active = 0
    for (t0, slot, delta), (t1, _, _) in itertools.pairwise(events):
        counts[slot] += delta
        if slot:
            side, spk = names[slot]
            if counts[slot]:
                active[side].add(spk)
            else:
                active[side].discard(spk)
        dur = t1 - t0
        if dur == 0 or counts[0]:
            continue
        ref_active, hyp_active = active
        nr, nh = len(ref_active), len(hyp_active)
        if nr > 1 and not score_overlap:
            continue
        scored += dur * nr
        missed += dur * max(0, nr - nh)
        fa += dur * max(0, nh - nr)
        min_active += dur * min(nr, nh)
        for r_spk in ref_active:
            for h_spk in hyp_active:
                overlap[(r_spk, h_spk)] = overlap.get((r_spk, h_spk), 0) + dur

    mapping = _optimal_mapping(overlap)
    matched = sum(overlap[(r, h)] for h, r in mapping.items())
    return (
        Fraction(scored, den),
        Fraction(missed, den),
        Fraction(fa, den),
        Fraction(min_active - matched, den),
        mapping,
    )


def _optimal_mapping(overlap: dict[tuple[str, str], int]) -> dict[str, str]:
    """One-to-one hyp->ref map maximizing the total of `overlap[(ref, hyp)]`.

    Kuhn–Munkres with row and column potentials, O(k³) in k = max(refs,
    hyps). The overlaps are padded with zeros to a square matrix, refs as
    rows and hyps as columns, each in sorted name order, and every step is
    Python-int arithmetic, so the matched total is exact at any magnitude.
    Pairs that overlap by 0 are left out of the map.

    Ties: refs are added one at a time in sorted order, each along a
    shortest augmenting path in reduced costs, and wherever hyps are equally
    near the lowest-sorted one is taken. So among equally good maps the one
    returned depends on the overlaps and the sorted names alone, never on
    the dict's insertion order.
    """
    if not overlap:
        return {}
    refs = sorted({r for r, _ in overlap})
    hyps = sorted({h for _, h in overlap})
    ref_row = {r: i for i, r in enumerate(refs, 1)}
    hyp_col = {h: j for j, h in enumerate(hyps, 1)}
    n = max(len(refs), len(hyps))
    # cost[i][j] = -overlap for ref row i and hyp column j, 1-based so column 0 can stand for a new row.
    cost = [[0] * (n + 1) for _ in range(n + 1)]
    for (r, h), ticks in overlap.items():
        cost[ref_row[r]][hyp_col[h]] = -ticks
    u = [0] * (n + 1)  # row potentials
    v = [0] * (n + 1)  # column potentials
    row_of = [0] * (n + 1)  # row_of[j]: the row column j is matched to; 0 when free
    for i in range(1, n + 1):
        # Grow a tree of tight edges from row i, entered through column 0, until it reaches a free column.
        row_of[0] = i
        j0 = 0
        slack = [math.inf] * (n + 1)
        prev = [0] * (n + 1)
        used = [False] * (n + 1)
        while row_of[j0]:
            used[j0] = True
            i0 = row_of[j0]
            row, ui = cost[i0], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = row[j] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], prev[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # augment: shift each column on the path back to the row before it
            j1 = prev[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return {
        hyps[j - 1]: refs[row_of[j] - 1]
        for j in range(1, len(hyps) + 1)
        if cost[row_of[j]][j] < 0  # padded rows cost 0, so this also drops them
    }


def score_der(
    ref: Sequence[RttmRecord],
    hyp: Sequence[RttmRecord],
    collar: float = 0.25,
    score_overlap: bool = False,
) -> DerReport:
    """Diarization error rate of one recording's hypothesis against its reference.

    The optimal one-to-one speaker mapping (maximal matched time) absorbs
    label names; `collar` is the total no-score width centered on each
    reference boundary. An empty hypothesis scores as all-miss. This is
    score_recordings restricted to one recording id.

    Raises:
        ValueError: ref is empty, hyp names a recording ref lacks, collar is
            negative or not finite, or ref spans several recording ids.
    """
    _, per_recording = score_recordings(ref, hyp, collar, score_overlap)
    if len(per_recording) > 1:
        raise ValueError(
            f"score_der scores one recording, got {len(per_recording)}; use score_recordings"
        )
    (report,) = per_recording.values()
    return report


def _report(scored, missed, fa, se, mapping) -> DerReport:
    if scored == 0:
        return DerReport(0.0, 0.0, 0.0, 0.0, 0.0, mapping)
    return DerReport(
        der=float((missed + fa + se) / scored),
        speaker_error=float(se / scored),
        missed=float(missed / scored),
        false_alarm=float(fa / scored),
        scored_time=float(scored),
        mapping=mapping,
    )


def _group_by_recording(records: Sequence[RttmRecord]) -> dict[str, list[RttmRecord]]:
    groups: dict[str, list[RttmRecord]] = {}
    for r in records:
        groups.setdefault(r.recording_id, []).append(r)
    return groups


def score_recordings(
    ref: Sequence[RttmRecord],
    hyp: Sequence[RttmRecord],
    collar: float = 0.25,
    score_overlap: bool = False,
) -> tuple[DerReport, dict[str, DerReport]]:
    """Score per recording id and aggregate by summed component times.

    Raises:
        ValueError: ref empty, a hypothesis recording id has no reference
            counterpart, or collar is negative or not finite.
    """
    if not ref:
        raise ValueError("reference contains no records")
    _check_collar(collar)
    ref_groups = _group_by_recording(ref)
    hyp_groups = _group_by_recording(hyp)
    orphans = sorted(set(hyp_groups) - set(ref_groups))
    if orphans:
        raise ValueError(f"recording {orphans[0]}: no reference records")
    exact_collar = _frac(collar)
    totals = [Fraction(0)] * 4
    per_recording: dict[str, DerReport] = {}
    for rec_id in sorted(ref_groups):
        scored, missed, fa, se, mapping = _recording_times(
            ref_groups[rec_id], hyp_groups.get(rec_id, []), exact_collar, score_overlap
        )
        per_recording[rec_id] = _report(scored, missed, fa, se, mapping)
        for i, v in enumerate((scored, missed, fa, se)):
            totals[i] += v
    aggregate = _report(*totals, {})
    return aggregate, per_recording
