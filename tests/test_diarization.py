from __future__ import annotations

import itertools
from decimal import ROUND_HALF_EVEN, Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmesc import (
    DiarizationResult,
    DimensionMismatchError,
    EmptyInputError,
    EmptyReferenceError,
    ParseError,
    RttmRecord,
    load_embeddings,
    load_rttm,
    records_from_result,
    score_der,
    score_recordings,
    write_embeddings,
    write_rttm,
)
from nmesc import EmbeddingSequence
from nmesc.diarization import _optimal_mapping
from oracles import exhaustive_matched_total, oracle_der_components


def _rec(spk: str, onset: float, dur: float, rec_id: str = "rec") -> RttmRecord:
    return RttmRecord(recording_id=rec_id, onset=onset, duration=dur, speaker=spk)


# ---------------------------------------------------------------------------
# Embedding ingestion
# ---------------------------------------------------------------------------


def test_load_embeddings_basic(tmp_path) -> None:
    path = tmp_path / "emb.jsonl"
    path.write_text(
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0, 0.0]}\n'
        '{"start": 1.0, "end": 2.5, "embedding": [0.0, 1.0, 0.0]}\n'
    )
    emb = load_embeddings(path)
    assert emb.n == 2 and emb.dim == 3
    assert emb.recording_id == "rec"


def test_load_embeddings_header_and_sorting(tmp_path) -> None:
    path = tmp_path / "emb.jsonl"
    path.write_text(
        '{"recording_id": "callA", "dim": 2}\n'
        '{"start": 5.0, "end": 6.0, "embedding": [0.0, 1.0]}\n'
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}\n'
    )
    emb = load_embeddings(path)
    assert emb.recording_id == "callA"
    assert emb.starts.tolist() == [0.0, 5.0]


@pytest.mark.parametrize("dim", ['"x"', "2.7", "true", "0"])
def test_load_embeddings_rejects_bad_header_dim(tmp_path, dim) -> None:
    path = tmp_path / "emb.jsonl"
    path.write_text(
        f'{{"recording_id": "callA", "dim": {dim}}}\n'
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 1.0, "end": 2.0, "embedding": [0.0, 1.0]}\n'
    )
    with pytest.raises(ParseError, match="line 1: header 'dim'"):
        load_embeddings(path)


@pytest.mark.parametrize("recording_id", ['"my rec"', '""', '"a\\tb"', '["a", "b"]', "null", "true", "5", '["a"]'])
def test_load_embeddings_rejects_a_header_recording_id_rttm_cannot_hold(tmp_path, recording_id) -> None:
    # The id becomes an RTTM field, which whitespace splits: load_rttm could not read it back.
    # It must be a JSON string: a null, a bool, a number or a list is not turned into one.
    path = tmp_path / "emb.jsonl"
    path.write_text(
        f'{{"recording_id": {recording_id}}}\n'
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 1.0, "end": 2.0, "embedding": [0.0, 1.0]}\n'
    )
    with pytest.raises(ParseError, match="line 1: header 'recording_id' must be a non-empty string"):
        load_embeddings(path)


_GOOD_ROW = '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}'


@pytest.mark.parametrize(
    ("lines", "error", "message"),
    [
        # The earliest faulty line wins, whatever the kinds of the faults.
        (
            [
                _GOOD_ROW,
                '{"start": 1.0, "end": 2.0, "embedding": [0.0, 0.0]}',
                _GOOD_ROW,
                "not json",
            ],
            ParseError,
            "line 2: zero-norm embedding",
        ),
        (
            [
                _GOOD_ROW,
                '{"start": 1.0, "end": 2.0, "embedding": [NaN, 1.0]}',
                '{"start": 2.0, "end": 3.0, "embedding": [1.0]}',
            ],
            ParseError,
            "line 2: non-finite value",
        ),
        # Within one line: conversion, then non-finite, then end <= start, then empty, then dimension.
        (
            [_GOOD_ROW, '{"start": 2.0, "end": 1.0, "embedding": []}'],
            ParseError,
            "line 2: end (1.0) must exceed start (2.0)",
        ),
        (
            [_GOOD_ROW, '{"start": 1.0, "end": 2.0, "embedding": [NaN, 1.0, 2.0]}'],
            ParseError,
            "line 2: non-finite value",
        ),
        (
            [_GOOD_ROW, '{"start": 2.0, "end": 1.0, "embedding": [1.0, "a"]}'],
            ParseError,
            "line 2: could not convert string to float: 'a'",
        ),
        (
            [_GOOD_ROW, '{"start": 1.0, "end": 2.0, "embedding": [1.0, null]}'],
            ParseError,
            "line 2: non-finite value",
        ),
        pytest.param(
            ['{"start": 0.0, "end": 1.0, "embedding": [1.0]}', '{"start": 2.0, "end": 1.5, "embedding": [1.0]}'],
            ParseError,
            "line 2: end (1.5) must exceed start (2.0)",
            id="end-before-start",
        ),
        pytest.param(
            [_GOOD_ROW, '{"start": 1.0, "end": 2.0, "embedding": [1.0]}'],
            DimensionMismatchError,
            "line 2: embedding has dimension 1, expected 2",
            id="dimension-mismatch",
        ),
        pytest.param(["not json"], ParseError, "line 1: invalid JSON (Expecting value)", id="not-json"),
        pytest.param(['[1.0, 2.0]'], ParseError, "line 1: expected a JSON object", id="not-an-object"),
        pytest.param(
            ['{"start": 0.0, "end": 1.0}'], ParseError, "line 1: missing 'embedding' field", id="no-embedding"
        ),
        pytest.param(
            [_GOOD_ROW, '{"end": 2.0, "embedding": [1.0, 0.0]}'], ParseError, "line 2: 'start'", id="no-start"
        ),
        pytest.param(
            ['{"start": 0.0, "end": 1.0, "embedding": [0.0, 0.0]}'],
            ParseError,
            "line 1: zero-norm embedding",
            id="zero-norm",
        ),
        # A JSON integer too large for a float is a malformed line, not a crash.
        pytest.param(
            ['{"start": 0.0, "end": 1.0, "embedding": [1' + "0" * 400 + "]}"],
            ParseError,
            "line 1: int too large to convert to float",
            id="int-too-large",
        ),
        # Line numbers count every physical line: blank ones, and CRLF endings, shift nothing.
        pytest.param(
            ["", _GOOD_ROW + "\r", "  \r", "\r", _GOOD_ROW, "", '{"start": 2.0, "end": 1.5, "embedding": [1.0, 0.0]}\r'],
            ParseError,
            "line 7: end (1.5) must exceed start (2.0)",
            id="after-blank-and-crlf-lines",
        ),
        # Times must be JSON numbers: float() would take a bool or a numeric string.
        pytest.param(
            [_GOOD_ROW, '{"start": false, "end": true, "embedding": [1.0, 0.0]}'],
            ParseError,
            "line 2: start must be a JSON number, got False",
            id="bool-start",
        ),
        pytest.param(
            [_GOOD_ROW, '{"start": 1.0, "end": true, "embedding": [1.0, 0.0]}'],
            ParseError,
            "line 2: end must be a JSON number, got True",
            id="bool-end",
        ),
        pytest.param(
            [_GOOD_ROW, '{"start": "1.5", "end": 2.0, "embedding": [1.0, 0.0]}'],
            ParseError,
            "line 2: start must be a JSON number, got '1.5'",
            id="string-start",
        ),
        pytest.param(
            [_GOOD_ROW, '{"start": 1.0, "end": null, "embedding": [1.0, 0.0]}'],
            ParseError,
            "line 2: end must be a JSON number, got None",
            id="null-end",
        ),
    ],
)
def test_load_embeddings_reports_first_fault(tmp_path, lines, error, message) -> None:
    path = tmp_path / "emb.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    with pytest.raises(error) as info:
        load_embeddings(path)
    assert type(info.value) is error
    assert str(info.value) == message


_SECONDS = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
_VALUES = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def _embedding_sequences(draw, recording_id: str) -> EmbeddingSequence:
    n = draw(st.integers(2, 12))
    dim = draw(st.integers(1, 6))
    starts = sorted(draw(st.lists(_SECONDS, min_size=n, max_size=n)))
    lengths = draw(st.lists(st.floats(min_value=1e-3, max_value=60.0), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_VALUES, min_size=dim, max_size=dim), min_size=n, max_size=n))
    vectors = np.array(rows)
    vectors[np.linalg.norm(vectors, axis=1) <= 1e-12, 0] = 1.0
    return EmbeddingSequence(
        starts=np.array(starts),
        ends=np.array(starts) + np.array(lengths),
        vectors=vectors,
        recording_id=recording_id,
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    header=st.booleans(),
    recording_id=st.text(min_size=1, max_size=12),
)
def test_write_load_embeddings_round_trip(tmp_path_factory, data, header, recording_id) -> None:
    # Without a header the loader falls back to the default id, so only then is it "rec".
    emb = data.draw(_embedding_sequences(recording_id if header else "rec"))
    path = tmp_path_factory.mktemp("jsonl") / "emb.jsonl"
    if header and recording_id.split() != [recording_id]:
        # An id with whitespace is refused before the writer writes a header the loader would refuse.
        with pytest.raises(ValueError, match="recording_id must be a non-empty string without whitespace"):
            write_embeddings(emb, path, header=header)
        assert not path.exists()
        return
    write_embeddings(emb, path, header=header)
    back = load_embeddings(path)
    assert back.recording_id == emb.recording_id
    assert np.array_equal(back.starts, emb.starts)
    assert np.array_equal(back.ends, emb.ends)
    assert np.array_equal(back.vectors, emb.vectors)


def test_load_embeddings_empty_inputs(tmp_path) -> None:
    path = tmp_path / "emb.jsonl"
    path.write_text("\n")
    with pytest.raises(EmptyInputError):
        load_embeddings(path)
    path.write_text('{"start": 0.0, "end": 1.0, "embedding": [1.0]}\n')
    with pytest.raises(EmptyInputError):
        load_embeddings(path)


def test_embeddings_round_trip(tmp_path) -> None:
    rng = np.random.default_rng(0)
    emb = EmbeddingSequence(
        starts=np.array([0.0, 1.25]),
        ends=np.array([1.0, 2.75]),
        vectors=rng.standard_normal((2, 5)),
        recording_id="roundtrip",
    )
    path = tmp_path / "emb.jsonl"
    write_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.recording_id == emb.recording_id
    assert np.array_equal(back.starts, emb.starts)
    assert np.array_equal(back.ends, emb.ends)
    assert np.array_equal(back.vectors, emb.vectors)


# ---------------------------------------------------------------------------
# RTTM I/O
# ---------------------------------------------------------------------------


def test_write_rttm_exact_line(tmp_path) -> None:
    result = DiarizationResult(
        recording_id="rec", starts=np.array([0.0, 2.0]), ends=np.array([1.5, 3.0]), labels=np.array([0, 1])
    )
    path = tmp_path / "out.rttm"
    write_rttm(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "SPEAKER rec 1 0.000 1.500 <NA> <NA> spk0 <NA> <NA>"
    assert lines[1] == "SPEAKER rec 1 2.000 1.000 <NA> <NA> spk1 <NA> <NA>"


def test_rttm_merges_touching_same_label_segments() -> None:
    result = DiarizationResult(
        recording_id="rec",
        starts=np.array([0.0, 1.0, 2.0]),
        ends=np.array([1.0, 2.0, 3.0]),
        labels=np.array([0, 0, 1]),
    )
    records = records_from_result(result)
    assert len(records) == 2
    assert records[0].onset == 0.0 and records[0].duration == 2.0
    assert records[0].speaker == "spk0" and records[1].speaker == "spk1"


def test_rttm_round_trip(tmp_path) -> None:
    result = DiarizationResult(
        recording_id="callB",
        starts=np.array([0.0, 5.0, 9.5]),
        ends=np.array([1.5, 6.25, 10.0]),
        labels=np.array([0, 1, 0]),
    )
    path = tmp_path / "x.rttm"
    write_rttm(result, path)
    back = load_rttm(path)
    assert back == records_from_result(result)


def test_rttm_sub_millisecond_turn_round_trips(tmp_path) -> None:
    # A 0.2 ms turn renders to a 0 ms duration and is dropped; onset and end
    # round to ms independently of each other, so durations never drift.
    result = DiarizationResult(
        recording_id="r",
        starts=np.array([0.0004, 1.0, 2.0]),
        ends=np.array([0.0016, 1.0002, 3.0]),
        labels=np.array([0, 1, 0]),
    )
    path = tmp_path / "sub.rttm"
    write_rttm(result, path)
    assert path.read_text().splitlines() == [
        "SPEAKER r 1 0.000 0.002 <NA> <NA> spk0 <NA> <NA>",
        "SPEAKER r 1 2.000 1.000 <NA> <NA> spk0 <NA> <NA>",
    ]
    back = load_rttm(path)
    assert [(r.onset, r.duration, r.speaker) for r in back] == [(0.0, 0.002, "spk0"), (2.0, 1.0, "spk0")]


def _ms(x: float) -> int:
    """x in whole ms, rounded half to even from its exact binary value, as %.3f renders it."""
    return int(Decimal(x).quantize(Decimal("0.001"), rounding=ROUND_HALF_EVEN).scaleb(3))


_ms_grid = st.integers(0, 10**7).map(lambda ms: ms / 1000)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(
        st.builds(
            _rec,
            spk=st.sampled_from(["spk0", "spk1", "A"]),
            onset=st.one_of(_ms_grid, st.floats(0.0, 1e4)),
            dur=st.one_of(st.integers(1, 10**5).map(lambda ms: ms / 1000), st.floats(1e-7, 100.0)),
        ),
        max_size=20,
    )
)
def test_write_load_rttm_round_trips_on_ms_grid(tmp_path_factory, records) -> None:
    path = tmp_path_factory.mktemp("rttm") / "x.rttm"
    write_rttm(records, path)
    # Only a record that renders to 0 ms may be lost.
    kept = [r for r in records if _ms(r.onset + r.duration) > _ms(r.onset)]
    back = load_rttm(path)
    assert len(back) == len(kept)
    for r, b in zip(kept, back):
        assert (b.recording_id, b.speaker) == (r.recording_id, r.speaker)
        assert round(b.onset * 1000) == _ms(r.onset)
        assert round((b.onset + b.duration) * 1000) == _ms(r.onset + r.duration)
        if r.onset == _ms(r.onset) / 1000:
            assert b.onset == r.onset


_RTTM_ROW = "SPEAKER rec 1 0.000 1.000 <NA> <NA> spk0 <NA> <NA>"


@pytest.mark.parametrize(
    ("lines", "message"),
    [
        pytest.param(
            ["LEXEME rec 1 0.000 1.000 <NA> <NA> spk0 <NA> <NA>"],
            "line 1: expected type SPEAKER, got 'LEXEME'",
            id="not-speaker",
        ),
        pytest.param(["SPEAKER rec 1 0.000 1.000 spk0"], "line 1: expected 10 fields, got 6", id="six-fields"),
        pytest.param(
            ["SPEAKER rec 1 0.000 -1.000 <NA> <NA> spk0 <NA> <NA>"],
            "line 1: duration must be positive, got -1.0",
            id="negative-duration",
        ),
        pytest.param(
            ["SPEAKER rec 1 zero 1.000 <NA> <NA> spk0 <NA> <NA>"], "line 1: bad onset/duration", id="word-onset"
        ),
        pytest.param(
            ["SPEAKER rec 1 nan 1.000 <NA> <NA> spk0 <NA> <NA>"],
            "line 1: onset and duration must be finite, got nan and 1.0",
            id="nan-onset",
        ),
        pytest.param(
            ["SPEAKER rec 1 0.000 inf <NA> <NA> spk0 <NA> <NA>"],
            "line 1: onset and duration must be finite, got 0.0 and inf",
            id="inf-duration",
        ),
        pytest.param(
            ["SPEAKER rec 1 inf 1.000 <NA> <NA> spk0 <NA> <NA>"],
            "line 1: onset and duration must be finite, got inf and 1.0",
            id="inf-onset",
        ),
        # Line numbers count every physical line: comments, blank lines and CRLF endings shift nothing.
        pytest.param(
            [";; comment\r", "\r", _RTTM_ROW + "\r", "", "  ;; indented comment", _RTTM_ROW, "SPEAKER rec 1 0.000\r"],
            "line 7: expected 10 fields, got 4",
            id="after-comment-blank-and-crlf-lines",
        ),
    ],
)
def test_load_rttm_reports_first_fault(tmp_path, lines, message) -> None:
    path = tmp_path / "bad.rttm"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    with pytest.raises(ParseError) as info:
        load_rttm(path)
    assert type(info.value) is ParseError
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("recording_id", "my rec"),
        ("recording_id", ""),
        ("speaker", "spk 0"),
        ("speaker", ""),
        ("speaker", "a\u2028b"),
        ("onset", float("nan")),
        ("onset", float("inf")),
        ("duration", float("inf")),
        ("duration", float("nan")),
    ],
)
def test_rttm_record_rejects_what_an_rttm_line_cannot_hold(field, value) -> None:
    fields = {"recording_id": "rec", "onset": 0.0, "duration": 1.0, "speaker": "spk0", field: value}
    if field in ("onset", "duration"):
        message = "onset and duration must be finite"
    else:
        message = f"{field} must be a non-empty string without whitespace"
    with pytest.raises(ValueError, match=message):
        RttmRecord(**fields)


def test_write_rttm_refuses_a_result_whose_recording_id_holds_whitespace(tmp_path) -> None:
    result = DiarizationResult(recording_id="my rec", starts=[0.0], ends=[1.0], labels=[0])
    with pytest.raises(ValueError, match="recording_id must be a non-empty string without whitespace"):
        write_rttm(result, tmp_path / "out.rttm")


def test_load_rttm_skips_comments_and_blanks(tmp_path) -> None:
    path = tmp_path / "c.rttm"
    path.write_text(";; comment\n\nSPEAKER rec 1 0.000 1.000 <NA> <NA> a <NA> <NA>\n")
    assert len(load_rttm(path)) == 1


# ---------------------------------------------------------------------------
# DER scoring
# ---------------------------------------------------------------------------


def test_score_der_identity_is_zero() -> None:
    ref = [_rec("A", 0.0, 10.0), _rec("B", 12.0, 5.0)]
    rep = score_der(ref, ref, collar=0.0)
    assert rep.der == 0.0
    assert rep.missed == rep.false_alarm == rep.speaker_error == 0.0
    assert rep.scored_time == 15.0


def test_score_der_half_mismatch() -> None:
    ref = [_rec("A", 0.0, 10.0)]
    hyp = [_rec("spk0", 0.0, 5.0), _rec("spk1", 5.0, 5.0)]
    rep = score_der(ref, hyp, collar=0.0)
    assert rep.der == pytest.approx(0.5, abs=1e-9)
    assert rep.speaker_error == pytest.approx(0.5, abs=1e-9)
    assert rep.missed == 0.0 and rep.false_alarm == 0.0


def test_score_der_label_names_are_absorbed() -> None:
    ref = [_rec("A", 0.0, 10.0)]
    for name in ("A", "zz", "7"):
        rep = score_der(ref, [_rec(name, 0.0, 10.0)], collar=0.0)
        assert rep.der == 0.0
        assert rep.mapping == {name: "A"}


def test_score_der_collar_forgives_boundary_jitter() -> None:
    ref = [_rec("A", 0.0, 10.0)]
    hyp = [_rec("X", 0.05, 9.95)]
    assert score_der(ref, hyp, collar=0.0).der > 0.0
    rep = score_der(ref, hyp, collar=0.25)
    assert rep.der == 0.0
    assert rep.scored_time == pytest.approx(9.75)


def test_score_der_collar_monotone_scored_time() -> None:
    ref = [_rec("A", 0.0, 4.0), _rec("B", 6.0, 4.0)]
    hyp = [_rec("X", 0.0, 4.0), _rec("Y", 6.0, 4.0)]
    scored = [score_der(ref, hyp, collar=c).scored_time for c in (0.0, 0.1, 0.25, 0.5, 1.0)]
    assert all(a >= b for a, b in zip(scored, scored[1:]))


def test_score_der_missed_and_false_alarm() -> None:
    ref = [_rec("A", 0.0, 10.0)]
    rep = score_der(ref, [], collar=0.0)
    assert rep.der == 1.0 and rep.missed == 1.0
    rep = score_der(ref, [_rec("X", 0.0, 10.0), _rec("Y", 20.0, 10.0)], collar=0.0)
    assert rep.false_alarm == pytest.approx(1.0)
    assert rep.missed == 0.0 and rep.speaker_error == 0.0
    assert rep.der == pytest.approx(1.0)


def test_score_der_overlap_modes() -> None:
    ref = [_rec("A", 0.0, 10.0), _rec("B", 5.0, 10.0)]
    hyp = [_rec("X", 0.0, 10.0), _rec("Y", 5.0, 10.0)]
    skip = score_der(ref, hyp, collar=0.0, score_overlap=False)
    assert skip.scored_time == 10.0  # the doubly-active [5,10) region is excluded
    full = score_der(ref, hyp, collar=0.0, score_overlap=True)
    assert full.scored_time == 20.0
    assert full.der == 0.0


def test_score_der_empty_reference() -> None:
    with pytest.raises(EmptyReferenceError):
        score_der([], [_rec("X", 0.0, 1.0)])
    with pytest.raises(ValueError):
        score_der([_rec("A", 0.0, 1.0)], [], collar=-0.1)


@pytest.mark.parametrize("score", [score_der, score_recordings])
@pytest.mark.parametrize("collar", [float("inf"), float("nan"), -1.0])
def test_scorers_reject_a_non_finite_or_negative_collar(score, collar: float) -> None:
    with pytest.raises(ValueError, match="collar must be a finite number >= 0"):
        score([_rec("A", 0.0, 1.0)], [_rec("X", 0.0, 1.0)], collar=collar)


def test_score_der_component_identity_random() -> None:
    rng = np.random.default_rng(1)
    for _ in range(25):
        ref = _random_records(rng, n_spk=3, n_seg=8)
        hyp = _random_records(rng, n_spk=3, n_seg=8)
        rep = score_der(ref, hyp, collar=0.25, score_overlap=bool(rng.integers(2)))
        assert rep.der == pytest.approx(rep.missed + rep.false_alarm + rep.speaker_error, abs=1e-9)
        assert min(rep.der, rep.missed, rep.false_alarm, rep.speaker_error) >= 0.0


def _random_records(rng: np.random.Generator, n_spk: int, n_seg: int, rec_id: str = "rec"):
    records = []
    for _ in range(n_seg):
        onset = int(rng.integers(0, 20000)) / 1000.0
        dur = int(rng.integers(200, 5000)) / 1000.0
        records.append(_rec(f"s{int(rng.integers(n_spk))}", onset, dur, rec_id))
    return records


def test_score_der_mapping_matches_exhaustive_oracle() -> None:
    rng = np.random.default_rng(2)
    for trial in range(40):
        ref = _random_records(rng, n_spk=int(rng.integers(1, 5)), n_seg=int(rng.integers(1, 10)))
        hyp = _random_records(rng, n_spk=int(rng.integers(1, 5)), n_seg=int(rng.integers(0, 10)))
        collar = float(rng.choice([0.0, 0.25]))
        overlap = bool(rng.integers(2))
        rep = score_der(ref, hyp, collar=collar, score_overlap=overlap)
        scored, missed, fa, se = oracle_der_components(ref, hyp, collar, overlap)
        if scored == 0:
            assert rep.scored_time == 0.0
            continue
        assert rep.scored_time == float(scored)
        assert rep.missed == float(missed / scored)
        assert rep.false_alarm == float(fa / scored)
        assert rep.speaker_error == float(se / scored)


_TICKS = {
    "ties": st.integers(0, 3),
    "wide": st.integers(0, 2**60),
    # float64 steps are 128 and 256 on either side of 2**60, so nearby values round together
    "near 2**60": st.integers(2**60 - 600, 2**60 + 600),
}


@settings(max_examples=200, deadline=None)
@given(
    n_ref=st.integers(1, 7),
    n_hyp=st.integers(1, 7),
    scale=st.sampled_from(sorted(_TICKS)),
    data=st.data(),
)
def test_optimal_mapping_matches_exhaustive_oracle(n_ref: int, n_hyp: int, scale: str, data) -> None:
    pairs = list(itertools.product((f"r{i}" for i in range(n_ref)), (f"h{j}" for j in range(n_hyp))))
    # None leaves the pair out of the dict; 0 keeps it with no overlap.
    cells = data.draw(st.lists(st.none() | _TICKS[scale], min_size=len(pairs), max_size=len(pairs)))
    overlap = {pair: ticks for pair, ticks in zip(pairs, cells) if ticks is not None}
    mapping = _optimal_mapping(overlap)
    assert len(set(mapping.values())) == len(mapping)
    assert all(overlap.get((r, h), 0) > 0 for h, r in mapping.items())
    assert sum(overlap[(r, h)] for h, r in mapping.items()) == exhaustive_matched_total(overlap)
    shuffled = dict(data.draw(st.permutations(list(overlap.items()))))
    assert _optimal_mapping(shuffled) == mapping


def test_optimal_mapping_is_exact_past_two_to_the_53() -> None:
    # Found by a random search against the float64 assignment this solver replaced: in
    # float64 both two-pair totals read 2**61, and that solver took the off-diagonal map,
    # 362 ticks short of the best.
    big = 2**60
    overlap = {("r0", "h0"): big - 63, ("r0", "h1"): big + 133, ("r1", "h0"): big - 271, ("r1", "h1"): big + 287}
    assert float(big - 63) + float(big + 287) == float(big + 133) + float(big - 271)
    assert _optimal_mapping(overlap) == {"h0": "r0", "h1": "r1"}
    assert exhaustive_matched_total(overlap) == 2 * big + 224


def test_score_der_label_bijection_invariance() -> None:
    rng = np.random.default_rng(3)
    ref = _random_records(rng, n_spk=3, n_seg=10)
    hyp = _random_records(rng, n_spk=4, n_seg=10)
    base = score_der(ref, hyp, collar=0.25)
    names = sorted({r.speaker for r in hyp})
    for seed in range(10):
        perm = np.random.default_rng(seed).permutation(len(names))
        rename = {names[i]: f"q{perm[i]}" for i in range(len(names))}
        renamed = [_rec(rename[r.speaker], r.onset, r.duration) for r in hyp]
        rep = score_der(ref, renamed, collar=0.25)
        assert (rep.der, rep.missed, rep.false_alarm, rep.speaker_error) == (
            base.der,
            base.missed,
            base.false_alarm,
            base.speaker_error,
        )


def test_score_der_is_one_recording() -> None:
    ref = [_rec("A", 0.0, 10.0, "r1"), _rec("A", 0.0, 10.0, "r2")]
    with pytest.raises(ValueError, match="score_recordings"):
        score_der(ref, [], collar=0.0)
    with pytest.raises(EmptyReferenceError, match="other"):
        score_der(ref[:1], [_rec("X", 0.0, 1.0, "other")], collar=0.0)


_COLLARS = (0.0, 0.25, 0.5, 1.0)


@st.composite
def _timelines(draw, min_turns: int) -> list[RttmRecord]:
    """Millisecond-grid turns of 1-4 speakers; turns of one speaker may overlap.

    Onsets start near 0 (below any collar/2) and turns can be 1 ms long,
    far narrower than the widest collar.
    """
    n_spk = draw(st.integers(1, 4))
    turns = draw(
        st.lists(
            st.tuples(st.integers(0, 6000), st.integers(1, 2500), st.integers(0, n_spk - 1)),
            min_size=min_turns,
            max_size=7,
        )
    )
    return [_rec(f"s{spk}", onset / 1000, dur / 1000) for onset, dur, spk in turns]


def _assert_matches_oracle(ref, hyp, collar: float, overlap: bool) -> None:
    rep = score_der(ref, hyp, collar=collar, score_overlap=overlap)
    scored, missed, fa, se = oracle_der_components(ref, hyp, collar, overlap)
    if scored == 0:
        assert (rep.der, rep.scored_time) == (0.0, 0.0)
        return
    assert rep.scored_time == float(scored)
    assert rep.missed == float(missed / scored)
    assert rep.false_alarm == float(fa / scored)
    assert rep.speaker_error == float(se / scored)
    assert rep.der == float((missed + fa + se) / scored)


@settings(max_examples=300, deadline=None)
@given(
    ref=_timelines(min_turns=1),
    hyp=_timelines(min_turns=0),
    collar=st.sampled_from(_COLLARS),
    overlap=st.booleans(),
)
# A 1 ms turn and an onset below collar/2 under the widest collar, a speaker
# overlapping itself, and an empty hypothesis.
@example(
    ref=[_rec("s0", 0.1, 0.001), _rec("s1", 0.2, 2.0), _rec("s1", 1.0, 3.0)],
    hyp=[],
    collar=1.0,
    overlap=False,
)
def test_score_der_equals_oracle_property(ref, hyp, collar, overlap) -> None:
    _assert_matches_oracle(ref, hyp, collar, overlap)


@pytest.mark.parametrize("overlap", [False, True])
def test_score_der_long_relabelled_timeline_equals_oracle(overlap: bool) -> None:
    rng = np.random.default_rng(11)
    ref, hyp, t = [], [], 0
    for i in range(400):
        t = max(0, t + int(rng.integers(-300, 500)))  # gaps and overlaps between turns
        dur = int(rng.integers(200, 3000))
        spk = int(rng.integers(4))
        ref.append(_rec(f"s{spk}", t / 1000, dur / 1000))
        hyp.append(_rec(f"h{(spk + (i % 25 == 0)) % 4}", t / 1000, dur / 1000))
        t += dur
    _assert_matches_oracle(ref, hyp, 0.25, overlap)


# ---------------------------------------------------------------------------
# Per-recording scoring
# ---------------------------------------------------------------------------


def test_score_recordings_reports_per_recording(tmp_path) -> None:
    ref = [_rec("A", 0.0, 10.0, "r1"), _rec("A", 0.0, 10.0, "r2")]
    hyp = [_rec("X", 0.0, 10.0, "r1"), _rec("X", 0.0, 5.0, "r2"), _rec("Y", 5.0, 5.0, "r2")]
    aggregate, per_rec = score_recordings(ref, hyp, collar=0.0)
    assert per_rec["r1"].der == 0.0
    assert per_rec["r2"].der == pytest.approx(0.5)
    assert aggregate.der == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# DiarizationResult invariants
# ---------------------------------------------------------------------------


def test_diarization_result_rejects_label_gaps() -> None:
    with pytest.raises(ValueError):
        DiarizationResult(
            recording_id="rec",
            starts=np.array([0.0, 1.0]),
            ends=np.array([1.0, 2.0]),
            labels=np.array([0, 2]),
        )
    with pytest.raises(ValueError):
        DiarizationResult(
            recording_id="rec",
            starts=np.array([0.0]),
            ends=np.array([0.0]),
            labels=np.array([0]),
        )


@pytest.mark.parametrize(
    ("starts", "ends", "segment", "shown"),
    [
        ([np.nan, 1.0], [1.0, 2.0], 0, "nan and 1.0"),
        ([0.0, 1.0], [1.0, np.inf], 1, "1.0 and inf"),
        ([0.0, -np.inf, np.nan], [1.0, 2.0, 3.0], 1, "-inf and 2.0"),
    ],
    ids=["nan-start", "inf-end", "first-of-two"],
)
def test_diarization_result_rejects_a_non_finite_time_naming_its_segment(starts, ends, segment, shown) -> None:
    with pytest.raises(ValueError, match=f"^segment {segment}: start and end must be finite, got {shown}$"):
        DiarizationResult("rec", starts, ends, [0] * len(starts))
