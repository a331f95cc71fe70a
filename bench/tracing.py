"""Span tracing of nmesc's module boundaries, installed from outside the package.

The tracer replaces the names that nmesc's callers look up (for example
``nmesc.nme.eigvalsh``, which ``nme_scan`` resolves at call time) with timing
wrappers while an ``installed()`` block runs, and restores them after it.
Spans are kept in memory and written out once the run ends.

A span opened on a thread with no open span of its own (the scan's thread-pool
workers) is parented to the innermost open span of the thread that created
the tracer. The benchmark is a closed loop with one client, so that span is the
one that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int | None
    counters: dict | None


def _gflop(args, kwargs, result) -> dict:
    n = args[0].shape[0]
    return {"gflop_computed": 4.0 / 3.0 * n**3 / 1e9}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _turns(args, kwargs, result) -> dict:
    return {"turns": len(args[0]) + len(args[1])}


def _p_evaluated(args, kwargs, result) -> dict:
    return {"p_evaluated": len(result.entries)}


# (module, attribute looked up by the caller, span name, counter function)
TARGETS = (
    ("nmesc.cli", "main", "cli.main", None),
    ("nmesc.cli", "load_embeddings", "diarization.load_embeddings", _file_bytes),
    ("nmesc.cli", "nme_sc", "nme.nme_sc", None),
    ("nmesc.cli", "write_rttm", "diarization.write_rttm", None),
    ("nmesc.cli", "load_rttm", "diarization.load_rttm", None),
    ("nmesc.cli", "score_recordings", "diarization.score_recordings", _turns),
    ("nmesc.nme", "cosine_affinity", "affinity.cosine_affinity", None),
    ("nmesc.nme", "descending_order", "affinity.descending_order", None),
    ("nmesc.affinity", "descending_order", "affinity.descending_order", None),
    ("nmesc.nme", "nme_scan", "nme.nme_scan", _p_evaluated),
    ("nmesc.nme", "nme_at", "nme.nme_at", None),
    ("nmesc.nme", "eigvalsh", "numerics.eigvalsh", _gflop),
    ("nmesc.nme", "eigh", "numerics.eigh", None),
    ("nmesc.nme", "kmeans", "numerics.kmeans", None),
)


class Tracer:
    """Records one span per traced call; ``op_id`` tags the benchmark op in flight."""

    def __init__(self, modules: dict):
        """``modules`` maps the module names in TARGETS to the imported modules."""
        self.modules = modules
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._local.stack = self._root_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            span = Span(next(self._ids), name, 0.0, 0.0, parent, self.op_id, None)
            stack.append(span.span_id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                self.spans.append(span)
            if measure is not None:
                span.counters = measure(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TARGETS entry for the duration of the block."""
        patched = []
        try:
            for module_name, attr, name, measure in TARGETS:
                module = self.modules[module_name]
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original, measure))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def write(self, path: Path, header: dict) -> None:
        rows = [
            [s.span_id, s.name, s.start, s.end, s.parent, s.op_id, s.counters] for s in self.spans
        ]
        fields = ["span_id", "name", "start", "end", "parent", "op_id", "counters"]
        path.write_text(json.dumps({**header, "fields": fields, "spans": rows}) + "\n")


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive time, self time and summed counters.

    Self time is a span's duration minus the part of its interval that its
    child spans cover. Children that ran in parallel on pool threads are
    merged first, so a parent never goes negative; the children's own self
    times still add up as busy thread-seconds.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = totals[s.name]
        row["calls"] += 1
        row["incl_s"] += s.end - s.start
        row["self_s"] += (s.end - s.start) - _union_length(children[s.span_id], s.start, s.end)
        for key, value in (s.counters or {}).items():
            row[key] += value
    return totals
