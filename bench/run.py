#!/usr/bin/env python3
"""Benchmark of the nmesc command line: short calls, long meetings, long-timeline scoring.

One run drives one workload as a closed loop with one client. Each op calls
``nmesc.cli.main`` in-process with the program's defaults, exactly as a user's
``nmesc cluster`` or ``nmesc score`` run would, and its outputs are checked
before the next op starts. bench/README.md describes the workloads, the
metrics and what each per-layer metric is expected to move.

    python3 bench/run.py --workload calls-short --seed 1 --seconds 45 --trace 0
    python3 bench/run.py              # every workload, each in its own process
    python3 bench/run.py --smoke      # miniature corpora, seconds to run

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.dont_write_bytecode = True  # leave src/ as git would commit it

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# score-long is not in BENCHMARK.json: on a shared host its exact-Fraction
# scoring swings about 2.5 times as far as calls-short with other tenants'
# load, and its run-to-run spread passed 0.25, the largest bound allowed.
WORKLOADS = ("calls-short", "meetings-long", "score-long")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
SETUP_REPEATS = 5
COLLAR = 0.25
DIM = 192
NOISE = 0.15
RELABEL_EVERY = 25  # score-long hypotheses relabel one reference turn in 25


def _spread(lo: int, hi: int, count: int) -> list[int]:
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


# Per recording: (true speakers, segments per speaker) for the cluster
# workloads, (speakers, reference turns) for score-long. Sizes are fixed so
# every seed times the same amount of work; the seed draws the embeddings,
# the segment durations, the speaker order and the relabelled turns.
PLANS = {
    "calls-short": [
        (k, m) for k, lo, hi in ((2, 18, 42), (3, 14, 46), (4, 10, 42)) for m in _spread(lo, hi, 8)
    ],
    "meetings-long": [(4, 75), (6, 64), (8, 60)],
    "score-long": [(3, 250), (4, 370), (6, 490)],
}
SMOKE_PLANS = {
    "calls-short": [(2, 10), (3, 8)],
    "meetings-long": [(4, 12)],
    "score-long": [(3, 40)],
}

# Spans that must record calls on a workload; a zero there fails the traced run.
_CLUSTER_SPANS = (
    "cli.main",
    "diarization.load_embeddings",
    "nme.nme_sc",
    "affinity.cosine_affinity",
    "affinity.descending_order",
    "nme.nme_scan",
    "numerics.eigvalsh",
    "nme.nme_at",
    "numerics.eigh",
    "numerics.kmeans",
    "diarization.write_rttm",
)
_SCORE_SPANS = ("cli.main", "diarization.load_rttm", "diarization.score_recordings")
REQUIRED_SPANS = {
    "calls-short": _CLUSTER_SPANS + _SCORE_SPANS[1:],
    "meetings-long": _CLUSTER_SPANS,
    "score-long": _SCORE_SPANS,
}


class CheckFailed(Exception):
    """An op ran but its output did not verify."""


@dataclasses.dataclass
class Recording:
    rec_id: str
    speakers: int
    audio_s: float
    truth: Path
    hyp: Path
    embeddings: Path | None = None
    exact_der: Fraction | None = None  # score-long: relabelled over total duration

    @property
    def scan(self) -> Path:
        return self.hyp.with_suffix(".csv")

    @property
    def manifest(self) -> Path:
        return Path(str(self.hyp) + ".manifest.json")


def import_nmesc():
    """Import nmesc from this checkout's src/, never from anywhere else."""
    if not (SRC / "nmesc" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'nmesc'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nmesc
    import nmesc.affinity
    import nmesc.cli
    import nmesc.diarization
    import nmesc.nme
    import nmesc.testbench

    if Path(nmesc.__file__).resolve().parent != (SRC / "nmesc").resolve():
        raise SystemExit(f"error: imported nmesc from {nmesc.__file__}, not from {SRC}")
    return nmesc


# ---------------------------------------------------------------------------
# Set-up: synthetic corpora written as the files a user would pass
# ---------------------------------------------------------------------------


def _call_recording(nm, rec_id: str, k: int, per_speaker: int, seed: int, work: Path) -> Recording:
    spec = nm.testbench.SynthSpec(
        n_clusters=k, segments_per_cluster=per_speaker, dim=DIM, noise=NOISE, seed=seed
    )
    emb, labels = nm.testbench.generate(spec)
    emb = dataclasses.replace(emb, recording_id=rec_id)
    rec = Recording(
        rec_id=rec_id,
        speakers=k,
        audio_s=float(emb.ends[-1]),
        truth=work / f"{rec_id}.ref.rttm",
        hyp=work / f"{rec_id}.hyp.rttm",
        embeddings=work / f"{rec_id}.jsonl",
    )
    nm.diarization.write_embeddings(emb, rec.embeddings)
    truth = nm.diarization.DiarizationResult(rec_id, emb.starts, emb.ends, labels)
    nm.diarization.write_rttm(truth, rec.truth)
    return rec


def _timeline_recording(nm, rec_id: str, k: int, turns: int, seed: int, work: Path) -> Recording:
    import numpy as np

    d = nm.diarization
    # Twice as many segments as turns: merging same-speaker neighbours still
    # leaves more than `turns` turns for k >= 3, and the first `turns` are kept.
    spec = nm.testbench.SynthSpec(
        n_clusters=k, segments_per_cluster=2 * turns // k + 1, dim=16, noise=0.1, seed=seed
    )
    emb, labels = nm.testbench.generate(spec)
    ref = d.records_from_result(d.DiarizationResult(rec_id, emb.starts, emb.ends, labels))[:turns]
    speakers = sorted({r.speaker for r in ref})
    rng = np.random.default_rng(seed)
    hyp = list(ref)
    for j in sorted(rng.choice(turns, size=turns // RELABEL_EVERY, replace=False)):
        others = [s for s in speakers if s != ref[j].speaker]
        hyp[j] = dataclasses.replace(ref[j], speaker=others[int(rng.integers(len(others)))])
    rec = Recording(
        rec_id=rec_id,
        speakers=len(speakers),
        audio_s=ref[-1].onset + ref[-1].duration,
        truth=work / f"{rec_id}.ref.rttm",
        hyp=work / f"{rec_id}.hyp.rttm",
    )
    d.write_rttm(ref, rec.truth)
    d.write_rttm(hyp, rec.hyp)
    # Durations exactly as the scorer reads them back from the RTTM text.
    durations = [Fraction(str(r.duration)) for r in d.load_rttm(rec.truth)]
    relabelled = [dur for dur, r, h in zip(durations, ref, hyp) if r.speaker != h.speaker]
    rec.exact_der = sum(relabelled, Fraction(0)) / sum(durations, Fraction(0))
    return rec


def setup(nm, workload: str, seed: int, plan, work: Path) -> list[Recording]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    build = _timeline_recording if workload == "score-long" else _call_recording
    return [
        build(nm, f"{workload}-{i:02d}", k, size, seed * 1000 + i, work)
        for i, (k, size) in enumerate(plan)
    ]


# ---------------------------------------------------------------------------
# Ops and their verification
# ---------------------------------------------------------------------------


def _cli(nm, argv: list[str]) -> str:
    """Run ``nmesc <argv>`` in-process and return its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nm.cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"nmesc {' '.join(argv)} exited with {rc}")
    return out.getvalue()


def _scan_footer(text: str) -> dict[str, int]:
    footer = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            footer[key] = int(value)
    if set(footer) != {"p_hat", "k_hat"}:
        raise CheckFailed(f"scan CSV footer lacks p_hat/k_hat: {footer}")
    return footer


def _check_der_line(stdout: str) -> None:
    if sum(line.startswith("DER=") for line in stdout.splitlines()) != 1:
        raise CheckFailed(f"score printed no DER line: {stdout!r}")


class Workload:
    """Runs and verifies ops; ``first`` keeps each recording's first outputs."""

    def __init__(self, nm, name: str, recordings: list[Recording]):
        self.nm = nm
        self.name = name
        self.recordings = recordings
        self.first: dict[str, tuple] = {}
        self.k_hat: dict[str, int] = {}
        self.bytes_written: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def op(self, rec: Recording) -> float:
        """One timed op; returns its wall time, raises if it or its outputs fail."""
        cluster = self.name != "score-long"
        score = self.name != "meetings-long"
        t0 = perf_counter()
        if cluster:
            _cli(self.nm, ["cluster", "--embeddings", str(rec.embeddings), "--out", str(rec.hyp),
                           "--scan-out", str(rec.scan)])
        if score:
            stdout = _cli(self.nm, ["score", "--ref", str(rec.truth), "--hyp", str(rec.hyp)])
        elapsed = perf_counter() - t0

        outputs = ()
        if score:
            _check_der_line(stdout)
            outputs += (stdout,)
        if cluster:
            outputs += self._cluster_outputs(rec)
        self._same_as_first(rec, outputs)
        return elapsed

    def _cluster_outputs(self, rec: Recording) -> tuple[str, str, str]:
        """The RTTM, scan CSV and manifest of a cluster run, each checked to load back."""
        records = self.nm.diarization.load_rttm(rec.hyp)
        if not records or {r.recording_id for r in records} != {rec.rec_id}:
            raise CheckFailed(f"{rec.hyp}: RTTM records do not name {rec.rec_id}")
        outputs = tuple(path.read_text(encoding="utf-8") for path in (rec.hyp, rec.scan, rec.manifest))
        self.k_hat[rec.rec_id] = _scan_footer(outputs[1])["k_hat"]
        json.loads(outputs[2])
        self.bytes_written[rec.rec_id] = sum(len(text.encode()) for text in outputs)
        return outputs

    def _same_as_first(self, rec: Recording, outputs: tuple) -> None:
        first = self.first.setdefault(rec.rec_id, outputs)
        if outputs != first:
            raise CheckFailed(f"{rec.rec_id}: outputs differ from the first op on this recording")

    def attempt(self, fn, rec: Recording):
        """Count one attempt; a failure is counted and reported, never dropped."""
        self.attempted += 1
        try:
            return fn(rec)
        except (Exception, SystemExit):
            self.failed += 1
            print(f"op failed on {rec.rec_id}:\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def check_exact_der(self, rec: Recording) -> None:
        """Untimed collar-0 scoring must give relabelled over total duration exactly."""
        d = self.nm.diarization
        report, _ = d.score_recordings(d.load_rttm(rec.truth), d.load_rttm(rec.hyp), collar=0.0)
        if report.der != float(rec.exact_der):
            raise CheckFailed(f"{rec.rec_id}: DER {report.der!r} at collar 0, expected {rec.exact_der}")

    def one_pass(self, tracer=None) -> list[tuple[Recording, float]]:
        samples = []
        for rec in self.recordings:
            if tracer is not None:
                tracer.op_id = self.attempted
            elapsed = self.attempt(self.op, rec)
            if elapsed is not None:
                samples.append((rec, elapsed))
        return samples

    def timed(self, seconds: float, tracer=None):
        """Whole passes over the corpus while another pass fits in `seconds`.

        Whole passes give every recording the same number of samples, so the
        medians do not depend on where in the corpus the clock ran out. With
        a tracer, untraced and traced passes alternate, so both see the same
        machine, and the last pass is a traced one.

        Returns:
            (untraced samples, traced samples), each a list of (recording, seconds).
        """
        untraced, traced = [], []
        start = perf_counter()
        for i in itertools.count():
            pass_start = perf_counter()
            if tracer is not None and i % 2:
                with tracer.installed():
                    traced += self.one_pass(tracer)
            else:
                untraced += self.one_pass()
            now = perf_counter()
            out_of_time = (now - start) + (now - pass_start) > seconds
            if out_of_time and (tracer is None or i % 2):
                return untraced, traced


def _rate(samples) -> float:
    """Corpus audio over the sum of each recording's median op time.

    Taking each recording's median keeps one stalled op on a shared machine
    from swinging the figure, as it would swing a plain sum.
    """
    times: dict[str, list[float]] = {}
    audio: dict[str, float] = {}
    for rec, dt in samples:
        times.setdefault(rec.rec_id, []).append(dt)
        audio[rec.rec_id] = rec.audio_s
    return sum(audio.values()) / sum(statistics.median(t) for t in times.values())


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    blas_threads = _blas_threads()
    raw = os.environ.get("NME_SC_THREADS")
    # The scan pool size as nmesc.cli resolves it: unset, 0 or junk means os.cpu_count().
    try:
        scan_workers = int(raw) if raw is not None else 0
    except ValueError:
        scan_workers = 0
    if scan_workers <= 0:
        scan_workers = os.cpu_count() or 1
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "os_cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads},
        "NME_SC_THREADS": raw,
        "scan_workers": scan_workers,
        "scan_workers_x_blas_threads": scan_workers * blas_threads if blas_threads else None,
        "exceeds_nproc": bool(blas_threads and scan_workers * blas_threads > nproc),
        "git_commit": _git_commit(),
        "src_nmesc_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "nmesc").glob("*.py")
        ),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    nm = import_nmesc()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    plan = (SMOKE_PLANS if args.smoke else PLANS)[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            recordings = setup(nm, args.workload, args.seed, plan, work)
            setup_times.append(perf_counter() - t0)
        wl = Workload(nm, args.workload, recordings)
        if args.workload == "score-long":
            for rec in recordings:
                wl.attempt(wl.check_exact_der, rec)
        wl.attempt(wl.op, recordings[0])  # warm-up: lazy imports, BLAS thread start

        if args.trace:
            sys.path.insert(0, str(BENCH_DIR))
            from tracing import Tracer

            tracer = Tracer({m.__name__: m for m in (nm.cli, nm.nme, nm.affinity)})
            untraced, traced = wl.timed(args.seconds, tracer)
            declared = spec["per_layer"]
            computed = _per_layer(wl, tracer, untraced, traced, declared)
            if computed is None:
                return 1
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path, {"workload": args.workload, "seed": args.seed})
            print(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            samples, _ = wl.timed(args.seconds)
            declared = spec["end_to_end"]
            computed = _end_to_end(wl, samples, setup_times)
        metrics, notes = computed

        for name, value, unit, note in notes:
            print(f"{name} {value!r} {unit}  {note}")
        for m in declared:
            print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
        print("env " + json.dumps(environment(), sort_keys=True))
        result = {
            "correct": wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _end_to_end(wl: Workload, samples, setup_times):
    """End-to-end metrics of BENCHMARK.json, plus notes printed beside them."""
    times = [dt for _, dt in samples]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "audio_s_per_s": _rate(samples) if samples else 0.0,
        "latency_p50_s": statistics.median(times) if times else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        ("error_ratio", wl.failed / wl.attempted, "ratio", f"{wl.failed} failed of {wl.attempted} ops"),
        ("latency_samples", len(times), "count", "timed ops that verified"),
    ]
    if len(times) >= 100:  # at least 10 samples beyond p90
        notes.append(("latency_p90_s", statistics.quantiles(times, n=10)[8], "s", f"n={len(times)}"))
    if wl.name != "score-long":
        notes += _answers(wl)
    return metrics, notes


def _answers(wl: Workload) -> list:
    """k-match share and corpus DER of the hypotheses, computed after timing."""
    d = wl.nm.diarization
    matched = sum(wl.k_hat.get(rec.rec_id) == rec.speakers for rec in wl.recordings)
    ref, hyp = [], []
    for rec in wl.recordings:
        ref += d.load_rttm(rec.truth)
        hyp += d.load_rttm(rec.hyp)
    report, _ = d.score_recordings(ref, hyp, collar=COLLAR)
    n = len(wl.recordings)
    return [
        ("k_match_ratio", matched / n, "ratio", f"{matched} of {n} recordings have k_hat = k"),
        ("der", report.der, "ratio", f"corpus DER at collar {COLLAR}"),
    ]


def _per_layer(wl: Workload, tracer, untraced, traced, declared):
    """Per-layer metrics, each a mean per traced op; None if a required layer saw no call."""
    from tracing import layer_totals

    if not traced:
        print("error: no traced op verified", file=sys.stderr)
        return None
    totals = layer_totals(tracer.spans)
    dead = [name for name in REQUIRED_SPANS[wl.name] if totals.get(name, {}).get("calls", 0) == 0]
    if dead:
        print(f"error: traced layers saw no calls on {wl.name}: {dead}", file=sys.stderr)
        return None
    ops = len(traced)
    op_s = sum(dt for _, dt in traced) / ops
    metrics = {m["name"]: 0.0 for m in declared}  # layers this workload never calls
    metrics |= {
        "trace.overhead_ratio": _rate(untraced) / _rate(traced),
        "trace.op_s": op_s,
        "cli.bytes_written": sum(wl.bytes_written.get(rec.rec_id, 0) for rec, _ in traced) / ops,
    }
    notes = [("traced_ops", ops, "count", f"{len(untraced)} untraced ops interleaved")]
    for span, row in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        for field, value in row.items():
            metrics[f"{span}.{field}"] = value / ops
        notes.append((f"share.{span}", row["self_s"] / ops / op_s, "ratio", "self time over op time"))
        notes.append((f"incl.{span}", row["incl_s"] / ops / op_s, "ratio", "span time over op time"))
    return metrics, notes


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        print(f"== {workload}", flush=True)
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            status = proc.returncode
            summary["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="miniature corpora")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
