"""Command-line interface: cluster, score and synth subcommands.

Every file-producing run writes `<out>.manifest.json` next to its primary
output: a JSON object (indent 2, sorted keys) holding the command, the
resolved configuration, the input digests, the tool name and its version.
Identical manifests imply bit-identical outputs for a fixed BLAS thread
count. The last bits of the eigenvalues, which the scan CSV prints in full,
can move with the number of threads the BLAS uses.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .diarization import (
    DiarizationResult,
    _check_collar,
    load_embeddings,
    load_rttm,
    score_recordings,
    write_embeddings,
    write_rttm,
)
from .nme import _EPSILON, _SEED, NjwConfig, NmeConfig, NmeScan, nme_sc, njw_sc
from .numerics import NoConvergenceError
from .testbench import SynthSpec, generate

__all__ = ["scan_to_csv", "main", "entrypoint"]


def _write_manifest(out: str | Path, command: str, config: dict, inputs: dict) -> None:
    manifest = dict(command=command, config=config, inputs=inputs, tool="nmesc", version=__version__)
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"  # NaN is not JSON
    Path(str(out) + ".manifest.json").write_text(text, encoding="utf-8")


def scan_to_csv(scan: NmeScan) -> str:
    """Render a scan as CSV, one row per evaluated p, with p_hat/k_hat footer comments."""
    rows = [f"{e.p},{e.gp!r},{e.rp!r},{e.k_at_p}" for e in scan.entries]
    return "\n".join(["p,g_p,r_p,k_at_p", *rows, f"# p_hat={scan.p_hat}", f"# k_hat={scan.k_hat}"]) + "\n"


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmesc",
        description="Auto-tuning spectral clustering for speaker diarization.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    cluster = sub.add_parser("cluster", help="cluster an embedding file into an RTTM")
    cluster.add_argument("--embeddings", required=True, help="input JSON-Lines embedding file")
    cluster.add_argument("--out", required=True, help="output RTTM path")
    cluster.add_argument("--method", choices=["nme-sc", "njw-sc"], default="nme-sc")
    cluster.add_argument("--fixed-k", type=int, default=None, help="known speaker count override")
    cluster.add_argument("--max-speakers", type=int, default=NmeConfig.max_speakers)
    cluster.add_argument("--sigma", type=float, default=None, help="kernel scale (njw-sc only)")
    cluster.add_argument("--scan-out", default=None, help="write the p-scan as CSV (nme-sc only)")

    score = sub.add_parser("score", help="score a hypothesis RTTM against a reference")
    score.add_argument("--ref", required=True, help="reference RTTM path")
    score.add_argument("--hyp", required=True, help="hypothesis RTTM path")
    score.add_argument("--collar", type=float, default=0.25, help="total no-score width (s)")
    score.add_argument("--overlap", action="store_true", help="score overlapped speech")

    synth = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    synth.add_argument("--clusters", type=int, required=True)
    synth.add_argument("--per-cluster", type=int, required=True)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--noise", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    synth.add_argument("--out", required=True, help="output embedding JSONL path")
    synth.add_argument("--truth-out", required=True, help="ground-truth RTTM path")
    return parser


def _cmd_cluster(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.method == "njw-sc" and args.sigma is None:
        parser.error("--method njw-sc requires --sigma")
    if args.method == "njw-sc" and args.scan_out is not None:
        parser.error("--scan-out is only produced by --method nme-sc")
    shared = dict(max_speakers=args.max_speakers, fixed_k=args.fixed_k)
    try:
        if args.method == "nme-sc":
            cfg = NmeConfig(**shared)
        else:
            cfg = NjwConfig(sigma=args.sigma, **shared)
    except ValueError as exc:
        parser.error(str(exc))

    emb = load_embeddings(args.embeddings)
    if args.method == "nme-sc":
        result, scan = nme_sc(emb, cfg)
    else:
        result, scan = njw_sc(emb, cfg), None
    config = {
        "method": args.method,
        "epsilon": None if scan is None else _EPSILON,
        "p_max": None if scan is None else scan.p_max,
        "sigma": cfg.sigma if scan is None else None,
        "seed": _SEED,
        **shared,
    }

    write_rttm(result, args.out)
    if args.scan_out is not None:
        Path(args.scan_out).write_text(scan_to_csv(scan), encoding="utf-8")
    digest = hashlib.sha256(Path(args.embeddings).read_bytes()).hexdigest()
    _write_manifest(args.out, "cluster", config, {args.embeddings: f"sha256:{digest}"})
    print(f"wrote {args.out} ({result.num_speakers} speakers, {result.n} segments)")
    return 0


def _cmd_score(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        _check_collar(args.collar)
    except ValueError as exc:
        parser.error(str(exc))
    ref = load_rttm(args.ref)
    hyp = load_rttm(args.hyp)
    aggregate, per_recording = score_recordings(ref, hyp, collar=args.collar, score_overlap=args.overlap)
    print(f"{'recording':<16}{'DER':>8}{'MS':>8}{'FA':>8}{'SE':>8}{'scored(s)':>12}")
    rows = [*per_recording.items(), *([("OVERALL", aggregate)] if len(per_recording) > 1 else [])]
    for rec_id, rep in rows:
        print(
            f"{rec_id:<16}{rep.der:>8.4f}{rep.missed:>8.4f}{rep.false_alarm:>8.4f}"
            f"{rep.speaker_error:>8.4f}{rep.scored_time:>12.3f}"
        )
    print(
        f"DER={aggregate.der:.4f} MS={aggregate.missed:.4f} "
        f"FA={aggregate.false_alarm:.4f} SE={aggregate.speaker_error:.4f}"
    )
    return 0


def _cmd_synth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        spec = SynthSpec(
            n_clusters=args.clusters,
            segments_per_cluster=args.per_cluster,
            dim=args.dim,
            noise=args.noise,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))
    emb, truth = generate(spec)
    write_embeddings(emb, args.out, header=False)
    write_rttm(DiarizationResult(emb.recording_id, emb.starts, emb.ends, truth), args.truth_out)
    config = {
        "clusters": spec.n_clusters,
        "per_cluster": spec.segments_per_cluster,
        "dim": spec.dim,
        "noise": spec.noise,
        "seed": spec.seed,
    }
    _write_manifest(args.out, "synth", config, {})
    print(f"wrote {args.out} ({emb.n} segments) and {args.truth_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "cluster":
            return _cmd_cluster(args, parser)
        if args.subcommand == "score":
            return _cmd_score(args, parser)
        return _cmd_synth(args, parser)
    except (OSError, ValueError, NoConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
