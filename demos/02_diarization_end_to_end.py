"""Full diarization loop in files: synthesize, cluster, write RTTM, score DER.

Mirrors what the CLI does (`nmesc synth` / `cluster` / `score`) using the
library API, so each artifact can be inspected along the way.
"""

import tempfile
from pathlib import Path

from nmesc import (
    DiarizationResult,
    NmeConfig,
    SynthSpec,
    generate,
    load_embeddings,
    load_rttm,
    nme_sc,
    score_recordings,
    write_embeddings,
    write_rttm,
)

with tempfile.TemporaryDirectory(prefix="nmesc-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir}\n")

    spec = SynthSpec(n_clusters=4, segments_per_cluster=20, dim=48, noise=0.1, seed=91)
    emb, truth = generate(spec)
    emb_path = workdir / "embeddings.jsonl"
    write_embeddings(emb, emb_path)
    truth_path = workdir / "reference.rttm"
    write_rttm(
        DiarizationResult(recording_id=emb.recording_id, starts=emb.starts, ends=emb.ends, labels=truth),
        truth_path,
    )
    print(f"wrote {emb.n} segments to {emb_path.name} and the reference to {truth_path.name}")

    result, scan = nme_sc(load_embeddings(emb_path), NmeConfig())
    hyp_path = workdir / "hypothesis.rttm"
    write_rttm(result, hyp_path)
    print(f"auto-tuned p_hat={scan.p_hat}, k_hat={scan.k_hat}; hypothesis -> {hyp_path.name}")

    print("\nfirst hypothesis lines:")
    for line in hyp_path.read_text().splitlines()[:4]:
        print(f"  {line}")

    aggregate, per_recording = score_recordings(
        load_rttm(truth_path), load_rttm(hyp_path), collar=0.25
    )
    rep = per_recording[emb.recording_id]
    print(
        f"\nDER={rep.der:.4f} (miss {rep.missed:.4f}, false alarm {rep.false_alarm:.4f}, "
        f"speaker error {rep.speaker_error:.4f}) over {rep.scored_time:.1f}s scored"
    )
    print(f"speaker mapping chosen by the scorer: {rep.mapping}")
