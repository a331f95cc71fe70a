from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmesc import load_rttm, numerics
from nmesc.cli import build_parser, main


def _synth(tmp_path, clusters=3, per_cluster=10, dim=16, noise=0.1, seed=42, tag=""):
    out = tmp_path / f"emb{tag}.jsonl"
    truth = tmp_path / f"truth{tag}.rttm"
    code = main(
        [
            "synth",
            "--clusters", str(clusters),
            "--per-cluster", str(per_cluster),
            "--dim", str(dim),
            "--noise", str(noise),
            "--seed", str(seed),
            "--out", str(out),
            "--truth-out", str(truth),
        ]
    )
    assert code == 0
    return out, truth


def _strict_json(path):
    """Load a JSON file, refusing the NaN and Infinity that json.loads takes by default."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_synth_writes_headerless_jsonl_and_truth(tmp_path) -> None:
    out, truth = _synth(tmp_path, clusters=3, per_cluster=10)
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    assert all("embedding" in json.loads(line) for line in lines)
    speakers = {r.speaker for r in load_rttm(truth)}
    assert len(speakers) == 3


def test_synth_same_seed_byte_identical(tmp_path) -> None:
    out1, truth1 = _synth(tmp_path, seed=7, tag="a")
    out2, truth2 = _synth(tmp_path, seed=7, tag="b")
    assert out1.read_bytes() == out2.read_bytes()
    assert truth1.read_bytes() == truth2.read_bytes()


def test_synth_manifest_is_strict_json(tmp_path) -> None:
    out, _ = _synth(tmp_path, clusters=2, per_cluster=4, dim=8, noise=0.25, seed=3)
    manifest = _strict_json(tmp_path / f"{out.name}.manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["config"] == {"clusters": 2, "per_cluster": 4, "dim": 8, "noise": 0.25, "seed": 3}
    assert manifest["inputs"] == {}


def test_synth_infeasible_exits_one(tmp_path, capsys) -> None:
    code = main(
        [
            "synth", "--clusters", "20", "--per-cluster", "2", "--dim", "2",
            "--out", str(tmp_path / "x.jsonl"), "--truth-out", str(tmp_path / "x.rttm"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cluster_two_ideal_pairs_fixture(tmp_path) -> None:
    emb = tmp_path / "pairs.jsonl"
    emb.write_text(
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 1.0, "end": 2.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 2.0, "end": 3.0, "embedding": [0.0, 1.0]}\n'
        '{"start": 3.0, "end": 4.0, "embedding": [0.0, 1.0]}\n'
    )
    out = tmp_path / "out.rttm"
    assert main(["cluster", "--embeddings", str(emb), "--out", str(out)]) == 0
    speakers = {r.speaker for r in load_rttm(out)}
    assert len(speakers) == 2


def test_cluster_fixed_k_caps_speakers(tmp_path) -> None:
    emb, _ = _synth(tmp_path, clusters=4, per_cluster=8, dim=16)
    out = tmp_path / "fixed.rttm"
    code = main(["cluster", "--embeddings", str(emb), "--out", str(out), "--fixed-k", "2"])
    assert code == 0
    assert len({r.speaker for r in load_rttm(out)}) <= 2


def test_cluster_scan_out_csv(tmp_path) -> None:
    emb, _ = _synth(tmp_path, clusters=2, per_cluster=10, dim=8)
    out = tmp_path / "out.rttm"
    scan_csv = tmp_path / "scan.csv"
    code = main(
        ["cluster", "--embeddings", str(emb), "--out", str(out), "--scan-out", str(scan_csv)]
    )
    assert code == 0
    lines = scan_csv.read_text().splitlines()
    assert lines[0] == "p,g_p,r_p,k_at_p"
    assert lines[-2].startswith("# p_hat=")
    assert lines[-1].startswith("# k_hat=")
    data_rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    ps = [int(row.split(",")[0]) for row in data_rows]
    assert ps[0] == 1
    assert all(p < q for p, q in zip(ps, ps[1:]))
    assert int(lines[-2].removeprefix("# p_hat=")) in ps


def test_cluster_manifest_snapshot(tmp_path) -> None:
    emb, _ = _synth(tmp_path, clusters=2, per_cluster=10, dim=8)
    out = tmp_path / "out.rttm"
    assert main(["cluster", "--embeddings", str(emb), "--out", str(out)]) == 0
    manifest = _strict_json(tmp_path / "out.rttm.manifest.json")
    assert manifest["command"] == "cluster"
    assert manifest["config"]["epsilon"] == 1e-10
    assert manifest["config"]["max_speakers"] == 8
    assert manifest["config"]["p_max"] == 20 // 4
    assert manifest["config"]["seed"] == 42
    assert manifest["inputs"][str(emb)].startswith("sha256:")
    assert "workers" not in manifest["config"]


def test_cluster_njw_requires_sigma(tmp_path) -> None:
    emb, _ = _synth(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["cluster", "--embeddings", str(emb), "--out", str(tmp_path / "o.rttm"),
              "--method", "njw-sc"])
    assert err.value.code == 2


def test_cluster_usage_errors_exit_two(tmp_path) -> None:
    emb, _ = _synth(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["cluster", "--embeddings", str(emb), "--out", str(tmp_path / "o.rttm"),
              "--fixed-k", "9"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["cluster", "--embeddings", str(emb), "--out", str(tmp_path / "o.rttm"),
              "--method", "njw-sc", "--sigma", "1.0", "--scan-out", str(tmp_path / "s.csv")])
    assert err.value.code == 2

    # Bad values exit 2 before any input is read: these inputs do not exist, so reading exits 1.
    missing = str(tmp_path / "missing.jsonl")
    out = ["--out", str(tmp_path / "bad.rttm")]
    synth_out = ["--out", str(tmp_path / "bad.jsonl"), "--truth-out", str(tmp_path / "bad.rttm")]
    for argv in [
        ["cluster", "--embeddings", missing, *out, "--max-speakers", "0"],
        ["cluster", "--embeddings", missing, *out, "--fixed-k", "9"],
        ["cluster", "--embeddings", missing, *out, "--method", "njw-sc", "--sigma", "0.5", "--fixed-k", "9"],
        ["cluster", "--embeddings", missing, *out, "--method", "njw-sc", "--sigma", "-1"],
        ["score", "--ref", missing, "--hyp", missing, "--collar", "-1"],
        ["synth", "--clusters", "0", "--per-cluster", "2", "--dim", "4", *synth_out],
        ["synth", "--clusters", "2", "--per-cluster", "2", "--dim", "4", "--seed", "-1", *synth_out],
        ["synth", "--clusters", "2", "--per-cluster", "2", "--dim", "4", "--noise", "nan", *synth_out],
        ["synth", "--clusters", "2", "--per-cluster", "2", "--dim", "4", "--noise", "inf", *synth_out],
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
    assert not any(p.name.startswith("bad") for p in tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--p-max", "--seed"])
def test_cluster_takes_no_p_max_or_seed(tmp_path, capsys, flag) -> None:
    # The p cap (floor(N/4)) and the k-means seed (42) are fixed rules, which the manifest records.
    emb, _ = _synth(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["cluster", "--embeddings", str(emb), "--out", str(tmp_path / "bad.rttm"), flag, "5"])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err
    assert not any(p.name.startswith("bad") for p in tmp_path.iterdir())


def test_readme_names_exactly_the_cli_flags() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", readme)) - {"--no-build-isolation"}  # a pip flag
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        option
        for sub in subparsers.choices.values()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert named == flags


def test_cluster_njw_with_sigma(tmp_path) -> None:
    emb, _ = _synth(tmp_path, clusters=2, per_cluster=10, dim=8, noise=0.05)
    out = tmp_path / "njw.rttm"
    code = main(
        ["cluster", "--embeddings", str(emb), "--out", str(out), "--method", "njw-sc",
         "--sigma", "0.7"]
    )
    assert code == 0
    assert load_rttm(out)


def test_cluster_refuses_a_recording_id_its_rttm_could_not_hold(tmp_path, capsys) -> None:
    emb = tmp_path / "spaced.jsonl"
    emb.write_text(
        '{"recording_id": "my rec"}\n'
        '{"start": 0.0, "end": 1.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 1.0, "end": 2.0, "embedding": [1.0, 0.0]}\n'
        '{"start": 2.0, "end": 3.0, "embedding": [0.0, 1.0]}\n'
        '{"start": 3.0, "end": 4.0, "embedding": [0.0, 1.0]}\n'
    )
    out = tmp_path / "out.rttm"
    assert main(["cluster", "--embeddings", str(emb), "--out", str(out)]) == 1
    assert "line 1: header 'recording_id'" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_missing_input_exits_one(tmp_path, capsys) -> None:
    code = main(["cluster", "--embeddings", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.rttm")])
    assert code == 1
    assert "nope.jsonl" in capsys.readouterr().err


def test_cluster_solver_failure_exits_one(tmp_path, monkeypatch, capsys) -> None:
    emb, _ = _synth(tmp_path, clusters=2, per_cluster=10, dim=8)

    monkeypatch.setattr(numerics, "_lapacke_dsyevd", lambda: lambda *args: 1)  # dsyevd's info > 0
    out = tmp_path / "o.rttm"
    assert main(["cluster", "--embeddings", str(emb), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: symmetric eigensolver did not converge: Eigenvalues did not converge\n"
    assert not out.exists()


def test_score_identity_machine_line(tmp_path, capsys) -> None:
    _, truth = _synth(tmp_path, clusters=2, per_cluster=6, dim=8)
    code = main(["score", "--ref", str(truth), "--hyp", str(truth)])
    assert code == 0
    out = capsys.readouterr().out
    assert "DER=0.0000 MS=0.0000 FA=0.0000 SE=0.0000" in out


def test_score_half_mismatch_fixture(tmp_path, capsys) -> None:
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text("SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n")
    hyp.write_text(
        "SPEAKER rec 1 0.000 5.000 <NA> <NA> spk0 <NA> <NA>\n"
        "SPEAKER rec 1 5.000 5.000 <NA> <NA> spk1 <NA> <NA>\n"
    )
    code = main(["score", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0"])
    assert code == 0
    assert "SE=0.5000" in capsys.readouterr().out


def test_score_overlap_flag(tmp_path, capsys) -> None:
    ref = tmp_path / "ref.rttm"
    hyp = tmp_path / "hyp.rttm"
    ref.write_text(
        "SPEAKER rec 1 0.000 10.000 <NA> <NA> A <NA> <NA>\n"
        "SPEAKER rec 1 5.000 10.000 <NA> <NA> B <NA> <NA>\n"
    )
    hyp.write_text("SPEAKER rec 1 0.000 15.000 <NA> <NA> X <NA> <NA>\n")
    assert main(["score", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0"]) == 0
    without = capsys.readouterr().out
    assert main(["score", "--ref", str(ref), "--hyp", str(hyp), "--collar", "0", "--overlap"]) == 0
    with_overlap = capsys.readouterr().out
    # The doubly-active [5,10) region only counts (as missed time) with --overlap.
    assert "MS=0.0000" in without
    assert "MS=0.2500" in with_overlap


def test_score_missing_file_names_path(tmp_path, capsys) -> None:
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 1.000 <NA> <NA> A <NA> <NA>\n")
    code = main(["score", "--ref", str(ref), "--hyp", str(tmp_path / "absent.rttm")])
    assert code == 1
    assert "absent.rttm" in capsys.readouterr().err


def test_end_to_end_synth_cluster_score(tmp_path, capsys) -> None:
    emb, truth = _synth(tmp_path, clusters=3, per_cluster=12, dim=32, noise=0.1, seed=11)
    out = tmp_path / "hyp.rttm"
    assert main(["cluster", "--embeddings", str(emb), "--out", str(out)]) == 0
    assert main(["score", "--ref", str(truth), "--hyp", str(out), "--collar", "0"]) == 0
    machine = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("DER=")][-1]
    der = float(machine.split()[0].split("=")[1])
    assert der <= 0.01


def _assert_repeat_clusters_byte_identical(tmp_path, emb) -> None:
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.rttm"
        csv = tmp_path / f"{tag}.csv"
        assert main(["cluster", "--embeddings", str(emb), "--out", str(out), "--scan-out", str(csv)]) == 0
        outputs.append((out.read_bytes(), csv.read_bytes(), (tmp_path / f"{tag}.rttm.manifest.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_cluster_repeat_runs_byte_identical(tmp_path) -> None:
    emb, _ = _synth(tmp_path, clusters=3, per_cluster=10, dim=16)
    _assert_repeat_clusters_byte_identical(tmp_path, emb)


@settings(max_examples=20, deadline=None)
@given(speakers=st.integers(2, 4), per_speaker=st.integers(8, 20), seed=st.integers(0, 2**31 - 1))
def test_cluster_repeat_runs_byte_identical_on_drawn_corpora(tmp_path_factory, speakers, per_speaker, seed) -> None:
    # RTTM, scan CSV and manifest are a function of the input file alone, at a fixed BLAS thread count.
    tmp_path = tmp_path_factory.mktemp("repeat")
    emb, _ = _synth(tmp_path, clusters=speakers, per_cluster=per_speaker, dim=16, seed=seed)
    _assert_repeat_clusters_byte_identical(tmp_path, emb)


def test_cluster_outputs_at_one_and_two_blas_threads(tmp_path) -> None:
    # OpenBLAS fixes its thread count when it loads, hence one fresh interpreter per count. The
    # last bits of the spectra move with it; of all the outputs, only the g_p and r_p digits may.
    emb, _ = _synth(tmp_path, clusters=6, per_cluster=64, dim=192, noise=0.15, seed=1)
    decided, digits = [], []
    for threads in ("1", "2"):
        out, csv = tmp_path / f"hyp{threads}.rttm", tmp_path / f"scan{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "nmesc", "cluster", "--embeddings", str(emb), "--out", str(out),
             "--scan-out", str(csv)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        header, *rows = csv.read_text().splitlines()
        assert header == "p,g_p,r_p,k_at_p"
        table = [row.split(",") for row in rows if not row.startswith("#")]
        footer = [row for row in rows if row.startswith("#")]
        manifest = (tmp_path / f"hyp{threads}.rttm.manifest.json").read_bytes()
        decided.append((out.read_bytes(), manifest, [(p, k) for p, _, _, k in table], footer))
        digits.append([float(v) for _, gp, rp, _ in table for v in (gp, rp)])
    assert decided[0] == decided[1]
    assert len(decided[0][2]) > 1
    assert digits[0] == pytest.approx(digits[1], rel=1e-9)


def test_module_invocation_subprocess(tmp_path) -> None:
    ref = tmp_path / "ref.rttm"
    ref.write_text("SPEAKER rec 1 0.000 1.000 <NA> <NA> A <NA> <NA>\n")
    proc = subprocess.run(
        [sys.executable, "-m", "nmesc", "score", "--ref", str(ref), "--hyp", str(ref)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "DER=0.0000" in proc.stdout
    usage = subprocess.run(
        [sys.executable, "-m", "nmesc", "cluster", "--embeddings", "x"],
        capture_output=True,
        text=True,
    )
    assert usage.returncode == 2


def test_no_command_or_label_map_imports_scipy(tmp_path) -> None:
    # Scoring and best_map_accuracy share an assignment solver written in Python;
    # a fresh interpreter shows that no command, nor the label map, loads scipy.
    emb, truth = tmp_path / "emb.jsonl", tmp_path / "truth.rttm"
    hyp, njw = tmp_path / "hyp.rttm", tmp_path / "njw.rttm"
    commands = [
        ["synth", "--clusters", "3", "--per-cluster", "10", "--dim", "16", "--seed", "42",
         "--out", str(emb), "--truth-out", str(truth)],
        ["cluster", "--embeddings", str(emb), "--out", str(hyp), "--scan-out", str(tmp_path / "scan.csv")],
        ["cluster", "--embeddings", str(emb), "--out", str(njw), "--method", "njw-sc", "--sigma", "0.5"],
        ["score", "--ref", str(truth), "--hyp", str(hyp)],
    ]
    script = (
        "import sys\n"
        "from nmesc.cli import main\n"
        "from nmesc import best_map_accuracy\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert best_map_accuracy([0, 0, 1, 2], [5, 5, 7, 7]) == 0.75\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
