"""Command-line pipeline: wiring, validation, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest

from scriptcausal import causal, cli
from scriptcausal.events import NUM_SPECIALS, Vocabulary

TINY_CFG = {"emb_dim": 8, "hidden_dim": 12, "lm_emb_dim": 8,
            "lm_hidden_dim": 12, "max_epochs": 1, "batch_size": 32,
            "lm_batch_size": 16, "min_count": 1, "adjustment_n": 50,
            "cloze_count": 20, "sheet_targets": 3, "exclude_top": 0}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(TINY_CFG))
    return tmp_path


def run(*argv):
    return cli.main(list(argv))


def test_synth_then_oracle(workdir):
    assert run("synth", "--fixture", "F-POPCORN", "--n", "5",
               "--output", "c.jsonl") == 0
    assert run("oracle", "--fixture", "F-POPCORN", "--output", "oracle.tsv") == 0
    lines = (workdir / "oracle.tsv").read_text().splitlines()
    assert len(lines) == 9  # header + one do-row per event
    for line in lines[1:]:
        vals = [float(x) for x in line.split("\t")[1:]]
        assert sum(vals) == pytest.approx(1.0, abs=1e-9)


def test_estimate_do_missing_model_exit_code(workdir):
    run("synth", "--fixture", "F-DET", "--n", "5", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    code = run("estimate-do", "--model", "absent.bin", "--corpus", "c.jsonl",
               "--vocab", "v.tsv", "--output", "t.bin")
    assert code == 1
    assert not os.path.exists("t.bin")


def test_malformed_chain_file_exit_code(workdir):
    (workdir / "bad.jsonl").write_text("{not json\n")
    assert run("vocab", "--input", "bad.jsonl", "--output", "v.tsv") == 2


def test_unknown_config_key_rejected(workdir):
    (workdir / "bad.json").write_text(json.dumps({"no_such_key": 1}))
    assert run("--config", "bad.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 1


def test_full_pipeline_and_rerun_byte_identity(workdir):
    def pipeline(d):
        d.mkdir()
        assert run("--seed", "11", "synth", "--fixture", "F-DET", "--n", "60",
                   "--annotate", "--output", f"{d}/c.jsonl") == 0
        assert run("--config", "cfg.json", "split", "--input", f"{d}/c.jsonl",
                   "--train", f"{d}/tr.jsonl", "--dev", f"{d}/dv.jsonl",
                   "--test", f"{d}/te.jsonl") == 0
        assert run("--config", "cfg.json", "vocab", "--input", f"{d}/tr.jsonl",
                   "--output", f"{d}/v.tsv") == 0
        assert run("--config", "cfg.json", "count-pmi",
                   "--input", f"{d}/tr.jsonl", "--vocab", f"{d}/v.tsv",
                   "--output", f"{d}/cnt.tsv") == 0
        assert run("--config", "cfg.json", "train-cond",
                   "--train", f"{d}/tr.jsonl", "--dev", f"{d}/dv.jsonl",
                   "--vocab", f"{d}/v.tsv", "--output", f"{d}/m.bin") == 0
        assert run("--config", "cfg.json", "estimate-do",
                   "--model", f"{d}/m.bin", "--corpus", f"{d}/tr.jsonl",
                   "--vocab", f"{d}/v.tsv", "--output", f"{d}/t.bin") == 0

    pipeline(workdir / "A")
    pipeline(workdir / "B")
    for name in ["c.jsonl", "tr.jsonl", "v.tsv", "cnt.tsv", "m.bin", "t.bin"]:
        assert (workdir / "A" / name).read_bytes() == \
               (workdir / "B" / name).read_bytes(), name


def test_score_and_complete_commands(workdir):
    run("--seed", "2", "synth", "--fixture", "F-DET", "--n", "60",
        "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    run("--config", "cfg.json", "train-cond", "--train", "c.jsonl",
        "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin")
    run("--config", "cfg.json", "estimate-do", "--model", "m.bin",
        "--corpus", "c.jsonl", "--vocab", "v.tsv", "--output", "t.bin")
    assert run("--config", "cfg.json", "score", "--itable", "t.bin",
               "--vocab", "v.tsv", "--target", "e1:x",
               "--output", "preds.tsv") == 0
    lines = (workdir / "preds.tsv").read_text().splitlines()
    assert lines and all("\t" in ln for ln in lines)
    assert run("--config", "cfg.json", "complete", "--vocab", "v.tsv",
               "--itable", "t.bin", "e0:x", "e1:x") == 0


def test_manifest_lines_written(workdir):
    run("synth", "--fixture", "F-DET", "--n", "2", "--output", "c.jsonl")
    run("synth", "--fixture", "F-DET", "--n", "2", "--output", "c.jsonl")
    lines = [json.loads(l) for l in
             (workdir / "runs.log").read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0] == lines[1]  # identical config -> identical hash
    assert lines[0]["command"] == "synth"
    assert lines[0]["outputs"] == ["c.jsonl"]


def test_cli_flag_overrides_config(workdir):
    # config says min_count 1; CLI narrows the vocab with a higher threshold
    run("synth", "--fixture", "F-DET", "--n", "4", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v1.tsv")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--min-count", "1000", "--output", "v2.tsv")
    v1 = (workdir / "v1.tsv").read_text().splitlines()
    v2 = (workdir / "v2.tsv").read_text().splitlines()
    assert len(v2) < len(v1)


def test_diversity_command(workdir, capsys):
    (workdir / "e.tsv").write_text("s\ta\ns\tb\ns\ta\ns\tc\n")
    assert run("diversity", "--input", "e.tsv") == 0
    out = capsys.readouterr().out
    assert "\t75.0\t" in out


def test_config_lr_schedule_runs_every_stage(workdir, capsys):
    schedule = [[0.01, 1], [0.005, 1]]
    (workdir / "sched.json").write_text(
        json.dumps(dict(TINY_CFG, lr_schedule=schedule)))
    run("--seed", "2", "synth", "--fixture", "F-DET", "--n", "30",
        "--output", "c.jsonl")
    run("--config", "sched.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    capsys.readouterr()
    assert run("--config", "sched.json", "train-cond", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
    assert capsys.readouterr().err.count("conditional epoch") == 2
    assert causal.ConditionalModel.load("m.bin").config["lr_schedule"] == schedule


def _vocab_and_model(workdir):
    run("synth", "--fixture", "F-DET", "--n", "10", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    vocab = Vocabulary.load("v.tsv")
    causal.ConditionalModel(len(vocab), 1,
                            {"emb_dim": 4, "hidden_dim": 5}).save("m.bin")
    return len(vocab)


def test_truncated_model_exit_code(workdir):
    _vocab_and_model(workdir)
    blob = (workdir / "m.bin").read_bytes()
    (workdir / "m.bin").write_bytes(blob[:len(blob) - 16])
    assert run("--config", "cfg.json", "estimate-do", "--model", "m.bin",
               "--corpus", "c.jsonl", "--vocab", "v.tsv",
               "--output", "t.bin") == 2
    assert not os.path.exists("t.bin")


@pytest.mark.parametrize("value", [float("nan"), -0.5, 0.5])
def test_bad_itable_row_exit_code(workdir, value):
    V = _vocab_and_model(workdir)
    effect = np.full((V, V), 1.0 / V)
    effect[NUM_SPECIALS, NUM_SPECIALS] = value
    causal.InterventionTable(effect).save("t.bin")
    assert run("--config", "cfg.json", "score", "--itable", "t.bin",
               "--vocab", "v.tsv", "--target", "e1:x") == 2
