"""Command-line pipeline: wiring, validation, exit codes, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scriptcausal import baselines, causal, cli, config, synth
from scriptcausal.errors import DataFormatError
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


def test_a_request_too_large_for_memory_exits_1(workdir, capsys):
    """An adjustment sample of 10**15 contexts needs more memory than the
    address space holds, so numpy refuses it before allocating any: one
    error line and exit 1, no traceback and no table."""
    run("synth", "--fixture", "F-POPCORN", "--n", "20", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    causal.ConditionalModel({"vocab_size": len(Vocabulary.load("v.tsv")),
                             "emb_dim": 4, "hidden_dim": 5}).save("m.bin")
    capsys.readouterr()
    assert run("--config", "cfg.json", "estimate-do", "--model", "m.bin",
               "--corpus", "c.jsonl", "--vocab", "v.tsv", "--output", "t.bin",
               "--adjustment-n", str(10 ** 15)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: ") and err.count("\n") == 1
    assert "Traceback" not in err and not os.path.exists("t.bin")


def test_malformed_chain_file_exit_code(workdir):
    (workdir / "bad.jsonl").write_text("{not json\n")
    assert run("vocab", "--input", "bad.jsonl", "--output", "v.tsv") == 2


@pytest.mark.parametrize("text", ["[1]", "3", "null"])
def test_config_that_is_not_an_object_exit_code(workdir, capsys, text):
    (workdir / "bad.json").write_text(text)
    assert run("--config", "bad.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 2
    assert "bad.json: config file must hold one JSON object" in capsys.readouterr().err


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


_TRAIN_LM = ("--config", "cfg.json", "train-lm", "--train", "c.jsonl",
             "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "lm.bin")


def _lm_inputs():
    assert run("synth", "--fixture", "F-DET", "--n", "20", "--output", "c.jsonl") == 0
    assert run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
               "--output", "v.tsv") == 0


def test_training_stages_keep_freed_memory_through_mallopt(workdir, monkeypatch):
    calls = []

    class FakeLibc:
        def __init__(self, name):
            calls.append(name)
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(cli.ctypes, "CDLL", FakeLibc)
    _lm_inputs()
    assert calls == []   # the stages that do not train leave malloc alone
    assert run(*_TRAIN_LM) == 0
    # M_TRIM_THRESHOLD 256 MiB, M_MMAP_THRESHOLD 32 MiB
    assert calls == ["libc.so.6", (-1, 256 << 20), (-3, 32 << 20)]


def test_training_runs_without_a_loadable_libc(workdir, monkeypatch):
    def no_libc(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(cli.ctypes, "CDLL", no_libc)
    _lm_inputs()
    assert run(*_TRAIN_LM) == 0
    assert baselines.EventLM.load(workdir / "lm.bin").config["vocab_size"] == len(
        Vocabulary.load(workdir / "v.tsv"))


def test_score_and_complete_commands(workdir):
    run("--seed", "2", "synth", "--fixture", "F-DET", "--n", "60",
        "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    run("--config", "cfg.json", "train-cond", "--train", "c.jsonl",
        "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin")
    run("--config", "cfg.json", "--seed", "5", "estimate-do", "--model", "m.bin",
        "--corpus", "c.jsonl", "--vocab", "v.tsv", "--output", "t.bin")
    table = causal.InterventionTable.load("t.bin")   # the header names the sample
    assert (table.seed, table.n_samples, table.model_id) == (
        5, TINY_CFG["adjustment_n"], "m.bin")
    assert run("--config", "cfg.json", "score", "--itable", "t.bin",
               "--vocab", "v.tsv", "--target", "step1:nsubj",
               "--output", "preds.tsv") == 0
    lines = (workdir / "preds.tsv").read_text().splitlines()
    assert lines and all("\t" in ln for ln in lines)
    assert run("--config", "cfg.json", "complete", "--vocab", "v.tsv",
               "--itable", "t.bin", "step0:nsubj", "step1:nsubj") == 0


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


def test_train_cond_dev_loss_reads_the_text(workdir, capsys):
    # the second event follows from the first event's text alone
    rng = np.random.default_rng(0)
    with open("c.jsonl", "w", encoding="utf-8") as f:
        for i, word in enumerate(rng.choice(["left", "right"], size=200)):
            events = [{"pred": "a", "dep": "x", "text": [str(word)]},
                      {"pred": "b" if word == "left" else "c", "dep": "x"}]
            f.write(json.dumps({"chain_id": f"c{i}", "events": events}) + "\n")
    (workdir / "text.json").write_text(
        json.dumps(dict(TINY_CFG, lr=0.05, max_epochs=20, patience=20)))
    run("--config", "text.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    capsys.readouterr()
    assert run("--config", "text.json", "train-cond", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
    losses = [float(line.rsplit(" ", 1)[1])
              for line in capsys.readouterr().err.splitlines()
              if line.startswith("conditional epoch")]
    assert len(losses) == 20 and min(losses) < 0.05


def _vocab_and_model(workdir):
    run("synth", "--fixture", "F-DET", "--n", "10", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    vocab = Vocabulary.load("v.tsv")
    causal.ConditionalModel({"vocab_size": len(vocab), "emb_dim": 4,
                             "hidden_dim": 5}).save("m.bin")
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


@pytest.mark.parametrize("field, value", [
    ("oot", [["q:r"]]),                 # a pair without its rating
    ("oot", [["q:r", "4"]]),            # a rating that is not an int
    ("oot", "q:r"),
    ("text", "he ate"),                 # a string where a token list belongs
    ("text", ["he", 7]),
    ("text", []),
])
def test_bad_chain_field_exit_code(workdir, capsys, field, value):
    good = {"pred": "eat", "dep": "nsubj", "fact": "pos"}
    lines = [json.dumps({"chain_id": "c1", "events": [good, good]}),
             json.dumps({"chain_id": "c2",
                         "events": [good, dict(good, **{field: value})]})]
    (workdir / "bad.jsonl").write_text("\n".join(lines) + "\n")
    assert run("vocab", "--input", "bad.jsonl", "--output", "v.tsv") == 2
    assert "line 2" in capsys.readouterr().err
    assert not os.path.exists("v.tsv")


@pytest.mark.parametrize("chain_id", [None, True, 2.5, [1], {"a": 1}])
def test_chain_id_of_another_json_type_exit_code(workdir, capsys, chain_id):
    """A chain id is a string or an integer; a null one is not read as the
    text "None", which a later real "None" id would then duplicate."""
    good = {"pred": "eat", "dep": "nsubj"}
    lines = [json.dumps({"chain_id": 7, "events": [good]}),
             json.dumps({"chain_id": chain_id, "events": [good]}),
             json.dumps({"chain_id": "None", "events": [good]})]
    (workdir / "ids.jsonl").write_text("\n".join(lines) + "\n")
    assert run("ingest", "--input", "ids.jsonl", "--output", "out.jsonl") == 2
    assert "line 2: chain_id must be a string or an integer" in capsys.readouterr().err


def test_corpus_commands_import_no_model_module(workdir):
    """split and vocab run without importing the model, estimator,
    evaluation and generator layers, and score without the generator."""
    run("synth", "--fixture", "F-DET", "--n", "40", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    vocab = Vocabulary.load("v.tsv")
    V, target = len(vocab), vocab.key_of(NUM_SPECIALS)
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    code = ("import sys; from scriptcausal import cli; "
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[-1] in "
            "('baselines', 'causal', 'evaluation', 'kernel', 'synth')); "
            "assert cli.main(['split', '--input', 'c.jsonl', '--train', "
            "'tr.jsonl', '--dev', 'dv.jsonl', '--test', 'te.jsonl']) == 0; "
            "assert cli.main(['vocab', '--input', 'tr.jsonl', '--output', "
            "'v2.tsv']) == 0; print(loaded()); "
            "assert cli.main(['score', '--itable', 't.bin', '--vocab', 'v.tsv', "
            f"'--target', {target!r}, '--exclude-top', '0', '--output', 's.tsv']) "
            "== 0; print(loaded())")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.splitlines() == [
        "[]", "['scriptcausal.causal', 'scriptcausal.kernel']"]
    assert os.path.exists("v2.tsv") and os.path.exists("s.tsv")


@pytest.mark.parametrize("command", ["synth", "oracle"])
def test_an_unknown_fixture_is_a_config_error(workdir, capsys, command):
    argv = [command, "--fixture", "F-NOPE", "--output", "out"]
    assert run(*argv, *(["--n", "5"] if command == "synth" else [])) == 1
    err = capsys.readouterr().err
    assert "unknown fixture 'F-NOPE'" in err
    assert all(name in err for name in synth.FIXTURE_NAMES)
    assert not os.path.exists("out")


def _counts(workdir, fixture="F-DET"):
    run("synth", "--fixture", fixture, "--n", "40", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl",
        "--output", "v.tsv")
    run("--config", "cfg.json", "count-pmi", "--input", "c.jsonl",
        "--vocab", "v.tsv", "--output", "cnt.tsv")


@pytest.mark.parametrize("argv, message", [
    (["complete", "--counts", "cnt.tsv", "--exclude-top", "20",
      "eat_popcorn:nsubj"], "no candidate left"),
    (["complete", "--counts", "cnt.tsv", "--exclude-top", "0", "go_home:nsubj"],
     "no candidate has a finite score"),
    (["score", "--itable", "t.bin", "--exclude-top", "20",
      "--target", "cry:nsubj"], "no candidate left"),
])
def test_complete_without_a_candidate_is_a_config_error(workdir, capsys, argv,
                                                        message):
    _counts(workdir, "F-POPCORN")
    # one pair, so go_home:nsubj's PMI row has no finite entry
    (workdir / "cnt.tsv").write_text("#scriptcausal-counts v1\t2\t1\n"
                                     "cry:nsubj\tgo_home:nsubj\t1\n")
    V = len(Vocabulary.load("v.tsv"))
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    capsys.readouterr()
    assert run(argv[0], "--vocab", "v.tsv", *argv[1:]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["<unk>", "<s>", "</s>"])
@pytest.mark.parametrize("argv", [
    ["score", "--itable", "t.bin", "--target"],
    ["complete", "--itable", "t.bin", "--exclude-top", "0"]], ids=["score", "complete"])
def test_a_special_key_is_no_target_or_context_event(workdir, capsys, argv, key):
    _counts(workdir, "F-POPCORN")
    V = len(Vocabulary.load("v.tsv"))
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    capsys.readouterr()
    assert run(argv[0], "--vocab", "v.tsv", *argv[1:], key) == 1
    out = capsys.readouterr()
    assert f"{key!r} is not in the vocabulary's events" in out.err
    assert out.out == ""


def test_score_of_a_target_the_vocabulary_lacks_is_a_config_error(workdir, capsys):
    _counts(workdir, "F-POPCORN")
    V = len(Vocabulary.load("v.tsv"))
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    capsys.readouterr()
    assert run("score", "--itable", "t.bin", "--vocab", "v.tsv",
               "--target", "no_such:event") == 1
    assert "'no_such:event' is not in the vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize("scores", [["--itable", "t.bin"], ["--counts", "cnt.tsv"]])
def test_complete_of_a_context_the_vocabulary_lacks_is_a_config_error(
        workdir, capsys, scores):
    _counts(workdir, "F-POPCORN")
    V = len(Vocabulary.load("v.tsv"))
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    capsys.readouterr()
    assert run("complete", "--vocab", "v.tsv", *scores, "--exclude-top", "0",
               "cry:nsubj", "nosuch:nsubj") == 1
    out = capsys.readouterr()
    assert "context event 'nosuch:nsubj' is not in the vocabulary" in out.err
    assert not out.out


@pytest.mark.parametrize("name, lineno, field, value, where", [
    ("v.tsv", 1, 1, "eight", "vocabulary header"),    # |E|
    ("v.tsv", 1, 2, "1.0", "vocabulary header"),      # min count
    ("v.tsv", 5, 1, "x", "vocabulary line 5"),        # id
    ("v.tsv", 5, 2, "7.5", "vocabulary line 5"),      # count
    ("cnt.tsv", 1, 1, "two", "counts header"),        # window
    ("cnt.tsv", 1, 2, "many", "counts header"),       # grand total
    ("cnt.tsv", 3, 2, "1.5", "counts line 3"),        # pair count
    ("cnt.tsv", 3, 2, "-2", "counts line 3"),         # a count below 1
    ("v.tsv", 5, 2, "-1", "vocabulary line 5"),       # a count below 0
    ("v.tsv", 6, 0, "step0:nsubj", "vocabulary line 6"),  # line 5's key
    ("v.tsv", 5, 0, "<unk>", "vocabulary line 5"),    # line 2's key
])
def test_bad_integer_field_exit_code(workdir, capsys, name, lineno, field,
                                     value, where):
    _counts(workdir)
    lines = (workdir / name).read_text().splitlines()
    parts = lines[lineno - 1].split("\t")
    parts[field] = value
    lines[lineno - 1] = "\t".join(parts)
    (workdir / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("complete", "--vocab", "v.tsv", "--counts", "cnt.tsv",
               "step1:nsubj") == 2
    assert where in capsys.readouterr().err


def test_vocabulary_header_tag_is_compared_exactly(workdir, capsys):
    """A vocabulary of a later format version is not read as v1."""
    _counts(workdir)
    text = (workdir / "v.tsv").read_text()
    assert text.startswith("#scriptcausal-vocab v1\t")
    (workdir / "v.tsv").write_text(text.replace("v1\t", "v17\t", 1))
    capsys.readouterr()
    assert run("complete", "--vocab", "v.tsv", "--counts", "cnt.tsv",
               "step1:nsubj") == 2
    assert "v.tsv: missing vocabulary header" in capsys.readouterr().err


def test_counts_beyond_int64_are_a_data_error(workdir, capsys):
    _counts(workdir)
    lines = (workdir / "cnt.tsv").read_text().splitlines()
    header, first = lines[0].split("\t"), lines[1].split("\t")
    header[2] = str(int(header[2]) - int(first[2]) + 2 ** 64)
    first[2] = str(2 ** 64)
    lines[:2] = ["\t".join(header), "\t".join(first)]
    (workdir / "cnt.tsv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("complete", "--vocab", "v.tsv", "--counts", "cnt.tsv",
               "step1:nsubj") == 2
    assert "cnt.tsv: counts header total" in capsys.readouterr().err


def test_output_in_missing_directory_exit_code(workdir, capsys):
    out = os.path.join("no_such_dir", "c.jsonl")
    assert run("synth", "--fixture", "F-DET", "--n", "2",
               "--output", out) == 1
    assert out in capsys.readouterr().err


@pytest.mark.parametrize("value", [-1, "3", None])
def test_bad_exclude_top_rejected(workdir, value):
    (workdir / "bad.json").write_text(json.dumps({"exclude_top": value}))
    assert run("--config", "bad.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 1


def test_complete_rejects_two_score_files(workdir, capsys):
    _counts(workdir)
    V = len(Vocabulary.load("v.tsv"))
    causal.InterventionTable(np.full((V, V), 1.0 / V)).save("t.bin")
    capsys.readouterr()
    assert run("complete", "--vocab", "v.tsv", "--itable", "t.bin",
               "--counts", "cnt.tsv", "step1:nsubj") == 1
    err = capsys.readouterr().err
    assert "--itable" in err and "--counts" in err


_JSON_VALUES = [None, True, False, 0, 3, 2.5, "3", [], [1], {"a": 1},
                [[0.1, 2]], [[0.1, 1.5]], [["a", 1]], [[0.1]], [0.1, 2],
                ["a", 0.5], ["x"], [True]]


def _fits(key, value):
    """Whether ``value`` has the type that config key ``key`` takes."""
    default = config.TABLE[key].default
    if key == "lr_schedule":
        return value is None or type(value) is list and all(
            type(s) is list and len(s) == 2 and type(s[0]) in (int, float)
            and type(s[1]) is int for s in value)
    if type(default) is list:
        return type(value) is list and all(
            type(x) in ((int, float) if type(default[0]) is float
                        else (type(default[0]),))
            for x in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_wrong_config_type_is_a_config_error(workdir, capsys, data):
    key = data.draw(st.sampled_from(sorted(config.RUN_KEYS)))
    value = data.draw(st.sampled_from(
        [v for v in _JSON_VALUES if not _fits(key, v)]))
    (workdir / "bad.json").write_text(json.dumps({key: value}))
    capsys.readouterr()
    assert run("--config", "bad.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 1
    assert repr(key) in capsys.readouterr().err


# the least value of every size, count and window key
_LEAST = {**dict.fromkeys(
    ["min_count", "window", "adjustment_n", "emb_dim", "hidden_dim",
     "lm_emb_dim", "lm_hidden_dim", "lm_layers", "batch_size", "lm_batch_size",
     "patience", "max_epochs", "recall_n", "cloze_count", "sheet_targets",
     "per_system", "topk"], 1), "history_window": 0, "exclude_top": 0,
    "seed": 0}

# schedules with a stage of lr <= 0 or of fewer than one epoch, or a
# non-finite lr
_BAD_SCHEDULES = [[[0.1, -1]], [[0.1, 0]], [[-0.1, 1]], [[0, 2]],
                  [[0.1, 1], [0.01, 0]], [[math.inf, 1]], [[math.nan, 1]]]

# out-of-range values of the other keys: a rate or weight below 0 or not
# finite, a dropout rate of 1 or more, and a ratio that is not finite
_NOT_FINITE = [math.nan, math.inf, -math.inf]
_BAD_VALUES = {
    "lr_schedule": st.sampled_from(_BAD_SCHEDULES),
    "ratios": st.sampled_from([[x, 0.5, 0.5] for x in _NOT_FINITE]),
    **dict.fromkeys(["clip_norm", "finetune_lr", "lr"],
                    st.sampled_from(_NOT_FINITE + [-1e-3, -1, -2.5])),
    "lm_dropout": st.sampled_from(_NOT_FINITE + [-1e-3, -1, -2.5, 1.0, 1.5])}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_out_of_range_config_value_is_a_config_error(workdir, capsys, data):
    key = data.draw(st.sampled_from(sorted(_LEAST) + sorted(_BAD_VALUES)))
    value = data.draw(_BAD_VALUES[key] if key in _BAD_VALUES
                      else st.integers(-3, _LEAST[key] - 1))
    (workdir / "bad.json").write_text(json.dumps({key: value}))
    capsys.readouterr()
    assert run("--config", "bad.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("value", [1.0, 1.5])
def test_lm_dropout_of_one_or_more_is_a_config_error(workdir, capsys, value):
    """A dropout rate of 1 or more keeps no input: train-lm refuses it as a
    config error naming the key and writes no model."""
    run("synth", "--fixture", "F-DET", "--n", "20", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    (workdir / "bad.json").write_text(json.dumps({**TINY_CFG, "lm_dropout": value}))
    capsys.readouterr()
    assert run("--config", "bad.json", "train-lm", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "lm.bin") == 1
    assert "'lm_dropout' must be < 1" in capsys.readouterr().err
    assert not (workdir / "lm.bin").exists()


@pytest.mark.parametrize("key,value", [("batch_size", 0), ("hidden_dim", 0),
                                       ("history_window", -1), ("max_epochs", 0)])
def test_train_cond_rejects_out_of_range_values(workdir, key, value):
    run("synth", "--fixture", "F-DET", "--n", "20", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    (workdir / "bad.json").write_text(json.dumps({**TINY_CFG, key: value}))
    assert run("--config", "bad.json", "train-cond", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 1
    assert not (workdir / "m.bin").exists()


def _bigger_by(delta):
    """Write a conditional model, a finetuned one, an LM and an itable of
    the vocabulary's size plus ``delta``; return that size and, for each
    stage that reads one of them with the vocabulary, its arguments."""
    n = len(Vocabulary.load("v.tsv")) + delta
    _model_files(n)
    causal.InterventionTable(np.eye(n)).save("t.bin")
    return n, {
        "finetune-cond": ["finetune-cond", "--model", "m.bin", "--annotated",
                          "c.jsonl", "--vocab", "v.tsv", "--output", "out.bin"],
        "estimate-do": ["estimate-do", "--model", "ft.bin", "--corpus", "c.jsonl",
                        "--vocab", "v.tsv", "--output", "out.bin",
                        "--tsv", "out.tsv"],
        "cloze --lm": ["cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv",
                       "--lm", "lm.bin", "--output", "out.tsv"],
        "sheet --lm": ["sheet", "--vocab", "v.tsv", "--lm", "lm.bin",
                       "--output", "out.tsv"],
        "cloze --itable": ["cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv",
                           "--itable", "t.bin", "--output", "out.tsv"],
        "score": ["score", "--itable", "t.bin", "--vocab", "v.tsv",
                  "--target", "e1:nsubj", "--output", "out.tsv"],
    }


@pytest.mark.parametrize("delta", [5, -2])
@pytest.mark.parametrize("stage", ["finetune-cond", "estimate-do", "cloze --lm",
                                   "sheet --lm", "cloze --itable", "score"])
def test_model_of_another_vocabulary_size_exit_code(workdir, capsys, stage, delta):
    run("synth", "--fixture", "F-DET", "--n", "10", "--annotate",
        "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    n, argv = _bigger_by(delta)
    capsys.readouterr()
    assert run("--config", "cfg.json", *argv[stage]) == 2
    err = capsys.readouterr().err
    assert f"has {n} event ids" in err and f"has {n - delta}" in err
    assert not any(os.path.exists(f) for f in ("out.bin", "out.tsv"))


def _edited_spec(edit):
    spec = synth.build_fixture("F-DET").to_dict()
    edit(spec)
    with open("spec.json", "w", encoding="utf-8") as f:
        json.dump(spec, f)


@pytest.mark.parametrize("edit", [
    lambda s: s["scenarios"][0].pop("prob"),
    lambda s: s["scenarios"][0].pop("name"),
    lambda s: s["scenarios"][0].pop("kernel"),
    lambda s: s["scenarios"][0]["kernel"].update({"c:x": {}}),
    lambda s: s["scenarios"][0]["kernel"]["<s>"].update({"c:x": 0.0}),
    lambda s: s["scenarios"].append(3),
    lambda s: s["scenarios"][0].update(prob=0.5),
    lambda s: s.update({"lambda": 0}),
    lambda s: s.update(chain_length=1),
    lambda s: s["scenarios"][0]["kernel"]["<s>"].update({"step0:nsubj": 0.5}),
    lambda s: s["scenarios"][0].update(prob=math.nan),
], ids=["no-prob", "no-name", "no-kernel", "unknown-source", "unknown-target",
        "scenario-not-an-object", "prior-sum", "lambda-0", "chain-length-1",
        "kernel-row-sum", "prior-nan"])
def test_malformed_cbn_spec_exit_code(workdir, capsys, edit):
    _edited_spec(edit)
    with pytest.raises(DataFormatError):
        synth.SyntheticCBN.load("spec.json")
    capsys.readouterr()
    assert run("synth", "--cbn", "spec.json", "--n", "2", "--output", "c.jsonl") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: spec.json: malformed CBN spec")
    assert not os.path.exists("c.jsonl")


def _header_keys(kind):
    """Model key -> table key of every key a model file of ``kind`` records."""
    if kind == "lm":
        return {**baselines.CONFIG_KEYS, "vocab_size": "vocab_size"}
    return {**causal.CONFIG_KEYS,
            **config.same("vocab_size tokens phase")}


_MODEL_FILES = {"conditional": "m.bin", "finetuned": "ft.bin", "lm": "lm.bin"}


def _model_files(n):
    """A conditional model, a finetuned one and an LM, all of ``n`` ids."""
    causal.ConditionalModel({"vocab_size": n, "emb_dim": 4,
                             "hidden_dim": 5}).save("m.bin")
    causal.ConditionalModel({"vocab_size": n, "emb_dim": 4, "hidden_dim": 5,
                             "phase": "finetuned"}).save("ft.bin")
    baselines.EventLM({"vocab_size": n, "emb_dim": 4, "hidden_dim": 5,
                       "num_layers": 1}).save("lm.bin")


def _loading_stage(kind, model):
    """The CLI stage that loads ``model``, a file of ``kind``."""
    return {"conditional": ["finetune-cond", "--model", model, "--annotated",
                            "c.jsonl", "--vocab", "v.tsv", "--output", "out.bin"],
            "finetuned": ["estimate-do", "--model", model, "--corpus", "c.jsonl",
                          "--vocab", "v.tsv", "--output", "out.bin"],
            "lm": ["cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv",
                   "--lm", model, "--output", "out.tsv"]}[kind]


def _rewrite_header(src, dst, edit):
    """Copy model file ``src`` to ``dst`` with ``edit`` applied to its
    header's config."""
    blob = open(src, "rb").read()
    end = blob.index(b"\n")
    tag, version, kind, header = blob[:end].decode("utf-8").split(" ", 3)
    header = json.dumps(edit(json.loads(header)), separators=(",", ":"),
                        sort_keys=True)
    with open(dst, "wb") as f:
        f.write(f"{tag} {version} {kind} {header}".encode("utf-8") + blob[end:])


def _pipeline_inputs():
    run("synth", "--fixture", "F-DET", "--n", "10", "--annotate",
        "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    return len(Vocabulary.load("v.tsv"))


# the least value of each header key that no run sets
_HEADER_LEAST = {"vocab_size": 1}

# token lists without <unk> first, or with a token twice
_BAD_TOKENS = [[], ["a"], ["a", "<unk>"], ["<unk>", "<unk>"], ["<unk>", "a", "a"]]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_model_header_fault_exit_code(workdir, capsys, data):
    if not os.path.exists("v.tsv"):
        _model_files(_pipeline_inputs())
    kind = data.draw(st.sampled_from(sorted(_MODEL_FILES)))
    key, name = data.draw(st.sampled_from(sorted(_header_keys(kind).items())))
    least = {**_LEAST, **_HEADER_LEAST}
    faults = ["drop", "type"] + ["range"] * (
        name in least or name in ("lr_schedule", "phase", "tokens"))
    fault = data.draw(st.sampled_from(faults))
    if fault == "drop":
        def edit(c):
            del c[key]
            return c
    else:
        if fault == "type":
            value = data.draw(st.sampled_from(
                [v for v in _JSON_VALUES if not _fits(name, v)]))
        elif name == "lr_schedule":
            value = data.draw(st.sampled_from(_BAD_SCHEDULES))
        elif name == "tokens":
            value = data.draw(st.sampled_from(_BAD_TOKENS))
        elif name in least:
            value = data.draw(st.integers(-3, least[name] - 1))
        else:
            value = "bogus"
        edit = lambda c: dict(c, **{key: value})  # noqa: E731
    _rewrite_header(_MODEL_FILES[kind], "bad.bin", edit)
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage(kind, "bad.bin")) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "bad.bin" in err
    assert not any(os.path.exists(f) for f in ("out.bin", "out.tsv"))


@pytest.mark.parametrize("kind", sorted(_MODEL_FILES))
def test_model_header_keys_are_in_the_table_and_round_trip(workdir, kind):
    _model_files(9)
    path = _MODEL_FILES[kind]
    header = json.loads(open(path, "rb").readline().decode("utf-8").split(" ", 3)[3])
    keys = _header_keys(kind)
    assert set(header) == set(keys)
    assert all(name in config.TABLE for name in keys.values())
    loader = baselines.EventLM if kind == "lm" else causal.ConditionalModel
    model = loader.load(path)
    model.save("again.bin")
    assert open("again.bin", "rb").read() == open(path, "rb").read()
    assert model.config == header


def _drop(name):
    def edit(params):
        del params[name]
    return edit


def _cut(name, rows):
    def edit(params):
        params[name] = params[name][:rows]
    return edit


def _spoil(name, value):
    def edit(params):
        params[name][0, 0] = value
    return edit


@pytest.mark.parametrize("kind, edit, name", [
    ("finetuned", _drop("A"), "A"),
    ("finetuned", _cut("B", 5), "B"),
    ("conditional", _drop("enc.Uh"), "enc.Uh"),
    ("lm", _cut("out.W", 5), "out.W"),
    ("finetuned", _spoil("A", np.nan), "A"),
    ("lm", _spoil("emb", -np.inf), "emb"),
], ids=["no-A", "B-of-5-rows", "no-enc.Uh", "out.W-of-5-rows", "nan-A",
        "inf-emb"])
def test_model_parameter_fault_exit_code(workdir, capsys, kind, edit, name):
    _model_files(_pipeline_inputs())
    path = _MODEL_FILES[kind]
    loader = baselines.EventLM if kind == "lm" else causal.ConditionalModel
    model = loader.load(path)
    edit(model.params)
    model.save("bad.bin")
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage(kind, "bad.bin")) == 2
    err = capsys.readouterr().err
    assert repr(name) in err and "bad.bin" in err
    assert not any(os.path.exists(f) for f in ("out.bin", "out.tsv"))


def _non_utf8(path, at):
    """Put a 0xff byte into the file ``path`` before byte ``at``."""
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:at] + b"\xff" + blob[at:])


@pytest.mark.parametrize("what", ["model header", "vocabulary", "itable header",
                                  "counts", "config", "cbn spec", "sheet",
                                  "emissions"])
def test_non_utf8_input_exit_code(workdir, capsys, what):
    _counts(workdir)
    n = len(Vocabulary.load("v.tsv"))
    _model_files(n)
    causal.InterventionTable(np.full((n, n), 1.0 / n)).save("t.bin")
    synth.build_fixture("F-DET").save("spec.json")
    (workdir / "sheet.tsv").write_text(
        "task_id\ttarget_event\tcandidate_event\thidden_system_key\tscore\n"
        "0\te1:x\te2:x\tlm\t50\n")
    (workdir / "e.tsv").write_text("s\te1:x\ns\te2:x\n")
    path, argv = {
        "model header": ("m.bin", _loading_stage("conditional", "m.bin")),
        "vocabulary": ("v.tsv", ["count-pmi", "--input", "c.jsonl", "--vocab",
                                 "v.tsv", "--output", "out.tsv"]),
        "itable header": ("t.bin", ["score", "--itable", "t.bin", "--vocab",
                                    "v.tsv", "--target", "e1:x"]),
        "counts": ("cnt.tsv", ["complete", "--vocab", "v.tsv", "--counts",
                               "cnt.tsv", "e1:x"]),
        "config": ("cfg.json", ["synth", "--fixture", "F-DET", "--n", "2",
                                "--output", "out.jsonl"]),
        "cbn spec": ("spec.json", ["synth", "--cbn", "spec.json", "--n", "2",
                                   "--output", "out.jsonl"]),
        "sheet": ("sheet.tsv", ["score-summary", "--input", "sheet.tsv"]),
        "emissions": ("e.tsv", ["diversity", "--input", "e.tsv"]),
    }[what]
    _non_utf8(path, os.path.getsize(path) // 2 if path.endswith(".tsv")
              else len(open(path, "rb").readline()) // 2)
    capsys.readouterr()
    assert run("--config", "cfg.json", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and path in err


def test_library_defaults_are_the_run_defaults():
    run_cfg = config.RunConfig()
    sizes = {"vocab_size": 5}
    assert baselines.EventLM(sizes).config == {
        **run_cfg.slice(baselines.CONFIG_KEYS), **sizes}
    assert causal.ConditionalModel(sizes).config == {
        **run_cfg.slice(causal.CONFIG_KEYS), **sizes, "tokens": ["<unk>"],
        "phase": "pretrained"}
    assert baselines.EventLM(sizes).config["max_epochs"] == run_cfg["max_epochs"] == 30


def test_a_model_needs_its_vocabulary_size():
    with pytest.raises(KeyError, match="vocab_size"):
        baselines.EventLM({})
    with pytest.raises(KeyError, match="vocab_size"):
        causal.ConditionalModel({"tokens": ["<unk>", "a"]})


def test_every_run_key_is_read():
    """Every run key reaches a stage: cli.py reads it as cfg["key"] or in a
    slice of same("..."), or a model records it in its CONFIG_KEYS."""
    source = open(cli.__file__, encoding="utf-8").read()
    read = set(re.findall(r'cfg\["(\w+)"\]', source))
    for keys in re.findall(r'same\("([^"]+)"\)', source):
        read.update(keys.split())
    read.update(causal.CONFIG_KEYS.values(), baselines.CONFIG_KEYS.values())
    assert sorted(config.RUN_KEYS.keys() - read) == []


def test_model_file_sets_the_instance_window(workdir):
    """finetune-cond and estimate-do cut their instances by the history
    window and out-of-text threshold that the model file records, whatever
    the run's config says, so their outputs do not depend on it."""
    (workdir / "w2.json").write_text(json.dumps(dict(TINY_CFG, history_window=2)))
    (workdir / "w9.json").write_text(json.dumps(
        dict(TINY_CFG, history_window=9, oot_threshold=1)))
    run("--seed", "5", "synth", "--fixture", "F-POPCORN", "--n", "40",
        "--annotate", "--output", "c.jsonl")
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    assert run("--config", "w2.json", "train-cond", "--train", "c.jsonl", "--dev",
               "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
    for cfg in ("w2", "w9"):
        assert run("--config", f"{cfg}.json", "finetune-cond", "--model", "m.bin",
                   "--annotated", "c.jsonl", "--vocab", "v.tsv",
                   "--output", f"ft_{cfg}.bin") == 0
        assert run("--config", f"{cfg}.json", "estimate-do", "--model", "m.bin",
                   "--corpus", "c.jsonl", "--vocab", "v.tsv",
                   "--output", f"t_{cfg}.bin") == 0
    for name in ("ft", "t"):
        assert ((workdir / f"{name}_w2.bin").read_bytes()
                == (workdir / f"{name}_w9.bin").read_bytes()), name


@pytest.mark.parametrize("score", ["500", "-1", "100.5", "nan", "inf", "-inf"])
def test_bad_sheet_score_exit_code(workdir, capsys, score):
    (workdir / "sheet.tsv").write_text(
        "task_id\ttarget_event\tcandidate_event\thidden_system_key\tscore\n"
        "0\te1:x\te2:x\tlm\t50\n"
        f"7\te1:x\te3:x\tpmi\t{score}\n")
    capsys.readouterr()
    assert run("score-summary", "--input", "sheet.tsv", "--output", "s.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "task 7" in err
    assert not os.path.exists("s.tsv")


def test_sheet_scores_at_the_bounds_are_accepted(workdir, capsys):
    (workdir / "sheet.tsv").write_text(
        "task_id\ttarget_event\tcandidate_event\thidden_system_key\tscore\n"
        "0\te1:x\te2:x\tlm\t0\n0\te1:x\te3:x\tpmi\t100.0\n")
    capsys.readouterr()
    assert run("score-summary", "--input", "sheet.tsv") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "lm\t0.00\t1.00\t1", "pmi\t100.00\t2.00\t1"]


def _bad_chain_byte(path):
    _non_utf8(path, len(open(path, "rb").readline()) // 2)


def _bad_chain_json(path):
    with open(path, "a", encoding="utf-8") as f:
        f.write("{not json\n")


def _bad_body_line(path):
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[4] += "\textra"
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _short_itable(path):
    blob = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(blob[:-8])


@pytest.mark.parametrize("path, spoil, message", [
    ("c.jsonl", _bad_chain_byte, "line 1: not UTF-8"),
    ("c.jsonl", _bad_chain_json, "line 41: invalid JSON"),
    ("v.tsv", _bad_body_line, "vocabulary line 5: expected 3 fields"),
    ("cnt.tsv", _bad_body_line, "counts line 5: expected 3 fields"),
    ("t.bin", _short_itable, "intervention table body"),
], ids=["chain-byte", "chain-json", "vocab-line", "counts-line", "itable-body"])
def test_cloze_data_error_names_its_file(workdir, capsys, path, spoil, message):
    """cloze reads a chain file, a vocabulary, an LM, an itable and a counts
    file: a data error in any of them says which file it is in."""
    _counts(workdir)
    n = len(Vocabulary.load("v.tsv"))
    _model_files(n)
    causal.InterventionTable(np.full((n, n), 1.0 / n)).save("t.bin")
    spoil(path)
    capsys.readouterr()
    assert run("--config", "cfg.json", "cloze", "--corpus", "c.jsonl",
               "--vocab", "v.tsv", "--lm", "lm.bin", "--itable", "t.bin",
               "--counts", "cnt.tsv", "--output", "out.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and message in err
    assert not os.path.exists("out.tsv")


def test_text_mode_is_an_unknown_key(workdir, capsys):
    """The text channel has one encoder, so a config file or model header
    that still names ``text_mode`` is refused as naming an unknown key."""
    (workdir / "old.json").write_text(json.dumps({"text_mode": "mean"}))
    assert run("--config", "old.json", "synth", "--fixture", "F-DET",
               "--n", "2", "--output", "c.jsonl") == 1
    assert "config key 'text_mode' is unknown" in capsys.readouterr().err
    _model_files(_pipeline_inputs())
    _rewrite_header("m.bin", "old.bin", lambda c: dict(c, text_mode="mean"))
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage("conditional", "old.bin")) == 2
    err = capsys.readouterr().err
    assert "old.bin: model header key 'text_mode' is unknown" in err


def _text_chains(path, words, texts):
    """Two-event annotated chains: the second event is b after "left" and c
    otherwise, and the first event's text is the matching word of ``texts``."""
    with open(path, "w", encoding="utf-8") as f:
        for i, (word, text) in enumerate(zip(words, texts)):
            events = [{"pred": "a", "dep": "x", "text": [str(text)],
                       "oot": [["a:x", 4]]},
                      {"pred": "b" if word == "left" else "c", "dep": "x"}]
            f.write(json.dumps({"chain_id": f"c{i}", "events": events}) + "\n")


def test_finetune_on_one_annotated_instance(workdir):
    """Below 10 annotated instances the dev split is empty and finetuning
    holds out its training rows, as train-cond does: a file with exactly
    one annotated instance finetunes on it."""
    words = ["left", "right", "left"]
    _text_chains("c.jsonl", words, words)
    chains = [json.loads(line) for line in open("c.jsonl", encoding="utf-8")]
    for chain in chains[1:]:
        del chain["events"][0]["oot"]
    with open("one.jsonl", "w", encoding="utf-8") as f:
        f.writelines(json.dumps(chain) + "\n" for chain in chains)
    run("--config", "cfg.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    assert run("--config", "cfg.json", "train-cond", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
    assert run("--config", "cfg.json", "finetune-cond", "--model", "m.bin",
               "--annotated", "one.jsonl", "--vocab", "v.tsv",
               "--output", "ft.bin") == 0
    tuned = causal.ConditionalModel.load("ft.bin")
    assert tuned.config["phase"] == "finetuned" and tuned.params["W_O"].any()


def test_finetune_and_estimate_read_the_text(workdir):
    """The model file's tokens encode the text in every stage: corpora that
    differ only in their text give different finetuned models and
    different intervention tables."""
    words = np.random.default_rng(0).choice(["left", "right"], size=200)
    _text_chains("c.jsonl", words, words)
    for text in ("left", "right"):
        _text_chains(f"{text}.jsonl", words, [text] * len(words))
    (workdir / "text.json").write_text(json.dumps(dict(TINY_CFG, lr=0.05,
                                                       max_epochs=5)))
    run("--config", "text.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    assert run("--config", "text.json", "train-cond", "--train", "c.jsonl",
               "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
    assert causal.ConditionalModel.load("m.bin").config["tokens"] == [
        "<unk>", *dict.fromkeys(words)]
    for text in ("left", "right"):
        assert run("--config", "text.json", "finetune-cond", "--model", "m.bin",
                   "--annotated", f"{text}.jsonl", "--vocab", "v.tsv",
                   "--output", f"ft_{text}.bin") == 0
        assert run("--config", "text.json", "estimate-do", "--model", "m.bin",
                   "--corpus", f"{text}.jsonl", "--vocab", "v.tsv",
                   "--output", f"t_{text}.bin") == 0
    for name in ("ft", "t"):
        assert ((workdir / f"{name}_left.bin").read_bytes()
                != (workdir / f"{name}_right.bin").read_bytes()), name
    left = causal.InterventionTable.load("t_left.bin").effect
    right = causal.InterventionTable.load("t_right.bin").effect
    b, c = (Vocabulary.load("v.tsv").id_of(k) for k in ("b:x", "c:x"))
    assert (left[:, b] > right[:, b]).all() and (left[:, c] < right[:, c]).all()


@pytest.mark.parametrize("edit, message", [
    (lambda c: {**{k: v for k, v in c.items() if k != "tokens"},
                "token_vocab_size": 1}, "'token_vocab_size' is unknown"),
    (lambda c: dict(c, tokens=["<unk>", "a", "a"]),
     "'tokens' must be distinct strings, '<unk>' first"),
], ids=["old-model-file", "repeated-token"])
def test_a_model_header_without_a_token_list_exit_code(workdir, capsys, edit,
                                                       message):
    _model_files(_pipeline_inputs())
    _rewrite_header("m.bin", "old.bin", edit)
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage("conditional", "old.bin")) == 2
    err = capsys.readouterr().err
    assert f"old.bin: model header key {message}" in err
    assert not os.path.exists("out.bin")


def test_a_refused_token_list_is_echoed_in_a_bounded_message(workdir, capsys):
    """A 20,002-entry token list that repeats ``w0`` is named by its
    repeated token, not printed whole."""
    _model_files(_pipeline_inputs())
    _rewrite_header("m.bin", "old.bin", lambda c: dict(
        c, tokens=["<unk>", *(f"w{i}" for i in range(20000)), "w0"]))
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage("conditional", "old.bin")) == 2
    err = capsys.readouterr().err
    assert "old.bin: model header key 'tokens' must be distinct" in err
    assert "'w0' repeats" in err and len(err) < 500


def test_a_pretrained_model_file_without_w_o_exit_code(workdir, capsys):
    """Every conditional model holds W_O, so a pretrained model file that
    lacks it, as the earlier format wrote them, exits 2 naming it."""
    _model_files(_pipeline_inputs())
    model = causal.ConditionalModel.load("m.bin")
    del model.params["W_O"]
    model.save("old.bin")
    capsys.readouterr()
    assert run("--config", "cfg.json", *_loading_stage("conditional", "old.bin")) == 2
    err = capsys.readouterr().err
    assert "old.bin: model parameter 'W_O' is absent in the file" in err
    assert not os.path.exists("out.bin")


def test_a_diverging_model_writes_no_table(workdir, capsys):
    """Trained at lr 1e300, the model's dev loss stays finite (about 1e304),
    so train-cond exits 0; the estimator's input projection overflows, and
    estimate-do exits 3 without writing a table."""
    (workdir / "lr.json").write_text(json.dumps(
        {"emb_dim": 16, "hidden_dim": 24, "lr": 1e300, "min_count": 1,
         "max_epochs": 2}))
    run("synth", "--fixture", "F-POPCORN", "--n", "400", "--annotate",
        "--output", "c.jsonl")
    run("--config", "lr.json", "vocab", "--input", "c.jsonl", "--output", "v.tsv")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("--config", "lr.json", "train-cond", "--train", "c.jsonl",
                   "--dev", "c.jsonl", "--vocab", "v.tsv", "--output", "m.bin") == 0
        capsys.readouterr()
        assert run("--config", "lr.json", "estimate-do", "--model", "m.bin",
                   "--corpus", "c.jsonl", "--vocab", "v.tsv",
                   "--output", "t.bin") == 3
    assert "numerical error: non-finite input projection" in capsys.readouterr().err
    assert not os.path.exists("t.bin")


# the stage that reads each fuzzed file: cloze reads a vocabulary, a counts
# file, an itable and an LM; estimate-do reads a conditional model
_CLOZE = ["cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv", "--lm", "lm.bin",
          "--itable", "t.bin", "--counts", "cnt.tsv", "--output", "out.tsv"]
_FUZZ_STAGES = {**dict.fromkeys(["v.tsv", "cnt.tsv", "t.bin", "lm.bin"], _CLOZE),
                "m.bin": _loading_stage("finetuned", "m.bin"),
                "ft.bin": _loading_stage("finetuned", "ft.bin")}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_file_loads_or_is_a_data_error(workdir, capsys, data):
    """A vocabulary, counts file, itable or model file cut short or with one
    byte changed either loads, or exits 2 with a data error naming it; it
    never ends in an uncaught exception."""
    if not os.path.exists("t.bin"):
        _counts(workdir)
        n = len(Vocabulary.load("v.tsv"))
        _model_files(n)
        causal.InterventionTable(np.full((n, n), 1.0 / n)).save("t.bin")
    path = data.draw(st.sampled_from(sorted(_FUZZ_STAGES)))
    blob = open(path, "rb").read()
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        bad = blob[:at]
    else:
        bad = blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) \
            + blob[at + 1:]
    try:
        with open(path, "wb") as f:
            f.write(bad)
        capsys.readouterr()
        code = run("--config", "cfg.json", *_FUZZ_STAGES[path])
    finally:
        with open(path, "wb") as f:
            f.write(blob)
        for out in ("out.bin", "out.tsv"):
            if os.path.exists(out):
                os.remove(out)
    err = capsys.readouterr().err
    assert code == 0 or code == 2 and err.startswith(f"data error: {path}: "), err


# a number that stands as a JSON value after a key
_FIELD_NUMBER = re.compile(rb"(?<=: )-?\d+(\.\d+)?([eE][-+]?\d+)?")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_spec_or_config_is_a_clean_exit(workdir, capsys, data):
    """A CBN spec or a config file cut short, with one byte changed, or with
    NaN, Infinity, -1 or 0 in a numeric field makes ``synth --cbn`` exit 0,
    exit 1 with a config error, or exit 2 with a data error naming the file;
    it never ends in an uncaught exception."""
    if not os.path.exists("spec.json"):
        synth.build_fixture("F-DET").save("spec.json")
    path = data.draw(st.sampled_from(["cfg.json", "spec.json"]))
    blob = open(path, "rb").read()
    how = data.draw(st.sampled_from(["cut", "xor", "number"]))
    if how == "number":
        field = data.draw(st.sampled_from(list(_FIELD_NUMBER.finditer(blob))))
        value = data.draw(st.sampled_from([b"NaN", b"Infinity", b"-Infinity",
                                           b"-1", b"0"]))
        bad = blob[:field.start()] + value + blob[field.end():]
    else:
        at = data.draw(st.integers(0, len(blob) - 1))
        bad = blob[:at] if how == "cut" else blob[:at] + bytes(
            [blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1:]
    try:
        with open(path, "wb") as f:
            f.write(bad)
        capsys.readouterr()
        code = run("--config", "cfg.json", "synth", "--cbn", "spec.json",
                   "--n", "2", "--output", "c.jsonl")
    finally:
        with open(path, "wb") as f:
            f.write(blob)
        if os.path.exists("c.jsonl"):
            os.remove("c.jsonl")
    err = capsys.readouterr().err
    assert code == 0 or code == 1 and err.startswith("error: ") \
        or code == 2 and err.startswith(f"data error: {path}: "), (code, err)


@pytest.mark.parametrize("command, flags", [
    ("synth", ["--fixture", "F-POPCORN", "--cbn", "det.json"]),
    ("synth", []),
    ("oracle", ["--fixture", "F-POPCORN", "--cbn", "det.json"]),
    ("oracle", []),
], ids=["synth-both", "synth-neither", "oracle-both", "oracle-neither"])
def test_synth_and_oracle_take_exactly_one_network(workdir, capsys, command, flags):
    """--fixture and --cbn both, or neither, is a config error; neither
    network is silently preferred."""
    synth.build_fixture("F-DET").save("det.json")
    argv = [command, *flags, "--output", "out"] + (["--n", "3"] if command == "synth"
                                                   else [])
    assert run(*argv) == 1
    assert capsys.readouterr().err == (f"error: {command} needs one network: pass "
                                       "either --fixture or --cbn\n")
    assert not os.path.exists("out")


@pytest.mark.parametrize("ratios", [[0.5, 0.5], [0.25, 0.25, 0.25, 0.25]])
def test_split_needs_one_ratio_per_output(workdir, capsys, monkeypatch, ratios):
    """split writes a train, a dev and a test file: any other number of
    ratios is refused before the chain file is read, and nothing is
    written."""
    assert run("synth", "--fixture", "F-POPCORN", "--n", "40",
               "--output", "c.jsonl") == 0
    (workdir / "cfg.json").write_text(json.dumps({"ratios": ratios}))
    monkeypatch.setattr(cli, "load_chains", None)   # a read would fail
    assert run("--config", "cfg.json", "split", "--input", "c.jsonl",
               "--train", "tr", "--dev", "dv", "--test", "te") == 1
    assert capsys.readouterr().err == (
        "error: config key 'ratios' must hold 3 ratios (train, dev, test), "
        f"got {len(ratios)}\n")
    assert not any(os.path.exists(p) for p in ("tr", "dv", "te"))
    assert (workdir / "runs.log").read_text().count("\n") == 1   # synth's line


def test_gradcheck_certifies_every_model(workdir, capsys):
    assert run("gradcheck") == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["event-lm", "conditional-pretrained",
                                        "conditional-finetuned"]
    assert all(row[2] == "ok" and float(row[1]) < 1e-4 for row in rows)


def test_gradcheck_failure_is_a_numerical_error(workdir, capsys, monkeypatch):
    monkeypatch.setattr(cli, "gradient_errors",
                        lambda seed: {"event-lm": 1e-6, "conditional-pretrained": 2e-4})
    assert run("gradcheck") == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "conditional-pretrained\t2.000e-04\tFAIL"
    assert err == "numerical error: gradient check exceeded 1e-4 relative error\n"
    assert not os.path.exists("runs.log")


_ONE_EVENT_VOCAB = ("#scriptcausal-vocab v1\t1\t1\n<unk>\t0\t0\n<s>\t1\t0\n"
                    "</s>\t2\t0\na:x\t3\t3\n")


def _chain_file(events):
    return json.dumps({"chain_id": "c", "events": events}) + "\n"


_THREE_A = _chain_file([{"pred": "a", "dep": "x"}] * 3)
_SCORE_BAD_VOCAB = ["score", "--itable", "t.bin", "--vocab", "bad", "--target", "a:x"]
_VOCAB_OF_BAD = ["vocab", "--input", "bad", "--output", "out"]
_SHEET_HEADER = "task_id\ttarget_event\tcandidate_event\thidden_system_key\tscore\n"


@pytest.mark.parametrize("files, argv, code, message", [
    ({"bad": _chain_file(3)}, _VOCAB_OF_BAD, 2, "bad: line 1: events must be a list"),
    ({"bad": _chain_file([])}, _VOCAB_OF_BAD, 2, "bad: line 1: chain has no events"),
    ({"bad": _chain_file([{"pred": 3, "dep": "x"}])}, _VOCAB_OF_BAD, 2,
     "bad: line 1: pred, dep and fact must be strings"),
    ({"bad": _chain_file([{"pred": "a", "dep": "x", "oot": [["a:x", 7]]}])},
     _VOCAB_OF_BAD, 2, "bad: line 1: out-of-text rating 7 for 'a:x' outside [0, 4]"),
    ({"bad": "#scriptcausal-vocab v1\t1\n"}, _SCORE_BAD_VOCAB, 2,
     "bad: malformed vocabulary header"),
    ({"bad": _ONE_EVENT_VOCAB.replace("a:x\t3", "a:x\t4")}, _SCORE_BAD_VOCAB, 2,
     "bad: vocabulary line 5: non-dense id 4"),
    ({"bad": _ONE_EVENT_VOCAB.replace("<unk>", "b:x")}, _SCORE_BAD_VOCAB, 2,
     "bad: vocabulary must list special keys first"),
    ({"bad": "task_id\tscore\n"}, ["score-summary", "--input", "bad"], 2,
     "bad: missing or malformed sheet header"),
    ({"bad": _SHEET_HEADER + "1\ta:x\ta:x\tlm\n"}, ["score-summary", "--input", "bad"],
     2, "bad: sheet line 2: wrong column count"),
    ({"bad": "lm\ta:x\nlm\n"}, ["diversity", "--input", "bad"], 2,
     "bad: emissions line 2: expected 'system\\tevent'"),
    ({"v.tsv": _ONE_EVENT_VOCAB, "bad": "#scriptcausal-itable v1 4 0 0\n"},
     ["score", "--itable", "bad", "--vocab", "v.tsv", "--target", "a:x"], 2,
     "bad: malformed intervention table header"),
    ({"c.jsonl": _THREE_A, "cfg.json": '{"ratios": [1.0, 0.0, 0.0]}'},
     ["--config", "cfg.json", "split", "--input", "c.jsonl", "--train", "out",
      "--dev", "dv", "--test", "te"], 1, "split ratios must be positive"),
    ({"c.jsonl": _THREE_A, "v.tsv": _ONE_EVENT_VOCAB},
     ["cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv", "--output", "out"], 1,
     "no systems given: pass --lm, --itable, and/or --counts"),
    ({"c.jsonl": _THREE_A, "v.tsv": _ONE_EVENT_VOCAB,
      "cnt.tsv": "#scriptcausal-counts v1\t2\t3\na:x\ta:x\t3\n",
      "cfg.json": '{"cutoffs": [-1], "cloze_count": 1}'},
     ["--config", "cfg.json", "cloze", "--corpus", "c.jsonl", "--vocab", "v.tsv",
      "--counts", "cnt.tsv", "--output", "out"], 1, "cutoff must be >= 0"),
], ids=["events-not-a-list", "no-events", "pred-not-a-string", "rating-7",
        "vocab-header", "vocab-id-gap", "vocab-specials-last", "sheet-header",
        "sheet-columns", "emissions-line", "itable-header-3-fields",
        "split-ratio-0", "cloze-no-system", "negative-cutoff"])
def test_bad_input_is_a_clean_exit(workdir, capsys, files, argv, code, message):
    """Each malformed input or setting ends in its exit code (1 config, 2
    data) with one message line naming the fault, and no output."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    assert run(*argv) == code
    prefix = "data error" if code == 2 else "error"
    assert capsys.readouterr().err == f"{prefix}: {message}\n"
    assert not os.path.exists("out")


# every command that reads a file, with each of its inputs present; a
# command that takes either of two inputs appears once with each
_READERS = [
    "ingest --input c.jsonl --output out",
    "split --input c.jsonl --train out --dev out2 --test out3",
    "vocab --input c.jsonl --output out",
    "count-pmi --input c.jsonl --vocab v.tsv --output out",
    "train-lm --train c.jsonl --dev c.jsonl --vocab v.tsv --output out",
    "train-cond --train c.jsonl --dev c.jsonl --vocab v.tsv --output out",
    "finetune-cond --model m.bin --annotated c.jsonl --vocab v.tsv --output out",
    "estimate-do --model m.bin --corpus c.jsonl --vocab v.tsv --output out "
    "--tsv out2",
    "score --itable t.bin --vocab v.tsv --target step1:nsubj --output out",
    "complete --vocab v.tsv --itable t.bin step0:nsubj",
    "complete --vocab v.tsv --counts cnt.tsv step0:nsubj",
    "synth --cbn spec.json --n 2 --output out",
    "oracle --cbn spec.json --output out",
    "score-summary --input sheet.tsv --output out",
    "diversity --input e.tsv --output out",
    "cloze --corpus c.jsonl --vocab v.tsv --lm lm.bin --itable t.bin "
    "--counts cnt.tsv --output out",
    "sheet --vocab v.tsv --lm lm.bin --itable t.bin --counts cnt.tsv --output out",
]
_INPUTS = {"c.jsonl", "v.tsv", "m.bin", "t.bin", "cnt.tsv", "spec.json",
           "sheet.tsv", "e.tsv", "lm.bin"}
_MISSING_INPUT = {f"{words[0]} {flag}": words for words in map(str.split, _READERS)
                  for flag, path in zip(words, words[1:]) if path in _INPUTS}


@pytest.mark.parametrize("case", list(_MISSING_INPUT))
def test_a_missing_input_is_a_clean_exit(workdir, capsys, case):
    """An input path that does not exist ends in exit 1 and one line naming
    it, from the reader's own OSError: no traceback, no output file and no
    run-log line."""
    _counts(workdir)
    n = len(Vocabulary.load("v.tsv"))
    _model_files(n)
    causal.InterventionTable(np.full((n, n), 1.0 / n)).save("t.bin")
    synth.build_fixture("F-DET").save("spec.json")
    (workdir / "sheet.tsv").write_text(
        "task_id\ttarget_event\tcandidate_event\thidden_system_key\tscore\n"
        "0\tstep1:nsubj\tstep0:nsubj\tlm\t50\n")
    (workdir / "e.tsv").write_text("s\tstep0:nsubj\n")
    log = (workdir / "runs.log").read_text()
    argv = list(_MISSING_INPUT[case])
    argv[argv.index(case.split()[1]) + 1] = "nosuch"
    capsys.readouterr()
    assert run("--config", "cfg.json", *argv) == 1
    assert capsys.readouterr() == ("", "error: No such file or directory: nosuch\n")
    assert not any(os.path.exists(f) for f in ("out", "out2", "out3"))
    assert (workdir / "runs.log").read_text() == log


@pytest.mark.parametrize("name", ["m\nx.bin", "m\udcffx.bin"],
                         ids=["newline", "not-utf8"])
def test_a_model_id_the_table_header_cannot_hold_exit_code(workdir, capsys, name):
    """The table header records the model file's name as one line of UTF-8
    text; a name that is not one is refused before any table is written."""
    _model_files(_pipeline_inputs())
    os.rename("m.bin", name)
    capsys.readouterr()
    assert run("--config", "cfg.json", "estimate-do", "--model", name,
               "--corpus", "c.jsonl", "--vocab", "v.tsv", "--output", "t.bin",
               "--tsv", "t.tsv") == 1
    assert capsys.readouterr().err == (f"error: model id {name!r} is not one line "
                                       "of UTF-8 text\n")
    assert not any(os.path.exists(f) for f in ("t.bin", "t.tsv"))


@pytest.mark.parametrize("argv", [
    ["oracle", "--cbn", "spec.json", "--output", "out"],
    ["synth", "--cbn", "spec.json", "--n", "2", "--output", "out"],
    ["synth", "--cbn", "spec.json", "--n", "2", "--annotate", "--output", "out"],
], ids=["oracle-event-key", "synth-event-key", "synth-scenario-name"])
def test_a_cbn_key_no_chain_file_can_hold_exit_code(workdir, capsys, argv):
    """An event key or scenario name that a chain file cannot hold makes
    the spec malformed: exit 2 naming the file, and no output."""
    spec = json.dumps(synth.build_fixture("F-DET").to_dict())
    if "--annotate" in argv:
        spec = spec.replace('"cycle"', '"sad film"')
    else:
        spec = spec.replace('"step0:nsubj"', json.dumps("bad\tkey:nsubj"))
    (workdir / "spec.json").write_text(spec)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: spec.json: malformed CBN spec: event ")
    assert err.endswith(" contains whitespace\n") and err.count("\n") == 1
    assert not os.path.exists("out")
