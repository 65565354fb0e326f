"""The benchmark's layer tracer still fits the package.

``bench/tracing.py`` wraps the package's functions by name from outside,
so renaming or deleting one of them breaks the traced benchmark runs. This
test drives a small pipeline through ``cli.main`` with and without the
tracer and checks that the outputs match and that the named layers ran.
"""

import importlib
import json
from pathlib import Path

from scriptcausal import causal, cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

CFG = {"emb_dim": 8, "hidden_dim": 12, "lm_emb_dim": 8, "lm_hidden_dim": 12,
       "max_epochs": 1, "batch_size": 32, "lm_batch_size": 16, "min_count": 1,
       "adjustment_n": 40, "cloze_count": 20, "cutoffs": [0, 2],
       "sheet_targets": 3, "exclude_top": 2}

STAGES = (
    ("synth", "--fixture", "F-POPCORN", "--n", "40", "--annotate",
     "--output", "c.jsonl"),
    ("split", "--input", "c.jsonl", "--train", "tr.jsonl", "--dev", "dv.jsonl",
     "--test", "te.jsonl"),
    ("vocab", "--input", "tr.jsonl", "--output", "v.tsv"),
    ("count-pmi", "--input", "tr.jsonl", "--vocab", "v.tsv",
     "--output", "pmi.tsv"),
    ("train-lm", "--train", "tr.jsonl", "--dev", "dv.jsonl", "--vocab", "v.tsv",
     "--output", "lm.bin"),
    ("train-cond", "--train", "tr.jsonl", "--dev", "dv.jsonl",
     "--vocab", "v.tsv", "--output", "m.bin"),
    ("estimate-do", "--model", "m.bin", "--corpus", "tr.jsonl",
     "--vocab", "v.tsv", "--output", "t.bin", "--tsv", "t.tsv"),
    ("cloze", "--corpus", "tr.jsonl", "--vocab", "v.tsv", "--lm", "lm.bin",
     "--itable", "t.bin", "--counts", "pmi.tsv", "--output", "cloze.tsv"),
    ("sheet", "--vocab", "v.tsv", "--lm", "lm.bin", "--itable", "t.bin",
     "--counts", "pmi.tsv", "--output", "sheet.tsv"),
)

OUTPUTS = ("c.jsonl", "tr.jsonl", "v.tsv", "pmi.tsv", "lm.bin", "m.bin",
           "t.bin", "t.tsv", "cloze.tsv", "sheet.tsv")


def _pipeline(d, monkeypatch):
    d.mkdir()
    monkeypatch.chdir(d)
    (d / "cfg.json").write_text(json.dumps(CFG))
    for stage in STAGES:
        assert cli.main(["--config", "cfg.json", "--seed", "3", *stage]) == 0, stage
    return {name: (d / name).read_bytes() for name in OUTPUTS}


def test_traced_pipeline_matches_untraced(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    plain = _pipeline(tmp_path / "plain", monkeypatch)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = _pipeline(tmp_path / "traced", monkeypatch)
    finally:
        uninstall()
    for name in OUTPUTS:
        assert traced[name] == plain[name], name
    for name in ("causal.pack", "evaluation.rank", "evaluation.pair_score",
                 "kernel.adam_update", "kernel.gru_forward",
                 "causal.train_conditional", "baselines.train_event_lm"):
        assert tracer.calls(name) > 0, name
    assert not hasattr(causal.train_conditional, "__wrapped__")
