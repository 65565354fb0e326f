"""The benchmark's own output checks pass on a small pipeline.

``bench/checks.py`` judges the zipf workloads' artifacts against
``bench/reference.py``: the estimator's do-rows, the score listing, every
cloze recall and every sheet pick. This test lays out a small F-POPCORN
pipeline as those workloads do, runs it through ``cli.main`` and requires
every check to hold, so a change to the estimator or the evaluation that
moves an artifact away from the reference fails in tier 1.
"""

import importlib
import json
from pathlib import Path

from scriptcausal import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

CFG = {"emb_dim": 8, "hidden_dim": 12, "lm_emb_dim": 8, "lm_hidden_dim": 12,
       "lm_layers": 2, "lm_batch_size": 16, "max_epochs": 1, "batch_size": 64,
       "min_count": 1, "ratios": [0.8, 0.1, 0.1], "cutoffs": [0, 2, 4],
       "recall_n": 3, "exclude_top": 2, "topk": 4, "sheet_targets": 5,
       "per_system": 2}

TARGET = "cry:nsubj"


def _run(*stage):
    assert cli.main(["--config", "cfg.json", "--seed", "5", *stage]) == 0, stage


def test_small_pipeline_passes_the_zipf_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(CFG))
    _run("synth", "--fixture", "F-POPCORN", "--n", "300", "--output", "c.jsonl")
    _run("split", "--input", "c.jsonl", "--train", "tr.jsonl", "--dev", "dv.jsonl",
         "--test", "te.jsonl")
    _run("vocab", "--input", "tr.jsonl", "--output", "v.tsv")
    _run("count-pmi", "--input", "tr.jsonl", "--vocab", "v.tsv", "--output", "pmi.tsv")
    _run("train-lm", "--train", "tr.jsonl", "--dev", "dv.jsonl", "--vocab", "v.tsv",
         "--output", "lm.bin")
    _run("train-cond", "--train", "tr.jsonl", "--dev", "dv.jsonl", "--vocab", "v.tsv",
         "--output", "m.bin")
    _run("estimate-do", "--model", "m.bin", "--corpus", "dv.jsonl", "--vocab", "v.tsv",
         "--output", "t.bin", "--tsv", "t.tsv", "--adjustment-n",
         str(workloads.instance_count(tmp_path / "dv.jsonl")))
    _run("score", "--itable", "t.bin", "--vocab", "v.tsv", "--target", TARGET,
         "--output", "s.tsv")
    pool = workloads.cloze_pool_size(tmp_path)
    assert pool > 2 * CFG["cutoffs"][-1]
    _run("cloze", "--corpus", "te.jsonl", "--vocab", "v.tsv", "--lm", "lm.bin",
         "--itable", "t.bin", "--counts", "pmi.tsv", "--cloze-count", str(pool),
         "--output", "cloze.tsv")
    _run("sheet", "--vocab", "v.tsv", "--lm", "lm.bin", "--itable", "t.bin",
         "--counts", "pmi.tsv", "--output", "sheet.tsv")

    # F-POPCORN has fewer events than the do-rows check samples: judge them all
    keys, _ = checks.R.read_vocab(tmp_path / "v.tsv")
    monkeypatch.setattr(checks, "SAMPLED_ROWS", len(keys))
    wl = workloads.Workload("popcorn-as-zipf", "", CFG, [], [], TARGET)
    results = {**checks.check_zipf_estimate(tmp_path, wl, 5, None),
               **checks.check_zipf_eval(tmp_path, wl, 5, None)}
    assert len(results) == 6
    for name, (ok, detail) in results.items():
        assert ok, (name, detail)
