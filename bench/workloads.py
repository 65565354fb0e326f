"""The three benchmark workloads: which CLI stages build the inputs, which
are timed, and with what settings.

Each workload stresses a different layer of the pipeline:

* popcorn-train: the conditional model's training loop (GRU forward and
  backward at batch 512, Adam) on a 13-id vocabulary; estimation is cheap.
* zipf-estimate: the plug-in estimator, one GRU step at batch N per do-row
  over a 343-id vocabulary, so its cost grows as V^2 N.
* zipf-eval: cloze and sheet evaluation, LM inference at batch 1 and
  ranking in Python loops.

Sizes are chosen so that one untraced run, with its three set-ups, stays
near 40 s on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import reference as R

SPEC_FILE = "zipf-spec.json"

# Settings shared by every stage of a workload, written to cfg.json.
# patience >= max_epochs keeps every epoch: early stopping would make the
# amount of work depend on the seed.
POPCORN_CONFIG = {"emb_dim": 32, "hidden_dim": 64, "lr": 0.003,
                  "finetune_lr": 0.001, "max_epochs": 3, "patience": 3,
                  "batch_size": 512, "min_count": 1, "topk": 10}

ZIPF_CONFIG = {"emb_dim": 32, "hidden_dim": 64, "lr": 0.003, "max_epochs": 1,
               "patience": 3, "batch_size": 512, "min_count": 1,
               "lm_emb_dim": 32, "lm_hidden_dim": 64, "lm_layers": 2,
               "lm_batch_size": 64, "cutoffs": [0, 50, 100, 150, 200],
               "recall_n": 100, "exclude_top": 20, "topk": 10,
               "sheet_targets": 25, "per_system": 2}

POPCORN_CHAINS = 10000
POPCORN_ADJUSTMENT_N = 2000
ZIPF_ESTIMATE_CHAINS = 1700
ZIPF_EVAL_CHAINS = 1000
ZIPF_TARGET = "s00e01:nsubj"


def instance_count(path) -> int:
    """Conditional-model instances in a chain file: one per event after the
    first of each chain."""
    return sum(len(chain) - 1 for chain in R.read_chains(path))


def cloze_pool_size(workdir) -> int:
    """Cloze candidates in te.jsonl: split points whose answer is in the
    training vocabulary."""
    keys, _ = R.read_vocab(workdir / "v.tsv")
    return len(R.cloze_pool(R.to_ids(R.read_chains(workdir / "te.jsonl"), keys)))


@dataclass
class Stage:
    """One CLI invocation; ``argv`` may depend on files made before it."""

    name: str
    argv: list | Callable
    outputs: list = field(default_factory=list)

    def args(self, workdir) -> list[str]:
        return list(self.argv(workdir) if callable(self.argv) else self.argv)


@dataclass
class Workload:
    name: str
    why: str
    config: dict
    setup: list
    timed: list
    target: str
    needs_spec: bool = False


def _synth(source, n, *extra):
    return Stage("synth", ["synth", *source, "--n", str(n), *extra,
                           "--output", "c.jsonl"], ["c.jsonl"])


_SPLIT = Stage("split", ["split", "--input", "c.jsonl", "--train", "tr.jsonl",
                         "--dev", "dv.jsonl", "--test", "te.jsonl"],
               ["tr.jsonl", "dv.jsonl", "te.jsonl"])
_VOCAB = Stage("vocab", ["vocab", "--input", "tr.jsonl", "--output", "v.tsv"],
               ["v.tsv"])
_TRAIN_COND = Stage("train-cond", ["train-cond", "--train", "tr.jsonl", "--dev",
                                   "dv.jsonl", "--vocab", "v.tsv",
                                   "--output", "m.bin"], ["m.bin"])


def _estimate(model, adjustment_n):
    return Stage("estimate-do", lambda d: [
        "estimate-do", "--model", model, "--corpus", "dv.jsonl", "--vocab",
        "v.tsv", "--output", "t.bin", "--tsv", "t.tsv",
        "--adjustment-n", str(adjustment_n(d))], ["t.bin", "t.tsv"])


def _score(target, *extra):
    return Stage("score", ["score", "--itable", "t.bin", "--vocab", "v.tsv",
                           "--target", target, *extra, "--output", "s.tsv"],
                 ["s.tsv"])


POPCORN_TRAIN = Workload(
    "popcorn-train",
    "training layer: GRU forward/backward and Adam at batch 512 dominate",
    POPCORN_CONFIG,
    setup=[_synth(["--fixture", "F-POPCORN"], POPCORN_CHAINS, "--annotate"),
           _SPLIT, _VOCAB],
    timed=[_TRAIN_COND,
           Stage("finetune-cond", ["finetune-cond", "--model", "m.bin",
                                   "--annotated", "tr.jsonl", "--vocab", "v.tsv",
                                   "--output", "ft.bin"], ["ft.bin"]),
           Stage("estimate-do", ["estimate-do", "--model", "ft.bin", "--corpus",
                                 "tr.jsonl", "--vocab", "v.tsv", "--output",
                                 "t.bin", "--tsv", "t.tsv", "--adjustment-n",
                                 str(POPCORN_ADJUSTMENT_N)], ["t.bin", "t.tsv"]),
           # the default --exclude-top 20 would exclude all ten events
           _score("cry:nsubj", "--exclude-top", "0")],
    target="cry:nsubj",
)

ZIPF_ESTIMATE = Workload(
    "zipf-estimate",
    "plug-in estimator: one GRU step at batch N per do-row, V^2 N work",
    # a 10 % dev split holds about 1,500 adjustment contexts
    {**ZIPF_CONFIG, "ratios": [0.8, 0.1, 0.1]},
    setup=[_synth(["--cbn", SPEC_FILE], ZIPF_ESTIMATE_CHAINS), _SPLIT, _VOCAB,
           _TRAIN_COND],
    timed=[_estimate("m.bin", lambda d: instance_count(d / "dv.jsonl")),
           _score(ZIPF_TARGET)],
    target=ZIPF_TARGET,
    needs_spec=True,
)

ZIPF_EVAL = Workload(
    "zipf-eval",
    "evaluation: cloze and sheet ranking loops and batch-1 LM inference",
    # a 10 % test split holds about 880 cloze candidates
    {**ZIPF_CONFIG, "ratios": [0.85, 0.05, 0.1]},
    setup=[_synth(["--cbn", SPEC_FILE], ZIPF_EVAL_CHAINS), _SPLIT, _VOCAB,
           Stage("count-pmi", ["count-pmi", "--input", "tr.jsonl", "--vocab",
                               "v.tsv", "--output", "pmi.tsv"], ["pmi.tsv"]),
           Stage("train-lm", ["train-lm", "--train", "tr.jsonl", "--dev",
                              "dv.jsonl", "--vocab", "v.tsv",
                              "--output", "lm.bin"], ["lm.bin"]),
           _TRAIN_COND,
           _estimate("m.bin", lambda d: 200)],
    timed=[Stage("cloze", lambda d: [
               "cloze", "--corpus", "te.jsonl", "--vocab", "v.tsv", "--lm",
               "lm.bin", "--itable", "t.bin", "--counts", "pmi.tsv",
               "--cloze-count", str(cloze_pool_size(d)),
               "--output", "cloze.tsv"], ["cloze.tsv"]),
           Stage("sheet", ["sheet", "--vocab", "v.tsv", "--lm", "lm.bin",
                           "--itable", "t.bin", "--counts", "pmi.tsv",
                           "--output", "sheet.tsv"], ["sheet.tsv"])],
    target=ZIPF_TARGET,
    needs_spec=True,
)

WORKLOADS = {w.name: w for w in (POPCORN_TRAIN, ZIPF_ESTIMATE, ZIPF_EVAL)}
