"""Command-line entry point orchestrating every pipeline stage.

Configuration precedence: command-line flags > JSON config file (--config)
> built-in defaults. Defaults carry the reference training settings
(conditional lr 0.001 / finetune lr 1e-5, gradient clip 10, batches 512 and
64, patience 3, skip window 2, history window 10, 2000 adjustment samples,
cloze cutoffs 0/50/100/125/150/200/500 with Recall@100).

Exit codes: 0 success, 1 usage/config error, 2 data-format error,
3 numerical failure. Every successful run appends a manifest line
(command, config hash, seed, output paths) to the run log.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import baselines, causal, evaluation, kernel, synth
from .corpus import (TokenVocab, build_token_vocab, build_vocab_from,
                     load_chains, split_corpus, write_chains)
from .errors import ConfigError, DataFormatError, NumericalError
from .events import NUM_SPECIALS, Vocabulary, frequency_rank

DEFAULTS = {
    "seed": 0,
    "threads": 1,            # accepted and ignored
    "run_log": "runs.log",
    "min_count": 10,
    "ratios": [0.9, 0.05, 0.05],
    "window": 2,             # PMI skip-bigram window
    "history_window": 10,
    "oot_threshold": 3,
    "adjustment_n": 2000,
    "emb_dim": 300,
    "hidden_dim": 300,
    "text_mode": "mean",
    "lm_emb_dim": 300,
    "lm_hidden_dim": 512,
    "lm_layers": 2,
    "lm_dropout": 0.1,
    "lr": 0.001,
    "lr_schedule": None,
    "finetune_lr": 1e-5,
    "clip_norm": 10.0,
    "batch_size": 512,
    "lm_batch_size": 64,
    "patience": 3,
    "max_epochs": 30,
    "cutoffs": [0, 50, 100, 125, 150, 200, 500],
    "recall_n": 100,
    "cloze_count": 2000,
    "sheet_targets": 150,
    "per_system": 2,
    "exclude_top": 20,
    "topk": 10,
    "factual_only": False,
}

COMMANDS = ("ingest", "split", "vocab", "count-pmi", "train-lm", "train-cond",
            "finetune-cond", "estimate-do", "score", "complete", "synth",
            "oracle", "cloze", "sheet", "score-summary", "diversity",
            "gradcheck")


class RunConfig:
    """Effective settings: CLI > config file > defaults."""

    def __init__(self, config_path=None, overrides=None):
        self.values = dict(DEFAULTS)
        if config_path:
            if not os.path.exists(config_path):
                raise ConfigError(f"config file not found: {config_path}")
            with open(config_path, encoding="utf-8") as f:
                try:
                    loaded = json.load(f)
                except json.JSONDecodeError as e:
                    raise DataFormatError(f"config file is not valid JSON: {e}") from e
            for key, value in loaded.items():
                if key not in DEFAULTS:
                    raise ConfigError(f"unknown config key {key!r}")
                self.values[key] = value
        for key, value in (overrides or {}).items():
            if value is not None:
                self.values[key] = value

    def __getitem__(self, key):
        return self.values[key]

    def hash(self) -> str:
        blob = json.dumps(self.values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _require(path, what):
    if path is None:
        raise ConfigError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _write_manifest(cfg: RunConfig, command: str, outputs):
    line = json.dumps({"command": command, "config_hash": cfg.hash(),
                       "seed": cfg["seed"], "outputs": list(outputs)},
                      sort_keys=True, separators=(",", ":"))
    with open(cfg["run_log"], "a", encoding="utf-8") as f:
        f.write(line + "\n")


def _load_cbn(args):
    if args.fixture:
        return synth.build_fixture(args.fixture)
    path = _require(args.cbn, "CBN spec file")
    return synth.SyntheticCBN.load(path)


def _cond_config(cfg: RunConfig, seed):
    return {"emb_dim": cfg["emb_dim"], "hidden_dim": cfg["hidden_dim"],
            "text_mode": cfg["text_mode"], "history_window": cfg["history_window"],
            "oot_threshold": cfg["oot_threshold"], "lr": cfg["lr"],
            "lr_schedule": cfg["lr_schedule"], "finetune_lr": cfg["finetune_lr"],
            "clip_norm": cfg["clip_norm"], "batch_size": cfg["batch_size"],
            "patience": cfg["patience"], "max_epochs": cfg["max_epochs"],
            "seed": seed}


def _instances(corpus_path, vocab, cfg, with_tokens=False):
    corpus = load_chains(corpus_path)
    token_vocab = build_token_vocab(corpus) if with_tokens else None
    return causal.extract_training_instances(
        corpus, vocab, token_vocab, cfg["oot_threshold"], cfg["history_window"]), token_vocab


# ---------------------------------------------------------------------------
# command implementations


def cmd_ingest(cfg, args):
    corpus = load_chains(_require(args.input, "chain file"),
                         factual_only=cfg["factual_only"])
    write_chains(corpus, args.output)
    return [args.output]


def cmd_split(cfg, args):
    corpus = load_chains(_require(args.input, "chain file"))
    parts = split_corpus(corpus, cfg["ratios"], cfg["seed"])
    outputs = [args.train, args.dev, args.test]
    for part, path in zip(parts, outputs):
        write_chains(part, path)
    return outputs


def cmd_vocab(cfg, args):
    corpus = load_chains(_require(args.input, "chain file"))
    vocab = build_vocab_from(corpus, cfg["min_count"])
    vocab.save(args.output)
    return [args.output]


def cmd_count_pmi(cfg, args):
    corpus = load_chains(_require(args.input, "chain file"))
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    counts = baselines.count_skip_bigrams(corpus, vocab, cfg["window"])
    baselines.save_counts(counts, vocab, args.output)
    return [args.output]


def cmd_train_lm(cfg, args):
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    train = load_chains(_require(args.train, "training chain file"))
    dev = load_chains(_require(args.dev, "dev chain file"))
    lm_config = {"emb_dim": cfg["lm_emb_dim"], "hidden_dim": cfg["lm_hidden_dim"],
                 "num_layers": cfg["lm_layers"], "dropout": cfg["lm_dropout"],
                 "lr": cfg["lr"], "clip_norm": cfg["clip_norm"],
                 "batch_size": cfg["lm_batch_size"], "patience": cfg["patience"],
                 "max_epochs": cfg["max_epochs"], "seed": cfg["seed"]}
    lm = baselines.train_event_lm(train, dev, vocab, lm_config,
                                  log=lambda m: print(m, file=sys.stderr))
    lm.save(args.output)
    return [args.output]


def cmd_train_cond(cfg, args):
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    train_inst, token_vocab = _instances(
        _require(args.train, "training chain file"), vocab, cfg, with_tokens=True)
    dev_inst, _ = _instances(_require(args.dev, "dev chain file"), vocab, cfg)
    model = causal.train_conditional(
        train_inst, dev_inst, len(vocab), len(token_vocab),
        _cond_config(cfg, cfg["seed"]), log=lambda m: print(m, file=sys.stderr))
    model.save(args.output)
    return [args.output]


def cmd_finetune_cond(cfg, args):
    model = causal.ConditionalModel.load(
        _require(args.model, "pretrained conditional model"))
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    annotated, _ = _instances(
        _require(args.annotated, "annotated chain file"), vocab, cfg)
    annotated = [(t, c) for t, c in annotated if c.oot_events]
    tuned = causal.finetune_with_oot(
        model, annotated, {"finetune_lr": cfg["finetune_lr"],
                           "max_epochs": cfg["max_epochs"], "seed": cfg["seed"]},
        log=lambda m: print(m, file=sys.stderr))
    tuned.save(args.output)
    return [args.output]


def cmd_estimate_do(cfg, args):
    model = causal.ConditionalModel.load(
        _require(args.model, "trained conditional model"))
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    instances, _ = _instances(
        _require(args.corpus, "adjustment-sample chain file"), vocab, cfg)
    adjustment = causal.sample_adjustment_set(
        [c for _, c in instances], cfg["adjustment_n"], cfg["seed"])
    table = causal.estimate_interventions(
        model, adjustment, model_id=os.path.basename(args.model))
    table.save(args.output)
    outputs = [args.output]
    if args.tsv:
        table.export_tsv(args.tsv, vocab)
        outputs.append(args.tsv)
    return outputs


def cmd_score(cfg, args):
    table = causal.InterventionTable.load(
        _require(args.itable, "intervention table"))
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    rank = frequency_rank(vocab)
    target = vocab.id_of(args.target)
    preds = causal.top_predecessors(table, target, cfg["topk"],
                                    cfg["exclude_top"], rank)
    S = causal.script_score_matrix(table)
    lines = [f"{vocab.key_of(k)}\t{S[k, target]:.6f}" for k in preds]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        return [args.output]
    sys.stdout.write(text)
    return []


def cmd_complete(cfg, args):
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    rank = frequency_rank(vocab)
    context = [vocab.id_of(k) for k in args.context]
    if args.itable:
        table = causal.InterventionTable.load(_require(args.itable, "intervention table"))
        S = causal.script_score_matrix(table)
        score_fn = lambda k, l: S[k, l]
    elif args.counts:
        counts = baselines.load_counts(_require(args.counts, "PMI counts file"), vocab)
        score_fn = baselines.pmi_pair_scorer(counts)
    else:
        raise ConfigError("complete requires --itable or --counts")
    choice = causal.complete_chain(score_fn, context, cfg["exclude_top"], rank,
                                   vocab_size=len(vocab))
    print(vocab.key_of(choice))
    return []


def cmd_synth(cfg, args):
    cbn = _load_cbn(args)
    corpus = cbn.sample_chains(args.n, cfg["seed"],
                               annotate_scenario=args.annotate)
    write_chains(corpus, args.output)
    return [args.output]


def cmd_oracle(cfg, args):
    cbn = _load_cbn(args)
    with open(args.output, "w", encoding="utf-8") as f:
        f.write("do_event\t" + "\t".join(cbn.event_keys) + "\n")
        for k, key in enumerate(cbn.event_keys):
            row = cbn.exact_do_distribution(k)
            f.write(key + "\t" + "\t".join(repr(float(x)) for x in row) + "\n")
    return [args.output]


def _cloze_systems(cfg, args, vocab, rank):
    systems = {}
    if args.lm:
        lm = baselines.EventLM.load(_require(args.lm, "LM model file"))
        systems["lm"] = evaluation.lm_ranker(lm)
    if args.itable:
        table = causal.InterventionTable.load(_require(args.itable, "intervention table"))
        S = causal.script_score_matrix(table)
        systems["causal"] = causal.mean_score_ranker(S)
    if args.counts:
        counts = baselines.load_counts(_require(args.counts, "PMI counts file"), vocab)
        M = np.full((len(vocab), len(vocab)), -np.inf)
        for (e1, e2) in counts.pair_counts:
            M[e1, e2] = baselines.ordered_pmi(counts, e1, e2)
        systems["pmi"] = causal.mean_score_ranker(M)
    if not systems:
        raise ConfigError("no systems given: pass --lm, --itable, and/or --counts")
    return systems


def cmd_cloze(cfg, args):
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    rank = frequency_rank(vocab)
    corpus = load_chains(_require(args.corpus, "test chain file"))
    systems = _cloze_systems(cfg, args, vocab, rank)
    instances = evaluation.make_cloze_set(corpus, vocab, cfg["cloze_count"],
                                          cfg["seed"])
    report = evaluation.run_infrequent_cloze(systems, instances, rank,
                                             cfg["cutoffs"], cfg["recall_n"])
    report.save(args.output)
    return [args.output]


def cmd_sheet(cfg, args):
    vocab = Vocabulary.load(_require(args.vocab, "vocabulary file"))
    rank = frequency_rank(vocab)
    systems = {}
    if args.lm:
        lm = baselines.EventLM.load(_require(args.lm, "LM model file"))
        systems["lm"] = evaluation.lm_pair_scorer(lm)
    if args.itable:
        table = causal.InterventionTable.load(_require(args.itable, "intervention table"))
        S = causal.script_score_matrix(table)
        systems["causal"] = lambda k, l: S[k, l]
    if args.counts:
        counts = baselines.load_counts(_require(args.counts, "PMI counts file"), vocab)
        systems["pmi"] = baselines.pmi_pair_scorer(counts)
    if not systems:
        raise ConfigError("no systems given: pass --lm, --itable, and/or --counts")
    rng = np.random.default_rng(cfg["seed"])
    pool = [i for i in vocab.event_ids()]
    n_targets = min(cfg["sheet_targets"], len(pool))
    targets = sorted(int(i) for i in rng.choice(pool, size=n_targets, replace=False))
    rows = evaluation.pairwise_sheet(systems, targets, vocab, rank,
                                     cfg["per_system"], cfg["exclude_top"],
                                     cfg["seed"])
    with open(args.output, "w", encoding="utf-8") as f:
        f.write(evaluation.sheet_to_tsv(rows))
    return [args.output]


def cmd_score_summary(cfg, args):
    with open(_require(args.input, "filled sheet"), encoding="utf-8") as f:
        rows = evaluation.parse_sheet_tsv(f.read())
    summary = evaluation.score_summary(rows)
    lines = ["system\tavg_score\tavg_rank\tcount"]
    for system in sorted(summary):
        s = summary[system]
        lines.append(f"{system}\t{s['avg_score']:.2f}\t{s['avg_rank']:.2f}"
                     f"\t{s['count']}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        return [args.output]
    sys.stdout.write(text)
    return []


def cmd_diversity(cfg, args):
    emissions = {}
    with open(_require(args.input, "emissions file"), encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError(
                    f"emissions line {lineno}: expected 'system\\tevent'")
            emissions.setdefault(parts[0], []).append(parts[1])
    report = evaluation.diversity_report(emissions)
    lines = ["system\ttotal\tdistinct\tpct_new\ttop1\ttop1_pct\ttop2\ttop2_pct"]
    for system in sorted(report):
        st = report[system]
        tops = st.top2 + [("", 0.0)] * (2 - len(st.top2))
        lines.append(f"{system}\t{st.total}\t{st.distinct}\t{st.pct_new:.1f}"
                     f"\t{tops[0][0]}\t{tops[0][1]:.1f}"
                     f"\t{tops[1][0]}\t{tops[1][1]:.1f}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
        return [args.output]
    sys.stdout.write(text)
    return []


def cmd_gradcheck(cfg, args):
    rng = np.random.default_rng(cfg["seed"])
    results = {}
    lm = baselines.EventLM(10, {"emb_dim": 6, "hidden_dim": 7, "num_layers": 2,
                                "dropout": 0.0, "seed": cfg["seed"]})
    seqs = [list(rng.integers(3, 10, size=rng.integers(1, 6))) for _ in range(10)]
    inputs, targets, mask = lm._pad_batch(seqs)
    results["event-lm"] = kernel.finite_diff_check(
        lambda p: lm._loss_and_grads(p, inputs, targets, mask), lm.params,
        rng=np.random.default_rng(cfg["seed"]))
    for mode in ("mean", "cnn"):
        for phase in ("pretrained", "finetuned"):
            m = causal.ConditionalModel(
                12, 7, {"emb_dim": 5, "hidden_dim": 8, "text_mode": mode,
                        "seed": cfg["seed"]}, phase=phase)
            if phase == "finetuned":
                m.params["W_O"] = rng.normal(size=m.params["W_O"].shape) * 0.1
            batch = []
            for _ in range(10):
                ctx = causal.ConditionalContext(
                    int(rng.integers(3, 12)),
                    list(rng.integers(3, 12, size=rng.integers(0, 6))),
                    list(rng.integers(0, 7, size=rng.integers(0, 5))),
                    list(rng.integers(3, 12, size=rng.integers(0, 3))))
                batch.append((int(rng.integers(3, 12)), ctx))
            ctxs = [c for _, c in batch]
            tgts = [t for t, _ in batch]
            results[f"conditional-{mode}-{phase}"] = kernel.finite_diff_check(
                lambda p: m._loss_and_grads(p, ctxs, tgts), m.params,
                rng=np.random.default_rng(cfg["seed"]))
    failed = False
    for name, err in results.items():
        status = "ok" if err < 1e-4 else "FAIL"
        if err >= 1e-4:
            failed = True
        print(f"{name}\t{err:.3e}\t{status}")
    if failed:
        raise NumericalError("gradient check exceeded 1e-4 relative error")
    return []


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scriptcausal",
        description="Script induction via intervention-based causal effects.")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="global random seed")
    parser.add_argument("--threads", type=int,
                        help="accepted and ignored; BLAS threads follow "
                             "OPENBLAS_NUM_THREADS")
    sub = parser.add_subparsers(dest="command")

    def add(name, **kw):
        p = sub.add_parser(name, **kw)
        return p

    p = add("ingest", help="normalize a chain file (optional factuality filter)")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--factual-only", dest="factual_only", action="store_true",
                   default=None)

    p = add("split", help="train/dev/test split of a chain file")
    p.add_argument("--input", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--test", required=True)

    p = add("vocab", help="build a vocabulary from a chain file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-count", dest="min_count", type=int)

    p = add("count-pmi", help="ordered skip-bigram counts")
    p.add_argument("--input", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--window", type=int)

    p = add("train-lm", help="train the event-sequence LM baseline")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = add("train-cond", help="pretrain the conditional model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = add("finetune-cond", help="finetune with out-of-text annotations")
    p.add_argument("--model", required=True)
    p.add_argument("--annotated", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)

    p = add("estimate-do", help="estimate the intervention table")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True,
                   help="chain file supplying adjustment-set contexts")
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--tsv", help="optional TSV export for inspection")
    p.add_argument("--adjustment-n", dest="adjustment_n", type=int)

    p = add("score", help="top predecessors of a target event")
    p.add_argument("--itable", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--target", required=True, help="event key, e.g. cry:nsubj")
    p.add_argument("--topk", type=int)
    p.add_argument("--exclude-top", dest="exclude_top", type=int)
    p.add_argument("--output")

    p = add("complete", help="chain completion by mean pairwise score")
    p.add_argument("--vocab", required=True)
    p.add_argument("--itable")
    p.add_argument("--counts")
    p.add_argument("--exclude-top", dest="exclude_top", type=int)
    p.add_argument("context", nargs="+", help="context event keys")

    p = add("synth", help="sample a synthetic corpus")
    p.add_argument("--fixture", choices=synth.FIXTURE_NAMES)
    p.add_argument("--cbn", help="CBN spec file (alternative to --fixture)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--annotate", action="store_true",
                   help="expose the scenario on the out-of-text channel")
    p.add_argument("--output", required=True)

    p = add("oracle", help="exact do-distributions of a CBN")
    p.add_argument("--fixture", choices=synth.FIXTURE_NAMES)
    p.add_argument("--cbn")
    p.add_argument("--output", required=True)

    p = add("cloze", help="infrequent narrative cloze report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm")
    p.add_argument("--itable")
    p.add_argument("--counts")
    p.add_argument("--output", required=True)
    p.add_argument("--cloze-count", dest="cloze_count", type=int)
    p.add_argument("--recall-n", dest="recall_n", type=int)

    p = add("sheet", help="pairwise abductive task sheet")
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm")
    p.add_argument("--itable")
    p.add_argument("--counts")
    p.add_argument("--output", required=True)
    p.add_argument("--sheet-targets", dest="sheet_targets", type=int)
    p.add_argument("--exclude-top", dest="exclude_top", type=int)

    p = add("score-summary", help="aggregate a filled-in sheet")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = add("diversity", help="output-diversity statistics")
    p.add_argument("--input", required=True,
                   help="TSV of system<TAB>event lines in emission order")
    p.add_argument("--output")

    add("gradcheck", help="finite-difference certification of all gradients")
    return parser


_HANDLERS = {
    "ingest": cmd_ingest, "split": cmd_split, "vocab": cmd_vocab,
    "count-pmi": cmd_count_pmi, "train-lm": cmd_train_lm,
    "train-cond": cmd_train_cond, "finetune-cond": cmd_finetune_cond,
    "estimate-do": cmd_estimate_do, "score": cmd_score,
    "complete": cmd_complete, "synth": cmd_synth, "oracle": cmd_oracle,
    "cloze": cmd_cloze, "sheet": cmd_sheet, "score-summary": cmd_score_summary,
    "diversity": cmd_diversity, "gradcheck": cmd_gradcheck,
}

_CONFIG_KEYS = set(DEFAULTS)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_KEYS}
    try:
        cfg = RunConfig(args.config, overrides)
        outputs = _HANDLERS[args.command](cfg, args)
        _write_manifest(cfg, args.command, outputs)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
