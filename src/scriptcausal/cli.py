"""Command-line entry point orchestrating every pipeline stage.

Configuration precedence: command-line flags > JSON config file (--config)
> the defaults of ``config.TABLE``.

Exit codes: 0 success, 1 usage/config error (a request too large for
memory included), 2 data-format error, 3 numerical failure. Every
successful run appends a manifest line (command, config hash, seed,
output paths) to the run log.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import json
import os
import sys

import numpy as np

# the model, generator and evaluation modules load in the commands that use them
from .config import RUN_KEYS, TABLE, RunConfig, same
from .corpus import (build_token_vocab, build_vocab_from, load_chains,
                     split_corpus, write_chains)
from .errors import (ConfigError, DataFormatError, NumericalError, open_input,
                     open_output)
from .events import NUM_SPECIALS, Vocabulary, frequency_rank


def _write_manifest(cfg: RunConfig, command: str, outputs):
    line = json.dumps({"command": command, "config_hash": cfg.hash(),
                       "seed": cfg["seed"], "outputs": list(outputs)},
                      sort_keys=True, separators=(",", ":"))
    with open_output(cfg["run_log"], "a") as f:
        f.write(line + "\n")


def _emit(text, output):
    """Write ``text`` to the file ``output``, or to stdout when None; returns
    the outputs written."""
    if output is None:
        sys.stdout.write(text)
        return []
    with open_output(output) as f:
        f.write(text)
    return [output]


def _load_cbn(args):
    from . import synth
    if bool(args.fixture) == bool(args.cbn):
        raise ConfigError(f"{args.command} needs one network: pass either "
                          "--fixture or --cbn")
    if args.fixture:
        return synth.build_fixture(args.fixture)
    return synth.SyntheticCBN.load(args.cbn)


def _check_vocab_size(what, size, vocab):
    """A model or table indexes events by id, so its size must be the
    vocabulary's."""
    if size != len(vocab):
        raise DataFormatError(f"{what} has {size} event ids but the "
                              f"vocabulary has {len(vocab)}")


def _load_itable(args, vocab):
    from . import causal
    table = causal.InterventionTable.load(args.itable)
    _check_vocab_size("the intervention table", len(table.effect), vocab)
    return table


def _known_id(vocab, key, what):
    """The id of event ``key``; a ConfigError naming it as ``what`` when
    the vocabulary lacks it or it is a special key."""
    idx = vocab.id_of(key)   # UNK_ID for a key the vocabulary lacks
    if idx < NUM_SPECIALS:
        raise ConfigError(f"{what} {key!r} is not in the vocabulary's events")
    return idx


def _instances(corpus, vocab, settings):
    """Instances whose text ``settings``'s tokens encode, cut by its
    oot_threshold and history_window: the settings of the model that is
    trained or read."""
    from . import causal
    return causal.extract_training_instances(
        corpus, vocab, settings["tokens"], settings["oot_threshold"],
        settings["history_window"])


# ---------------------------------------------------------------------------
# command implementations


def cmd_ingest(cfg, args):
    corpus = load_chains(args.input, factual_only=cfg["factual_only"])
    write_chains(corpus, args.output)
    return [args.output]


def cmd_split(cfg, args):
    if len(cfg["ratios"]) != 3:   # one per output file
        raise ConfigError("config key 'ratios' must hold 3 ratios (train, dev, "
                          f"test), got {len(cfg['ratios'])}")
    corpus = load_chains(args.input)
    parts = split_corpus(corpus, cfg["ratios"], cfg["seed"])
    outputs = [args.train, args.dev, args.test]
    for part, path in zip(parts, outputs):
        write_chains(part, path)
    return outputs


def cmd_vocab(cfg, args):
    corpus = load_chains(args.input)
    vocab = build_vocab_from(corpus, cfg["min_count"])
    vocab.save(args.output)
    return [args.output]


def cmd_count_pmi(cfg, args):
    from . import baselines
    corpus = load_chains(args.input)
    vocab = Vocabulary.load(args.vocab)
    counts = baselines.count_skip_bigrams(corpus, vocab, cfg["window"])
    baselines.save_counts(counts, vocab, args.output)
    return [args.output]


def cmd_train_lm(cfg, args):
    from . import baselines
    vocab = Vocabulary.load(args.vocab)
    train = load_chains(args.train)
    dev = load_chains(args.dev)
    lm = baselines.train_event_lm(train, dev, vocab, cfg.slice(baselines.CONFIG_KEYS),
                                  log=lambda m: print(m, file=sys.stderr))
    lm.save(args.output)
    return [args.output]


def cmd_train_cond(cfg, args):
    from . import causal
    vocab = Vocabulary.load(args.vocab)
    train = load_chains(args.train)
    settings = {**cfg.slice(causal.CONFIG_KEYS), "tokens": build_token_vocab(train)}
    train_inst = _instances(train, vocab, settings)
    del train   # training reads only the instances
    dev_inst = _instances(load_chains(args.dev), vocab, settings)
    model = causal.train_conditional(train_inst, dev_inst, len(vocab), settings,
                                     log=lambda m: print(m, file=sys.stderr))
    model.save(args.output)
    return [args.output]


def cmd_finetune_cond(cfg, args):
    from . import causal
    model = causal.ConditionalModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    _check_vocab_size("the pretrained model", model.config["vocab_size"], vocab)
    annotated = _instances(load_chains(args.annotated), vocab, model.config)
    tuned = causal.finetune_with_oot(
        model, annotated, cfg.slice(same("finetune_lr max_epochs seed")),
        log=lambda m: print(m, file=sys.stderr))
    tuned.save(args.output)
    return [args.output]


def cmd_estimate_do(cfg, args):
    from . import causal
    model = causal.ConditionalModel.load(args.model)
    vocab = Vocabulary.load(args.vocab)
    _check_vocab_size("the conditional model", model.config["vocab_size"], vocab)
    instances = _instances(load_chains(args.corpus), vocab, model.config)
    table = causal.estimate_interventions(
        model, causal.sample_adjustment_set(instances, cfg["adjustment_n"],
                                            cfg["seed"]),
        model_id=os.path.basename(args.model))
    table.seed = cfg["seed"]
    table.save(args.output)
    outputs = [args.output]
    if args.tsv:
        table.export_tsv(args.tsv, [vocab.key_of(k) for k in range(len(table.effect))])
        outputs.append(args.tsv)
    return outputs


def cmd_score(cfg, args):
    from . import causal
    vocab = Vocabulary.load(args.vocab)
    table = _load_itable(args, vocab)
    rank = frequency_rank(vocab)
    target = _known_id(vocab, args.target, "target")
    preds = causal.top_predecessors(table, target, cfg["topk"],
                                    cfg["exclude_top"], rank)
    S = causal.script_score_matrix(table)
    lines = [f"{vocab.key_of(k)}\t{S[k, target]:.6f}" for k in preds]
    text = "\n".join(lines) + "\n"
    return _emit(text, args.output)


def cmd_complete(cfg, args):
    from . import causal
    vocab = Vocabulary.load(args.vocab)
    rank = frequency_rank(vocab)
    if bool(args.itable) == bool(args.counts):
        raise ConfigError("complete answers from one system: pass either "
                          "--itable or --counts")
    (matrix,) = _score_matrices(args, vocab).values()
    context = [_known_id(vocab, k, "context event") for k in args.context]
    choice = causal.complete_chain(matrix, context, cfg["exclude_top"], rank)
    print(vocab.key_of(choice))
    return []


def cmd_synth(cfg, args):
    cbn = _load_cbn(args)
    corpus = cbn.sample_chains(args.n, cfg["seed"],
                               annotate_scenario=args.annotate)
    write_chains(corpus, args.output)
    return [args.output]


def cmd_oracle(cfg, args):
    from . import causal
    cbn = _load_cbn(args)
    causal.InterventionTable(cbn.do_rows()).export_tsv(args.output, cbn.event_keys)
    return [args.output]


def _score_matrices(args, vocab):
    """Dense pair-score matrices of the systems given by --itable (causal)
    and --counts (pmi)."""
    from . import baselines, causal
    matrices = {}
    if args.itable:
        matrices["causal"] = causal.script_score_matrix(_load_itable(args, vocab))
    if args.counts:
        counts = baselines.load_counts(args.counts, vocab)
        matrices["pmi"] = baselines.pmi_matrix(counts)
    return matrices


def _systems(args, vocab, lm_system, matrix_system):
    """The systems named on the command line, in the order lm, causal,
    pmi: ``lm_system(lm)`` for the LM, ``matrix_system(M)`` for the others."""
    from . import baselines
    systems = {}
    if args.lm:
        lm = baselines.EventLM.load(args.lm)
        _check_vocab_size("the LM", lm.config["vocab_size"], vocab)
        systems["lm"] = lm_system(lm)
    for name, M in _score_matrices(args, vocab).items():
        systems[name] = matrix_system(M)
    if not systems:
        raise ConfigError("no systems given: pass --lm, --itable, and/or --counts")
    return systems


def cmd_cloze(cfg, args):
    from . import causal, evaluation
    vocab = Vocabulary.load(args.vocab)
    rank = frequency_rank(vocab)
    corpus = load_chains(args.corpus)
    systems = _systems(args, vocab, lambda lm: lm.next_distribution,
                       lambda M: functools.partial(causal.mean_scores, M))
    instances = evaluation.make_cloze_set(corpus, vocab, cfg["cloze_count"],
                                          cfg["seed"])
    report = evaluation.run_infrequent_cloze(systems, instances, rank,
                                             cfg["cutoffs"], cfg["recall_n"])
    return _emit(report.to_tsv(), args.output)


def cmd_sheet(cfg, args):
    from . import evaluation
    vocab = Vocabulary.load(args.vocab)
    rank = frequency_rank(vocab)
    systems = _systems(args, vocab, evaluation.lm_sheet_system,
                       lambda M: lambda target: M[:, target])
    rng = np.random.default_rng(cfg["seed"])
    pool = [i for i in vocab.event_ids()]
    n_targets = min(cfg["sheet_targets"], len(pool))
    targets = sorted(int(i) for i in rng.choice(pool, size=n_targets, replace=False))
    rows = evaluation.pairwise_sheet(systems, targets, vocab, rank,
                                     cfg["per_system"], cfg["exclude_top"],
                                     cfg["seed"])
    return _emit(evaluation.sheet_to_tsv(rows), args.output)


def _read_sheet(path):
    from . import evaluation
    with open_input(path) as f:
        return evaluation.parse_sheet_tsv(f.read())


def cmd_score_summary(cfg, args):
    from . import evaluation
    summary = evaluation.score_summary(_read_sheet(args.input))
    lines = ["system\tavg_score\tavg_rank\tcount"]
    for system in sorted(summary):
        s = summary[system]
        lines.append(f"{system}\t{s['avg_score']:.2f}\t{s['avg_rank']:.2f}"
                     f"\t{s['count']}")
    text = "\n".join(lines) + "\n"
    return _emit(text, args.output)


def cmd_diversity(cfg, args):
    from . import evaluation
    picks = {}
    for r in _read_sheet(args.input):
        if r["candidate_event"] != evaluation.SHORT_MARK:
            picks.setdefault(r["hidden_system_key"], []).append(r["candidate_event"])
    report = evaluation.diversity_report(picks)
    lines = ["system\ttotal\tdistinct\tpct_new\ttop1\ttop1_pct\ttop2\ttop2_pct"]
    for system in sorted(report):
        st = report[system]
        tops = st.top2 + [("", 0.0)] * (2 - len(st.top2))
        lines.append(f"{system}\t{st.total}\t{st.distinct}\t{st.pct_new:.1f}"
                     f"\t{tops[0][0]}\t{tops[0][1]:.1f}"
                     f"\t{tops[1][0]}\t{tops[1][1]:.1f}")
    text = "\n".join(lines) + "\n"
    return _emit(text, args.output)


def gradient_errors(seed) -> dict:
    """Worst relative finite-difference gradient error of the 2-layer event
    LM and of the conditional model as pretrained (W_O zero) and as
    finetuned, on small models and random batches drawn from ``seed``."""
    from . import baselines, causal, kernel
    rng = np.random.default_rng(seed)
    results = {}
    lm = baselines.EventLM({"vocab_size": 10, "emb_dim": 6, "hidden_dim": 7,
                            "num_layers": 2, "dropout": 0.0, "seed": seed})
    seqs = [rng.integers(3, 10, size=rng.integers(1, 6)) for _ in range(10)]
    chains = baselines.frame(kernel.Windows.of(seqs))
    results["event-lm"] = kernel.finite_diff_check(
        lambda p: lm.loss_and_grads(chains, p), lm.params,
        rng=np.random.default_rng(seed))
    for phase, wo_scale in (("pretrained", 0.0), ("finetuned", 0.1)):
        m = causal.ConditionalModel({"vocab_size": 12, "tokens": ["<unk>", *"abcdef"],
                                     "emb_dim": 5, "hidden_dim": 8, "seed": seed})
        m.params["W_O"] = rng.normal(size=m.params["W_O"].shape) * wo_scale
        seqs, texts, oots, targets = [], [], [], []
        for _ in range(10):
            prev = int(rng.integers(3, 12))
            seqs.append([*rng.integers(3, 12, size=rng.integers(0, 6)), prev])
            texts.append(rng.integers(0, 7, size=rng.integers(0, 5)))
            oots.append(rng.integers(3, 12, size=rng.integers(0, 3)))
            targets.append(int(rng.integers(3, 12)))
        batch = causal.PackedInstances(*map(kernel.Windows.of, (seqs, texts, oots)),
                                       np.array(targets))
        results[f"conditional-{phase}"] = kernel.finite_diff_check(
            lambda p: m.loss_and_grads(batch, p), m.params,
            rng=np.random.default_rng(seed))
    return results


def cmd_gradcheck(cfg, args):
    results = gradient_errors(cfg["seed"])
    for name, err in results.items():
        print(f"{name}\t{err:.3e}\t{'ok' if err < 1e-4 else 'FAIL'}")
    if not all(err < 1e-4 for err in results.values()):
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
    sub = parser.add_subparsers(dest="command")

    def add(name, summary, paths="", optional="", keys=""):
        """Subcommand ``name``: a required option per word of ``paths``, an
        optional one per word of ``optional``, and the flag of each config
        key in ``keys``, typed by the key's default."""
        p = sub.add_parser(name, help=summary)
        for word in paths.split():
            p.add_argument("--" + word, required=True)
        for word in optional.split():
            p.add_argument("--" + word)
        for key in keys.split():
            default = TABLE[key].default
            p.add_argument("--" + key.replace("_", "-"), **(
                {"action": "store_true", "default": None} if default is False
                else {"type": type(default)}))
        return p

    add("ingest", "normalize a chain file (optional factuality filter)",
        "input output", keys="factual_only")
    add("split", "train/dev/test split of a chain file", "input train dev test")
    add("vocab", "build a vocabulary from a chain file", "input output",
        keys="min_count")
    add("count-pmi", "ordered skip-bigram counts", "input vocab output",
        keys="window")
    add("train-lm", "train the event-sequence LM baseline", "train dev vocab output")
    add("train-cond", "pretrain the conditional model", "train dev vocab output")
    add("finetune-cond", "finetune with out-of-text annotations",
        "model annotated vocab output")
    p = add("estimate-do", "estimate the intervention table", "model vocab output",
            keys="adjustment_n")
    p.add_argument("--corpus", required=True,
                   help="chain file supplying adjustment-set contexts")
    p.add_argument("--tsv", help="optional TSV export for inspection")
    p = add("score", "top predecessors of a target event", "itable vocab", "output",
            "topk exclude_top")
    p.add_argument("--target", required=True, help="event key, e.g. cry:nsubj")
    p = add("complete", "chain completion by mean pairwise score", "vocab",
            "itable counts", "exclude_top")
    p.add_argument("context", nargs="+", help="context event keys")
    p = add("synth", "sample a synthetic corpus", "output", "fixture")
    p.add_argument("--cbn", help="CBN spec file (alternative to --fixture)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--annotate", action="store_true",
                   help="expose the scenario on the out-of-text channel")
    add("oracle", "exact do-distributions of a CBN", "output", "cbn fixture")
    add("cloze", "infrequent narrative cloze report", "corpus vocab output",
        "lm itable counts", "cloze_count recall_n")
    add("sheet", "pairwise abductive task sheet", "vocab output", "lm itable counts",
        "sheet_targets exclude_top")
    add("score-summary", "aggregate a filled-in sheet", "input", "output")
    add("diversity", "output-diversity statistics of a sheet", "input", "output")
    add("gradcheck", "finite-difference certification of all gradients")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    overrides = {k: v for k, v in vars(args).items() if k in RUN_KEYS}
    if args.command in ("train-lm", "train-cond", "finetune-cond"):
        # batches reuse freed memory; other stages would only gain RSS
        with contextlib.suppress(OSError):   # no glibc: malloc's defaults
            libc = ctypes.CDLL("libc.so.6")   # ints pass as C ints
            libc.mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD
            libc.mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    try:
        cfg = RunConfig(args.config, overrides)
        outputs = globals()["cmd_" + args.command.replace("-", "_")](cfg, args)
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
    except OSError as e:
        print(f"error: {e.strerror}: {e.filename}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
