"""End-to-end acceptance suite.

Each test below certifies one release criterion; the per-test PASSED/FAILED
line in ``pytest -v`` output is the pass/fail record. The expensive
F-POPCORN training pipeline behind the first two tests runs once per module
and is shared; everything here is seeded and deterministic.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from scriptcausal import baselines, causal, cli, evaluation, kernel, synth
from scriptcausal.corpus import (build_vocab_from, chain_lines, load_chains,
                                 parse_chains, split_corpus, write_chains)
from scriptcausal.events import NUM_SPECIALS, frequency_rank


# ---------------------------------------------------------------------------
# shared F-POPCORN pipeline (criteria 1 and 2)


POPCORN_COND_CFG = {
    "emb_dim": 32, "hidden_dim": 64,
    "lr": 0.001, "finetune_lr": 1e-5, "clip_norm": 10.0,
    "batch_size": 512, "patience": 3, "max_epochs": 2, "seed": 0,
    # annealed pretraining; each stage restarts the optimizer
    "lr_schedule": [[0.001, 2], [0.001, 2], [0.0003, 2], [0.0001, 2]],
}


@pytest.fixture(scope="module")
def popcorn():
    t0 = time.monotonic()
    cbn = synth.build_fixture("F-POPCORN")
    corpus = cbn.sample_chains(50000, seed=2024, annotate_scenario=True)
    vocab = build_vocab_from(corpus, min_count=1)
    instances = causal.extract_training_instances(corpus, vocab)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(instances))
    dev = instances.take(order[:10000])
    train = instances.take(order[10000:])
    model = causal.train_conditional(train, dev, len(vocab),
                                     POPCORN_COND_CFG)
    tuned = causal.finetune_with_oot(model, instances, POPCORN_COND_CFG)
    adjustment = causal.sample_adjustment_set(instances, 2000, seed=7)
    table = causal.estimate_interventions(tuned, adjustment)
    elapsed = time.monotonic() - t0
    return {"cbn": cbn, "corpus": corpus, "vocab": vocab, "table": table,
            "elapsed": elapsed}


def test_criterion_1_deconfounding_vs_oracle(popcorn):
    cbn, vocab, table = popcorn["cbn"], popcorn["vocab"], popcorn["table"]
    ids = [vocab.id_of(k) for k in cbn.event_keys]
    oracle = cbn.do_rows()
    est = table.effect[np.ix_(ids, ids)]
    l1 = np.abs(est - oracle).sum(axis=1)
    assert l1.max() <= 0.05, f"worst do-row L1 {l1.max():.4f} > 0.05"

    # confounding gap: observed bigram conditional minus estimated do-cell
    pk = vocab.id_of("eat_popcorn:nsubj")
    ck = vocab.id_of("cry:nsubj")
    corpus = popcorn["corpus"]
    ev = corpus.event_ids(vocab)
    same_chain = np.diff(np.repeat(np.arange(len(corpus)),
                                   np.diff(corpus.offsets))) == 0
    after_pk = same_chain & (ev[:-1] == pk)
    num, den = int(np.sum(after_pk & (ev[1:] == ck))), int(np.sum(after_pk))
    gap_est = num / den - table.effect[pk, ck]
    p, c = map(cbn.event_keys.index, ["eat_popcorn:nsubj", "cry:nsubj"])
    gap_oracle = cbn.observed_rows()[p, c] - cbn.do_rows()[p, c]
    assert gap_est * gap_oracle > 0, "confounding gap sign mismatch"
    ratio = gap_est / gap_oracle
    assert 0.7 <= ratio <= 1.3, f"gap ratio {ratio:.3f} outside [0.7, 1.3]"

    elapsed = popcorn["elapsed"]
    assert elapsed <= 900.0, f"pipeline took {elapsed:.0f}s > 900s"
    print(f"criterion 1: PASS (worst L1 {l1.max():.4f}, "
          f"gap ratio {ratio:.3f}, {elapsed:.0f}s)")


def test_criterion_2_script_score_vs_pmi_ordering(popcorn):
    vocab, table = popcorn["vocab"], popcorn["table"]
    wk = vocab.id_of("watch_sad:nsubj")
    pk = vocab.id_of("eat_popcorn:nsubj")
    ck = vocab.id_of("cry:nsubj")

    preds = causal.top_predecessors(table, ck, topk=len(vocab))
    assert preds.index(wk) < preds.index(pk), \
        "script score does not rank watch-sad above popcorn for cry"

    counts = baselines.count_skip_bigrams(popcorn["corpus"], vocab, window=2)
    pmi = baselines.pmi_matrix(counts)
    pmi_w, pmi_p = pmi[wk, ck], pmi[pk, ck]
    assert pmi_p > pmi_w, \
        f"PMI should prefer popcorn ({pmi_p:.4f}) over watch-sad ({pmi_w:.4f})"
    print(f"criterion 2: PASS (S ranks watch-sad first; "
          f"PMI popcorn {pmi_p:.4f} > watch-sad {pmi_w:.4f})")


# ---------------------------------------------------------------------------
# criterion 3: single scenario => interventional == observational


def test_criterion_3_no_confounder_agreement():
    # one scenario, all events well-supported: the do-distribution equals
    # the observational conditional, so the estimate must match it directly
    gen = np.random.default_rng(33)
    E = 8
    templates = gen.dirichlet(np.full(E, 1.5), size=(1, E + 1))
    cbn = synth.SyntheticCBN("F-SINGLE", [f"e{i}:x" for i in range(E)],
                             ["only"], np.array([1.0]), templates, 0.1, 6)
    corpus = cbn.sample_chains(20000, seed=4)
    vocab = build_vocab_from(corpus, min_count=1)
    instances = causal.extract_training_instances(corpus, vocab)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(instances))
    dev = instances.take(order[:5000])
    train = instances.take(order[5000:])
    cfg = {"emb_dim": 32, "hidden_dim": 64,
           "batch_size": 512, "seed": 0, "clip_norm": 10.0,
           "lr_schedule": [[0.001, 4], [0.0003, 2], [0.0001, 2]]}
    model = causal.train_conditional(train, dev, len(vocab), cfg)
    adjustment = causal.sample_adjustment_set(instances, 2000, seed=7)
    table = causal.estimate_interventions(model, adjustment)
    ids = [vocab.id_of(k) for k in cbn.event_keys]
    oracle = cbn.observed_rows(1)
    est = table.effect[np.ix_(ids, ids)]
    l1 = np.abs(est - oracle).sum(axis=1)
    assert l1.max() <= 0.05, f"worst conditional-row L1 {l1.max():.4f} > 0.05"
    print(f"criterion 3: PASS (worst L1 {l1.max():.4f})")


# ---------------------------------------------------------------------------
# criterion 4: gradient certification


def test_criterion_4_gradient_certification():
    results = cli.gradient_errors(0)
    assert set(results) == {"event-lm", "conditional-pretrained",
                            "conditional-finetuned"}
    for name, err in results.items():
        assert err < 1e-4, f"{name}: max relative gradient error {err:.3e}"
    worst = max(results.values())
    print(f"criterion 4: PASS (worst relative error {worst:.3e})")


# ---------------------------------------------------------------------------
# criterion 5: 10,000 distribution invariant cases


def _random_cbn(rng, tag):
    E = int(rng.integers(3, 13))
    S = int(rng.integers(1, 5))
    L = int(rng.integers(2, 9))
    pi = rng.dirichlet(np.ones(S))
    templates = rng.dirichlet(np.ones(E), size=(S, E + 1))
    lam = float(rng.uniform(0.05, 0.5))
    return synth.SyntheticCBN(f"R{tag}", [f"e{i}:x" for i in range(E)],
                              [f"s{j}" for j in range(S)], pi, templates,
                              lam, L)


def test_criterion_5_distribution_invariants():
    tol = 1e-9
    cases = 0
    rng = np.random.default_rng(5)

    # 5,000 softmax rows of random shapes and scales
    for _ in range(100):
        dim = int(rng.integers(2, 31))
        scale = float(rng.uniform(0.1, 30.0))
        logits = rng.normal(scale=scale, size=(50, dim))
        probs = kernel.softmax(logits, axis=1)
        assert np.all(np.abs(probs.sum(axis=1) - 1.0) <= tol)
        assert np.all(probs >= 0.0)
        cases += 50

    # 3,000 oracle rows from random causal models
    tag = 0
    while cases < 8000:
        cbn = _random_cbn(rng, tag)
        tag += 1
        at = [cbn.observed_rows(pos) for pos in range(1, cbn.chain_length)]
        rows = [*cbn.do_rows(), *cbn.observed_rows()]
        rows += [rows_at[k] for k in range(cbn.num_events) for rows_at in at]
        for row in rows:
            assert abs(row.sum() - 1.0) <= tol and np.all(row >= 0.0)
            cases += 1
            if cases == 8000:
                break

    # 1,000 intervention-table rows + 1,000 script-score columns,
    # from 50 random small conditional models (alternating phases)
    V = 20
    for t in range(50):
        phase = "finetuned" if t % 2 else "pretrained"
        m = causal.ConditionalModel({"vocab_size": V,
                                     "tokens": ["<unk>", *"abcd"],
                                     "emb_dim": 5, "hidden_dim": 6, "seed": t,
                                     "phase": phase})
        for name in m.params:
            m.params[name] = rng.normal(size=m.params[name].shape) * 0.3
        seqs, texts, oots = [], [], []
        for _ in range(8):
            prev = int(rng.integers(NUM_SPECIALS, V))
            seqs.append([*rng.integers(NUM_SPECIALS, V, size=rng.integers(0, 5)),
                         prev])
            texts.append(rng.integers(0, 5, size=rng.integers(0, 4)))
            oots.append(rng.integers(NUM_SPECIALS, V, size=rng.integers(0, 3)))
        contexts = causal.PackedInstances(
            *map(kernel.Windows.of, (seqs, texts, oots)), np.zeros(len(seqs), np.intp))
        table = causal.estimate_interventions(m, contexts)
        assert np.all(np.abs(table.effect.sum(axis=1) - 1.0) <= tol)
        assert np.all(table.effect >= 0.0)
        cases += V
        S = causal.script_score_matrix(table)
        defined = table.effect.sum(axis=0) > 0
        assert np.all(defined)  # softmax output: every column has mass
        assert np.all(np.abs(S.sum(axis=0) - 1.0) <= tol)
        cases += V

    assert cases == 10000, f"counted {cases} cases, expected 10000"
    print(f"criterion 5: PASS ({cases} cases within {tol})")


# ---------------------------------------------------------------------------
# criterion 6: PMI formula fidelity


def test_criterion_6_pmi_formula_fidelity():
    pairs = np.zeros((5, 5), dtype=np.int64)
    pairs[0, 1], pairs[0, 2], pairs[3, 4] = 3, 1, 6
    counts = baselines.OrderedCounts(2, pairs)
    # c=3, T=10, left=4, right=3: ln(3*10 / (4*3)) = ln 2.5, discounted by
    # c/(c+1) = 3/4 and m/(m+1) = 3/4 with m = min(left, right) = 3
    disc = baselines.pmi_matrix(counts)[0, 1]
    expected = math.log(2.5) * (3.0 / 4.0) * (3.0 / 4.0)
    assert abs(disc - expected) <= 1e-9
    assert abs(expected - 0.5154) < 5e-5  # matches the hand-derived value

    # exact agreement with a brute-force pair enumerator on 1,000 chains
    rng = np.random.default_rng(6)
    lines = []
    for b, length in enumerate(range(2, 12)):
        cbn = _random_cbn_fixed(rng, b, length)
        lines.extend(chain_lines(cbn.sample_chains(100, seed=600 + b)))
    corpus = parse_chains(lines)
    assert len(corpus) == 1000
    vocab = build_vocab_from(corpus, min_count=1)
    for window in (1, 2, 3):
        counts = baselines.count_skip_bigrams(corpus, vocab, window=window)
        brute = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
        total = 0
        for line in chain_lines(corpus):
            ids = [vocab.id_of(f"{e['pred']}:{e['dep']}")
                   for e in json.loads(line)["events"]]
            for i in range(len(ids)):
                for j in range(i + 1, min(i + window, len(ids) - 1) + 1):
                    brute[ids[i], ids[j]] += 1
                    total += 1
        assert np.array_equal(counts.pairs, brute)
        assert counts.pairs.sum() == total
    print("criterion 6: PASS (hand values to 1e-9; brute force exact)")


def _random_cbn_fixed(rng, tag, chain_length):
    E = int(rng.integers(3, 9))
    templates = rng.dirichlet(np.ones(E), size=(2, E + 1))
    return synth.SyntheticCBN(f"B{tag}", [f"e{i}:x" for i in range(E)],
                              ["s0", "s1"], np.array([0.5, 0.5]), templates,
                              0.2, chain_length)


# ---------------------------------------------------------------------------
# criterion 7: infrequent-cloze crossover on a Zipf-skewed corpus


def test_criterion_7_infrequent_cloze_crossover():
    cbn = synth.build_zipf_cbn()
    corpus = cbn.sample_chains(20000, seed=11)
    vocab = build_vocab_from(corpus, min_count=1)
    rank = frequency_rank(vocab)
    train_c, dev_c, test_c = split_corpus(corpus, (0.9, 0.05, 0.05), seed=3)

    lm_cfg = {"emb_dim": 32, "hidden_dim": 64, "num_layers": 2,
              "dropout": 0.1, "batch_size": 64, "max_epochs": 3,
              "patience": 3, "seed": 0, "lr": 0.001}
    lm = baselines.train_event_lm(train_c, dev_c, vocab, lm_cfg)

    instances = causal.extract_training_instances(corpus, vocab)
    rng = np.random.default_rng(0)
    order = rng.permutation(len(instances))
    dev = instances.take(order[:10000])
    train = instances.take(order[10000:])
    cfg = {"emb_dim": 32, "hidden_dim": 64,
           "batch_size": 512, "seed": 0, "clip_norm": 10.0,
           "lr_schedule": [[0.001, 2], [0.0003, 1]]}
    model = causal.train_conditional(train, dev, len(vocab), cfg)
    adjustment = causal.sample_adjustment_set(instances, 2000, seed=7)
    table = causal.estimate_interventions(model, adjustment)
    S = causal.script_score_matrix(table)

    cloze = evaluation.make_cloze_set(test_c, vocab, 2000, seed=5)
    systems = {"lm": lm.next_distribution,
               "causal": functools.partial(causal.mean_scores, S)}
    report = evaluation.run_infrequent_cloze(systems, cloze, rank,
                                             cutoffs=[0, 50, 100, 150, 200],
                                             N=100)
    lm_r, causal_r = report.recalls["lm"], report.recalls["causal"]
    assert all(n > 0 for n in report.counts)
    assert lm_r[0] > causal_r[0], \
        f"unfiltered: LM {lm_r[0]:.2f} should beat causal {causal_r[0]:.2f}"
    assert causal_r[-1] > lm_r[-1], \
        f"cutoff 200: causal {causal_r[-1]:.2f} should beat LM {lm_r[-1]:.2f}"
    assert all(a > b for a, b in zip(lm_r, lm_r[1:])), \
        f"LM recall not strictly decreasing: {lm_r}"
    print(f"criterion 7: PASS (LM {lm_r[0]:.1f}->{lm_r[-1]:.1f}, "
          f"causal {causal_r[0]:.1f}->{causal_r[-1]:.1f})")


# ---------------------------------------------------------------------------
# criterion 8: byte-identical reruns across seeds and estimator worker counts


def test_criterion_8_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"emb_dim": 8, "hidden_dim": 12, "lm_emb_dim": 8,
           "lm_hidden_dim": 12, "max_epochs": 1, "batch_size": 32,
           "lm_batch_size": 16, "min_count": 1, "adjustment_n": 50,
           "cloze_count": 20, "exclude_top": 0}
    (tmp_path / "cfg.json").write_text(__import__("json").dumps(cfg))

    # one BLAS thread, so the estimator runs one worker per usable CPU
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")

    def pipeline(d, cpus):
        d.mkdir()
        monkeypatch.setattr(causal, "usable_cpus", lambda: cpus)
        assert causal.worker_count(100) == cpus
        base = ["--config", "cfg.json"]

        def run(*argv):
            assert cli.main(list(argv)) == 0

        run("--seed", "11", "synth",
            "--fixture", "F-POPCORN", "--n", "200", "--annotate",
            "--output", f"{d}/c.jsonl")
        run(*base, "ingest", "--input", f"{d}/c.jsonl",
            "--output", f"{d}/ing.jsonl")
        run(*base, "split", "--input", f"{d}/c.jsonl", "--train",
            f"{d}/tr.jsonl", "--dev", f"{d}/dv.jsonl", "--test",
            f"{d}/te.jsonl")
        run(*base, "vocab", "--input", f"{d}/tr.jsonl",
            "--output", f"{d}/v.tsv")
        run(*base, "count-pmi", "--input", f"{d}/tr.jsonl",
            "--vocab", f"{d}/v.tsv", "--output", f"{d}/cnt.tsv")
        run(*base, "train-lm", "--train", f"{d}/tr.jsonl", "--dev",
            f"{d}/dv.jsonl", "--vocab", f"{d}/v.tsv",
            "--output", f"{d}/lm.bin")
        run(*base, "train-cond", "--train", f"{d}/tr.jsonl", "--dev",
            f"{d}/dv.jsonl", "--vocab", f"{d}/v.tsv",
            "--output", f"{d}/m.bin")
        run(*base, "finetune-cond", "--model", f"{d}/m.bin", "--annotated",
            f"{d}/tr.jsonl", "--vocab", f"{d}/v.tsv",
            "--output", f"{d}/ft.bin")
        run(*base, "estimate-do", "--model", f"{d}/ft.bin", "--corpus",
            f"{d}/tr.jsonl", "--vocab", f"{d}/v.tsv",
            "--output", f"{d}/t.bin", "--tsv", f"{d}/t.tsv")
        run(*base, "cloze", "--corpus", f"{d}/te.jsonl", "--vocab",
            f"{d}/v.tsv", "--lm", f"{d}/lm.bin", "--itable", f"{d}/t.bin",
            "--counts", f"{d}/cnt.tsv", "--output", f"{d}/cloze.tsv")

    pipeline(tmp_path / "A", cpus=1)
    pipeline(tmp_path / "B", cpus=4)
    artifacts = ["c.jsonl", "ing.jsonl", "tr.jsonl", "dv.jsonl", "te.jsonl",
                 "v.tsv", "cnt.tsv", "lm.bin", "m.bin", "ft.bin", "t.bin",
                 "t.tsv", "cloze.tsv"]
    for name in artifacts:
        a = (tmp_path / "A" / name).read_bytes()
        b = (tmp_path / "B" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print(f"criterion 8: PASS ({len(artifacts)} artifacts byte-identical)")


# ---------------------------------------------------------------------------
# criterion 9: write -> read -> write byte equality


def test_criterion_9_round_trips(tmp_path):
    cbn = synth.build_fixture("F-POPCORN")
    corpus = cbn.sample_chains(200, seed=9, annotate_scenario=True)
    p1, p2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    write_chains(corpus, p1)
    write_chains(load_chains(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

    vocab = build_vocab_from(corpus, min_count=1)
    v1, v2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
    vocab.save(v1)
    type(vocab).load(v1).save(v2)
    assert v1.read_bytes() == v2.read_bytes()

    lm = baselines.EventLM({"vocab_size": len(vocab), "emb_dim": 6,
                            "hidden_dim": 7, "num_layers": 2, "seed": 1})
    l1, l2 = tmp_path / "lm1.bin", tmp_path / "lm2.bin"
    lm.save(l1)
    baselines.EventLM.load(l1).save(l2)
    assert l1.read_bytes() == l2.read_bytes()

    cond = causal.ConditionalModel(
        {"vocab_size": len(vocab), "tokens": ["<unk>", "a", "b"], "emb_dim": 6,
         "hidden_dim": 7, "seed": 2, "phase": "finetuned"})
    m1, m2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    cond.save(m1)
    causal.ConditionalModel.load(m1).save(m2)
    assert m1.read_bytes() == m2.read_bytes()

    rng = np.random.default_rng(9)
    effect = kernel.softmax(rng.normal(size=(9, 9)), axis=1)
    table = causal.InterventionTable(effect, model_id="rt", seed=3,
                                     n_samples=12)
    t1, t2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
    table.save(t1)
    causal.InterventionTable.load(t1).save(t2)
    assert t1.read_bytes() == t2.read_bytes()
    print("criterion 9: PASS (corpus, vocab, models, table round-trip)")
