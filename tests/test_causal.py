"""Conditional model, intervention estimation, and script scores."""

import dataclasses
import json
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scriptcausal import causal, synth
from scriptcausal import kernel as K
from scriptcausal.corpus import (build_token_vocab, build_vocab_from, chain_lines,
                                 parse_chains)
from scriptcausal.errors import ConfigError, DataFormatError, NumericalError
from scriptcausal.events import NUM_SPECIALS

TINY = {"emb_dim": 8, "hidden_dim": 12,
        "history_window": 10, "oot_threshold": 3, "lr": 0.01,
        "finetune_lr": 0.01, "clip_norm": 10.0, "batch_size": 64,
        "patience": 3, "max_epochs": 12, "seed": 0}


# ---------------------------------------------------------------------------
# helpers: hand-built contexts are (prev, history, text, oot) tuples


def _tokens(n):
    """A token list of ``n`` ids."""
    return ["<unk>", *(f"w{i}" for i in range(1, n))]


def _pack(contexts, targets=None):
    return causal.PackedInstances(
        K.Windows.of([[*hist, prev] for prev, hist, _, _ in contexts]),
        K.Windows.of([text for _, _, text, _ in contexts]),
        K.Windows.of([oot for *_, oot in contexts]),
        np.zeros(len(contexts), np.intp) if targets is None
        else np.asarray(targets, dtype=np.intp))


def _rows(windows):
    """The id rows of a ``K.Windows`` as lists."""
    return [windows.values[s:s + n].tolist()
            for s, n in zip(windows.starts, windows.lengths)]


def _dist(model, batch):
    """The model's next-event distribution of every row of a batch."""
    logits, _, _ = model._forward(model.params, batch)
    return K.softmax(logits, axis=1)


def _chain_line(chain_id, preds, **extra):
    return json.dumps({"chain_id": chain_id, "events": [
        {"pred": p, "dep": "x", **extra.get(i, {})} for i, p in enumerate(preds)]})


# ---------------------------------------------------------------------------
# instance extraction


def _instances_for(cbn, n, seed, annotate=False, oot_threshold=3):
    corpus = cbn.sample_chains(n, seed, annotate_scenario=annotate)
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab,
                                             oot_threshold=oot_threshold)
    return inst, vocab, corpus


def test_history_window_is_ten():
    corpus = parse_chains([_chain_line("c", [f"e{i % 5}" for i in range(12)])])
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab)
    assert inst.seq.lengths[10] - 1 == 10  # position i = 11: history + prev


def test_history_window_beyond_ten():
    lines = [_chain_line(f"c{c}", [f"e{(c + i) % 6}" for i in range(14)])
             for c in range(3)]
    corpus = parse_chains(lines)
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab, history_window=12)
    assert inst.seq.lengths[12] - 1 == 12  # position i = 13
    one = inst.take(np.array([12]))
    model = causal.ConditionalModel(dict(TINY, vocab_size=len(vocab),
                                         history_window=12))
    table = causal.estimate_interventions(model, one)
    hist = _rows(one.seq)[0][:12]
    np.testing.assert_allclose(
        table.effect, _dist(model, _pack([(k, hist, [], [])
                                          for k in range(len(vocab))])),
        atol=1e-12)
    table = causal.estimate_interventions(
        model, causal.sample_adjustment_set(inst, 30, seed=1))
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, atol=1e-9)


def test_first_position_has_empty_history():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, vocab, corpus = _instances_for(cbn, 1, seed=0)
    assert inst.seq.lengths[0] == 1  # no history, only the prev event
    assert inst.seq.at(0, 0) == vocab.id_of(corpus.types[corpus.type_ids[0]].key)


def test_oot_rating_threshold():
    line = json.dumps({"chain_id": "c", "events": [
        {"pred": "a", "dep": "x", "oot": [["low:x", 2], ["high:x", 3]]},
        {"pred": "b", "dep": "x"}]})
    corpus = parse_chains([line])
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab, oot_threshold=3)
    assert _rows(inst.oot)[0] == [vocab.id_of("high:x")]


def _reference_instances(corpus, vocab, tokens, oot_threshold,
                         history_window):
    """The per-instance fold over the canonical chain lines: (target, prev,
    history, text, oot) for every chain position i >= 1."""
    out = []
    for line in chain_lines(corpus):
        events = json.loads(line)["events"]
        ids = [vocab.id_of(f"{e['pred']}:{e['dep']}") for e in events]
        for i in range(1, len(ids)):
            prev = events[i - 1]
            history = ids[max(0, i - 1 - history_window):i - 1]
            text = ([tokens.index(t) if t in tokens else 0 for t in prev["text"]]
                    if tokens is not None and "text" in prev else [])
            oot = [vocab.id_of(key) for key, rating in prev.get("oot", ())
                   if rating >= oot_threshold]
            out.append((ids[i], ids[i - 1], history, text, oot))
    return out


_WORDS = st.sampled_from(["a", "b", "c", "d"])


@settings(max_examples=40, deadline=None)
@given(chains=st.lists(st.lists(st.tuples(
           _WORDS, st.lists(_WORDS, max_size=3),
           st.one_of(st.none(), st.lists(st.tuples(_WORDS, st.integers(0, 4)),
                                         max_size=3))),
           min_size=1, max_size=16), min_size=1, max_size=5),
       window=st.integers(0, 12), threshold=st.integers(0, 5),
       with_tokens=st.booleans(), min_count=st.integers(1, 3))
def test_extraction_equals_per_instance_fold(chains, window, threshold,
                                            with_tokens, min_count):
    lines = [json.dumps({"chain_id": f"c{c}", "events": [
        {"pred": p, "dep": "x", **({"text": text} if text else {}),
         **({"oot": [[f"{k}:y", r] for k, r in oot]} if oot is not None else {})}
        for p, text, oot in events]}) for c, events in enumerate(chains)]
    corpus = parse_chains(lines)
    vocab = build_vocab_from(corpus, min_count=min_count)
    tokens = build_token_vocab(corpus) if with_tokens else None
    got = causal.extract_training_instances(corpus, vocab, tokens, threshold,
                                            window)
    want = _reference_instances(corpus, vocab, tokens, threshold, window)
    assert len(got) == len(want)
    if want:
        ref = _pack([(p, h, t, o) for _, p, h, t, o in want],
                    [t for t, *_ in want])
        for name in ("seq", "text", "oot"):
            assert _rows(getattr(got, name)) == _rows(getattr(ref, name))
        np.testing.assert_array_equal(got.targets, ref.targets)


# ---------------------------------------------------------------------------
# model basics


def test_distribution_sums_to_one():
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4)))
    dist = _dist(model, _pack([(3, [4, 5], [1, 2], [])]))[0]
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert (dist >= 0).all()


def test_prev_event_changes_distribution():
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4)))
    d1, d2 = _dist(model, _pack([(3, [4], [], []), (5, [4], [], [])]))
    assert not np.allclose(d1, d2)


def _with_zero_wo(model):
    params = {k: v.copy() for k, v in model.params.items()}
    params["W_O"] = np.zeros((model.config["vocab_size"], model.config["emb_dim"]))
    return causal.ConditionalModel(dict(model.config, phase="finetuned"),
                                   params=params)


def test_zero_wo_matches_pretrained_bitwise():
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4)))
    tuned = _with_zero_wo(model)
    assert not np.any(tuned.params["W_O"])
    batch = _pack([(3, [4, 5], [1], [6])])
    np.testing.assert_array_equal(_dist(model, batch), _dist(tuned, batch))


def test_empty_oot_set_reduces_to_pretrained_form():
    rng = np.random.default_rng(0)
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4)))
    tuned = _with_zero_wo(model)
    tuned.params["W_O"] = rng.normal(size=tuned.params["W_O"].shape)
    batch = _pack([(3, [4], [], [])])   # no out-of-text events
    np.testing.assert_allclose(_dist(model, batch), _dist(tuned, batch),
                               atol=1e-14)


def test_training_is_deterministic():
    cbn = synth.build_fixture("F-DET")
    inst, vocab, _ = _instances_for(cbn, 60, seed=1)
    cfg = dict(TINY, max_epochs=2)
    models = [causal.train_conditional(inst.take(slice(0, 300)),
                                       inst.take(slice(300, 350)), len(vocab),
                                       cfg) for _ in range(2)]
    for name in models[0].params:
        np.testing.assert_array_equal(models[0].params[name],
                                      models[1].params[name])


def test_no_dev_set_holds_out_the_training_instances():
    """With an empty dev set, early stopping reads the training instances:
    the same dev losses and parameters bit for bit as with dev = them."""
    cbn = synth.build_fixture("F-DET")
    inst, vocab, _ = _instances_for(cbn, 60, seed=1)
    train, cfg, logs = inst.take(slice(0, 300)), dict(TINY, max_epochs=3), ([], [])
    got, want = (causal.train_conditional(train, dev, len(vocab), cfg, log.append)
                 for dev, log in zip((train.take(slice(0, 0)), train), logs))
    assert logs[0] == logs[1] and len(logs[0]) == 3
    for name in want.params:
        np.testing.assert_array_equal(got.params[name], want.params[name])


def test_deterministic_kernel_heldout_accuracy():
    cbn = synth.build_fixture("F-DET")
    inst, vocab, _ = _instances_for(cbn, 400, seed=2)
    split = int(0.9 * len(inst))
    train, held = inst.take(slice(0, split)), inst.take(slice(split, None))
    model = causal.train_conditional(train, held, len(vocab), TINY)
    hits = np.sum(np.argmax(_dist(model, held), axis=1) == held.targets)
    assert hits / len(held) >= 0.95


def test_finetune_lowers_heldout_xent_with_annotations():
    cbn = synth.build_fixture("F-POPCORN")
    inst, vocab, _ = _instances_for(cbn, 500, seed=3, annotate=True)
    split = int(0.9 * len(inst))
    train, held = inst.take(slice(0, split)), inst.take(slice(split, None))
    pre = causal.train_conditional(
        train, held, len(vocab), dict(TINY, max_epochs=8))
    tuned = causal.finetune_with_oot(pre, train,
                                     dict(TINY, max_epochs=8))

    def xent(m):
        return -np.mean(np.log(_dist(m, held)[np.arange(len(held)),
                                              held.targets]))

    assert xent(tuned) < xent(pre)


def test_pretraining_ignores_out_of_text_annotations():
    """The same chains, with and without out-of-text annotations, pretrain
    to the same parameters bit for bit, and W_O stays zero in both."""
    cbn = synth.build_fixture("F-POPCORN")
    annotated, vocab, _ = _instances_for(cbn, 80, seed=3, annotate=True)
    plain = causal.extract_training_instances(cbn.sample_chains(80, 3), vocab)
    assert annotated.oot.lengths.all() and not plain.oot.lengths.any()
    models = [causal.train_conditional(inst.take(slice(0, 300)),
                                       inst.take(slice(300, None)), len(vocab),
                                       dict(TINY, max_epochs=2))
              for inst in (annotated, plain)]
    assert list(models[0].params)[-1] == "W_O"
    for name in models[0].params:
        np.testing.assert_array_equal(models[0].params[name],
                                      models[1].params[name])
    assert not models[0].params["W_O"].any()


def test_finetuning_a_finetuned_model_restarts_w_o(tmp_path):
    """A finetuned model read from its file holds a nonzero W_O in name
    order. Finetuning it again starts W_O at zero and last, bit for bit as
    from the same model with a zero W_O, on only the instances that carry
    out-of-text ids, and refuses a set with none."""
    cbn = synth.build_fixture("F-POPCORN")
    annotated, vocab, _ = _instances_for(cbn, 60, seed=3, annotate=True)
    causal.ConditionalModel(dict(TINY, vocab_size=len(vocab))).save(tmp_path / "m.bin")
    pre = causal.ConditionalModel.load(tmp_path / "m.bin")
    rng = np.random.default_rng(4)
    causal.ConditionalModel(dict(pre.config, phase="finetuned"), dict(
        pre.params, W_O=rng.normal(size=pre.params["W_O"].shape))).save(
        tmp_path / "ft.bin")
    tuned = causal.ConditionalModel.load(tmp_path / "ft.bin")
    assert tuned.params["W_O"].any() and list(tuned.params)[-1] != "W_O"
    # the first 40 instances lose their out-of-text ids
    mixed = dataclasses.replace(annotated, oot=dataclasses.replace(
        annotated.oot, lengths=np.where(np.arange(len(annotated)) < 40, 0,
                                        annotated.oot.lengths)))
    cfg = {"max_epochs": 1}
    want = causal.finetune_with_oot(pre, annotated.take(slice(40, None)), cfg)
    got = causal.finetune_with_oot(tuned, mixed, cfg)
    assert list(got.params) == list(want.params) and list(got.params)[-1] == "W_O"
    for name in want.params:
        np.testing.assert_array_equal(got.params[name], want.params[name])
    plain = dataclasses.replace(annotated, oot=dataclasses.replace(
        annotated.oot, lengths=0 * annotated.oot.lengths))
    for model in (pre, tuned):
        with pytest.raises(ConfigError, match="no annotated instances"):
            causal.finetune_with_oot(model, plain, cfg)


def test_finetune_batches_are_rows_of_the_callers_set():
    """Finetuning takes each training batch from the caller's set by row
    index, and fits the same parameters bit for bit as a fit on copies of
    the same seeded 9:1 split."""
    cbn = synth.build_fixture("F-POPCORN")
    annotated, vocab, _ = _instances_for(cbn, 60, seed=3, annotate=True)
    pre = causal.ConditionalModel(dict(TINY, vocab_size=len(vocab)))
    got = causal.finetune_with_oot(pre, annotated, {"max_epochs": 3})
    cfg = {**pre.config, "max_epochs": 3}
    rows = np.flatnonzero(annotated.oot.lengths)
    order = rows[np.random.default_rng(cfg["seed"] + 2).permutation(len(rows))]
    n_dev = len(rows) // 10
    train, dev = annotated.take(order[n_dev:]), annotated.take(order[:n_dev])
    assert len(train) > cfg["batch_size"]
    params = {k: v.copy() for k, v in pre.params.items() if k != "W_O"}
    params["W_O"] = np.zeros_like(pre.params["W_O"])
    want = K.fit(causal.ConditionalModel(cfg, params), train, np.arange(len(train)),
                 dev, cfg["finetune_lr"], "conditional").params
    assert list(got.params) == list(want)
    for name in want:
        assert np.array_equal(got.params[name], want[name])


def test_model_file_round_trip(tmp_path):
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4),
                                         phase="finetuned"))
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    model.save(p1)
    loaded = causal.ConditionalModel.load(p1)
    assert loaded.config["phase"] == "finetuned"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# intervention estimation


def test_single_sample_equals_substituted_conditional():
    model = causal.ConditionalModel(dict(TINY, vocab_size=9, tokens=_tokens(4)))
    table = causal.estimate_interventions(
        model, _pack([(3, [4, 5], [2], [])]))
    subs = _dist(model, _pack([(k, [4, 5], [2], []) for k in range(9)]))
    for k in range(9):
        np.testing.assert_allclose(table.effect[k], subs[k], atol=1e-12)


def _formula_model(rng, V, n_tokens, batch_size):
    """A finetuned model whose text and out-of-text terms are not small, and
    whose estimator blocks hold ``batch_size`` contexts."""
    model = causal.ConditionalModel(dict(TINY, vocab_size=V, tokens=_tokens(n_tokens),
                                         batch_size=batch_size, phase="finetuned"))
    p = model.params
    p["W_O"] = rng.normal(size=p["W_O"].shape)
    p["A"] *= 4.0
    p["B"] *= 4.0
    return model


def _random_contexts(rng, V, n_tokens, count):
    def ids(low, high, most):
        return [int(i) for i in rng.integers(low, high, size=rng.integers(0, most))]

    return [(int(rng.integers(NUM_SPECIALS, V)), ids(NUM_SPECIALS, V, 5),
             ids(0, n_tokens, 4), ids(NUM_SPECIALS, V, 3))
            for _ in range(count)]


def _per_context_rows(model, contexts):
    """mean_j softmax(A gru_step(emb[k], h_j) + B v_t + W_O v_o), computed
    context by context."""
    p, V, h_dim = model.params, model.config["vocab_size"], TINY["hidden_dim"]
    expected = np.zeros((V, V))
    for _, hist, text, oot in contexts:
        h = np.zeros((1, h_dim))
        for e in hist:
            h, _ = K.gru_step(p, "enc", p["emb"][e], h)
        v_t = (p["text_emb"][text].mean(axis=0) if text else np.zeros(h_dim))
        v_o = (p["emb"][oot].mean(axis=0) if oot
               else np.zeros(TINY["emb_dim"]))
        for k in range(V):
            v_e, _ = K.gru_step(p, "enc", p["emb"][k], h)
            expected[k] += K.softmax(p["A"] @ v_e[0] + p["B"] @ v_t
                                     + p["W_O"] @ v_o)
    return expected / len(contexts)


def test_estimator_matches_per_row_formula():
    """Every do-row equals mean_j softmax(A gru_step(emb[k], h_j) + B v_t +
    W_O v_o), computed context by context, across block boundaries."""
    rng = np.random.default_rng(8)
    V, n_tokens = 11, 6
    model = _formula_model(rng, V, n_tokens, batch_size=64)
    contexts = _random_contexts(rng, V, n_tokens, 150)
    for channel in (1, 2, 3):   # history, text, out-of-text
        lengths = [len(c[channel]) for c in contexts]
        assert min(lengths) == 0 < max(lengths)

    table = causal.estimate_interventions(model, _pack(contexts))
    np.testing.assert_allclose(table.effect, _per_context_rows(model, contexts),
                               rtol=0, atol=1e-12)


def test_do_rows_are_mean_forward_distributions_of_intervened_rows():
    """Every do-row k equals the mean of softmax over
    ConditionalModel._forward on the sampled rows with their prev event set
    to k (a context drawn c times weighs c), within 1e-13: the estimator's
    last step from shared history states is the model's own forward pass."""
    rng = np.random.default_rng(30)
    V, n_tokens = 11, 6
    model = _formula_model(rng, V, n_tokens, batch_size=16)
    pool = _pack(_random_contexts(rng, V, n_tokens, 40))
    contexts = causal.sample_adjustment_set(pool, 100, seed=4)  # with replacement
    table = causal.estimate_interventions(model, contexts)
    seqs = _rows(contexts.seq)
    for k in range(V):
        intervened = dataclasses.replace(
            contexts, seq=K.Windows.of([[*seq[:-1], k] for seq in seqs]))
        np.testing.assert_allclose(table.effect[k],
                                   _dist(model, intervened).mean(axis=0),
                                   rtol=0, atol=1e-13)


def test_repeated_contexts_match_per_row_formula():
    """A sample drawn with replacement, whose repeats of one (history, text,
    out-of-text) context carry different prev events, is the average over
    every drawn row."""
    rng = np.random.default_rng(12)
    V, n_tokens = 11, 6
    model = _formula_model(rng, V, n_tokens, batch_size=8)
    base = _random_contexts(rng, V, n_tokens, 25)
    contexts = [(int(rng.integers(NUM_SPECIALS, V)), *base[i][1:])
                for i in rng.integers(0, len(base), size=120)]
    # each row's target is its index, so the sample's targets name its rows
    adjustment = causal.sample_adjustment_set(
        _pack(contexts, range(len(contexts))), 300, seed=3)
    drawn = [contexts[i] for i in adjustment.targets]
    assert len({repr(c[1:]) for c in drawn}) < len({repr(c) for c in drawn})
    table = causal.estimate_interventions(model, adjustment)
    assert table.n_samples == 300
    np.testing.assert_allclose(table.effect, _per_context_rows(model, drawn),
                               rtol=0, atol=1e-12)


def test_rows_stay_exact_when_logits_are_large():
    """With a row of A whose L1 norm exceeds 1,000, the logits of one
    context can span more than exp's range; every row is still finite,
    sums to 1 and matches the per-context formula."""
    rng = np.random.default_rng(5)
    V, n_tokens = 11, 6
    model = _formula_model(rng, V, n_tokens, batch_size=16)
    A = model.params["A"]
    A[4] *= 1500.0 / np.abs(A[4]).sum()
    A[7] *= 300.0 / np.abs(A[7]).sum()
    contexts = _random_contexts(rng, V, n_tokens, 60)
    table = causal.estimate_interventions(model, _pack(contexts))
    assert np.isfinite(table.effect).all()
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.effect, _per_context_rows(model, contexts),
                               rtol=0, atol=1e-12)


def test_rows_stay_exact_when_the_shift_is_near_its_bound():
    """With max_l ||A_l||_1 = 290, the logit span 2 * 290 stays inside 600,
    so the estimator shifts each block's context logits by the bound on
    their logits instead of taking each row's max; over 4 blocks of 16
    contexts every row still sums to 1 and matches the per-context
    formula."""
    rng = np.random.default_rng(9)
    V, n_tokens = 11, 6
    model = _formula_model(rng, V, n_tokens, batch_size=16)
    A = model.params["A"]
    A[3] *= 290.0 / np.abs(A[3]).sum()
    assert np.abs(A).sum(axis=1).max() == pytest.approx(290.0)
    contexts = _random_contexts(rng, V, n_tokens, 60)
    table = causal.estimate_interventions(model, _pack(contexts))
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(table.effect, _per_context_rows(model, contexts),
                               rtol=0, atol=1e-12)


def test_estimator_memory_does_not_grow_with_the_adjustment_set():
    """The estimator holds one block of distinct contexts at a time, so its
    traced peak grows by less than one (D, V) float64 array when the sample
    goes from D to 4 D distinct contexts."""
    rng = np.random.default_rng(14)
    V, n_tokens, D = 300, 6, 500
    model = _formula_model(rng, V, n_tokens, batch_size=512)
    contexts = [(int(rng.integers(NUM_SPECIALS, V)),
                 [int(e) for e in rng.integers(NUM_SPECIALS, V, size=3)], [], [])
                for _ in range(4 * D)]

    def peak(sample):
        adjustment = _pack(sample)
        tracemalloc.start()
        try:
            causal.estimate_interventions(model, adjustment)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(contexts) - peak(contexts[:D]) < D * V * 8


@pytest.mark.parametrize("name, what", [
    ("emb", "input projection"), ("enc.Uz", "history states"),
    ("B", "context logits"), ("A", "intervention table")])
def test_a_non_finite_model_is_a_numerical_error(name, what):
    """A NaN in one parameter reaches the first shared array built from it,
    or, through ``A``, only the table; each is refused, not written."""
    rng = np.random.default_rng(6)
    model = _formula_model(rng, 11, 6, batch_size=16)
    model.params[name][0, 0] = np.nan
    contexts = _pack(_random_contexts(rng, 11, 6, 30))
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match=what):
        causal.estimate_interventions(model, contexts)


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _host(cpus, **blas):
    """Patches for a process that may run on ``cpus`` CPUs and whose
    environment sets only the BLAS thread variables in ``blas``."""
    env = {**dict.fromkeys(_BLAS_VARIABLES, ""), **blas}
    return (mock.patch.object(causal, "usable_cpus", return_value=cpus),
            mock.patch.dict(os.environ, env))


def test_table_is_the_same_for_every_worker_count():
    """Each do-row is summed by one worker in a fixed order, so the table is
    the same bit for bit for 1, 2, 3 and 6 workers (by a patched CPU count),
    even when the workers switch every microsecond, where a row skipped or
    summed twice would show; with each row's own max too."""
    rng = np.random.default_rng(21)
    # blocks of at most batch_size = 16 rows; and of at most 2**16 // V = 93
    # rows, fewer than the distinct contexts; the last model's logit span
    # 2 * 1,500 takes each row's own max
    for V, batch_size, count, a_norm in ((40, 16, 90, None), (700, 512, 150, None),
                                         (40, 16, 90, 1500.0)):
        n_tokens = 6
        model = _formula_model(rng, V, n_tokens, batch_size=batch_size)
        if a_norm:
            A = model.params["A"]
            A[4] *= a_norm / np.abs(A[4]).sum()
        adjustment = _pack(_random_contexts(rng, V, n_tokens, count))

        tables = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in (1, 2, 3, 6):
                cpu_patch, env_patch = _host(cpus, OPENBLAS_NUM_THREADS="1")
                with cpu_patch, env_patch:
                    assert causal.worker_count(V) == cpus
                    tables.append(
                        causal.estimate_interventions(model, adjustment).effect)
        finally:
            sys.setswitchinterval(interval)
        for other in tables[1:]:
            assert np.array_equal(other, tables[0])


@pytest.mark.parametrize("cpus, blas, tasks, workers", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 343, 2),
    (64, {"OPENBLAS_NUM_THREADS": "1"}, 3, 3),
    (1, {"OPENBLAS_NUM_THREADS": "1"}, 343, 1),
    (8, {}, 343, 1),
    (8, {"OPENBLAS_NUM_THREADS": "2"}, 343, 4),
    (8, {"OPENBLAS_NUM_THREADS": "16"}, 343, 1),
    (8, {"OPENBLAS_NUM_THREADS": "0"}, 343, 1),
    (8, {"OPENBLAS_NUM_THREADS": "x"}, 343, 1),
    (8, {"OMP_NUM_THREADS": "1"}, 343, 8),
    (8, {"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4"}, 343, 2),
    (8, {"OMP_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4",
         "OPENBLAS_NUM_THREADS": "2"}, 343, 4)])
def test_worker_count_leaves_blas_its_cpus(cpus, blas, tasks, workers):
    """One worker per CPU that BLAS's threads leave free, at most one per
    task. The variables count in OpenBLAS's order; unset, zero or
    unreadable ones mean one BLAS thread per CPU. Starts no thread."""
    cpu_patch, env_patch = _host(cpus, **blas)
    with cpu_patch, env_patch:
        assert causal.worker_count(tasks) == workers


def test_batched_forward_matches_per_row_fold():
    """The length-aware encoder on a ragged, unsorted batch gives every
    context the distribution of a gru_step fold over its own sequence."""
    rng = np.random.default_rng(9)
    V = 10
    model = causal.ConditionalModel(dict(TINY, vocab_size=V, tokens=_tokens(4)))
    p = model.params
    contexts = [(int(rng.integers(NUM_SPECIALS, V)),
                 [int(e) for e in rng.integers(NUM_SPECIALS, V, size=n)], [], [])
                for n in (3, 0, 7, 1, 0, 5, 2, 7, 4)]
    got = _dist(model, _pack(contexts))
    for row, (prev, hist, _, _) in zip(got, contexts):
        h = np.zeros((1, TINY["hidden_dim"]))
        for e in [*hist, prev]:
            h, _ = K.gru_step(p, "enc", p["emb"][e], h)
        want = K.softmax(p["A"] @ h[0])
        np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)


def _contexts_from(chains, picks, V):
    """Contexts whose histories are windows of a few chains, so that many
    share a prefix or are equal; each gets one text token and, every
    other one, an out-of-text event."""
    return [(
        NUM_SPECIALS + chains[c][end % len(chains[c])],
        [NUM_SPECIALS + e for e in chains[c][max(0, end - window):end]],
        [end % 3], [NUM_SPECIALS + c] if end % 2 else [])
        for c, end, window in picks]


@settings(max_examples=30, deadline=None)
@given(chains=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6),
                       min_size=1, max_size=3),
       picks=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 6),
                                st.integers(1, 6)), min_size=1, max_size=10),
       phase=st.sampled_from(["pretrained", "finetuned"]))
def test_shared_layout_gradients_equal_unshared(chains, picks, phase):
    V = NUM_SPECIALS + 3
    picks = [(c % len(chains), end, w) for c, end, w in picks]
    contexts = _contexts_from(chains, picks, V)
    targets = [NUM_SPECIALS + (i % 3) for i in range(len(contexts))]
    model = causal.ConditionalModel(dict(TINY, vocab_size=V, tokens=_tokens(3),
                                         phase=phase))
    if phase == "finetuned":
        model.params["W_O"] = np.random.default_rng(1).normal(
            size=model.params["W_O"].shape) * 0.1
    batch = _pack(contexts, targets)
    loss, grads = model.loss_and_grads(batch)
    unshared = K.SeqLayout.unshared
    with mock.patch.object(K, "SeqLayout", lambda seqs: unshared(seqs.lengths)):
        want_loss, want = model.loss_and_grads(batch)
    assert loss == pytest.approx(want_loss, rel=0, abs=1e-12)
    for name in want:
        np.testing.assert_allclose(grads[name], want[name], rtol=0, atol=1e-12)


@pytest.mark.parametrize("phase", ["pretrained", "finetuned"])
def test_text_free_batch_leaves_the_text_channel_out(phase):
    """Without text, v_t is exactly zero: B and text_emb get exactly zero
    gradients, and the loss keeps its bits when both are redrawn."""
    rng = np.random.default_rng(6)
    V = NUM_SPECIALS + 6
    model = causal.ConditionalModel(dict(TINY, vocab_size=V, tokens=_tokens(4),
                                         phase=phase))
    if phase == "finetuned":
        model.params["W_O"] = rng.normal(size=model.params["W_O"].shape)
    batch = _pack([(5, [3, 4], [], [6]), (7, [], [], []), (4, [8, 3, 5], [], [3, 8])],
                  [6, 3, 8])
    loss, grads = model.loss_and_grads(batch)
    assert not grads["B"].any() and not grads["text_emb"].any()
    redrawn = dict(model.params, B=rng.normal(size=model.params["B"].shape),
                   text_emb=rng.normal(size=model.params["text_emb"].shape))
    assert model.loss_and_grads(batch, redrawn)[0] == loss


def test_gradients_certify_when_instances_end_on_one_node():
    """Two instances with the same history and prev event but different
    targets end on one packed row; both gradients must reach it."""
    V = NUM_SPECIALS + 5
    model = causal.ConditionalModel(dict(TINY, vocab_size=V, tokens=_tokens(3)))
    packed = _pack([(5, [3, 4], [1], []), (5, [3, 4], [2], []),
                    (6, [3], [], []), (7, [3, 4, 5], [1], [])], [6, 7, 3, 4])
    layout = K.SeqLayout(packed.seq)
    assert layout.last[0] == layout.last[1] and len(layout.steps) == 5
    err = K.finite_diff_check(
        lambda p: model.loss_and_grads(packed, p), model.params,
        max_coords=40, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_packed_batch_is_a_window_gather():
    """A batch is a gather of the windows' starts and lengths: its rows are
    the instances' ids, and its ids are the packed set's own arrays."""
    packed = _pack([(3, [4, 5, 6], [1], []), (7, [], [], [8, 9]),
                    (5, [4], [2, 3], [])], [4, 5, 6])
    batch = packed.take(np.array([2, 1]))
    assert _rows(batch.seq) == [[4, 5], [7]]
    np.testing.assert_array_equal(batch.seq.lengths, [2, 1])
    assert _rows(batch.text) == [[2, 3], []]
    assert _rows(batch.oot) == [[], [8, 9]]
    np.testing.assert_array_equal(batch.targets, [6, 5])
    assert len(batch) == 2
    for name in ("seq", "text", "oot"):
        assert getattr(batch, name).values is getattr(packed, name).values


def test_batches_share_the_extracted_ids():
    """PackedInstances.take and every batch of K.fit gather only the
    windows' starts and lengths: their ids are the extracted set's own
    arrays, never a copy."""
    rng = np.random.default_rng(2)
    corpus = parse_chains([json.dumps({"chain_id": f"c{c}", "events": [
        {"pred": f"p{rng.integers(4)}", "dep": "x", "text": ["w", f"t{i % 3}"],
         "oot": [[f"p{rng.integers(4)}:x", int(rng.integers(5))]]}
        for i in range(rng.integers(2, 9))]}) for c in range(20)])
    vocab, tokens = build_vocab_from(corpus, min_count=1), build_token_vocab(corpus)
    inst = causal.extract_training_instances(corpus, vocab, tokens)
    assert all(len(getattr(inst, name).values) for name in ("seq", "text", "oot"))
    model = causal.ConditionalModel(dict(TINY, vocab_size=len(vocab), tokens=tokens,
                                         batch_size=16))
    batches, loss_and_grads = [], model.loss_and_grads

    def recording(batch, rng=None):
        batches.append(batch)
        return loss_and_grads(batch, rng=rng)
    model.loss_and_grads = recording
    K.fit(model, inst, np.arange(len(inst)), inst.take(np.arange(0)), 0.01,
          "conditional", max_epochs=1)
    assert len(batches) == -(-len(inst) // 16)
    for batch in [inst.take(np.array([5, 2, 5])), *batches]:
        for name in ("seq", "text", "oot"):
            assert np.shares_memory(getattr(batch, name).values,
                                    getattr(inst, name).values)


def test_intervention_rows_are_distributions():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, vocab, _ = _instances_for(cbn, 40, seed=4)
    model = causal.ConditionalModel(dict(TINY, vocab_size=len(vocab)))
    adj = causal.sample_adjustment_set(inst, 50, seed=1)
    table = causal.estimate_interventions(model, adj)
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, atol=1e-9)


def test_adjustment_sampling_deterministic():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, _, _ = _instances_for(cbn, 30, seed=5)
    inst.targets = np.arange(len(inst))   # the sample's targets name its rows
    a = causal.sample_adjustment_set(inst, 10, seed=9)
    b = causal.sample_adjustment_set(inst, 10, seed=9)
    np.testing.assert_array_equal(a.targets, b.targets)
    assert np.all(np.diff(a.targets) > 0)   # sorted, without replacement
    for name in ("seq", "text", "oot"):
        assert _rows(getattr(a, name)) == _rows(getattr(inst.take(a.targets), name))


def test_itable_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    effect = rng.dirichlet(np.ones(5), size=5)
    table = causal.InterventionTable(effect, model_id="m", seed=3, n_samples=7)
    p1, p2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
    table.save(p1)
    loaded = causal.InterventionTable.load(p1)
    np.testing.assert_array_equal(loaded.effect, effect)
    assert (loaded.seed, loaded.n_samples) == (3, 7)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_tsv_export_writes_row_by_row(tmp_path):
    """A 1,000 x 1,000 table exports the bytes of the whole-table form
    while holding one row's floats at a time: its traced peak stays below
    1 MB, where the whole table's float objects take about 30 MB."""
    V = 1000
    effect = np.random.default_rng(2).dirichlet(np.ones(V), size=V)
    keys = [f"e{k}" for k in range(V)]
    table = causal.InterventionTable(effect)
    tracemalloc.start()
    try:
        table.export_tsv(tmp_path / "t.tsv", keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = "do_event\t" + "\t".join(keys) + "\n" + "".join(
        key + "\t" + "\t".join(map(repr, row)) + "\n"
        for key, row in zip(keys, effect.tolist()))
    assert (tmp_path / "t.tsv").read_bytes() == expected.encode()
    assert peak < 1 << 20


@pytest.mark.parametrize("row", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0],
                                 [1.5, -0.5, 0.0], [0.5, 0.5, 1e-6]])
def test_itable_load_rejects_rows_that_are_not_distributions(tmp_path, row):
    effect = np.full((3, 3), 1.0 / 3.0)
    effect[1] = row
    causal.InterventionTable(effect).save(tmp_path / "t.bin")
    with pytest.raises(DataFormatError):
        causal.InterventionTable.load(tmp_path / "t.bin")


def test_itable_load_rejects_truncated_body(tmp_path):
    causal.InterventionTable(np.eye(3)).save(tmp_path / "t.bin")
    blob = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(blob[:-4])
    with pytest.raises(DataFormatError):
        causal.InterventionTable.load(tmp_path / "t.bin")


# ---------------------------------------------------------------------------
# script scores


def test_script_score_two_by_two():
    table = causal.InterventionTable(np.array([[0.7, 0.3], [0.5, 0.5]]))
    S = causal.script_score_matrix(table)
    assert S[0, 0] == pytest.approx(0.7 / 1.2)
    assert S[0, 0] == pytest.approx(0.5833, abs=5e-5)


def test_script_score_columns_normalize():
    rng = np.random.default_rng(7)
    table = causal.InterventionTable(rng.dirichlet(np.ones(6), size=6))
    S = causal.script_score_matrix(table)
    np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-12)


def test_script_score_column_scale_invariance():
    rng = np.random.default_rng(8)
    effect = rng.dirichlet(np.ones(4), size=4)
    scaled = effect.copy()
    scaled[:, 2] *= 7.5
    S1 = causal.script_score_matrix(causal.InterventionTable(effect))
    S2 = causal.script_score_matrix(causal.InterventionTable(scaled))
    np.testing.assert_allclose(S1[:, 2], S2[:, 2], atol=1e-12)


def test_top_predecessors_argmax_and_exclusion():
    V = NUM_SPECIALS + 3
    effect = np.full((V, V), 1e-3)
    a, b, target = NUM_SPECIALS, NUM_SPECIALS + 1, NUM_SPECIALS + 2
    effect[a, target] = 0.9
    effect[b, target] = 0.5
    table = causal.InterventionTable(effect)
    assert causal.top_predecessors(table, target, topk=1) == [a]
    # excluding the argmax returns the runner-up
    rank = [a, b, target]
    assert causal.top_predecessors(table, target, topk=1,
                                   exclude_top=1, rank=rank) == [b]


def test_complete_chain_permutation_invariant():
    rng = np.random.default_rng(9)
    S = rng.random((8, 8))
    pick1 = causal.complete_chain(S, [3, 4, 5])
    pick2 = causal.complete_chain(S, [5, 3, 4])
    assert pick1 == pick2


def test_complete_chain_single_context_matches_argmax():
    rng = np.random.default_rng(10)
    S = rng.random((8, 8))
    pick = causal.complete_chain(S, [4])
    assert pick == NUM_SPECIALS + int(np.argmax(S[4, NUM_SPECIALS:]))


def test_complete_chain_requires_context():
    with pytest.raises(ConfigError):
        causal.complete_chain(np.zeros((8, 8)), [])


def test_mean_scores_are_the_per_context_means_bit_for_bit():
    rng = np.random.default_rng(11)
    V = 30
    M = rng.normal(size=(V, V)) * 10.0 ** rng.integers(-8, 8, size=(V, V))
    M[rng.random((V, V)) < 0.2] = -np.inf        # unseen PMI pairs
    contexts = [rng.integers(0, V, size=rng.integers(1, 40)).tolist()
                for _ in range(25)]
    got = causal.mean_scores(M, K.Windows.of(contexts))
    assert got.shape == (len(contexts), V)
    for context, row in zip(contexts, got):
        np.testing.assert_array_equal(row, M[np.asarray(context)].mean(axis=0))


def test_mean_scores_of_an_empty_window_is_a_zero_row():
    """An empty window reads no id (not its neighbour's) and divides by no
    zero length."""
    M = np.arange(1.0, 26.0).reshape(5, 5)
    with np.errstate(all="raise"):
        got = causal.mean_scores(M, K.Windows.of([[3, 4], [], [2]]))
    np.testing.assert_array_equal(got, [(M[3] + M[4]) / 2, np.zeros(5), M[2]])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_script_columns_always_normalize(V, seed):
    rng = np.random.default_rng(seed)
    effect = rng.dirichlet(np.ones(V), size=V)
    S = causal.script_score_matrix(causal.InterventionTable(effect))
    np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-9)
