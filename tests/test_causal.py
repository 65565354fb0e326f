"""Conditional model, intervention estimation, and script scores."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scriptcausal import causal, synth
from scriptcausal import kernel as K
from scriptcausal.corpus import build_vocab_from
from scriptcausal.errors import ConfigError, DataFormatError
from scriptcausal.events import NUM_SPECIALS

TINY = {"emb_dim": 8, "hidden_dim": 12, "text_mode": "mean",
        "history_window": 10, "oot_threshold": 3, "lr": 0.01,
        "finetune_lr": 0.01, "clip_norm": 10.0, "batch_size": 64,
        "patience": 3, "max_epochs": 12, "seed": 0}


# ---------------------------------------------------------------------------
# instance extraction


def _instances_for(cbn, n, seed, annotate=False, oot_threshold=3):
    corpus = cbn.sample_chains(n, seed, annotate_scenario=annotate)
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab,
                                             oot_threshold=oot_threshold)
    return inst, vocab, corpus


def test_history_window_is_ten():
    cbn = synth.build_fixture("F-UNIFORM")
    corpus = cbn.sample_chains(1, seed=0)
    # grow the chain to length 12 by concatenating sampled events
    chain = corpus.chains[0]
    while len(chain.events) < 12:
        chain.events.append(chain.events[0])
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab)
    target, ctx = inst[10]  # position i = 11
    assert len(ctx.in_text_history) == 10


def test_history_window_beyond_ten():
    cbn = synth.build_fixture("F-UNIFORM")
    corpus = cbn.sample_chains(3, seed=0)
    for chain in corpus.chains:
        while len(chain.events) < 14:
            chain.events.append(chain.events[0])
        del chain.events[14:]
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab, history_window=12)
    target, ctx = inst[12]  # position i = 13
    assert len(ctx.in_text_history) == 12
    model = causal.ConditionalModel(len(vocab), 1,
                                    dict(TINY, history_window=12))
    table = causal.estimate_interventions(
        model, causal.AdjustmentSet([ctx], seed=0))
    for k in range(len(vocab)):
        sub = causal.ConditionalContext(k, ctx.in_text_history)
        np.testing.assert_allclose(table.row(k), model.distribution(sub),
                                   atol=1e-12)
    table = causal.estimate_interventions(
        model, causal.sample_adjustment_set(inst, 30, seed=1))
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, atol=1e-9)


def test_first_position_has_empty_history():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, vocab, corpus = _instances_for(cbn, 1, seed=0)
    target, ctx = inst[0]
    assert ctx.in_text_history == []
    assert ctx.prev_event == vocab.id_of(corpus.chains[0].events[0].event.key)


def test_oot_rating_threshold():
    import json
    from scriptcausal.corpus import parse_chain_line, ChainCorpus
    line = json.dumps({"chain_id": "c", "events": [
        {"pred": "a", "dep": "x", "oot": [["low:x", 2], ["high:x", 3]]},
        {"pred": "b", "dep": "x"}]})
    corpus = ChainCorpus([parse_chain_line(line)])
    vocab = build_vocab_from(corpus, min_count=1)
    inst = causal.extract_training_instances(corpus, vocab, oot_threshold=3)
    _, ctx = inst[0]
    assert ctx.oot_events == [vocab.id_of("high:x")]


# ---------------------------------------------------------------------------
# model basics


def test_distribution_sums_to_one():
    model = causal.ConditionalModel(9, 4, TINY)
    ctx = causal.ConditionalContext(3, [4, 5], [1, 2], [])
    dist = model.distribution(ctx)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert (dist >= 0).all()


def test_prev_event_changes_distribution():
    model = causal.ConditionalModel(9, 4, TINY)
    d1 = model.distribution(causal.ConditionalContext(3, [4], [], []))
    d2 = model.distribution(causal.ConditionalContext(5, [4], [], []))
    assert not np.allclose(d1, d2)


def _with_zero_wo(model):
    params = {k: v.copy() for k, v in model.params.items()}
    params["W_O"] = np.zeros((model.vocab_size, model.config["emb_dim"]))
    return causal.ConditionalModel(model.vocab_size, model.token_vocab_size,
                                   model.config, params=params,
                                   phase="finetuned")


def test_zero_wo_matches_pretrained_bitwise():
    model = causal.ConditionalModel(9, 4, TINY)
    tuned = _with_zero_wo(model)
    assert not np.any(tuned.params["W_O"])
    ctx = causal.ConditionalContext(3, [4, 5], [1], [6])
    np.testing.assert_array_equal(model.distribution(ctx),
                                  tuned.distribution(ctx))


def test_empty_oot_set_reduces_to_pretrained_form():
    rng = np.random.default_rng(0)
    model = causal.ConditionalModel(9, 4, TINY)
    tuned = _with_zero_wo(model)
    tuned.params["W_O"] = rng.normal(size=tuned.params["W_O"].shape)
    ctx = causal.ConditionalContext(3, [4], [], [])   # no out-of-text events
    np.testing.assert_allclose(model.distribution(ctx),
                               tuned.distribution(ctx), atol=1e-14)


def test_training_is_deterministic():
    cbn = synth.build_fixture("F-DET")
    inst, vocab, _ = _instances_for(cbn, 60, seed=1)
    cfg = dict(TINY, max_epochs=2)
    models = [causal.train_conditional(inst[:300], inst[300:350], len(vocab),
                                       1, cfg) for _ in range(2)]
    for name in models[0].params:
        np.testing.assert_array_equal(models[0].params[name],
                                      models[1].params[name])


def test_deterministic_kernel_heldout_accuracy():
    cbn = synth.build_fixture("F-DET")
    inst, vocab, _ = _instances_for(cbn, 400, seed=2)
    split = int(0.9 * len(inst))
    train, held = inst[:split], inst[split:]
    model = causal.train_conditional(train, held, len(vocab), 1, TINY)
    hits = sum(int(np.argmax(model.distribution(ctx)) == t)
               for t, ctx in held)
    assert hits / len(held) >= 0.95


def test_finetune_lowers_heldout_xent_with_annotations():
    cbn = synth.build_fixture("F-POPCORN")
    inst, vocab, _ = _instances_for(cbn, 500, seed=3, annotate=True)
    split = int(0.9 * len(inst))
    train, held = inst[:split], inst[split:]
    pre = causal.train_conditional(
        train, held, len(vocab), 1, dict(TINY, max_epochs=8))
    tuned = causal.finetune_with_oot(pre, train,
                                     dict(TINY, max_epochs=8))

    def xent(m):
        return -np.mean([np.log(m.distribution(ctx)[t]) for t, ctx in held])

    assert xent(tuned) < xent(pre)


def test_model_file_round_trip(tmp_path):
    model = causal.ConditionalModel(9, 4, TINY, phase="finetuned")
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    model.save(p1)
    loaded = causal.ConditionalModel.load(p1)
    assert loaded.phase == "finetuned"
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# intervention estimation


def test_single_sample_equals_substituted_conditional():
    model = causal.ConditionalModel(9, 4, TINY)
    ctx = causal.ConditionalContext(3, [4, 5], [2], [])
    table = causal.estimate_interventions(
        model, causal.AdjustmentSet([ctx], seed=0))
    for k in range(9):
        sub = causal.ConditionalContext(k, ctx.in_text_history,
                                        ctx.text_tokens, ctx.oot_events)
        np.testing.assert_allclose(table.row(k), model.distribution(sub),
                                   atol=1e-12)


def test_estimator_matches_per_row_formula():
    """Every do-row equals mean_j softmax(A gru_step(emb[k], h_j) + B v_t +
    W_O v_o), computed context by context, across chunk boundaries."""
    rng = np.random.default_rng(8)
    V, n_tokens = 11, 6
    model = causal.ConditionalModel(V, n_tokens, TINY, phase="finetuned")
    p = model.params
    p["W_O"] = rng.normal(size=p["W_O"].shape)
    p["A"] *= 4.0
    p["B"] *= 4.0

    def ids(low, high, most):
        return [int(i) for i in rng.integers(low, high, size=rng.integers(0, most))]

    contexts = [causal.ConditionalContext(int(rng.integers(NUM_SPECIALS, V)),
                                          ids(NUM_SPECIALS, V, 5),
                                          ids(0, n_tokens, 4),
                                          ids(NUM_SPECIALS, V, 3))
                for _ in range(150)]
    for channel in ("in_text_history", "text_tokens", "oot_events"):
        lengths = [len(getattr(c, channel)) for c in contexts]
        assert min(lengths) == 0 < max(lengths)

    table = causal.estimate_interventions(
        model, causal.AdjustmentSet(contexts, seed=0), batch_size=64)

    h_dim = TINY["hidden_dim"]
    expected = np.zeros((V, V))
    for ctx in contexts:
        h = np.zeros((1, h_dim))
        for e in ctx.in_text_history:
            h, _ = K.gru_step(p, "enc", p["emb"][e], h)
        v_t = (p["text_emb"][ctx.text_tokens].mean(axis=0) if ctx.text_tokens
               else np.zeros(h_dim))
        v_o = (p["emb"][ctx.oot_events].mean(axis=0) if ctx.oot_events
               else np.zeros(TINY["emb_dim"]))
        for k in range(V):
            v_e, _ = K.gru_step(p, "enc", p["emb"][k], h)
            expected[k] += K.softmax(p["A"] @ v_e[0] + p["B"] @ v_t
                                     + p["W_O"] @ v_o)
    expected /= len(contexts)
    np.testing.assert_allclose(table.effect, expected, rtol=0, atol=1e-12)


def test_intervention_rows_are_distributions():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, vocab, _ = _instances_for(cbn, 40, seed=4)
    model = causal.ConditionalModel(len(vocab), 1, TINY)
    adj = causal.sample_adjustment_set(inst, 50, seed=1)
    table = causal.estimate_interventions(model, adj)
    np.testing.assert_allclose(table.effect.sum(axis=1), 1.0, atol=1e-9)


def test_adjustment_sampling_deterministic():
    cbn = synth.build_fixture("F-UNIFORM")
    inst, _, _ = _instances_for(cbn, 30, seed=5)
    a = causal.sample_adjustment_set(inst, 10, seed=9)
    b = causal.sample_adjustment_set(inst, 10, seed=9)
    assert [c[1].prev_event for c in a.contexts] == \
           [c[1].prev_event for c in b.contexts]


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
    assert causal.script_score(table, 0, 0) == pytest.approx(0.7 / 1.2)
    S = causal.script_score_matrix(table)
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
    pick1 = causal.complete_chain(lambda k, l: S[k, l], [3, 4, 5],
                                  vocab_size=8)
    pick2 = causal.complete_chain(lambda k, l: S[k, l], [5, 3, 4],
                                  vocab_size=8)
    assert pick1 == pick2


def test_complete_chain_single_context_matches_argmax():
    rng = np.random.default_rng(10)
    S = rng.random((8, 8))
    pick = causal.complete_chain(lambda k, l: S[k, l], [4], vocab_size=8)
    assert pick == NUM_SPECIALS + int(np.argmax(S[4, NUM_SPECIALS:]))


def test_complete_chain_requires_context():
    with pytest.raises(ConfigError):
        causal.complete_chain(lambda k, l: 0.0, [], vocab_size=8)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10**6))
def test_script_columns_always_normalize(V, seed):
    rng = np.random.default_rng(seed)
    effect = rng.dirichlet(np.ones(V), size=V)
    S = causal.script_score_matrix(causal.InterventionTable(effect))
    np.testing.assert_allclose(S.sum(axis=0), 1.0, atol=1e-9)
