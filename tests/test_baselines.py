"""Ordered skip-bigram PMI and the event-sequence LM baseline."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scriptcausal import baselines, evaluation
from scriptcausal import kernel as K
from scriptcausal.corpus import parse_chains
from scriptcausal.errors import ConfigError
from scriptcausal.events import (END_ID, NUM_SPECIALS, SPECIAL_KEYS, START_ID,
                                 Vocabulary)


def _corpus_from_id_chains(id_chains, preds):
    """Build a corpus + vocab whose dense ids follow the order of ``preds``."""
    import json
    vocab = Vocabulary([*SPECIAL_KEYS, *(f"{p}:x" for p in preds)],
                       [0] * NUM_SPECIALS + [1] * len(preds))
    lines = []
    for i, ids in enumerate(id_chains):
        events = [{"pred": preds[k - NUM_SPECIALS], "dep": "x"} for k in ids]
        lines.append(json.dumps({"chain_id": f"c{i}", "events": events}))
    return parse_chains(lines), vocab


def _next(lm, histories):
    """``lm.next_distribution`` of histories given as id lists."""
    return lm.next_distribution(K.Windows.of(histories))


def _as_dict(counts):
    """The nonzero pairs of ``counts`` as {(e1, e2): count}."""
    e1, e2 = np.nonzero(counts.pairs)
    return dict(zip(zip(e1.tolist(), e2.tolist()), counts.pairs[e1, e2].tolist()))


def test_window_two_pair_enumeration():
    a, b, c = NUM_SPECIALS, NUM_SPECIALS + 1, NUM_SPECIALS + 2
    corpus, vocab = _corpus_from_id_chains([[a, b, c]], ["a", "b", "c"])
    counts = baselines.count_skip_bigrams(corpus, vocab, window=2)
    assert _as_dict(counts) == {(a, b): 1, (a, c): 1, (b, c): 1}


def test_window_one_adjacent_only():
    ids = list(range(NUM_SPECIALS, NUM_SPECIALS + 4))
    corpus, vocab = _corpus_from_id_chains([ids], list("abcd"))
    counts = baselines.count_skip_bigrams(corpus, vocab, window=1)
    want = {(ids[i], ids[i + 1]): 1 for i in range(3)}
    assert _as_dict(counts) == want


def test_self_pairs_counted():
    a = NUM_SPECIALS
    corpus, vocab = _corpus_from_id_chains([[a, a]], ["a"])
    counts = baselines.count_skip_bigrams(corpus, vocab, window=2)
    assert _as_dict(counts) == {(a, a): 1}


def test_counting_is_direction_sensitive():
    a, b = NUM_SPECIALS, NUM_SPECIALS + 1
    corpus, vocab = _corpus_from_id_chains([[a, b], [a, b], [b, a]],
                                           ["a", "b"])
    counts = baselines.count_skip_bigrams(corpus, vocab, window=2)
    assert counts.pairs[a, b] == 2
    assert counts.pairs[b, a] == 1


def _reference_counts(id_chains, window):
    """Brute-force pair enumerator used as an oracle."""
    pairs = {}
    for ids in id_chains:
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if j - i <= window:
                    pairs[(ids[i], ids[j])] = pairs.get((ids[i], ids[j]), 0) + 1
    return pairs


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12),
                min_size=1, max_size=50),
       st.integers(1, 4))
def test_counts_match_brute_force(raw_chains, window):
    preds = list("abcdef")
    id_chains = [[k + NUM_SPECIALS for k in ids] for ids in raw_chains]
    corpus, vocab = _corpus_from_id_chains(id_chains, preds)
    counts = baselines.count_skip_bigrams(corpus, vocab, window=window)
    assert _as_dict(counts) == _reference_counts(id_chains, window)


def test_merge_is_additive():
    a, b = NUM_SPECIALS, NUM_SPECIALS + 1
    c1, _ = _corpus_from_id_chains([[a, b]], ["a", "b"])
    c2, vocab = _corpus_from_id_chains([[b, a], [a, b]], ["a", "b"])
    merged = (baselines.count_skip_bigrams(c1, vocab).pairs
              + baselines.count_skip_bigrams(c2, vocab).pairs)
    both, _ = _corpus_from_id_chains([[a, b], [b, a], [a, b]], ["a", "b"])
    direct = baselines.count_skip_bigrams(both, vocab)
    assert np.array_equal(merged, direct.pairs)
    assert merged.sum() == direct.pairs.sum()


def _fixture_counts():
    """c(x,y)=3, left(x)=4, right(y)=3, grand total 10."""
    pairs = np.zeros((6, 6), dtype=np.int64)
    pairs[0, 1] = 3   # x -> y
    pairs[0, 2] = 1   # pad left(x) to 4
    pairs[3, 4] = 6   # pad the grand total to 10
    return baselines.OrderedCounts(2, pairs)


def test_pmi_discounted_hand_value():
    counts = _fixture_counts()
    raw = math.log(2.5)
    want = raw * (3 / 4) * (3 / 4)
    got = baselines.pmi_matrix(counts)[0, 1]
    assert got == pytest.approx(want, abs=1e-9)
    assert got == pytest.approx(0.5154, abs=5e-5)


def test_pmi_unseen_pair_is_neg_inf():
    counts = _fixture_counts()
    assert baselines.pmi_matrix(counts)[1, 0] == -math.inf


def test_counts_file_round_trip(tmp_path):
    ids = [NUM_SPECIALS, NUM_SPECIALS + 1, NUM_SPECIALS]
    corpus, vocab = _corpus_from_id_chains([ids, ids[::-1]], ["a", "b"])
    counts = baselines.count_skip_bigrams(corpus, vocab)
    p1, p2 = tmp_path / "c1.tsv", tmp_path / "c2.tsv"
    baselines.save_counts(counts, vocab, p1)
    loaded = baselines.load_counts(p1, vocab)
    assert np.array_equal(loaded.pairs, counts.pairs)
    baselines.save_counts(loaded, vocab, p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# event LM


TINY_LM = {"emb_dim": 12, "hidden_dim": 16, "num_layers": 2, "dropout": 0.0,
           "lr": 0.01, "clip_norm": 10.0, "batch_size": 16, "patience": 5,
           "max_epochs": 60, "seed": 0}


def _reference_pmi(pairs, e1, e2):
    """Discounted ordered PMI of one pair from scalar counts and ``math.log``."""
    c = int(pairs[e1, e2])
    if c == 0:
        return -math.inf
    T, left, right = int(pairs.sum()), int(pairs[e1].sum()), int(pairs[:, e2].sum())
    raw = math.log((c / T) / ((left / T) * (right / T)))
    m = min(left, right)
    return raw * (c / (c + 1.0)) * (m / (m + 1.0))


@settings(max_examples=60, deadline=None)
@example(([4, 6, 0, 4, 7, 0, 0, 0, 0], 2, 2))   # np.log misses ln(21/20) by 1 ulp
@given(st.integers(1, 7).flatmap(lambda V: st.tuples(
    st.lists(st.one_of(st.just(0), st.integers(1, 9), st.integers(1, 10**9)),
             min_size=V * V, max_size=V * V),
    st.integers(0, V - 1), st.integers(0, V - 1))))
def test_pmi_matrix_equals_scalar_reference(drawn):
    """Every entry bit for bit, with one all-zero row and column (-inf)."""
    values, row, col = drawn
    V = math.isqrt(len(values))
    pairs = np.array(values, dtype=np.int64).reshape(V, V)
    pairs[row], pairs[:, col] = 0, 0
    M = baselines.pmi_matrix(baselines.OrderedCounts(2, pairs))
    assert M.shape == (V, V)
    for e1 in range(V):
        for e2 in range(V):
            assert M[e1, e2] == _reference_pmi(pairs, e1, e2)
    assert np.all(M[row] == -math.inf) and np.all(M[:, col] == -math.inf)


def _memorization_corpus(pattern, n=40):
    preds = sorted(set(pattern))
    id_chains = [[preds.index(p) + NUM_SPECIALS for p in pattern]] * n
    return _corpus_from_id_chains(id_chains, preds)


def test_lm_memorizes_two_event_chain():
    corpus, vocab = _memorization_corpus(["a", "b"])
    lm = baselines.train_event_lm(corpus, corpus, vocab, TINY_LM)
    a = vocab.id_of("a:x")
    (dist,) = _next(lm, [[a]])
    assert dist[vocab.id_of("b:x")] >= 0.9


def test_lm_completion_argmax_on_memorized_triple():
    corpus, vocab = _memorization_corpus(["a", "b", "c"])
    lm = baselines.train_event_lm(corpus, corpus, vocab, TINY_LM)
    a, b, c = (vocab.id_of(f"{p}:x") for p in "abc")
    (dist,) = _next(lm, [[a, b]])
    assert int(np.argmax(dist)) == c


def test_lm_next_distribution_is_a_distribution():
    corpus, vocab = _memorization_corpus(["a", "b"], n=4)
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=len(vocab), max_epochs=0))
    dists = _next(lm, [[NUM_SPECIALS], [], [NUM_SPECIALS, 4]])
    assert dists.shape == (3, len(vocab))
    np.testing.assert_allclose(dists.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (dists >= 0).all()


def test_lm_chain_scores_exponentiate_to_one():
    corpus, vocab = _memorization_corpus(["a", "b"], n=4)
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=len(vocab)))
    column = evaluation.lm_sheet_system(lm)   # log p(k, l) of a 2-event chain
    total = sum(math.exp(score) for cand in range(len(vocab))
                for score in column(cand))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_lm_deterministic_training():
    corpus, vocab = _memorization_corpus(["a", "b"], n=10)
    cfg = dict(TINY_LM, max_epochs=3)
    lm1 = baselines.train_event_lm(corpus, corpus, vocab, cfg)
    lm2 = baselines.train_event_lm(corpus, corpus, vocab, cfg)
    for name in lm1.params:
        np.testing.assert_array_equal(lm1.params[name], lm2.params[name])


def test_lm_with_no_dev_set_holds_out_the_training_chains():
    """With an empty dev corpus, early stopping reads the training chains:
    the same dev losses and parameters bit for bit as with dev = them."""
    rng = np.random.default_rng(2)
    corpus, vocab = _corpus_from_id_chains(
        [rng.integers(NUM_SPECIALS, NUM_SPECIALS + 4, size=rng.integers(1, 6))
         for _ in range(30)], list("abcd"))
    cfg, logs = dict(TINY_LM, max_epochs=3, dropout=0.2), ([], [])
    got, want = (baselines.train_event_lm(corpus, dev, vocab, cfg, log.append)
                 for dev, log in zip((corpus.take(np.arange(0)), corpus), logs))
    assert logs[0] == logs[1] and len(logs[0]) == 3
    for name in want.params:
        np.testing.assert_array_equal(got.params[name], want.params[name])


def test_lm_beats_unigram_perplexity():
    # mixed corpus with real sequential structure
    rng = np.random.default_rng(0)
    preds = list("abcd")
    id_chains = []
    for _ in range(120):
        start = int(rng.integers(0, 4))
        ids = [(start + t) % 4 + NUM_SPECIALS for t in range(6)]
        id_chains.append(ids)
    corpus, vocab = _corpus_from_id_chains(id_chains, preds)
    lm = baselines.train_event_lm(corpus, corpus, vocab,
                                  dict(TINY_LM, max_epochs=25))
    ids = corpus.event_ids(vocab)
    lm_ppl = math.exp(K.mean_loss(lm, baselines.frame(
        K.Windows(ids, corpus.offsets[:-1], np.diff(corpus.offsets)))))
    # unigram oracle over the same framed token stream (events + </s>)
    from collections import Counter
    seqs = np.split(ids, corpus.offsets[1:-1])
    tokens = [t for s in seqs for t in list(s) + [END_ID]]
    freq = Counter(tokens)
    total = len(tokens)
    uni_ppl = math.exp(-sum(math.log(freq[t] / total) for t in tokens) / total)
    assert lm_ppl < uni_ppl


def _padded_lm_loss_and_grads(lm, sequences, rng=None):
    """Reference LM step over right-padded (T, B) input, target and mask
    matrices, one GRU layer after another."""
    framed = [[START_ID, *s, END_ID] for s in sequences]
    T, B = max(len(s) for s in framed) - 1, len(framed)
    inputs, targets = np.zeros((2, T, B), dtype=int)
    mask = np.zeros((T, B))
    for b, s in enumerate(framed):
        n = len(s) - 1
        inputs[:n, b], targets[:n, b], mask[:n, b] = s[:-1], s[1:], 1.0
    p, cfg = lm.params, lm.config
    masks = None
    if rng is not None:
        keep = 1.0 - cfg["dropout"]
        masks = [(rng.random((T, B, cfg[k])) < keep) / keep
                 for k in ("emb_dim", "hidden_dim")]
    layout = K.SeqLayout.unshared(mask.sum(axis=0).astype(np.intp))
    at = (layout.steps, layout.rows)
    h = p["emb"][inputs[at]]
    if masks:
        h = h * masks[0][at]
    caches = []
    for layer in range(cfg["num_layers"]):
        h, cache = K.gru_forward(p, f"gru{layer}", h, layout)
        caches.append(cache)
    if masks:
        h = h * masks[1][at]
    logits = h @ p["out.W"].T + p["out.b"]
    loss_sum, dlogits = K.softmax_xent_batch(logits, targets[at])
    dlogits /= float(len(logits))
    grads = {k: np.zeros_like(v) for k, v in p.items()}
    grads["out.W"] += dlogits.T @ h
    grads["out.b"] += dlogits.sum(axis=0)
    dh = dlogits @ p["out.W"]
    if masks:
        dh *= masks[1][at]
    for layer in range(cfg["num_layers"] - 1, -1, -1):
        dh = K.gru_backward(p, f"gru{layer}", caches[layer], dh, grads)
    if masks:
        dh = dh * masks[0][at]
    grads["emb"] += K.scatter_rows(inputs[at], dh, len(p["emb"]))
    return loss_sum / float(len(logits)), grads


def _random_chains(rng, n, V):
    seqs = [rng.integers(NUM_SPECIALS, V, size=rng.integers(0, 6))
            for _ in range(n)]
    return seqs, baselines.frame(K.Windows.of(seqs))


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_lm_step_on_framed_chains_equals_padded_reference(dropout):
    rng = np.random.default_rng(7)
    V = 11
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=V, dropout=dropout, num_layers=3))
    seqs, chains = _random_chains(rng, 9, V)
    batch = np.array([4, 0, 8, 2, 7])
    loss, grads = lm.loss_and_grads(chains.take(batch), rng=np.random.default_rng(3))
    want_loss, want = _padded_lm_loss_and_grads(
        lm, [seqs[i] for i in batch], np.random.default_rng(3))
    assert loss == want_loss
    assert grads.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(grads[name], want[name], err_msg=name)


def test_frame_gathers_each_window_between_start_and_end():
    """``frame`` of windows that skip and overlap ids is the framing of their
    id lists: each row's inputs ``<s> ids...``, its targets one later."""
    seqs = K.Windows(np.array([5, 6, 7, 8]), np.array([1, 0, 4, 2]),
                     np.array([3, 2, 0, 1]))
    framed = baselines.frame(seqs)
    np.testing.assert_array_equal(framed.lengths, [4, 3, 1, 2])
    rows = [framed.values[s:s + n + 1].tolist()
            for s, n in zip(framed.starts, framed.lengths)]
    assert rows == [[START_ID, 6, 7, 8, END_ID], [START_ID, 5, 6, END_ID],
                    [START_ID, END_ID], [START_ID, 7, END_ID]]


@pytest.mark.parametrize("batch_size", [1, 4, 9, 64])
def test_mean_loss_is_the_loss_per_target_of_one_pass(batch_size):
    """kernel.mean_loss, over batches of chains that hold different numbers
    of targets, is the cross entropy per target of one pass over them all."""
    V = 10
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=V, batch_size=batch_size))
    _, chains = _random_chains(np.random.default_rng(4), 9, V)
    logits, targets, _ = lm._forward(lm.params, chains)
    want = K.softmax_xent_batch(logits, targets)[0] / len(targets)
    got = K.mean_loss(lm, chains)
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def _framed_rows(lm, seqs, chains):
    """{history: softmax row} of every prefix of ``seqs`` from the batch
    forward pass over the framed chains."""
    logits, targets, _ = lm._forward(lm.params, chains)
    layout = K.SeqLayout.unshared(chains.lengths)
    rows = {}
    for b, s in enumerate(seqs):
        for t in range(len(s) + 1):
            row = np.flatnonzero((layout.rows == b) & (layout.steps == t))[0]
            assert targets[row] == ([*s, END_ID])[t]
            rows[tuple(s[:t])] = K.softmax(logits[row])
    return rows


def test_lm_next_distribution_is_the_framed_forward_row():
    rng = np.random.default_rng(8)
    V = 9
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=V))
    seqs, chains = _random_chains(rng, 6, V)
    want = _framed_rows(lm, seqs, chains)
    histories = [s[:t] for s in seqs for t in range(len(s) + 1)]
    # rows of one batched pass against another: equal up to BLAS summation order
    for history, got in zip(histories, _next(lm, histories)):
        np.testing.assert_allclose(got, want[tuple(history)], rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [0, 1, evaluation.BLOCK, 2 * evaluation.BLOCK + 3])
def test_lm_next_distribution_blocks_are_the_framed_forward_rows(n):
    """Histories scored BLOCK at a time, as the cloze and the sheet score
    them: a block boundary may fall between histories that share a prefix.
    n = 0 scores the empty history alone."""
    rng = np.random.default_rng(9)
    V = 10
    lm = baselines.EventLM(dict(TINY_LM, vocab_size=V))
    # more distinct histories than the largest n
    seqs, chains = _random_chains(rng, 3 * evaluation.BLOCK, V)
    want = _framed_rows(lm, seqs, chains)
    histories = sorted(want, key=lambda h: (-len(h), h))[:n] if n else [()]
    assert len(histories) == max(n, 1)
    assert n < 2 or len(set(h[:1] for h in histories)) < n   # shared prefixes
    for i in range(0, len(histories), evaluation.BLOCK):
        block = [list(h) for h in histories[i:i + evaluation.BLOCK]]
        got = _next(lm, block)
        assert got.shape == (len(block), V)
        for history, row in zip(block, got):
            np.testing.assert_allclose(row, want[tuple(history)],
                                       rtol=1e-12, atol=0)


def test_lm_model_file_round_trip(tmp_path):
    corpus, vocab = _memorization_corpus(["a", "b"], n=10)
    lm = baselines.train_event_lm(corpus, corpus, vocab,
                                  dict(TINY_LM, max_epochs=2))
    p1, p2 = tmp_path / "lm1.bin", tmp_path / "lm2.bin"
    lm.save(p1)
    baselines.EventLM.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_window_rejected():
    corpus, vocab = _memorization_corpus(["a", "b"], n=1)
    with pytest.raises(ConfigError):
        baselines.count_skip_bigrams(corpus, vocab, window=0)
