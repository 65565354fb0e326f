"""Numerics core: GRU cell, text encoder, losses, Adam, gradient checking.

The GRU reference below is an independent scalar re-implementation (plain
Python loops) used as an oracle for the vectorized code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scriptcausal.kernel as K
from scriptcausal.causal import _mean_terms, mean_scores
from scriptcausal.errors import DataFormatError, NumericalError


def _zero_gru_params(d_in, d_h):
    p = {}
    for gate in "zrh":
        p[f"g.W{gate}"] = np.zeros((d_h, d_in))
        p[f"g.U{gate}"] = np.zeros((d_h, d_h))
        p[f"g.b{gate}"] = np.zeros(d_h)
    return p


def _scalar_gru_step(p, x, h_prev):
    """Loop-based reference for one GRU step."""
    d_h = len(h_prev)
    out = [0.0] * d_h
    z = [0.0] * d_h
    r = [0.0] * d_h
    for i in range(d_h):
        az = p["g.bz"][i] + sum(p["g.Wz"][i][j] * x[j] for j in range(len(x)))
        ar = p["g.br"][i] + sum(p["g.Wr"][i][j] * x[j] for j in range(len(x)))
        for j in range(d_h):
            az += p["g.Uz"][i][j] * h_prev[j]
            ar += p["g.Ur"][i][j] * h_prev[j]
        z[i] = 1.0 / (1.0 + math.exp(-az))
        r[i] = 1.0 / (1.0 + math.exp(-ar))
    for i in range(d_h):
        ah = p["g.bh"][i] + sum(p["g.Wh"][i][j] * x[j] for j in range(len(x)))
        for j in range(d_h):
            ah += p["g.Uh"][i][j] * (r[j] * h_prev[j])
        hc = math.tanh(ah)
        out[i] = (1.0 - z[i]) * h_prev[i] + z[i] * hc
    return out


def test_gru_zero_params_halves_state():
    p = _zero_gru_params(3, 4)
    h_prev = np.array([1.0, -2.0, 0.5, 4.0])
    h, _ = K.gru_step(p, "g", np.zeros(3), h_prev)
    # z = r = 0.5, candidate = tanh(0) = 0, so h = 0.5 * h_prev
    np.testing.assert_allclose(h[0], 0.5 * h_prev, atol=1e-15)


def test_gru_zero_state_zero_params_stays_zero():
    p = _zero_gru_params(2, 3)
    h, _ = K.gru_step(p, "g", np.zeros(2), np.zeros(3))
    np.testing.assert_array_equal(h[0], np.zeros(3))


def test_gru_matches_scalar_reference():
    rng = np.random.default_rng(0)
    p = {}
    K.init_gru(rng, "g", 4, 4, p)
    x = rng.normal(size=4)
    h_prev = rng.normal(size=4)
    got, _ = K.gru_step(p, "g", x, h_prev)
    want = _scalar_gru_step(p, x, h_prev)
    np.testing.assert_allclose(got[0], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("in_place", [False, True])
def test_gru_cell_equals_gru_step(in_place):
    """gru_cell, given gru_weights' fused pre-activations, writes gru_step's
    gates, candidate and h within 1e-15; in place, the gates overwrite
    their pre-activations and h the candidate."""
    rng = np.random.default_rng(3)
    p = {}
    K.init_gru(rng, "g", 5, 6, p)
    for name in p:
        p[name] = rng.normal(size=p[name].shape)
    x, h_prev = rng.normal(size=(7, 5)), rng.normal(size=(7, 6))
    want, (_, _, z, r, hc_want) = K.gru_step(p, "g", x, h_prev)
    W, b, U_zr, Uh = K.gru_weights(p, "g")
    xp = x @ W.T + b
    a_zr = h_prev @ U_zr.T + xp[:, :12]
    zr, hc, rh = (a_zr if in_place else np.empty((7, 12))), np.empty((7, 6)), \
        np.empty((7, 6))
    h = hc if in_place else np.empty((7, 6))
    assert K.gru_cell(a_zr, xp[:, 12:], h_prev, Uh, zr, hc, h, rh) is h
    np.testing.assert_allclose(h, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(zr, np.hstack([z, r]), rtol=0, atol=1e-15)
    if not in_place:
        np.testing.assert_allclose(hc, hc_want, rtol=0, atol=1e-15)


def _final_state(p, emb, ids):
    """Final GRU state over the embeddings of one id sequence."""
    H, _ = K.gru_forward(p, "g", emb[ids], K.SeqLayout.unshared([len(ids)]))
    return H[-1]


def test_encode_sequence_order_sensitive():
    rng = np.random.default_rng(1)
    p = {}
    K.init_gru(rng, "g", 5, 6, p)
    emb = rng.normal(size=(10, 5))
    a = _final_state(p, emb, [3, 4, 5])
    b = _final_state(p, emb, [5, 4, 3])
    assert not np.allclose(a, b)


def test_encode_sequence_single_step_from_zero_state():
    rng = np.random.default_rng(2)
    p = {}
    K.init_gru(rng, "g", 5, 6, p)
    emb = rng.normal(size=(10, 5))
    direct, _ = K.gru_step(p, "g", emb[7], np.zeros(6))
    np.testing.assert_array_equal(_final_state(p, emb, [7]), direct[0])


def test_mean_encoder_identical_tokens():
    emb = np.arange(12, dtype=float).reshape(4, 3)
    vec = mean_scores(emb, K.Windows.of([[2, 2]]))
    np.testing.assert_array_equal(vec[0], emb[2])


def test_mean_encoder_empty_is_zero():
    emb = np.ones((4, 3))
    vec = mean_scores(emb, K.Windows.of([[]]))
    np.testing.assert_array_equal(vec[0], np.zeros(3))


def test_windowed_set_mean_is_the_padded_mean_bit_for_bit():
    """The set mean over windows and its backward terms have the bits of
    the masked mean over right-padded ids, signed zeros and empty rows
    included, on 300 random ragged sets."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n, V, d = rng.integers(1, 12), rng.integers(1, 9), rng.integers(1, 6)
        emb = rng.normal(size=(V, d))
        emb[rng.random((V, d)) < 0.1] = -0.0
        sets = [rng.integers(0, V, size=rng.integers(0, 6)).tolist()
                for _ in range(n)]
        lengths = np.array([len(s) for s in sets])
        ids = np.zeros((n, lengths.max()), dtype=np.intp)
        for r, s in enumerate(sets):
            ids[r, :len(s)] = s
        mask = np.arange(ids.shape[1]) < lengths[:, None]
        safe = np.maximum(lengths, 1)[:, None]
        d_vec = rng.normal(size=(n, d))
        vec = mean_scores(emb, K.Windows.of(sets))
        assert vec.tobytes() == ((emb[ids] * mask[:, :, None]).sum(axis=1)
                                 / safe).tobytes()
        got_ids, got_rows = _mean_terms(d_vec, K.Windows.of(sets))
        np.testing.assert_array_equal(got_ids, ids[mask])
        assert got_rows.tobytes() == (d_vec / safe)[np.nonzero(mask)[0]].tobytes()


# ---------------------------------------------------------------------------
# losses


def test_sigmoid_matches_logistic_without_overflow():
    x = np.linspace(-40.0, 40.0, 801)
    np.testing.assert_allclose(K.sigmoid(x), 1.0 / (1.0 + np.exp(-x)),
                               rtol=0, atol=1e-15)
    with np.errstate(all="raise"):
        y = np.array([-1000.0, 0.0, 1000.0])
        assert K.sigmoid(y, out=y) is y
    np.testing.assert_array_equal(y, [0.0, 0.5, 1.0])


def test_xent_uniform_logits():
    loss, _ = K.softmax_xent_batch(np.zeros((1, 4)), [2])
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_xent_confident_logits():
    loss, _ = K.softmax_xent_batch(np.array([[10.0, 0.0, 0.0]]), [0])
    want = -math.log(math.exp(10) / (math.exp(10) + 2))
    assert loss == pytest.approx(want, rel=1e-12)
    assert loss == pytest.approx(9.08e-5, rel=1e-2)


def test_xent_gradient_sums_to_zero():
    rng = np.random.default_rng(5)
    _, grad = K.softmax_xent_batch(rng.normal(size=(1, 7)), [3])
    assert abs(grad.sum()) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-30, 30), min_size=2, max_size=12))
def test_softmax_sums_to_one(logits):
    probs = K.softmax(np.array(logits))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert (probs >= 0).all()


def test_batch_xent_matches_single():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(5, 9))
    targets = rng.integers(0, 9, size=5)
    batch_loss, _ = K.softmax_xent_batch(logits, targets)
    singles = [K.softmax_xent_batch(logits[i:i + 1], targets[i:i + 1])[0]
               for i in range(5)]
    assert batch_loss == pytest.approx(np.sum(singles), rel=1e-12)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, 2.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, {"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])
    assert state.step == 1


def test_adam_clips_by_global_norm():
    params = {"w": np.array([0.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, {"w": np.array([20.0])})
    # gradient 20 clipped to 10; after bias correction the first Adam step
    # moves by lr regardless of magnitude, so inspect the first moment
    assert state.m[0] == pytest.approx(0.1 * 10.0)


def test_adam_first_step_is_approximately_lr():
    params = {"w": np.array([5.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(5.0 - 0.001, abs=1e-8)


def test_adam_rejects_nonfinite():
    params = {"w": np.array([0.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    with pytest.raises(NumericalError):
        K.adam_update(state, {"w": np.array([np.nan])})


def _adam_per_array(params, grads_seq, lr, clip_norm, b1=0.9, b2=0.999,
                    eps=1e-8):
    """Reference Adam: one array at a time, in the same order of operations."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        norm = K.global_norm(grads)
        scale = clip_norm / norm if norm > clip_norm else 1.0
        for name, p in params.items():
            g = grads[name] * scale
            m[name] = m[name] * b1 + g * (1 - b1)
            v[name] = v[name] * b2 + (g * g) * (1 - b2)
            p -= (m[name] / (1 - b1 ** t)) * lr / (
                np.sqrt(v[name] / (1 - b2 ** t)) + eps)


def test_flat_adam_matches_per_array_adam_bit_for_bit():
    rng = np.random.default_rng(5)
    shapes = {"a": (3, 4), "b": (7,), "c": (2, 2)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    want = {k: p.copy() for k, p in params.items()}
    # the second step's gradient is large enough to be clipped
    grads_seq = [{k: rng.normal(size=s) * scale for k, s in shapes.items()}
                 for scale in (1.0, 50.0, 0.1)]
    _adam_per_array(want, grads_seq, lr=0.01, clip_norm=10.0)
    state = K.AdamState(params, lr=0.01, clip_norm=10.0)
    for grads in grads_seq:
        K.adam_update(state, grads)
    for name in shapes:
        assert params[name].shape == shapes[name]
        np.testing.assert_array_equal(params[name], want[name])


class _Items:
    """A sized set of item numbers with ``take``."""

    def __init__(self, ids):
        self.ids = np.asarray(ids, dtype=np.intp)

    def __len__(self):
        return len(self.ids)

    def take(self, idx):
        return _Items(self.ids[idx])


class _Pull:
    """A one-parameter model for ``fit``: every batch's gradient pulls w
    towards 1. Each holdout pass is one row of logits [-value(w), 0] at
    target 0, a loss of softplus(value(w)); ``seen`` records (loss, w) of
    each pass and ``batches`` the items of each training batch."""

    def __init__(self, value, **config):
        self.config = {"batch_size": 1, "patience": 3, "max_epochs": 50,
                       "clip_norm": 10.0, "seed": 0, **config}
        self.params = {"w": np.array([0.0])}
        self.value, self.seen, self.batches = value, [], []

    def loss_and_grads(self, batch, rng=None):
        self.batches.append(sorted(batch.ids.tolist()))
        return 0.0, {"w": 2.0 * (self.params["w"] - 1.0)}

    def _forward(self, params, batch):
        logits, targets = np.array([[-self.value(params["w"][0]), 0.0]]), np.array([0])
        self.seen.append((K.softmax_xent_batch(logits, targets)[0], params["w"][0]))
        return logits, targets, None


def test_fit_stops_after_patience_and_returns_best_params():
    # training pulls w towards 1; the holdout loss is lowest near w = 0.3
    model = _Pull(lambda w: (w - 0.3) ** 2, patience=2)
    lines = []
    best = K.fit(model, _Items([0]), np.arange(1), _Items([]), 0.1, "pull",
                 lines.append)
    losses = [loss for loss, _ in model.seen]
    best_epoch = int(np.argmin(losses))
    cfg = model.config
    assert len(lines) == len(model.seen) == best_epoch + 1 + cfg["patience"] \
        < cfg["max_epochs"]
    assert lines[best_epoch] == (f"pull epoch {best_epoch}: "
                                 f"dev loss {losses[best_epoch]:.4f}")
    assert all(loss >= losses[best_epoch] for loss in losses[best_epoch + 1:])
    assert best is model
    assert model.params["w"][0] == model.seen[best_epoch][1] != model.seen[-1][1]


def test_fit_batches_every_item_once_per_epoch_up_to_max_epochs():
    # the holdout loss improves every epoch, so only max_epochs stops it
    model = _Pull(lambda w: -w, batch_size=2, patience=3, max_epochs=4)
    rows = np.array([1, 3, 4, 6, 7])
    K.fit(model, _Items(range(8)), rows, _Items([0]), 0.1, "pull", max_epochs=2)
    assert [len(b) for b in model.batches] == [2, 2, 1] * 2
    assert sorted(sum(model.batches[:3], [])) == rows.tolist()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_refuses_a_non_finite_holdout_loss(bad):
    values = iter([1.0, bad])
    model = _Pull(lambda w: next(values), max_epochs=5)
    lines = []
    with pytest.raises(NumericalError, match="holdout loss is .* after epoch 1"):
        K.fit(model, _Items([0]), np.arange(1), _Items([]), 0.1, "pull",
              lines.append)
    assert lines == [f"pull epoch 0: dev loss {math.log1p(math.e):.4f}",
                     f"pull epoch 1: dev loss {bad}"]


# ---------------------------------------------------------------------------
# gradient certification


def test_finite_diff_exact_for_linear_loss():
    x = np.array([0.3, -1.2, 2.0])

    def loss_fn(params):
        return float(params["w"] @ x), {"w": x.copy()}

    err = K.finite_diff_check(loss_fn, {"w": np.array([1.0, 2.0, 3.0])})
    assert err <= 1e-9


def test_finite_diff_detects_planted_fault():
    rng = np.random.default_rng(7)
    x = rng.normal(size=4)

    def loss_fn(params):
        # analytic gradient deliberately doubled
        return float(0.5 * (params["w"] @ params["w"])), {"w": 2.0 * params["w"]}

    err = K.finite_diff_check(loss_fn, {"w": rng.normal(size=4) + 1.0},
                              rng=np.random.default_rng(8))
    assert err == pytest.approx(0.5, abs=0.05)


def test_gru_sequence_gradients_certify():
    rng = np.random.default_rng(9)
    p = {}
    K.init_gru(rng, "g", 3, 4, p)
    p["emb"] = K.init_embedding(rng, 6, 3)
    p["out"] = K.init_matrix(rng, 5, 4)
    seq = [1, 4, 2, 5]

    def loss_fn(params):
        layout = K.SeqLayout.unshared([len(seq)])
        hs, cache = K.gru_forward(params, "g", params["emb"][seq], layout)
        logits = params["out"] @ hs[-1]
        loss, dlogits = K.softmax_xent_batch(logits[None], [2])
        dlogits = dlogits[0]
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["out"] = np.outer(dlogits, hs[-1])
        dh = np.zeros((len(seq), 4))
        dh[-1] = params["out"].T @ dlogits
        dx = K.gru_backward(params, "g", cache, dh, grads)
        np.add.at(grads["emb"], seq, dx)
        return loss, grads

    assert K.finite_diff_check(loss_fn, p,
                               rng=np.random.default_rng(0)) < 1e-4


def test_masked_gru_ignores_padding():
    rng = np.random.default_rng(10)
    p = {}
    K.init_gru(rng, "g", 3, 4, p)
    x_full = rng.normal(size=(5, 3))
    # a length-3 sequence next to a length-5 one: the padding is never read
    layout = K.SeqLayout.unshared([3, 5])
    padded = np.stack([np.vstack([x_full[2:], np.full((2, 3), 9.0)]), x_full])
    hs_padded, _ = K.gru_forward(p, "g", padded[layout.rows, layout.steps], layout)
    hs_short, _ = K.gru_forward(p, "g", x_full[2:], K.SeqLayout.unshared([3]))
    np.testing.assert_allclose(layout.final(hs_padded)[0], hs_short[-1], atol=1e-14)


def _fold(p, x_seq):
    """Per-row reference: gru_step folded over one sequence from h = 0."""
    h = np.zeros((1, p["g.Uz"].shape[0]))
    states = np.zeros((len(x_seq), h.shape[1]))
    for t, x in enumerate(x_seq):
        h, _ = K.gru_step(p, "g", x, h)
        states[t] = h[0]
    return states


def test_length_aware_gru_matches_per_row_fold():
    rng = np.random.default_rng(12)
    p = {}
    K.init_gru(rng, "g", 3, 5, p)
    lengths = [2, 0, 6, 1, 4, 6, 3, 5, 0, 1]   # ragged, unsorted, some empty
    x = rng.normal(size=(len(lengths), 6, 3))
    layout = K.SeqLayout.unshared(lengths)
    H, _ = K.gru_forward(p, "g", x[layout.rows, layout.steps], layout)
    final = layout.final(H)
    for b, n in enumerate(lengths):
        want = _fold(p, x[b, :n])
        got = H[(layout.rows == b)]          # packed rows are in step order
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(final[b], want[-1] if n else np.zeros(5),
                                   rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=12))
def test_lengths_only_layout_orders_rows_by_decreasing_length(lengths):
    """Step t's rows are the first sizes[t] sequences in stable
    decreasing-length order, each continuing the row at its own position
    one step before; the LM's training bits rest on this order."""
    layout = K.SeqLayout.unshared(lengths)
    lengths = np.array(lengths, dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    assert layout.sizes == [int((lengths > t).sum())
                            for t in range(lengths.max(initial=0))]
    assert layout.offsets == np.concatenate(([0], np.cumsum(layout.sizes))).tolist()
    for t, n in enumerate(layout.sizes):
        s = slice(layout.offsets[t], layout.offsets[t + 1])
        np.testing.assert_array_equal(layout.rows[s], order[:n])
        np.testing.assert_array_equal(layout.steps[s], t)
        np.testing.assert_array_equal(
            layout.parent[s], layout.offsets[t - 1] + np.arange(n) if t else -1)
    for position, b in enumerate(order[lengths[order] > 0]):
        assert layout.last[b] == layout.offsets[lengths[b] - 1] + position


@st.composite
def _shared_prefix_batches(draw):
    """Histories cut from a few chains over a 4-id vocabulary: prefixes,
    window-truncated suffixes, duplicates and empty sequences."""
    chains = draw(st.lists(st.lists(st.integers(0, 3), max_size=7),
                           min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.integers(0, len(chains) - 1),
                                    st.integers(0, 7), st.integers(1, 7)),
                          min_size=1, max_size=12))
    return [chains[c][max(0, end - window):end] for c, end, window in picks]


@settings(max_examples=60, deadline=None)
@given(_shared_prefix_batches())
def test_prefix_shared_gru_matches_per_row_fold(seqs):
    rng = np.random.default_rng(14)
    p = {}
    K.init_gru(rng, "g", 3, 5, p)
    emb = rng.normal(size=(4, 3))
    lengths = [len(s) for s in seqs]
    ids = np.zeros((len(seqs), max(lengths)), dtype=np.intp)
    for b, s in enumerate(seqs):
        ids[b, :len(s)] = s
    shared = K.SeqLayout(K.Windows.of(seqs))
    # one row per distinct non-empty prefix, and a row's inputs are its ids
    prefixes = {tuple(s[:t + 1]) for s in seqs for t in range(len(s))}
    assert len(shared.steps) == len(prefixes) == shared.offsets[-1]
    for layout in (shared, K.SeqLayout.unshared(lengths)):
        H, _ = K.gru_forward(p, "g", emb[ids[layout.rows, layout.steps]],
                             layout)
        final = layout.final(H)
        for b, s in enumerate(seqs):
            want = _fold(p, emb[s])[-1] if s else np.zeros(5)
            np.testing.assert_allclose(final[b], want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=12), st.data())
def test_overlapping_windows_lay_out_as_padded_copies(values, data):
    """Windows that overlap, as the histories of consecutive positions of
    one chain do, give the layout and the encoder states of the same rows
    copied into a right-padded id matrix."""
    picks = data.draw(st.lists(st.tuples(st.integers(0, len(values)),
                                         st.integers(0, len(values))),
                               min_size=1, max_size=10))
    starts = np.array([min(a, b) for a, b in picks], dtype=np.intp)
    lengths = np.array([abs(a - b) for a, b in picks], dtype=np.intp)
    windows = K.Windows(np.array(values, dtype=np.intp), starts, lengths)
    width = int(lengths.max())
    padded = np.zeros((len(picks), width), dtype=np.intp)
    for r, (s, n) in enumerate(zip(starts, lengths)):
        padded[r, :n] = values[s:s + n]
    copies = K.Windows(padded.ravel(), np.arange(len(picks)) * width, lengths)
    rng = np.random.default_rng(16)
    p = {"emb": rng.normal(size=(4, 3))}
    K.init_gru(rng, "enc", 3, 5, p)
    got, want = K.SeqLayout(windows), K.SeqLayout(copies)
    for name in ("rows", "steps", "parent", "last"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert (got.sizes, got.offsets) == (want.sizes, want.offsets)
    H_got, _ = K.encoder_forward(p, ("enc",), windows, got)
    H_want, _ = K.encoder_forward(p, ("enc",), copies, want)
    assert H_got.tobytes() == H_want.tobytes()


def test_length_aware_gru_gradients_certify_on_a_ragged_batch():
    rng = np.random.default_rng(13)
    p = {}
    K.init_gru(rng, "g", 3, 4, p)
    p["emb"] = K.init_embedding(rng, 6, 3) * 5
    p["out"] = K.init_matrix(rng, 5, 4)
    seqs = [[1, 4], [2, 5, 0, 3], [], [5], [0, 1, 2]]
    layout = K.SeqLayout.unshared([len(s) for s in seqs])
    ids = np.array([seqs[b][t] for b, t in zip(layout.rows, layout.steps)])

    def loss_fn(params):
        hs, cache = K.gru_forward(params, "g", params["emb"][ids], layout)
        logits = hs @ params["out"].T                 # a loss on every step
        loss, dlogits = K.softmax_xent_batch(logits, ids % 5)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["out"] = dlogits.T @ hs
        dx = K.gru_backward(params, "g", cache, dlogits @ params["out"], grads)
        np.add.at(grads["emb"], ids, dx)
        return loss, grads

    assert K.finite_diff_check(loss_fn, p, max_coords=40,
                               rng=np.random.default_rng(0)) < 1e-4


def test_gru_cache_backpropagates_twice_to_the_same_bits():
    """gru_backward leaves the forward cache as it found it, so a second
    backward pass over one forward pass gives the same gradients and dx."""
    rng = np.random.default_rng(15)
    p = {}
    K.init_gru(rng, "g", 3, 4, p)
    seqs = [[1, 4, 2], [1, 4, 0, 3], [5], [2, 2, 1, 0, 4]]
    windows = K.Windows.of(seqs)
    layout = K.SeqLayout(windows)
    x = rng.normal(size=(6, 3))[windows.at(layout.rows, layout.steps)]
    H, cache = K.gru_forward(p, "g", x, layout)
    dh = rng.normal(size=H.shape)
    runs = []
    for _ in range(2):
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dx = K.gru_backward(p, "g", cache, dh, grads)
        runs.append((grads, dx))
    (g1, dx1), (g2, dx2) = runs
    assert dx1.tobytes() == dx2.tobytes()
    for k in p:
        assert g1[k].tobytes() == g2[k].tobytes(), k


# ---------------------------------------------------------------------------
# model files


class _Stub:
    """A model of two parameters, "a" (3, dim) and "b" (7,), whose header
    holds dim under the table key emb_dim."""

    KEYS = {"dim": "emb_dim"}

    def __init__(self, config, params):
        self.config, self.params = config, params

    def _init_params(self, rng):
        return {"a": K.init_matrix(rng, 3, self.config["dim"]), "b": np.zeros(7)}


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
    path = tmp_path / "m.bin"
    K.save_model(path, "test-kind", {"dim": 4}, params)
    model = K.load_model(path, "test-kind", _Stub.KEYS, _Stub)
    assert model.config == {"dim": 4}
    for name in params:
        np.testing.assert_array_equal(model.params[name], params[name])
    path2 = tmp_path / "m2.bin"
    K.save_model(path2, "test-kind", model.config, model.params)
    assert path.read_bytes() == path2.read_bytes()
    with pytest.raises(DataFormatError, match="expected other-kind model file"):
        K.load_model(path, "other-kind", _Stub.KEYS, _Stub)


@pytest.mark.parametrize("config, params, message", [
    ({}, {"a": np.ones((3, 4)), "b": np.ones(7)}, "model header key 'dim' is missing"),
    ({"dim": 0}, {"a": np.ones((3, 0)), "b": np.ones(7)}, "'dim' must be >= 1"),
    ({"dim": 4, "x": 1}, {"a": np.ones((3, 4)), "b": np.ones(7)}, "'x' is unknown"),
    ({"dim": 4}, {"a": np.ones((3, 5)), "b": np.ones(7)},
     r"parameter 'a' is \(3, 5\) in the file but \(3, 4\) by its header"),
    ({"dim": 4}, {"a": np.ones((3, 4))}, "parameter 'b' is absent in the file"),
    ({"dim": 4}, {"a": np.ones((3, 4)), "b": np.ones(7), "c": np.ones(1)},
     r"parameter 'c' is \(1,\) in the file but absent"),
])
def test_model_file_must_match_its_header(tmp_path, config, params, message):
    """load_model checks the header against the table and every parameter's
    name and shape against the model the header builds."""
    path = tmp_path / "m.bin"
    K.save_model(path, "test-kind", config, params)
    with pytest.raises(DataFormatError, match=message) as caught:
        K.load_model(path, "test-kind", _Stub.KEYS, _Stub)
    assert str(path) in str(caught.value)


def test_truncated_model_file_is_a_data_error(tmp_path):
    params = {"a": np.ones((3, 4)), "b": np.arange(7.0)}
    path = tmp_path / "m.bin"
    K.save_model(path, "test-kind", {"dim": 4}, params)
    blob = path.read_bytes()
    body = blob.index(b"\n") + 1
    for cut in (body + 2, body + 5, body + 9, body + 20, len(blob) - 1):
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        with pytest.raises(DataFormatError):
            K.load_model(tmp_path / "cut.bin", "test-kind", _Stub.KEYS, _Stub)
