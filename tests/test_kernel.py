"""Numerics core: GRU cell, text encoders, losses, Adam, gradient checking.

The GRU and CNN references below are independent scalar re-implementations
(plain Python loops) used as oracles for the vectorized code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scriptcausal.kernel as K
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


def test_encode_sequence_order_sensitive():
    rng = np.random.default_rng(1)
    p = {}
    K.init_gru(rng, "g", 5, 6, p)
    emb = rng.normal(size=(10, 5))
    a = K.encode_sequence(p, "g", emb, [3, 4, 5])
    b = K.encode_sequence(p, "g", emb, [5, 4, 3])
    assert not np.allclose(a, b)


def test_encode_sequence_single_step_from_zero_state():
    rng = np.random.default_rng(2)
    p = {}
    K.init_gru(rng, "g", 5, 6, p)
    emb = rng.normal(size=(10, 5))
    direct, _ = K.gru_step(p, "g", emb[7], np.zeros(6))
    np.testing.assert_array_equal(K.encode_sequence(p, "g", emb, [7]), direct[0])


def test_mean_encoder_identical_tokens():
    emb = np.arange(12, dtype=float).reshape(4, 3)
    vec, _ = K.encode_text_mean(emb, [2, 2])
    np.testing.assert_array_equal(vec, emb[2])


def test_mean_encoder_empty_is_zero():
    emb = np.ones((4, 3))
    vec, _ = K.encode_text_mean(emb, [])
    np.testing.assert_array_equal(vec, np.zeros(3))


def test_cnn_single_token_matches_scalar_reference():
    rng = np.random.default_rng(3)
    emb_dim, out_dim = 4, 8
    p = K.init_cnn(rng, "c", emb_dim, out_dim, {})
    emb = rng.normal(size=(6, emb_dim))
    got, _ = K.encode_text_cnn(p, "c", emb, [5])
    # one token: every window has a single zero-padded position, so the
    # max-pool is that padded window's tanh response
    pooled = []
    for n in K.CNN_WINDOWS:
        window = np.concatenate([emb[5], np.zeros((n - 1) * emb_dim)])
        W, b = p[f"c.conv{n}.W"], p[f"c.conv{n}.b"]
        resp = [math.tanh(b[f] + sum(W[f][j] * window[j]
                                     for j in range(n * emb_dim)))
                for f in range(W.shape[0])]
        pooled.extend(resp)
    want = p["c.proj.W"] @ np.array(pooled) + p["c.proj.b"]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_cnn_empty_tokens_is_zero():
    rng = np.random.default_rng(4)
    p = K.init_cnn(rng, "c", 3, 8, {})
    vec, cache = K.encode_text_cnn(p, "c", np.ones((2, 3)), [])
    np.testing.assert_array_equal(vec, np.zeros(8))
    assert cache is None


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
    loss, _ = K.softmax_xent(np.zeros(4), 2)
    assert loss == pytest.approx(math.log(4), abs=1e-12)


def test_xent_confident_logits():
    loss, _ = K.softmax_xent(np.array([10.0, 0.0, 0.0]), 0)
    want = -math.log(math.exp(10) / (math.exp(10) + 2))
    assert loss == pytest.approx(want, rel=1e-12)
    assert loss == pytest.approx(9.08e-5, rel=1e-2)


def test_xent_gradient_sums_to_zero():
    rng = np.random.default_rng(5)
    _, grad = K.softmax_xent(rng.normal(size=7), 3)
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
    singles = [K.softmax_xent(logits[i], targets[i])[0] for i in range(5)]
    assert batch_loss == pytest.approx(np.sum(singles), rel=1e-12)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_no_move():
    params = {"w": np.array([1.0, 2.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, params, {"w": np.zeros(2)})
    np.testing.assert_array_equal(params["w"], [1.0, 2.0])
    assert state.step == 1


def test_adam_clips_by_global_norm():
    params = {"w": np.array([0.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, params, {"w": np.array([20.0])})
    # gradient 20 clipped to 10; after bias correction the first Adam step
    # moves by lr regardless of magnitude, so inspect the first moment
    assert state.m["w"][0] == pytest.approx(0.1 * 10.0)


def test_adam_first_step_is_approximately_lr():
    params = {"w": np.array([5.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    K.adam_update(state, params, {"w": np.array([1.0])})
    assert params["w"][0] == pytest.approx(5.0 - 0.001, abs=1e-8)


def test_adam_rejects_nonfinite():
    params = {"w": np.array([0.0])}
    state = K.AdamState(params, lr=0.001, clip_norm=10.0)
    with pytest.raises(NumericalError):
        K.adam_update(state, params, {"w": np.array([np.nan])})


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
        x = params["emb"][seq][:, None, :]
        hs, caches = K.gru_forward(params, "g", x)
        logits = params["out"] @ hs[-1, 0]
        loss, dlogits = K.softmax_xent(logits, 2)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["out"] = np.outer(dlogits, hs[-1, 0])
        dh = np.zeros((len(seq), 1, 4))
        dh[-1, 0] = params["out"].T @ dlogits
        dx = K.gru_backward(params, "g", caches, dh, grads)
        np.add.at(grads["emb"], seq, dx[:, 0, :])
        return loss, grads

    assert K.finite_diff_check(loss_fn, p,
                               rng=np.random.default_rng(0)) < 1e-4


def test_masked_gru_ignores_padding():
    rng = np.random.default_rng(10)
    p = {}
    K.init_gru(rng, "g", 3, 4, p)
    x_full = rng.normal(size=(5, 1, 3))
    mask = np.ones((5, 1))
    mask[:2, 0] = 0.0  # left padding
    hs_masked, _ = K.gru_forward(p, "g", x_full, mask=mask)
    hs_short, _ = K.gru_forward(p, "g", x_full[2:])
    np.testing.assert_allclose(hs_masked[-1], hs_short[-1], atol=1e-14)


# ---------------------------------------------------------------------------
# model files


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=7)}
    path = tmp_path / "m.bin"
    K.save_model(path, "test-kind", {"dim": 4}, params)
    kind, config, loaded = K.load_model(path)
    assert kind == "test-kind" and config == {"dim": 4}
    for name in params:
        np.testing.assert_array_equal(loaded[name], params[name])
    path2 = tmp_path / "m2.bin"
    K.save_model(path2, kind, config, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_truncated_model_file_is_a_data_error(tmp_path):
    params = {"a": np.ones((3, 4)), "b": np.arange(7.0)}
    path = tmp_path / "m.bin"
    K.save_model(path, "test-kind", {"dim": 4}, params)
    blob = path.read_bytes()
    body = blob.index(b"\n") + 1
    for cut in (body + 2, body + 5, body + 9, body + 20, len(blob) - 1):
        (tmp_path / "cut.bin").write_bytes(blob[:cut])
        with pytest.raises(DataFormatError):
            K.load_model(tmp_path / "cut.bin")
