"""Differentiable building blocks with hand-derived gradients.

Everything runs in float64 numpy. Parameters live in flat dicts
(name -> ndarray); gradients come back in dicts of the same shape. There is
no autodiff: every backward pass here is derived by hand and certified by
``finite_diff_check``.

Batched convention: sequences are (T, B, dim) with a (T, B) 0/1 mask.
Masked-out steps carry the previous hidden state through unchanged, so
left-padded batches reproduce the unpadded per-example computation exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DataFormatError, NumericalError

GATES = ("z", "r", "h")

_MODEL_HEADER_TAG = "#scriptcausal-model v1"


# ---------------------------------------------------------------------------
# initialization


def init_embedding(rng, n, d):
    return rng.uniform(-0.1, 0.1, size=(n, d))


def init_matrix(rng, rows, cols):
    # Xavier-style scaled uniform
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_gru(rng, prefix, input_dim, hidden_dim, params):
    """Add GRU parameters W_g (h x in), U_g (h x h), b_g (h) to ``params``."""
    for g in GATES:
        params[f"{prefix}.W{g}"] = init_matrix(rng, hidden_dim, input_dim)
        params[f"{prefix}.U{g}"] = init_matrix(rng, hidden_dim, hidden_dim)
        params[f"{prefix}.b{g}"] = np.zeros(hidden_dim)
    return params


# ---------------------------------------------------------------------------
# primitives


def sigmoid(x, out=None):
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no overflow for any x
    and no boolean masks. ``out`` may be ``x`` itself."""
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def softmax(logits, axis=-1):
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(logits, axis=-1):
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax_xent(logits, target):
    """Cross-entropy loss and gradient for one logit vector.

    loss = -log softmax(logits)[target]; dloss/dlogits = softmax - onehot.
    """
    logits = np.asarray(logits, dtype=float)
    if not 0 <= target < logits.shape[-1]:
        raise ConfigError(f"target {target} out of range for {logits.shape[-1]} classes")
    logp = log_softmax(logits)
    grad = np.exp(logp)
    grad[target] -= 1.0
    return -logp[target], grad


def softmax_xent_batch(logits, targets, weights=None):
    """Summed cross entropy over a batch; returns (loss, dlogits).

    ``weights`` (optional, per-row) scales both loss and gradient; used to
    mask padded positions.
    """
    B = logits.shape[0]
    logp = log_softmax(logits, axis=1)
    rows = np.arange(B)
    losses = -logp[rows, targets]
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    if weights is not None:
        losses = losses * weights
        grad = grad * weights[:, None]
    return float(np.sum(losses)), grad


# ---------------------------------------------------------------------------
# GRU


def gru_step(params, prefix, x, h_prev):
    """Single (optionally batched) GRU step; returns (h, cache)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    h_prev = np.atleast_2d(np.asarray(h_prev, dtype=float))
    Wz, Uz, bz = params[f"{prefix}.Wz"], params[f"{prefix}.Uz"], params[f"{prefix}.bz"]
    Wr, Ur, br = params[f"{prefix}.Wr"], params[f"{prefix}.Ur"], params[f"{prefix}.br"]
    Wh, Uh, bh = params[f"{prefix}.Wh"], params[f"{prefix}.Uh"], params[f"{prefix}.bh"]
    if x.shape[1] != Wz.shape[1] or h_prev.shape[1] != Uz.shape[1]:
        raise ConfigError(
            f"gru_step dimension mismatch: x {x.shape}, h {h_prev.shape}, "
            f"W {Wz.shape}, U {Uz.shape}"
        )
    z = sigmoid(x @ Wz.T + h_prev @ Uz.T + bz)
    r = sigmoid(x @ Wr.T + h_prev @ Ur.T + br)
    hc = np.tanh(x @ Wh.T + (r * h_prev) @ Uh.T + bh)
    h = (1.0 - z) * h_prev + z * hc
    return h, (x, h_prev, z, r, hc)


def gru_step_backward(params, prefix, cache, dh, grads):
    """Backprop one step; returns (dx, dh_prev). Accumulates into grads."""
    x, h_prev, z, r, hc = cache
    Wz, Uz = params[f"{prefix}.Wz"], params[f"{prefix}.Uz"]
    Wr, Ur = params[f"{prefix}.Wr"], params[f"{prefix}.Ur"]
    Wh, Uh = params[f"{prefix}.Wh"], params[f"{prefix}.Uh"]

    dz = dh * (hc - h_prev)
    dhc = dh * z
    dh_prev = dh * (1.0 - z)

    dah = dhc * (1.0 - hc * hc)
    grads[f"{prefix}.Wh"] += dah.T @ x
    grads[f"{prefix}.Uh"] += dah.T @ (r * h_prev)
    grads[f"{prefix}.bh"] += dah.sum(axis=0)
    drh = dah @ Uh
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    daz = dz * z * (1.0 - z)
    dar = dr * r * (1.0 - r)
    grads[f"{prefix}.Wz"] += daz.T @ x
    grads[f"{prefix}.Uz"] += daz.T @ h_prev
    grads[f"{prefix}.bz"] += daz.sum(axis=0)
    grads[f"{prefix}.Wr"] += dar.T @ x
    grads[f"{prefix}.Ur"] += dar.T @ h_prev
    grads[f"{prefix}.br"] += dar.sum(axis=0)

    dx = daz @ Wz + dar @ Wr + dah @ Wh
    dh_prev = dh_prev + daz @ Uz + dar @ Ur
    return dx, dh_prev


def gru_forward(params, prefix, x_seq, mask=None):
    """Fold gru_step over a (T, B, in) sequence from h_0 = 0.

    Returns (h_seq (T, B, h), caches). Masked steps pass the hidden state
    through unchanged.
    """
    T, B, _ = x_seq.shape
    hidden = params[f"{prefix}.Uz"].shape[0]
    h = np.zeros((B, hidden))
    h_seq = np.empty((T, B, hidden))
    caches = []
    for t in range(T):
        h_new, cache = gru_step(params, prefix, x_seq[t], h)
        if mask is not None:
            m = mask[t][:, None]
            h_new = m * h_new + (1.0 - m) * h
        h_seq[t] = h_new
        caches.append(cache)
        h = h_new
    return h_seq, caches


def gru_backward(params, prefix, caches, dh_seq, grads, mask=None):
    """Backprop through a gru_forward pass.

    ``dh_seq`` (T, B, h) holds the external gradient arriving at each step's
    output (zeros except the last step when only the final state is used).
    Returns dx_seq (T, B, in).
    """
    T = len(caches)
    B = dh_seq.shape[1]
    in_dim = params[f"{prefix}.Wz"].shape[1]
    dx_seq = np.zeros((T, B, in_dim))
    dh_next = np.zeros_like(dh_seq[0])
    for t in range(T - 1, -1, -1):
        dh = dh_seq[t] + dh_next
        if mask is not None:
            m = mask[t][:, None]
            dh_through = dh * (1.0 - m)  # skipped step: gradient bypasses the cell
            dh = dh * m
        else:
            dh_through = 0.0
        dx, dh_prev = gru_step_backward(params, prefix, caches[t], dh, grads)
        dx_seq[t] = dx
        dh_next = dh_prev + dh_through
    return dx_seq


def encode_sequence(params, prefix, embeddings, id_sequence):
    """Final GRU hidden state over the embeddings of one id sequence."""
    ids = list(id_sequence)
    if not ids:
        raise ConfigError("encode_sequence requires a non-empty sequence")
    x_seq = embeddings[np.asarray(ids)][:, None, :]
    h_seq, _ = gru_forward(params, prefix, x_seq)
    return h_seq[-1, 0]


# ---------------------------------------------------------------------------
# text encoders

CNN_WINDOWS = (2, 3, 4, 5)


def init_cnn(rng, prefix, emb_dim, out_dim, params, filters=None):
    """Conv filters over n-gram windows (2,3,4,5) + linear projection."""
    if filters is None:
        filters = max(out_dim // len(CNN_WINDOWS), 1)
    for n in CNN_WINDOWS:
        params[f"{prefix}.conv{n}.W"] = init_matrix(rng, filters, n * emb_dim)
        params[f"{prefix}.conv{n}.b"] = np.zeros(filters)
    params[f"{prefix}.proj.W"] = init_matrix(rng, out_dim, filters * len(CNN_WINDOWS))
    params[f"{prefix}.proj.b"] = np.zeros(out_dim)
    return params


def encode_text_mean(embeddings, token_ids):
    """Mean of token embeddings; zero vector for an empty token list."""
    if len(token_ids) == 0:
        return np.zeros(embeddings.shape[1]), None
    ids = np.asarray(list(token_ids))
    return embeddings[ids].mean(axis=0), ids


def encode_text_mean_backward(d_out, cache, d_embeddings):
    if cache is None:
        return
    ids = cache
    np.add.at(d_embeddings, ids, np.tile(d_out / len(ids), (len(ids), 1)))


def encode_text_cnn(params, prefix, embeddings, token_ids):
    """Windowed conv + tanh + max-pool + linear projection.

    Token lists shorter than a window are zero-padded to the window length;
    an empty token list encodes to the zero vector.
    Returns (vector, cache) for the backward pass.
    """
    emb_dim = embeddings.shape[1]
    out_dim = params[f"{prefix}.proj.W"].shape[0]
    ids = np.asarray(list(token_ids), dtype=int)
    L = len(ids)
    if L == 0:
        return np.zeros(out_dim), None
    X = embeddings[ids]
    pooled_all = []
    cache = {"ids": ids, "X": X, "win": {}}
    for n in CNN_WINDOWS:
        Xp = X if L >= n else np.vstack([X, np.zeros((n - L, emb_dim))])
        P = Xp.shape[0] - n + 1
        windows = np.stack([Xp[p:p + n].ravel() for p in range(P)])  # (P, n*emb)
        act = np.tanh(windows @ params[f"{prefix}.conv{n}.W"].T
                      + params[f"{prefix}.conv{n}.b"])
        arg = np.argmax(act, axis=0)
        pooled = act[arg, np.arange(act.shape[1])]
        pooled_all.append(pooled)
        cache["win"][n] = (windows, act, arg, Xp.shape[0])
    cat = np.concatenate(pooled_all)
    out = params[f"{prefix}.proj.W"] @ cat + params[f"{prefix}.proj.b"]
    cache["cat"] = cat
    return out, cache


def encode_text_cnn_backward(params, prefix, d_out, cache, grads, d_embeddings):
    if cache is None:
        return
    ids, X = cache["ids"], cache["X"]
    L = len(ids)
    emb_dim = d_embeddings.shape[1]
    grads[f"{prefix}.proj.W"] += np.outer(d_out, cache["cat"])
    grads[f"{prefix}.proj.b"] += d_out
    dcat = params[f"{prefix}.proj.W"].T @ d_out
    offset = 0
    dX = np.zeros_like(X) if L else None
    for n in CNN_WINDOWS:
        windows, act, arg, Lp = cache["win"][n]
        f = act.shape[1]
        dpooled = dcat[offset:offset + f]
        offset += f
        dact = np.zeros_like(act)
        dact[arg, np.arange(f)] = dpooled
        da = dact * (1.0 - act * act)
        grads[f"{prefix}.conv{n}.W"] += da.T @ windows
        grads[f"{prefix}.conv{n}.b"] += da.sum(axis=0)
        dwin = da @ params[f"{prefix}.conv{n}.W"]  # (P, n*emb)
        if L:
            dXp = np.zeros((Lp, emb_dim))
            for p in range(dwin.shape[0]):
                dXp[p:p + n] += dwin[p].reshape(n, emb_dim)
            dX += dXp[:L]
    if L:
        np.add.at(d_embeddings, ids, dX)


def encode_text(mode, embeddings, token_ids, params=None, prefix="text_cnn"):
    """Unified text-encoder entry point. Returns the encoded vector only."""
    if mode == "mean":
        vec, _ = encode_text_mean(embeddings, token_ids)
        return vec
    if mode == "cnn":
        vec, _ = encode_text_cnn(params, prefix, embeddings, token_ids)
        return vec
    raise ConfigError(f"unknown text-encoder mode {mode!r}")


# ---------------------------------------------------------------------------
# optimizer


class AdamState:
    """Adam with global-norm gradient clipping applied before the moments."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8,
                 clip_norm=10.0):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.clip_norm = clip_norm
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def global_norm(grads):
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def adam_update(state: AdamState, params, grads):
    """One in-place Adam step over every parameter; fails fast on non-finite."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
    norm = global_norm(grads)
    scale = 1.0
    if state.clip_norm and norm > state.clip_norm:
        scale = state.clip_norm / norm
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name] * scale
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return params, state


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(loss_fn, params, eps=1e-5, max_coords=20, rng=None):
    """Central-difference check of analytic gradients.

    ``loss_fn(params) -> (loss, grads)`` must be pure and deterministic.
    Samples up to ``max_coords`` coordinates per parameter and returns the
    max relative error with denominator max(|analytic|, |numeric|, 1e-8).

    Central differences resolve gradients only down to roughly
    eps_machine * |loss| / eps in absolute terms; coordinates where both the
    analytic and numeric gradients sit below that noise floor (with a wide
    safety factor) are indistinguishable from zero at the method's
    resolution and are skipped rather than reported as spurious error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    loss0, grads = loss_fn(params)
    noise_floor = 1e5 * np.finfo(float).eps * max(1.0, abs(loss0)) / eps
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        flat = p.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords
                  else rng.choice(n, size=max_coords, replace=False))
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            lp, _ = loss_fn(params)
            flat[c] = orig - eps
            lm, _ = loss_fn(params)
            flat[c] = orig
            numeric = (lp - lm) / (2.0 * eps)
            analytic = grads[name].reshape(-1)[c]
            if abs(analytic) < noise_floor and abs(numeric) < noise_floor:
                continue
            denom = max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, abs(analytic - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# model parameter files


def save_model(path, kind, config, params):
    """Binary model file: text header + little-endian named array blocks."""
    header = f"{_MODEL_HEADER_TAG} {kind} {json.dumps(config, separators=(',', ':'), sort_keys=True)}\n"
    with open(path, "wb") as f:
        f.write(header.encode("utf-8"))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def _read_exact(f, n, size):
    """Exactly ``n`` bytes of ``f``, whose total size is ``size``."""
    if f.tell() + n > size:
        raise DataFormatError("truncated model file")
    return f.read(n)


def load_model(path):
    """Inverse of save_model. Returns (kind, config, params)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.readline().decode("utf-8").rstrip("\n")
        if not header.startswith(_MODEL_HEADER_TAG + " "):
            raise DataFormatError("missing model file header")
        rest = header[len(_MODEL_HEADER_TAG) + 1:]
        kind, _, config_json = rest.partition(" ")
        try:
            config = json.loads(config_json)
        except json.JSONDecodeError as e:
            raise DataFormatError("malformed model config in header") from e
        params = {}
        while f.tell() < size:
            (name_len,) = struct.unpack("<I", _read_exact(f, 4, size))
            name = _read_exact(f, name_len, size).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(f, 4, size))
            shape = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, size))
            raw = _read_exact(f, 8 * math.prod(shape), size)
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return kind, config, params
