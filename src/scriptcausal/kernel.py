"""Differentiable building blocks with hand-derived gradients.

Everything runs in float64 numpy. Parameters live in flat dicts
(name -> ndarray); gradients come back in dicts of the same shape. There is
no autodiff: every backward pass here is derived by hand and certified by
``finite_diff_check``.

Ragged id rows are ``Windows`` of one flat id array, so a batch gathers
only their starts and lengths. Sequences reach the GRU packed as a prefix
tree (``SeqLayout``): each step runs only the sequences still active, and
no work goes into padding or into a shared prefix. Parameters keep their
per-gate names (``enc.Wz``, ``gru0.Uh``, ...); the GRU concatenates the
gates in memory and splits the gradients back.

Both GRU models share one life cycle: ``Model`` makes their config and
parameters and reads and writes their files, and ``fit`` trains them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import config as C
from .errors import ConfigError, DataFormatError, NumericalError, open_input

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


class _ShapesOnly:
    """A stand-in Generator for the init functions whose draws are read-only
    views of one zero: a model's parameter shapes without its parameters."""

    uniform = staticmethod(lambda low, high, size: np.broadcast_to(0.0, size))


SHAPES_ONLY = _ShapesOnly()


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


def softmax_xent_batch(logits, targets):
    """Summed cross entropy over a batch; returns (loss, dlogits)."""
    B = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    rows = np.arange(B)
    losses = -logp[rows, targets]
    grad = np.exp(logp)
    grad[rows, targets] -= 1.0
    return float(np.sum(losses)), grad


def scatter_rows(idx, rows, n):
    """np.add.at of ``rows`` (k, d) at ``idx`` (k,) into (n, d) zeros, as one
    flat bincount: each target row adds its terms in the order they come."""
    d = rows.shape[1]
    flat = (np.asarray(idx)[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(),
                       minlength=n * d).reshape(n, d)


# ---------------------------------------------------------------------------
# ragged ids


@dataclass
class Windows:
    """Ragged id rows over one flat array: row r is ``values[starts[r]:
    starts[r] + lengths[r]]``. Rows may overlap, and ``take`` gathers only
    ``starts`` and ``lengths``, so a batch copies no ids."""

    values: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @staticmethod
    def of(rows) -> "Windows":
        """The id sequences ``rows``, laid end to end."""
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        values = np.fromiter(itertools.chain.from_iterable(rows), np.intp,
                             lengths.sum())
        return Windows(values, np.cumsum(lengths) - lengths, lengths)

    def __len__(self):
        return len(self.lengths)

    def take(self, idx) -> "Windows":
        """Rows ``idx`` (an index array or slice)."""
        return Windows(self.values, self.starts[idx], self.lengths[idx])

    def at(self, rows, steps):
        """The id at step ``steps`` of each row of ``rows``."""
        return self.values[self.starts[rows] + steps]

    def elements(self):
        """(row, step) of every id, row by row."""
        rows = np.repeat(np.arange(len(self)), self.lengths)
        heads = np.cumsum(self.lengths) - self.lengths
        return rows, np.arange(len(rows)) - np.repeat(heads, self.lengths)


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


class SeqLayout:
    """Packed layout of the sequences ``seqs`` (a Windows) for ``gru_forward``.

    The packed rows are the nodes of a prefix tree, grouped by step: step t
    occupies rows ``offsets[t]:offsets[t + 1]`` (``sizes[t]`` of them); row
    p runs step ``steps[p]`` of sequence ``rows[p]`` from the state of row
    ``parent[p]`` (-1 at step 0); ``last[b]`` is sequence b's last row. A
    sequence may be empty. Sequences share the rows of a common prefix:
    each distinct (parent, id) pair is one row, named by its first
    sequence, and the children of a row are contiguous. In the layout of
    ``unshared`` every sequence keeps its own rows.
    """

    def __init__(self, seqs):
        self.lengths = np.asarray(seqs.lengths, dtype=np.intp)
        B, T = len(self.lengths), int(self.lengths.max(initial=0))
        width = int(seqs.at(*seqs.elements()).max(initial=0)) + 1
        self.last = np.zeros(B, dtype=np.intp)   # row of the latest step
        rows, parent, sizes = [np.zeros(0, np.intp)], [np.zeros(0, np.intp)], []
        for t in range(T):
            live = np.flatnonzero(self.lengths > t)
            _, first, node = np.unique(self.last[live] * width + seqs.at(live, t),
                                       return_index=True, return_inverse=True)
            rows.append(live[first])
            parent.append(self.last[rows[-1]] if t else -np.ones_like(first))
            self.last[live] = sum(sizes) + node
            sizes.append(len(first))
        self.rows, self.parent = np.concatenate(rows), np.concatenate(parent)
        self.steps = np.repeat(np.arange(T), sizes)
        self.sizes = [int(n) for n in sizes]
        self.offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp))).tolist()

    @classmethod
    def unshared(cls, lengths) -> "SeqLayout":
        """The layout of sequences of ``lengths`` that each read their rank
        by length (stable) at every step: no two share a row."""
        lengths = np.asarray(lengths, dtype=np.intp)
        rank = np.argsort(np.argsort(-lengths, kind="stable"))
        return cls(Windows(np.repeat(rank, lengths), np.cumsum(lengths) - lengths,
                           lengths))

    def final(self, H):
        """(B, h) last state of each sequence; zeros for an empty one."""
        out = np.zeros((len(self.lengths), H.shape[1]))
        live = self.lengths > 0
        out[live] = H[self.last[live]]
        return out


def gru_weights(params, prefix):
    """(W, b, U_zr, Uh) of the GRU ``prefix``: [Wz; Wr; Wh], [bz; br; bh],
    [Uz; Ur] and Uh, the gate layout of ``gru_forward`` and ``gru_cell``."""
    W = np.concatenate([params[f"{prefix}.W{g}"] for g in GATES])
    b = np.concatenate([params[f"{prefix}.b{g}"] for g in GATES])
    U_zr = np.concatenate([params[f"{prefix}.Uz"], params[f"{prefix}.Ur"]])
    return W, b, U_zr, params[f"{prefix}.Uh"]


def gru_cell(a_zr, a_h, h_prev, Uh, zr, hc, h, rh):
    """One GRU step into caller-owned (n, .) arrays; allocates nothing.
    From the z/r pre-activations ``a_zr`` (n, 2h; may be ``zr``) and the
    candidate's input term ``a_h``, writes the gates to ``zr``, the
    candidate to ``hc`` and h = (1 - z) h_prev + z hc to ``h`` (may be
    ``hc``), with ``rh`` (n, h) as scratch. Returns ``h``."""
    hd = h_prev.shape[1]
    z, r = zr[:, :hd], zr[:, hd:]
    sigmoid(a_zr, out=zr)
    np.matmul(np.multiply(r, h_prev, out=rh), Uh.T, out=hc)
    hc += a_h
    np.tanh(hc, out=hc)
    np.multiply(z, hc, out=rh)
    np.subtract(1.0, z, out=h)
    h *= h_prev
    h += rh
    return h


def gru_forward(params, prefix, x, layout):
    """Length-aware GRU from h_0 = 0 over packed inputs ``x`` (S, in).

    ``layout`` (a SeqLayout) says which step each packed row runs and
    from which row's state. Step t runs only its ``layout.sizes[t]`` rows,
    so no work goes into padding or into a shared prefix. The input
    projection of every step is one GEMM against [Wz; Wr; Wh] before the
    time loop; each step then gathers h_prev by ``layout.parent`` and
    runs ``gru_cell``, with one GEMM for z and r and one for the
    candidate. Returns (H, cache): H (S, h) holds the state after each
    packed row's step.
    """
    W, b, U_zr, Uh = gru_weights(params, prefix)
    hd = Uh.shape[0]
    S = len(layout.steps)
    if x.shape != (S, W.shape[1]):
        raise ConfigError(f"gru_forward: inputs {x.shape} do not match "
                          f"{S} packed rows of width {W.shape[1]}")
    xp = x @ W.T + b
    zr, hc, hprev = np.empty((S, 2 * hd)), np.empty((S, hd)), np.empty((S, hd))
    H = np.zeros((S + 1, hd))    # row S stays h_0 = 0: step 0's parent is -1
    rh = np.empty((max(layout.sizes, default=0), hd))
    off = layout.offsets
    for t in range(len(layout.sizes)):
        s = slice(off[t], off[t + 1])
        hp = hprev[s] = H[layout.parent[s]]
        a_zr = np.matmul(hp, U_zr.T, out=zr[s])
        a_zr += xp[s, :2 * hd]
        gru_cell(a_zr, xp[s, 2 * hd:], hp, Uh, a_zr, hc[s], H[s], rh[:len(hp)])
    return H[:S], (x, layout, zr, hc, hprev, W, U_zr, Uh)


def gru_backward(params, prefix, cache, dh_out, grads):
    """Backprop through a gru_forward pass; returns dx (S, in).

    ``dh_out`` (S, h) is the external gradient arriving at each packed
    output row. Each step keeps only the recurrent GEMMs of dh_prev, which
    ``np.add.reduceat`` sums over each row's (contiguous) children; the
    weight, bias and input gradients are one GEMM each over all steps after
    the loop, split back into the per-gate entries of ``grads``.
    """
    x, layout, zr, hc, hprev, W, U_zr, Uh = cache
    hd = Uh.shape[0]
    S = len(x)
    n0 = layout.offsets[1] if S else 0        # step-0 rows, with h_prev = 0
    da = np.empty((S, 3 * hd))                 # gate pre-activation grads
    off = layout.offsets
    carry = None                               # dh_prev of step t + 1's rows
    for t in range(len(layout.sizes) - 1, -1, -1):
        s = slice(off[t], off[t + 1])
        z, r, hc_t, hp = zr[s, :hd], zr[s, hd:], hc[s], hprev[s]
        dh = dh_out[s].copy()
        if carry is not None:
            par = layout.parent[off[t + 1]:off[t + 2]] - off[t]
            heads = np.flatnonzero(np.diff(par, prepend=-1))
            dh[par[heads]] += np.add.reduceat(carry, heads)
        da[s, 2 * hd:] = (1 - hc_t * hc_t) * z * dh
        da[s, :hd] = (hc_t - hp) * dh * z * (1 - z)
        if t == 0:
            da[s, hd:2 * hd] = 0.0     # r only ever multiplies h_0 = 0
            break
        drh = da[s, 2 * hd:] @ Uh
        da[s, hd:2 * hd] = drh * hp * ((1 - r) * r)
        carry = dh * (1 - z) + drh * r + da[s, :2 * hd] @ U_zr
    dW = da.T @ x
    dU_zr = da[n0:, :2 * hd].T @ hprev[n0:]   # step 0 rows have h_prev = 0
    db = da.sum(axis=0)
    for i, g in enumerate(GATES):
        rows = slice(i * hd, (i + 1) * hd)
        grads[f"{prefix}.W{g}"] += dW[rows]
        grads[f"{prefix}.b{g}"] += db[rows]
    grads[f"{prefix}.Uz"] += dU_zr[:hd]
    grads[f"{prefix}.Ur"] += dU_zr[hd:]
    grads[f"{prefix}.Uh"] += da[n0:, 2 * hd:].T @ (zr[n0:, hd:] * hprev[n0:])
    return da @ W


def encoder_forward(params, prefixes, seqs, layout, masks=None):
    """Embedding -> GRU stack over the sequences ``seqs`` (a Windows) packed
    by ``layout``: layer i is the GRU ``prefixes[i]``. The optional dropout
    ``masks`` (S, emb) and (S, h) scale the embeddings and the top states.
    Returns (H, cache), H (S, h) the masked top states."""
    ids = seqs.at(layout.rows, layout.steps)
    h = params["emb"][ids]
    if masks is not None:
        h *= masks[0]
    caches = []
    for prefix in prefixes:
        h, cache = gru_forward(params, prefix, h, layout)
        caches.append(cache)
    if masks is not None:
        h = h * masks[1]
    return h, (ids, prefixes, caches, masks)


def encoder_backward(params, cache, dH, grads):
    """Backprop through an ``encoder_forward`` pass from the gradient dH
    (S, h) at its output. Adds the GRU gradients to ``grads`` and returns
    the embedding terms (ids (S,), gradient rows (S, emb)) to scatter."""
    ids, prefixes, caches, masks = cache
    if masks is not None:
        dH = dH * masks[1]
    for prefix, c in zip(prefixes[::-1], caches[::-1]):
        dH = gru_backward(params, prefix, c, dH, grads)
    if masks is not None:
        dH = dH * masks[0]
    return ids, dH


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


class AdamState:
    """Adam with global-norm gradient clipping applied before the moments.
    Each array of ``params`` is replaced in the dict by a view of one flat
    buffer, so that a step runs each ufunc once over all of them."""

    def __init__(self, params, lr=0.001, clip_norm=10.0):
        self.lr = lr
        self.clip_norm = clip_norm
        self.step = 0
        self.names = list(params)
        self.flat = np.concatenate([params[k].ravel() for k in self.names])
        ends = np.cumsum([params[k].size for k in self.names])
        for k, view in zip(self.names, np.split(self.flat, ends[:-1])):
            params[k] = view.reshape(params[k].shape)
        self.m, self.v, self.g, self.s = (np.zeros_like(self.flat) for _ in range(4))


def global_norm(grads):
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def adam_update(state: AdamState, grads):
    """One in-place Adam step over the parameters of ``state`` (the views
    it put into their dict); fails fast on a non-finite gradient."""
    g, s, m, v = state.g, state.s, state.m, state.v
    np.concatenate([grads[k].ravel() for k in state.names], out=g)
    if not np.isfinite(g).all():
        name = next(k for k in state.names if not np.isfinite(grads[k]).all())
        raise NumericalError(f"non-finite gradient for parameter {name!r}")
    norm = global_norm(grads)
    if state.clip_norm and norm > state.clip_norm:
        g *= state.clip_norm / norm
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m *= b1                                # m = b1 * m + (1 - b1) * g
    m += np.multiply(g, 1 - b1, out=s)
    v *= b2                                # v = b2 * v + (1 - b2) * (g * g)
    g *= g
    v += np.multiply(g, 1 - b2, out=g)
    # p -= lr * m_hat / (sqrt(v_hat) + epsilon)
    np.sqrt(np.divide(v, 1 - b2 ** t, out=g), out=g)
    g += ADAM_EPSILON
    np.divide(m, 1 - b1 ** t, out=s)
    s *= state.lr
    state.flat -= np.divide(s, g, out=s)


def fit(model, items, rows, dev, lr, label, log=None, max_epochs=None):
    """Adam with early stopping on ``model`` (a ``Model``) in place; returns
    it at its best holdout loss.

    Each epoch permutes the training ``rows`` of ``items`` (a sized set
    with ``take``) and makes one update per batch of the config's
    ``batch_size`` from ``model.loss_and_grads(items.take(batch), rng=rng)``.
    The rng is fresh on every call, from the config's seed + 1: it orders
    the batches, and the model may draw from it too. The holdout loss is
    ``mean_loss`` over ``dev``, or over the training rows when ``dev`` is
    empty, after every epoch; ``log`` gets one line per epoch, headed by
    ``label``. Training stops after the config's ``patience`` epochs
    without improvement or after ``max_epochs`` (default: the config's).
    A non-finite holdout loss raises a NumericalError.
    """
    if not len(rows):
        raise ConfigError("empty training set")
    cfg = model.config
    holdout = dev if len(dev) else items.take(rows)
    rng = np.random.default_rng(cfg["seed"] + 1)
    opt = AdamState(model.params, lr=lr, clip_norm=cfg["clip_norm"])
    best_loss = float("inf")
    best_params = {k: v.copy() for k, v in model.params.items()}
    stale = 0
    batch_size = cfg["batch_size"]
    for epoch in range(cfg["max_epochs"] if max_epochs is None else max_epochs):
        order = rows[rng.permutation(len(rows))]
        for start in range(0, len(order), batch_size):
            adam_update(opt, model.loss_and_grads(
                items.take(order[start:start + batch_size]), rng=rng)[1])
        loss = mean_loss(model, holdout)
        if log:
            log(f"{label} epoch {epoch}: dev loss {loss:.4f}")
        if not math.isfinite(loss):
            raise NumericalError(f"holdout loss is {loss} after epoch {epoch}")
        if loss < best_loss:
            best_loss = loss
            best_params = {k: v.copy() for k, v in model.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg["patience"]:
                break
    model.params = best_params
    return model


def mean_loss(model, data):
    """Mean cross entropy per target of ``model`` over ``data`` (a sized set
    with ``take(slice)``), where ``model._forward(params, batch)`` returns
    (logits, targets, cache). Each pass takes at most the model's
    ``batch_size`` items, which bounds the forward pass's memory."""
    total, count = 0.0, 0
    batch_size = model.config["batch_size"]
    for start in range(0, len(data), batch_size):
        logits, targets, _ = model._forward(
            model.params, data.take(slice(start, start + batch_size)))
        total += softmax_xent_batch(logits, targets)[0]
        count += len(targets)
    return total / count


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
# model files and the model base


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


def load_model(path, kind, keys, build):
    """The model of kind ``kind`` in file ``path`` (see save_model). Its
    header must hold the keys of ``keys`` (model key -> table key) with
    values the table accepts; ``build(config, params)`` makes the model,
    whose ``_init_params(SHAPES_ONLY)`` names every parameter the file
    must hold, with its shape."""
    with open_input(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.readline().decode("utf-8").rstrip("\n")
        if not header.startswith(_MODEL_HEADER_TAG + " "):
            raise DataFormatError("missing model file header")
        rest = header[len(_MODEL_HEADER_TAG) + 1:]
        got, _, config_json = rest.partition(" ")
        if got != kind:
            raise DataFormatError(f"expected {kind} model file, got {got!r}")
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
            try:
                params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as e:     # a shape numpy cannot build
                raise DataFormatError(f"model parameter {name!r}: {e}") from e
            if not np.isfinite(params[name]).all():
                raise DataFormatError(f"model parameter {name!r} is not finite")
    C.check(config, keys, DataFormatError, f"{path}: model header key")
    model = build(config, params)
    expected = model._init_params(SHAPES_ONLY)
    for name in sorted(params.keys() | expected.keys()):
        got, want = (p[name].shape if name in p else "absent"
                     for p in (params, expected))
        if got != want:
            raise DataFormatError(f"{path}: model parameter {name!r} is {got} in "
                                  f"the file but {want} by its header")
    return model


class Model:
    """The life cycle both GRU models share. ``config`` is the model's file
    header, of kind ``KIND``: the keys of ``HEADER`` (model key -> table
    key), each the table's default unless given, except ``vocab_size``,
    which the caller must give. ``params`` are drawn from the config's
    seed unless given; a subclass makes them in ``_init_params(rng)``."""

    KIND = ""
    HEADER = {}

    def __init__(self, config: dict, params: dict | None = None):
        self.config = {**C.defaults({k: t for k, t in self.HEADER.items()
                                     if k != "vocab_size"}), **config}
        self.params = params if params is not None else self._init_params(
            np.random.default_rng(self.config["seed"]))

    def save(self, path):
        save_model(path, self.KIND, self.config, self.params)

    @classmethod
    def load(cls, path):
        """The model in file ``path``, whose header and parameter shapes
        are checked."""
        return load_model(path, cls.KIND, cls.HEADER, cls)
