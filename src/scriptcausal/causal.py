"""Conditional next-event model, back-door plugin estimation of intervention
distributions, and the normalized script-compatibility score.

The conditional p(e_i | e_{i-1}, history, text[, out-of-text]) is modeled as

    logits = A v_e + B v_t (+ W_O v_o)

where v_e is the final GRU state over [history..., prev_event] embeddings,
v_t encodes the previous event's text (mean or CNN mode; zero when empty),
and v_o is the mean embedding of annotated out-of-text events (zero when
empty; the W_O term exists only in the finetuned phase).

Intervention rows are plugin Monte Carlo averages over an adjustment set of
sampled contexts: the intervened event replaces prev_event while each
sampled history/text/out-of-text stays untouched (graph surgery, not
resampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel as K
from .corpus import ChainCorpus, TokenVocab
from .errors import ConfigError, DataFormatError
from .events import NUM_SPECIALS, Vocabulary

DEFAULT_COND_CONFIG = {
    "emb_dim": 300,
    "hidden_dim": 300,
    "text_mode": "mean",       # or "cnn"
    "history_window": 10,
    "oot_threshold": 3,
    "lr": 0.001,
    "lr_schedule": None,       # optional [[lr, epochs], ...] pretrain stages
    "finetune_lr": 1e-5,
    "clip_norm": 10.0,
    "batch_size": 512,
    "patience": 3,
    "max_epochs": 30,
    "seed": 0,
}

_ITABLE_HEADER_TAG = "#scriptcausal-itable v1"


@dataclass
class ConditionalContext:
    prev_event: int
    in_text_history: list[int] = field(default_factory=list)
    text_tokens: list[int] = field(default_factory=list)
    oot_events: list[int] = field(default_factory=list)


def extract_training_instances(corpus: ChainCorpus, vocab: Vocabulary,
                               token_vocab: TokenVocab | None = None,
                               oot_threshold: int = 3,
                               history_window: int = 10):
    """(target, context) pairs, one per chain position i >= 1."""
    instances = []
    for chain in corpus.chains:
        ids = [vocab.id_of(ce.event.key) for ce in chain.events]
        for i in range(1, len(ids)):
            prev_ce = chain.events[i - 1]
            history = ids[max(0, i - 1 - history_window):i - 1]
            text = (token_vocab.encode(prev_ce.text_tokens)
                    if token_vocab is not None and prev_ce.text_tokens else [])
            oot = []
            if prev_ce.oot_candidates:
                oot = [vocab.id_of(key) for key, rating in prev_ce.oot_candidates
                       if rating >= oot_threshold]
            instances.append((ids[i],
                              ConditionalContext(ids[i - 1], history, text, oot)))
    return instances


# ---------------------------------------------------------------------------
# batching helpers


def _pack_sequences(contexts):
    """Left-padded (T, B) id matrix + mask for [history..., prev] sequences."""
    seqs = [list(ctx.in_text_history) + [ctx.prev_event] for ctx in contexts]
    T = max(len(s) for s in seqs)
    B = len(seqs)
    ids = np.zeros((T, B), dtype=int)
    mask = np.zeros((T, B))
    for b, s in enumerate(seqs):
        ids[T - len(s):, b] = s
        mask[T - len(s):, b] = 1.0
    return ids, mask


def _pack_sets(lists):
    """Right-padded (B, M) id matrix + mask for variable-length id sets."""
    M = max((len(s) for s in lists), default=0)
    B = len(lists)
    if M == 0:
        return np.zeros((B, 0), dtype=int), np.zeros((B, 0))
    ids = np.zeros((B, M), dtype=int)
    mask = np.zeros((B, M))
    for b, s in enumerate(lists):
        ids[b, :len(s)] = s
        mask[b, :len(s)] = 1.0
    return ids, mask


def _mean_of_sets(emb, ids, mask):
    """Per-row mean of embedding rows; zero vector for empty rows."""
    if ids.shape[1] == 0:
        return np.zeros((ids.shape[0], emb.shape[1])), None
    counts = mask.sum(axis=1, keepdims=True)
    safe = np.maximum(counts, 1.0)
    vec = (emb[ids] * mask[:, :, None]).sum(axis=1) / safe
    return vec, (ids, mask, safe)


def _mean_of_sets_backward(d_vec, cache, d_emb):
    if cache is None:
        return
    ids, mask, safe = cache
    contrib = (d_vec[:, None, :] / safe[:, :, None]) * mask[:, :, None]
    np.add.at(d_emb, ids, contrib)


class ConditionalModel:
    """Parameters + phase of the conditional next-event model."""

    def __init__(self, vocab_size: int, token_vocab_size: int = 1,
                 config: dict | None = None, params: dict | None = None,
                 phase: str = "pretrained"):
        self.config = dict(DEFAULT_COND_CONFIG)
        if config:
            self.config.update(config)
        if self.config["text_mode"] not in ("mean", "cnn"):
            raise ConfigError(f"unknown text-encoder mode {self.config['text_mode']!r}")
        if phase not in ("pretrained", "finetuned"):
            raise ConfigError(f"unknown phase {phase!r}")
        self.vocab_size = vocab_size
        self.token_vocab_size = token_vocab_size
        self.phase = phase
        if params is not None:
            self.params = params
            return
        rng = np.random.default_rng(self.config["seed"])
        d = self.config["emb_dim"]
        h = self.config["hidden_dim"]
        p = {"emb": K.init_embedding(rng, vocab_size, d)}
        K.init_gru(rng, "enc", d, h, p)
        if self.config["text_mode"] == "mean":
            # mean mode feeds token embeddings straight into B: token dim = h
            p["text_emb"] = K.init_embedding(rng, token_vocab_size, h)
        else:
            p["text_emb"] = K.init_embedding(rng, token_vocab_size, d)
            K.init_cnn(rng, "text_cnn", d, h, p)
        p["A"] = K.init_matrix(rng, vocab_size, h)
        p["B"] = K.init_matrix(rng, vocab_size, h)
        if phase == "finetuned":
            p["W_O"] = np.zeros((vocab_size, d))
        self.params = p

    # -- forward -------------------------------------------------------------

    def _text_vectors(self, params, contexts):
        """(B, h) text-channel vectors + cache for backward."""
        B = len(contexts)
        h = self.config["hidden_dim"]
        if all(not ctx.text_tokens for ctx in contexts):
            return np.zeros((B, h)), ("empty", None)
        if self.config["text_mode"] == "mean":
            ids, mask = _pack_sets([ctx.text_tokens for ctx in contexts])
            vec, cache = _mean_of_sets(params["text_emb"], ids, mask)
            return vec, ("mean", cache)
        vecs = np.zeros((B, h))
        caches = []
        for b, ctx in enumerate(contexts):
            vec, cache = K.encode_text_cnn(params, "text_cnn",
                                           params["text_emb"], ctx.text_tokens)
            vecs[b] = vec
            caches.append(cache)
        return vecs, ("cnn", caches)

    def _forward(self, params, contexts, want_cache=False):
        ids, mask = _pack_sequences(contexts)
        x_seq = params["emb"][ids]
        h_seq, gru_caches = K.gru_forward(params, "enc", x_seq, mask)
        v_e = h_seq[-1]
        v_t, text_cache = self._text_vectors(params, contexts)
        logits = v_e @ params["A"].T + v_t @ params["B"].T
        v_o, oot_cache = None, None
        if self.phase == "finetuned":
            oot_ids, oot_mask = _pack_sets([ctx.oot_events for ctx in contexts])
            v_o, oot_cache = _mean_of_sets(params["emb"], oot_ids, oot_mask)
            logits = logits + v_o @ params["W_O"].T
        if not want_cache:
            return logits, None
        return logits, {"ids": ids, "mask": mask, "gru": gru_caches,
                        "v_e": v_e, "v_t": v_t, "text": text_cache,
                        "v_o": v_o, "oot": oot_cache}

    def _loss_and_grads(self, params, contexts, targets):
        logits, cache = self._forward(params, contexts, want_cache=True)
        B = len(contexts)
        loss_sum, dlogits = K.softmax_xent_batch(logits, np.asarray(targets))
        loss = loss_sum / B
        dlogits /= B
        grads = {k: np.zeros_like(v) for k, v in params.items()}

        grads["A"] += dlogits.T @ cache["v_e"]
        grads["B"] += dlogits.T @ cache["v_t"]
        d_ve = dlogits @ params["A"]
        d_vt = dlogits @ params["B"]
        if self.phase == "finetuned":
            grads["W_O"] += dlogits.T @ cache["v_o"]
            d_vo = dlogits @ params["W_O"]
            _mean_of_sets_backward(d_vo, cache["oot"], grads["emb"])

        # text channel
        mode, tcache = cache["text"]
        if mode == "mean":
            _mean_of_sets_backward(d_vt, tcache, grads["text_emb"])
        elif mode == "cnn":
            for b, c in enumerate(tcache):
                K.encode_text_cnn_backward(params, "text_cnn", d_vt[b], c,
                                           grads, grads["text_emb"])

        # history encoder
        T = cache["ids"].shape[0]
        dh_seq = np.zeros((T, B, self.config["hidden_dim"]))
        dh_seq[-1] = d_ve
        dx_seq = K.gru_backward(params, "enc", cache["gru"], dh_seq, grads,
                                cache["mask"])
        dx_seq = dx_seq * cache["mask"][:, :, None]
        np.add.at(grads["emb"], cache["ids"], dx_seq)
        return loss, grads

    def loss_and_grads(self, batch):
        contexts = [ctx for _, ctx in batch]
        targets = [t for t, _ in batch]
        return self._loss_and_grads(self.params, contexts, targets)

    def distribution_batch(self, contexts) -> np.ndarray:
        logits, _ = self._forward(self.params, contexts)
        return K.softmax(logits, axis=1)

    def distribution(self, context: ConditionalContext) -> np.ndarray:
        return self.distribution_batch([context])[0]

    def mean_loss(self, instances, batch_size=1024):
        total = 0.0
        for start in range(0, len(instances), batch_size):
            batch = instances[start:start + batch_size]
            logits, _ = self._forward(self.params, [c for _, c in batch])
            loss_sum, _ = K.softmax_xent_batch(logits,
                                               np.asarray([t for t, _ in batch]))
            total += loss_sum
        return total / len(instances)

    # -- persistence -----------------------------------------------------------

    def save(self, path):
        config = dict(self.config, vocab_size=self.vocab_size,
                      token_vocab_size=self.token_vocab_size, phase=self.phase)
        K.save_model(path, "conditional", config, self.params)

    @staticmethod
    def load(path) -> "ConditionalModel":
        kind, config, params = K.load_model(path)
        if kind != "conditional":
            raise DataFormatError(f"expected conditional model file, got {kind!r}")
        vocab_size = config.pop("vocab_size")
        token_vocab_size = config.pop("token_vocab_size")
        phase = config.pop("phase")
        return ConditionalModel(vocab_size, token_vocab_size, config, params,
                                phase)


def _train(model: ConditionalModel, train_instances, dev_instances, lr,
           log=None, max_epochs=None):
    cfg = model.config
    if not train_instances:
        raise ConfigError("empty instance set")
    rng = np.random.default_rng(cfg["seed"] + 1)
    opt = K.AdamState(model.params, lr=lr, clip_norm=cfg["clip_norm"])
    best_loss = float("inf")
    best_params = {k: v.copy() for k, v in model.params.items()}
    stale = 0
    holdout = dev_instances if dev_instances else train_instances
    if max_epochs is None:
        max_epochs = cfg["max_epochs"]
    for epoch in range(max_epochs):
        order = rng.permutation(len(train_instances))
        for start in range(0, len(order), cfg["batch_size"]):
            batch = [train_instances[i] for i in order[start:start + cfg["batch_size"]]]
            _, grads = model.loss_and_grads(batch)
            K.adam_update(opt, model.params, grads)
        dev_loss = model.mean_loss(holdout)
        if log:
            log(f"conditional epoch {epoch}: dev loss {dev_loss:.4f}")
        if dev_loss < best_loss:
            best_loss = dev_loss
            best_params = {k: v.copy() for k, v in model.params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg["patience"]:
                break
    model.params = best_params
    return model


def train_conditional(instances, dev_instances, vocab_size: int,
                      token_vocab_size: int = 1, config: dict | None = None,
                      log=None) -> ConditionalModel:
    """Pretraining phase: out-of-text events are ignored.

    When the config carries an "lr_schedule" (a list of [lr, epochs] stages),
    the stages run sequentially, each with a freshly initialized optimizer;
    otherwise a single run at config["lr"] is used.
    """
    model = ConditionalModel(vocab_size, token_vocab_size, config,
                             phase="pretrained")
    schedule = model.config.get("lr_schedule")
    if not schedule:
        return _train(model, instances, dev_instances, model.config["lr"],
                      log=log)
    for lr, epochs in schedule:
        model = _train(model, instances, dev_instances, float(lr), log=log,
                       max_epochs=int(epochs))
    return model


def finetune_with_oot(model: ConditionalModel, annotated_instances,
                      config: dict | None = None, log=None) -> ConditionalModel:
    """Add a zero-initialized W_O term and finetune everything at the
    reduced rate. Dev split follows the 9:1 convention over the annotated
    set (seeded shuffle)."""
    if model.phase != "finetuned" and not annotated_instances:
        raise ConfigError("no annotated instances to finetune on")
    cfg = dict(model.config)
    if config:
        cfg.update(config)
    params = {k: v.copy() for k, v in model.params.items()}
    params["W_O"] = np.zeros((model.vocab_size, model.config["emb_dim"]))
    tuned = ConditionalModel(model.vocab_size, model.token_vocab_size, cfg,
                             params, phase="finetuned")
    rng = np.random.default_rng(cfg["seed"] + 2)
    order = rng.permutation(len(annotated_instances))
    n_dev = max(1, len(annotated_instances) // 10)
    dev = [annotated_instances[i] for i in order[:n_dev]]
    train = [annotated_instances[i] for i in order[n_dev:]]
    return _train(tuned, train, dev, cfg["finetune_lr"], log=log)


def conditional_distribution(model: ConditionalModel,
                             context: ConditionalContext) -> np.ndarray:
    return model.distribution(context)


# ---------------------------------------------------------------------------
# intervention estimation


@dataclass
class AdjustmentSet:
    """Sampled (history, text, out-of-text) contexts for the MC expectation.

    prev_event fields are ignored: the intervened value replaces them."""

    contexts: list
    seed: int

    def __post_init__(self):
        if not self.contexts:
            raise ConfigError("adjustment set must contain at least one context")


def sample_adjustment_set(instances, n: int, seed: int) -> AdjustmentSet:
    """Seeded subsample (without replacement when possible) of instance contexts."""
    if n < 1:
        raise ConfigError("adjustment set size must be >= 1")
    rng = np.random.default_rng(seed)
    total = len(instances)
    if total == 0:
        raise ConfigError("no instances to sample an adjustment set from")
    idx = (rng.choice(total, size=n, replace=False) if n <= total
           else rng.choice(total, size=n, replace=True))
    return AdjustmentSet([instances[i] for i in sorted(idx)], seed)


@dataclass
class InterventionTable:
    effect: np.ndarray    # (V, V): row k = estimated p(e_i | do(e_{i-1}=k))
    model_id: str = ""
    seed: int = 0
    n_samples: int = 0

    def row(self, k: int) -> np.ndarray:
        return self.effect[k]

    def save(self, path):
        with open(path, "wb") as f:
            f.write(f"{_ITABLE_HEADER_TAG} {self.effect.shape[0]} "
                    f"{self.n_samples} {self.seed} {self.model_id}\n".encode())
            f.write(np.ascontiguousarray(self.effect, dtype="<f8").tobytes())

    @staticmethod
    def load(path) -> "InterventionTable":
        with open(path, "rb") as f:
            header = f.readline().decode("utf-8").rstrip("\n")
            if not header.startswith(_ITABLE_HEADER_TAG + " "):
                raise DataFormatError("missing intervention table header")
            fields = header[len(_ITABLE_HEADER_TAG) + 1:].split(" ")
            if len(fields) < 4:
                raise DataFormatError("malformed intervention table header")
            try:
                dim, n_samples, seed = (int(x) for x in fields[:3])
            except ValueError as e:
                raise DataFormatError("malformed intervention table header") from e
            model_id = " ".join(fields[3:])
            body = f.read()
        if dim < 0 or len(body) != 8 * dim * dim:
            raise DataFormatError(f"intervention table body has {len(body)} bytes; "
                                  f"a {dim} x {dim} table needs {8 * dim * dim}")
        effect = np.frombuffer(body, dtype="<f8").reshape(dim, dim).copy()
        bad = ~(np.isfinite(effect).all(axis=1) & (effect >= 0).all(axis=1)
                & (np.abs(effect.sum(axis=1) - 1.0) <= 1e-9))
        if bad.any():
            raise DataFormatError(
                f"intervention table row {int(np.argmax(bad))} is not a "
                "distribution (non-finite, negative, or not summing to 1)")
        return InterventionTable(effect, model_id, seed, n_samples)

    def export_tsv(self, path, vocab: Vocabulary):
        keys = [vocab.key_of(i) for i in range(self.effect.shape[0])]
        with open(path, "w", encoding="utf-8") as f:
            f.write("do_event\t" + "\t".join(keys) + "\n")
            for k, key in enumerate(keys):
                f.write(key + "\t"
                        + "\t".join(repr(float(x)) for x in self.effect[k])
                        + "\n")


def estimate_interventions(model: ConditionalModel, adjustment: AdjustmentSet,
                           batch_size: int = 4096,
                           model_id: str = "") -> InterventionTable:
    """Plugin estimate of every do-row by Monte Carlo over the adjustment set.

    Exploits the fact that only the last encoder step depends on the
    intervened event: each sampled history is encoded once, then one extra
    GRU step per intervention value k completes A v_e; the text and
    out-of-text channels are k-independent. Per do-row and chunk of at
    most ``batch_size`` contexts, that step costs one (n, h) x (h, h) GEMM
    and the logits GEMM, written into buffers allocated once per chunk.
    """
    params = model.params
    contexts = [inst[1] if isinstance(inst, tuple) else inst
                for inst in adjustment.contexts]
    N = len(contexts)
    V = model.vocab_size
    h_dim = model.config["hidden_dim"]

    # per-context constants
    h_hist = np.zeros((N, h_dim))
    const_logits = np.zeros((N, V))
    for start in range(0, N, batch_size):
        chunk = contexts[start:start + batch_size]
        with_hist = [c for c in chunk if c.in_text_history]
        if with_hist:
            ids, mask = _pack_sequences(
                [ConditionalContext(c.in_text_history[-1],
                                    c.in_text_history[:-1]) for c in with_hist])
            h_seq, _ = K.gru_forward(params, "enc", params["emb"][ids], mask)
            rows = [start + i for i, c in enumerate(chunk) if c.in_text_history]
            h_hist[rows] = h_seq[-1]
        v_t, _ = model._text_vectors(params, chunk)
        cl = v_t @ params["B"].T
        if model.phase == "finetuned":
            oot_ids, oot_mask = _pack_sets([c.oot_events for c in chunk])
            v_o, _ = _mean_of_sets(params["emb"], oot_ids, oot_mask)
            cl = cl + v_o @ params["W_O"].T
        const_logits[start:start + len(chunk)] = cl

    # The last GRU step is K.gru_step with x = emb[k]. Only its input terms
    # depend on k, so they are projected for every event at once; the z/r
    # recurrent term depends only on the context and is computed per chunk.
    W = np.concatenate([params[f"enc.W{g}"] for g in K.GATES])
    b = np.concatenate([params[f"enc.b{g}"] for g in K.GATES])
    x_proj = params["emb"] @ W.T + b                      # (V, 3h)
    U_zr = np.concatenate([params["enc.Uz"], params["enc.Ur"]]).T
    Uh, A = params["enc.Uh"], params["A"]

    effect = np.zeros((V, V))
    for start in range(0, N, batch_size):
        h_prev = h_hist[start:start + batch_size]
        cl = const_logits[start:start + batch_size]
        n = len(h_prev)
        hu_zr = h_prev @ U_zr                             # (n, 2h)
        zr, tmp = np.empty((n, 2 * h_dim)), np.empty((n, h_dim))
        hc, logits = np.empty((n, h_dim)), np.empty((n, V))
        row_max, row_sum = np.empty((n, 1)), np.empty(n)
        z, r = zr[:, :h_dim], zr[:, h_dim:]
        for k in range(V):
            np.add(hu_zr, x_proj[k, :2 * h_dim], out=zr)
            K.sigmoid(zr, out=zr)
            np.multiply(r, h_prev, out=tmp)
            np.matmul(tmp, Uh.T, out=hc)
            hc += x_proj[k, 2 * h_dim:]
            np.tanh(hc, out=hc)
            # v_e = (1 - z) * h_prev + z * hc
            np.subtract(1.0, z, out=tmp)
            tmp *= h_prev
            hc *= z
            hc += tmp
            np.matmul(hc, A.T, out=logits)
            logits += cl
            np.max(logits, axis=1, keepdims=True, out=row_max)
            logits -= row_max
            np.exp(logits, out=logits)
            np.sum(logits, axis=1, out=row_sum)
            np.divide(1.0, row_sum, out=row_sum)
            effect[k] += row_sum @ logits
    effect /= N
    return InterventionTable(effect, model_id=model_id, seed=adjustment.seed,
                             n_samples=N)


# ---------------------------------------------------------------------------
# scores and extraction


def script_score_matrix(table: InterventionTable) -> np.ndarray:
    """S[k, l] = effect[k, l] / column_sum(l); zero where a column is empty."""
    col = table.effect.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = np.where(col > 0, table.effect / col, 0.0)
    return S


def script_score(table: InterventionTable, k: int, l: int) -> float:
    V = table.effect.shape[0]
    if not (0 <= k < V and 0 <= l < V):
        raise ConfigError(f"indices ({k}, {l}) out of range for dim {V}")
    col = table.effect[:, l].sum()
    if col <= 0:
        return 0.0
    return float(table.effect[k, l] / col)


def _excluded_ids(rank, exclude_top: int):
    if exclude_top < 0:
        raise ConfigError("exclude_top must be >= 0")
    if exclude_top and rank is None:
        raise ConfigError("exclude_top > 0 requires a frequency rank")
    return set(rank[:exclude_top]) if exclude_top else set()


def top_predecessors(table: InterventionTable, target: int, topk: int,
                     exclude_top: int = 0, rank=None) -> list[int]:
    """Events k maximizing S(k, target), skipping the most frequent ones."""
    S = script_score_matrix(table)
    excluded = _excluded_ids(rank, exclude_top)
    candidates = [k for k in range(NUM_SPECIALS, table.effect.shape[0])
                  if k not in excluded]
    candidates.sort(key=lambda k: (-S[k, target], k))
    return candidates[:topk]


def complete_chain(score_fn, context, exclude_top: int = 0, rank=None,
                   candidates=None, vocab_size=None) -> int:
    """argmax over candidates of the mean pairwise score against the context."""
    if not context:
        raise ConfigError("chain completion requires at least one context event")
    if candidates is None:
        if vocab_size is None:
            raise ConfigError("need candidates or vocab_size")
        candidates = range(NUM_SPECIALS, vocab_size)
    excluded = _excluded_ids(rank, exclude_top)
    best, best_score = None, -np.inf
    for cand in candidates:
        if cand in excluded:
            continue
        score = float(np.mean([score_fn(e, cand) for e in context]))
        if score > best_score:
            best, best_score = cand, score
    return best


def mean_score_ranker(score_matrix: np.ndarray, exclude_top: int = 0,
                      rank=None):
    """Cloze-style ranker: candidates l ordered by mean_k score[k, l] over
    the context events. Works for S matrices and dense PMI matrices."""
    excluded = _excluded_ids(rank, exclude_top)

    def ranked(context):
        scores = score_matrix[np.asarray(context)].mean(axis=0)
        order = [l for l in range(NUM_SPECIALS, score_matrix.shape[1])
                 if l not in excluded]
        order.sort(key=lambda l: (-scores[l], l))
        return order

    return ranked
