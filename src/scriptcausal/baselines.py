"""Comparison systems: ordered discounted skip-bigram PMI and a GRU event
sequence language model.

PMI follows the ordered skip-bigram scheme with a window of 2: within each
chain, (e_i, e_j) is counted for every j with i < j <= i + window, keeping
direction. The discounted variant multiplies raw PMI by
(c / (c+1)) * (m / (m+1)) with m = min(left(e1), right(e2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel as K
from .corpus import ChainCorpus
from .errors import ConfigError, DataFormatError
from .events import END_ID, START_ID, Vocabulary, int_fields

NEG_INF = float("-inf")

_COUNTS_HEADER_TAG = "#scriptcausal-counts v1"


# ---------------------------------------------------------------------------
# ordered skip-bigram PMI


@dataclass
class OrderedCounts:
    window: int
    pair_counts: dict = field(default_factory=dict)
    left_totals: dict = field(default_factory=dict)
    right_totals: dict = field(default_factory=dict)
    grand_total: int = 0

    def add_pair(self, e1: int, e2: int, count: int = 1):
        key = (e1, e2)
        self.pair_counts[key] = self.pair_counts.get(key, 0) + count
        self.left_totals[e1] = self.left_totals.get(e1, 0) + count
        self.right_totals[e2] = self.right_totals.get(e2, 0) + count
        self.grand_total += count


def count_skip_bigrams(corpus: ChainCorpus, vocab: Vocabulary,
                       window: int = 2,
                       include_self_pairs: bool = True) -> OrderedCounts:
    """Every ordered pair (e_i, e_j) of a chain with 0 < j - i <= window,
    counted from the id array shifted by each gap."""
    if window < 1:
        raise ConfigError(f"window must be >= 1, got {window}")
    ids = corpus.event_ids(vocab)
    chain = np.repeat(np.arange(len(corpus)), np.diff(corpus.offsets))
    V = len(vocab)
    codes = [(ids[:-d] * V + ids[d:])[chain[:-d] == chain[d:]]
             for d in range(1, min(window, len(ids) - 1) + 1)]
    codes = np.concatenate(codes) if codes else ids[:0]
    if not include_self_pairs:
        codes = codes[codes // V != codes % V]
    counts = OrderedCounts(window)
    for code, c in zip(*(a.tolist() for a in np.unique(codes, return_counts=True))):
        counts.add_pair(code // V, code % V, c)
    return counts


def ordered_pmi(counts: OrderedCounts, e1: int, e2: int,
                discounted: bool = True) -> float:
    """PMI of e2 following e1 within the window; -inf when the pair is unseen."""
    c = counts.pair_counts.get((e1, e2), 0)
    if c == 0:
        return NEG_INF
    T = counts.grand_total
    left = counts.left_totals[e1]
    right = counts.right_totals[e2]
    raw = math.log((c / T) / ((left / T) * (right / T)))
    if not discounted:
        return raw
    m = min(left, right)
    return raw * (c / (c + 1.0)) * (m / (m + 1.0))


def save_counts(counts: OrderedCounts, vocab: Vocabulary, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_COUNTS_HEADER_TAG}\t{counts.window}\t{counts.grand_total}\n")
        for (e1, e2) in sorted(counts.pair_counts):
            f.write(f"{vocab.key_of(e1)}\t{vocab.key_of(e2)}\t"
                    f"{counts.pair_counts[(e1, e2)]}\n")


def load_counts(path, vocab: Vocabulary) -> OrderedCounts:
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        if len(header) != 3 or header[0] != _COUNTS_HEADER_TAG:
            raise DataFormatError("missing skip-bigram counts header")
        window, total = int_fields(header[1:], "counts header")
        counts = OrderedCounts(window)
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"counts line {lineno}: expected 3 fields")
            (count,) = int_fields(parts[2:], f"counts line {lineno}")
            if count < 1:
                raise DataFormatError(f"counts line {lineno}: count {count} "
                                      "is not positive")
            counts.add_pair(vocab.id_of(parts[0]), vocab.id_of(parts[1]), count)
        if counts.grand_total != total:
            raise DataFormatError("counts header total does not match rows")
    return counts


def pmi_matrix(counts: OrderedCounts, V: int) -> np.ndarray:
    """Dense (V, V) discounted PMI of every stored pair; -inf where a pair
    is unseen."""
    M = np.full((V, V), NEG_INF)
    for (e1, e2) in counts.pair_counts:
        M[e1, e2] = ordered_pmi(counts, e1, e2)
    return M


# ---------------------------------------------------------------------------
# GRU event sequence LM


DEFAULT_LM_CONFIG = {
    "emb_dim": 300,
    "hidden_dim": 512,
    "num_layers": 2,
    "dropout": 0.1,
    "lr": 0.001,
    "clip_norm": 10.0,
    "batch_size": 64,
    "patience": 3,
    "max_epochs": 50,
    "seed": 0,
}


class EventLM:
    """Multi-layer GRU language model over framed event-id sequences."""

    def __init__(self, vocab_size: int, config: dict | None = None,
                 params: dict | None = None):
        self.config = dict(DEFAULT_LM_CONFIG)
        if config:
            self.config.update(config)
        self.vocab_size = vocab_size
        self._ws = [K.Workspace() for _ in range(self.config["num_layers"])]
        if params is not None:
            self.params = params
        else:
            rng = np.random.default_rng(self.config["seed"])
            d = self.config["emb_dim"]
            h = self.config["hidden_dim"]
            p = {"emb": K.init_embedding(rng, vocab_size, d)}
            in_dim = d
            for layer in range(self.config["num_layers"]):
                K.init_gru(rng, f"gru{layer}", in_dim, h, p)
                in_dim = h
            p["out.W"] = K.init_matrix(rng, vocab_size, h)
            p["out.b"] = np.zeros(vocab_size)
            self.params = p

    # -- forward / backward -------------------------------------------------

    def _pad_batch(self, sequences):
        """Right-pad framed sequences; returns inputs, targets, mask (T, B)."""
        framed = [[START_ID, *s, END_ID] for s in sequences]
        T = max(len(s) for s in framed) - 1
        inputs, targets = np.zeros((2, T, len(framed)), dtype=int)
        mask = np.zeros((T, len(framed)))
        for b, s in enumerate(framed):
            n = len(s) - 1
            inputs[:n, b], targets[:n, b], mask[:n, b] = s[:-1], s[1:], 1.0
        return inputs, targets, mask

    def _forward(self, params, inputs, mask, dropout_masks=None):
        """Logits (S, V) of the S unmasked positions of a right-padded
        (T, B) batch, packed in SeqLayout order, and the caches."""
        layout = K.SeqLayout(mask.sum(axis=0).astype(np.intp))
        at = (layout.steps, layout.rows)
        ids = inputs[at]
        h = params["emb"][ids]
        if dropout_masks is not None:
            h = h * dropout_masks[0][at]
        caches = {"ids": ids, "layout": layout}
        for layer in range(self.config["num_layers"]):
            h, caches[f"gru{layer}"] = K.gru_forward(
                params, f"gru{layer}", h, layout, self._ws[layer])
        if dropout_masks is not None:
            h = h * dropout_masks[1][at]
        caches["h_top"] = h
        logits = h @ params["out.W"].T + params["out.b"]
        return logits, caches

    def _loss_and_grads(self, params, inputs, targets, mask, dropout_masks=None):
        logits, caches = self._forward(params, inputs, mask, dropout_masks)
        layout = caches["layout"]
        at = (layout.steps, layout.rows)
        loss_sum, dlogits = K.softmax_xent_batch(logits, targets[at])
        n_tokens = float(len(logits))
        loss = loss_sum / n_tokens
        dlogits /= n_tokens
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["out.W"] += dlogits.T @ caches["h_top"]
        grads["out.b"] += dlogits.sum(axis=0)
        dh = dlogits @ params["out.W"]
        if dropout_masks is not None:
            dh *= dropout_masks[1][at]
        for layer in range(self.config["num_layers"] - 1, -1, -1):
            dh = K.gru_backward(params, f"gru{layer}", caches[f"gru{layer}"],
                                dh, grads)
        if dropout_masks is not None:
            dh = dh * dropout_masks[0][at]
        grads["emb"] += K.scatter_rows(caches["ids"], dh, self.vocab_size)
        return loss, grads

    def loss_and_grads(self, sequences, dropout_rng=None):
        """Mean per-token loss and gradients on a batch of id sequences."""
        inputs, targets, mask = self._pad_batch(sequences)
        dropout_masks = None
        p = self.config["dropout"]
        if dropout_rng is not None and p > 0:
            d = self.config["emb_dim"]
            h = self.config["hidden_dim"]
            T, B = inputs.shape
            keep = 1.0 - p
            dropout_masks = (
                (dropout_rng.random((T, B, d)) < keep) / keep,
                (dropout_rng.random((T, B, h)) < keep) / keep,
            )
        return self._loss_and_grads(self.params, inputs, targets, mask,
                                    dropout_masks)

    def mean_loss(self, sequences, batch_size=256):
        """Evaluation loss (no dropout) averaged per token."""
        total, tokens = 0.0, 0
        for start in range(0, len(sequences), batch_size):
            inputs, targets, mask = self._pad_batch(sequences[start:start + batch_size])
            logits, caches = self._forward(self.params, inputs, mask)
            layout = caches["layout"]
            total += K.softmax_xent_batch(logits,
                                          targets[layout.steps, layout.rows])[0]
            tokens += len(logits)
        return total / tokens

    def next_distribution(self, history) -> np.ndarray:
        """softmax over the next event given a history of event ids."""
        ids = [START_ID] + list(history)
        layout = K.SeqLayout([len(ids)])
        h = self.params["emb"][np.asarray(ids)]
        for layer in range(self.config["num_layers"]):
            h, _ = K.gru_forward(self.params, f"gru{layer}", h, layout,
                                 self._ws[layer])
        logits = h[-1] @ self.params["out.W"].T + self.params["out.b"]
        return K.softmax(logits)

    # -- persistence ---------------------------------------------------------

    def save(self, path):
        config = dict(self.config, vocab_size=self.vocab_size)
        K.save_model(path, "event-lm", config, self.params)

    @staticmethod
    def load(path) -> "EventLM":
        kind, config, params = K.load_model(path)
        if kind != "event-lm":
            raise DataFormatError(f"expected event-lm model file, got {kind!r}")
        vocab_size = config.pop("vocab_size")
        return EventLM(vocab_size, config, params)


def corpus_sequences(corpus: ChainCorpus, vocab: Vocabulary):
    """Each chain's vocabulary ids, as a list."""
    ids, off = corpus.event_ids(vocab).tolist(), corpus.offsets.tolist()
    return [ids[a:b] for a, b in zip(off, off[1:])]


def train_event_lm(train_corpus: ChainCorpus, dev_corpus: ChainCorpus,
                   vocab: Vocabulary, config: dict | None = None,
                   log=None) -> EventLM:
    """Train with Adam + early stopping; returns the best-dev checkpoint.
    The dropout masks come from the rng that orders the batches."""
    train_seqs = corpus_sequences(train_corpus, vocab)
    holdout = corpus_sequences(dev_corpus, vocab) or train_seqs
    lm = EventLM(len(vocab), config)
    cfg = lm.config
    rng = np.random.default_rng(cfg["seed"] + 1)

    def batch_grads(idx):
        return lm.loss_and_grads([train_seqs[i] for i in idx], dropout_rng=rng)[1]

    lm.params = K.fit(lm.params, batch_grads, lambda: lm.mean_loss(holdout),
                      len(train_seqs), cfg, cfg["lr"], rng,
                      log=log and (lambda e, loss: log(
                          f"lm epoch {e}: dev loss {loss:.4f}")))
    return lm
