"""Comparison systems: ordered discounted skip-bigram PMI and a GRU event
sequence language model.

PMI follows the ordered skip-bigram scheme with a window of 2: within each
chain, (e_i, e_j) is counted for every j with i < j <= i + window, keeping
direction. The discount multiplies raw PMI by (c / (c+1)) * (m / (m+1))
with m = min(left(e1), right(e2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config as C
from . import kernel as K
from .corpus import ChainCorpus
from .errors import ConfigError, DataFormatError, open_input, open_output
from .events import END_ID, START_ID, Vocabulary, int_fields

NEG_INF = float("-inf")

_COUNTS_HEADER_TAG = "#scriptcausal-counts v1"


# ---------------------------------------------------------------------------
# ordered skip-bigram PMI


@dataclass
class OrderedCounts:
    """Skip-bigram counts of one window: e2 followed e1 within it
    ``pairs[e1, e2]`` times, a (V, V) int64 array."""

    window: int
    pairs: np.ndarray


def count_skip_bigrams(corpus: ChainCorpus, vocab: Vocabulary,
                       window: int = 2) -> OrderedCounts:
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
    return OrderedCounts(window, np.bincount(codes, minlength=V * V).reshape(V, V))


def save_counts(counts: OrderedCounts, vocab: Vocabulary, path):
    """One line per nonzero pair, in ascending (e1, e2) order."""
    e1, e2 = np.nonzero(counts.pairs)
    with open_output(path) as f:
        f.write(f"{_COUNTS_HEADER_TAG}\t{counts.window}\t{counts.pairs.sum()}\n")
        f.writelines(f"{vocab.key_of(a)}\t{vocab.key_of(b)}\t{c}\n" for a, b, c in
                     zip(e1.tolist(), e2.tolist(), counts.pairs[e1, e2].tolist()))


def load_counts(path, vocab: Vocabulary) -> OrderedCounts:
    """The counts in file ``path``; lines naming the same pair add up."""
    with open_input(path) as f:
        header = f.readline().rstrip("\n").split("\t")
        if len(header) != 3 or header[0] != _COUNTS_HEADER_TAG:
            raise DataFormatError("missing skip-bigram counts header")
        window, total = int_fields(header[1:], "counts header")
        e1, e2, c = [], [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"counts line {lineno}: expected 3 fields")
            (count,) = int_fields(parts[2:], f"counts line {lineno}")
            if count < 1:
                raise DataFormatError(f"counts line {lineno}: count {count} "
                                      "is not positive")
            e1.append(vocab.id_of(parts[0]))
            e2.append(vocab.id_of(parts[1]))
            c.append(count)
        if sum(c) != total:
            raise DataFormatError("counts header total does not match rows")
        if total >= 2 ** 63:
            raise DataFormatError(f"counts header total {total} exceeds int64")
    pairs = np.zeros((len(vocab), len(vocab)), dtype=np.int64)
    np.add.at(pairs, (e1, e2), c)
    return OrderedCounts(window, pairs)


def pmi_matrix(counts: OrderedCounts) -> np.ndarray:
    """Dense (V, V) discounted ordered PMI of every seen pair, -inf where a
    pair is unseen: the PMI times (c / (c+1)) * (m / (m+1)),
    m = min(left(e1), right(e2)). The ratios are float64 arithmetic, exact
    on counts below 2**53, and each log is ``math.log``'s, so every entry
    has the bits of the per-pair formula."""
    pairs = counts.pairs
    e1s, e2s = np.nonzero(pairs)
    T = float(pairs.sum())
    c, left, right = (a.astype(float) for a in (
        pairs[e1s, e2s], pairs.sum(axis=1)[e1s], pairs.sum(axis=0)[e2s]))
    ratio = (c / T) / ((left / T) * (right / T))
    pmi = np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
    m = np.minimum(left, right)
    M = np.full(pairs.shape, NEG_INF)
    M[e1s, e2s] = pmi * (c / (c + 1.0)) * (m / (m + 1.0))
    return M


# ---------------------------------------------------------------------------
# GRU event sequence LM


# the table key of each key the LM records
CONFIG_KEYS = {"emb_dim": "lm_emb_dim", "hidden_dim": "lm_hidden_dim",
               "num_layers": "lm_layers", "dropout": "lm_dropout",
               "batch_size": "lm_batch_size",
               **C.same("lr clip_norm patience max_epochs seed")}


def frame(seqs: K.Windows) -> K.Windows:
    """The rows of ``seqs`` framed as ``<s> ids... </s>`` in new flat ids:
    row r of the result is row r's inputs ``<s> ids...``, and its targets
    sit one position later."""
    heads = np.cumsum(seqs.lengths) - seqs.lengths
    at = np.column_stack((heads, heads + seqs.lengths)).ravel()
    return K.Windows(np.insert(seqs.at(*seqs.elements()), at,
                               np.tile([START_ID, END_ID], len(seqs))),
                     heads + 2 * np.arange(len(seqs)), seqs.lengths + 1)


class EventLM(K.Model):
    """Multi-layer GRU language model over framed event-id sequences
    (``frame``). Its header holds the run keys of ``CONFIG_KEYS`` and
    ``vocab_size``."""

    KIND = "event-lm"
    HEADER = {**CONFIG_KEYS, **C.same("vocab_size")}

    @property
    def _layers(self):
        return [f"gru{layer}" for layer in range(self.config["num_layers"])]

    def _init_params(self, rng):
        """Fresh parameters drawn from ``rng``."""
        cfg = self.config
        V, d, h = cfg["vocab_size"], cfg["emb_dim"], cfg["hidden_dim"]
        p = {"emb": K.init_embedding(rng, V, d)}
        for layer in self._layers:
            K.init_gru(rng, layer, d, h, p)
            d = h
        p["out.W"] = K.init_matrix(rng, V, h)
        p["out.b"] = np.zeros(V)
        return p

    # -- forward / backward -------------------------------------------------

    def _forward(self, params, batch: K.Windows, rng=None):
        """Logits (S, V) and targets at every input position of the framed
        chains ``batch`` in SeqLayout order, and the cache: the encoder output
        and its cache. Dropout masks are drawn as (T, B, dim) arrays, then
        gathered at the packed positions; there is no dropout without ``rng``."""
        layout = K.SeqLayout.unshared(batch.lengths)
        masks = None
        p = self.config["dropout"]
        if rng is not None and p > 0:
            T, B, keep = len(layout.sizes), len(batch), 1.0 - p
            at = (layout.steps, layout.rows)
            masks = tuple((rng.random((T, B, n)) < keep)[at] / keep
                          for n in (self.config["emb_dim"], self.config["hidden_dim"]))
        H, cache = K.encoder_forward(params, self._layers, batch, layout, masks)
        logits = H @ params["out.W"].T + params["out.b"]
        return logits, batch.at(layout.rows, layout.steps + 1), (H, cache)

    def loss_and_grads(self, batch: K.Windows, params=None, rng=None):
        """Mean per-token loss and gradients on a batch of framed chains, at
        ``params`` (default: the model's own), with dropout masks drawn
        from ``rng``."""
        params = self.params if params is None else params
        logits, targets, (H, cache) = self._forward(params, batch, rng)
        loss_sum, dlogits = K.softmax_xent_batch(logits, targets)
        n_tokens = float(len(logits))
        dlogits /= n_tokens
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["out.W"] += dlogits.T @ H
        grads["out.b"] += dlogits.sum(axis=0)
        grads["emb"] += K.scatter_rows(*K.encoder_backward(
            params, cache, dlogits @ params["out.W"], grads), self.config["vocab_size"])
        return loss_sum / n_tokens, grads

    def next_distribution(self, histories: K.Windows) -> np.ndarray:
        """(n, V) softmax over the next event after each row of
        ``histories``, from one encoder pass over ``<s> history`` in which
        the histories share the rows of a common prefix."""
        framed = frame(histories)
        layout = K.SeqLayout(framed)
        H, _ = K.encoder_forward(self.params, self._layers, framed, layout)
        return K.softmax(H[layout.last] @ self.params["out.W"].T
                         + self.params["out.b"])


def train_event_lm(train_corpus: ChainCorpus, dev_corpus: ChainCorpus,
                   vocab: Vocabulary, config: dict | None = None,
                   log=None) -> EventLM:
    """Train with Adam + early stopping; returns the best-dev checkpoint.
    The dropout masks come from the rng that orders the batches."""
    train, dev = (frame(K.Windows(c.event_ids(vocab), c.offsets[:-1],
                                  np.diff(c.offsets)))
                  for c in (train_corpus, dev_corpus))
    lm = EventLM({**(config or {}), "vocab_size": len(vocab)})
    return K.fit(lm, train, np.arange(len(train)), dev, lm.config["lr"], "lm", log)
