"""Conditional next-event model, back-door plugin estimation of intervention
distributions, and the normalized script-compatibility score.

The conditional p(e_i | e_{i-1}, history, text[, out-of-text]) is modeled as

    logits = A v_e + B v_t + W_O v_o

where v_e is the final GRU state over [history..., prev_event] embeddings,
v_t is the mean embedding of the previous event's text tokens, and v_o is
the mean embedding of annotated out-of-text events (each zero when empty).
W_O stays zero until finetuning: pretraining clears the out-of-text ids.

Intervention rows are plugin Monte Carlo averages over an adjustment set of
sampled contexts: the intervened event replaces prev_event while each
sampled history/text/out-of-text stays untouched (graph surgery, not
resampling).

Instances hold their ids as ``kernel.Windows`` of the corpus's flat id
arrays, so a batch or an adjustment sample gathers only their starts and
lengths.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from . import config as C
from . import kernel as K
from .corpus import ChainCorpus
from .errors import (ConfigError, DataFormatError, NumericalError, open_input,
                     open_output)
from .events import Vocabulary, int_fields, ranked_ids

# the run keys the model records, under the same names
CONFIG_KEYS = C.same("emb_dim hidden_dim history_window oot_threshold lr "
                     "lr_schedule finetune_lr clip_norm batch_size patience "
                     "max_epochs seed")

_ITABLE_HEADER_TAG = "#scriptcausal-itable v1"


def _pack_sets(sets, fill):
    """(N, M) id matrix whose row r holds row r of ``sets`` (a Windows) and
    then ``fill``: the one padded form, for keys that compare whole rows."""
    out = np.full((len(sets), sets.lengths.max(initial=0)), fill, np.intp)
    rows, steps = sets.elements()
    out[rows, steps] = sets.at(rows, steps)
    return out


# A [history..., prev_event] sequence is a window of the flat event ids, so
# it pads as a set does.
_pack_sequences = _pack_sets


@dataclass
class PackedInstances:
    """Instances as windows of flat id arrays, so that a batch gathers only
    the windows' starts and lengths. ``chain`` names each instance's chain,
    by which ``kernel.fit`` shuffles; by default each is its own."""

    seq: K.Windows          # [history..., prev_event]
    text: K.Windows         # text token ids
    oot: K.Windows          # out-of-text event ids
    targets: np.ndarray     # (N,)
    chain: np.ndarray | None = None     # (N,)

    def __post_init__(self):
        if self.chain is None:
            self.chain = np.arange(len(self.targets))

    def __len__(self):
        return len(self.targets)

    def take(self, idx) -> "PackedInstances":
        """Rows ``idx`` (an index array or slice)."""
        return PackedInstances(self.seq.take(idx), self.text.take(idx),
                               self.oot.take(idx), self.targets[idx],
                               self.chain[idx])


def extract_training_instances(corpus: ChainCorpus, vocab: Vocabulary,
                               tokens: list[str] | None = None,
                               oot_threshold: int = 3,
                               history_window: int = 10) -> PackedInstances:
    """One instance per chain position i >= 1, in chain and position order,
    named by its chain's index. Target: event i. Sequence:
    the up to ``history_window`` events before i - 1, then event i - 1 (the
    prev event). Event i - 1's text as ids into ``tokens`` (unknown tokens
    are id 0, ``<unk>``; no text without ``tokens``) and its out-of-text
    ids rated >= ``oot_threshold``."""
    ids = corpus.event_ids(vocab)
    off, n = corpus.offsets, len(ids)
    pos = np.arange(n) - np.repeat(off[:-1], np.diff(off))
    at = np.flatnonzero(pos)
    prev = at - 1
    seq_len = np.minimum(pos[at], history_window + 1)
    if tokens is None:
        text, text_len = ids[:0], np.zeros_like(prev)
    else:
        index = {t: i for i, t in enumerate(tokens)}
        text = np.array([index.get(t, 0) for t in corpus.tokens],
                        np.intp)[corpus.text_ids]
        text_len = np.diff(corpus.text_off)[prev]
    keep = corpus.oot_ratings >= oot_threshold
    oot_len = np.bincount(np.repeat(np.arange(n), np.diff(corpus.oot_off))[keep],
                          minlength=n)
    return PackedInstances(
        K.Windows(ids, at - seq_len, seq_len),
        K.Windows(text, corpus.text_off[prev], text_len),
        K.Windows(corpus.event_ids(vocab, oot=True)[keep],
                  (np.cumsum(oot_len) - oot_len)[prev], oot_len[prev]),
        ids[at], np.repeat(np.arange(len(corpus)), np.diff(off))[at])


def mean_scores(score_matrix: np.ndarray, contexts: K.Windows) -> np.ndarray:
    """(n, d): row i is the mean of the rows score_matrix[k] (embeddings, S
    or dense PMI) over the ids k of row i of ``contexts``, added position by
    position from zero; a zero row for an empty window."""
    total = np.zeros((len(contexts), score_matrix.shape[1]))
    for t in range(contexts.lengths.max(initial=0)):
        live = np.flatnonzero(contexts.lengths > t)
        total[live] += score_matrix[contexts.at(live, t)]
    return total / np.maximum(contexts.lengths, 1)[:, None]


def _mean_terms(d_mean, sets):
    """The (embedding row, gradient row) terms of the gradient ``d_mean``
    of ``mean_scores`` over the Windows ``sets``."""
    rows, steps = sets.elements()
    return sets.at(rows, steps), (d_mean / np.maximum(sets.lengths, 1)[:, None])[rows]


# the context channels: (batch field, embedding, logit weight) of v_t and v_o
_CHANNELS = (("text", "text_emb", "B"), ("oot", "emb", "W_O"))


class ConditionalModel(K.Model):
    """The conditional next-event model. Its header holds the run keys of
    ``CONFIG_KEYS``, the size ``vocab_size``, the text channel's ``tokens``
    and the ``phase`` label."""

    KIND = "conditional"
    HEADER = {**CONFIG_KEYS, **C.same("vocab_size tokens phase")}

    def _init_params(self, rng):
        """Fresh parameters drawn from ``rng``."""
        cfg = self.config
        V, d, h = cfg["vocab_size"], cfg["emb_dim"], cfg["hidden_dim"]
        p = {"emb": K.init_embedding(rng, V, d)}
        K.init_gru(rng, "enc", d, h, p)
        # the mean of the text's token embeddings goes straight into B
        p["text_emb"] = K.init_embedding(rng, len(cfg["tokens"]), h)
        p["A"] = K.init_matrix(rng, V, h)
        p["B"] = K.init_matrix(rng, V, h)
        p["W_O"] = np.zeros((V, d))    # zero until finetuning, and last
        return p

    # -- forward -------------------------------------------------------------

    def _encode(self, params, seqs):
        """Final encoder states (B, h) over the Windows ``seqs`` (zeros for
        an empty row) and the backward cache; a shared prefix shares its GRU rows."""
        layout = K.SeqLayout(seqs)
        H, cache = K.encoder_forward(params, ("enc",), seqs, layout)
        return layout.final(H), (layout, cache)

    def _context_logits(self, params, batch, out=None):
        """The prev-event-independent logits B v_t + W_O v_o (written into
        ``out`` when given) and, per channel of ``_CHANNELS``, the rows whose
        window is non-empty, their windows and their means (v_t, v_o). Only
        those rows enter a GEMM: the others' means are zero, and so are
        their logits."""
        logits = np.empty((len(batch), len(params["B"]))) if out is None else out
        logits.fill(0.0)
        channels = []
        for name, emb, weight in _CHANNELS:
            sets = getattr(batch, name)
            live = np.flatnonzero(sets.lengths)
            at = slice(None) if len(live) == len(sets) else live
            sets = sets.take(at)
            v = mean_scores(params[emb], sets)
            logits[at] += v @ params[weight].T
            channels.append((at, sets, v))
        return logits, channels

    def _forward(self, params, batch):
        """Logits (B, V) and targets of ``batch``, and the cache."""
        v_e, enc_cache = self._encode(params, batch.seq)
        logits, channels = self._context_logits(params, batch)
        logits += v_e @ params["A"].T
        return logits, batch.targets, (v_e, enc_cache, channels)

    def loss_and_grads(self, batch: PackedInstances, params=None, rng=None):
        """Mean loss and gradients on a batch, at ``params`` (default: the
        model's own). The model draws nothing from ``rng``."""
        params = self.params if params is None else params
        logits, targets, (v_e, enc_cache, channels) = self._forward(params, batch)
        B = len(batch)
        loss_sum, dlogits = K.softmax_xent_batch(logits, targets)
        loss = loss_sum / B
        dlogits /= B
        grads = {k: np.zeros_like(v) for k, v in params.items()}

        grads["A"] += dlogits.T @ v_e
        d_ve = dlogits @ params["A"]
        # (embedding row, gradient row) terms of each channel's mean
        terms = {}
        for (_, emb, weight), (at, sets, v) in zip(_CHANNELS, channels):
            d = dlogits[at]
            grads[weight] += d.T @ v
            terms[emb] = _mean_terms(d @ params[weight], sets)
        grads["text_emb"] += K.scatter_rows(*terms["text_emb"],
                                            len(self.config["tokens"]))

        # the gradient enters at each sequence's last row; shared rows add up
        layout, cache = enc_cache
        live = layout.lengths > 0
        dh_out = K.scatter_rows(layout.last[live], d_ve[live], len(layout.steps))
        # embedding-gradient terms: out-of-text ones first, then the GRU's
        grads["emb"] += K.scatter_rows(*map(np.concatenate, zip(
            terms["emb"], K.encoder_backward(params, cache, dh_out, grads))),
            self.config["vocab_size"])
        return loss, grads


def train_conditional(train: PackedInstances, dev: PackedInstances,
                      vocab_size: int, config: dict | None = None,
                      log=None) -> ConditionalModel:
    """Pretraining on the instances without their out-of-text ids, so W_O
    stays zero. ``config`` may carry the ``tokens`` their text ids index.

    When the config carries an "lr_schedule" (a list of [lr, epochs] stages),
    the stages run sequentially, each with a freshly initialized optimizer;
    otherwise a single run at config["lr"] is used.
    """
    model = ConditionalModel({**(config or {}), "vocab_size": vocab_size})
    train, dev = (replace(i, oot=replace(i.oot, lengths=np.zeros(len(i), np.intp)))
                  for i in (train, dev))
    stages = model.config["lr_schedule"] or [(model.config["lr"], None)]
    for lr, epochs in stages:
        K.fit(model, train, np.arange(len(train)), dev, float(lr), "conditional",
              log, None if epochs is None else int(epochs))
    return model


def finetune_with_oot(model: ConditionalModel, annotated: PackedInstances,
                      config: dict | None = None, log=None) -> ConditionalModel:
    """Finetune everything at the reduced rate, from W_O restarted at zero
    and last, on the instances that carry out-of-text ids; the dev split is
    9:1 over them (seeded shuffle), and empty below 10 of them."""
    # batches are taken from the caller's set: the training rows are no copy
    rows = np.flatnonzero(annotated.oot.lengths)
    if not len(rows):
        raise ConfigError("no annotated instances to finetune on")
    cfg = {**model.config, **(config or {}), "phase": "finetuned"}
    params = {k: v.copy() for k, v in model.params.items() if k != "W_O"}
    params["W_O"] = np.zeros_like(model.params["W_O"])
    tuned = ConditionalModel(cfg, params)
    rng = np.random.default_rng(cfg["seed"] + 2)
    order = rows[rng.permutation(len(rows))]
    n_dev = len(rows) // 10
    return K.fit(tuned, annotated, order[n_dev:], annotated.take(order[:n_dev]),
                 cfg["finetune_lr"], "conditional", log)


# ---------------------------------------------------------------------------
# intervention estimation


def sample_adjustment_set(instances: PackedInstances, n: int,
                          seed: int) -> PackedInstances:
    """The contexts of a seeded sample of ``n`` instance rows (without
    replacement when there are enough), in row order."""
    if n < 1:
        raise ConfigError("adjustment set size must be >= 1")
    rng = np.random.default_rng(seed)
    total = len(instances)
    if total == 0:
        raise ConfigError("no instances to sample an adjustment set from")
    return instances.take(np.sort(rng.choice(total, size=n, replace=n > total)))


@dataclass
class InterventionTable:
    effect: np.ndarray    # (V, V): row k = estimated p(e_i | do(e_{i-1}=k))
    model_id: str = ""
    seed: int = 0
    n_samples: int = 0

    def header(self) -> bytes:
        """The file's header line; a ConfigError for a model id that is not
        one line of UTF-8 text, which ``load`` could not read back."""
        try:
            header = (f"{_ITABLE_HEADER_TAG} {self.effect.shape[0]} {self.n_samples} "
                      f"{self.seed} {self.model_id}\n").encode()
        except UnicodeEncodeError:
            header = b""
        if header.count(b"\n") != 1:
            raise ConfigError(f"model id {self.model_id!r} is not one line of "
                              "UTF-8 text")
        return header

    def save(self, path):
        """Write the table to ``path``, after ``header`` checks the model id."""
        header = self.header()
        with open_output(path, "wb") as f:
            f.write(header)
            f.write(np.ascontiguousarray(self.effect, dtype="<f8").tobytes())

    @staticmethod
    def load(path) -> "InterventionTable":
        with open_input(path, "rb") as f:
            header = f.readline().decode("utf-8").rstrip("\n")
            if not header.startswith(_ITABLE_HEADER_TAG + " "):
                raise DataFormatError("missing intervention table header")
            fields = header[len(_ITABLE_HEADER_TAG) + 1:].split(" ")
            if len(fields) < 4:
                raise DataFormatError("malformed intervention table header")
            dim, n_samples, seed = int_fields(fields[:3], "intervention table header")
            model_id = " ".join(fields[3:])
            body = f.read()
            if dim < 0 or len(body) != 8 * dim * dim:
                raise DataFormatError(f"intervention table body has {len(body)} "
                                      f"bytes; a {dim} x {dim} table needs "
                                      f"{8 * dim * dim}")
            effect = np.frombuffer(body, dtype="<f8").reshape(dim, dim).copy()
            bad = ~(np.isfinite(effect).all(axis=1) & (effect >= 0).all(axis=1)
                    & (np.abs(effect.sum(axis=1) - 1.0) <= 1e-9))
            if bad.any():
                raise DataFormatError(
                    f"intervention table row {int(np.argmax(bad))} is not a "
                    "distribution (non-finite, negative, or not summing to 1)")
        return InterventionTable(effect, model_id, seed, n_samples)

    def export_tsv(self, path, keys):
        """The do-rows as TSV, headed and keyed by the event ``keys``."""
        with open_output(path) as f:
            f.write("do_event\t" + "\t".join(keys) + "\n")
            for key, row in zip(keys, self.effect):
                f.write(key + "\t" + "\t".join(map(repr, row.tolist())) + "\n")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(tasks: int) -> int:
    """Worker threads for ``tasks`` independent tasks that call BLAS: one
    per usable CPU that BLAS's own threads leave free, at most one per task
    and at least one. OpenBLAS runs a GEMM on the first of its thread
    variables set to a positive count, else on every usable CPU."""
    cpus = blas = usable_cpus()
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(tasks, cpus // blas))


def estimate_interventions(model: ConditionalModel, contexts: PackedInstances,
                           model_id: str = "") -> InterventionTable:
    """Plugin estimate of every do-row by Monte Carlo over the adjustment
    sample ``contexts`` (instance rows; the intervened k replaces each prev event).

    Only the last encoder step depends on the intervened event k, and only
    through its input terms. So each distinct sampled context (history,
    text and out-of-text ids) is encoded once and weighted by how often it
    was drawn. The distinct contexts go in the fewest blocks of at most
    min(``batch_size``, 2**16 // V) rows, evenly filled, so one (n, V)
    logits array stays within 512 KiB and the memory is bounded by the
    vocabulary, not by the sample. Per block, the history states, their
    z/r recurrent terms and the context logits are computed once and shared
    read-only; per do-row and block, the last step is one ``K.gru_cell``
    (an (n, h) x (h, h) GEMM) and the logits GEMM, written into scratch
    buffers owned by one worker.

    Every |h| <= 1, so logit l is at most c_l + ||A_l||_1, and the row max
    lies within 2 max_l ||A_l||_1 of max_l (c_l + ||A_l||_1). Each block's
    context logits are shifted by that bound, which keeps the largest term
    of every softmax above exp(-600) and needs no max pass. A model whose
    span 2 max_l ||A_l||_1 exceeds 600 takes each row's own max instead.

    Per block, each of ``worker_count(V)`` threads sweeps its own fixed,
    contiguous share of the V do-values, which all cost the same work. So
    each row is summed by one worker over the blocks in block order, and
    the table is the same bit for bit for every worker count. A model id
    the table header cannot hold is refused first, and a non-finite shared
    array or table raises a NumericalError.
    """
    params, cfg = model.params, model.config
    V, h_dim = cfg["vocab_size"], cfg["hidden_dim"]
    table = InterventionTable(np.zeros((V, V)), model_id, n_samples=len(contexts))
    table.header()
    if not len(contexts):
        raise ConfigError("adjustment set must contain at least one context")

    # distinct contexts: the history (the sequence minus its prev event),
    # text and out-of-text ids of a sampled row, -1-padded into one key row
    history = replace(contexts.seq, lengths=contexts.seq.lengths - 1)
    keys = np.hstack([_pack_sequences(history, -1), _pack_sets(contexts.text, -1),
                      _pack_sets(contexts.oot, -1)])
    _, first, counts = np.unique(keys, axis=0, return_index=True,
                                 return_counts=True)
    distinct, history = contexts.take(first), history.take(first)
    D = len(distinct)
    n_blocks = -(-D // max(1, min(cfg["batch_size"], 2**16 // V)))
    step = -(-D // n_blocks)

    # The last GRU step is one step of K.gru_forward with input emb[k]. Only
    # its input terms depend on k, so they are projected for every event at
    # once; the z/r recurrent term depends only on the context.
    W, b, U_zr, Uh = K.gru_weights(params, "enc")
    x_proj = params["emb"] @ W.T + b                      # (V, 3h)
    if not np.isfinite(x_proj).all():
        raise NumericalError("non-finite input projection in the model")
    A = params["A"]
    a_norm = np.abs(A).sum(axis=1)
    # exp(-600) is far above float64's smallest normal number
    per_row_max = 2 * a_norm.max() > 600

    effect = table.effect
    ones = np.ones(V)

    def sweep(share, block, buffers):
        h_hist, hu_zr, const, weight = block
        zr, rh, h, logits, rsum = (buf[:len(weight)] for buf in buffers)
        for k in share:
            np.add(hu_zr, x_proj[k, :2 * h_dim], out=zr)
            K.gru_cell(zr, x_proj[k, 2 * h_dim:], h_hist, Uh, zr, h, h, rh)
            np.matmul(h, A.T, out=logits)
            logits += const
            if per_row_max:
                logits -= logits.max(axis=1, keepdims=True)
            np.exp(logits, out=logits)
            np.matmul(logits, ones, out=rsum)
            np.divide(weight, rsum, out=rsum)
            effect[k] += rsum @ logits

    # imported here: it adds about 0.4 MB to every process that loads it
    from concurrent.futures import ThreadPoolExecutor
    workers, scratch = worker_count(V), None
    shares = np.array_split(np.arange(V), workers)
    with ThreadPoolExecutor(workers) as pool:
        for start in range(0, D, step):
            blk = slice(start, start + step)
            # only the states: a cache kept to the next block would hold the
            # encoder's packed arrays through the sweep
            h_hist = model._encode(params, history.take(blk))[0]
            if scratch is None:
                # glibc gives each thread a malloc arena; only this one's
                # holds the first encode's freed memory, so the buffers are
                # made here, after it
                ctx_buf = np.empty((step, V))
                scratch = [(np.empty((step, 2 * h_dim)), np.empty((step, h_dim)),
                            np.empty((step, h_dim)), np.empty((step, V)),
                            np.empty(step))
                           for _ in range(workers)]
            const = ctx_buf[:len(h_hist)]
            model._context_logits(params, distinct.take(blk), out=const)
            for name, arr in [("history states", h_hist), ("context logits", const)]:
                if not np.isfinite(arr).all():
                    raise NumericalError(f"non-finite {name} in the model")
            if not per_row_max:
                const -= (const + a_norm).max(axis=1, keepdims=True)
            block = (h_hist, h_hist @ U_zr.T, const, counts[blk])
            list(pool.map(sweep, shares, [block] * workers, scratch))
    effect /= len(contexts)
    if not np.isfinite(effect).all():
        raise NumericalError("the estimated intervention table is not finite")
    return table


# ---------------------------------------------------------------------------
# scores and extraction


def script_score_matrix(table: InterventionTable) -> np.ndarray:
    """S[k, l] = effect[k, l] / column_sum(l); zero where a column is empty."""
    col = table.effect.sum(axis=0, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        S = np.where(col > 0, table.effect / col, 0.0)
    return S


def top_predecessors(table: InterventionTable, target: int, topk: int,
                     exclude_top: int = 0, rank=()) -> list[int]:
    """Events k maximizing S(k, target), skipping the ``exclude_top`` most
    frequent ones of ``rank``."""
    return _candidates(script_score_matrix(table)[:, target], exclude_top,
                       rank)[:topk]


def _candidates(scores, exclude_top, rank) -> list[int]:
    """``ranked_ids(scores)`` without the ``exclude_top`` most frequent
    events of ``rank``; a ConfigError when none is left."""
    ranked = ranked_ids(scores, rank[:exclude_top])
    if not ranked:
        raise ConfigError(f"no candidate left after excluding the "
                          f"{exclude_top} most frequent events")
    return ranked


def complete_chain(score_matrix: np.ndarray, context, exclude_top: int = 0,
                   rank=()) -> int:
    """The candidate with the highest mean score[k, candidate] over the
    context event ids k; ties go to the lowest id."""
    if not len(context):
        raise ConfigError("chain completion requires at least one context event")
    scores = mean_scores(score_matrix, K.Windows.of([context]))[0]
    ranked = _candidates(scores, exclude_top, rank)
    if not np.isfinite(scores[ranked[0]]):
        raise ConfigError("no candidate has a finite score for this context")
    return ranked[0]
