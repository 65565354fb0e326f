"""Reference computations made apart from the scriptcausal package.

Everything here reads the files the CLI writes (chain JSONL, vocabulary
TSV, model and intervention-table binaries, CBN spec JSON) with its own
parsers and recomputes the quantities the benchmark checks. Nothing is
imported from ``scriptcausal``: a fault in the package cannot hide in the
reference that is meant to catch it.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

NUM_SPECIALS = 3          # ids 0, 1, 2 are <unk>, <s>, </s>
UNK_ID = 0
START_ID = 1


# ---------------------------------------------------------------------------
# file readers


def read_chains(path) -> list[list[str]]:
    """Event keys ("pred:dep") of every chain in a JSONL chain file."""
    return [[key for key, _ in chain] for chain in read_events(path)]


def read_events(path) -> list[list[tuple[str, list]]]:
    """(event key, out-of-text [key, rating] pairs) of every chain."""
    chains = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                obj = json.loads(line)
                chains.append([(f"{e['pred']}:{e['dep']}", e.get("oot") or [])
                               for e in obj["events"]])
    return chains


def read_vocab(path) -> tuple[list[str], list[int]]:
    """(keys by id, counts by id) from a vocabulary TSV."""
    keys, counts = [], []
    with open(path, encoding="utf-8") as f:
        next(f)
        for line in f:
            key, idx, count = line.rstrip("\n").split("\t")
            if int(idx) != len(keys):
                raise ValueError(f"vocabulary id {idx} out of order")
            keys.append(key)
            counts.append(int(count))
    return keys, counts


def to_ids(chains, keys) -> list[list[int]]:
    index = {k: i for i, k in enumerate(keys)}
    return [[index.get(k, UNK_ID) for k in chain] for chain in chains]


def frequency_rank(counts) -> list[int]:
    """Non-special ids by descending count, ties by ascending id."""
    return sorted(range(NUM_SPECIALS, len(counts)), key=lambda i: (-counts[i], i))


def read_model(path):
    """(kind, config, params) from a model file: a JSON header line, then
    blocks of (name length, name, ndim, shape, little-endian float64 data)."""
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.index(b"\n")
    _tag, _version, kind, config = blob[:end].decode("utf-8").split(" ", 3)
    pos = end + 1
    params = {}
    while pos < len(blob):
        (n,) = struct.unpack_from("<I", blob, pos)
        name = blob[pos + 4:pos + 4 + n].decode("utf-8")
        pos += 4 + n
        (ndim,) = struct.unpack_from("<I", blob, pos)
        shape = struct.unpack_from(f"<{ndim}Q", blob, pos + 4)
        pos += 4 + 8 * ndim
        count = math.prod(shape)
        params[name] = np.frombuffer(blob, "<f8", count, pos).reshape(shape)
        pos += 8 * count
    return kind, json.loads(config), params


def read_itable(path) -> np.ndarray:
    """The (V, V) effect matrix of a binary intervention table."""
    with open(path, "rb") as f:
        dim = int(f.readline().split()[2])
        return np.frombuffer(f.read(), "<f8").reshape(dim, dim)


def read_itable_tsv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as f:
        keys = f.readline().rstrip("\n").split("\t")[1:]
        rows = [[float(x) for x in line.rstrip("\n").split("\t")[1:]] for line in f]
    return keys, np.array(rows)


# ---------------------------------------------------------------------------
# the generator's exact distributions


def spec_kernels(spec: dict):
    """(keys, pi (S,), smoothed kernels (S, E+1, E)) of a CBN spec; kernel
    row 0 is the start state, row k+1 follows event k."""
    keys = list(spec["events"])
    index = {k: i for i, k in enumerate(keys)}
    E, lam = len(keys), float(spec["lambda"])
    pi = np.array([s["prob"] for s in spec["scenarios"]], dtype=float)
    T = np.zeros((len(pi), E + 1, E))
    for z, scen in enumerate(spec["scenarios"]):
        for source, row in scen["kernel"].items():
            r = 0 if source == "<s>" else index[source] + 1
            for target, w in row.items():
                T[z, r, index[target]] = w
    return keys, pi, (1.0 - lam) * T + lam / E


def exact_do_rows(spec: dict) -> np.ndarray:
    """p(e' | do(e = k)) = sum_z pi_z ((1 - lam) T_z[k] + lam / E), as (E, E)."""
    _, pi, kern = spec_kernels(spec)
    return np.einsum("z,zkl->kl", pi, kern[:, 1:, :])


def exact_observed_rows(spec: dict) -> np.ndarray:
    """p(e_{t+1} | e_t = k) pooled over positions t = 1..L-1, as (E, E)."""
    _, pi, kern = spec_kernels(spec)
    L = int(spec["chain_length"])
    marg = kern[:, 0, :].copy()                 # p(e_1 | z)
    weight = np.zeros_like(marg)                # sum_t p(z, e_t = k)
    for _ in range(L - 1):
        weight += pi[:, None] * marg
        marg = np.einsum("zk,zkl->zl", marg, kern[:, 1:, :])
    joint = np.einsum("zk,zkl->kl", weight, kern[:, 1:, :])
    return joint / weight.sum(axis=0)[:, None]


def observed_next_frequencies(chains, keys) -> np.ndarray:
    """Row-normalised counts of adjacent (e_t, e_{t+1}) pairs among ``keys``."""
    index = {k: i for i, k in enumerate(keys)}
    counts = np.zeros((len(keys), len(keys)))
    for chain in chains:
        for a, b in zip(chain, chain[1:]):
            if a in index and b in index:
                counts[index[a], index[b]] += 1
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)


# ---------------------------------------------------------------------------
# plain-numpy GRU


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_step(p, prefix, x, h):
    z = _sigmoid(x @ p[f"{prefix}.Wz"].T + h @ p[f"{prefix}.Uz"].T + p[f"{prefix}.bz"])
    r = _sigmoid(x @ p[f"{prefix}.Wr"].T + h @ p[f"{prefix}.Ur"].T + p[f"{prefix}.br"])
    c = np.tanh(x @ p[f"{prefix}.Wh"].T + (r * h) @ p[f"{prefix}.Uh"].T + p[f"{prefix}.bh"])
    return (1.0 - z) * h + z * c


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _by_length(seqs):
    groups = {}
    for i, s in enumerate(seqs):
        groups.setdefault(len(s), []).append(i)
    return groups


def encode_histories(p, prefix, seqs, hidden) -> np.ndarray:
    """Final GRU state over each id sequence from h = 0 (zeros if empty)."""
    out = np.zeros((len(seqs), hidden))
    for length, rows in _by_length(seqs).items():
        ids = np.array([seqs[i] for i in rows], dtype=int).reshape(len(rows), length)
        h = np.zeros((len(rows), hidden))
        for t in range(length):
            h = gru_step(p, prefix, p["emb"][ids[:, t]], h)
        out[rows] = h
    return out


def adjustment_contexts(chains, keys, history_window, oot_threshold):
    """(in-text history, out-of-text ids) of every (chain, position >= 1)
    instance in file order; the out-of-text events are those of the
    previous event rated at least ``oot_threshold``."""
    index = {k: i for i, k in enumerate(keys)}
    contexts = []
    for chain in chains:
        ids = [index.get(key, UNK_ID) for key, _ in chain]
        for i in range(1, len(ids)):
            oot = [index.get(k, UNK_ID) for k, r in chain[i - 1][1] if r >= oot_threshold]
            contexts.append((ids[max(0, i - 1 - history_window):i - 1], oot))
    return contexts


def adjustment_sample(contexts, n, seed) -> list:
    """The estimator's seeded draw of n contexts, kept in file order."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(contexts), size=n, replace=n > len(contexts))
    return [contexts[i] for i in sorted(idx)]


def do_rows(model, contexts, rows) -> np.ndarray:
    """Plug-in do-rows of a conditional model (text channel empty):
    mean_j softmax(A gru(emb[k], h_j) + W_O v_j) for each k in ``rows``,
    where h_j encodes context j's history and v_j is the mean embedding of
    its out-of-text events (W_O only in the finetuned phase)."""
    _kind, config, p = model
    h_hist = encode_histories(p, "enc", [h for h, _ in contexts], config["hidden_dim"])
    const = np.zeros((len(contexts), p["A"].shape[0]))
    if config["phase"] == "finetuned":
        v_o = np.array([p["emb"][o].mean(axis=0) if o else np.zeros(p["emb"].shape[1])
                        for _, o in contexts])
        const = v_o @ p["W_O"].T
    out = np.empty((len(rows), p["A"].shape[0]))
    for i, k in enumerate(rows):
        x = np.broadcast_to(p["emb"][k], (len(contexts), p["emb"].shape[1]))
        out[i] = _softmax(gru_step(p, "enc", x, h_hist) @ p["A"].T + const).mean(axis=0)
    return out


def lm_next(model, contexts) -> np.ndarray:
    """Event-LM next-event distributions after <s> + each context."""
    _kind, config, p = model
    seqs = [[START_ID] + list(c) for c in contexts]
    out = np.empty((len(seqs), p["out.b"].shape[0]))
    for length, rows in _by_length(seqs).items():
        x = p["emb"][np.array([seqs[i] for i in rows], dtype=int)]
        x = np.swapaxes(x, 0, 1)                     # (T, B, d)
        for layer in range(config["num_layers"]):
            h = np.zeros((len(rows), config["hidden_dim"]))
            states = []
            for t in range(length):
                h = gru_step(p, f"gru{layer}", x[t], h)
                states.append(h)
            x = states
        out[rows] = _softmax(x[-1] @ p["out.W"].T + p["out.b"])
    return out


# ---------------------------------------------------------------------------
# scores and rankers


def script_scores(effect) -> np.ndarray:
    """S[k, l] = effect[k, l] / sum_k' effect[k', l]."""
    col = effect.sum(axis=0)
    return effect / np.where(col > 0, col, 1.0)


def skip_bigram_counts(chains_ids, window):
    """Ordered pair counts (e_i, e_j), i < j <= i + window, with left, right
    and grand totals."""
    pairs, left, right = {}, {}, {}
    total = 0
    for ids in chains_ids:
        for i in range(len(ids)):
            for j in range(i + 1, min(i + window + 1, len(ids))):
                a, b = ids[i], ids[j]
                pairs[(a, b)] = pairs.get((a, b), 0) + 1
                left[a] = left.get(a, 0) + 1
                right[b] = right.get(b, 0) + 1
                total += 1
    return pairs, left, right, total


def pmi_matrix(counts, V) -> np.ndarray:
    """Discounted ordered PMI, -inf for unseen pairs."""
    pairs, left, right, T = counts
    M = np.full((V, V), -np.inf)
    for (a, b), c in pairs.items():
        raw = math.log((c / T) / ((left[a] / T) * (right[b] / T)))
        m = min(left[a], right[b])
        M[a, b] = raw * (c / (c + 1.0)) * (m / (m + 1.0))
    return M


def rank_position(scores, answer) -> int:
    """0-based position of ``answer`` among non-special candidates ordered
    by descending score, ties by ascending id."""
    cand = scores[NUM_SPECIALS:]
    s = scores[answer]
    ahead = np.count_nonzero(cand > s)
    ahead += np.count_nonzero(cand[:answer - NUM_SPECIALS] == s)
    return int(ahead)


def top_by_score(scores, candidates, k) -> list[int]:
    """The k candidates of highest finite score, ties by ascending id."""
    finite = [c for c in candidates if np.isfinite(scores[c])]
    return sorted(finite, key=lambda c: (-scores[c], c))[:k]


def cloze_pool(chains_ids) -> list[tuple[list[int], int]]:
    """Every (context, answer) split point whose answer is a real event."""
    return [(ids[:pos], ids[pos]) for ids in chains_ids
            for pos in range(1, len(ids)) if ids[pos] >= NUM_SPECIALS]


def recall_at_n(score_rows, answers, keep, N) -> float:
    """Recall@N in percent over the instances selected by ``keep``."""
    hits = sum(rank_position(score_rows[i], answers[i]) < N
               for i in range(len(answers)) if keep[i])
    return 100.0 * hits / max(int(np.count_nonzero(keep)), 1)
