"""Event-chain corpora: JSON-lines reading/writing, factuality filtering,
seeded splits, and the event vocabulary built from the corpus arrays.

Chain file format (UTF-8, one JSON object per line):

    {"chain_id": "...",
     "events": [{"pred": "eat", "dep": "nsubj", "fact": "pos",
                 "text": ["he", "ate"], "oot": [["order:nsubj", 4]]}, ...]}

``fact`` (default ``pos``), ``text`` and ``oot`` are optional. An empty
``oot`` list is no annotation, the same as a missing one. The canonical
writer emits keys in the order shown with no extra whitespace and leaves
out empty lists, so load -> write -> load is byte-stable.

In memory a corpus is one integer corpus (``ChainCorpus``): event-type ids
with chain offsets, and CSR arrays of text tokens and out-of-text (key,
rating) pairs. Python objects appear only at the JSONL edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from json.decoder import scanstring

import numpy as np

from .errors import ConfigError, DataFormatError, open_input, open_output
from .events import SPECIAL_KEYS, EventType, Vocabulary


@dataclass
class EventChain:
    chain_id: str
    events: list[EventType]


def _offsets(lengths) -> np.ndarray:
    out = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=out[1:])
    return out


def _csr_take(offsets, rows):
    """Flat indices of the CSR rows ``rows``, and their offsets packed."""
    lengths = offsets[rows + 1] - offsets[rows]
    new = _offsets(lengths)
    return np.arange(new[-1]) + np.repeat(offsets[rows] - new[:-1], lengths), new


@dataclass
class ChainCorpus:
    """Chain c holds events ``offsets[c]:offsets[c + 1]``. Event j is
    ``types[type_ids[j]]``, with text ``tokens[text_ids[text_off[j]:text_off[j
    + 1]]]`` and out-of-text pairs ``(keys[oot_keys[p]], oot_ratings[p])``
    for p in ``oot_off[j]:oot_off[j + 1]``, each absent when empty. The
    tables list each value once."""

    chain_ids: list[str]
    offsets: np.ndarray
    type_ids: np.ndarray
    types: list[EventType]
    text_off: np.ndarray
    text_ids: np.ndarray
    tokens: list[str]
    oot_off: np.ndarray
    oot_keys: np.ndarray
    oot_ratings: np.ndarray
    keys: list[str]

    def __len__(self):
        return len(self.chain_ids)

    def event_ids(self, vocab: Vocabulary, oot=False) -> np.ndarray:
        """Vocabulary id of every event, or with ``oot`` of every
        out-of-text pair's key; flat, unknown -> UNK."""
        keys = self.keys if oot else [t.key for t in self.types]
        return np.array([vocab.id_of(k) for k in keys],
                        dtype=np.intp)[self.oot_keys if oot else self.type_ids]

    def take(self, rows) -> "ChainCorpus":
        """The chains ``rows`` (an index array), sharing the tables."""
        ev, offsets = _csr_take(self.offsets, rows)
        tx, text_off = _csr_take(self.text_off, ev)
        oo, oot_off = _csr_take(self.oot_off, ev)
        return ChainCorpus([self.chain_ids[i] for i in rows], offsets,
                           self.type_ids[ev], self.types, text_off,
                           self.text_ids[tx], self.tokens, oot_off,
                           self.oot_keys[oo], self.oot_ratings[oo], self.keys)

    @cached_property
    def chains(self) -> list[EventChain]:
        """Each chain's id and event types, built on first use. The pipeline
        itself reads only the arrays."""
        events = [self.types[t] for t in self.type_ids.tolist()]
        off = self.offsets.tolist()
        return [EventChain(cid, events[a:b])
                for cid, a, b in zip(self.chain_ids, off, off[1:])]


_MEMO_SIZE = 4096   # canonical event texts one parse remembers
_HEAD, _EVENTS = '{"chain_id":"', ',"events":[{'


def parse_chains(lines, factual_only: bool = False) -> ChainCorpus:
    """One pass of validation over chain lines (str or UTF-8 bytes, numbered
    from 1, blank ones skipped); a fault raises DataFormatError naming its
    line. ``factual_only`` drops events whose factuality != pos.

    A line in the canonical writer's form is cut at ``},{``, and each piece
    the memo lacks is decoded alone as ``{piece}``. A piece that decodes is
    one whole JSON object, so when every piece does, the line holds exactly
    those events and reads as it would decoded whole. The memo keeps each
    piece's checked event, up to _MEMO_SIZE pieces. Other lines, and every
    line once the memo is full, are decoded whole."""
    types, table, tokens, keys = {}, [], {}, {}   # value -> table id
    chain_ids, seen, lengths, text_ids, oot_pairs = [], set(), [], [], []
    rows = []    # 3 per kept event: type id, text length, oot length
    memo = {}    # event text -> its checked event, as event() returns it

    def event(ev, lineno):
        """The decoded event ``ev`` checked: its row, text ids and oot
        pairs, or three () when ``factual_only`` drops it."""
        try:
            t = types[ev["pred"], ev["dep"], ev.get("fact", "pos")]
        except (KeyError, TypeError, AttributeError):
            # a (pred, dep, fact) triple not seen before: validate it
            if not isinstance(ev, dict) or "pred" not in ev or "dep" not in ev:
                raise DataFormatError(f"line {lineno}: event missing pred/dep")
            triple = (ev["pred"], ev["dep"], ev.get("fact", "pos"))
            if not all(isinstance(v, str) for v in triple):
                raise DataFormatError(
                    f"line {lineno}: pred, dep and fact must be strings")
            try:
                table.append(EventType(*triple))
            except ConfigError as e:
                raise DataFormatError(f"line {lineno}: {e}") from e
            t = types[triple] = len(table) - 1
        text = ev.get("text")
        if text is not None and not (type(text) is list and text and all(
                [type(x) is str for x in text])):
            raise DataFormatError(
                f"line {lineno}: text must be a non-empty list of strings")
        oot = ev.get("oot")
        if oot is not None:
            if not (type(oot) is list and all(
                    [type(p) is list and len(p) == 2 and type(p[0]) is str
                     and type(p[1]) is int for p in oot])):
                raise DataFormatError(f"line {lineno}: oot must be a list "
                                      "of [key, int rating] pairs")
            for key, rating in oot:
                if not 0 <= rating <= 4:
                    raise DataFormatError(
                        f"line {lineno}: out-of-text rating {rating} for "
                        f"{key!r} outside [0, 4]")
                if key not in keys:
                    try:
                        EventType.from_key(key)
                    except (ConfigError, DataFormatError) as e:
                        raise DataFormatError(f"line {lineno}: {e}") from e
                    keys[key] = len(keys)
        if factual_only and table[t].factuality != "pos":
            return (), (), ()
        return ((t, len(text) if text else 0, len(oot) if oot else 0),
                [tokens.setdefault(x, len(tokens)) for x in text] if text else (),
                [v for key, r in oot for v in (keys[key], r)] if oot else ())

    for lineno, line in enumerate(lines, start=1):
        try:
            line = (line.decode("utf-8") if isinstance(line, bytes)
                    else line).strip()
        except UnicodeDecodeError as e:
            raise DataFormatError(f"line {lineno}: not UTF-8 ({e.reason})") from e
        if not line:
            continue
        checked = new = None   # the line's events, as event() returns them
        if (len(memo) < _MEMO_SIZE and line.startswith(_HEAD)
                and line.endswith("}]}")):
            try:
                chain_id, end = scanstring(line, len(_HEAD))
                if line.startswith(_EVENTS, end):
                    pieces = line[end + len(_EVENTS):-3].split("},{")   # [{...}]}
                    checked = [memo.get(p) for p in pieces]
                    if None in checked:   # each piece the memo lacks, decoded once
                        new = {p: json.loads("{" + p + "}")
                               for p in dict.fromkeys(pieces) if p not in memo}
            except ValueError:   # decoding the line whole names the fault
                checked = None
        if new:
            for p, ev in new.items():   # in order, so a fault is the line's first
                new[p] = event(ev, lineno)
                if len(memo) < _MEMO_SIZE:
                    memo[p] = new[p]
            checked = [c or new[p] for c, p in zip(checked, pieces)]
        elif checked is None:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(
                    f"line {lineno}: invalid JSON ({e.msg})") from e
            if (not isinstance(obj, dict) or "chain_id" not in obj
                    or "events" not in obj):
                raise DataFormatError(f"line {lineno}: missing chain_id or events")
            events = obj["events"]
            if not isinstance(events, list):
                raise DataFormatError(f"line {lineno}: events must be a list")
            if not events:
                raise DataFormatError(f"line {lineno}: chain has no events")
            checked = [event(ev, lineno) for ev in events]
            chain_id = obj["chain_id"]
            if type(chain_id) not in (str, int):
                raise DataFormatError(
                    f"line {lineno}: chain_id must be a string or an integer")
            chain_id = str(chain_id)
        if chain_id in seen:
            raise DataFormatError(f"line {lineno}: duplicate chain_id {chain_id!r}")
        seen.add(chain_id)
        start = len(rows)
        for row, ids, pairs in checked:
            rows += row
            text_ids += ids
            oot_pairs += pairs
        if len(rows) > start:
            chain_ids.append(chain_id)
            lengths.append((len(rows) - start) // 3)
    type_ids, text_len, oot_len = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    oot_keys, oot_ratings = np.array(oot_pairs, dtype=np.intp).reshape(-1, 2).T
    return ChainCorpus(chain_ids, _offsets(lengths), type_ids, table,
                       _offsets(text_len), np.array(text_ids, dtype=np.intp),
                       list(tokens), _offsets(oot_len), oot_keys, oot_ratings,
                       list(keys))


def load_chains(path, factual_only: bool = False) -> ChainCorpus:
    """Load a chain file; optionally drop events whose factuality != pos."""
    with open_input(path, "rb") as f:
        return parse_chains(f, factual_only)


def chain_lines(corpus: ChainCorpus):
    """Each chain's canonical JSON line, as json.dumps writes it compactly."""
    dumps = json.dumps
    heads = [f'{{"pred":{dumps(t.predicate)},"dep":{dumps(t.relation)},'
             f'"fact":{dumps(t.factuality)}' for t in corpus.types]
    events = [heads[t] for t in corpus.type_ids.tolist()]
    tokens, keys = [dumps(t) for t in corpus.tokens], [dumps(k) for k in corpus.keys]
    text = [tokens[i] for i in corpus.text_ids.tolist()]
    oot = [f"[{keys[k]},{r}]" for k, r in zip(corpus.oot_keys.tolist(),
                                              corpus.oot_ratings.tolist())]
    for prefix, items, offsets in ((',"text":[', text, corpus.text_off),
                                   (',"oot":[', oot, corpus.oot_off)):
        span = offsets.tolist()
        for j in np.flatnonzero(np.diff(offsets)).tolist():   # non-empty spans
            events[j] += prefix + ",".join(items[span[j]:span[j + 1]]) + "]"
    off = corpus.offsets.tolist()
    for chain_id, a, b in zip(corpus.chain_ids, off, off[1:]):
        yield ('{"chain_id":' + dumps(chain_id) + ',"events":['
               + "},".join(events[a:b]) + "}]}\n")


def write_chains(corpus: ChainCorpus, path):
    """Canonical writer: fixed key order, compact separators, one chain/line."""
    with open_output(path) as f:
        f.writelines(chain_lines(corpus))


def split_corpus(corpus: ChainCorpus, ratios, seed: int):
    """Seeded shuffle + exact partition of chains into len(ratios) splits."""
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise ConfigError("split ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(corpus)
    if n < len(ratios):
        raise ConfigError(f"cannot split {n} chains into {len(ratios)} parts")
    order = np.random.default_rng(seed).permutation(n)
    bounds = [int(round(sum(ratios[: i + 1]) * n)) for i in range(len(ratios))]
    bounds[-1] = n
    return tuple(corpus.take(np.sort(order[a:b]))
                 for a, b in zip([0, *bounds], bounds))


def _first_seen(ids, size):
    """The table ids in ``ids`` in order of first appearance, and their
    counts."""
    seen, first = np.unique(ids, return_index=True)
    order = seen[np.argsort(first)]
    return order.tolist(), np.bincount(ids, minlength=size)[order].tolist()


def build_vocab_from(corpus: ChainCorpus, min_count: int = 10) -> Vocabulary:
    """Every chain event and out-of-text candidate key seen at least
    ``min_count`` times, in order of first appearance; UNK counts the
    occurrences of the others."""
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    # each event's type followed by its out-of-text keys, as in the file
    n = len(corpus.type_ids)
    owner = np.repeat(np.arange(n), np.diff(corpus.oot_off))
    stream = np.empty(n + len(owner), dtype=np.intp)
    stream[np.arange(n) + corpus.oot_off[:-1]] = corpus.type_ids
    stream[owner + np.arange(1, len(owner) + 1)] = corpus.oot_keys + len(corpus.types)
    # types that differ only in factuality, and out-of-text keys, share a key
    index = {}
    table = np.array([index.setdefault(k, len(index)) for k in
                      [t.key for t in corpus.types] + corpus.keys], dtype=np.intp)
    order, counts = _first_seen(table[stream], len(index))
    keys = list(index)
    kept = [(keys[k], c) for k, c in zip(order, counts) if c >= min_count]
    return Vocabulary([*SPECIAL_KEYS, *(k for k, _ in kept)],
                      [sum(counts) - sum(c for _, c in kept), 0, 0,
                       *(c for _, c in kept)], min_count)


def build_token_vocab(corpus: ChainCorpus) -> list[str]:
    """``<unk>``, then every other text token in order of first appearance:
    the text channel's token ids."""
    return ["<unk>"] + [corpus.tokens[t] for t in _first_seen(
        corpus.text_ids, len(corpus.tokens))[0] if corpus.tokens[t] != "<unk>"]
