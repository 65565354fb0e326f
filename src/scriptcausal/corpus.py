"""Event-chain corpora: JSON-lines reading/writing, factuality filtering,
seeded splits, and vocabulary construction.

Chain file format (UTF-8, one JSON object per line):

    {"chain_id": "...",
     "events": [{"pred": "eat", "dep": "nsubj", "fact": "pos",
                 "text": ["he", "ate"], "oot": [["order:nsubj", 4]]}, ...]}

``text`` and ``oot`` are optional. The canonical writer emits keys in the
order shown with no extra whitespace, so load -> write -> load is
byte-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError
from .events import FACTUALITY_LABELS, EventType, Vocabulary


@dataclass
class ChainEvent:
    event: EventType
    text_tokens: list[str] | None = None
    oot_candidates: list[tuple[str, int]] | None = None

    def __post_init__(self):
        if self.text_tokens is not None and not self.text_tokens:
            raise DataFormatError("text_tokens, when present, must be non-empty")
        if self.oot_candidates:
            for key, rating in self.oot_candidates:
                if not 0 <= rating <= 4:
                    raise DataFormatError(
                        f"out-of-text rating {rating} for {key!r} outside [0, 4]"
                    )


@dataclass
class EventChain:
    chain_id: str
    events: list[ChainEvent]

    def __post_init__(self):
        if not self.events:
            raise DataFormatError(f"chain {self.chain_id!r} has no events")

    def __len__(self):
        return len(self.events)


@dataclass
class ChainCorpus:
    chains: list[EventChain]
    provenance: str = ""

    def __post_init__(self):
        seen = set()
        for chain in self.chains:
            if chain.chain_id in seen:
                raise DataFormatError(f"duplicate chain_id {chain.chain_id!r}")
            seen.add(chain.chain_id)

    def __len__(self):
        return len(self.chains)


def _parse_event(obj, lineno, types):
    """One event object; ``types`` caches the validated EventType of each
    (pred, dep, fact) triple already seen in the file."""
    if not isinstance(obj, dict) or "pred" not in obj or "dep" not in obj:
        raise DataFormatError(f"line {lineno}: event missing pred/dep")
    triple = (obj["pred"], obj["dep"], obj.get("fact", "pos"))
    if not all(isinstance(v, str) for v in triple):
        raise DataFormatError(f"line {lineno}: pred, dep and fact must be strings")
    ev = types.get(triple)
    if ev is None:
        if triple[2] not in FACTUALITY_LABELS:
            raise DataFormatError(
                f"line {lineno}: unknown factuality label {triple[2]!r}")
        try:
            ev = types[triple] = EventType(*triple)
        except ConfigError as e:
            raise DataFormatError(f"line {lineno}: {e}") from e
    text = obj.get("text")
    if text is not None and not (isinstance(text, list) and text
                                 and all(isinstance(t, str) for t in text)):
        raise DataFormatError(
            f"line {lineno}: text must be a non-empty list of strings")
    oot = obj.get("oot")
    if oot is not None:
        if not (isinstance(oot, list) and all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                and isinstance(p[1], int) and not isinstance(p[1], bool)
                for p in oot)):
            raise DataFormatError(
                f"line {lineno}: oot must be a list of [key, int rating] pairs")
        oot = [(key, rating) for key, rating in oot]
    try:
        return ChainEvent(ev, text, oot)
    except DataFormatError as e:
        raise DataFormatError(f"line {lineno}: {e}") from e


def parse_chain_line(line: str, lineno: int = 0, types=None) -> EventChain:
    """One chain line. ``types`` (a dict) may be shared across the lines of
    a file, so each distinct event type is built and validated once."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataFormatError(f"line {lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or "chain_id" not in obj or "events" not in obj:
        raise DataFormatError(f"line {lineno}: missing chain_id or events")
    if not isinstance(obj["events"], list):
        raise DataFormatError(f"line {lineno}: events must be a list")
    types = {} if types is None else types
    events = [_parse_event(e, lineno, types) for e in obj["events"]]
    if not events:
        raise DataFormatError(f"line {lineno}: chain has no events")
    return EventChain(str(obj["chain_id"]), events)


def load_chains(path, factual_only: bool = False) -> ChainCorpus:
    """Load a chain file; optionally drop events whose factuality != pos."""
    chains = []
    seen = set()
    types = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            chain = parse_chain_line(line, lineno, types)
            if chain.chain_id in seen:
                raise DataFormatError(
                    f"line {lineno}: duplicate chain_id {chain.chain_id!r}"
                )
            seen.add(chain.chain_id)
            if factual_only:
                kept = [e for e in chain.events if e.event.factuality == "pos"]
                if not kept:
                    continue
                chain = EventChain(chain.chain_id, kept)
            chains.append(chain)
    return ChainCorpus(chains, provenance=str(path))


def chain_to_json(chain: EventChain) -> str:
    events = []
    for ce in chain.events:
        obj = {"pred": ce.event.predicate, "dep": ce.event.relation,
               "fact": ce.event.factuality}
        if ce.text_tokens is not None:
            obj["text"] = ce.text_tokens
        if ce.oot_candidates is not None:
            obj["oot"] = [[k, r] for k, r in ce.oot_candidates]
        events.append(obj)
    return json.dumps({"chain_id": chain.chain_id, "events": events},
                      separators=(",", ":"))


def write_chains(corpus: ChainCorpus, path):
    """Canonical writer: fixed key order, compact separators, one chain/line."""
    with open(path, "w", encoding="utf-8") as f:
        for chain in corpus.chains:
            f.write(chain_to_json(chain))
            f.write("\n")


def split_corpus(corpus: ChainCorpus, ratios, seed: int):
    """Seeded shuffle + exact partition of chains into len(ratios) splits."""
    ratios = [float(r) for r in ratios]
    if any(r <= 0 for r in ratios):
        raise ConfigError("split ratios must be positive")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {sum(ratios)}")
    n = len(corpus.chains)
    if n < len(ratios):
        raise ConfigError(f"cannot split {n} chains into {len(ratios)} parts")
    order = np.random.default_rng(seed).permutation(n)
    bounds = [int(round(sum(ratios[: i + 1]) * n)) for i in range(len(ratios))]
    bounds[-1] = n
    parts = []
    start = 0
    for b in bounds:
        idx = sorted(order[start:b])
        parts.append(ChainCorpus([corpus.chains[i] for i in idx],
                                 provenance=corpus.provenance))
        start = b
    return tuple(parts)


def build_vocab_from(corpus: ChainCorpus, min_count: int = 10,
                     include_oot: bool = True) -> Vocabulary:
    """Intern every chain event (and, by default, out-of-text candidate keys)
    then finalize at min_count."""
    vocab = Vocabulary()
    for chain in corpus.chains:
        for ce in chain.events:
            vocab.intern(ce.event.predicate, ce.event.relation)
            if include_oot and ce.oot_candidates:
                for key, _rating in ce.oot_candidates:
                    ev = EventType.from_key(key)
                    vocab.intern(ev.predicate, ev.relation)
    return vocab.finalize(min_count)


@dataclass
class TokenVocab:
    """Token-string vocabulary for the text channel; id 0 is UNK."""

    tokens: list[str] = field(default_factory=lambda: ["<unk>"])

    def __post_init__(self):
        self._index = {t: i for i, t in enumerate(self.tokens)}

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, 0)

    def encode(self, tokens) -> list[int]:
        return [self.id_of(t) for t in tokens]


def build_token_vocab(corpus: ChainCorpus, min_count: int = 1) -> TokenVocab:
    counts = {}
    for chain in corpus.chains:
        for ce in chain.events:
            for t in ce.text_tokens or []:
                counts[t] = counts.get(t, 0) + 1
    kept = ["<unk>"] + [t for t, c in counts.items() if c >= min_count]
    return TokenVocab(kept)


def chain_ids(chain: EventChain, vocab: Vocabulary) -> list[int]:
    """Map a chain's events to vocabulary ids (unknown -> UNK)."""
    return [vocab.id_of(ce.event.key) for ce in chain.events]
