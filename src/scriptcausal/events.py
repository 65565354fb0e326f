"""Atomic event types, the event vocabulary, frequency statistics, and the
candidate ranking that every system shares.

An atomic event is a (predicate lemma, dependency relation) pair. Its
canonical string key is ``predicate + ":" + relation``. Factuality is a
chain-level attribute handled in :mod:`scriptcausal.corpus`; it is not part
of event identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, open_input, open_output

UNK_ID = 0
START_ID = 1
END_ID = 2
NUM_SPECIALS = 3

UNK_KEY = "<unk>"
START_KEY = "<s>"
END_KEY = "</s>"
SPECIAL_KEYS = (UNK_KEY, START_KEY, END_KEY)

FACTUALITY_LABELS = ("pos", "unc", "neg")

_VOCAB_HEADER_TAG = "#scriptcausal-vocab v1"


def _check_field(name, value):
    if not value:
        raise ConfigError(f"event {name} must be non-empty")
    if ":" in value:
        raise ConfigError(f"event {name} {value!r} contains reserved ':'")
    if any(c.isspace() for c in value):
        raise ConfigError(f"event {name} {value!r} contains whitespace")


def int_fields(fields, where: str) -> list[int]:
    """The integer values of a TSV line's numeric fields; ``where`` names
    the file and line for the error."""
    try:
        return [int(x) for x in fields]
    except ValueError as e:
        raise DataFormatError(f"{where}: expected integers, got {fields}") from e


@dataclass(frozen=True)
class EventType:
    """An atomic event: predicate lemma + protagonist dependency relation."""

    predicate: str
    relation: str
    factuality: str = "pos"

    def __post_init__(self):
        _check_field("predicate", self.predicate)
        _check_field("relation", self.relation)
        if self.factuality not in FACTUALITY_LABELS:
            raise ConfigError(
                f"unknown factuality label {self.factuality!r}; "
                f"expected one of {FACTUALITY_LABELS}"
            )

    @property
    def key(self) -> str:
        return self.predicate + ":" + self.relation

    @staticmethod
    def from_key(key: str) -> "EventType":
        parts = key.split(":")
        if len(parts) != 2:
            raise DataFormatError(f"malformed event key {key!r}")
        return EventType(parts[0], parts[1])


class Vocabulary:
    """Bijective event-key <-> dense-id map with occurrence counts: key
    ``keys[i]`` has id i and count ``counts[i]``, the special keys first.
    Keys the table does not hold map to UNK. A vocabulary is never changed
    after it is built, so it is safe for concurrent reads."""

    def __init__(self, keys, counts, min_count: int = 1):
        self._id_to_key = list(keys)
        self._key_to_id = {k: i for i, k in enumerate(self._id_to_key)}
        self.counts = list(counts)
        self.min_count = min_count

    def __len__(self):
        return len(self._id_to_key)

    @property
    def num_events(self) -> int:
        """Number of non-special event types |E|."""
        return len(self._id_to_key) - NUM_SPECIALS

    def event_ids(self) -> range:
        """Dense ids of the non-special events."""
        return range(NUM_SPECIALS, len(self._id_to_key))

    def id_of(self, key: str) -> int:
        """The id of ``key``; UNK for a key the table does not hold."""
        return self._key_to_id.get(key, UNK_ID)

    def key_of(self, idx: int) -> str:
        return self._id_to_key[idx]

    # -- serialization ----------------------------------------------------

    def to_tsv(self) -> str:
        lines = [f"{_VOCAB_HEADER_TAG}\t{self.num_events}\t{self.min_count}"]
        for idx, key in enumerate(self._id_to_key):
            lines.append(f"{key}\t{idx}\t{self.counts[idx]}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open_output(path) as f:
            f.write(self.to_tsv())

    @staticmethod
    def from_tsv(text: str) -> "Vocabulary":
        lines = text.splitlines()
        header = lines[0].split("\t") if lines else []
        if not header or header[0] != _VOCAB_HEADER_TAG:
            raise DataFormatError("missing vocabulary header")
        if len(header) != 3:
            raise DataFormatError("malformed vocabulary header")
        num_events, min_count = int_fields(header[1:], "vocabulary header")
        keys, counts, seen = [], [], set()
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"vocabulary line {lineno}: expected 3 fields")
            idx, count = int_fields(parts[1:], f"vocabulary line {lineno}")
            if idx != len(keys):
                raise DataFormatError(f"vocabulary line {lineno}: non-dense id {idx}")
            if count < 0:
                raise DataFormatError(f"vocabulary line {lineno}: "
                                      f"negative count {count}")
            if parts[0] in seen:
                raise DataFormatError(f"vocabulary line {lineno}: "
                                      f"repeated key {parts[0]!r}")
            seen.add(parts[0])
            keys.append(parts[0])
            counts.append(count)
        if tuple(keys[:NUM_SPECIALS]) != SPECIAL_KEYS:
            raise DataFormatError("vocabulary must list special keys first")
        if num_events != len(keys) - NUM_SPECIALS:
            raise DataFormatError("vocabulary header |E| does not match rows")
        return Vocabulary(keys, counts, min_count)

    @staticmethod
    def load(path) -> "Vocabulary":
        with open_input(path) as f:
            return Vocabulary.from_tsv(f.read())


def ranked_ids(scores, excluded=()) -> list[int]:
    """Ids >= NUM_SPECIALS of a score vector, highest score first and ties
    by ascending id, leaving out ``excluded``. Scores must not be NaN."""
    order = np.argsort(-np.asarray(scores, dtype=float)[NUM_SPECIALS:],
                       kind="stable") + NUM_SPECIALS
    excluded = np.fromiter(excluded, dtype=np.intp)
    if excluded.size:
        order = order[~np.isin(order, excluded)]
    return order.tolist()


def frequency_rank(vocab: Vocabulary) -> list[int]:
    """Non-special ids sorted by descending count, ties by ascending id."""
    return ranked_ids(vocab.counts)
