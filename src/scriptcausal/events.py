"""Atomic event types, vocabulary interning, frequency statistics, and the
candidate ranking that every system shares.

An atomic event is a (predicate lemma, dependency relation) pair. Its
canonical string key is ``predicate + ":" + relation``. Factuality is a
chain-level attribute handled in :mod:`scriptcausal.corpus`; it is not part
of event identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, open_input

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
    def from_key(key: str, factuality: str = "pos") -> "EventType":
        parts = key.split(":")
        if len(parts) != 2:
            raise DataFormatError(f"malformed event key {key!r}")
        return EventType(parts[0], parts[1], factuality)


class Vocabulary:
    """Bijective event-key <-> dense-id map with occurrence counts.

    Lifecycle: a fresh Vocabulary is in the building phase (interning
    allowed). ``finalize`` produces a frozen vocabulary in which rare
    events have been remapped to UNK and ids re-densified. Frozen
    vocabularies are immutable and safe for concurrent reads.
    """

    def __init__(self):
        self._key_to_id = {k: i for i, k in enumerate(SPECIAL_KEYS)}
        self._id_to_key = list(SPECIAL_KEYS)
        self._counts = [0] * NUM_SPECIALS
        self._frozen = False
        self.min_count = 0

    def __len__(self):
        return len(self._id_to_key)

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def num_events(self) -> int:
        """Number of non-special event types |E|."""
        return len(self._id_to_key) - NUM_SPECIALS

    def event_ids(self) -> range:
        """Dense ids of the non-special events."""
        return range(NUM_SPECIALS, len(self._id_to_key))

    def intern(self, predicate: str, relation: str, count: int = 1) -> int:
        if self._frozen:
            raise ConfigError("cannot intern into a finalized vocabulary")
        _check_field("predicate", predicate)
        _check_field("relation", relation)
        key = predicate + ":" + relation
        idx = self._key_to_id.get(key)
        if idx is None:
            idx = len(self._id_to_key)
            self._key_to_id[key] = idx
            self._id_to_key.append(key)
            self._counts.append(0)
        self._counts[idx] += count
        return idx

    def id_of(self, key: str) -> int:
        """Resolve a key; unknown keys map to UNK once finalized."""
        idx = self._key_to_id.get(key)
        if idx is None:
            if self._frozen:
                return UNK_ID
            raise ConfigError(f"unknown event key {key!r} in building phase")
        return idx

    def key_of(self, idx: int) -> str:
        return self._id_to_key[idx]

    def count_of(self, idx: int) -> int:
        return self._counts[idx]

    def finalize(self, min_count: int = 1) -> "Vocabulary":
        """Remap events with count < min_count to UNK; re-densify ids."""
        if min_count < 1:
            raise ConfigError(f"min_count must be >= 1, got {min_count}")
        out = Vocabulary()
        absorbed = 0
        for idx in range(NUM_SPECIALS, len(self._id_to_key)):
            if self._counts[idx] >= min_count:
                key = self._id_to_key[idx]
                new_id = len(out._id_to_key)
                out._key_to_id[key] = new_id
                out._id_to_key.append(key)
                out._counts.append(self._counts[idx])
            else:
                absorbed += self._counts[idx]
        out._counts[UNK_ID] = absorbed
        out.min_count = min_count
        out._frozen = True
        return out

    # -- serialization ----------------------------------------------------

    def to_tsv(self) -> str:
        lines = [f"{_VOCAB_HEADER_TAG}\t{self.num_events}\t{self.min_count}"]
        for idx, key in enumerate(self._id_to_key):
            lines.append(f"{key}\t{idx}\t{self._counts[idx]}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_tsv())

    @staticmethod
    def from_tsv(text: str) -> "Vocabulary":
        lines = text.splitlines()
        if not lines or not lines[0].startswith(_VOCAB_HEADER_TAG):
            raise DataFormatError("missing vocabulary header")
        header = lines[0].split("\t")
        if len(header) != 3:
            raise DataFormatError("malformed vocabulary header")
        out = Vocabulary()
        num_events, out.min_count = int_fields(header[1:], "vocabulary header")
        out._id_to_key = []
        out._key_to_id = {}
        out._counts = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataFormatError(f"vocabulary line {lineno}: expected 3 fields")
            key = parts[0]
            idx, count = int_fields(parts[1:], f"vocabulary line {lineno}")
            if idx != len(out._id_to_key):
                raise DataFormatError(f"vocabulary line {lineno}: non-dense id {idx}")
            out._key_to_id[key] = idx
            out._id_to_key.append(key)
            out._counts.append(count)
        if tuple(out._id_to_key[:NUM_SPECIALS]) != SPECIAL_KEYS:
            raise DataFormatError("vocabulary must list special keys first")
        if num_events != out.num_events:
            raise DataFormatError("vocabulary header |E| does not match rows")
        out._frozen = True
        return out

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
    if not vocab.frozen:
        raise ConfigError("frequency_rank requires a finalized vocabulary")
    return ranked_ids(vocab._counts)
