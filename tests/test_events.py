"""Event types, the vocabulary table, and frequency ranking."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scriptcausal.corpus import build_vocab_from, parse_chains
from scriptcausal.errors import ConfigError, DataFormatError
from scriptcausal.events import (END_ID, NUM_SPECIALS, SPECIAL_KEYS, START_ID,
                                 UNK_ID, EventType, Vocabulary, frequency_rank,
                                 ranked_ids)


def test_event_key_combines_predicate_and_relation():
    ev = EventType("eat", "nsubj")
    assert ev.key == "eat:nsubj"
    assert EventType.from_key("eat:nsubj") == ev


def _vocab(keys, min_count=1):
    """The vocabulary of one chain holding the events ``keys``."""
    events = [dict(zip(("pred", "dep"), k.split(":"))) for k in keys]
    lines = [json.dumps({"chain_id": "c", "events": events})] if keys else []
    return build_vocab_from(parse_chains(lines), min_count)


def test_relation_distinguishes_events():
    v = _vocab(["eat:nsubj", "eat:dobj"])
    assert v.id_of("eat:nsubj") != v.id_of("eat:dobj")
    assert min(v.id_of("eat:nsubj"), v.id_of("eat:dobj")) >= NUM_SPECIALS


@pytest.mark.parametrize("pred,rel", [("", "nsubj"), ("pay", ""),
                                      ("pa y", "nsubj"), ("pay", "a:b")])
def test_invalid_fields_rejected(pred, rel):
    with pytest.raises(ConfigError):
        EventType(pred, rel)


def test_specials_occupy_fixed_ids():
    v = Vocabulary(SPECIAL_KEYS, [0] * NUM_SPECIALS)
    assert (UNK_ID, START_ID, END_ID) == (0, 1, 2)
    assert v.key_of(UNK_ID) == "<unk>"
    assert v.key_of(START_ID) == "<s>"
    assert v.key_of(END_ID) == "</s>"
    assert len(v) == NUM_SPECIALS


def test_finalize_threshold_filter():
    v = _vocab(["a:nsubj"] * 5 + ["b:nsubj"], min_count=2)
    a = v.id_of("a:nsubj")
    assert a >= NUM_SPECIALS
    assert v.id_of("b:nsubj") == UNK_ID
    # the rare event's count is absorbed by UNK
    assert v.counts[UNK_ID] == 1


def test_finalize_min_count_one_is_identity():
    v = _vocab(["a:x", "b:x"], min_count=1)
    assert [v.id_of("a:x"), v.id_of("b:x")] == [NUM_SPECIALS, NUM_SPECIALS + 1]


def test_empty_vocab_finalizes_to_specials_only():
    v = _vocab([])
    assert len(v) == NUM_SPECIALS
    assert v.num_events == 0


def test_unknown_key_maps_to_unk_after_finalize():
    assert _vocab([]).id_of("never:seen") == UNK_ID
    assert _vocab(["a:x"]).id_of("never:seen") == UNK_ID


def _table(keys, counts):
    return Vocabulary([*SPECIAL_KEYS, *keys], [0] * NUM_SPECIALS + counts)


def test_frequency_rank_orders_by_count_then_id():
    v = _table(["a:x", "b:x", "c:x"], [3, 7, 3])
    keys = [v.key_of(i) for i in frequency_rank(v)]
    assert keys == ["b:x", "a:x", "c:x"]


def test_frequency_rank_singleton():
    assert len(frequency_rank(_table(["only:x"], [1]))) == 1


def test_frequency_rank_all_equal_counts_ascending_id():
    v = _table(["c:x", "a:x", "b:x"], [1, 1, 1])
    assert frequency_rank(v) == [NUM_SPECIALS, NUM_SPECIALS + 1, NUM_SPECIALS + 2]


def test_tsv_round_trip():
    v = _vocab(["walk:nsubj"] * 4 + ["run:dobj"], min_count=2)
    text = v.to_tsv()
    back = Vocabulary.from_tsv(text)
    assert back.to_tsv() == text
    assert back.id_of("walk:nsubj") == v.id_of("walk:nsubj")
    assert back.min_count == 2


def test_tsv_bad_header_rejected():
    with pytest.raises(DataFormatError):
        Vocabulary.from_tsv("not-a-vocab\n")


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=50))
def test_interned_counts_match_occurrences(preds):
    v = _vocab([f"{p}:x" for p in preds])
    for p in set(preds):
        assert v.counts[v.id_of(f"{p}:x")] == preds.count(p)


@given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf]),
                min_size=NUM_SPECIALS, max_size=12),
       st.sets(st.integers(0, 14), max_size=5))
def test_ranked_ids_orders_by_score_then_id(scores, excluded):
    want = sorted((i for i in range(NUM_SPECIALS, len(scores))
                   if i not in excluded), key=lambda i: (-scores[i], i))
    assert ranked_ids(np.array(scores), excluded) == want
