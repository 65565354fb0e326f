"""Event types, vocabulary interning, and frequency ranking."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scriptcausal.errors import ConfigError, DataFormatError
from scriptcausal.events import (END_ID, NUM_SPECIALS, START_ID, UNK_ID,
                                 EventType, Vocabulary, frequency_rank,
                                 ranked_ids)


def test_event_key_combines_predicate_and_relation():
    ev = EventType("eat", "nsubj")
    assert ev.key == "eat:nsubj"
    assert EventType.from_key("eat:nsubj") == ev


def test_intern_is_idempotent():
    v = Vocabulary()
    a = v.intern("eat", "nsubj")
    b = v.intern("eat", "nsubj")
    assert a == b
    assert v.count_of(a) == 2


def test_relation_distinguishes_events():
    v = Vocabulary()
    assert v.intern("eat", "nsubj") != v.intern("eat", "dobj")


@pytest.mark.parametrize("pred,rel", [("", "nsubj"), ("pay", ""),
                                      ("pa y", "nsubj"), ("pay", "a:b")])
def test_invalid_fields_rejected(pred, rel):
    with pytest.raises(ConfigError):
        EventType(pred, rel)


def test_specials_occupy_fixed_ids():
    v = Vocabulary()
    assert (UNK_ID, START_ID, END_ID) == (0, 1, 2)
    assert v.key_of(UNK_ID) == "<unk>"
    assert v.key_of(START_ID) == "<s>"
    assert v.key_of(END_ID) == "</s>"
    assert len(v) == NUM_SPECIALS


def test_finalize_threshold_filter():
    v = Vocabulary()
    for _ in range(5):
        v.intern("a", "nsubj")
    v.intern("b", "nsubj")
    frozen = v.finalize(min_count=2)
    a = frozen.id_of("a:nsubj")
    assert a >= NUM_SPECIALS
    assert frozen.id_of("b:nsubj") == UNK_ID
    # the rare event's count is absorbed by UNK
    assert frozen.count_of(UNK_ID) == 1


def test_finalize_min_count_one_is_identity():
    v = Vocabulary()
    ids = [v.intern("a", "x"), v.intern("b", "x")]
    frozen = v.finalize(min_count=1)
    assert [frozen.id_of("a:x"), frozen.id_of("b:x")] == ids


def test_empty_vocab_finalizes_to_specials_only():
    frozen = Vocabulary().finalize(min_count=1)
    assert len(frozen) == NUM_SPECIALS
    assert frozen.num_events == 0


def test_unknown_key_maps_to_unk_after_finalize():
    frozen = Vocabulary().finalize(min_count=1)
    assert frozen.id_of("never:seen") == UNK_ID


def test_frequency_rank_orders_by_count_then_id():
    v = Vocabulary()
    for pred, n in [("a", 3), ("b", 7), ("c", 3)]:
        for _ in range(n):
            v.intern(pred, "x")
    frozen = v.finalize(1)
    ranked = frequency_rank(frozen)
    keys = [frozen.key_of(i) for i in ranked]
    assert keys == ["b:x", "a:x", "c:x"]


def test_frequency_rank_singleton():
    v = Vocabulary()
    v.intern("only", "x")
    assert len(frequency_rank(v.finalize(1))) == 1


def test_frequency_rank_all_equal_counts_ascending_id():
    v = Vocabulary()
    ids = [v.intern(p, "x") for p in ["c", "a", "b"]]
    frozen = v.finalize(1)
    assert frequency_rank(frozen) == sorted(ids)


def test_tsv_round_trip():
    v = Vocabulary()
    for _ in range(4):
        v.intern("walk", "nsubj")
    v.intern("run", "dobj")
    frozen = v.finalize(1)
    text = frozen.to_tsv()
    back = Vocabulary.from_tsv(text)
    assert back.to_tsv() == text
    assert back.id_of("walk:nsubj") == frozen.id_of("walk:nsubj")


def test_tsv_bad_header_rejected():
    with pytest.raises(DataFormatError):
        Vocabulary.from_tsv("not-a-vocab\n")


@given(st.lists(st.sampled_from("abcdef"), min_size=0, max_size=50))
def test_interned_counts_match_occurrences(preds):
    v = Vocabulary()
    for p in preds:
        v.intern(p, "x")
    frozen = v.finalize(1)
    for p in set(preds):
        assert frozen.count_of(frozen.id_of(f"{p}:x")) == preds.count(p)


@given(st.lists(st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 2.0, np.inf]),
                min_size=NUM_SPECIALS, max_size=12),
       st.sets(st.integers(0, 14), max_size=5))
def test_ranked_ids_orders_by_score_then_id(scores, excluded):
    want = sorted((i for i in range(NUM_SPECIALS, len(scores))
                   if i not in excluded), key=lambda i: (-scores[i], i))
    assert ranked_ids(np.array(scores), excluded) == want
