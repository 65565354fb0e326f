"""Chain file parsing, splitting, and vocabulary construction."""

import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from scriptcausal import cli, corpus as corpus_module
from scriptcausal.corpus import (EventChain, build_vocab_from, chain_lines,
                                 load_chains, parse_chains, split_corpus,
                                 write_chains)
from scriptcausal.errors import ConfigError, DataFormatError
from scriptcausal.events import (END_ID, NUM_SPECIALS, SPECIAL_KEYS, START_ID,
                                 UNK_ID, EventType)
from scriptcausal.synth import build_fixture


def _keys(corpus):
    """Each chain's event keys, read from the arrays."""
    keys = [corpus.types[t].key for t in corpus.type_ids]
    off = corpus.offsets
    return [keys[a:b] for a, b in zip(off, off[1:])]


def _event_json(pred, fact, text, oot):
    obj = {"pred": pred, "dep": "nsubj", "fact": fact}
    if text:
        obj["text"] = text
    if oot:
        obj["oot"] = oot
    return obj


def _chain_json(chain_id, events):
    return json.dumps({
        "chain_id": chain_id,
        "events": [_event_json(*e) for e in events]})


def _write(tmp_path, lines, name="c.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


BASIC = _chain_json("c1", [("eat", "pos", ["he", "ate"], []),
                           ("ghost", "neg", [], []),
                           ("pay", "pos", ["paid"], [])])


def test_factual_filter(tmp_path):
    path = _write(tmp_path, [BASIC])
    corpus = load_chains(path, factual_only=True)
    preds = [corpus.types[t].predicate
             for t in corpus.type_ids[corpus.offsets[0]:corpus.offsets[1]]]
    assert preds == ["eat", "pay"]


def test_factual_filter_off_keeps_all(tmp_path):
    path = _write(tmp_path, [BASIC])
    corpus = load_chains(path)
    assert corpus.offsets[1] - corpus.offsets[0] == 3


def test_duplicate_chain_id_rejected(tmp_path):
    path = _write(tmp_path, [BASIC, BASIC])
    with pytest.raises(DataFormatError, match="c1"):
        load_chains(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = _write(tmp_path, [BASIC, "{broken"])
    with pytest.raises(DataFormatError, match="line 2"):
        load_chains(path)


def test_parse_rejects_missing_fields():
    with pytest.raises(DataFormatError):
        parse_chains([json.dumps({"chain_id": "x", "events": [{"pred": "a"}]})])


def test_unknown_factuality_label_names_its_line():
    line = json.dumps({"chain_id": "x", "events": [
        {"pred": "a", "dep": "nsubj", "fact": "maybe"}]})
    with pytest.raises(DataFormatError,
                       match="line 1: unknown factuality label 'maybe'"):
        parse_chains([line])


def test_round_trip_is_byte_identical(tmp_path):
    src = _write(tmp_path, [
        _chain_json("a", [("go", "pos", ["went"], [["sleep:nsubj", 4]])]),
        _chain_json("b", [("run", "neg", [], [])])])
    corpus = load_chains(src)
    out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
    write_chains(corpus, out1)
    write_chains(load_chains(out1), out2)
    assert out1.read_bytes() == out2.read_bytes()


def _toy_corpus(tmp_path, n=100):
    lines = [_chain_json(f"c{i}", [("a", "pos", [], []), ("b", "pos", [], [])])
             for i in range(n)]
    return load_chains(_write(tmp_path, lines))


def test_split_sizes(tmp_path):
    corpus = _toy_corpus(tmp_path)
    tr, dv, te = split_corpus(corpus, (0.9, 0.05, 0.05), seed=7)
    assert (len(tr.chain_ids), len(dv.chain_ids), len(te.chain_ids)) == (90, 5, 5)


def test_split_deterministic(tmp_path):
    corpus = _toy_corpus(tmp_path)
    a = split_corpus(corpus, (0.8, 0.1, 0.1), seed=3)
    b = split_corpus(corpus, (0.8, 0.1, 0.1), seed=3)
    for x, y in zip(a, b):
        assert x.chain_ids == y.chain_ids


def test_split_is_a_partition(tmp_path):
    corpus = _toy_corpus(tmp_path, n=37)
    parts = split_corpus(corpus, (0.6, 0.2, 0.2), seed=1)
    ids = [chain_id for p in parts for chain_id in p.chain_ids]
    assert sorted(ids) == sorted(corpus.chain_ids)


def test_split_bad_ratios_rejected(tmp_path):
    corpus = _toy_corpus(tmp_path, n=10)
    with pytest.raises(ConfigError):
        split_corpus(corpus, (0.6, 0.2, 0.1), seed=0)


def test_build_vocab_counts_and_threshold(tmp_path):
    lines = []
    for i in range(12):
        lines.append(_chain_json(f"c{i}", [("walk", "pos", [], [])]))
    lines.append(_chain_json("rare", [("sprint", "pos", [], [])]))
    corpus = load_chains(_write(tmp_path, lines))
    vocab = build_vocab_from(corpus, min_count=10)
    assert vocab.num_events == 1
    assert vocab.id_of("walk:nsubj") >= NUM_SPECIALS
    assert vocab.id_of("sprint:nsubj") == 0  # below threshold → UNK


def test_build_vocab_includes_oot_keys(tmp_path):
    lines = [_chain_json("c0", [("go", "pos", [], [["sleep:dobj", 4]])])]
    corpus = load_chains(_write(tmp_path, lines))
    vocab = build_vocab_from(corpus, min_count=1)
    assert vocab.id_of("sleep:dobj") >= NUM_SPECIALS


def test_chain_ids_maps_events(tmp_path):
    corpus = _toy_corpus(tmp_path, n=2)
    vocab = build_vocab_from(corpus, min_count=1)
    ids = corpus.event_ids(vocab)[corpus.offsets[0]:corpus.offsets[1]]
    assert ids.tolist() == [vocab.id_of("a:nsubj"), vocab.id_of("b:nsubj")]


def test_build_vocab_min_count_below_one_rejected(tmp_path):
    with pytest.raises(ConfigError):
        build_vocab_from(_toy_corpus(tmp_path, n=2), min_count=0)


_VOCAB_CHAINS = st.lists(st.lists(st.fixed_dictionaries(
    {"pred": st.sampled_from(["eat", "cry", "pay"]),
     "dep": st.sampled_from(["nsubj", "dobj"])},
    optional={"fact": st.sampled_from(["pos", "unc", "neg"]),
              "oot": st.lists(st.tuples(st.sampled_from(
                  ["sad:scenario", "eat:nsubj", "cry:dobj", "go:x"]),
                  st.integers(0, 4)).map(list), max_size=3)}),
    min_size=1, max_size=5), max_size=6)


@settings(max_examples=100, deadline=None)
@given(_VOCAB_CHAINS, st.integers(1, 3))
def test_build_vocab_equals_a_fold_over_events_and_oot_keys(chains, min_count):
    """Keys in order of first appearance, their counts, UNK's count (the
    dropped keys' total) and dense ids after the specials, against a plain
    fold over each event's key followed by its out-of-text keys."""
    counts = {}
    for events in chains:
        for ev in events:
            oot = [k for k, _ in ev.get("oot", [])]
            for key in [f"{ev['pred']}:{ev['dep']}", *oot]:
                counts[key] = counts.get(key, 0) + 1
    kept = [k for k, c in counts.items() if c >= min_count]
    vocab = build_vocab_from(parse_chains(_lines(chains)), min_count)
    assert [vocab.key_of(i) for i in range(len(vocab))] == [*SPECIAL_KEYS, *kept]
    assert [vocab.id_of(k) for k in kept] == \
        list(range(NUM_SPECIALS, NUM_SPECIALS + len(kept)))
    assert [vocab.counts[vocab.id_of(k)] for k in kept] == [counts[k] for k in kept]
    assert vocab.counts[UNK_ID] == sum(c for c in counts.values() if c < min_count)
    assert [vocab.counts[i] for i in (START_ID, END_ID)] == [0, 0]
    assert all(vocab.id_of(k) == UNK_ID for k in counts if k not in kept)
    assert vocab.min_count == min_count


@settings(max_examples=25)
@given(st.integers(5, 60), st.integers(0, 2**31 - 1))
def test_split_always_partitions(n, seed):
    corpus = parse_chains([_chain_json(f"c{i}", [("a", "pos", [], [])])
                           for i in range(n)])
    parts = split_corpus(corpus, (0.7, 0.15, 0.15), seed=seed)
    ids = sorted(chain_id for p in parts for chain_id in p.chain_ids)
    assert ids == sorted(corpus.chain_ids)


# ---------------------------------------------------------------------------
# the integer corpus at its JSONL edges

_KEYS = st.sampled_from(["sad:scenario", "errand:scenario", "order:nsubj"])
_EVENT = st.fixed_dictionaries(
    {"pred": st.sampled_from(["eat", "cry", "pay"]),
     "dep": st.sampled_from(["nsubj", "dobj"])},
    optional={"fact": st.sampled_from(["pos", "unc", "neg"]),
              "text": st.lists(st.text(min_size=1, max_size=4), min_size=1,
                               max_size=3),
              "oot": st.lists(st.tuples(_KEYS, st.integers(0, 4)).map(list),
                              max_size=2)})
_CHAINS = st.lists(st.lists(_EVENT, min_size=1, max_size=5), min_size=1,
                   max_size=4)


def _lines(chains):
    return [json.dumps({"chain_id": f"c{i}", "events": events})
            for i, events in enumerate(chains)]


def _canonical(chain_id, events):
    """The canonical line: json.dumps of the events in key order pred, dep,
    fact, text, oot, with fact defaulting to pos and an empty oot left out."""
    out = []
    for ev in events:
        obj = {"pred": ev["pred"], "dep": ev["dep"], "fact": ev.get("fact", "pos")}
        obj.update({k: ev[k] for k in ("text", "oot") if ev.get(k)})
        out.append(obj)
    return json.dumps({"chain_id": chain_id, "events": out}, separators=(",", ":"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chains=_CHAINS)
def test_write_load_write_is_byte_identical(tmp_path, chains):
    src = _write(tmp_path, _lines(chains))
    out1, out2 = tmp_path / "o1.jsonl", tmp_path / "o2.jsonl"
    corpus = load_chains(src)
    write_chains(corpus, out1)
    want = [_canonical(f"c{i}", events) for i, events in enumerate(chains)]
    assert out1.read_text(encoding="utf-8").splitlines() == want
    write_chains(load_chains(out1), out2)
    assert out1.read_bytes() == out2.read_bytes()
    # the arrays agree with the file
    assert _keys(corpus) == \
        [[f"{ev['pred']}:{ev['dep']}" for ev in events] for events in chains]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chains=_CHAINS, data=st.data())
def test_corrupted_line_loads_or_is_a_data_error(tmp_path, monkeypatch, chains,
                                                 data):
    """A truncated, byte-flipped or field-dropped last line either loads or
    raises DataFormatError naming the file and the line; ``vocab`` exits 0
    or 2."""
    lines = [line.encode() for line in _lines(chains)]
    bad = lines[-1]
    how = data.draw(st.sampled_from(["truncate", "flip", "drop"]))
    if how == "truncate":
        bad = bad[:data.draw(st.integers(0, len(bad) - 1))]
    elif how == "flip":
        at = data.draw(st.integers(0, len(bad) - 1))
        byte = bad[at] ^ data.draw(st.integers(1, 255))
        assume(byte != ord("\n"))
        bad = bad[:at] + bytes([byte]) + bad[at + 1:]
    else:
        obj = json.loads(bad)
        target = data.draw(st.sampled_from([obj, *obj["events"]]))
        del target[data.draw(st.sampled_from(sorted(target)))]
        bad = json.dumps(obj).encode()
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\n".join([*lines[:-1], bad]) + b"\n")
    try:
        load_chains(path)
    except DataFormatError as e:
        assert str(e).startswith(f"{path}: line {len(lines)}: ")
    monkeypatch.chdir(tmp_path)
    assert cli.main(["vocab", "--input", "c.jsonl", "--output", "v.tsv"]) in (0, 2)


# ---------------------------------------------------------------------------
# the canonical fast path: events read back from a memo of checked event texts

_FIELD = st.text(st.sampled_from('ab},{"\\\u00e9\u2603'), min_size=1, max_size=5)
_MEMO_EVENT = st.fixed_dictionaries(
    {"pred": _FIELD, "dep": _FIELD},
    optional={"fact": st.sampled_from(["pos", "unc", "neg"]),
              "text": st.lists(st.text(st.sampled_from('a },{"\\:\u00e9\u2603'),
                                       min_size=1, max_size=5),
                               min_size=1, max_size=3),
              "oot": st.lists(st.tuples(st.tuples(_FIELD, _FIELD).map(":".join),
                                        st.integers(0, 4)).map(list),
                              max_size=2)})
# chains drawn from a small pool of events, so that lines share event texts
_POOLED = st.lists(_MEMO_EVENT, min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=5),
                          min_size=1, max_size=5))


def _arrays(corpus):
    return {f.name: (v.tolist() if isinstance(v, np.ndarray) else v)
            for f in fields(corpus) for v in [getattr(corpus, f.name)]}


def _both_forms(chains):
    """Each chain twice under two ids, as canonical lines and as json.dumps
    writes them with its default separators."""
    ids = [f'{n}{i}"}},{{\\\u00e9' for n in ("c", "d") for i in range(len(chains))]
    chains = chains + chains
    return ([_canonical(c, events) for c, events in zip(ids, chains)],
            [json.dumps({"chain_id": c, "events": events})
             for c, events in zip(ids, chains)])


def _outcome(lines, factual_only=False):
    try:
        return _arrays(parse_chains(lines, factual_only))
    except DataFormatError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(chains=_POOLED, memo_size=st.sampled_from([1, 3, 4096]),
       factual_only=st.booleans())
def test_canonical_lines_load_as_the_general_path_loads_them(chains, memo_size,
                                                              factual_only):
    """Canonical lines, read from the memo where it holds their events, give
    the same arrays and tables as the same chains in json.dumps's default
    form, which is decoded line by line; also with a memo of 1 or 3 texts."""
    canonical, default = _both_forms(chains)
    with mock.patch.object(corpus_module, "_MEMO_SIZE", memo_size):
        got = _outcome(canonical, factual_only)
    assert got == _outcome(default, factual_only)
    assert not isinstance(got, str)


@settings(max_examples=150, deadline=None)
@given(chains=_CHAINS, data=st.data())
def test_corrupted_canonical_line_reads_as_the_general_path_does(chains, data):
    """A truncated, byte-flipped or field-dropped copy of a canonical line,
    after lines whose events the memo holds, loads to the same corpus, or
    raises the same error, as after the same chains in the default form."""
    canonical, default = _both_forms(chains)
    bad = _canonical("bad", data.draw(st.sampled_from(chains))).encode()
    how = data.draw(st.sampled_from(["truncate", "flip", "drop"]))
    if how == "truncate":
        bad = bad[:data.draw(st.integers(0, len(bad) - 1))]
    elif how == "flip":
        at = data.draw(st.integers(0, len(bad) - 1))
        byte = bad[at] ^ data.draw(st.integers(1, 255))
        bad = bad[:at] + bytes([byte]) + bad[at + 1:]
    else:
        obj = json.loads(bad)
        target = data.draw(st.sampled_from([obj, *obj["events"]]))
        del target[data.draw(st.sampled_from(sorted(target)))]
        bad = json.dumps(obj, separators=(",", ":")).encode()
    assert _outcome([*canonical, bad]) == _outcome([*default, bad])


_REMEMBERED = [{"pred": "eat", "dep": "nsubj", "fact": "neg", "text": ["a b"],
                "oot": [["x:y", 4]]}, {"pred": "pay", "dep": "dobj", "fact": "pos"}]


@pytest.mark.parametrize("edit", ["", " ", "}", "]", "{", ",", '"', "x"])
def test_one_character_edits_of_a_remembered_line_read_as_decoded(edit):
    """Every one-character replacement (or, with "", deletion) in a
    canonical line whose events the memo holds gives what the general path
    gives: the same corpus or the same error."""
    line = _canonical("c1", _REMEMBERED)
    for at in range(len(line)):
        bad = line[:at] + edit + line[at + 1:]
        assert _outcome([_canonical("c0", _REMEMBERED), bad]) == _outcome(
            [json.dumps({"chain_id": "c0", "events": _REMEMBERED}), bad]), bad


def test_memo_takes_only_pieces_that_are_whole_events():
    """A spaced boundary is no cut, so its line has fewer pieces than
    events; in the first file a cut inside a string makes up the count. The
    memo must take neither, or a repeat of the second file's line would
    read as one event, and the invalid second line of the first file as two
    copies of its first event."""
    lines = ['{"chain_id":"c0","events":[{"pred":"a},{b","dep":"d"} , '
             '{"pred":"c","dep":"d"}]}',
             '{"chain_id":"c1","events":[{"pred":"a},{"pred":"a}]}']
    with pytest.raises(DataFormatError, match="line 2: invalid JSON"):
        parse_chains(lines)
    line = '{"chain_id":"c0","events":[{"pred":"a","dep":"d"}, {"pred":"c","dep":"d"}]}'
    corpus = parse_chains([line, line.replace("c0", "c1")])
    assert np.diff(corpus.offsets).tolist() == [2, 2]


def test_memo_answers_repeated_events_up_to_its_bound(monkeypatch):
    """A canonical file decodes each event text the memo lacks once, on its
    own, and no line whole. A file of more distinct events than the memo
    holds loads as its default form does: its first _MEMO_SIZE pieces are
    decoded one by one, and once the memo is full every line is decoded
    whole, repeated or not."""
    lines = list(chain_lines(build_fixture("F-POPCORN").sample_chains(
        300, 1, annotate_scenario=True)))
    decoded = []

    def loads(line, **kw):
        decoded.append(line)
        return json_loads(line, **kw)

    json_loads = json.loads
    monkeypatch.setattr(corpus_module.json, "loads", loads)
    parse_chains(lines)
    assert len(set(decoded)) == len(decoded) == 16 < len(lines)   # 8 events x 2 scenarios
    assert all(d.startswith('{"pred":') for d in decoded)

    size = corpus_module._MEMO_SIZE
    chains = [[{"pred": f"p{j}", "dep": "nsubj", "fact": "pos"}
               for j in range(i, i + 4)] for i in range(0, size + 800, 4)]
    canonical, default = _both_forms(chains)
    decoded.clear()
    assert _outcome(canonical) == _outcome(default)
    # size pieces on size // 4 lines, then each later line whole; the
    # default form's lines are all decoded whole
    assert len(decoded) == size + len(canonical) - size // 4 + len(default)


def test_an_empty_oot_list_is_no_annotation():
    """An event with "oot": [], decoded or read from the memo, loads as the
    same event without the key does, and is written back without it."""
    bare = [f'{{"chain_id":"c{i}","events":[{{"pred":"eat","dep":"nsubj","fact":"pos"'
            for i in range(2)]
    corpus = parse_chains([line + ',"oot":[]}]}' for line in bare])
    assert _arrays(corpus) == _arrays(parse_chains([line + "}]}" for line in bare]))
    assert list(chain_lines(corpus)) == [line + "}]}\n" for line in bare]


def test_chains_view_holds_ids_and_event_types():
    """``.chains`` gives each chain's id and its event types in file order;
    the text and out-of-text annotations stay in the arrays."""
    corpus = parse_chains([
        _chain_json("c0", [("go", "pos", ["he"], [["sleep:dobj", 4]]),
                           ("eat", "neg", [], [])]),
        _chain_json("c1", [("go", "pos", [], [])])])
    go, eat = EventType("go", "nsubj"), EventType("eat", "nsubj", "neg")
    assert corpus.chains == [EventChain("c0", [go, eat]), EventChain("c1", [go])]
    assert corpus.take(np.array([1])).chains == [EventChain("c1", [go])]
