"""Cloze harness, pairwise sheets, score summaries, and diversity stats."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scriptcausal import causal, evaluation
from scriptcausal import kernel as K
from scriptcausal.corpus import build_vocab_from, parse_chains
from scriptcausal.errors import ConfigError, DataFormatError
from scriptcausal.events import NUM_SPECIALS, Vocabulary, ranked_ids


def _corpus(chains_preds):
    corpus = parse_chains(
        [json.dumps({"chain_id": f"c{i}", "events": [{"pred": p, "dep": "x"}
                                                     for p in preds]})
         for i, preds in enumerate(chains_preds)])
    return corpus, build_vocab_from(corpus, min_count=1)


def _mk(*pairs):
    """Cloze instances from (context, answer) pairs."""
    contexts, answers = zip(*pairs) if pairs else ((), ())
    empty = K.Windows.of([()] * len(contexts))
    return causal.PackedInstances(K.Windows.of(contexts), empty, empty,
                                  np.array(answers, dtype=np.intp))


def _contexts(windows):
    """The contexts of a ``K.Windows`` as id lists."""
    return [windows.values[s:s + n].tolist()
            for s, n in zip(windows.starts, windows.lengths)]


def test_two_event_chain_single_instance():
    corpus, vocab = _corpus([["a", "b"]])
    instances = evaluation.make_cloze_set(corpus, vocab, 1, seed=0)
    assert _contexts(instances.seq)[0] == [vocab.id_of("a:x")]
    assert instances.targets[0] == vocab.id_of("b:x")


def test_cloze_set_exact_count_and_determinism():
    corpus, vocab = _corpus([list("abcde")] * 30)
    s1 = evaluation.make_cloze_set(corpus, vocab, 40, seed=6)
    s2 = evaluation.make_cloze_set(corpus, vocab, 40, seed=6)
    assert len(s1) == 40
    assert _contexts(s1.seq) == _contexts(s2.seq)
    np.testing.assert_array_equal(s1.targets, s2.targets)


def test_cloze_set_is_a_sample_of_the_training_instances():
    """Each context is every event before its answer's position: the
    instances of a history window as long as the longest chain."""
    corpus, vocab = _corpus([list("abcdefg"), list("ab"), list("cbadc")] * 6)
    full = causal.extract_training_instances(corpus, vocab, history_window=7)
    cloze = evaluation.make_cloze_set(corpus, vocab, len(full), seed=1)
    assert _contexts(cloze.seq) == _contexts(full.seq)
    np.testing.assert_array_equal(cloze.targets, full.targets)
    ids = corpus.event_ids(vocab).tolist()
    starts = np.repeat(corpus.offsets[:-1], np.diff(corpus.offsets))
    want = [ids[s:i] for i, s in enumerate(starts.tolist()) if i > s]
    assert _contexts(cloze.seq) == want


def test_cloze_set_packs_only_its_sampled_rows():
    """One long chain among many short ones: the cloze's memory follows the
    corpus's ids and its sampled contexts, not every position padded to the
    longest chain, and its rows are the same sample of the full instance
    windows, over the same ids."""
    corpus, vocab = _corpus([[f"p{i % 40}" for i in range(1000)]]
                            + [list("abc")] * 2000)
    full = causal.extract_training_instances(corpus, vocab, history_window=1000)
    pool = np.flatnonzero(full.targets >= NUM_SPECIALS)
    want = full.take(pool[sorted(np.random.default_rng(3).choice(
        len(pool), size=20, replace=False))])
    del full   # padded to the longest chain, its ids alone would be 40 MB
    tracemalloc.start()
    try:
        cloze = evaluation.make_cloze_set(corpus, vocab, 20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _contexts(cloze.seq) == _contexts(want.seq)
    np.testing.assert_array_equal(cloze.targets, want.targets)
    assert np.array_equal(cloze.seq.values, want.seq.values)
    assert peak < 4 << 20   # packing every position: about 45 MB


def test_cloze_insufficient_corpus_rejected():
    corpus, vocab = _corpus([["a", "b"]])
    with pytest.raises(ConfigError):
        evaluation.make_cloze_set(corpus, vocab, 5, seed=0)


def _ranking(order, V):
    """Cloze system scoring every context alike: the ids of ``order`` first,
    in that order, then every other id at -inf."""
    row = np.full(V, -np.inf)
    row[order] = np.arange(len(order), 0, -1)
    return lambda contexts: np.tile(row, (len(contexts), 1))


def _counts(instances, rank, cutoffs):
    return evaluation.run_infrequent_cloze(
        {"s": _ranking([], 40)}, instances, rank, cutoffs, 1).counts


def test_cutoff_zero_is_identity():
    instances = _mk(([3], 4), ([4], 3))
    assert _counts(instances, [3, 4], [0]) == [2]


def test_cutoff_full_vocab_empties():
    instances = _mk(([3], 4), ([4], 3))
    report = evaluation.run_infrequent_cloze(
        {"s": _ranking([3, 4], 8)}, instances, [3, 4], [2], 2)
    assert report.counts == [0]
    assert np.isnan(report.recalls["s"][0])


def test_cutoff_boundary_removes_rank_equal_to_cutoff():
    # answer ranked exactly at 1-indexed position == cutoff is removed
    instances = _mk(([5], 4))
    assert _counts(instances, [3, 4, 5], [2, 1]) == [0, 1]


def test_cutoff_composition():
    rng = np.random.default_rng(0)
    rank = list(range(NUM_SPECIALS, NUM_SPECIALS + 20))
    instances = _mk(*[([3], int(rng.integers(NUM_SPECIALS, NUM_SPECIALS + 20)))
                      for _ in range(50)])
    via_5 = instances.take(np.flatnonzero(~np.isin(instances.targets, rank[:5])))
    system = {"s": _ranking(rank[::3], 40)}
    assert (evaluation.run_infrequent_cloze(system, via_5, rank, [12], 4)
            == evaluation.run_infrequent_cloze(system, instances, rank, [12], 4))


def _recall(order, instances, N):
    (recall,) = evaluation.run_infrequent_cloze(
        {"s": _ranking(order, 40)}, instances, [], [0], N).recalls["s"]
    return recall


def test_recall_ratio():
    instances = _mk(([3], 4), ([3], 5), ([3], 6), ([3], 7))
    assert _recall([4, 5], instances, 2) == 50.0   # hits the first two answers


def test_recall_exhaustive_list_is_100():
    instances = _mk(*[([3], k) for k in range(3, 8)])
    assert _recall(list(range(8)), instances, 8) == 100.0


def test_recall_constant_miss_is_0():
    instances = _mk(([3], 6), ([3], 7))
    assert _recall([3, 4], instances, 2) == 0.0


def test_recall_empty_set_rejected():
    with pytest.raises(ConfigError):
        evaluation.run_infrequent_cloze({"s": _ranking([], 8)}, _mk(), [])


def test_recall_monotone_in_n():
    rng = np.random.default_rng(1)
    order = list(range(3, 30))
    instances = _mk(*[([3], int(rng.integers(3, 30))) for _ in range(40)])
    values = [_recall(order, instances, n) for n in range(1, 28)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_cloze_report_defaults_and_monotone_counts():
    corpus, vocab = _corpus([list("abcdef")] * 20)
    instances = evaluation.make_cloze_set(corpus, vocab, 60, seed=2)
    rank = list(vocab.event_ids())
    report = evaluation.run_infrequent_cloze(
        {"sys": _ranking(rank, len(vocab))}, instances, rank)
    assert report.cutoffs == [0, 50, 100, 125, 150, 200, 500]
    assert all(a >= b for a, b in zip(report.counts, report.counts[1:]))
    text = report.to_tsv()
    assert text.startswith("cutoff\t0\t50\t100\t125\t150\t200\t500\n")


def test_cloze_ranks_each_instance_once_per_system():
    rng = np.random.default_rng(4)
    rank = list(range(NUM_SPECIALS, 40))
    instances = _mk(*[([int(rng.integers(NUM_SPECIALS, 40))],
                       int(rng.integers(NUM_SPECIALS, 40))) for _ in range(60)])
    contexts = _contexts(instances.seq)
    seen = {}

    def counting(name, shift):
        def scores(windows):
            contexts = _contexts(windows)
            seen.setdefault(name, []).append(contexts)
            rows = np.full((len(contexts), 40), -np.inf)
            for i, context in enumerate(contexts):   # ties among ids 34..39
                rows[i, NUM_SPECIALS:] = np.minimum(
                    (context[0] * shift + np.arange(37)) % 37, 30)
            return rows
        return scores

    systems = {"a": counting("a", 1), "b": counting("b", 7)}
    cutoffs, N = [0, 5, 17, 30, 37], 9
    report = evaluation.run_infrequent_cloze(systems, instances, rank,
                                             cutoffs, N)
    blocks = -(-len(instances) // evaluation.BLOCK)
    for name in systems:
        assert len(seen[name]) == blocks
        assert sum(seen[name], []) == contexts
    for j, cutoff in enumerate(cutoffs):
        kept = [i for i, answer in enumerate(instances.targets)
                if answer not in rank[:cutoff]]
        assert report.counts[j] == len(kept)
        for name, system in systems.items():
            hits = [instances.targets[i] in ranked_ids(system(
                instances.seq.take(slice(i, i + 1)))[0])[:N]
                for i in kept]
            want = 100.0 * sum(hits) / len(kept) if kept else float("nan")
            np.testing.assert_equal(report.recalls[name][j], want)


@settings(max_examples=200)
@given(st.data())
def test_answer_position_is_the_ranked_ids_index(data):
    n = data.draw(st.integers(1, 6))
    V = data.draw(st.integers(NUM_SPECIALS + 1, 12))
    values = st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0, 1e-300])
    scores = np.array(data.draw(st.lists(st.lists(
        values, min_size=V, max_size=V), min_size=n, max_size=n)))
    answers = data.draw(st.lists(st.one_of(
        st.integers(NUM_SPECIALS, min(NUM_SPECIALS + 1, V - 1)),
        st.integers(NUM_SPECIALS, V - 1)), min_size=n, max_size=n))
    got = evaluation.answer_positions(scores, answers)
    assert got.tolist() == [ranked_ids(row).index(a)
                            for row, a in zip(scores, answers)]


def test_lm_sheet_system_runs_the_lm_in_blocks():
    class CountingLM:
        config = {"vocab_size": 2 * evaluation.BLOCK + 5}
        histories = []

        def next_distribution(self, windows):
            histories = _contexts(windows)
            self.histories.append(histories)
            dist = (np.arange(1.0, self.config["vocab_size"] + 1)
                    + np.array([h[0] if h else 0 for h in histories])[:, None])
            return dist / dist.sum(axis=1, keepdims=True)

    lm = CountingLM()
    V = lm.config["vocab_size"]
    column = evaluation.lm_sheet_system(lm)
    got = [column(l) for l in range(3, 8)]
    assert [len(h) for h in lm.histories] == [evaluation.BLOCK] * 2 + [6]
    assert sum(lm.histories, []) == [[], *([k] for k in range(V))]
    start = np.log(lm.next_distribution(K.Windows.of([()]))[0])
    want = [[float(start[k]) + float(np.log(
        lm.next_distribution(K.Windows.of([[k]]))[0][l]))
        for k in range(V)] for l in range(3, 8)]
    assert [c.tolist() for c in got] == want


# ---------------------------------------------------------------------------
# pairwise sheets


def _sheet_setup():
    corpus, vocab = _corpus([list("abcdefgh")] * 5)
    rank = list(vocab.event_ids())
    rng = np.random.default_rng(3)
    mats = {name: rng.random((len(vocab), len(vocab)))
            for name in ("s1", "s2", "s3")}
    systems = {name: (lambda M: (lambda l: M[:, l]))(M)
               for name, M in mats.items()}
    targets = list(vocab.event_ids())[:4]
    return systems, targets, vocab, rank


def test_sheet_six_pairs_per_task():
    systems, targets, vocab, rank = _sheet_setup()
    rows = evaluation.pairwise_sheet(systems, targets, vocab, rank,
                                     per_system=2, exclude_top=0, seed=0)
    by_task = {}
    for r in rows:
        by_task.setdefault(r["task_id"], []).append(r)
    assert all(len(v) == 6 for v in by_task.values())


def test_sheet_shuffle_deterministic():
    systems, targets, vocab, rank = _sheet_setup()
    r1 = evaluation.pairwise_sheet(systems, targets, vocab, rank, seed=4,
                                   exclude_top=0)
    r2 = evaluation.pairwise_sheet(systems, targets, vocab, rank, seed=4,
                                   exclude_top=0)
    assert r1 == r2


def test_sheet_respects_frequency_exclusion():
    systems, targets, vocab, rank = _sheet_setup()
    targets = [t for t in targets if t not in rank[:2]]
    rows = evaluation.pairwise_sheet(systems, targets, vocab, rank,
                                     exclude_top=2, seed=0)
    frequent = {vocab.key_of(i) for i in rank[:2]}
    for r in rows:
        assert r["candidate_event"] not in frequent


def test_sheet_tsv_round_trip():
    systems, targets, vocab, rank = _sheet_setup()
    rows = evaluation.pairwise_sheet(systems, targets, vocab, rank, seed=1,
                                     exclude_top=0)
    parsed = evaluation.parse_sheet_tsv(evaluation.sheet_to_tsv(rows))
    assert [r["candidate_event"] for r in parsed] == \
           [r["candidate_event"] for r in rows]


def test_score_summary_averages_and_ranks():
    rows = [
        {"task_id": "0", "target_event": "t", "candidate_event": "x",
         "hidden_system_key": "A", "score": "80"},
        {"task_id": "0", "target_event": "t", "candidate_event": "y",
         "hidden_system_key": "B", "score": "20"},
        {"task_id": "1", "target_event": "t", "candidate_event": "x",
         "hidden_system_key": "A", "score": "60"},
        {"task_id": "1", "target_event": "t", "candidate_event": "y",
         "hidden_system_key": "B", "score": "60"},
    ]
    summary = evaluation.score_summary(rows)
    assert summary["A"]["avg_score"] == pytest.approx(70.0)
    assert summary["B"]["avg_score"] == pytest.approx(40.0)
    # task 0: A rank 2, B rank 1; task 1: tie, both 1.5
    assert summary["A"]["avg_rank"] == pytest.approx((2 + 1.5) / 2)
    assert summary["B"]["avg_rank"] == pytest.approx((1 + 1.5) / 2)


def test_score_summary_rejects_unfilled():
    rows = [{"task_id": "0", "target_event": "t", "candidate_event": "x",
             "hidden_system_key": "A", "score": ""}]
    with pytest.raises(DataFormatError):
        evaluation.score_summary(rows)


# ---------------------------------------------------------------------------
# diversity


def test_pct_new_example():
    report = evaluation.diversity_report({"s": ["a", "b", "a", "c"]})
    assert report["s"].pct_new == pytest.approx(75.0)


def test_pct_new_all_identical():
    report = evaluation.diversity_report({"s": ["a"] * 8})
    assert report["s"].pct_new == pytest.approx(100.0 / 8)


def test_pct_new_all_distinct():
    report = evaluation.diversity_report({"s": list("abcdef")})
    assert report["s"].pct_new == pytest.approx(100.0)


def test_diversity_top2():
    report = evaluation.diversity_report({"s": ["a", "a", "b", "c", "a", "b"]})
    stats = report["s"]
    assert stats.top2[0] == ("a", pytest.approx(50.0))
    assert stats.top2[1] == ("b", pytest.approx(100.0 / 3))
    assert stats.distinct == 3 and stats.total == 6


def test_diversity_empty_rejected():
    with pytest.raises(ConfigError):
        evaluation.diversity_report({"s": []})


@settings(max_examples=50)
@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=30))
def test_pct_new_matches_distinct_ratio(seq):
    stats = evaluation.diversity_report({"s": seq})["s"]
    assert stats.pct_new == pytest.approx(100.0 * stats.distinct / stats.total)
    assert stats.distinct <= stats.total
