"""Tests of the benchmark's reference computations on hand-checkable cases.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import reference as R
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _spec(scenarios, lam=0.1, events=("a:x", "b:x"), L=3):
    return {"name": "T", "events": list(events), "lambda": lam,
            "chain_length": L, "scenarios": scenarios}


def test_exact_do_rows_one_scenario_is_the_smoothed_kernel():
    spec = _spec([{"name": "z", "prob": 1.0,
                   "kernel": {"<s>": {"a:x": 1.0}, "a:x": {"b:x": 1.0},
                              "b:x": {"a:x": 1.0}}}], lam=0.2)
    # (1 - 0.2) * onehot + 0.2 / 2
    np.testing.assert_allclose(R.exact_do_rows(spec), [[0.1, 0.9], [0.9, 0.1]])
    # a single scenario confounds nothing: observed == interventional
    np.testing.assert_allclose(R.exact_observed_rows(spec), R.exact_do_rows(spec))


def test_exact_do_rows_two_scenarios_average_the_kernels():
    k1 = {"<s>": {"a:x": 1.0}, "a:x": {"a:x": 1.0}, "b:x": {"b:x": 1.0}}
    k2 = {"<s>": {"b:x": 1.0}, "a:x": {"b:x": 1.0}, "b:x": {"a:x": 1.0}}
    spec = _spec([{"name": "u", "prob": 0.5, "kernel": k1},
                  {"name": "v", "prob": 0.5, "kernel": k2}], lam=0.0001)
    np.testing.assert_allclose(R.exact_do_rows(spec), [[0.5, 0.5], [0.5, 0.5]])
    # u gives chains a a a, v gives b a b: of the three pairs starting at a,
    # two continue with a
    obs = R.exact_observed_rows(spec)
    np.testing.assert_allclose(obs[0], [2 / 3, 1 / 3], atol=1e-3)


def test_observed_next_frequencies_count_adjacent_pairs():
    chains = [["a:x", "b:x", "a:x"], ["a:x", "a:x", "zz:y"]]
    np.testing.assert_allclose(R.observed_next_frequencies(chains, ["a:x", "b:x"]),
                               [[0.5, 0.5], [1.0, 0.0]])


def test_frequency_rank_breaks_ties_by_id():
    assert R.frequency_rank([0, 0, 0, 5, 7, 5, 1]) == [4, 3, 5, 6]


def _write_model(path, kind, config, params):
    with open(path, "wb") as f:
        f.write(f"#scriptcausal-model v1 {kind} {json.dumps(config)}\n".encode())
        for name, arr in sorted(params.items()):
            arr = np.asarray(arr, dtype="<f8")
            f.write(struct.pack("<I", len(name)) + name.encode())
            f.write(struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.tobytes())


def _gru(prefix, d, h):
    return {f"{prefix}.{m}{g}": np.zeros((h, d if m == "W" else h)) if m != "b"
            else np.zeros(h) for g in "zrh" for m in "WUb"}


def test_model_reader_and_gru_with_zero_weights(tmp_path):
    # all-zero GRU: z = 1/2 and candidate tanh(0) = 0, so h halves each step
    p = {"emb": np.arange(6.0).reshape(3, 2), **_gru("enc", 2, 2)}
    path = tmp_path / "m.bin"
    _write_model(path, "conditional", {"hidden_dim": 2}, p)
    kind, config, params = R.read_model(path)
    assert kind == "conditional" and config == {"hidden_dim": 2}
    np.testing.assert_array_equal(params["emb"], p["emb"])
    h = R.gru_step(params, "enc", np.ones((1, 2)), np.array([[4.0, -2.0]]))
    np.testing.assert_allclose(h, [[2.0, -1.0]])


def test_do_rows_average_softmax_over_contexts():
    V, d, hid = 4, 2, 2
    p = {"emb": np.zeros((V, d)), "A": np.zeros((V, hid)), **_gru("enc", d, hid)}
    p["A"][1] = [1.0, 0.0]
    p["enc.bh"] = np.array([10.0, 0.0])    # candidate ~ (1, 0): h -> (h + 1) / 2
    model = ("conditional", {"phase": "pretrained", "hidden_dim": hid}, p)
    # empty history: h = (0.5 tanh(10), 0); two steps: h = 0.75 tanh(10)
    contexts = [([], []), ([2, 3], [3])]
    t = math.tanh(10.0)

    def soft(*logits):
        e = np.exp(logits)
        return e / e.sum()
    want = (soft(0, 0.5 * t, 0, 0) + soft(0, 0.875 * t, 0, 0)) / 2
    np.testing.assert_allclose(R.do_rows(model, contexts, [0, 1]), [want, want])

    # finetuned: + W_O times the mean out-of-text embedding, here (2, 0)
    p["emb"][3] = [2.0, 0.0]
    p["W_O"] = np.zeros((V, d))
    p["W_O"][2] = [1.0, 0.0]
    model = ("conditional", {"phase": "finetuned", "hidden_dim": hid}, p)
    want = (soft(0, 0.5 * t, 0, 0) + soft(0, 0.875 * t, 2.0, 0)) / 2
    np.testing.assert_allclose(R.do_rows(model, contexts, [1]), [want])


def test_adjustment_contexts_and_sample():
    chains = [[("a:x", []), ("b:x", [["s:scenario", 4], ["t:scenario", 2]]),
               ("a:x", [])]]
    keys = ["<unk>", "<s>", "</s>", "a:x", "b:x", "s:scenario"]
    ctx = R.adjustment_contexts(chains, keys, history_window=10, oot_threshold=3)
    assert ctx == [([], []), ([3], [5])]
    assert R.adjustment_sample(ctx, 2, seed=0) == ctx


def test_lm_next_is_softmax_of_output_bias_when_weights_are_zero():
    V, d, hid = 5, 2, 3
    b = np.log(np.array([1.0, 2.0, 3.0, 4.0, 10.0]))
    p = {"emb": np.ones((V, d)), "out.W": np.zeros((V, hid)), "out.b": b,
         **_gru("gru0", d, hid), **_gru("gru1", hid, hid)}
    model = ("event-lm", {"num_layers": 2, "hidden_dim": hid}, p)
    dists = R.lm_next(model, [[], [3], [3, 4]])
    np.testing.assert_allclose(dists, np.tile(np.exp(b) / 20.0, (3, 1)))


def test_script_scores_normalise_columns():
    S = R.script_scores(np.array([[0.2, 0.8], [0.6, 0.4]]))
    np.testing.assert_allclose(S, [[0.25, 2 / 3], [0.75, 1 / 3]])


def test_skip_bigrams_and_discounted_pmi_by_hand():
    pairs, left, right, total = counts = R.skip_bigram_counts([[3, 4, 5]], 2)
    assert pairs == {(3, 4): 1, (3, 5): 1, (4, 5): 1} and total == 3
    M = R.pmi_matrix(counts, 6)
    # c = 1, T = 3, left(3) = 2, right(4) = 1: log(3/2) * (1/2) * (1/2)
    assert M[3, 4] == pytest.approx(math.log(1.5) / 4)
    assert M[4, 3] == -np.inf


def test_ranking_ties_break_by_event_id():
    scores = np.array([9.0, 9.0, 9.0, 1.0, 2.0, 2.0, -np.inf, -np.inf])
    assert R.rank_position(scores, 4) == 0
    assert R.rank_position(scores, 5) == 1
    assert R.rank_position(scores, 3) == 2
    assert R.rank_position(scores, 7) == 4
    assert R.top_by_score(scores, range(3, 8), 3) == [4, 5, 3]
    rows = np.tile(scores, (2, 1))
    assert R.recall_at_n(rows, [5, 7], [True, True], 2) == 50.0
    assert R.recall_at_n(rows, [5, 7], [False, True], 2) == 0.0


def test_cloze_pool_skips_special_answers():
    assert R.cloze_pool([[3, 0, 4], [5]]) == [([3, 0], 4)]


def test_itable_readers(tmp_path):
    effect = np.array([[0.25, 0.75], [0.5, 0.5]])
    (tmp_path / "t.bin").write_bytes(b"#scriptcausal-itable v1 2 10 0 m\n"
                                     + effect.astype("<f8").tobytes())
    (tmp_path / "t.tsv").write_text("do_event\ta\tb\na\t0.25\t0.75\nb\t0.5\t0.5\n")
    np.testing.assert_array_equal(R.read_itable(tmp_path / "t.bin"), effect)
    keys, tsv = R.read_itable_tsv(tmp_path / "t.tsv")
    assert keys == ["a", "b"]
    np.testing.assert_array_equal(tsv, effect)


def test_tracer_self_time_excludes_children_of_other_layers():
    t = tracing.Tracer()
    inner = t.wrap("b.inner", lambda: sum(range(20000)))
    helper = t.wrap("a.helper", lambda: sum(range(20000)))
    outer = t.wrap("a.outer", lambda: [inner() + helper() for _ in range(3)])
    outer()
    assert t.calls("b.inner") == 3 and t.calls("a.outer") == 1
    assert t.self_time("a.outer") == pytest.approx(
        t.inclusive("a.outer") - t.inclusive("b.inner"))
    ids = {s[0]: s for s in t.spans}
    assert all(ids[s[1]][2] == "a.outer" for s in t.spans if s[2] == "b.inner")


def test_install_wraps_and_restores_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from scriptcausal import cli, corpus, kernel
    before = (corpus.load_chains, cli.load_chains, kernel.sigmoid)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        assert cli.load_chains is corpus.load_chains is not before[0]
        kernel.gru_step(*_tiny_gru_args())
        assert t.calls("kernel.gru_step") == 1 and t.calls("kernel.sigmoid") == 2
    finally:
        undo()
    assert (corpus.load_chains, cli.load_chains, kernel.sigmoid) == before


def _tiny_gru_args():
    return _gru("g", 1, 1), "g", np.zeros((1, 1)), np.zeros((1, 1))


def test_declared_per_layer_metrics_match_the_tracer():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == tracing.metric_units()
