"""Output checks of each workload against the reference computations.

Each check returns (ok, detail); ``detail`` holds the measured numbers so a
failed run says by how much it failed. A check whose detail says
``"gating": False`` is recorded with every run but does not decide
``correct``.
"""

from __future__ import annotations

import json
import traceback

import numpy as np

import reference as R
from workloads import POPCORN_ADJUSTMENT_N

ROW_SUM_TOL = 1e-9
DO_ROW_TOL = 1e-12          # reference GRU vs estimate-do, same contexts
SAMPLED_ROWS = 12
SHORT_MARK = "<short>"


def _rows(effect) -> tuple[bool, dict]:
    err = float(np.abs(effect.sum(axis=1) - 1.0).max())
    low = float(effect.min())
    return low >= 0.0 and err <= ROW_SUM_TOL, {"min": low, "max_row_sum_err": err}


def _tsv_matches(workdir, effect) -> tuple[bool, dict]:
    _, tsv = R.read_itable_tsv(workdir / "t.tsv")
    return bool(np.array_equal(tsv, effect)), {"shape": list(tsv.shape)}


def _score_output(workdir, keys, target, topk, excluded):
    """s.tsv lists, in order, the top-k predecessors of ``target`` by S
    recomputed from the TSV export."""
    _, tsv = R.read_itable_tsv(workdir / "t.tsv")
    S = R.script_scores(tsv)[:, keys.index(target)]
    with open(workdir / "s.tsv", encoding="utf-8") as f:
        listed = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    cand = [k for k in range(R.NUM_SPECIALS, len(keys)) if k not in excluded]
    want = R.top_by_score(S, cand, topk)
    got = [keys.index(k) for k, _ in listed]
    values_ok = all(abs(float(v) - S[keys.index(k)]) <= 5e-7 for k, v in listed)
    # an exchange of two exactly tied candidates would still be a valid top-k
    same = got == want or (len(got) == len(want)
                           and np.array_equal(S[got], S[want]))
    return same and values_ok, {"listed": [k for k, _ in listed]}


def _do_rows_match(workdir, corpus, model_file, effect, rows, n, seed):
    """The estimator's do-rows recomputed by the reference GRU over the
    same seeded adjustment sample."""
    keys, _ = R.read_vocab(workdir / "v.tsv")
    model = R.read_model(workdir / model_file)
    contexts = R.adjustment_contexts(R.read_events(workdir / corpus), keys,
                                     model[1]["history_window"],
                                     model[1]["oot_threshold"])
    sample = R.adjustment_sample(contexts, n or len(contexts), seed)
    diff = float(np.abs(R.do_rows(model, sample, rows) - effect[rows]).max())
    return diff <= DO_ROW_TOL, {"rows": rows, "max_abs_diff": diff,
                                "contexts": len(sample)}


def check_popcorn(workdir, wl, seed, spec_path) -> dict:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    events = spec["events"]
    keys, _ = R.read_vocab(workdir / "v.tsv")
    effect = R.read_itable(workdir / "t.bin")
    ids = [keys.index(k) for k in events]
    exact = R.exact_do_rows(spec)
    observed = R.observed_next_frequencies(R.read_chains(workdir / "tr.jsonl"), events)
    l1_est = np.abs(effect[np.ix_(ids, ids)] - exact).sum(axis=1)
    l1_obs = np.abs(observed - exact).sum(axis=1)
    confounded = np.abs(R.exact_observed_rows(spec) - exact).sum(axis=1) > 0.05

    w, p, c = (events.index(f"{e}:nsubj") for e in ("watch_sad", "eat_popcorn", "cry"))
    S = R.script_scores(effect)
    s_w, s_p = S[ids[w], ids[c]], S[ids[p], ids[c]]
    gap_est = observed[p, c] - effect[ids[p], ids[c]]
    gap_oracle = R.exact_observed_rows(spec)[p, c] - exact[p, c]
    return {
        "rows": _rows(effect),
        "tsv_matches_table": _tsv_matches(workdir, effect),
        "do_rows_match_reference": _do_rows_match(
            workdir, "tr.jsonl", "ft.bin", effect, list(range(len(keys))),
            POPCORN_ADJUSTMENT_N, seed),
        "score_reverses_observed": (
            s_w > s_p and observed[p, c] > observed[w, c],
            {"S_watch_sad": s_w, "S_eat_popcorn": s_p,
             "P_cry_after_watch_sad": observed[w, c],
             "P_cry_after_eat_popcorn": observed[p, c]}),
        "gap_sign": (gap_est * gap_oracle > 0,
                     {"estimate": gap_est, "oracle": gap_oracle}),
        "score_output": _score_output(workdir, keys, wl.target,
                                      wl.config["topk"], set()),
        # recorded, not gating: at this training budget the estimate's
        # worst row (an unconfounded one) loses on about 1 seed in 30
        "worst_row_l1_below_observed": (
            l1_est.max() < l1_obs.max(),
            {"gating": False, "estimate": l1_est.tolist(), "observed": l1_obs.tolist()}),
        "confounded_rows_l1_below_observed": (
            bool(np.all(l1_est[confounded] < l1_obs[confounded])),
            {"gating": False, "rows": [events[i] for i in np.nonzero(confounded)[0]]}),
    }


def check_zipf_estimate(workdir, wl, seed, spec_path) -> dict:
    keys, counts = R.read_vocab(workdir / "v.tsv")
    effect = R.read_itable(workdir / "t.bin")
    rows = sorted(np.random.default_rng(seed).choice(len(keys), SAMPLED_ROWS,
                                                     replace=False).tolist())
    excluded = set(R.frequency_rank(counts)[:wl.config["exclude_top"]])
    return {
        "rows": _rows(effect),
        "tsv_matches_table": _tsv_matches(workdir, effect),
        "sampled_rows_match_reference": _do_rows_match(
            workdir, "dv.jsonl", "m.bin", effect, rows, None, seed),
        "score_output": _score_output(workdir, keys, wl.target,
                                      wl.config["topk"], excluded),
    }


def _system_scores(workdir, keys):
    """The LM model file and the (V, V) pair-score matrices of the causal
    and pmi systems."""
    V = len(keys)
    lm = R.read_model(workdir / "lm.bin")
    train = R.to_ids(R.read_chains(workdir / "tr.jsonl"), keys)
    pmi = R.pmi_matrix(R.skip_bigram_counts(train, 2), V)
    S = R.script_scores(R.read_itable(workdir / "t.bin"))
    return lm, S, pmi


def check_zipf_eval(workdir, wl, seed, spec_path) -> dict:
    config = wl.config
    keys, counts = R.read_vocab(workdir / "v.tsv")
    rank = R.frequency_rank(counts)
    lm, S, pmi = _system_scores(workdir, keys)

    # cloze: every Recall@N equals the reference rankers' value
    pool = R.cloze_pool(R.to_ids(R.read_chains(workdir / "te.jsonl"), keys))
    answers = [a for _, a in pool]
    scores = {"lm": R.lm_next(lm, [c for c, _ in pool]),
              "causal": np.array([S[c].mean(axis=0) for c, _ in pool]),
              "pmi": np.array([pmi[c].mean(axis=0) for c, _ in pool])}
    with open(workdir / "cloze.tsv", encoding="utf-8") as f:
        table = {line.split("\t")[0]: line.rstrip("\n").split("\t")[1:] for line in f}
    want = {"cutoff": [str(c) for c in config["cutoffs"]], "instances": []}
    for cutoff in config["cutoffs"]:
        frequent = set(rank[:cutoff])
        keep = [a not in frequent for a in answers]
        want["instances"].append(str(sum(keep)))
        for system, rows in scores.items():
            want.setdefault(system, []).append(
                f"{R.recall_at_n(rows, answers, keep, config['recall_n']):.2f}")
    cloze_ok = table == want
    mismatch = {k: (table.get(k), v) for k, v in want.items() if table.get(k) != v}

    # sheet: every pick equals the reference top-2 for its target and system
    V = len(keys)
    start = np.log(R.lm_next(lm, [[]])[0])
    after = np.log(R.lm_next(lm, [[k] for k in range(V)]))
    pair = {"lm": start[:, None] + after, "causal": S, "pmi": pmi}
    excluded = set(rank[:config["exclude_top"]])
    with open(workdir / "sheet.tsv", encoding="utf-8") as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    got, targets = {}, {}
    for task, target, cand, system, _ in rows:
        got.setdefault((task, system), []).append(cand)
        targets[task] = target
    bad = []
    for (task, system), picks in got.items():
        t = keys.index(targets[task])
        cand = [k for k in range(R.NUM_SPECIALS, V) if k not in excluded and k != t]
        top = [keys[k] for k in R.top_by_score(pair[system][:, t], cand,
                                               config["per_system"])]
        top += [SHORT_MARK] * (config["per_system"] - len(top))
        if sorted(picks) != sorted(top):
            bad.append([targets[task], system, picks, top])
    sheet_ok = not bad and len(got) == 3 * len(targets) == 3 * min(
        config["sheet_targets"], V - R.NUM_SPECIALS)
    return {
        "cloze_recalls": (cloze_ok, {"instances": len(pool), "mismatch": mismatch}),
        "sheet_picks": (sheet_ok, {"targets": len(targets), "mismatch": bad[:5]}),
    }


CHECKS = {"popcorn-train": check_popcorn, "zipf-estimate": check_zipf_estimate,
          "zipf-eval": check_zipf_eval}


def run_checks(workdir, wl, seed, spec_path) -> dict:
    """The workload's checks; an output that cannot be read fails them."""
    try:
        return CHECKS[wl.name](workdir, wl, seed, spec_path)
    except Exception as e:                      # noqa: BLE001 - reported below
        return {"outputs_readable": (False, {"error": traceback.format_exc(),
                                             "exception": repr(e)})}
