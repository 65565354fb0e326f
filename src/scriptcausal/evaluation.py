"""Evaluation protocols: infrequent narrative cloze with Recall@N, pairwise
abductive task sheets, score summaries, and output-diversity reports.

A cloze instance is a row of ``causal.PackedInstances``: the events before a
chain position, a window of the corpus's flat event ids, and the event there
as its target. A system enters the cloze as a score matrix: a callable
mapping contexts (a ``kernel.Windows``) to an (n, V) array that scores each
context's candidate next events, BLOCK contexts per call. A system enters a
pairwise sheet as a predecessor column: target l -> (V,) array of score(k, l).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import causal
from . import kernel as K
from .config import TABLE
from .corpus import ChainCorpus
from .errors import ConfigError, DataFormatError
from .events import NUM_SPECIALS, Vocabulary, ranked_ids

BLOCK = 64   # contexts per system call: bounds the (BLOCK, V) score blocks


def make_cloze_set(corpus: ChainCorpus, vocab: Vocabulary, count: int,
                   seed: int) -> causal.PackedInstances:
    """Seeded uniform sample (without replacement) of the instances whose
    held-out answer is a real event, each with every event before it."""
    instances = causal.extract_training_instances(
        corpus, vocab, history_window=np.diff(corpus.offsets).max(initial=0))
    pool = np.flatnonzero(instances.targets >= NUM_SPECIALS)
    if len(pool) < count:
        raise ConfigError(f"corpus yields {len(pool)} cloze candidates, need {count}")
    return instances.take(pool[sorted(np.random.default_rng(seed).choice(
        len(pool), size=count, replace=False))])


def answer_positions(scores, answers) -> np.ndarray:
    """0-based position of each answer in ``ranked_ids`` of its row of
    ``scores`` (n, V): the candidates (ids >= NUM_SPECIALS) scored higher,
    plus those scored equal with a lower id."""
    cand = np.asarray(scores)[:, NUM_SPECIALS:]
    at = np.asarray(answers) - NUM_SPECIALS
    s = cand[np.arange(len(at)), at][:, None]
    lower = np.arange(cand.shape[1]) < at[:, None]
    return np.count_nonzero((cand > s) | ((cand == s) & lower), axis=1)


@dataclass
class ClozeReport:
    cutoffs: list[int]
    counts: list[int]
    recalls: dict[str, list[float]]

    def to_tsv(self) -> str:
        lines = ["cutoff\t" + "\t".join(str(c) for c in self.cutoffs),
                 "instances\t" + "\t".join(str(n) for n in self.counts)]
        for system in self.recalls:
            lines.append(system + "\t"
                         + "\t".join(f"{r:.2f}" for r in self.recalls[system]))
        return "\n".join(lines) + "\n"


def run_infrequent_cloze(systems: dict, instances: causal.PackedInstances, rank,
                         cutoffs=TABLE["cutoffs"].default,
                         N: int = TABLE["recall_n"].default) -> ClozeReport:
    """Recall@N per system per exclusion cutoff over a fixed instance set.

    Each system scores each context once; a hit is an answer among the first
    N of ``ranked_ids`` of its row. The cutoffs then select which hits count.
    """
    cutoffs = list(cutoffs)
    if any(c < 0 for c in cutoffs):
        raise ConfigError("cutoff must be >= 0")
    if not len(instances):
        raise ConfigError("recall undefined on an empty instance set")
    blocks = [instances.take(slice(i, i + BLOCK))
              for i in range(0, len(instances), BLOCK)]
    hits = {name: np.concatenate([answer_positions(
        system(b.seq), b.targets) < N for b in blocks])
        for name, system in systems.items()}
    kept = [~np.isin(instances.targets, rank[:cutoff]) for cutoff in cutoffs]
    counts = [int(k.sum()) for k in kept]
    recalls = {name: [100.0 * int(h[k].sum()) / n if n else float("nan")
                      for k, n in zip(kept, counts)]
               for name, h in hits.items()}
    return ClozeReport(cutoffs, counts, recalls)


# ---------------------------------------------------------------------------
# pairwise abductive sheets


SHORT_MARK = "<short>"


def pairwise_sheet(systems: dict, targets, vocab: Vocabulary, rank,
                   per_system: int = 2, exclude_top: int = 20,
                   seed: int = 0) -> list[dict]:
    """Task rows for human scoring: for each target event, each system's top
    predecessors (after the frequency filter), shuffled within the task.

    ``systems`` maps name -> predecessor column; non-finite scores are left
    out. Rows carry the system identity in a hidden key column. Returns a
    list of row dicts; see ``sheet_to_tsv``.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for task_id, target in enumerate(targets):
        task_rows = []
        for name, column in systems.items():
            scores = column(target)
            unranked = [target, *rank[:exclude_top],
                        *np.flatnonzero(~np.isfinite(scores))]
            picks = [vocab.key_of(k)
                     for k in ranked_ids(scores, unranked)[:per_system]]
            picks += [SHORT_MARK] * (per_system - len(picks))
            task_rows += [{"task_id": task_id, "target_event": vocab.key_of(target),
                           "candidate_event": k, "hidden_system_key": name,
                           "score": ""} for k in picks]
        order = rng.permutation(len(task_rows))
        rows.extend(task_rows[i] for i in order)
    return rows


def lm_sheet_system(lm):
    """The LM's predecessor columns, score(k, l) = log p(k | <s>) + log p(l | k),
    the log-probability of the chain k, l. The first call fills one array with
    the next-event rows of <s> and of each one-event history, BLOCK per pass."""
    @functools.cache
    def logp():
        V = lm.config["vocab_size"]
        histories = K.Windows.of([()] + [(k,) for k in range(V)])
        out = np.empty((len(histories), V))
        for i in range(0, len(histories), BLOCK):
            out[i:i + BLOCK] = lm.next_distribution(histories.take(slice(i, i + BLOCK)))
        return np.log(out, out=out)

    return lambda target: logp()[0] + logp()[1:, target]


SHEET_COLUMNS = ("task_id", "target_event", "candidate_event",
                 "hidden_system_key", "score")


def sheet_to_tsv(rows) -> str:
    lines = ["\t".join(SHEET_COLUMNS)]
    for r in rows:
        lines.append("\t".join(str(r[c]) for c in SHEET_COLUMNS))
    return "\n".join(lines) + "\n"


def parse_sheet_tsv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != list(SHEET_COLUMNS):
        raise DataFormatError("missing or malformed sheet header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != len(SHEET_COLUMNS):
            raise DataFormatError(f"sheet line {lineno}: wrong column count")
        rows.append(dict(zip(SHEET_COLUMNS, parts)))
    return rows


def score_summary(rows) -> dict[str, dict[str, float]]:
    """Average human score and average within-task rank per system.

    Expects filled-in rows (score column is a number in [0, 100]). Ranks are
    assigned within each task, highest score getting the highest rank; ties
    share the average of their positions. A system whose rows are all
    <short> has count 0 and NaN averages.
    """
    tasks, sums = {}, {}
    for r in rows:
        sums.setdefault(r["hidden_system_key"], {"score": 0.0, "rank": 0.0, "n": 0})
        if r["candidate_event"] == SHORT_MARK:
            continue
        try:
            score = float(r["score"])
            if not 0.0 <= score <= 100.0:   # also NaN
                raise ValueError
        except ValueError as e:
            raise DataFormatError(f"score {r['score']!r} in task {r['task_id']} "
                                  "is not a number in [0, 100]") from e
        tasks.setdefault(r["task_id"], []).append((r["hidden_system_key"], score))
    for entries in tasks.values():
        scores = np.array([score for _, score in entries])
        ordered = np.sort(scores)
        # a tie over sorted positions i..j gets rank (i + j) / 2 + 1
        ranks = ((np.searchsorted(ordered, scores, "left")
                  + np.searchsorted(ordered, scores, "right") + 1) / 2).tolist()
        for idx, (system, score) in enumerate(entries):
            agg = sums[system]
            agg["score"] += score
            agg["rank"] += ranks[idx]
            agg["n"] += 1
    nan = float("nan")
    return {system: {"avg_score": agg["score"] / agg["n"] if agg["n"] else nan,
                     "avg_rank": agg["rank"] / agg["n"] if agg["n"] else nan,
                     "count": agg["n"]}
            for system, agg in sums.items()}


# ---------------------------------------------------------------------------
# diversity


@dataclass
class DiversityStats:
    total: int
    distinct: int
    pct_new: float
    top2: list[tuple[str, float]] = field(default_factory=list)


def diversity_report(emissions: dict[str, list]) -> dict[str, DiversityStats]:
    """%-new-output rate and top-2 most-emitted events per system.

    ``emissions`` maps system name -> the events it emitted (ids or keys),
    such as a sheet's picks; their order does not matter. A system with no
    emissions has a NaN rate and no top events."""
    report = {}
    for system, seq in emissions.items():
        counts = Counter(seq)   # each event is new once: at its first emission
        top2 = sorted(counts.items(), key=lambda p: (-p[1], str(p[0])))[:2]
        report[system] = DiversityStats(
            total=len(seq), distinct=len(counts),
            pct_new=100.0 * len(counts) / len(seq) if seq else float("nan"),
            top2=[(str(e), 100.0 * c / len(seq)) for e, c in top2])
    return report
