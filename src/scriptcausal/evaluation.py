"""Evaluation protocols: infrequent narrative cloze with Recall@N, pairwise
abductive task sheets, chain-completion helpers, and output-diversity
reports.

A "system" enters the cloze as a ranker: a callable mapping a context (list
of event ids) to a ranked candidate list. Pairwise sheets instead take
pair-score functions score(predecessor, target).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .config import TABLE
from .corpus import ChainCorpus
from .errors import ConfigError, DataFormatError
from .events import NUM_SPECIALS, Vocabulary, ranked_ids


@dataclass
class ClozeInstance:
    context: list[int]
    answer: int
    chain_id: str

    def __post_init__(self):
        if not self.context:
            raise ConfigError("cloze context must be non-empty")
        if self.answer < NUM_SPECIALS:
            raise ConfigError("cloze answer must be a non-special event id")


def make_cloze_set(corpus: ChainCorpus, vocab: Vocabulary, count: int,
                   seed: int) -> list[ClozeInstance]:
    """Seeded uniform sample (without replacement) of (chain, split-point)
    pairs whose held-out answer is a real event."""
    ids, off = corpus.event_ids(vocab), corpus.offsets
    chain = np.repeat(np.arange(len(corpus)), np.diff(off))
    pool = np.flatnonzero((np.arange(len(ids)) > off[chain])
                          & (ids >= NUM_SPECIALS))
    if len(pool) < count:
        raise ConfigError(
            f"corpus yields {len(pool)} cloze candidates, need {count}")
    rng = np.random.default_rng(seed)
    at = pool[sorted(rng.choice(len(pool), size=count, replace=False))]
    ids, off = ids.tolist(), off.tolist()
    return [ClozeInstance(ids[off[c]:i], ids[i], corpus.chain_ids[c])
            for i, c in zip(at.tolist(), chain[at].tolist())]


def filter_by_cutoff(instances, rank, cutoff: int):
    """Drop instances whose answer is among the cutoff most frequent events."""
    if cutoff < 0:
        raise ConfigError("cutoff must be >= 0")
    if cutoff == 0:
        return list(instances)
    frequent = set(rank[:cutoff])
    return [inst for inst in instances if inst.answer not in frequent]


def recall_at_n(ranker, instances, N: int) -> float:
    """Percentage of instances whose answer appears in the ranker's top N."""
    if not instances:
        raise ConfigError("recall undefined on an empty instance set")
    hits = 0
    for inst in instances:
        if inst.answer in ranker(inst.context)[:N]:
            hits += 1
    return 100.0 * hits / len(instances)


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

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_tsv())


def run_infrequent_cloze(systems: dict, instances, rank,
                         cutoffs=TABLE["cutoffs"].default,
                         N: int = TABLE["recall_n"].default) -> ClozeReport:
    """Recall@N per system per exclusion cutoff over a fixed instance set.

    Each system ranks each instance once; the cutoffs then select which
    of those hits count.
    """
    cutoffs = list(cutoffs)
    if any(c < 0 for c in cutoffs):
        raise ConfigError("cutoff must be >= 0")
    hits = {name: [inst.answer in ranker(inst.context)[:N] for inst in instances]
            for name, ranker in systems.items()}
    counts = []
    recalls = {name: [] for name in systems}
    for cutoff in cutoffs:
        frequent = set(rank[:cutoff])
        kept = [i for i, inst in enumerate(instances) if inst.answer not in frequent]
        counts.append(len(kept))
        for name in systems:
            recalls[name].append(100.0 * sum(hits[name][i] for i in kept) / len(kept)
                                 if kept else float("nan"))
    return ClozeReport(cutoffs, counts, recalls)


# ---------------------------------------------------------------------------
# pairwise abductive sheets


SHORT_MARK = "<short>"


def pairwise_sheet(systems: dict, targets, vocab: Vocabulary, rank,
                   per_system: int = 2, exclude_top: int = 20,
                   seed: int = 0) -> list[dict]:
    """Task rows for human scoring: for each target event, each system's top
    predecessors (after the frequency filter), shuffled within the task.

    ``systems`` maps name -> pair score function score(predecessor, target).
    Rows carry the system identity in a hidden key column. Returns a list of
    row dicts; see ``sheet_to_tsv``.
    """
    excluded = set(rank[:exclude_top])
    rng = np.random.default_rng(seed)
    rows = []
    for task_id, target in enumerate(targets):
        task_rows = []
        candidates = [k for k in range(NUM_SPECIALS, len(vocab))
                      if k not in excluded and k != target]
        for name, score_fn in systems.items():
            scores = np.full(len(vocab), -np.inf)
            for k in candidates:
                scores[k] = score_fn(k, target)
            unranked = np.flatnonzero(~np.isfinite(scores))
            picks = [vocab.key_of(k)
                     for k in ranked_ids(scores, unranked)[:per_system]]
            picks += [SHORT_MARK] * (per_system - len(picks))
            task_rows += [{"task_id": task_id, "target_event": vocab.key_of(target),
                           "candidate_event": k, "hidden_system_key": name,
                           "score": ""} for k in picks]
        order = rng.permutation(len(task_rows))
        rows.extend(task_rows[i] for i in order)
    return rows


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
    share the average of their positions.
    """
    tasks = {}
    for r in rows:
        if r["candidate_event"] == SHORT_MARK:
            continue
        try:
            score = float(r["score"])
        except ValueError as e:
            raise DataFormatError(
                f"non-numeric score {r['score']!r} in task {r['task_id']}") from e
        tasks.setdefault(r["task_id"], []).append((r["hidden_system_key"], score))
    sums = {}
    for entries in tasks.values():
        scores = np.array([score for _, score in entries])
        ordered = np.sort(scores)
        # a tie over sorted positions i..j gets rank (i + j) / 2 + 1
        ranks = ((np.searchsorted(ordered, scores, "left")
                  + np.searchsorted(ordered, scores, "right") + 1) / 2).tolist()
        for idx, (system, score) in enumerate(entries):
            agg = sums.setdefault(system, {"score": 0.0, "rank": 0.0, "n": 0})
            agg["score"] += score
            agg["rank"] += ranks[idx]
            agg["n"] += 1
    return {system: {"avg_score": agg["score"] / agg["n"],
                     "avg_rank": agg["rank"] / agg["n"],
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

    ``emissions`` maps system name -> the chronological sequence of emitted
    events (ids or keys)."""
    report = {}
    for system, seq in emissions.items():
        if not seq:
            raise ConfigError(f"system {system!r} has no emissions")
        counts = Counter(seq)   # each event is new once: at its first emission
        top2 = sorted(counts.items(), key=lambda p: (-p[1], str(p[0])))[:2]
        report[system] = DiversityStats(
            total=len(seq), distinct=len(counts),
            pct_new=100.0 * len(counts) / len(seq),
            top2=[(str(e), 100.0 * c / len(seq)) for e, c in top2])
    return report


# ---------------------------------------------------------------------------
# rankers


def lm_ranker(lm):
    """Ranked candidate list from the LM's next-event distribution."""
    return lambda context: ranked_ids(lm.next_distribution(context))


def lm_pair_scorer(lm):
    """Joint log p(k, l) of a two-event chain under the LM, as the pairwise
    score used for abductive queries. The LM runs once per predecessor k."""
    start_dist = None
    next_dist = {}

    def score(k, l):
        nonlocal start_dist
        if start_dist is None:
            start_dist = np.log(lm.next_distribution([]))
        if k not in next_dist:
            next_dist[k] = lm.next_distribution([k])
        return float(start_dist[k]) + float(np.log(next_dist[k][l]))

    return score
