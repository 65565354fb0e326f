"""Layer tracing from outside the package, and the per-layer metrics.

``install`` replaces the public functions and methods of the traced
modules (and every other module's reference to them) with wrappers that
record a span (id, parent id, name, start, end) and per-name counts,
inclusive time and self time. Self time is the span's duration minus the
part covered by child spans of other layers, so a layer's own helpers
(corpus.parse_chain_line under corpus.load_chains, kernel.sigmoid under
kernel.gru_step) count towards it. The program's own code is not changed.
Spans stay in memory; the caller writes them out when the run ends.
Kernel primitives are called hundreds of thousands of times in the cloze,
so only the first SPAN_CAP calls of each name keep a span; every call is
counted and timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

LAYERS = ("synth", "corpus", "causal", "kernel", "baselines", "evaluation")
SPAN_CAP = 2000

CLI_STAGES = ("synth", "split", "vocab", "count-pmi", "train-lm", "train-cond",
              "finetune-cond", "estimate-do", "score", "cloze", "sheet")
CLI_FIELDS = (("wall_s", "s"), ("user_s", "s"), ("sys_s", "s"),
              ("minflt", "count"), ("rss_mb", "MB"))


class Tracer:
    def __init__(self):
        self.stats = {}     # name -> [calls, inclusive s, self s, spans kept]
        self.work = {}      # name -> units of work (instances, chains, ...)
        self.spans = []     # (id, parent id, name, start, end)
        self._stack = []    # [span id, time in children of other layers, layer]
        self._next_id = 0

    def wrap(self, name, fn, work=None):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [self._next_id, 0.0, layer]
            self._next_id += 1
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if parent is not None and parent[2] != layer:
                    parent[1] += end - start
                st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                st[0] += 1
                st[1] += end - start
                st[2] += end - start - frame[1]
                if st[3] < SPAN_CAP:
                    st[3] += 1
                    self.spans.append((frame[0], parent[0] if parent else None,
                                       name, start, end))
            if work is not None:
                self.add_work(name, work(args, result))
            return result
        return traced

    def add_work(self, name, amount):
        self.work[name] = self.work.get(name, 0) + amount

    def calls(self, name) -> int:
        return self.stats.get(name, [0])[0]

    def inclusive(self, name) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_time(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


def _events(corpus) -> int:
    return sum(len(chain.events) for chain in corpus.chains)


# units of work per call, for the throughput metrics
WORK = {
    "synth.SyntheticCBN.sample_chains": lambda a, r: len(r.chains),
    "corpus.load_chains": lambda a, r: _events(r),
    "corpus.write_chains": lambda a, r: _events(a[0]),
    "causal.ConditionalModel.loss_and_grads": lambda a, r: len(a[1]),
    "causal.estimate_interventions":
        lambda a, r: r.effect.shape[0] * r.n_samples,
}


def _system_counting(tracer, fn, name, per_call):
    """Wrap an evaluation entry point so each system callable it receives is
    counted under ``name``; ``per_call`` records the call's denominator."""
    @functools.wraps(fn)
    def wrapper(systems, items, *args, **kwargs):
        lm_before = tracer.calls("baselines.EventLM.next_distribution")
        systems = {k: tracer.wrap(name, f) for k, f in systems.items()}
        try:
            return fn(systems, items, *args, **kwargs)
        finally:
            per_call(len(items), len(systems),
                     tracer.calls("baselines.EventLM.next_distribution") - lm_before)
    return wrapper


def _targets(package):
    """(owner, attribute, traced name) for every public function and method
    of the traced layers, plus the private batch packers."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((mod, attr, f"{layer}.{attr}"))
            elif inspect.isclass(obj):
                for mattr, mobj in vars(obj).items():
                    if not mattr.startswith("_") and isinstance(
                            mobj, (staticmethod, types.FunctionType)):
                        out.append((obj, mattr, f"{layer}.{attr}.{mattr}"))
    causal = importlib.import_module(f"{package}.causal")
    out += [(causal, "_pack_sequences", "causal.pack"),
            (causal, "_pack_sets", "causal.pack")]
    return out


def install(tracer: Tracer, package="scriptcausal"):
    """Wrap every traced function in place; returns a function that undoes it."""
    modules = [importlib.import_module(f"{package}.{m}")
               for m in LAYERS + ("cli", "events", "errors")]

    def cloze_done(instances, systems, _lm):
        tracer.add_work("evaluation.run_infrequent_cloze", instances * systems)

    def sheet_done(targets, _systems, lm_calls):
        tracer.add_work("evaluation.pairwise_sheet", targets)
        tracer.add_work("evaluation.sheet_lm_forwards", lm_calls)

    special = {"evaluation.run_infrequent_cloze":
               lambda f: _system_counting(tracer, f, "evaluation.rank", cloze_done),
               "evaluation.pairwise_sheet":
               lambda f: _system_counting(tracer, f, "evaluation.pair_score",
                                          sheet_done)}
    undo = []
    for owner, attr, name in _targets(package):
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        inner = special[name](fn) if name in special else fn
        wrapped = tracer.wrap(name, inner, WORK.get(name))
        new = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
        if inspect.ismodule(owner):
            for mod in modules:          # names bound by "from .x import f"
                if mod is not owner and vars(mod).get(attr) is raw:
                    setattr(mod, attr, new)
                    undo.append((mod, attr, raw))

    def uninstall():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return uninstall


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# metric name -> traced name, where the two differ
_TRACED = {
    "causal.loss_and_grads": "causal.ConditionalModel.loss_and_grads",
    "causal.mean_loss": "causal.ConditionalModel.mean_loss",
    "baselines.next_distribution": "baselines.EventLM.next_distribution",
    "baselines.lm_loss_and_grads": "baselines.EventLM.loss_and_grads",
    "synth.sample_chains": "synth.SyntheticCBN.sample_chains",
    "evaluation.rank_calls": "evaluation.rank",
    "evaluation.pair_score_calls": "evaluation.pair_score",
}

_SELF_TIME = (
    "kernel.gru_step", "kernel.gru_step_backward", "kernel.sigmoid",
    "kernel.softmax", "kernel.softmax_xent_batch", "kernel.adam_update",
    "kernel.load_model", "kernel.save_model",
    "causal.extract_training_instances", "causal.pack", "causal.loss_and_grads",
    "causal.mean_loss", "causal.estimate_interventions",
    "baselines.next_distribution", "baselines.count_skip_bigrams",
    "baselines.lm_loss_and_grads",
    "evaluation.make_cloze_set", "evaluation.recall_at_n",
    "evaluation.pairwise_sheet",
    "synth.sample_chains", "corpus.load_chains", "corpus.write_chains",
)

_CALLS = (
    "kernel.gru_step.calls", "kernel.gru_step_backward.calls",
    "kernel.sigmoid.calls", "kernel.adam_update.calls",
    "causal.loss_and_grads.calls", "baselines.next_distribution.calls",
    "baselines.ordered_pmi.calls", "evaluation.rank_calls",
    "evaluation.pair_score_calls",
)


def _derived(t: Tracer) -> dict:
    load, write = "corpus.load_chains", "corpus.write_chains"
    sample, est = "synth.SyntheticCBN.sample_chains", "causal.estimate_interventions"
    return {
        "causal.train_inst_per_s": (_ratio(
            t.work.get("causal.ConditionalModel.loss_and_grads", 0),
            t.inclusive("causal.train_conditional")
            + t.inclusive("causal.finetune_with_oot")), "1/s"),
        "causal.ctx_rows_per_s": (_ratio(t.work.get(est, 0), t.inclusive(est)), "1/s"),
        "synth.chains_per_s": (_ratio(t.work.get(sample, 0), t.inclusive(sample)), "1/s"),
        "corpus.events_per_s": (_ratio(t.work.get(load, 0) + t.work.get(write, 0),
                                       t.inclusive(load) + t.inclusive(write)), "1/s"),
        "evaluation.rankings_per_instance": (_ratio(
            t.calls("evaluation.rank"),
            t.work.get("evaluation.run_infrequent_cloze", 0)), "ratio"),
        "evaluation.lm_forwards_per_target": (_ratio(
            t.work.get("evaluation.sheet_lm_forwards", 0),
            t.work.get("evaluation.pairwise_sheet", 0)), "ratio"),
    }


def per_layer_metrics(tracer: Tracer, stage_medians: dict, overhead_s: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}.

    ``stage_medians`` maps a CLI stage name to its untraced process record
    (wall_s, user_s, sys_s, minflt, rss_mb); stages the workload does not
    run read 0.
    """
    out = {}
    for stage in CLI_STAGES:
        rec = stage_medians.get(stage, {})
        for field, unit in CLI_FIELDS:
            out[f"cli.{stage}.{field}"] = (rec.get(field, 0.0), unit)
    for metric in _SELF_TIME:
        out[f"{metric}.s"] = (tracer.self_time(_TRACED.get(metric, metric)), "s")
    for metric in _CALLS:
        name = metric.removesuffix(".calls")
        out[metric] = (tracer.calls(_TRACED.get(name, name)), "count")
    out.update(_derived(tracer))
    out["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def metric_units() -> dict:
    """Name -> unit of every per-layer metric (for BENCHMARK.json)."""
    return {k: v["unit"] for k, v in per_layer_metrics(Tracer(), {}, 0.0).items()}
