"""Steadiness check: run every workload over several seeds and report the
spread of each end-to-end metric.

    python3 bench/steady.py --seeds 1-10 --label A
    python3 bench/steady.py --seeds 11-20 --label B --base bench/results/steady-A.json

Runs bench/run.py once per (seed, workload), seed by seed, so the
workloads interleave and a drifting host affects all of them alike. For
each workload and metric it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, and flags a
spread of a third of the metric's bound or more (setup_s is exempt). With
--base it also flags a median that is worse than the base set's median by
more than the bound, and a different share of failed stages. The summary
goes to bench/results/steady-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds) -> dict:
    out = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                          workload, "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range such as 1-10")
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", help="summary of an earlier set to compare with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    for seed in seed_list(args.seeds):
        for w in workloads:
            res = run_once(w, seed, spec["run_seconds"])
            runs[w].append(res)
            print(f"seed {seed} {w}: correct={res['correct']} " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)

    base = (json.loads(Path(args.base).read_text(encoding="utf-8"))
            if args.base else None)
    summary, ok = {}, True
    for w, results in runs.items():
        correct = all(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
        entry = {"correct": correct, "failed_share": failed, "metrics": {}}
        ok &= correct
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["spread_ok"] = name == "setup_s" or s["spread"] < bound / 3
            if base:
                b = base[w]["metrics"][name]["median"]
                s["vs_base"] = s["median"] / b - 1.0
                s["drift_ok"] = s["vs_base"] <= bound
                ok &= s["drift_ok"]
            ok &= s["spread_ok"]
            entry["metrics"][name] = s
            print(f"{w:14} {name:12} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f} (bound {bound})"
                  + (f"  vs base {s['vs_base']:+.4f}" if base else "")
                  + ("" if s["spread_ok"] and s.get("drift_ok", True) else "  <-- over"))
        if base and failed != base[w]["failed_share"]:
            ok = False
            print(f"{w}: failed share {failed} differs from base {base[w]['failed_share']}")
        summary[w] = entry
    out = BENCH_DIR / "results" / f"steady-{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"{'steady' if ok else 'NOT steady'}; summary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
