"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are result files written by bench/run.py, or directories of
them. For every workload and metric present on both sides it prints the
median of each side, the ratio NEW/BASE and the number of runs behind
each median. Untraced runs give the end-to-end metrics, traced runs the
per-layer ones.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path) -> dict:
    """workload -> metric -> [values] from one result file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        if f.name.endswith(".spans.json") or f.name.startswith("steady-"):
            continue
        rec = json.loads(f.read_text(encoding="utf-8"))
        metrics = out.setdefault(rec["workload"], {})
        for name, m in rec["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    print(f"{'workload':14} {'metric':40} {'base':>12} {'new':>12} {'new/base':>9}  runs")
    for wl in sorted(set(base) & set(new)):
        for name in sorted(set(base[wl]) & set(new[wl])):
            b = statistics.median(base[wl][name])
            n = statistics.median(new[wl][name])
            ratio = f"{n / b:9.4f}" if b else f"{'-':>9}"
            print(f"{wl:14} {name:40} {b:12.6g} {n:12.6g} {ratio}  "
                  f"{len(base[wl][name])}/{len(new[wl][name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
