"""Benchmark of the scriptcausal CLI pipeline.

    python3 bench/run.py --workload popcorn-train --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Every stage runs as its own
``python -m scriptcausal.cli`` process with BLAS pinned to one thread. The
set-up stages run three times and report the median; the timed stages run
in whole rounds until --seconds have passed and report the median round.
The outputs are then checked against bench/reference.py. The last line of
standard output is one JSON object: correct, attempted and failed stage
invocations, and the metrics. With --trace 1 the workload also runs once
in-process under the layer tracer and the per-layer metrics are printed
instead. Every run writes its full record to bench/results/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: OpenBLAS otherwise starts one thread per core,
# and a busy neighbour on the second core then doubles the time of a GEMM.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse                                     # noqa: E402
import contextlib                                   # noqa: E402
import hashlib                                      # noqa: E402
import json                                         # noqa: E402
import shutil                                       # noqa: E402
import statistics                                   # noqa: E402
import subprocess                                   # noqa: E402
import sys                                          # noqa: E402
import time                                         # noqa: E402
from pathlib import Path                            # noqa: E402

import numpy as np                                  # noqa: E402

from checks import run_checks                       # noqa: E402
from workloads import SPEC_FILE, WORKLOADS          # noqa: E402
import tracing                                      # noqa: E402

SETUP_REPEATS = 3
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# host state, stored with every result so a drifting host shows


def host_state() -> dict:
    with open("/proc/stat", encoding="ascii") as f:
        cpu = f.readline().split()
    return {"time": time.time(), "loadavg": list(os.getloadavg()),
            "steal_jiffies": int(cpu[8]) if len(cpu) > 8 else None}


def calibration_probe() -> dict:
    """Time a fixed numpy and a fixed pure-Python workload."""
    a = np.random.default_rng(0).random((256, 256))
    start = time.perf_counter()
    for _ in range(20):
        a = np.tanh(a @ a / 256.0)
    numpy_s = time.perf_counter() - start
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return {"numpy_s": numpy_s, "python_s": time.perf_counter() - start}


def build_info() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "scriptcausal").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas, "blas_env": BLAS_ENV, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# running stages


def stage_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_stage(workdir, argv, log) -> dict:
    """Run one CLI stage as a child process; its rusage comes from wait4."""
    cmd = [sys.executable, "-m", "scriptcausal.cli", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=stage_env(), stdout=log,
                            stderr=log)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "minflt": ru.ru_minflt, "rss_mb": ru.ru_maxrss / 1024.0,
            "rc": proc.returncode}


def stage_argv(stage, workdir, seed) -> list[str]:
    return ["--config", "cfg.json", "--seed", str(seed), *stage.args(workdir)]


def prepare(wl, workdir, log) -> dict:
    """Write the stage config and, for the F-ZIPF workloads, the generator
    spec. Neither depends on the seed, so neither counts as set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "cfg.json").write_text(json.dumps(wl.config), encoding="utf-8")
    if not wl.needs_spec:
        return {}
    code = ("from scriptcausal.synth import build_zipf_cbn; "
            f"build_zipf_cbn().save({SPEC_FILE!r})")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=workdir,
                          env=stage_env(), stdout=log, stderr=log, check=False)
    if proc.returncode:
        raise RuntimeError("could not write the F-ZIPF spec")
    return {"spec_s": time.perf_counter() - start}


def spec_path(wl, workdir) -> Path:
    if wl.needs_spec:
        return workdir / SPEC_FILE
    return SRC / "scriptcausal" / "fixtures" / "f_popcorn.json"


def digests(workdir, stages) -> dict:
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for stage in stages for name in stage.outputs
            if (workdir / name).exists()}


class StageLoop:
    """Runs stage lists, counting attempts and failures."""

    def __init__(self, workdir, seed, log):
        self.workdir, self.seed, self.log = workdir, seed, log
        self.attempted = self.failed = 0
        self.records = []

    def run(self, phase, stages) -> list[dict] | None:
        out = []
        for stage in stages:
            rec = run_stage(self.workdir, stage_argv(stage, self.workdir, self.seed),
                            self.log)
            rec.update(stage=stage.name, phase=phase)
            self.records.append(rec)
            self.attempted += 1
            if rec["rc"] != 0:
                self.failed += 1
                return None
            out.append(rec)
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def stage_medians(records) -> dict:
    by_stage = {}
    for rec in records:
        by_stage.setdefault(rec["stage"], []).append(rec)
    return {name: {k: _median([r[k] for r in recs])
                   for k, _ in tracing.CLI_FIELDS}
            for name, recs in by_stage.items()}


def timed_run(wl, workdir, seed, seconds, log) -> dict:
    info = prepare(wl, workdir, log)
    loop = StageLoop(workdir, seed, log)
    setups, rounds, setup_hashes, round_hashes = [], [], [], []
    for _ in range(SETUP_REPEATS):
        recs = loop.run("setup", wl.setup)
        if recs is None:
            break
        setups.append(recs)
        setup_hashes.append(digests(workdir, wl.setup))
    start = time.perf_counter()
    while len(setups) == SETUP_REPEATS and (
            not rounds or time.perf_counter() - start < seconds):
        recs = loop.run("timed", wl.timed)
        if recs is None:
            break
        rounds.append(recs)
        round_hashes.append(digests(workdir, wl.timed))
    checks = {}
    if rounds:
        checks = run_checks(workdir, wl, seed, spec_path(wl, workdir))
        checks["setups_identical"] = (all(h == setup_hashes[0] for h in setup_hashes),
                                      {"setups": len(setup_hashes)})
        checks["rounds_identical"] = (all(h == round_hashes[0] for h in round_hashes),
                                      {"rounds": len(round_hashes)})
    metrics = {
        "wall_s": {"value": _median([sum(r["wall_s"] for r in rd) for rd in rounds]),
                   "unit": "s"},
        "setup_s": {"value": _median([sum(r["wall_s"] for r in s) for s in setups]),
                    "unit": "s"},
        "peak_rss_mb": {"value": _median([max(r["rss_mb"] for r in rd) for rd in rounds]),
                        "unit": "MB"},
    }
    return {"loop": loop, "checks": checks, "metrics": metrics, "info": info,
            "rounds": len(rounds), "setups": len(setups),
            "artifacts": {**(setup_hashes[-1] if setup_hashes else {}),
                          **(round_hashes[-1] if round_hashes else {})},
            "stage_medians": stage_medians(loop.records)}


def in_process(wl, workdir, seed, log, tracer=None) -> float:
    """Run every stage through cli.main in this process; returns the summed
    wall time of the stage calls."""
    from scriptcausal import cli
    total = 0.0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for stage in wl.setup + wl.timed:
            main = tracer.wrap(f"cli.{stage.name}", cli.main) if tracer else cli.main
            argv = stage_argv(stage, workdir, seed)
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                start = time.perf_counter()
                rc = main(argv)
                total += time.perf_counter() - start
            if rc != 0:
                raise RuntimeError(f"in-process stage {stage.name} exited {rc}")
    finally:
        os.chdir(cwd)
    return total


def traced_run(wl, workdir, seed, log) -> dict:
    """One untraced pass of child processes (per-stage rusage and the output
    checks), then the same stages in-process without and with the tracer.
    The difference of the two in-process times is the tracing overhead."""
    info = prepare(wl, workdir, log)
    loop = StageLoop(workdir, seed, log)
    ok = loop.run("setup", wl.setup) is not None and loop.run("timed", wl.timed) is not None
    checks = run_checks(workdir, wl, seed, spec_path(wl, workdir)) if ok else {}
    artifacts = digests(workdir, wl.setup + wl.timed)

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    walls = {"plain": 0.0, "traced": 0.0}
    tracer = tracing.Tracer()
    for label, tr in (("plain", None), ("traced", tracer)) if ok else ():
        d = workdir / label
        prepare(wl, d, log)
        uninstall = tracing.install(tracer) if tr else (lambda: None)
        try:
            walls[label] = in_process(wl, d, seed, log, tr)
        finally:
            uninstall()
    if ok:
        checks["traced_outputs_identical"] = (
            digests(workdir / "traced", wl.setup + wl.timed) == artifacts, {})
    overhead = walls["traced"] - walls["plain"]
    metrics = tracing.per_layer_metrics(tracer, stage_medians(loop.records), overhead)
    return {"loop": loop, "checks": checks, "metrics": metrics, "info": info,
            "in_process_s": walls, "artifacts": artifacts,
            "tracer": tracer}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scriptcausal" / "cli.py").is_file():
        print(f"error: no scriptcausal sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    run_id = f"{wl.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    workdir = BENCH_DIR / "work" / run_id
    results = BENCH_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "build": build_info(),
              "host_before": host_state(), "probe_before": calibration_probe()}
    try:
        with open(results / f"{run_id}.log", "w", encoding="utf-8") as log:
            if args.trace:
                out = traced_run(wl, workdir, args.seed, log)
            else:
                out = timed_run(wl, workdir, args.seed, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(host_after=host_state(), probe_after=calibration_probe())

    loop = out.pop("loop")
    tracer = out.pop("tracer", None)
    checks = out["checks"]
    correct = loop.failed == 0 and bool(checks) and all(
        ok for ok, detail in checks.values() if detail.get("gating", True))
    result = {"correct": correct, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": out["metrics"]}
    record.update(out, stages=loop.records, result=result,
                  checks={k: {"ok": bool(ok), **detail} for k, (ok, detail) in checks.items()})
    with open(results / f"{run_id}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=float)
    if tracer is not None:
        with open(results / f"{run_id}.spans.json", "w", encoding="utf-8") as f:
            json.dump({"stats": tracer.stats, "work": tracer.work,
                       "spans": tracer.spans}, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
