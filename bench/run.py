#!/usr/bin/env python3
"""locnash benchmark: one workload per process, a closed loop of one client.

    python3 bench/run.py --workload {eval-grid,certify,decide} --seed N \
        --seconds S --trace {0,1} [--tiny]

Inputs are generated from --seed alone and reach locnash only through its
public API and ``locnash.cli.main``.  The loop runs whole passes over the
workload's task list, in the same order each pass and with the
``get_context`` cache cleared at the start of each, until at least three
passes are done and the timed task latencies add up to --seconds.  Every task's output is checked
outside the timed region: expected verdicts, ranks, degrees, exit codes,
values against an mpmath oracle, and byte identity against the task's first
execution.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-module metrics from the traced ones; the
ratio of traced to untraced task time is the tracing overhead, and the
identity check covers the traced passes too.  The last stdout line is the
result object; the line before it records the environment and the details
(input size, tail percentile, task count, failures).  Spans are written to
``.bench_out/`` at the root of the checkout.  --tiny runs a few tasks per
workload for the smoke test.
"""

from __future__ import annotations

import os
import sys

# before numpy is imported anywhere: one BLAS thread, the load stays on the cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

#: workload -> (module, unit of work)
WORKLOADS = {
    "eval-grid": ("eval_grid", "points evaluated"),
    "certify": ("certify", "relation searches"),
    "decide": ("decide", "decisions"),
}
#: untraced runs: every task runs at least three times; traced runs
#: alternate untraced and traced passes
MIN_PASSES = {False: 3, True: 2}
SETUP_REPEATS = 5
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: stop starting tasks after this much wall time, to finish well inside 180 s
WALL_LIMIT_S = 140.0
DIFFERS = "output differs from its first execution"


def import_locnash():
    if not os.path.isfile(os.path.join(SRC, "locnash", "__init__.py")):
        sys.exit("bench: locnash sources not found under src/")
    sys.path[:0] = [SRC, BENCH]
    import locnash

    if not os.path.abspath(locnash.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported locnash from {locnash.__file__}, not from src/")


def build_tasks(workload: str, seed: int, workdir: str, tiny: bool):
    import numpy as np

    module = importlib.import_module(WORKLOADS[workload][0])
    return module.build(np.random.default_rng(seed), workdir, tiny)


def measure_setup(args) -> list[float]:
    """Process start to ready, for SETUP_REPEATS fresh interpreters doing the
    workload's set-up (import locnash, build the inputs)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up child exited with {code}")
        samples.append(t1 - t0)
    return samples


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "os_threads": os_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- the closed loop -----------------------------------------------------------------

def run_loop(tasks, seconds: float, trace: bool, t_process: float):
    from locnash.weierstrass import get_context

    from common import Check
    from tracing import Tracer, plain_api

    base_api = plain_api()
    tracer = Tracer() if trace else None
    first: dict[str, tuple[str, Check]] = {}
    records = []  # (task, traced, seconds, error)
    measured, passes, truncated = 0.0, 0, False
    while passes < MIN_PASSES[trace] or measured < seconds or (trace and passes % 2):
        traced = trace and passes % 2 == 1
        api = tracer.install() if traced else base_api
        try:
            get_context.cache_clear()
            for task in (t for t in tasks for _ in range(t.repeat)):
                if time.perf_counter() - t_process > WALL_LIMIT_S:
                    truncated = True
                    break
                if task.prepare is not None:
                    task.prepare()
                raised = None
                t0 = time.perf_counter()
                try:
                    if traced:
                        out = tracer.run_task(task.id, lambda: task.run(api))
                    else:
                        out = task.run(api)
                except Exception as exc:  # a failed task is counted, not fatal
                    raised = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
                measured += dt
                digest = raised if raised else task.digest(out)
                if task.id not in first:
                    if raised:
                        check = Check(raised)
                    else:
                        try:
                            check = task.check(out)
                        except Exception as exc:
                            check = Check(f"unreadable output: {type(exc).__name__}: {exc}")
                    first[task.id] = (digest, check)
                first_digest, check = first[task.id]
                error = check.error
                if digest != first_digest:
                    error = DIFFERS
                records.append((task, traced, dt, error))
        finally:
            if traced:
                tracer.uninstall()
        passes += 1
        if truncated:
            break
    return records, first, passes, truncated, tracer


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least ten of n tasks beyond it."""
    return max([p for p in TAIL_LADDER if n * (100 - p) >= 1000 - 1e-6], default=50.0)


def end_to_end(records, first, tasks, setup_samples):
    """A task's latency is the median of its executions in the run (at least
    three), which on a shared machine repeats better from run to run than
    a single execution or the fastest one.  work_per_s is the work of one
    pass over the sum of these latencies; p50 and the tail are taken over
    the tasks."""
    import numpy as np

    runs: dict = {}
    for task, traced, dt, _ in records:
        if not traced:
            runs.setdefault(task.id, []).append(dt)
    typical = {tid: statistics.median(v) for tid, v in runs.items()}
    lat = list(typical.values())
    work = sum(t.work for t in tasks if t.id in typical)
    failed = sum(1 for r in records if r[3])
    level = tail_level(len(lat))
    errs = [c.rel_err for _, c in first.values() if c.rel_err is not None]
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "work_per_s": (work / sum(lat), "units/s"),
        "task_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "task_tail_ms": (1e3 * float(np.percentile(lat, level)), "ms"),
        "ok_frac": (1.0 - failed / len(records), "ratio"),
        "max_rel_err": (max(errs) if errs else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": level, "task_count": len(lat),
                     "task_median_ms": {tid: 1e3 * v for tid, v in sorted(typical.items())}}


def per_layer(records, summary):
    from tracing import EVAL_KINDS, LAYERS

    c = summary["counters"]
    mods = summary["modules"]
    wall = summary["wall_s"]
    t_on = sum(dt for _, traced, dt, _ in records if traced)
    t_off = sum(dt for _, traced, dt, _ in records if not traced)
    points = sum(c.get(f"weierstrass.points.{k}", 0) for k in EVAL_KINDS)
    sampled = c.get("relations.sampler.points", 0)
    m = {}
    for k in EVAL_KINDS:
        m[f"weierstrass.points.{k}"] = (c.get(f"weierstrass.points.{k}", 0), "count")
    m["weierstrass.pole_frac"] = (c.get("weierstrass.poles", 0) / points if points else 0.0, "ratio")
    m["weierstrass.context_builds"] = (c.get("weierstrass.context_builds", 0), "count")
    m["weierstrass.context_hits"] = (c.get("weierstrass.context_hits", 0), "count")
    m["weierstrass.context_build_s"] = (c.get("weierstrass.context_build_s", 0.0), "s")
    fns = summary["functions"]
    m["structures.map_batch.calls"] = (fns.get("structures.map_batch", {}).get("calls", 0), "count")
    m["structures.map_batch.points"] = (c.get("structures.map_batch.points", 0), "count")
    m["structures.period_group.calls"] = (fns.get("structures.period_group", {}).get("calls", 0), "count")
    m["relations.find_relation.calls"] = (fns.get("relations.find_relation", {}).get("calls", 0), "count")
    m["relations.sampler.calls"] = (fns.get("relations.sampler", {}).get("calls", 0), "count")
    m["relations.sampler.points"] = (sampled, "count")
    m["relations.sampler.accepted_frac"] = (
        c.get("relations.sampler.finite", 0) / sampled if sampled else 0.0, "ratio")
    m["relations.degrees_tried"] = (c.get("relations.degrees_tried", 0), "count")
    m["lattices.calls"] = (mods["lattices"]["calls"], "count")
    m["lattices.s"] = (mods["lattices"]["s"], "s")
    m["classify.calls"] = (mods["classify"]["calls"], "count")
    m["classify.undetermined"] = (c.get("classify.undetermined", 0), "count")
    for sub in ("eval", "periods", "classify", "compare", "verify-aat"):
        m[f"cli.calls.{sub}"] = (c.get(f"cli.calls.{sub}", 0), "count")
    m["cli.bytes_out"] = (c.get("cli.bytes_out", 0), "bytes")
    for mod in LAYERS:
        m[f"{mod}.self_share"] = (mods[mod]["self_s"] / wall, "ratio")
    for mod in ("weierstrass", "structures", "cli"):
        m[f"{mod}.self_s"] = (mods[mod]["self_s"], "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.remainder_share"] = (summary["remainder_s"] / wall, "ratio")
    m["trace.slowdown"] = (t_on / t_off, "ratio")
    return m


def main(argv=None) -> int:
    t_process = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few tasks per workload (smoke test)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    import_locnash()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tasks = build_tasks(args.workload, args.seed, workdir, args.tiny)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup_samples = measure_setup(args)
        records, first, passes, truncated, tracer = run_loop(
            tasks, args.seconds, bool(args.trace), t_process)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = {}
    for task, _, _, error in records:
        if error:
            failures.setdefault(task.id, {"error": error, "known_failure": task.known_failure,
                                          "count": 0})["count"] += 1
    unexpected = [tid for tid, f in failures.items() if not f["known_failure"]]
    detail = {
        "workload": args.workload,
        "environment": environment(args.seed),
        "work_unit": WORKLOADS[args.workload][1],
        "tasks_per_pass": len(tasks),
        "executions_per_pass": sum(t.repeat for t in tasks),
        "work_per_pass": sum(t.work for t in tasks),
        "passes": passes,
        "truncated": truncated,
        "setup_samples_s": setup_samples,
        "failures": failures,
    }
    if args.trace:
        summary = tracer.summary()
        metrics = per_layer(records, summary)
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(stem + ".jsonl")
        with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        detail["trace_summary"] = {k: summary[k] for k in ("wall_s", "remainder_s", "modules")}
        detail["trace_spans"] = len(tracer.spans)
        detail["traced_outputs_identical"] = not any(
            traced and error == DIFFERS for _, traced, _, error in records)
    else:
        metrics, extra = end_to_end(records, first, tasks, setup_samples)
        detail.update(extra)
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not unexpected and not truncated,
        "attempted": len(records),
        "failed": sum(1 for r in records if r[3]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
