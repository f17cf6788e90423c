"""Benchmark of the srl-rewriter package: train, rewrite and ablate workloads.

    python3 perfbench/run.py --workload train|rewrite|ablate --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in its own process

A single closed-loop caller drives `srl_rewriter.cli.main` in-process: it
waits for each CLI call before starting the next, repeats calls until
`--seconds` are spent, and reports medians.  BLAS threads are capped at the
number of CPUs this process may run on.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a separate traced call (see tracing.py).  A result file
with the environment, every call and the workload-named metrics goes to
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)  # before numpy is imported

SETUP_SECONDS = 3.0  # set-up is sub-second; its median needs many repeats
SETUP_MIN_REPEATS = 3
WORKLOAD_NAMES = ("train", "rewrite", "ablate")

# workload-named end-to-end metrics: (unit, better)
NAMED_UNITS = {
    "setup_s": ("s", "lower"),
    "train_steps_per_s": ("1/s", "higher"),
    "train_tokens_per_s": ("1/s", "higher"),
    "rewrite_tokens_per_s": ("1/s", "higher"),
    "rewrite_em": ("share", "higher"),
    "ablate_cell_s": ("s", "lower"),
    "ablate_test_em": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_share": ("share", "lower"),
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test only")
    return parser.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def blas_threads():
    """Thread count OpenBLAS reports at run time, or the cap we set."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def measure_units(workload, seconds: float) -> list:
    """Repeat the unit until the next one would overrun `seconds` by more
    than half its typical length."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit())
        typical = median(u.wall_s for u in units)
        if time.perf_counter() - start + typical / 2 > seconds:
            return units


def timed_setups(workload, seconds: float, min_repeats: int) -> list[float]:
    """Repeat the set-up for at least `seconds` and `min_repeats` times."""
    times = []
    while len(times) < min_repeats or sum(times) < seconds:
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    workload.read_inputs()
    return times


def run_workload(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "srl_rewriter", "cli.py")):
        print(f"benchmark error: no package sources under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, src)
    import tracing
    import workloads

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = os.path.join(HERE, "_work", run_id)
    results = os.path.join(HERE, "results")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work, args.size == "tiny")
        workload.prepare()
        # set-up is timed before and after the calls, so that its median
        # samples the machine at both ends of the run, as the calls do
        setup_times = timed_setups(workload, SETUP_SECONDS / 2, SETUP_MIN_REPEATS)
        units = measure_units(workload, args.seconds)
        setup_times += timed_setups(workload, SETUP_SECONDS / 2, SETUP_MIN_REPEATS)
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            timed_setups(workload, 0.0, 1)
            unit_start = len(tracer.spans)
            traced = workload.unit()
            layers = tracing.layer_metrics(tracer.spans, unit_start)
            layers["generator.sample_corpus_s"] = tracing.layer_metrics(
                tracer.spans[:unit_start])["generator.sample_corpus_s"]
            untraced_s = median(u.wall_s for u in units)
            layers["trace.overhead_s"] = traced.wall_s - untraced_s
            layers["trace.overhead_share"] = (traced.wall_s - untraced_s) / untraced_s
            layers["trace.missing_targets"] = len(tracer.missing)
            os.makedirs(results, exist_ok=True)
            tracer.dump(os.path.join(results, f"{run_id}.spans.json"))
    except workloads.CheckFailed as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = units + ([traced] if traced else [])
    attempted = sum(u.attempted for u in checked)
    failed = sum(u.failed for u in checked)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (median(setup_times), "s"),
        "call_s": (median(u.wall_s for u in units), "s"),
        "steps_per_s": (median(u.counts["steps"] / u.wall_s for u in units), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1.0 - failed / attempted, "share"),
    }
    named = {"setup_s": median(setup_times), **workload.metrics(units),
             "peak_rss_mb": peak_rss_mb, "failed_share": failed / attempted}
    env = environment(args.seed)
    problems = [p for u in checked for p in u.problems]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"calls: {len(units)}  set-ups: {len(setup_times)}")
    for name, value in named.items():
        unit, better = NAMED_UNITS[name]
        print(f"  {name:<22} {value:>14.6g} {unit:<6} ({better} is better)")
    if traced is not None:
        for name, value in layers.items():
            print(f"  {name:<40} {value:>14.6g}")
    print(f"named-metrics: {json.dumps(named, sort_keys=True)}")
    if traced is not None:
        metrics = {k: (v, tracing.layer_unit(k)) for k, v in layers.items()}
    else:
        metrics = end_to_end
    record = {
        "environment": env,
        "args": vars(args),
        "setup_times_s": setup_times,
        "calls": [{"wall_s": u.wall_s, "attempted": u.attempted, "failed": u.failed,
                   "counts": u.counts, "problems": u.problems} for u in checked],
        "named_metrics": named,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "missing_trace_targets": tracer.missing if traced is not None else [],
    }
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every workload-named metric."""
    named: dict[str, float] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(f"[{name}] {line}")
            if line.startswith("named-metrics: "):
                for key, value in json.loads(line.split(": ", 1)[1]).items():
                    if key in ("setup_s", "peak_rss_mb", "failed_share"):
                        key = f"{name}.{key}"
                    named[key] = value
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
    print("end-to-end metrics:")
    for key, value in named.items():
        unit, better = NAMED_UNITS[key.split(".")[-1]]
        print(f"  {key:<24} {value:>14.6g} {unit:<6} ({better} is better)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": NAMED_UNITS[k.split(".")[-1]][0]}
                    for k, v in named.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
