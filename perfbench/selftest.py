"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

Runs each workload with `--size tiny`, untraced and traced, and asserts that
the last output line carries every metric BENCHMARK.json names, each with a
unit, and that all checks passed.  It also runs `--workload all` and checks
that a copy of the benchmark without the package's sources exits non-zero
without printing a result.  Takes under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(argv: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess, what: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{what} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (what, result)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (what, result)
    return result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} trace {trace}"
            result = result_of(run([RUN, "--workload", workload, "--seed", "0", "--seconds", "1",
                                    "--trace", str(trace), "--size", "tiny"]), what)
            metrics = result["metrics"]
            assert set(metrics) == {m["name"] for m in wanted[trace]}, (what, sorted(metrics))
            for m in wanted[trace]:
                got = metrics[m["name"]]
                assert got["unit"] == m["unit"], (what, m, got)
                assert isinstance(got["value"], (int, float)), (what, m, got)
            print(f"ok  {what}: {len(metrics)} metrics")

    result = result_of(run([RUN, "--workload", "all", "--seconds", "1", "--size", "tiny"]), "all")
    print(f"ok  all: {sorted(result['metrics'])}")

    bare = os.path.join(HERE, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(["perfbench/run.py", "--workload", "train", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        lines = proc.stdout.strip().splitlines()
        assert proc.returncode != 0 and not (lines and lines[-1].startswith("{")), proc.stdout
        print("ok  a copy without the sources exits", proc.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
