"""Checks of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

1. Two traced runs of each workload with the same seed report exactly the
   same per-layer counts, and each passes its output gate, which includes
   traced outputs being byte-identical to untraced ones.
2. Without the program to measure, the benchmark exits non-zero and
   prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = [sys.executable, "bench/run.py"]


def traced_run(workload, seed):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        raise SystemExit(f"{workload}: exit {out.returncode}\n{out.stdout}{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def main():
    failures = []
    for workload in ("decide", "wide", "pump"):
        first, second = traced_run(workload, 1), traced_run(workload, 1)
        a, b = counts(first), counts(second)
        differ = sorted(k for k in a if a[k] != b.get(k))
        if not (first["correct"] and second["correct"]):
            failures.append(f"{workload}: output gate failed")
        if differ:
            failures.append(f"{workload}: counts differ: {differ}")
        print(f"{workload}: {len(a)} counts repeat exactly"
              if not differ else f"{workload}: counts differ: {differ}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run(RUN + ["--workload", "decide", "--seed", "1",
                                "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, check=False)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        failures.append("a checkout without src/ did not fail cleanly")
    print(f"without the program: exit {out.returncode}, "
          f"{len(out.stdout.splitlines())} lines on stdout")

    for f in failures:
        print("FAIL:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
