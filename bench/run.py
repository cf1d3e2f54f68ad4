"""mlsspf benchmark: seeded workloads, each pass in a fresh process.

    python3 bench/run.py --workload decide|wide|pump|all --seed N \
        --seconds S --trace 0|1

Run from the repository root.  A run alternates short start-ups of the
worker, which measure set-up (interpreter start, import, input generation),
with whole passes of the workload, one at a time and each in a fresh
process, until `--seconds` is used up (at least two passes).  Every pass of
one run gets the same inputs, so their outputs must agree byte for byte.
See bench/README.md for the workloads and metrics.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate between untraced and
traced, the traced ones time each public function of the library from
outside, and the JSON carries the per-layer metrics.  The full trace is
written to `bench/out/`.  The lines before the JSON spell every figure out
by name and unit.  The exit code is 1 when an output is wrong and 2 when
the program to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from probe import probe, scale  # noqa: E402

WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
WORKLOADS = ("decide", "wide", "pump")
SETUP_SAMPLES = 2
MIN_PASSES = 2
RUN_DEADLINE_S = 170  # a run must end within 180 s, whatever its workers do

# What one operation is on each workload, for the table's latency names.
OP_NAMES = {"decide": "decide", "wide": "certify", "pump": "pipeline"}
PHASES = ("certify_s", "pump_s", "verify_s")
REJECTIONS = ("NotAWitness", "NoEvent", "CoverMissesVariable")
# Functions whose self time is reported in the JSON: every workload reaches
# them, so none of these figures is a constant zero.  The trace file and the
# table hold the self time of every function.
SELF_TIMED = (
    "hf.make_set", "hf.powerset", "lang.eval_literal", "venn.venn_partition",
    "venn.induced_board", "venn.canonical_board",
    "process.synthesize_process", "process.grand_event", "process.is_closed",
    "pumping.certify_witness", "pumping.find_pumping_cycles",
    "pumping.is_pumping_event", "pumping.closed_cover",
)
COUNTED = SELF_TIMED + (
    "hf.transitive_closure", "hf.pow_star", "hf.in_pow_star", "lang.parse",
    "lang.evaluate", "solver.decide", "process.local_trashes",
    "process.validate_process",
    "msrefine.paste_segment", "msrefine.check_weak_imitation",
    "msrefine.check_segment_imitation", "msrefine.check_upward_premises",
    "relations.imitates", "relations.literal_transfer_report",
    "pumping.pump_rounds", "pumping.extend_certificate",
    "pumping.verify_certificate",
)


class BenchError(Exception):
    pass


def child(workload, seed, deadline, trace=0, setup_only=False):
    """Run the worker once, killing it at `deadline` (a perf_counter time);
    returns (set-up seconds at the probe's nominal speed, result or None)."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2 ** 32))
    before = probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        first = proc.stdout.readline()
        setup = (time.perf_counter() - t0) * scale([before, probe()])
        rest, _ = proc.communicate(
            timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker timed out") from None
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode})")
    if setup_only:
        return setup, None
    return setup, json.loads(rest.splitlines()[-1])


def percentile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a weighted mean of all
    order statistics, the weights being the Beta(p(n+1), (1-p)(n+1))
    probability of each rank interval.  The latencies of `decide` come in
    clusters; one order statistic, or the interpolation between two, swung
    by 10-15% from run to run where a cluster ends near the percentile."""
    xs = sorted(values)
    n = len(xs)
    p = q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 32
    logs = []
    for i in range(n * steps):
        t = (i + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_workload(workload, seed, seconds, trace):
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    setups = []
    passes = []  # (traced, duration, result)
    while True:
        # Set-up samples are spread over the run, between passes, so that a
        # few seconds of interference from other processes cannot move them
        # all at once.
        setups += [child(workload, seed, deadline, setup_only=True)[0]
                   for _ in range(SETUP_SAMPLES)]
        traced = bool(trace) and len(passes) % 2 == 1
        if len(passes) >= MIN_PASSES:
            same = [d for t, d, _ in passes if t == traced]
            if time.perf_counter() - start + same[-1] > seconds:
                break
        t0 = time.perf_counter()
        setup, result = child(workload, seed, deadline, trace=int(traced))
        setups.append(setup)
        passes.append((traced, time.perf_counter() - t0, result))
    results = [r for _, _, r in passes]
    plain = [r for t, _, r in passes if not t]
    traced_runs = [r for t, _, r in passes if t]

    problems = [p for r in results for p in r["problems"]]
    first = {rec["id"]: (rec["outcome"], rec["digest"])
             for rec in results[0]["records"]}
    for i, r in enumerate(results[1:], 1):
        for rec in r["records"]:
            if first.get(rec["id"]) != (rec["outcome"], rec["digest"]):
                problems.append(f"pass {i}: {rec['id']} gave "
                                f"{rec['outcome']} {rec['digest']}, pass 0 "
                                f"gave {first.get(rec['id'])}")
    records = [rec for r in results for rec in r["records"]]
    failures = {}
    for rec in records:
        if "failure" in rec:
            key = (rec["failure"], rec["id"])
            failures[key] = failures.get(key, 0) + 1

    # Each operation's figure is its median over the untraced passes.
    def per_op(key, runs=plain):
        samples = {}
        for r in runs:
            for rec in r["records"]:
                samples.setdefault(rec["id"], []).append(key(rec))
        return [statistics.median(v) for v in samples.values()]

    latency = per_op(lambda rec: rec["ms"])
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)} "
             f"({len(traced_runs)} traced)  operations per pass "
             f"{len(results[0]['records'])}  set-ups {len(setups)}"]
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(latency) / 1e3, "s"),
        "op_p50_ms": (percentile(latency, 50), "ms"),
        "op_p90_ms": (percentile(latency, 90), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain), "MB"),
    }
    extra = {f"{OP_NAMES[workload]}_p50_ms": e2e["op_p50_ms"],
             f"{OP_NAMES[workload]}_p90_ms": e2e["op_p90_ms"],
             "failed_ratio": (sum(failures.values()) / len(records), "ratio"),
             "wall_unscaled_s": (sum(per_op(lambda rec: rec["raw_ms"])) / 1e3,
                                 "s")}
    if workload == "pump":
        for ph in PHASES:
            extra[ph] = (sum(per_op(
                lambda rec: rec.get("phases", {}).get(ph, 0.0))), "s")
    for name, (value, unit) in {**e2e, **extra}.items():
        lines.append(f"  {name:<16} {value:>14.6f} {unit}")
    outcomes = {}
    for rec in results[0]["records"]:
        outcomes[rec["outcome"]] = outcomes.get(rec["outcome"], 0) + 1
    lines.append("  outcomes per pass: " + ", ".join(
        f"{k} {v}" for k, v in sorted(outcomes.items())))
    for (cls, op_id), n in sorted(failures.items()):
        known = (" (known defect: this certificate cannot be pumped yet)"
                 if op_id.startswith("repro:") else "")
        lines.append(f"  failed: {op_id} raised {cls} in {n} of "
                     f"{len(passes)} passes{known}")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if trace:
        overhead = (sum(per_op(lambda rec: rec["ms"], traced_runs))
                    - sum(latency)) / 1e3
        metrics, table = layer_metrics(traced_runs, overhead)
        lines += table
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-seed{seed}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": seed,
            "traced_passes": [r["trace"] for r in traced_runs],
            "counters": traced_runs[0]["counters"],
        }, indent=1) + "\n")
        lines.append(f"  full trace: {path.relative_to(BENCH.parent)}")
    for p in problems:
        lines.append(f"  WRONG OUTPUT: {p}")
    return {"correct": not problems, "attempted": len(records),
            "failed": sum(failures.values()), "metrics": metrics}, lines


def layer_metrics(traced_runs, overhead):
    """Per-layer metrics from the traced passes, plus the table lines."""
    fns = [r["trace"]["functions"] for r in traced_runs]
    edges = {}
    for a, b, n in traced_runs[0]["trace"]["edges"]:
        edges[(a, b)] = n
    base = fns[0]

    def stat(name, key, default=0):
        return base.get(name, {}).get(key, default)

    def self_s(name):
        return statistics.median(f.get(name, {}).get("self_s", 0.0) for f in fns)

    out = {}
    for name in COUNTED:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (self_s(name), "s")
    candidates = edges.get(("solver.decide", "hf.transitive_closure"), 0)
    tested = (edges.get(("solver.decide", "pumping.certify_witness"), 0)
              + edges.get(("solver.decide", "lang.evaluate"), 0))
    out["solver.candidates"] = (candidates, "count")
    out["solver.tested"] = (tested, "count")
    out["solver.tested_ratio"] = (tested / candidates if candidates else 0.0,
                                  "ratio")
    for cls in REJECTIONS:
        out[f"pumping.certify_witness.rejected.{cls}"] = (
            stat("pumping.certify_witness", "raised", {}).get(cls, 0), "count")
    out["hf.pow_star.members"] = (stat("hf.pow_star", "size_sum"), "count")
    out["pumping.find_pumping_cycles.cycles"] = (
        stat("pumping.find_pumping_cycles", "size_sum"), "count")
    out["venn.places_max"] = (stat("venn.canonical_board", "size_max"), "count")
    for key in ("hf.intern_new", "hf.intern_size"):
        out[key] = (traced_runs[0]["counters"][key], "count")
    out["trace.overhead_s"] = (overhead, "s")

    repeat = all({n: s["calls"] for n, s in f.items()}
                 == {n: s["calls"] for n, s in base.items()} for f in fns)
    table = [f"  per-layer calls repeat across {len(fns)} traced passes: "
             f"{'yes' if repeat else 'NO'}",
             f"  {'function':<44} {'calls':>10} {'self_s':>10} {'total_s':>10}"]
    for name in sorted(base, key=lambda n: -self_s(n)):
        if base[name]["calls"]:
            table.append(f"  {name:<44} {base[name]['calls']:>10} "
                         f"{self_s(name):>10.4f} {base[name]['total_s']:>10.4f}")
    for key in sorted(out):
        if not key.endswith((".calls", ".self_s")):
            table.append(f"  {key:<52} {out[key][0]:>14.6g} {out[key][1]}")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}, table


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "src" / "mlsspf" / "__init__.py",
              root / "tests" / "golden" / "decide_corpus.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, lines = run_workload(workload, args.seed, args.seconds,
                                         args.trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
