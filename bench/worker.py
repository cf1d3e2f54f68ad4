"""One pass of a benchmark workload, run in a fresh process.

    python3 bench/worker.py --workload decide --seed 1 [--trace 1] [--setup-only]

Run from the repository root.  The worker imports `mlsspf` from `src/`,
builds the pass's inputs from the seed, prints `ready`, runs every operation
once in a closed loop (the next one starts when the last returns) while
sampling the CPU's speed (see probe.py), checks the outputs, and prints one
JSON line with per-operation records.  The intern table of `HfSet` is
process-global and never shrinks, so every pass is a fresh process and
nothing is warmed before the timed section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import re
import resource
import string
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mlsspf as m  # noqa: E402
from mlsspf import lang  # noqa: E402
from probe import Sampler, probe, scale  # noqa: E402

# The structure of every instance comes from fixed pool seeds, so the cost
# mix (how many exhaustive searches, how many wide boards) is the same for
# every --seed; the seed renames the variables.  Renaming keeps the
# variables' sorted order, which fixes the order of the search in `decide`,
# and the operations run in a fixed order, because each one reuses the sets
# its predecessors interned.  With freely drawn structures the per-seed
# totals of `decide` and `wide` were measured to vary by a factor of 2 to 4,
# and with order-changing renames the p90 latency of `decide` by 12%.
DECIDE_POOL_SEED = 1
WIDE_POOL_SEED = 1
DECIDE_POOL = 60
WIDE_POOL = 64

CORPUS = ROOT / "tests" / "golden" / "decide_corpus.json"
HARD = "x in y & y in z & z in x & !Finite(w)"
LITERALS = ("{a} = {b}", "!{a} = {b}", "{a} = {{}}", "!{a} = {{}}",
            "{a} = {b} U {c}", "{a} = {b} I {c}", "{a} = {b} \\ {c}",
            "{a} <= {b}", "!{a} <= {b}", "{a} in {b}", "!{a} in {b}",
            "{a} = Pow({b})", "{a} = {{{b}}}", "Finite({a})", "!Finite({a})")
NAMES = [c for c in string.ascii_lowercase] + [
    c + d for c in string.ascii_lowercase for d in "0123456789"]

# certify_witness rejections that are verdicts on an input, not failures.
CERTIFY_VERDICTS = ("NotAWitness", "NoEvent", "CoverMissesVariable")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fresh_names(rng, n):
    """n new variable names, sorted: renaming the i-th least variable to the
    i-th least name keeps the order in which `decide` binds variables."""
    return sorted(rng.sample(NAMES, n))


def render(templates, names):
    """Formula text of (template, operand indices) pairs over the names."""
    return " & ".join(t.format(**dict(zip("abc", (names[i] for i in idx))))
                      for t, idx in templates)


def renamed(rng, text, binding):
    """The formula text and its binding with every variable renamed."""
    new = dict(zip(sorted(binding), fresh_names(rng, len(binding))))
    text = re.sub(r"[A-Za-z_][A-Za-z0-9_]*",
                  lambda mt: new.get(mt.group(), mt.group()), text)
    return text, {new[v]: val for v, val in binding.items()}


# --- decide -----------------------------------------------------------------

def decide_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for e in json.loads(CORPUS.read_text())["entries"]:
        b = e["budget"]
        ops.append({"id": "corpus:" + e["name"], "text": e["formula"],
                    "rank": b["maxRank"], "universe": b["maxUniverse"],
                    "golden": e["result"]})
    ops.append({"id": "hard", "text": HARD, "rank": 4, "universe": 4,
                "verdict": m.UNSAT_WITHIN_BUDGET})
    pool = random.Random(DECIDE_POOL_SEED)
    for i in range(DECIDE_POOL):
        templates = [(pool.choice(LITERALS),
                      tuple(pool.randrange(3) for _ in range(3)))
                     for _ in range(pool.randint(1, 3))]
        ops.append({"id": f"random:{i}",
                    "text": render(templates, fresh_names(rng, 3)),
                    "rank": 4, "universe": 4})
    return ops


def decide_op(op):
    t0 = time.perf_counter()
    formula = m.parse(op["text"])
    result = m.decide(formula, m.SearchBudget(max_rank=op["rank"],
                                              max_universe=op["universe"]))
    ms = (time.perf_counter() - t0) * 1e3
    out = json.dumps(result.to_json(), sort_keys=True, indent=2)
    return {"outcome": result.verdict, "digest": digest(out), "ms": ms}, \
        (formula, result, out)


def decide_check(op, kept):
    formula, result, out = kept
    if "golden" in op:
        return [] if out == op["golden"] else ["differs from the golden corpus"]
    if "verdict" in op and result.verdict != op["verdict"]:
        return [f"verdict {result.verdict}, expected {op['verdict']}"]
    if result.verdict == m.SAT_MODEL:
        if not lang.evaluate(formula, result.assignment).satisfied:
            return ["SatModel does not satisfy the formula"]
    if result.verdict == m.SAT_WITNESSED:
        return certificate_problems(result.certificate)
    return []


# --- wide -------------------------------------------------------------------

def _universe(rng, size):
    """A transitive set of `size` HfSets, grown by adjoining subsets."""
    out = []
    while len(out) < size:
        mask = rng.getrandbits(len(out)) if out else 0
        e = m.make_set(out[i] for i in range(len(out)) if mask >> i & 1)
        if e not in out:
            out.append(e)
    return out


def wide_inputs(seed):
    rng = random.Random(seed)
    pool = random.Random(WIDE_POOL_SEED)
    ops = []
    for i in range(WIDE_POOL):
        size = pool.randint(12, 18)
        k = pool.randint(8, min(13, size))
        universe = _universe(pool, size)
        pool.shuffle(universe)
        names = fresh_names(rng, k + 2)
        binding = {names[j]: m.make_set(universe[j::k]) for j in range(k)}
        templates = [("!Finite({a})", (pool.randrange(k),))]
        templates += [("!{a} = {{}}", (j,)) for j in range(k)]
        if i % 2:
            z = m.make_set(pool.sample(universe, 2))
            binding[names[k]], binding[names[k + 1]] = z, m.powerset(z)
            templates.append(("{b} = Pow({a})", (k, k + 1)))
        ops.append({"id": f"wide:{i}",
                    "formula": m.parse(render(templates, names)),
                    "assignment": m.Assignment(binding)})
    return ops


def wide_op(op):
    t0 = time.perf_counter()
    try:
        cert = m.certify_witness(op["formula"], op["assignment"])
    except m.MlsspfError as exc:
        ms = (time.perf_counter() - t0) * 1e3
        cls = type(exc).__name__
        rec = {"outcome": cls, "digest": digest(cls), "ms": ms}
        if cls not in CERTIFY_VERDICTS:
            rec["failure"] = cls
        return rec, None
    ms = (time.perf_counter() - t0) * 1e3
    return {"outcome": "certified", "digest": digest(cert.dumps()), "ms": ms}, cert


# --- pump -------------------------------------------------------------------

def _chain(n):
    out = [m.make_set([])]
    for _ in range(n):
        out.append(m.make_set([out[-1]]))
    return out


def witness_family():
    """The witness family of the test suite (tests/conftest.py), copied so
    that the benchmark's inputs do not move when the tests change."""
    out = []
    for n in range(2, 7):
        e = _chain(n)
        out.append(("w in x & !Finite(x)",
                    {"w": e[1], "x": m.make_set(e[1:n + 1])}))
    for n in range(2, 5):
        e = _chain(n)
        out.append(("!Finite(x)", {"x": m.make_set(e[1:n + 1])}))
    e = _chain(3)
    out.append(("x = y U w & !Finite(x)",
                {"x": m.make_set(e[0:3]), "y": m.make_set([e[0]]),
                 "w": m.make_set(e[1:3])}))
    out.append(("Finite(w) & w in x & !Finite(x)",
                {"w": e[1], "x": m.make_set(e[1:4])}))
    out.append(("u = Pow(w) & w = {} & v in x & !Finite(x)",
                {"u": m.make_set([e[0]]), "w": e[0], "v": e[1],
                 "x": m.make_set(e[1:4])}))
    out.append(("y <= x & w in y & !Finite(x)",
                {"y": m.make_set(e[1:3]), "w": e[1],
                 "x": m.make_set(e[1:4])}))
    out.append(("x = x I x & w in x & !Finite(x)",
                {"w": e[1], "x": m.make_set(e[1:4])}))
    return out


# Models that `decide` returns at rank 4 / universe 4 (the curve) and at
# rank 3 / universe 3 (the two certificates that cannot be pumped yet and
# raise CardinalityDeficit on extension; they stay in as counted failures).
DECIDED = ("w in x & !Finite(x)", {"w": [], "x": [[], [[]]]})
REPROS = {"!Finite(x) & x in w": {"w": [[], [[[]]]], "x": [[[]]]},
          "!y <= w & !Finite(w)": {"w": [[[]]], "y": [[], [[[]]]]}}
CURVE = (8, 10, 12, 13, 14)
FAMILY_ROUNDS = 3


def pump_inputs(seed):
    rng = random.Random(seed)
    ops = []
    for i, (orig, binding) in enumerate(witness_family()):
        text, binding = renamed(rng, orig, binding)
        ops.append({"id": f"family:{i}:{orig}", "text": text,
                    "assignment": m.Assignment(binding),
                    "rounds": FAMILY_ROUNDS})
    for orig, data in REPROS.items():
        text, data = renamed(rng, orig, data)
        ops.append({"id": f"repro:{orig}", "text": text,
                    "assignment": m.Assignment.from_json(data)[0],
                    "rounds": 1})
    # The curve runs last and in ascending order: each point reuses sets the
    # previous one interned, so its cost depends on what ran before it.
    text, data = renamed(rng, *DECIDED)
    for k in CURVE:
        ops.append({"id": f"curve:k{k:02d}", "text": text,
                    "assignment": m.Assignment.from_json(data)[0],
                    "rounds": k})
    return ops


def pump_op(op):
    formula = m.parse(op["text"])
    phases = {}
    t0 = time.perf_counter()
    cert = m.certify_witness(formula, op["assignment"])
    t1 = time.perf_counter()
    phases["certify_s"] = t1 - t0
    try:
        ext = m.extend_certificate(cert, op["rounds"])
        text = ext.dumps()
    except m.MlsspfError as exc:
        t2 = time.perf_counter()
        phases["pump_s"] = t2 - t1
        cls = type(exc).__name__
        return {"outcome": cls, "digest": digest(cls), "failure": cls,
                "ms": (t2 - t0) * 1e3, "phases": phases}, cert
    t2 = time.perf_counter()
    report = m.verify_certificate(json.loads(text))
    t3 = time.perf_counter()
    phases["pump_s"] = t2 - t1
    phases["verify_s"] = t3 - t2
    p = ext.pumped
    ok = report.ok and all(r.ok for r in (
        p.weak_report, p.segment_report, p.upward_report, p.imitation_report,
        p.transfer_report))
    rec = {"outcome": "pumped" if ok else "not-ok",
           "digest": digest(text + json.dumps(report.to_json(), sort_keys=True)),
           "ms": (t3 - t0) * 1e3, "phases": phases}
    if not ok:
        rec["failure"] = "ReportNotOk"
    return rec, cert


# --- shared -----------------------------------------------------------------

def certificate_problems(cert):
    """Independent checks of a witness certificate's claims."""
    problems = []
    formula, proc, ev = cert.formula, cert.process, cert.event
    _, im, board = m.canonical_board(formula, cert.assignment)
    for lit, val in zip(formula.literals,
                        lang.evaluate(formula, cert.assignment).results):
        if lit.kind != lang.NOT_FINITE and not val:
            problems.append(f"literal {lit.render()} is false")
    if not m.validate_process(proc).ok:
        problems.append("process does not validate")
    if not m.is_pumping_event(proc, board, ev.q0, ev.i0, ev.cycle).ok:
        problems.append("event is not a pumping event")
    if not m.is_closed(proc, board, cert.cover):
        problems.append("cover is not closed")
    if not ev.cycle.place_set() <= cert.cover:
        problems.append("cover misses the cycle")
    for lit in formula.literals:
        if lit.kind == lang.NOT_FINITE and \
                not im[lit.operands[0]] & ev.cycle.place_set():
            problems.append(f"cycle misses the region of {lit.operands[0]}")
    return problems


def certificate_check(op, cert):
    return certificate_problems(cert)


# name -> (inputs from a seed, run one operation, check its kept output)
WORKLOADS = {
    "decide": (decide_inputs, decide_op, decide_check),
    "wide": (wide_inputs, wide_op, certificate_check),
    "pump": (pump_inputs, pump_op, certificate_check),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    make_inputs, run_op, check = WORKLOADS[args.workload]
    ops = make_inputs(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    interned_before = len(m.HfSet._intern)
    records, kept = [], []
    with Sampler() as sampler:
        before = probe()
        for op in ops:
            t_op = time.perf_counter()
            try:
                rec, keep = run_op(op)
            except Exception as exc:  # noqa: BLE001 - counted, never filtered
                cls = type(exc).__name__
                rec, keep = {"outcome": cls, "digest": digest(cls),
                             "failure": cls,
                             "ms": (time.perf_counter() - t_op) * 1e3}, None
            t_end = time.perf_counter()
            after = probe()
            inside = sampler.between(t_op, t_end)
            factor = scale([before, after] + inside, sum(inside),
                           (t_end - t_op) * 1e3)
            before = after
            rec["id"] = op["id"]
            rec["raw_ms"] = rec["ms"]
            rec["ms"] *= factor
            rec["phases"] = {k: v * factor
                             for k, v in rec.get("phases", {}).items()}
            records.append(rec)
            kept.append(keep)
    if tracer is not None:
        tracer.uninstall()
    counters = {"hf.intern_new": len(m.HfSet._intern) - interned_before,
                "hf.intern_size": len(m.HfSet._intern)}

    problems = []
    for op, keep in zip(ops, kept):
        if keep is not None:
            problems += [f"{op['id']}: {p}" for p in check(op, keep)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "records": records, "rss_mb": rss_kb / 1024.0,
        "problems": problems, "counters": counters,
        "trace": tracer.snapshot() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
