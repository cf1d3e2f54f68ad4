"""Regenerate the golden files (run manually from the repo root:
`python3 tests/make_golden.py`).

`decide_corpus.json` freezes the verdict and the full result JSON of each
corpus formula; `pumped_certificates.json` freezes the sha256 digest of
every pumped certificate of the witness family at 1, 2 and 3 rounds;
`pumped_wide.json` freezes, for a few `wide_instance` seeds (8 to 13
places), the digest of the certificate pumped one round or the
"Class: message" of the error the pump raises; `certified_wide.json` freezes, for
`wide_instance` seeds 0-199, the digest of the certificate
`certify_witness` issues (not pumped) or the "Class: message" of the
error it raises.  The acceptance tests replay all four byte-for-byte."""

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import mlsspf as m  # noqa: E402
from conftest import wide_instance, witness_family  # noqa: E402

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
PUMP_ROUNDS = (1, 2, 3)
# A clean pump (12), and pumps that failed reports or raised
# CardinalityDeficit or NoLocalTrash while rounds started at the cycle's
# first place and pow-nodes were read off the powerset's target.
WIDE_SEEDS = (0, 11, 12, 27, 28, 33, 85, 139)
CERTIFIED_WIDE_SEEDS = range(200)

# (name, formula, max_rank, max_universe, expected verdict)
CORPUS = [
    # Boolean / membership fragment, satisfiable within rank 3.
    ("empty", "x = {}", 3, 3, m.SAT_MODEL),
    ("eq", "x = y", 3, 3, m.SAT_MODEL),
    ("singleton", "x = {y} & y = {}", 3, 3, m.SAT_MODEL),
    ("union-empty", "x = y U z & y = {} & z = {}", 3, 3, m.SAT_MODEL),
    ("member-singleton", "w in x & x = {w}", 3, 3, m.SAT_MODEL),
    ("inter", "x = y I z & y = {z} & z = {}", 3, 3, m.SAT_MODEL),
    ("diff", "x = y \\ z & y = {z} & z = {}", 3, 3, m.SAT_MODEL),
    ("antisym", "x <= y & y <= x & !x = {}", 3, 3, m.SAT_MODEL),
    ("neq", "!x = y", 3, 3, m.SAT_MODEL),
    ("notin", "!x in y & x in z & z = {x}", 3, 3, m.SAT_MODEL),
    # Boolean / membership fragment, unsatisfiable.
    ("empty-clash", "x = {} & !x = {}", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("membership-cycle", "x in y & y in x", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("subset-clash", "x <= y & !x <= y", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("singleton-empty", "x = {y} & x = {}", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("eq-clash", "x = y & !x = y", 3, 3, m.UNSAT_WITHIN_BUDGET),
    # One (or two) powerset occurrences.
    ("pow-empty", "u = Pow(w) & w = {}", 4, 4, m.SAT_MODEL),
    ("pow-singleton", "u = Pow(w) & w = {v} & v = {}", 4, 4, m.SAT_MODEL),
    ("pow-self-member", "u = Pow(w) & w in u", 4, 4, m.SAT_MODEL),
    ("pow-nonsubset", "u = Pow(w) & v in u & !v <= w", 3, 3,
     m.UNSAT_WITHIN_BUDGET),
    ("pow-fixpoint", "u = Pow(w) & u = w", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("pow-shrinks", "u = Pow(w) & u <= w", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("pow-member", "u = Pow(w) & u in w", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("pow-pow", "v = Pow(w) & u = Pow(v) & w = {}", 4, 4, m.SAT_MODEL),
    # Finiteness constraints: witnessed or exhausted.
    ("infinite-member", "w in x & !Finite(x)", 4, 4, m.SAT_WITNESSED),
    ("infinite", "!Finite(x)", 4, 4, m.SAT_WITNESSED),
    ("finite-seed", "Finite(w) & w in x & !Finite(x)", 4, 4, m.SAT_WITNESSED),
    ("infinite-union", "x = y U w & !Finite(x)", 4, 4, m.SAT_WITNESSED),
    ("finite-clash", "!Finite(x) & Finite(x)", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("infinite-empty", "!Finite(x) & x = {}", 3, 3, m.UNSAT_WITHIN_BUDGET),
    ("two-infinite", "!Finite(x) & !Finite(y) & w in x & w in y", 4, 4,
     m.SAT_WITNESSED),
]


def pumped_digest(formula, assignment, rounds) -> str:
    cert = m.extend_certificate(m.certify_witness(formula, assignment), rounds)
    return hashlib.sha256(cert.dumps().encode()).hexdigest()


def write_decide_corpus():
    entries = []
    for name, text, max_rank, max_universe, expected in CORPUS:
        budget = m.SearchBudget(max_rank=max_rank, max_universe=max_universe)
        result = m.decide(m.parse(text), budget)
        assert result.verdict == expected, (name, result.verdict, expected)
        entries.append({
            "name": name,
            "formula": text,
            "budget": {"maxRank": max_rank, "maxUniverse": max_universe},
            "verdict": result.verdict,
            "result": json.dumps(result.to_json(), sort_keys=True, indent=2),
        })
        print(f"{name}: {result.verdict}")
    _write(GOLDEN_DIR / "decide_corpus.json", entries)


def write_pumped_certificates():
    entries = []
    for formula, assignment in witness_family():
        for rounds in PUMP_ROUNDS:
            entries.append({
                "formula": formula.render(),
                "assignment": assignment.to_json(),
                "rounds": rounds,
                "sha256": pumped_digest(formula, assignment, rounds),
            })
            print(f"{formula.render()} @ {rounds}: {entries[-1]['sha256']}")
    _write(GOLDEN_DIR / "pumped_certificates.json", entries)


def wide_outcome(seed) -> str:
    """sha256 of wide_instance(seed) certified and pumped one round, or the
    "Class: message" of the error that raises."""
    try:
        return pumped_digest(*wide_instance(seed), 1)
    except m.MlsspfError as exc:
        return f"{type(exc).__name__}: {exc}"


def write_pumped_wide():
    entries = []
    for seed in WIDE_SEEDS:
        entries.append({"seed": seed, "outcome": wide_outcome(seed)})
        print(f"wide_instance({seed}): {entries[-1]['outcome']}")
    _write(GOLDEN_DIR / "pumped_wide.json", entries)


def certified_outcome(seed) -> str:
    """sha256 of the certificate certify_witness issues for
    wide_instance(seed), or the "Class: message" of the error it raises."""
    try:
        cert = m.certify_witness(*wide_instance(seed))
    except m.MlsspfError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(cert.dumps().encode()).hexdigest()


def write_certified_wide():
    entries = [{"seed": seed, "outcome": certified_outcome(seed)}
               for seed in CERTIFIED_WIDE_SEEDS]
    _write(GOLDEN_DIR / "certified_wide.json", entries)


def _write(out, entries):
    out.write_text(json.dumps({"entries": entries}, sort_keys=True, indent=2)
                   + "\n")
    print(f"wrote {out} ({len(entries)} entries)")


def main():
    write_decide_corpus()
    write_pumped_certificates()
    write_pumped_wide()
    write_certified_wide()


if __name__ == "__main__":
    main()
