"""Properties of the whole pipeline: every certificate that `decide` or
`certify_witness` issues pumps cleanly for any number of rounds, and
`verify` passes it; the identity extension (zero rounds) passes all five
pumped reports on every certified instance; and two oracles that share no
definition with the prover hold on every certified instance pumped one to
three rounds: the pumped assignment satisfies the formula, `!Finite`
variables growing with each round, and wherever the pumped partition
imitates the source, it simulates it upwards.  Sets hash by identity, so
what a run writes must not depend on where its sets lie in memory: three
interpreters with different heap layouts write the same outputs."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, lang

from conftest import wide_instance, witness_family
from oracles import simulates_upwards

_VARS = st.sampled_from(["w", "x", "y", "z"])


@st.composite
def infinite_formulas(draw):
    """One to three literals of any kind over w, x, y and z, and one
    !Finite literal among them."""
    lits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(lang._ARITY) + [lang.ENUM]))
        arity = (draw(st.integers(2, 3)) if kind == lang.ENUM
                 else lang._ARITY[kind])
        lits.append(lang.Literal(kind, tuple(draw(_VARS)
                                             for _ in range(arity))))
    lits.insert(draw(st.integers(0, len(lits))),
                lang.Literal(lang.NOT_FINITE, (draw(_VARS),)))
    return lang.Formula(tuple(lits))


def _assert_pumps(cert):
    """The certificate extended 0-3 rounds: all five reports ok, and verify
    passes."""
    for rounds in range(4):
        ext = m.extend_certificate(cert, rounds)
        assert ext.pumped.ok, (rounds, ext.pumped.failing())
        report = m.verify_certificate(json.loads(ext.dumps()))
        assert report.ok, (rounds, str(report))


@given(infinite_formulas())
@settings(max_examples=150, deadline=None)
def test_decided_certificates_pump_and_verify(formula):
    result = m.decide(formula, m.SearchBudget(max_rank=3, max_universe=3))
    if result.verdict == m.SAT_WITNESSED:
        _assert_pumps(result.certificate)


def _certified(instance):
    """The certificate `certify_witness` issues, or None when it refuses."""
    try:
        return m.certify_witness(*instance)
    except m.MlsspfError:
        return None


@given(st.integers(0, 199), st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_wide_certificates_pump_and_verify(seed, infinite):
    cert = _certified(wide_instance(seed, infinite))
    if cert is not None:
        _assert_pumps(cert)


@functools.cache
def _certified_instances():
    """Every certificate of `wide_instance(seed, 1-3)` for seeds 0-199 and
    of the witness family."""
    instances = [wide_instance(seed, infinite) for infinite in (1, 2, 3)
                 for seed in range(200)] + witness_family()
    return [cert for cert in map(_certified, instances) if cert is not None]


def test_identity_extension_passes_every_report():
    # Zero rounds copy the process onto itself: a report that fails there
    # states its condition wrongly.
    certs = _certified_instances()
    for cert in certs:
        pumped = m.extend_certificate(cert, 0).pumped
        assert pumped.ok, (cert.formula.render(), pumped.failing())
    # 65, 28 and 13 wide instances with 1, 2 and 3 !Finite literals, and
    # the 13 of the family.
    assert len(certs) == 119


@functools.cache
def _pumped_instances():
    """Each certified instance with the pumped extensions of its
    certificate at one, two and three rounds."""
    return [(cert, [m.extend_certificate(cert, k).pumped for k in (1, 2, 3)])
            for cert in _certified_instances()]


def test_pumped_assignments_satisfy_the_formula():
    # Judged by `lang.eval_literal` alone: every literal but Finite and
    # !Finite holds on the pumped assignment, each !Finite variable grows
    # with every round, and each Finite variable keeps its size.
    for cert, pumped in _pumped_instances():
        values = [cert.assignment] + [p.final_assignment for p in pumped]
        for lit in cert.formula.literals:
            if lit.kind in (lang.FINITE, lang.NOT_FINITE):
                sizes = [len(a.bindings[lit.operands[0]]) for a in values]
                grows = lit.kind == lang.NOT_FINITE
                assert sizes == (sorted(set(sizes)) if grows
                                 else sizes[:1] * 4), (lit, sizes)
            else:
                for k, a in enumerate(values[1:], 1):
                    assert lang.eval_literal(lit, a), (
                        cert.formula.render(), lit, k)


def test_imitation_implies_upward_simulation():
    # The lemma of the `relations` module, on the final partitions of the
    # certificate's process and of its pump by one round.
    for cert, pumped in _pumped_instances():
        board = cert.canonical_board()[2]
        bijection = m.BlockBijection(cert.process.final_blocks(),
                                     pumped[0].process.final_blocks())
        if m.imitates(board, bijection).ok:
            assert simulates_upwards(board, bijection).ok, (
                cert.formula.render())


# Allocates argv[1] objects and interns 300 unrelated sets in an order drawn
# from that number, then prints one digest over certificates, pumped
# certificates, verify reports and decide results.
_DIGEST_SCRIPT = """
import hashlib, json, random, sys
padding = int(sys.argv[1])
pad = [object() for _ in range(padding)]
import mlsspf as m
rng = random.Random(padding)
pool = [m.EMPTY]
for _ in range(300):
    pool.append(m.make_set(rng.sample(pool, min(len(pool), rng.randint(0, 4)))))
from conftest import wide_instance, witness_family
digest = hashlib.sha256()
def add(text):
    digest.update(text.encode() + b"\\0")
for seed in range(6):
    try:
        add(m.certify_witness(*wide_instance(seed)).dumps())
    except m.MlsspfError as exc:
        add(f"{type(exc).__name__}: {exc}")
for formula, assignment in witness_family():
    text = m.extend_certificate(m.certify_witness(formula, assignment), 3).dumps()
    add(text)
    add(str(m.verify_certificate(json.loads(text))))
with open(sys.argv[2]) as f:
    corpus = json.load(f)
for entry in corpus["entries"]:
    budget = m.SearchBudget(max_rank=entry["budget"]["maxRank"],
                            max_universe=entry["budget"]["maxUniverse"])
    result = m.decide(m.parse(entry["formula"]), budget)
    add(json.dumps(result.to_json(), sort_keys=True))
print(digest.hexdigest())
"""


def test_outputs_do_not_depend_on_set_hashes():
    # Interning makes equality identity, so HfSet keeps object's hash and
    # equality, which run in C, and defines no order of its own.
    assert hf.HfSet.__hash__ is object.__hash__
    assert hf.HfSet.__eq__ is object.__eq__
    assert "__lt__" not in vars(hf.HfSet)
    assert "_hash" not in hf.HfSet.__slots__
    # Identity hashes, and with them the iteration order of sets and dicts
    # of sets, differ between interpreters that allocate differently.
    tests = Path(__file__).resolve().parent
    src = Path(m.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(tests), os.environ.get("PYTHONPATH", "")]))
    corpus = tests / "golden" / "decide_corpus.json"
    digests = set()
    for padding in (0, 10_007, 300_000):
        run = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, str(padding), str(corpus)],
            capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        digests.add(run.stdout)
    assert len(digests) == 1, digests
