import json
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, lang
from mlsspf.errors import (CannotWarmUp, CardinalityDeficit,
                           CoverMissesVariable, LimitExceeded, NoClosedCover,
                           NoEvent, NoLocalTrash, NotAWitness)
from mlsspf.limits import DEFAULT_LIMITS, Limits
from mlsspf.solver import _subsets_in_order, enumerate_universes

from conftest import chain

A, B, C = chain(2)


def test_enumerate_universes_small():
    us = enumerate_universes(max_rank=3, max_universe=3)
    assert us[0] == frozenset()
    assert us[1] == frozenset([A])
    assert us[2] == frozenset([A, B])
    assert all(len(u) <= 3 for u in us)
    for u in us:
        members = set(u)
        assert all(set(e.elements) <= members for e in u)
    assert len(us) == len(set(us))


def test_enumerate_universes_respects_rank():
    us = enumerate_universes(max_rank=2, max_universe=4)
    assert all(e.rank < 2 for u in us for e in u)


def test_decide_sat_model_example():
    r = m.decide(m.parse("x = {y} & y = {}"), m.SearchBudget())
    assert r.verdict == m.SAT_MODEL
    assert r.assignment.bindings["y"] is A
    assert r.assignment.bindings["x"] is B


def test_decide_contradiction_is_unsat_within_budget():
    r = m.decide(m.parse("x = {} & !x = {}"), m.SearchBudget(max_universe=3))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET
    # Pruning at x leaves no leaf to test in any universe; unconstrained
    # variables bound after it must not turn exhaustion into Unknown.
    r = m.decide(m.parse("x = {} & !x = {} & y <= z"),
                 m.SearchBudget(max_rank=3, max_universe=3))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET


def test_decide_ex1_is_witnessed(ex1):
    r = m.decide(ex1.formula, m.SearchBudget(max_rank=4))
    assert r.verdict == m.SAT_WITNESSED
    assert r.certificate is not None
    rep = m.verify_certificate(json.loads(r.certificate.dumps()))
    assert rep.ok


def test_decide_trivial_budget_is_unknown():
    r = m.decide(m.parse("!x = {}"), m.SearchBudget(max_universe=0))
    assert r.verdict == m.UNKNOWN
    r = m.decide(m.parse("!x = {}"), m.SearchBudget(max_rank=0))
    assert r.verdict == m.UNKNOWN
    r = m.decide(m.parse("!x = {} & x = {}"), m.SearchBudget(max_universe=1))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET


def test_decide_is_deterministic():
    f = m.parse("w in x & !Finite(x)")
    a = m.decide(f, m.SearchBudget()).to_json()
    b = m.decide(f, m.SearchBudget()).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_decide_smallest_witness_first():
    r = m.decide(m.parse("!Finite(x)"), m.SearchBudget())
    assert r.verdict == m.SAT_WITNESSED
    assert r.certificate.base_assignment.bindings["x"] is m.make_set([A, B])


def test_decide_mixed_finite_literals():
    f = m.parse("Finite(w) & w in x & !Finite(x)")
    r = m.decide(f, m.SearchBudget())
    assert r.verdict == m.SAT_WITNESSED
    assert "w" not in r.certificate.potential_infinite


def test_decide_pow_formulas():
    r = m.decide(m.parse("u = Pow(w) & w = {}"), m.SearchBudget())
    assert r.verdict == m.SAT_MODEL
    r = m.decide(m.parse("u = Pow(w) & u = w"), m.SearchBudget(max_universe=3))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET


def _decide_unpruned(formula, budget):
    """Reference search: every leaf of the product, literals checked there."""
    limits = budget.limits
    has_neg = any(lit.kind == lang.NOT_FINITE for lit in formula.literals)
    names = list(formula.vars)
    if not names:
        return m.DecideResult(m.UNKNOWN)
    searched = False
    for universe in enumerate_universes(budget.max_rank, budget.max_universe):
        elems = tuple(sorted(universe, key=lambda e: e._key))
        choices = _subsets_in_order(elems)
        target = hf.make_set(universe)
        for combo in product(choices, repeat=len(names)):
            support = set()
            for v in combo:
                support |= set(v.elements)
            if hf.transitive_closure(hf.make_set(support)) is not target:
                continue
            searched = True
            assignment = m.Assignment(dict(zip(names, combo)))
            if has_neg:
                try:
                    cert = m.certify_witness(
                        formula, assignment, limits,
                        max_cycle_len=budget.max_cycle_len)
                except (NotAWitness, NoEvent, CoverMissesVariable,
                        NoClosedCover, CannotWarmUp, NoLocalTrash,
                        CardinalityDeficit, LimitExceeded):
                    continue
                return m.DecideResult(m.SAT_WITNESSED, certificate=cert)
            report = lang.evaluate(formula, assignment, limits)
            if report.satisfied:
                return m.DecideResult(m.SAT_MODEL, assignment=assignment)
    if budget.trivial or not searched:
        return m.DecideResult(m.UNKNOWN)
    return m.DecideResult(m.UNSAT_WITHIN_BUDGET)


_VARS = st.sampled_from(["w", "x", "y", "z"])


@st.composite
def small_formulas(draw):
    lits = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(sorted(lang._ARITY) + [lang.ENUM]))
        arity = (draw(st.integers(2, 3)) if kind == lang.ENUM
                 else lang._ARITY[kind])
        lits.append(lang.Literal(kind, tuple(draw(_VARS) for _ in range(arity))))
    return lang.Formula(tuple(lits))


def _outcome(search, formula, budget):
    try:
        return json.dumps(search(formula, budget).to_json(), sort_keys=True)
    except LimitExceeded as exc:
        return repr(exc)


@given(small_formulas(), st.sampled_from([1, 4, DEFAULT_LIMITS.pow_limit]))
@settings(max_examples=200, deadline=None)
def test_decide_matches_unpruned_search(formula, pow_limit):
    # Small pow limits make Pow literals raise LimitExceeded, which a plain
    # formula's search must let escape at the same leaf as the full product.
    budget = m.SearchBudget(max_rank=3, max_universe=3,
                            limits=Limits(pow_limit=pow_limit))
    assert (_outcome(m.decide, formula, budget)
            == _outcome(_decide_unpruned, formula, budget))
