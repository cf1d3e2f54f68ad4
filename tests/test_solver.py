import json
import sys
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, lang, solver, venn
from mlsspf.errors import (CannotWarmUp, CardinalityDeficit,
                           CoverMissesVariable, NoClosedCover, NoEvent,
                           NoLocalTrash, NotAWitness)
from mlsspf.solver import _universe_table, _Walk, enumerate_universes

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


def test_zero_budget_still_searches_the_empty_universe():
    # Unknown replaces only UnsatWithinBudget: a model in the empty
    # universe is found under a zero bound too.
    for budget in (m.SearchBudget(max_rank=0), m.SearchBudget(max_universe=0)):
        r = m.decide(m.parse("x = {}"), budget)
        assert r.verdict == m.SAT_MODEL
        assert r.assignment.bindings["x"] is hf.EMPTY


def test_decide_trivial_budget_is_unknown():
    r = m.decide(m.parse("!x = {}"), m.SearchBudget(max_universe=0))
    assert r.verdict == m.UNKNOWN
    r = m.decide(m.parse("!x = {}"), m.SearchBudget(max_rank=0))
    assert r.verdict == m.UNKNOWN
    r = m.decide(m.parse("!x = {} & x = {}"), m.SearchBudget(max_universe=1))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET


def test_negative_budget_is_rejected():
    for bounds in ({"max_rank": -1}, {"max_universe": -1}):
        with pytest.raises(ValueError, match="must be at least 0"):
            m.SearchBudget(**bounds)
    assert m.SearchBudget(max_rank=0, max_universe=0).trivial


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


def _subsets_in_order(elems):
    """Subsets of a canonically ordered tuple, by size then position mask."""
    n = len(elems)
    masks = sorted(range(2 ** n), key=lambda m: (bin(m).count("1"), m))
    return [hf.make_set(elems[i] for i in range(n) if mask >> i & 1)
            for mask in masks]


def _decide_unpruned(formula, budget):
    """Reference search: every leaf of the product, literals checked there."""
    has_neg = any(lit.kind == lang.NOT_FINITE for lit in formula.literals)
    names = list(formula.vars)
    if not names:
        return m.DecideResult(m.UNKNOWN)
    searched = False
    for universe in enumerate_universes(budget.max_rank, budget.max_universe):
        elems = tuple(sorted(universe, key=hf.order_key))
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
                    cert = m.certify_witness(formula, assignment,
                                             budget.max_cycle_len)
                except (NotAWitness, NoEvent, CoverMissesVariable,
                        NoClosedCover, CannotWarmUp, NoLocalTrash,
                        CardinalityDeficit):
                    continue
                return m.DecideResult(m.SAT_WITNESSED, certificate=cert)
            report = lang.evaluate(formula, assignment)
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
    return json.dumps(search(formula, budget).to_json(), sort_keys=True)


@given(small_formulas())
@settings(max_examples=200, deadline=None)
def test_decide_matches_unpruned_search(formula):
    budget = m.SearchBudget(max_rank=3, max_universe=3)
    assert (_outcome(m.decide, formula, budget)
            == _outcome(_decide_unpruned, formula, budget))


@st.composite
def pumping_formulas(draw, red_kinds):
    """A small formula with a !Finite literal added, and a Finite or an
    enumeration literal as `red_kinds` draws one (None: neither)."""
    extra = [lang.Literal(lang.NOT_FINITE, (draw(_VARS),))]
    kind = draw(red_kinds)
    if kind == lang.FINITE:
        extra.append(lang.Literal(kind, (draw(_VARS),)))
    elif kind == lang.ENUM:
        extra.append(lang.Literal(kind, tuple(
            draw(_VARS) for _ in range(draw(st.integers(2, 3))))))
    lits = draw(small_formulas()).literals + tuple(extra)
    return lang.Formula(tuple(draw(st.permutations(lits))))


_RED_KINDS = st.sampled_from([lang.FINITE, lang.ENUM])


@given(pumping_formulas(_RED_KINDS))
@settings(max_examples=100, deadline=None)
def test_decide_matches_unpruned_search_with_pump_test(formula):
    # The formula always has a !Finite literal and a red one, so the leaf
    # test drops most leaves; the unpruned search certifies every leaf.
    budget = m.SearchBudget(max_rank=3, max_universe=3)
    assert (_outcome(m.decide, formula, budget)
            == _outcome(_decide_unpruned, formula, budget))


def test_decide_certifies_no_leaf_without_a_green_element(monkeypatch):
    # A count guard: every leaf here has v \ F empty for the !Finite
    # variable.  Without the leaf test decide made 3,321 and 1,328
    # certify_witness calls, each of them rejected.
    calls = []
    certify = solver.certify_witness

    def counting(*args):
        calls.append(None)
        return certify(*args)

    monkeypatch.setattr(solver, "certify_witness", counting)
    for text, rank, size in (("!Finite(x) & Finite(y) & x <= y", 4, 5),
                             ("!Finite(x) & Finite(x)", 5, 5)):
        r = m.decide(m.parse(text), m.SearchBudget(rank, size))
        assert r.verdict == m.UNSAT_WITHIN_BUDGET
    assert calls == []


def _leaves_per_node(names, choices, closures, universe, checks):
    """Reference walk: every literal of checks[d] evaluated at every node."""
    bindings = {}
    prefix = SimpleNamespace(bindings=bindings)
    last = len(names) - 1

    def walk(depth, covered):
        name, here = names[depth], checks[depth]
        for value, closure in zip(choices, closures):
            bindings[name] = value
            if not all(lang.eval_literal(lit, prefix) for lit in here):
                continue
            union = covered | closure
            if depth < last:
                yield from walk(depth + 1, union)
            elif union == universe:
                yield m.Assignment(bindings)

    return walk(0, frozenset())


_UNIVERSES = enumerate_universes(max_rank=4, max_universe=4)

# Literals that name their last-bound variable twice: x = x U y, x = {y, x}.
_REPEATED = [lang.Literal(lang.UNION, ("x", "x", "y")),
             lang.Literal(lang.ENUM, ("x", "y", "x"))]


@given(small_formulas(), st.lists(st.sampled_from(_REPEATED), max_size=2),
       st.sampled_from(_UNIVERSES))
@settings(max_examples=150, deadline=None)
def test_leaves_match_per_node_walk(formula, repeated, universe):
    # Both walks must keep the same leaves in the same order.
    formula = lang.Formula(formula.literals + tuple(repeated))
    names = list(formula.vars)
    depth = {v: i for i, v in enumerate(names)}
    checks = [[] for _ in names]
    for lit in formula.literals:
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE):
            checks[max(depth[v] for v in lit.operands)].append(lit)
    choices = _subsets_in_order(tuple(sorted(universe, key=hf.order_key)))
    closures = [frozenset(hf.transitive_closure(c).elements) for c in choices]
    assert ([dict(a.bindings)
             for a in _Walk(names, checks).leaves(_universe_table(universe))]
            == [dict(a.bindings) for a in _leaves_per_node(
                names, choices, closures, universe, checks)])


def test_hard_search_evaluates_few_literals(monkeypatch):
    # A count, not a timing: the per-node walk made 118,581 calls here.
    calls = []
    evaluate_one = lang.eval_literal

    def counting(*args):
        calls.append(None)
        return evaluate_one(*args)

    monkeypatch.setattr(lang, "eval_literal", counting)
    r = m.decide(m.parse("x in y & y in z & z in x & !Finite(w)"),
                 m.SearchBudget(max_rank=4, max_universe=4))
    assert r.verdict == m.UNSAT_WITHIN_BUDGET
    assert len(calls) < 20_000


# The (5, 5) universes that hold five elements: 88 of its 102.
_FIVES = [u for u in enumerate_universes(max_rank=5, max_universe=5)
          if len(u) == 5]


def test_universe_table_matches_set_operations():
    for universe in _UNIVERSES + tuple(_FIVES):
        table = _universe_table(universe)
        elems = tuple(sorted(universe, key=hf.order_key))
        assert list(table.choices) == _subsets_in_order(elems)
        for j, c in enumerate(table.choices):
            assert [elems[i] for i in range(len(elems))
                    if table.emask[j] >> i & 1] == list(c.elements)
            assert table.choice_of[table.emask[j]] == j
            assert (table.elem_index[j] >= 0) == (c in universe)
            if c in universe:
                assert table.elem_choice[table.elem_index[j]] == j
            closure = hf.transitive_closure(c).elements
            assert table.cmask[j] == sum(1 << elems.index(e) for e in closure)
            assert table.members_of(j) == sum(
                1 << k for k, d in enumerate(table.choices) if d in c)
            assert table.holders_of(j) == sum(
                1 << k for k, d in enumerate(table.choices) if c in d)
            assert table.subsets_of(j) == sum(
                1 << k for k, d in enumerate(table.choices)
                if hf.subset(d, c))
            assert table.sup[table.emask[j]] == sum(
                1 << k for k, d in enumerate(table.choices)
                if hf.subset(c, d))
        assert table.nonempty == sum(
            1 << i for i, e in enumerate(elems) if e.elements)
        assert table.held == sum(
            1 << i for i, e in enumerate(elems)
            if any(e in d for d in elems))


def test_tables_of_five_elements_intern_no_set(monkeypatch):
    # A count guard: a table reads its universe's members and the tables
    # of its size, and builds no HfSet.  The tables of one size are built
    # once, for sizes 0 to 5.
    universes = enumerate_universes(5, 5)
    calls = []
    make_set = hf.make_set

    def counting(*args):
        calls.append(None)
        return make_set(*args)

    monkeypatch.setattr(hf, "make_set", counting)
    _universe_table.cache_clear()
    solver._size_table.cache_clear()
    for universe in universes:
        _universe_table(universe)
    assert len(universes) == 102
    assert _universe_table.cache_info().misses == 102
    assert calls == []
    assert solver._size_table.cache_info().misses == 6


_MASKED = sorted(set(lang._ARITY) - {lang.FINITE, lang.NOT_FINITE}) + [lang.ENUM]


def test_hard_search_reuses_its_tables(monkeypatch):
    # Counts, not timings.  The first search builds its universes and
    # tables and compiles every mask without eval_literal; a second one in
    # the same process builds no table and interns no new set.
    calls = []
    evaluate_one = lang.eval_literal

    def counting(*args):
        calls.append(None)
        return evaluate_one(*args)

    monkeypatch.setattr(lang, "eval_literal", counting)
    enumerate_universes.cache_clear()
    _universe_table.cache_clear()
    formula = m.parse("x in y & y in z & z in x & !Finite(w)")
    budget = m.SearchBudget(max_rank=4, max_universe=4)
    assert m.decide(formula, budget).verdict == m.UNSAT_WITHIN_BUDGET
    assert _universe_table.cache_info().misses == 14
    assert len(enumerate_universes(4, 4)) == 14
    assert calls == []
    interned = len(hf.HfSet._intern)
    assert m.decide(formula, budget).verdict == m.UNSAT_WITHIN_BUDGET
    assert _universe_table.cache_info().misses == 14
    assert _universe_table.cache_info().hits == 14
    assert len(hf.HfSet._intern) == interned


def test_hard_search_builds_no_choice(monkeypatch):
    # A count guard: the hard search at rank 4 / universe 4 reaches no leaf,
    # so it reads no choice's HfSet and makes no make_set call for one.
    # Building every choice with its table interned 59 more sets at this
    # budget, and 15,094 more at rank 5 / universe 6.
    reads = []
    read_one = solver._Choices.__getitem__

    def counting(choices, j):
        reads.append(j)
        return read_one(choices, j)

    monkeypatch.setattr(solver._Choices, "__getitem__", counting)
    _universe_table.cache_clear()
    formula = m.parse("x in y & y in z & z in x & !Finite(w)")
    budget = m.SearchBudget(max_rank=4, max_universe=4)
    assert m.decide(formula, budget).verdict == m.UNSAT_WITHIN_BUDGET
    assert reads == []


_PAIRS = (("w", "x"), ("y", "z"))


@st.composite
def split_formulas(draw):
    """Literals over w, x and over y, z: two components or more, each with
    a literal that names one variable only (x in x, x <= x, x = x,
    !x = {}, x = Pow(x), ...), which narrows a root domain."""
    lits = []
    for pair in _PAIRS:
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(_MASKED))
            arity = (draw(st.integers(2, 3)) if kind == lang.ENUM
                     else lang._ARITY[kind])
            operands = tuple(draw(st.sampled_from(pair)) for _ in range(arity))
            lits.append(lang.Literal(kind, operands))
        kind = draw(st.sampled_from(_MASKED))
        arity = 2 if kind == lang.ENUM else lang._ARITY[kind]
        lits.append(lang.Literal(kind, (draw(st.sampled_from(pair)),) * arity))
    return lang.Formula(tuple(draw(st.permutations(lits))))


def _checks(names, formula):
    depth = {v: i for i, v in enumerate(names)}
    checks = [[] for _ in names]
    for lit in formula.literals:
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE):
            checks[max(depth[v] for v in lit.operands)].append(lit)
    return checks


# Up to eight values per variable keeps the per-node walk over five
# variables small.
_SMALL_UNIVERSES = [u for u in _UNIVERSES if len(u) <= 3]


@given(split_formulas(), st.integers(0, 4), st.sampled_from(_SMALL_UNIVERSES))
@settings(max_examples=150, deadline=None)
def test_leaves_match_per_node_walk_on_components(formula, at, universe):
    # A variable that no literal names, bound at any depth, and literals on
    # one variable, which set root domains: the forward-checking walk keeps
    # the leaves of the per-node walk, in the same order.  A component
    # whose literals have no solution without the cover test leaves the
    # whole universe without leaves, which is what lets decide skip it.
    names = list(formula.vars)
    names.insert(min(at, len(names)), "v")
    checks = _checks(names, formula)
    table = _universe_table(universe)
    choices = table.choices
    closures = [frozenset(hf.transitive_closure(c).elements) for c in choices]
    expected = [dict(a.bindings) for a in _leaves_per_node(
        names, choices, closures, universe, checks)]
    assert [dict(a.bindings)
            for a in _Walk(names, checks).leaves(table)] == expected
    parts = solver._components(names, checks)
    assert all(part != names[:len(part)] and any(here)
               for part, here in parts)
    for part, here in parts:

        def holds(combo):
            candidate = SimpleNamespace(bindings=dict(zip(part, combo)))
            return all(lang.eval_literal(lit, candidate)
                       for lits in here for lit in lits)

        solutions = [tuple(a.bindings[v] for v in part)
                     for a in _Walk(part, here).leaves(table, cover=False)]
        assert solutions == [combo for combo in product(choices,
                                                        repeat=len(part))
                             if holds(combo)]
        if not solutions:
            assert expected == []


@given(split_formulas(), st.sampled_from([(), ("v",)]),
       st.sampled_from([lang.FINITE, lang.NOT_FINITE]))
@settings(max_examples=40, deadline=None)
def test_decide_matches_unpruned_search_on_components(formula, extra, kind):
    # A Finite or !Finite literal on a variable that no other literal names:
    # it joins no component, and the search skips universes where one of
    # the others has no solution.
    formula = lang.Formula(formula.literals + tuple(
        lang.Literal(kind, (v,)) for v in extra))
    budget = m.SearchBudget(max_rank=3, max_universe=3)
    assert (_outcome(m.decide, formula, budget)
            == _outcome(_decide_unpruned, formula, budget))


# Each masked kind with each of its arities: enumerations of two to four
# operands.
_MASKED_ARITIES = [(kind, arity) for kind in _MASKED
                   for arity in ((2, 3, 4) if kind == lang.ENUM
                                 else (lang._ARITY[kind],))]
_OPERANDS = ("a", "b", "c", "d")


def _free_sets(arity):
    """Every nonempty set of operand positions, as sorted tuples."""
    return [tuple(i for i in range(arity) if picked >> i & 1)
            for picked in range(1, 1 << arity)]


def _evaluated_mask(table, kind, vals):
    """Bit j is set when eval_literal holds on the HfSets of the choices,
    choices[j] at the positions where `vals` is None."""
    lit = lang.Literal(kind, _OPERANDS[:len(vals)])
    bindings = {v: table.choices[j] for v, j in zip(lit.operands, vals)
                if j is not None}
    assignment = SimpleNamespace(bindings=bindings)
    bits = 0
    for j, value in enumerate(table.choices):
        bindings.update((v, value) for v, k in zip(lit.operands, vals)
                        if k is None)
        if lang.eval_literal(lit, assignment):
            bits |= 1 << j
    return bits


def test_truth_mask_matches_eval_literal_on_every_free_set():
    # Every masked kind, arity and nonempty set of free positions, with
    # every choice at the other positions, on every (4, 4) universe.  The
    # oracle evaluates the literal on HfSets once per tuple of choices and
    # reads each mask off those truths.
    for universe in _UNIVERSES:
        table = _universe_table(universe)
        n = len(table.choices)
        for kind, arity in _MASKED_ARITIES:
            lit = lang.Literal(kind, _OPERANDS[:arity])
            truths = [lang.eval_literal(lit, SimpleNamespace(
                bindings=dict(zip(lit.operands, combo))))
                for combo in product(table.choices, repeat=arity)]
            weight = [n ** (arity - 1 - i) for i in range(arity)]
            for free in _free_sets(arity):
                step = sum(weight[i] for i in free)
                bound = [i for i in range(arity) if i not in free]
                for picks in product(range(n), repeat=len(bound)):
                    vals = [None] * arity
                    for i, j in zip(bound, picks):
                        vals[i] = j
                    base = sum(weight[i] * j for i, j in zip(bound, picks))
                    expected = sum(1 << j for j in range(n)
                                   if truths[base + j * step])
                    assert solver._truth_mask(table, kind, vals) == expected


@st.composite
def masks_on_five_elements(draw):
    """A five-element universe of (5, 5), a masked kind, a nonempty set of
    free positions, and a choice of the table's 32 at each other one."""
    universe = draw(st.sampled_from(_FIVES))
    kind, arity = draw(st.sampled_from(_MASKED_ARITIES))
    free = draw(st.sampled_from(_free_sets(arity)))
    vals = [None if i in free else draw(st.integers(0, 31))
            for i in range(arity)]
    return universe, kind, vals


@given(masks_on_five_elements())
@settings(max_examples=300, deadline=None)
def test_truth_mask_matches_eval_literal_on_five_elements(drawn):
    universe, kind, vals = drawn
    table = _universe_table(universe)
    assert (solver._truth_mask(table, kind, vals)
            == _evaluated_mask(table, kind, vals))


def test_hard_search_walks_few_nodes():
    # A count, not a timing: the walk visited 325,748 nodes here when it
    # enumerated the variable w, which no literal constrains, once per
    # prefix of the others.
    calls = []
    walk_file = solver.__file__

    def count(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "walk"
                and frame.f_code.co_filename == walk_file):
            calls.append(None)

    formula = m.parse("x in y & y in z & z in x & !Finite(w)")
    budget = m.SearchBudget(max_rank=5, max_universe=5)
    sys.setprofile(count)
    try:
        r = m.decide(formula, budget)
    finally:
        sys.setprofile(None)
    assert r.verdict == m.UNSAT_WITHIN_BUDGET
    assert 0 < len(calls) < 5_000


_LARGEST = [u for u in _UNIVERSES if len(u) == 4]


@given(pumping_formulas(st.sampled_from([None, lang.FINITE, lang.ENUM])),
       st.sampled_from(_LARGEST))
@settings(max_examples=60, deadline=None)
def test_pump_test_drops_only_leaves_certify_witness_rejects(formula,
                                                             sampled):
    # Every (3, 3) universe and one of (4, 4): the walk with the leaf test
    # keeps the leaves of the walk without it, in order, less some that
    # certify_witness rejects with NoEvent or CoverMissesVariable.
    names = list(formula.vars)
    checks = _checks(names, formula)
    red = [lit.operands[0] for lit in formula.literals
           if lit.kind in venn.RED_KINDS]
    infinite = [lit.operands[0] for lit in formula.literals
                if lit.kind == lang.NOT_FINITE]
    plain, tested = _Walk(names, checks), _Walk(names, checks, red, infinite)
    for universe in enumerate_universes(3, 3) + (sampled,):
        table = _universe_table(universe)
        kept = [tuple(a.bindings.values()) for a in tested.leaves(table)]
        leaves = [tuple(a.bindings.values()) for a in plain.leaves(table)]
        survivors = set(kept)
        assert kept == [leaf for leaf in leaves if leaf in survivors]
        for leaf in leaves:
            if leaf not in survivors:
                with pytest.raises((NoEvent, CoverMissesVariable)):
                    m.certify_witness(formula,
                                      m.Assignment(dict(zip(names, leaf))))
