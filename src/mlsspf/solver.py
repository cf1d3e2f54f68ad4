"""Bounded-rank finite-witness search.

Enumerates candidate assignments over small transitive universes, smallest
first, skips those that falsify a literal, and hands the rest to the
evaluator (plain formulas) or the witness certifier (formulas demanding an
infinite variable).  Exhaustion within a budget is reported as such, never
as unsatisfiability: no computable bound on witness rank is assumed here,
the budget is the user's stand-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

from . import hf, lang
from .errors import (CannotWarmUp, CardinalityDeficit, CoverMissesVariable,
                     LimitExceeded, NoClosedCover, NoEvent, NoLocalTrash,
                     NotAWitness)
from .limits import DEFAULT_LIMITS, Limits
from .pumping import WitnessCertificate, certify_witness
from .venn import Assignment

SAT_WITNESSED = "SatWitnessed"
SAT_MODEL = "SatModel"
UNSAT_WITHIN_BUDGET = "UnsatWithinBudget"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SearchBudget:
    max_rank: int = 4
    max_universe: int = 4
    max_cycle_len: int = DEFAULT_LIMITS.max_cycle_len
    limits: Limits = field(default_factory=lambda: DEFAULT_LIMITS)

    @property
    def trivial(self) -> bool:
        return self.max_rank <= 0 or self.max_universe <= 0


@dataclass(frozen=True)
class DecideResult:
    verdict: str
    assignment: Optional[Assignment] = None
    certificate: Optional[WitnessCertificate] = None

    def to_json(self):
        out = {"verdict": self.verdict}
        if self.assignment is not None:
            out["model"] = self.assignment.to_json()
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def enumerate_universes(max_rank: int, max_universe: int):
    """All transitive element universes within the bounds, smallest first.

    A universe is a transitive finite set of HfSets of rank below max_rank;
    they are grown by repeatedly adjoining a subset of the current universe,
    which reaches every transitive set exactly once after deduplication.
    """
    seen = {frozenset()}
    levels = [[frozenset()]]
    for _ in range(max_universe):
        nxt = []
        for u in levels[-1]:
            elems = sorted(u, key=lambda e: e._key)
            n = len(elems)
            for mask in range(2 ** n):
                e = hf.make_set(elems[i] for i in range(n) if mask >> i & 1)
                if e.rank >= max_rank or e in u:
                    continue
                u2 = u | {e}
                if u2 not in seen:
                    seen.add(u2)
                    nxt.append(u2)
        if not nxt:
            break
        levels.append(nxt)
    out = []
    for level in levels:
        out.extend(sorted(level, key=lambda u: hf.make_set(u)._key))
    return out


def _subsets_in_order(elems):
    """Subsets of a canonically ordered tuple, by size then position mask."""
    n = len(elems)
    masks = sorted(range(2 ** n), key=lambda m: (bin(m).count("1"), m))
    return [hf.make_set(elems[i] for i in range(n) if mask >> i & 1)
            for mask in masks]


def _leaves(names, choices, closures, universe, checks, limits):
    """Surviving candidate assignments under one universe, in product order.

    Variables are bound in `names` order, each to the `choices` in order, so
    the leaves come in the order of itertools.product(choices, repeat=n).
    Once variable d is bound, every literal in checks[d] is evaluated on the
    bound prefix; a false one skips the whole subtree.  A leaf survives when
    the union of its values' closures (`closures` is parallel to `choices`)
    is the universe, i.e. the universe is the one its values generate.
    """
    bindings = {}
    prefix = SimpleNamespace(bindings=bindings)
    last = len(names) - 1

    def walk(depth, covered):
        name, here = names[depth], checks[depth]
        for value, closure in zip(choices, closures):
            bindings[name] = value
            if not all(lang.eval_literal(lit, prefix, limits) for lit in here):
                continue
            union = covered | closure
            if depth < last:
                yield from walk(depth + 1, union)
            elif union == universe:
                yield Assignment(bindings)

    return walk(0, frozenset())


def decide(formula: lang.Formula, budget: SearchBudget) -> DecideResult:
    """Search the budgeted universe enumeration for a model or a witness.

    Universes come smallest first.  Under each, candidates are visited
    depth first, in itertools.product order over `formula.vars`; each
    candidate is tried only under the smallest transitive universe its
    values generate.  A literal other than Finite/!Finite is evaluated as
    soon as its operands are bound, and a false one prunes every candidate
    that extends the prefix.  Those candidates would all be rejected, so the
    first hit, and with it every verdict, is the one the full product finds.
    """
    limits = budget.limits
    has_neg = any(lit.kind == lang.NOT_FINITE for lit in formula.literals)
    has_pow = any(lit.kind == lang.POW for lit in formula.literals)
    names = list(formula.vars)
    if not names:
        return DecideResult(UNKNOWN)
    depth = {v: i for i, v in enumerate(names)}
    checks = [[] for _ in names]
    for lit in formula.literals:
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE):
            checks[max(depth[v] for v in lit.operands)].append(lit)
    unpruned = [()] * len(names)
    for universe in enumerate_universes(budget.max_rank, budget.max_universe):
        elems = tuple(sorted(universe, key=lambda e: e._key))
        choices = _subsets_in_order(elems)
        closures = [frozenset(hf.transitive_closure(c).elements)
                    for c in choices]
        # A Pow literal raises LimitExceeded once 2^|w| > pow_limit, and
        # lang.evaluate lets that escape at the first such leaf.  Pruning
        # could skip that leaf, so a universe big enough for it is searched
        # leaf by leaf.
        may_raise = has_pow and 2 ** len(universe) > limits.pow_limit
        for assignment in _leaves(names, choices, closures, universe,
                                  unpruned if may_raise else checks, limits):
            if has_neg:
                try:
                    cert = certify_witness(
                        formula, assignment, limits,
                        max_cycle_len=budget.max_cycle_len)
                except (NotAWitness, NoEvent, CoverMissesVariable,
                        NoClosedCover, CannotWarmUp, NoLocalTrash,
                        CardinalityDeficit, LimitExceeded):
                    continue
                return DecideResult(SAT_WITNESSED, certificate=cert)
            report = lang.evaluate(formula, assignment, limits)
            if report.satisfied:
                return DecideResult(SAT_MODEL, assignment=assignment)
    # The empty universe is always enumerated and always has a candidate
    # (every variable bound to {}), so an exhausted loop searched the budget.
    if budget.trivial:
        return DecideResult(UNKNOWN)
    return DecideResult(UNSAT_WITHIN_BUDGET)
