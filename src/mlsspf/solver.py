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
from .errors import CoverMissesVariable, LimitExceeded, NoEvent, NotAWitness
from .limits import DEFAULT_LIMITS, Limits
from .pumping import WitnessCertificate, certify_witness
from .venn import Assignment

SAT_WITNESSED = "SatWitnessed"
SAT_MODEL = "SatModel"
UNSAT_WITHIN_BUDGET = "UnsatWithinBudget"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SearchBudget:
    """Bounds of the universe enumeration: element rank and universe size.

    A zero bound is the trivial budget (`decide` answers Unknown); a
    negative one raises ValueError.
    """

    max_rank: int = 4
    max_universe: int = 4
    limits: Limits = field(default_factory=lambda: DEFAULT_LIMITS)

    def __post_init__(self):
        for name in ("max_rank", "max_universe"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be at least 0, not {getattr(self, name)}")

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
    A literal in checks[d] has its last-bound variable at depth d.  Its
    truth under the bound prefix depends only on the `choices` indices of
    its operands bound before d, so for each such index tuple it is
    evaluated once, over every value of the depth-d variable, into a
    bitmask: bit j is set when the literal holds with that variable bound
    to choices[j].  The masks are built lazily, when the walk first reaches
    their key, and live for this call.  At depth d the walk ANDs the masks
    of checks[d] and visits the set bits in ascending j, which is `choices`
    order, so the leaves, and their order, are those that checking every
    literal at every node would keep; a clear bit skips the whole subtree.
    A leaf survives when the union of its values' closures (`closures` is
    parallel to `choices`) is the universe, i.e. the universe is the one
    its values generate.

    A mask evaluates its literal on values whose subtree an earlier literal
    already skipped.  Of all literals only Pow can raise (LimitExceeded,
    once 2^|w| > pow_limit), and every value is a subset of the universe,
    so that happens only when 2^|universe| > pow_limit; `decide` passes
    empty checks for such a universe, which gives all-ones masks.
    """
    bindings = {}
    prefix = SimpleNamespace(bindings=bindings)
    last = len(names) - 1
    everything = (1 << len(choices)) - 1
    picked = [0] * len(names)
    depth_of = {name: d for d, name in enumerate(names)}
    tables = [[(lit, sorted({depth_of[v] for v in lit.operands} - {d}), {})
               for lit in here] for d, here in enumerate(checks)]

    def truths(lit, name):
        bits = 0
        for j, value in enumerate(choices):
            bindings[name] = value
            if lang.eval_literal(lit, prefix, limits):
                bits |= 1 << j
        return bits

    def walk(depth, covered):
        name = names[depth]
        allowed = everything
        for lit, earlier, memo in tables[depth]:
            if not allowed:
                break
            key = tuple([picked[e] for e in earlier])
            bits = memo.get(key)
            if bits is None:
                bits = memo[key] = truths(lit, name)
            allowed &= bits
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            j = low.bit_length() - 1
            bindings[name] = choices[j]
            picked[depth] = j
            union = covered | closures[j]
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
    values generate.  A literal other than Finite/!Finite is checked as soon
    as its operands are bound, and a false one prunes every candidate that
    extends the prefix.  Those candidates would all be rejected, so the
    first hit, and with it every verdict, is the one the full product finds.
    Within a universe each literal is evaluated at most once per combination
    of its operands' values, into the truth masks of `_leaves`; the walk
    reads the masks in `choices` order, so the order above is unchanged.
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
        # leaf by leaf.  In a smaller universe no literal can raise, so a
        # truth mask may evaluate values the walk then skips.
        may_raise = has_pow and 2 ** len(universe) > limits.pow_limit
        for assignment in _leaves(names, choices, closures, universe,
                                  unpruned if may_raise else checks, limits):
            if has_neg:
                try:
                    cert = certify_witness(formula, assignment, limits)
                except (NotAWitness, NoEvent, CoverMissesVariable,
                        LimitExceeded):
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
