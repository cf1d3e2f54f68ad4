"""Bounded-rank finite-witness search.

Enumerates candidate assignments over small transitive universes, smallest
first, skips those that falsify a literal, and hands the rest to the
evaluator (plain formulas) or the witness certifier (formulas demanding an
infinite variable).  Exhaustion within a budget is reported as such, never
as unsatisfiability: no computable bound on witness rank is assumed here,
the budget is the user's stand-in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
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

    A zero bound is the trivial budget.  `decide` still searches the empty
    universe under it, so it can return a model there (every variable {});
    only the UnsatWithinBudget verdict becomes Unknown.  A negative bound
    raises ValueError.
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


@functools.lru_cache(maxsize=8)
def enumerate_universes(max_rank: int, max_universe: int):
    """All transitive element universes within the bounds, smallest first.

    A universe is a transitive finite set of HfSets of rank below max_rank;
    they are grown by repeatedly adjoining a subset of the current universe,
    which reaches every transitive set exactly once after deduplication.
    The tuple is kept for the last 8 bounds asked for in the process.
    """
    return tuple(_grow_universes(max_rank, max_universe))


def _grow_universes(max_rank, max_universe):
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


class UniverseTable:
    """The values a variable takes under one transitive universe, as bits.

    `elems` is the universe in canonical order; a value is a subset of it,
    held as the bitmask of its members' positions in `elems`.  `choices`
    are all the subsets, by size and then by mask, which is the order in
    which `decide` binds a variable; a value is named by its index there.
    Per choice j the table holds its bitmask `emask[j]`, its position in
    `elems` (`elem_index[j]`, -1 when it is not a member of the universe)
    and the bitmask of its transitive closure (`cmask[j]`); `choice_of`
    maps a bitmask back to its choice, and `elem_choice[i]` is the choice
    equal to elems[i].  The index of Pow(choices[j]) is found on first use.
    Get a table with `_universe_table`.
    """

    __slots__ = ("choices", "emask", "choice_of", "elem_index", "elem_choice",
                 "cmask", "full", "everything", "_pow")

    def __init__(self, universe):
        elems = sorted(universe, key=lambda e: e._key)
        n = len(elems)
        masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        position = {e: i for i, e in enumerate(elems)}
        # Per element, its members and the closure of its members as
        # bitmasks.  Members have a lower rank, so they come first in
        # canonical order.
        direct, down = [], []
        for e in elems:
            bits = closure = 0
            for x in e.elements:
                bits |= 1 << position[x]
                closure |= down[position[x]]
            direct.append(bits)
            down.append(bits | closure)
        # The closure of a subset, by mask: its lowest element's closure
        # joined to the rest's.
        closures = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            closures[m] = (closures[m ^ low] | low
                           | down[low.bit_length() - 1])
        self.choices = [hf.make_set(elems[i] for i in range(n) if m >> i & 1)
                        for m in masks]
        self.emask = masks
        self.choice_of = {m: j for j, m in enumerate(masks)}
        self.elem_choice = [self.choice_of[bits] for bits in direct]
        self.elem_index = [-1] * len(masks)
        for i, j in enumerate(self.elem_choice):
            self.elem_index[j] = i
        self.cmask = [closures[m] for m in masks]
        self.full = (1 << n) - 1
        self.everything = (1 << len(masks)) - 1
        self._pow = {}

    def members_of(self, j) -> int:
        """Bit k is set when choices[k] is a member of choices[j]."""
        bits, m = 0, self.emask[j]
        for i, k in enumerate(self.elem_choice):
            if m >> i & 1:
                bits |= 1 << k
        return bits

    def holders_of(self, j) -> int:
        """Bit k is set when choices[j] is a member of choices[k]."""
        i = self.elem_index[j]
        if i < 0:
            return 0
        bits = 0
        for k, m in enumerate(self.emask):
            if m >> i & 1:
                bits |= 1 << k
        return bits

    def set_of(self, members) -> int:
        """The choice whose members are choices[j] for j in `members`, or
        -1 when one of them is not in the universe."""
        bits = 0
        for j in members:
            i = self.elem_index[j]
            if i < 0:
                return -1
            bits |= 1 << i
        return self.choice_of[bits]

    def pow_index(self, j) -> int:
        """The choice equal to Pow(choices[j]), or -1 when that powerset is
        not a subset of the universe."""
        got = self._pow.get(j)
        if got is None:
            whole = self.emask[j]
            subs = []
            sub = whole
            while True:
                subs.append(self.choice_of[sub])
                if not sub:
                    break
                sub = (sub - 1) & whole
            got = self._pow[j] = self.set_of(subs)
        return got


@functools.lru_cache(maxsize=128)
def _universe_table(universe) -> UniverseTable:
    """The `UniverseTable` of a transitive universe (a frozenset of HfSets).

    Tables are kept for the 128 universes used last in the process, which
    covers every universe of a budget up to rank 5 and universe size 5
    (102 of them), so repeated `decide` calls under such a budget build no
    table after the first.
    """
    return UniverseTable(universe)


# A functional literal v = f(u, ...) holds when v is the choice that f gives
# on the other operands (-1: none, f's value is not a subset of the
# universe); a relational one is a test of its operands.  Negations are
# their positive kind's mask complemented.
_VALUE = {
    lang.EQ: lambda t, a: a[0],
    lang.EQ_EMPTY: lambda t, a: 0,
    lang.UNION: lambda t, a: t.choice_of[t.emask[a[0]] | t.emask[a[1]]],
    lang.INTER: lambda t, a: t.choice_of[t.emask[a[0]] & t.emask[a[1]]],
    lang.DIFF: lambda t, a: t.choice_of[t.emask[a[0]] & ~t.emask[a[1]]],
    lang.POW: lambda t, a: t.pow_index(a[0]),
    lang.ENUM: lambda t, a: t.set_of(a),
}
_TEST = {
    lang.SUBSETEQ: lambda t, a: t.emask[a[0]] & ~t.emask[a[1]] == 0,
    lang.IN: lambda t, a: t.members_of(a[1]) >> a[0] & 1 == 1,
}
_NEGATED = {lang.NEQ: lang.EQ, lang.NEQ_EMPTY: lang.EQ_EMPTY,
            lang.NOT_SUBSETEQ: lang.SUBSETEQ, lang.NOT_IN: lang.IN}


def _holds(table, kind, args) -> bool:
    """Truth of a positive literal kind on choice indices, one per operand."""
    value = _VALUE.get(kind)
    if value is None:
        return _TEST[kind](table, args)
    return args[0] == value(table, args[1:])


def _truth_mask(table: UniverseTable, kind: str, vals) -> int:
    """Bit j is set when the literal holds with its free variable bound to
    choices[j] and every other operand to its choice in `vals`.

    `vals` gives one choice index per operand, None where the operand is
    the free variable, which may occur more than once.  When the free
    variable is the first operand only, a functional literal's mask is the
    single bit of the value it requires; a membership literal with one free
    operand is `members_of` or `holders_of`.  Finite literals have no mask:
    `decide` never prunes on them.
    """
    base = _NEGATED.get(kind, kind)
    rest = vals[1:]
    if base in _VALUE and vals[0] is None and None not in rest:
        j = _VALUE[base](table, rest)
        bits = 1 << j if j >= 0 else 0
    elif base == lang.IN and vals.count(None) == 1:
        a, b = vals
        bits = table.members_of(b) if a is None else table.holders_of(a)
    else:
        bits = 0
        for j in range(len(table.choices)):
            if _holds(table, base, [j if v is None else v for v in vals]):
                bits |= 1 << j
    return table.everything ^ bits if base is not kind else bits


def _leaves(names, table, checks):
    """Surviving candidate assignments under one universe, in product order.

    Variables are bound in `names` order, each to the table's `choices` in
    order, so the leaves come in the order of
    itertools.product(choices, repeat=n).  A literal in checks[d] has its
    last-bound variable at depth d.  Its truth under the bound prefix
    depends only on the `choices` indices of its operands bound before d,
    so for each such index tuple its `_truth_mask` is built once, when the
    walk first reaches that key, and lives for this call.  At depth d the
    walk ANDs the masks of checks[d] and visits the set bits in ascending
    j, which is `choices` order, so the leaves, and their order, are those
    that checking every literal at every node would keep; a clear bit skips
    the whole subtree.  A leaf survives when the union of its values'
    closures is the universe, i.e. the universe is the one its values
    generate.

    A mask covers values whose subtree an earlier literal already skipped.
    lang.eval_literal raises on a Pow literal once 2^|w| > pow_limit, and
    every value is a subset of the universe, so that can happen only when
    2^|universe| > pow_limit; `decide` passes empty checks for such a
    universe, which gives all-ones masks, and tests its leaves one by one.
    """
    choices, cmask, full = table.choices, table.cmask, table.full
    last = len(names) - 1
    everything = table.everything
    picked = [0] * len(names)
    depth_of = {name: d for d, name in enumerate(names)}
    per_depth = []
    for d, here in enumerate(checks):
        per_depth.append([
            (lit.kind, [None if depth_of[v] == d else depth_of[v]
                        for v in lit.operands],
             sorted({depth_of[v] for v in lit.operands} - {d}), {})
            for lit in here])

    def walk(depth, covered):
        allowed = everything
        for kind, operand_depths, earlier, memo in per_depth[depth]:
            if not allowed:
                break
            key = tuple([picked[e] for e in earlier])
            bits = memo.get(key)
            if bits is None:
                bits = memo[key] = _truth_mask(
                    table, kind,
                    [None if e is None else picked[e] for e in operand_depths])
            allowed &= bits
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            j = low.bit_length() - 1
            picked[depth] = j
            union = covered | cmask[j]
            if depth < last:
                yield from walk(depth + 1, union)
            elif union == full:
                yield Assignment({name: choices[picked[d]]
                                  for d, name in enumerate(names)})

    return walk(0, 0)


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
    of its operands' values, into the truth masks of `_leaves`, by bit
    operations on the universe's `UniverseTable`; the walk reads the masks
    in `choices` order, so the order above is unchanged.
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
        # A Pow literal raises LimitExceeded once 2^|w| > pow_limit, and
        # lang.evaluate lets that escape at the first such leaf.  Pruning
        # could skip that leaf, so a universe big enough for it is searched
        # leaf by leaf.  In a smaller universe no literal can raise, so a
        # truth mask may cover values the walk then skips.
        may_raise = has_pow and 2 ** len(universe) > limits.pow_limit
        for assignment in _leaves(names, _universe_table(universe),
                                  unpruned if may_raise else checks):
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
