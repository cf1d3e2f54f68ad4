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
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from . import hf, lang
from .certificate import MAX_CYCLE_LEN, WitnessCertificate
from .errors import CoverMissesVariable, NoEvent, NotAWitness
from .pumping import certify_witness
from .venn import RED_KINDS, Assignment

SAT_WITNESSED = "SatWitnessed"
SAT_MODEL = "SatModel"
UNSAT_WITHIN_BUDGET = "UnsatWithinBudget"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SearchBudget:
    """Bounds of the universe enumeration (element rank and universe
    size), and the cycle bound `max_cycle_len` that `decide` passes to
    `certify_witness`.

    A zero rank or universe bound is the trivial budget.  `decide` still
    searches the empty universe under it, so it can return a model there
    (every variable {}); only the UnsatWithinBudget verdict becomes Unknown.
    A bound that is no int (a bool or a float), a negative rank or universe
    bound, or a cycle bound below 1 raises ValueError.
    """

    max_rank: int = 4
    max_universe: int = 4
    max_cycle_len: int = MAX_CYCLE_LEN

    def __post_init__(self):
        for name, least in (("max_rank", 0), ("max_universe", 0),
                            ("max_cycle_len", 1)):
            hf.expect_at_least(getattr(self, name), least, name)

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
            elems = sorted(u, key=hf.order_key)
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
        out.extend(sorted(level, key=lambda u: hf.order_key(hf.make_set(u))))
    return out


class _SizeTable:
    """What a `UniverseTable` reads that depends only on the universe's
    size n; `_size_table`, its memo, builds it once per size, when `decide`
    first meets a universe of that size.

    `masks` are the subsets of n positions in choice order, by size and
    then by mask, and `choice_of[m]` is the choice of mask m.  The rest are
    sets of choices as bits: `holding[i]` the choices whose mask has bit i,
    and `sub[m]` and `sup[m]` the choices inside mask m and those
    containing it.
    """

    __slots__ = ("masks", "choice_of", "holding", "sub", "sup")

    def __init__(self, n):
        full = (1 << n) - 1
        masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
        self.masks = masks
        self.choice_of = [0] * (1 << n)
        for j, m in enumerate(masks):
            self.choice_of[m] = j
        holding = [sum(1 << j for j, m in enumerate(masks) if m >> i & 1)
                   for i in range(n)]
        everything = (1 << len(masks)) - 1
        # A superset of m holds every bit of m, and a subset none outside
        # it: add one bit at a time, the lowest of m, or the lowest outside.
        sup = [everything] * (1 << n)
        sub = [everything] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            sup[m] = sup[m ^ low] & holding[low.bit_length() - 1]
        for m in range(full - 1, -1, -1):
            low = ~m & (m + 1)
            sub[m] = sub[m | low] & ~holding[low.bit_length() - 1]
        self.holding, self.sub, self.sup = holding, sub, sup


_size_table = functools.cache(_SizeTable)


class UniverseTable:
    """The values a variable takes under one transitive universe, as bits.

    `elems` is the universe in canonical order; a value is a subset of it,
    held as the bitmask of its members' positions in `elems`.  `choices`
    are all the subsets, by size and then by mask, which is the order in
    which `decide` binds a variable; a value is named by its index there.
    Per choice j the table holds its bitmask `emask[j]`, its position in
    `elems` (`elem_index[j]`, -1 when it is not a member of the universe)
    and the bitmask of its transitive closure (`cmask[j]`); `elem_choice[i]`
    is the choice equal to elems[i].  `nonempty` has the bit of each
    nonempty element, and `held` the bit of each element that is a member
    of an element.  The choice order, `choice_of` (bitmask to choice), and
    the choice sets `holding`, `sub` and `sup` depend only on the size of
    the universe, so tables of one size share them (`_SizeTable`).  The
    pruning reads only these bits, so a choice's HfSet is built when a
    leaf first reads it (see `_Choices`), and the index of Pow(choices[j])
    is found on first use.  Get a table with `_universe_table`.
    """

    __slots__ = ("choices", "emask", "choice_of", "elem_index", "elem_choice",
                 "cmask", "full", "everything", "nonempty", "held",
                 "holding", "sub", "sup", "_pow")

    def __init__(self, universe):
        elems = sorted(universe, key=hf.order_key)
        n = len(elems)
        size = _size_table(n)
        masks = size.masks
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
        self.choices = _Choices(elems, masks)
        self.emask = masks
        self.choice_of = size.choice_of
        self.holding, self.sub, self.sup = size.holding, size.sub, size.sup
        self.elem_choice = [self.choice_of[bits] for bits in direct]
        self.elem_index = [-1] * len(masks)
        for i, j in enumerate(self.elem_choice):
            self.elem_index[j] = i
        self.cmask = [closures[m] for m in masks]
        self.full = (1 << n) - 1
        self.everything = (1 << len(masks)) - 1
        self.nonempty = sum(1 << i for i, bits in enumerate(direct) if bits)
        self.held = functools.reduce(operator.or_, direct, 0)
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
        return self.holding[i] if i >= 0 else 0

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

    def subsets_of(self, j) -> int:
        """Bit k is set when choices[k] is a subset of choices[j]."""
        return self.sub[self.emask[j]]

    def pow_index(self, j) -> int:
        """The choice equal to Pow(choices[j]), or -1 when that powerset is
        not a subset of the universe."""
        got = self._pow.get(j)
        if got is None:
            subsets = self.subsets_of(j)
            got = self._pow[j] = self.set_of(
                k for k in range(len(self.emask)) if subsets >> k & 1)
        return got


class _Choices(Sequence):
    """The HfSets of the subsets of `elems` given as bitmasks by `masks`,
    in `masks` order, each interned on its first read."""

    __slots__ = ("_elems", "_masks", "_sets")

    def __init__(self, elems, masks):
        self._elems = elems
        self._masks = masks
        self._sets = [None] * len(masks)

    def __len__(self):
        return len(self._masks)

    def __getitem__(self, j):
        got = self._sets[j]
        if got is None:
            m = self._masks[j]
            got = self._sets[j] = hf.make_set(
                e for i, e in enumerate(self._elems) if m >> i & 1)
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


def _interval(relation):
    """The mask of a literal that holds when `relation` of its operands'
    bitmasks has every bit of the universe set, as `=`, `<=`, `U`, `I` and
    `\\` do, element by element.

    At each element the free variable's bit is 0 or 1 in all its places
    at once, so its values form an interval of subsets [lo, hi]: lo holds
    the elements where only bit 1 satisfies the relation, and hi those
    where bit 1 does.  No value holds when neither bit does at some
    element.  Set-interval propagation rests on the same fact (Gervet,
    "Interval propagation to reason about sets", Constraints 1(3), 1997).
    """

    def mask(table, vals):
        full, emask = table.full, table.emask
        clear, filled = [], []
        for v in vals:
            if v is None:
                clear.append(0)
                filled.append(full)
            else:
                clear.append(emask[v])
                filled.append(emask[v])
        ok0 = relation(*clear) & full
        ok1 = relation(*filled) & full
        if ok0 | ok1 != full:
            return 0
        return table.sub[ok1] & table.sup[full ^ ok0]

    return mask


def _in_mask(table, vals):
    a, b = vals
    if a is not None:
        return table.holders_of(a)
    # x in x: no set is a member of itself (foundation).
    return 0 if b is None else table.members_of(b)


def _pow_mask(table, vals):
    p, q = vals
    if p is None:
        # x = Pow(x) would put x in x.
        j = -1 if q is None else table.pow_index(q)
    else:
        # Pow(q) = p forces q to be the union of p's members.
        union, m = 0, table.emask[p]
        for i, k in enumerate(table.elem_choice):
            if m >> i & 1:
                union |= table.emask[k]
        j = table.choice_of[union]
        if table.pow_index(j) != p:
            j = -1
    return 1 << j if j >= 0 else 0


def _enum_mask(table, vals):
    a, members = vals[0], vals[1:]
    if a is None:
        # x = {.., x, ..} would put x in x.
        j = -1 if None in members else table.set_of(members)
        return 1 << j if j >= 0 else 0
    whole = rest = table.emask[a]
    for j in members:
        if j is not None:
            i = table.elem_index[j]
            if i < 0 or not whole >> i & 1:
                return 0
            rest &= ~(1 << i)
    if not rest:
        # The bound members are all of a: the free one is any member of a.
        return table.members_of(a)
    if rest & (rest - 1):
        # Two members of a are left, and one variable cannot be both.
        return 0
    return 1 << table.elem_choice[rest.bit_length() - 1]


# The mask of each kind that negates no other; a negation's is its
# positive kind's mask complemented.
_MASKS = {
    lang.EQ: _interval(lambda a, b: ~(a ^ b)),
    lang.EQ_EMPTY: _interval(operator.invert),
    lang.UNION: _interval(lambda a, b, c: ~(a ^ (b | c))),
    lang.INTER: _interval(lambda a, b, c: ~(a ^ (b & c))),
    lang.DIFF: _interval(lambda a, b, c: ~(a ^ (b & ~c))),
    lang.SUBSETEQ: _interval(lambda a, b: ~a | b),
    lang.IN: _in_mask,
    lang.POW: _pow_mask,
    lang.ENUM: _enum_mask,
}


def _truth_mask(table: UniverseTable, kind: str, vals) -> int:
    """Bit j is set when the literal holds with its free variable bound to
    choices[j] and every other operand to its choice in `vals`.

    `vals` gives one choice index per operand, None where the operand is
    the free variable, which may occur more than once.  Every mask is a
    few table lookups and bit operations, for every kind and every set of
    free places: `=`, `<=`, `U`, `I` and `\\` hold on an interval of subsets
    (`_interval`), `in` is the members or the holders of the other operand,
    and `Pow` and `{..}` allow at most one value, but for `a = {.., x, ..}`
    whose bound members are all of a, where x may be any member of a.  A
    free variable that `in`, `Pow` or `{..}` would put inside itself holds
    nowhere (foundation).  Finite literals have no mask: `decide` never
    prunes on them.
    """
    base = lang.NEGATES.get(kind, kind)
    bits = _MASKS[base](table, vals)
    return table.everything ^ bits if base is not kind else bits


def _may_pump(table, picked, red, infinite) -> bool:
    """Whether a leaf passes a necessary condition for `certify_witness` to
    find a pumping event on it.

    `picked` gives the leaf's choice per depth; `infinite` holds the depths
    of the !Finite variables and `red` those of the variables whose
    regions `venn.color_board` colours red (the first operands of the
    `RED_KINDS` literals).  Let F be the union of the red values.  The
    condition is that for every !Finite variable v the set v \\ F holds
    (a) a nonempty element and (b) an element that is a member of an
    element of the universe.

    Why it is necessary: a certificate's cycle meets the region of every
    !Finite variable v, else `certify_witness` raises NoEvent or
    CoverMissesVariable.  Its places are green, so it meets v's region at
    a green place p.  Every block lies entirely inside or entirely outside
    each variable's value, so block p is a subset of v \\ F.
    (a) p is a target of the node before it on the cycle.  That node holds
        a green place, so it is not empty, and some element of block p has
        it as its signature: that element has a member.
    (b) p lies in the node after it on the cycle.  A realized node is the
        signature of an element of the board's universe, so that element
        has a member in block p.
    At a leaf of `decide` the values generate the table's universe (the
    cover test), and that closure is the board's universe, since
    `certify_witness` transitivizes the assignment to it.  So `nonempty`
    and `held` are read off the right universe, and a leaf failing the
    test is one that `certify_witness` rejects with NoEvent or
    CoverMissesVariable.
    """
    emask = table.emask
    forced = 0
    for d in red:
        forced |= emask[picked[d]]
    for d in infinite:
        green = emask[picked[d]] & ~forced
        if not (green & table.nonempty and green & table.held):
            return False
    return True


class _Walk:
    """The forward-checking walk over one variable order and its literals.

    Order guarantee: `leaves(table)` binds the variables in `names` order,
    each to the table's `choices` in order, so the leaves come in the order
    of itertools.product(choices, repeat=n), and they are exactly the
    candidates of that product that satisfy every literal of `checks` and,
    when `cover` is set, whose values generate the universe: the union of
    their closures is all of it.  With `cover` unset every candidate that
    satisfies the literals is a leaf.  With the variables `infinite` of
    !Finite literals and `red` of `RED_KINDS` literals given, a leaf must
    also pass `_may_pump`, which is sound only together with the cover
    test.

    A literal in checks[d] has its last-bound variable at depth d, its
    free variable.  Its truth depends only on the `choices` indices of its
    other operands, so it is checked forward: once the last of them is
    bound, at depth e < d, its `_truth_mask` over the free variable's
    values is ANDed into the domain of depth d.  The mask is built once per
    index tuple of the other operands and universe.  A literal with no
    other operand narrows the root domain of depth d once per universe.
    The walk at depth d visits the set bits of its domain in ascending j,
    which is `choices` order; a domain that becomes empty cuts the prefix,
    since no extension of it satisfies that literal, and an empty root
    domain leaves the universe without leaves.  Only subtrees without a
    leaf are skipped, so the leaves and their order are those that
    checking every literal at every node would keep.  The schedule depends
    on `names` and `checks` only, so `decide` builds it once per call.
    """

    def __init__(self, names, checks, red=(), infinite=()):
        self.names = names
        depth_of = {name: d for d, name in enumerate(names)}
        self.red = sorted({depth_of[v] for v in red})
        self.infinite = sorted({depth_of[v] for v in infinite})
        # roots: (d, kind, operands) of the literals on one variable;
        # ahead[e]: per depth d > e, (kind, operands, key, memo index) of
        # the literals of checks[d] whose other operands are bound by e, e
        # the last of them.  An operand is its depth, None for d.
        self.roots = []
        ahead = [{} for _ in names]
        self.masked = 0
        for d, here in enumerate(checks):
            for lit in here:
                vals = [None if depth_of[v] == d else depth_of[v]
                        for v in lit.operands]
                earlier = sorted({e for e in vals if e is not None})
                if not earlier:
                    self.roots.append((d, lit.kind, vals))
                    continue
                ahead[earlier[-1]].setdefault(d, []).append(
                    (lit.kind, vals, operator.itemgetter(*earlier),
                     self.masked))
                self.masked += 1
        self.ahead = [list(targets.items()) for targets in ahead]

    def leaves(self, table, cover=True):
        """The surviving candidate assignments under one universe."""
        names, ahead = self.names, self.ahead
        red, infinite = self.red, self.infinite
        choices, cmask = table.choices, table.cmask
        full = table.full if cover else None
        last = len(names) - 1
        picked = [0] * len(names)
        root = [table.everything] * len(names)
        for d, kind, vals in self.roots:
            root[d] &= _truth_mask(table, kind, vals)
        if not all(root):
            return iter(())
        memos = [{} for _ in range(self.masked)]

        def walk(depth, covered, domain):
            targets = ahead[depth]
            bits = domain[depth]
            inner = domain
            while bits:
                low = bits & -bits
                bits ^= low
                j = low.bit_length() - 1
                picked[depth] = j
                if targets:
                    inner = domain.copy()
                    for d, lits in targets:
                        allowed = domain[d]
                        for kind, vals, key_of, m in lits:
                            key = key_of(picked)
                            memo = memos[m]
                            mask = memo.get(key)
                            if mask is None:
                                mask = memo[key] = _truth_mask(
                                    table, kind, [None if e is None
                                                  else picked[e]
                                                  for e in vals])
                            allowed &= mask
                            if not allowed:
                                break
                        if not allowed:
                            break
                        inner[d] = allowed
                    if not allowed:
                        continue
                union = covered | cmask[j]
                if depth < last:
                    yield from walk(depth + 1, union, inner)
                elif full is None or union == full:
                    if infinite and not _may_pump(table, picked, red,
                                                  infinite):
                        continue
                    yield Assignment({name: choices[picked[d]]
                                      for d, name in enumerate(names)})

        return walk(0, 0, root)


def _components(names, checks):
    """The connected components of the variables under the literals of
    `checks` that `decide` tests on their own, as (names, checks) pairs in
    `names` order: those with a literal, less one whose variables are bound
    first, since the walk over all of `names` meets its subtree only once,
    as the test would."""
    root = {name: name for name in names}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for here in checks:
        for lit in here:
            first = find(lit.operands[0])
            for v in lit.operands[1:]:
                root[find(v)] = first
    groups = {}
    for name, here in zip(names, checks):
        part = groups.setdefault(find(name), ([], []))
        part[0].append(name)
        part[1].append(here)
    return [(part, here) for part, here in groups.values()
            if any(here) and part != names[:len(part)]]


def decide(formula: lang.Formula, budget: SearchBudget) -> DecideResult:
    """Search the budgeted universe enumeration for a model or a witness.

    Order guarantee: universes come smallest first.  Under each,
    candidates are visited depth first, in itertools.product order over
    `formula.vars`; each candidate is tried only under the smallest
    transitive universe its values generate, and the first that is a model
    (or that `certify_witness` accepts) is the answer.  Literals other than
    Finite/!Finite prune: `_Walk` applies each one to the domain of its
    last-bound variable as soon as its other operands are bound, and a
    universe is skipped when the literals of one connected component of
    the variables have no solution in it, found by the same walk over that
    component alone.  A candidate of a formula with a !Finite literal must
    also pass `_may_pump`, a bit test that fails only on candidates that
    `certify_witness` rejects.  Only candidates that would be rejected are
    dropped, so the guarantee holds with the leaf test: the first hit, and
    with it every verdict, is the one the full product finds.
    """
    red = [lit.operands[0] for lit in formula.literals
           if lit.kind in RED_KINDS]
    infinite = [lit.operands[0] for lit in formula.literals
                if lit.kind == lang.NOT_FINITE]
    names = list(formula.vars)
    if not names:
        return DecideResult(UNKNOWN)
    depth = {v: i for i, v in enumerate(names)}
    checks = [[] for _ in names]
    for lit in formula.literals:
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE):
            checks[max(depth[v] for v in lit.operands)].append(lit)
    search = _Walk(names, checks, red, infinite)
    parts = [_Walk(part, here) for part, here in _components(names, checks)]
    for universe in enumerate_universes(budget.max_rank, budget.max_universe):
        table = _universe_table(universe)
        if any(next(part.leaves(table, cover=False), None) is None
               for part in parts):
            continue
        for assignment in search.leaves(table):
            if infinite:
                try:
                    cert = certify_witness(formula, assignment,
                                           budget.max_cycle_len)
                except (NotAWitness, NoEvent, CoverMissesVariable):
                    continue
                return DecideResult(SAT_WITNESSED, certificate=cert)
            report = lang.evaluate(formula, assignment)
            if report.satisfied:
                return DecideResult(SAT_MODEL, assignment=assignment)
    # The empty universe is always enumerated and always has a candidate
    # (every variable bound to {}), so an exhausted loop searched the budget.
    if budget.trivial:
        return DecideResult(UNKNOWN)
    return DecideResult(UNSAT_WITHIN_BUDGET)
