"""Canonical hereditarily finite sets and the primitive set operators.

Every set is interned: building the same extensional set twice yields the
same object, so equality is identity and hashing is O(1).  Elements are kept
deduplicated in a fixed canonical order (rank, then size, then lexicographic
on the ordered elements), which makes serialization deterministic.
"""

from __future__ import annotations

import math
from itertools import product

from .errors import LimitExceeded
from .limits import DEFAULT_LIMITS


class HfSet:
    """An immutable hereditarily finite set.

    Do not call the constructor directly; use make_set (or from_json), which
    canonicalizes and interns.  `elements` is the canonically ordered tuple of
    member sets, `rank` the von Neumann rank, len() the number of members.
    """

    __slots__ = ("elements", "rank", "_key", "_hash")

    _intern: dict = {}

    def __new__(cls, _token, elements):
        if _token is not _INTERN_TOKEN:
            raise TypeError("use make_set() to build HfSet values")
        self = object.__new__(cls)
        object.__setattr__(self, "elements", elements)
        rank = 1 + max((e.rank for e in elements), default=-1)
        object.__setattr__(self, "rank", rank)
        key = (rank, len(elements), tuple(e._key for e in elements))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HfSet values are immutable")

    def __hash__(self):
        return self._hash

    # Interning guarantees extensional equality coincides with identity, so
    # the default identity __eq__ is the extensional one.

    def __lt__(self, other):
        return self._key < other._key

    def __le__(self, other):
        return self._key <= other._key

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, other):
        return any(e is other for e in self.elements)

    def __repr__(self):
        return "{" + ",".join(repr(e) for e in self.elements) + "}"

    def to_json(self):
        """Nested-list form, elements in canonical order: {} -> []."""
        return [e.to_json() for e in self.elements]


_INTERN_TOKEN = object()


def make_set(elems) -> HfSet:
    """Build the canonical HfSet with exactly the given (HfSet) elements.

    Duplicates collapse; the result is interned, so extensionally equal
    inputs return the identical object.
    """
    uniq = sorted(set(elems), key=lambda e: e._key)
    key = tuple(uniq)
    cached = HfSet._intern.get(key)
    if cached is None:
        cached = HfSet(_INTERN_TOKEN, key)
        HfSet._intern[key] = cached
    return cached


EMPTY = make_set(())


def from_json(data):
    """Parse nested lists back into an HfSet.

    Re-canonicalizes; returns (set, had_duplicates) where the flag warns that
    the input listed extensionally equal members more than once.
    """
    had_dup = False

    def build(node):
        nonlocal had_dup
        if not isinstance(node, list):
            raise ValueError(f"expected a nested list, got {type(node).__name__}")
        kids = [build(k) for k in node]
        if len(set(kids)) != len(kids):
            had_dup = True
        return make_set(kids)

    return build(data), had_dup


def compare(a: HfSet, b: HfSet, rel: str) -> bool:
    """Extensional truth of a REL b for rel in {'in', '<=', '='}."""
    if rel == "in":
        return a in b
    if rel == "<=":
        return subset(a, b)
    if rel == "=":
        return a is b
    raise ValueError(f"unknown relation {rel!r}")


def subset(a: HfSet, b: HfSet) -> bool:
    bs = set(b.elements)
    return all(e in bs for e in a.elements)


def bool_op(a: HfSet, b: HfSet, op: str) -> HfSet:
    """Binary Boolean operator: 'U' union, 'I' intersection, '\\' difference."""
    sa, sb = set(a.elements), set(b.elements)
    if op == "U":
        return make_set(sa | sb)
    if op == "I":
        return make_set(sa & sb)
    if op == "\\":
        return make_set(sa - sb)
    raise ValueError(f"unknown operator {op!r}")


def powerset(s: HfSet, limit: int = DEFAULT_LIMITS.pow_limit) -> HfSet:
    """The set of all subsets of s.  Fails loudly when 2^|s| exceeds limit."""
    n = len(s)
    if n >= limit.bit_length() and 2 ** n > limit:
        raise LimitExceeded("powerset", 2 ** n, limit)
    elems = s.elements
    subs = []
    for mask in range(2 ** n):
        subs.append(make_set(elems[i] for i in range(n) if mask >> i & 1))
    return make_set(subs)


def pow_star_size(blocks) -> int:
    """Number of assemblies of a family of disjoint blocks: prod(2^|z| - 1)."""
    return math.prod(2 ** len(tuple(z)) - 1 for z in blocks)


def pow_star(blocks, limit: int = DEFAULT_LIMITS.pow_limit):
    """All sets assembled by taking a nonempty part from each block.

    `blocks` is a family of disjoint nonempty collections of HfSets; the
    result is the canonically sorted tuple of every union of one nonempty
    choice per block.  pow_star(()) == (EMPTY,).  A family containing an
    empty block admits no assembly and yields ().
    """
    blocks = [tuple(z) for z in blocks]
    if any(not z for z in blocks):
        return ()
    total = pow_star_size(blocks)
    if total > limit:
        raise LimitExceeded("assembly family", total, limit)
    per_block = []
    for z in blocks:
        n = len(z)
        per_block.append([
            [z[i] for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n)
        ])
    out = set()
    for picks in product(*per_block):
        members = []
        for p in picks:
            members.extend(p)
        out.add(make_set(members))
    return tuple(sorted(out, key=lambda e: e._key))


def in_pow_star(e: HfSet, blocks) -> bool:
    """Membership in the assembly family without materializing it.

    True iff every member of e lies in some block and e meets every block.
    Works for arbitrary (even overlapping or empty) block families.
    """
    blocks = [frozenset(z) for z in blocks]
    members = set(e.elements)
    for z in blocks:
        if not (members & z):
            return False
    covered = set().union(*blocks) if blocks else set()
    return members <= covered


def meets(a, b) -> bool:
    """Nonempty-intersection test; accepts HfSets or plain collections."""
    sa = set(a.elements) if isinstance(a, HfSet) else set(a)
    sb = set(b.elements) if isinstance(b, HfSet) else set(b)
    return bool(sa & sb)


def transitive_closure(s: HfSet) -> HfSet:
    """Least transitive superset of s."""
    seen = set(s.elements)
    stack = list(s.elements)
    while stack:
        e = stack.pop()
        for m in e.elements:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return make_set(seen)


def is_transitive(s: HfSet) -> bool:
    members = set(s.elements)
    return all(set(e.elements) <= members for e in s.elements)


def transitive_ops(s: HfSet):
    """(least transitive superset, whether s is already transitive)."""
    return transitive_closure(s), is_transitive(s)
