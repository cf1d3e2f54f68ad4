"""Canonical hereditarily finite sets and the primitive set operators.

Every set is interned: building the same extensional set twice yields the
same object, so equality is identity (hash-consing).  A set therefore hashes
and compares by identity, as a plain object does: equal sets are one object,
so the identity hash is an extensional one.  The intern table is keyed by
the tuple of a set's members, whose hash reads their identities, so
building a set costs time in its members, not in its tree.  Elements are
kept deduplicated in a fixed canonical order (rank, then size, then
lexicographic on the ordered elements), which makes serialization
deterministic.  Sets have no `<`: sort them, or take their `min` or heap
order, with the key `order_key`.

An identity hash differs from one process to the next, so the iteration
order of a Python set or dict of sets does too.  No output may read that
order: whatever is written, compared or chosen goes through `order_key` or
through an order of its own, such as place indices.

A set's JSON form is a nested tuple of its members' forms, built with the
set and kept on it, so the interned members a value shares with others
share their JSON forms too.  `dumps` writes the same text as
`json.dumps(value, sort_keys=True, indent=2)`, but renders every tuple once
per indent depth and reuses that text wherever the tuple recurs: the stages
of a certificate repeat the forms of the sets they share.  `Decoder` is the
reading half: it parses each distinct JSON text once, and refuses a set of
rank above `MAX_RANK`.  Neither half recurses, so what they read and write
does not depend on the caller's stack or the recursion limit.
"""

from __future__ import annotations

import json
import math
import operator

from .errors import LimitExceeded

# The default bound of `powerset`, `assemblies` and `pow_star`: past it they
# raise LimitExceeded.
POW_LIMIT = 2 ** 20

# The greatest rank of a set a `Decoder` reads: a deeper one is bad input.
MAX_RANK = 333
_TOO_DEEP = f"a set nests too deep to decode (rank above {MAX_RANK})"


class HfSet:
    """An immutable hereditarily finite set.

    Do not call the constructor directly; use make_set (or a Decoder), which
    canonicalizes and interns.  `elements` is the canonically ordered tuple of
    member sets, `rank` the von Neumann rank, len() the number of members.

    Equality, hash and membership are those of a plain object, by
    identity, and run in C: interning makes identity extensional.  Sets
    define no order; `order_key` gives the canonical one.
    """

    __slots__ = ("elements", "rank", "_key", "_json")

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
        object.__setattr__(self, "_json", tuple(e._json for e in elements))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("HfSet values are immutable")

    # Interning guarantees extensional equality coincides with identity, so
    # the default identity __eq__ and __hash__ are the extensional ones.

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, other):
        return other in self.elements

    def __repr__(self):
        return "{" + ",".join(repr(e) for e in self.elements) + "}"

    def to_json(self):
        """Nested-tuple form, elements in canonical order: {} -> ().

        Built with the set from its members' forms: every call returns the
        same immutable tuple, whose members are the members' forms.  It
        sorts, compares and serializes as the nested lists would, and
        `dumps` writes it at any depth.
        """
        return self._json


_INTERN_TOKEN = object()

# The canonical order of sets, as a sort key: (rank, size, member keys).
order_key = operator.attrgetter("_key")


def make_set(elems) -> HfSet:
    """Build the canonical HfSet with exactly the given (HfSet) elements.

    Duplicates collapse; the result is interned, so extensionally equal
    inputs return the identical object.
    """
    uniq = sorted(set(elems), key=order_key)
    key = tuple(uniq)
    cached = HfSet._intern.get(key)
    if cached is None:
        cached = HfSet(_INTERN_TOKEN, key)
        HfSet._intern[key] = cached
    return cached


EMPTY = make_set(())


def expect_json(value, kind, what):
    """`value` if it is a JSON `kind` (no boolean passes for an `int`), else
    ValueError: malformed input is bad input, not a fault of the library."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(
            f"{what} must be a JSON {kind.__name__}, not {type(value).__name__}")
    return value


def expect_at_least(value, least, name):
    """`value` if it is an int (no boolean passes) of at least `least`,
    else ValueError: a bound such as 4.0 or True is bad input where it is
    read, not a value to record in a certificate."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be at least {least}, not {value!r}")
    return value


class Decoder:
    """The reader of sets' JSON forms: nested lists, or tuples as
    `HfSet.to_json` gives.  One instance decodes the many sets of one
    document, such as the stages of a process or every set of a
    certificate.

    Called on a set's JSON form it returns (set, had_duplicates): the set,
    re-canonicalized, and a flag warning that the input listed
    extensionally equal members more than once.  `block` decodes a list of
    such forms to a frozenset of their sets, collapsing duplicates as
    `frozenset` does.  Sets are memoized by their form's `repr`, which for
    nested lists is their JSON text and costs no encoder call, at every
    level: a set seen before is one lookup, and a new one looks up each of
    its members.  Equal forms give equal results, duplicate flag included;
    only decoded forms are kept.

    A set of rank above `MAX_RANK` is bad input: ValueError.  Each set is
    checked when it is built, before the memo keeps it, so memo hits are in
    bound too; and the decoder keeps its own stack, so the bound is the
    same from any caller under any recursion limit.
    """

    def __init__(self):
        self._memo = {}

    def __call__(self, data):
        memo = self._memo
        # The lists being decoded, outermost first, each as its memo key,
        # an iterator over the rest of its members and the (set, flag)
        # pairs of its members so far.  The bottom entry holds `data`.
        stack = [(None, iter((data,)), [])]
        while True:
            key, forms, kids = stack[-1]
            for form in forms:
                try:
                    sub = repr(form)
                except RecursionError:
                    # CPython's `repr` recurses, so it gives out on a list
                    # nested far beyond MAX_RANK.
                    raise ValueError(_TOO_DEEP) from None
                got = memo.get(sub)
                if got is None:
                    if not isinstance(form, (list, tuple)):
                        raise ValueError(
                            f"expected a nested list, got {type(form).__name__}")
                    stack.append((sub, iter(form), []))
                    break
                kids.append(got)
            else:
                stack.pop()
                if not stack:
                    return kids[0]
                members = [s for s, _ in kids]
                got = (make_set(members), len(set(members)) != len(members)
                       or any(d for _, d in kids))
                if got[0].rank > MAX_RANK:
                    raise ValueError(_TOO_DEEP)
                memo[key] = got
                stack[-1][2].append(got)

    def block(self, data, what="a block") -> frozenset:
        return frozenset([self(e)[0] for e in expect_json(data, list, what)])


def block_json(block) -> list:
    """A block's JSON form, which `Decoder.block` reads: its members' forms,
    sorted.  The sort decides the bytes of every document holding blocks."""
    return sorted(e.to_json() for e in block)


def dumps(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)`, byte for byte.

    Each tuple is rendered once per indent depth and its text reused
    wherever the same tuple object recurs in `value`, so the cached
    `HfSet.to_json` forms a certificate repeats across its stages are
    encoded once.  Lists, tuples, dicts, strings, numbers, booleans and
    None are accepted, as `json.dumps` accepts them; None, booleans and ints
    are written without building an encoder, as `json` writes them.  The
    containers being written are kept on a stack of their own, not on the
    call stack, so a value of any depth is written.
    """
    memo = {}
    seen = memo.get
    # The containers being written, outermost first, and apart from them
    # the current one: the texts of its members so far, an iterator over
    # the rest, its memo key (a tuple's) and its sorted keys (a dict's).
    # Its members lie at depth len(stack).
    stack = []
    texts, members, key, names = [], iter((value,)), None, None
    while True:
        inner = len(stack)
        for v in members:
            # Tuples first: they are most of what a certificate holds.
            if isinstance(v, tuple):
                text = seen((id(v), inner))
                if text is None:
                    if v:
                        opened = iter(v), (id(v), inner), None
                        break
                    text = "[]"
            elif isinstance(v, str):
                text = _encode_str(v)
            elif isinstance(v, list):
                if v:
                    opened = iter(v), None, None
                    break
                text = "[]"
            elif isinstance(v, dict):
                if v:
                    order = sorted(v)
                    opened = map(v.__getitem__, order), None, order
                    break
                text = "{}"
            elif v is None:
                text = "null"
            elif v is True:
                text = "true"
            elif v is False:
                text = "false"
            elif isinstance(v, int):
                text = int.__repr__(v)
            else:
                # Floats, NaN among them; TypeError for anything else.
                text = json.dumps(v)
            texts.append(text)
        else:
            if not stack:
                return texts[0]
            # The texts are amended in place and joined once, so a document
            # is held at most twice while its outermost container closes.
            sep, opening, closing = "\n" + "  " * inner, "[", "]"
            if names is not None:
                opening, closing = "{", "}"
                for j, k in enumerate(names):
                    texts[j] = _encode_str(_key_str(k)) + ": " + texts[j]
            texts[0] = opening + sep + texts[0]
            texts[-1] += "\n" + "  " * (inner - 1) + closing
            text = ("," + sep).join(texts)
            if key is not None:
                memo[key] = text
            texts, members, key, names = stack.pop()
            texts.append(text)
            continue
        stack.append((texts, members, key, names))
        texts = []
        members, key, names = opened


_encode_str = json.encoder.encode_basestring_ascii


def _key_str(k) -> str:
    """An object key as `json` writes it: None, booleans and numbers as
    their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


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


def powerset(s: HfSet, limit: int = POW_LIMIT) -> HfSet:
    """The set of all subsets of s.  Fails loudly when 2^|s| exceeds limit.

    No package code calls it: `lang` decides p = Pow(z) without building
    Pow(z).  It stays as the public constructor of a powerset value.
    """
    n = len(s)
    if n >= limit.bit_length() and 2 ** n > limit:
        raise LimitExceeded("powerset", 2 ** n, limit)
    elems = s.elements
    subs = []
    for mask in range(2 ** n):
        subs.append(make_set(elems[i] for i in range(n) if mask >> i & 1))
    return make_set(subs)


def pow_star_size(blocks) -> int:
    """Number of assemblies of a family of disjoint blocks: prod(2^|z| - 1).

    For overlapping blocks this counts choices, not distinct assemblies, so
    it is an upper bound on the size of the family.
    """
    return math.prod(2 ** len(tuple(z)) - 1 for z in blocks)


def assemblies(blocks, limit: int = POW_LIMIT):
    """Yield the assembly family of `blocks` lazily, in canonical order.

    The family is every subset of the union of the blocks that meets each
    block, which is the set of unions of one nonempty part per block, also
    when blocks overlap.  A set's key is (rank, size, member keys) and its
    rank is one more than its top member's, so with the union sorted by key
    the family is walked by the rank of the top member, then by size, then
    in `itertools.combinations` order, which is lexicographic on the sorted
    member keys.  Only the yielded sets are built.  Raises LimitExceeded
    when a consumer asks for more than `limit` assemblies.  The limit counts
    yielded assemblies only: the search between two yields is not bounded,
    and when many elements lie in many blocks it may walk many combinations
    that miss some block before the next assembly.
    """
    blocks = [frozenset(z) for z in blocks]
    if any(not z for z in blocks):
        return
    union = sorted(set().union(*blocks), key=order_key)
    masks = [sum(1 << b for b, z in enumerate(blocks) if e in z) for e in union]
    full = (1 << len(blocks)) - 1
    widest = max((m.bit_count() for m in masks), default=1)
    yielded = 0

    def picks(start, hi, lo, reach, left, met):
        # Index tuples of `left` more picks from union[start:hi] that meet
        # every block missed by `met`; the last pick is at or above lo.
        # reach[i] is the blocks met by union[i:hi].
        if left == 0:
            if met == full:
                yield ()
            return
        if (full & ~met).bit_count() > left * widest:
            return
        first = max(start, lo) if left == 1 else start
        for i in range(first, hi - left + 1):
            if met | reach[i] != full:
                return
            for rest in picks(i + 1, hi, lo, reach, left - 1, met | masks[i]):
                yield (i,) + rest

    lo = 0
    try:
        while True:
            hi = lo
            while hi < len(union) and union[hi].rank == union[lo].rank:
                hi += 1
            reach = [0] * (hi + 1)
            for i in range(hi - 1, -1, -1):
                reach[i] = reach[i + 1] | masks[i]
            # Size 0 only when there are no blocks: the family is {EMPTY}.
            sizes = range(1 if union else 0, hi + 1) if reach[0] == full else ()
            for size in sizes:
                for chosen in picks(0, hi, lo, reach, size, 0):
                    if yielded == limit:
                        raise LimitExceeded("assembly family", limit + 1, limit)
                    yielded += 1
                    yield make_set(union[i] for i in chosen)
            if hi == len(union):
                return
            lo = hi
    finally:
        # picks refers to itself: unbound, it leaves no cycle behind when
        # the family is exhausted or its consumer drops it.
        picks = None


def pow_star(blocks, limit: int = POW_LIMIT):
    """All sets assembled by taking a nonempty part from each block.

    The canonically sorted tuple of `assemblies(blocks)`.
    pow_star(()) == (EMPTY,).  A family containing an empty block admits no
    assembly and yields ().  Raises LimitExceeded up front when
    pow_star_size(blocks) exceeds `limit`.
    """
    blocks = [tuple(z) for z in blocks]
    if any(not z for z in blocks):
        return ()
    total = pow_star_size(blocks)
    if total > limit:
        raise LimitExceeded("assembly family", total, limit)
    return tuple(assemblies(blocks, limit))


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

