"""Venn partitions of assignments and the induced colored boards.

A finite assignment induces the coarsest partition of its value-union whose
blocks never straddle a variable's value.  Places are stable small integers
naming the blocks; nodes are sets of places.  The target function T sends a
node A to the places whose block meets the assembly family of A's blocks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from . import hf, lang
from .errors import NotTransitive

EMPTY_NODE = frozenset()

# The literal kinds whose first operand's region `color_board` colours red:
# a pumping cycle may not grow those values.
RED_KINDS = (lang.ENUM, lang.FINITE)


@dataclass(frozen=True)
class Assignment:
    """A total map from variable names to HfSet values."""

    bindings: dict

    def __post_init__(self):
        object.__setattr__(self, "bindings", MappingProxyType(dict(self.bindings)))

    def vars(self):
        return sorted(self.bindings)

    def value_union(self):
        """All elements of all bound values (the ground universe)."""
        return set().union(*(v.elements for v in self.bindings.values()))

    def to_json(self):
        return {v: self.bindings[v].to_json() for v in self.vars()}

    @staticmethod
    def from_json(data, decode=None):
        """(assignment, variables whose values listed a member twice).
        `decode` is the `hf.Decoder` of the document the assignment is
        part of, else a fresh one."""
        decode = decode or hf.Decoder()
        out = {}
        warnings = []
        for var, nested in hf.expect_json(data, dict, "an assignment").items():
            val, dup = decode(nested)
            if dup:
                warnings.append(var)
            out[var] = val
        return Assignment(out), warnings


def _sorted_blocks(blocks):
    return tuple(sorted((frozenset(b) for b in blocks),
                        key=lambda b: min(map(hf.order_key, b))))


def home_index(blocks) -> dict:
    """Element -> the index of the block holding it (its home place)."""
    return {e: i for i, b in enumerate(blocks) for e in b}


class SignatureTable:
    """Assembly and union facts of the elements of `blocks` over the node
    parts `parts` (by default the blocks themselves), read in one pass.

    Signature identity: over pairwise disjoint parts, an element e whose
    members all lie in parts is an assembly of node N's parts exactly when
    N is sig(e), the set of the places of its members' parts; and e is the
    union of N's parts exactly when, besides, it has as many members as
    those parts together.  A signature holds only places with nonempty
    parts (`live`); the queries answer for every node all the same: a node
    with an empty part has no assembly, and its union is the union of its
    other parts.  A node's parts have prod(2^|part| - 1) assemblies in all,
    and `unplaced` is how many of them the blocks do not hold: a pow-node's
    assemblies are all placed exactly when it is 0.

    `home` maps each element to its block's index (its home place), and
    `signature` each element whose members all lie in parts to sig(e).
    """

    def __init__(self, blocks, parts=None):
        self.home = home = home_index(blocks)
        part_home = home if parts is None else home_index(parts)
        parts = blocks if parts is None else parts
        self.live = frozenset(q for q, p in enumerate(parts) if p)
        self.signature = {}
        self._contacts = Counter()
        self._counts = Counter()
        self._unions = {}
        self._sizes = sizes = [len(p) for p in parts]
        for e, h in home.items():
            try:
                sig = frozenset([part_home[m] for m in e.elements])
            except KeyError:
                # A member in no part: e assembles no node's parts.
                continue
            self.signature[e] = sig
            self._contacts[(sig, h)] += 1
            self._counts[sig] += 1
            if len(e) == sum([sizes[q] for q in sig]):
                self._unions[sig] = e

    def count(self, node) -> int:
        """How many elements of the blocks are assemblies of the node's
        parts."""
        return self._counts[frozenset(node)]

    def unplaced(self, node) -> int:
        """How many assemblies of the node's parts the blocks do not hold:
        their number, the product of 2^|part| - 1, less `count(node)`."""
        return (math.prod(2 ** self._sizes[q] - 1 for q in node)
                - self.count(node))

    def unplaced_under(self, region) -> int:
        """`unplaced` summed over the nodes inside the region: the parts are
        disjoint, so those nodes have 2^(the region's part sizes) assemblies
        in all, less the counts of the signatures inside the region."""
        return (2 ** sum(self._sizes[q] for q in region)
                - sum(c for sig, c in self._counts.items() if sig <= region))

    def union(self, node):
        """The element of the blocks that is the union of the node's parts,
        or None."""
        return self._unions.get(frozenset(node) & self.live)

    def union_home(self, node):
        """The place whose block holds the union of the node's parts, or
        None."""
        u = self.union(node)
        return None if u is None else self.home[u]

    def contacts(self, within) -> dict:
        """(node, place) -> how many assemblies of the node's parts the
        place's block holds, for every node inside `within` with one."""
        within = frozenset(within)
        return {key: c for key, c in self._contacts.items() if key[0] <= within}

    def union_homes(self, within) -> dict:
        """Node -> `union_home(node)`, for every node inside `within` whose
        union is in some block."""
        within = frozenset(within)
        extras = list(subsets(within - self.live))
        return {node | extra: self.home[u]
                for node, u in self._unions.items() if node <= within
                for extra in extras}


# Build tables here: a table is a pure function of its blocks and parts (tuples
# of frozensets), and no caller writes to one, so equal inputs may share it.
signature_table = lru_cache(maxsize=64)(SignatureTable)


def node_union(blocks, node) -> hf.HfSet:
    """The union of the blocks at the node's places, as one HfSet."""
    return hf.make_set(set().union(*(blocks[q] for q in node)))


def subsets(places):
    """Every set of the given places, in mask order over the sorted places
    (bit i of the mask picks the i-th least place)."""
    places = sorted(places)
    for mask in range(2 ** len(places)):
        yield frozenset(places[i] for i in range(len(places)) if mask >> i & 1)


def venn_partition(assignment: Assignment):
    """Coarsest partition whose blocks respect every variable's value.

    Elements of the ground universe are grouped by their membership
    signature across variables.  Returns (blocks, im): the blocks as a
    tuple of frozensets ordered by their least elements, which gives places
    their stable integer identities downstream, and the region map, a
    read-only mapping from each variable to the frozenset of the places
    whose blocks assemble its value.
    """
    universe = assignment.value_union()
    value_sets = {v: set(val.elements) for v, val in assignment.bindings.items()}
    groups = {}
    for e in universe:
        sig = frozenset(v for v, members in value_sets.items() if e in members)
        groups.setdefault(sig, set()).add(e)
    blocks = _sorted_blocks(groups.values())
    im = {v: frozenset(i for i, b in enumerate(blocks) if b <= members)
          for v, members in value_sets.items()}
    return blocks, MappingProxyType(im)


def is_transitive(universe) -> bool:
    """Whether every member of each element of the set `universe` is in it."""
    return all(universe.issuperset(e.elements) for e in universe)


@dataclass(frozen=True)
class ColoredBoard:
    """Places with their blocks, the target function, red places, pow regions.

    `targets` holds only the realized nodes (those with a nonempty target
    set); `target()` returns the empty set for every other node.  Red places
    are cardinality-frozen.  The pow-nodes are the nodes inside some region
    of `pow_regions` (`is_pow_node`), so they are closed downward.
    """

    blocks: tuple
    targets: dict
    red: frozenset = EMPTY_NODE
    pow_regions: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "targets", MappingProxyType(dict(self.targets)))
        object.__setattr__(self, "red", frozenset(self.red))
        object.__setattr__(self, "pow_regions",
                           frozenset(frozenset(r) for r in self.pow_regions))

    @property
    def places(self):
        return tuple(range(len(self.blocks)))

    def target(self, node) -> frozenset:
        return self.targets.get(frozenset(node), EMPTY_NODE)

    def is_green_node(self, node) -> bool:
        return any(q not in self.red for q in node)

    def is_pow_node(self, node) -> bool:
        """Whether the node lies inside some pow region."""
        return any(region.issuperset(node) for region in self.pow_regions)

    def realized_nodes(self):
        return sorted(self.targets, key=sorted)

    def to_json(self):
        return {
            "places": [
                {"id": i, "block": hf.block_json(b)}
                for i, b in enumerate(self.blocks)
            ],
            "targets": [
                {"node": sorted(n), "targets": sorted(self.targets[n])}
                for n in self.realized_nodes()
            ],
            "red": sorted(self.red),
            "powRegions": sorted(sorted(r) for r in self.pow_regions),
        }


def induced_board(blocks) -> ColoredBoard:
    """Board core (places and targets) of a transitive partition, given as
    its tuple of blocks (frozensets).

    Every element e of the union is, by transitivity, a subset of it, so it
    determines the unique node whose assembly family contains it: the set of
    places whose blocks e meets.  Targets are read off the contact pairs
    (node, place) of the blocks' `signature_table` instead of materializing
    the exponential assembly families.
    """
    if not is_transitive(frozenset().union(*blocks)):
        raise NotTransitive("the partition's unionset is not transitive")
    targets = {}
    for node, q in signature_table(blocks).contacts(range(len(blocks))):
        targets.setdefault(node, set()).add(q)
    return ColoredBoard(
        blocks=blocks,
        targets={n: frozenset(ts) for n, ts in targets.items()},
    )


def color_board(core: ColoredBoard, formula: lang.Formula, im) -> ColoredBoard:
    """Attach the red places and pow regions a formula dictates.

    Red places come from the regions of enumeration targets and positively
    Finite variables (both literal kinds contribute, read as one union).
    The pow regions are the regions of powerset arguments: for p = Pow(z),
    an assembly of a node under the region of z is a subset of z, so p must
    hold it.
    """
    red = set()
    pow_regions = set()
    for lit in formula.literals:
        if lit.kind in RED_KINDS:
            red |= im[lit.operands[0]]
        elif lit.kind == lang.POW:
            pow_regions.add(im[lit.operands[1]])
    return ColoredBoard(
        blocks=core.blocks,
        targets=dict(core.targets),
        red=frozenset(red),
        pow_regions=frozenset(pow_regions),
    )


def canonical_board(formula: lang.Formula, assignment: Assignment):
    """(blocks, im, colored board) of an assignment for a formula."""
    blocks, im = venn_partition(assignment)
    core = induced_board(blocks)
    return blocks, im, color_board(core, formula, im)


def transitivize(assignment: Assignment) -> Assignment:
    """Extend with one fresh variable so the Venn union becomes transitive.

    The original bindings are untouched, so every literal keeps its value;
    the auxiliary variable is bound to the transitive closure of the ground
    universe, which forces the new partition's unionset to be transitive.
    """
    closure = hf.transitive_closure(hf.make_set(assignment.value_union()))
    name = "_univ"
    n = 0
    while name in assignment.bindings:
        n += 1
        name = f"_univ{n}"
    out = dict(assignment.bindings)
    out[name] = closure
    return Assignment(out)

