"""Venn partitions of assignments and the induced colored boards.

A finite assignment induces the coarsest partition of its value-union whose
blocks never straddle a variable's value.  Places are stable small integers
naming the blocks; nodes are sets of places.  The target function T sends a
node A to the places whose block meets the assembly family of A's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from . import hf, lang
from .errors import NotTransitive
from .limits import DEFAULT_LIMITS, Limits

EMPTY_NODE = frozenset()


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
        out = set()
        for v in self.bindings.values():
            out.update(v.elements)
        return out

    def to_json(self):
        return {v: self.bindings[v].to_json() for v in self.vars()}

    @staticmethod
    def from_json(data):
        out = {}
        warnings = []
        for var, nested in data.items():
            val, dup = hf.from_json(nested)
            if dup:
                warnings.append(var)
            out[var] = val
        return Assignment(out), warnings


@dataclass(frozen=True)
class Partition:
    """Pairwise disjoint nonempty blocks, canonically ordered.

    The block order (by each block's least element) is what gives places
    their stable integer identities downstream.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "blocks",
            tuple(frozenset(b) for b in self.blocks))

    @property
    def union_elements(self):
        out = set()
        for b in self.blocks:
            out |= b
        return out

    def outer_member(self, y: hf.HfSet) -> bool:
        """True for subsets of the union that are not themselves members."""
        u = self.union_elements
        return set(y.elements) <= u and y not in u

    def is_transitive(self) -> bool:
        u = self.union_elements
        return all(set(e.elements) <= u for e in u)

    def to_json(self):
        return [sorted((e.to_json() for e in b)) for b in self.blocks]


def _sorted_blocks(blocks):
    return tuple(sorted((frozenset(b) for b in blocks),
                        key=lambda b: min(b, key=lambda e: e._key)._key))


@dataclass(frozen=True)
class ImMap:
    """Variable -> set of places whose blocks assemble the variable's value."""

    places: dict

    def __post_init__(self):
        object.__setattr__(self, "places", MappingProxyType(
            {v: frozenset(ps) for v, ps in self.places.items()}))

    def __getitem__(self, var):
        return self.places[var]

    def to_json(self):
        return {v: sorted(ps) for v, ps in sorted(self.places.items())}


def venn_partition(assignment: Assignment):
    """Coarsest partition whose blocks respect every variable's value.

    Elements of the ground universe are grouped by their membership
    signature across variables; returns (Partition, ImMap).
    """
    universe = assignment.value_union()
    value_sets = {v: set(val.elements) for v, val in assignment.bindings.items()}
    groups = {}
    for e in universe:
        sig = frozenset(v for v, members in value_sets.items() if e in members)
        groups.setdefault(sig, set()).add(e)
    blocks = _sorted_blocks(groups.values())
    partition = Partition(blocks)
    im = {}
    for v, members in value_sets.items():
        im[v] = frozenset(i for i, b in enumerate(blocks) if b <= members)
    return partition, ImMap(im)


def finer_than(fine, coarse) -> bool:
    """True iff every member of `coarse` is a union of members of `fine`."""
    fine = [frozenset(b) for b in (fine.blocks if isinstance(fine, Partition) else fine)]
    coarse = [frozenset(b) for b in (coarse.blocks if isinstance(coarse, Partition) else coarse)]
    for a in coarse:
        covered = set()
        for b in fine:
            if b <= a:
                covered |= b
        if covered != a:
            return False
    return True


@dataclass(frozen=True)
class ColoredBoard:
    """Places with their blocks, the target function, red places, pow-nodes.

    `targets` holds only the realized nodes (those with a nonempty target
    set); `target()` returns the empty set for every other node.  Red places
    are cardinality-frozen; pow_nodes is closed downward under inclusion.
    """

    blocks: tuple
    targets: dict
    red: frozenset = EMPTY_NODE
    pow_nodes: frozenset = frozenset()
    signatures: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        object.__setattr__(self, "targets", MappingProxyType(dict(self.targets)))
        object.__setattr__(self, "signatures", MappingProxyType(dict(self.signatures)))
        object.__setattr__(self, "red", frozenset(self.red))
        object.__setattr__(self, "pow_nodes",
                           frozenset(frozenset(n) for n in self.pow_nodes))
        for node in self.pow_nodes:
            node = sorted(node)
            for mask in range(2 ** len(node)):
                sub = frozenset(node[i] for i in range(len(node)) if mask >> i & 1)
                if sub not in self.pow_nodes:
                    raise ValueError("pow-nodes must be downward closed")

    @property
    def places(self):
        return tuple(range(len(self.blocks)))

    def target(self, node) -> frozenset:
        return self.targets.get(frozenset(node), EMPTY_NODE)

    def is_green_place(self, q) -> bool:
        return q not in self.red

    def is_green_node(self, node) -> bool:
        return any(q not in self.red for q in node)

    def realized_nodes(self):
        return sorted(self.targets, key=sorted)

    def node_of(self, e: hf.HfSet):
        """The signature node of a universe element (places its members meet)."""
        return self.signatures[e]

    def same_targets(self, other: "ColoredBoard") -> bool:
        return dict(self.targets) == dict(other.targets)

    def to_json(self):
        return {
            "places": [
                {"id": i, "block": sorted(e.to_json() for e in b)}
                for i, b in enumerate(self.blocks)
            ],
            "targets": [
                {"node": sorted(n), "targets": sorted(self.targets[n])}
                for n in self.realized_nodes()
            ],
            "red": sorted(self.red),
            "powNodes": sorted((sorted(n) for n in self.pow_nodes)),
        }


def induced_board(partition: Partition, limits: Limits = DEFAULT_LIMITS) -> ColoredBoard:
    """Board core (places and targets) of a transitive partition.

    Every element e of the union is, by transitivity, a subset of it, so it
    determines the unique node whose assembly family contains it: the set of
    places whose blocks e meets.  Targets are read off those signatures
    instead of materializing the exponential assembly families.
    """
    if not partition.is_transitive():
        raise NotTransitive("the partition's unionset is not transitive")
    blocks = partition.blocks
    home = {}
    for i, b in enumerate(blocks):
        for e in b:
            home[e] = i
    signatures = {}
    targets = {}
    for i, b in enumerate(blocks):
        for e in b:
            node = frozenset(home[m] for m in e.elements)
            signatures[e] = node
            targets.setdefault(node, set()).add(i)
    return ColoredBoard(
        blocks=blocks,
        targets={n: frozenset(ts) for n, ts in targets.items()},
        signatures=signatures,
    )


def color_board(core: ColoredBoard, formula: lang.Formula, im: ImMap) -> ColoredBoard:
    """Attach the red places and pow-nodes a formula dictates.

    Red places come from the regions of enumeration targets and positively
    Finite variables (both literal kinds contribute, read as one union).
    Pow-nodes are the downward closure of the regions of powerset targets.
    """
    red = set()
    pow_seeds = []
    for lit in formula.literals:
        if lit.kind in (lang.ENUM, lang.FINITE):
            red |= im[lit.operands[0]]
        elif lit.kind == lang.POW:
            pow_seeds.append(im[lit.operands[0]])
    pow_nodes = set()
    for seed in pow_seeds:
        seed = sorted(seed)
        for mask in range(2 ** len(seed)):
            pow_nodes.add(frozenset(seed[i] for i in range(len(seed)) if mask >> i & 1))
    return ColoredBoard(
        blocks=core.blocks,
        targets=dict(core.targets),
        red=frozenset(red),
        pow_nodes=frozenset(pow_nodes),
        signatures=dict(core.signatures),
    )


def canonical_board(formula: lang.Formula, assignment: Assignment,
                    limits: Limits = DEFAULT_LIMITS):
    """(partition, im, colored board) of an assignment for a formula."""
    partition, im = venn_partition(assignment)
    core = induced_board(partition, limits)
    return partition, im, color_board(core, formula, im)


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

