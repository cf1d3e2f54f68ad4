"""Block-bijection relations between partitions over one board, and the
assignment transfer they license.

Upward simulation preserves membership between node unions, powerset
equations on pow-nodes, and red block cardinalities.  Imitation is the
local, assembly-level version that implies it; checking imitation is what
the process machinery actually produces.  Both compare per-side tables read
off the blocks in one pass (`venn.SignatureTable`) instead of sweeping
all 2^places nodes: assembly contact is equality of the contact pairs,
node-union membership is equality of the node -> union home tables, and the
assemblies of the pow-nodes inside a region are all placed when the table
leaves none of them unplaced (`SignatureTable.unplaced_under`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hf, lang
from .report import Report, ReportBuilder
from .venn import (Assignment, ColoredBoard, ImMap, SignatureTable,
                   node_union, subsets)


@dataclass(frozen=True)
class BlockBijection:
    """Place-aligned bijection between the blocks of two partitions.

    Each side is a tuple of distinct, pairwise disjoint blocks, so it has
    at most one empty block.
    """

    source: tuple
    target: tuple

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(frozenset(b) for b in self.source))
        object.__setattr__(self, "target", tuple(frozenset(b) for b in self.target))
        if len(self.source) != len(self.target):
            raise ValueError("bijection must pair every block")
        for side in (self.source, self.target):
            if (len(set(side)) != len(side)
                    or len(frozenset().union(*side)) != sum(map(len, side))):
                raise ValueError("bijection endpoints must be partitions")

    @property
    def places(self):
        return range(len(self.source))


def simulates_upwards(board: ColoredBoard, bijection: BlockBijection) -> Report:
    """Does the image partition simulate the original upwards?

    Membership of one node union in another reduces to the home block of
    the union, so membership simulation over every node is equality of the
    two sides' node -> union home tables.  No checker runs this oracle of
    `imitates`, so it lists the nodes under each pow region.
    """
    rb = ReportBuilder()
    places = bijection.places
    rb.add("membership simulation",
           SignatureTable(bijection.source).union_homes(places)
           == SignatureTable(bijection.target).union_homes(places))

    ok_pow = True
    pow_nodes = {y for region in board.pow_regions for y in subsets(region)}
    for y in sorted(pow_nodes, key=sorted):
        p = hf.powerset(node_union(bijection.source, y))
        members = set(p.elements)
        x = frozenset(q for q in places if bijection.source[q] & members)
        if node_union(bijection.source, x) is not p:
            continue
        if node_union(bijection.target, x) is not hf.powerset(
                node_union(bijection.target, y)):
            ok_pow = False
    rb.add("powerset simulation on pow-nodes", ok_pow)

    rb.add("red cardinality simulation",
           all(len(bijection.target[q]) == len(bijection.source[q])
               for q in board.red))
    return rb.build()


def imitates(board: ColoredBoard, bijection: BlockBijection) -> Report:
    """Assembly-level imitation of a colored board's partition, upwards.

    (1) assembly contact between blocks and node families transfers both
    ways; (2) node-union membership transfers; (3) pow-node assemblies land
    inside the image union; (4) red images are finite, and (4') of the same
    size as their sources.
    """
    rb = ReportBuilder()
    places = bijection.places
    src = SignatureTable(bijection.source)
    tgt = SignatureTable(bijection.target)
    rb.add("(1) assembly contact transfers",
           src.contacts(places).keys() == tgt.contacts(places).keys())
    rb.add("(2) node-union membership transfers",
           src.union_homes(places) == tgt.union_homes(places))
    rb.add("(3) pow-node assemblies are absorbed",
           not any(map(tgt.unplaced_under, board.pow_regions)))

    rb.add("(4) red images are finite", True)
    rb.add("(4') red images keep their cardinality",
           all(len(bijection.target[q]) == len(bijection.source[q])
               for q in board.red))
    return rb.build()


def transfer_assignment(assignment: Assignment, im: ImMap,
                        bijection: BlockBijection) -> Assignment:
    """Re-read every variable of the assignment off the image blocks of its
    places."""
    return Assignment({v: node_union(bijection.target, im[v])
                       for v in assignment.bindings})


def literal_transfer_report(formula: lang.Formula, assignment: Assignment,
                            transferred: Assignment) -> Report:
    """Which literal values carry over from an assignment to its transfer.

    Non-finiteness literals must transfer forward; those not involving the
    powerset or enumeration constructs must also transfer backward.  Positive
    finiteness literals additionally keep their variable's cardinality.
    """
    rb = ReportBuilder()
    for i, lit in enumerate(formula.literals):
        if lit.kind == lang.NOT_FINITE:
            continue
        if lit.kind == lang.FINITE:
            v = lit.operands[0]
            rb.add(f"literal {i} '{lit.render()}': cardinality preserved",
                   len(assignment.bindings[v]) == len(transferred.bindings[v]))
            continue
        before = lang.eval_literal(lit, assignment)
        after = lang.eval_literal(lit, transferred)
        rb.add(f"literal {i} '{lit.render()}': forward preservation",
               (not before) or after,
               f"before={before} after={after}")
        if lit.kind not in (lang.POW, lang.ENUM):
            rb.add(f"literal {i} '{lit.render()}': backward preservation",
                   (not after) or before,
                   f"before={before} after={after}")
    return rb.build()
