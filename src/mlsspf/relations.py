"""Block-bijection relations between partitions over one board, and the
assignment transfer they license.

Imitation is the local, assembly-level relation that implies upward
simulation (membership between node unions, powerset equations on
pow-nodes and red block cardinalities all preserved); checking imitation is
what the process machinery actually produces.  It compares per-side tables
read off the blocks in one pass (`venn.SignatureTable`) instead of sweeping
all 2^places nodes: assembly contact is equality of the contact pairs,
node-union membership is equality of the node -> union home tables, and the
assemblies of the pow-nodes inside a region are all placed when the table
leaves none of them unplaced (`SignatureTable.unplaced_under`).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .report import Report, ReportBuilder
from .venn import Assignment, ColoredBoard, node_union, signature_table


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


def imitates(board: ColoredBoard, bijection: BlockBijection) -> Report:
    """Assembly-level imitation of a colored board's partition, upwards.

    (1) assembly contact between blocks and node families transfers both
    ways; (2) node-union membership transfers; (3) pow-node assemblies land
    inside the image union; (4) red images are finite, and (4') of the same
    size as their sources.
    """
    rb = ReportBuilder()
    places = bijection.places
    src = signature_table(bijection.source)
    tgt = signature_table(bijection.target)
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


def transfer_assignment(assignment: Assignment, im,
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
