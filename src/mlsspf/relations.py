"""Block-bijection relations between partitions over one board, and the
assignment transfer they license.

Upward simulation preserves membership between node unions, powerset
equations on pow-nodes, and red block cardinalities.  Imitation is the
local, assembly-level version that implies it; checking imitation is what
the process machinery actually produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import hf, lang
from .limits import DEFAULT_LIMITS, Limits
from .msrefine import _all_nodes, _count_in_pow_star
from .report import Report, ReportBuilder
from .venn import Assignment, ColoredBoard, ImMap, Partition, home_index


@dataclass(frozen=True)
class BlockBijection:
    """Place-aligned bijection between the blocks of two partitions."""

    source: tuple
    target: tuple

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(frozenset(b) for b in self.source))
        object.__setattr__(self, "target", tuple(frozenset(b) for b in self.target))
        if len(self.source) != len(self.target):
            raise ValueError("bijection must pair every block")
        if len(set(self.source)) != len(self.source) or \
                len(set(self.target)) != len(self.target):
            raise ValueError("bijection endpoints must be partitions")

    @staticmethod
    def identity(partition: Partition) -> "BlockBijection":
        return BlockBijection(partition.blocks, partition.blocks)

    @property
    def places(self):
        return range(len(self.source))

    def node_union_source(self, node) -> hf.HfSet:
        members = set()
        for q in node:
            members |= self.source[q]
        return hf.make_set(members)

    def node_union_target(self, node) -> hf.HfSet:
        members = set()
        for q in node:
            members |= self.target[q]
        return hf.make_set(members)


def _candidate_nodes(bijection: BlockBijection, board: ColoredBoard,
                     limits: Limits):
    places = list(bijection.places)
    if len(places) <= limits.sim_exhaustive_max:
        return list(_all_nodes(places)), False
    nodes = set(board.targets) | set(board.pow_nodes)
    nodes.add(frozenset())
    nodes.add(frozenset(places))
    return sorted(nodes, key=sorted), True


def simulates_upwards(partition: Partition, board: ColoredBoard,
                      hat: Partition, bijection: BlockBijection,
                      limits: Limits = DEFAULT_LIMITS) -> Report:
    """Does the image partition simulate the original upwards?

    Membership simulation sweeps every node (all place subsets up to the
    configured bound, realized nodes beyond it, marked partial); membership
    of one node union in another reduces to the home block of the union, so
    a single sweep over nodes suffices.
    """
    rb = ReportBuilder()
    home_src = home_index(bijection.source)
    home_tgt = home_index(bijection.target)
    nodes, partial = _candidate_nodes(bijection, board, limits)
    ok_in = True
    for node in nodes:
        u = bijection.node_union_source(node)
        u_hat = bijection.node_union_target(node)
        if home_src.get(u) != home_tgt.get(u_hat):
            ok_in = False
    rb.add("membership simulation" + (" (partial sweep)" if partial else ""),
           ok_in)

    ok_pow = True
    for y in sorted(board.pow_nodes, key=sorted):
        p = hf.powerset(bijection.node_union_source(y), limits.pow_limit)
        members = set(p.elements)
        x = frozenset(q for q in bijection.places
                      if bijection.source[q] & members)
        if not all(bijection.source[q] <= members for q in x):
            continue
        covered = set()
        for q in x:
            covered |= bijection.source[q]
        if covered != members:
            continue
        u_hat = bijection.node_union_target(x)
        if u_hat is not hf.powerset(bijection.node_union_target(y),
                                    limits.pow_limit):
            ok_pow = False
    rb.add("powerset simulation on pow-nodes", ok_pow)

    rb.add("red cardinality simulation",
           all(len(bijection.target[q]) == len(bijection.source[q])
               for q in board.red))
    return rb.build()


def imitates(partition: Partition, board: ColoredBoard, hat: Partition,
             bijection: BlockBijection, upwards: bool = True,
             biconditional: bool = True) -> Report:
    """Assembly-level imitation of a colored board's partition.

    (1) assembly contact between blocks and node families transfers (in both
    directions unless `biconditional` is lowered to the one-way reading);
    (2) node-union membership transfers; (3) pow-node assemblies land inside
    the image union; (4) red images are finite, and with `upwards` of the
    same size as their sources.
    """
    rb = ReportBuilder()
    places = list(bijection.places)
    ok1 = True
    for node in _all_nodes(places):
        src_fam = [bijection.source[q] for q in sorted(node)]
        tgt_fam = [bijection.target[q] for q in sorted(node)]
        for q in places:
            lhs = any(hf.in_pow_star(e, tgt_fam) for e in bijection.target[q])
            rhs = any(hf.in_pow_star(e, src_fam) for e in bijection.source[q])
            if biconditional and lhs != rhs:
                ok1 = False
            if not biconditional and lhs and not rhs:
                ok1 = False
    rb.add("(1) assembly contact transfers", ok1)

    ok2 = True
    for node in _all_nodes(places):
        u = bijection.node_union_source(node)
        u_hat = bijection.node_union_target(node)
        for q in places:
            if (u_hat in bijection.target[q]) != (u in bijection.source[q]):
                ok2 = False
    rb.add("(2) node-union membership transfers", ok2)

    placed_hat = set()
    for b in bijection.target:
        placed_hat |= b
    ok3 = True
    for node in sorted(board.pow_nodes, key=sorted):
        fam = [bijection.target[q] for q in sorted(node)]
        if _count_in_pow_star(fam, placed_hat) != hf.pow_star_size(fam):
            ok3 = False
    rb.add("(3) pow-node assemblies are absorbed", ok3)

    rb.add("(4) red images are finite", True)
    if upwards:
        rb.add("(4') red images keep their cardinality",
               all(len(bijection.target[q]) == len(bijection.source[q])
                   for q in board.red))
    return rb.build()


def read_assignment(im: ImMap, blocks) -> Assignment:
    """Bind each variable of `im` to the union of the blocks at its places."""
    out = {}
    for v, places in im.places.items():
        members = set()
        for q in places:
            members |= blocks[q]
        out[v] = hf.make_set(members)
    return Assignment(out)


def transfer_assignment(assignment: Assignment, im: ImMap,
                        bijection: BlockBijection) -> Assignment:
    """Re-read every variable of the assignment off the image blocks of its
    places."""
    own = ImMap({v: im[v] for v in assignment.bindings})
    return read_assignment(own, bijection.target)


def literal_transfer_report(formula: lang.Formula, assignment: Assignment,
                            transferred: Assignment,
                            limits: Limits = DEFAULT_LIMITS) -> Report:
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
        before = lang.eval_literal(lit, assignment, limits)
        after = lang.eval_literal(lit, transferred, limits)
        rb.add(f"literal {i} '{lit.render()}': forward preservation",
               (not before) or after,
               f"before={before} after={after}")
        if lit.kind not in (lang.POW, lang.ENUM):
            rb.add(f"literal {i} '{lit.render()}': backward preservation",
                   (not after) or before,
                   f"before={before} after={after}")
    return rb.build()
