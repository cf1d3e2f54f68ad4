"""Oracles that only the tests call: definitions the prover and the checker
do not read, against which tests compare what they compute.

`simulates_upwards` is the lemma oracle: upward simulation, which the
imitation that `relations.imitates` checks implies.  `finer_than`,
`drop_finite_literals`, `stage_universe` and `final_universe` are the plain
definitions the tests read partitions, formulas and processes by.  They
still import package helpers (`node_union`, `SignatureTable`, `subsets`).
"""

from __future__ import annotations

from mlsspf import hf, lang
from mlsspf.report import ReportBuilder
from mlsspf.venn import SignatureTable, node_union, subsets


def simulates_upwards(board, bijection):
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


def finer_than(fine, coarse) -> bool:
    """True iff every member of `coarse` is a union of members of `fine`."""
    fine = [frozenset(b) for b in fine]
    for a in map(frozenset, coarse):
        covered = set()
        for b in fine:
            if b <= a:
                covered |= b
        if covered != a:
            return False
    return True


def drop_finite_literals(formula):
    """The formula with every Finite/NotFinite literal removed, order kept."""
    return lang.Formula(tuple(
        lit for lit in formula.literals
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE)))


def stage_universe(proc, mu) -> frozenset:
    """The elements a process has placed by stage mu."""
    return frozenset().union(*proc.stages[mu])


def final_universe(proc) -> frozenset:
    """The elements a process has placed by its last stage."""
    return stage_universe(proc, proc.xi)
