import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf
from mlsspf.relations import BlockBijection
from mlsspf.venn import _sorted_blocks, home_index, node_union, subsets

from conftest import (block_tuple, chain, degenerate, pow_nodes,
                      rand_colored_board, rand_partition,
                      rand_transitive_universe, witness_family)
from oracles import final_universe, simulates_upwards

A, B, C = chain(2)


@pytest.fixture(scope="module")
def pumped(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    ext = m.extend_certificate(cert, 2)
    bij = BlockBijection(ex1.process.final_blocks(),
                         ext.pumped.process.final_blocks())
    return ext, bij


def test_bijection_must_pair_partitions():
    with pytest.raises(ValueError):
        BlockBijection([[A]], [[A], [B]])
    with pytest.raises(ValueError):
        BlockBijection([[A], [A]], [[A], [B]])
    with pytest.raises(ValueError):
        BlockBijection([[A], [A, B]], [[A], [B]])


def test_simulates_identity(ex1):
    bij = BlockBijection(ex1.blocks, ex1.blocks)
    rep = simulates_upwards(ex1.board, bij)
    assert rep.ok


def test_simulates_pumped(ex1, pumped):
    ext, bij = pumped
    rep = simulates_upwards(ex1.board, bij)
    assert rep.ok, str(rep)


def test_simulates_detects_membership_collapse():
    # b = {a} sits in the second block; replacing it by {{a}} breaks the
    # membership pattern of the first block's union.
    src = block_tuple([[A], [B]])
    board = m.induced_board(src)
    tgt = block_tuple([[A], [m.make_set([B])]])
    bij = BlockBijection(src, tgt)
    rep = simulates_upwards(board, bij)
    assert not rep.ok
    assert not rep.items[0].ok


def test_imitates_identity(ex1):
    bij = BlockBijection(ex1.blocks, ex1.blocks)
    rep = m.imitates(ex1.board, bij)
    assert rep.ok
    assert [i.check for i in rep.items][-1].startswith("(4')")


def test_imitates_pumped_upwards(ex1, pumped):
    ext, bij = pumped
    rep = m.imitates(ex1.board, bij)
    assert rep.ok


def test_imitates_detects_missing_assembly():
    src = block_tuple([[A, B]])          # {a} is an assembly inside the block
    board = m.induced_board(src)
    tgt = block_tuple([[A, m.make_set([B])]])  # {{a}}'s member b is missing
    bij = BlockBijection(src, tgt)
    rep = m.imitates(board, bij)
    assert not rep.ok
    assert not rep.items[0].ok


def test_transfer_assignment_examples(ex1, pumped):
    ext, bij = pumped
    ident = BlockBijection(ex1.blocks, ex1.blocks)
    back = m.transfer_assignment(ex1.assignment, ex1.im, ident)
    assert back.bindings == dict(ex1.assignment.bindings)

    moved = m.transfer_assignment(ex1.assignment, ex1.im, bij)
    assert moved.bindings["w"] is ex1.assignment.bindings["w"]
    assert len(moved.bindings["x"]) > len(ex1.assignment.bindings["x"])
    assert set(ex1.assignment.bindings["x"].elements) <= \
        set(moved.bindings["x"].elements)

    im = {"v": frozenset()}
    empty = m.transfer_assignment(
        m.Assignment({"v": B}), im, ident)
    assert empty.bindings["v"] is m.make_set([])


def test_literal_transfer_report_ex1(ex1, pumped):
    ext, _ = pumped
    rep = m.literal_transfer_report(ex1.formula, ex1.assignment,
                                    ext.pumped.final_assignment)
    assert rep.ok
    names = [i.check for i in rep.items]
    assert any("forward" in n for n in names)
    assert any("backward" in n for n in names)


def test_literal_transfer_pow_is_forward_only():
    f = m.parse("u = Pow(w)")
    M = m.Assignment({"u": m.make_set([A, B]), "w": B})
    rep = m.literal_transfer_report(f, M, M)
    assert rep.ok
    assert all("backward" not in i.check for i in rep.items)


def test_literal_transfer_finite_cardinality():
    f = m.parse("Finite(v)")
    M1 = m.Assignment({"v": m.make_set([A])})
    M2 = m.Assignment({"v": m.make_set([A, B])})
    assert m.literal_transfer_report(f, M1, M1).ok
    assert not m.literal_transfer_report(f, M1, M2).ok


# Oracles: the 2^places sweeps that imitates (1) and (2), the membership
# check of simulates_upwards and the conclusions of check_upward_premises
# ran before they compared signature tables, and the element scan that
# imitates (3) ran before it counted assemblies off the target's table.

def _contact_oracle(bij):
    for node in subsets(bij.places):
        src_fam = [bij.source[q] for q in sorted(node)]
        tgt_fam = [bij.target[q] for q in sorted(node)]
        for q in bij.places:
            lhs = any(hf.in_pow_star(e, tgt_fam) for e in bij.target[q])
            rhs = any(hf.in_pow_star(e, src_fam) for e in bij.source[q])
            if lhs != rhs:
                return False
    return True


def _union_membership_oracle(bij):
    for node in subsets(bij.places):
        u = node_union(bij.source, node)
        u_hat = node_union(bij.target, node)
        for q in bij.places:
            if (u_hat in bij.target[q]) != (u in bij.source[q]):
                return False
    return True


def _membership_simulation_oracle(bij):
    home_src = home_index(bij.source)
    home_tgt = home_index(bij.target)
    return all(home_src.get(node_union(bij.source, node))
               == home_tgt.get(node_union(bij.target, node))
               for node in subsets(bij.places))


def _conclusions_oracle(proc, board, cand):
    xi, xi2 = proc.xi, cand.xi
    places = proc.places
    ok0 = ok1 = ok2 = ok3 = True
    pows = pow_nodes(board)
    for node in subsets(places):
        ora_fam = proc.node_snapshot(node, xi)
        hat_fam = cand.node_snapshot(node, xi2)
        for q in places:
            lhs = any(hf.in_pow_star(e, hat_fam) for e in cand.stages[xi2][q])
            rhs = any(hf.in_pow_star(e, ora_fam) for e in proc.stages[xi][q])
            if lhs != rhs:
                ok0 = False
        u_ora = node_union(proc.stages[proc.xi], node)
        u_hat = node_union(cand.stages[cand.xi], node)
        for q in places:
            if (u_hat in cand.stages[xi2][q]) != (u_ora in proc.stages[xi][q]):
                ok1 = False
        if node in pows:
            total = hf.pow_star_size(hat_fam)
            if sum(1 for e in final_universe(cand)
                   if hf.in_pow_star(e, hat_fam)) != total:
                ok2 = False
    for q in board.red:
        if len(cand.stages[xi2][q]) != len(proc.stages[xi][q]):
            ok3 = False
    return [ok0, ok1, ok2, ok3]


def _split(rng, items, k):
    """Exactly k nonempty blocks of the items (len(items) >= k)."""
    items = list(items)
    rng.shuffle(items)
    return [frozenset(items[i::k]) for i in range(k)]


def _random_bijection(rng, min_places, max_places):
    """A source partition and a target that copies it, moves one element
    to another block (perhaps emptying its block), adds an empty block on
    one or both sides, or comes from an unrelated universe."""
    n = rng.randint(min_places, max_places + 2)
    universe = rand_transitive_universe(rng, n)
    k = rng.randint(min_places, min(max_places, n))
    source = _split(rng, universe, k)
    target = list(source)
    kind = rng.choice(["copy", "move", "empty", "other"])
    if kind == "move" and k > 1:
        i, j = rng.sample(range(k), 2)
        e = rng.choice(sorted(target[i], key=hf.order_key))
        target[i] = target[i] - {e}
        target[j] = target[j] | {e}
    elif kind == "empty":
        fresh = m.make_set([m.make_set(universe)])
        i, j = rng.randrange(k + 1), rng.randrange(k + 1)
        source.insert(i, frozenset())
        target.insert(j, rng.choice([frozenset(), frozenset([fresh])]))
    elif kind == "other":
        other = rand_transitive_universe(rng, rng.randint(k, max_places + 2))
        target = _split(rng, other, k)
    return BlockBijection(source, target)


def _absorption_oracle(board, bij):
    placed = frozenset().union(*bij.target)
    for node in pow_nodes(board):
        fam = [bij.target[q] for q in sorted(node)]
        if (sum(1 for e in placed if hf.in_pow_star(e, fam))
                != hf.pow_star_size(fam)):
            return False
    return True


def _random_pow_regions(rng, places):
    """Up to two random regions of at most five places; a place whose
    target block is empty may be among them."""
    return [frozenset(rng.sample(list(places),
                                 rng.randint(0, min(5, len(places)))))
            for _ in range(rng.randint(0, 2))]


def _assert_tables_match_sweeps(bij, rng):
    board = m.ColoredBoard(blocks=bij.source, targets={},
                           pow_regions=_random_pow_regions(rng, bij.places))
    imit = m.imitates(board, bij)
    assert imit.items[0].ok == _contact_oracle(bij)
    assert imit.items[1].ok == _union_membership_oracle(bij)
    assert imit.items[2].ok == _absorption_oracle(board, bij)
    sim = simulates_upwards(board, bij)
    assert sim.items[0].ok == _membership_simulation_oracle(bij)


@given(st.randoms(use_true_random=True))
@settings(max_examples=300, deadline=None)
def test_imitation_tables_match_sweep_oracles(rng):
    _assert_tables_match_sweeps(_random_bijection(rng, 1, 5), rng)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=3, deadline=None)
def test_imitation_tables_match_sweep_oracles_above_twelve_places(seed):
    rng = random.Random(seed)
    _assert_tables_match_sweeps(_random_bijection(rng, 13, 13), rng)


@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_upward_conclusions_match_sweep_oracle(rng):
    universe = rand_transitive_universe(rng, rng.randint(1, 9))
    partition = rand_partition(rng, universe, max_blocks=4)
    proc = m.synthesize_process(partition)
    board = rand_colored_board(proc, partition, rng)
    if rng.random() < 0.5:
        start = degenerate(proc, rng.randint(0, proc.xi))
        cand = m.paste_segment(proc, board, start, proc.xi)[0]
    else:
        k = len(partition)
        other = rand_transitive_universe(rng, rng.randint(k, 9))
        cand = m.synthesize_process(_sorted_blocks(_split(rng, other, k)))
    imit = m.imitates(
        board, BlockBijection(proc.final_blocks(), cand.final_blocks()))
    by_tag = {i.check.split(" ")[0]: i.ok for i in imit.items}
    assert [by_tag[t] for t in ("(1)", "(2)", "(3)", "(4')")] == \
        _conclusions_oracle(proc, board, cand)


def test_pumped_upward_conclusions_match_sweep_oracle():
    for formula, assignment in witness_family():
        cert = m.certify_witness(formula, assignment)
        _, _, board = m.canonical_board(formula, cert.assignment)
        for rounds in (0, 1, 2):
            ext = m.extend_certificate(cert, rounds).pumped
            got = [i.ok for i in ext.upward_report.items
                   if i.check.startswith("conclusion:")]
            assert got == _conclusions_oracle(cert.process, board, ext.process)
