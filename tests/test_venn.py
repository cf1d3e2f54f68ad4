import ast
import random
from pathlib import Path

import pytest

import mlsspf as m
from mlsspf import hf
from mlsspf.errors import NotTransitive
from mlsspf.venn import is_transitive, subsets

from conftest import (block_tuple, chain, rand_partition,
                      rand_transitive_universe, set_partitions)
from oracles import finer_than

A, B, C = chain(2)


def test_venn_partition_ex1(ex1):
    assert ex1.blocks == (frozenset([A]), frozenset([B, C]))
    assert ex1.im["x"] == frozenset([ex1.q])
    assert ex1.im["w"] == frozenset([ex1.p])
    with pytest.raises(TypeError):
        ex1.im["w"] = frozenset()


def test_venn_partition_empty_value():
    partition, im = m.venn_partition(m.Assignment({"x": hf.EMPTY}))
    assert partition == ()
    assert im["x"] == frozenset()


def test_venn_partition_two_signatures():
    M = m.Assignment({"x": m.make_set([A, B]), "y": m.make_set([B])})
    partition, im = m.venn_partition(M)
    assert partition == (frozenset([A]), frozenset([B]))
    assert im["x"] == frozenset([0, 1]) and im["y"] == frozenset([1])


def test_finer_than_examples():
    assert finer_than([[B], [C]], [[B, C]])
    p = [[A], [B, C]]
    assert finer_than(p, p)
    assert not finer_than([[B]], [[C]])


def test_induced_board_ex1(ex1):
    t = ex1.board.targets
    assert t[frozenset()] == frozenset([ex1.p])
    assert t[frozenset([ex1.p])] == frozenset([ex1.q])
    assert t[frozenset([ex1.q])] == frozenset([ex1.q])
    assert ex1.board.target(frozenset([ex1.p, ex1.q])) == frozenset()


def test_induced_board_singleton():
    board = m.induced_board(block_tuple([[A]]))
    assert board.target(frozenset()) == frozenset([0])
    assert board.target(frozenset([0])) == frozenset()


def test_induced_board_empty_partition():
    board = m.induced_board(())
    assert not board.targets


def test_induced_board_requires_transitivity():
    with pytest.raises(NotTransitive):
        m.induced_board(block_tuple([[C]]))


def test_color_board_ex1(ex1):
    assert ex1.board.red == frozenset()
    assert ex1.board.pow_regions == frozenset()


def test_color_board_finite_rule(ex1):
    f = m.parse("w in x & Finite(w)")
    board = m.color_board(ex1.board, f, ex1.im)
    assert board.red == frozenset([ex1.p])


def _pow_nodes(board):
    return {node for node in subsets(board.places) if board.is_pow_node(node)}


def test_color_board_pow_rule_downward_closure():
    # The pow-nodes of u = Pow(w) are the nodes under the region of the
    # argument w: an assembly of their blocks is a subset of w, so u must
    # hold it.  The region of u plays no part.
    f = m.parse("u = Pow(w)")
    core = m.induced_board(block_tuple([[A], [B]]))
    for u in ([], [0], [0, 1]):
        im = {"u": frozenset(u), "w": frozenset([0, 1])}
        board = m.color_board(core, f, im)
        assert board.pow_regions == frozenset([frozenset([0, 1])])
        assert _pow_nodes(board) == {
            frozenset(), frozenset([0]), frozenset([1]), frozenset([0, 1])}
    im = {"u": frozenset([0, 1]), "w": frozenset([1])}
    assert _pow_nodes(m.color_board(core, f, im)) == {
        frozenset(), frozenset([1])}
    assert not _pow_nodes(m.color_board(core, m.parse("u = w"), im))


def test_transitivize_examples():
    M = m.Assignment({"x": m.make_set([B])})
    M2 = m.transitivize(M)
    assert M2.bindings["_univ"] is m.make_set([A, B])
    partition, _ = m.venn_partition(M2)
    assert is_transitive(partition)

    M = m.Assignment({"x": m.make_set([A, B])})
    M2 = m.transitivize(M)
    assert M2.bindings["_univ"] is m.make_set([A, B])
    partition, _ = m.venn_partition(M2)
    assert is_transitive(partition)

    M2 = m.transitivize(m.Assignment({}))
    assert M2.bindings["_univ"] is hf.EMPTY


def test_assignment_transitivity_matches_its_partition():
    rng = random.Random(5)
    for _ in range(60):
        universe = rand_transitive_universe(rng, rng.randint(1, 10))
        values = [m.make_set(rng.sample(universe, rng.randint(0, len(universe))))
                  for _ in range(rng.randint(1, 3))]
        assignment = m.Assignment({f"v{i}": v for i, v in enumerate(values)})
        assert (assignment.is_transitive()
                == is_transitive(m.venn_partition(assignment)[0]))


def test_induced_board_targets_are_read_off_the_contact_pairs():
    # The oracle is the per-element loop: each element of block i sends its
    # signature, the home places of its members, to target i.
    rng = random.Random(12)
    for _ in range(80):
        universe = rand_transitive_universe(rng, rng.randint(0, 12))
        partition = rand_partition(rng, universe)
        home = {e: i for i, b in enumerate(partition) for e in b}
        targets = {}
        for i, b in enumerate(partition):
            for e in b:
                sig = frozenset(home[x] for x in e.elements)
                targets.setdefault(sig, set()).add(i)
        assert dict(m.induced_board(partition).targets) == {
            node: frozenset(ts) for node, ts in targets.items()}


def test_transitivize_preserves_literal_values(ex1):
    M2 = m.transitivize(ex1.assignment)
    assert m.evaluate(ex1.formula, M2).results == \
        m.evaluate(ex1.formula, ex1.assignment).results


def _random_assignment(rng, n_vars, universe_cap):
    pool = rand_transitive_universe(rng, universe_cap + 2)
    rng.shuffle(pool)
    pool = pool[:universe_cap]
    out = {}
    for i in range(n_vars):
        out[f"v{i}"] = m.make_set(e for e in pool if rng.random() < 0.5)
    return m.Assignment(out)


def test_signature_correspondence_oracle():
    rng = random.Random(7)
    for _ in range(30):
        M = _random_assignment(rng, rng.randint(1, 4), rng.randint(0, 6))
        partition, _ = m.venn_partition(M)
        universe = M.value_union()
        sig = {e: frozenset(v for v, val in M.bindings.items()
                            if e in set(val.elements))
               for e in universe}
        for block in partition:
            sigs = {sig[e] for e in block}
            assert len(sigs) == 1
        assert len({frozenset(b) for b in partition}) == \
            len({s for s in sig.values()})


def test_venn_coarseness_small_oracle():
    rng = random.Random(11)
    for _ in range(25):
        M = _random_assignment(rng, rng.randint(1, 3), rng.randint(0, 5))
        partition, _ = m.venn_partition(M)
        universe = sorted(M.value_union(), key=hf.order_key)
        values = [set(v.elements) for v in M.bindings.values()]
        for candidate in set_partitions(universe):
            if all(not (set(b) & val) or set(b) <= val
                   for b in candidate for val in values):
                assert finer_than(candidate, partition)


def test_reconstruction_property():
    rng = random.Random(13)
    for _ in range(30):
        M = _random_assignment(rng, rng.randint(1, 4), rng.randint(0, 6))
        partition, im = m.venn_partition(M)
        for v, val in M.bindings.items():
            members = set()
            for q in im[v]:
                members |= partition[q]
            assert m.make_set(members) is val


def test_target_soundness_against_assembly_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        partition = rand_partition(rng, universe, max_blocks=4)
        board = m.induced_board(partition)
        from mlsspf.venn import subsets
        for node in subsets(range(len(partition))):
            fam = [partition[q] for q in sorted(node)]
            if sum(len(b) for b in fam) > 10:
                continue
            assemblies = m.pow_star(fam)
            for q, block in enumerate(partition):
                assert (q in board.target(node)) == bool(set(assemblies) & block)


def test_signature_table_answers_every_node():
    # Each query against its definition, node by node, over parts that are
    # random subsets of the blocks (some of them empty).
    from mlsspf.venn import SignatureTable, home_index, node_union, subsets
    rng = random.Random(5)
    for _ in range(60):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        blocks = rand_partition(rng, universe, max_blocks=4)
        parts = [frozenset(e for e in b if rng.random() < 0.6) for b in blocks]
        table = SignatureTable(blocks, parts)
        home = home_index(blocks)
        places = range(len(blocks))
        assert table.live == frozenset(q for q in places if parts[q])
        contacts = {}
        for node in subsets(places):
            fam = [parts[q] for q in sorted(node)]
            assert table.count(node) == sum(
                1 for e in home if hf.in_pow_star(e, fam))
            for q in places:
                c = sum(1 for e in blocks[q] if hf.in_pow_star(e, fam))
                if c:
                    contacts[(node, q)] = c
            u = node_union(parts, node)
            assert table.union(node) is (u if u in home else None)
            assert table.union_home(node) == home.get(u)
        assert table.contacts(places) == contacts
        within = frozenset(q for q in places if rng.random() < 0.7)
        assert table.contacts(within) == {
            key: c for key, c in contacts.items() if key[0] <= within}
        assert table.union_homes(within) == {
            node: home[node_union(parts, node)] for node in subsets(within)
            if node_union(parts, node) in home}


def test_board_json_deterministic(ex1):
    import json
    a = json.dumps(ex1.board.to_json(), sort_keys=True)
    partition, im, board = m.canonical_board(ex1.formula, ex1.assignment)
    b = json.dumps(board.to_json(), sort_keys=True)
    assert a == b


def test_only_the_memo_builds_signature_tables():
    # Every table comes from `venn.signature_table`, so callers with equal
    # blocks and parts share one: no module calls the class itself.
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(m.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and "SignatureTable" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    assert calls == []
