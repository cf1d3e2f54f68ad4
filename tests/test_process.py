import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, venn
from mlsspf.errors import NotTransitive
from mlsspf.process import FormativeProcess
from mlsspf.venn import node_union

from conftest import (block_tuple, chain, rand_partition,
                      rand_transitive_universe, wide_instance, witness_family)
from oracles import final_universe, stage_universe
from process_sweeps import synthesize_process_scan

A, B, C = chain(2)
E = frozenset()


def ex1_stages():
    return (
        (frozenset(), frozenset()),
        (frozenset([A]), frozenset()),
        (frozenset([A]), frozenset([B])),
        (frozenset([A]), frozenset([B, C])),
    )


def test_validate_ex1_process(ex1):
    proc = FormativeProcess(
        stages=ex1_stages(),
        trace=(E, frozenset([0]), frozenset([1])))
    assert m.validate_process(proc).ok
    assert proc.stages == ex1.process.stages
    assert proc.trace == ex1.process.trace


def test_validate_rejects_swapped_steps():
    proc = FormativeProcess(
        stages=(
            (frozenset(), frozenset()),
            (frozenset(), frozenset([B])),
            (frozenset([A]), frozenset([B])),
            (frozenset([A]), frozenset([B, C])),
        ),
        trace=(frozenset([0]), E, frozenset([1])))
    # Step 0's trace node has an empty block at stage 0, so nothing
    # assembles from it.
    rep = m.validate_process(proc)
    assert not rep.ok
    assert "step 0: new elements assemble from the trace node" in [
        i.check for i in rep.failures()]


def test_validate_rejects_no_growth():
    proc = FormativeProcess(
        stages=(
            (frozenset(), frozenset()),
            (frozenset([A]), frozenset()),
            (frozenset([A]), frozenset()),
            (frozenset([A]), frozenset([B, C])),
        ),
        trace=(E, frozenset([0]), frozenset([0])),
        history_targets=(frozenset([0]), frozenset(), frozenset([1])))
    rep = m.validate_process(proc)
    assert not rep.ok
    assert any("strictly grows" in i.check for i in rep.failures())


def test_validate_coherence():
    # Step 2's snapshot {{a,b}} can assemble both {b} and {a,b}; placing
    # only {b} there and {a,b} one step later violates coherence.
    ab = m.make_set([A, B])
    proc = FormativeProcess(
        stages=(
            (frozenset(),),
            (frozenset([A]),),
            (frozenset([A, B]),),
            (frozenset([A, B, C]),),
            (frozenset([A, B, C, ab]),),
        ),
        trace=(E, frozenset([0]), frozenset([0]), frozenset([0])))
    rep = m.validate_process(proc)
    assert not rep.ok
    assert any("coherent" in i.check for i in rep.failures())
    weak = FormativeProcess(stages=proc.stages, trace=proc.trace, weak=True)
    assert m.validate_process(weak).ok


def test_synthesize_ex1(ex1):
    assert ex1.process.trace == (E, frozenset([0]), frozenset([1]))
    assert ex1.process.xi == 3
    assert m.validate_process(ex1.process).ok


def test_synthesize_singleton():
    proc = m.synthesize_process(block_tuple([[A]]))
    assert proc.xi == 1 and proc.trace == (E,)


def test_synthesize_two_element_block():
    partition, _ = m.venn_partition(m.Assignment({"x": m.make_set([A, B])}))
    proc = m.synthesize_process(partition)
    assert proc.xi == 2
    assert proc.trace == (E, frozenset([0]))


def test_synthesize_requires_transitive():
    with pytest.raises(NotTransitive):
        m.synthesize_process(block_tuple([[C]]))


def test_synthesized_process_keeps_the_partitions_table():
    # The synthesized process's final table is its partition's; a copy read
    # back from JSON after the memo of tables is emptied builds its own, and
    # both give the same grand events.
    instances = witness_family() + [wide_instance(seed) for seed in range(12)]
    for _, assignment in instances:
        if not assignment.is_transitive():
            assignment = m.transitivize(assignment)
        partition, _ = m.venn_partition(assignment)
        table = venn.signature_table(partition)
        proc = m.synthesize_process(partition)
        assert proc.final_table is table
        copy = FormativeProcess.from_json(proc.to_json())
        venn.signature_table.cache_clear()
        assert copy.final_table is not table
        assert proc.grand_events == copy.grand_events
        assert proc.least_grand_events == copy.least_grand_events


def test_grand_event_examples(ex1):
    proc = ex1.process
    assert m.grand_event(proc, E) == 0
    assert m.grand_event(proc, frozenset([ex1.p])) == 1
    assert m.grand_event(proc, frozenset([ex1.q])) == 3


def test_used_elements_examples(ex1):
    proc = ex1.process
    assert C not in proc.used_elements(3)
    assert A not in proc.used_elements(1)
    assert A in proc.used_elements(2)
    assert C in proc.delta(2, ex1.q) and C not in proc.used_elements(2)


def test_new_implies_unused():
    rng = random.Random(23)
    for _ in range(20):
        universe = rand_transitive_universe(rng, rng.randint(1, 10))
        proc = m.synthesize_process(rand_partition(rng, universe))
        for mu in range(proc.xi):
            for q in proc.places:
                for e in proc.delta(mu, q):
                    assert e not in proc.used_elements(mu)


def test_local_trashes_examples(ex1):
    proc, board = ex1.process, ex1.board
    assert m.local_trashes(proc, board, [ex1.p]) == frozenset([ex1.q])
    assert m.local_trashes(proc, board, [ex1.q]) == frozenset()
    all_red = m.ColoredBoard(blocks=board.blocks, targets=dict(board.targets),
                             red=frozenset([ex1.p, ex1.q]))
    assert m.local_trashes(proc, all_red, [ex1.p]) == frozenset()


def test_is_closed_examples(ex1):
    proc, board = ex1.process, ex1.board
    assert m.is_closed(proc, board, [ex1.q])
    assert m.is_closed(proc, board, [])
    reddened = m.ColoredBoard(blocks=board.blocks, targets=dict(board.targets),
                              red=frozenset([ex1.q]))
    assert not m.is_closed(proc, reddened, [ex1.q])


def test_ge_trichotomy_on_synthesized():
    rng = random.Random(29)
    from mlsspf.venn import subsets
    for _ in range(15):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        proc = m.synthesize_process(rand_partition(rng, universe, max_blocks=4))
        for node in subsets(proc.places):
            ge = m.grand_event(proc, node)
            u = node_union(proc.stages[proc.xi], node)
            for nu in range(proc.xi):
                placed = u in stage_universe(proc, nu)
                assert (nu <= ge) == (not placed)
                assert (nu > ge) == placed
                if nu == ge:
                    assert u in (stage_universe(proc, nu + 1)
                                 - stage_universe(proc, nu)) \
                        or ge == proc.xi


def test_node_stabilizes_at_grand_event():
    rng = random.Random(31)
    from mlsspf.venn import subsets
    for _ in range(15):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        proc = m.synthesize_process(rand_partition(rng, universe, max_blocks=4))
        final = final_universe(proc)
        for node in subsets(proc.places):
            ge = m.grand_event(proc, node)
            if ge < proc.xi:
                assert [proc.stages[ge][q] for q in node] == \
                    [proc.stages[proc.xi][q] for q in node]
            for q in node:
                for nu in range(proc.xi):
                    if proc.stages[nu + 1][q] > proc.stages[nu][q]:
                        assert ge > nu or ge == proc.xi and \
                            node_union(proc.stages[proc.xi], node) not in final


def test_unused_assemblies_stay_unused():
    rng = random.Random(37)
    for _ in range(10):
        universe = rand_transitive_universe(rng, rng.randint(2, 8))
        proc = m.synthesize_process(rand_partition(rng, universe, max_blocks=3))
        for mu in range(proc.xi + 1):
            unused = [e for e in final_universe(proc)
                      if e not in proc.used_elements(mu)]
            if not unused:
                continue
            b = m.make_set(unused[: rng.randint(1, len(unused))])
            for node in list(proc.trace)[:2]:
                fam = [frozenset([b])] + proc.node_snapshot(node, mu)
                if hf.pow_star_size(fam) > 64:
                    continue
                for y in m.pow_star(fam):
                    assert y not in proc.used_elements(mu) \
                        and y not in stage_universe(proc, mu)


def test_synthesize_then_validate_random():
    rng = random.Random(41)
    for _ in range(25):
        universe = rand_transitive_universe(rng, rng.randint(1, 20))
        partition = rand_partition(rng, universe)
        proc = m.synthesize_process(partition)
        assert m.validate_process(proc).ok
        assert set(proc.final_blocks()) == set(partition)


def _assert_synthesis_matches_scan(partition):
    proc = m.synthesize_process(partition)
    oracle = synthesize_process_scan(partition)
    assert proc.stages == oracle.stages
    assert proc.trace == oracle.trace
    assert proc.history_targets == oracle.history_targets


@given(st.randoms(use_true_random=True))
@settings(max_examples=100, deadline=None)
def test_synthesis_matches_ready_scan_on_random_partitions(rng):
    universe = rand_transitive_universe(rng, rng.randint(0, 20))
    _assert_synthesis_matches_scan(
        rand_partition(rng, universe, max_blocks=rng.randint(1, 8)))


def test_synthesis_matches_ready_scan_on_wide_partitions():
    for seed in range(200):
        _, assignment = wide_instance(seed)
        if not assignment.is_transitive():
            assignment = m.transitivize(assignment)
        _assert_synthesis_matches_scan(m.venn_partition(assignment)[0])


def test_validate_reports_a_ragged_process(ex1):
    # A stage short of a block, or a trace naming a place with no block,
    # fails the shape items instead of raising IndexError.
    stages = ex1.process.stages
    ragged = FormativeProcess(stages=stages[:-1] + (stages[-1][:1],),
                              trace=ex1.process.trace,
                              history_targets=ex1.process.history_targets)
    off = FormativeProcess(stages=stages,
                           trace=ex1.process.trace[:-1] + (frozenset([5]),),
                           history_targets=ex1.process.history_targets)
    for proc, check in ((ragged, "shape: every stage has a block per place"),
                        (off, "shape: trace nodes name places of the process")):
        assert [i.check for i in m.validate_process(proc).failures()] == [check]


def test_validate_counts_history_targets():
    # The certificate of w in x & !Finite(x) on {"w": [], "x": [[], [[]]]}
    # has two steps; history targets cut to the first one fail the shape
    # item, and the cut process reads no element off the second step.
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [], "x": [[], [[]]]})
    data = json.loads(m.certify_witness(formula, assignment).dumps())
    full = FormativeProcess.from_json(data["process"])
    assert full.xi == 2 and m.validate_process(full).ok
    data["process"]["historyTargets"] = data["process"]["historyTargets"][:1]
    cut = FormativeProcess.from_json(data["process"])
    assert [i.check for i in m.validate_process(cut).failures()] == [
        "shape: history targets: one per step"]
    assert set(cut.landing) == set(full.delta(0, 0)) != set(full.landing)
    assert "embedded process validates" in [
        i.check for i in m.verify_certificate(data).failures()]


def test_landing_reads_history_targets_only():
    # Only the places a step's history targets name are read; a target
    # that names no place of the process places nothing, so a tampered
    # process is reported by validate_process, never raised on.
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [], "x": [[], [[]]]})
    data = json.loads(m.certify_witness(formula, assignment).dumps())
    full = FormativeProcess.from_json(data["process"])
    second = full.delta(1, 0)
    for targets, placed in (([[7], [0]], second), ([[], []], frozenset())):
        data["process"]["historyTargets"] = targets
        proc = FormativeProcess.from_json(data["process"])
        assert set(proc.landing) == placed
        assert proc.used_elements(2) == frozenset(
            m for e in placed for m in e.elements)
        assert "step 0: history targets match nonempty deltas" in [
            i.check for i in m.validate_process(proc).failures()]


def test_process_json_round_trip(ex1):
    data = ex1.process.to_json()
    back = FormativeProcess.from_json(data)
    assert back.stages == ex1.process.stages
    assert back.trace == ex1.process.trace
    assert m.validate_process(back).ok
    assert back.to_json() == data


def test_process_json_reads_history_targets_as_places(ex1):
    # History targets are place integers, as trace nodes are: any other
    # JSON value is refused (ValueError, bad input), and integers sort as
    # integers.
    data = ex1.process.to_json()
    for bad in ("a", None, True, 2.5, [0], {}):
        data["historyTargets"] = [[bad], [1], [1]]
        with pytest.raises(ValueError, match="history targets"):
            FormativeProcess.from_json(data)
    data["historyTargets"] = [[10, 2, 0], [1], [1]]
    proc = FormativeProcess.from_json(data)
    assert proc.to_json()["historyTargets"] == [[0, 2, 10], [1], [1]]
    back = FormativeProcess.from_json(proc.to_json())
    assert back.history_targets == proc.history_targets
    assert back.to_json() == proc.to_json()


# Oracles: grand events from building each node's union and looking it up,
# local trashes from sweeping every node that contains a target.

def _grand_event_oracle(proc, node):
    return proc.landing.get(node_union(proc.stages[proc.xi], node), proc.xi)


def _all_nodes_containing(places, q):
    rest = [p for p in places if p != q]
    for mask in range(2 ** len(rest)):
        yield frozenset([q] + [rest[i] for i in range(len(rest)) if mask >> i & 1])


def _local_trashes_oracle(proc, board, node):
    ge = _grand_event_oracle(proc, node)
    return frozenset(
        g for g in board.target(node) if g not in board.red
        and all(_grand_event_oracle(proc, b) > ge
                for b in _all_nodes_containing(proc.places, g)))


@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_grand_event_tables_match_union_oracle(rng):
    from mlsspf.venn import subsets
    universe = rand_transitive_universe(rng, rng.randint(1, 12))
    partition = rand_partition(rng, universe, max_blocks=5)
    full = m.synthesize_process(partition)
    core = m.induced_board(partition)
    board = m.ColoredBoard(
        blocks=core.blocks, targets=dict(core.targets),
        red=frozenset(q for q in full.places if rng.random() < 0.3))
    nodes = list(subsets(full.places))
    # Prefixes leave final blocks empty; JSON round trips rebuild the sets.
    for mu in range(full.xi + 1):
        prefix = full.prefix(mu)
        for proc in (prefix, FormativeProcess.from_json(prefix.to_json())):
            early = {}
            for node in nodes:
                ge = m.grand_event(proc, node)
                assert ge == _grand_event_oracle(proc, node)
                if ge < proc.xi and node <= proc.final_table.live:
                    early[node] = ge
                assert (m.local_trashes(proc, board, node)
                        == _local_trashes_oracle(proc, board, node))
            assert proc.grand_events == early
            for nu in range(proc.xi + 1):
                assert proc.used_elements(nu) == frozenset(
                    e for b in proc.stages[nu] for z in b for e in z.elements)
