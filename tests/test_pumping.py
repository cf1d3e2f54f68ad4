import contextlib
import json
import os
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, lang
from mlsspf.certificate import (MAX_CYCLE_LEN, PumpingCycle, PumpingEvent,
                                _fill_stages, _latest_starts,
                                _pumped_extension, _start_window)
from mlsspf.errors import (CoverMissesVariable, NoClosedCover, NoEvent,
                           NotAWitness)
from mlsspf.process import FormativeProcess
from mlsspf.pumping import _CycleIndex, pump_rounds
from mlsspf.venn import is_transitive

from conftest import (block_tuple, chain, last_stage_weak, pow_nodes,
                      rand_colored_board, rand_partition,
                      rand_transitive_universe,
                      union_pick_allowed, walk_cycles, wide_instance,
                      witness_family)
from oracles import final_universe
from pumping_sweeps import (closed_cover_sweep, cycle_blocks_filled_sweep,
                            cycle_ge_all_nodes, cycle_ge_sweep,
                            find_pumping_cycles_scan, is_closed_sweep)

CERTIFIED_WIDE = [e["seed"] for e in json.loads(
    (Path(__file__).parent / "golden" / "certified_wide.json").read_text())[
        "entries"] if ":" not in e["outcome"]]

A, B, C = chain(2)


def test_find_cycles_ex1(ex1):
    cycles = walk_cycles(ex1.board)
    assert len(cycles) == 1
    cyc = cycles[0]
    assert cyc.places == (ex1.q,)
    assert cyc.nodes == (frozenset([ex1.q]),)


def test_find_cycles_all_red(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           red=frozenset(ex1.board.places))
    assert walk_cycles(board) == []


def test_find_cycles_two_place_ladder():
    # a={}, b={a}, c={b}, d={c}; blocks {a,c} and {b,d} give a 2-cycle.
    a, b, c, d = chain(3)
    partition = block_tuple([[a, c], [b, d]])
    board = m.induced_board(partition)
    assert board.target(frozenset([0])) == frozenset([1])
    assert board.target(frozenset([1])) == frozenset([0])
    cycles = walk_cycles(board)
    two = [cyc for cyc in cycles if len(cyc) == 2]
    assert len(two) == 1
    assert two[0].places == (0, 1)
    assert two[0].validate(board).ok


def _wide_board(seed):
    """The colored board certify_witness builds for wide_instance(seed)."""
    formula, assignment = wide_instance(seed)
    if not is_transitive(m.venn_partition(assignment)[0]):
        assignment = m.transitivize(assignment)
    return m.canonical_board(formula, assignment)[2]


def _assert_cycles_match_scan(board, max_len):
    cycles = walk_cycles(board, max_len)
    assert cycles == find_pumping_cycles_scan(board, max_len)
    assert all(cycle.validate(board).ok for cycle in cycles)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_cycle_search_matches_green_node_scan_on_wide_boards(seed, max_len):
    _assert_cycles_match_scan(_wide_board(seed), max_len)


@given(st.randoms(use_true_random=True), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_cycle_search_matches_green_node_scan_on_random_boards(rng, max_len):
    universe = rand_transitive_universe(rng, rng.randint(1, 14))
    core = m.induced_board(rand_partition(rng, universe, max_blocks=7))
    board = m.ColoredBoard(
        blocks=core.blocks, targets=dict(core.targets),
        red=frozenset(q for q in core.places if rng.random() < 0.3))
    _assert_cycles_match_scan(board, max_len)


@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_cycle_grand_event_table_matches_realized_node_sweep(rng):
    # Prefixes of a synthesized process move xi and the grand events, and
    # leave final blocks empty, so a node off the board and the trace can
    # have an early grand event: only the all-nodes sweep defines the
    # minimum there.  On the full process the realized nodes are enough.
    universe = rand_transitive_universe(rng, rng.randint(1, 12))
    partition = rand_partition(rng, universe, max_blocks=6)
    full = m.synthesize_process(partition)
    board = rand_colored_board(full, partition, rng, with_pow=False)
    cycles = walk_cycles(board)
    for mu in range(full.xi + 1):
        proc = full.prefix(mu)
        for cycle in cycles:
            assert _start_window(proc, cycle)[1] == cycle_ge_all_nodes(
                proc, cycle)
    for cycle in cycles:
        assert _start_window(full, cycle)[1] == cycle_ge_sweep(
            full, board, cycle)


@given(st.randoms(use_true_random=True))
@settings(max_examples=60, deadline=None)
def test_cycle_filled_stage_matches_block_sweep(rng):
    universe = rand_transitive_universe(rng, rng.randint(1, 12))
    partition = rand_partition(rng, universe, max_blocks=6)
    proc = m.synthesize_process(partition)
    board = rand_colored_board(proc, partition, rng, with_pow=False)
    for cycle in walk_cycles(board):
        filled = _start_window(proc, cycle)[0]
        for i0 in range(proc.xi + 1):
            assert (filled <= i0) == cycle_blocks_filled_sweep(proc, i0, cycle)


def test_cycle_grand_event_table_reads_trace_nodes_off_the_board():
    # An embedded process read back from a certificate, against a board
    # that realizes none of its trace nodes with an early grand event: the
    # process's own table still holds those nodes, and they lower some
    # cycle's minimum below the board's targets alone.
    formula, assignment = wide_instance(12)
    cert = m.certify_witness(formula, assignment)
    proc = FormativeProcess.from_json(json.loads(cert.dumps())["process"])
    board = m.canonical_board(formula, cert.assignment)[2]
    early = {n for n in proc.trace if m.grand_event(proc, n) < proc.xi}
    bare = m.ColoredBoard(
        blocks=board.blocks, red=board.red, pow_regions=board.pow_regions,
        targets={n: t for n, t in board.targets.items() if n not in early})
    assert early and not early & set(bare.targets)
    cycles = walk_cycles(board)
    lowered = 0
    for cycle in cycles:
        got = _start_window(proc, cycle)[1]
        assert got == cycle_ge_sweep(proc, bare, cycle)
        lowered += got < min(
            (m.grand_event(proc, n) for n in bare.targets
             if n & cycle.place_set()), default=proc.xi)
    assert lowered


def test_cycle_validation_rejects_red(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           red=frozenset([ex1.q]))
    cyc = PumpingCycle(nodes=(frozenset([ex1.q]),), places=(ex1.q,))
    rep = cyc.validate(board)
    assert not rep.ok


def test_is_pumping_event_ex1(ex1):
    cyc = walk_cycles(ex1.board)[0]
    assert m.is_pumping_event(ex1.process, ex1.board, ex1.q, 3, cyc).ok
    rep = m.is_pumping_event(ex1.process, ex1.board, ex1.q, 1, cyc)
    assert not rep.ok
    assert any("(iii)" in i.check for i in rep.failures())


def test_closed_cover_ex1(ex1):
    cyc = walk_cycles(ex1.board)[0]
    assert m.closed_cover(ex1.process, ex1.board, cyc) == frozenset([ex1.q])


def _four_block_board():
    # p={a}, q={b,c}, r={d} with d={b,c}: the pow-node {q} has trash r.
    a, b, c = chain(2)
    d = m.make_set([b, c])
    partition = block_tuple([[a], [b, c], [d]])
    proc = m.synthesize_process(partition)
    core = m.induced_board(partition)
    board = m.ColoredBoard(
        blocks=core.blocks, targets=dict(core.targets),
        pow_regions=[frozenset([1])])
    return proc, board


def test_closed_cover_adds_a_trash():
    proc, board = _four_block_board()
    cyc = [c for c in walk_cycles(board) if c.places == (1,)][0]
    cover = m.closed_cover(proc, board, cyc)
    assert cover == frozenset([1, 2])


def test_closed_cover_fails_without_trash(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           pow_regions=[frozenset([ex1.q])])
    cyc = walk_cycles(board)[0]
    with pytest.raises(NoClosedCover):
        m.closed_cover(ex1.process, board, cyc)


def _cover_or_none(cover, *args):
    try:
        return cover(*args)
    except NoClosedCover:
        return None


def test_closedness_matches_the_node_sweep():
    # is_closed and closed_cover read the realized pow-nodes only; the
    # sweep over every node under the regions must give the same verdicts
    # and covers, and refuse the same covers.  Half the boards take random
    # regions, whose unrealized nodes have no local trash.
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        universe = rand_transitive_universe(rng, rng.randint(1, 9))
        partition = rand_partition(rng, universe, max_blocks=5)
        proc = m.synthesize_process(partition)
        board = rand_colored_board(proc, partition, rng)
        places = list(proc.places)
        if rng.random() < 0.5:
            board = replace(board, pow_regions=[
                frozenset(rng.sample(places, rng.randint(1, len(places))))
                for _ in range(rng.randint(1, 2))])
        unrealized = {n for n in pow_nodes(board) if n not in board.targets}
        for _ in range(4):
            w = frozenset(rng.sample(places, rng.randint(0, len(places))))
            closed = m.is_closed(proc, board, w)
            assert closed == is_closed_sweep(proc, board, w)
            seen["closed" if closed else "open"] += 1
            seen["unrealized met"] += any(n & w for n in unrealized)
            cycle = PumpingCycle(nodes=(frozenset(),),
                                 places=(rng.choice(places),))
            seeds = rng.sample(places, rng.randint(0, min(2, len(places))))
            cover = _cover_or_none(m.closed_cover, proc, board, cycle, seeds)
            assert cover == _cover_or_none(closed_cover_sweep, proc, board,
                                           cycle, seeds)
            seen["covered" if cover is not None else "refused"] += 1
            seen["grown"] += cover not in (None, {*seeds, *cycle.places})
    assert min(seen.values()) >= 20, seen


def test_certify_witness_ex1(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    assert cert.event.q0 == ex1.q and cert.event.i0 == 3
    assert cert.event.cycle.places == (ex1.q,)
    assert cert.cover == frozenset([ex1.q])
    assert cert.potential_infinite == ("x",)
    assert cert.literal_results == (True, False)


def test_certify_rejects_false_literal(ex1):
    f = m.parse("w in x & x = w & !Finite(x)")
    with pytest.raises(NotAWitness):
        m.certify_witness(f, ex1.assignment)


def test_certify_no_event_on_empty_value():
    f = m.parse("!Finite(x)")
    with pytest.raises(NoEvent):
        m.certify_witness(f, m.Assignment({"x": hf.EMPTY}))


def test_certify_cover_misses_variable():
    f = m.parse("!Finite(x) & !Finite(y) & w in x")
    M = m.Assignment({"w": B, "x": m.make_set([B, C]),
                      "y": m.make_set([A])})
    with pytest.raises(CoverMissesVariable) as exc:
        m.certify_witness(f, M)
    assert exc.value.var == "y"


def test_certify_transitivizes_when_needed():
    f = m.parse("!Finite(x)")
    M = m.Assignment({"x": m.make_set([B, C])})  # union {b,c} is not transitive
    cert = m.certify_witness(f, M)
    assert "_univ" in cert.assignment.bindings
    assert cert.base_assignment.bindings == dict(M.bindings)


def test_pump_zero_rounds_is_identity(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, overlay, _, boundaries = pump_rounds(ex1.process, cert.event, 0)
    assert pumped.stages == ex1.process.stages[:4]
    assert boundaries == ()
    # The weak imitation premise is checked, not vacuous.
    weak = last_stage_weak(ex1.process, ex1.board, cert.event.i0, pumped,
                           overlay)
    assert weak.items and weak.ok


def test_negative_rounds_are_rejected(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    with pytest.raises(ValueError):
        pump_rounds(ex1.process, cert.event, -1)
    with pytest.raises(ValueError):
        m.extend_certificate(cert, -1)


def test_pump_one_round_matches_expected_blocks(ex1):
    # From stage 3, where place q holds B and the unused seed C, the seed
    # and the block assemble only {C} and the block's union {B, C}: too few
    # for a restoring step that keeps both picks off the union.  A warm-up
    # adds D = {C} as surplus; the round then restores with {D} and adds
    # {B, D} as surplus.
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, overlay, warmups, _ = pump_rounds(ex1.process, cert.event, 1)
    d = m.make_set([C])
    t1 = m.make_set([d])
    assert warmups == 1
    assert pumped.final_blocks()[ex1.q] == frozenset(
        [B, C, d, t1, m.make_set([B, d])])
    assert overlay.minus_at(pumped.xi, ex1.q) == frozenset([B, t1])
    assert pumped.final_blocks()[ex1.p] == frozenset([A])
    assert last_stage_weak(ex1.process, ex1.board, cert.event.i0, pumped,
                           overlay, cert.cover).ok


def test_pump_growth_and_outside_preservation(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, _, _, boundaries = pump_rounds(ex1.process, cert.event, 3)
    prev = len(ex1.process.stages[3][ex1.q])
    for boundary in boundaries:
        size = len(pumped.stages[boundary][ex1.q])
        assert size > prev
        prev = size
        assert pumped.stages[boundary][ex1.p] == ex1.process.stages[3][ex1.p]


def test_pumped_elements_are_new_at_creation(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, _, _, _ = pump_rounds(ex1.process, cert.event, 2)
    for nu in range(cert.event.i0, pumped.xi):
        for q in pumped.places:
            for e in pumped.delta(nu, q):
                assert e not in pumped.used_elements(nu)


def test_pump_surplus_node_unions_stay_undistributed(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, overlay, _, _ = pump_rounds(ex1.process, cert.event, 2)
    weak = last_stage_weak(ex1.process, ex1.board, cert.event.i0, pumped,
                           overlay, cert.cover)
    assert any(i.check.startswith("(b)") and i.ok for i in weak.items)


def test_pump_validates_as_weak_process(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    pumped, overlay, _, _ = pump_rounds(ex1.process, cert.event, 2)
    assert m.validate_process(pumped).ok
    assert m.validate_overlay(pumped, overlay).ok


def test_pump_warms_up_before_it_can_restore():
    # One place holding {0, {0}}, pumped from stage 1 with the seed 0: the
    # seed and the block {0} assemble only {0}, the block's union, and then
    # the seed {0} and the block {0, {0}} only {{0}} and the union: too few
    # for a restoring round that keeps both picks off the union, so two
    # surplus-only warm-up rounds run first.
    partition = block_tuple([[A, B]])
    proc = m.synthesize_process(partition)
    board = m.induced_board(partition)
    cycle = walk_cycles(board)[0]
    assert m.is_pumping_event(proc, board, 0, 1, cycle).ok
    cover = m.closed_cover(proc, board, cycle)
    pumped, overlay, warmups, boundaries = pump_rounds(
        proc, PumpingEvent(0, 1, cycle), 1)
    assert warmups == 2
    for boundary in boundaries[:warmups]:
        assert not overlay.delta_minus(boundary - 1, 0)
        assert overlay.delta_surplus(pumped, boundary - 1, 0)
    assert last_stage_weak(proc, board, 1, pumped, overlay, cover).ok
    assert m.validate_overlay(pumped, overlay).ok


def test_certificate_json_deterministic(ex1):
    a = m.certify_witness(ex1.formula, ex1.assignment).dumps()
    b = m.certify_witness(ex1.formula, ex1.assignment).dumps()
    assert a == b


def _assert_dumps_as_json(cert):
    got = cert.dumps()
    want = json.dumps(cert.to_json(), sort_keys=True, indent=2)
    # A flag, not `got == want`: pytest's diff of two texts this large runs
    # for minutes.  The message ends where they part.
    same = got == want
    assert same, os.path.commonprefix([got, want])[-300:]


@given(st.sampled_from(CERTIFIED_WIDE))
@settings(max_examples=15, deadline=None)
def test_dumps_matches_json_dumps_on_wide_certificates(seed):
    _assert_dumps_as_json(m.certify_witness(*wide_instance(seed)))


@given(st.sampled_from(witness_family()), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_dumps_matches_json_dumps_on_pumped_family(instance, rounds):
    _assert_dumps_as_json(
        m.extend_certificate(m.certify_witness(*instance), rounds))


def test_verify_certificate_ex1(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    ext = m.extend_certificate(cert, 2)
    rep = m.verify_certificate(json.loads(ext.dumps()))
    assert rep.ok, str(rep)


def test_verify_rejects_tampered_certificate(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    data = json.loads(cert.dumps())
    data["potentialInfinite"] = ["w"]
    rep = m.verify_certificate(data)
    assert not rep.ok


def test_verify_rejects_padded_process_without_sweeping_empty_places(ex1):
    # A place with an empty final block joins any node without moving its
    # union, so the grand-event table keys nodes by their nonempty places:
    # 40 padded places add no entry, where listing every node they join
    # would take 2^40.
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    data = json.loads(cert.dumps())
    for stage in data["process"]["stages"]:
        stage.extend([] for _ in range(40))
    padded = FormativeProcess.from_json(data["process"])
    assert padded.grand_events == cert.process.grand_events
    assert len(padded.least_grand_events) == len(cert.process.places) + 40
    rep = m.verify_certificate(data)
    assert "embedded process validates" in [i.check for i in rep.failures()]


def test_verify_reports_a_process_without_the_board_places():
    # Blocks 8-10 cut from every stage and from the trace: the process
    # validates no longer, and the event and cover checks, which index its
    # blocks by the board's places, are not run on it.
    formula, assignment = wide_instance(12)
    data = json.loads(m.certify_witness(formula, assignment).dumps())
    process = data["process"]
    for stage in process["stages"]:
        del stage[8:11]
    for key in ("trace", "historyTargets"):
        process[key] = [[q for q in node if q < 8] for node in process[key]]
    rep = m.verify_certificate(data)
    checks = [i.check for i in rep.items]
    assert [i.check for i in rep.failures()] == [
        "embedded process validates",
        "embedded process ends in the assignment's Venn partition"]
    assert "embedded event holds" not in checks
    assert "embedded cover is closed and contains the cycle" not in checks


def test_verify_reports_a_ragged_process_without_history_targets(ex1):
    # With no history targets the process derives them over the places
    # both stages of a step have, so a stage short of a block parses and
    # fails validation.
    data = json.loads(m.certify_witness(ex1.formula, ex1.assignment).dumps())
    del data["process"]["stages"][-1][1:]
    data["process"]["historyTargets"] = []
    failed = [i.check for i in m.verify_certificate(data).failures()]
    assert "embedded process parses" not in failed
    assert "embedded process validates" in failed


# Certified wide seeds whose one-round extension failed the upward and
# imitation reports while pow-nodes were read off the powerset's target.
POW_FAILURES = (11, 27, 38, 48, 51, 71, 72, 75, 112, 145, 148, 174)
# The seed whose one-round extension fails when the pump may place the
# restoring step's node union as surplus (`union_pick_allowed`).
UNION_PICK_FAILURES = (33,)


@pytest.mark.parametrize("seed", POW_FAILURES + UNION_PICK_FAILURES + (12,))
def test_verify_reads_the_pumped_verdict(seed):
    # verify's verdict on a pumped certificate is the prover's five
    # reports: a clean pump passes, and one that a faulty pump issues
    # fails the pumped verdict alone, naming the failing reports.
    cert = m.certify_witness(*wide_instance(seed))
    for pump in (contextlib.nullcontext, union_pick_allowed):
        with pump():
            ext = m.extend_certificate(cert, 1)
        p = ext.pumped
        five = all(r.ok for r in (p.weak_report, p.segment_report,
                                  p.upward_report, p.imitation_report,
                                  p.transfer_report))
        assert p.ok == five == (pump is contextlib.nullcontext
                                or seed not in UNION_PICK_FAILURES)
        rep = m.verify_certificate(json.loads(ext.dumps()))
        assert rep.ok == five, str(rep)
        if not five:
            assert [(i.check, i.detail) for i in rep.failures()] == [
                ("pumped extension holds", "weakImitation, upward")]


def test_cycle_validate_stops_at_a_shape_mismatch(ex1):
    # With fewer nodes than places the edge items would index past the
    # nodes, so only the shape item is reported.
    cycle = PumpingCycle(nodes=(frozenset([1]),), places=(1, 0))
    assert [(i.check, i.ok) for i in cycle.validate(ex1.board).items] == [
        ("cycle: nodes and places alternate consistently", False)]


PREMISE_TARGETS = "premise: final stages have the same targets"


def _assembly_moved_in(cert, p):
    """The pumped extension recomputed on its process with the last stage
    given, at place 0, the union of the final blocks: an assembly of the
    node of all places, which makes place 0 a target of that node if it
    was none."""
    cand = p.process
    last = cand.final_blocks()
    union = m.make_set(final_universe(cand))
    forged = FormativeProcess(
        stages=cand.stages[:-1] + ((last[0] | {union},) + last[1:],),
        trace=cand.trace, weak=True)
    return _pumped_extension(cert, p.rounds, forged, p.overlay, p.witness,
                             p.warmups, p.round_boundaries)


def test_targets_premise_is_imitation_item_1():
    # The premise reads imitation item (1); the reference is the comparison
    # it replaces, the board's targets against those of the board the
    # candidate's final blocks induce.  Every pump keeps the targets, so
    # the false value comes from a forged candidate.
    seen = []
    instances = [wide_instance(seed) for seed in CERTIFIED_WIDE]
    for formula, assignment in instances + witness_family():
        cert = m.certify_witness(formula, assignment)
        board = m.canonical_board(formula, cert.assignment)[2]
        for rounds in range(4):
            p = m.extend_certificate(cert, rounds).pumped
            for q in (p, _assembly_moved_in(cert, p)):
                induced = m.induced_board(q.process.final_blocks())
                want = dict(board.targets) == dict(induced.targets)
                assert [i.ok for i in q.upward_report.items
                        if i.check == PREMISE_TARGETS] == [want]
                seen.append((q is p, want))
    assert set(seen) == {(True, True), (False, False)}


@pytest.mark.parametrize("field,value", [("i0", 999), ("q0", 99)])
def test_verify_reports_an_event_off_the_process(ex1, field, value):
    data = json.loads(m.certify_witness(ex1.formula, ex1.assignment).dumps())
    data["event"][field] = value
    rep = m.verify_certificate(data)
    assert "embedded event names a stage and places of the process" in [
        i.check for i in rep.failures()]
    assert "embedded event holds" not in [i.check for i in rep.items]


def test_verify_refuses_a_cycle_place_that_is_no_number(ex1):
    # Places are read as integers, as q0 and i0 are: the CLI reports the
    # ValueError as an input error (exit 3).
    data = json.loads(m.certify_witness(ex1.formula, ex1.assignment).dumps())
    data["event"]["cycle"]["places"] = ["a"]
    with pytest.raises(ValueError):
        m.verify_certificate(data)


def test_certify_builds_one_venn_partition(monkeypatch):
    calls = []

    def counting(assignment):
        calls.append(assignment)
        return m.venn_partition(assignment)

    monkeypatch.setattr("mlsspf.venn.venn_partition", counting)
    # The second value union, {b, c}, needs the closure variable.  The
    # extension reads the board the certificate keeps.
    for formula, assignment in (wide_instance(12), (
            m.parse("!Finite(x)"), m.Assignment({"x": m.make_set([B, C])}))):
        calls.clear()
        cert = m.certify_witness(formula, assignment)
        assert calls == [cert.assignment]
        m.extend_certificate(cert, 1)
        assert calls == [cert.assignment]


def _empty_member_certificate():
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [], "x": [[], [[]]]})
    return m.certify_witness(formula, assignment)


def test_pump_many_rounds_within_default_limits():
    # Round k draws from an assembly family of about 2^(k+1) sets; the pump
    # takes its least fresh members without building it, so k = 24 stays
    # within the default pow_limit, hf.POW_LIMIT = 2^20.
    ext = m.extend_certificate(_empty_member_certificate(), 24)
    p = ext.pumped
    for report in (p.weak_report, p.segment_report, p.upward_report,
                   p.imitation_report, p.transfer_report):
        assert report.ok, str(report)
    rep = m.verify_certificate(json.loads(ext.dumps()))
    assert rep.ok, str(rep)


def test_pump_interns_few_sets_per_round():
    # A count guard, not a timing test: materializing every assembly family
    # interned about 2^(k+2) sets at k = 14.
    cert = _empty_member_certificate()
    before = len(m.HfSet._intern)
    m.extend_certificate(cert, 14)
    assert len(m.HfSet._intern) - before < 1000


def test_wide_pump_interns_few_sets():
    # A count guard: sweeping every node over 12 places interned about
    # 22,500 sets for this one round.
    before = len(m.HfSet._intern)
    m.extend_certificate(m.certify_witness(*wide_instance(27)), 1)
    assert len(m.HfSet._intern) - before < 1000


def test_witness_family_all_certifiable():
    for formula, assignment in witness_family():
        cert = m.certify_witness(formula, assignment)
        assert cert.event_report.ok, formula.render()


@pytest.mark.parametrize("text", ["!Finite(x) & x in w",
                                  "!y <= w & !Finite(w)"])
def test_decided_certificate_pumps_one_round(text):
    r = m.decide(m.parse(text), m.SearchBudget(max_rank=3, max_universe=3))
    assert r.verdict == m.SAT_WITNESSED
    ext = m.extend_certificate(r.certificate, 1)
    assert ext.pumped.ok
    assert m.verify_certificate(json.loads(ext.dumps())).ok


def _certify_oracle(formula, assignment, max_cycle_len=MAX_CYCLE_LEN):
    """certify_witness's search calling is_pumping_event on every
    (i0, cycle, q0) of the plain cycle walk, latest start stage first."""
    from mlsspf.certificate import _segment_trash_seeds
    results = [lang.eval_literal(lit, assignment)
               for lit in formula.literals]
    for lit, val in zip(formula.literals, results):
        if lit.kind != lang.NOT_FINITE and not val:
            raise NotAWitness(
                f"literal '{lit.render()}' is false under the assignment")
    neg_vars = [lit.operands[0] for lit in formula.literals
                if lit.kind == lang.NOT_FINITE]
    base = assignment
    if not is_transitive(m.venn_partition(assignment)[0]):
        assignment = m.transitivize(assignment)
    partition, im, board = m.canonical_board(formula, assignment)
    proc = m.synthesize_process(partition)
    cycles = walk_cycles(board, max_cycle_len)
    # The cycle search itself no longer re-validates what it builds.
    assert all(cycle.validate(board).ok for cycle in cycles)
    if not cycles:
        raise NoEvent("the board has no green pumping cycle")
    missed_var = None
    for i0 in range(proc.xi, 0, -1):
        for cycle in cycles:
            for q0 in sorted(cycle.place_set()):
                ev_report = m.is_pumping_event(proc, board, q0, i0, cycle)
                if not ev_report.ok:
                    continue
                uncovered = [x for x in neg_vars
                             if not (im[x] & cycle.place_set())]
                if uncovered:
                    missed_var = uncovered[0]
                    continue
                seeds = _segment_trash_seeds(proc, board, i0, cycle)
                if seeds is None:
                    continue
                try:
                    cover = m.closed_cover(proc, board, cycle, extra_seeds=seeds)
                except NoClosedCover:
                    continue
                pot = [v for v in formula.vars if im[v] & cycle.place_set()]
                return m.WitnessCertificate(
                    formula=formula, base_assignment=base,
                    assignment=assignment, process=proc,
                    event=m.PumpingEvent(q0=q0, i0=i0, cycle=cycle),
                    cover=cover, potential_infinite=tuple(pot),
                    literal_results=tuple(results), event_report=ev_report,
                    max_cycle_len=max_cycle_len)
    if missed_var is not None:
        raise CoverMissesVariable(missed_var)
    raise NoEvent("no pumping event passes all three conditions")


def _certify_outcome(certify, formula, assignment,
                     max_cycle_len=MAX_CYCLE_LEN):
    try:
        return certify(formula, assignment, max_cycle_len).dumps()
    except m.MlsspfError as exc:
        return f"{type(exc).__name__}: {exc}"


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_certify_search_matches_exhaustive_event_loop(seed):
    formula, assignment = wide_instance(seed)
    assert (_certify_outcome(m.certify_witness, formula, assignment)
            == _certify_outcome(_certify_oracle, formula, assignment))


@pytest.mark.parametrize("max_len, seeds", [
    (MAX_CYCLE_LEN, 200), (1, 20), (2, 20), (6, 20)])
def test_certify_search_matches_exhaustive_event_loop_on_seeds(max_len, seeds):
    for seed in range(seeds):
        formula, assignment = wide_instance(seed)
        assert (_certify_outcome(m.certify_witness, formula, assignment,
                                 max_len)
                == _certify_outcome(_certify_oracle, formula, assignment,
                                    max_len)), seed


def test_certify_names_the_missed_variable_as_the_oracle():
    # With a second !Finite variable, the stage loop must name the variable
    # that the last in-window, seeded candidate missing a region names in
    # its order, as the oracle does: on these seeds
    # some candidates miss the first variable's region and some the
    # second's.
    named = set()
    for seed in range(100):
        formula, assignment = wide_instance(seed, infinite=2)
        got = _certify_outcome(m.certify_witness, formula, assignment)
        assert got == _certify_outcome(_certify_oracle, formula,
                                       assignment), seed
        if got.startswith("CoverMissesVariable"):
            negated = [lit.operands[0] for lit in formula.literals
                       if lit.kind == lang.NOT_FINITE]
            named.add(next(j for j, x in enumerate(negated)
                           if f"'{x}'" in got))
    assert named == {0, 1}


@pytest.mark.parametrize("max_len", [1, 2, 4, 6])
def test_windowed_walk_gives_the_cycles_with_a_start_window(max_len):
    # certify_witness's walk carries each path's start-stage window and
    # drops the path once it is empty: it gives exactly the cycles of the
    # plain walk whose _start_window is nonempty, with those windows.
    for seed in range(200):
        formula, assignment = wide_instance(seed)
        if not assignment.is_transitive():
            assignment = m.transitivize(assignment)
        partition, _, board = m.canonical_board(formula, assignment)
        proc = m.synthesize_process(partition)
        want = []
        for cycle in walk_cycles(board, max_len):
            first, last = _start_window(proc, cycle)
            if first <= last:
                want.append((cycle, first, last))
        index = _CycleIndex(board, max_len)
        got = [(PumpingCycle(nodes=tuple(index.realized[i] for i in idx),
                             places=path), first, last)
               for _, path, idx, first, last in sorted(index.walk(
                   _fill_stages(proc, index.realized), _latest_starts(proc)))]
        assert got == want, seed


@pytest.mark.parametrize("max_len", [1, 2, 4, 6])
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_walk_gives_cycles_shortest_first(max_len, seed):
    # The stage loop draws one length at a time, so it must not see a
    # shorter cycle after a longer one, with or without windows.
    formula, assignment = wide_instance(seed)
    if not assignment.is_transitive():
        assignment = m.transitivize(assignment)
    partition, _, board = m.canonical_board(formula, assignment)
    proc = m.synthesize_process(partition)
    index = _CycleIndex(board, max_len)
    for walk in (index.walk(), index.walk(_fill_stages(proc, index.realized),
                                          _latest_starts(proc))):
        cycles = list(walk)
        lengths = [n for n, _, _, _, _ in cycles]
        assert lengths == sorted(lengths)
        assert all(n == len(path) <= max_len for n, path, _, _, _ in cycles)


@pytest.mark.parametrize("seed, drawn, longest, cycles", [
    (0, 9, 3, 35), (21, 101, 6, 101)])
def test_certify_draws_only_the_lengths_it_reaches(monkeypatch, seed, drawn,
                                                   longest, cycles):
    # A count guard on the cycles certify_witness draws from the windowed
    # walk at max_cycle_len 6.  wide_instance(0) certifies a 2-cycle at its
    # last stage: it draws the cycles of 1 and 2 places and the first of 3,
    # which tells the length group of 2 places has ended.  wide_instance(21)
    # starts its event below the last stage, so it draws every cycle.
    # Listing every cycle before the stage loop drew all 35 on seed 0.
    walk, lengths = _CycleIndex.walk, []

    def counting(index, fill=None, latest=None):
        for cycle in walk(index, fill, latest):
            if fill is not None:
                lengths.append(cycle[0])
            yield cycle

    monkeypatch.setattr(_CycleIndex, "walk", counting)
    cert = m.certify_witness(*wide_instance(seed), max_cycle_len=6)
    assert (len(lengths), max(lengths)) == (drawn, longest)
    assert (cert.event.i0 == cert.process.xi) == (drawn < cycles)
    index = _CycleIndex(cert.canonical_board()[2], 6)
    assert sum(1 for _ in walk(index, _fill_stages(cert.process,
                                                   index.realized),
                               _latest_starts(cert.process))) == cycles


def test_certify_synthesizes_a_process_only_for_a_board_with_a_cycle(
        monkeypatch):
    # A count guard: the existence walk needs no process, so a board
    # without a green cycle is refused before synthesize_process runs.
    calls = []
    synthesize = m.synthesize_process

    def counting(partition):
        calls.append(partition)
        return synthesize(partition)

    monkeypatch.setattr("mlsspf.pumping.synthesize_process", counting)
    for seed, synthesized, message in (
            (2, 0, "the board has no green pumping cycle"),
            (22, 1, "no pumping event passes all three conditions")):
        calls.clear()
        with pytest.raises(NoEvent) as info:
            m.certify_witness(*wide_instance(seed))
        assert str(info.value) == message
        assert len(calls) == synthesized, seed


def test_certify_builds_a_cycle_only_for_the_event(monkeypatch):
    # A count guard: the search reads the walk's index tuples, so a
    # certification builds the returned event's PumpingCycle and no other;
    # building one per cycle of the walk made 3,498 on the 64 boards of the
    # wide bench workload.
    built = []
    post_init = PumpingCycle.__post_init__

    def counting(cycle):
        built.append(cycle)
        post_init(cycle)

    monkeypatch.setattr(PumpingCycle, "__post_init__", counting)
    certified = 0
    for seed in range(40):
        built.clear()
        try:
            cert = m.certify_witness(*wide_instance(seed))
        except m.MlsspfError:
            continue
        certified += 1
        assert built == [cert.event.cycle], seed
    assert certified
    built.clear()
    with pytest.raises(CoverMissesVariable):
        m.certify_witness(*wide_instance(3))
    assert built == []


def test_certify_reads_its_max_cycle_len():
    formula, assignment = wide_instance(0)
    assert len(m.certify_witness(formula, assignment).event.cycle) == 2
    cert = m.certify_witness(formula, assignment, max_cycle_len=1)
    assert len(cert.event.cycle) == 1
    assert cert.to_json()["params"] == {"maxCycleLen": 1}
    assert m.verify_certificate(json.loads(cert.dumps())).ok


def _recorded_cycle_len_zero(cert):
    data = json.loads(cert.dumps())
    data["params"]["maxCycleLen"] = 0
    return m.check_certificate(data)


@pytest.mark.parametrize("call", [
    lambda cert: m.SearchBudget(max_cycle_len=0),
    lambda cert: m.certify_witness(cert.formula, cert.base_assignment,
                                   max_cycle_len=0),
    lambda cert: m.extend_certificate(cert, 1, pow_limit=0),
    lambda cert: m.extend_certificate(cert, 1, pow_limit=-5),
    _recorded_cycle_len_zero,
    lambda cert: m.SearchBudget(max_cycle_len=True),
    lambda cert: m.certify_witness(cert.formula, cert.base_assignment,
                                   max_cycle_len=True),
    lambda cert: m.certify_witness(cert.formula, cert.base_assignment,
                                   max_cycle_len=4.0),
    lambda cert: m.extend_certificate(cert, True),
    lambda cert: m.extend_certificate(cert, 2.0),
], ids=["SearchBudget", "certify_witness", "extend_certificate-0",
        "extend_certificate-neg", "check_certificate", "SearchBudget-bool",
        "certify_witness-bool", "certify_witness-float",
        "extend_certificate-rounds-bool", "extend_certificate-rounds-float"])
def test_bounds_rejected_where_read(monkeypatch, call):
    # Each bound is checked by the function that reads it, before the pump
    # draws a single assembly.  A bound is an int: a bool or a float would
    # be recorded in the certificate, which `verify` then refuses.
    cert = _empty_member_certificate()
    draws = []
    for name in ("assemblies", "pow_star"):
        monkeypatch.setattr(hf, name, lambda *a, name=name: draws.append(name))
    with pytest.raises(ValueError):
        call(cert)
    assert draws == []


def test_certify_builds_one_event_report(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return m.is_pumping_event(*args)

    monkeypatch.setattr("mlsspf.pumping.is_pumping_event", counting)
    # On seed 0 two candidates pass (i)-(iii); on seed 3 several pass them
    # but miss the region of the !Finite variable.
    for seed, certified in ((0, True), (3, False), (6, True)):
        calls.clear()
        formula, assignment = wide_instance(seed)
        try:
            cert = m.certify_witness(formula, assignment)
        except CoverMissesVariable:
            assert not certified
        else:
            assert certified and cert.event_report.ok
        assert len(calls) == int(certified)


def test_event_report_of_a_certified_process_evaluates_no_grand_event(
        monkeypatch):
    # certify_witness reads condition (ii) off the process's grand-event
    # table, so the report on the process it certified finds it built.
    formula, assignment = wide_instance(12)
    cert = m.certify_witness(formula, assignment)
    board = m.canonical_board(formula, cert.assignment)[2]
    calls = []

    def counting(proc, node):
        calls.append(node)
        return m.grand_event(proc, node)

    monkeypatch.setattr("mlsspf.process.grand_event", counting)
    monkeypatch.setattr("mlsspf.certificate.grand_event", counting,
                        raising=False)
    event = cert.event
    report = m.is_pumping_event(cert.process, board, event.q0, event.i0,
                                event.cycle)
    assert report.ok and report.to_json() == cert.event_report.to_json()
    assert calls == []
