import json

import pytest

import mlsspf as m
from mlsspf import hf
from mlsspf.errors import (CardinalityDeficit, CoverMissesVariable,
                           NoClosedCover, NoEvent, NotAWitness)
from mlsspf.process import NEW
from mlsspf.pumping import PumpingCycle, pump_rounds

from conftest import chain, witness_family

A, B, C = chain(2)


def test_find_cycles_ex1(ex1):
    cycles = m.find_pumping_cycles(ex1.board)
    assert len(cycles) == 1
    cyc = cycles[0]
    assert cyc.places == (ex1.q,)
    assert cyc.nodes == (frozenset([ex1.q]),)


def test_find_cycles_all_red(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           red=frozenset(ex1.board.places),
                           signatures=dict(ex1.board.signatures))
    assert m.find_pumping_cycles(board) == []


def test_find_cycles_two_place_ladder():
    # a={}, b={a}, c={b}, d={c}; blocks {a,c} and {b,d} give a 2-cycle.
    a, b, c, d = chain(3)
    partition = m.Partition([[a, c], [b, d]])
    board = m.induced_board(partition)
    assert board.target(frozenset([0])) == frozenset([1])
    assert board.target(frozenset([1])) == frozenset([0])
    cycles = m.find_pumping_cycles(board)
    two = [cyc for cyc in cycles if len(cyc) == 2]
    assert len(two) == 1
    assert two[0].places == (0, 1)
    assert two[0].validate(board).ok


def test_cycle_validation_rejects_red(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           red=frozenset([ex1.q]),
                           signatures=dict(ex1.board.signatures))
    cyc = PumpingCycle(nodes=(frozenset([ex1.q]),), places=(ex1.q,))
    rep = cyc.validate(board)
    assert not rep.ok


def test_is_pumping_event_ex1(ex1):
    cyc = m.find_pumping_cycles(ex1.board)[0]
    assert m.is_pumping_event(ex1.process, ex1.board, ex1.q, 3, cyc).ok
    rep = m.is_pumping_event(ex1.process, ex1.board, ex1.q, 1, cyc)
    assert not rep.ok
    assert any("(iii)" in i.check for i in rep.failures())


def test_closed_cover_ex1(ex1):
    cyc = m.find_pumping_cycles(ex1.board)[0]
    assert m.closed_cover(ex1.process, ex1.board, cyc) == frozenset([ex1.q])


def _four_block_board():
    # p={a}, q={b,c}, r={d} with d={b,c}: the pow-node {q} has trash r.
    a, b, c = chain(2)
    d = m.make_set([b, c])
    partition = m.Partition([[a], [b, c], [d]])
    proc = m.synthesize_process(partition)
    core = m.induced_board(partition)
    board = m.ColoredBoard(
        blocks=core.blocks, targets=dict(core.targets),
        pow_nodes=frozenset([frozenset(), frozenset([1])]),
        signatures=dict(core.signatures))
    return proc, board


def test_closed_cover_adds_a_trash():
    proc, board = _four_block_board()
    cyc = [c for c in m.find_pumping_cycles(board) if c.places == (1,)][0]
    cover = m.closed_cover(proc, board, cyc)
    assert cover == frozenset([1, 2])


def test_closed_cover_fails_without_trash(ex1):
    board = m.ColoredBoard(blocks=ex1.board.blocks,
                           targets=dict(ex1.board.targets),
                           pow_nodes=frozenset([frozenset(), frozenset([ex1.q])]),
                           signatures=dict(ex1.board.signatures))
    cyc = m.find_pumping_cycles(board)[0]
    with pytest.raises(NoClosedCover):
        m.closed_cover(ex1.process, board, cyc)


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
    res = pump_rounds(ex1.process, ex1.board, cert.event, 0)
    assert res.process.stages == ex1.process.stages[:4]
    assert res.round_boundaries == ()


def test_pump_one_round_matches_expected_blocks(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 1, im=ex1.im,
                      closed_set=cert.cover)
    t1 = m.make_set([C])
    snapshot = m.make_set([B, C])
    assert res.process.final_blocks()[ex1.q] == frozenset([B, C, t1, snapshot])
    assert res.overlay.minus_at(res.re_entry, ex1.q) == frozenset([B, t1])
    assert res.process.final_blocks()[ex1.p] == frozenset([A])
    assert res.weak_report.ok


def test_pump_growth_and_outside_preservation(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 3, im=ex1.im,
                      closed_set=cert.cover)
    prev = len(ex1.process.stages[3][ex1.q])
    for boundary in res.round_boundaries:
        size = len(res.process.stages[boundary][ex1.q])
        assert size > prev
        prev = size
        assert res.process.stages[boundary][ex1.p] == ex1.process.stages[3][ex1.p]


def test_pumped_elements_are_new_at_creation(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 2,
                      closed_set=cert.cover)
    for nu in range(cert.event.i0, res.process.xi):
        for q in res.process.places:
            for e in res.process.delta(nu, q):
                assert m.element_status(res.process, nu, e) == NEW


def test_pump_surplus_node_unions_stay_undistributed(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 2,
                      closed_set=cert.cover)
    assert any(i.check.startswith("(b)") and i.ok
               for i in res.weak_report.items)


def test_pump_validates_as_weak_process(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 2,
                      closed_set=cert.cover)
    assert m.validate_process(res.process).ok
    assert m.validate_overlay(res.process, res.overlay).ok


def test_strict_three_needs_warmup(ex1):
    cert = m.certify_witness(ex1.formula, ex1.assignment)
    res = pump_rounds(ex1.process, ex1.board, cert.event, 1, strict_three=True,
                      closed_set=cert.cover)
    assert res.warmups > 0
    assert res.weak_report.ok


def test_certificate_json_deterministic(ex1):
    a = m.certify_witness(ex1.formula, ex1.assignment).dumps()
    b = m.certify_witness(ex1.formula, ex1.assignment).dumps()
    assert a == b


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


def test_witness_family_all_certifiable():
    for formula, assignment in witness_family():
        cert = m.certify_witness(formula, assignment)
        assert cert.event_report.ok, formula.render()


@pytest.mark.xfail(strict=True, raises=CardinalityDeficit,
                   reason="known soundness gap: decide certifies these "
                          "witnesses, but their events cannot be pumped")
@pytest.mark.parametrize("text", ["!Finite(x) & x in w",
                                  "!y <= w & !Finite(w)"])
def test_decided_certificate_pumps_one_round(text):
    r = m.decide(m.parse(text), m.SearchBudget(max_rank=3, max_universe=3))
    assert r.verdict == m.SAT_WITNESSED
    ext = m.extend_certificate(r.certificate, 1)
    assert ext.pumped.weak_report.ok
    assert ext.pumped.transfer_report.ok
    assert ext.pumped.upward_report.ok
