import random

import pytest

import mlsspf as m
from mlsspf import hf
from mlsspf.errors import NoLocalTrash
from mlsspf.msrefine import ImitationWitness, MsOverlay, StartConfiguration
from mlsspf.venn import subsets
from mlsspf.pumping import PumpingEvent, pump_rounds
from mlsspf.relations import BlockBijection

from conftest import chain, rand_partition, rand_transitive_universe

A, B, C = chain(2)


@pytest.fixture(scope="module")
def pumped_ex1(ex1):
    cover = m.closed_cover(ex1.process, ex1.board,
                           m.find_pumping_cycles(ex1.board)[0])
    event = PumpingEvent(ex1.q, 3, m.find_pumping_cycles(ex1.board)[0])
    return pump_rounds(ex1.process, ex1.board, event, 1, im=ex1.im,
                       closed_set=cover), cover


def _upward_premises(proc, board, cand, overlay, witness, seg):
    """check_upward_premises with the weak-imitation and imitation reports
    it takes, computed the way extend_certificate computes them."""
    m_start = witness.gamma[witness.lo]
    weak = m.check_weak_imitation(
        proc, board, witness.lo,
        [cand.stages[m_start][q] for q in proc.places],
        [overlay.minus_at(m_start, q) for q in proc.places],
        witness.closed_set)
    imitation = m.imitates(
        board, BlockBijection(proc.final_blocks(), cand.final_blocks()))
    return m.check_upward_premises(proc, board, cand, overlay, witness, weak,
                                   seg, imitation)


def test_all_minus_overlay_validates(ex1):
    overlay = MsOverlay.all_minus(ex1.process)
    assert m.validate_overlay(ex1.process, overlay).ok


def test_pump_overlay_validates(ex1, pumped_ex1):
    res, _ = pumped_ex1
    assert m.validate_overlay(res.process, res.overlay).ok


def test_overlay_detects_untracked_move(ex1, pumped_ex1):
    res, _ = pumped_ex1
    # Drop a minus element at the last stage only: the inductive equations
    # record no delta for it, so the surplus side shrinks illegally.
    tampered = list(list(stage) for stage in res.overlay.minus)
    last = list(tampered[-1])
    q = ex1.q
    elem = sorted(last[q], key=lambda e: e._key)[0]
    last[q] = last[q] - {elem}
    tampered[-1] = tuple(last)
    bad = MsOverlay(res.overlay.start, tuple(tuple(s) for s in tampered))
    rep = m.validate_overlay(res.process, bad)
    assert not rep.ok


def test_weak_imitation_identity(ex1):
    proc = ex1.process
    for kp in range(proc.xi + 1):
        rep = m.check_weak_imitation(
            proc, ex1.board, kp,
            [proc.stages[kp][q] for q in proc.places],
            [proc.stages[kp][q] for q in proc.places],
            frozenset())
        assert rep.ok, (kp, str(rep))


def test_weak_imitation_ex1_pumped(ex1, pumped_ex1):
    res, _ = pumped_ex1
    assert res.weak_report.ok
    names = [i.check for i in res.weak_report.items]
    for tag in ["(i)", "(vii)", "(viii)", "(x)", "(a)", "(b)", "(c)"]:
        assert any(n.startswith(tag) for n in names)


def test_weak_imitation_cardinality_failure(ex1):
    proc = ex1.process
    blocks = [proc.stages[3][q] for q in proc.places]
    minus = [set(b) for b in blocks]
    minus[ex1.q] = set(list(minus[ex1.q])[:1])  # drop one without surplus move
    rep = m.check_weak_imitation(proc, ex1.board, 3, blocks,
                                 [frozenset(x) for x in minus], frozenset())
    assert not rep.ok
    assert not rep.items[0].ok  # (i)


def test_segment_imitation_identity_witness(ex1):
    proc = ex1.process
    witness = ImitationWitness(gamma={k: k for k in range(proc.xi + 1)},
                               closed_set=frozenset(), lo=0, hi=proc.xi)
    rep = m.check_segment_imitation(
        proc, ex1.board, proc, MsOverlay.all_minus(proc), witness)
    assert rep.ok


def test_witness_requires_order_preserving_injection():
    with pytest.raises(ValueError):
        ImitationWitness(gamma={0: 1, 1: 0}, closed_set=frozenset(), lo=0, hi=1)
    with pytest.raises(ValueError):
        ImitationWitness(gamma={0: 1, 1: 1}, closed_set=frozenset(), lo=0, hi=1)


def test_paste_degenerate_reproduces_verbatim(ex1):
    proc = ex1.process
    for kp in range(proc.xi + 1):
        start = StartConfiguration.degenerate(proc, kp)
        cand, overlay, witness = m.paste_segment(proc, ex1.board, start, proc.xi)
        assert cand.stages == proc.stages
        assert m.check_segment_imitation(proc, ex1.board, cand, overlay,
                                         witness).ok


def test_paste_empty_segment_after_pump(ex1, pumped_ex1):
    res, cover = pumped_ex1
    start = StartConfiguration(res.process, res.overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(proc := ex1.process, ex1.board,
                                             start, proc.xi)
    assert cand.stages == res.process.stages
    assert m.check_segment_imitation(proc, ex1.board, cand, overlay, witness).ok


def test_paste_nontrivial_segment_after_pump():
    e = chain(5)
    formula = m.parse("w in x & !Finite(x)")
    M = m.Assignment({"w": e[1], "x": m.make_set(e[1:5])})
    partition, im, board = m.canonical_board(formula, M)
    proc = m.synthesize_process(partition)
    cycle = m.find_pumping_cycles(board)[0]
    i0 = proc.xi - 1
    assert m.is_pumping_event(proc, board, 1, i0, cycle).ok
    cover = m.closed_cover(proc, board, cycle)
    res = pump_rounds(proc, board, PumpingEvent(1, i0, cycle), 2,
                      im=im, closed_set=cover)
    assert res.weak_report.ok
    start = StartConfiguration(res.process, res.overlay, i0, cover)
    cand, overlay, witness = m.paste_segment(proc, board, start, proc.xi)
    seg = m.check_segment_imitation(proc, board, cand, overlay, witness)
    assert seg.ok, str(seg)
    up = _upward_premises(proc, board, cand, overlay, witness, seg)
    assert up.ok, str(up)


def test_upward_premises_identity(ex1):
    proc = ex1.process
    witness = ImitationWitness(gamma={k: k for k in range(proc.xi + 1)},
                               closed_set=frozenset(), lo=0, hi=proc.xi)
    overlay = MsOverlay.all_minus(proc)
    seg = m.check_segment_imitation(proc, ex1.board, proc, overlay, witness)
    rep = _upward_premises(proc, ex1.board, proc, overlay, witness, seg)
    assert rep.ok


def test_upward_premises_ex1_pumped(ex1, pumped_ex1):
    res, cover = pumped_ex1
    start = StartConfiguration(res.process, res.overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(ex1.process, ex1.board, start,
                                             ex1.process.xi)
    seg = m.check_segment_imitation(ex1.process, ex1.board, cand, overlay,
                                    witness)
    rep = _upward_premises(ex1.process, ex1.board, cand, overlay, witness, seg)
    assert rep.ok, str(rep)


def test_upward_premises_reject_surplus_relabeled_as_minus(ex1, pumped_ex1):
    res, cover = pumped_ex1
    # Moving a pump step's surplus element into the minus side inflates the
    # minus cardinality, so the weak-imitation premise must fail.
    proc = res.process
    overlay = res.overlay
    mu = 3  # the single pump step sits between stages 3 and 4
    moved = None
    for q in proc.places:
        ds = overlay.delta_surplus(proc, mu, q)
        if ds:
            moved = (q, sorted(ds, key=lambda e: e._key)[0])
    q, elem = moved
    tampered = [list(stage) for stage in overlay.minus]
    for idx in range(mu + 1 - overlay.start, len(tampered)):
        tampered[idx][q] = tampered[idx][q] | {elem}
    bad = MsOverlay(overlay.start, tuple(tuple(s) for s in tampered))
    start = StartConfiguration(proc, bad, 3, cover)
    cand, overlay2, witness = m.paste_segment(ex1.process, ex1.board, start,
                                              ex1.process.xi)
    seg = m.check_segment_imitation(ex1.process, ex1.board, cand, overlay2,
                                    witness)
    rep = _upward_premises(ex1.process, ex1.board, cand, overlay2, witness,
                           seg)
    assert not rep.ok
    assert not rep.items[0].ok


def test_upward_premises_reject_minus_delta_off_map(ex1, pumped_ex1):
    res, cover = pumped_ex1
    # Append an extra candidate stage past the copied segment whose fresh
    # element is recorded as minus: off-map steps must be surplus-only.
    start = StartConfiguration(res.process, res.overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(ex1.process, ex1.board, start,
                                             ex1.process.xi)
    q = ex1.q
    block = cand.stages[-1][q]
    extra = m.make_set([ex1.b, m.make_set([ex1.c])])  # fresh {q}-assembly
    assert extra not in block
    stages = cand.stages + (tuple(
        b | {extra} if i == q else b for i, b in enumerate(cand.stages[-1])),)
    trace = cand.trace + (frozenset([q]),)
    longer = m.FormativeProcess(stages=stages, trace=trace, weak=True)
    minus = overlay.minus + (tuple(
        ms | {extra} if i == q else ms
        for i, ms in enumerate(overlay.minus[-1])),)
    bad = MsOverlay(overlay.start, minus)
    seg = m.check_segment_imitation(ex1.process, ex1.board, longer, bad,
                                    witness)
    rep = _upward_premises(ex1.process, ex1.board, longer, bad, witness, seg)
    assert not rep.ok
    assert any("off-map" in i.check for i in rep.failures())


def test_rem1_assembly_intersection_is_stage_stable():
    rng = random.Random(43)
    for _ in range(15):
        universe = rand_transitive_universe(rng, rng.randint(1, 8))
        proc = m.synthesize_process(rand_partition(rng, universe, max_blocks=4))
        for node in subsets(proc.places):
            for k in range(1, proc.xi + 1):
                prev = proc.node_snapshot(node, k - 1)
                cur = proc.node_snapshot(node, k)
                for q in proc.places:
                    block = proc.stages[k][q]
                    assert (
                        sum(1 for e in block if hf.in_pow_star(e, prev))
                        == sum(1 for e in block if hf.in_pow_star(e, cur))
                    )


def test_surplus_minus_assembly_disjointness(ex1, pumped_ex1):
    res, _ = pumped_ex1
    proc, overlay = res.process, res.overlay
    for mu in range(overlay.start, proc.xi):
        node = proc.trace[mu]
        minus_fam = overlay.minus_family(node, mu)
        full_fam = proc.node_snapshot(node, mu)
        if hf.pow_star_size(full_fam) > 256:
            continue
        full = set(m.pow_star(full_fam))
        minus_part = set(m.pow_star(minus_fam))
        for y in full - minus_part:
            assert not hf.in_pow_star(y, minus_fam)
        # A family containing a wholly-surplus block shares no assembly
        # with the minus-only family.
        for q in proc.places:
            s = overlay.surplus_at(proc, mu, q)
            if s and not overlay.minus_at(mu, q):
                fam2 = [s] + list(minus_fam)
                assert not (set(m.pow_star(fam2)) & minus_part)


def test_paste_pow_node_without_trash_raises():
    # One block, pow-node over it, no green trash anywhere: pasting a pumped
    # start across that node's grand event must fail loudly.
    e = chain(3)
    blocks = [frozenset([e[1], e[2]]), frozenset([e[0]]),
              frozenset([m.make_set([e[1], e[2]])])]
    partition = m.Partition(blocks)
    proc = m.synthesize_process(partition)
    core = m.induced_board(partition)
    board = m.ColoredBoard(blocks=core.blocks, targets=dict(core.targets),
                           red=frozenset([2]),
                           pow_nodes=frozenset([frozenset(), frozenset([0])]))
    ge = m.grand_event(proc, frozenset([0]))
    assert ge < proc.xi
    start = StartConfiguration.degenerate(proc, ge)
    # Give block 0 a surplus element so the pow-node branch triggers.
    minus = [list(stage) for stage in start.overlay.minus]
    seed = sorted(proc.stages[ge][0], key=lambda e: e._key)[-1]
    for idx in range(len(minus)):
        minus[idx][0] = minus[idx][0] - {seed}
    bad_overlay = MsOverlay(ge, tuple(tuple(s) for s in minus))
    start = StartConfiguration(start.cand, bad_overlay, ge, frozenset())
    with pytest.raises(NoLocalTrash):
        m.paste_segment(proc, board, start, proc.xi)


def test_overlay_and_witness_json_round_trip(ex1, pumped_ex1):
    res, cover = pumped_ex1
    data = res.overlay.to_json(res.process)
    back = MsOverlay.from_json(data)
    assert back.start == res.overlay.start
    assert back.minus == res.overlay.minus
    assert back.to_json(res.process) == data

    witness = ImitationWitness(gamma={3: 4}, closed_set=cover, lo=3, hi=3)
    back = ImitationWitness.from_json(witness.to_json())
    assert dict(back.gamma) == dict(witness.gamma)
    assert back.closed_set == witness.closed_set
