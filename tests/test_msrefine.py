import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf
from mlsspf.certificate import PumpingEvent
from mlsspf.errors import NoLocalTrash
from mlsspf.msrefine import ImitationWitness, MsOverlay, StartConfiguration
from mlsspf.venn import subsets
from mlsspf.pumping import pump_rounds
from mlsspf.relations import BlockBijection

from conftest import (block_tuple, chain, degenerate, last_stage_weak,
                      rand_colored_board, rand_partition,
                      rand_transitive_universe, walk_cycles, wide_instance,
                      witness_family)
from msrefine_sweeps import (paste_segment_sweep, segment_imitation_sweep,
                             weak_imitation_sweep)
from oracles import final_universe

A, B, C = chain(2)


@pytest.fixture(scope="module")
def pumped_ex1(ex1):
    cover = m.closed_cover(ex1.process, ex1.board,
                           walk_cycles(ex1.board)[0])
    event = PumpingEvent(ex1.q, 3, walk_cycles(ex1.board)[0])
    pumped, overlay, _, _ = pump_rounds(ex1.process, event, 1)
    return pumped, overlay, cover


def _upward_premises(proc, board, cand, overlay, witness, seg):
    """check_upward_premises with the weak-imitation and imitation reports
    it takes, computed the way `_pumped_extension` computes them."""
    m_start = witness.gamma[witness.lo]
    weak = m.check_weak_imitation(
        proc, board, witness.lo, cand.stages[m_start],
        overlay.minus[m_start - overlay.start], witness.closed_set)
    imitation = m.imitates(
        board, BlockBijection(proc.final_blocks(), cand.final_blocks()))
    return m.check_upward_premises(proc, board, cand, overlay, witness, weak,
                                   seg, imitation)


def test_all_minus_overlay_validates(ex1):
    overlay = MsOverlay.all_minus(ex1.process)
    assert m.validate_overlay(ex1.process, overlay).ok


def test_pump_overlay_validates(ex1, pumped_ex1):
    pumped, overlay, _ = pumped_ex1
    assert m.validate_overlay(pumped, overlay).ok


def test_overlay_detects_untracked_move(ex1, pumped_ex1):
    pumped, overlay, _ = pumped_ex1
    # Drop a minus element at the last stage only: the inductive equations
    # record no delta for it, so the surplus side shrinks illegally.
    tampered = list(list(stage) for stage in overlay.minus)
    last = list(tampered[-1])
    q = ex1.q
    elem = sorted(last[q], key=hf.order_key)[0]
    last[q] = last[q] - {elem}
    tampered[-1] = tuple(last)
    bad = MsOverlay(overlay.start, tuple(tuple(s) for s in tampered))
    rep = m.validate_overlay(pumped, bad)
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
    pumped, overlay, cover = pumped_ex1
    weak = last_stage_weak(ex1.process, ex1.board, 3, pumped, overlay, cover)
    assert weak.ok
    names = [i.check for i in weak.items]
    for tag in ["(i)", "(vii)", "(viii)", "(x)", "(a)", "(b)", "(c)"]:
        assert any(n.startswith(tag) for n in names)


def test_weak_imitation_builds_each_table_once(ex1, pumped_ex1):
    # The stage, the candidate's Minus parts and the candidate's blocks:
    # three distinct inputs, three tables.
    from mlsspf.venn import signature_table
    pumped, overlay, cover = pumped_ex1
    proc, last = ex1.process, pumped.xi
    signature_table.cache_clear()
    rep = m.check_weak_imitation(
        proc, ex1.board, 3, pumped.stages[last],
        [overlay.minus_at(last, q) for q in proc.places], cover)
    assert rep.ok and signature_table.cache_info().misses == 3


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
        start = degenerate(proc, kp)
        cand, overlay, witness = m.paste_segment(proc, ex1.board, start, proc.xi)
        assert cand.stages == proc.stages
        assert m.check_segment_imitation(proc, ex1.board, cand, overlay,
                                         witness).ok


def test_paste_empty_segment_after_pump(ex1, pumped_ex1):
    pumped, pumped_overlay, cover = pumped_ex1
    start = StartConfiguration(pumped, pumped_overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(proc := ex1.process, ex1.board,
                                             start, proc.xi)
    assert cand.stages == pumped.stages
    assert m.check_segment_imitation(proc, ex1.board, cand, overlay, witness).ok


def test_paste_nontrivial_segment_after_pump():
    e = chain(5)
    formula = m.parse("w in x & !Finite(x)")
    M = m.Assignment({"w": e[1], "x": m.make_set(e[1:5])})
    partition, im, board = m.canonical_board(formula, M)
    proc = m.synthesize_process(partition)
    cycle = walk_cycles(board)[0]
    i0 = proc.xi - 1
    assert m.is_pumping_event(proc, board, 1, i0, cycle).ok
    cover = m.closed_cover(proc, board, cycle)
    pumped, pumped_overlay, _, _ = pump_rounds(
        proc, PumpingEvent(1, i0, cycle), 2)
    assert last_stage_weak(proc, board, i0, pumped, pumped_overlay, cover).ok
    start = StartConfiguration(pumped, pumped_overlay, i0, cover)
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
    pumped, pumped_overlay, cover = pumped_ex1
    start = StartConfiguration(pumped, pumped_overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(ex1.process, ex1.board, start,
                                             ex1.process.xi)
    seg = m.check_segment_imitation(ex1.process, ex1.board, cand, overlay,
                                    witness)
    rep = _upward_premises(ex1.process, ex1.board, cand, overlay, witness, seg)
    assert rep.ok, str(rep)


def test_upward_premises_reject_surplus_relabeled_as_minus(ex1, pumped_ex1):
    proc, overlay, cover = pumped_ex1
    # Moving a pump step's surplus element into the minus side inflates the
    # minus cardinality, so the weak-imitation premise must fail.
    mu = 3  # the single pump step sits between stages 3 and 4
    moved = None
    for q in proc.places:
        ds = overlay.delta_surplus(proc, mu, q)
        if ds:
            moved = (q, sorted(ds, key=hf.order_key)[0])
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
    pumped, pumped_overlay, cover = pumped_ex1
    # Append an extra candidate stage past the copied segment whose fresh
    # element is recorded as minus: off-map steps must be surplus-only.
    start = StartConfiguration(pumped, pumped_overlay, 3, cover)
    cand, overlay, witness = m.paste_segment(ex1.process, ex1.board, start,
                                             ex1.process.xi)
    q = ex1.q
    block = cand.stages[-1][q]
    # The least {q}-assembly not yet placed.
    placed = final_universe(cand)
    extra = next(e for e in hf.assemblies([block]) if e not in placed)
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
    proc, overlay, _ = pumped_ex1
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
    partition = block_tuple(blocks)
    proc = m.synthesize_process(partition)
    core = m.induced_board(partition)
    board = m.ColoredBoard(blocks=core.blocks, targets=dict(core.targets),
                           red=frozenset([2]),
                           pow_regions=[frozenset([0])])
    ge = m.grand_event(proc, frozenset([0]))
    assert ge < proc.xi
    start = degenerate(proc, ge)
    # Give block 0 a surplus element so the pow-node branch triggers.
    minus = [list(stage) for stage in start.overlay.minus]
    seed = sorted(proc.stages[ge][0], key=hf.order_key)[-1]
    for idx in range(len(minus)):
        minus[idx][0] = minus[idx][0] - {seed}
    bad_overlay = MsOverlay(ge, tuple(tuple(s) for s in minus))
    start = StartConfiguration(start.cand, bad_overlay, ge, frozenset())
    with pytest.raises(NoLocalTrash):
        m.paste_segment(proc, board, start, proc.xi)


def test_overlay_and_witness_json_round_trip(ex1, pumped_ex1):
    pumped, overlay, cover = pumped_ex1
    data = overlay.to_json(pumped)
    back = MsOverlay.from_json(data)
    assert back.start == overlay.start
    assert back.minus == overlay.minus
    assert back.to_json(pumped) == data

    witness = ImitationWitness(gamma={3: 4}, closed_set=cover, lo=3, hi=3)
    back = ImitationWitness.from_json(witness.to_json())
    assert dict(back.gamma) == dict(witness.gamma)
    assert back.closed_set == witness.closed_set


# Oracles: the table versions of check_weak_imitation, paste_segment and
# check_segment_imitation against the node sweeps they replaced (see
# msrefine_sweeps.py), on pumped and degenerate starts, each perturbed by
# up to two edits.

def _pumped_start(formula, assignment, rounds):
    cert = m.certify_witness(formula, assignment)
    _, _, board = m.canonical_board(formula, cert.assignment)
    pumped, overlay, _, _ = pump_rounds(cert.process, cert.event, rounds)
    return cert.process, board, StartConfiguration(
        pumped, overlay, cert.event.i0, cert.cover)


@pytest.fixture(scope="module")
def witness_starts():
    return [_pumped_start(f, a, rounds) for f, a in witness_family()
            for rounds in (1, 2)]


@pytest.fixture(scope="module")
def wide_starts():
    # 8 and 9 places: seed 6 fails weak and segment imitation, seed 21
    # pumps cleanly and seed 28's paste raises CardinalityDeficit.
    return [_pumped_start(*wide_instance(seed), 1) for seed in (6, 21, 28)]


def _random_start(rng):
    universe = rand_transitive_universe(rng, rng.randint(1, 9))
    partition = rand_partition(rng, universe, max_blocks=5)
    proc = m.synthesize_process(partition)
    board = rand_colored_board(proc, partition, rng)
    green = frozenset(q for q in proc.places if q not in board.red)
    return proc, board, degenerate(proc, rng.randint(0, proc.xi), green)


def _perturb(blocks, minus, rng):
    """Up to two edits of a split stage, each one of: move an element
    between Minus and Surplus, empty a Minus part (twice as likely), drop
    an element."""
    blocks, minus = list(blocks), list(minus)
    for _ in range(rng.randint(0, 2)):
        live = [q for q, b in enumerate(blocks) if b]
        if not live:
            break
        q = rng.choice(live)
        e = rng.choice(sorted(blocks[q], key=hf.order_key))
        kind = rng.choice(["move", "empty", "empty", "drop"])
        if kind == "move":
            minus[q] = minus[q] ^ {e}
        elif kind == "empty":
            minus[q] = frozenset()
        else:
            blocks[q], minus[q] = blocks[q] - {e}, minus[q] - {e}
    return tuple(blocks), tuple(minus)


def _perturb_stage(cand, overlay, a, rng):
    blocks, minus = _perturb(cand.stages[a], overlay.minus[a - overlay.start],
                             rng)
    i = a - overlay.start
    cand = m.FormativeProcess(
        stages=cand.stages[:a] + (blocks,) + cand.stages[a + 1:],
        trace=cand.trace, weak=True)
    return cand, MsOverlay(overlay.start,
                           overlay.minus[:i] + (minus,) + overlay.minus[i + 1:])


def _paste(paste, *args):
    """(candidate, overlay, witness) of a paste, or the error it raises."""
    try:
        return paste(*args)
    except m.MlsspfError as exc:
        return exc


def _paste_json(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    cand, overlay, witness = outcome
    return cand.to_json(), overlay.to_json(cand), witness.to_json()


def _assert_tables_match_sweeps(proc, board, start, rng):
    cand, overlay = _perturb_stage(start.cand, start.overlay, start.cand.xi,
                                   rng)
    k, last = start.k_prime, cand.xi
    weak_args = (proc, board, k, cand.stages[last],
                 overlay.minus[last - overlay.start], start.closed_set)
    assert (m.check_weak_imitation(*weak_args).to_json()
            == weak_imitation_sweep(*weak_args).to_json())

    start = StartConfiguration(cand, overlay, k, start.closed_set)
    k_second = rng.randint(k, proc.xi)
    got = _paste(m.paste_segment, proc, board, start, k_second)
    assert _paste_json(got) == _paste_json(
        _paste(paste_segment_sweep, proc, board, start, k_second))
    if isinstance(got, Exception):
        return
    cand, overlay, witness = got
    if rng.random() < 0.5:
        cand, overlay = _perturb_stage(
            cand, overlay, rng.randint(overlay.start, cand.xi), rng)
    else:
        # Empty one place's Minus part in every stage of the copy.
        q = rng.choice(proc.places)
        overlay = MsOverlay(overlay.start, tuple(
            stage[:q] + (frozenset(),) + stage[q + 1:]
            for stage in overlay.minus))
    seg_args = (proc, board, cand, overlay, witness)
    assert (m.check_segment_imitation(*seg_args).to_json()
            == segment_imitation_sweep(*seg_args).to_json())


@given(st.integers(0, 2 ** 32))
@settings(max_examples=500, deadline=None)
def test_msrefine_tables_match_sweeps_on_witness_pumps(witness_starts, seed):
    rng = random.Random(seed)
    _assert_tables_match_sweeps(*rng.choice(witness_starts), rng)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=20, deadline=None)
def test_msrefine_tables_match_sweeps_on_wide_pumps(wide_starts, seed):
    rng = random.Random(seed)
    _assert_tables_match_sweeps(*rng.choice(wide_starts), rng)


@given(st.integers(0, 2 ** 32))
@settings(max_examples=800, deadline=None)
def test_msrefine_tables_match_sweeps_on_degenerate_starts(seed):
    rng = random.Random(seed)
    _assert_tables_match_sweeps(*_random_start(rng), rng)


def test_pools_match_with_unequal_part_sizes():
    # Item (ix) with a Minus part larger than its stage block: the pools
    # match once the copy has placed the extra assemblies, here {{0}}.
    proc = m.synthesize_process(block_tuple([[A]]))
    board = m.induced_board(proc.final_blocks())
    witness = ImitationWitness(gamma={1: 1}, closed_set=frozenset([0]),
                               lo=1, hi=1)
    overlay = MsOverlay(1, ((frozenset([A, B]),),))
    for block, ok in (([A, B, C], True), ([A, B], False)):
        cand = m.FormativeProcess(stages=((frozenset(),), (frozenset(block),)),
                                  trace=(frozenset(),), weak=True)
        args = (proc, board, cand, overlay, witness)
        rep = m.check_segment_imitation(*args)
        assert rep.to_json() == segment_imitation_sweep(*args).to_json()
        assert [i.ok for i in rep.items if i.check.startswith("(ix)")] == [ok]


def test_weak_imitation_item_c_on_emptied_early_node():
    # Item (c) on an early node whose candidate block is empty.  With
    # D = {A, B} and E = {A, B, C, D}, stage 3 has blocks {A, C}, {B}, {}, {}
    # and node {1}'s union {B} = C, placed at step 2 in place 0.  Emptying
    # place 1 leaves the node's union the union of no blocks, {} = A, which
    # also lies in place 0, so the memberships transfer.
    D = m.make_set([A, B])
    E = m.make_set([A, B, C, D])
    proc = m.synthesize_process(block_tuple([[A, C], [B], [D], [E]]))
    board = m.induced_board(proc.final_blocks())
    assert m.grand_event(proc, frozenset([1])) == 2
    hat = list(proc.stages[3])
    hat[1] = frozenset()
    args = (proc, board, 3, hat, hat, frozenset())
    rep = m.check_weak_imitation(*args)
    assert rep.to_json() == weak_imitation_sweep(*args).to_json()
    assert [i.ok for i in rep.items if i.check.startswith("(c)")] == [True]
