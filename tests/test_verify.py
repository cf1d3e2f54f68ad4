"""`verify_certificate` checks a certificate's claims on its own, without
re-running the prover: its verdict against the prover's own pumped verdict,
its refusal of tampered and forged certificates with the prover switched
off, the `WitnessCertificate.from_json` round trip it reads certificates
through, and the trusted base it runs in."""

import ast
import functools
import json
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, venn
from mlsspf.cli import run_cli

from conftest import (Ex1, chain, pow_region_forgery, union_pick_allowed,
                      wide_instance, witness_family)
from make_golden import WIDE_SEEDS
from oracles import final_universe

GOLDEN = Path(__file__).parent / "golden"
CERTIFIED_WIDE = [e["seed"] for e in json.loads(
    (GOLDEN / "certified_wide.json").read_text())["entries"]
    if ":" not in e["outcome"]]


@functools.cache
def _family_certificates():
    """The witness family unpumped and pumped 0-3 rounds, as (certificate,
    JSON text)."""
    out = []
    for formula, assignment in witness_family():
        cert = m.certify_witness(formula, assignment)
        out += [cert] + [m.extend_certificate(cert, k) for k in range(4)]
    return [(cert, cert.dumps()) for cert in out]


@functools.cache
def _wide_certificates():
    """The certified `wide_instance` seeds unpumped and pumped one round,
    as (certificate, JSON text)."""
    out = []
    for seed in CERTIFIED_WIDE:
        cert = m.certify_witness(*wide_instance(seed))
        out += [cert, m.extend_certificate(cert, 1)]
    return [(cert, cert.dumps()) for cert in out]


@functools.cache
def _decided_certificates():
    """The decide corpus's SatWitnessed certificates, unpumped and pumped
    one round, as (certificate, JSON text)."""
    out = []
    corpus = json.loads((GOLDEN / "decide_corpus.json").read_text())
    for entry in corpus["entries"]:
        if entry["verdict"] == m.SAT_WITNESSED:
            data = json.loads(entry["result"])["certificate"]
            cert = m.WitnessCertificate.from_json(data)
            out += [cert, m.extend_certificate(cert, 1)]
    return [(cert, cert.dumps()) for cert in out]


def _x_in_w():
    """`!Finite(x) & x in w` and the model `decide` finds for it at rank 3
    and universe 3: w = {0, {{0}}}, x = {{0}} (0 meaning {})."""
    e = chain(2)
    return (m.parse("!Finite(x) & x in w"),
            m.Assignment({"w": m.make_set([e[0], e[2]]), "x": e[2]}))


@functools.cache
def _faulty_certificates():
    """`_x_in_w` and `wide_instance(33)` pumped one round by the pump that
    may place the restoring step's node union as surplus
    (`union_pick_allowed`), as (certificate, JSON text)."""
    with union_pick_allowed():
        out = [m.extend_certificate(m.certify_witness(*instance), 1)
               for instance in (_x_in_w(), wide_instance(33))]
    return [(cert, cert.dumps()) for cert in out]


@pytest.mark.parametrize("certificates", [
    _family_certificates, _wide_certificates, _decided_certificates,
    _faulty_certificates], ids=["family", "wide", "decided", "faulty"])
def test_verdict_is_the_provers_verdict(certificates):
    # The checker passes a certificate the prover issued exactly when the
    # prover's pumped verdict holds, and otherwise fails the pumped
    # verdict's item alone, with the same detail.  Every issued certificate
    # pumps; those of a faulty pump do not.
    failed = []
    for cert, text in certificates():
        want = []
        if cert.pumped is not None and not cert.pumped.ok:
            want = [("pumped extension holds",
                     ", ".join(cert.pumped.failing()))]
        got = [(i.check, i.detail)
               for i in m.verify_certificate(json.loads(text)).failures()]
        assert got == want, cert.formula.render()
        failed.append(tuple(want))
    if certificates is _wide_certificates:
        # 65 certified seeds, each pumped one round.
        assert len(failed) == 65 + 65
    if certificates is _faulty_certificates:
        assert all(failed)
    else:
        assert not any(failed)


# --- tampering, with the prover switched off --------------------------------

PROVER = ("certify_witness", "extend_certificate", "synthesize_process",
          "pump_rounds", "paste_segment")

# A set no certificate below holds: the chain {{...{}...}} twelve deep.
FRESH = list(json.loads(json.dumps(chain(12)[-1].to_json())))


def _set_lists(data):
    """Every JSON list of a certificate that is a set's member list: the
    variable values of the assignments and the blocks of the processes and
    of the overlay, with their paths."""
    out = []
    pumped = data.get("pumped", {})
    for key, value in (("baseAssignment", data["baseAssignment"]),
                       ("assignment", data["assignment"]),
                       ("finalAssignment", pumped.get("finalAssignment", {}))):
        out += [((key, v), value[v]) for v in sorted(value)]
    for key, stages in (("process", data["process"]["stages"]),
                        ("pumped process", pumped["process"]["stages"]),
                        ("minus", pumped["overlay"]["minus"]),
                        ("surplus", pumped["overlay"]["surplus"])):
        out += [((key, mu, q), block) for mu, stage in enumerate(stages)
                for q, block in enumerate(stage)]
    return out


def _element(data, draw):
    _, members = draw(st.sampled_from(_set_lists(data)))
    if members:
        members[draw(st.integers(0, len(members) - 1))] = FRESH
    else:
        members.append(FRESH)


def _stage_block(data, draw):
    nonempty = [(path, block) for path, block in _set_lists(data)
                if block and path[0] in ("process", "pumped process", "minus")]
    _, block = draw(st.sampled_from(nonempty))
    del block[draw(st.integers(0, len(block) - 1))]


def _trace_node(data, draw):
    trace = draw(st.sampled_from([data["process"]["trace"],
                                  data["pumped"]["process"]["trace"]]))
    nu = draw(st.integers(0, len(trace) - 1))
    width = len(data["process"]["stages"][0])
    place = draw(st.integers(0, width - 1))
    trace[nu] = sorted(set(trace[nu]) ^ {place})


def _event_field(data, draw):
    # A place other than the one given, which on a one-place board is the
    # place just outside the board.
    event = data["event"]
    width = len(data["process"]["stages"][0])

    def other_place(q):
        return draw(st.sampled_from([p for p in range(width + 1) if p != q]))

    field = draw(st.sampled_from(["q0", "i0", "places", "nodes"]))
    if field == "q0":
        event["q0"] = other_place(event["q0"])
    elif field == "i0":
        event["i0"] += draw(st.sampled_from([-1, 1]))
    else:
        cycle = event["cycle"][field]
        j = draw(st.integers(0, len(cycle) - 1))
        if field == "places":
            cycle[j] = other_place(cycle[j])
        else:
            cycle[j] = sorted(set(cycle[j]) ^ {draw(st.integers(0, width - 1))})


def _overlay_split(data, draw):
    # One element moves between the minus and the surplus part of its block.
    overlay = data["pumped"]["overlay"]
    moves = [(mu, q, side) for mu, stage in enumerate(overlay["minus"])
             for q in range(len(stage)) for side in ("minus", "surplus")
             if overlay[side][mu][q]]
    mu, q, side = draw(st.sampled_from(moves))
    other = "surplus" if side == "minus" else "minus"
    source = overlay[side][mu][q]
    element = source.pop(draw(st.integers(0, len(source) - 1)))
    overlay[other][mu][q] = sorted(overlay[other][mu][q] + [element])


def _report_flag(data, draw):
    reports = [data["report"]["event"], *data["pumped"]["reports"].values()]
    report = draw(st.sampled_from(reports))
    target = draw(st.sampled_from([report, *report["items"]]))
    target["ok"] = not target["ok"]


def _potential_infinite(data, draw):
    pot = data["potentialInfinite"]
    if pot and draw(st.booleans()):
        pot.pop()
    else:
        pot.append("_absent")


def _round_boundary(data, draw):
    boundaries = data["pumped"]["roundBoundaries"]
    boundaries[draw(st.integers(0, len(boundaries) - 1))] += draw(
        st.sampled_from([-1, 1]))


def _final_binding(data, draw):
    final = data["pumped"]["finalAssignment"]
    var = draw(st.sampled_from(sorted(final)))
    final[var] = [FRESH] if final[var] != [FRESH] else []


TAMPERS = (_element, _stage_block, _trace_node, _event_field, _overlay_split,
           _report_flag, _potential_infinite, _round_boundary, _final_binding)


@functools.cache
def _tamper_targets():
    """The witness family pumped one to three rounds, and the decide
    corpus's certificates pumped one round, some of which have one place."""
    return [text for cert, text in _family_certificates()
            + _decided_certificates()
            if cert.pumped is not None and cert.pumped.rounds >= 1]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_verify_fails_a_tampered_certificate_without_the_prover(data):
    text = data.draw(st.sampled_from(_tamper_targets()))
    cert = json.loads(text)
    tamper = data.draw(st.sampled_from(TAMPERS))
    tamper(cert, data.draw)
    assert cert != json.loads(text), tamper.__name__

    def prover(*args, **kwargs):
        raise AssertionError("verify ran the prover")

    with pytest.MonkeyPatch.context() as mp:
        for name in PROVER:
            mp.setattr(f"mlsspf.pumping.{name}", prover)
        assert m.verify_certificate(json.loads(text)).ok
        assert not m.verify_certificate(cert).ok, tamper.__name__


# --- the JSON round trip ----------------------------------------------------

@functools.cache
def _golden_certificates():
    """The certificates of the four golden files: the witness family pumped
    1-3 rounds, the pumped wide seeds, the certified wide seeds and the
    decide corpus's SatWitnessed certificates."""
    out = [m.extend_certificate(m.certify_witness(formula, assignment), k)
           for formula, assignment in witness_family() for k in (1, 2, 3)]
    out += [m.extend_certificate(m.certify_witness(*wide_instance(seed)), 1)
            for seed in WIDE_SEEDS]
    out += [m.certify_witness(*wide_instance(seed)) for seed in CERTIFIED_WIDE]
    out += [cert for cert, _ in _decided_certificates()[::2]]
    return out


def test_from_json_round_trips_the_golden_certificates():
    for cert in _golden_certificates():
        text = cert.dumps()
        back = m.WitnessCertificate.from_json(json.loads(text))
        assert back.dumps() == text
        assert back == cert


def test_extending_a_loaded_certificate_extends_the_original():
    for cert in _golden_certificates():
        base = m.WitnessCertificate.from_json(json.loads(cert.dumps()))
        for rounds in (1, 2):
            want = m.extend_certificate(cert, rounds)
            got = m.extend_certificate(base, rounds)
            assert got.dumps() == want.dumps()


# --- claims whose recomputation the checker refuses ------------------------

def _failed_checks(data):
    report = m.verify_certificate(data)
    return ([i.check for i in report.failures()],
            [i.check for i in report.items])


def test_verify_refuses_a_claim_of_many_rounds_without_pumping():
    # The claimed rounds are compared with the recorded boundaries before
    # any boundary is computed: a billion rounds cost nothing.
    data = json.loads(m.extend_certificate(
        m.certify_witness(*witness_family()[0]), 2).dumps())
    data["pumped"]["rounds"] = 10 ** 9
    failed, checks = _failed_checks(data)
    assert "pumped rounds traverse the event's cycle" in failed
    assert "pumped extension holds" in checks


def test_verify_reads_no_node_table_of_a_copy_without_minus_parts():
    # All material of the copy moved to surplus: the overlay still
    # validates, but its minus parts are empty where the process's blocks
    # are not, and a node table would list every node over those places.
    # The reports are not recomputed.
    data = json.loads(m.extend_certificate(
        m.certify_witness(*wide_instance(12)), 1).dumps())
    overlay = data["pumped"]["overlay"]
    for mu, stage in enumerate(overlay["minus"]):
        for q, part in enumerate(stage):
            overlay["surplus"][mu][q] = sorted(overlay["surplus"][mu][q]
                                               + part)
            stage[q] = []
    failed, checks = _failed_checks(data)
    assert "pumped copy is nonempty where the copied stages are" in failed
    assert "pumped extension holds" not in checks


def _w_in_x():
    """`w in x & !Finite(x)` and its witness w = {}, x = {{}, {{}}}."""
    return (m.parse("w in x & !Finite(x)"),
            m.Assignment.from_json({"w": [], "x": [[], [[]]]})[0])


def _finite_literal_appended(data):
    # A !Finite literal with its literal result: the cycle misses the new
    # variable's region.
    data["formula"] += " & !Finite(w)"
    data["report"]["literals"].append(False)


@pytest.mark.parametrize("k", [12, 24, 48])
def test_verify_refuses_a_forged_pow_region_in_linear_time(k):
    # The checker neither builds Pow(z) nor lists the 2^k pow-nodes of a
    # region of k places: each place more cost about 3x at k = 10-14 when
    # it did.
    data = pow_region_forgery(k)
    start = time.process_time()
    failed, _ = _failed_checks(data)
    assert time.process_time() - start < 1
    assert "every literal but !Finite holds" in failed


def test_verify_fails_a_cycle_that_misses_a_finite_region():
    # Only the coverage item checks the forged claim (a row of the table
    # below), and the prover refuses the formula.
    formula, assignment = _w_in_x()
    data = json.loads(m.certify_witness(formula, assignment).dumps())
    _finite_literal_appended(data)
    failed, _ = _failed_checks(data)
    assert failed == ["cycle meets the region of every !Finite variable"]
    with pytest.raises(m.CoverMissesVariable, match="'w'"):
        m.certify_witness(m.parse(data["formula"]), assignment)


def _bound_below_the_cycle(data):
    # The cycle has 2 places.
    data["params"]["maxCycleLen"] = 1


def _false_literal(data):
    data["formula"] += " & x in w"
    data["report"]["literals"].append(False)


def _closed_set_grown(data):
    # The cover of `w in x & !Finite(x)` is place 0 alone.
    data["pumped"]["witness"]["closedSet"].append(1)


def _infinite_x():
    """`!Finite(x)` and its witness x = {{0}, {{0}}, {{{0}}}} (0 meaning
    {}), whose event starts at stage 4 at place 1, which holds x."""
    return witness_family()[6]


def _used_seed(data):
    # At the start stage of `_infinite_x`, the event's place holds the seed
    # {{{0}}} and {0}, which is a member of {{0}}, so no unused seed.  The
    # two trade sides in every stage of the overlay.
    assert (data["event"]["i0"], data["event"]["q0"]) == (4, 1)
    q0, seed, used = 1, [[[[]]]], [[]]
    for part, old, new in (("minus", used, seed), ("surplus", seed, used)):
        for stage in data["pumped"]["overlay"][part]:
            if old in stage[q0] and new not in stage[q0]:
                stage[q0] = [new if e == old else e for e in stage[q0]]


def _prefix_steps_swapped(data):
    # Steps 3 and 4 of wide_instance(12)'s process, both before the start
    # stage 10, swapped in the pumped copy, which stays a valid weak
    # process with the same stage 10.
    proc, j = data["pumped"]["process"], 3
    stages = proc["stages"]
    stages[j + 1] = [a + [e for e in c if e not in b]
                     for a, b, c in zip(stages[j], stages[j + 1],
                                        stages[j + 2])]
    for key in ("trace", "historyTargets"):
        proc[key][j], proc[key][j + 1] = proc[key][j + 1], proc[key][j]


def _ex1():
    """`w in x & !Finite(x)` and its witness w = {{}}, x = {{{}}, {{{}}}},
    whose event starts at stage 3."""
    return (m.parse("w in x & !Finite(x)"),
            m.Assignment.from_json({"w": [[]], "x": [[[]], [[[]]]]})[0])


def _event_at_stage_0(data):
    # Every block is empty at stage 0, so conditions (i) and (iii) fail
    # there; the recorded event report is the one of stage 0.
    cert = m.WitnessCertificate.from_json(data)
    event = cert.event
    assert event.i0 == 3
    data["event"]["i0"] = 0
    data["report"]["event"] = m.is_pumping_event(
        cert.process, cert.canonical_board()[2], event.q0, 0,
        event.cycle).to_json()


def _trash_seed_dropped(data):
    # wide_instance(11)'s cover [1, 4, 9] around the cycle [1, 4]: without
    # place 9 it is still closed, but misses a trash seed of the segment.
    assert data["closedCover"] == [1, 4, 9]
    assert data["event"]["cycle"]["places"] == [1, 4]
    data["closedCover"].remove(9)


def _syntax_error(data):
    data["formula"] = "w in"


def _stages_no_list(data):
    data["process"]["stages"] = 5


def _variable_added(data):
    data["assignment"]["u"] = []


def _finite_result_flipped(data):
    # `!Finite(x)` is false of a finite assignment, and no literal result
    # but its own is read as holding.
    assert data["report"]["literals"] == [True, False]
    data["report"]["literals"][1] = True


def _process_marked_weak(data):
    data["process"]["weak"] = True


def _places_swapped(data):
    # Places 0 and 2 trade blocks in every stage, trace node and history
    # target: a valid process whose final blocks are out of the Venn
    # partition's order, and whose event and cover still hold.
    proc = data["process"]
    swap = {0: 2, 2: 0}
    for stage in proc["stages"]:
        stage[0], stage[2] = stage[2], stage[0]
    for key in ("trace", "historyTargets"):
        proc[key] = [sorted(swap.get(q, q) for q in node)
                     for node in proc[key]]


def _event_past_the_end(data):
    data["event"]["i0"] = len(data["process"]["stages"])


def _event_report_flag(data):
    item = data["report"]["event"]["items"][0]
    item["ok"] = not item["ok"]


def _cover_emptied(data):
    # The empty cover is closed and holds the segment's (no) trash seeds.
    data["closedCover"] = []


def _absent_variable(data):
    data["potentialInfinite"].append("_absent")


def _pumped_marked_strong(data):
    data["pumped"]["process"]["weak"] = False


def _minus_grown_inside_a_round(data):
    # The surplus of the event's place moves to minus at the first stage
    # after the start, which only the overlay's own items read: the rounds
    # end later, at stage i0 + 3.
    overlay, q0 = data["pumped"]["overlay"], data["event"]["q0"]
    overlay["minus"][1][q0] = sorted(overlay["minus"][1][q0]
                                     + overlay["surplus"][1][q0])
    overlay["surplus"][1][q0] = []


def _surplus_record_grown(data):
    data["pumped"]["overlay"]["surplus"][0][0].append(FRESH)


def _minus_where_the_copy_is_empty(data):
    # Place 7 of wide_instance(6) is empty at stage 9 of the process: a
    # fresh minus assembly of the copy's step into that stage, placed at
    # 7, keeps the copy a valid weak process and its overlay valid.
    cert = m.WitnessCertificate.from_json(data)
    proc, pumped = cert.process, data["pumped"]
    cand, overlay = cert.pumped.process, cert.pumped.overlay
    q, a = 7, cert.pumped.witness.gamma[9]
    assert not proc.stages[9][q]
    placed = final_universe(cand)
    e = next(x for x in hf.assemblies(cand.node_snapshot(cand.trace[a - 1],
                                                        a - 1))
             if x not in placed)
    for mu in range(a, cand.xi + 1):
        pumped["process"]["stages"][mu][q] = hf.block_json(
            cand.stages[mu][q] | {e})
        pumped["overlay"]["minus"][mu - overlay.start][q] = hf.block_json(
            overlay.minus_at(mu, q) | {e})
    targets = pumped["process"]["historyTargets"]
    targets[a - 1] = sorted(set(targets[a - 1]) | {q})


def _warmup_added(data):
    data["pumped"]["warmups"] += 1


def _pumped_report_flag(data):
    item = data["pumped"]["reports"]["imitation"]["items"][0]
    item["ok"] = not item["ok"]


def _final_binding_changed(data):
    data["pumped"]["finalAssignment"]["w"] = [FRESH]


def _union_picked_as_surplus(data):
    # The certificate pumped again, by the pump that may place the
    # restoring step's node union as surplus (`union_pick_allowed`): on
    # `_x_in_w` at one round it fails weak item (b), and so the upward
    # report, and nothing else.
    base = m.WitnessCertificate.from_json(
        {key: value for key, value in data.items() if key != "pumped"})
    with union_pick_allowed():
        forged = m.extend_certificate(base, data["pumped"]["rounds"])
    data.update(json.loads(forged.dumps()))


# id, instance, rounds (None: unpumped), forgery, the one item it fails.
FORGERIES = [
    ("syntax error", _w_in_x, None, _syntax_error, "formula parses"),
    ("stages no list", _w_in_x, None, _stages_no_list,
     "embedded process parses"),
    ("cycle bound", functools.partial(wide_instance, 12), None,
     _bound_below_the_cycle,
     "event cycle has at most params.maxCycleLen places"),
    ("variable added", _w_in_x, None, _variable_added,
     "assignment is the base assignment, made transitive"),
    ("finite result flipped", _w_in_x, None, _finite_result_flipped,
     "literal results are the base assignment's"),
    ("false literal", _w_in_x, None, _false_literal,
     "every literal but !Finite holds"),
    ("process marked weak", _w_in_x, None, _process_marked_weak,
     "embedded process validates"),
    ("places swapped", functools.partial(wide_instance, 0), None,
     _places_swapped,
     "embedded process ends in the assignment's Venn partition"),
    ("event past the end", _w_in_x, None, _event_past_the_end,
     "embedded event names a stage and places of the process"),
    ("event at stage 0", _ex1, None, _event_at_stage_0,
     "embedded event holds"),
    ("event report flag", _w_in_x, None, _event_report_flag,
     "embedded event report is recomputed"),
    ("cover emptied", _w_in_x, None, _cover_emptied,
     "embedded cover is closed and contains the cycle"),
    ("finite literal appended", _w_in_x, None, _finite_literal_appended,
     "cycle meets the region of every !Finite variable"),
    ("absent variable", _w_in_x, None, _absent_variable,
     "potentialInfinite is the variables meeting the cycle"),
    ("trash seed dropped", functools.partial(wide_instance, 11), None,
     _trash_seed_dropped, "embedded cover holds the segment's trash seeds"),
    ("swapped prefix", functools.partial(wide_instance, 12), 1,
     _prefix_steps_swapped,
     "pumped process starts with the process through the event's stage"),
    ("pumped marked strong", _w_in_x, 1, _pumped_marked_strong,
     "pumped process validates as a weak process"),
    ("minus grown inside a round", _w_in_x, 3, _minus_grown_inside_a_round,
     "pumped overlay validates from the event's stage"),
    ("surplus record grown", _w_in_x, 1, _surplus_record_grown,
     "pumped overlay records its surplus parts"),
    ("used seed", _infinite_x, 1, _used_seed,
     "pumped overlay starts from an unused seed of the event's place"),
    *[(f"closed set {rounds}", _w_in_x, rounds, _closed_set_grown,
       "pumped stage map copies the process from the last round")
      for rounds in (0, 1, 3)],
    ("minus where the copy is empty", functools.partial(wide_instance, 6), 1,
     _minus_where_the_copy_is_empty,
     "pumped copy is nonempty where the copied stages are"),
    ("warm-up added", _w_in_x, 1, _warmup_added,
     "pumped rounds traverse the event's cycle"),
    ("pumped report flag", _w_in_x, 1, _pumped_report_flag,
     "pumped reports are recomputed"),
    ("final binding changed", _w_in_x, 1, _final_binding_changed,
     "pumped final assignment is the transferred assignment"),
    ("union picked as surplus", _x_in_w, 1, _union_picked_as_surplus,
     "pumped extension holds"),
]


@pytest.mark.parametrize("instance, rounds, forge, item",
                         [row[1:] for row in FORGERIES],
                         ids=[row[0] for row in FORGERIES])
def test_verify_fails_only_the_forged_item(instance, rounds, forge, item):
    # A valid certificate, pumped `rounds` rounds unless None, with one
    # claim made false and its recorded results made to agree: only the
    # item that checks that claim fails.
    cert = m.certify_witness(*instance())
    if rounds is not None:
        cert = m.extend_certificate(cert, rounds)
    data = json.loads(cert.dumps())
    forge(data)
    failed, _ = _failed_checks(data)
    assert failed == [item]


def test_checker_hands_the_partitions_table_to_a_process_ending_in_it():
    # A process whose final blocks are the Venn partition's reads the
    # partition's table.  With places 0 and 2 swapped, it ends elsewhere and
    # builds its own table, and only the partition item fails.
    data = json.loads(m.certify_witness(*wide_instance(0)).dumps())
    report, cert = m.check_certificate(data)
    assert report.ok
    assert cert.process.final_table is venn.signature_table(
        cert.canonical_board()[0])
    _places_swapped(data)
    swapped_report, swapped = m.check_certificate(data)
    assert swapped.process.final_table is not venn.signature_table(
        swapped.canonical_board()[0])
    item = "embedded process ends in the assignment's Venn partition"
    assert [(i.check, i.ok or i.check == item, i.detail)
            for i in swapped_report.items] == \
        [(i.check, i.ok, i.detail) for i in report.items]
    assert [i.check for i in swapped_report.failures()] == [item]


def test_prover_and_checker_build_each_table_once(monkeypatch):
    # Equal blocks and parts give one table, whoever asks: extending
    # `wide_instance(12)` by 2 rounds builds 11 tables (16 when each caller
    # built its own), and verifying the result from an empty memo 11 (15).
    built = []
    init = venn.SignatureTable.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    venn.signature_table.cache_clear()
    cert = m.certify_witness(*wide_instance(12))
    monkeypatch.setattr(venn.SignatureTable, "__init__", counting)
    data = json.loads(m.extend_certificate(cert, 2).dumps())
    assert len(built) <= 11
    built.clear()
    venn.signature_table.cache_clear()
    assert m.verify_certificate(data).ok
    assert len(built) <= 11


def test_checker_reading_the_provers_tables_gives_the_cold_report():
    # Right after `extend_certificate`, `verify_certificate` reads tables
    # the prover left in `venn.signature_table`'s memo; from an empty memo
    # it builds its own.  The reports are the same.
    cases = [(m.certify_witness(formula, assignment), rounds)
             for formula, assignment in witness_family()
             for rounds in range(4)]
    cases += [(m.certify_witness(*wide_instance(seed)), 1)
              for seed in CERTIFIED_WIDE if seed < 12]
    for cert, rounds in cases:
        data = json.loads(m.extend_certificate(cert, rounds).dumps())
        warm = m.verify_certificate(data).to_json()
        venn.signature_table.cache_clear()
        assert m.verify_certificate(data).to_json() == warm


@pytest.mark.parametrize("gamma", [{" +014 ": 16}, {"014": 115, "14": 16}],
                         ids=["padded", "two spellings"])
def test_stage_map_keys_must_be_canonical(tmp_path, gamma):
    # A stage map key names its stage only as `str` writes it: " +014 "
    # would read as stage 14, and "014" beside "14" would collapse into one
    # stage, the last key winning.  Either is bad input (exit 3).
    cert = m.extend_certificate(m.certify_witness(*wide_instance(0)), 1)
    data = json.loads(cert.dumps())
    assert data["pumped"]["witness"]["gamma"] == {"14": 16}
    data["pumped"]["witness"]["gamma"] = gamma
    with pytest.raises(ValueError, match="canonical"):
        m.verify_certificate(data)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert run_cli(["verify", str(path)]) == 3
    assert run_cli(["pump", "-c", str(path), "--rounds", "1"]) == 3


# --- every item of a validator can fail alone --------------------------------

def _forged_process(proc, **fields):
    """The process with some of its fields replaced."""
    return m.FormativeProcess(**{"stages": proc.stages, "trace": proc.trace,
                                 "history_targets": proc.history_targets,
                                 "weak": proc.weak, **fields})


# The process of `w in x & !Finite(x)` on w = {A}, x = {B, C}, as the
# `ex1` fixture synthesizes it: stages (), ({A}), ({A}, {B}),
# ({A}, {B, C}) over places 0 and 1 from the trace (), (0), (1).
A, B, C = chain(2)
EX1 = Ex1().process


def _coherence_broken():
    # Step 2's snapshot {A, B} assembles both C = {B} and {A, B}; placing
    # only C there and {A, B} one step later is no strong process.
    ab = m.make_set([A, B])
    return m.FormativeProcess(
        stages=((frozenset(),), (frozenset([A]),), (frozenset([A, B]),),
                (frozenset([A, B, C]),), (frozenset([A, B, C, ab]),)),
        trace=(frozenset(), frozenset([0]), frozenset([0]), frozenset([0])))


# id, forged process, the one item template it fails.
PROCESS_FORGERIES = [
    ("trace too long",
     lambda: _forged_process(EX1, trace=EX1.trace + (frozenset(),)),
     "shape: trace length matches stage count"),
    ("targets cut",
     lambda: _forged_process(EX1, history_targets=EX1.history_targets[:2]),
     "shape: history targets: one per step"),
    ("last stage cut",
     lambda: _forged_process(EX1, stages=EX1.stages[:-1]
                             + ((frozenset([A]),),)),
     "shape: every stage has a block per place"),
    ("trace off the places",
     lambda: _forged_process(EX1, trace=EX1.trace[:-1] + (frozenset([5]),)),
     "shape: trace nodes name places of the process"),
    ("element in two blocks",
     lambda: _forged_process(EX1, stages=EX1.stages[:-1]
                             + ((frozenset([A]), frozenset([A, B, C])),)),
     "stage {mu}: blocks pairwise disjoint"),
    ("first step dropped",
     lambda: _forged_process(EX1, stages=EX1.stages[1:], trace=EX1.trace[1:],
                             history_targets=EX1.history_targets[1:]),
     "stage 0: all blocks empty"),
    ("empty place added",
     lambda: _forged_process(EX1, stages=tuple(
         stage + (frozenset(),) for stage in EX1.stages)),
     "final stage: all blocks nonempty"),
    ("element moved",
     lambda: _forged_process(
         EX1, stages=EX1.stages[:-1] + ((frozenset([A, B]), frozenset([C])),),
         history_targets=EX1.history_targets[:-1] + (frozenset([0, 1]),)),
     "step {nu}: blocks grow monotonically"),
    ("wrong trace node",
     lambda: _forged_process(EX1, trace=EX1.trace[:-1] + (frozenset([0]),)),
     "step {nu}: new elements assemble from the trace node"),
    ("stalled step",
     lambda: _forged_process(
         EX1, stages=EX1.stages[:2] + EX1.stages[1:],
         trace=(frozenset(),) + EX1.trace,
         history_targets=EX1.history_targets[:1] + (frozenset(),)
         + EX1.history_targets[1:]),
     "step {nu}: the partition strictly grows"),
    ("wrong target",
     lambda: _forged_process(EX1, history_targets=(frozenset([1]),)
                             + EX1.history_targets[1:]),
     "step {nu}: history targets match nonempty deltas"),
    ("late assembly", _coherence_broken,
     "step {nu}: coherent (no late assembly of the used snapshot)"),
]


def _forged_overlay(start, edits):
    """The all-minus overlay of EX1 from `start`, with the minus part of
    place q at stage mu replaced by `part` for each (mu, q, part)."""
    minus = [list(stage) for stage in m.MsOverlay.all_minus(EX1, start).minus]
    for mu, q, part in edits:
        minus[mu - start][q] = frozenset(part)
    return m.MsOverlay(start, tuple(map(tuple, minus)))


# id, forged overlay of EX1, the one item template it fails.
OVERLAY_FORGERIES = [
    ("last stage missing",
     lambda: m.MsOverlay(0, m.MsOverlay.all_minus(EX1).minus[:-1]),
     "shape: overlay covers stages through the end"),
    ("minus outside its block",
     lambda: _forged_overlay(0, [(3, 0, [A, chain(5)[-1]])]),
     "stage {mu}: minus parts inside their blocks"),
    # A = {} assembles from no nonempty family, so its move to surplus is
    # no surplus delta that the minus parts assemble.
    ("minus element moved to surplus",
     lambda: _forged_overlay(0, [(2, 0, []), (3, 0, [])]),
     "step {mu}: minus parts never shrink"),
    ("surplus element moved to minus",
     lambda: _forged_overlay(1, [(1, 0, [])]),
     "step {mu}: surplus parts never shrink"),
    ("minus assembly recorded as surplus",
     lambda: _forged_overlay(0, [(3, 1, [B])]),
     "step {mu}: surplus deltas use at least one surplus element"),
]


def _template(arg) -> str:
    """An item name's source as a template: a string constant as it is, an
    f-string with each field as `ast.unparse` gives its expression."""
    if isinstance(arg, ast.Constant):
        return arg.value
    if isinstance(arg, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant)
                       else "{" + ast.unparse(v.value) + "}"
                       for v in arg.values)
    return ast.unparse(arg)


def _item_templates(module, *functions) -> set:
    """The template of the first argument of every `rb.add` in the named
    functions of a module."""
    tree = ast.parse(Path(module.__file__).read_text())
    out = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and ast.unparse(node.func.value) == "rb"):
                out.add(_template(node.args[0]))
    return out


def _templates_failed(report, templates) -> set:
    """The templates of the report's failed items: each field of a
    template stands for a stage number."""
    out = set()
    for item in report.failures():
        out |= {t for t in templates if re.fullmatch(
            r"\d+".join(map(re.escape, re.split(r"\{[^}]*\}", t))),
            item.check)}
    return out


def _validator_templates(name):
    from mlsspf import msrefine, process
    module = {"validate_process": process,
              "validate_overlay": msrefine}[name]
    return _item_templates(module, name)


@pytest.mark.parametrize("forge, template",
                         [row[1:] for row in PROCESS_FORGERIES],
                         ids=[row[0] for row in PROCESS_FORGERIES])
def test_validate_process_fails_only_the_forged_item(forge, template):
    proc = forge()
    templates = _validator_templates("validate_process")
    assert _templates_failed(m.validate_process(proc), templates) == {
        template}


def test_validate_process_reads_coherence_of_strong_processes_only():
    weak = _forged_process(_coherence_broken(), weak=True)
    assert m.validate_process(weak).ok
    assert m.validate_process(EX1).ok


@pytest.mark.parametrize("forge, template",
                         [row[1:] for row in OVERLAY_FORGERIES],
                         ids=[row[0] for row in OVERLAY_FORGERIES])
def test_validate_overlay_fails_only_the_forged_item(forge, template):
    templates = _validator_templates("validate_overlay")
    assert m.validate_overlay(EX1, m.MsOverlay.all_minus(EX1, 1)).ok
    assert _templates_failed(m.validate_overlay(EX1, forge()),
                             templates) == {template}


def test_every_item_verify_runs_can_fail_alone():
    # An item added to the checker or to a validator it runs fails this
    # test until a forgery that fails it alone joins its table; a row
    # outlives no item.
    from mlsspf import certificate
    for templates, table in (
            (_item_templates(certificate, "check_certificate",
                             "_check_pumped"), FORGERIES),
            (_validator_templates("validate_process"), PROCESS_FORGERIES),
            (_validator_templates("validate_overlay"), OVERLAY_FORGERIES)):
        assert templates == {row[-1] for row in table}


# --- the trusted base -------------------------------------------------------

def _prover_steps():
    """The prover's source file, and the code objects of the prover's steps
    in other modules: the synthesis, the paste and the assembly
    enumeration."""
    from mlsspf import hf, msrefine, process, pumping
    return pumping.__file__, {fn.__code__ for fn in (
        process.synthesize_process, msrefine.paste_segment, hf.assemblies)}


def test_verify_enters_no_prover_step():
    # Stronger than switching the prover's public functions off: no frame
    # of any function of `pumping`, nested ones included, nor of a prover
    # step elsewhere, is entered while verifying the witness family
    # unpumped and pumped 1-3 rounds and the wide seeds of the pumped
    # goldens pumped one round, which hold the pumped goldens.  A
    # definition the checker shares with the prover must not pull a step
    # of the prover in.
    texts = [text for cert, text in _family_certificates()
             if cert.pumped is None or cert.pumped.rounds != 0]
    texts += [m.extend_certificate(m.certify_witness(*wide_instance(seed)),
                                   1).dumps() for seed in WIDE_SEEDS]
    assert len(texts) == 52 + 8
    assert {cert.dumps() for cert in _golden_certificates()
            if cert.pumped is not None} <= set(texts)
    prover_file, steps = _prover_steps()
    entered = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and (code.co_filename == prover_file
                                or code in steps):
            entered.add(code.co_name)

    for text in texts:
        data = json.loads(text)
        sys.setprofile(profile)
        try:
            report = m.verify_certificate(data)
        finally:
            sys.setprofile(None)
        assert report.items
    assert not entered


def test_checker_imports_nothing_of_the_prover():
    # The checker module reads on its own: no import of `pumping`, at
    # module level or inside a function.
    from mlsspf import certificate
    tree = ast.parse(Path(certificate.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["mlsspf" if node.level else None,
                                          node.module]))
            imported += [base] + [f"{base}.{alias.name}"
                                  for alias in node.names]
    assert "mlsspf.hf" in imported
    assert not [name for name in imported
                if name.split(".")[:2] == ["mlsspf", "pumping"]]


def test_verify_fails_a_cycle_with_fewer_nodes_than_places():
    # The checker reads the round schedule as (node, place) steps, so a
    # cycle that lists fewer nodes than places fails items instead of
    # raising IndexError.
    data = json.loads(m.extend_certificate(
        m.certify_witness(*witness_family()[0]), 2).dumps())
    data["event"]["cycle"]["nodes"].pop()
    failed, _ = _failed_checks(data)
    assert "embedded event holds" in failed
    assert "pumped rounds traverse the event's cycle" in failed
