"""`verify_certificate` checks a certificate's claims on its own, without
re-running the prover: its verdict against the prover's own pumped verdict,
its refusal of tampered and forged certificates with the prover switched
off, the `WitnessCertificate.from_json` round trip it reads certificates
through, and the trusted base it runs in."""

import ast
import functools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf

from conftest import chain, wide_instance, witness_family
from make_golden import WIDE_SEEDS

GOLDEN = Path(__file__).parent / "golden"
CERTIFIED_WIDE = [e["seed"] for e in json.loads(
    (GOLDEN / "certified_wide.json").read_text())["entries"]
    if ":" not in e["outcome"]]


def _pumped(cert, rounds):
    try:
        return m.extend_certificate(cert, rounds)
    except m.MlsspfError:
        return None


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
    """The certified `wide_instance` seeds unpumped, and pumped one round
    where the pump does not raise, as (certificate, JSON text)."""
    out = []
    for seed in CERTIFIED_WIDE:
        cert = m.certify_witness(*wide_instance(seed))
        out.append(cert)
        ext = _pumped(cert, 1)
        if ext is not None:
            out.append(ext)
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


# The items a pumped process that does not validate fails, as some that
# the pump issues on wide boards do, besides the pumped verdict.
INVALID_PUMP = [("pumped process validates as a weak process", ""),
                ("pumped overlay validates from the event's stage", "")]


@pytest.mark.parametrize("certificates", [
    _family_certificates, _wide_certificates, _decided_certificates],
    ids=["family", "wide", "decided"])
def test_verdict_is_the_provers_verdict(certificates):
    # The checker passes a certificate the prover issued exactly when the
    # prover's pumped verdict holds, and otherwise fails the pumped
    # verdict's item with the same detail, and the validation items only
    # where the pumped process does not validate.
    failed = []
    for cert, text in certificates():
        want = []
        if cert.pumped is not None:
            if not cert.pumped.ok:
                want = [("pumped extension holds",
                         ", ".join(cert.pumped.failing()))]
            if not m.validate_process(cert.pumped.process).ok:
                want = INVALID_PUMP + want
        got = [(i.check, i.detail)
               for i in m.verify_certificate(json.loads(text)).failures()]
        assert got == want, cert.formula.render()
        failed.append(tuple(want))
    if certificates is _wide_certificates:
        # 64 certificates, 54 of which pump: 25 cleanly, 12 failing the
        # upward and imitation reports, 13 with a pumped process that does
        # not validate and 4 failing other reports.
        assert len(failed) == 64 + 54
        assert failed.count(()) == 64 + 25
        assert failed.count((("pumped extension holds",
                              "upward, imitation"),)) == 12
        assert sum(1 for f in failed if f[:2] == tuple(INVALID_PUMP)) == 13
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
    event = data["event"]
    width = len(data["process"]["stages"][0])
    field = draw(st.sampled_from(["q0", "i0", "places", "nodes"]))
    if field == "q0":
        event["q0"] = draw(st.sampled_from(
            [q for q in range(width) if q != event["q0"]]))
    elif field == "i0":
        event["i0"] += draw(st.sampled_from([-1, 1]))
    else:
        cycle = event["cycle"][field]
        j = draw(st.integers(0, len(cycle) - 1))
        place = draw(st.integers(0, width - 1))
        if field == "places":
            cycle[j] = place if place != cycle[j] else (place + 1) % width
        else:
            cycle[j] = sorted(set(cycle[j]) ^ {place})


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
    """The witness family pumped one and two rounds."""
    return [text for cert, text in _family_certificates()
            if cert.pumped is not None and cert.pumped.rounds >= 1]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_verify_fails_a_tampered_certificate_without_the_prover(data):
    text = data.draw(st.sampled_from(_tamper_targets()))
    cert = json.loads(text)
    tamper = data.draw(st.sampled_from(TAMPERS))
    tamper(cert, data.draw)

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
    1-3 rounds, the pumped wide seeds that pump, the certified wide seeds
    and the decide corpus's SatWitnessed certificates."""
    out = [m.extend_certificate(m.certify_witness(formula, assignment), k)
           for formula, assignment in witness_family() for k in (1, 2, 3)]
    for seed in WIDE_SEEDS:
        ext = _pumped(m.certify_witness(*wide_instance(seed)), 1)
        if ext is not None:
            out.append(ext)
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
            want, got = _pumped(cert, rounds), _pumped(base, rounds)
            assert (got is None) == (want is None)
            if want is not None:
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


def _used_seed(data):
    # At the start stage 2 of `w in x & !Finite(x)`, place 0 holds {} and
    # the seed {{}}; {} is a member of {{}}, so it is no unused seed.  The
    # two trade sides in every stage of the overlay.
    q0, seed, used = data["event"]["q0"], [[]], []
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
    e = next(x for x in hf.assemblies(cand.node_snapshot(cand.trace[a - 1],
                                                        a - 1))
             if x not in cand.final_universe)
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


def _as_issued(data):
    # wide_instance(11) pumps one round but fails the upward and imitation
    # reports: the certificate as the prover issues it.
    pass


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
    ("used seed", _w_in_x, 1, _used_seed,
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
    ("as issued", functools.partial(wide_instance, 11), 1, _as_issued,
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


# The items of `check_certificate` that no certificate fails alone, with
# the items that fail with them.
GUARDS = {
    "embedded process has the board's places":
        "a stage short of a place fails the Venn partition item if it is "
        "the last stage, and validation (a ragged process) otherwise",
}


def _checker_items():
    """The first argument of every `rb.add` of `check_certificate` and
    `_check_pumped`: the item's name, or the source of an argument that
    is no string constant."""
    from mlsspf import certificate
    tree = ast.parse(Path(certificate.__file__).read_text())
    names = set()
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef)
                and fn.name in ("check_certificate", "_check_pumped")):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and ast.unparse(node.func.value) == "rb"):
                arg = node.args[0]
                names.add(arg.value if isinstance(arg, ast.Constant)
                          else ast.unparse(arg))
    return names


def test_every_checker_item_can_fail_alone_or_is_a_guard():
    # An item added to the checker fails this test until a forgery that
    # fails it alone joins FORGERIES, or its reason joins GUARDS.
    items = _checker_items()
    forged = {row[-1] for row in FORGERIES}
    assert items - forged - GUARDS.keys() == set()
    # No row or reason outlives its item.
    assert forged | GUARDS.keys() <= items
    assert not forged & GUARDS.keys()


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
    # unpumped and pumped 1-3 rounds and ten pumped wide seeds, which hold
    # the pumped goldens.  A definition the checker shares with the prover
    # must not pull a step of the prover in.
    texts = [text for cert, text in _family_certificates()
             if cert.pumped is None or cert.pumped.rounds != 0]
    texts += [text for cert, text in _wide_certificates()
              if cert.pumped is not None][:10]
    assert len(texts) == 62
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
