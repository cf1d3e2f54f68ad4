"""Witness certificates and their checker, which runs no step of the prover.

A certificate packages a finite assignment, its formative process, a pumping
event and its closed cover, optionally with a pumped extension; this module
holds its types, its JSON reader (`WitnessCertificate.from_json`) and the
checker (`check_certificate`, whose report is `verify_certificate`'s), which
recomputes every claim from what the certificate holds.  The claims the
prover in `pumping` must make true are defined here once, and the prover
imports them: conditions (i)-(iii) of an event and its start-stage window,
the coverage of the !Finite regions and `potentialInfinite`, the segment's
trash seeds, a pump round's schedule, and the pumped extension's five
reports.  Nothing here imports `pumping`: the checker and what it calls in
the other modules are the code a verdict of `verify` rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import hf, lang
from .errors import MlsspfError
from .msrefine import (ImitationWitness, MsOverlay, _surplus_sinks,
                       check_segment_imitation, check_upward_premises,
                       check_weak_imitation, validate_overlay)
from .process import (FormativeProcess, _json_nodes, _json_places, is_closed,
                      validate_process)
from .relations import (BlockBijection, imitates, literal_transfer_report,
                        transfer_assignment)
from .report import Report, ReportBuilder
from .venn import (Assignment, ColoredBoard, canonical_board, is_transitive,
                   transitivize)

# The surplus-only rounds a pump may run before it must restore.
MAX_WARMUP_ROUNDS = 8

# The places of a pumping cycle, when neither the caller of
# `certify_witness` nor a certificate's `params.maxCycleLen` says otherwise.
MAX_CYCLE_LEN = 4


@dataclass(frozen=True)
class PumpingCycle:
    """Alternating node/place cycle: place j is a target of node j and a
    member of node j+1 (wrapping), with no vertex repeated and none red."""

    nodes: tuple
    places: tuple

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(frozenset(n) for n in self.nodes))
        object.__setattr__(self, "places", tuple(self.places))

    def __len__(self):
        return len(self.places)

    def place_set(self) -> frozenset:
        return frozenset(self.places)

    def validate(self, board: ColoredBoard) -> Report:
        rb = ReportBuilder()
        n = len(self.places)
        # The other items index nodes and places together.
        if not rb.add("cycle: nodes and places alternate consistently",
                      len(self.nodes) == n and n >= 1):
            return rb.build()
        rb.add("cycle: no place repeats", len(set(self.places)) == n)
        rb.add("cycle: no node repeats", len(set(self.nodes)) == n)
        rb.add("cycle: every place is green",
               all(q not in board.red for q in self.places))
        rb.add("cycle: every node is green",
               all(board.is_green_node(c) for c in self.nodes))
        rb.add("cycle: target edges hold",
               all(self.places[j] in board.target(self.nodes[j]) for j in range(n)))
        rb.add("cycle: membership edges hold",
               all(self.places[j] in self.nodes[(j + 1) % n] for j in range(n)))
        return rb.build()

    def to_json(self):
        return {"nodes": [sorted(c) for c in self.nodes],
                "places": list(self.places)}

    @staticmethod
    def from_json(data) -> "PumpingCycle":
        data = hf.expect_json(data, dict, "a cycle")
        return PumpingCycle(nodes=_json_nodes(data["nodes"], "cycle nodes"),
                            places=_json_places(data["places"], "cycle places"))


@dataclass(frozen=True)
class PumpingEvent:
    q0: int
    i0: int
    cycle: PumpingCycle

    def to_json(self):
        return {"q0": self.q0, "i0": self.i0, "cycle": self.cycle.to_json()}

    @staticmethod
    def from_json(data) -> "PumpingEvent":
        data = hf.expect_json(data, dict, "an event")
        return PumpingEvent(q0=hf.expect_json(data["q0"], int, "q0"),
                            i0=hf.expect_json(data["i0"], int, "i0"),
                            cycle=PumpingCycle.from_json(data["cycle"]))


# The claims of a pumping event, each defined once: the search in `pumping`
# (`_CycleIndex.walk` and the stage loop of `certify_witness`), the event
# report (`is_pumping_event`), the pump and the checker all read these.

def _unused_seeds(proc: FormativeProcess, i0: int, q0: int) -> frozenset:
    """Condition (i) asks for one of these: the elements of q0's block at
    stage i0 that no element placed by then has as a member."""
    return proc.stages[i0][q0] - proc.used_by_stage[i0]


def _latest_starts(proc: FormativeProcess) -> tuple:
    """Condition (ii) per place: the latest start stage at which no node
    containing it has an earlier grand event (`least_grand_events`).  (ii)
    holds for a cycle up to the least entry over its places."""
    return proc.least_grand_events


def _fill_stages(proc: FormativeProcess, nodes) -> list:
    """Condition (iii) per node: the first stage at which every block of a
    place in the node is nonempty.  Blocks only grow, so (iii) holds for a
    cycle from the latest fill stage of its nodes on."""
    filled = proc.first_filled
    return [max(map(filled.__getitem__, node), default=0) for node in nodes]


def _start_window(proc: FormativeProcess, cycle: PumpingCycle) -> tuple:
    """(first, last): conditions (ii) and (iii) hold for the cycle at
    exactly the start stages i0 with first <= i0 <= last."""
    latest = _latest_starts(proc)
    return (max(_fill_stages(proc, cycle.nodes), default=0),
            min(map(latest.__getitem__, cycle.places), default=proc.xi))


def _finite_regions(formula: lang.Formula, im) -> list:
    """(variable, region) of every !Finite literal, in literal order: an
    event's cycle must meet every region, so that the variable grows."""
    return [(lit.operands[0], im[lit.operands[0]])
            for lit in formula.literals if lit.kind == lang.NOT_FINITE]


def _missed_variable(regions, places):
    """The first variable of `_finite_regions` whose region the places
    miss, or None when they meet every region."""
    return next((x for x, region in regions if region.isdisjoint(places)),
                None)


def _potential_infinite(formula: lang.Formula, im, places) -> tuple:
    """`potentialInfinite`: the variables whose regions meet the places."""
    return tuple(v for v in formula.vars if not im[v].isdisjoint(places))


def is_pumping_event(proc: FormativeProcess, board: ColoredBoard,
                     q0: int, i0: int, cycle: PumpingCycle) -> Report:
    """The three conditions for (q0, i0, cycle) to start a pump.

    The minimum in condition (ii) ranges over every node that meets the
    cycle, and the process's `least_grand_events` holds it per place, read
    off its signature table (`FormativeProcess.final_table`): no grand
    event is evaluated and no union built here.
    """
    rb = ReportBuilder()
    rb.extend(cycle.validate(board))
    rb.add("event: seed place lies on the cycle", q0 in cycle.place_set())
    rb.add("(i) seed place holds an unused element at the start stage",
           bool(_unused_seeds(proc, i0, q0)))
    first, last = _start_window(proc, cycle)
    rb.add("(ii) nodes meeting the cycle have no earlier grand event",
           i0 <= last)
    rb.add("(iii) cycle node blocks are nonempty at the start stage",
           first <= i0)
    return rb.build()


def _segment_trash_seeds(proc: FormativeProcess, board: ColoredBoard,
                         i0: int, cycle: PumpingCycle):
    """Places that must join the closed set so the segment replay can dump
    grand-event unions of surplus-bearing nodes; None when impossible.  A
    union must land among the surplus sinks of its node's grand event ge:
    in a valid process, which both callers pass, step ge's trace node is
    the node (the union assembles its blocks and holds the node's final
    blocks), so ge is the trace node's grand event too."""
    seeds = set()
    cycle_places = cycle.place_set()
    for node, ge in proc.grand_events.items():
        if not (node & cycle_places) or ge >= proc.xi or ge < i0:
            continue
        # The union landed at step ge in the block that still holds it.
        target = proc.final_table.union_home(node)
        if target not in _surplus_sinks(proc, board, ge):
            return None
        seeds.add(target)
    return seeds


def _round_schedule(event: PumpingEvent) -> list:
    """One pump round as its steps (node, the place it adds to): the
    cycle's nodes in turn, each adding to its cycle target, from the node
    after the seed place q0, the first that holds q0's seed, so the round
    ends by adding to q0; `pump_rounds` runs it and `_check_pumped` checks
    the pumped trace.  A q0 off the cycle, which the checker reaches when
    the event fails, starts from node 1."""
    steps = list(zip(event.cycle.nodes, event.cycle.places))
    places = event.cycle.places
    s0 = places.index(event.q0) if event.q0 in places else 0
    return steps[s0 + 1:] + steps[:s0 + 1]


# The pumped reports: their names in the certificate -> PumpedExtension
# fields.
_REPORTS = {
    "weakImitation": "weak_report",
    "segmentImitation": "segment_report",
    "upward": "upward_report",
    "imitation": "imitation_report",
    "literalTransfer": "transfer_report",
}


@dataclass(frozen=True)
class PumpedExtension:
    rounds: int
    process: FormativeProcess
    overlay: MsOverlay
    witness: ImitationWitness
    final_assignment: Assignment
    weak_report: Report
    segment_report: Report
    upward_report: Report
    imitation_report: Report
    transfer_report: Report
    warmups: int
    round_boundaries: tuple

    def reports(self) -> dict:
        """The five reports by their names in the certificate."""
        return {name: getattr(self, attr) for name, attr in _REPORTS.items()}

    def failing(self) -> list:
        return [name for name, rep in self.reports().items() if not rep.ok]

    @property
    def ok(self) -> bool:
        """All five reports are ok: the upward report (whose premises are
        the weak and segment reports, and whose conclusions every imitation
        item but the constant (4)) and the literal transfer."""
        return not self.failing()

    def to_json(self):
        return {
            "rounds": self.rounds,
            "warmups": self.warmups,
            "roundBoundaries": list(self.round_boundaries),
            "process": self.process.to_json(),
            "overlay": self.overlay.to_json(self.process),
            "witness": self.witness.to_json(),
            "finalAssignment": self.final_assignment.to_json(),
            "reports": {name: report.to_json()
                        for name, report in self.reports().items()},
        }

    @staticmethod
    def from_json(data, decode=None) -> "PumpedExtension":
        """`to_json`'s form read back, every set through the certificate's
        `hf.Decoder` (`decode`, else a fresh one); the overlay's surplus
        parts are not read."""
        expect, decode = hf.expect_json, decode or hf.Decoder()
        data = expect(data, dict, "pumped")
        reports = expect(data["reports"], dict, "pumped reports")
        return PumpedExtension(
            rounds=expect(data["rounds"], int, "pumped rounds"),
            process=FormativeProcess.from_json(data["process"], decode),
            overlay=MsOverlay.from_json(data["overlay"], decode),
            witness=ImitationWitness.from_json(data["witness"]),
            final_assignment=Assignment.from_json(
                data["finalAssignment"], decode)[0],
            warmups=expect(data["warmups"], int, "warm-up rounds"),
            round_boundaries=tuple(
                expect(b, int, "a round boundary") for b in expect(
                    data["roundBoundaries"], list, "round boundaries")),
            **{attr: Report.from_json(reports[name])
               for name, attr in _REPORTS.items()})


class MalformedProcess(ValueError):
    """A certificate's process is not of `FormativeProcess.to_json`'s form.
    `verify_certificate` reports it as a failed item, not as bad input."""


@dataclass(frozen=True)
class WitnessCertificate:
    """Everything needed to re-check a satisfiability witness untrusted.

    `canonical` is (blocks, im, board) of `canonical_board` for the
    formula and the assignment: the Venn blocks as a tuple of frozensets,
    the read-only region map and the colored board.  `certify_witness`
    stores the one it built, and the `canonical_board` method builds it
    once for a certificate read from JSON.  It is not compared, shown or
    written.
    """

    formula: lang.Formula
    base_assignment: Assignment
    assignment: Assignment
    process: FormativeProcess
    event: PumpingEvent
    cover: frozenset
    potential_infinite: tuple
    literal_results: tuple
    event_report: Report
    max_cycle_len: int
    pumped: Optional[PumpedExtension] = None
    canonical: Optional[tuple] = field(default=None, compare=False, repr=False)

    def canonical_board(self) -> tuple:
        """`canonical_board(formula, assignment)`, built on the first
        call."""
        if self.canonical is None:
            object.__setattr__(self, "canonical",
                               canonical_board(self.formula, self.assignment))
        return self.canonical

    def to_json(self):
        out = {
            "formula": self.formula.render(),
            "baseAssignment": self.base_assignment.to_json(),
            "assignment": self.assignment.to_json(),
            "process": self.process.to_json(),
            "event": self.event.to_json(),
            "closedCover": sorted(self.cover),
            "potentialInfinite": list(self.potential_infinite),
            "report": {
                "literals": list(self.literal_results),
                "event": self.event_report.to_json(),
            },
            "params": {"maxCycleLen": self.max_cycle_len},
        }
        if self.pumped is not None:
            out["pumped"] = self.pumped.to_json()
        return out

    def dumps(self) -> str:
        return hf.dumps(self.to_json())

    @staticmethod
    def from_json(data, decode=None) -> "WitnessCertificate":
        """`to_json`'s form read back, every set of it through one
        `hf.Decoder` (`decode`, else a fresh one); the pumped overlay's
        surplus parts are not read.  Only JSON types are checked, not a
        single claim: that is `check_certificate`'s work, except that a
        recorded `params.maxCycleLen` below 1 raises ValueError.  An
        unparsable formula raises its MlsspfError, a malformed process
        MalformedProcess, and any other malformed field ValueError or
        KeyError.
        """
        expect, decode = hf.expect_json, decode or hf.Decoder()
        data = expect(data, dict, "a certificate")
        params = expect(data.get("params", {}), dict, "params")
        max_cycle_len = hf.expect_at_least(
            params.get("maxCycleLen", MAX_CYCLE_LEN), 1, "maxCycleLen")
        formula = lang.parse(expect(data["formula"], str, "formula"))
        base, _ = Assignment.from_json(data["baseAssignment"], decode)
        assignment, _ = Assignment.from_json(data["assignment"], decode)
        try:
            process = FormativeProcess.from_json(data["process"], decode)
        except (ValueError, KeyError) as exc:
            raise MalformedProcess(str(exc)) from exc
        report = expect(data["report"], dict, "report")
        return WitnessCertificate(
            formula=formula, base_assignment=base, assignment=assignment,
            process=process, event=PumpingEvent.from_json(data["event"]),
            cover=frozenset(_json_places(data["closedCover"], "closedCover")),
            potential_infinite=tuple(
                expect(v, str, "a variable") for v in expect(
                    data["potentialInfinite"], list, "potentialInfinite")),
            literal_results=tuple(
                expect(v, bool, "a literal result") for v in expect(
                    report["literals"], list, "literal results")),
            event_report=Report.from_json(report["event"]),
            max_cycle_len=max_cycle_len,
            pumped=(PumpedExtension.from_json(data["pumped"], decode)
                    if "pumped" in data else None))


def _pumped_extension(cert, rounds, cand, overlay, witness, warmups,
                      boundaries) -> PumpedExtension:
    """The pumped extension of a certificate to the candidate process,
    overlay and stage map of a pump and paste, with its five reports and
    its transferred assignment: what `extend_certificate` attaches and
    `check_certificate` recomputes.  The weak imitation is that of the
    candidate's stage m = gamma[lo], where the rounds end, against the
    process's stage lo, under the witness's closed set."""
    proc = cert.process
    _, im, board = cert.canonical_board()
    m = witness.gamma[witness.lo]
    weak = check_weak_imitation(proc, board, witness.lo, cand.stages[m],
                                overlay.minus[m - overlay.start],
                                witness.closed_set)
    segment = check_segment_imitation(proc, board, cand, overlay, witness)
    bijection = BlockBijection(proc.final_blocks(), cand.final_blocks())
    imit = imitates(board, bijection)
    upward = check_upward_premises(proc, board, cand, overlay, witness,
                                   weak, segment, imit)
    final = transfer_assignment(cert.assignment, im, bijection)
    transfer = literal_transfer_report(cert.formula, cert.assignment, final)
    return PumpedExtension(
        rounds=rounds, process=cand, overlay=overlay, witness=witness,
        final_assignment=final, weak_report=weak,
        segment_report=segment, upward_report=upward, imitation_report=imit,
        transfer_report=transfer, warmups=warmups,
        round_boundaries=tuple(boundaries))


def verify_certificate(data) -> Report:
    """`check_certificate`'s report: every claim of the certificate checked
    on its own, without re-running the prover."""
    return check_certificate(data)[0]


def check_certificate(data):
    """Check every claim of a certificate's JSON form on its own, and return
    (report, the decoded certificate, or None when it does not decode).

    No step of the prover runs (`certify_witness`, `synthesize_process`,
    the pump or the paste): the certificate is decoded with
    `WitnessCertificate.from_json`, and what it says is recomputed from what
    it holds.  The base certificate: the cycle is within the recorded
    `params.maxCycleLen` (else `MAX_CYCLE_LEN`); the assignment is the base
    assignment, closed by `transitivize` when that is not transitive; the
    literal results are the base assignment's and every literal but
    !Finite holds; the process validates as a strong process
    and ends in the assignment's Venn partition; the event names places
    and a stage of it, holds, and has the recorded report; the cover is
    closed, holds the cycle and the trash seeds the segment replay needs;
    the cycle meets every !Finite region; and `potentialInfinite` is
    recomputed.  A pumped extension: see
    `_check_pumped`.  The pumped verdict is `PumpedExtension.ok` of the
    recomputed reports ("pumped extension holds", whose detail names the
    failing ones).

    Wrong JSON types raise ValueError or KeyError, except in the base
    process, which fails "embedded process parses"; a recorded
    `params.maxCycleLen` below 1 raises ValueError.  An MlsspfError of a recomputation is a failed item, and
    any other exception a fault of the library.
    """
    rb = ReportBuilder()
    decode = hf.Decoder()
    try:
        cert = WitnessCertificate.from_json(data, decode)
    except MalformedProcess as exc:
        rb.add("formula parses", True)
        rb.add("embedded process parses", False, str(exc))
        return rb.build(), None
    except MlsspfError as exc:
        rb.add("formula parses", False, str(exc))
        return rb.build(), None
    rb.add("formula parses", True)
    formula, base, proc = cert.formula, cert.base_assignment, cert.process
    event, cycle = cert.event, cert.event.cycle
    rb.add("event cycle has at most params.maxCycleLen places",
           len(cycle) <= cert.max_cycle_len)
    made = base if is_transitive(base.value_union()) else transitivize(base)
    if not rb.add("assignment is the base assignment, made transitive",
                  cert.assignment == made):
        return rb.build(), cert
    try:
        results = tuple(lang.eval_literal(lit, base)
                        for lit in formula.literals)
    except MlsspfError as exc:
        rb.add("literal results are the base assignment's", False, str(exc))
        return rb.build(), cert
    rb.add("literal results are the base assignment's",
           results == cert.literal_results)
    rb.add("every literal but !Finite holds",
           all(val for lit, val in zip(formula.literals, results)
               if lit.kind != lang.NOT_FINITE))

    blocks, im, board = cert.canonical_board()
    rb.add("embedded process parses", True)
    valid = rb.add("embedded process validates",
                   not proc.weak and validate_process(proc).ok)
    rb.add("embedded process ends in the assignment's Venn partition",
           proc.stages and proc.final_blocks() == blocks)
    # The event and cover checks index the process's blocks by the board's
    # places and the event's stage, so they run only where those exist.  A
    # stage short of a place fails the item above when it is the last one,
    # and validation (a ragged process) otherwise.
    width = len(board.places)
    has_places = proc.stages and all(len(stage) >= width
                                     for stage in proc.stages)
    on_process = False
    if has_places:
        named = {event.q0, *cycle.places}.union(*cycle.nodes)
        on_process = rb.add(
            "embedded event names a stage and places of the process",
            0 <= event.i0 <= proc.xi and all(0 <= q < width for q in named))
        if on_process:
            report = is_pumping_event(proc, board, event.q0, event.i0, cycle)
            rb.add("embedded event holds", report.ok)
            rb.add("embedded event report is recomputed",
                   report.to_json() == data["report"]["event"])
        rb.add("embedded cover is closed and contains the cycle",
               is_closed(proc, board, cert.cover)
               and cycle.place_set() <= cert.cover)
    rb.add("cycle meets the region of every !Finite variable",
           _missed_variable(_finite_regions(formula, im), cycle.places)
           is None)
    rb.add("potentialInfinite is the variables meeting the cycle",
           cert.potential_infinite
           == _potential_infinite(formula, im, cycle.places))
    # The trash seeds and the pumped extension read the process's grand
    # events, which only a valid process has.
    if not (valid and on_process):
        return rb.build(), cert
    seeds = _segment_trash_seeds(proc, board, event.i0, cycle)
    rb.add("embedded cover holds the segment's trash seeds",
           seeds is not None and seeds <= cert.cover)
    if cert.pumped is not None:
        _check_pumped(rb, cert, data["pumped"], decode)
    return rb.build(), cert


def _shaped(report: Report) -> bool:
    """Whether a validator's shape items passed: those that let a checker
    index its process or overlay by stage and place."""
    return all(item.ok for item in report.items
               if item.check.startswith("shape:"))


def _check_pumped(rb: ReportBuilder, cert: WitnessCertificate, data, decode):
    """Add the items of a pumped extension whose base certificate checked.

    The pumped process starts with the process through the event's stage
    i0 and validates as a weak process; its overlay validates from i0, has
    the recorded surplus parts, and starts by moving one unused seed of the
    event's place into surplus (none for zero rounds).  The stage map
    copies the process from i0 on, from the stage m where the rounds end,
    under the cover, and the copy's minus parts are nonempty exactly where
    the copied stages' blocks are.  The rounds traverse the event's cycle:
    each appends one stage per step of `_round_schedule`, and the round
    boundaries are those stages, the last one m.  Then the five reports are
    recomputed on the embedded process, overlay and stage map (the weak
    imitation one at m) and must equal the recorded ones, and the
    transferred assignment the recorded `finalAssignment`.
    """
    expect = hf.expect_json
    proc, event, p = cert.process, cert.event, cert.pumped
    cand, overlay, witness = p.process, p.overlay, p.witness
    i0, q0 = event.i0, event.q0
    rb.add("pumped process starts with the process through the event's stage",
           cand.stages[:i0 + 1] == proc.stages[:i0 + 1]
           and cand.trace[:i0] == proc.trace[:i0])
    valid = validate_process(cand)
    rb.add("pumped process validates as a weak process",
           cand.weak and valid.ok)
    # The checks below index the process and the overlay by stage and
    # place, which their shape items guarantee.  They run on a process and
    # overlay of the right shape whether these validate or not: the pump
    # issues some that do not, and their pumped verdict is read all the
    # same.
    if not (_shaped(valid) and len(cand.places) == len(proc.places)):
        return
    overlay_valid = validate_overlay(cand, overlay)
    rb.add("pumped overlay validates from the event's stage",
           overlay.start == i0 and overlay_valid.ok)
    if not (_shaped(overlay_valid) and overlay.start == i0):
        return
    surplus = [[decode.block(b, "a surplus part")
                for b in expect(stage, list, "an overlay stage")]
               for stage in expect(data["overlay"]["surplus"], list,
                                   "surplus parts")]
    rb.add("pumped overlay records its surplus parts",
           surplus == [[overlay.surplus_at(cand, mu, q) for q in cand.places]
                       for mu in range(overlay.start, overlay.end + 1)])
    start = proc.stages[i0]
    seed = start[q0] - overlay.minus[0][q0]
    rb.add("pumped overlay starts from an unused seed of the event's place",
           overlay.minus[0] == tuple(b - seed if q == q0 else b
                                     for q, b in enumerate(start))
           and (len(seed) == 1 and seed <= _unused_seeds(proc, i0, q0)
                if p.rounds else not seed))
    gamma, xi = witness.gamma, proc.xi
    m = gamma.get(i0, -1)
    if not rb.add("pumped stage map copies the process from the last round",
                  witness.lo == i0 and witness.hi == xi
                  and witness.closed_set == cert.cover
                  and i0 <= m and cand.xi == m + xi - i0
                  and dict(gamma) == {k: m + k - i0
                                      for k in range(i0, xi + 1)}):
        return
    # A node table (`SignatureTable.union_homes`) lists every node over
    # the places with empty parts, so the reports read it only where
    # these are the copied stage's.
    if not rb.add("pumped copy is nonempty where the copied stages are",
                  all(_live(overlay.minus_at(a, q) for q in proc.places)
                      == _live(proc.stages[beta])
                      <= _live(cand.stages[a])
                      for beta, a in gamma.items())):
        return
    schedule = _round_schedule(event)
    n, count = len(schedule), p.rounds + p.warmups
    # The boundaries are compared only once there are as many as the
    # rounds claimed, so a claim of many rounds builds no long tuple.
    rb.add("pumped rounds traverse the event's cycle",
           p.rounds >= 0 and 0 <= p.warmups <= MAX_WARMUP_ROUNDS
           and (p.rounds > 0 or p.warmups == 0)
           and len(p.round_boundaries) == count
           and p.round_boundaries == tuple(i0 + n * j
                                           for j in range(1, count + 1))
           and m == i0 + n * count
           and all(cand.trace[i0 + t] == schedule[t % n][0]
                   and cand.history_targets[i0 + t] == {schedule[t % n][1]}
                   for t in range(m - i0)))
    try:
        fresh = _pumped_extension(cert, p.rounds, cand, overlay, witness,
                                  p.warmups, p.round_boundaries)
    except (MlsspfError, ValueError) as exc:
        # ValueError: final blocks that are no partition, in a process
        # that does not validate.
        rb.add("pumped extension holds", False, str(exc))
        return
    recorded = expect(data["reports"], dict, "pumped reports")
    differ = [name for name, report in fresh.reports().items()
              if report.to_json() != recorded[name]]
    rb.add("pumped reports are recomputed", not differ, ", ".join(differ))
    rb.add("pumped final assignment is the transferred assignment",
           fresh.final_assignment == p.final_assignment)
    rb.add("pumped extension holds", fresh.ok, ", ".join(fresh.failing()))


def _live(blocks) -> frozenset:
    """The places of the nonempty blocks."""
    return frozenset(q for q, b in enumerate(blocks) if b)