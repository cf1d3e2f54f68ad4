"""Minus/Surplus overlays and the machinery for copying process segments.

An overlay splits every block, stage by stage, into a Minus part that
replays the original history and a Surplus part holding pumped material.
The checkers here decide whether a split partition can start such a copy
(weak imitation), whether a candidate process segment is a faithful copy
(segment imitation), and construct the copy itself (paste_segment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

from . import hf
from .errors import CardinalityDeficit, NoLocalTrash
from .process import (FormativeProcess, _json_places, grand_event, is_closed,
                      local_trashes)
from .report import Report, ReportBuilder
from .venn import ColoredBoard, SignatureTable, node_union, signature_table, subsets


@dataclass(frozen=True)
class MsOverlay:
    """Per-stage Minus parts of every block, from `start` to the last stage.

    The Surplus part is the block content minus the Minus part.  Splits are
    free at `start` and must evolve by splitting each step's fresh material.
    """

    start: int
    minus: tuple

    def __post_init__(self):
        object.__setattr__(self, "minus", tuple(
            tuple(frozenset(m) for m in stage) for stage in self.minus))

    @property
    def end(self) -> int:
        return self.start + len(self.minus) - 1

    def minus_at(self, stage_idx, q) -> frozenset:
        return self.minus[stage_idx - self.start][q]

    def minus_family(self, node, stage_idx):
        return [self.minus_at(stage_idx, q) for q in sorted(node)]

    def surplus_at(self, proc: FormativeProcess, stage_idx, q) -> frozenset:
        return proc.stages[stage_idx][q] - self.minus_at(stage_idx, q)

    def surplus_places(self, proc: FormativeProcess, stage_idx) -> frozenset:
        return frozenset(
            q for q in proc.places if self.surplus_at(proc, stage_idx, q))

    def delta_minus(self, stage_idx, q) -> frozenset:
        return self.minus_at(stage_idx + 1, q) - self.minus_at(stage_idx, q)

    def delta_surplus(self, proc: FormativeProcess, stage_idx, q) -> frozenset:
        return (self.surplus_at(proc, stage_idx + 1, q)
                - self.surplus_at(proc, stage_idx, q))

    @staticmethod
    def all_minus(proc: FormativeProcess, start=0) -> "MsOverlay":
        return MsOverlay(start, tuple(
            proc.stages[mu] for mu in range(start, proc.xi + 1)))

    def to_json(self, proc: FormativeProcess):
        return {
            "start": self.start,
            "minus": [[hf.block_json(m) for m in stage]
                      for stage in self.minus],
            "surplus": [
                [hf.block_json(self.surplus_at(proc, mu, q))
                 for q in proc.places]
                for mu in range(self.start, self.end + 1)
            ],
        }

    @staticmethod
    def from_json(data, decode=None) -> "MsOverlay":
        """The overlay of `to_json`'s form, whose surplus parts are not
        read; `decode` is the `hf.Decoder` of the document it is part of,
        else a fresh one."""
        expect, decode = hf.expect_json, decode or hf.Decoder()
        data = expect(data, dict, "an overlay")
        return MsOverlay(
            start=expect(data["start"], int, "the overlay start"),
            minus=tuple(
                tuple(decode.block(m, "a minus part")
                      for m in expect(stage, list, "an overlay stage"))
                for stage in expect(data["minus"], list, "minus parts")),
        )


def validate_overlay(proc: FormativeProcess, overlay: MsOverlay) -> Report:
    """Check the overlay invariants against its process.

    Splits must lie inside their blocks, never shrink on either side, and
    type each step's surplus material: no surplus delta is an assembly of
    the step node's minus parts, so each uses at least one surplus element.

    Four facts need no item.  With M, S, B a place's minus part, surplus
    part and block at stages mu (0) and mu + 1 (1): the deltas M1 - M0 <= M1
    and S1 - S0 <= B1 - M1 are disjoint; given M0 <= B0, M1 <= B1 and
    neither side shrinking, they make up B1 - B0 (an element of B0 - M0 is
    in S0 <= S1, one of M0 in M1, one of B1 - B0 in neither M0 nor S0); and
    with the final minus parts inside their blocks, each final block is the
    union of its two parts, so the final split refines the partition.
    Last, every delta element assembles from the step node's snapshot
    when the process validates, which `_check_pumped` checks beside this
    report: under the items here no delta element is in B0 (one of
    M1 - M0 would be in S0 - S1, one of S1 - S0 in M0 - M1), so it is
    fresh at step mu and assembles from the trace node, or it lies in
    another block at stage mu, which then loses it (blocks grow
    monotonically fails) or shares it at mu + 1 (blocks pairwise
    disjoint fails).
    """
    rb = ReportBuilder()
    if not rb.add("shape: overlay covers stages through the end",
                  overlay.start >= 0 and overlay.end == proc.xi
                  and all(len(stage) == len(proc.places)
                          for stage in overlay.minus)):
        return rb.build()
    for mu in range(overlay.start, proc.xi + 1):
        ok = all(overlay.minus_at(mu, q) <= proc.stages[mu][q] for q in proc.places)
        rb.add(f"stage {mu}: minus parts inside their blocks", ok)
    for mu in range(overlay.start, proc.xi):
        grow_minus = all(
            overlay.minus_at(mu, q) <= overlay.minus_at(mu + 1, q)
            for q in proc.places)
        rb.add(f"step {mu}: minus parts never shrink", grow_minus)
        grow_surplus = all(
            overlay.surplus_at(proc, mu, q) <= overlay.surplus_at(proc, mu + 1, q)
            for q in proc.places)
        rb.add(f"step {mu}: surplus parts never shrink", grow_surplus)
        minus_fam = overlay.minus_family(proc.trace[mu], mu)
        ds_ok = all(not hf.in_pow_star(e, minus_fam) for q in proc.places
                    for e in overlay.delta_surplus(proc, mu, q))
        rb.add(f"step {mu}: surplus deltas use at least one surplus element", ds_ok)
    return rb.build()


def _nodes_meeting(live, *groups) -> int:
    """How many nodes inside `live` meet each of the pairwise disjoint
    `groups` of its places."""
    free = len(live) - sum(map(len, groups))
    return 2 ** free * math.prod(2 ** len(g) - 1 for g in groups)


def _contacts_match(hat: SignatureTable, ora: SignatureTable) -> bool:
    """Item (x): does each block hold as many assemblies of each node's
    parts as the oracle block does of the node's oracle parts, for every
    node over the places with nonempty oracle parts?"""
    return hat.contacts(ora.live) == ora.contacts(ora.live)


def check_weak_imitation(proc: FormativeProcess, board: ColoredBoard,
                         k_prime: int, hat_blocks, hat_minus,
                         closed_set) -> Report:
    """Can the split partition start copying the process from stage k_prime?

    hat_blocks / hat_minus are per-place block contents and Minus parts of
    the candidate; closed_set is the closed collection of green places that
    will absorb surplus.  Checks the stage-level copy conditions plus the
    three start conditions on node unions; the pow-node half of (c) asks
    that the candidate's blocks leave no assembly of a pow-node unplaced
    (`SignatureTable.unplaced`, which segment item (iv) and imitation item
    (3) read too).
    """
    rb = ReportBuilder()
    places = proc.places
    hat_blocks = tuple(frozenset(b) for b in hat_blocks)
    hat_minus = tuple(frozenset(m) for m in hat_minus)
    closed_set = frozenset(closed_set)

    rb.add("(i) minus cardinalities match the stage blocks",
           all(len(proc.stages[k_prime][q]) == len(hat_minus[q]) for q in places))
    rb.add("(vii) red places are all minus",
           all(hat_blocks[q] == hat_minus[q] for q in board.red))
    rb.add("(viii) surplus places lie in the closed set",
           all(q in closed_set for q in places if hat_blocks[q] - hat_minus[q]))
    rb.add("closed set is closed",
           is_closed(proc, board, closed_set))

    # Nodes range over the stage's live places: the nodes of the stage
    # partition.
    ora = signature_table(proc.stages[k_prime])
    minus = signature_table(hat_blocks, hat_minus)
    hat = signature_table(hat_blocks)
    live = ora.live

    rb.add("(x) assembly/block intersection cardinalities match",
           _contacts_match(minus, ora))

    # A node's stage union is always a fresh assembly of its blocks, and its
    # Minus union one of its Minus parts unless one of them is empty; such a
    # node's stage union must therefore be placed.
    both = live & minus.live
    no_minus = live - minus.live
    rb.add("(a) minus unions are fresh exactly when the stage unions are",
           minus.union_homes(both).keys() == ora.union_homes(both).keys()
           and sum(1 for n in ora.union_homes(live) if n & no_minus)
           == _nodes_meeting(live, no_minus))

    # Off the nodes whose grand event precedes k_prime, every node with
    # surplus needs an unplaced union of nonempty blocks.
    early = {n for n, ge in proc.grand_events.items()
             if ge < k_prime and n <= live}
    surplus = live & {q for q in places if hat_blocks[q] - hat_minus[q]}
    no_block = live - hat.live
    rb.add("(b) surplus-bearing node unions stay undistributed",
           not any(n & surplus and n not in early
                   for n in hat.union_homes(live & hat.live))
           and sum(1 for n in early if n & surplus and n & no_block)
           == _nodes_meeting(live, surplus, no_block))

    rb.add("(c) pre-start memberships and pow-node coverage transfer",
           all(ora.union_home(node) == hat.union_home(node)
               and not (board.is_pow_node(node) and hat.unplaced(node))
               for node in early))
    return rb.build()


@dataclass(frozen=True)
class ImitationWitness:
    """Order-preserving stage map plus closed set for a copied segment."""

    gamma: dict
    closed_set: frozenset
    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", MappingProxyType(dict(self.gamma)))
        object.__setattr__(self, "closed_set", frozenset(self.closed_set))
        keys = sorted(self.gamma)
        vals = [self.gamma[k] for k in keys]
        if vals != sorted(set(vals)):
            raise ValueError("stage map must be an order-preserving injection")
        if keys and (keys[0] != self.lo or keys[-1] != self.hi):
            raise ValueError("stage map must cover the whole segment")

    def to_json(self):
        return {
            "gamma": {str(k): v for k, v in sorted(self.gamma.items())},
            "closedSet": sorted(self.closed_set),
            "segment": [self.lo, self.hi],
        }

    @staticmethod
    def from_json(data) -> "ImitationWitness":
        expect = hf.expect_json
        data = expect(data, dict, "a witness")
        segment = expect(data["segment"], list, "a segment")
        if len(segment) != 2:
            raise ValueError("a segment must have two stages")
        lo, hi = (expect(k, int, "a segment stage") for k in segment)
        gamma = expect(data["gamma"], dict, "a stage map")
        if any(str(int(k)) != k for k in gamma):
            raise ValueError("a stage map key must be a stage in canonical form")
        return ImitationWitness(
            gamma={int(k): expect(v, int, "a stage map value")
                   for k, v in gamma.items()},
            closed_set=frozenset(_json_places(data["closedSet"], "closedSet")),
            lo=lo, hi=hi,
        )


def _pools_match(stage, hat_stage, hat_minus) -> bool:
    """Item (ix): does every node over the stage's live places have as many
    unplaced assemblies of its Minus parts as of its stage blocks?

    A node's pool is its assembly count, the product of 2^|part| - 1, less
    its placed assemblies.  With equal part sizes that is equality of the
    placed counts.  Otherwise take a place whose sizes differ: of two nodes
    that differ only by it, at most one has equal assembly counts on both
    sides.  So when fewer than half of the nodes have a placed assembly on
    either side, some node without one has unequal pools, and otherwise
    sweeping the nodes costs no more than building the tables.
    """
    ora = signature_table(stage)
    hat = signature_table(hat_stage, hat_minus)
    live = ora.live
    placed = ({n for n, _ in ora.contacts(live)}
              | {n for n, _ in hat.contacts(live)})
    if all(len(hat_minus[q]) == len(stage[q]) for q in live):
        return all(hat.count(n) == ora.count(n) for n in placed)
    if 2 * len(placed) < 2 ** len(live):
        return False
    return all(hat.unplaced(n) == ora.unplaced(n) for n in subsets(live))


def _placements_transfer(proc, cand, overlay, beta, a):
    """Items (v) and (vi) at oracle step beta, copied by candidate step a.

    A node over stage beta's live places must have its stage union land
    where the candidate places its Minus union (off the node's grand event)
    or its candidate union (at it), or neither.  Only the nodes whose union
    lands on either side are checked.
    """
    places = proc.places
    ora = signature_table(tuple(proc.delta(beta, q) for q in places),
                          proc.stages[beta])
    live = ora.live
    landed = ora.union_homes(live)
    sides = [
        signature_table(tuple(overlay.delta_minus(a, q)
                              | overlay.delta_surplus(cand, a, q)
                              for q in places),
                        overlay.minus[a - overlay.start]).union_homes(live),
        signature_table(tuple(cand.delta(a, q) for q in places),
                        cand.stages[a]).union_homes(live),
    ]
    ok = [True, True]
    for node in landed.keys() | sides[0].keys() | sides[1].keys():
        at_ge = beta == grand_event(proc, node)
        if landed.get(node) != sides[at_ge].get(node):
            ok[at_ge] = False
    return ok


def _surplus_sinks(proc: FormativeProcess, board: ColoredBoard, k) -> frozenset:
    """The places a copy of step k may put surplus into: the local trashes
    of the step's node when k is that node's grand event, none otherwise.
    The paste places surplus there, and segment item (iii) and the
    segment's trash seeds check it."""
    node = proc.trace[k]
    if k != grand_event(proc, node):
        return frozenset()
    return local_trashes(proc, board, node)


def check_segment_imitation(proc: FormativeProcess, board: ColoredBoard,
                            cand: FormativeProcess, overlay: MsOverlay,
                            witness: ImitationWitness) -> Report:
    """Item-by-item check that the candidate copies the segment [lo, hi].

    Cardinalities are compared stage-for-stage through the witness's stage
    map; node-union placements must transfer exactly (Minus unions off grand
    events, full unions at them); surplus may only be created at grand
    events, into local trashes inside the closed set (item (iii): the
    step's `_surplus_sinks`, where the paste puts it); and right after a
    pow-node's grand event the copy leaves none of its assemblies
    unplaced (item (iv): `SignatureTable.unplaced`).
    """
    rb = ReportBuilder()
    g = witness.gamma
    lo, hi = witness.lo, witness.hi
    places = proc.places
    C = witness.closed_set

    for beta in range(lo, hi + 1):
        a = g[beta]
        rb.add(f"(i) stage {beta}: minus cardinalities match",
               all(len(proc.stages[beta][q]) == len(overlay.minus_at(a, q))
                   for q in places))
        rb.add(f"(vii) stage {beta}: red places all minus",
               all(cand.stages[a][q] == overlay.minus_at(a, q) for q in board.red))
        rb.add(f"(viii) stage {beta}: surplus places inside the closed set",
               overlay.surplus_places(cand, a) <= C)
        rb.add(f"(ix) stage {beta}: fresh assembly pools have equal size",
               _pools_match(proc.stages[beta], cand.stages[a],
                            overlay.minus[a - overlay.start]))

    for beta in range(lo, hi):
        a = g[beta]
        node = proc.trace[beta]
        rb.add(f"step {beta}: candidate replays the trace node",
               cand.trace[a] == node)
        rb.add(f"(ii) step {beta}: minus delta cardinalities match",
               all(len(proc.delta(beta, q)) == len(overlay.delta_minus(a, q))
                   for q in places))
        sinks = _surplus_sinks(proc, board, beta) & C
        rb.add(f"(iii) step {beta}: surplus only at grand events into trashes",
               all(q in sinks for q in places
                   if overlay.delta_surplus(cand, a, q)))
        ok_v, ok_vi = _placements_transfer(proc, cand, overlay, beta, a)
        rb.add(f"(v) step {beta}: minus-union placements transfer", ok_v)
        rb.add(f"(vi) step {beta}: grand-event union placements transfer", ok_vi)

    # A pow-node whose grand event precedes xi has its union placed, so it
    # is a key of the process's grand events.
    by_ge = {}
    for node, ge in proc.grand_events.items():
        if board.is_pow_node(node):
            by_ge.setdefault(ge, []).append(node)
    rb.add("(iv) pow-node assemblies are absorbed right after their grand event",
           not any(any(map(signature_table(cand.stages[g[ge + 1]],
                                           cand.stages[g[ge]]).unplaced, nodes))
                   for ge, nodes in by_ge.items() if ge in g and ge + 1 in g))

    rb.add("(x) previous-stage assembly/block intersections match",
           all(_contacts_match(
               signature_table(cand.stages[g[k]],
                               overlay.minus[g[k - 1] - overlay.start]),
               signature_table(proc.stages[k], proc.stages[k - 1]))
               for k in range(lo + 1, hi + 1)))
    return rb.build()


@dataclass(frozen=True)
class StartConfiguration:
    """A candidate process + overlay that weakly imitates stage k_prime at
    its last stage, with the closed set that will take surplus."""

    cand: FormativeProcess
    overlay: MsOverlay
    k_prime: int
    closed_set: frozenset


def paste_segment(proc: FormativeProcess, board: ColoredBoard,
                  start: StartConfiguration, k_second: int,
                  pow_limit: int = hf.POW_LIMIT):
    """Extend the candidate so it copies the segment [k_prime, k_second].

    Follows the inductive construction: each oracle step is replayed with
    fresh Minus assemblies of matching cardinality, node unions are placed
    exactly where the oracle placed them (full unions at grand events,
    Minus unions elsewhere), and when a pow-node with surplus hits its grand
    event the whole remaining pool is dumped into a local trash's surplus.

    A Minus pool draws at most `pow_limit` assemblies, and the family a
    pow-node dump builds whole holds at most `pow_limit` (else
    LimitExceeded); a `pow_limit` that is no int of at least 1 raises
    ValueError.

    Returns (extended process, extended overlay, witness).
    """
    hf.expect_at_least(pow_limit, 1, "pow_limit")
    places = proc.places
    k_prime = start.k_prime
    C = start.closed_set
    stages = list(start.cand.stages)
    trace = list(start.cand.trace)
    minus = list(start.overlay.minus)
    gamma = {k_prime: start.cand.xi}

    for k in range(k_prime, k_second):
        cur = len(stages) - 1
        node = proc.trace[k]
        cur_minus = minus[cur - start.overlay.start]
        minus_fam = [cur_minus[q] for q in sorted(node)]
        full_fam = [stages[cur][q] for q in sorted(node)]
        placed_hat = frozenset().union(*stages[cur])
        sinks = _surplus_sinks(proc, board, k) & C

        # Node unions the oracle distributes at this step, and the values the
        # copy must therefore place (designated) or must avoid (forbidden).
        # Off a node's grand event the Minus union is the constrained value;
        # at it, the full union (which lands in surplus when the node carries
        # surplus material: the grand-event interchange).  Nodes range over
        # the stage's live places, in `subsets` order.
        step = signature_table(tuple(proc.delta(k, q) for q in places),
                               proc.stages[k])
        landed = step.union_homes(step.live)

        def v_hat_of(gnode):
            ge = grand_event(proc, gnode)
            return node_union(cur_minus if k != ge else stages[cur], gnode)

        # Only Minus assemblies of the step node are tested against
        # `forbidden`, and the only node union that can be one is the step
        # node's own Minus union, reached from the nodes whose Minus union
        # it is.
        own = node_union(cur_minus, node)
        forbidden = {own} & {
            v_hat_of(gnode) for gnode in
            signature_table((frozenset([own]),), cur_minus).union_homes(step.live)
            if gnode not in landed}
        rank = {q: 1 << i for i, q in enumerate(sorted(step.live))}
        designated = {q: [] for q in places}
        surplus_designated = {q: [] for q in places}
        for gnode in sorted(landed, key=lambda n: sum(rank[q] for q in n)):
            target = landed[gnode]
            v_hat = v_hat_of(gnode)
            if v_hat in placed_hat:
                raise CardinalityDeficit(
                    f"step {k}: union for node {sorted(gnode)} is already placed")
            if hf.in_pow_star(v_hat, minus_fam):
                if v_hat not in designated[target]:
                    designated[target].append(v_hat)
            else:
                if not hf.in_pow_star(v_hat, full_fam):
                    raise CardinalityDeficit(
                        f"step {k}: union for node {sorted(gnode)} is not assemblable")
                if target not in sinks:
                    raise NoLocalTrash(
                        f"step {k}: surplus-typed union must land in a closed "
                        f"local trash, target place {target} is not one")
                if v_hat not in surplus_designated[target]:
                    surplus_designated[target].append(v_hat)

        # The fresh Minus pool, drawn lazily: every element an earlier place
        # drew from it is in `used` by the time a later place draws.
        pool = (e for e in hf.assemblies(minus_fam, pow_limit)
                if e not in placed_hat and e not in forbidden)
        used = {e for q in places
                for e in designated[q] + surplus_designated[q]}
        delta_minus_by_place = {}
        # Surplus-typed unions do not occupy Minus slots: the Minus delta of
        # every place must match the oracle delta cardinality exactly.  The
        # oracle's own delta elements are taken first when still available,
        # so a start with no surplus replays the segment verbatim.
        for q in places:
            need = len(proc.delta(k, q)) - len(designated[q])
            if need < 0:
                raise CardinalityDeficit(
                    f"step {k}: more designated unions than delta slots at place {q}")
            chunk = [e for e in sorted(proc.delta(k, q), key=hf.order_key)
                     if hf.in_pow_star(e, minus_fam) and e not in placed_hat
                     and e not in forbidden and e not in used][:need]
            while len(chunk) < need:
                e = next(pool, None)
                if e is None:
                    raise CardinalityDeficit(
                        f"step {k}: fresh minus pool exhausted at place {q}")
                if e not in used and e not in chunk:
                    chunk.append(e)
            used.update(chunk)
            delta_minus_by_place[q] = set(designated[q]) | set(chunk)

        delta_surplus_by_place = {q: set(surplus_designated[q]) for q in places}
        if (board.is_pow_node(node) and k == grand_event(proc, node)
                and any(stages[cur][q] - cur_minus[q] for q in node)):
            trash = sorted(sinks)
            if not trash:
                raise NoLocalTrash(
                    f"step {k}: pow-node {sorted(node)} with surplus has no "
                    f"local trash in the closed set")
            full_pool = [e for e in hf.pow_star(full_fam, pow_limit)
                         if e not in placed_hat]
            used = set().union(*delta_minus_by_place.values(),
                               *delta_surplus_by_place.values())
            remainder = [e for e in full_pool if e not in used]
            if any(hf.in_pow_star(e, minus_fam) for e in remainder):
                raise CardinalityDeficit(
                    f"step {k}: pow-node pool not exhausted, minus material "
                    f"would leak into surplus")
            delta_surplus_by_place[trash[0]].update(remainder)

        new_stage = []
        new_minus = []
        for q in places:
            new_stage.append(stages[cur][q]
                             | delta_minus_by_place[q] | delta_surplus_by_place[q])
            new_minus.append(cur_minus[q] | delta_minus_by_place[q])
        stages.append(tuple(new_stage))
        minus.append(tuple(new_minus))
        trace.append(node)
        gamma[k + 1] = len(stages) - 1

    cand = FormativeProcess(stages=tuple(stages), trace=tuple(trace), weak=True)
    overlay = MsOverlay(start.overlay.start, tuple(minus))
    witness = ImitationWitness(
        gamma=gamma, closed_set=C, lo=k_prime, hi=k_second)
    return cand, overlay, witness


# Conclusion labels of check_upward_premises, keyed by the `imitates` item
# that decides each.
_CONCLUSIONS = (
    ("(1)", "conclusion: assembly contact is preserved"),
    ("(2)", "conclusion: node-union membership is preserved"),
    ("(3)", "conclusion: pow-node assemblies are absorbed"),
    ("(4')", "conclusion: red block cardinalities are preserved"),
)


def check_upward_premises(proc: FormativeProcess, board: ColoredBoard,
                          cand: FormativeProcess, overlay: MsOverlay,
                          witness: ImitationWitness, weak: Report,
                          segment: Report, imitation: Report) -> Report:
    """The five premises under which the copied final stage imitates the
    original upwards, then the four conclusions themselves as checks.

    The reports are computed by the caller, which needs them anyway:
    `weak` is `check_weak_imitation` of the candidate's stage
    `witness.gamma[witness.lo]` against the process's stage `witness.lo`
    with the witness's closed set, `segment` is `check_segment_imitation`
    for the same arguments, and `imitation` is `relations.imitates` of the
    bijection from the process's final blocks to the candidate's.  The
    conclusions are the imitation items (1), (2), (3) and (4').

    The premise that the final stages have the same targets is item (1)
    too.  `board` is induced by the process's final blocks, and the
    candidate's are transitive (the pump and the paste place assemblies of
    blocks).  So a node's targets on either side are the places whose
    block holds an assembly of its blocks: its `SignatureTable.contacts`
    pairs, which item (1) compares.
    """
    rb = ReportBuilder()
    m = witness.gamma[witness.lo]
    items = {item.check.split(" ", 1)[0]: item.ok for item in imitation.items}
    rb.add("premise: weak imitation at the start stage", weak.ok,
           "" if weak.ok else str(weak.failures()[0].check))
    rb.add("premise: segment imitation across the stage map", segment.ok,
           "" if segment.ok else str(segment.failures()[0].check))
    rb.add("premise: final stages have the same targets", items["(1)"])

    inv_gamma = {v: k for k, v in witness.gamma.items()}
    ok4 = True
    for mu in range(m, cand.xi):
        in_map = (mu in inv_gamma and (mu + 1) in inv_gamma
                  and inv_gamma[mu + 1] == inv_gamma[mu] + 1)
        if in_map:
            continue
        for q in proc.places:
            if overlay.delta_minus(mu, q):
                ok4 = False
    rb.add("premise: off-map steps are surplus-only", ok4)

    ok5 = True
    for mu in range(m, cand.xi):
        node = cand.trace[mu]
        betas = [v for v in inv_gamma if v <= mu]
        if not betas:
            continue
        beta = max(betas)
        if grand_event(proc, node) <= inv_gamma[beta]:
            continue
        u_final = node_union(cand.final_blocks(), node)
        for q in local_trashes(proc, board, node):
            if u_final in overlay.delta_surplus(cand, mu, q):
                ok5 = False
    rb.add("premise: final node unions never dumped into trashes early", ok5)

    if not rb.build().ok:
        return rb.build()

    for tag, label in _CONCLUSIONS:
        rb.add(label, items[tag])
    return rb.build()
