"""Formative processes: staged growth of a transitive partition from empty.

A process records, for every place, the cumulative block content at each
stage, together with the trace of nodes whose stage snapshots supplied each
step's new elements.  Every new element of a step must be an assembly of the
step node's snapshot; a strong process additionally never lets an assembly
of a used snapshot show up later (coherence).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import hf
from .errors import NotTransitive
from .report import Report, ReportBuilder
from .venn import ColoredBoard, SignatureTable, is_transitive, signature_table


@dataclass(frozen=True)
class FormativeProcess:
    """Stages 0..xi of per-place block contents plus the step trace.

    stages[mu] is a tuple indexed by place of frozensets of HfSet;
    trace[nu] is the node (set of places) whose stage-nu snapshot fed step nu;
    history_targets[nu] is the set of places that actually received elements.
    Targets are derived from the stages only when none are given: given
    ones, even an empty tuple, are kept for `validate_process` to check.
    """

    stages: tuple
    trace: tuple
    history_targets: Optional[tuple] = None
    weak: bool = False

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(
            tuple(frozenset(b) for b in stage) for stage in self.stages))
        object.__setattr__(self, "trace", tuple(frozenset(a) for a in self.trace))
        if self.history_targets is None:
            derived = tuple(
                frozenset(q for q in self._shared_places(nu) if self.delta(nu, q))
                for nu in range(self.xi))
            object.__setattr__(self, "history_targets", derived)
        else:
            object.__setattr__(self, "history_targets", tuple(
                frozenset(t) for t in self.history_targets))

    @property
    def xi(self) -> int:
        return len(self.stages) - 1

    @property
    def places(self):
        return tuple(range(len(self.stages[0]) if self.stages else 0))

    def final_blocks(self):
        return self.stages[self.xi]

    def _shared_places(self, nu) -> range:
        """The places that both stage nu and stage nu + 1 have a block for:
        all of them in a valid process."""
        return range(min(len(self.stages[nu]), len(self.stages[nu + 1])))

    def delta(self, nu, q) -> frozenset:
        """Fresh elements place q gains at step nu."""
        return self.stages[nu + 1][q] - self.stages[nu][q]

    def node_snapshot(self, node, mu):
        """The blocks of a node at a stage (the node's stage family)."""
        return [self.stages[mu][q] for q in sorted(node)]

    @cached_property
    def _placed(self) -> tuple:
        """Step -> the elements it places: the deltas of the places in its
        history targets, which a valid process gives one per step, naming
        the places with a delta.  A step without targets, or a target that
        is no place of both stages, places nothing here."""
        out = []
        for nu in range(self.xi):
            targets = (self.history_targets[nu]
                       if nu < len(self.history_targets) else ())
            width = self._shared_places(nu)
            out.append([e for q in targets if q in width
                        for e in self.delta(nu, q)])
        return tuple(out)

    @cached_property
    def landing(self) -> dict:
        """Element -> the step at which it entered the process."""
        out = {}
        for nu, fresh in enumerate(self._placed):
            for e in fresh:
                out[e] = nu
        return out

    @cached_property
    def final_table(self) -> SignatureTable:
        """`signature_table` of the final blocks (pairwise disjoint in a
        valid process): the memoized table their board and synthesis read."""
        return signature_table(self.final_blocks())

    @cached_property
    def grand_events(self) -> dict:
        """Node -> its grand event, for every node of places with nonempty
        final blocks whose final union is in some block: the one table of
        the nodes with a grand event before xi.  A node with an empty final
        block has the grand event of its other places."""
        return {node: grand_event(self, node)
                for node in self.final_table.union_homes(self.final_table.live)}

    @cached_property
    def least_grand_events(self) -> tuple:
        """Place -> least grand event over all nodes containing the place,
        in one pass over `grand_events` (xi when none is earlier).  A place
        with an empty final block joins any node without moving its union,
        so it gets the least grand event of all."""
        least = [self.xi] * len(self.places)
        first = self.xi
        for node, step in self.grand_events.items():
            first = min(first, step)
            for q in node:
                least[q] = min(least[q], step)
        live = self.final_table.live
        return tuple(s if q in live else first for q, s in enumerate(least))

    @cached_property
    def first_filled(self) -> tuple:
        """Place -> the first stage at which its block is nonempty (xi + 1
        when none is).  Blocks only grow, so it stays nonempty from there."""
        return tuple(
            next((mu for mu, stage in enumerate(self.stages) if stage[q]),
                 self.xi + 1)
            for q in self.places)

    @cached_property
    def used_by_stage(self) -> tuple:
        """Stage -> members of the elements placed by then.  Blocks grow
        monotonically, so each step adds the members of its fresh elements."""
        used = {m for b in self.stages[0] for z in b for m in z.elements}
        out = [frozenset(used)]
        for fresh in self._placed:
            for z in fresh:
                used.update(z.elements)
            out.append(frozenset(used))
        return tuple(out)

    def prefix(self, mu) -> "FormativeProcess":
        """The process truncated at stage mu (trace cut accordingly)."""
        return FormativeProcess(
            stages=self.stages[: mu + 1],
            trace=self.trace[:mu],
            weak=self.weak,
        )

    def to_json(self):
        return {
            "stages": [
                [hf.block_json(b) for b in stage]
                for stage in self.stages
            ],
            "trace": [sorted(a) for a in self.trace],
            "historyTargets": [sorted(t) for t in self.history_targets],
            "weak": self.weak,
        }

    @staticmethod
    def from_json(data, decode=None) -> "FormativeProcess":
        """The process of `to_json`'s form; `decode` is the `hf.Decoder` of
        the document it is part of, else a fresh one."""
        expect, decode = hf.expect_json, decode or hf.Decoder()
        stages = []
        for stage in expect(expect(data, dict, "a process")["stages"], list,
                            "stages"):
            stages.append(tuple(
                decode.block(b) for b in expect(stage, list, "a stage")))
        return FormativeProcess(
            stages=tuple(stages),
            trace=_json_nodes(data["trace"], "the trace"),
            history_targets=_json_nodes(data.get("historyTargets", []),
                                        "the history targets"),
            weak=expect(data.get("weak", False), bool, "weak"),
        )


def _json_places(data, what) -> tuple:
    """A JSON list of place integers, as a tuple."""
    return tuple(hf.expect_json(q, int, f"a place of {what}")
                 for q in hf.expect_json(data, list, what))


def _json_nodes(data, what) -> tuple:
    """A JSON list of lists of place integers, such as a process's trace
    or its history targets, as a tuple of frozensets."""
    return tuple(frozenset(_json_places(node, f"a node of {what}"))
                 for node in hf.expect_json(data, list, what))


def validate_process(proc: FormativeProcess) -> Report:
    """Itemized pass/fail of every structural requirement, per stage.

    Strong validation (weak=False) includes the coherence requirement: no
    element of the final universe may be an assembly of a step snapshot that
    was left unplaced at the following stage.

    A trace node with an empty block at its stage needs no item: an
    assembly meets every block of the snapshot, so an empty one admits
    none, and the step fails "new elements assemble from the trace node"
    when it places anything and "the partition strictly grows" when it
    places nothing.
    """
    rb = ReportBuilder()
    xi = proc.xi
    places = proc.places
    rb.add("shape: trace length matches stage count", len(proc.trace) == xi)
    rb.add("shape: history targets: one per step",
           len(proc.history_targets) == xi)
    # The checks below index every stage by place: a ragged process, or a
    # trace naming a place it has no block for, fails here and goes no
    # further.
    width = len(places)
    stages_ok = rb.add("shape: every stage has a block per place",
                       proc.stages and all(len(stage) == width
                                           for stage in proc.stages))
    trace_ok = rb.add("shape: trace nodes name places of the process",
                      all(0 <= q < width for node in proc.trace for q in node))
    if not (stages_ok and trace_ok):
        return rb.build()
    # Blocks are pairwise disjoint exactly when their sizes add up to the
    # size of their union.
    universes = [frozenset().union(*stage) for stage in proc.stages]
    for mu, stage in enumerate(proc.stages):
        rb.add(f"stage {mu}: blocks pairwise disjoint",
               len(universes[mu]) == sum(map(len, stage)))
    rb.add("stage 0: all blocks empty", all(not b for b in proc.stages[0]))
    rb.add("final stage: all blocks nonempty", all(proc.stages[xi]))
    for nu in range(xi):
        ok = all(proc.stages[nu][q] <= proc.stages[nu + 1][q] for q in places)
        rb.add(f"step {nu}: blocks grow monotonically", ok)
    for nu in range(min(xi, len(proc.trace))):
        snapshot = proc.node_snapshot(proc.trace[nu], nu)
        fresh = universes[nu + 1] - universes[nu]
        ok = all(hf.in_pow_star(e, snapshot) for e in fresh)
        rb.add(f"step {nu}: new elements assemble from the trace node", ok)
        rb.add(f"step {nu}: the partition strictly grows", bool(fresh))
        derived = frozenset(q for q in places if proc.delta(nu, q))
        if nu < len(proc.history_targets):
            rb.add(f"step {nu}: history targets match nonempty deltas",
                   proc.history_targets[nu] == derived)
    if not proc.weak:
        final = universes[xi]
        for nu in range(min(xi, len(proc.trace))):
            snapshot = proc.node_snapshot(proc.trace[nu], nu)
            late = final - universes[nu + 1]
            ok = not any(hf.in_pow_star(e, snapshot) for e in late)
            rb.add(f"step {nu}: coherent (no late assembly of the used snapshot)", ok)
    return rb.build()


def synthesize_process(blocks) -> FormativeProcess:
    """A strong formative process whose final stage is the given partition,
    a tuple of blocks (frozensets).

    Greedy by canonical element order: each step picks the least unplaced
    element whose members are all placed, and distributes in one batch every
    unplaced element with the same signature node whose members are placed.
    Batching is what guarantees coherence: a later sibling assembly of the
    same snapshot would otherwise violate it.

    The schedule runs on readiness counts: each element keeps the number of
    its members still unplaced, and one that reaches zero joins a heap in
    canonical order and the ready group of its signature node.  A step pops
    the least ready element and places its node's whole group; the group's
    other elements stay in the heap, so a popped element already placed is
    skipped: its node may have a new group by then, which is not its turn.
    Elements made ready by a step join the next groups, as a rescan after
    the step would find them.
    """
    if not is_transitive(frozenset().union(*blocks)):
        raise NotTransitive("cannot synthesize a process for a non-transitive partition")
    table = signature_table(blocks)
    home, signature = table.home, table.signature
    waiting = {}
    containers = {}
    for e in home:
        waiting[e] = len(e)
        for m in e.elements:
            containers.setdefault(m, []).append(e)
    heap = []
    groups = {}
    placed = set()

    def ready(e):
        # Distinct sets have distinct keys, so no two sets are compared.
        heapq.heappush(heap, (e._key, e))
        groups.setdefault(signature[e], []).append(e)

    for e, n in waiting.items():
        if not n:
            ready(e)
    stage = [frozenset() for _ in blocks]
    stages = [tuple(stage)]
    trace = []
    targets = []
    while heap:
        _, pick = heapq.heappop(heap)
        if pick in placed:
            continue
        node = signature[pick]
        batch = groups.pop(node)
        placed.update(batch)
        homes = {}
        for e in batch:
            homes.setdefault(home[e], []).append(e)
        for q, fresh in homes.items():
            stage[q] = stage[q].union(fresh)
        stages.append(tuple(stage))
        trace.append(node)
        targets.append(frozenset(homes))
        for e in batch:
            for c in containers.get(e, ()):
                waiting[c] -= 1
                if not waiting[c]:
                    ready(c)
    return FormativeProcess(stages=tuple(stages), trace=tuple(trace),
                            history_targets=tuple(targets), weak=False)


def grand_event(proc: FormativeProcess, node) -> int:
    """The step at which the node's final unionset itself gets placed.

    Falls back to the process length when the union never shows up.  Read
    off the process's `final_table`, so no union is built.
    """
    return proc.landing.get(proc.final_table.union(node), proc.xi)


def local_trashes(proc: FormativeProcess, board: ColoredBoard, node) -> frozenset:
    """Green targets of the node that only belong to nodes with strictly
    later grand events: safe dump places for its surplus material."""
    ge = grand_event(proc, node)
    least = proc.least_grand_events
    return frozenset(g for g in board.target(node)
                     if g not in board.red and least[g] > ge)


def is_closed(proc: FormativeProcess, board: ColoredBoard, places_set) -> bool:
    """All members green, and every pow-node meeting the set has a local
    trash inside it.  A local trash is a target, so all 2^|R| - 2^|R - w|
    nodes of a pow region R that meet the set w must be realized."""
    w = frozenset(places_set)
    if any(q in board.red for q in w):
        return False
    for region in board.pow_regions:
        meeting = [b for b in board.targets if b & w and b <= region]
        if len(meeting) != 2 ** len(region) - 2 ** len(region - w):
            return False
        if not all(local_trashes(proc, board, b) & w for b in meeting):
            return False
    return True

