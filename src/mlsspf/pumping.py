"""The prover: the indexed cycle walk, witness certification and the finite
pump.

A green alternating cycle of nodes and places on the board, together with a
stage holding an unused seed element, lets the blocks on the cycle grow
without disturbing any other literal: each round assembles fresh elements
that contain previous surplus material, so they can never collide with the
replayed history.  `certify_witness` finds such an event and its closed
cover, and `extend_certificate` pumps it and replays the rest of the
process.

Every claim the prover makes true (the conditions of an event, coverage,
the round schedule and the five pumped reports) is defined once in
`certificate`, whose checker reads the same definitions; that module
imports nothing from this one.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from itertools import groupby, islice
from operator import itemgetter

from . import hf, lang
from .certificate import (MAX_CYCLE_LEN, MAX_WARMUP_ROUNDS, PumpingCycle,
                          PumpingEvent, WitnessCertificate, _fill_stages,
                          _finite_regions, _latest_starts, _missed_variable,
                          _potential_infinite, _pumped_extension,
                          _round_schedule, _segment_trash_seeds,
                          _unused_seeds, is_pumping_event)
from .errors import (CannotWarmUp, CoverMissesVariable, NoClosedCover,
                     NoEvent, NotAWitness)
from .msrefine import MsOverlay, StartConfiguration, paste_segment
from .process import (FormativeProcess, is_closed, local_trashes,
                      synthesize_process)
from .venn import (Assignment, ColoredBoard, canonical_board, node_union,
                   transitivize)


class _CycleIndex:
    """The place steps of a board's green cycles of at most `max_len`
    places, built once and walked by `walk`.

    `containing` maps a green place to (node index, targets, sorted green
    targets) of every realized node holding it; `closes_to` maps it to the
    places those nodes target, and `steps_into` to the places one step
    before it.  A node's index is its position in `realized`, whose order
    is that of the nodes' sorted places.
    """

    def __init__(self, board: ColoredBoard, max_len: int):
        self.realized = board.realized_nodes()
        self.width = len(board.places)
        self.max_len = max_len
        containing = {}
        for i, node in enumerate(self.realized):
            targets = board.target(node)
            entry = (i, targets, sorted(targets - board.red))
            for q in node - board.red:
                containing.setdefault(q, []).append(entry)
        closes_to = {}
        steps_into = {}
        for p, entries in containing.items():
            closes_to[p] = frozenset().union(*(targets for _, targets, _ in entries))
            for _, _, green in entries:
                for t in green:
                    steps_into.setdefault(t, set()).add(p)
        self.containing = containing
        self.closes_to = closes_to
        self.steps_into = steps_into

    def need(self, anchor) -> list:
        """Place -> the fewest places (itself included) a path from it
        through places above the anchor needs before a node containing its
        last place targets the anchor; max_len + 1 where no path of max_len
        places does, and at the anchor and below.  The breadth-first search
        ignores which nodes and places a path has used, so it never
        overstates the need."""
        max_len = self.max_len
        need = [max_len + 1] * self.width
        frontier = [p for p, closes in self.closes_to.items()
                    if p > anchor and anchor in closes]
        for p in frontier:
            need[p] = 1
        d = 1
        while frontier and d < max_len:
            d += 1
            nxt = []
            for t in frontier:
                for p in self.steps_into.get(t, ()):
                    if p > anchor and need[p] > d:
                        need[p] = d
                        nxt.append(p)
            frontier = nxt
        return need

    def walk(self, fill=None, latest=None):
        """The simple green cycles, anchored at their least place, as
        (length, places, node indices, first, last), shortest first: one
        frontier of paths per length, all anchors together, so a caller
        that stops at a length never lists a longer cycle.  A path steps
        from a place to an unseen node containing it, then to an unseen
        green target from which it can still close (`need`, computed on an
        anchor's first extension), and closes through a node targeting the
        anchor, so every cycle passes `PumpingCycle.validate`.  The pass
        that yields the closings of one length builds the next frontier.

        With the tables `fill` (`_fill_stages` of `realized`) and `latest`
        (`_latest_starts`), every path carries the start-stage window that
        `_start_window` gives a whole cycle, and is dropped with every cycle
        through it once the window is empty.  Without them every window is
        (0, 0).
        """
        containing, max_len = self.containing, self.max_len
        if fill is None:
            fill, latest = [0] * len(self.realized), [0] * self.width
        frontier = [(anchor, None, (), (anchor,), 1 << anchor, 0, 0,
                     latest[anchor]) for anchor in sorted(containing)]
        n = 1
        while frontier:
            nxt = []
            for (anchor, need, nodes, path, seen_places, seen_nodes, first,
                 last) in frontier:
                for i, targets, green in containing[path[-1]]:
                    if seen_nodes >> i & 1:
                        continue
                    f = fill[i]
                    if f < first:
                        f = first
                    # Node i fills after `last`: no cycle through it here
                    # has a start stage.
                    if f > last:
                        continue
                    # Closing edge: node i targets the anchor.
                    if anchor in targets:
                        yield (n, path, (i,) + nodes, f, last)
                    if n < max_len:
                        if need is None:
                            need = self.need(anchor)
                        for t in green:
                            if seen_places >> t & 1 or n + need[t] > max_len:
                                continue
                            lst = latest[t]
                            if lst > last:
                                lst = last
                            if f > lst:
                                continue
                            nxt.append((anchor, need, nodes + (i,),
                                        path + (t,), seen_places | 1 << t,
                                        seen_nodes | 1 << i, f, lst))
            frontier = nxt
            n += 1


def closed_cover(proc: FormativeProcess, board: ColoredBoard,
                 cycle: PumpingCycle, extra_seeds=()) -> frozenset:
    """Least-fixed-point closed set of green places containing the cycle.

    Every pow-node meeting the set must own a local trash inside it; when
    one is missing, the canonically least green local trash is added and the
    sweep restarts.  Raises NoClosedCover when a pow-node meeting the set
    has none, which every unrealized one lacks.
    """
    w = set(cycle.place_set()) | set(extra_seeds)
    if any(q in board.red for q in w):
        raise NoClosedCover("cover seeds include a red place")
    pow_nodes = sorted(filter(board.is_pow_node, board.targets), key=sorted)
    changed = True
    while changed:
        changed = False
        for b in pow_nodes:
            if not (b & w):
                continue
            trashes = local_trashes(proc, board, b)
            if trashes & w:
                continue
            if not trashes:
                raise NoClosedCover(
                    f"pow-node {sorted(b)} meets the cover but has no local trash")
            w.add(min(trashes))
            changed = True
    if not is_closed(proc, board, w):
        raise NoClosedCover("an unrealized pow-node meets the cover")
    return frozenset(w)


def _run_round(stages, minus, trace, schedule, seed, restore, pow_limit):
    """Execute one cycle traversal, whose last step restores the Minus
    cardinality when `restore` is set; returns the new seed or None when the
    round's thresholds cannot be met (state is then left untouched)."""
    new_stages, new_minus, new_trace = [], [], []
    cur_stages = stages[-1]
    cur_minus = minus[-1]
    places = range(len(cur_stages))
    for j, (node, tq) in enumerate(schedule):
        placed = frozenset().union(*cur_stages)
        fam = [frozenset(seed)] + [cur_stages[q] for q in sorted(node)]
        # The least three fresh assemblies are all a round reads.
        pool = list(islice((e for e in hf.assemblies(fam, pow_limit)
                            if e not in placed), 3))
        last = j == len(schedule) - 1
        if restore and last:
            union_snapshot = node_union(cur_stages, node)
            # Neither pick may be the node's union, which weak item (b)
            # keeps undistributed.
            t1_cands = [e for e in pool if e is not union_snapshot]
            if len(t1_cands) < 2:
                return None
            t1, surplus_pick = t1_cands[:2]
            delta_minus = {t1}
            delta_surplus = {surplus_pick}
        else:
            if not pool:
                return None
            delta_minus = set()
            delta_surplus = {pool[0]}
        cur_stages = tuple(
            cur_stages[q] | delta_minus | delta_surplus if q == tq else cur_stages[q]
            for q in places)
        cur_minus = tuple(
            cur_minus[q] | delta_minus if q == tq else cur_minus[q]
            for q in places)
        new_stages.append(cur_stages)
        new_minus.append(cur_minus)
        new_trace.append(node)
        seed = delta_surplus
    stages.extend(new_stages)
    minus.extend(new_minus)
    trace.extend(new_trace)
    return seed


def pump_rounds(proc: FormativeProcess, event: PumpingEvent, rounds: int,
                pow_limit: int = hf.POW_LIMIT) -> tuple:
    """Run `rounds` cycle traversals from the event's start stage, and
    return (the weak process, its overlay from the start stage, the number
    of warm-up rounds, the last stage of every round).

    The seed element moves from Minus to Surplus at the start; warm-up
    rounds (surplus-only) run first until a restoring round is feasible,
    the first counted round restores the Minus cardinality with a fresh
    element, and later rounds grow surplus only.  Every traversal adds at
    least one element to every place on the cycle, and all new deltas are
    surplus except the single restoring element.  Zero rounds leave the
    prefix at the start stage as it is.  A pick draws at most `pow_limit`
    assemblies (else LimitExceeded).  Raises ValueError unless `rounds`
    is an int of at least 0 and `pow_limit` one of at least 1.
    """
    hf.expect_at_least(rounds, 0, "rounds")
    hf.expect_at_least(pow_limit, 1, "pow_limit")
    i0 = event.i0
    prefix = proc.prefix(i0)
    if rounds == 0:
        return prefix, MsOverlay.all_minus(prefix, start=i0), 0, ()
    t0 = min(_unused_seeds(proc, i0, event.q0), key=hf.order_key, default=None)
    if t0 is None:
        raise CannotWarmUp("no unused seed element at the start stage")

    stages = list(prefix.stages)
    trace = list(prefix.trace)
    minus = [tuple(b - {t0} if q == event.q0 else b
                   for q, b in enumerate(prefix.stages[i0]))]

    schedule = _round_schedule(event)
    seed = stages[-1][event.q0] - minus[-1][event.q0]

    warmups = 0
    boundaries = []
    done = 0
    restored = False
    while done < rounds:
        new_seed = _run_round(stages, minus, trace, schedule, seed,
                              not restored, pow_limit)
        if new_seed is None:
            if warmups >= MAX_WARMUP_ROUNDS:
                raise CannotWarmUp(
                    f"thresholds unmet after {warmups} warm-up rounds")
            # Once restored, the warm-up round is the one that just failed.
            if not restored:
                new_seed = _run_round(stages, minus, trace, schedule, seed,
                                      False, pow_limit)
            if new_seed is None:
                raise CannotWarmUp("cycle cannot distribute fresh elements")
            warmups += 1
        else:
            restored = True
            done += 1
        seed = new_seed
        boundaries.append(len(stages) - 1)

    process = FormativeProcess(stages=tuple(stages), trace=tuple(trace), weak=True)
    return process, MsOverlay(i0, tuple(minus)), warmups, tuple(boundaries)


def certify_witness(formula: lang.Formula, assignment: Assignment,
                    max_cycle_len: int = MAX_CYCLE_LEN) -> WitnessCertificate:
    """Certify that a finite assignment witnesses satisfiability.

    The assignment must satisfy every literal except the negated finiteness
    ones; the search then looks (latest start stage first, shorter cycles
    first) for a pumping event on a cycle of at most `max_cycle_len`
    places whose closed cover exists, whose cycle meets the region of every
    variable that must become infinite, and whose replayed segment can
    absorb grand events of pumped nodes.  The cycles of a length are listed
    only when the search gets to them.  A `max_cycle_len` that is no int
    of at least 1 (a bool or a float included) raises ValueError.
    """
    hf.expect_at_least(max_cycle_len, 1, "max_cycle_len")
    base = assignment
    results = []
    for lit in formula.literals:
        val = lang.eval_literal(lit, assignment)
        results.append(val)
        if lit.kind != lang.NOT_FINITE and not val:
            raise NotAWitness(f"literal '{lit.render()}' is false under the assignment")

    if not assignment.is_transitive():
        assignment = transitivize(assignment)
    blocks, im, board = canonical_board(formula, assignment)
    # Whether the board has a cycle at all needs no process: most boards
    # `decide` tries have none, so the existence walk runs first, and the
    # windowed walk reuses its index.
    index = _CycleIndex(board, max_cycle_len)
    if next(index.walk(), None) is None:
        raise NoEvent("the board has no green pumping cycle")
    proc = synthesize_process(blocks)

    # The walk's cycles stay index tuples, each with its window of (ii) and
    # (iii) and the variable whose region it misses, if any; the walk
    # guarantees the cycle items and q0 lies on the cycle.  One stage loop
    # visits them, start stages latest first, in sorted order.  That order
    # sorts on length first and the walk gives the shortest first, so a
    # scan draws the next length's cycles only on reaching the end of those
    # drawn so far.  A candidate passing (i)-(iii) that misses a region
    # records its variable: the last one recorded is named when no
    # candidate certifies.  The trash seeds and the cover do not depend on
    # q0, so they are tested once, for the least seed place, the one that
    # trying every q0 in order would return.
    realized = index.realized
    regions = _finite_regions(formula, im)
    walk = index.walk(_fill_stages(proc, realized), _latest_starts(proc))
    lengths = ([(first, last, path, sorted(path), idx,
                 _missed_variable(regions, path))
                for _, path, idx, first, last in sorted(cycles)]
               for _, cycles in groupby(walk, itemgetter(0)))
    candidates = []

    def scan():
        yield from candidates
        for drawn in lengths:
            candidates.extend(drawn)
            yield from drawn

    has_seed = cache(lambda i0, q0: bool(_unused_seeds(proc, i0, q0)))
    missed = None
    for i0 in range(proc.xi, 0, -1):
        for first, last, path, seed_places, idx, miss in scan():
            # Recording the variable recorded last changes nothing.
            if first > i0 or last < i0 or miss is not None and miss == missed:
                continue
            for q0 in seed_places:
                if has_seed(i0, q0):
                    break
            else:
                continue
            if miss is not None:
                missed = miss
                continue
            cycle = PumpingCycle(nodes=tuple(realized[i] for i in idx),
                                 places=path)
            seeds = _segment_trash_seeds(proc, board, i0, cycle)
            if seeds is None:
                continue
            try:
                cover = closed_cover(proc, board, cycle, extra_seeds=seeds)
            except NoClosedCover:
                continue
            return WitnessCertificate(
                formula=formula, base_assignment=base,
                assignment=assignment, process=proc,
                event=PumpingEvent(q0=q0, i0=i0, cycle=cycle),
                cover=cover,
                potential_infinite=_potential_infinite(formula, im, path),
                literal_results=tuple(results),
                event_report=is_pumping_event(proc, board, q0, i0, cycle),
                max_cycle_len=max_cycle_len,
                canonical=(blocks, im, board))
    if missed is not None:
        raise CoverMissesVariable(missed)
    raise NoEvent("no pumping event passes all three conditions")


def extend_certificate(cert: WitnessCertificate, rounds: int,
                       pow_limit: int = hf.POW_LIMIT) -> WitnessCertificate:
    """Pump the certificate's event, replay the remaining segment, and
    attach the transferred assignment with all its checks.

    `pow_limit` bounds the assemblies of `pump_rounds` and `paste_segment`.
    A lazy pick counts only the assemblies it takes, so the pump runs to
    round counts (24 and more on `w in x & !Finite(x)`) whose families
    exceed the default bound.  Raises ValueError unless `rounds` is an int
    of at least 0 and `pow_limit` one of at least 1, before anything is
    drawn."""
    _, _, board = cert.canonical_board()
    proc = cert.process
    pumped, overlay, warmups, boundaries = pump_rounds(proc, cert.event,
                                                       rounds, pow_limit)
    start = StartConfiguration(cand=pumped, overlay=overlay,
                               k_prime=cert.event.i0, closed_set=cert.cover)
    cand, overlay, witness = paste_segment(proc, board, start, proc.xi,
                                           pow_limit)
    return replace(cert, pumped=_pumped_extension(
        cert, rounds, cand, overlay, witness, warmups, boundaries))
