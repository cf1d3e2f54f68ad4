"""The searches `pumping` ran before it indexed them, kept as oracles:
the cycle walk testing every green node at every depth-first step,
condition (ii) of `is_pumping_event` sweeping every node that meets the
cycle (or only the realized ones: the board's targets and the trace's
nodes, enough on a process with no empty final block), condition (iii)
testing every node block at the start stage, and the closedness of a set
of places read off every node under the pow regions.  The indexed versions
must return the same cycles in the same order, the same minima, the same
verdicts and the same covers."""

from mlsspf.certificate import PumpingCycle
from mlsspf.errors import NoClosedCover
from mlsspf.process import grand_event, local_trashes
from mlsspf.venn import subsets

from conftest import pow_nodes


def find_pumping_cycles_scan(board, max_len):
    """All simple green cycles with at most max_len places, anchored at
    their least place, sorted as the sorted `_CycleIndex` walk gives them."""
    green_nodes = [n for n in board.realized_nodes() if board.is_green_node(n)]
    out = []
    for anchor in sorted(q for q in board.places if q not in board.red):
        stack = [((), (anchor,), frozenset([anchor]), frozenset())]
        while stack:
            nodes, places, seen_places, seen_nodes = stack.pop()
            p = places[-1]
            for b in green_nodes:
                if p not in b or b in seen_nodes:
                    continue
                # Closing edge: b targets the anchor.
                if anchor in board.target(b):
                    out.append(PumpingCycle(nodes=(b,) + nodes, places=places))
                if len(places) < max_len:
                    for t in sorted(board.target(b)):
                        if t in board.red or t in seen_places or t < anchor:
                            continue
                        stack.append((nodes + (b,), places + (t,),
                                      seen_places | {t}, seen_nodes | {b}))
    out.sort(key=lambda c: (len(c), c.places, tuple(sorted(n) for n in c.nodes)))
    return out


def realized_nodes(proc, board):
    nodes = set(board.targets)
    nodes.update(proc.trace)
    return nodes


def cycle_ge_sweep(proc, board, cycle):
    """Least grand event over the realized nodes that meet the cycle."""
    return min((grand_event(proc, b) for b in realized_nodes(proc, board)
                if b & cycle.place_set()), default=proc.xi)


def cycle_ge_all_nodes(proc, cycle):
    """Least grand event over every node that meets the cycle."""
    return min((grand_event(proc, b) for b in subsets(proc.places)
                if b & cycle.place_set()), default=proc.xi)


def cycle_blocks_filled_sweep(proc, i0, cycle):
    """Condition (iii): every block of a place in a cycle node is nonempty
    at stage i0."""
    return all(proc.stages[i0][q] for c in cycle.nodes for q in c)


def is_closed_sweep(proc, board, places_set):
    """All members green, and every node under a pow region that meets the
    set has a local trash inside it."""
    w = frozenset(places_set)
    if any(q in board.red for q in w):
        return False
    return all(local_trashes(proc, board, b) & w
               for b in pow_nodes(board) if b & w)


def closed_cover_sweep(proc, board, cycle, extra_seeds=()):
    """The least-fixed-point cover, sweeping every node under the pow
    regions in sorted order and adding the least local trash of each that
    meets the set without one inside it; NoClosedCover when one has none."""
    w = set(cycle.place_set()) | set(extra_seeds)
    if any(q in board.red for q in w):
        raise NoClosedCover("cover seeds include a red place")
    nodes = sorted(pow_nodes(board), key=sorted)
    changed = True
    while changed:
        changed = False
        for b in nodes:
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
    return frozenset(w)
