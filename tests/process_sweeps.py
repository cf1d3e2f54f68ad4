"""The process synthesis `process` ran before it kept readiness counts,
kept as an oracle: every step rescans the unplaced elements for the ready
ones.  The counted schedule must give the same stages, trace and history
targets."""

from mlsspf import hf
from mlsspf.process import FormativeProcess
from mlsspf.venn import home_index


def synthesize_process_scan(blocks):
    """`synthesize_process` by a ready-scan per step; its history targets
    are derived from the stages."""
    places = range(len(blocks))
    home = home_index(blocks)
    signature = {
        e: frozenset(home[m] for m in e.elements) for e in home
    }
    unplaced = set(home)
    placed = set()
    stages = [tuple(frozenset() for _ in places)]
    trace = []
    current = [set() for _ in places]
    while unplaced:
        ready = [e for e in unplaced if set(e.elements) <= placed]
        pick = min(ready, key=hf.order_key)
        node = signature[pick]
        batch = [e for e in ready if signature[e] == node]
        for e in batch:
            current[home[e]].add(e)
        placed.update(batch)
        unplaced.difference_update(batch)
        stages.append(tuple(frozenset(b) for b in current))
        trace.append(node)
    return FormativeProcess(stages=tuple(stages), trace=tuple(trace))
