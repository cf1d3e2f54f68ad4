"""The 2^places node sweeps that `check_weak_imitation`,
`check_segment_imitation` and `paste_segment` ran before they read
`venn.SignatureTable`, kept as oracles: every node over a stage's live
places is visited, and assembly membership is tested element by element
with `hf.in_pow_star`.  The table versions must give equal reports, or
raise the same exception with the same message."""

from mlsspf import hf
from mlsspf.errors import CardinalityDeficit, NoLocalTrash
from mlsspf.msrefine import ImitationWitness, MsOverlay
from mlsspf.process import FormativeProcess, grand_event, local_trashes
from mlsspf.report import ReportBuilder
from mlsspf.venn import node_union, subsets

from conftest import pow_nodes
from oracles import stage_universe
from pumping_sweeps import is_closed_sweep


def _live_nodes(proc, stage_idx):
    """Nodes over the places whose blocks are nonempty at the stage: only
    those are subsets of the stage partition."""
    return subsets(q for q in proc.places if proc.stages[stage_idx][q])


def _count_in_pow_star(family, elements) -> int:
    return sum(1 for e in elements if hf.in_pow_star(e, family))


def weak_imitation_sweep(proc: FormativeProcess, board,
                         k_prime: int, hat_blocks, hat_minus,
                         closed_set):
    """Can the split partition start copying the process from stage k_prime?

    hat_blocks / hat_minus are per-place block contents and Minus parts of
    the candidate; closed_set is the closed collection of green places that
    will absorb surplus.  Checks the stage-level copy conditions plus the
    three start conditions on node unions.
    """
    rb = ReportBuilder()
    places = proc.places
    hat_blocks = [frozenset(b) for b in hat_blocks]
    hat_minus = [frozenset(m) for m in hat_minus]
    closed_set = frozenset(closed_set)
    placed_hat = set()
    for b in hat_blocks:
        placed_hat |= b
    placed_ora = stage_universe(proc, k_prime)

    rb.add("(i) minus cardinalities match the stage blocks",
           all(len(proc.stages[k_prime][q]) == len(hat_minus[q]) for q in places))
    rb.add("(vii) red places are all minus",
           all(hat_blocks[q] == hat_minus[q] for q in board.red))
    rb.add("(viii) surplus places lie in the closed set",
           all(q in closed_set for q in places if hat_blocks[q] - hat_minus[q]))
    rb.add("closed set is closed",
           is_closed_sweep(proc, board, closed_set))

    ok_x = True
    for node in _live_nodes(proc, k_prime):
        minus_fam = [hat_minus[q] for q in sorted(node)]
        ora_fam = proc.node_snapshot(node, k_prime)
        for q in places:
            if (_count_in_pow_star(minus_fam, hat_blocks[q])
                    != _count_in_pow_star(ora_fam, proc.stages[k_prime][q])):
                ok_x = False
    rb.add("(x) assembly/block intersection cardinalities match", ok_x)

    ok_a = True
    for node in _live_nodes(proc, k_prime):
        minus_fam = [hat_minus[q] for q in sorted(node)]
        u_hat = node_union(hat_minus, node)
        lhs = hf.in_pow_star(u_hat, minus_fam) and u_hat not in placed_hat
        ora_fam = proc.node_snapshot(node, k_prime)
        u_ora = node_union(proc.stages[k_prime], node)
        rhs = hf.in_pow_star(u_ora, ora_fam) and u_ora not in placed_ora
        if lhs != rhs:
            ok_a = False
    rb.add("(a) minus unions are fresh exactly when the stage unions are", ok_a)

    ok_b = True
    surplus_places = {q for q in places if hat_blocks[q] - hat_minus[q]}
    for node in _live_nodes(proc, k_prime):
        if not (node & surplus_places):
            continue
        if grand_event(proc, node) < k_prime:
            continue
        fam = [hat_blocks[q] for q in sorted(node)]
        u = node_union(hat_blocks, node)
        if not (hf.in_pow_star(u, fam) and u not in placed_hat):
            ok_b = False
    rb.add("(b) surplus-bearing node unions stay undistributed", ok_b)

    ok_c = True
    pows = pow_nodes(board)
    for node in _live_nodes(proc, k_prime):
        if grand_event(proc, node) >= k_prime:
            continue
        u_ora = node_union(proc.stages[k_prime], node)
        u_hat = node_union(hat_blocks, node)
        for q in places:
            if (u_ora in proc.stages[k_prime][q]) != (u_hat in hat_blocks[q]):
                ok_c = False
        if node in pows:
            fam = [hat_blocks[q] for q in sorted(node)]
            total = hf.pow_star_size(fam)
            if _count_in_pow_star(fam, placed_hat) != total:
                ok_c = False
    rb.add("(c) pre-start memberships and pow-node coverage transfer", ok_c)
    return rb.build()


def segment_imitation_sweep(proc: FormativeProcess, board,
                            cand: FormativeProcess, overlay: MsOverlay,
                            witness: ImitationWitness):
    """Item-by-item check that the candidate copies the segment [lo, hi].

    Cardinalities are compared stage-for-stage through the witness's stage
    map; node-union placements must transfer exactly (Minus unions off grand
    events, full unions at them); surplus may only be created at grand
    events, into local trashes inside the closed set.
    """
    rb = ReportBuilder()
    g = witness.gamma
    lo, hi = witness.lo, witness.hi
    places = proc.places
    C = witness.closed_set

    def cand_placed(stage_idx):
        return stage_universe(cand, stage_idx)

    for beta in range(lo, hi + 1):
        a = g[beta]
        rb.add(f"(i) stage {beta}: minus cardinalities match",
               all(len(proc.stages[beta][q]) == len(overlay.minus_at(a, q))
                   for q in places))
        rb.add(f"(vii) stage {beta}: red places all minus",
               all(cand.stages[a][q] == overlay.minus_at(a, q) for q in board.red))
        rb.add(f"(viii) stage {beta}: surplus places inside the closed set",
               overlay.surplus_places(cand, a) <= C)
        ok_ix = True
        placed_hat = cand_placed(a)
        placed_ora = stage_universe(proc, beta)
        for node in _live_nodes(proc, beta):
            minus_fam = overlay.minus_family(node, a)
            ora_fam = proc.node_snapshot(node, beta)
            lhs = (hf.pow_star_size(minus_fam)
                   - _count_in_pow_star(minus_fam, placed_hat))
            rhs = (hf.pow_star_size(ora_fam)
                   - _count_in_pow_star(ora_fam, placed_ora))
            if lhs != rhs:
                ok_ix = False
        rb.add(f"(ix) stage {beta}: fresh assembly pools have equal size", ok_ix)

    for beta in range(lo, hi):
        a = g[beta]
        node = proc.trace[beta]
        rb.add(f"step {beta}: candidate replays the trace node",
               cand.trace[a] == node)
        rb.add(f"(ii) step {beta}: minus delta cardinalities match",
               all(len(proc.delta(beta, q)) == len(overlay.delta_minus(a, q))
                   for q in places))
        ok_iii = True
        for q in places:
            if overlay.delta_surplus(cand, a, q):
                if beta != grand_event(proc, node):
                    ok_iii = False
                elif q not in local_trashes(proc, board, node) or q not in C:
                    ok_iii = False
        rb.add(f"(iii) step {beta}: surplus only at grand events into trashes", ok_iii)
        ok_v, ok_vi = True, True
        for gamma_node in _live_nodes(proc, beta):
            ge = grand_event(proc, gamma_node)
            u_ora = node_union(proc.stages[beta], gamma_node)
            if beta != ge:
                u_hat = node_union(overlay.minus[a - overlay.start], gamma_node)
                for q in places:
                    if (u_ora in proc.delta(beta, q)) != (
                            u_hat in (overlay.delta_minus(a, q)
                                      | overlay.delta_surplus(cand, a, q))):
                        ok_v = False
            else:
                u_hat = node_union(cand.stages[a], gamma_node)
                for q in places:
                    if (u_ora in proc.delta(beta, q)) != (
                            u_hat in cand.delta(a, q)):
                        ok_vi = False
        rb.add(f"(v) step {beta}: minus-union placements transfer", ok_v)
        rb.add(f"(vi) step {beta}: grand-event union placements transfer", ok_vi)

    ok_iv = True
    for node in sorted(pow_nodes(board), key=sorted):
        ge = grand_event(proc, node)
        if ge not in g or (ge + 1) not in g:
            continue
        fam = [cand.stages[g[ge]][q] for q in sorted(node)]
        total = hf.pow_star_size(fam)
        if _count_in_pow_star(fam, cand_placed(g[ge + 1])) != total:
            ok_iv = False
    rb.add("(iv) pow-node assemblies are absorbed right after their grand event",
           ok_iv)

    ok_x = True
    for k in range(lo + 1, hi + 1):
        for node in _live_nodes(proc, k - 1):
            minus_fam = overlay.minus_family(node, g[k - 1])
            ora_fam = proc.node_snapshot(node, k - 1)
            for q in places:
                if (_count_in_pow_star(minus_fam, cand.stages[g[k]][q])
                        != _count_in_pow_star(ora_fam, proc.stages[k][q])):
                    ok_x = False
    rb.add("(x) previous-stage assembly/block intersections match", ok_x)
    return rb.build()


def paste_segment_sweep(proc: FormativeProcess, board,
                  start, k_second: int,
                  pow_limit: int = hf.POW_LIMIT):
    """Extend the candidate so it copies the segment [k_prime, k_second].

    Follows the inductive construction: each oracle step is replayed with
    fresh Minus assemblies of matching cardinality, node unions are placed
    exactly where the oracle placed them (full unions at grand events,
    Minus unions elsewhere), and when a pow-node with surplus hits its grand
    event the whole remaining pool is dumped into a local trash's surplus.

    Returns (extended process, extended overlay, witness).
    """
    places = proc.places
    k_prime = start.k_prime
    C = start.closed_set
    stages = list(start.cand.stages)
    trace = list(start.cand.trace)
    minus = list(start.overlay.minus)
    gamma = {k_prime: start.cand.xi}
    pows = pow_nodes(board)

    for k in range(k_prime, k_second):
        cur = len(stages) - 1
        node = proc.trace[k]
        cur_minus = {q: minus[cur - start.overlay.start][q] for q in places}
        minus_fam = [cur_minus[q] for q in sorted(node)]
        full_fam = [stages[cur][q] for q in sorted(node)]
        placed_hat = set()
        for b in stages[cur]:
            placed_hat |= b

        # Node unions the oracle distributes at this step, and the values the
        # copy must therefore place (designated) or must avoid (forbidden).
        # Off a node's grand event the Minus union is the constrained value;
        # at it, the full union (which lands in surplus when the node carries
        # surplus material: the grand-event interchange).
        designated = {q: [] for q in places}
        surplus_designated = {q: [] for q in places}
        forbidden = set()
        for gnode in _live_nodes(proc, k):
            ge = grand_event(proc, gnode)
            u_ora = node_union(proc.stages[k], gnode)
            v_hat = node_union(cur_minus if k != ge else stages[cur], gnode)
            target = None
            for q in places:
                if u_ora in proc.delta(k, q):
                    target = q
                    break
            if target is None:
                forbidden.add(v_hat)
                continue
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
                if k != grand_event(proc, node) or target not in (
                        local_trashes(proc, board, node) & C):
                    raise NoLocalTrash(
                        f"step {k}: surplus-typed union must land in a closed "
                        f"local trash, target place {target} is not one")
                if v_hat not in surplus_designated[target]:
                    surplus_designated[target].append(v_hat)

        # The fresh Minus pool, drawn lazily: every element an earlier place
        # drew from it is in `used` by the time a later place draws.
        pool = (e for e in hf.assemblies(minus_fam, pow_limit)
                if e not in placed_hat and e not in forbidden)
        used = set()
        for q in places:
            used.update(designated[q])
            used.update(surplus_designated[q])
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
        if (node in pows and k == grand_event(proc, node)
                and any(stages[cur][q] - cur_minus[q] for q in node)):
            trash = sorted(local_trashes(proc, board, node) & C)
            if not trash:
                raise NoLocalTrash(
                    f"step {k}: pow-node {sorted(node)} with surplus has no "
                    f"local trash in the closed set")
            full_pool = [e for e in hf.pow_star(full_fam, pow_limit)
                         if e not in placed_hat]
            used = set()
            for q in places:
                used |= delta_minus_by_place[q]
                used |= delta_surplus_by_place[q]
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
