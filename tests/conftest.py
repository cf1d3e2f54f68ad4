"""Shared fixtures: the running two-block example and random generators."""

from __future__ import annotations

import contextlib
import json
import random

import pytest

import mlsspf as m
from mlsspf import hf
from mlsspf.certificate import MAX_CYCLE_LEN, PumpingCycle
from mlsspf.msrefine import MsOverlay, StartConfiguration
from mlsspf.pumping import _CycleIndex
from mlsspf.venn import _sorted_blocks, subsets

from oracles import final_universe, stage_universe


def chain(n):
    """[e0, e1, ..., en] with e0 = {} and e_{i+1} = {e_i}."""
    out = [m.make_set([])]
    for _ in range(n):
        out.append(m.make_set([out[-1]]))
    return out


def nested(depth):
    """The JSON form of the set {{...{}...}} nested `depth` deep."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def walk_cycles(board, max_len=MAX_CYCLE_LEN):
    """The board's simple green cycles of at most max_len places, as
    PumpingCycles in the order of `_CycleIndex`'s sorted walk: by length,
    then places, then nodes.  The walk already gives them by length;
    `sorted` orders each length's cycles, as `certify_witness` does."""
    index = _CycleIndex(board, max_len)
    return [PumpingCycle(nodes=tuple(index.realized[i] for i in idx),
                         places=path)
            for _, path, idx, _, _ in sorted(index.walk())]


class Ex1:
    """w in x & !Finite(x) with w = {0}, x = {{0}, {{0}}} (0 meaning {})."""

    def __init__(self):
        self.a, self.b, self.c = chain(2)
        self.formula = m.parse("w in x & !Finite(x)")
        self.assignment = m.Assignment({"w": self.b,
                                        "x": m.make_set([self.b, self.c])})
        self.blocks, self.im, self.board = m.canonical_board(
            self.formula, self.assignment)
        self.process = m.synthesize_process(self.blocks)
        self.p, self.q = 0, 1


@pytest.fixture(scope="session")
def ex1():
    return Ex1()


def pow_region_forgery(k):
    """The JSON form of ex1's certificate grafted onto the formula
    p = Pow(z) & w in x & !Finite(x) & a0 <= z & ...: z has k >= 2 distinct
    members, which the ceil(log2 k) subset variables a_i split into k
    places (a_i holds the members whose index has bit i set), so the
    region of the powerset's argument spans k places; p = {} is no
    powerset of z.  The recorded literal results are the assignment's, so
    the certificate fails "every literal but !Finite holds"."""
    ex = Ex1()
    data = json.loads(m.certify_witness(ex.formula, ex.assignment).dumps())
    members = chain(k - 1)
    bits = (k - 1).bit_length()
    binding = dict(ex.assignment.bindings, p=hf.EMPTY, z=m.make_set(members))
    for i in range(bits):
        binding[f"a{i}"] = m.make_set(
            e for j, e in enumerate(members) if j >> i & 1)
    formula = m.parse(" & ".join(
        ["p = Pow(z)", "w in x", "!Finite(x)"]
        + [f"a{i} <= z" for i in range(bits)]))
    assignment = m.Assignment(binding)
    data["formula"] = formula.render()
    data["baseAssignment"] = data["assignment"] = assignment.to_json()
    data["report"]["literals"] = list(m.evaluate(formula, assignment).results)
    return json.loads(hf.dumps(data))


def rand_transitive_universe(rng: random.Random, size: int):
    """A transitive set of `size` HfSets, grown by adjoining subsets."""
    universe = []
    while len(universe) < size:
        mask = rng.getrandbits(len(universe)) if universe else 0
        e = m.make_set(universe[i] for i in range(len(universe))
                       if mask >> i & 1)
        if e not in universe:
            universe.append(e)
    return universe


def block_tuple(blocks):
    """The blocks as the tuple of frozensets that stands for a partition."""
    return tuple(frozenset(b) for b in blocks)


def rand_partition(rng: random.Random, universe, max_blocks=6):
    """The blocks of a random partition of the universe into at most
    max_blocks blocks, in canonical order."""
    if not universe:
        return ()
    k = rng.randint(1, min(max_blocks, len(universe)))
    items = list(universe)
    rng.shuffle(items)
    blocks = [[] for _ in range(k)]
    for i, e in enumerate(items):
        blocks[i % k].append(e)
    rng.shuffle(blocks)
    return _sorted_blocks(blocks)


def set_partitions(items):
    """All partitions of a list (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def absorbing_pow_regions(proc, rng: random.Random, max_seeds=2):
    """Up to `max_seeds` random pow regions, each a node under which every
    node has its assemblies absorbed by the process both right after its
    grand event and at the final stage."""
    places = proc.places
    final = final_universe(proc)

    def absorbs(node):
        fam = proc.node_snapshot(node, proc.xi)
        total = hf.pow_star_size(fam)
        if total > 2 ** 16:
            return False
        if sum(1 for e in final if hf.in_pow_star(e, fam)) != total:
            return False
        ge = m.grand_event(proc, node)
        if ge < proc.xi:
            fam_ge = proc.node_snapshot(node, ge)
            nxt = stage_universe(proc, ge + 1)
            if sum(1 for e in nxt if hf.in_pow_star(e, fam_ge)) != \
                    hf.pow_star_size(fam_ge):
                return False
        return True

    ok = {node for node in subsets(places) if absorbs(node)}
    candidates = sorted((node for node in ok
                         if all(sub in ok for sub in subsets(sorted(node)))),
                        key=sorted)
    rng.shuffle(candidates)
    return frozenset(candidates[:max_seeds])


def pow_nodes(board):
    """Every pow-node of the board, the nodes under its pow regions, listed
    for the sweep oracles."""
    return frozenset(node for region in board.pow_regions
                     for node in subsets(region))


def degenerate(proc, k_prime, closed_set=frozenset()):
    """The identity start: the prefix at k_prime itself, all Minus, no
    surplus."""
    cand = proc.prefix(k_prime)
    return StartConfiguration(cand, MsOverlay.all_minus(cand, start=k_prime),
                              k_prime, frozenset(closed_set))


def last_stage_weak(proc, board, i0, pumped, overlay, closed_set=frozenset()):
    """`check_weak_imitation` of a pump's last stage against stage i0 under
    `closed_set`: the weak imitation report `_pumped_extension` builds once
    the paste has copied the process from there."""
    return m.check_weak_imitation(proc, board, i0, pumped.final_blocks(),
                                  overlay.minus[-1], closed_set)


def rand_colored_board(proc, partition, rng: random.Random,
                       red_prob=0.3, with_pow=True):
    core = m.induced_board(partition)
    red = frozenset(q for q in proc.places if rng.random() < red_prob)
    regions = absorbing_pow_regions(proc, rng) if with_pow else frozenset()
    return m.ColoredBoard(blocks=core.blocks, targets=dict(core.targets),
                          red=red, pow_regions=regions)


def wide_instance(seed, infinite=1):
    """(formula, assignment) with 8-11 nonempty variables, `infinite` of
    which must become infinite.  One variable per residue class of a
    shuffled transitive universe gives one place per variable; the powerset
    literal that half the seeds add gives a few more.  The variables after
    the first that must become infinite are drawn last, and their `!Finite`
    literals come last, so the rest of the instance is that of
    `infinite=1`."""
    rng = random.Random(seed)
    k = rng.randint(8, 11)
    universe = rand_transitive_universe(rng, rng.randint(k, k + 5))
    rng.shuffle(universe)
    names = [f"v{j}" for j in range(k)]
    binding = {v: m.make_set(universe[j::k]) for j, v in enumerate(names)}
    first = rng.choice(names)
    literals = [f"!Finite({first})"]
    literals += [f"!{v} = {{}}" for v in names]
    if rng.random() < 0.5:
        z = m.make_set(rng.sample(universe, 2))
        binding["z"], binding["p"] = z, m.powerset(z)
        literals.append("p = Pow(z)")
    if infinite > 1:
        others = rng.sample([v for v in names if v != first], infinite - 1)
        literals += [f"!Finite({v})" for v in others]
    return m.parse(" & ".join(literals)), m.Assignment(binding)


def witness_family():
    """Formulas with one !Finite literal plus assignments that witness them."""
    out = []
    for n in range(2, 7):
        e = chain(n)
        out.append(("w in x & !Finite(x)",
                    {"w": e[1], "x": m.make_set(e[1:n + 1])}))
    for n in range(2, 5):
        e = chain(n)
        out.append(("!Finite(x)", {"x": m.make_set(e[1:n + 1])}))
    e = chain(3)
    out.append(("x = y U w & !Finite(x)",
                {"x": m.make_set(e[0:3]), "y": m.make_set([e[0]]),
                 "w": m.make_set(e[1:3])}))
    out.append(("Finite(w) & w in x & !Finite(x)",
                {"w": e[1], "x": m.make_set(e[1:4])}))
    out.append(("u = Pow(w) & w = {} & v in x & !Finite(x)",
                {"u": m.make_set([e[0]]), "w": e[0], "v": e[1],
                 "x": m.make_set(e[1:4])}))
    out.append(("y <= x & w in y & !Finite(x)",
                {"y": m.make_set(e[1:3]), "w": e[1],
                 "x": m.make_set(e[1:4])}))
    out.append(("x = x I x & w in x & !Finite(x)",
                {"w": e[1], "x": m.make_set(e[1:4])}))
    return [(m.parse(text), m.Assignment(binding)) for text, binding in out]


@contextlib.contextmanager
def union_pick_allowed():
    """The pump with no node union to keep off its restoring step's picks,
    so that it may place the step node's union as surplus, which weak item
    (b) requires to stay undistributed: a faulty prover, whose certificates
    hold every claim but the pumped verdict on some instances, such as
    `!Finite(x) & x in w` on w = {0, {{0}}}, x = {{0}} (0 meaning {}) and
    `wide_instance(33)` at one round."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mlsspf.pumping.node_union", lambda blocks, node: None)
        yield
