import gc
import json
import sys
import time
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf
from mlsspf.errors import LimitExceeded

from conftest import chain, nested

A, B, C = chain(2)


def naive_equal(x, y):
    """Extensional equality by brute recursion, ignoring canonical order."""
    if len(x.elements) != len(y.elements):
        return False
    return all(any(naive_equal(e, f) for f in y.elements) for e in x.elements)


def hfsets(max_depth=3, max_width=3):
    return st.recursive(
        st.just(()),
        lambda kids: st.lists(kids, max_size=max_width).map(tuple),
        max_leaves=8,
    ).map(_build)


def _build(t):
    return m.make_set(_build(k) for k in t)


def test_make_set_examples():
    assert m.make_set([]) is hf.EMPTY
    assert m.make_set([A, A]) is m.make_set([A])
    s = m.make_set([B, A])
    assert s.elements == (A, B)
    assert s.rank == 2


def test_rank_matches_recursive_definition():
    def rank(s):
        return 0 if not s.elements else 1 + max(rank(e) for e in s.elements)
    for s in [A, B, C, m.make_set([A, B, C]), m.make_set([m.make_set([B, C])])]:
        assert s.rank == rank(s)


def test_bool_op_examples():
    assert m.bool_op(B, m.make_set([B]), "U") is m.make_set([A, B])
    assert m.bool_op(m.make_set([A, B]), B, "I") is B
    assert m.bool_op(B, B, "\\") is hf.EMPTY


def test_powerset_examples():
    assert m.powerset(hf.EMPTY) is B
    assert m.powerset(B) is m.make_set([A, B])
    s = m.make_set([A, B])
    expected = m.make_set([hf.EMPTY, m.make_set([A]), m.make_set([B]), s])
    assert m.powerset(s) is expected


def test_powerset_limit():
    s = m.make_set(chain(5)[1:])  # 5 elements -> 32 subsets
    with pytest.raises(LimitExceeded):
        m.powerset(s, limit=16)
    assert len(m.powerset(s, limit=32)) == 32


def test_pow_star_examples():
    assert m.pow_star([]) == (hf.EMPTY,)
    assert m.pow_star([[A]]) == (B,)
    got = m.pow_star([[A], [B, C]])
    assert got == (m.make_set([A, B]), m.make_set([A, C]), m.make_set([A, B, C]))


def test_pow_star_empty_block_has_no_assemblies():
    assert m.pow_star([[A], []]) == ()


def test_transitive_closure_examples():
    assert m.transitive_closure(hf.EMPTY) is hf.EMPTY
    assert m.transitive_closure(m.make_set([B])) is m.make_set([A, B])
    s = m.make_set([A, B, C])
    assert m.transitive_closure(s) is s


def test_json_round_trip_and_duplicate_flag():
    s = m.make_set([A, m.make_set([A, B])])
    back, dup = m.from_json(s.to_json())
    assert back is s and not dup
    _, dup = m.from_json([[], []])
    assert dup


@given(hfsets())
@settings(max_examples=100)
def test_to_json_is_one_cached_tuple_that_round_trips(s):
    form = s.to_json()
    assert s.to_json() is form
    assert isinstance(form, tuple)
    assert all(f is e.to_json() for f, e in zip(form, s.elements))
    assert m.from_json(form) == (s, False)
    assert m.from_json(json.loads(json.dumps(form))) == (s, False)


def test_decoding_and_pumping_leave_no_recursive_closure_behind():
    # A recursive closure refers to itself through its cell: unless it is
    # unbound on return, every call leaves a cycle that only the collector
    # frees.  With the collector off, DEBUG_SAVEALL keeps what it finds.
    formula = m.parse("w in x & !Finite(x)")
    assignment, _ = m.Assignment.from_json({"w": [], "x": [[], [[]]]})
    cert = m.certify_witness(formula, assignment)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        ext = m.extend_certificate(cert, 3)
        m.WitnessCertificate.from_json(json.loads(ext.dumps()))
        m.from_json(ext.pumped.final_assignment.to_json()["x"])
        gc.collect()
        left = [f.__qualname__ for f in gc.garbage
                if type(f).__name__ == "function"
                and f.__module__.startswith("mlsspf")]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


def test_decoder_memoizes_by_text_with_the_duplicate_flag():
    decode = hf.Decoder()
    dup = [[], []]
    assert decode(dup) == (B, True)
    assert decode([[], []]) is decode(dup)
    assert decode(B.to_json()) == (B, False)


def _called_from(frames, f):
    """f() from a caller `frames` frames deeper than this one."""
    return f() if frames == 0 else _called_from(frames - 1, f)


def test_decoder_refuses_a_set_too_deep_on_every_interpreter():
    # Rank MAX_RANK decodes and MAX_RANK + 1 is bad input (ValueError, not
    # RecursionError), whatever the recursion limit and the caller's depth;
    # so is a list nested deeper than `repr` reaches.
    def decode(depth):
        return _called_from(frames, lambda: hf.Decoder()(nested(depth)))

    limit = sys.getrecursionlimit()
    try:
        for limit_now, frames in ((limit, 0), (4 * limit, 0), (limit, 300)):
            sys.setrecursionlimit(limit_now)
            assert decode(hf.MAX_RANK)[0].rank == hf.MAX_RANK
            for depth in (hf.MAX_RANK + 1, 1000, 100_000):
                with pytest.raises(ValueError, match="nests too deep"):
                    decode(depth)
    finally:
        sys.setrecursionlimit(limit)
    # A memoized set of rank MAX_RANK does not lift the bound one up.
    decode = hf.Decoder()
    decode(nested(hf.MAX_RANK))
    with pytest.raises(ValueError, match="nests too deep"):
        decode([nested(hf.MAX_RANK)])


# Strings with quotes, escapes, control and non-ASCII characters.
_text = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7fé€😀'),
                max_size=6)
_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | _text)


@st.composite
def json_values(draw):
    """Nested JSON values over scalars and a few tuples (`HfSet` forms among
    them), each of which may recur at several depths."""
    shared = draw(st.lists(
        hfsets().map(m.HfSet.to_json) | st.lists(_scalars, max_size=3).map(tuple),
        min_size=1, max_size=3))
    return draw(st.recursive(
        _scalars | st.sampled_from(shared),
        lambda kids: (st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | st.dictionaries(_text, kids, max_size=4)
                      | st.dictionaries(st.integers(), kids, max_size=3)),
        max_leaves=24))


@given(json_values())
@settings(max_examples=150)
def test_dumps_matches_json_dumps(value):
    assert hf.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dumps_writes_scalars_as_json_dumps():
    # None, booleans and ints are written directly; floats go through json.
    scalars = [None, True, False, 0, 1, -1, -7, 2 ** 63, -(10 ** 40), 1.0,
               -0.0, 2.5, 1e300, float("nan"), float("inf"), -float("inf")]
    for value in scalars + [scalars, tuple(scalars), [True, 1, 1.0, [False, 0]],
                            {"a": True, "b": 1, "c": -(2 ** 70), "d": None}]:
        assert hf.dumps(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dumps_keys_and_errors_as_json_dumps():
    for value in ({None: 1}, {True: [], False: ()}, {1.5: "x", -2.0: "y"}):
        assert hf.dumps(value) == json.dumps(value, sort_keys=True, indent=2)
    for bad in ({(1,): 0}, {"a": object()}, {1: 0, "a": 1}):
        with pytest.raises(TypeError):
            hf.dumps(bad)


def test_dumps_writes_every_rank_the_decoder_reads():
    # A set of the decoder's bound rank (built without the decoder), in a
    # document shaped as `venn` writes one; and lists nested deeper than
    # the recursion limit.
    top = chain(hf.MAX_RANK)[-1]
    doc = {"blocks": [[top.to_json()]], "im": {}, "transitive": True}
    assert hf.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    depth = sys.getrecursionlimit() + 100
    assert hf.dumps(nested(depth)) == "\n".join(
        ["  " * i + "[" for i in range(depth)] + ["  " * depth + "[]"]
        + ["  " * i + "]" for i in reversed(range(depth))])


@given(hfsets(), hfsets())
@settings(max_examples=200)
def test_equality_is_extensional(x, y):
    assert (x is y) == naive_equal(x, y)


@given(hfsets())
@settings(max_examples=100)
def test_canonical_order_is_total_and_consistent(s):
    elems = list(s.elements)
    assert elems == sorted(elems, key=hf.order_key)
    assert len(set(elems)) == len(elems)


def test_building_ordinals_costs_time_in_members_not_in_the_tree():
    # The von Neumann ordinal n is the set of the smaller ordinals, and its
    # tree has 2^n leaves: a hash that walked the tree doubled in cost with
    # each n.  The bound is checked after each ordinal, so a regression
    # fails fast instead of hanging.
    start = time.process_time()
    ordinals = []
    for n in range(201):
        ordinals.append(m.make_set(ordinals))
        assert time.process_time() - start < 2, f"ordinal {n}"
    assert ordinals[-1].rank == 200 and len(ordinals[-1]) == 200
    assert m.make_set(ordinals[:-1]) is ordinals[-1]


def brute_pow_star(blocks):
    """Oracle: filter all subsets of the union for the meet condition."""
    union = sorted({e for z in blocks for e in z}, key=hf.order_key)
    out = []
    for mask in range(2 ** len(union)):
        pick = [union[i] for i in range(len(union)) if mask >> i & 1]
        picked = set(pick)
        if all(picked & set(z) for z in blocks):
            out.append(m.make_set(pick))
    return tuple(sorted(set(out), key=hf.order_key))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pow_star_matches_brute_force(data):
    pool = chain(4) + [m.make_set([A, B]), m.make_set([B, C])]
    n = data.draw(st.integers(0, 6))
    elems = data.draw(st.permutations(pool)).copy()[:n]
    k = data.draw(st.integers(0, 3))
    blocks = [[] for _ in range(k)]
    for i, e in enumerate(elems):
        blocks[i % k].append(e) if k else None
    blocks = [z for z in blocks if z]
    got = m.pow_star(blocks)
    assert got == brute_pow_star(blocks)
    assert len(got) == m.pow_star_size(blocks)


@given(hfsets(max_depth=3, max_width=2))
@settings(max_examples=60, deadline=None)
def test_powerset_rank_increment(s):
    if s.rank <= 4 and len(s) <= 6:
        assert m.powerset(s).rank == s.rank + 1


@given(hfsets(), st.data())
@settings(max_examples=80)
def test_in_pow_star_agrees_with_membership(e, data):
    pool = chain(3)
    blocks = [
        [pool[i] for i in range(3) if data.draw(st.booleans())]
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    blocks = [z for z in blocks if z]
    assert m.in_pow_star(e, blocks) == (e in set(m.pow_star(blocks)))


def block_families():
    """Families of up to four blocks drawn from a six-set pool: blocks may
    overlap, repeat, hold a member twice, or be empty."""
    pool = chain(3) + [m.make_set([A, B]), m.make_set([B, C])]
    block = st.lists(st.sampled_from(pool), max_size=4)
    return st.lists(block, max_size=4)


@given(block_families())
@settings(max_examples=200, deadline=None)
def test_assemblies_match_brute_force(blocks):
    assert tuple(hf.assemblies(blocks)) == brute_pow_star(blocks)


@given(block_families(), st.integers(0, 70))
@settings(max_examples=100, deadline=None)
def test_assemblies_prefix_is_pow_star_prefix(blocks, n):
    assert tuple(islice(hf.assemblies(blocks), n)) == m.pow_star(blocks)[:n]


@given(block_families(), st.integers(1, 70))
@settings(max_examples=100, deadline=None)
def test_assemblies_limit_counts_consumed_candidates(blocks, limit):
    family = brute_pow_star(blocks)
    # Taking `limit` assemblies never raises, whatever the family's size.
    head = tuple(islice(hf.assemblies(blocks, limit), limit))
    assert head == family[:limit]
    if len(family) > limit:
        with pytest.raises(LimitExceeded):
            list(hf.assemblies(blocks, limit))
    else:
        assert tuple(hf.assemblies(blocks, limit)) == family


def test_assemblies_of_a_large_family_are_lazy():
    # 2^41 - 1 assemblies of one block: the least ones come without building
    # the family, and the limit counts only what is taken.
    block = chain(40)
    head = list(islice(hf.assemblies([block], limit=3), 3))
    assert head == [m.make_set([A]), m.make_set([B]), m.make_set([A, B])]
    with pytest.raises(LimitExceeded):
        list(islice(hf.assemblies([block], limit=3), 4))
    with pytest.raises(LimitExceeded):
        m.pow_star([block])
