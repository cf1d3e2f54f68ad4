import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlsspf as m
from mlsspf import hf, lang
from mlsspf.errors import ArityError, FormulaSyntaxError, UnboundVariable

from conftest import chain
from oracles import drop_finite_literals, parse_by_character

A, B, C = chain(2)


def test_parse_examples():
    f = m.parse("x = y U z")
    assert f.literals == (lang.Literal(lang.UNION, ("x", "y", "z")),)
    f = m.parse("w in x & !Finite(x)")
    assert [l.kind for l in f.literals] == [lang.IN, lang.NOT_FINITE]
    f = m.parse("x = {y, z}")
    assert f.literals == (lang.Literal(lang.ENUM, ("x", "y", "z")),)


def test_parse_all_forms():
    text = ("a = b & !a = b & a = {} & !a = {} & a = b U c & a = b I c & "
            "a = b \\ c & a <= b & !a <= b & a in b & !a in b & "
            "a = Pow(b) & a = {b} & Finite(a) & !Finite(a)")
    f = m.parse(text)
    kinds = [l.kind for l in f.literals]
    assert kinds == [lang.EQ, lang.NEQ, lang.EQ_EMPTY, lang.NEQ_EMPTY,
                     lang.UNION, lang.INTER, lang.DIFF, lang.SUBSETEQ,
                     lang.NOT_SUBSETEQ, lang.IN, lang.NOT_IN, lang.POW,
                     lang.ENUM, lang.FINITE, lang.NOT_FINITE]
    assert f.vars == ("a", "b", "c")
    assert f.render() == text


def test_newline_is_a_conjunction():
    f = m.parse("x = y\nw in x\n")
    assert len(f.literals) == 2


@pytest.mark.parametrize("bad", [
    "!x = y U z", "!x = Pow(y)", "!x = {y}", "x =", "= y", "x ! y",
    "x in", "Finite(x", "x = {y,}", "", "x ? y",
    "& x = y", "x = y z", "in = y", "1x = y", "\u00e9 = x", "x = {}y",
    "x < = y",
])
def test_syntax_errors(bad):
    with pytest.raises(FormulaSyntaxError):
        m.parse(bad)


def test_syntax_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        m.parse("x = y\nz = !")
    assert exc.value.line == 2


def test_syntax_error_names_the_literal():
    # The error sits at the first token of the offending literal and
    # quotes its text.
    with pytest.raises(FormulaSyntaxError) as exc:
        m.parse("x = y\n!x = {y}")
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert "'!x = {y}'" in str(exc.value)
    with pytest.raises(FormulaSyntaxError) as exc:
        m.parse("x = y &  z =  Pow(w & v in v")
    assert (exc.value.line, exc.value.column) == (1, 10)
    assert "'z =  Pow(w'" in str(exc.value)


def test_arity_errors():
    with pytest.raises(ArityError):
        lang.Literal(lang.EQ, ("x",))
    with pytest.raises(ArityError):
        lang.Literal(lang.ENUM, ("x",))
    with pytest.raises(ArityError):
        lang.Literal("Bogus", ("x",))


_NAMES = st.sampled_from(["x", "y", "z", "w", "u", "v_1", "long_name"])


@st.composite
def literals(draw):
    kind = draw(st.sampled_from(sorted(lang._ARITY) + [lang.ENUM]))
    if kind == lang.ENUM:
        ops = draw(st.lists(_NAMES, min_size=2, max_size=4))
    else:
        ops = draw(st.lists(_NAMES, min_size=lang._ARITY[kind],
                            max_size=lang._ARITY[kind]))
    return lang.Literal(kind, tuple(ops))


@given(st.lists(literals(), min_size=1, max_size=6))
@settings(max_examples=200)
def test_render_parse_round_trip(lits):
    f = lang.Formula(tuple(lits))
    assert m.parse(f.render()).literals == f.literals


# Names that are no keyword, some of them close to one.
_FREE_NAMES = st.one_of(
    st.sampled_from(["V", "_x1", "inx", "Finite1", "Pow_", "UI", "i", "n"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True).filter(
        lambda name: name not in lang.KEYWORDS))


@st.composite
def spelled_literals(draw):
    """A literal of any kind and its tokens, spaced at random: without a
    space where no two names meet."""
    kind = draw(st.sampled_from(sorted(lang._ARITY) + [lang.ENUM]))
    arity = (draw(st.integers(2, 5)) if kind == lang.ENUM
             else lang._ARITY[kind])
    lit = lang.Literal(kind, tuple(draw(_FREE_NAMES) for _ in range(arity)))
    text = ""
    for tok in lang._tokenize(lit.render()):
        gap = draw(st.sampled_from(["", " ", "  ", "\t"]))
        if text and (text[-1].isalnum() or text[-1] == "_") and (
                tok[0].isalnum() or tok[0] == "_"):
            gap = gap or " "
        text += gap + tok
    return lit, text


_SEPARATOR = st.lists(st.sampled_from(["&", "\n", " "]), min_size=1,
                      max_size=4).filter(lambda run: {"&", "\n"} & set(run))


@given(st.lists(spelled_literals(), min_size=1, max_size=5),
       st.data())
@settings(max_examples=300)
def test_parse_reads_spelled_literals(spelled, data):
    # Literals of every kind, joined by random runs of '&', newlines and
    # spaces, after optional leading newlines and before optional trailing
    # separators, parse to exactly those literals in order.
    text = data.draw(st.sampled_from(["", "\n", "\n \n"]))
    for i, (_, spelling) in enumerate(spelled):
        if i:
            text += "".join(data.draw(_SEPARATOR))
        text += spelling
    text += "".join(data.draw(st.one_of(st.just([]), _SEPARATOR)))
    assert m.parse(text).literals == tuple(lit for lit, _ in spelled)


_WHOLE = ["x = y", "!y <= x", "x = {y, z}", "Finite(x)", "x = Pow(y)"]
_SPACES = [" ", "  ", "\t", "\n", "\r"]
_STRAYS = ["1", "<", "@", "?", "\u00e9", "\u00a0"]

# Formula texts: pieces of names, keywords, operators, spaces, line breaks
# and characters that no literal reads or that are no word at all; or
# whole literals, each followed by a separator, a space or a stray
# character.
_TEXTS = st.one_of(
    st.lists(st.sampled_from(
        ["x", "y", "v_1", "inx"] + sorted(lang.KEYWORDS)
        + ["=", "!", "{", "}", ",", "(", ")", "\\", "&", "<="]
        + _WHOLE + _SPACES + _STRAYS), max_size=14).map("".join),
    st.lists(st.tuples(st.sampled_from(_WHOLE), st.sampled_from(
        [" & ", "\n", "&\t", "\r\n&", " \u00a0", "@"])), max_size=5).map(
            lambda pairs: "".join(lit + gap for lit, gap in pairs)))


@given(_TEXTS)
@settings(max_examples=500)
def test_parse_matches_the_character_loop(text):
    # The one-regex tokenizer and the reference loop, one character at a
    # time, read the same formula or raise the same error at the same line
    # and column.
    try:
        expected = parse_by_character(text)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            m.parse(text)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        assert (got.value.line, got.value.column) == (exc.line, exc.column)
    else:
        assert m.parse(text) == expected


def test_duplicate_literals_flagged():
    f = m.parse("x = y & x = y")
    assert f.has_duplicates and len(f.literals) == 2


# V_4: the sixteen sets of rank below 4, a transitive pool.
_POOL = m.powerset(m.powerset(m.powerset(m.powerset(hf.EMPTY)))).elements


@st.composite
def _pow_pairs(draw):
    """(p, z, kind): z has at most six members of the pool, and p is Pow(z),
    Pow(z) less one member, Pow(z) plus one set that is no subset of z, or
    2^|z| sets that are not all subsets of z."""
    z = m.make_set(draw(st.sets(st.sampled_from(_POOL), max_size=6)))
    subs = list(hf.powerset(z).elements)
    outside = draw(st.sampled_from([y for y in _POOL if y not in z] + [z]))
    kind = draw(st.sampled_from(["pow", "less", "plus", "swapped"]))
    if kind == "less":
        subs.pop(draw(st.integers(0, len(subs) - 1)))
    elif kind == "plus":
        base = draw(st.sampled_from(subs))
        subs.append(m.make_set(base.elements + (outside,)))
    elif kind == "swapped":
        # The members that get `outside` added become no subsets of z, and
        # stay distinct, so p keeps 2^|z| members.
        picks = draw(st.sets(st.integers(0, len(subs) - 1), min_size=1))
        subs = [m.make_set(s.elements + (outside,)) if i in picks else s
                for i, s in enumerate(subs)]
    return m.make_set(subs), z, kind


@given(_pow_pairs())
@settings(max_examples=300, deadline=None)
def test_pow_literal_agrees_with_the_built_powerset(pair):
    p, z, kind = pair
    holds = lang.eval_literal(lang.Literal(lang.POW, ("p", "z")),
                              m.Assignment({"p": p, "z": z}))
    assert holds == (p is hf.powerset(z)) == (kind == "pow")


def test_eval_literal_examples():
    M = m.Assignment({"v": m.make_set([]), "w": B,
                      "u": m.make_set([m.make_set([]), B])})
    assert lang.eval_literal(lang.Literal(lang.EQ_EMPTY, ("v",)), M)
    assert lang.eval_literal(lang.Literal(lang.POW, ("u", "w")), M)
    assert not lang.eval_literal(lang.Literal(lang.NOT_FINITE, ("w",)), M)
    assert lang.eval_literal(lang.Literal(lang.FINITE, ("u",)), M)


def test_eval_formula_examples(ex1):
    rep = m.evaluate(ex1.formula, ex1.assignment)
    assert rep.results == (True, False) and not rep.satisfied

    f = m.parse("x = x")
    rep = m.evaluate(f, m.Assignment({"x": B}))
    assert rep.satisfied

    f = m.parse("x in x")
    rep = m.evaluate(f, m.Assignment({"x": B}))
    assert rep.results == (False,)


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariable):
        m.evaluate(m.parse("x = y"), m.Assignment({"x": B}))


def test_eval_permutation_invariance(ex1):
    f = ex1.formula
    swapped = lang.Formula(tuple(reversed(f.literals)))
    a = m.evaluate(f, ex1.assignment).results
    b = m.evaluate(swapped, ex1.assignment).results
    assert a == tuple(reversed(b))


def test_drop_finite_literals():
    f = m.parse("w in x & !Finite(x)")
    assert drop_finite_literals(f).literals == (
        lang.Literal(lang.IN, ("w", "x")),)
    assert drop_finite_literals(m.parse("Finite(x)")).literals == ()
    f = m.parse("x = y")
    assert drop_finite_literals(f).literals == f.literals
    g = drop_finite_literals(m.parse("w in x & !Finite(x)"))
    assert drop_finite_literals(g).literals == g.literals
