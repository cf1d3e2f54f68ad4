"""AST, parser and evaluator for conjunctions of set literals.

The fifteen literal kinds are written once, in the `_SYNTAX` table: each
kind's template and, for a negated kind, the kind it negates.  Parsing,
rendering, arity, keywords and negation all read that table.  A formula
is a conjunction of literals, written with '&' or newlines between them.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from . import hf
from .errors import ArityError, FormulaSyntaxError, UnboundVariable

EQ = "Eq"
NEQ = "Neq"
EQ_EMPTY = "EqEmpty"
NEQ_EMPTY = "NotEqEmpty"
UNION = "Union"
INTER = "Inter"
DIFF = "Diff"
SUBSETEQ = "Subseteq"
NOT_SUBSETEQ = "NotSubseteq"
IN = "In"
NOT_IN = "NotIn"
POW = "Pow"
ENUM = "Enum"
FINITE = "Finite"
NOT_FINITE = "NotFinite"

# Kind -> (template, the kind it negates).  Operands fill {0}, {1}, ...;
# an enumeration's {1} is its members joined by ", ".
_SYNTAX = {
    EQ: ("{0} = {1}", None),
    NEQ: ("!{0} = {1}", EQ),
    EQ_EMPTY: ("{0} = {{}}", None),
    NEQ_EMPTY: ("!{0} = {{}}", EQ_EMPTY),
    UNION: ("{0} = {1} U {2}", None),
    INTER: ("{0} = {1} I {2}", None),
    DIFF: ("{0} = {1} \\ {2}", None),
    SUBSETEQ: ("{0} <= {1}", None),
    NOT_SUBSETEQ: ("!{0} <= {1}", SUBSETEQ),
    IN: ("{0} in {1}", None),
    NOT_IN: ("!{0} in {1}", IN),
    POW: ("{0} = Pow({1})", None),
    ENUM: ("{0} = {{{1}}}", None),
    FINITE: ("Finite({0})", None),
    NOT_FINITE: ("!Finite({0})", FINITE),
}

NEGATES = {kind: base for kind, (_, base) in _SYNTAX.items() if base}

# Operands per kind; an enumeration takes a target and one or more members.
_ARITY = {
    kind: len(set(re.findall(r"\{\d\}", template)))
    for kind, (template, _) in _SYNTAX.items() if kind != ENUM
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

KEYWORDS = frozenset(
    word for template, _ in _SYNTAX.values() for word in _NAME_RE.findall(template))


@dataclass(frozen=True)
class Literal:
    """One (possibly negated) literal; operands are variable names."""

    kind: str
    operands: tuple

    def __post_init__(self):
        object.__setattr__(self, "operands", tuple(self.operands))
        if self.kind == ENUM:
            if len(self.operands) < 2:
                raise ArityError("enumeration literal needs a target and one member")
        elif self.kind in _ARITY:
            if len(self.operands) != _ARITY[self.kind]:
                raise ArityError(
                    f"{self.kind} takes {_ARITY[self.kind]} operands, got {len(self.operands)}")
        else:
            raise ArityError(f"unknown literal kind {self.kind!r}")
        if any(not v for v in self.operands):
            raise ArityError("variable names must be nonempty")

    def render(self) -> str:
        operands = self.operands
        if self.kind == ENUM:
            operands = (operands[0], ", ".join(operands[1:]))
        return _SYNTAX[self.kind][0].format(*operands)


@dataclass(frozen=True)
class Formula:
    """An ordered conjunction of literals."""

    literals: tuple
    vars: tuple = field(init=False)
    has_duplicates: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "literals", tuple(self.literals))
        names = sorted({v for lit in self.literals for v in lit.operands})
        object.__setattr__(self, "vars", tuple(names))
        object.__setattr__(
            self, "has_duplicates", len(set(self.literals)) != len(self.literals))

    def render(self) -> str:
        return " & ".join(lit.render() for lit in self.literals)


# A word is a name, '<=', a newline or one other character that is no
# space; the spaces before it, newlines aside, are skipped.  A stray
# character is one that no word of the syntax holds: no space, letter,
# digit, '_' or operator.  Digits and letters outside A-Z and a-z are
# words of their own, which no literal reads.
_WORD_RE = re.compile(r"[^\S\n]*(" + _NAME_RE.pattern + r"|<=|\n|\S)")
_STRAY_RE = re.compile(r"[^\s\w={}!,()\\&<]")


def _tokenize(text):
    """The words of `text`, in order; raises FormulaSyntaxError at its
    first stray character."""
    stray = _STRAY_RE.search(text)
    if stray:
        raise _error(text, stray.start(),
                     f"unexpected character {stray.group()!r}")
    return _WORD_RE.findall(text)


def _spans(text):
    """Where each word of `text` starts and ends."""
    return [m.span(1) for m in _WORD_RE.finditer(text)]


def _error(text, at, message):
    """The FormulaSyntaxError at text[at], its line and column from 1."""
    return FormulaSyntaxError(message, text.count("\n", 0, at) + 1,
                              at - text.rfind("\n", 0, at))


def _shape(words):
    """The words with each operand, a name that is no keyword, read as the
    placeholder None; and the operands in order.  A word is a name when
    its first character can start one."""
    shape, operands = [], []
    for word in words:
        if word[0] in _NAME_START and word not in KEYWORDS:
            shape.append(None)
            operands.append(word)
        else:
            shape.append(word)
    return tuple(shape), operands


@functools.lru_cache(maxsize=64)
def _template_shape(kind, arity):
    """The shape of a kind's template with `arity` operands."""
    text = Literal(kind, ("v",) * arity).render()
    return _shape(_tokenize(text))[0]


_SHAPES = {_template_shape(kind, arity): kind for kind, arity in _ARITY.items()}


def _literal(words, start, stop, text) -> Literal:
    """The literal whose template has the shape of words[start:stop] of
    `text`, which lie on one line; an enumeration of any length has its
    own."""
    shape, operands = _shape(words[start:stop])
    kind = _SHAPES.get(shape)
    if (kind is None and len(operands) >= 2
            and shape == _template_shape(ENUM, len(operands))):
        kind = ENUM
    if kind is None:
        spans = _spans(text)
        first, end = spans[start][0], spans[stop - 1][1]
        raise _error(text, first, f"not a literal: {text[first:end]!r}")
    return Literal(kind, operands)


def parse(text: str) -> Formula:
    """Parse the concrete syntax into a Formula; raises FormulaSyntaxError.

    The words are split into literals on runs of '&' and newlines.  The
    formula may open with newlines, not with '&', and may end with any run
    of separators.
    """
    words = _tokenize(text)
    literals, start = [], 0
    for k, word in enumerate(words):
        if word == "&" or word == "\n":
            if start < k:
                literals.append(_literal(words, start, k, text))
            elif word == "&" and not literals:
                raise _error(text, _spans(text)[k][0],
                             "expected a literal before '&'")
            start = k + 1
    if start < len(words):
        literals.append(_literal(words, start, len(words), text))
    if not literals:
        raise FormulaSyntaxError("empty formula", 1, 1)
    return Formula(tuple(literals))


@dataclass(frozen=True)
class SatisfactionReport:
    """Per-literal truth values under one assignment."""

    results: tuple
    satisfied: bool

    def to_json(self):
        return {"literals": list(self.results), "satisfied": self.satisfied}


def _lookup(assignment, var):
    try:
        return assignment.bindings[var]
    except KeyError:
        raise UnboundVariable(f"variable {var!r} is not bound") from None


# Truth of each kind that negates no other on its operands' values.  p =
# Pow(z) holds when p has 2^|z| members, each a subset of z: a set's members
# are distinct, so they are then all the subsets of z, and Pow(z) is never
# built.
_HOLDS = {
    EQ: lambda vals: vals[0] is vals[1],
    EQ_EMPTY: lambda vals: vals[0] is hf.EMPTY,
    UNION: lambda vals: vals[0] is hf.bool_op(vals[1], vals[2], "U"),
    INTER: lambda vals: vals[0] is hf.bool_op(vals[1], vals[2], "I"),
    DIFF: lambda vals: vals[0] is hf.bool_op(vals[1], vals[2], "\\"),
    SUBSETEQ: lambda vals: hf.subset(vals[0], vals[1]),
    IN: lambda vals: vals[0] in vals[1],
    POW: lambda vals: (len(vals[0]) == 1 << len(vals[1]) and all(
        hf.subset(x, vals[1]) for x in vals[0].elements)),
    ENUM: lambda vals: vals[0] is hf.make_set(vals[1:]),
    FINITE: lambda vals: True,
}


def eval_literal(lit: Literal, assignment) -> bool:
    """Truth of one literal under a finite assignment; a negated kind is
    the complement of the kind it negates.

    Finite(v) is true of every hereditarily finite value, so NotFinite is
    false under any assignment evaluated here; witnessing semantics for
    NotFinite live in the pumping machinery, not in this evaluator.
    """
    vals = [_lookup(assignment, v) for v in lit.operands]
    base = NEGATES.get(lit.kind)
    if base is None:
        return _HOLDS[lit.kind](vals)
    return not _HOLDS[base](vals)


def evaluate(formula: Formula, assignment) -> SatisfactionReport:
    """Evaluate every literal; satisfied means the assignment is a model."""
    results = tuple(eval_literal(lit, assignment) for lit in formula.literals)
    return SatisfactionReport(results, all(results))

