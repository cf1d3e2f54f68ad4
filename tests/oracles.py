"""Oracles that only the tests call: definitions the prover and the checker
do not read, against which tests compare what they compute.

`simulates_upwards` is the lemma oracle: upward simulation, which the
imitation that `relations.imitates` checks implies.  `finer_than`,
`drop_finite_literals`, `stage_universe` and `final_universe` are the plain
definitions the tests read partitions, formulas and processes by.  They
still import package helpers (`node_union`, `SignatureTable`, `subsets`).
`parse_by_character` is the reference parser: it reads the text one
character at a time and tracks the line and column of every token, which
`lang.parse` works out only for an error.
"""

from __future__ import annotations

import functools
import re

from mlsspf import hf, lang
from mlsspf.errors import FormulaSyntaxError
from mlsspf.report import ReportBuilder
from mlsspf.venn import SignatureTable, node_union, subsets


def simulates_upwards(board, bijection):
    """Does the image partition simulate the original upwards?

    Membership of one node union in another reduces to the home block of
    the union, so membership simulation over every node is equality of the
    two sides' node -> union home tables.  No checker runs this oracle of
    `imitates`, so it lists the nodes under each pow region.
    """
    rb = ReportBuilder()
    places = bijection.places
    rb.add("membership simulation",
           SignatureTable(bijection.source).union_homes(places)
           == SignatureTable(bijection.target).union_homes(places))

    ok_pow = True
    pow_nodes = {y for region in board.pow_regions for y in subsets(region)}
    for y in sorted(pow_nodes, key=sorted):
        p = hf.powerset(node_union(bijection.source, y))
        members = set(p.elements)
        x = frozenset(q for q in places if bijection.source[q] & members)
        if node_union(bijection.source, x) is not p:
            continue
        if node_union(bijection.target, x) is not hf.powerset(
                node_union(bijection.target, y)):
            ok_pow = False
    rb.add("powerset simulation on pow-nodes", ok_pow)

    rb.add("red cardinality simulation",
           all(len(bijection.target[q]) == len(bijection.source[q])
               for q in board.red))
    return rb.build()


def finer_than(fine, coarse) -> bool:
    """True iff every member of `coarse` is a union of members of `fine`."""
    fine = [frozenset(b) for b in fine]
    for a in map(frozenset, coarse):
        covered = set()
        for b in fine:
            if b <= a:
                covered |= b
        if covered != a:
            return False
    return True


def drop_finite_literals(formula):
    """The formula with every Finite/NotFinite literal removed, order kept."""
    return lang.Formula(tuple(
        lit for lit in formula.literals
        if lit.kind not in (lang.FINITE, lang.NOT_FINITE)))


def stage_universe(proc, mu) -> frozenset:
    """The elements a process has placed by stage mu."""
    return frozenset().union(*proc.stages[mu])


def final_universe(proc) -> frozenset:
    """The elements a process has placed by its last stage."""
    return stage_universe(proc, proc.xi)


_TOKEN_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    _TOKEN_NAME_RE.pattern + r"|<=|[=!{},()\\&\n]|[^\sA-Za-z_]")


def tokenize_by_character(text):
    """The tokens of `text` as (word, line, column), read one character at
    a time; raises FormulaSyntaxError at the first stray character."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(("\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", line, col)
        tok = m.group()
        if len(tok) == 1 and not (tok.isalnum() or tok in "_={}!,()\\&<"):
            raise FormulaSyntaxError(f"unexpected character {tok!r}", line, col)
        tokens.append((tok, line, col))
        col += len(tok)
        i = m.end()
    return tokens


def _shape(tokens):
    shape, operands = [], []
    for word, _, _ in tokens:
        if word not in lang.KEYWORDS and _TOKEN_NAME_RE.fullmatch(word):
            shape.append(None)
            operands.append(word)
        else:
            shape.append(word)
    return tuple(shape), operands


@functools.cache
def _template_shape(kind, arity):
    text = lang.Literal(kind, ("v",) * arity).render()
    return _shape(tokenize_by_character(text))[0]


def _literal(tokens, text):
    shape, operands = _shape(tokens)
    kinds = [kind for kind, arity in lang._ARITY.items()
             if shape == _template_shape(kind, arity)]
    if (not kinds and len(operands) >= 2
            and shape == _template_shape(lang.ENUM, len(operands))):
        kinds = [lang.ENUM]
    if not kinds:
        _, line, col = tokens[0]
        last, _, last_col = tokens[-1]
        source = text.split("\n")[line - 1][col - 1:last_col - 1 + len(last)]
        raise FormulaSyntaxError(f"not a literal: {source!r}", line, col)
    return lang.Literal(kinds[0], operands)


def parse_by_character(text):
    """`lang.parse` on the tokens of `tokenize_by_character`: the same
    Formula, or the same error at the same line and column."""
    literals, run = [], []
    for token in tokenize_by_character(text):
        if token[0] not in ("&", "\n"):
            run.append(token)
        elif run:
            literals.append(_literal(run, text))
            run = []
        elif token[0] == "&" and not literals:
            raise FormulaSyntaxError("expected a literal before '&'",
                                     *token[1:])
    if run:
        literals.append(_literal(run, text))
    if not literals:
        raise FormulaSyntaxError("empty formula", 1, 1)
    return lang.Formula(tuple(literals))
