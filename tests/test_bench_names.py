"""The package names the benchmark worker reads, checked against the
package.  `bench/worker.py` imports `mlsspf as m` and `mlsspf.lang as lang`;
a public name it reads that moved or went, or a call of it whose arguments
no longer bind, would fail every benchmark pass and fails here first.  The
worker's source is only parsed, never run or written."""

import ast
import inspect
from pathlib import Path

import mlsspf
from mlsspf import lang

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"
ROOTS = {"m": mlsspf, "lang": lang}


def _chain(node):
    """(root, attribute names) of an attribute chain read off a root of
    ROOTS, such as ("m", ["HfSet", "_intern"]), else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if names and isinstance(node, ast.Name) and node.id in ROOTS:
        return node.id, names[::-1]
    return None


def _resolve(root, names):
    value = ROOTS[root]
    for name in names:
        value = getattr(value, name)
    return value


def test_worker_reads_only_names_the_package_has():
    tree = ast.parse(WORKER.read_text())
    chains = [c for c in map(_chain, ast.walk(tree)) if c is not None]
    calls = [(chain, node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (chain := _chain(node.func)) is not None]
    # The worker reads at least these; an empty scan would check nothing.
    assert ("m", ["SearchBudget"]) in chains
    assert ("lang", ["NOT_FINITE"]) in chains
    assert any(chain == ("m", ["extend_certificate"]) for chain, _ in calls)

    problems = []
    for root, names in chains:
        try:
            _resolve(root, names)
        except AttributeError as exc:
            problems.append(f"{root}.{'.'.join(names)}: {exc}")
    for (root, names), node in calls:
        # A starred argument has no count to bind.
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        try:
            signature = inspect.signature(_resolve(root, names))
            signature.bind(*node.args, **{k.arg: k for k in node.keywords})
        except (AttributeError, TypeError, ValueError) as exc:
            problems.append(f"line {node.lineno}: {root}.{'.'.join(names)}"
                            f"(...): {exc}")
    assert problems == []
