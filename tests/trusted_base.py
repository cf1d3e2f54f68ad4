"""Print the trusted base of `verify` (run from the repo root:
`python3 tests/trusted_base.py`).

The trusted base is every named package function and method that
`verify_certificate` enters on 195 certificates: those of the 13
witness-family instances, unpumped and pumped 0-3 rounds, and those of the
65 `wide_instance` seeds of `golden/certified_wide.json` that certify,
unpumped and pumped one round.  A function's span is its source lines from
its `def` to its last line, docstring included; nested functions count
again inside their parents.  Code lines are the span's lines that are not
blank, comment or docstring.  Lambdas and comprehensions are not named
functions, and the methods `dataclass` writes have no package source.
"""

import ast
import json
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import mlsspf as m  # noqa: E402
from conftest import wide_instance, witness_family  # noqa: E402

PACKAGE = pathlib.Path(m.__file__).parent


def certificates() -> list:
    """The JSON texts of the 195 certificates."""
    out = []
    for formula, assignment in witness_family():
        cert = m.certify_witness(formula, assignment)
        out += [cert] + [m.extend_certificate(cert, k) for k in range(4)]
    entries = json.loads((ROOT / "tests" / "golden" / "certified_wide.json")
                         .read_text())["entries"]
    for entry in entries:
        if ":" not in entry["outcome"]:
            cert = m.certify_witness(*wide_instance(entry["seed"]))
            out += [cert, m.extend_certificate(cert, 1)]
    return [cert.dumps() for cert in out]


def entered(texts) -> set:
    """(file, first line) of the code of every package function that
    `verify_certificate` enters on the texts."""
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(PACKAGE)):
            seen.add((code.co_filename, code.co_firstlineno))

    for text in texts:
        data = json.loads(text)
        sys.setprofile(profile)
        try:
            m.verify_certificate(data)
        finally:
            sys.setprofile(None)
    return seen


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def measure(seen):
    """(functions, span lines, code lines, span lines per module)."""
    functions = span = code = 0
    per_module = Counter()
    for path in sorted({f for f, _ in seen}):
        source = pathlib.Path(path).read_text()
        text = source.splitlines()
        tree = ast.parse(source)
        docs = _docstring_lines(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # A code object's first line is that of its first decorator.
            first = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            if (path, first) not in seen:
                continue
            lines = range(node.lineno, node.end_lineno + 1)
            functions += 1
            span += len(lines)
            per_module[pathlib.Path(path).name] += len(lines)
            code += sum(1 for n in lines
                        if n not in docs and text[n - 1].strip()
                        and not text[n - 1].strip().startswith("#"))
    return functions, span, code, per_module


def main():
    texts = certificates()
    functions, span, code, per_module = measure(entered(texts))
    print(f"{len(texts)} certificates")
    print(f"{functions} functions, {span} lines, {code} code lines")
    for name, lines in per_module.most_common():
        print(f"  {name:16} {lines}")


if __name__ == "__main__":
    main()
