"""Command-line surface.

Exit codes: 0 sat/witnessed or check passed, 1 unsat-within-budget or check
failed, 2 unknown, 3 bad input (bounds out of range too), 4 internal failure:
the input was read and checked, then the library failed on it, or an
exception that is no bad input escaped the library (its traceback goes to
stderr), so a crash never reads as a verdict.  `verify` and `pump` check a
certificate the same way, each claim on its own and without re-running the
prover (`certificate.check_certificate`), and read the same pumped verdict
(`PumpedExtension.ok`); `pump` refuses, as bad input (3), a certificate that
`verify` fails.  A malformed certificate, such as a field of the wrong JSON
type, is bad input (3) for both.  Only `pump` builds assembly families, so
only `pump` takes `--limit-pow`; every other command rejects the flag as
bad input (3).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import hf, lang
from .certificate import MAX_CYCLE_LEN, check_certificate, verify_certificate
from .errors import LimitExceeded, MlsspfError
from .process import FormativeProcess, synthesize_process, validate_process
from .pumping import certify_witness, extend_certificate
from .solver import SAT_MODEL, SAT_WITNESSED, UNKNOWN, SearchBudget, decide
from .venn import (Assignment, canonical_board, is_transitive, transitivize,
                   venn_partition)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _emit(payload, args):
    text = hf.dumps(payload)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_formula(path) -> lang.Formula:
    with open(path) as fh:
        return lang.parse(fh.read())


def _read_model(path) -> Assignment:
    assignment, dup_vars = Assignment.from_json(_read_json(path))
    for v in dup_vars:
        print(f"warning: duplicate elements in value of {v!r} were collapsed",
              file=sys.stderr)
    return assignment


def _read_transitive_model(path) -> Assignment:
    """The model, extended with a closure variable (and a note on stderr)
    when it is not transitive."""
    model = _read_model(path)
    if not model.is_transitive():
        model = transitivize(model)
        print("note: assignment extended with a closure variable",
              file=sys.stderr)
    return model


def _read_json(path):
    """The JSON value in the file; text nested deeper than `json` can read
    is bad input (ValueError)."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deep to read") from None


def cmd_parse(args):
    formula = _read_formula(args.file)
    _emit({
        "literals": [{"kind": lit.kind, "operands": list(lit.operands)}
                     for lit in formula.literals],
        "rendered": formula.render(),
        "vars": list(formula.vars),
        "duplicateLiterals": formula.has_duplicates,
    }, args)
    return EXIT_OK


def cmd_check_model(args):
    formula = _read_formula(args.formula)
    model = _read_model(args.model)
    report = lang.evaluate(formula, model)
    for lit, ok in zip(formula.literals, report.results):
        print(f"{'ok  ' if ok else 'FAIL'}  {lit.render()}", file=sys.stderr)
    _emit(report.to_json(), args)
    return EXIT_OK if report.satisfied else EXIT_FAIL


def cmd_venn(args):
    model = _read_model(args.model)
    blocks, im = venn_partition(model)
    _emit({"blocks": [hf.block_json(b) for b in blocks],
           "im": {v: sorted(ps) for v, ps in sorted(im.items())},
           "transitive": is_transitive(blocks)}, args)
    return EXIT_OK


def cmd_board(args):
    formula = _read_formula(args.formula)
    model = _read_transitive_model(args.model)
    _, im, board = canonical_board(formula, model)
    _emit(board.to_json(), args)
    return EXIT_OK


def cmd_process(args):
    flag, path = (("-m", args.model) if args.action == "synth"
                  else ("-p", args.process))
    if path is None:
        raise ValueError(f"process {args.action} needs {flag}")
    if args.action == "synth":
        model = _read_transitive_model(args.model)
        blocks, _ = venn_partition(model)
        proc = synthesize_process(blocks)
        _emit(proc.to_json(), args)
        return EXIT_OK
    proc = FormativeProcess.from_json(_read_json(args.process))
    report = validate_process(proc)
    print(report, file=sys.stderr)
    _emit(report.to_json(), args)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_witness(args):
    formula = _read_formula(args.formula)
    model = _read_model(args.model)
    cert = certify_witness(formula, model, args.max_cycle_len)
    _emit(cert.to_json(), args)
    return EXIT_OK


def cmd_pump(args):
    report, cert = check_certificate(_read_json(args.certificate))
    if not report.ok:
        raise MlsspfError(f"certificate does not check:\n{report}")
    try:
        extended = extend_certificate(cert, args.rounds, args.limit_pow)
    except LimitExceeded:
        # The user's own bound: bad input, as for every command.
        raise
    except MlsspfError as exc:
        # Every claim of the certificate checked, so the input is good and
        # the failure is the library's.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(extended.to_json(), args)
    return EXIT_OK if extended.pumped.ok else EXIT_FAIL


def cmd_decide(args):
    formula = _read_formula(args.file)
    budget = SearchBudget(
        max_rank=args.max_rank, max_universe=args.max_universe,
        max_cycle_len=args.max_cycle_len)
    result = decide(formula, budget)
    _emit(result.to_json(), args)
    if result.verdict in (SAT_MODEL, SAT_WITNESSED):
        return EXIT_OK
    if result.verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_FAIL


def cmd_verify(args):
    report = verify_certificate(_read_json(args.certificate))
    print(report, file=sys.stderr)
    _emit(report.to_json(), args)
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mlsspf",
        description="Decide and witness satisfiability of set-literal "
                    "conjunctions with powerset and finiteness constraints.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="PATH",
                       help="write the JSON result to PATH instead of stdout")

    p = sub.add_parser("parse", help="parse a formula file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("check-model", help="evaluate a formula under a model")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-m", "--model", required=True)
    common(p)
    p.set_defaults(func=cmd_check_model)

    p = sub.add_parser("venn", help="Venn partition of a model")
    p.add_argument("-m", "--model", required=True)
    common(p)
    p.set_defaults(func=cmd_venn)

    p = sub.add_parser("board", help="colored board of a model for a formula")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-m", "--model", required=True)
    common(p)
    p.set_defaults(func=cmd_board)

    p = sub.add_parser("process", help="synthesize or validate a process")
    p.add_argument("action", choices=["synth", "validate"])
    p.add_argument("-m", "--model", help="model file (synth)")
    p.add_argument("-p", "--process", help="process dump (validate)")
    common(p)
    p.set_defaults(func=cmd_process)

    p = sub.add_parser("witness", help="certify a witnessing assignment")
    p.add_argument("-f", "--formula", required=True)
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--max-cycle-len", type=int, default=MAX_CYCLE_LEN)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("pump", help="pump a certificate's event")
    p.add_argument("-c", "--certificate", required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument(
        "--limit-pow", type=int, default=hf.POW_LIMIT,
        help="cap on the assembly family of the pow-node dump, and on the "
             "assemblies a lazy pick examines")
    common(p)
    p.set_defaults(func=cmd_pump)

    p = sub.add_parser("decide", help="bounded search for a model or witness")
    p.add_argument("file")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-universe", type=int, default=4)
    p.add_argument("--max-cycle-len", type=int, default=MAX_CYCLE_LEN)
    common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("verify", help="re-check a certificate from JSON alone")
    p.add_argument("certificate")
    common(p)
    p.set_defaults(func=cmd_verify)
    return top


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (MlsspfError, OSError, json.JSONDecodeError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
