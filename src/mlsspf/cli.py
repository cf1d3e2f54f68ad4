"""Command-line surface.

Exit codes: 0 sat/witnessed or check passed, 1 unsat-within-budget or check
failed, 2 unknown, 3 bad input, 4 internal failure (the input was read and
checked, then the library failed on it).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import lang
from .errors import MlsspfError
from .limits import DEFAULT_LIMITS, Limits
from .process import FormativeProcess, synthesize_process, validate_process
from .pumping import (WitnessCertificate, certify_witness, extend_certificate,
                      verify_certificate)
from .solver import SAT_MODEL, SAT_WITNESSED, UNKNOWN, SearchBudget, decide
from .venn import Assignment, canonical_board, transitivize, venn_partition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _emit(payload, args):
    text = json.dumps(payload, sort_keys=True, indent=2)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_formula(path) -> lang.Formula:
    with open(path) as fh:
        return lang.parse(fh.read())


def _read_model(path) -> Assignment:
    with open(path) as fh:
        data = json.load(fh)
    assignment, dup_vars = Assignment.from_json(data)
    for v in dup_vars:
        print(f"warning: duplicate elements in value of {v!r} were collapsed",
              file=sys.stderr)
    return assignment


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _limits(args) -> Limits:
    pow_limit = getattr(args, "limit_pow", None) or DEFAULT_LIMITS.pow_limit
    return Limits(pow_limit=pow_limit)


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
    report = lang.evaluate(formula, model, _limits(args))
    for lit, ok in zip(formula.literals, report.results):
        print(f"{'ok  ' if ok else 'FAIL'}  {lit.render()}", file=sys.stderr)
    _emit(report.to_json(), args)
    return EXIT_OK if report.satisfied else EXIT_FAIL


def cmd_venn(args):
    model = _read_model(args.model)
    partition, im = venn_partition(model)
    _emit({"blocks": partition.to_json(), "im": im.to_json(),
           "transitive": partition.is_transitive()}, args)
    return EXIT_OK


def cmd_board(args):
    formula = _read_formula(args.formula)
    model = _read_model(args.model)
    partition, _ = venn_partition(model)
    if not partition.is_transitive():
        model = transitivize(model)
        print("note: assignment extended with a closure variable",
              file=sys.stderr)
    _, im, board = canonical_board(formula, model, _limits(args))
    _emit(board.to_json(), args)
    return EXIT_OK


def cmd_process(args):
    if args.action == "synth":
        model = _read_model(args.model)
        partition, _ = venn_partition(model)
        if not partition.is_transitive():
            model = transitivize(model)
            partition, _ = venn_partition(model)
            print("note: assignment extended with a closure variable",
                  file=sys.stderr)
        proc = synthesize_process(partition)
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
    cert = certify_witness(formula, model, _limits(args),
                           max_cycle_len=args.max_cycle_len)
    _emit(cert.to_json(), args)
    return EXIT_OK


def _load_certificate(data) -> WitnessCertificate:
    formula = lang.parse(data["formula"])
    base, _ = Assignment.from_json(data["baseAssignment"])
    cert = certify_witness(
        formula, base,
        max_cycle_len=int(data.get("params", {}).get(
            "maxCycleLen", DEFAULT_LIMITS.max_cycle_len)))
    if json.dumps(cert.to_json(), sort_keys=True) != json.dumps(
            {k: v for k, v in data.items() if k != "pumped"}, sort_keys=True):
        raise MlsspfError("certificate does not match its own inputs")
    return cert


def cmd_pump(args):
    data = _read_json(args.certificate)
    cert = _load_certificate(data)
    try:
        extended = extend_certificate(cert, args.rounds, _limits(args),
                                      strict_three=args.strict_three)
    except MlsspfError as exc:
        # The certificate re-certified from its own inputs, so the input is
        # good and the failure is the library's.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit(extended.to_json(), args)
    ok = (extended.pumped.weak_report.ok and extended.pumped.transfer_report.ok
          and extended.pumped.upward_report.ok)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_decide(args):
    formula = _read_formula(args.file)
    budget = SearchBudget(
        max_rank=args.max_rank, max_universe=args.max_universe,
        max_cycle_len=args.max_cycle_len, limits=_limits(args))
    result = decide(formula, budget)
    _emit(result.to_json(), args)
    if result.verdict in (SAT_MODEL, SAT_WITNESSED):
        return EXIT_OK
    if result.verdict == UNKNOWN:
        return EXIT_UNKNOWN
    return EXIT_FAIL


def cmd_verify(args):
    data = _read_json(args.certificate)
    report = verify_certificate(data, _limits(args))
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
        p.add_argument("--limit-pow", type=int, default=None,
                       help="cap on materialized powerset/assembly families")

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
    p.add_argument("--max-cycle-len", type=int,
                   default=DEFAULT_LIMITS.max_cycle_len)
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("pump", help="pump a certificate's event")
    p.add_argument("-c", "--certificate", required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--strict-three", action="store_true",
                   help="require three available elements at every step")
    common(p)
    p.set_defaults(func=cmd_pump)

    p = sub.add_parser("decide", help="bounded search for a model or witness")
    p.add_argument("file")
    p.add_argument("--max-rank", type=int, default=4)
    p.add_argument("--max-universe", type=int, default=4)
    p.add_argument("--max-cycle-len", type=int,
                   default=DEFAULT_LIMITS.max_cycle_len)
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


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
