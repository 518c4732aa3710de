"""Command-line driver.

Subcommands:

  generate   emit a seeded exactly-commuting tuple as JSON
  stratify   read a tuple from stdin or a file, report rank, chart, trace
             split and decomposition type
  verify     run a named verification suite and report a pass/fail summary

Exit codes: 0 success, 1 suite failure, 2 invalid input, 3 stratum or
tolerance error; a reader that closes stdout early ends the output quietly
with the command's own exit code.  The seed falls back to the COMMVAR_SEED
environment variable, then to 0.  Identical (command, seed, config)
invocations produce byte-identical JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .commodel import KINDS, joint_diagonalize
from .errors import CommVarError, InvalidTuple
from .generate import gen_random_commuting
from .isodecomp import block_type
from .numkit import Tolerances
from .rankstrata import chart_from_blocks
from .verify import SUITES, RunConfig, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_STRATUM = 3

# largest matrix size stratify accepts; an n = 0 tuple carries no matrix
# data, so nothing else bounds the O(s^2) memory and output of its report
MAX_STRATIFY_S = 256


def _env_seed() -> int:
    raw = os.environ.get("COMMVAR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="commvar",
        description="commuting-tuple models: generators, stratification, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: COMMVAR_SEED or 0)")
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--tol-struct", type=float, default=None,
                       help="override the structural tolerance")
        p.add_argument("--tol-cluster", type=float, default=None,
                       help="override the eigenvalue clustering tolerance")

    gen = sub.add_parser("generate", help="emit a seeded commuting tuple")
    add_common(gen)
    gen.add_argument("--kind", choices=KINDS, default="unitary")
    gen.add_argument("--n", type=int, default=2, help="tuple length")
    gen.add_argument("--s", type=int, default=4, help="matrix size")

    strat = sub.add_parser("stratify", help="rank, chart, split and type of a tuple")
    add_common(strat)
    strat.add_argument("--input", default="-", help="JSON file, '-' for stdin")

    ver = sub.add_parser("verify", help="run a verification suite")
    add_common(ver)
    ver.add_argument("--suite", default="all",
                     help=f"one of {', '.join(SUITES)} or 'all'")
    ver.add_argument("--trials", type=int, default=25)
    ver.add_argument("--n", type=int, default=3, help="cap on tuple length")
    ver.add_argument("--s", type=int, default=6, help="cap on matrix size")
    ver.add_argument("--D", type=int, default=2, help="cap on truncation degree")

    poin = sub.add_parser("poincare",
                          help="graded dimension tables of the complete "
                               "unordered flag manifold at an odd prime")
    add_common(poin)
    poin.add_argument("--p", type=int, required=True, help="odd prime")
    return parser


def _tolerances(args) -> Tolerances:
    kw = {}
    if args.tol_struct is not None:
        kw["eps_struct"] = args.tol_struct
    if args.tol_cluster is not None:
        kw["eps_cluster"] = args.tol_cluster
    return Tolerances(**kw)


def _write(*lines: str):
    """Print lines to stdout, the one writer of command output.  On a closed
    pipe, stdout moves to the null device, so neither a later write nor the
    exit flush fails again and the command keeps its own exit code."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(payload: dict, mode: str):
    if mode == "json":
        _write(jsonio.dumps(payload))
    else:
        _write(*(f"{key}: {value}" for key, value in payload.items()))


def _error_body(kind: str, message: str, mode: str):
    _emit({"error": kind, "message": message}, mode)


def cmd_generate(args) -> int:
    seed = args.seed if args.seed is not None else _env_seed()
    t = gen_random_commuting(seed, args.n, args.s, args.kind)
    _emit(jsonio.tuple_to_json(t), args.output)
    return EXIT_OK


def cmd_stratify(args) -> int:
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input) as fh:
                raw = fh.read()
        data = json.loads(raw)
        t = jsonio.tuple_from_json(data)
        if t.s < 1:
            raise ValueError("stratify needs matrices of size at least 1")
        if t.s > MAX_STRATIFY_S:
            raise ValueError(f"stratify accepts matrices of size at most {MAX_STRATIFY_S}")
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        _error_body("invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        _error_body("invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
    try:
        # one diagonalization validates the tuple once and serves the chart
        # and the decomposition type
        try:
            _, blocks = joint_diagonalize(t, tol)
        except InvalidTuple as exc:
            _error_body("invalid_input", str(exc), args.output)
            return EXIT_INVALID_INPUT
        report = {"rank": None, "chart": None, "split": None,
                  "decomposition_type": list(block_type(blocks).parts)}
        if t.kind == "unitary":
            chart = chart_from_blocks(t, blocks, tol)
            report.update({
                "rank": chart.s,
                "chart": {"X": jsonio.tuple_to_json(chart.X),
                          "f": jsonio.matrix_to_json(chart.f)},
                "split": {"traceless": jsonio.tuple_to_json(chart.traceless),
                          "tau": chart.tau.astype(float).tolist()},
            })
    except CommVarError as exc:
        _error_body("stratum_error", str(exc), args.output)
        return EXIT_STRATUM
    _emit(report, args.output)
    return EXIT_OK


def cmd_poincare(args) -> int:
    from .cohomtab import a0_lambda_table, poincare_poly
    from .errors import NotOddPrime

    try:
        poly = poincare_poly(args.p)
        reduced = a0_lambda_table(args.p)
    except NotOddPrime as exc:
        _error_body("invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
    if args.output == "json":
        _write(jsonio.dumps({
            "p": args.p,
            "poincare": {str(d): c for d, c in poly.to_dict().items()},
            "reduced": {str(d): c for d, c in reduced.items()},
            "string": str(poly),
        }))
    else:
        _write(f"P(t) = {poly}", f"reduced dimensions: {reduced}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        _error_body("invalid_input", f"unknown suite {args.suite!r}", args.output)
        return EXIT_INVALID_INPUT
    seed = args.seed if args.seed is not None else _env_seed()
    try:
        cfg = RunConfig(seed=seed, trials=args.trials, tol=_tolerances(args),
                        n_max=args.n, s_max=args.s, D_max=args.D)
    except ValueError as exc:
        _error_body("invalid_input", str(exc), args.output)
        return EXIT_INVALID_INPUT
    summary = run_suite(args.suite, cfg)
    if args.output == "json":
        _write(jsonio.dumps(summary))
    else:
        _write(f"suite {summary['suite']}: trials={summary['trials']} "
               f"failures={summary['failures']} worst={summary['worst_residual']:.3e}",
               *(f"  {sub['suite']}: failures={sub['failures']} "
                 f"worst={sub['worst_residual']:.3e}"
                 for sub in summary.get("suites", [])))
    return EXIT_OK if summary["failures"] == 0 else EXIT_SUITE_FAILURE


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "stratify": cmd_stratify,
        "verify": cmd_verify,
        "poincare": cmd_poincare,
    }
    return handlers[args.command](args)


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
