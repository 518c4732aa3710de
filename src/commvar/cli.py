"""Command-line driver.

Subcommands:

  generate   emit a seeded exactly-commuting tuple as JSON
  stratify   read a tuple from stdin or a file, report rank, chart, trace
             split and decomposition type
  verify     run a named verification suite and report a pass/fail summary
  poincare   print the flag-manifold graded dimension tables at an odd prime

Exit codes: 0 success, 1 suite failure, 2 invalid input, 3 stratum or
tolerance error.  A command handler raises on bad input and returns only 0
or 1; `main` alone maps an exception to exit 2 or 3 and prints its
{"error", "message"} body.  A reader that closes stdout early ends the
output quietly with the command's own exit code.  The seed of generate and
verify falls back to the COMMVAR_SEED environment variable, then to 0.
Identical (command, seed, config) invocations give byte-identical JSON for
one numpy and BLAS build, kernel and thread count (README, Determinism).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import jsonio
from .commodel import KINDS, joint_diagonalize
from .errors import CommVarError, InvalidTuple, NotOddPrime
from .generate import gen_random_commuting
from .isodecomp import decomposition_type
from .numkit import Tolerances
from .rankstrata import subquotient_chart
from .verify import SUITES, RunConfig, run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_STRATUM = 3

# largest matrix size stratify accepts; an n = 0 tuple carries no matrix
# data, so nothing else bounds the O(s^2) memory and output of its report
MAX_STRATIFY_S = 256
# longest tuple generate prints and stratify takes (--n 16 --s 256: 46 MB)
MAX_GENERATE_N = 16


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
        p.add_argument("--output", choices=("json", "text"), default="json")

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
    ver.add_argument("--trials", type=int, default=RunConfig.trials)
    ver.add_argument("--n", type=int, default=RunConfig.n_max, help="cap on tuple length")
    ver.add_argument("--s", type=int, default=RunConfig.s_max,
                     help="cap on the size of a drawn tuple; a built one takes the size of a "
                          "pairing or of a universe, C(n + D, n) (README, verify)")
    ver.add_argument("--D", type=int, default=RunConfig.D_max, help="cap on truncation degree")
    for p in (gen, ver):  # the commands that read a seed
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: COMMVAR_SEED or 0)")
    for p in (strat, ver):  # the commands that take a Tolerances record
        p.add_argument("--tol-struct", type=float, default=None,
                       help="override the structural tolerance")
        p.add_argument("--tol-cluster", type=float, default=None,
                       help="override the eigenvalue clustering tolerance")

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


def _seed(args) -> int:
    """--seed, else the COMMVAR_SEED environment variable (unset or empty
    reads 0); a COMMVAR_SEED that is not an integer is invalid input."""
    raw = os.environ.get("COMMVAR_SEED") or "0"
    try:
        return args.seed if args.seed is not None else int(raw)
    except ValueError:
        raise ValueError(f"COMMVAR_SEED must be an integer, got {raw!r}") from None


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


def _emit(payload: dict, mode: str, text: list[str] | None = None):
    """Write payload as JSON (jsonio.dumps_tree, so Text leaves go out as they
    stand) or as text: the given lines, by default one "key: value" per entry."""
    if mode == "json":
        _write(jsonio.dumps_tree(payload))
    else:
        _write(*(text or (f"{key}: {value}" for key, value in payload.items())))


def cmd_generate(args) -> int:
    if not 0 <= args.n <= MAX_GENERATE_N or not 1 <= args.s <= MAX_STRATIFY_S:  # s as stratify
        raise ValueError(f"need 0 <= --n <= {MAX_GENERATE_N}, 1 <= --s <= {MAX_STRATIFY_S}")
    t = gen_random_commuting(_seed(args), args.n, args.s, args.kind)
    if args.output == "text":  # the scalar fields; the matrices are for JSON
        _emit({"n": t.n, "s": t.s, "kind": t.kind}, "text")
    else:
        _emit(jsonio.tuple_to_json(t, jsonio.matrix_texts), "json")
    return EXIT_OK


def cmd_stratify(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input) as fh:
            raw = fh.read()
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    t = jsonio.tuple_from_json(doc)
    if t.s < 1:
        raise ValueError("stratify needs matrices of size at least 1")
    if t.s > MAX_STRATIFY_S:
        raise ValueError(f"stratify accepts matrices of size at most {MAX_STRATIFY_S}")
    if t.n > MAX_GENERATE_N:
        raise ValueError(f"stratify accepts tuples of length at most {MAX_GENERATE_N}")
    tol = _tolerances(args)
    # one diagonalization validates the tuple once and serves the chart and
    # the decomposition type
    spectrum = joint_diagonalize(t, tol)
    parts = list(decomposition_type(t, tol, spectrum).parts)
    chart = subquotient_chart(t, tol, spectrum=spectrum) if t.kind == "unitary" else None
    rank, tau = (None, None) if chart is None else (chart.s, chart.tau.astype(float).tolist())
    if args.output == "text":  # the scalar fields; the matrices are for JSON
        _emit({"rank": rank, "decomposition_type": parts, "tau": tau}, "text")
        return EXIT_OK
    report = {"rank": rank, "chart": None, "split": None, "decomposition_type": parts}
    if chart is not None:
        enc = jsonio.matrix_texts
        report.update({"chart": {"X": jsonio.tuple_to_json(chart.X, enc),
                                 "f": enc(chart.f[None])[0]},
                       "split": {"traceless": jsonio.tuple_to_json(chart.traceless, enc),
                                 "tau": tau}})
    _emit(report, "json")
    return EXIT_OK


def cmd_poincare(args) -> int:
    from .cohomtab import MAX_P, a0_lambda_table, poly_text

    if args.p > MAX_P:  # before the primality test and the product
        raise ValueError(f"poincare accepts --p at most {MAX_P}")
    reduced = a0_lambda_table(args.p)
    poly = {0: 1, **reduced}  # the unit plus the reduced table, which starts at degree 2p - 3
    text = poly_text(poly)
    _emit({"p": args.p,
           "poincare": {str(d): c for d, c in poly.items()},
           "reduced": {str(d): c for d, c in reduced.items()},
           "string": text},
          args.output, [f"P(t) = {text}", f"reduced dimensions: {reduced}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in SUITES:
        raise ValueError(f"unknown suite {args.suite!r}")
    summary = run_suite(args.suite, RunConfig(seed=_seed(args), trials=args.trials,
                                              tol=_tolerances(args), n_max=args.n,
                                              s_max=args.s, D_max=args.D))
    _emit(summary, args.output,
          [f"suite {summary['suite']}: trials={summary['trials']} "
           f"failures={summary['failures']} worst={summary['worst_residual']:.3e}",
           *(f"  {sub['suite']}: failures={sub['failures']} worst={sub['worst_residual']:.3e}"
             for sub in summary.get("suites", []))])
    return EXIT_OK if summary["failures"] == 0 else EXIT_SUITE_FAILURE


def main(argv=None) -> int:
    """Run one command.  Handlers raise on bad input and return only 0 or 1;
    this is the one map from an exception to an exit code and its
    {"error", "message"} body."""
    args = build_parser().parse_args(argv)
    handlers = {"generate": cmd_generate, "stratify": cmd_stratify,
                "verify": cmd_verify, "poincare": cmd_poincare}
    try:
        return handlers[args.command](args)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            InvalidTuple, NotOddPrime) as exc:
        _emit({"error": "invalid_input", "message": str(exc)}, args.output)
        return EXIT_INVALID_INPUT
    except CommVarError as exc:
        _emit({"error": "stratum_error", "message": str(exc)}, args.output)
        return EXIT_STRATUM


def console_main():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
