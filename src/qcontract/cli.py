"""Command-line surface: each command parses its options, runs a suite
(those over the builtins from ``suites``) and prints the records.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from random import Random

from . import __version__, catalog, contract, rewrite, scalars, suites
from .freealg import AlphabetMismatch, MissingImage
from .hopf import ExcludedGenerator, HopfPresentation, run_hopf_suite
from .parser import ParseError, parse_expression
from .reports import REPORT_SCHEMA, CheckReport, report_to_json_dict
from .rewrite import (
    DEFAULT_STEP_LIMIT,
    OverlapBoundError,
    RuleOrientationError,
    StepLimitExceeded,
    check_local_confluence,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _positive_int(text: str) -> int:
    if not (text.isascii() and text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"invalid positive integer: {text!r}")
    return int(text)


class _Refused(argparse.Action):
    """An option that other commands take with a value, refused with its
    value: a command with a positional argument would otherwise read that
    value as the argument and name the wrong token as unrecognized."""

    def __call__(self, parser, namespace, values, option_string=None):
        namespace.refused = [*getattr(namespace, "refused", ()),
                             option_string, *([] if values is None
                                              else [values])]


class _Parser(argparse.ArgumentParser):
    """The top-level parser: refused options are unrecognized arguments,
    listed first."""

    def parse_known_args(self, args=None, namespace=None):
        args, extras = super().parse_known_args(args, namespace)
        return args, [*vars(args).pop("refused", ()), *extras]


def _add_options(p: argparse.ArgumentParser, *read: str):
    """Register the options every command reads, and those of ``read``
    (``presentation``, ``expression``, ``seed``, ``max_overlap``,
    ``output``, ``timings``, ``ln``) that this one reads too: a command
    takes no option it would ignore."""
    if "presentation" in read:
        p.add_argument("-p", "--presentation", default="builtin:suq2",
                       help="builtin:NAME or a presentation file path")
    p.add_argument("--order", type=int, default=1, dest="truncation_order",
                   choices=range(0, 5), metavar="{0..4}",
                   help="eps truncation order (default 1)")
    p.add_argument("--step-limit", type=_positive_int,
                   default=DEFAULT_STEP_LIMIT,
                   help="steps each normal form or expansion may take")
    if "seed" in read:
        p.add_argument("--seed", type=int, default=42)
    if "max_overlap" in read:
        p.add_argument("--max-overlap", type=int, default=6)
    if "output" in read:
        p.add_argument("--output", choices=("text", "json"), default="text")
    if "timings" in read:
        p.add_argument("--timings", action="store_true",
                       help="record wall-clock millis per check (off by "
                            "default so output is byte-identical across runs)")
    p.add_argument("--lam-zero", action="store_true",
                   help="work in the classical limit (lam = 0)")
    p.add_argument("--catalog-dir", default=None,
                   help="override the builtin presentation directory")
    if "ln" in read:
        p.add_argument("--ln", action="store_true",
                       help="also back-solve the undetermined [L, N]")
    if "expression" in read:
        p.add_argument("expression")
        for name in ("seed", "max_overlap", "output"):
            if name not in read:
                p.add_argument(f"--{name.replace('_', '-')}", nargs="?",
                               action=_Refused, help=argparse.SUPPRESS)


def _load(args, base: bool = False):
    """The presentation of ``-p``; with ``base``, a Hopf one's algebra."""
    h = catalog.load_presentation(
        args.presentation, args.truncation_order, lam_zero=args.lam_zero)
    return h.base if base and isinstance(h, HopfPresentation) else h


def _emit(report: CheckReport, args) -> int:
    if args.output == "json":
        # the config block carries the schema's keys in order; one the
        # command does not take is null
        doc = report_to_json_dict(report, __version__, {
            k: getattr(args, k, None)
            for k in REPORT_SCHEMA["properties"]["config"]["required"]})
        print(json.dumps(doc, indent=2))
    else:
        for r in report.records:
            mark = "  ok  " if r.ok else " FAIL "
            tag = f"  [{r.paper_eq}]" if r.paper_eq else ""
            line = f"[{mark.strip():4}] {r.name}{tag}"
            if not r.ok:
                line += f"  residual: {r.residual}"
            elif r.solved or r.residual not in ("0", ""):
                line += f"  = {r.residual}"
            print(line)
        n_fail = len(report.failures())
        print(f"checks: {len(report)}  failed: {n_fail}")
    return EXIT_OK if report.ok else EXIT_FAIL


def _timed(fn, args) -> CheckReport:
    if not args.timings:
        return fn()
    t0 = time.monotonic()
    report = fn()
    total = int((time.monotonic() - t0) * 1000)
    if report.records:
        report.records[-1].millis = total
    return report


# -- commands ----------------------------------------------------------------


def cmd_nf(args) -> int:
    base = _load(args, base=True)
    # the rules of a limit hold none of its zero parameters, so setting them
    # to 0 after the reduction is setting them to 0 before it
    print(catalog.at_zero(base.zero_params, parse_expression(
        args.expression, base.alphabet, base.params, args.truncation_order,
        base)))
    return EXIT_OK


def cmd_confluence(args) -> int:
    return _emit(check_local_confluence(_load(args, base=True),
                                        args.max_overlap), args)


def cmd_hopf_check(args) -> int:
    h = _load(args)
    if not isinstance(h, HopfPresentation):
        raise catalog.PresentationFormatError("presentation has no Hopf data")
    report = _timed(lambda: run_hopf_suite(h, Random(args.seed)), args)
    return _emit(report, args)


def cmd_contract(args) -> int:
    return _emit(_timed(lambda: suites.contraction(suites.builtins(
        args.truncation_order, args.lam_zero)), args), args)


def cmd_solve_commutator(args) -> int:
    if args.ln and args.lam_zero:
        print("error: --ln is not supported with --lam-zero", file=sys.stderr)
        return EXIT_USAGE
    report = contract.eta_etabar_solution(suites.builtins(
        args.truncation_order, args.lam_zero,
        ("ekappa2-final",))["ekappa2-final"])
    if args.ln:
        report.extend(contract.ln_solution(args.truncation_order))
    return _emit(report, args)


def cmd_report(args) -> int:
    """The full verification pipeline over all builtins."""
    return _emit(_timed(lambda: suites.report(
        args.truncation_order, args.seed, args.max_overlap, args.lam_zero),
        args), args)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given a command's name, one that holds
    only that command, which parses that command alike (its help and usage
    errors too) at a fraction of the cost."""
    ap = _Parser(
        prog="qcontract",
        description="Exact symbolic checks for quantum-group presentations "
                    "and the kappa-contraction of quantum SU(2).")
    # each command: its help line, the function it runs, the options it reads
    commands = {
        "nf": ("normal form of an expression", cmd_nf,
               ("presentation", "expression")),
        "confluence": ("critical-pair resolution", cmd_confluence,
                       ("presentation", "max_overlap", "output")),
        "hopf-check": ("Hopf axiom suite", cmd_hopf_check,
                       ("presentation", "seed", "output", "timings")),
        "contract": ("order-by-order contraction run", cmd_contract,
                     ("output", "timings")),
        "solve-commutator": ("back-solve [eta, etabar] from coproducts",
                             cmd_solve_commutator, ("output", "ln")),
        "report": ("full verification pipeline", cmd_report,
                   ("seed", "max_overlap", "output", "timings")),
    }
    one = command in commands
    # the usage line names every command whichever ones are built; errors
    # naming the action itself arise only when no command is named
    sub = ap.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser,
        metavar="{" + ",".join(commands) + "}" if one else None)
    for name, (help_line, fn, read) in commands.items():
        if one and name != command:
            continue
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(fn=fn)
        _add_options(p, *read)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser(argv[0] if argv else None)
    args = ap.parse_args(argv)
    try:
        # every normal form and expansion of the command draws this limit,
        # its scalar tables start and end empty, and every builtin it loads
        # is read from this directory
        with rewrite.step_limit(args.step_limit), scalars.fresh_tables(), \
                catalog.builtin_dir(args.catalog_dir):
            code = args.fn(args)
    except StepLimitExceeded as exc:
        print(f"step limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, catalog.PresentationFormatError, AlphabetMismatch,
            MissingImage, RuleOrientationError, OverlapBoundError,
            scalars.NumberTooLong, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (contract.AdjointResidue, contract.UnknownCommutatorNeeded,
            ExcludedGenerator) as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
