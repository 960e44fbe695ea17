"""Command-line surface: normal forms, confluence, Hopf suites, the full
contraction verification and the commutator solver.

Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from random import Random

from . import __version__, catalog, contract, rewrite, scalars
from .freealg import AlphabetMismatch, MissingImage
from .hopf import (
    ExcludedGenerator,
    HopfPresentation,
    central_residuals,
    grouplike_residual,
    run_hopf_suite,
)
from .parser import ParseError, parse_expression
from .reports import CheckRecord, CheckReport, report_to_json_dict
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


def _add_common(p: argparse.ArgumentParser, *read: str):
    """Register the options every command reads, and those of ``read``
    (``presentation``, ``seed``, ``max_overlap``, ``output``, ``timings``)
    that this one reads too: a command takes no option it would ignore."""
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


#: the parsed arguments a JSON report's ``config`` block carries, in order;
#: one the command does not take is null
_CONFIG_KEYS = ("presentation", "truncation_order", "step_limit", "seed",
                "max_overlap", "output")


def _load(args):
    return catalog.load_presentation(
        args.presentation, args.truncation_order, lam_zero=args.lam_zero)


def _as_checked(loaded: dict[str, HopfPresentation],
                args) -> dict[str, HopfPresentation]:
    """The loaded builtins as the suites check them: under --lam-zero the
    contracted algebras in their classical limit, while suq2 keeps its
    q-form (the contraction eliminates q itself)."""
    if not args.lam_zero:
        return loaded
    return {name: h if name == "suq2" else catalog.classical_limit(h)
            for name, h in loaded.items()}


def _builtins(args, names=catalog.BUILTIN_NAMES) -> dict[str, HopfPresentation]:
    """Each builtin of ``names`` loaded once, as the suites check it."""
    return _as_checked({name: catalog.load_presentation(
        f"builtin:{name}", args.truncation_order) for name in names}, args)


def _contraction_checks(b: dict[str, HopfPresentation]) -> CheckReport:
    """The contraction suite and the change of variables on the builtins."""
    report = contract.contraction_suite(b["suq2"], b["ekappa2-klmn"])
    report.extend(contract.verify_change_of_variables(
        b["ekappa2-klmn"], b["ekappa2-final"]))
    return report


def _emit(report: CheckReport, args) -> int:
    if args.output == "json":
        doc = report_to_json_dict(report, __version__, {
            k: getattr(args, k, None) for k in _CONFIG_KEYS})
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
    h = _load(args)
    base = h.base if isinstance(h, HopfPresentation) else h
    # the rules of a limit hold none of its zero parameters, so setting them
    # to 0 after the reduction is setting them to 0 before it
    print(catalog.at_zero(base.zero_params, parse_expression(
        args.expression, base.alphabet, base.params, args.truncation_order,
        base)))
    return EXIT_OK


def cmd_confluence(args) -> int:
    h = _load(args)
    base = h.base if isinstance(h, HopfPresentation) else h
    rep = check_local_confluence(base, args.max_overlap)
    report = CheckReport()
    for item in rep.items:
        amb = item.ambiguity
        word = "*".join(g.name for g in amb.word)
        if item.skipped:
            residual = (f"skipped: {len(amb.word)} letters exceed "
                        f"--max-overlap {args.max_overlap}")
        elif item.resolved:
            residual = "0"
        else:
            residual = f"{item.nf_left} != {item.nf_right}"
        report.add(CheckRecord(
            name=f"{base.name}/confluence/{word}"
                 f"[{amb.rule_i},{amb.rule_j},{amb.kind}]",
            ok=item.resolved, residual=residual))
    return _emit(report, args)


def cmd_hopf_check(args) -> int:
    h = _load(args)
    if not isinstance(h, HopfPresentation):
        raise catalog.PresentationFormatError("presentation has no Hopf data")
    report = _timed(lambda: run_hopf_suite(h, Random(args.seed)), args)
    return _emit(report, args)


def cmd_contract(args) -> int:
    return _emit(_timed(lambda: _contraction_checks(_builtins(args)), args),
                 args)


def cmd_solve_commutator(args) -> int:
    if args.ln and args.lam_zero:
        print("error: --ln is not supported with --lam-zero", file=sys.stderr)
        return EXIT_USAGE
    final = _builtins(args, ("ekappa2-final",))["ekappa2-final"]
    outcome, report = contract.solve_eta_etabar(final)
    if outcome.solution:
        for label, coeff in outcome.solution.items():
            report.add(CheckRecord(
                name=f"solver/eta-etabar/coefficient[{label}]",
                ok=True, residual=str(coeff), paper_eq="Eq. (35)",
                solved=True))
    if args.ln:
        ln = contract.solve_ln_commutator(args.truncation_order)
        report.add(CheckRecord(
            name="solver/L-N/status", ok=ln.ok, residual=ln.status))
        if ln.solution:
            for label, coeff in ln.solution.items():
                if not coeff.is_zero:
                    report.add(CheckRecord(
                        name=f"solver/L-N/coefficient[{label}]",
                        ok=True, residual=str(coeff), solved=True))
    return _emit(report, args)


def _catalog_report(args):
    """Load each builtin and check that its file is in canonical form;
    returns the report and the loaded presentations by name."""
    report = CheckReport()
    loaded = {}
    for name in catalog.BUILTIN_NAMES:
        try:
            h = catalog.load_presentation(f"builtin:{name}",
                                          args.truncation_order)
            if not isinstance(h, HopfPresentation):
                residual = "no Hopf data"
            elif (catalog.serialize_presentation(h)
                  != catalog.builtin_source(name)):
                residual = "not in canonical form"
            else:
                residual = "0"
                loaded[name] = h
        except (ValueError, OSError) as exc:  # unreadable or malformed
            residual = str(exc)
        report.add(CheckRecord(name=f"catalog/load/{name}",
                               ok=residual == "0", residual=residual))
    return report, loaded


def cmd_report(args) -> int:
    """The full verification pipeline over all builtins."""
    def run() -> CheckReport:
        report, loaded = _catalog_report(args)
        if not report.ok:
            return report

        b = _as_checked(loaded, args)
        suq2, klmn, final = (b[name] for name in catalog.BUILTIN_NAMES)

        # RTT generation against the reference relation set
        distinct = catalog.distinct_rtt_relations(suq2.base)
        reference = {str(x) for x in catalog.canonical_relation_forms(
            catalog.reference_rtt_relation_set(suq2.base), suq2.base)}
        got = {str(x) for x in distinct}
        report.add(CheckRecord(
            name="catalog/rtt/distinct-relations",
            ok=got == reference and len(distinct) == 6,
            residual="0" if got == reference else
            f"got {sorted(got)} expected {sorted(reference)}",
            paper_eq=catalog.TAG_RTT))
        for comp in catalog.rtt_relations(suq2.base):
            report.add_residual(
                f"catalog/rtt/reduces[{comp.row[0]}{comp.row[1]},"
                f"{comp.col[0]}{comp.col[1]}]",
                suq2.base.normal_form(comp.element), catalog.TAG_RTT)

        # confluence of the three builtins
        for h in (suq2, klmn, final):
            rep = check_local_confluence(h.base, args.max_overlap)
            report.add(CheckRecord(
                name=f"confluence/{h.base.name}",
                ok=rep.ok,
                residual="0" if rep.ok else
                f"{len(rep.unresolved())} unresolved ambiguities"))

        # Hopf suites
        rng = Random(args.seed)
        for h in (suq2, klmn, final):
            report.extend(run_hopf_suite(h, rng))

        # determinant is grouplike and central
        det = catalog.determinant_element(suq2.base)
        report.add_residual("suq2/determinant-grouplike",
                            grouplike_residual(suq2, det),
                            catalog.TAG_DETERMINANT)
        cen = central_residuals(suq2.base, det)
        report.add(CheckRecord(
            name="suq2/determinant-central",
            ok=all(r.is_zero for r in cen),
            residual="0" if all(r.is_zero for r in cen) else "nonzero",
            paper_eq=catalog.TAG_DETERMINANT))

        # contraction suites, change of variables, solver
        report.extend(_contraction_checks(b))
        report.extend(contract.solver_suite(final))
        return report

    return _emit(_timed(run, args), args)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qcontract",
        description="Exact symbolic checks for quantum-group presentations "
                    "and the kappa-contraction of quantum SU(2).")
    sub = ap.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    _add_common(p_nf, "presentation")
    p_nf.add_argument("expression")
    p_nf.set_defaults(fn=cmd_nf)

    p_conf = sub.add_parser("confluence", help="critical-pair resolution")
    _add_common(p_conf, "presentation", "max_overlap", "output")
    p_conf.set_defaults(fn=cmd_confluence)

    p_hopf = sub.add_parser("hopf-check", help="Hopf axiom suite")
    _add_common(p_hopf, "presentation", "seed", "output", "timings")
    p_hopf.set_defaults(fn=cmd_hopf_check)

    p_con = sub.add_parser("contract", help="order-by-order contraction run")
    _add_common(p_con, "output", "timings")
    p_con.set_defaults(fn=cmd_contract)

    p_solve = sub.add_parser("solve-commutator",
                             help="back-solve [eta, etabar] from coproducts")
    _add_common(p_solve, "output")
    p_solve.add_argument("--ln", action="store_true",
                         help="also back-solve the undetermined [L, N]")
    p_solve.set_defaults(fn=cmd_solve_commutator)

    p_rep = sub.add_parser("report", help="full verification pipeline")
    _add_common(p_rep, "seed", "max_overlap", "output", "timings")
    p_rep.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
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
