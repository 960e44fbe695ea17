"""The phases of ``qcontract report``, in order, and the loaders they
share.  The single commands run the same phases.  Each suite is called
through its module, so a wrapper installed there sees the call.
"""

from __future__ import annotations

from functools import partial
from random import Random

from . import catalog, contract, hopf, rewrite
from .reports import CheckRecord, CheckReport

Builtins = dict[str, hopf.HopfPresentation]


def catalog_report(order: int) -> tuple[CheckReport, Builtins]:
    """Load each builtin and check that its file is in canonical form;
    returns the report and the loaded presentations by name."""
    report = CheckReport()
    loaded = {}
    for name in catalog.BUILTIN_NAMES:
        try:
            h = catalog.load_presentation(f"builtin:{name}", order)
            if not isinstance(h, hopf.HopfPresentation):
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


def as_checked(loaded: Builtins, lam_zero: bool) -> Builtins:
    """The loaded builtins as the suites check them: under ``lam_zero`` the
    contracted algebras in their classical limit, while suq2 keeps its
    q-form (the contraction eliminates q itself)."""
    if not lam_zero:
        return loaded
    return {name: h if name == "suq2" else catalog.classical_limit(h)
            for name, h in loaded.items()}


def builtins(order: int, lam_zero: bool,
             names=catalog.BUILTIN_NAMES) -> Builtins:
    """Each builtin of ``names`` loaded once, as the suites check it."""
    return as_checked({n: catalog.load_presentation(f"builtin:{n}", order)
                       for n in names}, lam_zero)


# -- the phases of report, in order; each takes the checked builtins ---------


def rtt(b: Builtins) -> CheckReport:
    """RTT generation against the reference relation set, and each
    generated relation reduced to 0."""
    base = b["suq2"].base
    report = CheckReport()
    distinct = catalog.distinct_rtt_relations(base)
    reference = {str(x) for x in catalog.canonical_relation_forms(
        catalog.reference_rtt_relation_set(base), base)}
    got = {str(x) for x in distinct}
    report.add(CheckRecord(
        name="catalog/rtt/distinct-relations",
        ok=got == reference and len(distinct) == 6,
        residual="0" if got == reference else
        f"got {sorted(got)} expected {sorted(reference)}",
        paper_eq=catalog.TAG_RTT))
    for comp in catalog.rtt_relations(base):
        report.add_residual(
            f"catalog/rtt/reduces[{comp.row[0]}{comp.row[1]},"
            f"{comp.col[0]}{comp.col[1]}]",
            base.normal_form(comp.element), catalog.TAG_RTT)
    return report


def confluence(b: Builtins, max_overlap: int) -> CheckReport:
    """One record per builtin: how many of its ambiguities fail."""
    report = CheckReport()
    for h in b.values():
        failed = len(rewrite.check_local_confluence(
            h.base, max_overlap).failures())
        report.add(CheckRecord(
            name=f"confluence/{h.base.name}", ok=not failed,
            residual=f"{failed} unresolved ambiguities" if failed else "0"))
    return report


def hopf_suites(b: Builtins, seed: int) -> CheckReport:
    """The Hopf suite of each builtin, all drawing from one ``Random``."""
    rng = Random(seed)
    return CheckReport([r for h in b.values()
                        for r in hopf.run_hopf_suite(h, rng).records])


def determinant(b: Builtins) -> CheckReport:
    """The quantum determinant of suq2 is grouplike and central."""
    suq2 = b["suq2"]
    det = catalog.determinant_element(suq2.base)
    report = CheckReport()
    report.add_residual("suq2/determinant-grouplike",
                        hopf.grouplike_residual(suq2, det),
                        catalog.TAG_DETERMINANT)
    central = all(r.is_zero for r in hopf.central_residuals(suq2.base, det))
    report.add(CheckRecord(
        name="suq2/determinant-central", ok=central,
        residual="0" if central else "nonzero",
        paper_eq=catalog.TAG_DETERMINANT))
    return report


def contraction(b: Builtins) -> CheckReport:
    """The contraction suite and the change of variables."""
    report = contract.contraction_suite(b["suq2"], b["ekappa2-klmn"])
    report.extend(contract.verify_change_of_variables(
        b["ekappa2-klmn"], b["ekappa2-final"]))
    return report


def solver(b: Builtins) -> CheckReport:
    return contract.solver_suite(b["ekappa2-final"])


def report(order: int, seed: int, max_overlap: int,
           lam_zero: bool) -> CheckReport:
    """The full verification: the catalog check, and when every builtin
    loads, each phase on them in turn."""
    checks, loaded = catalog_report(order)
    if not checks.ok:
        return checks
    b = as_checked(loaded, lam_zero)
    for phase in (rtt, partial(confluence, max_overlap=max_overlap),
                  partial(hopf_suites, seed=seed), determinant, contraction,
                  solver):
        checks.extend(phase(b))
    return checks
