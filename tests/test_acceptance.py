"""Acceptance gate: one test per primary criterion, each printing a
pass/fail line.  Every tolerance is exact (residuals must be identically
zero); run with ``pytest tests/test_acceptance.py -v -s``."""

from pathlib import Path
from random import Random

import pytest
from rtt_lines import describe

from qcontract import catalog, contract
from qcontract.hopf import (
    central_residuals,
    check_coassociativity,
    check_convolution_on_element,
    check_counit_antipode,
    check_delta_respects_relations,
    check_star,
    grouplike_residual,
    run_hopf_suite,
)
from qcontract.rewrite import check_local_confluence, normal_form_random
from qcontract.sampling import random_element
from qcontract.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


def _record(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed {suffix}"


def pe_src(text):
    return catalog.parse_in(catalog.suq2_presentation(1).base, text)


def pe_tgt(text):
    return catalog.parse_in(catalog.ekappa2_klmn_presentation(1).base, text)


def _ansatz():
    return contract.ContractionAnsatz(catalog.suq2_presentation(1),
                                      catalog.ekappa2_klmn_presentation(1))


def _suite_records(*prefixes):
    """The contraction suite's records whose names start with one of
    ``prefixes``."""
    report = contract.contraction_suite(catalog.suq2_presentation(1),
                                        catalog.ekappa2_klmn_presentation(1))
    return [r for r in report.records if r.name.startswith(prefixes)]


def _change_of_variables():
    return contract.verify_change_of_variables(
        catalog.ekappa2_klmn_presentation(1),
        catalog.ekappa2_final_presentation(1))


def test_rtt_generation():
    suq2 = catalog.suq2_presentation(1).base
    distinct = catalog.distinct_rtt_relations(suq2)
    reference = {str(x) for x in catalog.canonical_relation_forms(
        catalog.reference_rtt_relation_set(suq2), suq2)}
    got = {str(x) for x in distinct}
    golden = (GOLDEN / "rtt_relations.txt").read_text()
    produced = "\n".join(
        describe(c) for c in catalog.rtt_relations(suq2)) + "\n"
    _record("rtt-generation",
            len(distinct) == 6 and got == reference and produced == golden,
            f"{len(distinct)} distinct classes, golden file exact")


def test_confluence_of_builtins():
    unresolved = 0
    for h in (catalog.suq2_presentation(1),
              catalog.ekappa2_klmn_presentation(1),
              catalog.ekappa2_final_presentation(1)):
        report = check_local_confluence(h.base, max_overlap=6)
        unresolved += len(report.failures())
    _record("confluence-three-builtins", unresolved == 0,
            "zero unresolved ambiguities at max_overlap 6")


def test_suq2_hopf_suite():
    h = catalog.suq2_presentation(1)
    ok = (check_delta_respects_relations(h).ok
          and check_coassociativity(h).ok
          and check_counit_antipode(h).ok
          and check_star(h).ok)
    det = catalog.determinant_element(h.base)
    ok = ok and grouplike_residual(h, det).is_zero
    ok = ok and all(r.is_zero for r in central_residuals(h.base, det))
    _record("suq2-hopf-suite", ok, "all residuals exactly 0")


def test_contraction_relations():
    ansatz = _ansatz()
    records = _suite_records("contract/relation/rtt[",
                             "contract/relation/determinant/")
    ok = all(r.ok for r in records) and len(records) == 34
    # raw first-order residuals, verbatim
    raw = {}
    for label, text in (("ab", "a*b - q*b*a"), ("ac", "a*c - q*c*a"),
                        ("bc", "b*c - c*b")):
        comps = ansatz.apply(pe_src(text)).eps_components()
        raw[label] = comps
    ok = ok and raw["ab"][0] == pe_tgt("[K,M]")
    ok = ok and raw["ab"][1] == pe_tgt("[K,i*N] + [L,M] - lam*M*K")
    ok = ok and raw["ac"][1] == pe_tgt("[L,M] - [K,i*N] - lam*M*K")
    ok = ok and raw["bc"][1] == pe_tgt("2*i*[N,M]")
    ok = ok and (raw["ab"][1] - raw["ac"][1]) == pe_tgt("2*[K,i*N]")
    ok = ok and (raw["ab"][1] + raw["ac"][1]) == pe_tgt(
        "2*[L,M] - 2*lam*M*K")
    _record("contraction-relations", ok,
            "16 components + determinant at eps^0, eps^1; raw patterns match")


def test_d_series():
    ansatz = _ansatz()
    d = ansatz.d_series
    ok = d.reduced == pe_tgt("K - eps*L")
    ok = ok and not d.reduced.contains_letter("J")
    comm = catalog.commutation_moves(ansatz.target.base)
    ok = ok and comm.normal_form(d.raw - d.display_form).is_zero
    rep = contract.check_rows(
        ansatz.target, ansatz.apply, None,
        [(text, "relation", pe_src(text), None, None)
         for text in ("a*d - 1 - q*b*c", "d*a - 1 - q^-1*b*c")],
        ansatz.checked_orders())
    ok = ok and rep.ok and len(rep) == 4
    _record("d-series", ok,
            "normal form K - eps*L; both determinant identities to order 1")


def test_contracted_coproducts_and_star():
    ansatz = _ansatz()
    squares = _suite_records("contract/coproduct-square/")
    ok = len(squares) == 8 and all(r.ok for r in squares)
    ok = ok and contract.verify_star_contraction(ansatz).ok
    cov = _change_of_variables()
    both_signs = [r for r in cov.records
                  if r.paper_eq in ("Eq. (16)", "Eq. (17)")]
    ok = ok and len(both_signs) == 4 and all(r.ok for r in both_signs)
    _record("contracted-coproducts-and-star", ok,
            "commuting squares at eps^0, eps^1 for a, b, c, d; both signs "
            "of the grouplike pair")


def test_change_of_variables():
    report = _change_of_variables()
    klmn = catalog.ekappa2_klmn_presentation(1)
    named = catalog.klmn_named_elements(klmn.base)
    star_exact = klmn.apply_star(named["eta"].definition) == \
        klmn.base.normal_form(named["etabar"].definition)
    _record("change-of-variables", report.ok and star_exact,
            f"{len(report)} identities, eta* = etabar exactly")


def test_solver():
    h_open = catalog.without_commutator_rule(
        catalog.ekappa2_final_presentation(1))
    basis = contract.standard_commutator_basis(h_open.base)
    outcome = contract.solve_commutator(h_open, "eta", "etabar", basis)
    lam = Scalar.param("lam", 1)
    zero = Scalar.zero(1)
    ok = outcome.status == "unique" and outcome.solution == {
        "eta": lam, "etabar": lam, "E-1": zero, "F-1": zero}
    final = catalog.ekappa2_final_presentation(1)
    ok = ok and check_local_confluence(final.base, 6).ok
    ok = ok and run_hopf_suite(final, Random(42)).ok
    _record("solver", ok,
            "coefficients (lam, lam, 0, 0); installed rule passes "
            "confluence and the full Hopf suite")


def test_property_suites():
    suq2 = catalog.suq2_presentation(1)
    klmn = catalog.ekappa2_klmn_presentation(1)
    final = catalog.ekappa2_final_presentation(1)
    presentations = [(suq2, ("q",)), (klmn, ("lam",)), (final, ("lam",))]
    failures = 0
    rng = Random(42)
    for h, params in presentations:
        for _ in range(200):
            x = random_element(rng, h.base, degree=4, params=params)
            nf = h.base.normal_form(x)
            if h.base.normal_form(nf) != nf:
                failures += 1
        for _ in range(500):
            x = random_element(rng, h.base, degree=5, params=params)
            if h.base.normal_form(x) != normal_form_random(h.base, x, rng):
                failures += 1
        for _ in range(200):
            x = random_element(rng, h.base, degree=3, params=params,
                               exclude=h.excluded)
            if not h.base.normal_form(
                    h.apply_star(h.apply_star(x)) - x).is_zero:
                failures += 1
            if not check_convolution_on_element(h, x):
                failures += 1
    _record("property-suites", failures == 0,
            "idempotence, strategy independence, star involution, "
            "convolution identities: zero failures")


def test_classical_limit():
    klmn0 = catalog.classical_limit(catalog.ekappa2_klmn_presentation(1))
    final0 = catalog.classical_limit(catalog.ekappa2_final_presentation(1))
    ok = contract.contraction_suite(catalog.suq2_presentation(1), klmn0).ok
    ok = ok and contract.verify_change_of_variables(klmn0, final0).ok
    ok = ok and contract.solver_suite(final0).ok
    for h in (klmn0, final0):
        ok = ok and check_local_confluence(h.base, 6).ok
        ok = ok and run_hopf_suite(h, Random(42)).ok
    # deformation rules degenerate to plain commutation
    for lhs_label in ("L*K", "L*M"):
        rule = next(r for r in klmn0.base.rules
                    if r.label.startswith(lhs_label))
        ok = ok and list(rule.rhs.terms) == [tuple(reversed(rule.lhs))]
    _record("classical-limit", ok,
            "lam = 0: target relations commute, every suite still passes")
