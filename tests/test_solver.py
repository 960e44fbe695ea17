import pytest

from qcontract import catalog, contract
from qcontract.hopf import check_delta_respects_relations, HopfPresentation
from qcontract.rewrite import check_local_confluence
from qcontract.scalars import Scalar


@pytest.fixture(scope="module")
def open_final(final):
    return catalog.without_commutator_rule(final)


@pytest.fixture(scope="module")
def basis(final):
    return contract.standard_commutator_basis(final.base)


class TestEtaEtabarSolver:
    def test_unique_solution_matches_expected_coefficients(self, open_final,
                                                           basis):
        outcome = contract.solve_commutator(open_final, "eta", "etabar",
                                            basis)
        assert outcome.status == "unique"
        lam = Scalar.param("lam", 1)
        zero = Scalar.zero(1)
        assert outcome.solution["eta"] == lam
        assert outcome.solution["etabar"] == lam
        assert outcome.solution["E-1"] == zero
        assert outcome.solution["F-1"] == zero

    def test_restricted_basis_inconsistent(self, open_final, basis):
        small = {k: v for k, v in basis.items() if k in ("E-1", "F-1")}
        outcome = contract.solve_commutator(open_final, "eta", "etabar",
                                            small)
        assert outcome.status == "inconsistent"
        assert outcome.rank > 0

    def test_mutually_inverse_pair_commutes(self, open_final, basis):
        outcome = contract.solve_commutator(open_final, "E", "F", basis)
        assert outcome.status == "unique"
        assert all(v.is_zero for v in outcome.solution.values())

    def test_redundant_basis_reports_free_directions(self, open_final,
                                                     basis):
        extended = dict(basis)
        extended["2eta"] = basis["eta"].scaled(2)
        outcome = contract.solve_commutator(open_final, "eta", "etabar",
                                            extended)
        assert outcome.status == "underdetermined"
        assert outcome.free
        labels = {label for label, _deg in outcome.free}
        assert labels <= {"eta", "2eta"}

    def test_solution_installs_as_the_shipped_rule(self, open_final, basis):
        outcome = contract.solve_commutator(open_final, "eta", "etabar",
                                            basis)
        rule = contract.commutator_rule_from_solution(
            outcome.solution, basis, "eta", "etabar", 1)
        shipped = catalog.ekappa2_final_presentation(1)
        match = next(r for r in shipped.base.rules if r.lhs == rule.lhs)
        assert rule.rhs == match.rhs

    def test_rebuilt_presentation_passes_confluence_and_hopf(self, open_final,
                                                             basis):
        from qcontract.rewrite import Presentation
        outcome = contract.solve_commutator(open_final, "eta", "etabar",
                                            basis)
        rule = contract.commutator_rule_from_solution(
            outcome.solution, basis, "eta", "etabar", 1)
        base = Presentation(open_final.base.alphabet,
                            list(open_final.base.rules) + [rule], 1,
                            name="rebuilt-final")
        rebuilt = HopfPresentation(
            base=base, coproduct=open_final.coproduct,
            counit=open_final.counit, antipode=open_final.antipode,
            star=open_final.star, excluded=open_final.excluded,
            name="rebuilt-final")
        assert check_local_confluence(base, 6).ok
        assert check_delta_respects_relations(rebuilt).ok

    def test_solver_suite_passes(self, final):
        report = contract.solver_suite(final)
        assert report.ok

    def test_solve_eta_etabar_solves_the_open_variant(self, final,
                                                      open_final, basis):
        outcome, report = contract.solve_eta_etabar(final)
        assert outcome == contract.solve_commutator(open_final, "eta",
                                                    "etabar", basis)
        assert [(r.name, r.ok, r.residual) for r in report.records] == [
            ("solver/eta-etabar/status", True, "unique")]

    def test_classical_limit_solution_is_zero(self):
        open0 = catalog.classical_limit(catalog.without_commutator_rule(
            catalog.ekappa2_final_presentation(1)))
        basis0 = contract.standard_commutator_basis(open0.base)
        outcome = contract.solve_commutator(open0, "eta", "etabar", basis0)
        assert outcome.status == "unique"
        assert all(v.is_zero for v in outcome.solution.values())


class TestLnSolver:
    def test_km_only_ansatz_is_inconsistent(self):
        # the K, M, N basis without the words that hold N
        km = {label: x for label, x in contract.ln_basis_kmn(1).items()
              if "N" not in label}
        assert list(km) == ["1", "M", "K", "K*M", "K*K", "K*K*M", "K*K*K"]
        outcome = contract.solve_ln_commutator(1, basis=km)
        assert outcome.status == "inconsistent"

    def test_kmn_ansatz_finds_the_commutator(self):
        outcome = contract.solve_ln_commutator(1)
        assert outcome.status == "unique"
        lam = Scalar.param("lam", 1)
        nonzero = {k: v for k, v in outcome.solution.items()
                   if not v.is_zero}
        assert nonzero == {"K*N": lam}

    def test_extension_reverifies(self):
        basis = contract.ln_basis_kmn(1)
        outcome = contract.solve_ln_commutator(1, basis=basis)
        p_ext = contract.klmn_with_ln_rule(outcome.solution, basis, 1)
        assert check_local_confluence(p_ext, 6).ok
        named = catalog.klmn_named_elements(p_ext)
        eta = named["eta"].definition
        etabar = named["etabar"].definition
        lam = Scalar.param("lam", 1)
        residual = p_ext.normal_form(
            (eta * etabar - etabar * eta) - (etabar + eta).scaled(lam))
        assert residual.is_zero

    def test_extension_is_coproduct_consistent(self):
        # the solved [L, N] must also respect the coproducts
        basis = contract.ln_basis_kmn(1)
        outcome = contract.solve_ln_commutator(1, basis=basis)
        p_ext = contract.klmn_with_ln_rule(outcome.solution, basis, 1)
        klmn = catalog.ekappa2_klmn_presentation(1)
        extended = HopfPresentation(
            base=p_ext, coproduct=klmn.coproduct, counit=klmn.counit,
            antipode=klmn.antipode, star=klmn.star, excluded=klmn.excluded,
            name="klmn+LN")
        assert check_delta_respects_relations(extended).ok

    def test_final_rule_realizes_after_extension(self):
        # with [L, N] installed, the etabar*eta rule becomes derivable in
        # the linear variables
        basis = contract.ln_basis_kmn(1)
        outcome = contract.solve_ln_commutator(1, basis=basis)
        p_ext = contract.klmn_with_ln_rule(outcome.solution, basis, 1)
        final = catalog.ekappa2_final_presentation(1)
        realize = catalog.final_to_klmn_map(final.base, p_ext)
        rule = next(r for r in final.base.rules
                    if r.label.startswith("etabar*eta"))
        residual = p_ext.normal_form(
            realize.apply(rule.as_element(final.base.alphabet)))
        assert residual.is_zero
