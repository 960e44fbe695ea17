import pytest

from qcontract import catalog, contract
from qcontract.contract import ContractionAnsatz, UnknownCommutatorNeeded
from qcontract.freealg import Element
from qcontract.scalars import Scalar


@pytest.fixture(scope="module")
def ansatz(suq2, klmn):
    return ContractionAnsatz(suq2, klmn)


@pytest.fixture(scope="module")
def suite(suq2, klmn):
    return contract.contraction_suite(suq2, klmn)


def relation_report(ansatz, rel, label):
    """The eps^0 and eps^1 records of one source relation, by the record
    loop the suite runs its relations through."""
    return contract.check_rows(ansatz.target, ansatz.apply, None,
                               [(label, "relation", rel, None, None)],
                               ansatz.checked_orders())


def pe_src(text, order=1):
    return catalog.parse_in(catalog.suq2_presentation(order).base, text)


def pe_tgt(text, order=1):
    return catalog.parse_in(catalog.ekappa2_klmn_presentation(order).base,
                            text)


class TestAnsatz:
    def test_generator_images(self, ansatz):
        assert ansatz.images["a"] == pe_tgt("K + eps*L")
        assert ansatz.images["b"] == pe_tgt("M + i*eps*N")
        assert ansatz.images["c"] == pe_tgt("M - i*eps*N")
        assert ansatz.images["d"] == pe_tgt("K - eps*L")

    def test_q_elimination(self, ansatz):
        x = pe_src("q*a")
        got = ansatz.apply(x)
        assert got == pe_tgt("(1 + lam*eps)*(K + eps*L)")

    def test_image_eps_support_is_first_order(self, ansatz):
        for name in ("a", "b", "c", "d"):
            degs = set(ansatz.images[name].eps_components())
            assert degs <= {0, 1}


class TestDSeries:
    def test_inverse_of_a(self, ansatz):
        assert ansatz.d_series.a_inverse == pe_tgt("J - eps*J*L*J")

    def test_reduced_orders(self, ansatz):
        comps = ansatz.d_series.reduced.eps_components()
        assert comps[0] == pe_tgt("K")
        assert comps[1] == pe_tgt("-L")

    def test_reduced_is_adjoint_free(self, ansatz):
        assert not ansatz.d_series.reduced.contains_letter("J")

    def test_raw_matches_display_up_to_commutation(self, ansatz):
        comm = catalog.commutation_moves(ansatz.target.base)
        diff = ansatz.d_series.raw - ansatz.d_series.display_form
        assert comm.normal_form(diff).is_zero
        # the difference is exactly the i eps J [N, M] term, which the
        # structural relations are not needed for
        assert diff == pe_tgt("i*eps*(J*N*M - J*M*N)")

    def test_determinant_identities_to_first_order(self, ansatz):
        report = contract.verify_d_series(ansatz)
        assert report.ok, [r.name for r in report.failures()]


class TestRelationContraction:
    def test_ab_relation_raw_residuals(self, ansatz):
        rel = pe_src("a*b - q*b*a")
        report = relation_report(ansatz, rel, "ab")
        assert report.ok
        raw0 = report.records[0].extra["raw"]
        raw1 = report.records[1].extra["raw"]
        assert pe_tgt(raw0) == pe_tgt("[K,M]")
        assert pe_tgt(raw1) == pe_tgt("[K,i*N] + [L,M] - lam*M*K")

    def test_ac_relation_raw_residual(self, ansatz):
        rel = pe_src("a*c - q*c*a")
        report = relation_report(ansatz, rel, "ac")
        assert report.ok
        raw1 = pe_tgt(report.records[1].extra["raw"])
        assert raw1 == pe_tgt("[L,M] - [K,i*N] - lam*M*K")

    def test_bc_relation_raw_residual(self, ansatz):
        rel = pe_src("b*c - c*b")
        report = relation_report(ansatz, rel, "bc")
        assert report.ok
        raw1 = pe_tgt(report.records[1].extra["raw"])
        assert raw1 == pe_tgt("2*i*[N,M]")

    def test_sum_and_difference_patterns(self, ansatz):
        # adding/subtracting the two mixed conditions isolates the single
        # commutators: [K, N] = 0 and [L, M] = (1/kappa) M K
        ab1 = ansatz.apply(pe_src("a*b - q*b*a")).eps_components()[1]
        ac1 = ansatz.apply(pe_src("a*c - q*c*a")).eps_components()[1]
        assert ab1 + ac1 == pe_tgt("2*[L,M] - 2*lam*M*K")
        assert ab1 - ac1 == pe_tgt("2*[K,i*N]")

    def test_determinant_contraction(self, ansatz):
        rel = pe_src("a*d - q*b*c - 1")
        report = relation_report(ansatz, rel, "det")
        assert report.ok
        raw0 = pe_tgt(report.records[0].extra["raw"])
        assert raw0 == pe_tgt("K*K - M*M - 1")

    def test_all_sixteen_components_and_determinant(self, suite):
        records = [r for r in suite.records if r.name.startswith(
            ("contract/relation/rtt[", "contract/relation/determinant/"))]
        assert all(r.ok for r in records), [
            r.name for r in records if not r.ok]
        # 17 relations x 2 orders
        assert len(records) == 34

    @pytest.mark.parametrize("text", [
        "a*b - q*b*a", "a*c - q*c*a", "b*c - c*b", "b*d - q*d*b",
        "c*d - q*d*c", "a*d - d*a - (q - q^-1)*b*c", "a*d - q*b*c - 1",
    ])
    def test_raw_expansion_against_sympy_series(self, ansatz, text):
        # independent oracle: substitute the ansatz with sympy
        # noncommutative symbols, expand exp(lam r) as a series in the
        # commutative variable r, and read off the r^0 and r^1 coefficients
        import sympy

        r, lam = sympy.symbols("r lam", commutative=True)
        K, L, M, N = sympy.symbols("K L M N", commutative=False)
        q_ser = 1 + lam * r + lam**2 * r**2 / 2
        subs = {
            "a": K + r * L,
            "b": M + sympy.I * r * N,
            "c": M - sympy.I * r * N,
            "d": K - r * L,
        }

        def to_sympy(elem):
            out = sympy.Integer(0)
            for word, sc in elem.terms.items():
                w = sympy.Integer(1)
                for g in word:
                    w = w * subs[g.name]
                for (mono, eps), gr in sc.terms.items():
                    assert eps == 0
                    coeff = sympy.Rational(gr.re) + sympy.I * sympy.Rational(
                        gr.im)
                    coeff *= q_ser ** mono.degree("q") if \
                        mono.degree("q") >= 0 else \
                        (q_ser ** mono.degree("q")).series(r, 0, 2).removeO()
                    out = out + coeff * w
            return sympy.expand(out)

        def engine_to_sympy(elem):
            names = {"K": K, "L": L, "M": M, "N": N}
            out = sympy.Integer(0)
            for word, sc in elem.terms.items():
                w = sympy.Integer(1)
                for g in word:
                    w = w * names[g.name]
                for (mono, eps), gr in sc.terms.items():
                    assert eps == 0
                    coeff = sympy.Rational(gr.re) + sympy.I * sympy.Rational(
                        gr.im)
                    coeff *= lam ** mono.degree("lam")
                    out = out + coeff * w
            return sympy.expand(out)

        rel = pe_src(text)
        comps = ansatz.apply(rel).eps_components()
        oracle = to_sympy(rel)
        for k in (0, 1):
            oracle_k = sympy.expand(oracle.coeff(r, k))
            mine_k = engine_to_sympy(
                comps.get(k, Element.zero(ansatz.target.base.alphabet, 1)))
            assert sympy.expand(oracle_k - mine_k) == 0, (text, k)


class TestCoproductSquare:
    def test_all_generators(self, suite):
        for g in ("a", "b", "c", "d"):
            records = [r for r in suite.records if r.name.startswith(
                f"contract/coproduct-square/{g}/")]
            assert len(records) == 2, g
            assert all(r.ok for r in records), g

    def test_b_order_zero_both_sides(self, ansatz, klmn):
        g = Element.generator(ansatz.source.base.alphabet, "b", 1)
        p2 = klmn.base.at_slots(2)
        lhs = ansatz.target.apply_coproduct(ansatz.apply(g))
        rhs = p2.normal_form(
            ansatz.apply_tensor(ansatz.source.apply_coproduct(g)))
        expected0 = p2.normal_form(pe_tgt("K ox M + M ox K"))
        assert lhs.eps_components()[0] == expected0
        assert rhs.eps_components()[0] == expected0

    def test_a_order_one_both_sides(self, ansatz, klmn):
        g = Element.generator(ansatz.source.base.alphabet, "a", 1)
        p2 = klmn.base.at_slots(2)
        lhs = ansatz.target.apply_coproduct(ansatz.apply(g))
        rhs = p2.normal_form(
            ansatz.apply_tensor(ansatz.source.apply_coproduct(g)))
        expected1 = p2.normal_form(pe_tgt(
            "K ox L + L ox K + i*N ox M - i*M ox N"))
        assert lhs.eps_components()[1] == expected1
        assert rhs.eps_components()[1] == expected1


class TestCoproductSquareOnRandomElements:
    def test_square_commutes_beyond_generators(self, ansatz, klmn):
        # homomorphy makes the generator-level square extend to arbitrary
        # elements; exercise the plumbing on random inputs anyway
        from random import Random

        from qcontract.sampling import random_element

        rng = Random(42)
        p2 = klmn.base.at_slots(2)
        zero = Element.zero(p2.alphabet, 1)
        for _ in range(20):
            x = random_element(rng, ansatz.source.base, degree=3,
                               params=("q",))
            lhs = ansatz.target.apply_coproduct(ansatz.apply(x))
            rhs = p2.normal_form(
                ansatz.apply_tensor(ansatz.source.apply_coproduct(x)))
            comps = (lhs - rhs).eps_components()
            for k in ansatz.checked_orders():
                assert p2.normal_form(comps.get(k, zero)).is_zero


class TestStarSquare:
    def test_suite(self, ansatz):
        report = contract.verify_star_contraction(ansatz)
        assert report.ok, [r.name for r in report.failures()]

    def test_b_star_pins_M_and_N_star(self, ansatz, klmn):
        # b* = -q c contracts to M* = -M, N* = -N - i lam M
        g = Element.generator(ansatz.source.base.alphabet, "b", 1)
        lhs = ansatz.apply(ansatz.source.star.apply(g))
        rhs = ansatz.target.star.apply(ansatz.apply(g))
        assert klmn.base.normal_form(lhs - rhs).is_zero
        # antilinearity: (i eps N)* = -i eps N* = i eps N - lam eps M
        assert rhs == pe_tgt("-M + i*eps*N - lam*eps*M")
        assert lhs == ansatz.apply(pe_src("-q*c"))

    def test_l_star_linked_to_mixed_relation(self, ansatz):
        report = contract.verify_star_determines_l(ansatz)
        assert report.ok
        assert report.records[0].extra["fired_mixed_rule"] == "True"


class TestChangeOfVariables:
    def test_full_suite(self, klmn, final):
        report = contract.verify_change_of_variables(klmn, final)
        assert report.ok, [(r.name, r.residual) for r in report.failures()]

    def test_eta_commutator_with_E(self, klmn):
        named = catalog.klmn_named_elements(klmn.base)
        eta = named["eta"].definition
        bigE = named["E"].definition
        one = Element.unit(klmn.base.alphabet, 1)
        lam = Scalar.param("lam", 1)
        residual = klmn.base.normal_form(
            (eta * bigE - bigE * eta) - (bigE - one).scaled(lam))
        assert residual.is_zero

    def test_eta_coproduct_form(self, klmn):
        named = catalog.klmn_named_elements(klmn.base)
        eta = named["eta"].definition
        bigF = named["F"].definition
        p2 = klmn.base.at_slots(2)
        from qcontract.freealg import tensor_embed
        lhs = klmn.apply_coproduct(eta)
        rhs = p2.normal_form(
            tensor_embed(klmn.base.normal_form(eta), 1)
            + tensor_embed(klmn.base.normal_form(bigF), 1)
            * tensor_embed(klmn.base.normal_form(eta), 2))
        assert lhs == rhs

    def test_eta_star_is_etabar(self, klmn):
        named = catalog.klmn_named_elements(klmn.base)
        got = klmn.apply_star(named["eta"].definition)
        assert got == klmn.base.normal_form(named["etabar"].definition)

    def test_commutator_rule_not_derivable_in_linear_variables(self, klmn):
        # realizing etabar*eta -> ... inside K,L,M,N leaves words L N that
        # only the undetermined [L, N] could reduce
        final = catalog.ekappa2_final_presentation(1)
        realize = catalog.final_to_klmn_map(final.base, klmn.base)
        rule = next(r for r in final.base.rules
                    if r.label.startswith("etabar*eta"))
        residual = klmn.base.normal_form(
            realize.apply(rule.as_element(final.base.alphabet)))
        assert not residual.is_zero
        assert residual.contains_adjacent("L", "N")


class TestAdjointResidue:
    def test_missing_inverse_relations_are_detected(self, klmn):
        # without K J -> 1 / J K -> 1 the d series cannot shed the adjoint
        from qcontract.hopf import HopfPresentation
        from qcontract.rewrite import Presentation
        rules = [r for r in klmn.base.rules
                 if not r.label.startswith(("K*J", "J*K"))]
        crippled_base = Presentation(klmn.base.alphabet, rules, 1,
                                     name="klmn-no-inverse")
        crippled = HopfPresentation(
            base=crippled_base, coproduct=klmn.coproduct, counit=klmn.counit,
            antipode=klmn.antipode, star=klmn.star, excluded=klmn.excluded,
            name="klmn-no-inverse")
        source = catalog.suq2_presentation(1)
        with pytest.raises(contract.AdjointResidue):
            ContractionAnsatz(source, crippled)


class TestLnGuard:
    def test_guard_raises_on_ln_subword(self):
        with pytest.raises(UnknownCommutatorNeeded):
            contract._guard_ln(pe_tgt("L*N"), "test")

    def test_star_squares_are_guarded(self, suq2):
        # a star of N holding L*N leaves the undetermined [L, N] in the
        # star square of b at eps^1: an error naming that record, not a
        # verdict on a commutator the algebra leaves open
        head, star = catalog.builtin_source("ekappa2-klmn").split("[star]")
        line = "N -> -N - i*lam*M"
        assert line in star
        bad = catalog.parse_presentation_text(
            f"{head}[star]{star.replace(line, line + ' + L*N')}", 1,
            name="ekappa2-klmn")
        with pytest.raises(UnknownCommutatorNeeded) as exc:
            contract.contraction_suite(suq2, bad)
        assert str(exc.value) == ("contract/star-square/b/eps^1: residual "
                                  "needs the undetermined [L, N]")

    def test_paper_checks_never_hit_it(self, suq2, klmn):
        # the whole first-order pipeline runs without tripping the guard
        report = contract.contraction_suite(suq2, klmn)
        assert report.ok


class TestClassicalLimit:
    def test_full_contraction_suite_at_lam_zero(self, suq2, klmn):
        report = contract.contraction_suite(
            suq2, catalog.classical_limit(klmn))
        assert report.ok, [r.name for r in report.failures()]

    def test_change_of_variables_at_lam_zero(self, klmn, final):
        report = contract.verify_change_of_variables(
            catalog.classical_limit(klmn), catalog.classical_limit(final))
        assert report.ok, [r.name for r in report.failures()]

    def test_q_is_one_in_the_limit(self, suq2, klmn):
        ansatz = ContractionAnsatz(suq2, catalog.classical_limit(klmn))
        for m in range(-2, 3):
            assert ansatz.q_series(m) == Scalar.one(1)

    def test_relations_become_commutators(self):
        klmn0 = catalog.classical_limit(catalog.ekappa2_klmn_presentation(1))
        x = pe_tgt("[L,K]")
        assert klmn0.base.normal_form(x).is_zero
