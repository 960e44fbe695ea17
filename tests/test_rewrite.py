from random import Random

import pytest
from slot_swap import slot_swap_power

from qcontract.freealg import Alphabet, Element, tensor_embed
from qcontract.parser import parse_expression
from qcontract.rewrite import (
    Presentation,
    RewriteRule,
    RuleOrientationError,
    StepLimitExceeded,
    check_local_confluence,
    critical_pairs,
    normal_form_random,
    step_limit,
)
from qcontract.sampling import random_element


class TestNormalFormExamples:
    def test_suq2_q_commutation(self, suq2, pe_suq2):
        assert suq2.base.normal_form(pe_suq2("a*b")) == pe_suq2("q*b*a")
        # b*a is already a normal word under the catalog orientation
        assert suq2.base.normal_form(pe_suq2("b*a")) == pe_suq2("b*a")

    def test_klmn_square_relation(self, klmn, pe_klmn):
        assert klmn.base.normal_form(pe_klmn("M*M")) == pe_klmn("K^2 - 1")

    def test_final_commutator_rule(self, final, pe_final):
        got = final.base.normal_form(pe_final("etabar*eta"))
        assert got == pe_final("eta*etabar - lam*etabar - lam*eta")

    def test_suq2_reverse_determinant(self, suq2, pe_suq2):
        got = suq2.base.normal_form(pe_suq2("d*a"))
        assert got == pe_suq2("1 + q^-1*b*c")

    def test_rule_residuals_vanish(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            for rule in h.base.rules:
                rel = rule.as_element(h.base.alphabet)
                assert h.base.normal_form(rel).is_zero, rule.label


class TestOrientationValidation:
    def test_increasing_rule_rejected(self):
        alph = Alphabet(("b", "a"))
        lhs = (alph.gen("b"), alph.gen("a"))
        rhs = parse_expression("a*b", alph, (), 1)
        with pytest.raises(RuleOrientationError) as exc:
            Presentation(alph, [RewriteRule(lhs, rhs)], 1)
        assert "b*a -> a*b" in str(exc.value)

    def test_equal_length_needs_strict_decrease(self):
        alph = Alphabet(("a",))
        lhs = (alph.gen("a"),)
        rhs = parse_expression("a", alph, (), 1)
        with pytest.raises(RuleOrientationError):
            Presentation(alph, [RewriteRule(lhs, rhs)], 1)


class TestStepLimit:
    def test_deep_reduction_hits_small_limit(self, suq2, pe_suq2):
        x = pe_suq2("d*d*d*a*a*a")
        with pytest.raises(StepLimitExceeded), step_limit(3):
            suq2.base.normal_form(x)

    def test_catalog_reductions_stay_well_under_default(self, suq2, pe_suq2):
        x = pe_suq2("d*d*d*a*a*a*b*c*b*c")
        with step_limit(10**6):
            suq2.base.normal_form(x)  # must not raise


class TestCriticalPairs:
    def test_textbook_non_confluent_pair(self):
        alph = Alphabet(("c", "b", "a"))
        one = Element.unit(alph, 1)
        rules = [
            RewriteRule((alph.gen("a"), alph.gen("b")), one),
            RewriteRule((alph.gen("b"), alph.gen("c")), one),
        ]
        p = Presentation(alph, rules, 1, name="toy")
        pairs = critical_pairs(p, 6)
        words = {tuple(g.name for g in amb.word) for amb in pairs}
        assert ("a", "b", "c") in words
        report = check_local_confluence(p, 6)
        assert not report.ok
        bad = report.failures()
        assert len(bad) == 1
        assert bad[0].name.startswith("toy/confluence/a*b*c[")
        assert set(bad[0].residual.split(" != ")) == {"a", "c"}

    def test_no_self_overlap_means_no_ambiguities(self):
        alph = Alphabet(("b", "a"))
        rhs = parse_expression("b*b", alph, (), 1)
        p = Presentation(
            alph, [RewriteRule((alph.gen("a"), alph.gen("b")), rhs)], 1)
        assert critical_pairs(p, 6) == []

    def test_inclusion_ambiguity_resolved(self):
        # b occurs inside ab; both reducts meet at a
        alph = Alphabet(("b", "a"))
        a, b = alph.gen("a"), alph.gen("b")
        one = Element.unit(alph, 1)
        p = Presentation(alph, [
            RewriteRule((a, b), Element.from_word(alph, (a,), 1)),
            RewriteRule((b,), one),
        ], 1)
        pairs = critical_pairs(p, 6)
        assert any(amb.kind == "inclusion" for amb in pairs)
        assert check_local_confluence(p, 6).ok

    def test_inclusion_ambiguity_unresolved(self):
        # b occurs inside ab but the reducts b and a do not meet
        alph = Alphabet(("c", "b", "a"))
        a, b = alph.gen("a"), alph.gen("b")
        c = alph.gen("c")
        p = Presentation(alph, [
            RewriteRule((a, b), Element.from_word(alph, (b,), 1)),
            RewriteRule((b,), Element.from_word(alph, (c,), 1)),
        ], 1)
        report = check_local_confluence(p, 6)
        inclusions = [r for r in report.records
                      if r.name.endswith(",inclusion]")]
        assert inclusions and not inclusions[0].ok

    def test_max_overlap_below_longest_lhs_is_usage_error(self, suq2):
        with pytest.raises(ValueError):
            critical_pairs(suq2.base, 1)

    def test_builtin_presentations_locally_confluent(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            report = check_local_confluence(h.base, 6)
            assert report.ok, h.base.name
            assert report.failures() == []

    def test_tensor_square_still_confluent(self, suq2):
        # the slot-swap rewriting system of the square is confluent, so its
        # normal form is the slot-by-slot one of ``at_slots(2)``
        report = check_local_confluence(slot_swap_power(suq2.base, 2), 6)
        assert report.ok

    def test_tensor_cube_still_confluent(self, suq2, klmn, final):
        # underwrites the three-slot coassociativity checks
        for h in (suq2, klmn, final):
            assert check_local_confluence(slot_swap_power(h.base, 3), 6).ok

    def test_klmn_without_lj_rule_is_incomplete(self, klmn):
        rules = [r for r in klmn.base.rules if not r.label.startswith("L*J")]
        p = Presentation(klmn.base.alphabet, rules, 1, name="klmn-no-LJ")
        report = check_local_confluence(p, 6)
        assert not report.ok


class TestNormalFormProperties:
    def _presentations(self, suq2, klmn, final):
        return [(suq2.base, ("q",)), (klmn.base, ("lam",)),
                (final.base, ("lam",))]

    def test_idempotence(self, suq2, klmn, final):
        rng = Random(42)
        for p, params in self._presentations(suq2, klmn, final):
            for _ in range(100):
                x = random_element(rng, p, degree=4, params=params)
                nf = p.normal_form(x)
                assert p.normal_form(nf) == nf

    def test_strategy_independence(self, suq2, klmn, final):
        rng = Random(42)
        for p, params in self._presentations(suq2, klmn, final):
            for _ in range(500):
                x = random_element(rng, p, degree=5, params=params)
                det = p.normal_form(x)
                rnd = normal_form_random(p, x, rng)
                assert det == rnd

    def test_normal_form_is_multiplicative_modulo_reduction(self, suq2, klmn,
                                                            final):
        rng = Random(17)
        for p, params in self._presentations(suq2, klmn, final):
            for _ in range(100):
                x = random_element(rng, p, degree=3, params=params)
                y = random_element(rng, p, degree=3, params=params)
                assert p.normal_form(x * y) == p.normal_form(
                    p.normal_form(x) * p.normal_form(y))

    def test_distinct_slots_commute_after_rewriting(self, klmn):
        rng = Random(23)
        p2 = klmn.base.at_slots(2)
        for _ in range(100):
            x = random_element(rng, klmn.base, degree=2)
            y = random_element(rng, klmn.base, degree=2)
            left = tensor_embed(x, 1) * tensor_embed(y, 2)
            right = tensor_embed(y, 2) * tensor_embed(x, 1)
            assert p2.normal_form(left) == p2.normal_form(right)

    def test_ln_words_are_normal_forms(self, klmn, pe_klmn):
        # the undetermined [L, N] leaves L*N irreducible by design
        x = pe_klmn("L*N")
        assert klmn.base.normal_form(x) == x


class TestFiredRuleTracking:
    def test_fired_set_collects_rule_indices(self, suq2, pe_suq2):
        fired = set()
        suq2.base.rewrite(pe_suq2("a*b"), fired=fired)
        labels = {suq2.base.rules[i].label for i in fired}
        assert labels == {"a*b -> q*b*a"}
