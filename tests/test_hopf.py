import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from qcontract import catalog
from qcontract.cli import main
from qcontract.freealg import Element
from qcontract.hopf import (
    ExcludedGenerator,
    central_residuals,
    check_coassociativity,
    check_convolution_on_element,
    check_counit_antipode,
    check_delta_respects_relations,
    check_star,
    grouplike_residual,
    run_hopf_suite,
)
from qcontract.rewrite import StepLimitExceeded, step_limit
from qcontract.sampling import random_element
from qcontract.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


class TestCoproduct:
    def test_matrix_coproduct_of_a(self, suq2, pe_suq2):
        g = pe_suq2("a")
        assert suq2.apply_coproduct(g) == pe_suq2("a ox a + b ox c")

    def test_contracted_coproduct_of_K(self, klmn, pe_klmn):
        g = pe_klmn("K")
        assert klmn.apply_coproduct(g) == pe_klmn("K ox K + M ox M")

    def test_grouplike_exponential(self, final, pe_final):
        g = pe_final("E")
        assert final.apply_coproduct(g) == pe_final("E ox E")

    def test_excluded_generator_rejected(self, klmn, pe_klmn):
        with pytest.raises(ExcludedGenerator):
            klmn.apply_coproduct(pe_klmn("J"))
        # J*L is a normal word, so the adjoint survives reduction
        with pytest.raises(ExcludedGenerator):
            klmn.apply_counit(pe_klmn("J*L"))

    def test_reducible_adjoint_is_fine(self, klmn, pe_klmn):
        # K*J reduces to 1, so the guard admits it
        assert klmn.apply_coproduct(pe_klmn("K*J")) == \
            Element.unit(klmn.base.alphabet.at_slots(2), 1)


class TestDeltaRespectsRelations:
    def test_all_catalog_presentations(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            report = check_delta_respects_relations(h)
            assert report.ok, [r.name for r in report.failures()]

    def test_suq2_first_rule_residual_zero(self, suq2):
        report = check_delta_respects_relations(suq2)
        rec = next(r for r in report.records if "a*b -> q*b*a" in r.name)
        assert rec.ok and rec.residual == "0"

    def test_klmn_mixed_rule_residual_zero(self, klmn):
        report = check_delta_respects_relations(klmn)
        rec = next(r for r in report.records if r.name.count("L*M"))
        assert rec.ok

    def test_final_commutator_rule_is_coproduct_consistent(self, final):
        report = check_delta_respects_relations(final)
        rec = next(r for r in report.records if "etabar*eta" in r.name)
        assert rec.ok

    def test_adjoint_rules_are_skipped(self, klmn):
        report = check_delta_respects_relations(klmn)
        assert not any("J" in r.name.split("/")[-1] for r in report.records)

    def test_corrupted_rule_is_caught(self, klmn):
        # replace [L, K] = lam M^2 by a wrong coefficient and watch the
        # coproduct compatibility fail
        from qcontract.catalog import _mk_rule
        from qcontract.hopf import HopfPresentation
        from qcontract.rewrite import Presentation
        rules = [r for r in klmn.base.rules if not r.label.startswith("L*K")]
        rules.append(_mk_rule(klmn.base.alphabet, ("lam",), 1,
                              "L*K", "K*L + 2*lam*M*M"))
        bad_base = Presentation(klmn.base.alphabet, rules, 1, name="bad")
        bad = HopfPresentation(
            base=bad_base, coproduct=klmn.coproduct, counit=klmn.counit,
            antipode=klmn.antipode, star=klmn.star, excluded=klmn.excluded,
            name="bad")
        report = check_delta_respects_relations(bad)
        assert not report.ok


class TestCoassociativity:
    def test_all_catalog_presentations(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            report = check_coassociativity(h)
            assert report.ok, [r.name for r in report.failures()]

    def test_grouplike_generator(self, final):
        report = check_coassociativity(final)
        rec = next(r for r in report.records if r.name.endswith("/E"))
        assert rec.ok

    def test_contracted_generators(self, klmn):
        report = check_coassociativity(klmn)
        names = {r.name.rsplit("/", 1)[1] for r in report.records}
        assert names == {"K", "M", "N", "L"}


class TestCounitAntipode:
    def test_all_catalog_presentations(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            report = check_counit_antipode(h)
            assert report.ok, [r.name for r in report.failures()]

    def test_antipode_convolution_on_a(self, suq2, pe_suq2):
        # S(a) a + S(b) c = d a - q^-1 b c -> 1
        g = pe_suq2("a")
        dg = suq2.apply_coproduct(g)
        s_id = suq2.fold_tensor(dg, "antipode", None)
        assert s_id == suq2.base.normal_form(pe_suq2("1"))

    def test_final_antipode_on_eta(self, final, pe_final):
        g = pe_final("eta")
        dg = final.apply_coproduct(g)
        s_id = final.fold_tensor(dg, "antipode", None)
        assert s_id.is_zero  # eps(eta) = 0

    def test_grouplike_antipode_is_inverse(self, final, pe_final):
        got = final.base.normal_form(
            final.apply_antipode(pe_final("E")) * pe_final("E"))
        assert got == Element.unit(final.base.alphabet, 1)


class TestStar:
    def test_all_catalog_presentations(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            report = check_star(h)
            assert report.ok, [r.name for r in report.failures()]

    def test_star_involution_on_N(self, klmn, pe_klmn):
        # N* = -N - i lam M applied twice returns N
        got = klmn.apply_star(klmn.apply_star(pe_klmn("N")))
        assert got == pe_klmn("N")

    def test_star_of_coproduct_of_M(self, klmn, pe_klmn):
        # M* = -M, K* = K: Delta(M*) = (* ox *) Delta(M) = -Delta(M)
        lhs = klmn.apply_coproduct(klmn.apply_star(pe_klmn("M")))
        rhs = klmn.star_tensor(klmn.apply_coproduct(pe_klmn("M")))
        assert lhs == rhs
        assert lhs == klmn.base.at_slots(2).normal_form(
            -klmn.apply_coproduct(pe_klmn("M")))

    def test_star_involution_on_random_elements(self, suq2, klmn, final):
        rng = Random(42)
        for h, params in ((suq2, ("q",)), (klmn, ("lam",)), (final, ("lam",))):
            for _ in range(100):
                x = random_element(rng, h.base, degree=3, params=params)
                xss = h.apply_star(h.apply_star(x))
                assert h.base.normal_form(xss - x).is_zero


class TestConvolutionIdentity:
    @pytest.mark.parametrize("which", ["suq2", "klmn", "final"])
    def test_random_elements(self, which, suq2, klmn, final):
        h, params = {
            "suq2": (suq2, ("q",)),
            "klmn": (klmn, ("lam",)),
            "final": (final, ("lam",)),
        }[which]
        rng = Random(42)
        for _ in range(200):
            x = random_element(rng, h.base, degree=3, params=params,
                               exclude=h.excluded)
            assert check_convolution_on_element(h, x)


def test_laurent_parameter_is_read_from_the_rules():
    # suq2 writes q^-1 in its rules; renamed, its parameter t is drawn with
    # negative exponents as q is, and the suite keeps every verdict
    text = catalog.builtin_source("suq2")
    renamed = catalog.parse_presentation_text(
        re.sub(r"\bq\b", "t", text), name="suq2")
    suq2 = catalog.suq2_presentation(1)
    assert renamed.base.params == ("t",)
    assert renamed.base.laurent_params == {"t"}
    rng = Random(3)
    exps = {e for _ in range(100)
            for c in random_element(rng, renamed.base,
                                    params=("t",)).terms.values()
            for mono, _ in c.terms for _, e in mono.exps}
    assert min(exps) == -2 and max(exps) == 2
    verdicts = [[(re.sub(r"\bq\b", "t", r.name), r.ok)
                 for r in run_hopf_suite(h, Random(42)).records]
                for h in (suq2, renamed)]
    assert verdicts[0] == verdicts[1]
    assert all(ok for _, ok in verdicts[1])
    # the random layer draws the same elements, with t in place of q
    draws = [[str(random_element(Random(5), h.base, params=h.base.params))
              for _ in range(20)] for h in (suq2, renamed)]
    assert [re.sub(r"\bq\b", "t", x) for x in draws[0]] == draws[1]
    assert catalog.ekappa2_klmn_presentation(1).base.laurent_params == set()


class TestDeterminant:
    def test_grouplike(self, suq2):
        det = catalog.determinant_element(suq2.base)
        assert grouplike_residual(suq2, det).is_zero

    def test_central(self, suq2):
        det = catalog.determinant_element(suq2.base)
        assert all(r.is_zero for r in central_residuals(suq2.base, det))

    def test_counit_one(self, suq2):
        det = catalog.determinant_element(suq2.base)
        assert suq2.apply_counit(det) == Scalar.one(1)


class TestFullSuite:
    def test_run_hopf_suite_with_random_layer(self, suq2, klmn, final):
        for h in (suq2, klmn, final):
            rng = Random(42)
            report = run_hopf_suite(h, rng)
            assert report.ok, [r.name for r in report.failures()]


class TestImageMemo:
    @staticmethod
    def suite(h, limit):
        with step_limit(limit):
            return run_hopf_suite(h, Random(42))

    def test_warm_suite_passes_at_the_cold_threshold(self):
        def load():
            return catalog.load_presentation("builtin:ekappa2-klmn", 1)

        # the smallest limit at which the suite passes on a fresh
        # presentation: its costliest normal form in ekappa2-klmn
        cold = 1313
        with pytest.raises(StepLimitExceeded):
            self.suite(load(), cold - 1)
        h = load()
        first = self.suite(h, cold)
        assert first.ok
        assert self.suite(h, cold).records == first.records
        # a kept image charges nothing and a memoised normal form only the
        # products it forms, so the warm suite needs far less (58)
        assert self.suite(h, 100).records == first.records

    def test_broken_antipode_fails_the_suite(self, capsys):
        code = main(["hopf-check", "-p",
                     str(GOLDEN / "suq2_bad_antipode.preso")])
        out = capsys.readouterr().out
        assert code == 1
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            "[FAIL] suq2_bad_antipode/antipode-right/b  [Eq. (4)]  "
            "residual: -b*a + q*b*a",
            "[FAIL] suq2_bad_antipode/antipode-left/c  [Eq. (4)]  "
            "residual: -q*c*a + q^2*c*a",
            "[FAIL] suq2_bad_antipode/antipode-left/d  [Eq. (4)]  "
            "residual: -q*b*c + q^2*b*c - 1 + q",
            "[FAIL] suq2_bad_antipode/antipode-right/d  [Eq. (4)]  "
            "residual: b*c - q^-1*b*c - 1 + q",
            "[FAIL] suq2_bad_antipode/random-layer/25-elements  "
            "residual: 16 failures",
        ]
        assert out.endswith("checks: 43  failed: 5\n")


def test_star_residual_holding_l_n_is_recorded_not_refused(capsys):
    # the [L, N] guard belongs to the contraction's rows alone: a Hopf
    # record prints its residual even when it holds the subword L N
    code = main(["hopf-check", "-p", str(GOLDEN / "star_ln.preso")])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert "[FAIL] star_ln/star-involution/L  residual: N*L*N - L\n" in out


def test_excluded_error_names_the_first_in_alphabet_order():
    # a*a reduces to X*Y, both excluded: whatever the hash seed, which
    # orders a frozenset of names, the error names X
    root = Path(__file__).parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    for seed in range(6):
        run = subprocess.run(
            [sys.executable, "-m", "qcontract.cli", "hopf-check", "-p",
             str(GOLDEN / "two_excluded.preso")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": str(seed),
                 "PYTHONPATH": path})
        assert (run.returncode, run.stdout, run.stderr) == (
            1, "", "verification error: coproduct undefined: normal form "
                   "contains 'X'\n"), seed


def test_tensor_grouplike_helper(final, pe_final):
    x = pe_final("E*E")
    assert grouplike_residual(final, x).is_zero
    y = pe_final("eta")
    assert not grouplike_residual(final, y).is_zero
