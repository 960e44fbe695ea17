from functools import lru_cache
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from rtt_lines import describe

from qcontract import catalog
from qcontract.freealg import format_word
from qcontract.hopf import HopfPresentation, run_hopf_suite
from qcontract.parser import parse_expression
from qcontract.rewrite import RuleOrientationError, check_local_confluence
from qcontract.scalars import Scalar

GOLDEN = Path(__file__).parent / "golden"


def elem_to_sympy(e, syms, q):
    out = sympy.Integer(0)
    for word, sc in e.terms.items():
        w = sympy.Integer(1)
        for g in word:
            w = w * syms[g.name]
        for (mono, eps), gr in sc.terms.items():
            assert eps == 0
            coeff = sympy.Rational(gr.re.numerator, gr.re.denominator) + \
                sympy.I * sympy.Rational(gr.im.numerator, gr.im.denominator)
            for name, exp in mono.exps:
                assert name == "q"
                coeff = coeff * q**exp
            out = out + coeff * w
    return out


class TestRttGeneration:
    def test_sixteen_components_with_trivial_zeros(self, suq2):
        comps = catalog.rtt_relations(suq2.base)
        assert len(comps) == 16
        trivial = {(c.row, c.col) for c in comps if c.is_trivial}
        assert trivial == {
            ((1, 1), (1, 1)), ((1, 1), (2, 2)),
            ((2, 2), (1, 1)), ((2, 2), (2, 2)),
        }

    def test_golden_file_exact(self, suq2):
        lines = [describe(c) for c in catalog.rtt_relations(suq2.base)]
        expected = (GOLDEN / "rtt_relations.txt").read_text()
        assert "\n".join(lines) + "\n" == expected

    def test_against_independent_sympy_expansion(self, suq2):
        # matrix oracle: noncommutative sympy symbols, fully independent of
        # the Element arithmetic used by the generator
        q = sympy.Symbol("q", commutative=True)
        a, b, c, d = sympy.symbols("a b c d", commutative=False)
        syms = {"a": a, "b": b, "c": c, "d": d}
        T = {(1, 1): a, (1, 2): b, (2, 1): c, (2, 2): d}
        pairs = list(catalog.INDEX_PAIRS)
        idx = {p: k for k, p in enumerate(pairs)}
        R = sympy.zeros(4, 4)
        R[idx[(1, 1)], idx[(1, 1)]] = q
        R[idx[(1, 2)], idx[(1, 2)]] = 1
        R[idx[(2, 1)], idx[(2, 1)]] = 1
        R[idx[(2, 2)], idx[(2, 2)]] = q
        R[idx[(2, 1)], idx[(1, 2)]] = q - 1 / q
        T1 = sympy.zeros(4, 4)
        T2 = sympy.zeros(4, 4)
        for (i, j) in pairs:
            for (k, l) in pairs:
                T1[idx[(i, j)], idx[(k, l)]] = T[(i, k)] if j == l else 0
                T2[idx[(i, j)], idx[(k, l)]] = T[(j, l)] if i == k else 0
        M = sympy.expand(R * T1 * T2 - T2 * T1 * R)
        for comp in catalog.rtt_relations(suq2.base):
            mine = elem_to_sympy(comp.element, syms, q)
            theirs = M[idx[comp.row], idx[comp.col]]
            assert sympy.simplify(sympy.expand(mine - theirs)) == 0, (
                comp.row, comp.col)

    def test_distinct_relations_match_reference_set(self, suq2):
        distinct = catalog.distinct_rtt_relations(suq2.base)
        assert len(distinct) == 6
        got = {str(x) for x in distinct}
        want = {str(x) for x in catalog.canonical_relation_forms(
            catalog.reference_rtt_relation_set(suq2.base), suq2.base)}
        assert got == want

    def test_every_component_reduces_to_zero(self, suq2):
        for comp in catalog.rtt_relations(suq2.base):
            assert suq2.base.normal_form(comp.element).is_zero

    def test_classical_limit_gives_commutators(self, suq2):
        # with q = 1 each distinct relation degenerates to a commutator
        one = Scalar.one(1)
        for rel in catalog.distinct_rtt_relations(suq2.base):
            classical = rel.map_scalars(
                lambda s: s.eliminate_param("q", lambda m: one))
            words = sorted(classical.terms,
                           key=lambda w: tuple(g.name for g in w))
            assert len(words) == 2
            assert words[0] == tuple(reversed(words[1]))
            coeffs = [classical.terms[w] for w in words]
            assert coeffs[0] == -coeffs[1]


@pytest.fixture(scope="module")
def entries(suq2):
    return {(c.row, c.col): c.element
            for c in catalog.rtt_relations(suq2.base)}


class TestRuleDerivations:
    """Each catalog rule is an explicit free-algebra combination of RTT
    components and the determinant relation (no rewriting involved)."""

    def _rel(self, suq2, label):
        rule = next(r for r in suq2.base.rules if r.label.startswith(label))
        return rule.as_element(suq2.base.alphabet)

    def test_q_commutation_rules(self, suq2, entries, pe_suq2):
        q = Scalar.param("q", 1)
        assert self._rel(suq2, "a*b") == -entries[((1, 1), (2, 1))]
        assert self._rel(suq2, "a*b") == entries[((1, 1), (1, 2))].scaled(q)
        assert self._rel(suq2, "a*c") == entries[((1, 2), (1, 1))]
        assert self._rel(suq2, "c*b") == entries[((2, 1), (1, 2))]
        assert self._rel(suq2, "d*b") == entries[((2, 1), (2, 2))]
        assert self._rel(suq2, "d*c") == -entries[((2, 2), (1, 2))]

    def test_determinant_rules(self, suq2, entries):
        det = catalog.determinant_relation(suq2.base)
        assert self._rel(suq2, "a*d") == det
        # d a - 1 - q^-1 b c = (a d - q b c - 1) + (d a - a d - (q - 1/q) b c)
        assert self._rel(suq2, "d*a") == det + entries[((2, 1), (2, 1))]


RTT = "Eq. (1)-(2)"
#: the equation tags each builtin file must carry: per rule (by left-hand
#: side), per coproduct generator, and for the counit/antipode pair
EXPECTED_TAGS = {
    "suq2": (
        {"a*b": RTT, "a*c": RTT, "c*b": RTT, "d*b": RTT, "d*c": RTT,
         "a*d": "Eq. (7)", "d*a": "Eq. (7)"},
        {g: "Eq. (3)" for g in "abcd"},
        "Eq. (4)",
    ),
    "ekappa2-klmn": (
        {"N*K": "Eq. (21)", "N*M": "Eq. (23)", "M*K": "Eq. (18)",
         "M^2": "Eq. (9)", "L*K": "Eq. (10)", "L*M": "Eq. (22)",
         "K*J": "Eq. (8)", "J*K": "Eq. (8)"},
        {"K": "Eq. (11)", "M": "Eq. (12)", "L": "Eq. (13)",
         "N": "Eq. (14)"},
        None,
    ),
    "ekappa2-final": (
        {"E*F": "Eq. (24)", "F*E": "Eq. (24)", "eta*E": "Eq. (33)",
         "etabar*E": "Eq. (34)", "etabar*eta": "Eq. (35)"},
        {"eta": "Eq. (30)", "etabar": "Eq. (31)", "E": "Eq. (32)"},
        None,
    ),
}


def tags_by_lhs(h):
    return {format_word(r.lhs, 1): h.rule_tags[r.lhs]
            for r in h.base.rules if r.lhs in h.rule_tags}


def structure(h):
    maps = (h.coproduct, h.antipode, h.star)
    return ([(r.lhs, r.rhs) for r in h.base.rules],
            [sorted((repr(g), str(img)) for g, img in m.images.items())
             for m in maps],
            h.counit, h.excluded)


class TestGoldenFiles:
    @pytest.mark.parametrize("order", range(5))
    @pytest.mark.parametrize("lam_zero", (False, True))
    @pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
    def test_parse_serialize_fixpoint_keeps_tags(self, name, order, lam_zero):
        h = catalog.load_presentation(f"builtin:{name}", order,
                                      lam_zero=lam_zero)
        text = catalog.serialize_presentation(h)
        if not lam_zero:
            assert text == catalog.builtin_source(name)
        again = catalog.parse_presentation_text(text, order, h.base.name)
        assert catalog.serialize_presentation(again) == text
        assert structure(again) == structure(h)
        rule_tags, coproduct_tags, antipode_tag = EXPECTED_TAGS[name]
        for x in (h, again):
            assert tags_by_lhs(x) == rule_tags
            assert x.coproduct_tags == coproduct_tags
            assert x.antipode_tag == antipode_tag

    def test_builtin_load_round_trips(self):
        for name in catalog.BUILTIN_NAMES:
            loaded = catalog.load_presentation(f"builtin:{name}", 1)
            assert isinstance(loaded, HopfPresentation)
            assert catalog.serialize_presentation(loaded) == \
                catalog.builtin_source(name)

    def test_parameter_used_only_by_the_counit_is_kept(self):
        text = ("[params]\nq\n\n[generators]\nK\n\n[coproduct]\nK -> K ox K"
                "\n\n[counit]\nK -> q\n\n[antipode]\nK -> K\n\n[star]\n"
                "K -> K\n")
        h = catalog.parse_presentation_text(text, 1, "counit_q")
        out = catalog.serialize_presentation(h)
        assert "[params]\nq\n" in out
        again = catalog.parse_presentation_text(out, 1, "counit_q")
        assert catalog.serialize_presentation(again) == out
        assert structure(again) == structure(h)

    def test_open_final_drops_only_the_commutator_rule(self, final):
        h = catalog.without_commutator_rule(final)
        assert h.name == h.base.name == "ekappa2-final-open"
        assert [r.label for r in h.base.rules] == [
            r.label for r in final.base.rules
            if not r.label.startswith("etabar*eta")]
        assert len(h.base.rules) == len(final.base.rules) - 1

    def test_open_variant_of_the_classical_limit_keeps_its_name(self, final):
        h = catalog.without_commutator_rule(catalog.classical_limit(final))
        assert h.name == h.base.name == "ekappa2-final-open@lam=0"
        limited_open = catalog.classical_limit(
            catalog.without_commutator_rule(final))
        assert [r.label for r in h.base.rules] == [
            r.label for r in limited_open.base.rules]

    def test_untagged_file_parses_to_the_same_algebra(self):
        text = catalog.builtin_source("ekappa2-klmn")
        untagged = "\n".join(line.split(" @ ")[0]
                             for line in text.splitlines())
        h = catalog.parse_presentation_text(untagged, 1, "ekappa2-klmn")
        assert not h.rule_tags and not h.coproduct_tags
        assert structure(h) == structure(
            catalog.ekappa2_klmn_presentation(1))

    @pytest.mark.parametrize("line", (
        "[generators] @ Eq. (1)\nx y\n",
        "[generators]\nx y @ Eq. (1)\n",
        "[generators]\nx y\n[rules] @ Eq. (1)\ny*x -> x*y\n",
    ))
    def test_misplaced_tag_is_a_format_error(self, line):
        with pytest.raises(catalog.PresentationFormatError) as exc:
            catalog.parse_presentation_text(line, 1)
        assert "line" in str(exc.value)

    @pytest.mark.parametrize("text,message", [
        ("[generators]\na a-b\n", "line 2: 'a-b' is not a name"),
        ("[params]\n2q\n[generators]\na\n", "line 2: '2q' is not a name"),
        ("[generators]\na i\n", "line 2: 'i' is a reserved word"),
        ("[generators]\neps\n", "line 2: 'eps' is a reserved word"),
        ("[params]\nox\n[generators]\na\n", "line 2: 'ox' is a reserved word"),
        ("[params]\nq\n[generators]\na q\n",
         "line 4: 'q' is both a generator and a parameter"),
        ("[generators]\na\n[excluded]\nzz\n",
         "line 4: excluded 'zz' is not a generator"),
    ])
    def test_names_expressions_cannot_read_back_are_refused(self, text,
                                                            message):
        with pytest.raises(catalog.PresentationFormatError) as exc:
            catalog.parse_presentation_text(text, 1)
        assert str(exc.value) == message

    def test_builtin_rule_counts(self):
        assert len(catalog.suq2_presentation(1).base.rules) == 7
        assert len(catalog.ekappa2_klmn_presentation(1).base.rules) == 11
        assert len(catalog.ekappa2_final_presentation(1).base.rules) == 7


def _verdicts(h: HopfPresentation):
    """The Hopf suite's status per record name and the confluence verdict."""
    suite = run_hopf_suite(h, Random(42))
    return ({r.name: r.ok for r in suite.records},
            check_local_confluence(h.base, 6).ok)


@lru_cache(maxsize=None)
def _shipped_verdicts(name: str):
    return _verdicts(catalog.load_presentation(f"builtin:{name}", 1))


#: sections whose lines may come in any order
_UNORDERED = ("[rules]", "[coproduct]", "[counit]", "[antipode]", "[star]")


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_line_order_within_a_section_keeps_the_verdicts(data):
    for name in catalog.BUILTIN_NAMES:
        blocks = catalog.builtin_source(name).split("\n\n")
        for i, block in enumerate(blocks):
            header, *lines = block.splitlines()
            if header.partition(" @")[0] in _UNORDERED:
                lines = data.draw(st.permutations(lines), label=header)
                blocks[i] = "\n".join([header, *lines])
        h = catalog.parse_presentation_text("\n\n".join(blocks), 1, name)
        assert _verdicts(h) == _shipped_verdicts(name)


class TestCommutationMoves:
    @staticmethod
    def lhs(p) -> list[str]:
        return [format_word(r.lhs, 1)
                for r in catalog.commutation_moves(p).rules]

    def test_the_rules_that_only_reorder_their_letters(self, suq2, klmn,
                                                       final):
        assert self.lhs(suq2.base) == ["c*b"]
        assert self.lhs(klmn.base) == ["N*K", "N*M", "M*K", "M*J", "N*J"]
        assert self.lhs(final.base) == []

    def test_classical_limit_adds_the_deformed_ones(self, klmn):
        assert self.lhs(catalog.classical_limit(klmn).base) == [
            "N*K", "N*M", "M*K", "L*K", "L*M", "M*J", "N*J", "L*J"]


class TestTextFormat:
    def test_non_decreasing_rule_names_the_rule(self, tmp_path):
        bad = tmp_path / "bad.preso"
        bad.write_text("""
[params]
q

[generators]
b c a d

[rules]
b*a -> q^-1*a*b
""")
        with pytest.raises(RuleOrientationError) as exc:
            catalog.load_presentation(bad, 1)
        assert "b*a -> q^-1*a*b" in str(exc.value)

    def test_order_check_accepts_valid_orientation(self, tmp_path):
        # a*d -> q*b*c + 1 is deglex-decreasing under b < c < a < d
        src = tmp_path / "ok.preso"
        src.write_text("""
[params]
q

[generators]
b c a d

[rules]
a*d -> q*b*c + 1
""")
        p = catalog.load_presentation(src, 1)
        assert len(p.rules) == 1

    def test_unknown_generator_reported(self, tmp_path):
        src = tmp_path / "unk.preso"
        src.write_text("""
[generators]
x y

[rules]
y*x -> x*zz
""")
        with pytest.raises(catalog.PresentationFormatError):
            catalog.load_presentation(src, 1)

    def test_syntax_error_carries_line(self, tmp_path):
        src = tmp_path / "syn.preso"
        src.write_text("""
[generators]
x y

[rules]
y*x -> x*(
""")
        with pytest.raises(catalog.PresentationFormatError) as exc:
            catalog.load_presentation(src, 1)
        assert "line" in str(exc.value)

    def test_bare_presentation_without_hopf_sections(self, tmp_path):
        src = tmp_path / "bare.preso"
        src.write_text("""
[generators]
x y

[rules]
y*x -> x*y
""")
        p = catalog.load_presentation(src, 1)
        assert not isinstance(p, HopfPresentation)


class TestNamedElements:
    def test_unit_relations(self, klmn):
        named = catalog.klmn_named_elements(klmn.base)
        one = parse_expression("1", klmn.base.alphabet, ("lam",), 1)
        vp = named["vplus"].definition
        vm = named["vminus"].definition
        assert klmn.base.normal_form(vp * vm - one).is_zero
        assert klmn.base.normal_form(vm * vp - one).is_zero

    def test_definitions_stable_across_loads(self, klmn):
        a, b = (catalog.klmn_named_elements(
            catalog.ekappa2_klmn_presentation(1).base) for _ in range(2))
        for name in a:
            assert klmn.base.normal_form(a[name].definition) == \
                klmn.base.normal_form(b[name].definition)

    def test_etabar_sign_convention(self, klmn, pe_klmn):
        # etabar = -(K + M)(L + lam/2 M - i N), so that eta* = etabar
        named = catalog.klmn_named_elements(klmn.base)
        built = -(pe_klmn("K + M") * pe_klmn("L + 1/2*lam*M - i*N"))
        assert named["etabar"].definition == built


class TestClassicalLimit:
    def test_deformation_rules_become_commutation(self):
        klmn0 = catalog.classical_limit(catalog.ekappa2_klmn_presentation(1))
        by_label = {r.label.split(" ->")[0]: r for r in klmn0.base.rules}
        for lhs_label in ("L*K", "L*M", "L*J"):
            rule = by_label[lhs_label]
            rhs_words = list(rule.rhs.terms)
            assert rhs_words == [tuple(reversed(rule.lhs))]
        final0 = catalog.classical_limit(catalog.ekappa2_final_presentation(1))
        by_label = {r.label.split(" ->")[0]: r for r in final0.base.rules}
        for lhs_label in ("eta*E", "etabar*E", "eta*F", "etabar*F",
                          "etabar*eta"):
            rule = by_label[lhs_label]
            assert list(rule.rhs.terms) == [tuple(reversed(rule.lhs))]

    @pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
    def test_the_limit_holds_lam_at_zero(self, name):
        h = catalog.load_presentation(f"builtin:{name}", 1)
        assert h.base.zero_params == frozenset()
        assert catalog.classical_limit(h).base.zero_params == {"lam"}

    def test_without_commutator_rule_keeps_the_zero_params(self):
        final0 = catalog.classical_limit(catalog.ekappa2_final_presentation(1))
        opened = catalog.without_commutator_rule(final0)
        assert opened.base.zero_params == {"lam"}
        assert catalog.without_commutator_rule(
            catalog.ekappa2_final_presentation(1)).base.zero_params == set()

    def test_texts_read_in_the_limit_take_lam_as_zero(self):
        klmn0 = catalog.classical_limit(catalog.ekappa2_klmn_presentation(1))
        assert catalog.parse_in(klmn0.base, "lam*K").is_zero
        assert str(catalog.parse_in(klmn0.base, "lam*K + L")) == "L"
        for named in catalog.klmn_named_elements(klmn0.base).values():
            assert all(c.max_param_degree("lam") == 0
                       for c in named.definition.terms.values()), named.name

    def test_structural_relations_survive(self):
        klmn0 = catalog.classical_limit(catalog.ekappa2_klmn_presentation(1))
        mm = next(r for r in klmn0.base.rules if r.label.startswith("M^2"))
        assert str(mm.rhs) == "K^2 - 1"
