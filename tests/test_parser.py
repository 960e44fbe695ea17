from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontract import catalog
from qcontract.freealg import format_element, tensor_embed
from qcontract.parser import ParseError, parse_expression, tokenize
from qcontract.sampling import random_element


class TestGrammar:
    def test_determinant_expression(self, suq2, pe_suq2):
        x = pe_suq2("a*d - q*b*c - 1")
        assert x == pe_suq2("a*d") - pe_suq2("q*b*c") - pe_suq2("1")

    def test_commutator_brackets(self, klmn, pe_klmn):
        x = pe_klmn("[L,K] - lam*M^2")
        assert x == pe_klmn("L*K - K*L - lam*M*M")

    def test_tensor_split(self, klmn, pe_klmn):
        x = pe_klmn("K ox M + M ox K")
        built = (tensor_embed(pe_klmn("K"), 1) * tensor_embed(pe_klmn("M"), 2)
                 + tensor_embed(pe_klmn("M"), 1) * tensor_embed(pe_klmn("K"), 2))
        assert x == built

    def test_three_tensor_factors(self, klmn, pe_klmn):
        x = pe_klmn("K ox M ox K")
        assert x.alphabet.slot_count == 3
        assert len(x.terms) == 1

    def test_whitespace_insensitive(self, pe_suq2):
        assert pe_suq2("a*d-q*b*c-1") == pe_suq2(" a * d  -  q*b*c - 1 ")

    def test_rational_literals(self, pe_klmn):
        x = pe_klmn("3/2*lam*K")
        assert x.scaled(2) == pe_klmn("3*lam*K")
        assert x + x == pe_klmn("3*lam*K")

    def test_powers(self, pe_suq2):
        assert pe_suq2("a^3") == pe_suq2("a*a*a")
        assert pe_suq2("q^-2*a") == pe_suq2("q^-1*q^-1*a")
        assert pe_suq2("a^0") == pe_suq2("1")

    def test_leading_minus_and_parens(self, pe_klmn):
        assert pe_klmn("-K + M") == pe_klmn("M - K")
        assert pe_klmn("(K + M)*(K - M)") == pe_klmn("K*K - K*M + M*K - M*M")
        assert pe_klmn("(-1/2+i)*K") == pe_klmn("i*K - 1/2*K")


class TestErrors:
    def test_unknown_symbol_has_position(self, suq2):
        with pytest.raises(ParseError) as exc:
            parse_expression("a*zz", suq2.base.alphabet, ("q",), 1)
        assert exc.value.line == 1
        assert exc.value.col == 3

    def test_trailing_input(self, pe_suq2):
        with pytest.raises(ParseError):
            pe_suq2("a b")

    def test_bad_character(self, pe_suq2):
        with pytest.raises(ParseError):
            pe_suq2("a @ b")

    def test_negative_power_of_generator_rejected(self, pe_suq2):
        with pytest.raises(ParseError):
            pe_suq2("a^-1")

    def test_misplaced_ox(self, pe_klmn):
        with pytest.raises(ParseError):
            pe_klmn("ox K")

    def test_tokenizer_positions(self):
        toks = tokenize("a +\n  b")
        assert [(t.kind, t.value) for t in toks[:3]] == [
            ("NAME", "a"), ("OP", "+"), ("NAME", "b")]
        assert toks[2].line == 2


class TestRoundTrip:
    def test_named_element_normal_forms_round_trip(self, klmn):
        named = catalog.klmn_named_elements(klmn.base)
        for ne in named.values():
            nf = klmn.base.normal_form(ne.definition)
            printed = format_element(nf)
            reparsed = parse_expression(printed, klmn.base.alphabet,
                                        ("lam",), 1)
            assert reparsed == nf, ne.name

    def test_random_elements_round_trip(self, suq2, klmn, final):
        rng = Random(42)
        for h, params in ((suq2, ("q",)), (klmn, ("lam",)),
                          (final, ("lam",))):
            for _ in range(200):
                x = random_element(rng, h.base, degree=4, params=params)
                printed = format_element(x)
                reparsed = parse_expression(printed, h.base.alphabet, params,
                                            1)
                assert reparsed == x

    def test_tensor_round_trip(self, klmn):
        delta_l = klmn.coproduct.images[klmn.base.alphabet.gen("L")]
        printed = format_element(delta_l)
        reparsed = parse_expression(printed, klmn.base.alphabet, ("lam",), 1)
        assert reparsed == delta_l

    @given(num=st.integers(-99, 99), den=st.integers(1, 99))
    @settings(max_examples=100)
    def test_rational_coefficient_round_trip(self, klmn, num, den):
        from fractions import Fraction

        from qcontract.scalars import Scalar
        coeff = Scalar.from_rational(Fraction(num, den), 1)
        x = parse_expression("K", klmn.base.alphabet, ("lam",), 1)
        scaled = x.scaled(coeff)
        printed = format_element(scaled)
        reparsed = parse_expression(printed, klmn.base.alphabet, ("lam",), 1)
        assert reparsed == scaled
