from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontract import catalog
from qcontract.freealg import Alphabet, format_element, tensor_embed
from qcontract.parser import ParseError, parse_expression, tokenize
from qcontract.rewrite import StepLimitExceeded, step_limit
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


def _tokens(text):
    return [(t.kind, t.value, t.line, t.col) for t in tokenize(text)]


def _parse_error(text, alphabet=("a", "b")):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, Alphabet(alphabet), ("q",), 1)
    return str(exc.value)


class TestTokenizerEdges:
    """Positions count code points from 1; only ``\\n`` starts a line."""

    def test_tabs_and_crlf(self):
        assert _tokens("a\t+\tb") == [
            ("NAME", "a", 1, 1), ("OP", "+", 1, 3), ("NAME", "b", 1, 5),
            ("END", None, 1, 6)]
        assert _tokens("\tb\r\n\t*a") == [
            ("NAME", "b", 1, 2), ("OP", "*", 2, 2), ("NAME", "a", 2, 3),
            ("END", None, 2, 4)]

    def test_number_followed_by_a_name(self):
        assert _tokens("2a") == [("NUMBER", 2, 1, 1), ("NAME", "a", 1, 2),
                                 ("END", None, 1, 3)]
        assert _tokens("2ox3") == [("NUMBER", 2, 1, 1),
                                   ("NAME", "ox3", 1, 2), ("END", None, 1, 5)]
        assert _parse_error("2a") == "line 1, col 2: trailing input"

    def test_names_with_digits_and_underscores(self):
        assert _tokens("x_1*y2 _") == [
            ("NAME", "x_1", 1, 1), ("OP", "*", 1, 4), ("NAME", "y2", 1, 5),
            ("NAME", "_", 1, 8), ("END", None, 1, 9)]
        x = parse_expression("x_1*y2", Alphabet(("x_1", "y2")), (), 1)
        assert str(x) == "x_1*y2"

    def test_slash_without_a_digit_is_not_a_fraction(self):
        assert _parse_error("1/") == "line 1, col 2: unexpected character '/'"
        assert _parse_error("1/ 2") == (
            "line 1, col 2: unexpected character '/'")

    def test_division_by_zero_points_at_the_number(self):
        assert _parse_error("1/0") == "line 1, col 1: division by zero"
        assert _parse_error("a +\n 1/0") == "line 2, col 2: division by zero"
        # the whole text is tokenized before any of it is parsed
        assert _parse_error("zz + 1/0") == "line 1, col 6: division by zero"

    def test_superscripts_and_vulgar_fractions_are_not_names(self):
        # '²' and '½' are alphanumeric but neither letters nor decimal
        assert _parse_error("a^²") == "line 1, col 3: unexpected character '²'"
        assert _parse_error("½*a") == "line 1, col 1: unexpected character '½'"
        # inside a name they are name characters
        assert _tokens("a²") == [("NAME", "a²", 1, 1), ("END", None, 1, 3)]
        assert _parse_error("a²") == "line 1, col 1: unknown symbol 'a²'"

    def test_arabic_indic_digits_are_numbers(self):
        assert _tokens("٣/٤*a") == [
            ("NUMBER", Fraction(3, 4), 1, 1), ("OP", "*", 1, 4),
            ("NAME", "a", 1, 5), ("END", None, 1, 6)]
        assert str(parse_expression("a^٢ + ٣/٤*b", Alphabet(("a", "b")),
                                    (), 1)) == "a^2 + 3/4*b"
        assert _parse_error("1/٠") == "line 1, col 1: division by zero"
        assert _parse_error("a٣") == "line 1, col 1: unknown symbol 'a٣'"


class TestScalarPowers:
    """A power of a scalar writes no letter; its multiplications are
    charged by the terms and the sizes of the numbers they multiply."""

    A = Alphabet(("a",))

    @pytest.mark.parametrize("text,value", [("2^20", 2**20),
                                            ("(1/3)^-20", 3**20)])
    def test_small_numbers_cost_one_step_per_multiplication(self, text,
                                                            value):
        with step_limit(20):
            x = parse_expression(text, self.A, ("q",), 1)
        assert str(x) == str(value)
        with step_limit(19), pytest.raises(StepLimitExceeded):
            parse_expression(text, self.A, ("q",), 1)

    @pytest.mark.parametrize("base,exp", [("2", 2000), ("2", -2000),
                                          ("(3/5+4/5*i)", 300),
                                          ("(1+q)", 300)])
    def test_growing_numbers_cost_more(self, base, exp):
        # one step per multiplication, and one per typed product inside
        # the base, would fit the limit
        text = f"{base}^{exp}"
        with step_limit(abs(exp) + 5), pytest.raises(StepLimitExceeded):
            parse_expression(text, self.A, ("q",), 1)
        assert len(parse_expression(text, self.A, ("q",), 1).terms) == 1


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
