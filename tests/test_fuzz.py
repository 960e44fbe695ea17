"""Hypothesis fuzzing of the two text parsers: whatever the input, the only
outcomes are a value or a clean parse error, never a crash or a hang."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qcontract import catalog
from qcontract.catalog import PresentationFormatError, parse_presentation_text
from qcontract.freealg import AlphabetMismatch, Element
from qcontract.hopf import HopfPresentation
from qcontract.parser import ParseError, parse_expression
from qcontract.rewrite import Presentation, RuleOrientationError

SUQ2 = catalog.load_presentation("builtin:suq2", 2).base
ALPHABET = SUQ2.alphabet

#: exponents stay below 4 and nesting is short, so no power can blow up
TOKENS = ["a", "b", "c", "d", "q", "lam", "i", "eps", "ox", "zz", "0", "1",
          "2", "3", "1/2", "2/0", "+", "-", "*", "^", "(", ")", "[", "]", ",",
          "/", "@", "#", "²", "é", "\n"]

token_text = st.lists(st.sampled_from(TOKENS), max_size=12).map(" ".join)
#: raw characters without decimal digits, so no exponent can be written
raw_text = st.text(max_size=24).filter(
    lambda s: not any(ch.isdecimal() for ch in s))


@given(st.one_of(token_text, raw_text))
@example("a^\u00b2")  # a digit that int() does not read
@example("(" * 3000 + "a" + ")" * 3000)  # nested beyond the parser's limit
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
def test_parse_expression_returns_an_element_or_a_parse_error(text):
    try:
        x = parse_expression(text, ALPHABET, ("q", "lam"), 2)
    except ParseError:
        return
    assert isinstance(x, Element)


@given(st.one_of(token_text, raw_text))
@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
def test_reducing_parse_returns_a_normal_element_or_a_clean_error(text):
    try:
        x = parse_expression(text, ALPHABET, ("q", "lam"), 2, SUQ2)
    except (ParseError, AlphabetMismatch):  # a tensor is not reduced
        return
    assert all(SUQ2.is_normal_word(w) for w in x.terms)


SECTION_HEADERS = ["[params]", "[generators]", "[rules]", "[coproduct]",
                   "[counit]", "[antipode]", "[star]", "[excluded]",
                   "[antipode] @ Eq. (4)", "[nonsense]", "[rules] @ x"]
LINES = ["q", "lam", "a b", "x y", "b c a d", "a a", "y*x -> x*y",
         "a*b -> q*b*a", "b*a -> a*b", "b*a -> a ox b", "a ox b -> 1",
         "a -> a ox 1 + 1 ox a", "a -> a ox a ox a", "a -> 1", "a -> 0",
         "a -> 1 ox 1", "b -> a*b", "x -> x ox x", "x -> 1 @ Eq. (1)",
         "y*x -> x*y @ Eq. (2)", "a*b", "-> a", "a ->", "y -> (x",
         "x -> y^3", "z -> x", "x y", "# comment", ""]

line = st.one_of(st.sampled_from(LINES), st.sampled_from(LINES), token_text)
section = st.tuples(st.sampled_from(SECTION_HEADERS),
                    st.lists(line, max_size=3))
sections = st.lists(section, max_size=8).map(
    lambda secs: "\n".join(h + "\n" + "\n".join(ls) for h, ls in secs))
generators = st.sampled_from(["a b", "x y", "a", "b c a d"])
#: every section in order with a few fuzzed lines, so that texts reach the
#: rule, map and counit parsers
hopf_skeleton = st.tuples(
    generators, *[st.lists(line, max_size=2) for _ in range(6)]).map(
    lambda t: "[params]\nq\n[generators]\n" + t[0] + "".join(
        f"\n[{name}]\n" + "\n".join(lines) for name, lines in zip(
            ("rules", "coproduct", "counit", "antipode", "star", "excluded"),
            t[1:])))
preso_text = st.one_of(
    st.lists(line, max_size=8).map("\n".join),
    sections,
    st.tuples(generators, sections).map(
        lambda t: f"[params]\nq\n[generators]\n{t[0]}\n{t[1]}"),
    hopf_skeleton,
)


@given(preso_text)
@example("[generators]\na b\n[rules]\nb*a -> a ox b")
@example("[generators]\na\n[coproduct]\na -> a\n[counit]\na -> 1\n"
         "[antipode]\na -> a\n[star]\na -> a")
@example("[generators]\na\n[coproduct]\na -> a ox a\n[counit]\na -> 1\n"
         "[antipode]\na -> a\n[star]\na -> a\n[excluded]\na")
@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
def test_parse_presentation_text_returns_a_presentation_or_a_format_error(text):
    try:
        h = parse_presentation_text(text, 1, name="fuzz")
    except (ParseError, PresentationFormatError, RuleOrientationError):
        # RuleOrientationError: well-formed rules that do not decrease the
        # order; the command line reports it like a format error (exit 2)
        return
    assert isinstance(h, (Presentation, HopfPresentation))
