"""Tensor powers reduce slot by slot through the base presentation's own
normal form; the oracle is the old rewriting system with per-slot rule
copies and slot-swap rules over flat words (``slot_swap.py``)."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from slot_swap import oracle_normal_form, projected, slot_swap_power

from qcontract import catalog, contract
from qcontract.freealg import Alphabet, Element, format_word
from qcontract.parser import parse_expression
from qcontract.rewrite import (
    Presentation,
    StepLimitExceeded,
    check_local_confluence,
    step_limit,
)
from qcontract.scalars import Scalar


def _check_confluence(p: Presentation) -> bool:
    """The confluence verdict on ``p`` over every ambiguity; running it
    must change nothing the normal forms below see."""
    return check_local_confluence(
        p, 2 * max(len(r.lhs) for r in p.rules)).ok


@lru_cache(maxsize=None)
def _powers(name: str, order: int):
    """A builtin's base presentation and its slot-swap squares and cubes."""
    p = catalog.load_presentation(f"builtin:{name}", order).base
    return p, {k: slot_swap_power(p, k) for k in (2, 3)}


@st.composite
def flat_elements(draw, alphabet: Alphabet, order: int):
    """Up to three interleaved flat words of a slot-swap oracle, with
    rational coefficients, some times eps."""
    letters = st.sampled_from([alphabet.gen(n) for n in alphabet.names])
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.lists(letters, max_size=6)))
        coeff = Scalar.from_rational(
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))),
            order)
        if draw(st.booleans()):
            coeff = coeff * Scalar.eps(order)
        terms[word] = coeff
    return Element(alphabet, terms, order)


def assert_matches_oracle(p: Presentation, k: int, oracle: Presentation,
                          x: Element):
    """The k-slot power reduces the slot projection of the flat ``x``; the
    oracle rewrites ``x`` itself."""
    alph = p.alphabet.at_slots(k)
    assert p.at_slots(k).normal_form(projected(x, alph)) == projected(
        oracle.rewrite(x), alph)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_slot_by_slot_matches_slot_swap_rewriting(name, k, data):
    order = data.draw(st.integers(0, 4), label="order")
    p, oracles = _powers(name, order)
    x = data.draw(flat_elements(oracles[k].alphabet, order))
    assert_matches_oracle(p, k, oracles[k], x)


@lru_cache(maxsize=None)
def _marker_powers():
    """The solver's marker presentation: the open final presentation plus a
    marker letter standing for [eta, etabar]; it is not confluent."""
    pz = contract.marker_presentation(catalog.without_commutator_rule(
        catalog.ekappa2_final_presentation(1)).base, "eta", "etabar")
    assert not _check_confluence(pz)
    return pz, {k: slot_swap_power(pz, k) for k in (2, 3)}


@pytest.mark.parametrize("k", [2, 3])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_uncertified_marker_presentation_matches(k, data):
    pz, oracles = _marker_powers()
    x = data.draw(flat_elements(oracles[k].alphabet, 1))
    assert_matches_oracle(pz, k, oracles[k], x)


@lru_cache(maxsize=None)
def _eps_rule_powers(confluence_checked: bool):
    """A rule with an eps coefficient: at order 1 an eps-weighted word
    times its slot word's normal form vanishes."""
    p = catalog.parse_presentation_text(
        "[generators]\nb a\n\n[rules]\na*b -> eps*b*a\n", 1, name="eps")
    if confluence_checked:
        assert _check_confluence(p)
    return p, {k: slot_swap_power(p, k) for k in (2, 3)}


@pytest.mark.parametrize("confluence_checked", [False, True])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_vanishing_products_are_dropped(confluence_checked, data):
    p, oracles = _eps_rule_powers(confluence_checked)
    k = data.draw(st.sampled_from([2, 3]), label="k")
    x = data.draw(flat_elements(oracles[k].alphabet, 1))
    assert_matches_oracle(p, k, oracles[k], x)


def test_tensor_power_has_no_rules():
    p = catalog.suq2_presentation(1).base
    assert p.at_slots(1) is p
    p2 = p.at_slots(2)
    assert not isinstance(p2, Presentation)
    assert not hasattr(p2, "rules")
    assert (p2.alphabet, p2.trunc_order, p2.name) == (
        p.alphabet.at_slots(2), 1, "suq2@2")


def test_one_tensor_power_per_slot_count():
    p = catalog.suq2_presentation(1).base
    for k in (2, 3):
        assert p.at_slots(k).alphabet is p.at_slots(k).alphabet


def test_interleaved_words_print_slot_by_slot():
    oracle = slot_swap_power(catalog.suq2_presentation(1).base, 3)
    a1, b1, a2, c3 = map(oracle.alphabet.gen, ("a@1", "b@1", "a@2", "c@3"))
    alph = Alphabet(("b", "c", "a", "d"), 3)
    (word,) = projected(Element.from_word(
        oracle.alphabet, (a2, a1, c3, b1, a2), 1), alph).terms
    assert format_word(word, 3) == "a*b ox a^2 ox c"
    assert format_word(((), ()), 2) == "1 ox 1"


# Smallest step limit at which this input reduces in suq2 (x) suq2 at order
# 2 with cold memos: a slot word costs the steps of its base reduction, which
# keeps it in the base's whole-word memo, and nothing once it is there (met
# in either slot, or reduced by the base itself); each product of the
# slot-by-slot multiplication costs one step, and placing a slot word in its
# slot is free.  Warm memos charge less, so every warm variant passes at the
# cold threshold.  A confluence check run first changes nothing.
TENSOR_INPUT = "(a ox a + b ox c + c ox b + d ox d)^3"
TENSOR_THRESHOLD = 403


@pytest.mark.parametrize("confluence_checked", [False, True])
@pytest.mark.parametrize("warm", ["cold", "same input", "word by word"])
def test_tensor_step_limit_threshold(confluence_checked, warm):
    def load():
        p = catalog.load_presentation("builtin:suq2", 2).base
        if confluence_checked:
            assert _check_confluence(p)
        return p

    p = load()
    x = parse_expression(TENSOR_INPUT, p.alphabet, ("q",), 2)
    with pytest.raises(StepLimitExceeded, match=r"reducing in suq2@2$"), \
            step_limit(TENSOR_THRESHOLD - 1):
        load().at_slots(2).normal_form(x)
    p2 = p.at_slots(2)
    if warm == "same input":
        p2.normal_form(x)
    elif warm == "word by word":
        for w in reversed(list(x.terms)):
            p2.normal_form(Element.from_word(x.alphabet, w, 2))
    with step_limit(TENSOR_THRESHOLD):
        got = p2.normal_form(x)
    assert got == oracle_normal_form(slot_swap_power(p, 2), x)
