from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontract.freealg import (
    Alphabet,
    AlphabetMismatch,
    Element,
    GeneratorId,
    GeneratorMap,
    MapKind,
    MissingImage,
    accumulate_scaled,
    tensor_embed,
)
from qcontract.parser import parse_expression
from qcontract.sampling import random_element
from qcontract.scalars import GaussianRational, ParamMonomial, Scalar


def pe(text, alphabet, params=("lam",), order=1):
    return parse_expression(text, alphabet, params, order)


class TestMultiply:
    def test_single_letters_concatenate(self, klmn, pe_klmn):
        assert pe_klmn("K") * pe_klmn("M") == pe_klmn("K*M")

    def test_distributivity_with_truncation(self, pe_klmn):
        got = pe_klmn("K + eps*L") * pe_klmn("K - eps*L")
        assert got == pe_klmn("K*K + eps*(L*K - K*L)")

    def test_ansatz_style_product(self, pe_klmn):
        got = pe_klmn("M + i*eps*N") * pe_klmn("M - i*eps*N")
        assert got == pe_klmn("M*M + i*eps*(N*M - M*N)")

    def test_alphabet_mismatch_rejected(self, pe_klmn, pe_suq2):
        with pytest.raises(AlphabetMismatch):
            pe_klmn("K") * pe_suq2("a")

    def test_associative_and_unital_randomized(self, klmn):
        rng = Random(42)
        one = Element.unit(klmn.base.alphabet, 1)
        for _ in range(200):
            x = random_element(rng, klmn.base)
            y = random_element(rng, klmn.base)
            z = random_element(rng, klmn.base)
            assert (x * y) * z == x * (y * z)
            assert one * x == x
            assert x * one == x


class TestApplyMap:
    def test_homomorphism_on_words(self):
        src = Alphabet(("x",))
        dst = Alphabet(("K",))
        f = GeneratorMap({src.gen("x"): Element.generator(dst, "K", 1)},
                         MapKind.HOMOMORPHISM, src, dst, 1)
        xx = Element.generator(src, "x", 1) * Element.generator(src, "x", 1)
        assert f.apply(xx) == pe("K*K", dst, (), 1)

    def test_contraction_images_on_product(self, klmn, pe_klmn):
        src = Alphabet(("b", "c"))
        f = GeneratorMap(
            {src.gen("b"): pe_klmn("M + i*eps*N"),
             src.gen("c"): pe_klmn("M - i*eps*N")},
            MapKind.HOMOMORPHISM, src, klmn.base.alphabet, 1)
        bc = Element.generator(src, "b", 1) * Element.generator(src, "c", 1)
        assert f.apply(bc) == pe_klmn("(M + i*eps*N)*(M - i*eps*N)")

    def test_antilinear_antihomomorphism_reverses_and_conjugates(self, klmn, pe_klmn):
        alph = klmn.base.alphabet
        f = GeneratorMap(
            {alph.gen(n): pe_klmn(n) for n in ("K", "J", "N", "L")}
            | {alph.gen("M"): pe_klmn("-M")},
            MapKind.STAR, alph, alph, 1)
        x = pe_klmn("i*K*M")
        # (i K M)* = conj(i) M* K* = (-i)(-M)(K) = i M K
        assert f.apply(x) == pe_klmn("i*M*K")

    def test_missing_image_is_an_error(self):
        src = Alphabet(("x", "y"))
        f = GeneratorMap({src.gen("x"): Element.generator(src, "x", 1)},
                         MapKind.HOMOMORPHISM, src, src, 1)
        with pytest.raises(MissingImage):
            f.apply(Element.generator(src, "y", 1))

    def test_multiplicativity_randomized(self, klmn):
        rng = Random(5)
        alph = klmn.base.alphabet
        images = {alph.gen(n): random_element(rng, klmn.base, degree=2,
                                              n_terms=2)
                  for n in alph.names}
        hom = GeneratorMap(images, MapKind.HOMOMORPHISM, alph, alph, 1)
        anti = GeneratorMap(images, MapKind.ANTIHOMOMORPHISM, alph, alph, 1)
        for _ in range(50):
            x = random_element(rng, klmn.base, degree=2)
            y = random_element(rng, klmn.base, degree=2)
            assert hom.apply(x * y) == hom.apply(x) * hom.apply(y)
            assert anti.apply(x * y) == anti.apply(y) * anti.apply(x)


class TestTensorEmbed:
    def test_embed_two_slots(self, klmn, pe_klmn):
        got = tensor_embed(pe_klmn("K"), 1) * tensor_embed(pe_klmn("M"), 2)
        assert got == pe_klmn("K ox M")

    def test_embed_unit(self, klmn):
        one = Element.unit(klmn.base.alphabet, 1)
        assert tensor_embed(one, 1) == Element.unit(
            klmn.base.alphabet.at_slots(2), 1)

    def test_coproduct_image_as_embed_sum(self, klmn, pe_klmn):
        delta_k = klmn.coproduct.images[klmn.base.alphabet.gen("K")]
        built = (tensor_embed(pe_klmn("K"), 1) * tensor_embed(pe_klmn("K"), 2)
                 + tensor_embed(pe_klmn("M"), 1) * tensor_embed(pe_klmn("M"), 2))
        assert delta_k == built

    def test_slot_out_of_range(self, pe_klmn):
        with pytest.raises(ValueError):
            tensor_embed(pe_klmn("K"), 4)
        with pytest.raises(ValueError):
            tensor_embed(pe_klmn("K"), 0)

    def test_embedding_is_algebra_map(self, klmn):
        rng = Random(9)
        for _ in range(100):
            x = random_element(rng, klmn.base, degree=2)
            y = random_element(rng, klmn.base, degree=2)
            assert tensor_embed(x * y, 1) == tensor_embed(x, 1) * tensor_embed(y, 1)
            assert tensor_embed(x + y, 2) == tensor_embed(x, 2) + tensor_embed(y, 2)


class TestEpsComponents:
    def test_components_reassemble(self, klmn):
        rng = Random(3)
        for _ in range(100):
            x = random_element(rng, klmn.base, degree=3)
            comps = x.eps_components()
            total = Element.zero(klmn.base.alphabet, 1)
            for k, comp in comps.items():
                eps_k = Scalar.eps(1, power=k) if k else Scalar.one(1)
                total = total + comp.scaled(eps_k)
            assert total == x


ALPH_AB, ORDER_1 = Alphabet(("a", "b")), 1
#: scalars at order 1 whose products may truncate to zero
SCALARS = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.sampled_from([-1, 1, 2]), max_size=2).map(
    lambda d: Scalar({(ParamMonomial.of("lam", e) if e else ParamMonomial(),
                       k): GaussianRational(v) for (e, k), v in d.items()},
                     ORDER_1))
WORDS = st.lists(st.sampled_from([GeneratorId("a"), GeneratorId("b")]),
                 max_size=2).map(tuple)


@st.composite
def element_pairs(draw):
    """Two elements; the second cancels some terms of the first."""
    x = Element(ALPH_AB, draw(st.dictionaries(WORDS, SCALARS, max_size=4)),
                ORDER_1)
    cancel = draw(st.sets(st.sampled_from(sorted(x.terms) or [()])))
    y_terms = draw(st.dictionaries(WORDS, SCALARS, max_size=3))
    y_terms.update({w: -x.terms[w] for w in cancel if w in x.terms})
    return x, Element(ALPH_AB, y_terms, ORDER_1)


def clean(terms: dict) -> bool:
    return all(not c.is_zero for c in terms.values())


def reference_sum(x: Element, y: Element, s=None) -> dict:
    """``x + y*s`` summed word by word and cleaned at the end."""
    acc = dict(x.terms)
    for w, c in y.terms.items():
        c = c if s is None else c * s
        acc[w] = acc[w] + c if w in acc else c
    return {w: c for w, c in acc.items() if not c.is_zero}


class TestNoZeroCoefficientStored:
    """The element builders that skip the constructor's cleaning pass still
    never store a zero coefficient, and keep the order of their terms."""

    @given(pair=element_pairs(), s=SCALARS)
    @settings(max_examples=150)
    def test_sums_negations_units_and_scalings(self, pair, s):
        x, y = pair
        assert clean(x.terms) and clean(y.terms)
        total = x + y
        assert clean(total.terms)
        assert list(total.terms.items()) == list(reference_sum(x, y).items())
        assert clean((x - y).terms) and (x - y) + y == x
        assert clean((-x).terms) and ((-x) + x).is_zero
        unit = Element.unit(ALPH_AB, ORDER_1)
        assert unit.terms == {(): Scalar.one(ORDER_1)}
        assert clean(x.scaled(s).terms)
        assert x.scaled(s) == Element(
            ALPH_AB, {w: c * s for w, c in x.terms.items()}, ORDER_1)

    @given(pair=element_pairs(), s=SCALARS, w=WORDS, data=st.data())
    @settings(max_examples=150)
    def test_accumulate_scaled(self, pair, s, w, data):
        x, y = pair
        terms = dict(y.terms)
        terms[w] = Scalar.zero(ORDER_1)  # as a rewriter's per-word sum
        factor = data.draw(st.sampled_from([Scalar.one(ORDER_1), s]))
        acc = dict(x.terms)
        accumulate_scaled(acc, terms, factor)
        assert clean(acc)
        want = reference_sum(x, Element(ALPH_AB, terms, ORDER_1), factor)
        assert list(acc.items()) == list(want.items())
