"""Differential tests: the integer-triple Gaussian rationals and their
printer, the dict-accumulating normal form, the normal-word table, the tuple
letters, the shared scalar one, the kept single-term scalars with their
memoised products and sums, the fused multiply-add of ``accumulate_scaled``
and the printer's term table, the tensor fold over kept leg images,
reducing while parsing, the term-level parser, the memoised Hopf maps, the
random layer's per-word defects and the solver's sparse elimination against
independent slow paths; and whole commands against the plain rewriter."""

import copy
import operator
import pickle
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import gcd
from pathlib import Path
from random import Random

import element_parser
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from dense_elimination import dense_gauss_solve
from reference_engines import reference_engines
from element_parser import parse_expression as element_parse
from element_parser import tokenize as element_tokenize
from renaming import reversed_names, section_names, substituted
from slot_swap import flat, projected, slot_swap_power

from qcontract import catalog, contract, hopf, parser, rewrite, scalars
from qcontract.cli import main
from qcontract.freealg import (
    Element,
    GeneratorId,
    GeneratorMap,
    MapKind,
    accumulate_scaled,
    retag_slots,
    tensor_embed,
)
from qcontract.hopf import (
    RANDOM_DEGREE,
    RANDOM_ELEMENTS,
    ExcludedGenerator,
    HopfPresentation,
    check_coassociativity,
    check_convolution_on_element,
    check_star_twice_on_element,
    random_layer,
)
from qcontract.parser import parse_expression, tokenize
from qcontract.reports import CheckReport
from qcontract.rewrite import (
    DEFAULT_STEP_LIMIT,
    Presentation,
    StepLimitExceeded,
    check_local_confluence,
    normal_form_random,
    step_limit,
)
from qcontract.sampling import random_element
from qcontract.scalars import (
    GaussianRational,
    ParamMonomial,
    Scalar,
    TruncationMismatch,
    format_gaussian,
)


class FracPair:
    """Oracle: a Gaussian rational as a plain pair of Fractions."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return FracPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FracPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FracPair(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return self * FracPair(o.re / n, -o.im / n)

    def __neg__(self):
        return FracPair(-self.re, -self.im)

    def conjugate(self):
        return FracPair(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
        imabs = abs(im)
        istr = "i" if imabs == 1 else f"{imabs}*i"
        return f"({re}{'+' if im > 0 else '-'}{istr})"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def gr_of(p: FracPair) -> GaussianRational:
    return GaussianRational(p.re, p.im)


def assert_same(z: GaussianRational, p: FracPair):
    a, b, d = z._a, z._b, z._d
    assert d > 0 and gcd(a, b, d) == 1, (a, b, d)
    assert (z.re, z.im) == (p.re, p.im)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert str(z) == str(p)
    assert repr(z) == repr(p)


#: the fractions of [-20, 20] with denominator at most 12, drawn from ints
#: (st.fractions draws the same set more slowly)
small = st.integers(1, 12).flatmap(
    lambda d: st.integers(-20 * d, 20 * d).map(lambda n: Fraction(n, d)))
pairs = st.builds(FracPair, small, small)


class TestGaussianRationalAgainstFractionPairs:
    @given(pairs, pairs)
    @settings(max_examples=300)
    def test_binary_operations(self, x, y):
        zx, zy = gr_of(x), gr_of(y)
        assert_same(zx, x)
        assert_same(zx + zy, x + y)
        assert_same(zx - zy, x - y)
        assert_same(zx * zy, x * y)
        if not y.is_zero():
            assert_same(zx / zy, x / y)
        else:
            with pytest.raises(ZeroDivisionError):
                zx / zy

    @given(pairs)
    @settings(max_examples=200)
    def test_unary_operations(self, x):
        z = gr_of(x)
        assert_same(-z, -x)
        assert_same(z.conjugate(), x.conjugate())
        assert z.is_zero == x.is_zero()

    @given(pairs, small)
    @settings(max_examples=200)
    def test_mixed_operands(self, x, r):
        z, p = gr_of(x), FracPair(r)
        assert_same(z + r, x + p)
        assert_same(r + z, p + x)
        assert_same(z - r, x - p)
        assert_same(r - z, p - x)
        assert_same(z * r, x * p)
        assert_same(r * z, p * x)
        assert (z == r) == (x.re == r and x.im == 0)

    @given(pairs, pairs)
    @example(FracPair(3), FracPair(1))
    @example(FracPair(Fraction(-5, 6)), FracPair(0, 1))
    @settings(max_examples=200)
    def test_equality_and_hash(self, x, y):
        zx, zy = gr_of(x), gr_of(y)
        assert (zx == zy) == (x.re == y.re and x.im == y.im)
        if not y.is_zero():
            # the same value reached by another route
            again = (zx * zy) / zy
            assert again == zx
            assert hash(again) == hash(zx)
        if x.im == 0:
            # a real value hashes like the Fraction (or int) it equals
            assert zx == x.re and hash(zx) == hash(x.re)
            assert len({zx, x.re}) == 1

    def test_integer_and_fraction_constructors_agree(self):
        assert GaussianRational(3, -2) == GaussianRational(Fraction(6, 2),
                                                           Fraction(-4, 2))
        assert hash(GaussianRational(3)) == hash(GaussianRational(Fraction(3)))
        z = GaussianRational(Fraction(1, 6), Fraction(-3, 4))
        assert (z._a, z._b, z._d) == (2, -9, 12)

    def test_reduction_to_integers(self):
        half = GaussianRational(Fraction(1, 2), Fraction(1, 2))
        z = half + half
        assert (z._a, z._b, z._d) == (1, 1, 1)
        assert str(z) == "(1+i)"

    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 36))
    @example(2, 3, 4)
    @example(-6, 0, 4)
    @example(0, -9, 6)
    @example(3, -3, 3)
    @settings(max_examples=300)
    def test_formatting_from_the_triple(self, a, b, d):
        # the oracle formats the Fraction parts, as the printer used to
        x = FracPair(Fraction(a, d), Fraction(b, d))
        assert format_gaussian(gr_of(x)) == str(x)

    def test_parts_reduce_separately(self):
        z = GaussianRational(Fraction(1, 2), Fraction(3, 4))
        assert (z._a, z._b, z._d) == (2, 3, 4)
        assert format_gaussian(z) == "(1/2+3/4*i)"
        assert format_gaussian(-z) == "(-1/2-3/4*i)"
        assert format_gaussian(z - Fraction(1, 2)) == "3/4*i"


# -- scalars, term by term ----------------------------------------------------

MONOS = [ParamMonomial(), ParamMonomial.of("lam"), ParamMonomial.of("q", -1),
         ParamMonomial((("q", 2), ("lam", 1)))]


@st.composite
def oracle_terms(draw, order):
    n = draw(st.integers(0, 4))
    out = {}
    for _ in range(n):
        key = (draw(st.sampled_from(MONOS)), draw(st.integers(0, order)))
        out[key] = draw(pairs)
    return out


def scalar_of(terms: dict, order: int) -> Scalar:
    return Scalar({k: gr_of(v) for k, v in terms.items()}, order)


def oracle_mono_mul(m1, m2):
    acc = dict(m1.exps)
    for n, e in m2.exps:
        acc[n] = acc.get(n, 0) + e
    return ParamMonomial(acc.items())


def oracle_add(t1, t2):
    acc = dict(t1)
    for k, v in t2.items():
        acc[k] = acc[k] + v if k in acc else v
    return acc


def oracle_mul(t1, t2, order):
    acc = {}
    for (m1, e1), c1 in t1.items():
        for (m2, e2), c2 in t2.items():
            if e1 + e2 > order:
                continue
            key = (oracle_mono_mul(m1, m2), e1 + e2)
            acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return acc


def assert_scalar_matches(s: Scalar, terms: dict, order: int):
    expected = {k: v for k, v in terms.items()
                if not v.is_zero() and k[1] <= order}
    assert set(s.terms) == set(expected)
    for key, coeff in s.terms.items():
        assert_same(coeff, expected[key])


@given(st.integers(0, 3).flatmap(
    lambda k: st.tuples(st.just(k), oracle_terms(k), oracle_terms(k))))
@settings(max_examples=200)
def test_scalar_arithmetic_against_oracle(case):
    order, t1, t2 = case
    s1, s2 = scalar_of(t1, order), scalar_of(t2, order)
    assert_scalar_matches(s1 * s2, oracle_mul(t1, t2, order), order)
    assert_scalar_matches(s1 + s2, oracle_add(t1, t2), order)
    assert_scalar_matches(s1 - s2, oracle_add(t1, {k: -v for k, v in t2.items()}),
                          order)
    assert_scalar_matches(-s1, {k: -v for k, v in t1.items()}, order)
    assert_scalar_matches(s1.conjugate(),
                          {k: v.conjugate() for k, v in t1.items()}, order)


def test_monomial_products_are_memoised_and_correct():
    a, b = MONOS[2], MONOS[3]
    p = a * b
    assert p == oracle_mono_mul(a, b)
    assert a * b is p
    assert (p * a.inverse()) == b


# -- normal forms -------------------------------------------------------------


def random_q_lam_element(rng, p, **kw):
    """``random_element`` over q and lam, scaled by q^-k for a random k in
    0..2, so that q takes negative exponents on every presentation, not only
    where the rules of ``p`` raise it to one."""
    x = random_element(rng, p, params=("q", "lam"), **kw)
    return x.scaled(Scalar.param("q", p.trunc_order, -rng.randint(0, 2)))


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normal_form_matches_random_strategy(name, seed):
    h = catalog.load_presentation(f"builtin:{name}", 2)
    p = h.base
    rng = Random(seed)
    for _ in range(6):
        x = random_q_lam_element(rng, p, degree=4, n_terms=4)
        assert p.normal_form(x) == normal_form_random(p, x, Random(seed + 99))


# Smallest step limits at which the plain rewriter reduces these inputs at
# order 2: one step per rule application, unchanged by scalar representation.
STEP_THRESHOLDS = [
    ("suq2", "d*d*d*a*a*a", 20),
    ("suq2", "(a+b+c+d)^4", 642),
    ("ekappa2-klmn", "(K+L+M+N)^3 + N*M*L*K", 116),
    ("ekappa2-final", "(eta+etabar+E+F)^3", 118),
]


@pytest.mark.parametrize("name,expr,limit", STEP_THRESHOLDS)
def test_step_limit_threshold(name, expr, limit):
    p = catalog.load_presentation(f"builtin:{name}", 2).base
    x = parse_expression(expr, p.alphabet, ("lam", "q"), 2)
    with pytest.raises(StepLimitExceeded), step_limit(limit - 1):
        p.rewrite(x)
    with step_limit(limit):
        assert not p.rewrite(x).is_zero


# -- the normal-word table against the rewriter --------------------------------


def _confluent(p):
    longest = max(len(r.lhs) for r in p.rules)
    # no ambiguity word is longer than two left-hand sides
    assert check_local_confluence(p, 2 * longest).ok
    return p


def _assert_paths_agree(p, x, rng):
    table = p.normal_form(x)
    assert table == p.rewrite(x)
    assert table == normal_form_random(p, x, rng)


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_table_matches_rewriter_and_random_strategy(name, order):
    h = catalog.load_presentation(f"builtin:{name}", order)
    p = _confluent(h.base)
    rng = Random(f"{name}-{order}")
    for _ in range(8):
        x = random_q_lam_element(rng, p, degree=6, n_terms=4)
        _assert_paths_agree(p, x, rng)
    # every base word of up to three letters, each on its own
    for n in range(4):
        for names in product(p.alphabet.names, repeat=n):
            x = Element.from_word(p.alphabet, [p.alphabet.gen(g) for g in names],
                                  order)
            _assert_paths_agree(p, x, rng)


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_table_matches_rewriter_on_tensor_words(name, order):
    # the slot-swap rewriting system of the tensor square, confluent: its
    # table, its rewriter, the randomized strategy and the slot-by-slot
    # normal form of the tensor square agree
    h = catalog.load_presentation(f"builtin:{name}", order)
    p2 = _confluent(slot_swap_power(h.base, 2))
    by_slot = h.base.at_slots(2)
    alph2 = by_slot.alphabet
    rng = Random(f"{name}-{order}-tensor")
    for _ in range(6):
        x = random_q_lam_element(rng, p2, degree=5, n_terms=4)
        _assert_paths_agree(p2, x, rng)
        assert by_slot.normal_form(projected(x, alph2)) == projected(
            p2.rewrite(x), alph2)
    for g in h.hopf_generators():
        x = h.coproduct.apply(Element.generator(h.base.alphabet, g, order))
        cube = flat(x, p2) * flat(x, p2) * flat(x, p2)
        _assert_paths_agree(p2, cube, rng)
        assert by_slot.normal_form(x * x * x) == projected(
            p2.rewrite(cube), alph2)


NON_CONFLUENT = "[generators]\nc b a\n\n[rules]\na*b -> 1\nb*c -> 1\n"


@lru_cache(maxsize=None)
def _non_confluent():
    """The toy presentation above and the presentations with the marker
    letter that both commutator solvers reduce in."""
    final_open = catalog.without_commutator_rule(
        catalog.ekappa2_final_presentation(1)).base
    klmn = catalog.ekappa2_klmn_presentation(1).base
    ps = (catalog.parse_presentation_text(NON_CONFLUENT, name="bad"),
          contract.marker_presentation(final_open, "eta", "etabar"),
          contract.marker_presentation(klmn, "L", "N"))
    for p in ps:
        assert not check_local_confluence(
            p, 2 * max(len(r.lhs) for r in p.rules)).ok
    return ps


@st.composite
def non_confluent_inputs(draw):
    p = draw(st.sampled_from(_non_confluent()))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(p.alphabet.gen(g) for g in draw(
            st.lists(st.sampled_from(p.alphabet.names), max_size=7)))
        terms[word] = Scalar.from_rational(
            Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))), 1)
    return p, Element(p.alphabet, terms, 1)


@given(non_confluent_inputs())
@settings(max_examples=150, deadline=None)
def test_normal_form_is_irreducible_and_idempotent_without_confluence(case):
    p, x = case
    nf = p.normal_form(x)
    assert all(p.is_normal_word(w) for w in nf.terms)
    assert p.normal_form(nf) == nf


def _state(obj) -> dict:
    """The attributes of ``obj``, each dict among them copied."""
    return {k: dict(v) if isinstance(v, dict) else v
            for k, v in vars(obj).items()}


def test_confluence_check_leaves_its_presentation_as_it_was():
    p = catalog.load_presentation("builtin:suq2", 1).base
    x = parse_expression("d*d*a*a + b*c*d", p.alphabet, ("q",), 1)
    p.normal_form(x)
    p.at_slots(2).normal_form(tensor_embed(x, 1) * tensor_embed(x, 2))
    before, table = _state(p), _state(p._table)
    assert not check_local_confluence(p, 2).ok  # 3-letter ambiguities skipped
    assert check_local_confluence(p, 6).ok
    with pytest.raises(StepLimitExceeded), step_limit(1):
        check_local_confluence(p, 6)
    assert _state(p) == before and _state(p._table) == table


def test_deep_fill_chain_falls_back_to_the_rewriter():
    # x1 -> x0, x2 -> x1, ...: reducing x699 nests 699 fills
    n = 700
    text = ("[generators]\n" + " ".join(f"x{i}" for i in range(n))
            + "\n\n[rules]\n"
            + "".join(f"x{i + 1} -> x{i}\n" for i in range(n - 1)))
    p = catalog.parse_presentation_text(text)
    x = parse_expression(f"x{n - 1}^2 + x3", p.alphabet, (), 1)
    assert str(p.normal_form(x)) == "x0^2 + x0"


# -- the fold order against the generator names ------------------------------


DATA = Path(catalog.__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
FOLD_ORDER_FILES = [
    *(DATA / f for f in ("suq2.preso", "ekappa2_klmn.preso",
                         "ekappa2_final.preso")),
    GOLDEN / "reordered_suq2" / "suq2.preso",
    GOLDEN / "reordered_klmn" / "ekappa2_klmn.preso",
    GOLDEN / "reordered_final" / "ekappa2_final.preso",
]


def _renamed_letters(x: Element, alphabet, rename: dict) -> Element:
    """``x`` over ``alphabet``, each letter renamed."""
    def word(u):
        return tuple(GeneratorId(rename[g.name]) for g in u)
    return Element(alphabet, {
        word(w) if alphabet.slot_count == 1 else tuple(map(word, w)): c
        for w, c in x.terms.items()}, x.order)


@pytest.mark.parametrize("path", FOLD_ORDER_FILES,
                         ids=lambda f: f"{f.parent.name}/{f.name}")
def test_fold_order_changes_neither_results_nor_charges(path, monkeypatch):
    """The table folds the words of a sum in sorted order of their letters'
    names.  With the generators renamed, in their precedence order, to
    names that sort the other way round, every normal form maps back to the
    same element and draws the same steps: in the base, in its tensor
    square and while parsing, on the memos both sides warm alike."""
    text = path.read_text()
    rename = reversed_names(section_names(text, "generators"), "g")
    assert list(rename.values()) == sorted(rename.values(), reverse=True)
    old, new = (catalog.parse_presentation_text(t, 2).base
                for t in (text, substituted(text, rename)))
    left: list[list[int]] = []

    def drawn():
        left.append([DEFAULT_STEP_LIMIT])
        return left[-1]

    monkeypatch.setattr(rewrite, "allowance", drawn)
    monkeypatch.setattr(parser, "allowance", drawn)

    def charged(fn, *args):
        """``fn(*args)`` and the steps left of each allowance it drew."""
        del left[:]
        return fn(*args), [budget[0] for budget in left]

    def same(p, q, x):
        got, steps = charged(p.normal_form, x)
        assert charged(q.normal_form, _renamed_letters(
            x, q.alphabet, rename)) == (
            _renamed_letters(got, q.alphabet, rename), steps)

    # words of every length up to 4 over every letter, unreduced: a word
    # shares its prefixes with many others
    x = Element.unit(old.alphabet, 2)
    for g in old.alphabet.names:
        x = x + Element.generator(old.alphabet, g, 2)
    same(old, new, x * x * x * x)
    rng = Random(f"{path.parent.name}/{path.name}")
    for k in (1, 2, 1):
        for _ in range(12):
            same(old.at_slots(k), new.at_slots(k), random_element(
                rng, old.at_slots(k), degree=5, n_terms=8, params=old.params))
    power = f"({' + '.join(old.alphabet.names)})^4"
    got, steps = charged(parse_expression, power, old.alphabet, old.params,
                         2, old)
    assert charged(parse_expression, substituted(power, rename),
                   new.alphabet, new.params, 2, new) == (
        _renamed_letters(got, new.alphabet, rename), steps)


# -- reducing factor by factor against reducing the expansion -----------------


@st.composite
def expression_texts(draw, names, depth=3):
    """The text of an expression over ``names``, an upper bound on the
    number of free words it expands to and its degree."""
    kind = draw(st.sampled_from(
        ["atom", "sum", "product", "power", "commutator"] if depth else
        ["atom"]))
    if kind == "atom":
        atom = draw(st.sampled_from([*names, *names, "q", "lam", "i", "eps",
                                     "number"]))
        if atom == "number":
            atom = f"{draw(st.integers(1, 5))}/{draw(st.integers(1, 3))}"
        return atom, 1, int(atom in names)
    x, n, d = draw(expression_texts(names, depth - 1))
    if kind == "power":
        e = draw(st.integers(0, 4))
        return f"({x})^{e}", n ** e, d * e
    y, m, f = draw(expression_texts(names, depth - 1))
    if kind == "sum":
        return f"{x} {draw(st.sampled_from('+-'))} {y}", n + m, max(d, f)
    if kind == "product":
        return f"({x})*({y})", n * m, d + f
    return f"[{x}, {y}]", 2 * n * m, d + f


@lru_cache(maxsize=None)
def _builtin(name, order):
    return catalog.load_presentation(f"builtin:{name}", order).base


def _assert_reduced_while_parsing(p, text, order):
    params = ("lam", "q")
    expanded = parse_expression(text, p.alphabet, params, order)
    reduced = parse_expression(text, p.alphabet, params, order, p)
    assert reduced.terms == p.normal_form(expanded).terms
    assert str(reduced) == str(p.normal_form(expanded))
    return expanded, reduced


@given(st.sampled_from(catalog.BUILTIN_NAMES), st.sampled_from([1, 2]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_reducing_while_parsing_matches_normal_form(name, order, data):
    p = _builtin(name, order)
    text, size, degree = data.draw(expression_texts(p.alphabet.names))
    assume(size <= 256 and degree <= 8)
    expanded, reduced = _assert_reduced_while_parsing(p, text, order)
    assert reduced == normal_form_random(p, expanded, Random(text))


@given(st.sampled_from(range(3)), st.data())
@settings(max_examples=150, deadline=None)
def test_reducing_while_parsing_matches_normal_form_without_confluence(
        index, data):
    # the table's fold is linear and runs left to right, so reducing after
    # every factor gives the dict the expansion reduces to, even where an
    # irreducible reduct is not unique
    p = _non_confluent()[index]
    text, size, degree = data.draw(expression_texts(p.alphabet.names))
    assume(size <= 256 and degree <= 8)
    _assert_reduced_while_parsing(p, text, 1)


def test_right_operand_is_folded_by_its_free_words():
    # nf(etabar*nf(eta*F)) is another irreducible reduct of etabar*eta*F in
    # this non-confluent presentation: a reduced right operand would change
    # the result
    p = _non_confluent()[1]
    text = "etabar*(eta*F)"
    expanded, reduced = _assert_reduced_while_parsing(p, text, 1)
    inner = p.normal_form(parse_expression("eta*F", p.alphabet, (), 1))
    etabar = Element.generator(p.alphabet, "etabar", 1)
    assert p.normal_form(etabar * inner) != reduced


# -- the term-level parser against the Element-based one ----------------------


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: an element's alphabet, order and terms in
    their order, a token list, or the type and message of its exception."""
    try:
        out = fn(*args)
    except Exception as exc:  # the oracle's exceptions are the reference
        return type(exc), str(exc)
    if isinstance(out, list):
        return [(t.kind, t.value, t.line, t.col) for t in out]
    return out.alphabet, out.order, list(out.terms.items())


def _cold(p):
    """``p`` with empty memos, so that reductions charge as on a fresh
    load: a memoised table entry charges no fill."""
    if p is None:
        return None
    return Presentation(p.alphabet, p.rules, p.trunc_order, name=p.name,
                        params=p.params)


def _parse_alike(text, p, order, presentation=None, limit=None):
    """Both parsers on ``text`` over ``p``'s alphabet, against a cold copy
    of ``presentation`` when given, under step limit ``limit`` when
    given."""
    assert _outcome(tokenize, text) == _outcome(element_tokenize, text)
    with step_limit(DEFAULT_STEP_LIMIT if limit is None else limit):
        outcomes = [_outcome(parse, text, p.alphabet, ("lam", "q"), order,
                             _cold(presentation))
                    for parse in (parse_expression, element_parse)]
    assert outcomes[0] == outcomes[1]


def _file_texts() -> list[str]:
    """Each line of the builtin and golden files, and each side of its
    ``->`` or ``:``, comments and tags cut off."""
    data = Path(catalog.__file__).parent / "data"
    golden = Path(__file__).parent / "golden"
    texts = []
    for path in sorted([*data.glob("*.preso"), *golden.rglob("*.*")]):
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].split("@", 1)[0].strip()
            if line:
                texts += [line, *(side.strip()
                                  for side in re.split(r"->|: ", line))]
    return list(dict.fromkeys(texts))


_SOUP = ["a", "b", "c", "d", "K", "L", "q", "lam", "i", "eps", "ox", "x_1",
         "0", "1", "2", "7/3", "1/0", "1/", "٣", "²", "½", "$", "+", "-",
         "*", "^", "^-", "(", ")", "[", "]", ",", " ", "\t", "\n", "\r\n"]


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_term_parser_matches_the_oracle_on_file_lines(name):
    p = _builtin(name, 1)
    for text in _file_texts():
        for presentation, limit in ((None, None), (p, None), (None, 3),
                                    (p, 3)):
            _parse_alike(text, p, 1, presentation, limit)


@given(st.sampled_from(catalog.BUILTIN_NAMES), st.sampled_from([0, 1, 2]),
       st.booleans(), st.sampled_from([None, 1, 4, 16, 64]), st.data())
@settings(max_examples=150, deadline=None)
def test_term_parser_matches_the_oracle(name, order, reducing, limit, data):
    p = _builtin(name, order)
    text = data.draw(st.one_of(
        expression_texts(p.alphabet.names).map(lambda t: t[0]),
        st.lists(st.sampled_from(_SOUP), max_size=12).map("".join),
        st.text(max_size=12)))
    if limit is None and reducing:
        # unbounded, the inputs that expand far take too long here
        assume(len(text) < 40 or "^" not in text)
    _parse_alike(text, p, order, p if reducing else None, limit)


@given(st.sampled_from(range(3)), st.sampled_from([None, 2, 8]), st.data())
@settings(max_examples=50, deadline=None)
def test_term_parser_matches_the_oracle_without_confluence(index, limit,
                                                           data):
    p = _non_confluent()[index]
    text, size, degree = data.draw(expression_texts(p.alphabet.names))
    assume(size <= 256 and degree <= 8)
    _parse_alike(text, p, 1, p, limit)


def _parsed_with_charges(module, text, p, order, presentation):
    """``module``'s parser on ``text``: the value's alphabet, its terms in
    their order, and the steps left in the parser's two allowances."""
    parse = module._Parser(module.tokenize(text), p.alphabet, ("lam", "q"),
                           order, _cold(presentation))
    with step_limit(DEFAULT_STEP_LIMIT):
        value = parse.parse_expr()
    alph, terms = ((value.alphabet, value.terms)
                   if isinstance(value, Element) else value)
    return alph, list(terms.items()), parse.budget[0], parse.reducing[0]


@given(st.sampled_from(catalog.BUILTIN_NAMES), st.sampled_from([0, 1, 2]),
       st.booleans(), st.integers(2, 3), st.data())
@settings(max_examples=100, deadline=None)
def test_tensor_factors_placed_slot_by_slot_match_the_embedded_product(
        name, order, reducing, count, data):
    """``u ox v ox w`` built slot by slot equals the product of the factors
    embedded in their slots (``tensor_embed``), in value, term order and
    steps charged."""
    p = _builtin(name, order)
    factors = [data.draw(expression_texts(p.alphabet.names, depth=2))
               for _ in range(count)]
    assume(all(size <= 64 for _, size, _ in factors))
    text = " ox ".join(f"({x})" for x, _, _ in factors)
    got = _parsed_with_charges(parser, text, p, order, p if reducing else None)
    assert got == _parsed_with_charges(element_parser, text, p, order,
                                       p if reducing else None)
    assert got[0].slot_count == count


# Smallest step limits at which ``normal_form`` reduces these inputs at
# order 2 through a cold normal-word table: one step per table fill and per
# coefficient product formed.  A warm table forms fewer products, so every
# warm variant passes at the cold threshold.  The builtins are certified
# confluent, so the table and the rewriter agree.
CERTIFIED_STEP_THRESHOLDS = [
    ("suq2", "d*d*d*a*a*a", 43),
    ("suq2", "(a+b+c+d)^4", 764),
    ("ekappa2-klmn", "(K+L+M+N)^3 + N*M*L*K", 268),
    ("ekappa2-final", "(eta+etabar+E+F)^3", 423),
]


@pytest.mark.parametrize("name,expr,limit", CERTIFIED_STEP_THRESHOLDS)
@pytest.mark.parametrize("warm", ["cold", "same input", "word by word"])
def test_certified_step_limit_threshold(name, expr, limit, warm):
    def load():
        return catalog.load_presentation(f"builtin:{name}", 2).base

    p = _confluent(load())
    x = parse_expression(expr, p.alphabet, ("lam", "q"), 2)
    with pytest.raises(StepLimitExceeded), step_limit(limit - 1):
        load().normal_form(x)
    if warm == "same input":
        p.normal_form(x)
    elif warm == "word by word":
        for w in reversed(list(x.terms)):
            p.normal_form(Element.from_word(p.alphabet, w, 2))
    with step_limit(limit):
        table = p.normal_form(x)
    assert table == p.rewrite(x)


# -- letters: a named tuple against the frozen dataclass they replaced --------


@dataclass(frozen=True)
class DataclassLetter:
    """Oracle: a letter as the frozen dataclass it used to be."""

    name: str

    def __repr__(self):
        return self.name


letter_fields = st.tuples(st.sampled_from(["a", "b", "K", "eta", "etabar"]))
words = st.lists(letter_fields, max_size=5)


def test_letters_hash_in_c():
    assert GeneratorId.__hash__ is tuple.__hash__
    assert GeneratorId.__eq__ is tuple.__eq__


@given(letter_fields, letter_fields)
@settings(max_examples=200)
def test_letter_equality_and_hash(x, y):
    gx, gy = GeneratorId(*x), GeneratorId(*y)
    ox, oy = DataclassLetter(*x), DataclassLetter(*y)
    assert (gx == gy) == (ox == oy) == (x == y)
    assert (gx != gy) == (x != y)
    assert hash(gx) == hash(GeneratorId(*x))
    assert repr(gx) == repr(ox) == str(gx)
    assert (gx.name,) == x


def test_letter_repr_and_immutability():
    assert repr(GeneratorId("a")) == "a"
    assert f"{GeneratorId('K')!r}" == "K"
    g = GeneratorId("a")
    with pytest.raises(AttributeError):
        g.name = "b"
    with pytest.raises(TypeError):
        GeneratorId("a", 2)  # a letter carries no slot


@given(st.lists(st.tuples(words, st.integers()), max_size=12), st.lists(words))
@settings(max_examples=200)
def test_word_dict_lookups_agree_with_dataclass_letters(entries, queries):
    new = {tuple(GeneratorId(*g) for g in w): v for w, v in entries}
    old = {tuple(DataclassLetter(*g) for g in w): v for w, v in entries}
    assert list(new.values()) == list(old.values())
    for w in [e[0] for e in entries] + queries:
        assert (new.get(tuple(GeneratorId(*g) for g in w))
                == old.get(tuple(DataclassLetter(*g) for g in w)))


# -- the shared scalar one ----------------------------------------------------


def general_one(order: int) -> Scalar:
    """A unit that is not the shared instance, so products with it take
    the general path: every constructor returns the shared one, so this
    one is built around them."""
    one = object.__new__(Scalar)
    Scalar.terms.__set__(one, {(ParamMonomial(), 0): GaussianRational(1)})
    Scalar.truncation_order.__set__(one, order)
    return one


@given(st.integers(0, 4).flatmap(
    lambda k: st.tuples(st.just(k), oracle_terms(k))))
@settings(max_examples=200)
def test_products_with_the_shared_one(case):
    order, terms = case
    x = scalar_of(terms, order)
    one, slow = Scalar.one(order), general_one(order)
    assert one is Scalar.one(order) and slow is not one
    assert one == slow
    for fast, reference in ((x * one, x * slow), (one * x, slow * x)):
        assert list(fast.terms.items()) == list(reference.terms.items())
        assert fast.truncation_order == reference.truncation_order == order
        assert_scalar_matches(fast, oracle_mul(terms, {
            (ParamMonomial(), 0): FracPair(1)}, order), order)
    assert one * one is one


@pytest.mark.parametrize("k,m", [(0, 1), (1, 0), (1, 4), (3, 2)])
def test_shared_one_still_checks_truncation_order(k, m):
    x = Scalar.param("lam", m)
    with pytest.raises(TruncationMismatch):
        Scalar.one(k) * x
    with pytest.raises(TruncationMismatch):
        x * Scalar.one(k)
    with pytest.raises(TruncationMismatch):
        Scalar.one(k) * Scalar.one(m)


# -- kept single-term scalars, memoised products and sums --------------------


@st.composite
def single_term(draw, order):
    return {(draw(st.sampled_from(MONOS)), draw(st.integers(0, order))):
            draw(pairs)}


def _negated_terms(t: dict) -> dict:
    return {k: -v for k, v in t.items()}


#: each operation: the scalar arithmetic, and its oracle on term dicts
SCALAR_OPS = {
    "mul": (operator.mul, oracle_mul),
    "add": (operator.add, lambda t1, t2, k: oracle_add(t1, t2)),
    "sub": (operator.sub,
            lambda t1, t2, k: oracle_add(t1, _negated_terms(t2))),
    "neg": (lambda x, y: -x, lambda t1, t2, k: _negated_terms(t1)),
}


def _cleaned(terms: dict, order: int) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero() and k[1] <= order}


@given(st.integers(0, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.lists(st.one_of(single_term(k), oracle_terms(k)), min_size=1,
             max_size=4),
    st.lists(st.tuples(st.sampled_from(sorted(SCALAR_OPS)),
                       st.integers(0, 63), st.integers(0, 63),
                       st.booleans()), max_size=12))))
@example((0, [{(MONOS[0], 0): FracPair(0), (MONOS[2], 0): FracPair(1)},
              {(MONOS[0], 0): FracPair(1)}],
           [("add", 0, 1, False), ("add", 2, 2, False)]))
@settings(max_examples=200)
def test_interned_arithmetic_against_the_oracle(case):
    """Results through the kept instances and the memos, with the tables
    emptied between operations or not, equal the oracle and the same
    operation on fresh operands with empty tables; results feed later
    operations, so the memos see their own results as operands."""
    order, pool, steps = case
    values = [(t, scalar_of(t, order)) for t in pool]
    for name, i, j, clear in steps:
        if clear:
            scalars.clear_tables()
        (t1, x), (t2, y) = values[i % len(values)], values[j % len(values)]
        op, oracle = SCALAR_OPS[name]
        got = op(x, y)
        expected = _cleaned(oracle(t1, t2, order), order)
        assert_scalar_matches(got, expected, order)
        again = op(x, y)
        assert again == got
        if len(got.terms) == 1:  # equal single-term results are one object
            assert again is got
            if got is not x and got is not y:  # x * 1 is x as it is
                assert Scalar(got.terms, order) is got
        scalars.clear_tables()
        # the operands rebuilt from their own terms: an oracle dict may list
        # its keys in another order (a zero it holds keeps its place)
        fresh = op(Scalar(x.terms, order), Scalar(y.terms, order))
        assert list(fresh.terms.items()) == list(got.terms.items())
        assert fresh.truncation_order == got.truncation_order == order
        values.append((expected, got))


def two_step_accumulate(acc: dict, terms: dict, s: Scalar) -> None:
    """Oracle: ``acc += terms * s`` as a product, then a sum, per word."""
    for w, c in terms.items():
        p = c * s
        if not p.terms:
            continue
        cur = acc.get(w)
        if cur is None:
            acc[w] = p
            continue
        total = cur + p
        if total.terms:
            acc[w] = total
        else:
            del acc[w]


ACC_WORDS = [(), (GeneratorId("a"),), (GeneratorId("a"), GeneratorId("b")),
             (GeneratorId("b"),)]


#: nonzero fractions of ``small``'s range, and pairs with a nonzero part,
#: built so rather than filtered from ``pairs``
nonzero_small = st.builds(lambda n, d, neg: Fraction(-n if neg else n, d),
                          st.integers(1, 20), st.integers(1, 12),
                          st.booleans())
any_small = st.just(Fraction(0)) | nonzero_small
nonzero_pairs = (st.builds(FracPair, nonzero_small, any_small)
                 | st.builds(FracPair, any_small, nonzero_small))


def coefficient_terms(order, min_size=1):
    """Term dicts of 0-4 (at least ``min_size``) nonzero terms over q, lam
    and eps at most ``order``."""
    return st.dictionaries(
        st.tuples(st.sampled_from(MONOS), st.integers(0, order)),
        nonzero_pairs, min_size=min_size, max_size=4)


@st.composite
def accumulate_cases(draw):
    order = draw(st.integers(0, 4))
    words = st.sampled_from(ACC_WORDS)
    terms = draw(st.dictionaries(words, coefficient_terms(order, 0),
                                 max_size=4))
    acc = draw(st.dictionaries(words, coefficient_terms(order), max_size=4))
    factor = draw(st.none() | coefficient_terms(order))  # None: the unit
    # words whose running coefficient cancels the product, keeping its own
    # drawn terms or not
    cancel = draw(st.dictionaries(words, st.booleans(), max_size=4))
    return order, terms, acc, factor, cancel


UNIT = ParamMonomial()


@given(accumulate_cases())
# eps*eps is dropped at order 1; the rest adds into two running terms
@example((1, {ACC_WORDS[1]: {(UNIT, 1): FracPair(2), (UNIT, 0): FracPair(1)}},
          {ACC_WORDS[1]: {(UNIT, 0): FracPair(3), (MONOS[1], 0): FracPair(1)}},
          {(UNIT, 1): FracPair(1, 1)}, {}))
# the running coefficient cancels the whole product: the word leaves
@example((2, {ACC_WORDS[0]: {(MONOS[1], 0): FracPair(1)}},
          {ACC_WORDS[0]: {(MONOS[2], 1): FracPair(5)}},
          {(MONOS[2], 0): FracPair(0, 1), (UNIT, 2): FracPair(1)},
          {ACC_WORDS[0]: False}))
# the product's two lam terms cancel on a key the running one lacks
@example((0, {ACC_WORDS[2]: {(UNIT, 0): FracPair(1),
                             (MONOS[1], 0): FracPair(1)}},
          {ACC_WORDS[2]: {(MONOS[2], 0): FracPair(2)}},
          {(UNIT, 0): FracPair(1), (MONOS[1], 0): FracPair(-1)}, {}))
@settings(max_examples=300, deadline=None)
def test_accumulate_scaled_against_the_two_step_oracle(case):
    """The fused multiply-add gives every word, in the same order, the
    coefficient of a product then a sum, with its terms in the same order;
    a one-term coefficient is its kept instance."""
    order, terms_t, acc_t, factor, cancel = case
    # a clear on reaching TABLE_CAP drops older kept instances
    scalars.clear_tables()
    s = Scalar.one(order) if factor is None else scalar_of(factor, order)
    terms = {w: scalar_of(t, order) for w, t in terms_t.items()}
    acc = {w: scalar_of(t, order) for w, t in acc_t.items()}
    minus_one = Scalar.from_rational(-1, order)
    for w, keep in cancel.items():
        if w not in terms:
            continue
        own = acc[w] if keep and w in acc else Scalar.zero(order)
        c = own + terms[w] * s * minus_one
        if c.terms:
            acc[w] = c
        else:
            acc.pop(w, None)
    expected = dict(acc)
    two_step_accumulate(expected, terms, s)
    got = dict(acc)
    accumulate_scaled(got, terms, s)
    assert list(got) == list(expected)
    for w, c in got.items():
        assert list(c.terms.items()) == list(expected[w].terms.items())
        assert c.truncation_order == order
        if len(c.terms) == 1:
            assert c is Scalar(c.terms, order)


def factors_text(s: Scalar) -> str:
    """Oracle: ``str`` of a scalar with each term's factors built from its
    monomial's ``sort_key`` and ``factors``."""
    if not s.terms:
        return "0"
    parts = []
    for key in sorted(s.terms, key=lambda k: (k[1], k[0].sort_key())):
        mono, eps = key
        factors = list(mono.factors())
        if eps:
            factors.append("eps" if eps == 1 else f"eps^{eps}")
        cs = format_gaussian(s.terms[key])
        if factors:
            text = ("*".join(factors) if cs == "1" else
                    "-" + "*".join(factors) if cs == "-1" else
                    "*".join([cs] + factors))
        else:
            text = cs
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


PRINT_MONOS = MONOS + [ParamMonomial((("t", -1), ("q", 3))),
                       ParamMonomial((("lam", -2), ("b", 1), ("a", 1)))]


@given(st.integers(0, 4).flatmap(lambda k: st.tuples(st.just(k), st.lists(
    st.dictionaries(st.tuples(st.sampled_from(PRINT_MONOS),
                              st.integers(0, k)), pairs, max_size=4),
    min_size=1, max_size=3))))
@settings(max_examples=200)
def test_printed_terms_match_the_factor_oracle(case):
    order, drawn = case
    with scalars.fresh_tables():
        for t in drawn:
            x = scalar_of(t, order)
            assert str(x) == str(x) == factors_text(x)
        assert len(scalars._TERM_TEXT) == len(
            {k for t in drawn for k, v in t.items()
             if not v.is_zero()})
    assert scalars._TERM_TEXT == {}


COPIERS = [copy.copy, copy.deepcopy] + [
    lambda x, p=p: pickle.loads(pickle.dumps(x, p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)]


@pytest.mark.parametrize("order", range(5))
def test_kept_instances_across_a_clear(order):
    one = Scalar.one(order)
    half_lam = Scalar.param("lam", order) * Scalar.from_rational(
        Fraction(1, 2), order)
    assert half_lam is Scalar(
        {(ParamMonomial.of("lam"), 0): GaussianRational(Fraction(1, 2))},
        order)
    assert half_lam * one is half_lam and one * half_lam is half_lam
    for copier in COPIERS:
        assert copier(half_lam) is half_lam
        assert copier(one) is one
    scalars.clear_tables()
    # the unit survives the clear
    assert Scalar.one(order) is one and one.is_one
    assert Scalar.from_rational(1, order) is one
    assert half_lam * (2 * one) is Scalar.param("lam", order)
    assert Scalar.param("lam", order) * Scalar.param("lam", order, -1) is one
    # equal values may now be distinct objects, and still compare equal
    twin = Scalar.param("lam", order) * Scalar.from_rational(
        Fraction(1, 2), order)
    assert twin == half_lam and twin is not half_lam
    assert not twin.is_one and not Scalar.from_rational(2, order).is_one
    for copier in COPIERS:  # a copy is the instance kept now
        assert copier(half_lam) is twin


def test_tables_stay_under_their_cap():
    scalars.clear_tables()
    units = dict(scalars._SINGLES)
    lam = Scalar.param("lam", 1)
    for n in range(3 * scalars.TABLE_CAP):
        c = Scalar.from_rational(n + 2, 1)
        lam * c + c
        for table in (scalars._SINGLES, scalars._PRODUCTS, scalars._SUMS):
            assert len(table) <= scalars.TABLE_CAP
    for key, one in units.items():
        assert scalars._SINGLES[key] is one
    assert Scalar.one(1).is_one


@pytest.mark.parametrize("k,m", [(0, 1), (1, 0), (1, 4), (3, 2)])
def test_memos_still_check_truncation_order(k, m):
    x, y = Scalar.param("lam", k), Scalar.param("lam", m)
    x * x, x + x, y * y, y + y  # memoised at their own orders
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(TruncationMismatch):
            op(x, y)
        with pytest.raises(TruncationMismatch):
            op(y, x)


# -- tensor folds over word images against the per-word loop -----------------


def fold_tensor_per_word(h: HopfPresentation, x2: Element, left, right):
    """Oracle: apply both leg maps once per tensor word."""
    x2 = h.base.at_slots(2).normal_form(x2)
    acc = Element.zero(h.base.alphabet, h.order)
    for word, coeff in x2.terms.items():
        u, v = (Element.from_word(h.base.alphabet, leg, h.order)
                for leg in word)
        acc = acc + (left(u) * right(v)).scaled(coeff)
    return h.base.normal_form(acc)


def counted(fn, seen: list):
    """``fn``, recording the arguments of each call in ``seen``."""
    def wrapped(*args):
        seen.append(args)
        return fn(*args)
    return wrapped


def counted_fills(monkeypatch, names) -> list:
    """The ``(name, word)`` of each kept image computed from now on for the
    maps ``names``: each fill of the table records its word."""
    computed: list = []
    for name in names:
        def fill(h, w, name=name, inner=hopf._FILLS[name]):
            computed.append((name, *w.terms))
            return inner(h, w)
        monkeypatch.setitem(hopf._FILLS, name, fill)
    return computed


def reference_antipode(h: HopfPresentation):
    """Oracle: the antipode by its generator images and a normal form, with
    no memo."""
    base = h.base
    return lambda y: base.normal_form(h.antipode.apply(base.normal_form(y)))


def reference_counit(h: HopfPresentation):
    """Oracle: the counit as a multiple of the unit, by the generator values
    on the words of the normal form, with no memo."""
    alph, order = h.base.alphabet, h.order

    def counit(y):
        eps = Scalar.zero(order)
        for word, coeff in h.base.normal_form(y).terms.items():
            eps = eps + reduce(operator.mul,
                               (h.counit[g.name] for g in word), coeff)
        return Element.unit(alph, order).scaled(eps)
    return counit


def leg_maps(h: HopfPresentation) -> dict:
    """Each leg of the Hopf folds as a map name for ``fold_tensor`` (None
    for the identity) and an element map for the per-word oracle."""
    return {
        "id": (None, lambda y: y),
        "counit": ("counit", reference_counit(h)),
        "antipode": ("antipode", reference_antipode(h)),
    }


def fold_inputs(h: HopfPresentation, rng) -> list:
    """Random 2-slot elements and coproducts of random base elements."""
    p2 = h.base.at_slots(2)
    inputs = [random_q_lam_element(rng, p2, degree=4, n_terms=4,
                                   exclude=h.excluded)
              for _ in range(3)]
    inputs += [h.apply_coproduct(random_q_lam_element(
        rng, h.base, degree=2, exclude=h.excluded))
        for _ in range(2)]
    return inputs


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_fold_tensor_matches_per_word_loop(name, order, monkeypatch):
    h = catalog.load_presentation(f"builtin:{name}", order)
    p2 = h.base.at_slots(2)
    inputs = fold_inputs(h, Random(f"fold-{name}-{order}"))
    maps = leg_maps(h)
    legs = [(maps["antipode"], maps["id"]), (maps["id"], maps["antipode"]),
            (maps["counit"], maps["id"]), (maps["id"], maps["counit"])]
    # each leg whose antipode or counit image was computed
    computed = counted_fills(monkeypatch, ["antipode", "counit"])
    reads: list = []
    h.image = counted(h.image, reads)
    for x2 in inputs:
        n_words = len(p2.normal_form(x2).terms)
        for (left, left_oracle), (right, right_oracle) in legs:
            reads.clear()
            got = h.fold_tensor(x2, left, right)
            assert got == fold_tensor_per_word(h, x2, left_oracle,
                                               right_oracle)
            # the leg's map was read once per tensor word, and each leg's
            # image computed once over all the folds: later ones read it
            # kept
            assert len(reads) == n_words
            assert {m for m, _ in reads} <= {left or right}
            assert len(computed) == len(set(computed))


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_word_fold_on_a_cold_and_a_warm_antipode_memo(name, order,
                                                      monkeypatch):
    h = catalog.load_presentation(f"builtin:{name}", order)
    inputs = fold_inputs(h, Random(f"kept-{name}-{order}"))
    oracle = reference_antipode(h)
    want = [fold_tensor_per_word(h, x2, oracle, lambda y: y)
            for x2 in inputs]
    memo = h._images["antipode"]
    assert not memo  # cold: every leg is met first inside the fold
    assert [h.fold_tensor(x2, "antipode", None) for x2 in inputs] == want
    kept = dict(memo)
    assert kept
    computed = counted_fills(monkeypatch, ["antipode"])
    assert [h.fold_tensor(x2, "antipode", None) for x2 in inputs] == want
    # warm: every leg read from the memo, none computed again
    assert computed == [] and memo == kept
    for word, img in kept.items():
        x = Element.from_word(h.base.alphabet, word, order)
        assert img == oracle(x).terms


def test_leg_first_met_in_the_fold_is_guarded_like_the_antipode():
    h = catalog.load_presentation("builtin:ekappa2-klmn", 1)
    assert "J" in h.excluded
    alph2 = h.base.at_slots(2).alphabet
    x2 = Element.from_word(alph2, ((alph2.gen("J"),), (alph2.gen("K"),)), 1)
    with pytest.raises(ExcludedGenerator) as in_fold:
        h.fold_tensor(x2, "antipode", None)
    with pytest.raises(ExcludedGenerator) as direct:
        h.apply_antipode(Element.generator(h.base.alphabet, "J", 1))
    assert str(in_fold.value) == str(direct.value)
    assert (h.base.alphabet.gen("J"),) not in h._images["antipode"]


def test_counit_leg_is_guarded_like_the_counit():
    h = catalog.load_presentation("builtin:ekappa2-klmn", 1)
    alph = h.base.alphabet
    word = (alph.gen("L"), alph.gen("J"))  # nf holds J
    with pytest.raises(ExcludedGenerator) as leg:
        h.image("counit", word)
    with pytest.raises(ExcludedGenerator) as direct:
        h.apply_counit(Element.from_word(alph, word, 1))
    assert str(leg.value) == str(direct.value)
    assert word not in h._images["counit"]
    # K*J reduces to 1: its counit is kept
    word = (alph.gen("K"), alph.gen("J"))
    kept = h.image("counit", word)
    assert h.image("counit", word) is kept
    assert kept == {(): h.apply_counit(Element.from_word(alph, word, 1))}


# -- memoised Hopf maps against the generator images and a normal form ---------


def reference_images(h: HopfPresentation, x: Element) -> dict:
    """Oracle: each map of ``h`` by its generator images (the counit by its
    generator values) and a normal form, with no memo; the convolution
    folds by the per-word oracle above."""
    base = h.base
    nf = base.normal_form(x)
    antipode = reference_antipode(h)

    def star(y):
        return base.normal_form(h.star.apply(y))

    delta = base.at_slots(2).normal_form(h.coproduct.apply(nf))
    return {
        "coproduct": delta,
        "counit": reference_counit(h)(x).coefficient(()),
        "antipode": antipode(x),
        "star": star(x),
        "convolution": fold_tensor_per_word(h, delta, antipode, lambda y: y),
        "star-twice": star(star(x)),
    }


def memoised_images(h: HopfPresentation, x: Element) -> dict:
    return {
        "coproduct": h.apply_coproduct(x),
        "counit": h.apply_counit(x),
        "antipode": h.apply_antipode(x),
        "star": h.apply_star(x),
        "convolution": h.apply_convolution(x),
        "star-twice": h.apply_star_twice(x),
    }


@lru_cache(maxsize=None)
def _hopf(name, order):
    """One presentation per builtin and order, its memo kept warm across
    examples."""
    return catalog.load_presentation(f"builtin:{name}", order)


@st.composite
def hopf_inputs(draw):
    """A builtin at order 1 or 4 and an element of it: up to three words of
    up to three letters, each with a coefficient of up to three terms whose
    Gaussian rationals may carry ``i``."""
    h = _hopf(draw(st.sampled_from(catalog.BUILTIN_NAMES)),
              draw(st.sampled_from([1, 4])))
    alph, order = h.base.alphabet, h.order
    letters = [alph.gen(n) for n in alph.names if n not in h.excluded]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.lists(st.sampled_from(letters), max_size=3)))
        coeff = Scalar.zero(order)
        for _ in range(draw(st.integers(1, 3))):
            mono = ParamMonomial([("q", draw(st.integers(-2, 2))),
                                  ("lam", draw(st.integers(0, 2)))])
            gr = GaussianRational(Fraction(draw(st.integers(-3, 3)),
                                           draw(st.integers(1, 3))),
                                  Fraction(draw(st.integers(-2, 2)),
                                           draw(st.integers(1, 2))))
            coeff = coeff + Scalar({(mono, draw(st.integers(0, order))): gr},
                                   order)
        terms[word] = terms.get(word, Scalar.zero(order)) + coeff
    return h, Element(alph, terms, order)


@given(hopf_inputs())
@settings(max_examples=80, deadline=None)
def test_memoised_hopf_maps_match_the_generator_images(case):
    h, x = case
    want = reference_images(h, x)
    assert memoised_images(replace(h), x) == want  # a cold memo
    assert memoised_images(h, x) == want  # warm across examples
    assert memoised_images(h, x) == want  # every word of x now kept


def test_copies_of_a_presentation_keep_their_own_memo():
    final = catalog.load_presentation("builtin:ekappa2-final", 1)
    texts = ["eta*etabar", "etabar*eta", "E*eta*etabar + 2*F", "eta*F"]
    xs = [parse_expression(t, final.base.alphabet, ("lam",), 1)
          for t in texts]
    for x in xs:
        assert memoised_images(final, x) == reference_images(final, x)
    open_ = catalog.without_commutator_rule(final)
    limit = catalog.classical_limit(final)
    for h in (open_, limit):
        for x in xs:
            assert memoised_images(h, x) == reference_images(h, x)
    # the variants are other algebras: a memo shared with final would
    # have handed them final's images
    assert open_.apply_antipode(xs[0]) != final.apply_antipode(xs[0])
    assert limit.apply_antipode(xs[0]) != final.apply_antipode(xs[0])


# -- the random layer's per-word defects against the element-level checks -----


def element_convolution_check(h: HopfPresentation, x: Element) -> bool:
    """Oracle: ``conv(x) - eps(x) 1`` is zero, on the element."""
    s_id = h.apply_convolution(x)
    unit_eps = Element.unit(h.base.alphabet, h.order).scaled(
        h.apply_counit(x))
    return (s_id - unit_eps).is_zero


def element_star_twice_check(h: HopfPresentation, x: Element) -> bool:
    """Oracle: ``nf(x** - x)`` is zero, on the element."""
    return h.base.normal_form(h.apply_star_twice(x) - x).is_zero


def verdict(check, h: HopfPresentation, x: Element):
    try:
        return check(h, x)
    except ExcludedGenerator as exc:
        return str(exc)


def non_involutive_suq2(order: int) -> HopfPresentation:
    """suq2 with ``d* = q*a``: ``a** = q*a``, so the double star of a word
    holding ``a`` or ``d`` is not the word."""
    head, star = catalog.builtin_source("suq2").split("[star]")
    assert "d -> a\n" in star
    return catalog.parse_presentation_text(
        head + "[star]" + star.replace("d -> a\n", "d -> q*a\n"), order,
        "suq2-star")


#: each source (a builtin, a file under tests/golden, or the suq2 above),
#: and whether one of its words has a nonzero convolution defect d and one
#: a nonzero double-star defect e at every order
LAYER_SOURCES = {
    "builtin:suq2": (False, False),
    "builtin:ekappa2-klmn": (False, False),
    "builtin:ekappa2-final": (False, False),
    "suq2_bad_coproduct.preso": (True, False),
    "suq2_bad_antipode.preso": (True, False),
    "corrupted_klmn/ekappa2_klmn.preso": (True, True),
    "non-involutive": (False, True),
}


def layer_source(source: str, order: int) -> HopfPresentation:
    if source == "non-involutive":
        return non_involutive_suq2(order)
    if not source.startswith("builtin:"):
        source = GOLDEN / source
    return catalog.load_presentation(source, order)


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("source", LAYER_SOURCES)
def test_random_layer_matches_the_element_checks(source, order):
    """Per element and per seed, the sums of kept word defects give the
    element-level verdicts, the same ``ExcludedGenerator`` on elements
    over every letter, and the layer the same failure count."""
    h = layer_source(source, order)
    old, new = replace(h), replace(h)  # the oracle's memo is its own
    checks = [(element_convolution_check, check_convolution_on_element),
              (element_star_twice_check, check_star_twice_on_element)]
    for seed in range(20):
        draws = Random(seed)
        failures = 0
        for _ in range(RANDOM_ELEMENTS):
            x = random_element(draws, h.base, degree=RANDOM_DEGREE,
                               params=h.base.params, exclude=h.excluded)
            for oracle, check in checks:
                want = oracle(old, x)
                assert check(new, x) == want
                failures += not want
        # over every letter, excluded ones too
        x = random_element(Random(f"all-{seed}"), h.base, degree=4,
                           params=h.base.params)
        for oracle, check in checks:
            assert verdict(check, new, x) == verdict(oracle, old, x)
        # a cold memo per seed, as in a command
        record = random_layer(replace(h), Random(seed))
        assert record.ok == (failures == 0)
        assert record.residual == (f"{failures} failures" if failures
                                   else "0")
    broken = [any(new._images[memo].values())
              for memo in ("convolution-defect", "star-twice-defect")]
    assert broken == list(LAYER_SOURCES[source])


# -- coassociativity on kept coproduct legs against a free coproduct map -------


def coassociativity_by_free_map(h: HopfPresentation) -> CheckReport:
    """Oracle: each check of ``check_coassociativity``, with each leg of
    Delta g mapped by the free homomorphism of the generator coproducts
    instead of read from the kept coproduct images."""
    report = CheckReport()
    alph, order = h.base.alphabet, h.order
    p3 = h.base.at_slots(3)
    deltas = {name: h.apply_coproduct(Element.generator(alph, name, order))
              for name in h.hopf_generators()}
    delta = GeneratorMap({alph.gen(n): d for n, d in deltas.items()},
                         MapKind.HOMOMORPHISM, alph, alph.at_slots(2), order)

    def word(w):
        return Element.from_word(alph, w, order)

    for name, delta_g in deltas.items():
        acc = Element.zero(p3.alphabet, order)
        for (u, v), c in delta_g.terms.items():
            left = (retag_slots(delta.apply(word(u)), {}, 3)
                    * tensor_embed(word(v), 3, 3))
            right = (tensor_embed(word(u), 1, 3)
                     * retag_slots(delta.apply(word(v)), {1: 2, 2: 3}, 3))
            acc = acc + (left - right).scaled(c)
        report.add_residual(f"{h.name}/coassociativity/{name}",
                            p3.normal_form(acc), h.coproduct_tags.get(name))
    return report


@pytest.mark.parametrize("order", [1, 4])
@pytest.mark.parametrize("source", [
    "builtin:suq2", "builtin:ekappa2-klmn", "builtin:ekappa2-final",
    "suq2_bad_coproduct.preso", "suq2_bad_antipode.preso",
    "corrupted_klmn/ekappa2_klmn.preso"])
def test_coassociativity_legs_match_the_free_coproduct_map(source, order):
    """The same records, passing or failing with the same residuals, on
    confluent presentations and on the broken fixtures, some of which are
    not confluent."""
    h = layer_source(source, order)

    def records(report):
        return [(r.name, r.ok, r.residual) for r in report.records]

    want = records(coassociativity_by_free_map(replace(h)))
    assert records(check_coassociativity(h)) == want
    assert records(check_coassociativity(h)) == want  # on a warm table


# -- the solver's sparse elimination against dense Gauss-Jordan ----------------

ENTRIES = [GaussianRational(v) for v in (1, -1, 2, -3, Fraction(1, 2),
                                         Fraction(-2, 3))] + [
    GaussianRational(0, 1), GaussianRational(Fraction(1, 2), -1)]


@st.composite
def linear_systems(draw):
    """Columns and sparse rows ``(entries by column index, rhs)``: up to
    one random row more than columns, then rows combined from them (duplicates, rank-deficient
    and, with a shifted rhs, inconsistent ones; their entries may cancel),
    in shuffled order.  A column may hold no entry at all."""
    n_cols = draw(st.integers(0, 6))
    values = st.sampled_from(ENTRIES)
    rows = []
    for k in range(draw(st.integers(0, n_cols + 1))):
        # row k holds column k, so the first rows are independent
        cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols)
                    if n_cols else st.just(set())) | {k} - {n_cols}
        rows.append(({c: draw(values) for c in cols},
                     draw(st.sampled_from(ENTRIES + [GaussianRational(0)]))))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        entries, rhs = {}, GaussianRational(0)
        for k in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                               max_size=3)):
            f = draw(values)
            for c, v in rows[k][0].items():
                entries[c] = entries.get(c, GaussianRational(0)) + f * v
            rhs = rhs + f * rows[k][1]
        if draw(st.integers(0, 3)) == 0:
            rhs = rhs + draw(values)
        rows.append(({c: v for c, v in entries.items() if not v.is_zero},
                     rhs))
    rows = draw(st.permutations(rows))
    return [("c", k) for k in range(n_cols)], rows


def assert_eliminations_agree(columns, rows):
    want = dense_gauss_solve(columns, {
        k: ({columns[c]: v for c, v in entries.items()}, rhs)
        for k, (entries, rhs) in enumerate(rows)})
    got = contract._gauss_solve(columns,
                                [[dict(entries), rhs] for entries, rhs in rows])
    assert got == want
    return got


@given(linear_systems())
@settings(max_examples=400, deadline=None)
def test_sparse_elimination_matches_dense(system):
    assert_eliminations_agree(*system)


def test_sparse_elimination_sees_every_status():
    one, two = GaussianRational(1), GaussianRational(2)
    cols = ["x", "y"]
    assert assert_eliminations_agree(cols, [({0: one}, two), ({1: one}, one)]
                                     )[0] == "unique"
    assert assert_eliminations_agree(cols, [({0: one, 1: one}, one),
                                            ({0: two, 1: two}, two)]
                                     ) == ("underdetermined", None, 1, ["y"])
    assert assert_eliminations_agree(cols, [({0: one, 1: one}, one),
                                            ({0: two, 1: two}, one)]
                                     ) == ("inconsistent", None, 1, [])


@pytest.mark.parametrize("order", [1, 4])
def test_degree_5_ln_system_matches_dense(order, monkeypatch):
    solve = contract._gauss_solve
    systems = []

    def recording(columns, rows):
        rows = list(rows)
        systems.append((list(columns), [(dict(e), rhs) for e, rhs in rows]))
        return solve(columns, rows)

    monkeypatch.setattr(contract, "_gauss_solve", recording)
    outcome = contract.solve_ln_commutator(
        order, contract.ln_basis_kmn(order, 5))
    [(columns, rows)] = systems
    assert (len(columns), len(rows)) == (108, 108)
    assert sum(len(entries) for entries, _ in rows) == 108
    status, values, rank, free = assert_eliminations_agree(columns, rows)
    assert (status, rank, free) == ("unique", 108, [])
    lam = Scalar.param("lam", order)
    assert {label: coeff for label, coeff in outcome.solution.items()
            if not coeff.is_zero} == {"K*N": lam}


#: commands that stay within their step limit under either engine; the
#: rewriter charges by its own count, so a run that trips its limit only
#: agrees in its verdict and is left out
REFERENCE_COMMANDS = (
    ("report", "--output", "json", "--order", "1"),
    ("report", "--output", "json", "--order", "4"),
    ("contract", "--order", "1"),
    ("contract", "--order", "4", "--lam-zero"),
    ("solve-commutator", "--ln"),
    ("hopf-check", "-p", "builtin:suq2"),
    ("confluence", "-p", "builtin:ekappa2-klmn"),
    ("report", "--catalog-dir", "tests/golden/corrupted_klmn"),
    ("hopf-check", "-p", "tests/golden/suq2_bad_coproduct.preso"),
)


@pytest.mark.parametrize("argv", REFERENCE_COMMANDS, ids=" ".join)
def test_command_matches_under_the_reference_engines(argv, capsys,
                                                     monkeypatch):
    # the golden paths are relative to the root of the repository
    monkeypatch.chdir(Path(__file__).parent.parent)
    code = main(list(argv))
    out = capsys.readouterr().out
    with reference_engines():
        ref_code = main(list(argv))
    assert (ref_code, capsys.readouterr().out) == (code, out)
    assert rewrite.Presentation._reduce.__module__ == "qcontract.rewrite"
