"""Hopf structure maps attached to a presentation, with axiom checkers.

The coproduct is a homomorphism into the 2-slot algebra, the counit an
algebra map to scalars, the antipode an antihomomorphism and the star an
antilinear antihomomorphism.  Generators listed as excluded (computational
adjoints such as the inverse of K) carry no coproduct, counit or antipode;
the star is still defined on them.

The coproduct, antipode and star are linear over words (the star
antilinear), and so are the composites the antipode and star checks
share with the random layer, the convolution m(S (x) id) Delta and the
double star.  Each presentation keeps the image
of every word it has met under each map, computed once, on the word with
unit coefficient, by the generator images and a normal form; an element's
image sums its coefficients times its words' images.  The coproduct,
antipode and convolution read the words of the element's normal form, the
star and double star its words as given, since whether the star respects
the rules is itself checked.  ``fold_tensor``, which multiplies the two
legs of a tensor back together, maps each leg word straight to the terms
of its image: the convolution and the antipode check read the kept
antipode image of each leg, so a leg's antipode is computed once per
presentation, not once per fold.  A word of the 2-slot algebra is the pair
``(u, v)`` of its legs' base words, and the 3-slot coassociativity check
applies the coproduct to one leg and places the other.

The random layer's two checks are linear over words too, so each is a sum
of per-word defects, kept once per presentation like the images: a normal
word's ``d(w) = m(S (x) id) Delta w - eps(w) 1`` and a raw word's
``e(w) = w** - nf(w)``.  An element passes when ``sum c_w d(w)`` (and
``sum c_w e(w)``) is zero, which needs no coefficient arithmetic when every
word's defect is zero; the convolution, the counit, the double star and the
normal form are linear, so each verdict is the element-level one.  The
counit leg of the counit checks reads a kept counit per word as well.

Every check that a map respects a structure (a rule, the coproduct, the
star) is a row of ``check_rows``, and ``map_residual`` alone computes its
difference; the contraction's squares are rows too, and only they pass a
guard.

The step budget: computing an image draws the allowances of the normal
forms it takes; an image already kept charges nothing.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .freealg import (
    Alphabet,
    Element,
    GeneratorMap,
    MapKind,
    Word,
    accumulate_scaled,
    retag_slots,
    tensor_embed,
)
from .reports import CheckRecord, CheckReport
from .rewrite import Presentation
from .scalars import Scalar


class ExcludedGenerator(ValueError):
    """A structure map met a generator it is undefined on."""


@dataclass
class HopfPresentation:
    base: Presentation
    coproduct: GeneratorMap
    counit: dict[str, Scalar]
    antipode: GeneratorMap
    star: GeneratorMap
    excluded: frozenset[str] = frozenset()
    name: str = ""
    #: equation tags surfaced in reports: per rule left-hand word, per
    #: coproduct generator, and one for the antipode/counit pair
    rule_tags: dict[Word, str] = field(default_factory=dict)
    coproduct_tags: dict[str, str] = field(default_factory=dict)
    antipode_tag: str | None = None

    def __post_init__(self):
        # coproduct images must avoid excluded generators
        for g, img in self.coproduct.images.items():
            for w in img.words():
                for letter in (x for u in w for x in u):
                    if letter.name in self.excluded:
                        raise ValueError(
                            f"coproduct of {g.name} hits excluded generator "
                            f"{letter.name}")
        # map or defect name -> word -> its terms.  Set here, not declared
        # as a field, so a copy made by ``dataclasses.replace`` (another
        # algebra, say with a rule dropped) starts with an empty memo
        self._images: dict[str, dict[Word, dict]] = defaultdict(dict)

    @property
    def order(self) -> int:
        return self.base.trunc_order

    def hopf_generators(self) -> list[str]:
        return [n for n in self.base.alphabet.names if n not in self.excluded]

    # -- structure maps on elements -----------------------------------------

    def _guard(self, x: Element, what: str) -> Element:
        nf = self.base.normal_form(x)
        for name in self.excluded:
            if nf.contains_letter(name):
                raise ExcludedGenerator(
                    f"{what} undefined: normal form contains {name!r}")
        return nf

    def _linear(self, name: str, x: Element, image, target: Alphabet,
                conjugate: bool = False) -> Element:
        """``sum c_w image(w)`` over the terms ``c_w w`` of ``x``, with
        ``conj(c_w)`` when ``conjugate``.  ``image`` maps a one-word element
        to a normal element over ``target``; it runs once per word, on the
        word with unit coefficient, and the memo ``name`` keeps its result
        for every later call.  A word whose image is zero adds nothing: when
        every word's is, no coefficient is multiplied."""
        self.base._check_alphabet(x)
        memo = self._images[name]
        alph, order = self.base.alphabet, self.order
        acc: dict = {}
        for word, coeff in x.terms.items():
            img = memo.get(word)
            if img is None:
                img = memo[word] = image(
                    Element.from_word(alph, word, order)).terms
            if img:
                accumulate_scaled(acc, img, coeff.conjugate() if conjugate
                                  else coeff)
        return Element._of(target, acc, order)

    def apply_coproduct(self, x: Element) -> Element:
        """Homomorphic extension of the generator coproducts, normalized in
        the 2-slot algebra."""
        p2 = self.base.at_slots(2)
        return self._linear(
            "coproduct", self._guard(x, "coproduct"),
            lambda w: p2.normal_form(self.coproduct.apply(w)), p2.alphabet)

    def apply_counit(self, x: Element) -> Scalar:
        return self._counit(self._guard(x, "counit"))

    def _counit(self, nf: Element) -> Scalar:
        """The counit of a guarded normal element."""
        out = Scalar.zero(self.order)
        for word, coeff in nf.terms.items():
            val = coeff
            for g in word:
                val = val * self.counit[g.name]
                if val.is_zero:
                    break
            out = out + val
        return out

    def apply_antipode(self, x: Element) -> Element:
        return self._linear(
            "antipode", self._guard(x, "antipode"),
            lambda w: self.base.normal_form(self.antipode.apply(w)),
            self.base.alphabet)

    def apply_star(self, x: Element) -> Element:
        return self._linear(
            "star", x, lambda w: self.base.normal_form(self.star.apply(w)),
            self.base.alphabet, conjugate=True)

    def apply_convolution(self, x: Element) -> Element:
        """m(S (x) id) Delta x.  A word's coproduct bypasses the coproduct
        memo: the word's convolution is kept, so its coproduct would not be
        asked for again.  ``fold_tensor`` reduces the free coproduct."""
        return self._convolution(self._guard(x, "coproduct"))

    def _convolution(self, nf: Element) -> Element:
        """The convolution of a guarded normal element."""
        return self._linear(
            "convolution", nf,
            lambda w: self.fold_tensor(self.coproduct.apply(w),
                                       self.antipode_image, self.word_image),
            self.base.alphabet)

    def antipode_image(self, word: Word) -> dict:
        """The terms of the kept antipode image of a normal base word.  A
        word not met yet goes through ``apply_antipode``, which guards it
        and keeps its image."""
        img = self._images["antipode"].get(word)
        if img is None:
            img = self.apply_antipode(
                Element.from_word(self.base.alphabet, word, self.order)).terms
        return img

    def counit_image(self, word: Word) -> dict:
        """The counit of a base word as a leg map of ``fold_tensor``, kept
        per word; a word not met yet goes through ``apply_counit``, which
        guards it."""
        memo = self._images["counit"]
        img = memo.get(word)
        if img is None:
            img = memo[word] = {(): self.apply_counit(
                Element.from_word(self.base.alphabet, word, self.order))}
        return img

    def word_image(self, word: Word) -> dict:
        """The identity as a leg map of ``fold_tensor``."""
        return {word: Scalar.one(self.order)}

    def apply_star_twice(self, x: Element) -> Element:
        """x**: the star is antilinear, so applied twice it is linear."""
        return self._linear(
            "star-twice", x, lambda w: self.apply_star(self.apply_star(w)),
            self.base.alphabet)

    # -- per-word defects of the random layer --------------------------------

    def convolution_defect(self, w: Element) -> Element:
        """``m(S (x) id) Delta w - eps(w) 1`` of a normal word ``w`` of a
        guarded element."""
        unit_eps = Element.unit(self.base.alphabet, self.order).scaled(
            self._counit(w))
        return self._convolution(w) - unit_eps

    def star_twice_defect(self, w: Element) -> Element:
        """``w** - nf(w)`` of a word ``w`` as given."""
        return self.apply_star_twice(w) - self.base.normal_form(w)

    def star_tensor(self, x2: Element) -> Element:
        """Slot-wise star on the 2-slot algebra."""
        return self.base.at_slots(2).normal_form(self.star.apply(x2))

    # -- convolution-style folds ---------------------------------------------

    def fold_tensor(self, x2: Element, left, right) -> Element:
        """Multiply the two tensor legs back together after applying ``left``
        to the slot-1 word and ``right`` to the slot-2 word of each word of
        ``x2``: each maps a normal base word to the terms (word ->
        coefficient) of its normal image.

        ``x2`` is reduced once; each of its terms ``c (u, v)`` adds
        ``c*lc*rc`` at each word ``lu + rv`` of ``left(u)`` and
        ``right(v)``, and the sum is reduced once.  The maps run once per
        tensor word, so a map that reads kept images (``antipode_image``)
        computes each leg once per presentation."""
        x2 = self.base.at_slots(2).normal_form(x2)
        acc: dict = {}
        for (u, v), c in x2.terms.items():
            rights = right(v).items()
            for lu, lc in left(u).items():
                accumulate_scaled(acc, {lu + rv: rc for rv, rc in rights},
                                  c * lc)
        return self.base.normal_form(
            Element._of(self.base.alphabet, acc, self.order))


def grouplike_residual(h: HopfPresentation, x: Element) -> Element:
    """Delta(x) - x (x) x in the 2-slot algebra (zero iff x is grouplike)."""
    p2 = h.base.at_slots(2)
    nf = h.base.normal_form(x)
    lhs = h.apply_coproduct(nf)
    rhs = tensor_embed(nf, 1) * tensor_embed(nf, 2)
    return p2.normal_form(lhs - rhs)


def central_residuals(p: Presentation, x: Element) -> list[Element]:
    out = []
    for name in p.alphabet.names:
        g = Element.generator(p.alphabet, name, p.trunc_order)
        out.append(p.normal_form(x * g - g * x))
    return out


# -- squares -----------------------------------------------------------------


def same(x):
    """The identity map, for a residual stated in the target itself."""
    return x


def map_residual(target: HopfPresentation, phi, phi2, kind: str,
                 x: Element, image) -> Element:
    """The difference, before normal forms, that vanishes when ``phi``
    respects the map ``kind`` of ``target`` at the source element ``x``
    whose image under the source's map is ``image``: phi(x) for a relation
    x, Delta(phi(x)) - phi2(image) (``phi2`` on tensors), M(phi(x)) -
    phi(image) for the star or antipode M, (eps(phi(x)) - image) 1."""
    if kind == "relation":
        return phi(x)
    if kind == "coproduct":
        return target.apply_coproduct(phi(x)) - phi2(image)
    if kind == "counit":
        return Element.unit(target.base.alphabet, target.order).scaled(
            target.apply_counit(phi(x)) - image)
    mapped = target.apply_star if kind == "star" else target.apply_antipode
    return mapped(phi(x)) - phi(image)


def check_rows(target: HopfPresentation, phi, phi2, rows,
               orders: range | None = None, guard=None) -> CheckReport:
    """One record per row ``(name, kind, x, image, tag)``: the difference
    ``map_residual`` gives, reduced in the power of ``target`` with its
    slot count and passed to ``guard(residual, record name)`` when one is
    given.  With ``orders``, one record ``<name>/eps^k`` per order k,
    reduced from the eps^k part of the difference, which a relation record
    keeps as ``raw``; a tuple ``tag`` holds one tag per order.  A counit
    difference is a multiple of 1, recorded as it is."""
    report = CheckReport()
    for name, kind, x, image, tag in rows:
        diff = map_residual(target, phi, phi2, kind, x, image)
        parts = [(name, diff, tag)]
        if orders is not None:
            comps = diff.eps_components()
            zero = Element.zero(diff.alphabet, target.order)
            parts = [(f"{name}/eps^{k}", comps.get(k, zero),
                      tag[k] if isinstance(tag, tuple) else tag)
                     for k in orders]
        for record, raw, record_tag in parts:
            residual = raw
            if kind != "counit":
                residual = target.base.at_slots(
                    raw.alphabet.slot_count).normal_form(raw)
                if guard is not None:
                    guard(residual, record)
            extra = {"raw": str(raw)} if orders and kind == "relation" else {}
            report.add_residual(record, residual, record_tag, **extra)
    return report


def _rule_rows(h: HopfPresentation, check: str, rules):
    """A relation row ``<h>/<check>/<label>`` per rule."""
    for rule in rules:
        yield (f"{h.name}/{check}/{rule.label}", "relation",
               rule.as_element(h.base.alphabet), None,
               h.rule_tags.get(rule.lhs))


def star_involution(h: HopfPresentation, names, prefix: str,
                    tag: str | None = None) -> CheckReport:
    """x** = x on each generator of ``names``, one record
    ``<prefix>/star-involution/<name>`` each."""
    return check_rows(h, lambda x: h.apply_star_twice(x) - x, None, (
        (f"{prefix}/star-involution/{name}", "relation",
         Element.generator(h.base.alphabet, name, h.order), None, tag)
        for name in names))


# -- axiom checkers ----------------------------------------------------------


def check_delta_respects_relations(h: HopfPresentation) -> CheckReport:
    """Well-definedness of the coproduct on the quotient: for every rule
    the free coproduct of lhs - rhs must normalize to zero.  Rules that
    mention excluded generators carry no coproduct and are skipped."""
    rules = [rule for rule in h.base.rules if h.excluded.isdisjoint(
        g.name for w in (rule.lhs, *rule.rhs.words()) for g in w)]
    return check_rows(h, h.coproduct.apply, None,
                      _rule_rows(h, "delta-respects", rules))


def check_coassociativity(h: HopfPresentation) -> CheckReport:
    """(Delta (x) id) Delta = (id (x) Delta) Delta on every Hopf generator,
    checked in the 3-slot algebra: on each term ``c (u, v)`` of Delta g, the
    generator coproducts map one leg freely and the other leg is placed."""
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
        acc: dict = {}
        for (u, v), c in delta_g.terms.items():
            left = (retag_slots(delta.apply(word(u)), {}, 3)
                    * tensor_embed(word(v), 3, 3))
            right = (tensor_embed(word(u), 1, 3)
                     * retag_slots(delta.apply(word(v)), {1: 2, 2: 3}, 3))
            accumulate_scaled(acc, (left - right).terms, c)
        residual = p3.normal_form(Element._of(p3.alphabet, acc, order))
        report.add_residual(f"{h.name}/coassociativity/{name}", residual,
                            h.coproduct_tags.get(name))
    return report


def check_counit_antipode(h: HopfPresentation) -> CheckReport:
    """Counit and antipode axioms on every Hopf generator:
    (eps (x) id) Delta g = g = (id (x) eps) Delta g and
    m(S (x) id) Delta g = eps(g) 1 = m(id (x) S) Delta g."""
    report = CheckReport()
    alph, counit = h.base.alphabet, h.counit_image
    for name in h.hopf_generators():
        g = Element.generator(alph, name, h.order)
        g_nf = h.base.normal_form(g)
        dg = h.apply_coproduct(g)
        eps_id = h.fold_tensor(dg, counit, h.word_image)
        id_eps = h.fold_tensor(dg, h.word_image, counit)
        unit_eps = Element.unit(alph, h.order).scaled(h.apply_counit(g))
        s_id = h.apply_convolution(g)
        id_s = h.fold_tensor(dg, h.word_image, h.antipode_image)
        checks = [
            (f"counit-left/{name}", eps_id - g_nf),
            (f"counit-right/{name}", id_eps - g_nf),
            (f"antipode-left/{name}", s_id - unit_eps),
            (f"antipode-right/{name}", id_s - unit_eps),
        ]
        for label, residual in checks:
            report.add_residual(f"{h.name}/{label}",
                                h.base.normal_form(residual), h.antipode_tag)
    return report


def check_star(h: HopfPresentation) -> CheckReport:
    """Star axioms: involutivity on generators, compatibility with every
    rule, and Delta(x*) = (* (x) *) Delta(x) on Hopf generators."""
    alph = h.base.alphabet
    report = star_involution(h, alph.names, h.name)
    report.extend(check_rows(h, h.star.apply, None,
                             _rule_rows(h, "star-respects", h.base.rules)))
    report.extend(check_rows(h, h.apply_star, h.star_tensor, (
        (f"{h.name}/star-coproduct/{name}", "coproduct", g,
         h.apply_coproduct(g), h.coproduct_tags.get(name))
        for name in h.hopf_generators()
        for g in [Element.generator(alph, name, h.order)])))
    return report


def check_convolution_on_element(h: HopfPresentation, x: Element) -> bool:
    """m(S (x) id) Delta x = eps(x) 1, the convolution-inverse identity, as
    the sum of the defects ``d(w)`` of the words of ``x``'s normal form.
    ``x`` is reduced and guarded once, as the coproduct's argument."""
    return h._linear("convolution-defect", h._guard(x, "coproduct"),
                     h.convolution_defect, h.base.alphabet).is_zero


def check_star_twice_on_element(h: HopfPresentation, x: Element) -> bool:
    """x** = x in the quotient, as the sum of the defects ``e(w)`` of the
    words of ``x`` as given."""
    return h._linear("star-twice-defect", x, h.star_twice_defect,
                     h.base.alphabet).is_zero


#: size and degree of the random layer's elements
RANDOM_ELEMENTS = 25
RANDOM_DEGREE = 3


def random_layer(h: HopfPresentation, rng) -> CheckRecord:
    """The convolution identity and star involutivity on ``RANDOM_ELEMENTS``
    random elements drawn from ``rng``, with scalars over the
    presentation's parameters: one record counting the failed checks."""
    from .sampling import random_element

    failures = 0
    for _ in range(RANDOM_ELEMENTS):
        x = random_element(rng, h.base, degree=RANDOM_DEGREE,
                           params=h.base.params, exclude=h.excluded)
        failures += not check_convolution_on_element(h, x)
        failures += not check_star_twice_on_element(h, x)
    return CheckRecord(
        name=f"{h.name}/random-layer/{RANDOM_ELEMENTS}-elements",
        ok=failures == 0,
        residual="0" if failures == 0 else f"{failures} failures",
    )


def run_hopf_suite(h: HopfPresentation, rng) -> CheckReport:
    """All four axiom checkers, plus a randomized layer (``random_layer``)
    exercising the convolution identity and star involutivity on random
    elements drawn from ``rng``.  Each of its checks sums the kept defects
    of the element's words, so a word's convolution, counit, double star
    and normal form are computed once per presentation, not once per
    element."""
    report = CheckReport()
    report.extend(check_delta_respects_relations(h))
    report.extend(check_coassociativity(h))
    report.extend(check_counit_antipode(h))
    report.extend(check_star(h))
    report.add(random_layer(h, rng))
    return report
