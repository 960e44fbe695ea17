"""Hopf structure maps attached to a presentation, with axiom checkers.

The coproduct is a homomorphism into the 2-slot algebra, the counit an
algebra map to scalars, the antipode an antihomomorphism and the star an
antilinear antihomomorphism.  Generators listed as excluded (computational
adjoints such as the inverse of K) carry no coproduct, counit or antipode;
the star is still defined on them.

Every map is linear over words (the star antilinear), and so is each
composite the checks share: the convolution m(S (x) id) Delta, the double
star, and the random layer's per-word defects ``d(w) = m(S (x) id) Delta w
- eps(w) 1`` of a normal word and ``e(w) = w** - nf(w)`` of a raw one.  A
presentation keeps one table of word images: ``image(name, word)`` returns
the terms of a word's image under the map ``name``, computed once, on the
word with unit coefficient, by the entry ``name`` of ``_FILLS``.  The
coproduct, counit, antipode and convolution are guarded (``_GUARDS``): a
word whose normal form holds an excluded generator is refused and nothing
is kept for it.  The counit's image of a word is a multiple of the unit.
An element's image sums its coefficients times its words' images: a
guarded map reduces and guards the element once and fills each of its
normal words as it is, while a word read directly (a fold's leg, say) is
reduced and guarded on its first request.  The star and double star read
the element's words as given, since whether the star respects the rules is
itself checked.

``fold_tensor``, which multiplies the two legs of a tensor back together,
reads each leg's image from the same table by map name, so a leg's
antipode or counit is computed once per presentation, not once per fold.
A word of the 2-slot algebra is the pair ``(u, v)`` of its legs' base
words, and the 3-slot coassociativity check places the kept coproduct of
one leg beside the other.  The random layer's element passes when ``sum
c_w d(w)`` (and ``sum c_w e(w)``) is zero, which needs no coefficient
arithmetic when every word's defect is zero; the convolution, the counit,
the double star and the normal form are linear, so each verdict is the
element-level one.

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
        # map name -> word -> the terms of its image.  Set here, not
        # declared as a field, so a copy made by ``dataclasses.replace``
        # (another algebra, say with a rule dropped) starts with an empty
        # table
        self._images: dict[str, dict[Word, dict]] = defaultdict(dict)

    @property
    def order(self) -> int:
        return self.base.trunc_order

    def hopf_generators(self) -> list[str]:
        return [n for n in self.base.alphabet.names if n not in self.excluded]

    # -- kept word images ----------------------------------------------------

    def _guard(self, x: Element, what: str) -> Element:
        """The normal form of ``x``; refused when it holds an excluded
        generator, the first in alphabet order named."""
        nf = self.base.normal_form(x)
        for name in self.base.alphabet.names:
            if name in self.excluded and nf.contains_letter(name):
                raise ExcludedGenerator(
                    f"{what} undefined: normal form contains {name!r}")
        return nf

    def image(self, name: str, word: Word) -> dict:
        """The terms of the image of the base word ``word`` under the map
        ``name``, kept.  On the word's first request a guarded map reduces
        and guards it, and its fill gets the normal form; any other fill
        gets the word."""
        img = self._images[name].get(word)
        if img is None:
            x = Element.from_word(self.base.alphabet, word, self.order)
            what = _GUARDS.get(name)
            img = self._keep(name, word,
                             x if what is None else self._guard(x, what))
        return img

    def _keep(self, name: str, word: Word, x: Element) -> dict:
        img = self._images[name][word] = _FILLS[name](self, x).terms
        return img

    def _linear(self, name: str, x: Element, target: Alphabet,
                conjugate: bool = False) -> Element:
        """``sum c_w image(name, w)`` over the terms ``c_w w`` of ``x``, with
        ``conj(c_w)`` when ``conjugate``, over ``target``.  For a guarded
        map ``x`` is already reduced and guarded, so each word's image is
        filled from the word as it is.  A word whose image is zero adds
        nothing: when every word's is, no coefficient is multiplied."""
        self.base._check_alphabet(x)
        memo, alph, acc = self._images[name], self.base.alphabet, {}
        for word, coeff in x.terms.items():
            img = memo.get(word)
            if img is None:
                img = self._keep(name, word,
                                 Element.from_word(alph, word, self.order))
            if img:
                accumulate_scaled(acc, img, coeff.conjugate() if conjugate
                                  else coeff)
        return Element._of(target, acc, self.order)

    # -- structure maps on elements -----------------------------------------

    def apply_coproduct(self, x: Element) -> Element:
        """Homomorphic extension of the generator coproducts, normalized in
        the 2-slot algebra."""
        return self._linear("coproduct", self._guard(x, "coproduct"),
                            self.base.at_slots(2).alphabet)

    def apply_counit(self, x: Element) -> Scalar:
        return self._linear("counit", self._guard(x, "counit"),
                            self.base.alphabet).coefficient(())

    def apply_antipode(self, x: Element) -> Element:
        return self._linear("antipode", self._guard(x, "antipode"),
                            self.base.alphabet)

    def apply_star(self, x: Element) -> Element:
        return self._linear("star", x, self.base.alphabet, conjugate=True)

    def apply_convolution(self, x: Element) -> Element:
        """m(S (x) id) Delta x."""
        return self._linear("convolution", self._guard(x, "coproduct"),
                            self.base.alphabet)

    def apply_star_twice(self, x: Element) -> Element:
        """x**: the star is antilinear, so applied twice it is linear."""
        return self._linear("star-twice", x, self.base.alphabet)

    def star_tensor(self, x2: Element) -> Element:
        """Slot-wise star on the 2-slot algebra."""
        return self.base.at_slots(2).normal_form(self.star.apply(x2))

    # -- convolution-style folds ---------------------------------------------

    def fold_tensor(self, x2: Element, left: str | None,
                    right: str | None) -> Element:
        """Multiply the two tensor legs back together after applying the map
        ``left`` to the slot-1 word and ``right`` to the slot-2 word of each
        word of ``x2``; ``None`` is the identity.

        ``x2`` is reduced once; each of its terms ``c (u, v)`` adds
        ``c*lc*rc`` at each word ``lu + rv`` of the kept images of ``u``
        and ``v``, and the sum is reduced once.  Each leg's image is read
        once per tensor word and computed once per presentation."""
        x2 = self.base.at_slots(2).normal_form(x2)
        one = Scalar.one(self.order)
        acc: dict = {}
        for (u, v), c in x2.terms.items():
            rights = (self.image(right, v) if right else {v: one}).items()
            for lu, lc in (self.image(left, u) if left else {u: one}).items():
                accumulate_scaled(acc, {lu + rv: rc for rv, rc in rights},
                                  c * lc)
        return self.base.normal_form(
            Element._of(self.base.alphabet, acc, self.order))


# -- the fill of each kept map: a one-word element -> its image --------------


def _counit_fill(h: HopfPresentation, w: Element) -> Element:
    eps = Scalar.zero(h.order)
    for word, coeff in w.terms.items():
        for g in word:
            coeff = coeff * h.counit[g.name]
            if coeff.is_zero:
                break
        eps = eps + coeff
    return Element.unit(h.base.alphabet, h.order).scaled(eps)


#: each guarded map, and the map its refusal names: a word's image is
#: defined only when its normal form holds no excluded generator
_GUARDS = {"coproduct": "coproduct", "counit": "counit",
           "antipode": "antipode", "convolution": "coproduct",
           "convolution-defect": "coproduct"}

#: the convolution folds the antipode into a word's free coproduct, which
#: is not kept, as the word's convolution is; the convolution defect reads
#: the kept convolution and counit.  A guarded map's fill gets a normal
#: form already guarded
_FILLS = {
    "coproduct": lambda h, w: h.base.at_slots(2).normal_form(
        h.coproduct.apply(w)),
    "counit": _counit_fill,
    "antipode": lambda h, w: h.base.normal_form(h.antipode.apply(w)),
    "star": lambda h, w: h.base.normal_form(h.star.apply(w)),
    "convolution": lambda h, w: h.fold_tensor(h.coproduct.apply(w),
                                              "antipode", None),
    "star-twice": lambda h, w: h.apply_star(h.apply_star(w)),
    "convolution-defect": lambda h, w: (
        h._linear("convolution", w, h.base.alphabet)
        - h._linear("counit", w, h.base.alphabet)),
    "star-twice-defect": lambda h, w: (h.apply_star_twice(w)
                                       - h.base.normal_form(w)),
}


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
    kept coproduct of one leg is placed beside the other leg."""
    report = CheckReport()
    alph, order = h.base.alphabet, h.order
    alph2, p3 = h.base.at_slots(2).alphabet, h.base.at_slots(3)

    def delta(w):
        return Element._of(alph2, h.image("coproduct", w), order)

    def word(w):
        return Element.from_word(alph, w, order)

    for name in h.hopf_generators():
        delta_g = h.apply_coproduct(Element.generator(alph, name, order))
        acc: dict = {}
        for (u, v), c in delta_g.terms.items():
            left = retag_slots(delta(u), {}, 3) * tensor_embed(word(v), 3, 3)
            right = (tensor_embed(word(u), 1, 3)
                     * retag_slots(delta(v), {1: 2, 2: 3}, 3))
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
    alph = h.base.alphabet
    for name in h.hopf_generators():
        g = Element.generator(alph, name, h.order)
        g_nf = h.base.normal_form(g)
        dg = h.apply_coproduct(g)
        eps_id = h.fold_tensor(dg, "counit", None)
        id_eps = h.fold_tensor(dg, None, "counit")
        unit_eps = Element.unit(alph, h.order).scaled(h.apply_counit(g))
        s_id = h.apply_convolution(g)
        id_s = h.fold_tensor(dg, None, "antipode")
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
                     h.base.alphabet).is_zero


def check_star_twice_on_element(h: HopfPresentation, x: Element) -> bool:
    """x** = x in the quotient, as the sum of the defects ``e(w)`` of the
    words of ``x`` as given."""
    return h._linear("star-twice-defect", x, h.base.alphabet).is_zero


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
