"""The tensor powers as rewriting systems: the oracle of the slot-by-slot
normal form.

``slot_swap_power(p, n)`` presents the n-th tensor power of ``p`` as a
plain presentation over a flat alphabet of its own, with one letter
``x@s`` per generator ``x`` and slot ``s``, ordered slot by slot: one copy
of each rule per slot plus a rule ``x@t * y@s -> y@s * x@t`` for every pair
of letters in slots ``s < t``.  Its plain rewriter reduces interleaved flat
words without splitting them into slot words.  ``flat`` writes a tensor
element in those letters, and ``projected`` gives the tensor element of a
flat one: the letters of each word, slot by slot.
"""

from qcontract.freealg import Alphabet, Element, GeneratorId
from qcontract.rewrite import Presentation, RewriteRule
from qcontract.scalars import Scalar


def _letter(name: str, slot: int) -> GeneratorId:
    return GeneratorId(f"{name}@{slot}")


def _moved(word, slot):
    return tuple(_letter(g.name, slot) for g in word)


def slot_swap_power(p: Presentation, slot_count: int) -> Presentation:
    slots = range(1, slot_count + 1)
    alph = Alphabet(tuple(_letter(n, s).name for s in slots
                          for n in p.alphabet.names))
    order = p.trunc_order
    rules = [
        RewriteRule(_moved(r.lhs, s),
                    Element(alph, {_moved(w, s): c
                                   for w, c in r.rhs.terms.items()}, order))
        for s in slots for r in p.rules]
    one = Scalar.one(order)
    for lo in slots:
        for hi in slots[lo:]:
            for xn in p.alphabet.names:
                for yn in p.alphabet.names:
                    x, y = _letter(xn, hi), _letter(yn, lo)
                    rules.append(RewriteRule(
                        (x, y), Element(alph, {(y, x): one}, order)))
    return Presentation(alph, rules, order, name=f"{p.name}@{slot_count}",
                        params=p.params)


def flat(x: Element, oracle: Presentation) -> Element:
    """The tensor element ``x`` in the oracle's letters, slot after slot."""
    return Element(oracle.alphabet,
                   {tuple(_letter(g.name, s) for s, u in enumerate(w, 1)
                          for g in u): c for w, c in x.terms.items()},
                   x.order)


def projected(x: Element, alphabet: Alphabet) -> Element:
    """The element over the tensor power ``alphabet`` of a flat element:
    each word's letters moved into their slots, in their order."""
    terms: dict = {}
    for w, c in x.terms.items():
        parts = [[] for _ in range(alphabet.slot_count)]
        for g in w:
            name, slot = g.name.rsplit("@", 1)
            parts[int(slot) - 1].append(GeneratorId(name))
        key = tuple(map(tuple, parts))
        terms[key] = terms[key] + c if key in terms else c
    return Element(alphabet, terms, x.order)


def oracle_normal_form(oracle: Presentation, x: Element) -> Element:
    """The normal form of the tensor element ``x`` by the oracle's plain
    rewriter."""
    return projected(oracle.rewrite(flat(x, oracle)), x.alphabet)
