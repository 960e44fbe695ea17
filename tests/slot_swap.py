"""The tensor powers as rewriting systems: the oracle of the slot-by-slot
normal form.

``slot_swap_power(p, n)`` presents the n-th tensor power of ``p`` by one
copy of each rule per slot plus a rule ``x@t * y@s -> y@s * x@t`` for every
pair of letters in slots ``s < t``, all over the n-slot alphabet.  Its plain
rewriter reduces interleaved words without splitting them into slot words.
"""

from qcontract.freealg import Element, GeneratorId
from qcontract.rewrite import Presentation, RewriteRule
from qcontract.scalars import Scalar


def _moved(word, slot):
    return tuple(GeneratorId(g.name, slot) for g in word)


def slot_swap_power(p: Presentation, slot_count: int) -> Presentation:
    alph = p.alphabet.at_slots(slot_count)
    order = p.trunc_order
    rules = [
        RewriteRule(_moved(r.lhs, s),
                    Element(alph, {_moved(w, s): c
                                   for w, c in r.rhs.terms.items()}, order),
                    f"{r.label} @slot{s}")
        for s in alph.slots for r in p.rules]
    one = Scalar.one(order)
    for lo in alph.slots:
        for hi in alph.slots[lo:]:
            for xn in alph.names:
                for yn in alph.names:
                    x, y = GeneratorId(xn, hi), GeneratorId(yn, lo)
                    rules.append(RewriteRule(
                        (x, y), Element(alph, {(y, x): one}, order),
                        f"slot-swap {xn}@{hi},{yn}@{lo}"))
    return Presentation(alph, rules, order, name=f"{p.name}@{slot_count}",
                        params=p.params)
