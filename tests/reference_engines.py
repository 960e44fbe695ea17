"""Every normal form by the plain rewriter, for whole-command differential
tests.

Within ``reference_engines()`` a presentation reduces and multiplies
through ``Presentation._rewrite``, the leftmost-redex rewriter, and a
tensor power rewrites each slot word by its base's rewriter and places the
results slot by slot.  The normal-word table and its whole-word memo are
never read.  The original methods come back on leaving the block, by an
exception too.  The rewriter charges the step budget by its own count, so
only runs that stay within their limit compare byte for byte.

Within ``no_kept_scalars()`` the scalar tables hold at most one entry:
``scalars.TABLE_CAP`` is 1, so every table is emptied at each insert, no
single-term scalar is shared and no product or sum is memoised.  The cap
comes back on leaving the block.
"""

from contextlib import contextmanager

from qcontract.freealg import (
    Element,
    accumulate_scaled,
    append_slot,
    product_terms,
)
from qcontract import scalars
from qcontract.rewrite import Presentation, TensorPower, allowance
from qcontract.scalars import Scalar


def _reduce(self, terms, budget):
    return self._rewrite(terms, budget)


def _multiply(self, x, y, budget):
    return self._rewrite(product_terms(x, y), budget)


def _tensor_normal_form(self, x):
    Presentation._check_alphabet(self, x)
    budget, acc = allowance(), {}
    one = Scalar.one(self.trunc_order)
    for word, coeff in x.terms.items():
        terms = {(): coeff}
        for part in word:
            terms = append_slot(terms, self.base._rewrite({part: one}, budget))
        accumulate_scaled(acc, terms, one)
    return Element._of(self.alphabet, acc, self.trunc_order)


PATCHES = ((Presentation, "_reduce", _reduce),
           (Presentation, "_multiply", _multiply),
           (TensorPower, "normal_form", _tensor_normal_form))


@contextmanager
def reference_engines():
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in PATCHES]
    for cls, name, method in PATCHES:
        setattr(cls, name, method)
    try:
        yield
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)


@contextmanager
def no_kept_scalars():
    saved = scalars.TABLE_CAP
    scalars.TABLE_CAP = 1
    try:
        yield
    finally:
        scalars.TABLE_CAP = saved
