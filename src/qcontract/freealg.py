"""Free noncommutative algebra over exact scalars.

Elements are finite linear combinations of words over a generator alphabet.
A word is a tuple of letters, and a letter (``GeneratorId``) is a named
tuple ``(name, slot)``: it compares and hashes as the plain pair, in C, so
hashing a word or looking it up in a dict never runs Python code.  Letters
are immutable and print as ``a`` in the base algebra and ``a@2`` in a
tensor slot.

Tensor squares and cubes are modeled in the same structure: letters carry a
slot tag (0 for the base algebra, 1..3 for tensor factors).  Letters of
distinct slots commute, so ``slot_words`` splits a tensor word into the base
words of its slots; the tensor powers' normal form, the leg maps of the Hopf
folds and printing all read a tensor word that way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .scalars import (
    GaussianRational,
    Scalar,
    format_scalar_term,
    scalar_term_key,
    _join_signed,
)

MAX_SLOTS = 3


class AlphabetMismatch(ValueError):
    """Raised when elements over different alphabets are combined."""


class MissingImage(ValueError):
    """Raised when a generator map is applied to a letter without an image."""


class GeneratorId(NamedTuple):
    name: str
    slot: int = 0

    def __repr__(self):
        return self.name if self.slot == 0 else f"{self.name}@{self.slot}"


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names (increasing precedence) plus a slot count."""

    names: tuple[str, ...]
    slot_count: int = 1

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        if not 1 <= self.slot_count <= MAX_SLOTS:
            raise ValueError(f"slot count must be 1..{MAX_SLOTS}")

    @property
    def slots(self) -> tuple[int, ...]:
        if self.slot_count == 1:
            return (0,)
        return tuple(range(1, self.slot_count + 1))

    def gen(self, name: str, slot: int | None = None) -> GeneratorId:
        if slot is None:
            slot = self.slots[0]
        g = GeneratorId(name, slot)
        self.check_letter(g)
        return g

    def check_letter(self, g: GeneratorId):
        if g.name not in self.names:
            raise AlphabetMismatch(f"unknown generator {g.name!r}")
        if g.slot not in self.slots:
            raise AlphabetMismatch(f"slot {g.slot} invalid for this alphabet")

    def letter_key(self, g: GeneratorId) -> tuple[int, int]:
        return (g.slot, self.names.index(g.name))

    @lru_cache(maxsize=None)
    def at_slots(self, slot_count: int) -> "Alphabet":
        """The same names over ``slot_count`` slots: one object per names
        and slot count (equal alphabets share a cache entry), so elements
        of one tensor power share it and alphabet checks match by
        identity."""
        return Alphabet(self.names, slot_count)


Word = tuple[GeneratorId, ...]


def word_key(alphabet: Alphabet, word: Word):
    """Degree-lexicographic key: longer words are larger, ties compare
    letter-by-letter by (slot, precedence)."""
    return (len(word), tuple(alphabet.letter_key(g) for g in word))


class Element:
    """Finite Scalar-linear combination of words over a fixed alphabet."""

    __slots__ = ("alphabet", "terms", "order")

    def __init__(self, alphabet: Alphabet, terms: dict, order: int):
        clean = {w: c for w, c in terms.items() if not c.is_zero}
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order", order)

    @classmethod
    def _of(cls, alphabet: Alphabet, terms: dict, order: int) -> "Element":
        """An element over ``terms`` as given: for callers whose dicts
        already hold no zero coefficient."""
        x = _new(cls)
        _set_alphabet(x, alphabet)
        _set_terms(x, terms)
        _set_order(x, order)
        return x

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, order: int) -> "Element":
        return cls(alphabet, {}, order)

    @classmethod
    def unit(cls, alphabet: Alphabet, order: int) -> "Element":
        return cls._of(alphabet, {(): Scalar.one(order)}, order)

    @classmethod
    def from_word(cls, alphabet: Alphabet, word: Word, order: int,
                  coeff: Scalar | None = None) -> "Element":
        for g in word:
            alphabet.check_letter(g)
        c = coeff if coeff is not None else Scalar.one(order)
        return cls(alphabet, {tuple(word): c}, order)

    @classmethod
    def generator(cls, alphabet: Alphabet, name: str, order: int,
                  slot: int | None = None) -> "Element":
        return cls.from_word(alphabet, (alphabet.gen(name, slot),), order)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def words(self):
        return self.terms.keys()

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def coefficient(self, word: Word) -> Scalar:
        return self.terms.get(tuple(word), Scalar.zero(self.order))

    def contains_letter(self, name: str) -> bool:
        return any(g.name == name for w in self.terms for g in w)

    def contains_adjacent(self, first: str, second: str) -> bool:
        for w in self.terms:
            for a, b in zip(w, w[1:]):
                if a.name == first and b.name == second and a.slot == b.slot:
                    return True
        return False

    def leading_word(self) -> Word:
        if self.is_zero:
            raise ValueError("zero element has no leading word")
        return max(self.terms, key=lambda w: word_key(self.alphabet, w))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Element"):
        a, b = self.alphabet, other.alphabet
        if a is not b and a != b:
            raise AlphabetMismatch(f"alphabet mismatch: {a} vs {b}")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        acc = dict(self.terms)
        accumulate_scaled(acc, other.terms, Scalar.one(self.order))
        return Element._of(self.alphabet, acc, self.order)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._of(self.alphabet,
                           {w: -c for w, c in self.terms.items()}, self.order)

    def __mul__(self, other) -> "Element":
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self.scaled(other)
        self._check(other)
        return Element._of(self.alphabet, product_terms(self.terms,
                                                        other.terms),
                           self.order)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, s) -> "Element":
        if not isinstance(s, Scalar):
            s = Scalar.from_rational(s, self.order)
        return Element(self.alphabet,
                       {w: c * s for w, c in self.terms.items()}, self.order)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (self.alphabet == other.alphabet and self.order == other.order
                and self.terms == other.terms)

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def map_scalars(self, fn) -> "Element":
        return Element(self.alphabet,
                       {w: fn(c) for w, c in self.terms.items()}, self.order)

    def eps_components(self) -> dict[int, "Element"]:
        """Split into eps-homogeneous parts, eps powers stripped."""
        out: dict[int, dict] = {}
        for w, c in self.terms.items():
            for k in c.eps_degrees():
                comp = c.eps_component(k)
                out.setdefault(k, {})[w] = comp
        return {k: Element(self.alphabet, d, self.order)
                for k, d in sorted(out.items())}

    def rebind(self, alphabet: Alphabet) -> "Element":
        """The same terms over another alphabet (names must be a superset)."""
        for w in self.terms:
            for g in w:
                alphabet.check_letter(g)
        return Element(alphabet, dict(self.terms), self.order)

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"Element({self})"


_new = object.__new__
_set_alphabet = Element.alphabet.__set__
_set_terms = Element.terms.__set__
_set_order = Element.order.__set__


class MapKind(enum.Enum):
    HOMOMORPHISM = "homomorphism"
    ANTIHOMOMORPHISM = "antihomomorphism"
    STAR = "antilinear-antihomomorphism"


@dataclass
class GeneratorMap:
    """Images for each generator, extended by the declared law.

    Homomorphisms preserve letter order, antihomomorphisms reverse it, and
    the antilinear kind additionally conjugates every coefficient.
    """

    images: dict[GeneratorId, Element]
    kind: MapKind
    source: Alphabet
    target: Alphabet
    order: int

    def apply(self, x: Element) -> Element:
        if x.alphabet != self.source:
            raise AlphabetMismatch("element not over the map's source alphabet")
        star = self.kind is MapKind.STAR
        reverse = self.kind is not MapKind.HOMOMORPHISM
        out = Element.zero(self.target, self.order)
        for word, coeff in x.terms.items():
            prod = Element.unit(self.target, self.order).scaled(
                coeff.conjugate() if star else coeff)
            for g in reversed(word) if reverse else word:
                img = self.images.get(g)
                if img is None:
                    raise MissingImage(f"no image for generator {g!r}")
                prod = prod * img
                if prod.is_zero:
                    break
            out = out + prod
        return out

    def on_slots(self, slot_count: int = 2) -> "GeneratorMap":
        """The slot-wise extension to a tensor power: a letter in slot s
        goes to its image moved into slot s."""
        source = self.source.at_slots(slot_count)
        images = {GeneratorId(g.name, s): tensor_embed(img, s, slot_count)
                  for g, img in self.images.items() for s in source.slots}
        return GeneratorMap(images, self.kind, source,
                            self.target.at_slots(slot_count), self.order)


def accumulate_scaled(acc: dict, terms: dict, s: Scalar) -> None:
    """``acc += terms * s`` in place over word -> Scalar dicts.

    Zero products are skipped and vanishing sums removed, so a sum built
    this way has the terms, in the same order, of one built by adding
    ``Element.scaled`` results one at a time.  Scaling by the shared
    ``Scalar.one`` multiplies nothing; zero coefficients of ``terms`` are
    still skipped."""
    unit = s is Scalar.one(s.truncation_order)
    for w, c in terms.items():
        if not unit:
            c = c * s
        if not c.terms:
            continue
        cur = acc.get(w)
        if cur is None:
            acc[w] = c
            continue
        c = cur + c
        if c.terms:
            acc[w] = c
        else:
            del acc[w]


def product_terms(x: dict, y: dict) -> dict:
    """The word -> coefficient dict of the product of ``x`` and ``y``: each
    word of ``x`` concatenated with each word of ``y``."""
    acc: dict = {}
    cancelled = False
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            c = c1 * c2
            if not c.terms:
                continue
            w = w1 + w2
            cur = acc.get(w)
            if cur is None:
                acc[w] = c
            else:
                c = acc[w] = cur + c
                cancelled = cancelled or not c.terms
    if cancelled:
        # drop vanishing sums only now, so the surviving terms keep the
        # order in which they first appeared
        acc = {w: c for w, c in acc.items() if c.terms}
    return acc


def tensor_embed(x: Element, slot: int, slot_count: int = 2) -> Element:
    """Retag a base-algebra element into one tensor slot."""
    if x.alphabet.slot_count != 1:
        raise AlphabetMismatch("tensor_embed expects a base-algebra element")
    if not 1 <= slot <= slot_count <= MAX_SLOTS:
        raise ValueError(f"slot {slot} out of range for {slot_count} factors")
    target = x.alphabet.at_slots(slot_count)
    terms = {
        tuple(GeneratorId(g.name, slot) for g in w): c
        for w, c in x.terms.items()
    }
    return Element(target, terms, x.order)


def retag_slots(x: Element, mapping: dict[int, int], slot_count: int) -> Element:
    """Move letters between slots (used for coassociativity checks)."""
    target = x.alphabet.at_slots(slot_count)
    terms: dict = {}
    for w, c in x.terms.items():
        nw = tuple(GeneratorId(g.name, mapping.get(g.slot, g.slot)) for g in w)
        for g in nw:
            target.check_letter(g)
        cur = terms.get(nw)
        terms[nw] = c if cur is None else cur + c
    return Element(target, terms, x.order)


def slot_words(word: Word, slot_count: int) -> tuple[Word, ...]:
    """The letters of each tensor slot of ``word``, in their order, as
    words of the base algebra."""
    parts: list[list] = [[] for _ in range(slot_count)]
    for name, slot in word:
        parts[slot - 1].append(GeneratorId(name, 0))
    return tuple(map(tuple, parts))


# -- printing ---------------------------------------------------------------


def _format_run_length(letters: tuple[GeneratorId, ...]) -> str:
    if not letters:
        return "1"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        n = j - i
        parts.append(letters[i].name if n == 1 else f"{letters[i].name}^{n}")
        i = j
    return "*".join(parts)


def format_word(word: Word, slot_count: int) -> str:
    if slot_count == 1:
        return _format_run_length(word)
    return " ox ".join(map(_format_run_length, slot_words(word, slot_count)))


def format_element(x: Element) -> str:
    """Canonical rendering: words in descending monomial order, scalar terms
    flattened so every printed summand has a single coefficient."""
    if x.is_zero:
        return "0"
    parts = []
    for word in sorted(x.terms, key=lambda w: word_key(x.alphabet, w),
                       reverse=True):
        sc = x.terms[word]
        wstr = format_word(word, x.alphabet.slot_count)
        for key in sorted(sc.terms, key=scalar_term_key):
            mono, eps = key
            cstr = format_scalar_term(sc.terms[key], mono, eps)
            if word:
                if cstr == "1":
                    parts.append(wstr)
                elif cstr == "-1":
                    parts.append("-" + wstr)
                else:
                    parts.append(f"{cstr}*{wstr}")
            else:
                parts.append(cstr)
    return _join_signed(parts)
