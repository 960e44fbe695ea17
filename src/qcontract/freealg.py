"""Free noncommutative algebra over exact scalars.

Elements are finite linear combinations of words over a generator alphabet.
A word of the base algebra is a tuple of letters, and a letter
(``GeneratorId``) is a named tuple ``(name,)``: it compares and hashes as a
plain tuple, in C, so hashing a word or looking it up in a dict never runs
Python code.  Letters are immutable and print as their name.

Tensor squares and cubes are modeled in the same structure: an alphabet
carries a slot count, and a word of a k-slot power is the k-tuple of its
slots' base words.  Letters of distinct slots commute, so a product
concatenates slot by slot, and the tensor powers' normal form, the maps,
the leg maps of the Hopf folds and printing read a tensor word slot by
slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add
from typing import NamedTuple

from .scalars import (
    GaussianRational,
    Scalar,
    add_product,
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

    def __repr__(self):
        return self.name


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

    def gen(self, name: str) -> GeneratorId:
        if name not in self.names:
            raise AlphabetMismatch(f"unknown generator {name!r}")
        return GeneratorId(name)

    @property
    def empty_word(self):
        return () if self.slot_count == 1 else ((),) * self.slot_count

    def parts(self, word) -> tuple[Word, ...]:
        """The slot words of ``word``: the word itself in the base algebra."""
        return word if self.slot_count > 1 else (word,)

    def word_length(self, word) -> int:
        return sum(map(len, self.parts(word)))

    def check_word(self, word):
        parts = self.parts(word)
        if len(parts) != self.slot_count or not all(
                type(g) is GeneratorId and g.name in self.names
                for u in parts for g in u):
            raise AlphabetMismatch(f"not a word of this alphabet: {word!r}")

    @cached_property
    def rank(self) -> dict[str, int]:
        """Each name's precedence: its index in ``names``."""
        return {n: i for i, n in enumerate(self.names)}

    @lru_cache(maxsize=None)
    def at_slots(self, slot_count: int) -> "Alphabet":
        """The same names over ``slot_count`` slots: one object per names
        and slot count (equal alphabets share a cache entry), so elements
        of one tensor power share it and alphabet checks match by
        identity."""
        return Alphabet(self.names, slot_count)


Word = tuple[GeneratorId, ...]


def word_key(alphabet: Alphabet, word):
    """Degree-lexicographic key: words with more letters are larger, ties
    compare letter by letter by (slot, precedence)."""
    parts = alphabet.parts(word)
    rank = alphabet.rank
    return (sum(map(len, parts)), tuple([(s, rank[g.name])
                                         for s, u in enumerate(parts)
                                         for g in u]))


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
        return cls._of(alphabet, {alphabet.empty_word: Scalar.one(order)},
                       order)

    @classmethod
    def from_word(cls, alphabet: Alphabet, word, order: int,
                  coeff: Scalar | None = None) -> "Element":
        word = tuple(word)
        alphabet.check_word(word)
        c = coeff if coeff is not None else Scalar.one(order)
        return cls(alphabet, {word: c}, order)

    @classmethod
    def generator(cls, alphabet: Alphabet, name: str,
                  order: int) -> "Element":
        return cls.from_word(alphabet, (alphabet.gen(name),), order)

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def words(self):
        return self.terms.keys()

    def degree(self) -> int:
        return max(map(self.alphabet.word_length, self.terms), default=0)

    def coefficient(self, word: Word) -> Scalar:
        return self.terms.get(tuple(word), Scalar.zero(self.order))

    def contains_letter(self, name: str) -> bool:
        parts = self.alphabet.parts
        return any(g.name == name for w in self.terms for u in parts(w)
                   for g in u)

    def contains_adjacent(self, first: str, second: str) -> bool:
        parts = self.alphabet.parts
        return any(a.name == first and b.name == second
                   for w in self.terms for u in parts(w)
                   for a, b in zip(u, u[1:]))

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
        self._check(other)
        acc = dict(self.terms)
        accumulate_scaled(acc, other.terms,
                          Scalar.from_rational(-1, self.order))
        return Element._of(self.alphabet, acc, self.order)

    def __neg__(self) -> "Element":
        return Element._of(self.alphabet,
                           {w: -c for w, c in self.terms.items()}, self.order)

    def __mul__(self, other) -> "Element":
        if isinstance(other, (int, Fraction, GaussianRational, Scalar)):
            return self.scaled(other)
        self._check(other)
        return Element._of(self.alphabet, product_terms(
            self.terms, other.terms, self.alphabet.slot_count), self.order)

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
        """The same terms over another alphabet (names must be a superset);
        a letter-free element takes its slot count."""
        terms = self.terms
        if not self.degree():
            terms = {alphabet.empty_word: c for c in terms.values()}
        for w in terms:
            alphabet.check_word(w)
        return Element(alphabet, dict(terms), self.order)

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
    the antilinear kind additionally conjugates every coefficient.  A map
    into the base algebra maps an element of a tensor power slot by slot.
    """

    images: dict[GeneratorId, Element]
    kind: MapKind
    source: Alphabet
    target: Alphabet
    order: int

    def apply(self, x: Element) -> Element:
        k = x.alphabet.slot_count
        if x.alphabet != self.source.at_slots(k) or (
                k > 1 and self.target.slot_count > 1):
            raise AlphabetMismatch("element not over the map's source alphabet")
        star = self.kind is MapKind.STAR
        unit = {(): Scalar.one(self.order)}
        out: dict = {}
        for word, coeff in x.terms.items():
            terms = (self._image(word) if k == 1 else
                     reduce(append_slot, map(self._image, word), unit))
            accumulate_scaled(out, terms, coeff.conjugate() if star else coeff)
        return Element._of(self.target if k == 1 else self.target.at_slots(k),
                           out, self.order)

    def _image(self, word: Word) -> dict:
        """The terms of the free image of a base word."""
        prod = {self.target.empty_word: Scalar.one(self.order)}
        reverse = self.kind is not MapKind.HOMOMORPHISM
        for g in reversed(word) if reverse else word:
            img = self.images.get(g)
            if img is None:
                raise MissingImage(f"no image for generator {g!r}")
            prod = product_terms(prod, img.terms, self.target.slot_count)
            if not prod:
                break
        return prod


def accumulate_scaled(acc: dict, terms: dict, s: Scalar) -> None:
    """``acc += terms * s`` in place over word -> Scalar dicts.

    Zero products are skipped and vanishing sums removed, so a sum built
    this way has the terms, in the same order, of one built by adding
    ``Element.scaled`` results one at a time.  Scaling by the shared
    ``Scalar.one`` multiplies nothing; zero coefficients of ``terms`` are
    still skipped.

    A word with no running coefficient yet takes the product ``c * s``, and
    so does one where ``s``, ``c`` and the running coefficient have one
    term each, whose product and sum are memoised.  Otherwise
    ``add_product`` adds each term of the product into a copy of the
    running coefficient's terms and reduces it there: the same value, with
    its terms in the same order."""
    if not s.terms:
        return
    unit = s is Scalar.one(s.truncation_order)
    single = len(s.terms) == 1
    for w, c in terms.items():
        if not c.terms:
            continue
        cur = acc.get(w)
        if cur is not None and not unit and (
                not single or len(c.terms) > 1 or len(cur.terms) > 1):
            c = add_product(cur, c, s)
        else:
            if not unit:
                c = c * s
                if not c.terms:
                    continue
            if cur is not None:
                c = cur + c
        if c.terms:
            acc[w] = c
        elif cur is not None:
            del acc[w]


def product_terms(x: dict, y: dict, slot_count: int = 1) -> dict:
    """The word -> coefficient dict of the product of ``x`` and ``y``: each
    word of ``x`` concatenated with each word of ``y``, slot by slot in a
    tensor power."""
    acc: dict = {}
    cancelled = False
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            c = c1 * c2
            if not c.terms:
                continue
            w = w1 + w2 if slot_count == 1 else tuple(map(add, w1, w2))
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


def append_slot(terms: dict, leg: dict) -> dict:
    """The terms of ``terms`` (x) ``leg``: each word of ``leg``, a base
    word, placed in one more slot after each word of ``terms``."""
    return {w + (v,): p for w, c in terms.items() for v, d in leg.items()
            if (p := c * d).terms}


def tensor_embed(x: Element, slot: int, slot_count: int = 2) -> Element:
    """Place a base-algebra element in one tensor slot."""
    if x.alphabet.slot_count != 1:
        raise AlphabetMismatch("tensor_embed expects a base-algebra element")
    return retag_slots(x, {1: slot}, slot_count)


def retag_slots(x: Element, mapping: dict[int, int], slot_count: int) -> Element:
    """Move slot s of each word of ``x`` (a base element has one slot) to
    slot ``mapping.get(s, s)`` of a ``slot_count``-slot power; the slots no
    word moves to stay empty (used for coassociativity checks)."""
    moves = [mapping.get(s, s) for s in range(1, x.alphabet.slot_count + 1)]
    if slot_count < 2 or len(set(range(1, slot_count + 1)).intersection(
            moves)) < len(moves):
        raise ValueError(f"slots {moves} do not fit {slot_count} factors")
    terms = {}
    for w, c in x.terms.items():
        nw = [()] * slot_count
        for s, u in zip(moves, x.alphabet.parts(w)):
            nw[s - 1] = u
        terms[tuple(nw)] = c
    return Element._of(x.alphabet.at_slots(slot_count), terms, x.order)


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


def format_word(word, slot_count: int) -> str:
    parts = word if slot_count > 1 else (word,)
    return " ox ".join(map(_format_run_length, parts))


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
            cstr = format_scalar_term(sc.terms[key], key)
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
