"""Exact coefficient arithmetic for the symbolic engine.

A coefficient is a finite sum of terms

    (Gaussian rational) * (Laurent monomial in commuting parameters) * eps^k

where the parameters are ``q`` (the deformation parameter of the standalone
quantum group) and ``lam`` (the inverse kappa surviving the contraction), and
``eps`` is the contraction bookkeeping variable (the inverse of the
contraction parameter).  eps powers above a fixed truncation order are
discarded by every operation; everything else is exact rational arithmetic.

A Gaussian rational is stored as three ints ``(a + b*i)/d`` in canonical
form, ``d > 0`` and ``gcd(a, b, d) == 1``, so equal values have equal
triples.  Sums and products work on the ints and reduce once per result
(no gcd at all when the denominator is 1).  Parameter monomials are
interned, one instance per exponent tuple, so a scalar term's key is found
by identity; their products are memoised.

A single-term ``Scalar`` is hash-consed: every constructor and every
arithmetic result of one term (but an operand returned as it is) returns
the one instance kept for its truncation order, monomial, eps degree and
canonical triple.  Nearly every coefficient product in the engine
multiplies two single-term scalars, and few distinct pairs occur, so
products and sums of two single-term scalars are memoised by operand
identity; a memo entry holds its operands, so their ids are not reused
while it exists.  Multi-term scalars seldom repeat and are not memoised.
Every other product runs through one kernel, ``_add_products``, which adds
each term of the product into a term dict in place and reduces it there:
``Scalar.__mul__`` adds into an empty dict, and ``add_product`` into a copy
of a running sum (the multiply-add of ``freealg.accumulate_scaled``), so
no product is built.  Nearly always one factor has a single term, which
sends distinct keys to distinct keys, so each key is met once.  Printing
keeps each term key's factor text and order key in ``_TERM_TEXT``, built
once per key.  The tables live for one command: the CLI
empties them when a command starts and when it returns (``fresh_tables``),
and they are emptied whenever one of them reaches ``TABLE_CAP`` entries,
so a command's cost never depends on what ran before it and memory stays
bounded.  After a clear two equal scalars may be distinct objects, so
equality compares values; only the memos and the unit test use identity.

``Scalar.one(order)`` is one instance per truncation order for the life of
the process, kept across every clear, and a product with it as a factor
returns the other factor as it is.  Most products in the engine have it as
a factor (unit elements, the seeds of the rewriter's stack);
``accumulate_scaled`` skips such products altogether.  Sharing is sound
only because a ``Scalar`` is never changed after it is built: no code may
write to its ``terms`` dict in place.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Callable, Iterable

DEFAULT_TRUNCATION_ORDER = 1
MAX_TRUNCATION_ORDER = 4

#: canonical printing order for parameters; unknown names sort after these
_PARAM_PRINT_RANK = {"q": 0, "lam": 1}


class TruncationMismatch(ValueError):
    """Raised when two scalars with different truncation orders are combined."""


class NumberTooLong(ValueError):
    """Raised when a number has more digits than ``str`` may write (see
    ``sys.get_int_max_str_digits``)."""


class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Stored as three ints ``(a + b*i)/d`` in canonical form (``d > 0``,
    ``gcd(a, b, d) == 1``), so equal values have equal triples.  ``re`` and
    ``im`` are read-only ``Fraction`` views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            rd, idn = re.denominator, im.denominator
            # both parts are in lowest terms, so over the lcm of their
            # denominators the triple is already canonical
            d = rd // gcd(rd, idn) * idn
            a = re.numerator * (d // rd)
            b = im.numerator * (d // idn)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return _gr, (self._a, self._b, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conjugate(self) -> "GaussianRational":
        return _gr(self._a, -self._b, self._d)

    def __add__(self, other):
        other = _as_gr(other)
        return _canon(*_add3(self._a, self._b, self._d,
                             other._a, other._b, other._d))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gr(other)
        return _canon(*_add3(self._a, self._b, self._d,
                             -other._a, -other._b, other._d))

    def __rsub__(self, other):
        return _as_gr(other) - self

    def __neg__(self):
        return _gr(-self._a, -self._b, self._d)

    def __mul__(self, other):
        other = _as_gr(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2,
                      self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gr(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _canon((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                      self._d * n)

    def __rtruediv__(self, other):
        return _as_gr(other) / self

    def __eq__(self, other):
        try:
            other = _as_gr(other)
        except TypeError:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _gr(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i)/d`` from a triple already in canonical form."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _canon(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i)/d`` for any ``d > 0``, reduced to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _gr(a, b, d)


def _add3(a1, b1, d1, a2, b2, d2) -> tuple[int, int, int]:
    """Unreduced sum of two triples."""
    if d1 == d2:
        return a1 + a2, b1 + b2, d1
    return a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _as_gr(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if type(value) is Fraction:  # in lowest terms, so the triple is too
        return _gr(value.numerator, 0, value.denominator)
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms, printed as ``str(Fraction(n, d))`` prints it."""
    if d != 1:
        g = gcd(n, d)
        n //= g
        d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # more digits than str() writes
        raise NumberTooLong(
            f"number too long to print: more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def check_printable(s: "Scalar") -> None:
    """Raise :class:`NumberTooLong` unless every coefficient of ``s``
    prints.  An int of at most ``limit * log2(10)`` bits has at most
    ``limit`` digits (a limit of 0 is none), so only a coefficient with a
    longer int is formatted to tell."""
    limit = sys.get_int_max_str_digits()
    bits = limit * 3321928 // 1000000  # at most limit * 3.32192809...
    for c in s.terms.values():
        if limit and max(c._a.bit_length(), c._b.bit_length(),
                         c._d.bit_length()) > bits:
            format_gaussian(c)


def format_gaussian(gr: GaussianRational) -> str:
    """Render a Gaussian rational as an expression factor.

    Purely real values print as fractions, purely imaginary ones use ``i``,
    mixed values are parenthesized so they can re-enter the parser intact.
    Each part is reduced from the integer triple on its own.
    """
    a, b, d = gr._a, gr._b, gr._d
    if not b:
        return _ratio_text(a, d)
    istr = "i" if abs(b) == d else f"{_ratio_text(abs(b), d)}*i"
    if not a:
        return istr if b > 0 else "-" + istr
    return f"({_ratio_text(a, d)}{'+' if b > 0 else '-'}{istr})"


class ParamMonomial(tuple):
    """Laurent monomial in named commuting parameters: the sorted tuple of
    its ``(name, exponent)`` pairs.

    Zero exponents are never stored; the product of monomials adds exponents.
    Monomials are interned: one instance per exponent tuple, so a lookup of
    a scalar term's key matches by identity, and hashing and comparing run
    in C on the exponents (never on the address, so no order depends on
    memory layout).  Copies and pickles return the interned instance.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[str, int]] = ()):
        items = tuple(sorted((n, e) for n, e in exps if e != 0))
        mono = _MONOS.get(items)
        if mono is None:
            mono = _MONOS[items] = tuple.__new__(cls, items)
        return mono

    def __reduce__(self):
        return ParamMonomial, (tuple(self),)

    @property
    def exps(self) -> tuple[tuple[str, int], ...]:
        return tuple(self)

    @classmethod
    def unit(cls) -> "ParamMonomial":
        return _MONO_UNIT

    @classmethod
    def of(cls, name: str, exp: int = 1) -> "ParamMonomial":
        return cls(((name, exp),))

    def degree(self, name: str) -> int:
        for n, e in self:
            if n == name:
                return e
        return 0

    def without(self, name: str) -> "ParamMonomial":
        return ParamMonomial((n, e) for n, e in self if n != name)

    def inverse(self) -> "ParamMonomial":
        return ParamMonomial((n, -e) for n, e in self)

    def __mul__(self, other: "ParamMonomial") -> "ParamMonomial":
        if not self:
            return other
        if not other:
            return self
        return _mono_product(self, other)

    def sort_key(self):
        return tuple((_PARAM_PRINT_RANK.get(n, 99), n, e) for n, e in self)

    def factors(self) -> list[str]:
        out = []
        for _, name, exp in sorted(self.sort_key()):
            out.append(name if exp == 1 else f"{name}^{exp}")
        return out

    def __repr__(self):
        return f"ParamMonomial({tuple(self)!r})"


#: exponent tuple -> its one ParamMonomial; few distinct monomials occur
_MONOS: dict[tuple, ParamMonomial] = {}
_MONO_UNIT = ParamMonomial()


# the bound only guards against unbounded growth
@lru_cache(maxsize=1 << 16)
def _mono_product(m1: ParamMonomial, m2: ParamMonomial) -> ParamMonomial:
    acc = dict(m1)
    for n, e in m2:
        acc[n] = acc.get(n, 0) + e
    return ParamMonomial(acc.items())


def _term_entry(key: tuple[ParamMonomial, int]) -> tuple:
    """The printing order key and the factor text of a scalar term's key,
    kept in ``_TERM_TEXT`` for the rest of the command."""
    entry = _TERM_TEXT.get(key)
    if entry is None:
        mono, eps = key
        factors = mono.factors()
        if eps:
            factors.append("eps" if eps == 1 else f"eps^{eps}")
        entry = (eps, mono.sort_key()), "*".join(factors)
        _remember(_TERM_TEXT, key, entry)
    return entry


def scalar_term_key(key: tuple[ParamMonomial, int]):
    return _term_entry(key)[0]


def format_scalar_term(coeff: GaussianRational,
                       key: tuple[ParamMonomial, int]) -> str:
    """Render one scalar term; the result may start with a minus sign."""
    text = _term_entry(key)[1]
    cs = format_gaussian(coeff)
    if text:
        if cs == "1":
            return text
        if cs == "-1":
            return "-" + text
        return f"{cs}*{text}"
    return cs


class Scalar:
    """Truncated eps-polynomial with Gaussian-rational Laurent coefficients.

    ``terms`` maps ``(ParamMonomial, eps_degree)`` to a nonzero
    GaussianRational; no term exceeds ``truncation_order`` in eps.
    Instances are immutable and all operations are pure.  A single-term
    scalar is the one instance kept for its value (see the module
    docstring), and results may share objects with the operands (a product
    with ``Scalar.one(k)`` is the other factor itself), so ``terms`` must
    never be written to in place.
    """

    __slots__ = ("terms", "truncation_order")

    def __new__(cls, terms, truncation_order: int):
        if truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        return _scalar({key: coeff for key, coeff in terms.items()
                        if key[1] <= truncation_order and not coeff.is_zero},
                       truncation_order)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # a copy of a single-term scalar, the unit too, is its kept instance
        return _scalar, (self.terms, self.truncation_order)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Scalar":
        return cls({}, order)

    @classmethod
    def one(cls, order: int) -> "Scalar":
        """The unit at ``order``: one instance per order, for the life of
        the process."""
        one = _ONES.get(order)
        if one is None:  # the first one is kept in _ONES as it is interned
            one = cls({(_MONO_UNIT, 0): GR_ONE}, order)
        return one

    @classmethod
    def from_rational(cls, value, order: int) -> "Scalar":
        return cls({(_MONO_UNIT, 0): _as_gr(value)}, order)

    @classmethod
    def imag_unit(cls, order: int) -> "Scalar":
        return cls({(_MONO_UNIT, 0): GR_I}, order)

    @classmethod
    def param(cls, name: str, order: int, exp: int = 1) -> "Scalar":
        return cls({(ParamMonomial.of(name, exp), 0): GR_ONE}, order)

    @classmethod
    def eps(cls, order: int, power: int = 1) -> "Scalar":
        return cls({(_MONO_UNIT, power): GR_ONE}, order)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self is _ONES.get(self.truncation_order)

    def int_words(self) -> tuple[int, int]:
        """The 64-bit words of its numerators (one at least per term) and
        of its denominators (beyond the first), summed over its terms: what
        a product costs, in multiplying and in reducing, grows with them."""
        num = den = 0
        for c in self.terms.values():
            num += 1 + (max(c._a.bit_length(), c._b.bit_length()) >> 6)
            den += c._d.bit_length() >> 6
        return num, den

    def max_param_degree(self, name: str) -> int:
        return max((abs(m.degree(name)) for (m, _) in self.terms), default=0)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.truncation_order != self.truncation_order:
                raise TruncationMismatch(
                    f"truncation orders differ: {self.truncation_order} vs "
                    f"{other.truncation_order}"
                )
            return other
        return Scalar.from_rational(other, self.truncation_order)

    def __add__(self, other):
        order = self.truncation_order
        if type(other) is not Scalar or other.truncation_order != order:
            other = self._coerce(other)  # a number, or a mismatch raised
        memo = None
        if len(self.terms) == 1 and len(other.terms) == 1:
            memo = (id(self), id(other))
            hit = _SUMS.get(memo)
            if hit is not None:
                return hit[2]
        acc = dict(self.terms)
        _merge(acc, other.terms)
        total = _scalar(acc, order)
        if memo is not None:
            _remember(_SUMS, memo, (self, other, total))
        return total

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return _scalar(
            {key: _gr(-c._a, -c._b, c._d) for key, c in self.terms.items()},
            self.truncation_order,
        )

    def __mul__(self, other):
        order = self.truncation_order
        one = _ONES.get(order)
        if other is one:
            return self
        if type(other) is not Scalar or other.truncation_order != order:
            other = self._coerce(other)  # a number, or a mismatch raised
        if self is one:
            return other
        if len(self.terms) == 1 and len(other.terms) == 1:
            memo = (id(self), id(other))
            hit = _PRODUCTS.get(memo)
            if hit is not None:
                return hit[2]
            (((m1, e1), c1),) = self.terms.items()
            (((m2, e2), c2),) = other.terms.items()
            e = e1 + e2
            out = {}
            if e <= order:
                a1, b1, a2, b2 = c1._a, c1._b, c2._a, c2._b
                out[(m1 * m2, e)] = _canon(a1 * a2 - b1 * b2,
                                           a1 * b2 + b1 * a2, c1._d * c2._d)
            prod = _scalar(out, order)
            _remember(_PRODUCTS, memo, (self, other, prod))
            return prod
        terms: dict = {}
        _add_products(terms, self.terms, other.terms, order)
        return _scalar(terms, order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if other is self:
            return True
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Scalar.from_rational(other, self.truncation_order)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.truncation_order == other.truncation_order
            and self.terms == other.terms
        )

    __hash__ = None

    # -- structure maps ----------------------------------------------------

    def conjugate(self) -> "Scalar":
        """Complex conjugation; all parameters and eps are treated as real."""
        return _scalar(
            {key: _gr(c._a, -c._b, c._d) for key, c in self.terms.items()},
            self.truncation_order,
        )

    def eps_component(self, k: int) -> "Scalar":
        """The eps^k slice, with the eps power stripped off."""
        acc = {}
        for (mono, eps), coeff in self.terms.items():
            if eps == k:
                acc[(mono, 0)] = coeff
        return Scalar(acc, self.truncation_order)

    def eps_degrees(self) -> set[int]:
        return {eps for (_, eps) in self.terms}

    def eliminate_param(self, name: str, series: Callable[[int], "Scalar"]) -> "Scalar":
        """Replace each power ``name^m`` by ``series(m)``."""
        out = Scalar.zero(self.truncation_order)
        for (mono, eps), coeff in self.terms.items():
            m = mono.degree(name)
            base = Scalar({(mono.without(name), eps): coeff}, self.truncation_order)
            out = out + (base * series(m) if m else base)
        return out

    def set_param_zero(self, name: str) -> "Scalar":
        """Substitute the parameter to zero (drops every term containing it)."""
        acc = {}
        for (mono, eps), coeff in self.terms.items():
            d = mono.degree(name)
            if d < 0:
                raise ZeroDivisionError(f"negative power of {name} at zero")
            if d == 0:
                acc[(mono, eps)] = coeff
        return Scalar(acc, self.truncation_order)

    # -- units -------------------------------------------------------------

    @property
    def is_unit_monomial(self) -> bool:
        if len(self.terms) != 1:
            return False
        ((_, eps),) = self.terms.keys()
        return eps == 0

    def inverse_of_unit(self) -> "Scalar":
        if not self.is_unit_monomial:
            raise ValueError(f"not an invertible monomial scalar: {self}")
        ((mono, _),) = self.terms.keys()
        coeff = self.terms[(mono, 0)]
        return Scalar(
            {(mono.inverse(), 0): GR_ONE / coeff}, self.truncation_order
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=scalar_term_key):
            parts.append(format_scalar_term(self.terms[key], key))
        return _join_signed(parts)

    def __repr__(self):
        return f"Scalar({self}; order={self.truncation_order})"


#: the ``Scalar.one`` of each truncation order, kept across every clear
_ONES: dict[int, Scalar] = {}
#: a unit's key in ``_SINGLES``, after its truncation order
_UNIT_KEY = (_MONO_UNIT, 0, 1, 0, 1)
#: the most entries a table below holds; reaching it empties all four.
#: One ``report`` fills at most about 570 values, 880 products and 1,190
#: sums; full tables hold about 1.6 MB
TABLE_CAP = 2048
#: (order, monomial, eps, a, b, d) -> the one single-term Scalar of that value
_SINGLES: dict[tuple, Scalar] = {}
#: (id(x), id(y)) -> (x, y, x*y), and (x, y, x+y), for single-term x and y
_PRODUCTS: dict[tuple, tuple] = {}
_SUMS: dict[tuple, tuple] = {}
#: (monomial, eps) -> (its printing order key, its factor text)
_TERM_TEXT: dict[tuple, tuple] = {}
_set_terms = Scalar.terms.__set__
_set_order = Scalar.truncation_order.__set__


def _scalar(terms: dict, order: int) -> Scalar:
    """A Scalar from terms already clean: nonzero, eps at most ``order``;
    one term gives its kept instance."""
    if len(terms) == 1:
        (((mono, eps), c),) = terms.items()
        key = (order, mono, eps, c._a, c._b, c._d)
        s = _SINGLES.get(key)
        return _intern(key, terms, order) if s is None else s
    s = _new(Scalar)
    _set_terms(s, terms)
    _set_order(s, order)
    return s


def _intern(key: tuple, terms: dict, order: int) -> Scalar:
    if len(_SINGLES) >= TABLE_CAP:
        clear_tables()
    s = _SINGLES[key] = _new(Scalar)
    _set_terms(s, terms)
    _set_order(s, order)
    if key[1:] == _UNIT_KEY:  # the first unit of its order
        _ONES[order] = s
    return s


def _remember(table: dict, key: tuple, entry: tuple) -> None:
    if len(table) >= TABLE_CAP:
        clear_tables()
    table[key] = entry


def _merge(terms: dict, other: dict) -> None:
    """Add the terms of ``other`` into the clean ``terms`` in place: a key
    of ``terms`` keeps its place and is reduced once, or leaves when its
    sum is zero; a new key is appended."""
    for key, c in other.items():
        cur = terms.get(key)
        if cur is None:
            terms[key] = c
            continue
        a, b, d = _add3(cur._a, cur._b, cur._d, c._a, c._b, c._d)
        if a or b:
            terms[key] = _canon(a, b, d)
        else:
            del terms[key]


def _add_products(terms: dict, x: dict, y: dict, order: int) -> None:
    """Add ``x*y``, eps above ``order`` dropped, into the clean term dict
    ``terms`` in place, reducing each key as it is written (one gcd when
    its denominator is not 1).  The outer loop runs over the shorter
    operand: a one-term factor sends distinct keys to distinct keys, so
    then each key is met once.  A key whose sum reaches zero holds
    ``GR_ZERO`` until the loop ends, so the keys of ``terms`` keep their
    places, new keys follow in the order first met, and a key that ends at
    zero leaves."""
    if len(x) > len(y):
        x, y = y, x
    cancelled = False
    for (m1, e1), c1 in x.items():
        room = order - e1
        if room < 0:
            continue
        a1, b1, d1 = c1._a, c1._b, c1._d
        for (m2, e2), c2 in y.items():
            if e2 > room:
                continue
            key = (m1 if not m2 else m2 if not m1 else _mono_product(m1, m2),
                   e1 + e2)
            a2, b2 = c2._a, c2._b
            a, b, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * c2._d
            cur = terms.get(key)
            if cur is not None:
                dc = cur._d
                if dc == d:
                    a += cur._a
                    b += cur._b
                else:
                    a, b, d = a * dc + cur._a * d, b * dc + cur._b * d, d * dc
                if not a and not b:
                    terms[key] = GR_ZERO
                    cancelled = True
                    continue
            if d != 1:
                g = gcd(a, b, d)
                if g != 1:
                    a //= g
                    b //= g
                    d //= g
            z = terms[key] = _new(GaussianRational)
            _set_a(z, a)
            _set_b(z, b)
            _set_d(z, d)
    if cancelled:
        for key in [key for key, c in terms.items() if c is GR_ZERO]:
            del terms[key]


def add_product(cur: Scalar, x: Scalar, y: Scalar) -> Scalar:
    """``cur + x*y`` in one pass: the product's terms are added into a copy
    of ``cur``'s (``_add_products``).  The value and the term order are
    those of the two operations; no product is built and nothing is
    memoised, and a one-term result is its kept instance."""
    order = cur.truncation_order
    if x.truncation_order != order or y.truncation_order != order:
        raise TruncationMismatch("truncation orders differ")
    terms = dict(cur.terms)
    _add_products(terms, x.terms, y.terms, order)
    return _scalar(terms, order)


def clear_tables() -> None:
    """Forget every kept single-term scalar but the units, every memoised
    product and sum, and every term's printed text."""
    _SINGLES.clear()
    _PRODUCTS.clear()
    _SUMS.clear()
    _TERM_TEXT.clear()
    for order, one in _ONES.items():
        _SINGLES[(order, *_UNIT_KEY)] = one


@contextmanager
def fresh_tables():
    """Empty the tables on entry and on exit, by an exception too, so what
    runs inside neither reads nor leaves any entry but the units."""
    clear_tables()
    try:
        yield
    finally:
        clear_tables()


def _join_signed(parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


def q_power(m: int, order: int) -> Scalar:
    """Truncated expansion of the m-th power of ``exp(lam*eps)``.

    This is the series that eliminates ``q`` during contraction: every
    occurrence of ``q^m`` becomes ``sum_k (m*lam*eps)^k / k!`` up to the
    truncation order.
    """
    terms = {}
    for k in range(order + 1):
        coeff = GaussianRational(Fraction(m**k, factorial(k)))
        if coeff.is_zero:
            continue
        terms[(ParamMonomial.of("lam", k), k)] = coeff
    return Scalar(terms, order)
