"""Tokenizer and recursive-descent parser for the algebra expression syntax.

Grammar (whitespace-insensitive)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := slotprod ('ox' slotprod)*        # 'ox' builds tensor factors
    slotprod := factor ('*' factor)*
    factor   := atom ['^' signed_int]
    atom     := NUMBER | 'i' | 'eps' | NAME | '(' expr ')' | '[' expr ',' expr ']'
    NUMBER   := INT ['/' INT]

``[x,y]`` is the commutator, names resolve to generators or parameters,
``i`` is the imaginary unit and ``eps`` the truncation variable.  A name
starts with a letter or ``_`` and goes on with letters, digits and ``_``;
an INT is a run of decimal digits, in any script.  ``tokenize`` is one
regular-expression scan; a token's column counts code points from 1 and
only ``\n`` starts a new line.

The parser works on word -> coefficient dicts and a slot count (the
alphabet of the value), and forms one ``Element`` at the end: a product
concatenates words (slot by slot in a tensor power), a sum adds
coefficients.

Expanding can blow up, so every product is charged to the step budget
before it is done: a typed product (``*``, ``ox`` or a commutator) one step
per pair of terms, each multiplication inside ``x^n`` one step plus one per
letter it may write (terms of the two factors times their summed degrees);
when both factors are scalars, one step plus one per further pair of their
terms and one per 8 products of the 64-bit words of their numbers (see
``_Parser._charge``).

Given a presentation, the parser returns the normal form there and never
holds the whole expansion: each generator and each product is reduced as
soon as it is formed, and sums stay normal by linearity.  The normal-word
table reduces a free word by folding its letters left to right, so
``nf(x*y)`` is ``nf(x)`` folded by the letters of each free word of ``y``
(``Presentation._multiply``), on every presentation, confluent or not.  A
right operand (a later factor of a product, the base of a power, each side
of a commutator) is therefore parsed into free words, not reduced; after a
scalar it is reduced, as ``nf(c*y) = c*nf(y)``.  The charges above then
count the terms of the reduced left operand, and the reductions draw an
allowance of their own, charged by the table as ``normal_form`` charges.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .freealg import (
    Alphabet,
    Element,
    GeneratorId,
    accumulate_scaled,
    append_slot,
    product_terms,
)
from .rewrite import Presentation, _charge, allowance
from .scalars import Scalar

RESERVED = {"i", "eps", "ox"}
#: deepest nesting of parentheses and commutator brackets; parsing recurses
#: once per level, so a deeper input would exhaust the interpreter's stack
MAX_NESTING = 100


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str  # NAME NUMBER OP END
    value: object
    line: int
    col: int


# One match per token, with the blanks before it: blanks other than a
# newline, then a newline, a number, a name, an operator, any other
# character, or the end of the text.  ``[^\W\d]`` also admits the
# non-decimal digits and numerals (``²``, ``½``) that ``\w`` holds, so a
# name's first character is checked again with ``str.isalpha``.  Since
# ``(.)`` and ``\Z`` end every match, no quantifier gives back what it took.
_TOKEN = re.compile(r"([^\S\n]*)(?:(\n)|(\d+)(?:/(\d+))?|([^\W\d]\w*)"
                    r"|([-+*^()\[\],])|(.)|\Z)", re.DOTALL)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    # built by tuple.__new__: the named tuple's own __new__ runs Python code
    append, new = tokens.append, tuple.__new__
    line, col = 1, 1
    for blank, newline, num, den, name, op, other in _TOKEN.findall(text):
        col += len(blank)
        if op:
            append(new(Token, ("OP", op, line, col)))
            col += 1
        elif name:
            if not (name[0].isalpha() or name[0] == "_"):
                raise ParseError(f"unexpected character {name[0]!r}",
                                 line, col)
            append(new(Token, ("NAME", name, line, col)))
            col += len(name)
        elif num:
            try:
                n, d = int(num), int(den) if den else 1
            except ValueError:  # more digits than int() reads
                raise ParseError(
                    f"number longer than {sys.get_int_max_str_digits()} "
                    f"digits", line, col) from None
            if not d:
                raise ParseError("division by zero", line, col)
            value = Fraction(n, d) if den else Fraction(n)
            append(new(Token, ("NUMBER", value, line, col)))
            col += len(num) + (len(den) + 1 if den else 0)
        elif newline:
            line, col = line + 1, 1
        elif other:
            raise ParseError(f"unexpected character {other!r}", line, col)
    append(Token("END", None, line, col))
    return tokens


_PRODUCT = "step limit exceeded while expanding a product"
_POWER = "step limit exceeded while expanding a power"


def _negated(terms: dict) -> dict:
    return {w: -c for w, c in terms.items()}


def _degree(value) -> int:
    alph, terms = value
    return max(map(alph.word_length, terms), default=0)


class _Parser:
    """Each grammar method returns a value ``(alphabet, terms)``: the
    alphabet carries the slot count, ``terms`` maps words to nonzero
    coefficients.  No method writes to a dict it did not make, so values
    share dicts freely.

    A token's value alone tells an operator: no name, number or end
    token has one as its value, so ``tokens[pos].value == "*"`` needs no
    look at the kind."""

    def __init__(self, tokens: list[Token], alphabet: Alphabet,
                 params: tuple[str, ...], order: int,
                 presentation: Presentation | None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.params = params
        self.order = order
        self.one = Scalar.one(order)
        self.budget = allowance()
        self.presentation = presentation
        self.reducing = allowance()  # the reductions' own allowance
        self.nesting = 0

    # -- token helpers -----------------------------------------------------

    def expect_op(self, op: str):
        t = self.tokens[self.pos]
        self.pos += 1
        if t.value != op:
            raise ParseError(f"expected {op!r}", t.line, t.col)

    def fail(self, message: str):
        t = self.tokens[self.pos]
        raise ParseError(message, t.line, t.col)

    # -- value combination with scalar promotion ----------------------------

    def _promote(self, a, b):
        alph_a, alph_b = a[0], b[0]
        if alph_a is alph_b or alph_a == alph_b:
            return a, b
        if alph_a.names == alph_b.names:
            # a scalar (its words all empty) takes the other's slot count
            if alph_a.slot_count == 1 and not any(a[1]):
                return (alph_b, {alph_b.empty_word: c
                                 for c in a[1].values()}), b
            if alph_b.slot_count == 1 and not any(b[1]):
                return a, (alph_a, {alph_a.empty_word: c
                                    for c in b[1].values()})
        self.fail("mixed tensor ranks in expression")

    def add(self, a, b):
        (alph, x), (_, y) = self._promote(a, b)
        acc = dict(x)
        accumulate_scaled(acc, y, self.one)
        return alph, acc

    def sub(self, a, b):
        a, b = self._promote(a, b)
        return self._minus(a, b)

    def _minus(self, a, b):
        acc = dict(a[1])
        accumulate_scaled(acc, _negated(b[1]), self.one)
        return a[0], acc

    def mul(self, a, b):
        a, b = self._promote(a, b)
        _charge(self.budget, len(a[1]) * len(b[1]), _PRODUCT)
        return self._times(a, b)

    def _times(self, a, b):
        """``a*b``; when parsing against a presentation over their alphabet
        (a tensor product never is), ``nf(a*b)`` from a reduced ``a`` and
        the free words of ``b``."""
        alph, p = a[0], self.presentation
        if p is None or (alph is not p.alphabet and alph != p.alphabet):
            return alph, product_terms(a[1], b[1], alph.slot_count)
        return alph, p._multiply(a[1], b[1], self.reducing)

    def _reduced(self, x):
        """``x``, reduced when parsing against a presentation."""
        if self.presentation is None:
            return x
        return self._times((x[0], {x[0].empty_word: self.one}), x)

    def _expanded(self, parse):
        """What ``parse()`` parses, in free words: not reduced."""
        p, self.presentation = self.presentation, None
        out = parse()
        self.presentation = p
        return out

    def _scalar(self, s: Scalar):
        """The value ``s`` times the empty word."""
        return self.alphabet, ({(): s} if s.terms else {})

    # -- grammar -----------------------------------------------------------

    def parse_expr(self):
        tokens = self.tokens
        negate = tokens[self.pos].value == "-"
        if negate:
            self.pos += 1
        acc = self.parse_term()
        if negate:
            acc = acc[0], _negated(acc[1])
        while True:
            op = tokens[self.pos].value
            if op == "+":
                self.pos += 1
                acc = self.add(acc, self.parse_term())
            elif op == "-":
                self.pos += 1
                acc = self.sub(acc, self.parse_term())
            else:
                return acc

    def parse_term(self):
        part = self.parse_slotprod()
        if self.tokens[self.pos].value != "ox":
            return part
        parts = [part]
        while self.tokens[self.pos].value == "ox":
            self.pos += 1
            parts.append(self.parse_slotprod())
        if len(parts) > 3:
            self.fail("at most three tensor factors supported")
        # each factor's words placed in one more slot, charged as the
        # product of the factors embedded in their slots
        out = None
        for alph, terms in parts:
            if alph.slot_count != 1:
                self.fail("nested tensor factors are not supported")
            if out is None:
                out = {(w,): c for w, c in terms.items()}
            else:
                _charge(self.budget, len(out) * len(terms), _PRODUCT)
                out = append_slot(out, terms)
        return parts[0][0].at_slots(len(parts)), out

    def parse_slotprod(self):
        acc = self.parse_factor()
        while self.tokens[self.pos].value == "*":
            self.pos += 1
            # nf(x*y) folds nf(x) by the letters of the free words of y,
            # so y stays expanded unless x is a scalar: nf(c*y) = c*nf(y)
            if self.presentation is not None and _degree(acc):
                y = self._expanded(self.parse_factor)
            else:
                y = self.parse_factor()
            acc = self.mul(acc, y)
        return acc

    def parse_factor(self):
        if self.presentation is not None and self._raised():
            # each factor of x^n is a right operand: x stays expanded
            atom = self._expanded(self.parse_atom)
        else:
            atom = self.parse_atom()
        tokens = self.tokens
        if tokens[self.pos].value != "^":
            return atom
        self.pos += 1
        sign = 1
        if tokens[self.pos].value == "-":
            self.pos += 1
            sign = -1
        t = tokens[self.pos]
        self.pos += 1
        if t.kind != "NUMBER" or t.value.denominator != 1:
            raise ParseError("integer exponent expected", t.line, t.col)
        return self._power(atom, sign * t.value.numerator)

    def _raised(self) -> bool:
        """Whether the atom at the cursor is followed by ``^``."""
        depth = 0
        tokens = self.tokens
        for i in range(self.pos, len(tokens) - 1):
            op = tokens[i].value
            if op == "(" or op == "[":
                depth += 1
            elif op == ")" or op == "]":
                depth -= 1
            if depth <= 0:
                return tokens[i + 1].value == "^"
        return False

    def _charge(self, a, b):
        cost = len(a[1]) * len(b[1]) * (_degree(a) + _degree(b))
        empty = a[0].empty_word
        if not cost and empty in a[1] and empty in b[1]:
            # a power of a scalar writes no letter, but its terms and its
            # numbers grow: one step per further pair of terms, and one per
            # 8 products of 64-bit words, multiplying the numerators and
            # reducing the product's numerators by its denominators
            s, t = a[1][empty], b[1][empty]
            (n1, d1), (n2, d2) = s.int_words(), t.int_words()
            cost = (len(s.terms) * len(t.terms) - 1
                    + ((n1 * n2 + (n1 + n2) * (d1 + d2)) >> 3))
        _charge(self.budget, 1 + cost, _POWER)

    def _power(self, x, exp: int):
        alph, terms = x
        out = {alph.empty_word: self.one}
        if exp >= 0:
            for _ in range(exp):
                self._charge((alph, out), x)
                out = self._times((alph, out), x)[1]
            return alph, out
        if len(terms) == 1 and alph.empty_word in terms:
            try:
                inv = terms[alph.empty_word].inverse_of_unit()
            except ValueError:
                self.fail("negative power of a non-invertible scalar")
            for _ in range(-exp):
                self._charge((alph, out), x)
                out = {w: p for w, c in out.items() if (p := c * inv).terms}
            return alph, out
        self.fail("negative powers are only defined for scalar monomials")

    def parse_atom(self):
        t = self.tokens[self.pos]
        self.pos += 1
        kind, name = t.kind, t.value
        if kind == "NAME":
            if name in self.alphabet.names and name not in RESERVED:
                return self._reduced(
                    (self.alphabet, {(GeneratorId(name),): self.one}))
            if name == "i":
                return self._scalar(Scalar.imag_unit(self.order))
            if name == "eps":
                return self._scalar(Scalar.eps(self.order))
            if name == "ox":
                raise ParseError("misplaced 'ox'", t.line, t.col)
            if name in self.params:
                return self._scalar(Scalar.param(name, self.order))
            raise ParseError(f"unknown symbol {name!r}", t.line, t.col)
        if kind == "NUMBER":
            return self._scalar(Scalar.from_rational(name, self.order))
        if name != "(" and name != "[":
            raise ParseError("expected an atom", t.line, t.col)
        if self.nesting == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             t.line, t.col)
        self.nesting += 1
        if name == "(":
            out = self.parse_expr()
            self.expect_op(")")
        else:
            # each side is the right operand of one product
            x = self._expanded(self.parse_expr)
            self.expect_op(",")
            y = self._expanded(self.parse_expr)
            self.expect_op("]")
            out = self._minus(self.mul(self._reduced(x), y),
                              self.mul(self._reduced(y), x))
        self.nesting -= 1
        return out


def parse_expression(text: str, alphabet: Alphabet, params: tuple[str, ...],
                     order: int,
                     presentation: Presentation | None = None) -> Element:
    """Parse ``text`` into an element over ``alphabet``; given a
    ``presentation`` over ``alphabet``, into its normal form there, reduced
    factor by factor.

    Raises :class:`ParseError` with line/column on malformed input or
    unknown symbols, :class:`StepLimitExceeded` when expanding or reducing
    would take more steps than the current limit (see :mod:`.rewrite`), and
    :class:`AlphabetMismatch` when the result is not over the
    presentation's alphabet (a tensor product).
    """
    parser = _Parser(tokenize(text), alphabet, params, order, presentation)
    alph, terms = parser.parse_expr()
    tail = parser.tokens[parser.pos]
    if tail.kind != "END":
        raise ParseError("trailing input", tail.line, tail.col)
    out = Element._of(alph, terms, order)
    if presentation is not None:
        presentation._check_alphabet(out)
    return out
