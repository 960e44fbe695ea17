"""The parser as it was before it worked on term dicts: a character loop
tokenizer and a recursive-descent parser over ``Element`` values, one
``Element`` per atom and per intermediate result.  It is the oracle of
``qcontract.parser``: given the same text, alphabet, parameters, order,
presentation and step limit, both return the same ``Element`` (terms in the
same order) or raise the same exception.

Grammar, charges and the reduced/expanded operand rules are those of
:mod:`qcontract.parser`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from qcontract.freealg import Alphabet, Element, tensor_embed
from qcontract.parser import MAX_NESTING, ParseError
from qcontract.rewrite import Presentation, _charge, allowance
from qcontract.scalars import Scalar


@dataclass(frozen=True)
class Token:
    kind: str  # NAME NUMBER OP END
    value: object
    line: int
    col: int


_OPS = set("+-*^()[],")


def _int(digits: str, line: int, col: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number longer than {sys.get_int_max_str_digits()} digits",
            line, col) from None


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in _OPS:
            tokens.append(Token("OP", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            num = _int(text[start:i], line, col)
            den = 1
            if i < n and text[i] == "/":
                j = i + 1
                if j < n and text[j].isdecimal():
                    i = j
                    ds = i
                    while i < n and text[i].isdecimal():
                        i += 1
                    den = _int(text[ds:i], line, col)
            if den == 0:
                raise ParseError("division by zero", line, col)
            tokens.append(Token("NUMBER", Fraction(num, den), line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("END", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], alphabet: Alphabet,
                 params: tuple[str, ...], order: int,
                 presentation: Presentation | None):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.params = params
        self.order = order
        self.budget = allowance()
        self.presentation = presentation
        self.reducing = allowance()  # the reductions' own allowance
        self.nesting = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        t = self.next()
        if t.kind != "OP" or t.value != op:
            raise ParseError(f"expected {op!r}", t.line, t.col)

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    # -- element combination with scalar promotion --------------------------

    def _promote(self, a: Element, b: Element) -> tuple[Element, Element]:
        if a.alphabet == b.alphabet:
            return a, b
        if a.alphabet.names == b.alphabet.names:
            if a.alphabet.slot_count == 1 and all(not w for w in a.terms):
                return a.rebind(b.alphabet), b
            if b.alphabet.slot_count == 1 and all(not w for w in b.terms):
                return a, b.rebind(a.alphabet)
        self.fail("mixed tensor ranks in expression")

    def add(self, a, b):
        a, b = self._promote(a, b)
        return a + b

    def sub(self, a, b):
        a, b = self._promote(a, b)
        return a - b

    def mul(self, a, b):
        a, b = self._promote(a, b)
        _charge(self.budget, len(a.terms) * len(b.terms),
                "step limit exceeded while expanding a product")
        return self._times(a, b)

    def _times(self, a: Element, b: Element) -> Element:
        """``a*b``; when parsing against a presentation over their alphabet
        (a tensor product never is), ``nf(a*b)`` from a reduced ``a`` and
        the free words of ``b``."""
        p = self.presentation
        if p is None or a.alphabet != p.alphabet:
            return a * b
        return Element._of(p.alphabet, p._multiply(a.terms, b.terms,
                                                   self.reducing),
                           p.trunc_order)

    def _reduced(self, x: Element) -> Element:
        """``x``, reduced when parsing against a presentation."""
        if self.presentation is None:
            return x
        return self._times(Element.unit(x.alphabet, self.order), x)

    def _expanded(self, parse):
        """What ``parse()`` parses, in free words: not reduced."""
        p, self.presentation = self.presentation, None
        out = parse()
        self.presentation = p
        return out

    # -- grammar -----------------------------------------------------------

    def parse_expr(self) -> Element:
        negate = False
        if self.peek().kind == "OP" and self.peek().value == "-":
            self.next()
            negate = True
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self.peek().kind == "OP" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.parse_term()
            acc = self.add(acc, rhs) if op == "+" else self.sub(acc, rhs)
        return acc

    def parse_term(self) -> Element:
        parts = [self.parse_slotprod()]
        while self.peek().kind == "NAME" and self.peek().value == "ox":
            self.next()
            parts.append(self.parse_slotprod())
        if len(parts) == 1:
            return parts[0]
        if len(parts) > 3:
            self.fail("at most three tensor factors supported")
        out = None
        for slot, part in enumerate(parts, start=1):
            if part.alphabet.slot_count != 1:
                self.fail("nested tensor factors are not supported")
            emb = tensor_embed(part, slot, slot_count=len(parts))
            out = emb if out is None else self.mul(out, emb)
        return out

    def parse_slotprod(self) -> Element:
        acc = self.parse_factor()
        while self.peek().kind == "OP" and self.peek().value == "*":
            self.next()
            # nf(x*y) folds nf(x) by the letters of the free words of y,
            # so y stays expanded unless x is a scalar: nf(c*y) = c*nf(y)
            if acc.degree():
                y = self._expanded(self.parse_factor)
            else:
                y = self.parse_factor()
            acc = self.mul(acc, y)
        return acc

    def parse_factor(self) -> Element:
        if self.presentation is not None and self._raised():
            # each factor of x^n is a right operand: x stays expanded
            atom = self._expanded(self.parse_atom)
        else:
            atom = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().value == "^":
            self.next()
            sign = 1
            if self.peek().kind == "OP" and self.peek().value == "-":
                self.next()
                sign = -1
            t = self.next()
            if t.kind != "NUMBER" or t.value.denominator != 1:
                raise ParseError("integer exponent expected", t.line, t.col)
            exp = sign * t.value.numerator
            return self._power(atom, exp)
        return atom

    def _raised(self) -> bool:
        """Whether the atom at the cursor is followed by ``^``."""
        depth = 0
        for i in range(self.pos, len(self.tokens) - 1):
            t = self.tokens[i]
            if t.kind == "OP" and t.value in "([":
                depth += 1
            elif t.kind == "OP" and t.value in ")]":
                depth -= 1
            if depth <= 0:
                t = self.tokens[i + 1]
                return t.kind == "OP" and t.value == "^"
        return False

    def _charge(self, a: Element, b: Element):
        cost = len(a.terms) * len(b.terms) * (a.degree() + b.degree())
        empty = a.alphabet.empty_word
        if not cost and empty in a.terms and empty in b.terms:
            s, t = a.terms[empty], b.terms[empty]
            (n1, d1), (n2, d2) = s.int_words(), t.int_words()
            cost = (len(s.terms) * len(t.terms) - 1
                    + ((n1 * n2 + (n1 + n2) * (d1 + d2)) >> 3))
        _charge(self.budget, 1 + cost,
                "step limit exceeded while expanding a power")

    def _power(self, x: Element, exp: int) -> Element:
        if exp >= 0:
            out = Element.unit(x.alphabet, self.order)
            for _ in range(exp):
                self._charge(out, x)
                out = self._times(out, x)
            return out
        if len(x.terms) == 1 and x.alphabet.empty_word in x.terms:
            coeff = x.terms[x.alphabet.empty_word]
            try:
                inv = coeff.inverse_of_unit()
            except ValueError:
                self.fail("negative power of a non-invertible scalar")
            out = Element.unit(x.alphabet, self.order)
            for _ in range(-exp):
                self._charge(out, x)
                out = out.scaled(inv)
            return out
        self.fail("negative powers are only defined for scalar monomials")

    def parse_atom(self) -> Element:
        t = self.next()
        unit = Element.unit(self.alphabet, self.order)
        if t.kind == "NUMBER":
            return unit.scaled(Scalar.from_rational(t.value, self.order))
        if t.kind == "NAME":
            name = t.value
            if name == "i":
                return unit.scaled(Scalar.imag_unit(self.order))
            if name == "eps":
                return unit.scaled(Scalar.eps(self.order))
            if name == "ox":
                raise ParseError("misplaced 'ox'", t.line, t.col)
            if name in self.alphabet.names:
                return self._reduced(
                    Element.generator(self.alphabet, name, self.order))
            if name in self.params:
                return unit.scaled(Scalar.param(name, self.order))
            raise ParseError(f"unknown symbol {name!r}", t.line, t.col)
        if t.kind != "OP" or t.value not in "([":
            raise ParseError("expected an atom", t.line, t.col)
        if self.nesting == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             t.line, t.col)
        self.nesting += 1
        if t.value == "(":
            out = self.parse_expr()
            self.expect_op(")")
        else:
            # each side is the right operand of one product
            x = self._expanded(self.parse_expr)
            self.expect_op(",")
            y = self._expanded(self.parse_expr)
            self.expect_op("]")
            out = (self.mul(self._reduced(x), y)
                   - self.mul(self._reduced(y), x))
        self.nesting -= 1
        return out


def parse_expression(text: str, alphabet: Alphabet, params: tuple[str, ...],
                     order: int,
                     presentation: Presentation | None = None) -> Element:
    """``qcontract.parser.parse_expression`` by way of ``Element``s."""
    parser = _Parser(tokenize(text), alphabet, params, order, presentation)
    out = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError("trailing input", tail.line, tail.col)
    if presentation is not None:
        presentation._check_alphabet(out)
    return out
