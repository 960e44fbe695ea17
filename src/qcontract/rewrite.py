"""Presentations and normal forms by subword rewriting.

A presentation fixes an alphabet, a degree-lexicographic monomial order and a
sequence of oriented rules whose left-hand sides strictly dominate every word
of their right-hand side.  Rewriting therefore terminates; local confluence is
checked, not assumed, by resolving every overlap and inclusion ambiguity
between rule left-hand sides.

``normal_form`` multiplies in the basis of normal words, one letter at a
time, through a memoised table ``nf(v*g)`` over the engine's own words
(see :class:`NormalWordTable`), and keeps each word it reduces whole.
Filling the table only applies rules, so on every presentation it returns an
irreducible reduct of its input, and on a confluent one the unique normal
form (Bergman's diamond lemma).  The plain rewriter (``Presentation.rewrite``)
reduces each word on a stack by the leftmost, strongest redex.  It is the
reference: confluence checks reduce with it, so their verdict never depends
on the table, it reports the rules it fires, and it takes over when table
fills nest deeper than the interpreter's stack.  ``check_local_confluence``
returns a :class:`~qcontract.reports.CheckReport`, the record type of every
suite, with one record per ambiguity, and changes nothing on its
presentation.

The table also multiplies without expanding: ``Presentation._multiply``
gives ``nf(x*y)`` for a normal ``x`` by folding ``x`` by the letters of each
word of ``y``.  A word's normal form is the fold of its letters from the
left, so this is exactly the normal form of the expanded product, confluent
presentation or not; ``parser.parse_expression`` reduces an expression
factor by factor through it.

A tensor square or cube (``Presentation.at_slots``, a :class:`TensorPower`)
has no rules or memo of its own: a tensor word is the tuple of its slot
words, and it reduces each of them through the base's whole-word memo.

The step budget: one limit, ``DEFAULT_STEP_LIMIT`` unless a ``with
step_limit(n):`` block sets it (the command line sets it once, from
``--step-limit``, around the whole command).  Each top-level call draws a
fresh allowance equal to the current limit and raises
:class:`StepLimitExceeded` when it is spent: ``normal_form``, ``rewrite``,
``normal_form_random``, each ambiguity side a confluence check reduces and
``parser.parse_expression``, which draws a second one for its reductions
when it reduces against a presentation.

One step is one rule applied (a rewriter step or a table fill) or one
coefficient product formed.  The table charges a fill one step, and adding
``nf(v*g)`` times a coefficient into a sum as many steps as it has terms,
whether the entry was just filled or memoised; a ``v*g`` that stays normal
only appends a letter and is free.  A folded word, or one found in the
whole-word memo, is charged the terms of its result the same way; a prefix
two words share is folded once.  A tensor power's normal form charges each
slot word's base reduction, nothing for one in the whole-word memo (from
either slot, or from a base normal form), and each coefficient product of
its slot-by-slot multiplication; placing a slot word in its slot is free.
The memos keep results only, so a warm memo charges less than a cold
one: ``(a+b+c+d)^8`` in suq2 takes 950,334 rewriter steps and 280,654 table
steps, and reduced factor by factor while parsing, 3,663 steps for its
reductions and 8,720 for its expansion.  The rewriter keeps no memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .freealg import (
    Alphabet,
    AlphabetMismatch,
    Element,
    GeneratorId,
    Word,
    accumulate_scaled,
    append_slot,
    format_element,
    format_word,
    product_terms,
    word_key,
)
from .reports import CheckRecord, CheckReport
from .scalars import Scalar

DEFAULT_STEP_LIMIT = 10**6
_limit = DEFAULT_STEP_LIMIT


class StepLimitExceeded(RuntimeError):
    """Rewriting exceeded its step budget (nonterminating or explosive rules)."""


@contextmanager
def step_limit(n: int):
    """Set the limit to ``n`` within the block; the previous one comes back
    on leaving it, by an exception too."""
    global _limit
    previous, _limit = _limit, n
    try:
        yield
    finally:
        _limit = previous


def allowance() -> list[int]:
    """A fresh allowance of the current limit, charged by :func:`_charge`."""
    return [_limit]


def _charge(budget: list[int], cost: int, what: str):
    """Take ``cost`` steps from ``budget``; raise ``what`` when overdrawn."""
    budget[0] -= cost
    if budget[0] < 0:
        raise StepLimitExceeded(what)


class OverlapBoundError(ValueError):
    """An overlap bound below the longest left-hand side."""


class RuleOrientationError(ValueError):
    """A rule does not strictly decrease the monomial order."""

    def __init__(self, label: str, message: str):
        super().__init__(f"rule {label!r}: {message}")
        self.rule_label = label


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Element

    @cached_property
    def label(self) -> str:
        """The rule's text, ``lhs -> rhs``, printed when first read."""
        return f"{format_word(self.lhs, 1)} -> {format_element(self.rhs)}"

    def as_element(self, alphabet: Alphabet) -> Element:
        """lhs - rhs as an element (vanishes in the presented algebra)."""
        return Element.from_word(alphabet, self.lhs, self.rhs.order) - self.rhs


class Presentation:
    """Alphabet + oriented rules + the deglex order they decrease."""

    def __init__(self, alphabet: Alphabet, rules, trunc_order: int,
                 name: str = "", params: tuple[str, ...] = (),
                 zero_params: frozenset[str] = frozenset()):
        self.alphabet = alphabet
        self.trunc_order = trunc_order
        self.name = name
        self._exceeded = ("step limit exceeded while reducing in "
                          f"{name or 'presentation'}")
        self.params = tuple(params)
        #: the parameters this algebra holds at zero (its classical limit
        #: holds lam there): an expression read in it takes them as 0
        self.zero_params = frozenset(zero_params)
        self.rules: tuple[RewriteRule, ...] = tuple(rules)
        self._validate()
        # rules grouped by first letter, strongest lhs first
        by_first: dict[GeneratorId, list[int]] = {}
        for i, r in enumerate(self.rules):
            by_first.setdefault(r.lhs[0], []).append(i)
        for lst in by_first.values():
            lst.sort(key=lambda i: word_key(alphabet, self.rules[i].lhs),
                     reverse=True)
        self._by_first = by_first
        self._table = NormalWordTable(self)

    def _validate(self):
        seen = set()
        for r in self.rules:
            if not r.lhs:
                raise RuleOrientationError(r.label, "empty left-hand side")
            if r.lhs in seen:
                raise RuleOrientationError(r.label, "duplicate left-hand side")
            seen.add(r.lhs)
            self.alphabet.check_word(r.lhs)
            if r.rhs.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"rule {r.label!r}: right-hand side over a different alphabet")
            lk = word_key(self.alphabet, r.lhs)
            for w in r.rhs.words():
                if not lk > word_key(self.alphabet, w):
                    raise RuleOrientationError(
                        r.label, "does not strictly decrease the monomial order")

    @cached_property
    def laurent_params(self) -> frozenset[str]:
        """The parameters that the rules raise to a negative power."""
        return frozenset(name for r in self.rules
                         for c in r.rhs.terms.values()
                         for mono, _ in c.terms
                         for name, exp in mono.exps if exp < 0)

    def at_slots(self, slot_count: int) -> "Presentation | TensorPower":
        """The tensor power with ``slot_count`` factors (this presentation
        itself for one).  A power keeps no state of its own: it shares the
        base's table and memos, and its alphabet is the one object
        ``Alphabet.at_slots`` keeps."""
        if slot_count == 1:
            return self
        return TensorPower(self, slot_count)

    # -- rewriting ---------------------------------------------------------

    def _matches(self, word: Word):
        """Each ``(position, rule index)`` at which a rule applies, left to
        right; at one position the largest left-hand side first."""
        for pos in range(len(word)):
            for idx in self._by_first.get(word[pos], ()):
                lhs = self.rules[idx].lhs
                if word[pos:pos + len(lhs)] == lhs:
                    yield pos, idx

    def find_match(self, word: Word) -> tuple[int, int] | None:
        """Leftmost position at which a rule applies; among rules matching
        there, the one with the largest left-hand side wins."""
        return next(self._matches(word), None)

    def _apply(self, w: Word, c: Scalar, pos: int, idx: int) -> list:
        """The terms of ``c*w`` after rule ``idx`` is applied at ``pos``."""
        rule = self.rules[idx]
        pre, suf = w[:pos], w[pos + len(rule.lhs):]
        return [(pre + rw + suf, nc) for rw, rc in rule.rhs.terms.items()
                if not (nc := c * rc).is_zero]

    def is_normal_word(self, word: Word) -> bool:
        return self.find_match(word) is None

    def normal_form(self, x: Element) -> Element:
        """The normal form of ``x``, through the normal-word table."""
        self._check_alphabet(x)
        return Element._of(self.alphabet, self._reduce(x.terms, allowance()),
                           self.trunc_order)

    def rewrite(self, x: Element, fired: set[int] | None = None) -> Element:
        """The normal form of ``x`` by the plain rewriter; the indices of
        the rules it fires are added to ``fired`` when given."""
        self._check_alphabet(x)
        return Element._of(self.alphabet,
                           self._rewrite(x.terms, allowance(), fired),
                           self.trunc_order)

    def _reduce(self, terms: dict, budget: list[int]) -> dict:
        """The normal form of word -> coefficient ``terms``."""
        try:
            return self._table.reduce(terms, budget)
        except RecursionError:
            # fills nested deeper than the interpreter's stack allows; the
            # entries already filled stay valid
            return self._rewrite(terms, budget)

    def _multiply(self, x: dict, y: dict, budget: list[int]) -> dict:
        """The normal form of ``x*y`` for word -> coefficient dicts, ``x``
        over normal words."""
        try:
            return self._table.multiply(x, y, budget)
        except RecursionError:
            # as in ``_reduce``; the rewriter takes the expanded product
            return self._rewrite(product_terms(x, y), budget)

    def _rewrite(self, terms: dict, budget: list[int],
                 fired: set[int] | None = None) -> dict:
        """Reduce each word on a stack by the leftmost, strongest redex."""
        what, one = self._exceeded, Scalar.one(self.trunc_order)
        acc: dict = {}
        for word, coeff in terms.items():
            result: dict = {}
            stack: list[tuple[Word, Scalar]] = [(word, one)]
            while stack:
                w, c = stack.pop()
                m = self.find_match(w)
                if m is None:
                    cur = result.get(w)
                    result[w] = c if cur is None else cur + c
                    continue
                _charge(budget, 1, what)
                if fired is not None:
                    fired.add(m[1])
                stack.extend(self._apply(w, c, *m))
            accumulate_scaled(acc, result, coeff)
        return acc

    def _check_alphabet(self, x: Element):
        if x.alphabet is not self.alphabet and x.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"element over {x.alphabet} fed to presentation over {self.alphabet}")

    def __repr__(self):
        return (f"Presentation({self.name or '?'}: {len(self.alphabet.names)} "
                f"generators, {len(self.rules)} rules, slots={self.alphabet.slot_count})")


class TensorPower:
    """A presentation's tensor square or cube.  Letters of distinct slots
    commute, so ``nf(u_1 (x) ... (x) u_n) = nf(u_1) (x) ... (x) nf(u_n)``:
    ``normal_form`` reduces each slot word of a word ``(u_1, ..., u_n)``
    through the base's whole-word memo and places the results slot by slot.
    A power keeps no state of its own."""

    def __init__(self, base: Presentation, slot_count: int):
        self.base = base
        self.alphabet = base.alphabet.at_slots(slot_count)
        self.trunc_order = base.trunc_order
        self.name = f"{base.name}@{slot_count}"
        self._exceeded = f"step limit exceeded while reducing in {self.name}"

    @property
    def laurent_params(self) -> frozenset[str]:
        return self.base.laurent_params

    def normal_form(self, x: Element) -> Element:
        Presentation._check_alphabet(self, x)
        budget, acc, what = allowance(), {}, self._exceeded
        words, one = self.base._table.words, Scalar.one(self.trunc_order)
        try:
            for word, coeff in x.terms.items():
                terms = {(): coeff}
                for part in word:
                    # free when the base's whole-word memo holds it (met in
                    # any slot, or reduced by the base); else reduced into it
                    legs = words.get(part)
                    if legs is None:
                        legs = self.base._reduce({part: one}, budget)
                    _charge(budget, len(terms) * len(legs), what)
                    terms = append_slot(terms, legs)
                for w, c in terms.items():
                    _add_term(acc, w, c)
        except StepLimitExceeded:
            raise StepLimitExceeded(what) from None
        return Element._of(self.alphabet, acc, self.trunc_order)


def _add_term(acc: dict, w, c: Scalar) -> None:
    """``acc[w] += c`` in place, dropping a vanishing sum."""
    cur = acc.get(w)
    if cur is None:
        acc[w] = c
        return
    c = cur + c
    if c.terms:
        acc[w] = c
    else:
        del acc[w]


class NormalWordTable:
    """Normal forms by multiplying normal words by one letter at a time.

    ``products[v + (g,)]`` holds ``nf(v*g)`` for a normal word ``v`` with
    ``v*g`` reducible.  Since ``v`` is irreducible, a redex of ``v*g`` ends
    at ``g``: with ``v = p*l`` and a rule ``l*g -> r``, filling the entry
    multiplies the normal prefix ``p`` by the letters of each word of ``r``
    through the table again.  Each such product is smaller than ``v*g`` in
    the deglex order, so the recursion ends.  A fill only applies rules, so
    every entry is an irreducible reduct of its word, a pure function of
    that word whatever else the table holds; on a confluent presentation it
    is the normal form, and ``nf(u*g) = nf(nf(u)*g)``.  ``words`` is the
    whole-word memo, which the tensor powers read too.
    """

    def __init__(self, p: Presentation):
        self.order = p.trunc_order
        self.exceeded = p._exceeded
        # per last letter: (length of the rest of the lhs, the rest, rhs
        # terms), strongest lhs first as in the rewriter
        self.ending: dict[GeneratorId, list] = {
            GeneratorId(name): [] for name in p.alphabet.names}
        for idx in sorted(range(len(p.rules)), reverse=True,
                          key=lambda i: word_key(p.alphabet, p.rules[i].lhs)):
            r = p.rules[idx]
            self.ending[r.lhs[-1]].append(
                (len(r.lhs) - 1, r.lhs[:-1], tuple(r.rhs.terms.items())))
        self.products: dict[Word, dict] = {}
        self.words: dict[Word, dict] = {}

    def reduce(self, terms: dict, budget: list[int]) -> dict:
        """The normal form of the word -> coefficient ``terms``."""
        return self._fold({(): Scalar.one(self.order)}, terms, budget,
                          self.words)

    def multiply(self, x: dict, y: dict, budget: list[int]) -> dict:
        """``nf(x*y)`` for word -> coefficient dicts, ``x`` over normal
        words: ``x`` multiplied by the letters of each word of ``y`` in
        turn, then by that word's coefficient.  The fold is linear and runs
        left to right, so this is the dict ``reduce`` gives for the
        expanded product."""
        return self._fold(x, y, budget)

    def _fold(self, start: dict, terms: dict, budget: list[int],
              memo: dict | None = None) -> dict:
        """``sum nf(start * w) * c`` over the words ``w`` and coefficients
        ``c`` of ``terms``, for ``start`` over normal words.  Words are
        folded in the order of their letters' names, so neighbours share
        their common prefix's partial products on a stack: each prefix is
        folded once, whatever the names.  ``memo``, when given, keeps each
        word's result."""
        what, acc = self.exceeded, {}
        stack = [start]  # stack[i]: nf(start * the first i letters of prev)
        prev: Word = ()
        for w, coeff in sorted(terms.items(), key=itemgetter(0)):
            result = None if memo is None else memo.get(w)
            if result is None:
                k, top = 0, min(len(prev), len(w))
                while k < top and prev[k] == w[k]:
                    k += 1
                del stack[k + 1:]
                for g in w[k:]:
                    stack.append(self._times(stack[-1], g, budget))
                result, prev = stack[-1], w
                if memo is not None:
                    memo[w] = result
            _charge(budget, len(result), what)
            accumulate_scaled(acc, result, coeff)
        return acc

    def _times(self, terms: dict, g: GeneratorId, budget: list[int]) -> dict:
        """``nf(terms * g)`` for ``terms`` over normal words."""
        acc: dict = {}
        ending, products, what = self.ending[g], self.products, self.exceeded
        for u, c in terms.items():
            w = u + (g,)
            hit = products.get(w)
            if hit is None:
                n = len(u)
                for k, rest, rhs in ending:
                    if k <= n and u[n - k:] == rest:
                        hit = self._fill(w, u[:n - k], rhs, budget)
                        break
                else:
                    # u*g is normal: appending g applies no rule
                    _add_term(acc, w, c)
                    continue
            _charge(budget, len(hit), what)
            accumulate_scaled(acc, hit, c)
        return acc

    def _fill(self, w: Word, prefix: Word, rhs, budget: list[int]) -> dict:
        """Fill ``products[w]`` by the rule whose lhs ends ``w`` after the
        normal ``prefix``."""
        _charge(budget, 1, self.exceeded)  # the fill applies one rule
        acc: dict = {}
        for rw, rc in rhs:
            terms = {prefix: rc}
            for h in rw:
                terms = self._times(terms, h, budget)
            for u, c in terms.items():
                _add_term(acc, u, c)
        self.products[w] = acc
        return acc


def normal_form_random(p: Presentation, x: Element, rng) -> Element:
    """Normal form under a randomized rewriting strategy.

    On a confluent presentation this must agree with the deterministic
    strategy; the equivalence is exercised by the property suite.
    """
    acc: dict = {}
    stack = list(x.terms.items())
    budget = allowance()
    while stack:
        w, c = stack.pop(rng.randrange(len(stack)))
        matches = list(p._matches(w))
        if not matches:
            cur = acc.get(w)
            acc[w] = c if cur is None else cur + c
            continue
        _charge(budget, 1, "randomized strategy exceeded step limit")
        stack.extend(p._apply(w, c, *matches[rng.randrange(len(matches))]))
    return Element(p.alphabet, acc, p.trunc_order)


# -- critical pairs ----------------------------------------------------------


@dataclass(frozen=True)
class Ambiguity:
    """An overlap or inclusion of two rule left-hand sides together with the
    two one-step reducts of the ambiguity word."""

    word: Word
    rule_i: int
    rule_j: int
    kind: str  # "overlap" | "inclusion"
    left: Element
    right: Element


def _word_element(p: Presentation, word: Word) -> Element:
    return Element.from_word(p.alphabet, word, p.trunc_order)


def critical_pairs(p: Presentation, max_overlap: int) -> list[Ambiguity]:
    """All overlap and inclusion ambiguities among rule lhs words.  The set
    is finite (an overlap word has at most |l_i| + |l_j| - 1 letters), so
    none is left out; ``max_overlap`` must reach the longest lhs."""
    longest = max((len(r.lhs) for r in p.rules), default=0)
    if max_overlap < longest:
        raise OverlapBoundError(
            f"max overlap {max_overlap} is below the longest left-hand side "
            f"({longest} letters)")
    out: list[Ambiguity] = []
    rules = p.rules
    for i, ri in enumerate(rules):
        for j, rj in enumerate(rules):
            li, lj = ri.lhs, rj.lhs
            # proper overlaps: a suffix of lhs_i is a prefix of lhs_j
            for k in range(1, min(len(li), len(lj))):
                if li[-k:] != lj[:k]:
                    continue
                word = li + lj[k:]
                left = ri.rhs * _word_element(p, lj[k:])
                right = _word_element(p, li[:-k]) * rj.rhs
                out.append(Ambiguity(word, i, j, "overlap", left, right))
            # inclusions: lhs_j occurs strictly inside lhs_i
            if i != j and len(lj) < len(li):
                for pos in range(len(li) - len(lj) + 1):
                    if li[pos:pos + len(lj)] != lj:
                        continue
                    right = (_word_element(p, li[:pos]) * rj.rhs
                             * _word_element(p, li[pos + len(lj):]))
                    out.append(Ambiguity(li, i, j, "inclusion", ri.rhs, right))
    return out


def check_local_confluence(p: Presentation,
                           max_overlap: int = 6) -> CheckReport:
    """One record per ambiguity: both sides of each ambiguity whose word has
    at most ``max_overlap`` letters are reduced by the plain rewriter, and
    each longer one is a skipped failure.  The report is the verdict: ``p``
    is left as it was."""
    report = CheckReport()
    for amb in critical_pairs(p, max_overlap):
        if len(amb.word) > max_overlap:
            residual = (f"skipped: {len(amb.word)} letters exceed "
                        f"--max-overlap {max_overlap}")
        else:
            nl, nr = p.rewrite(amb.left), p.rewrite(amb.right)
            residual = "0" if nl == nr else f"{nl} != {nr}"
        report.add(CheckRecord(
            name=f"{p.name}/confluence/{'*'.join(g.name for g in amb.word)}"
                 f"[{amb.rule_i},{amb.rule_j},{amb.kind}]",
            ok=residual == "0", residual=residual))
    return report
