"""Presentations and normal forms by exhaustive subword rewriting.

A presentation fixes an alphabet, a degree-lexicographic monomial order and a
sequence of oriented rules whose left-hand sides strictly dominate every word
of their right-hand side.  Rewriting therefore terminates; local confluence is
checked, not assumed, by resolving every overlap and inclusion ambiguity
between rule left-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .freealg import (
    Alphabet,
    AlphabetMismatch,
    Element,
    GeneratorId,
    Word,
    accumulate_scaled,
    word_key,
)
from .scalars import Scalar

DEFAULT_STEP_LIMIT = 10**6


class StepLimitExceeded(RuntimeError):
    """Rewriting exceeded its step budget (nonterminating or explosive rules)."""


class RuleOrientationError(ValueError):
    """A rule does not strictly decrease the monomial order."""

    def __init__(self, label: str, message: str):
        super().__init__(f"rule {label!r}: {message}")
        self.rule_label = label


@dataclass(frozen=True)
class MonomialOrder:
    """Deglex order: longer words are larger; equal lengths compare
    letter-by-letter by (slot, precedence)."""

    alphabet: Alphabet

    def key(self, word: Word):
        return word_key(self.alphabet, word)

    def gt(self, u: Word, v: Word) -> bool:
        return self.key(u) > self.key(v)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Word
    rhs: Element
    label: str

    def as_element(self, alphabet: Alphabet) -> Element:
        """lhs - rhs as an element (vanishes in the presented algebra)."""
        return Element.from_word(alphabet, self.lhs, self.rhs.order) - self.rhs


class Presentation:
    """Alphabet + oriented rules + the deglex order they decrease."""

    def __init__(self, alphabet: Alphabet, rules, trunc_order: int,
                 name: str = "", params: tuple[str, ...] = ()):
        self.alphabet = alphabet
        self.order = MonomialOrder(alphabet)
        self.trunc_order = trunc_order
        self.name = name
        self.params = tuple(params)
        self.rules: tuple[RewriteRule, ...] = tuple(rules)
        self._validate()
        # rules grouped by first letter, strongest lhs first
        by_first: dict[GeneratorId, list[int]] = {}
        for i, r in enumerate(self.rules):
            by_first.setdefault(r.lhs[0], []).append(i)
        for lst in by_first.values():
            lst.sort(key=lambda i: self.order.key(self.rules[i].lhs),
                     reverse=True)
        self._by_first = by_first
        # word -> (normal form, fired rule indices, steps spent); cache hits
        # replay the step count so limits behave identically either way
        self._nf_cache: dict[Word, tuple[Element, frozenset[int], int]] = {}
        self._tensor_cache: dict[int, Presentation] = {}

    @property
    def slot_count(self) -> int:
        return self.alphabet.slot_count

    def _validate(self):
        seen = set()
        for r in self.rules:
            if not r.lhs:
                raise RuleOrientationError(r.label, "empty left-hand side")
            if r.lhs in seen:
                raise RuleOrientationError(r.label, "duplicate left-hand side")
            seen.add(r.lhs)
            for g in r.lhs:
                self.alphabet.check_letter(g)
            if r.rhs.alphabet != self.alphabet:
                raise AlphabetMismatch(
                    f"rule {r.label!r}: right-hand side over a different alphabet")
            lk = self.order.key(r.lhs)
            for w in r.rhs.words():
                if not lk > self.order.key(w):
                    raise RuleOrientationError(
                        r.label, "does not strictly decrease the monomial order")

    # -- tensor powers -----------------------------------------------------

    def at_slots(self, slot_count: int) -> "Presentation":
        """The same presentation on a tensor power: per-slot rule copies plus
        rules moving lower-slot letters left."""
        if slot_count == 1:
            return self
        cached = self._tensor_cache.get(slot_count)
        if cached is not None:
            return cached
        alph = self.alphabet.at_slots(slot_count)
        rules = []
        for s in alph.slots:
            for r in self.rules:
                lhs = tuple(GeneratorId(g.name, s) for g in r.lhs)
                rhs = Element(
                    alph,
                    {tuple(GeneratorId(g.name, s) for g in w): c
                     for w, c in r.rhs.terms.items()},
                    self.trunc_order,
                )
                rules.append(RewriteRule(lhs, rhs, f"{r.label} @slot{s}"))
        one = Scalar.one(self.trunc_order)
        for lo in alph.slots:
            for hi in alph.slots:
                if lo >= hi:
                    continue
                for xn in alph.names:
                    for yn in alph.names:
                        x = GeneratorId(xn, hi)
                        y = GeneratorId(yn, lo)
                        rules.append(RewriteRule(
                            (x, y),
                            Element(alph, {(y, x): one}, self.trunc_order),
                            f"slot-swap {xn}@{hi},{yn}@{lo}",
                        ))
        p = Presentation(alph, rules, self.trunc_order,
                         name=f"{self.name}@{slot_count}", params=self.params)
        self._tensor_cache[slot_count] = p
        return p

    # -- rewriting ---------------------------------------------------------

    def find_match(self, word: Word) -> tuple[int, int] | None:
        """Leftmost position at which a rule applies; among rules matching
        there, the one with the largest left-hand side wins."""
        n = len(word)
        for pos in range(n):
            for idx in self._by_first.get(word[pos], ()):
                lhs = self.rules[idx].lhs
                if word[pos:pos + len(lhs)] == lhs:
                    return pos, idx
        return None

    def is_normal_word(self, word: Word) -> bool:
        return self.find_match(word) is None

    def _nf_word(self, word: Word, budget: list[int]) -> tuple[Element, frozenset[int]]:
        cached = self._nf_cache.get(word)
        if cached is not None:
            elem, fired, steps = cached
            budget[0] -= steps
            if budget[0] < 0:
                raise StepLimitExceeded(
                    f"step limit exceeded while reducing in {self.name or 'presentation'}")
            return elem, fired
        result: dict = {}
        fired: set[int] = set()
        steps = 0
        one = Scalar.one(self.trunc_order)
        stack: list[tuple[Word, Scalar]] = [(word, one)]
        while stack:
            w, c = stack.pop()
            m = self.find_match(w)
            if m is None:
                cur = result.get(w)
                result[w] = c if cur is None else cur + c
                continue
            pos, idx = m
            steps += 1
            budget[0] -= 1
            if budget[0] < 0:
                raise StepLimitExceeded(
                    f"step limit exceeded while reducing in {self.name or 'presentation'}")
            fired.add(idx)
            rule = self.rules[idx]
            pre = w[:pos]
            suf = w[pos + len(rule.lhs):]
            for rw, rc in rule.rhs.terms.items():
                nc = c * rc
                if nc.is_zero:
                    continue
                stack.append((pre + rw + suf, nc))
        elem = Element(self.alphabet, result, self.trunc_order)
        self._nf_cache[word] = (elem, frozenset(fired), steps)
        return elem, frozenset(fired)

    def normal_form(self, x: Element, step_limit: int = DEFAULT_STEP_LIMIT,
                    fired: set[int] | None = None) -> Element:
        if x.alphabet != self.alphabet:
            raise AlphabetMismatch(
                f"element over {x.alphabet} fed to presentation over {self.alphabet}")
        budget = [step_limit]
        acc: dict = {}
        for word, coeff in x.terms.items():
            nf_w, fr = self._nf_word(word, budget)
            if fired is not None:
                fired |= fr
            accumulate_scaled(acc, nf_w.terms, coeff)
        return Element(self.alphabet, acc, self.trunc_order)

    def rule_labels(self) -> list[str]:
        return [r.label for r in self.rules]

    def __repr__(self):
        return (f"Presentation({self.name or '?'}: {len(self.alphabet.names)} "
                f"generators, {len(self.rules)} rules, slots={self.slot_count})")


def normal_form_random(p: Presentation, x: Element, rng,
                       step_limit: int = DEFAULT_STEP_LIMIT) -> Element:
    """Normal form under a randomized rewriting strategy.

    On a confluent presentation this must agree with the deterministic
    strategy; the equivalence is exercised by the property suite.
    """
    acc: dict = {}
    stack = list(x.terms.items())
    steps = 0
    while stack:
        w, c = stack.pop(rng.randrange(len(stack)))
        matches = []
        for pos in range(len(w)):
            for idx in p._by_first.get(w[pos], ()):
                lhs = p.rules[idx].lhs
                if w[pos:pos + len(lhs)] == lhs:
                    matches.append((pos, idx))
        if not matches:
            cur = acc.get(w)
            acc[w] = c if cur is None else cur + c
            continue
        steps += 1
        if steps > step_limit:
            raise StepLimitExceeded("randomized strategy exceeded step limit")
        pos, idx = matches[rng.randrange(len(matches))]
        rule = p.rules[idx]
        pre, suf = w[:pos], w[pos + len(rule.lhs):]
        for rw, rc in rule.rhs.terms.items():
            nc = c * rc
            if not nc.is_zero:
                stack.append((pre + rw + suf, nc))
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


@dataclass
class ConfluenceItem:
    """A resolved or unresolved ambiguity; one longer than ``max_overlap``
    is skipped (not reduced) and counts as unresolved."""

    ambiguity: Ambiguity
    resolved: bool
    nf_left: Element | None
    nf_right: Element | None

    @property
    def skipped(self) -> bool:
        return self.nf_left is None


@dataclass
class ConfluenceReport:
    presentation: str
    items: list[ConfluenceItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.resolved for it in self.items)

    def unresolved(self) -> list[ConfluenceItem]:
        return [it for it in self.items if not it.resolved]


def _word_element(p: Presentation, word: Word) -> Element:
    return Element.from_word(p.alphabet, word, p.trunc_order)


def critical_pairs(p: Presentation, max_overlap: int) -> list[Ambiguity]:
    """All overlap and inclusion ambiguities among rule lhs words.  The set
    is finite (an overlap word has at most |l_i| + |l_j| - 1 letters), so
    none is left out; ``max_overlap`` must reach the longest lhs."""
    longest = max((len(r.lhs) for r in p.rules), default=0)
    if max_overlap < longest:
        raise ValueError(
            f"max_overlap {max_overlap} below longest lhs length {longest}")
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


def check_local_confluence(p: Presentation, max_overlap: int = 6,
                           step_limit: int = DEFAULT_STEP_LIMIT) -> ConfluenceReport:
    """Reduce both sides of every ambiguity whose word has at most
    ``max_overlap`` letters; each longer one is a skipped failure."""
    report = ConfluenceReport(presentation=p.name or "presentation")
    for amb in critical_pairs(p, max_overlap):
        if len(amb.word) > max_overlap:
            report.items.append(ConfluenceItem(amb, False, None, None))
            continue
        nl = p.normal_form(amb.left, step_limit)
        nr = p.normal_form(amb.right, step_limit)
        report.items.append(ConfluenceItem(amb, nl == nr, nl, nr))
    return report
