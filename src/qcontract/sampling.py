"""Seeded random scalars and elements for property checks."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .freealg import Element
from .rewrite import Presentation
from .scalars import GaussianRational, ParamMonomial, Scalar


def random_gaussian(rng: Random) -> GaussianRational:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return GaussianRational(re, im)


def random_scalar(rng: Random, order: int, params: tuple[str, ...] = ("lam",),
                  n_terms: int = 2, max_power: int = 2) -> Scalar:
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        exps = []
        for p in params:
            e = rng.randint(-max_power if p == "q" else 0, max_power)
            if e:
                exps.append((p, e))
        eps = rng.randint(0, order)
        key = (ParamMonomial(exps), eps)
        coeff = random_gaussian(rng)
        cur = terms.get(key)
        terms[key] = coeff if cur is None else cur + coeff
    return Scalar(terms, order)


def random_word(rng: Random, p: Presentation, degree: int,
                exclude=(), forbid_adjacent=()) -> tuple:
    letters = [n for n in p.alphabet.names if n not in exclude]
    slot = p.alphabet.slots[0] if p.alphabet.slot_count == 1 else None
    word: list = []
    for _ in range(rng.randint(0, degree)):
        for _attempt in range(20):
            name = rng.choice(letters)
            s = slot if slot is not None else rng.choice(p.alphabet.slots)
            if word and any(
                word[-1].name == a and name == b and word[-1].slot == s
                for a, b in forbid_adjacent
            ):
                continue
            word.append(p.alphabet.gen(name, s))
            break
    return tuple(word)


def random_element(rng: Random, p: Presentation, degree: int = 3,
                   n_terms: int = 3, params: tuple[str, ...] = ("lam",),
                   exclude=(), forbid_adjacent=()) -> Element:
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        w = random_word(rng, p, degree, exclude, forbid_adjacent)
        c = random_scalar(rng, p.trunc_order, params)
        cur = terms.get(w)
        terms[w] = c if cur is None else cur + c
    return Element(p.alphabet, terms, p.trunc_order)
