"""Oracle: the seeded draws of ``qcontract.sampling`` as first written,
each Gaussian coefficient built from two ``Fraction``s."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from qcontract.freealg import Element
from qcontract.rewrite import Presentation, TensorPower
from qcontract.scalars import GaussianRational, ParamMonomial, Scalar


def random_gaussian(rng: Random) -> GaussianRational:
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    im = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
    return GaussianRational(re, im)


def random_scalar(rng: Random, order: int, params: tuple[str, ...] = ("lam",),
                  n_terms: int = 2, max_power: int = 2,
                  laurent: frozenset[str] = frozenset()) -> Scalar:
    """A random scalar over ``params``; the parameters in ``laurent`` take
    negative exponents too."""
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        exps = []
        for p in params:
            e = rng.randint(-max_power if p in laurent else 0, max_power)
            if e:
                exps.append((p, e))
        eps = rng.randint(0, order)
        key = (ParamMonomial(exps), eps)
        coeff = random_gaussian(rng)
        cur = terms.get(key)
        terms[key] = coeff if cur is None else cur + coeff
    return Scalar(terms, order)


def random_element(rng: Random, p: Presentation | TensorPower,
                   degree: int = 3, n_terms: int = 3,
                   params: tuple[str, ...] = ("lam",),
                   exclude=()) -> Element:
    """A random element of ``p``'s free algebra over the letters not in
    ``exclude``; its scalars raise a parameter to a negative power where
    the rules of ``p`` do.  In a tensor power each letter draws its slot."""
    alph, laurent = p.alphabet, p.laurent_params
    letters = [n for n in alph.names if n not in exclude]
    k = alph.slot_count
    terms: dict = {}
    for _ in range(rng.randint(1, n_terms)):
        parts = [[] for _ in range(k)]
        for _ in range(rng.randint(0, degree)):
            name = rng.choice(letters)
            parts[rng.randrange(k) if k > 1 else 0].append(alph.gen(name))
        w = tuple(map(tuple, parts)) if k > 1 else tuple(parts[0])
        c = random_scalar(rng, p.trunc_order, params, laurent=laurent)
        cur = terms.get(w)
        terms[w] = c if cur is None else cur + c
    return Element(p.alphabet, terms, p.trunc_order)
