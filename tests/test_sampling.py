"""The seeded draws against the ``Fraction``-built oracle: one seed gives
equal elements, scalars and coefficients, with their terms in the same
order, and leaves the generator in the same state."""

from random import Random

import fraction_sampling
import pytest

from qcontract import catalog, sampling

SEEDS = range(240)
#: (builtin, params): suq2 raises q to negative powers, klmn raises nothing
SOURCES = [(name, params) for name in ("suq2", "ekappa2-klmn")
           for params in (("q",), ("lam",), ("q", "lam"))]


def same_terms(x, y):
    assert list(x.terms) == list(y.terms)
    for c, d in zip(x.terms.values(), y.terms.values()):
        assert list(c.terms.items()) == list(d.terms.items())
        assert c.truncation_order == d.truncation_order


def test_gaussians_draw_the_same_stream():
    for seed in SEEDS:
        new, old = Random(seed), Random(seed)
        for _ in range(20):
            assert sampling.random_gaussian(new) == \
                fraction_sampling.random_gaussian(old)
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("order", range(5))
def test_scalars_draw_the_same_stream(order):
    laurent = frozenset({"q"})
    for seed in SEEDS:
        _, params = SOURCES[seed % len(SOURCES)]
        new, old = Random(seed), Random(seed)
        for n_terms in (1, 2, 4):
            x = sampling.random_scalar(new, order, params, n_terms=n_terms,
                                       laurent=laurent)
            y = fraction_sampling.random_scalar(old, order, params,
                                                n_terms=n_terms,
                                                laurent=laurent)
            assert list(x.terms.items()) == list(y.terms.items())
            assert x.truncation_order == y.truncation_order == order
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("order", range(5))
def test_elements_draw_the_same_stream(order):
    hs = {name: catalog.load_presentation(f"builtin:{name}", order)
          for name in ("suq2", "ekappa2-klmn")}
    for seed in SEEDS:
        # every source, slot count, degree and exclusion within 144 seeds
        name, params = SOURCES[seed % 6]
        h = hs[name]
        p = h.base.at_slots(1 + seed // 6 % 3)
        degree = 2 + seed // 18 % 4
        exclude = h.excluded if seed // 72 % 2 else ()
        new, old = Random(seed), Random(seed)
        for _ in range(3):
            x = sampling.random_element(new, p, degree=degree, params=params,
                                        exclude=exclude)
            y = fraction_sampling.random_element(old, p, degree=degree,
                                                 params=params,
                                                 exclude=exclude)
            assert x == y
            same_terms(x, y)
        assert new.getstate() == old.getstate()
