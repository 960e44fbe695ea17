import copy
import pickle
from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcontract.scalars import (
    GaussianRational,
    ParamMonomial,
    Scalar,
    TruncationMismatch,
    q_power,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


class TestGaussianRational:
    def test_imaginary_unit_squares_to_minus_one(self):
        i = GaussianRational(0, 1)
        assert i * i == gr(-1)

    def test_conjugation(self):
        z = gr(Fraction(3, 2), Fraction(1, 2))
        assert z.conjugate() == gr(Fraction(3, 2), Fraction(-1, 2))
        assert z.conjugate().conjugate() == z

    def test_division_is_exact(self):
        z = gr(3, 4)
        w = gr(1, -2)
        assert (z / w) * w == z

    @given(st.fractions(), st.fractions(), st.fractions(), st.fractions())
    @settings(max_examples=200)
    def test_conjugate_multiplicative(self, a, b, c, d):
        z = GaussianRational(a, b)
        w = GaussianRational(c, d)
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()


class TestScalarBasics:
    def test_eps_times_eps_truncates_at_order_one(self):
        eps = Scalar.eps(1)
        assert (eps * eps).is_zero

    def test_q_exponents_cancel(self):
        q = Scalar.param("q", 1)
        qinv = Scalar.param("q", 1, exp=-1)
        assert q * qinv == Scalar.one(1)

    def test_imaginary_unit(self):
        i = Scalar.imag_unit(1)
        assert i * i == Scalar.from_rational(-1, 1)

    def test_conjugate_examples(self):
        i = Scalar.imag_unit(2)
        assert i.conjugate() == -i
        z = Scalar.from_rational(gr(Fraction(3, 2), Fraction(1, 2)), 2)
        assert z.conjugate() == Scalar.from_rational(
            gr(Fraction(3, 2), Fraction(-1, 2)), 2)
        ile = Scalar.imag_unit(2) * Scalar.param("lam", 2) * Scalar.eps(2)
        assert ile.conjugate() == -ile

    def test_mismatched_truncation_order_is_an_error(self):
        with pytest.raises(TruncationMismatch):
            Scalar.one(1) + Scalar.one(2)
        with pytest.raises(TruncationMismatch):
            Scalar.one(1) * Scalar.eps(3)


class TestQPower:
    def test_first_order_expansion(self):
        # q = exp(lam*eps) to first order
        expected = Scalar.one(1) + Scalar.param("lam", 1) * Scalar.eps(1)
        assert q_power(1, 1) == expected

    def test_zeroth_power(self):
        assert q_power(0, 3) == Scalar.one(3)

    def test_odd_part_of_exponential(self):
        # independent series oracle: sum_k (1^k - (-1)^k)/k! lam^k eps^k
        order = 2
        expected = Scalar.zero(order)
        for k in range(order + 1):
            coeff = Fraction(1**k - (-1) ** k, factorial(k))
            if coeff:
                expected = expected + Scalar(
                    {(ParamMonomial.of("lam", k), k): gr(coeff)}, order)
        got = q_power(1, order) - q_power(-1, order)
        assert got == expected
        two_lam_eps = Scalar({(ParamMonomial.of("lam", 1), 1): gr(2)}, order)
        assert got == two_lam_eps

    def test_inverse_powers_cancel(self):
        for n in range(0, 5):
            for m in range(-4, 5):
                assert q_power(m, n) * q_power(-m, n) == Scalar.one(n)


def truncate(x: Scalar, order: int) -> Scalar:
    """``x`` with the eps powers above ``order`` dropped."""
    return Scalar(x.terms, order)


def random_scalar(rng, order=2):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = []
        for name in ("q", "lam"):
            e = rng.randint(-2, 2)
            if e:
                exps.append((name, e))
        key = (ParamMonomial(exps), rng.randint(0, order))
        coeff = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )
        cur = terms.get(key)
        terms[key] = coeff if cur is None else cur + coeff
    return Scalar(terms, order)


class TestRingAxioms:
    def test_ring_axioms_on_random_scalars(self):
        rng = Random(42)
        for _ in range(1000):
            x = random_scalar(rng)
            y = random_scalar(rng)
            z = random_scalar(rng)
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    def test_truncation_compatible_with_product(self):
        rng = Random(7)
        for _ in range(300):
            x = random_scalar(rng, order=3)
            y = random_scalar(rng, order=3)
            for n in (0, 1, 2):
                lhs = truncate(x * y, n)
                rhs = truncate(truncate(x, n) * truncate(y, n), n)
                assert lhs == rhs

    def test_conjugation_properties(self):
        rng = Random(11)
        for _ in range(500):
            x = random_scalar(rng)
            y = random_scalar(rng)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestHypothesisProperties:
    scalars = st.builds(
        lambda pairs, order: Scalar(
            {(ParamMonomial(
                [(n, e) for n, e in zip(("q", "lam"), exps) if e]),
              eps): GaussianRational(re, im)
             for (exps, eps, re, im) in pairs},
            order),
        st.lists(st.tuples(
            st.tuples(st.integers(-2, 2), st.integers(0, 2)),
            st.integers(0, 2),
            st.fractions(max_denominator=6),
            st.fractions(max_denominator=6),
        ), max_size=3),
        st.integers(2, 3),
    )

    @given(x=scalars, y=scalars)
    @settings(max_examples=200)
    def test_product_commutes_and_conjugates(self, x, y):
        y = truncate(y, x.truncation_order)
        assert x * y == y * x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    @given(x=scalars)
    @settings(max_examples=200)
    def test_additive_inverse(self, x):
        assert (x + (-x)).is_zero
        assert x.conjugate().conjugate() == x


class TestUnits:
    def test_monomial_inverse(self):
        q2 = Scalar.param("q", 1, exp=2)
        assert q2 * q2.inverse_of_unit() == Scalar.one(1)
        minus_i = -Scalar.imag_unit(1)
        assert minus_i * minus_i.inverse_of_unit() == Scalar.one(1)

    def test_non_unit_rejected(self):
        s = Scalar.one(1) + Scalar.eps(1)
        with pytest.raises(ValueError):
            s.inverse_of_unit()

    def test_param_zero_substitution(self):
        s = Scalar.one(1) + Scalar.param("lam", 1) * Scalar.eps(1)
        assert s.set_param_zero("lam") == Scalar.one(1)
        with pytest.raises(ZeroDivisionError):
            Scalar.param("lam", 1, exp=-1).set_param_zero("lam")


class TestInternedMonomials:
    exps = st.dictionaries(st.sampled_from(["q", "lam", "mu"]),
                           st.integers(-3, 3), max_size=3)

    @staticmethod
    def canonical(pairs) -> tuple:
        return tuple(sorted((n, e) for n, e in pairs if e))

    @given(exps=exps, data=st.data())
    @settings(max_examples=100)
    def test_one_instance_per_exponent_tuple(self, exps, data):
        items = list(exps.items())
        shuffled = data.draw(st.permutations(items))
        a, b = ParamMonomial(items), ParamMonomial(shuffled + [("nu", 0)])
        assert a is b
        assert a.exps == self.canonical(items)
        # hashed by value, in C, never by address
        assert type(a).__hash__ is tuple.__hash__
        assert hash(a) == hash(self.canonical(items))

    @given(x=exps, y=exps)
    @settings(max_examples=100)
    def test_products_inverses_and_restrictions_are_interned(self, x, y):
        a, b = ParamMonomial(x.items()), ParamMonomial(y.items())
        summed = {n: x.get(n, 0) + y.get(n, 0) for n in {*x, *y}}
        assert a * b is ParamMonomial(summed.items())
        assert a.inverse() is ParamMonomial((n, -e) for n, e in x.items())
        for name in ("q", "lam"):
            assert a.without(name) is ParamMonomial(
                (n, e) for n, e in x.items() if n != name)

    @given(exps=exps, re=st.fractions(max_denominator=4),
           im=st.fractions(max_denominator=4), order=st.integers(0, 4))
    @settings(max_examples=50)
    def test_copies_and_pickles_are_the_interned_instance(self, exps, re, im,
                                                          order):
        m = ParamMonomial(exps.items())
        assert copy.copy(m) is m
        assert copy.deepcopy(m) is m
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(m, protocol)) is m
        key = (m, 1)  # as a scalar term's key holds it
        for twin in (copy.deepcopy(key), pickle.loads(pickle.dumps(key))):
            assert twin == key and twin[0] is m
        # Gaussian rationals and scalars copy by value, their keys stay
        # interned, and the shared unit comes back as itself
        z = GaussianRational(re, im)
        s = Scalar({(m, order): z}, order)
        one = Scalar.one(order)
        copiers = [copy.copy, copy.deepcopy] + [
            lambda x, p=p: pickle.loads(pickle.dumps(x, p))
            for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copier in copiers:
            assert copier(z) == z
            twin = copier(s)
            assert twin == s and twin.truncation_order == order
            assert all(k is m for k, _eps in twin.terms)
            assert copier(one) is one
