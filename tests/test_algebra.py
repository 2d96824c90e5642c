"""Polynomial and truncated-series arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from cayleyband.algebra import (
    ONE,
    X,
    Y,
    ZERO,
    BiPoly,
    NonExactDivisionError,
    TruncSeries,
)


def random_poly(rng: random.Random, max_terms: int = 8) -> BiPoly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exponents = (rng.randint(0, 4), rng.randint(0, 4))
        terms.append((exponents, rng.randint(-9, 9)))
    return BiPoly(terms)


def test_construction_canonicalizes():
    # duplicate exponent pairs merge, zeros vanish
    poly = BiPoly([((1, 0), 2), ((1, 0), 3), ((0, 1), 5), ((0, 1), -5)])
    assert poly == 5 * X
    assert BiPoly({(2, 3): 0}) == ZERO
    assert BiPoly() == 0


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): 1})
    with pytest.raises(ValueError):
        BiPoly({(0, 1.5): 1})  # type: ignore[dict-item]
    with pytest.raises(TypeError):
        BiPoly({(0, 0): 1.5})  # type: ignore[dict-item]


def test_insertion_order_is_irrelevant():
    rng = random.Random(20250817)
    for _ in range(50):
        items = [((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-5, 5)) for _ in range(6)]
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert BiPoly(items) == BiPoly(shuffled)


def test_canonical_string_forms():
    v24 = BiPoly({(4, 0): 1, (2, 1): 6, (2, 0): 8, (0, 2): 3, (0, 1): 6})
    assert str(v24) == "x^4 + 6*x^2*y + 8*x^2 + 3*y^2 + 6*y"
    assert str(X * X - Y) == "x^2 - y"
    assert str(Y + 3) == "y + 3"
    assert str(BiPoly.constant(-1)) == "-1"
    assert str(ZERO) == "0"
    assert str(X) == "x"
    assert str(BiPoly({(1, 2): 2})) == "2*x*y^2"
    assert str(BiPoly({(0, 1): Fraction(1, 2)})) == "1/2*y"


def test_sorted_terms_graded_order():
    v24 = BiPoly({(0, 1): 6, (4, 0): 1, (0, 2): 3, (2, 1): 6, (2, 0): 8})
    assert [e for e, _ in v24.sorted_terms()] == [(4, 0), (2, 1), (2, 0), (0, 2), (0, 1)]


def test_ring_axioms_on_random_triples():
    """Associativity, commutativity, and distributivity over 1000 triples."""
    rng = random.Random(1729)
    for _ in range(1000):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO


def test_scalar_mixing():
    assert 2 * X + 3 == X + X + 3
    assert 3 + X == X + 3
    assert Fraction(1, 2) + Y == Y + Fraction(1, 2)
    assert 1 - Y == -(Y - 1)
    assert Fraction(1, 2) * (X + X) == X
    assert X * 0 == ZERO
    assert (X + Y) - 0 == X + Y


def test_power():
    assert (X + Y) ** 2 == X * X + 2 * X * Y + Y * Y
    assert (X - 1) ** 0 == ONE
    assert X**5 == BiPoly({(5, 0): 1})
    with pytest.raises(ValueError):
        X ** (-1)


def test_evaluate():
    poly = X * X + Y
    assert poly.evaluate(Fraction(1, 2), Fraction(1, 3)) == Fraction(7, 12)
    assert poly.evaluate(0, 0) == 0
    assert ZERO.evaluate(5, 7) == 0
    # evaluation is a ring homomorphism on a few random pairs
    rng = random.Random(99)
    for _ in range(25):
        a = random_poly(rng)
        b = random_poly(rng)
        x0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y0 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert (a * b).evaluate(x0, y0) == a.evaluate(x0, y0) * b.evaluate(x0, y0)
        assert (a + b).evaluate(x0, y0) == a.evaluate(x0, y0) + b.evaluate(x0, y0)


def test_substitute():
    poly = X * X + Y
    assert poly.substitute(X, X) == X * X + X
    assert poly.substitute(Y, X) == Y * Y + X
    assert poly.substitute(X, -Y) == X * X - Y
    assert poly.substitute(X + 1, ONE * 2) == (X + 1) ** 2 + 2


def test_coefficient_access_and_integrality():
    poly = 3 * X * Y + 7
    assert poly.coefficient(1, 1) == 3
    assert poly.coefficient(0, 0) == 7
    assert poly.coefficient(5, 5) == 0
    assert poly.is_integral()
    assert not (poly * Fraction(1, 3)).is_integral()


def test_exact_division_examples():
    assert (X * X + X).exact_div(X) == X + 1
    assert (X * X + 2 * X * Y + Y * Y).exact_div(X + Y) == X + Y
    assert (X * X - Y * Y).exact_div(X - Y) == X + Y
    product = (X * X + Y) * (X**3 + 3 * X * Y + 2 * X)
    assert product.exact_div(X * X + Y) == X**3 + 3 * X * Y + 2 * X
    assert ZERO.exact_div(X + Y) == ZERO
    assert (6 * X).exact_div(BiPoly.constant(3)) == 2 * X


def test_exact_division_failures():
    with pytest.raises(NonExactDivisionError):
        (X * X + Y).exact_div(X)  # remainder y
    with pytest.raises(NonExactDivisionError):
        (X * X + 1).exact_div(X + 1)
    with pytest.raises(NonExactDivisionError):
        X.exact_div(Y)
    with pytest.raises(ZeroDivisionError):
        X.exact_div(ZERO)


def test_exact_division_roundtrip_random():
    rng = random.Random(424242)
    checked = 0
    while checked < 200:
        a = random_poly(rng, max_terms=5)
        b = random_poly(rng, max_terms=5)
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a
        checked += 1


def test_series_construction_and_access():
    series = TruncSeries([1, 2, 3])
    assert series.order == 2
    assert series.coefficient(1) == 2
    assert TruncSeries.from_terms(2, {0: 1, 5: 7}) == TruncSeries([1, 0, 0])
    assert TruncSeries([0, 0, 0, 0]).is_zero
    assert not TruncSeries([1, 0, 0, 0]).is_zero
    with pytest.raises(ValueError):
        TruncSeries([])
    with pytest.raises(ValueError):
        TruncSeries.from_terms(2, {-1: 1})


def test_series_equality_is_strict_about_order():
    assert TruncSeries([1, 0]) != TruncSeries([1])
    assert TruncSeries([1, X]) == TruncSeries([ONE, X])


def test_series_binary_operations_truncate_to_min_order():
    a = TruncSeries([1, 2, 3, 4])
    b = TruncSeries([5, 6])
    assert (a + b).order == 1
    assert (a + b) == TruncSeries([6, 8])
    assert (a - b) == TruncSeries([-4, -4])
    assert (a * b).order == 1
    assert (a * b) == TruncSeries([5, 16])


def test_series_product_small_cases():
    assert TruncSeries([1, 1, 0]) * TruncSeries([1, -1, 0]) == TruncSeries([1, 0, -1])
    geometric = TruncSeries([1, 1, 1, 1])
    assert geometric * TruncSeries([1, 0, 0, 0]) == geometric
    assert TruncSeries([0, X, 0]) * TruncSeries([0, Y, 0]) == TruncSeries([0, 0, X * Y])


def test_series_product_matches_naive_convolution():
    rng = random.Random(7)
    for _ in range(20):
        a = TruncSeries([random_poly(rng, 3) for _ in range(5)])
        b = TruncSeries([random_poly(rng, 3) for _ in range(5)])
        product = a * b
        for k in range(5):
            expected = ZERO
            for i in range(k + 1):
                expected = expected + a.coefficient(i) * b.coefficient(k - i)
            assert product.coefficient(k) == expected


def test_series_derivative():
    series = TruncSeries([7, X, Y, BiPoly.constant(5)])
    assert series.derivative() == TruncSeries([X, 2 * Y, 15])
    with pytest.raises(ValueError):
        TruncSeries([1]).derivative()


def test_series_exp_of_t():
    series = TruncSeries.from_terms(6, {1: 1}).exp()
    for k in range(7):
        assert series.coefficient(k) == BiPoly.constant(Fraction(1, math.factorial(k)))


def test_series_exp_of_xt():
    series = TruncSeries.from_terms(3, {1: X}).exp()
    assert series == TruncSeries(
        [ONE, X, Fraction(1, 2) * X * X, Fraction(1, 6) * X**3]
    )


def test_series_exp_of_zero():
    assert TruncSeries([0] * 6).exp() == TruncSeries.from_terms(5, {0: 1})


def test_series_exp_is_a_homomorphism():
    a = TruncSeries.from_terms(6, {1: X})
    b = TruncSeries.from_terms(6, {2: Y})
    assert (a + b).exp() == a.exp() * b.exp()
    assert a.exp() * a.scale(-1).exp() == TruncSeries.from_terms(6, {0: 1})


def random_series_with_zero_head(rng: random.Random, order: int) -> TruncSeries:
    coefficients = [ZERO]
    coefficients += [random_poly(rng, max_terms=3) for _ in range(order)]
    return TruncSeries(coefficients)


def test_series_exp_identities_on_random_inputs():
    rng = random.Random(31415)
    for _ in range(20):
        a = random_series_with_zero_head(rng, 6)
        e = a.exp()
        assert e * a.scale(-1).exp() == TruncSeries.from_terms(6, {0: 1})
        assert e.derivative() == a.derivative() * e


def test_series_exp_satisfies_its_ode():
    a = TruncSeries.from_terms(8, {1: X, 3: Y, 4: -2})
    e = a.exp()
    assert e.derivative() == a.derivative() * e


def test_series_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        TruncSeries([1, 1]).exp()


def test_series_scale():
    series = TruncSeries([1, 2, 3]).scale(X)
    assert series == TruncSeries([X, 2 * X, 3 * X])
