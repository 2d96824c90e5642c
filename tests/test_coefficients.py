"""Coefficient storage: an integral coefficient is an int, a non-integral one
a Fraction, and no value is ever a float or a bool.

Property tests check the ring axioms and the exact-division round trip on
polynomials whose coefficients mix ints and Fractions, and every result they
see is checked against the storage rule.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyband import (
    BRUTE_FORCE_LIMIT,
    LEIBNIZ_LIMIT,
    ONE,
    X,
    Y,
    ZERO,
    BiPoly,
    NonExactDivisionError,
    TruncSeries,
    as_permutation,
    band_continuants,
    band_matrix,
    build_basis,
    cayley_continuant,
    count_regular_permutations_bruteforce,
    count_singular_permutations_bruteforce,
    cycle_distribution_bruteforce,
    cycle_stats,
    det_bareiss,
    det_leibniz,
    egf_coefficients,
    egf_series,
    falling_factorial,
    ode_residual,
    rising_factorial,
    run_verification,
)
from cayleyband._validate import InputError
from cayleyband.algebra import poly_sum

coefficients = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-10, max_value=10, max_denominator=6),
    st.booleans(),
)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exponents, coefficients, max_size=6).map(BiPoly)
nonzero_polys = polys.filter(bool)


def assert_canonical(poly: BiPoly) -> None:
    for _, c in poly.sorted_terms():
        assert type(c) in (int, Fraction), f"coefficient {c!r} is a {type(c).__name__}"
        assert c != 0
        if type(c) is Fraction:
            assert c.denominator != 1, f"integral coefficient {c!r} stored as a Fraction"


@settings(deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, s):
    for value in (p + q, p * q, p - q, -p, (p + q) + s, p * (q + s), p * q + p * s):
        assert_canonical(value)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + s == p + (q + s)
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s
    assert p + ZERO == p
    assert p * ONE == p
    assert p - p == ZERO
    assert p + (-p) == ZERO


@settings(deadline=None)
@given(polys, nonzero_polys)
def test_exact_div_round_trip(p, q):
    quotient = (p * q).exact_div(q)
    assert_canonical(quotient)
    assert quotient == p


shifts = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(deadline=None)
@given(st.lists(st.tuples(coefficients, shifts, polys), max_size=6))
def test_poly_sum_matches_weighted_shifted_addition(parts):
    total = ZERO
    for factor, (dx, dy), poly in parts:
        total = total + factor * X**dx * Y**dy * poly
    result = poly_sum(parts)
    assert_canonical(result)
    assert result == total


def test_poly_sum_removes_parts_that_cancel():
    half = Fraction(1, 2)
    parts = [
        (2, (1, 0), Y),
        (-1, (0, 1), 2 * X),
        (half, (0, 0), X + half),
        (-half, (0, 0), X + half),
        (0, (2, 2), X),
    ]
    assert poly_sum(parts) == ZERO
    with pytest.raises(TypeError):
        poly_sum([(0.5, (0, 0), X)])


def test_recurrence_rows_are_canonical_ints():
    for r in range(2, 6):
        for poly in band_continuants(r, 40):
            assert_canonical(poly)
            assert all(type(c) is int for _, c in poly.sorted_terms())


@settings(deadline=None)
@given(polys, coefficients, coefficients)
def test_evaluate_and_substitute_keep_the_rule(p, x0, y0):
    value = p.evaluate(x0, y0)
    assert type(value) in (int, Fraction)
    if type(value) is Fraction:
        assert value.denominator != 1
    assert value == sum(Fraction(c) * Fraction(x0) ** dx * Fraction(y0) ** dy for (dx, dy), c in p.sorted_terms())
    substituted = p.substitute(X + y0, x0 * Y)
    assert_canonical(substituted)


@settings(deadline=None)
@given(st.lists(polys, min_size=1, max_size=5), st.lists(polys, min_size=1, max_size=5))
def test_series_products_keep_the_rule(a, b):
    left, right = TruncSeries(a), TruncSeries(b)
    product = left * right
    n = min(left.order, right.order)
    for k in range(n + 1):
        expected = ZERO
        for i in range(k + 1):
            expected = expected + a[i] * b[k - i]
        assert product.coefficient(k) == expected
        assert_canonical(product.coefficient(k))


def test_integral_results_are_stored_as_int():
    half = Fraction(1, 2)
    assert type((half * X + half * X).coefficient(1, 0)) is int
    assert type((half * X * 2).coefficient(1, 0)) is int
    assert type((2 * X).exact_div(BiPoly.constant(2)).coefficient(1, 0)) is int
    assert type(BiPoly({(1, 0): Fraction(3)}).coefficient(1, 0)) is int
    assert type(BiPoly.constant(Fraction(4, 2)).coefficient(0, 0)) is int
    assert type((X + half).evaluate(half, 0)) is int
    assert type((X * 4).evaluate(half, 0)) is int
    assert type(X.exact_div(BiPoly.constant(2)).coefficient(1, 0)) is Fraction


def test_no_bool_is_stored():
    for poly in (BiPoly({(1, 0): True}), BiPoly.constant(True), True * X, X + True, X - False):
        assert_canonical(poly)
    assert str(BiPoly.constant(True)) == "1"
    assert str(X * True) == "x"


def test_integral_fraction_prints_like_int():
    assert str(BiPoly({(1, 0): Fraction(3)})) == str(BiPoly({(1, 0): 3}))
    assert str(BiPoly({(0, 0): Fraction(-6, 3)})) == "-2"


def test_route_results_are_all_int():
    for poly in band_continuants(3, 12) + egf_coefficients(3, 12):
        assert all(type(c) is int for _, c in poly.sorted_terms())
    for poly in (det_bareiss(band_matrix(3, 8)), det_leibniz(band_matrix(3, 6)), cycle_distribution_bruteforce(3, 5)):
        assert all(type(c) is int for _, c in poly.sorted_terms())


def test_egf_series_keeps_fractions():
    series = egf_series(2, 6)
    for k in range(series.order + 1):
        assert_canonical(series.coefficient(k))
    assert series.coefficient(2) == Fraction(1, 2) * (X * X + Y)


def test_exact_div_messages_are_unchanged():
    cases = [
        (X * X + Y, X, "(x^2 + y) is not divisible by (x): stuck at term (0, 1)"),
        (X * X + 1, X + 1, "(x^2 + 1) is not divisible by (x + 1): stuck at term (0, 0)"),
        (X, Y, "(x) is not divisible by (y): stuck at term (1, 0)"),
    ]
    for dividend, divisor, message in cases:
        with pytest.raises(NonExactDivisionError) as excinfo:
            dividend.exact_div(divisor)
        assert str(excinfo.value) == message
    with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
        X.exact_div(ZERO)


@pytest.mark.parametrize(
    "call",
    [
        lambda: band_continuants(3, True),
        lambda: band_continuants(True, 3),
        lambda: band_matrix(2, True),
        lambda: band_matrix(True, 2),
        lambda: rising_factorial(True),
        lambda: falling_factorial(True, 1),
        lambda: falling_factorial(3, True),
        lambda: cayley_continuant(True),
        lambda: cycle_stats((1, 2), True),
        lambda: cycle_distribution_bruteforce(2, True),
        lambda: count_regular_permutations_bruteforce(2, True),
        lambda: count_singular_permutations_bruteforce(2, True),
        lambda: build_basis(2, True),
        lambda: build_basis(True, 3),
        lambda: ode_residual(2, True),
        lambda: ode_residual(True, 3),
        lambda: run_verification(r_max=True),
        lambda: run_verification(n_max=True),
        lambda: run_verification(order=True),
        lambda: BiPoly({(True, 0): 1}),
        lambda: BiPoly({(0, True): 1}),
        lambda: X**True,
        lambda: TruncSeries.from_terms(2, {True: 5}),
        lambda: as_permutation([True]),
        lambda: TruncSeries.from_terms(True, {0: 1, 1: 2}),
    ],
)
def test_bool_arguments_are_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("order", [-1, 2.0])
def test_series_order_must_be_a_nonnegative_int(order):
    message = rf"^series order must be a nonnegative integer, got {order!r}$"
    with pytest.raises(ValueError, match=message):
        TruncSeries.from_terms(order, {0: 1})


def test_validation_messages_keep_their_wording():
    with pytest.raises(ValueError, match=r"^band parameter r must be an integer >= 2, got True$"):
        band_continuants(True, 3)
    with pytest.raises(ValueError, match=r"^n_max must be a nonnegative integer, got True$"):
        band_continuants(3, True)
    with pytest.raises(ValueError, match=r"^matrix dimension n must be a nonnegative integer, got -1$"):
        band_matrix(2, -1)
    with pytest.raises(ValueError, match=r"^residual needs order >= 1, got 0$"):
        ode_residual(2, 0)
    with pytest.raises(ValueError, match=r"^r_max must be an integer >= 2, got 1$"):
        run_verification(r_max=1)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (
            lambda: cycle_distribution_bruteforce(2, BRUTE_FORCE_LIMIT + 1),
            rf"^brute-force enumeration is limited to n <= {BRUTE_FORCE_LIMIT}, got {BRUTE_FORCE_LIMIT + 1}$",
        ),
        (
            lambda: det_leibniz(band_matrix(2, LEIBNIZ_LIMIT + 1)),
            rf"^permutation expansion is limited to n <= {LEIBNIZ_LIMIT}, got {LEIBNIZ_LIMIT + 1}$",
        ),
        (lambda: as_permutation([1, 1]), r"^not a permutation of 1\.\.2: \[1, 1\]$"),
    ],
    ids=["enumeration_limit", "leibniz_limit", "as_permutation"],
)
def test_input_checks_raise_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()
