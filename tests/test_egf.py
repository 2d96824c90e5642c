"""Generating function route: basis series, coefficients, ODE residual."""

from __future__ import annotations

from fractions import Fraction

import pytest

from cayleyband import egf
from cayleyband.algebra import BiPoly, TruncSeries, X, Y
from cayleyband.continuants import band_continuants
from cayleyband.egf import (
    NonIntegerCoefficientError,
    build_basis,
    egf_coefficient,
    egf_coefficients,
    egf_series,
    factorization_check,
    ode_residual,
)


def test_basis_r2():
    regular_log, singular_log = build_basis(2, 4)
    third = BiPoly.constant(Fraction(1, 3))
    half = BiPoly.constant(Fraction(1, 2))
    quarter = BiPoly.constant(Fraction(1, 4))
    assert regular_log == TruncSeries([0, 1, 0, third, 0])
    assert singular_log == TruncSeries([0, 0, half, 0, quarter])


def test_basis_r3():
    regular_log, singular_log = build_basis(3, 3)
    assert regular_log == TruncSeries([0, 1, Fraction(1, 2), 0])
    assert singular_log == TruncSeries([0, 0, 0, Fraction(1, 3)])


def test_basis_splits_the_full_logarithm():
    # the two pieces together are the series of log 1/(1-t)
    for r in range(2, 6):
        regular_log, singular_log = build_basis(r, 10)
        combined = regular_log + singular_log
        for k in range(1, 11):
            assert combined.coefficient(k) == BiPoly.constant(Fraction(1, k))
        assert combined.coefficient(0).is_zero


def test_basis_order_zero():
    regular_log, singular_log = build_basis(5, 0)
    assert regular_log.is_zero
    assert singular_log.is_zero


def test_basis_validation():
    with pytest.raises(ValueError):
        build_basis(1, 5)
    with pytest.raises(ValueError):
        build_basis(2, -1)


def test_series_head():
    series = egf_series(2, 2)
    assert series.coefficient(0) == 1
    assert series.coefficient(1) == X
    assert series.coefficient(2) == Fraction(1, 2) * (X * X + Y)


def test_coefficients_match_recurrence():
    for r in range(2, 5):
        table = band_continuants(r, 10)
        assert egf_coefficients(r, 10) == table


def test_single_coefficient():
    assert egf_coefficient(3, 4) == X**4 + 6 * X**3 + 3 * X**2 + 8 * X * Y + 6 * X


def test_coefficients_are_integral():
    for poly in egf_coefficients(4, 12):
        assert poly.is_integral()


def test_a_non_integral_coefficient_raises(monkeypatch):
    # With 1/3 in place of 1/2 at t^2 of r = 3's regular log, 2! times the
    # t^2 coefficient of the series is x^2 + 2/3*x.
    build = build_basis

    def wrong_half(r, order):
        regular_log, singular_log = build(r, order)
        regular = list(regular_log.coefficients)
        regular[2] = BiPoly.constant(Fraction(1, 3))
        return TruncSeries(regular), singular_log

    monkeypatch.setattr(egf, "build_basis", wrong_half)
    with pytest.raises(NonIntegerCoefficientError, match=r"coefficient of t\^2 for r=3"):
        egf_coefficients(3, 3)


def test_count_sequences_from_series():
    table = egf_coefficients(2, 4)
    assert [poly.evaluate(1, 0) for poly in table] == [1, 1, 1, 3, 9]
    assert [poly.evaluate(0, 1) for poly in table] == [1, 0, 1, 0, 9]


def test_pure_singular_series_r3():
    # 3! times the t^3 coefficient of exp(B) counts the two 3-cycles of S_3
    _, singular_log = build_basis(3, 3)
    series = singular_log.exp()
    assert 6 * series.coefficient(3) == BiPoly.constant(2)


def test_specialization_to_geometric_series():
    # at x = y = 1 the series is exp(log 1/(1-t)) = 1/(1-t)
    for r in (2, 3, 5):
        series = egf_series(r, 8)
        for k in range(9):
            assert series.coefficient(k).evaluate(1, 1) == 1


def test_series_factorizes_over_the_two_classes():
    for r in range(2, 5):
        regular_log, singular_log = build_basis(r, 8)
        product = regular_log.scale(X).exp() * singular_log.scale(Y).exp()
        assert egf_series(r, 8) == product


def test_ode_residual_vanishes():
    for r in range(2, 7):
        assert ode_residual(r, 15).is_zero, f"r={r}"


def test_ode_residual_low_order_edge():
    residual = ode_residual(2, 1)
    assert residual.order == 0
    assert residual.is_zero


def test_ode_residual_validation():
    with pytest.raises(ValueError):
        ode_residual(2, 0)
    with pytest.raises(ValueError):
        ode_residual(1, 5)


def test_ode_detects_a_wrong_family():
    # sanity that the residual is not identically zero by construction:
    # r=3 multipliers applied to the r=2 series must leave something
    series = egf_series(2, 8)
    derivative = series.derivative()
    lhs = TruncSeries.from_terms(7, {0: 1, 1: -1, 3: -1, 4: 1})
    rhs = TruncSeries.from_terms(7, {0: X, 2: Y - X, 3: -Y})
    assert not (lhs * derivative - rhs * series).is_zero


def test_factorization_check():
    for r in range(2, 6):
        assert factorization_check(r, 7)
