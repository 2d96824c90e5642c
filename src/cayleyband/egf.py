"""Exponential generating function route to the band continuants.

Splitting the logarithm of 1/(1-t) by residue of the cycle length mod r,

    A(t) = sum over k not divisible by r of t^k / k
    B(t) = sum over k divisible by r of t^k / k

the series exp(x*A + y*B) collects permutations by counted cycle type, so
n! times its t^n coefficient is the same polynomial the matrix determinant
and the recurrence produce.  The series satisfies a first-order linear ODE
with polynomial coefficients; its residual is a third independent
consistency check.  Nothing here enumerates permutations: the EGF is
compared with the recurrence only, and verify compares both with the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._validate import require_band_parameter, require_int
from .algebra import BiPoly, TruncSeries, X, Y
from .continuants import band_continuants


class NonIntegerCoefficientError(ArithmeticError):
    """A scaled EGF coefficient failed to be an integer polynomial.

    n! times the t^n coefficient of exp(x*A + y*B) counts permutations,
    so anything non-integral means the series arithmetic is broken.
    """


@dataclass(frozen=True)
class EgfBasis:
    """The two logarithm pieces, truncated at a common order."""

    r: int
    order: int
    regular_log: TruncSeries
    singular_log: TruncSeries


def build_basis(r: int, order: int) -> EgfBasis:
    """Split sum(t^k / k, k >= 1) by divisibility of k by r."""
    require_band_parameter(r)
    require_int(order, 0, "truncation order must be a nonnegative integer, got {!r}")
    regular = [BiPoly.constant(0) for _ in range(order + 1)]
    singular = [BiPoly.constant(0) for _ in range(order + 1)]
    for k in range(1, order + 1):
        target = singular if k % r == 0 else regular
        target[k] = BiPoly.constant(Fraction(1, k))
    return EgfBasis(
        r=r,
        order=order,
        regular_log=TruncSeries(regular),
        singular_log=TruncSeries(singular),
    )


def egf_series(r: int, order: int) -> TruncSeries:
    """exp(x*A + y*B) truncated at the given order."""
    basis = build_basis(r, order)
    return (basis.regular_log.scale(X) + basis.singular_log.scale(Y)).exp()


def egf_coefficients(r: int, n_max: int) -> list[BiPoly]:
    """The polynomials n! * [t^n] exp(x*A + y*B) for n = 0 .. n_max.

    Raises NonIntegerCoefficientError if any scaled coefficient has a
    fractional coefficient left over.
    """
    series = egf_series(r, n_max)
    table = []
    factorial = 1
    for n in range(n_max + 1):
        if n > 0:
            factorial *= n
        poly = series.coefficient(n) * factorial
        if not poly.is_integral():
            raise NonIntegerCoefficientError(
                f"coefficient of t^{n} for r={r} is not integral: {poly}"
            )
        table.append(poly)
    return table


def egf_coefficient(r: int, n: int) -> BiPoly:
    return egf_coefficients(r, n)[n]


def ode_residual(r: int, order: int) -> TruncSeries:
    """Residual of the defining ODE, truncated at order - 1.

    With V = exp(x*A + y*B) the logarithmic derivative is

        V'/V = x/(1-t) + (y-x) * t^(r-1) / (1-t^r),

    so clearing denominators gives

        (1-t)(1-t^r) V' = (x + (y-x) t^(r-1) - y t^r) V.

    Both sides are multiplied out as truncated series and subtracted; the
    result must vanish identically.  The check is independent of the
    recurrence and of any determinant.
    """
    require_band_parameter(r)
    require_int(order, 1, "residual needs order >= 1, got {!r}")
    series = egf_series(r, order)
    derivative = series.derivative()
    lhs_mult = TruncSeries.from_terms(order - 1, {0: 1, 1: -1, r: -1, r + 1: 1})
    rhs_mult = TruncSeries.from_terms(order - 1, {0: X, r - 1: Y - X, r: -Y})
    return lhs_mult * derivative - rhs_mult * series


def factorization_check(r: int, order: int) -> bool:
    """Confirm exp(A) and exp(B) separately count the two pure classes.

    exp(A) enumerates permutations all of whose cycle lengths avoid
    multiples of r, exp(B) those built entirely from multiples.  Their
    n!-scaled coefficients must match V(r, n) from the recurrence at
    x=1, y=0 and at x=0, y=1.  The enumeration comparison lives in verify.
    """
    basis = build_basis(r, order)
    regular_series = basis.regular_log.exp()
    singular_series = basis.singular_log.exp()
    table = band_continuants(r, order)
    factorial = 1
    for n in range(order + 1):
        if n > 0:
            factorial *= n
        for series, point in ((regular_series, (1, 0)), (singular_series, (0, 1))):
            poly = series.coefficient(n) * factorial
            if poly.total_degree() > 0:
                return False
            value = poly.coefficient(0, 0)
            if value.denominator != 1 or value != table[n].evaluate(*point):
                return False
    return True
