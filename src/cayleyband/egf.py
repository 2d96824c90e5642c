"""Exponential generating function route to the band continuants.

Splitting the logarithm of 1/(1-t) by residue of the cycle length mod r,

    A(t) = sum over k not divisible by r of t^k / k
    B(t) = sum over k divisible by r of t^k / k

the series exp(x*A + y*B) collects permutations by counted cycle type, so
n! times its t^n coefficient is the same polynomial the matrix determinant
and the recurrence produce.  The series satisfies a first-order linear ODE
with polynomial coefficients, an integer relation among its n!-scaled
coefficients; its residual is a third independent consistency check.
Nothing here enumerates permutations: the EGF is compared with the
recurrence only, and verify compares both with the scan.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from ._validate import require_band_parameter, require_int
from .algebra import ZERO, BiPoly, TruncSeries, X, Y, poly_sum
from .continuants import band_continuants


class NonIntegerCoefficientError(ArithmeticError):
    """A scaled EGF coefficient failed to be an integer polynomial.

    n! times the t^n coefficient of exp(x*A + y*B) counts permutations,
    so anything non-integral means the series arithmetic is broken.
    """


def build_basis(r: int, order: int) -> tuple[TruncSeries, TruncSeries]:
    """Split sum(t^k / k, k >= 1) by divisibility of k by r, into the pair
    (regular_log, singular_log) truncated at a common order."""
    require_band_parameter(r)
    require_int(order, 0, "truncation order must be a nonnegative integer, got {!r}")
    regular = [BiPoly.constant(0) for _ in range(order + 1)]
    singular = [BiPoly.constant(0) for _ in range(order + 1)]
    for k in range(1, order + 1):
        target = singular if k % r == 0 else regular
        target[k] = BiPoly.constant(Fraction(1, k))
    return TruncSeries(regular), TruncSeries(singular)


def egf_series(r: int, order: int) -> TruncSeries:
    """exp(x*A + y*B) truncated at the given order."""
    regular_log, singular_log = build_basis(r, order)
    return (regular_log.scale(X) + singular_log.scale(Y)).exp()


def _scaled(series: TruncSeries) -> list[BiPoly]:
    """n! * [t^n] series for n = 0 .. the series order."""
    return [coefficient * factorial(n) for n, coefficient in enumerate(series.coefficients)]


def egf_coefficients(r: int, n_max: int) -> list[BiPoly]:
    """The polynomials n! * [t^n] exp(x*A + y*B) for n = 0 .. n_max.

    Raises NonIntegerCoefficientError if any scaled coefficient has a
    fractional coefficient left over.
    """
    table = _scaled(egf_series(r, n_max))
    for n, poly in enumerate(table):
        if not poly.is_integral():
            raise NonIntegerCoefficientError(
                f"coefficient of t^{n} for r={r} is not integral: {poly}"
            )
    return table


def egf_coefficient(r: int, n: int) -> BiPoly:
    return egf_coefficients(r, n)[n]


def ode_residual(r: int, order: int) -> TruncSeries:
    """Residual of the defining ODE, truncated at order - 1.

    With V = exp(x*A + y*B) the logarithmic derivative is

        V'/V = x/(1-t) + (y-x) * t^(r-1) / (1-t^r),

    so clearing denominators gives

        (1-t)(1-t^r) V' = (x + (y-x) t^(r-1) - y t^r) V.

    With E_k = k! [t^k] V (zero at a negative k) and (m)_k = m!/(m-k)!,
    m! times the t^m coefficient of lhs - rhs is the integer polynomial

        E_{m+1} - (m + x) E_m + ((x-y) (m)_{r-1} - (m)_r) E_{m+1-r}
                + ((m)_{r+1} + y (m)_r) E_{m-r},

    summed in one poly_sum and divided by m!; the result must vanish
    identically.  The check is independent of the recurrence and of any
    determinant.
    """
    require_band_parameter(r)
    require_int(order, 1, "residual needs order >= 1, got {!r}")
    scaled = _scaled(egf_series(r, order))
    residual = []
    for m in range(order):
        ahead = scaled[m + 1 - r] if m + 1 >= r else ZERO
        behind = scaled[m - r] if m >= r else ZERO
        coefficient = poly_sum((
            (1, (0, 0), scaled[m + 1]),
            (-m, (0, 0), scaled[m]),
            (-1, (1, 0), scaled[m]),
            (-perm(m, r), (0, 0), ahead),
            (perm(m, r - 1), (1, 0), ahead),
            (-perm(m, r - 1), (0, 1), ahead),
            (perm(m, r + 1), (0, 0), behind),
            (perm(m, r), (0, 1), behind),
        ))
        residual.append(coefficient * Fraction(1, factorial(m)))
    return TruncSeries(residual)


def factorization_check(r: int, order: int) -> bool:
    """Confirm exp(A) and exp(B) separately count the two pure classes.

    exp(A) enumerates permutations all of whose cycle lengths avoid
    multiples of r, exp(B) those built entirely from multiples.  Their
    n!-scaled coefficients must match V(r, n) from the recurrence at
    x=1, y=0 and at x=0, y=1.  The enumeration comparison lives in verify.
    """
    regular_log, singular_log = build_basis(r, order)
    table = band_continuants(r, order)
    for log, point in ((regular_log, (1, 0)), (singular_log, (0, 1))):
        # A coefficient with a stray x or y, or a non-integral one, is
        # unequal to any int.
        for n, poly in enumerate(_scaled(log.exp())):
            if poly != table[n].evaluate(*point):
                return False
    return True
