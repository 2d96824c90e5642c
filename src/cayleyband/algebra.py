"""Exact arithmetic substrate: sparse bivariate polynomials and truncated
formal power series over the rationals.

Everything in this package is computed exactly.  A coefficient is stored as a
plain ``int`` whenever it is integral, and as a ``fractions.Fraction`` (reduced,
with a denominator above 1) only when it is not.  The recurrence, determinant
and enumeration routes therefore run on ints alone; a Fraction appears only
for the EGF's 1/k terms, evaluation at a non-integral rational point, and an
exact division whose quotient has a non-integral coefficient.  ``int`` and
``Fraction`` compare and hash equal and both carry ``numerator`` and
``denominator``, so every coefficient can be read as a rational.  Nothing is
ever rounded.

Polynomials in the two variables x and y are stored sparsely as a mapping
from exponent pairs to nonzero coefficients, and formal power series in t
carry an explicit truncation order with one polynomial per coefficient.

The canonical term order, used both for printing and for the exact-division
algorithm, is graded: descending total degree, ties broken by descending
x-exponent.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._validate import is_int, require_int

Exponents = tuple[int, int]
CoeffLike = int | Fraction


class NonExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where exactness was required."""


def _term_key(exponents: Exponents) -> tuple[int, int]:
    """Sort key realizing the graded order (total degree, then x degree)."""
    return (exponents[0] + exponents[1], exponents[0])


def _coerce_coefficient(value: CoeffLike) -> CoeffLike:
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        # bool and other int subclasses: a stored True would print as "True".
        return int(value)
    raise TypeError(f"coefficient must be an int or Fraction, got {type(value).__name__}")


def _divide(a: CoeffLike, b: CoeffLike) -> CoeffLike:
    """Exact quotient a / b of two coefficients: an int when b divides a,
    otherwise a Fraction.  Plain ``/`` on two ints rounds, so it is not used."""
    if type(a) is int and type(b) is int:
        quotient, remainder = divmod(a, b)
        if not remainder:
            return quotient
    value = Fraction(a) / b
    return value.numerator if value.denominator == 1 else value


def _demote(terms: dict[Exponents, CoeffLike]) -> bool:
    """Store every integral Fraction in terms as an int, in place.

    Returns True if a non-integral coefficient remains.
    """
    rational = False
    for exponents, value in terms.items():
        if type(value) is not int:
            if value.denominator == 1:
                terms[exponents] = value.numerator
            else:
                rational = True
    return rational


def _accumulate(
    out: dict[Exponents, CoeffLike],
    a: Mapping[Exponents, CoeffLike],
    b: Mapping[Exponents, CoeffLike],
) -> dict[Exponents, CoeffLike]:
    """Add the product of the term dicts a and b into out, in place.

    Sums that cancel are removed.  An integral Fraction may be left behind;
    the caller demotes once it has finished accumulating (``BiPoly._raw``).
    """
    get = out.get
    pop = out.pop
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            key = (ax + bx, ay + by)
            value = get(key, 0) + ac * bc
            if value:
                out[key] = value
            else:
                pop(key, None)
    return out


class BiPoly:
    """Sparse polynomial in x and y with exact rational coefficients.

    Terms live in a private dict keyed by ``(x_exponent, y_exponent)``; a zero
    coefficient is never stored, so dict equality is polynomial equality.
    An integral coefficient is always stored as an ``int`` and only a
    non-integral one as a ``Fraction``; every operation restores this rule
    before it returns.  Instances are immutable: every operation returns a
    new polynomial.

    Arithmetic accepts plain ints and Fractions on either side, so things
    like ``X + 3`` and ``2 * Y`` work as expected.
    """

    # _rational is False when every coefficient is an int; the operations
    # read it to skip the demotion scan on all-integer operands.
    __slots__ = ("_terms", "_rational")

    def __init__(self, terms: Mapping[Exponents, CoeffLike] | Iterable[tuple[Exponents, CoeffLike]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict[Exponents, CoeffLike] = {}
        for exponents, coefficient in items:
            dx, dy = exponents
            if not (is_int(dx, 0) and is_int(dy, 0)):
                raise ValueError(f"exponents must be nonnegative integers, got {exponents!r}")
            value = canonical.get((dx, dy), 0) + _coerce_coefficient(coefficient)
            if value:
                canonical[(dx, dy)] = value
            else:
                canonical.pop((dx, dy), None)
        self._terms = canonical
        self._rational = _demote(canonical)

    @classmethod
    def _raw(cls, terms: dict[Exponents, CoeffLike], rational: bool = False) -> BiPoly:
        # Internal fast path: terms must hold no zero.  rational=False
        # promises that every value is an int; otherwise integral Fractions
        # are demoted here.
        poly = object.__new__(cls)
        poly._terms = terms
        poly._rational = rational and _demote(terms)
        return poly

    @classmethod
    def constant(cls, value: CoeffLike) -> BiPoly:
        coefficient = _coerce_coefficient(value)
        return cls._raw({(0, 0): coefficient} if coefficient else {}, type(coefficient) is not int)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_integral(self) -> bool:
        """True if every coefficient is an integer."""
        return all(c.denominator == 1 for c in self._terms.values())

    def coefficient(self, dx: int, dy: int) -> CoeffLike:
        return self._terms.get((dx, dy), 0)

    def sorted_terms(self) -> list[tuple[Exponents, CoeffLike]]:
        """Terms in canonical order (graded, descending)."""
        return sorted(self._terms.items(), key=lambda item: _term_key(item[0]), reverse=True)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == BiPoly.constant(other)._terms
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable-dict backed

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __neg__(self) -> BiPoly:
        return BiPoly._raw({e: -c for e, c in self._terms.items()}, self._rational)

    def __add__(self, other: BiPoly | CoeffLike) -> BiPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for exponents, coefficient in other._terms.items():
            value = out.get(exponents, 0) + coefficient
            if value:
                out[exponents] = value
            else:
                out.pop(exponents, None)
        return BiPoly._raw(out, self._rational or other._rational)

    def __radd__(self, other: CoeffLike) -> BiPoly:
        return self.__add__(other)

    def __sub__(self, other: BiPoly | CoeffLike) -> BiPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: CoeffLike) -> BiPoly:
        return (-self).__add__(other)

    def __mul__(self, other: BiPoly | CoeffLike) -> BiPoly:
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        out = _accumulate({}, self._terms, other._terms)
        return BiPoly._raw(out, self._rational or other._rational)

    def __rmul__(self, other: CoeffLike) -> BiPoly:
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> BiPoly:
        require_int(exponent, 0, "polynomial exponent must be a nonnegative integer")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def evaluate(self, x_value: CoeffLike, y_value: CoeffLike) -> CoeffLike:
        """Exact value of the polynomial at a rational point: an int when it
        is integral, otherwise a Fraction."""
        x0 = _coerce_coefficient(x_value)
        y0 = _coerce_coefficient(y_value)
        total = 0
        for (dx, dy), coefficient in self._terms.items():
            total += coefficient * x0**dx * y0**dy
        return total.numerator if total.denominator == 1 else total

    def substitute(self, x_poly: BiPoly, y_poly: BiPoly) -> BiPoly:
        """Polynomial obtained by substituting polynomials for x and y."""
        x_powers: list[BiPoly] = [ONE]
        y_powers: list[BiPoly] = [ONE]
        out: dict[Exponents, CoeffLike] = {}
        for (dx, dy), coefficient in self._terms.items():
            while len(x_powers) <= dx:
                x_powers.append(x_powers[-1] * x_poly)
            while len(y_powers) <= dy:
                y_powers.append(y_powers[-1] * y_poly)
            _accumulate(out, (x_powers[dx] * y_powers[dy])._terms, {(0, 0): coefficient})
        return BiPoly._raw(out, self._rational or x_poly._rational or y_poly._rational)

    def exact_div(self, divisor: BiPoly) -> BiPoly:
        """Exact quotient self / divisor in the polynomial ring.

        Raises NonExactDivisionError if the divisor does not divide exactly.
        Uses lead-term reduction in the graded order; when the dividend is a
        true multiple, every intermediate remainder is one too, so the lead
        term is always reducible until the remainder vanishes.

        The remainder's lead term comes off a max-heap of graded keys.  A key
        is pushed when its exponent pair enters the remainder, and a popped
        key whose term has since cancelled is skipped.  Each reduction
        cancels the lead term exactly and adds only smaller terms, so the
        first live key popped is always the remainder's lead term.
        """
        if not divisor._terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return ZERO
        lead = max(divisor._terms, key=_term_key)
        lead_coefficient = divisor._terms[lead]
        rest = [(exponents, c) for exponents, c in divisor._terms.items() if exponents != lead]
        remainder = dict(self._terms)
        # Negated (total degree, x degree): heapq is a min-heap.
        heap = [(-dx - dy, -dx) for dx, dy in remainder]
        heapq.heapify(heap)
        quotient: dict[Exponents, CoeffLike] = {}
        while remainder:
            neg_total, neg_x = heapq.heappop(heap)
            top = (-neg_x, neg_x - neg_total)
            top_coefficient = remainder.pop(top, None)
            if top_coefficient is None:
                continue
            dx = top[0] - lead[0]
            dy = top[1] - lead[1]
            if dx < 0 or dy < 0:
                raise NonExactDivisionError(
                    f"({self}) is not divisible by ({divisor}): stuck at term {top}"
                )
            factor = _divide(top_coefficient, lead_coefficient)
            quotient[(dx, dy)] = factor
            for (ex, ey), coefficient in rest:
                key = (ex + dx, ey + dy)
                old = remainder.get(key)
                if old is None:
                    remainder[key] = -factor * coefficient
                    heapq.heappush(heap, (-key[0] - key[1], -key[0]))
                else:
                    value = old - factor * coefficient
                    if value:
                        remainder[key] = value
                    else:
                        del remainder[key]
        return BiPoly._raw(quotient, True)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for (dx, dy), coefficient in self.sorted_terms():
            factors: list[str] = []
            magnitude = abs(coefficient)
            if magnitude != 1 or (dx == 0 and dy == 0):
                factors.append(str(magnitude))
            if dx:
                factors.append("x" if dx == 1 else f"x^{dx}")
            if dy:
                factors.append("y" if dy == 1 else f"y^{dy}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(f"-{body}" if coefficient < 0 else body)
            else:
                pieces.append(f" - {body}" if coefficient < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({self})"


def _as_poly(value: BiPoly | CoeffLike) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return BiPoly.constant(value)
    return NotImplemented  # type: ignore[return-value]


ZERO = BiPoly._raw({})
ONE = BiPoly._raw({(0, 0): 1})
X = BiPoly._raw({(1, 0): 1})
Y = BiPoly._raw({(0, 1): 1})


def poly_sum(parts: Iterable[tuple[CoeffLike, Exponents, BiPoly]]) -> BiPoly:
    """Sum of factor * x^dx * y^dy * poly over the parts (factor, (dx, dy),
    poly), accumulated in place in one dict.

    Each factor is coerced like a coefficient (a bool counts as an int), a
    zero factor is skipped, and sums that cancel are removed.  The result is
    rational only if some poly is or some factor is not an int.
    """
    out: dict[Exponents, CoeffLike] = {}
    rational = False
    for factor, shift, poly in parts:
        factor = _coerce_coefficient(factor)
        if factor:
            _accumulate(out, {shift: factor}, poly._terms)
            rational = rational or poly._rational or type(factor) is not int
    return BiPoly._raw(out, rational)


class TruncSeries:
    """Formal power series in t, truncated at an explicit order.

    A series of order N stores the N+1 polynomial coefficients of
    t^0 .. t^N.  Binary operations on series of different orders truncate
    to the smaller order instead of raising, so differentiation (which
    shortens a series by one) composes cleanly with multiplication.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[BiPoly | CoeffLike]) -> None:
        coeffs = tuple(c if isinstance(c, BiPoly) else BiPoly.constant(c) for c in coefficients)
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        self._coeffs = coeffs

    @classmethod
    def from_terms(cls, order: int, entries: Mapping[int, BiPoly | CoeffLike]) -> TruncSeries:
        """Series with the given t-power coefficients; powers beyond the
        order are silently truncated away."""
        require_int(order, 0, "series order must be a nonnegative integer, got {!r}")
        coeffs: list[BiPoly] = [ZERO] * (order + 1)
        for power, value in entries.items():
            require_int(power, 0, "t-power must be a nonnegative integer, got {!r}")
            if power <= order:
                coeffs[power] = value if isinstance(value, BiPoly) else BiPoly.constant(value)
        return cls(coeffs)

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[BiPoly, ...]:
        return self._coeffs

    def coefficient(self, power: int) -> BiPoly:
        return self._coeffs[power]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self._coeffs[k] + other._coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return TruncSeries([self._coeffs[k] - other._coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        """Cauchy product, truncated at the smaller order."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out: list[dict[Exponents, CoeffLike]] = [{} for _ in range(n + 1)]
        for i in range(n + 1):
            a = self._coeffs[i]._terms
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other._coeffs[j]._terms
                if b:
                    _accumulate(out[i + j], a, b)
        rational = any(c._rational for c in self._coeffs + other._coeffs)
        return TruncSeries([BiPoly._raw(terms, rational) for terms in out])

    def scale(self, factor: BiPoly | CoeffLike) -> TruncSeries:
        """Multiply every coefficient by a polynomial or scalar."""
        return TruncSeries([c * factor for c in self._coeffs])

    def derivative(self) -> TruncSeries:
        """Formal d/dt; the order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        return TruncSeries([(k + 1) * self._coeffs[k + 1] for k in range(self.order)])

    def exp(self) -> TruncSeries:
        """Formal exponential of a series with zero constant term.

        Coefficient k of E = exp(A) comes from E' = A'E:
        k*e_k = sum_{j=1..k} j*a_j*e_{k-j}.
        """
        if not self._coeffs[0].is_zero:
            raise ValueError("series exponential requires a zero constant term")
        weighted = [(j * a)._terms for j, a in enumerate(self._coeffs)]
        out = [ONE]
        for k in range(1, self.order + 1):
            acc: dict[Exponents, CoeffLike] = {}
            for j in range(1, k + 1):
                if weighted[j]:
                    _accumulate(acc, weighted[j], out[k - j]._terms)
            out.append(BiPoly._raw({e: _divide(c, k) for e, c in acc.items()}, True))
        return TruncSeries(out)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs)
        return f"TruncSeries([{inner}])"
