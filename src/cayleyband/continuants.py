"""Band Cayley continuant polynomials and permutation cycle statistics.

The polynomial family V(r, n) generalizes the classical Cayley continuants:
V(r, n) is the determinant of an n x n (1, r-1) band matrix (see bandmatrix),
satisfies an r-term recurrence, and equals the joint distribution polynomial
of r-regular and r-singular cycle counts over the symmetric group S_n.  This
module computes the family by the recurrence and, independently, by exhaustive
permutation enumeration; the two must agree, which is what the verification
harness checks.

The recurrence has one body, ``continuant_rows``, which streams the rows and
holds only the last r of them; the ``table`` and ``sequence`` commands read
it directly, and ``band_continuants`` is the same rows as a list.

There is one cycle walk, a leader walk: each cycle is counted once, from its
smallest point, so no point needs marking.  The three enumeration functions
share it and one tally of cycle-length sequences, each folding the tally
differently: the distribution splits each sequence by r, and the two
pure-class counts read that distribution at x=1, y=0 and at x=0, y=1.

A cycle of a permutation is r-regular when its length is not divisible by r
and r-singular when it is.  Permutations are written in one-line notation,
1-based: ``(2, 3, 1)`` maps 1 to 2, 2 to 3, 3 to 1.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from collections.abc import Iterator, Sequence
from typing import NamedTuple

from ._validate import InputError, is_int, require_band_parameter, require_int
from .algebra import ONE, X, Y, BiPoly, poly_sum

# Guard on n! enumeration; 10! = 3,628,800 keeps a full scan in the seconds.
BRUTE_FORCE_LIMIT = 10

# One-line notation, 1-based images.
Permutation = tuple[int, ...]


class CycleStats(NamedTuple):
    """Counts of r-regular and r-singular cycles of one permutation."""

    regular: int
    singular: int


def _require_enumerable(n: int) -> None:
    require_int(n, 0, "n must be a nonnegative integer, got {!r}")
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute-force enumeration is limited to n <= {BRUTE_FORCE_LIMIT}, got {n}")


def rising_factorial(n: int) -> BiPoly:
    """x(x+1)...(x+n-1) as a polynomial in x; the empty product is 1."""
    require_int(n, 0, "n must be a nonnegative integer, got {!r}")
    product = ONE
    for k in range(n):
        product = product * (X + k)
    return product


def falling_factorial(m: int, k: int) -> int:
    """m(m-1)...(m-k+1); the empty product is 1, and k > m gives 0."""
    require_int(m, 0, "falling_factorial needs nonnegative integers")
    require_int(k, 0, "falling_factorial needs nonnegative integers")
    return math.prod(range(m, m - k, -1))


def continuant_rows(r: int, n_max: int) -> Iterator[BiPoly]:
    """Yield V(r, 0) .. V(r, n_max) in order, holding only the last r rows.

    The arguments are checked when this is called, before the first row.
    For n < r the value is the rising factorial x^(n).  From n = r on:

        V(r, n) = x * sum_{i=1..r-1} (n-1)_{i-1} V(r, n-i)
                  + (y + n - r) (n-1)_{r-1} V(r, n-r)

    Each row is one accumulation (``poly_sum``) of r + 1 weighted, shifted
    earlier rows, with no intermediate polynomial.
    """
    require_band_parameter(r)
    require_int(n_max, 0, "n_max must be a nonnegative integer, got {!r}")
    return _rows(r, n_max)


def _rows(r: int, n_max: int) -> Iterator[BiPoly]:
    rows: deque[BiPoly] = deque(maxlen=r)  # V(r, n-r) .. V(r, n-1)
    for n in range(min(n_max, r - 1) + 1):
        rows.append(rising_factorial(n))
        yield rows[-1]
    for n in range(r, n_max + 1):
        f = falling_factorial(n - 1, r - 1)
        parts = [(falling_factorial(n - 1, i - 1), (1, 0), rows[-i]) for i in range(1, r)]
        parts += [(f, (0, 1), rows[0]), ((n - r) * f, (0, 0), rows[0])]
        rows.append(poly_sum(parts))
        yield rows[-1]


def band_continuants(r: int, n_max: int) -> list[BiPoly]:
    """The polynomials V(r, 0) .. V(r, n_max) as one list."""
    return list(continuant_rows(r, n_max))


def band_continuant(r: int, n: int) -> BiPoly:
    """V(r, n) by the r-term recurrence."""
    return deque(continuant_rows(r, n), maxlen=1)[0]


def cayley_continuant(n: int) -> BiPoly:
    """The classical tridiagonal continuant U_n.

    U_0 = 1, U_1 = x, and U_n = x U_{n-1} - (n-1)(y-n+2) U_{n-2}.
    Substituting y -> -y turns U_n into V(2, n).
    """
    require_int(n, 0, "n must be a nonnegative integer, got {!r}")
    if n == 0:
        return ONE
    previous, current = ONE, X
    for k in range(2, n + 1):
        previous, current = current, X * current - (k - 1) * (Y + (2 - k)) * previous
    return current


def as_permutation(images: Sequence[int]) -> Permutation:
    """Validate one-line notation (a bijection on 1..n) and return a tuple."""
    perm = tuple(images)
    if not all(is_int(i, 1) for i in perm) or sorted(perm) != list(range(1, len(perm) + 1)):
        raise InputError(f"not a permutation of 1..{len(perm)}: {images!r}")
    return perm


def _cycle_lengths(perm: Sequence[int]) -> tuple[int, ...]:
    # The one cycle walk.  perm holds 0-based images, as
    # itertools.permutations(range(n)) yields them.  From each start the walk
    # follows images while they are larger than the start; it comes back to
    # the start only when the start is its cycle's smallest point, so each
    # cycle is counted once, in order of its smallest point.
    lengths = []
    for start, j in enumerate(perm):
        length = 1
        while j > start:
            j = perm[j]
            length += 1
        if j == start:
            lengths.append(length)
    return tuple(lengths)


def _split(lengths: Sequence[int], r: int) -> CycleStats:
    singular = sum(1 for length in lengths if length % r == 0)
    return CycleStats(regular=len(lengths) - singular, singular=singular)


def cycle_type(images: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths, as a sorted tuple; the lengths sum to n."""
    return tuple(sorted(_cycle_lengths([i - 1 for i in as_permutation(images)])))


def cycle_stats(images: Sequence[int], r: int) -> CycleStats:
    """Count the r-regular and r-singular cycles of a permutation."""
    require_band_parameter(r)
    return _split(_cycle_lengths([i - 1 for i in as_permutation(images)]), r)


def cycle_distribution_bruteforce(r: int, n: int) -> BiPoly:
    """Sum of x^(#r-regular cycles) y^(#r-singular cycles) over all of S_n.

    A full scan of all n! permutations in lexicographic one-line order; this
    is the combinatorial oracle the other three computations are checked
    against.  The empty permutation contributes 1, so n = 0 gives 1.
    """
    require_band_parameter(r)
    _require_enumerable(n)
    # Tally the cycle-length sequences first: there are at most 2^(n-1) of
    # them, so splitting each by r afterwards costs next to nothing.
    tally = Counter(map(_cycle_lengths, itertools.permutations(range(n))))
    counts: Counter[CycleStats] = Counter()
    for lengths, count in tally.items():
        counts[_split(lengths, r)] += count
    return BiPoly(counts)


def count_regular_permutations(r: int, n: int) -> int:
    """Number of permutations of [n] whose cycles are all r-regular.

    Computed as V(r, n) evaluated at x = 1, y = 0, which scales to any n.
    """
    value = band_continuant(r, n).evaluate(1, 0)
    return int(value)


def count_singular_permutations(r: int, n: int) -> int:
    """Number of permutations of [n] whose cycle lengths are all divisible
    by r; zero unless r divides n (or n = 0).

    Computed as V(r, n) evaluated at x = 0, y = 1.
    """
    value = band_continuant(r, n).evaluate(0, 1)
    return int(value)


def count_regular_permutations_bruteforce(r: int, n: int) -> int:
    """Direct scan counterpart of count_regular_permutations (n <= 10)."""
    return cycle_distribution_bruteforce(r, n).evaluate(1, 0)


def count_singular_permutations_bruteforce(r: int, n: int) -> int:
    """Direct scan counterpart of count_singular_permutations (n <= 10)."""
    return cycle_distribution_bruteforce(r, n).evaluate(0, 1)
