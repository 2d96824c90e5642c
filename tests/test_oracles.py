"""Oracles for the recurrence, each computed here in plain ints and
Fractions, with no recurrence, matrix or BiPoly.  The first two reach past
the enumeration limit; the third splits S_n itself.

* The closed form.  The EGF factors as (1-t)^(-x) (1-t^r)^((x-y)/r), so

      V(r, n)(x0, y0) = sum_k n!/((n-rk)! r^k k!) R_{n-rk}(x0) prod_{i<k} (y0 - x0 + ri)

  with R_m(x) = x(x+1)...(x+m-1).  It is checked against the ``sequence``
  command's output up to n = 80.
* The class sum.  The conjugacy class of cycle type lambda has n!/z_lambda
  elements, z_lambda = prod_k k^(m_k) m_k!, so summing x^(#parts not divisible
  by r) y^(#parts divisible by r) n!/z_lambda over the partitions of n gives
  the paper's joint distribution of r-regular and r-singular cycles over S_n
  (Stanley, Enumerative Combinatorics I, Prop. 1.3.2).  It is checked term by
  term for n <= 24, far past the n! scan, and class by class against the
  cycle walk for n <= 8.
* The recurrence term by term.  Grouping S_n by the length L of the cycle
  through n splits V(r, n) into the recurrence's own terms: L = i < r gives
  x (n-1)_{i-1} V(n-i), L = r gives y (n-1)_{r-1} V(n-r), and L > r gives
  (n-r) (n-1)_{r-1} V(n-r).  It is checked for r = 2..6 and n <= 7 with a
  cycle walk of its own.

The class sum also proves the paper's theorem for n <= 14: a plain-int
Bareiss elimination of the band matrix, read entry by entry, equals it on a
grid large enough to pin down a polynomial of the determinant's degrees.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from cayleyband import cli
from cayleyband.bandmatrix import band_matrix
from cayleyband.continuants import _cycle_lengths, band_continuants

POINTS = [(1, 0), (0, 1), (Fraction(1, 2), Fraction(-2, 3)), (-3, 5)]
# (r, n_max); in the last, r = n_max + 1 and every row is a rising factorial.
SEQUENCES = [(r, 80) for r in range(2, 8)] + [(41, 40)]
# Through BiPoly a non-integral point costs several times an integral one.
N_MAX_RATIONAL = 40
N_MAX_CLASS_SUM = 24
N_MAX_WALK = 8
N_MAX_TERMS = 7
N_MAX_GRID = 14


def closed_form(r: int, n_max: int, x0, y0) -> list:
    """V(r, n)(x0, y0) for n = 0..n_max."""
    rising = [1]
    for m in range(n_max):
        rising.append(rising[-1] * (x0 + m))
    singular = [1]
    for i in range(n_max // r):
        singular.append(singular[-1] * (y0 - x0 + r * i))
    # n!/((n-rk)! r^k k!) = C(n, rk) (rk)!/(r^k k!) is an integer.
    return [
        sum(
            math.factorial(n) // (math.factorial(n - r * k) * r**k * math.factorial(k)) * rising[n - r * k] * singular[k]
            for k in range(n // r + 1)
        )
        for n in range(n_max + 1)
    ]


def sequence_stdout(r: int, n_max: int, x0, y0) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["sequence", "--r", str(r), f"--x={x0}", f"--y={y0}", "--n-max", str(n_max)]) == 0
    return out.getvalue().split()


def test_closed_form_matches_known_counts():
    # Permutations with only odd cycles (OEIS A000246) and with only even
    # cycles (A001818 at even n).
    assert closed_form(2, 8, 1, 0) == [1, 1, 1, 3, 9, 45, 225, 1575, 11025]
    assert closed_form(2, 8, 0, 1) == [1, 0, 1, 0, 9, 0, 225, 0, 11025]


@pytest.mark.parametrize(("r", "n_max"), SEQUENCES)
def test_sequence_matches_the_closed_form(r, n_max):
    for x0, y0 in POINTS:
        n = n_max if type(x0) is int else min(n_max, N_MAX_RATIONAL)
        expected = [str(value) for value in closed_form(r, n, x0, y0)]
        assert sequence_stdout(r, n, x0, y0) == expected, (x0, y0)


def partitions(n: int, largest: int):
    """The partitions of n into parts of at most largest, parts descending."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k, *rest)


def class_size(parts: tuple[int, ...]) -> int:
    """n!/z_lambda, the number of permutations of cycle type parts."""
    multiplicity = Counter(parts)
    return math.factorial(sum(parts)) // math.prod(k**m * math.factorial(m) for k, m in multiplicity.items())


def class_sums(n: int) -> dict[int, Counter]:
    """{r: {(regular, singular): count}} over S_n for r = 2..n+1, from one
    walk of the partitions of n."""
    sums = {r: Counter() for r in range(2, n + 2)}
    for parts in partitions(n, n):
        multiplicity = Counter(parts)
        size = class_size(parts)
        for r, tally in sums.items():
            singular = sum(m for k, m in multiplicity.items() if k % r == 0)
            tally[len(parts) - singular, singular] += size
    return sums


def test_recurrence_matches_the_class_sums():
    tables = {r: band_continuants(r, N_MAX_CLASS_SUM) for r in range(2, N_MAX_CLASS_SUM + 2)}
    for n in range(1, N_MAX_CLASS_SUM + 1):
        for r, tally in class_sums(n).items():
            assert dict(tables[r][n].sorted_terms()) == dict(tally), (r, n)


def test_the_walk_meets_each_cycle_type_n_over_z_times():
    # The scans only see the walk through the split of its cycle lengths by
    # divisibility by r; this tally sees the lengths themselves.
    for n in range(N_MAX_WALK + 1):
        tally = Counter(tuple(sorted(_cycle_lengths(perm))) for perm in itertools.permutations(range(n)))
        assert tally == {tuple(sorted(parts)): class_size(parts) for parts in partitions(n, n)}, n


def cycles_through_last(perm: tuple[int, ...]) -> list[int]:
    """The cycle lengths of perm, a tuple of the images of 0..n-1, with the
    length of the cycle through n-1 first."""
    seen = [False] * len(perm)
    lengths = []
    for start in reversed(range(len(perm))):
        length, point = 0, start
        while not seen[point]:
            seen[point] = True
            point = perm[point]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def shifted(poly, factor: int, dx: int, dy: int) -> dict:
    """factor * x^dx * y^dy * poly as a term dict with no zero terms."""
    return {(i + dx, j + dy): factor * c for (i, j), c in poly.sorted_terms() if factor}


def test_the_recurrence_term_by_term():
    # The walk groups each permutation by the length L of the cycle through
    # n, and weighs it x^(#r-regular cycles) y^(#r-singular cycles).
    r_values = range(2, 7)
    tables = {r: band_continuants(r, N_MAX_TERMS) for r in r_values}
    for n in range(1, N_MAX_TERMS + 1):
        groups = {r: {} for r in r_values}
        for perm in itertools.permutations(range(n)):
            lengths = cycles_through_last(perm)
            for r, group in groups.items():
                singular = sum(length % r == 0 for length in lengths)
                label = lengths[0] if lengths[0] <= r else "more"
                tally = group.setdefault(label, Counter())
                tally[len(lengths) - singular, singular] += 1
        for r, group in groups.items():
            table = tables[r]
            expected = {
                i: shifted(table[n - i], math.perm(n - 1, i - 1), 1, 0) for i in range(1, min(r - 1, n) + 1)
            }
            if n >= r:
                f = math.perm(n - 1, r - 1)
                expected[r] = shifted(table[n - r], f, 0, 1)
                expected["more"] = shifted(table[n - r], (n - r) * f, 0, 0)
            assert {label: dict(tally) for label, tally in group.items()} == {
                label: terms for label, terms in expected.items() if terms
            }, (r, n)


def plain_value(terms, x0: int, y0: int) -> int:
    """A polynomial given as ((i, j), c) terms, at (x0, y0) in plain ints."""
    value = 0
    for (i, j), c in terms:
        assert type(c) is int, c
        value += c * x0**i * y0**j
    return value


def plain_det(rows: list[list[int]]) -> int:
    """Bareiss elimination in plain ints, swapping rows on a zero pivot."""
    rows = [row[:] for row in rows]
    n, sign, previous = len(rows), 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            nonzero = [i for i in range(k + 1, n) if rows[i][k]]
            if not nonzero:
                return 0
            i = nonzero[0]
            rows[k], rows[i], sign = rows[i], rows[k], -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1 :]:
            lower = row[k]
            for j in range(k + 1, n):
                row[j], remainder = divmod(pivot * row[j] - lower * pivot_row[j], previous)
                assert remainder == 0
        previous = pivot
    return sign * rows[-1][-1] if n else 1


def test_the_determinant_is_the_cycle_distribution_on_a_grid():
    # The paper's theorem for every n <= N_MAX_GRID and r = 2..n+1, with no
    # package arithmetic past building the matrix.  The determinant has
    # degree <= n in x and <= n // r in y: a permutation that uses k entries
    # of the y subdiagonal uses at least k(r-1) superdiagonal entries, so
    # kr <= n.  The class sum and the recurrence obey the same bounds
    # (asserted below), so agreement on the (n+1) x (n//r+1) grid proves the
    # polynomials equal (Alon, Combinatorial Nullstellensatz, Lemma 2.1).
    tables = {r: band_continuants(r, N_MAX_GRID) for r in range(2, N_MAX_GRID + 2)}
    for n in range(N_MAX_GRID + 1):
        for r, tally in class_sums(n).items():
            entries = [[entry.sorted_terms() for entry in row] for row in band_matrix(r, n).entries]
            recurrence = tables[r][n].sorted_terms()
            for (i, j), _ in [*tally.items(), *recurrence]:
                assert i + j <= n and j <= n // r, (r, n, i, j)
            for x0 in range(n + 1):
                for y0 in range(n // r + 1):
                    determinant = plain_det([[plain_value(e, x0, y0) for e in row] for row in entries])
                    assert determinant == plain_value(tally.items(), x0, y0), (r, n, x0, y0)
                    assert determinant == plain_value(recurrence, x0, y0), (r, n, x0, y0)
