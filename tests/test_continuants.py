"""Recurrence, classical continuants, and permutation cycle statistics."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest

from cayleyband._validate import InputError
from cayleyband.algebra import ONE, X, Y, BiPoly
from cayleyband.continuants import (
    BRUTE_FORCE_LIMIT,
    CycleStats,
    as_permutation,
    band_continuant,
    band_continuants,
    cayley_continuant,
    continuant_rows,
    count_regular_permutations,
    count_regular_permutations_bruteforce,
    count_singular_permutations,
    count_singular_permutations_bruteforce,
    cycle_distribution_bruteforce,
    cycle_stats,
    _cycle_lengths,
    cycle_type,
    falling_factorial,
    rising_factorial,
)

# The tridiagonal family, frozen term by term.
GOLDEN_R2 = [
    ONE,
    X,
    X**2 + Y,
    X**3 + 3 * X * Y + 2 * X,
    X**4 + 6 * X**2 * Y + 8 * X**2 + 3 * Y**2 + 6 * Y,
    X**5 + 10 * X**3 * Y + 20 * X**3 + 15 * X * Y**2 + 50 * X * Y + 24 * X,
]

GOLDEN_R3 = [
    ONE,
    X,
    X**2 + X,
    X**3 + 3 * X**2 + 2 * Y,
    X**4 + 6 * X**3 + 3 * X**2 + 8 * X * Y + 6 * X,
    X**5 + 10 * X**4 + 15 * X**3 + 20 * X**2 * Y + 30 * X**2 + 20 * X * Y + 24 * X,
]


def test_rising_factorial():
    assert rising_factorial(0) == ONE
    assert rising_factorial(1) == X
    assert rising_factorial(2) == X**2 + X
    assert rising_factorial(4) == X**4 + 6 * X**3 + 11 * X**2 + 6 * X
    with pytest.raises(ValueError):
        rising_factorial(-1)


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(3, 4) == 0  # crosses zero
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(0, 1) == 0


def test_golden_table_r2():
    assert band_continuants(2, 5) == GOLDEN_R2


def test_golden_table_r3():
    assert band_continuants(3, 5) == GOLDEN_R3


def test_single_value_matches_table():
    for r in (2, 3, 5):
        table = band_continuants(r, 7)
        for n in range(8):
            assert band_continuant(r, n) == table[n]


@pytest.mark.parametrize("r", range(2, 7))
def test_the_row_stream_is_the_table(r):
    for n_max in sorted({0, 1, r - 1, r, 40}):
        assert list(continuant_rows(r, n_max)) == band_continuants(r, n_max)


@pytest.mark.parametrize("args", [(1, 3), (3, -1), (True, 3), (2.0, 3), (3, True), (3, 2.0)])
def test_the_row_stream_checks_its_arguments_when_called(args):
    # The check runs before any row is asked for, so a command that streams
    # the rows fails before it prints one.
    with pytest.raises(InputError):
        continuant_rows(*args)


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_row_stream_holds_only_the_last_rows():
    def drain():
        for _ in continuant_rows(3, 60):
            pass

    streamed = _peak_bytes(drain)
    listed = _peak_bytes(lambda: band_continuants(3, 60))
    assert streamed < listed / 2, (streamed, listed)


def test_band_parameter_validation():
    with pytest.raises(ValueError):
        band_continuants(1, 3)
    with pytest.raises(ValueError):
        band_continuant(0, 3)
    with pytest.raises(ValueError):
        band_continuants(2, -1)


def test_classical_continuant_values():
    assert cayley_continuant(0) == ONE
    assert cayley_continuant(1) == X
    assert cayley_continuant(2) == X**2 - Y
    assert cayley_continuant(3) == X**3 - 3 * X * Y + 2 * X
    assert cayley_continuant(4) == X**4 - 6 * X**2 * Y + 8 * X**2 + 3 * Y**2 - 6 * Y


def test_classical_continuant_sign_relation():
    """Flipping the sign of y turns the classical family into r=2."""
    table = band_continuants(2, 12)
    for n in range(13):
        assert cayley_continuant(n).substitute(X, -Y) == table[n]


def test_degree_structure():
    # a term x^a y^b needs a regular cycles and b singular ones, so
    # a + r*b <= n; the identity permutation alone contributes x^n.
    for r in range(2, 6):
        for n, poly in enumerate(band_continuants(r, 9)):
            for (dx, dy), coefficient in poly.sorted_terms():
                assert dx + r * dy <= n
                assert coefficient > 0
            assert poly.coefficient(n, 0) == 1


def test_factorial_specialization():
    for r in range(2, 7):
        for n, poly in enumerate(band_continuants(r, 12)):
            assert poly.evaluate(1, 1) == math.factorial(n)


def test_merged_statistic_is_rising_factorial():
    for r in range(2, 7):
        for n, poly in enumerate(band_continuants(r, 12)):
            assert poly.substitute(X, X) == rising_factorial(n)


def test_permutation_validation():
    assert as_permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        as_permutation([1, 1, 3])
    with pytest.raises(ValueError):
        as_permutation([0, 1, 2])
    with pytest.raises(ValueError):
        as_permutation([1, 2, 4])


def test_permutation_images_must_be_ints():
    # 1.0 compares equal to 1 but is not an index; a bool is rejected in
    # test_coefficients.
    for images in ([1.0], [2, 1.0]):
        with pytest.raises(ValueError, match="not a permutation"):
            as_permutation(images)


def test_cycle_type():
    assert cycle_type([1, 2, 3, 4]) == (1, 1, 1, 1)
    assert cycle_type([2, 1, 4, 3]) == (2, 2)
    assert cycle_type([2, 3, 4, 5, 1]) == (5,)
    assert cycle_type([]) == ()


def marking_walk(perm):
    """The reference walk: mark each point of a cycle as it is passed, and
    start a cycle at every unmarked point."""
    seen = bytearray(len(perm))
    lengths = []
    for start, j in enumerate(perm):
        if seen[start]:
            continue
        length = 1
        while j != start:
            seen[j] = 1
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(lengths)


def test_the_walk_lists_cycles_in_order_of_their_smallest_point():
    # The scan tallies the ordered sequence, so the order is part of the key.
    for n in range(8):
        for perm in itertools.permutations(range(n)):
            assert _cycle_lengths(perm) == marking_walk(perm), perm
    # The longest walks: the n-cycle i -> i-1 mod n and its inverse.
    n = 10
    for step in (-1, 1):
        perm = tuple((i + step) % n for i in range(n))
        assert _cycle_lengths(perm) == marking_walk(perm) == (n,)


def test_cycle_stats():
    assert cycle_stats([2, 3, 1], 3) == CycleStats(regular=0, singular=1)
    assert cycle_stats([2, 3, 1], 2) == CycleStats(regular=1, singular=0)
    assert cycle_stats([2, 1, 4, 3], 2) == CycleStats(regular=0, singular=2)
    assert cycle_stats([1, 2, 3], 4) == CycleStats(regular=3, singular=0)


def test_cycle_distribution_small():
    for r in (2, 4, 7):
        assert cycle_distribution_bruteforce(r, 0) == ONE
        assert cycle_distribution_bruteforce(r, 1) == X
    assert cycle_distribution_bruteforce(2, 2) == X**2 + Y
    assert cycle_distribution_bruteforce(2, 3) == GOLDEN_R2[3]
    assert cycle_distribution_bruteforce(3, 4) == GOLDEN_R3[4]


def test_cycle_stats_sum_to_the_scanned_distribution():
    # cycle_stats walks 1-based input, the scan 0-based images; both go
    # through one walk, so summing the single-permutation statistics over
    # S_n must give the scan's polynomial.
    for r in range(2, 6):
        for n in range(7):
            total = BiPoly()
            for perm in itertools.permutations(range(1, n + 1)):
                stats = cycle_stats(perm, r)
                total = total + X**stats.regular * Y**stats.singular
            assert total == cycle_distribution_bruteforce(r, n), f"r={r} n={n}"


def test_recurrence_below_bandwidth_is_rising_factorial():
    assert band_continuant(6, 4) == rising_factorial(4)
    for r in range(2, 8):
        for n in range(r):
            assert band_continuant(r, n) == rising_factorial(n)


def test_enumeration_matches_recurrence():
    for r in range(2, 6):
        table = band_continuants(r, 7)
        for n in range(8):
            assert cycle_distribution_bruteforce(r, n) == table[n], f"r={r} n={n}"


def test_enumeration_guard():
    with pytest.raises(ValueError):
        cycle_distribution_bruteforce(2, BRUTE_FORCE_LIMIT + 1)


def test_count_sequences_r2():
    assert [count_regular_permutations(2, n) for n in range(8)] == [1, 1, 1, 3, 9, 45, 225, 1575]
    assert [count_singular_permutations(2, n) for n in range(8)] == [1, 0, 1, 0, 9, 0, 225, 0]


def test_count_values_forced_by_golden_polynomial():
    # substituting into the frozen n=4 polynomial gives both counts
    assert GOLDEN_R2[4].evaluate(1, 0) == 9
    assert GOLDEN_R2[4].evaluate(0, 1) == 9
    assert count_regular_permutations(2, 4) == 9
    assert count_singular_permutations(2, 4) == 9
    assert count_regular_permutations(3, 3) == 4
    assert count_singular_permutations(3, 3) == 2


def test_counts_match_bruteforce():
    for r in range(2, 5):
        for n in range(8):
            assert count_regular_permutations(r, n) == count_regular_permutations_bruteforce(r, n)
            assert count_singular_permutations(r, n) == count_singular_permutations_bruteforce(r, n)


def test_singular_count_vanishes_off_multiples():
    for r in range(2, 6):
        for n in range(1, 11):
            if n % r:
                assert count_singular_permutations(r, n) == 0
            elif n:
                assert count_singular_permutations(r, n) > 0
