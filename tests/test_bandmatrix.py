"""Band matrix construction and the two determinant routes."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleyband.algebra import ONE, X, Y, ZERO, BiPoly
from cayleyband.bandmatrix import (
    LEIBNIZ_LIMIT,
    BandMatrix,
    ZeroPivotError,
    _band_matrix_with_step,
    band_matrix,
    det_bareiss,
    det_leibniz,
    render_matrix,
)
from cayleyband.continuants import (
    band_continuant,
    band_continuants,
    cycle_distribution_bruteforce,
    rising_factorial,
)


def test_small_matrices_entry_by_entry():
    m = band_matrix(2, 2)
    assert m.entries == ((X, BiPoly.constant(-1)), (Y, X))

    # below the bandwidth: no y entry anywhere, pure lower triangle of x
    m = band_matrix(4, 3)
    assert m.entries == (
        (X, BiPoly.constant(-1), ZERO),
        (X, X, BiPoly.constant(-2)),
        (X, X, X),
    )


def test_band_structure_matrix_3_6():
    m = band_matrix(3, 6)
    # superdiagonal is -1, -2, ..., -5
    for i in range(1, 6):
        assert m.entries[i - 1][i] == BiPoly.constant(-i)
    # the y subdiagonal starts at y in row r and increases by one per row
    assert m.entries[2][0] == Y
    assert m.entries[3][1] == Y + 1
    assert m.entries[4][2] == Y + 2
    assert m.entries[5][3] == Y + 3
    # everything below the y subdiagonal and above the superdiagonal is zero
    assert m.entries[3][0].is_zero
    assert m.entries[0][2].is_zero


def test_band_structure_invariant():
    for r in range(2, 7):
        for n in range(11):
            m = band_matrix(r, n)
            assert m.r == r and m.n == n
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    entry = m.entries[i - 1][j - 1]
                    if j == i + 1:
                        assert entry == -i
                    elif 0 <= i - j <= r - 2:
                        assert entry == X
                    elif i - j == r - 1:
                        assert entry == Y + (i - r)
                    else:
                        assert entry.is_zero


def test_matrix_argument_validation():
    with pytest.raises(ValueError):
        band_matrix(1, 3)
    with pytest.raises(ValueError):
        band_matrix(2, -1)


def test_leibniz_small_cases():
    assert det_leibniz(band_matrix(2, 0)) == ONE
    assert det_leibniz(band_matrix(2, 1)) == X
    assert det_leibniz(band_matrix(2, 2)) == X * X + Y
    assert det_leibniz(band_matrix(3, 3)) == X**3 + 3 * X * X + 2 * Y


def test_leibniz_guard():
    with pytest.raises(ValueError):
        det_leibniz(band_matrix(2, LEIBNIZ_LIMIT + 1))


def test_bareiss_known_values():
    assert det_bareiss(band_matrix(2, 0)) == ONE
    v25 = X**5 + 10 * X**3 * Y + 20 * X**3 + 15 * X * Y * Y + 50 * X * Y + 24 * X
    assert det_bareiss(band_matrix(2, 5)) == v25
    # below the bandwidth the determinant is a rising factorial
    assert det_bareiss(band_matrix(5, 4)) == rising_factorial(4)
    v34 = X**4 + 6 * X**3 + 3 * X * X + 8 * X * Y + 6 * X
    assert det_bareiss(band_matrix(3, 4)) == v34
    assert det_bareiss(band_matrix(3, 4)) == cycle_distribution_bruteforce(3, 4)


def test_determinant_routes_agree():
    for r in range(2, 7):
        for n in range(LEIBNIZ_LIMIT + 1):
            m = band_matrix(r, n)
            assert det_leibniz(m) == det_bareiss(m), f"r={r} n={n}"


def test_bareiss_matches_recurrence():
    for r in range(2, 7):
        table = band_continuants(r, 12)
        for n in range(13):
            assert det_bareiss(band_matrix(r, n)) == table[n], f"r={r} n={n}"


def test_odd_row_column_sign_flip_preserves_determinant():
    """Negating every odd row and odd column of the tridiagonal matrix
    flips the superdiagonal to 1..n-1 and the subdiagonal to -(y+i-2)
    without changing the determinant."""
    for n in range(7):
        m = band_matrix(2, n)
        flipped_entries = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, n + 1):
                sign = (-1 if i % 2 else 1) * (-1 if j % 2 else 1)
                row.append(sign * m.entries[i - 1][j - 1])
            flipped_entries.append(tuple(row))
        flipped = BandMatrix(r=2, n=n, entries=tuple(flipped_entries))
        for i in range(1, n):
            assert flipped.entries[i - 1][i] == BiPoly.constant(i)
        assert det_leibniz(flipped) == det_leibniz(m)


def test_determinant_invariant_under_transpose():
    for r in range(2, 5):
        for n in range(7):
            m = band_matrix(r, n)
            transposed = BandMatrix(
                r=r,
                n=n,
                entries=tuple(tuple(m.entries[j][i] for j in range(n)) for i in range(n)),
            )
            assert det_leibniz(transposed) == det_leibniz(m)


def test_bareiss_zero_pivot_raises():
    m = BandMatrix(r=2, n=2, entries=((ZERO, ONE), (ONE, ZERO)))
    with pytest.raises(ZeroPivotError):
        det_bareiss(m)


def _expansion(rows) -> BiPoly:
    """Plain signed expansion over every permutation of the given rows."""
    n = len(rows)
    total = ZERO
    for perm in itertools.permutations(range(n)):
        term = ONE
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


_atoms = st.sampled_from([ONE, -ONE, BiPoly.constant(2), BiPoly.constant(-3), X, Y])
_sums = st.lists(_atoms, min_size=1, max_size=3).map(lambda parts: sum(parts, ZERO))


@st.composite
def _square_matrices(draw):
    """n <= 6 matrices of short sums (which may cancel to 0), with a zero
    pattern of random density laid over them."""
    n = draw(st.integers(0, 6))
    zero_odds = draw(st.integers(0, 3))
    rows = tuple(
        tuple(ZERO if draw(st.integers(0, 3)) < zero_odds else draw(_sums) for _ in range(n))
        for _ in range(n)
    )
    return BandMatrix(r=2, n=n, entries=rows)


@settings(deadline=None)
@given(_square_matrices())
def test_determinants_of_arbitrary_matrices(matrix):
    """Off the band the lazy elimination must still stop at the first
    vanishing leading principal minor, and otherwise agree with Leibniz."""
    rows = matrix.entries
    for k in range(1, matrix.n):
        if _expansion([row[:k] for row in rows[:k]]).is_zero:
            with pytest.raises(ZeroPivotError, match=f"^zero pivot at elimination step {k}$"):
                det_bareiss(matrix)
            return
    expected = _expansion(rows)
    assert det_bareiss(matrix) == expected
    assert det_leibniz(matrix) == expected


def test_bareiss_rescales_only_rows_it_uses(monkeypatch):
    calls = 0
    exact_div = BiPoly.exact_div

    def counting_exact_div(self, divisor):
        nonlocal calls
        calls += 1
        return exact_div(self, divisor)

    monkeypatch.setattr(BiPoly, "exact_div", counting_exact_div)
    det_bareiss(band_matrix(3, 16))
    # Only the r - 1 = 2 rows below the pivot with a nonzero in its column
    # are updated, each in its n - 1 - k columns after step k, and just one
    # row is left at the last step: 2 * (1 + ... + 15) - 1.  The pivot row
    # and the last row never need catching up, since each row's x entry left
    # of the diagonal updated it at the step before.  Rescaling every lower
    # row at every step would take 1 + 4 + ... + 15**2 = 1240 divisions.
    assert calls == 239


@pytest.mark.parametrize(
    "r, n, entries, message",
    [
        (2, 1, ((X, ONE), (ONE, X)), "matrix has 2 rows, expected n = 1"),
        (2, 2, ((X, ONE, Y), (ONE, X, Y)), "row 1 has 3 entries, expected n = 2"),
        (2, 2, ((X, ONE), (ONE,)), "row 2 has 1 entries, expected n = 2"),
        (2, 2, ((X, ONE), (0, X)), "entry (2, 1) must be a BiPoly, got 0"),
        (1, 0, (), "band parameter r must be an integer >= 2, got 1"),
        (2, -1, (), "matrix dimension n must be a nonnegative integer, got -1"),
        (2, True, ((X,),), "matrix dimension n must be a nonnegative integer, got True"),
    ],
)
def test_band_matrix_rejects_a_malformed_shape(r, n, entries, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BandMatrix(r=r, n=n, entries=entries)


def test_band_matrix_is_immutable_and_compares_by_value():
    matrix = band_matrix(3, 4)
    for name, value in (("r", 2), ("n", 5), ("entries", ())):
        with pytest.raises(AttributeError):
            setattr(matrix, name, value)
    assert (matrix.r, matrix.n) == (3, 4)
    assert matrix == BandMatrix(r=3, n=4, entries=matrix.entries)
    assert matrix != band_matrix(2, 4)
    assert matrix != (3, 4, matrix.entries)


def test_decreasing_subdiagonal_is_a_different_family():
    increasing = det_bareiss(_band_matrix_with_step(3, 4, 1))
    decreasing = det_bareiss(_band_matrix_with_step(3, 4, -1))
    assert increasing == band_continuant(3, 4)
    assert decreasing != increasing
    assert decreasing == X**4 + 6 * X**3 + 3 * X * X + 8 * X * Y - 6 * X


def test_step_must_only_touch_the_y_subdiagonal():
    # with n < r the two conventions build identical matrices
    for r in range(2, 6):
        for n in range(r):
            assert _band_matrix_with_step(r, n, -1) == band_matrix(r, n)


def test_render_matrix():
    assert render_matrix(band_matrix(2, 2)) == "x\t-1\ny\tx"
    expected = "\n".join(
        [
            "x\t-1\t.\t.",
            "x\tx\t-2\t.",
            "y\tx\tx\t-3",
            ".\ty + 1\tx\tx",
        ]
    )
    assert render_matrix(band_matrix(3, 4)) == expected
    assert render_matrix(band_matrix(2, 0)) == ""
