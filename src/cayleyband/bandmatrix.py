"""The (1, r-1) band matrix whose determinant is the band continuant V(r, n),
with two independent exact determinant algorithms.

Writing entries 1-indexed, the matrix has

* first superdiagonal -1, -2, ..., -(n-1),
* the main diagonal and the r-2 subdiagonals below it all equal to x,
* the (r-1)-st subdiagonal equal to y, y+1, ..., y+n-r (absent when n < r),
* zero everywhere else.

The subdiagonal runs upward (entry (i, i-r+1) is y + i - r): that is the only
sign convention consistent with both the r-term recurrence and the cycle
statistics of S_n, which the regression tests pin down at r = 3, n = 4.

``det_leibniz`` is the small-n oracle (signed permutation expansion);
``det_bareiss`` is the scalable fraction-free elimination whose pivot
divisions are exact in the polynomial ring.  Both skip structural zeros
without knowing r or the band shape: Leibniz builds only the permutations
that avoid every zero entry, and Bareiss leaves a row alone at a step whose
pivot column it has a zero in, scaling it up to date only when it is next
used.
"""

from __future__ import annotations

from ._validate import InputError, require_band_parameter, require_int
from .algebra import ONE, X, Y, ZERO, BiPoly, poly_sum

# Leibniz costs one product per permutation that avoids every zero entry.
# A dense matrix has n! of them, which stops being instant beyond 8; Bareiss
# covers larger n.
LEIBNIZ_LIMIT = 8


class ZeroPivotError(RuntimeError):
    """A diagonal pivot vanished during elimination.

    The canonical band matrices cannot trigger this (their leading principal
    minors are nonzero polynomials), so it indicates a faulty matrix or an
    implementation bug.
    """


class BandMatrix:
    """Immutable n x n matrix of polynomials with band parameter r."""

    __slots__ = ("r", "n", "entries")

    def __init__(self, r: int, n: int, entries: tuple[tuple[BiPoly, ...], ...]) -> None:
        require_band_parameter(r)
        require_int(n, 0, "matrix dimension n must be a nonnegative integer, got {!r}")
        if len(entries) != n:
            raise ValueError(f"matrix has {len(entries)} rows, expected n = {n}")
        for i, row in enumerate(entries, start=1):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} entries, expected n = {n}")
            for j, entry in enumerate(row, start=1):
                if not isinstance(entry, BiPoly):
                    raise ValueError(f"entry ({i}, {j}) must be a BiPoly, got {entry!r}")
        for name, value in zip(self.__slots__, (r, n, entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable BandMatrix")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable BandMatrix")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.n, self.entries) == (other.r, other.n, other.entries)

    def __repr__(self) -> str:
        return f"BandMatrix(r={self.r!r}, n={self.n!r}, entries={self.entries!r})"


def band_matrix(r: int, n: int) -> BandMatrix:
    """Build the canonical band matrix for parameters r >= 2 and n >= 0.

    For n < r the y-subdiagonal rule never fires and the result is the
    truncated all-x lower triangle whose determinant is the rising
    factorial x^(n).
    """
    return _band_matrix_with_step(r, n, 1)


def _band_matrix_with_step(r: int, n: int, step: int) -> BandMatrix:
    # step = +1 is the canonical convention; -1 builds the decreasing
    # variant (y, y-1, ...) that regression tests prove wrong.
    require_band_parameter(r)
    require_int(n, 0, "matrix dimension n must be a nonnegative integer, got {!r}")
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == i + 1:
                entry = BiPoly.constant(-i)
            elif 0 <= i - j <= r - 2:
                entry = X
            elif i - j == r - 1:
                entry = Y + step * (i - r)
            else:
                entry = ZERO
            row.append(entry)
        rows.append(tuple(row))
    return BandMatrix(r=r, n=n, entries=tuple(rows))


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = 0
    for a in range(len(perm)):
        pa = perm[a]
        for b in range(a + 1, len(perm)):
            if pa > perm[b]:
                inversions += 1
    return -1 if inversions & 1 else 1


def det_leibniz(matrix: BandMatrix) -> BiPoly:
    """Determinant by signed permutation expansion (oracle, n <= 8).

    The permutations are built row by row from each row's nonzero columns,
    so only those whose entries are all nonzero are ever generated; the
    others contribute nothing.  The empty matrix has determinant 1.
    """
    n = matrix.n
    if n > LEIBNIZ_LIMIT:
        raise InputError(f"permutation expansion is limited to n <= {LEIBNIZ_LIMIT}, got {n}")
    entries = matrix.entries
    perms: list[tuple[int, ...]] = [()]
    for row in entries:
        columns = [j for j, entry in enumerate(row) if not entry.is_zero]
        perms = [perm + (j,) for perm in perms for j in columns if j not in perm]

    def signed_products():
        for perm in perms:
            term = ONE
            for i, j in enumerate(perm):
                term = term * entries[i][j]
            yield _permutation_sign(perm), (0, 0), term

    return poly_sum(signed_products())


def det_bareiss(matrix: BandMatrix) -> BiPoly:
    """Determinant by fraction-free Bareiss elimination.

    Each update divides by the previous pivot; by Sylvester's identity every
    entry after step k is a minor of order k + 1 of the matrix, so the
    division is exact in the polynomial ring, which exact_div enforces.  No
    pivoting is performed: the diagonal of the canonical matrices is built
    from x and stays nonzero, and a vanishing pivot raises ZeroPivotError.

    Scaling is lazy.  A step would only multiply a row with a zero in the
    pivot column by the new pivot and divide it by the old one, so such a
    row is left as it is, and the zero tests read it as it stands (a zero
    stays a zero under that scaling).  Each row remembers the step it was
    last brought up to date at, with the pivot d_a it was scaled against.
    When it is next used at step k it catches up in one exact division,
    again of a minor: (p_k*R[j] - L*row_k[j]) / d_a for an update by pivot
    p_k, and (R[j]*d_k) / d_a for the pivot row and the last row.
    """
    n = matrix.n
    if n == 0:
        return ONE
    grid = [list(row) for row in matrix.entries]
    # pivots[k] divides the updates of step k (pivots[0] = 1); row i was last
    # brought up to date at step level[i].
    pivots = [ONE]
    level = [0] * n
    for k in range(n - 1):
        row_k = grid[k]
        if row_k[k].is_zero:
            raise ZeroPivotError(f"zero pivot at elimination step {k + 1}")
        if level[k] < k:
            for j in range(k, n):
                row_k[j] = (row_k[j] * pivots[k]).exact_div(pivots[level[k]])
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = grid[i]
            lower = row_i[k]
            if lower.is_zero:
                continue
            stale = pivots[level[i]]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - lower * row_k[j]).exact_div(stale)
            level[i] = k + 1
        pivots.append(pivot)
    last = grid[n - 1][n - 1]
    if level[n - 1] < n - 1:
        last = (last * pivots[n - 1]).exact_div(pivots[level[n - 1]])
    return last


def render_matrix(matrix: BandMatrix) -> str:
    """Tab-separated text rendering, one row per line, zeros shown as '.'."""
    return "\n".join(
        "\t".join("." if entry.is_zero else str(entry) for entry in row)
        for row in matrix.entries
    )
