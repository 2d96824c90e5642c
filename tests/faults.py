"""Matrix faults that the verification harness must catch.

``run_verification`` builds every matrix through the name
``verify.band_matrix``.  Each builder here can stand in for it, and the
determinant checks must then fail; if they do not, the checks are broken.
"""

from __future__ import annotations

from cayleyband.algebra import ONE
from cayleyband.bandmatrix import BandMatrix, _band_matrix_with_step, band_matrix


def bumped_entry(r: int, n: int, i: int, j: int):
    """A band_matrix that adds 1 to entry (i, j), 1-indexed, of the (r, n)
    matrix only.  It changes nothing when i or j is greater than n."""

    def build(r_built: int, n_built: int) -> BandMatrix:
        matrix = band_matrix(r_built, n_built)
        if (r_built, n_built) != (r, n) or i > n or j > n:
            return matrix
        rows = [list(row) for row in matrix.entries]
        rows[i - 1][j - 1] += ONE
        return BandMatrix(r=r, n=n, entries=tuple(map(tuple, rows)))

    return build


def decreasing_subdiagonal(r: int, n: int) -> BandMatrix:
    """A band_matrix whose y subdiagonal decreases down the rows."""
    return _band_matrix_with_step(r, n, -1)
