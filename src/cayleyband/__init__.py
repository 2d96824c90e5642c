"""Exact computation of band continuant polynomials.

The package computes one two-variable polynomial family by four unrelated
methods (a banded determinant done two ways, an r-term recurrence, direct
enumeration of permutations by cycle statistic, and an exponential
generating function) and ships the machinery to prove they agree.
"""

from .algebra import (
    ONE,
    X,
    Y,
    ZERO,
    BiPoly,
    NonExactDivisionError,
    TruncSeries,
)
from .bandmatrix import (
    LEIBNIZ_LIMIT,
    BandMatrix,
    ZeroPivotError,
    band_matrix,
    det_bareiss,
    det_leibniz,
    render_matrix,
)
from .continuants import (
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
    cycle_type,
    falling_factorial,
    rising_factorial,
)
from .egf import (
    NonIntegerCoefficientError,
    build_basis,
    egf_coefficient,
    egf_coefficients,
    egf_series,
    factorization_check,
    ode_residual,
)
from .verify import (
    CheckResult,
    VerifyReport,
    render_report_text,
    run_verification,
)

__version__ = "0.1.0"

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "BandMatrix",
    "BiPoly",
    "CheckResult",
    "CycleStats",
    "LEIBNIZ_LIMIT",
    "NonExactDivisionError",
    "NonIntegerCoefficientError",
    "ONE",
    "TruncSeries",
    "VerifyReport",
    "X",
    "Y",
    "ZERO",
    "ZeroPivotError",
    "as_permutation",
    "band_continuant",
    "band_continuants",
    "band_matrix",
    "build_basis",
    "cayley_continuant",
    "continuant_rows",
    "count_regular_permutations",
    "count_regular_permutations_bruteforce",
    "count_singular_permutations",
    "count_singular_permutations_bruteforce",
    "cycle_distribution_bruteforce",
    "cycle_stats",
    "cycle_type",
    "det_bareiss",
    "det_leibniz",
    "egf_coefficient",
    "egf_coefficients",
    "egf_series",
    "factorization_check",
    "falling_factorial",
    "ode_residual",
    "render_matrix",
    "render_report_text",
    "rising_factorial",
    "run_verification",
    "__version__",
]
