"""Release gate: eight end-to-end criteria, each with a wall-clock budget.

Every criterion is checked with exact equality (no tolerances, the
arithmetic is exact).  Each test prints a one-line summary; run with -s to
see the lines on passing runs.  The permutation scans to n = 9 are shared
between criteria 2 and 6 through a module-level cache, and the first test
to need them pays for them inside its own timed window.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from cayleyband.algebra import BiPoly, X, Y
from cayleyband.bandmatrix import (
    _band_matrix_with_step,
    band_matrix,
    det_bareiss,
    det_leibniz,
)
from cayleyband.cli import canonical_json
from cayleyband.continuants import (
    band_continuants,
    cayley_continuant,
    count_regular_permutations,
    count_singular_permutations,
    cycle_distribution_bruteforce,
    rising_factorial,
)
from cayleyband.egf import egf_coefficients, ode_residual

# The tridiagonal family for n = 0..5, frozen as raw exponent/coefficient
# data so the comparison does not lean on the arithmetic under test.
GOLDEN_R2 = [
    BiPoly({(0, 0): 1}),
    BiPoly({(1, 0): 1}),
    BiPoly({(2, 0): 1, (0, 1): 1}),
    BiPoly({(3, 0): 1, (1, 1): 3, (1, 0): 2}),
    BiPoly({(4, 0): 1, (2, 1): 6, (2, 0): 8, (0, 2): 3, (0, 1): 6}),
    BiPoly({(5, 0): 1, (3, 1): 10, (3, 0): 20, (1, 2): 15, (1, 1): 50, (1, 0): 24}),
]

GOLDEN_R2_STRINGS = [
    "1",
    "x",
    "x^2 + y",
    "x^3 + 3*x*y + 2*x",
    "x^4 + 6*x^2*y + 8*x^2 + 3*y^2 + 6*y",
    "x^5 + 10*x^3*y + 20*x^3 + 15*x*y^2 + 50*x*y + 24*x",
]

_BRUTE_TABLES: dict[int, list[BiPoly]] = {}


def brute_table(r: int, n_max: int) -> list[BiPoly]:
    """Enumerated cycle-statistic polynomials, cached across criteria."""
    table = _BRUTE_TABLES.get(r)
    if table is None or len(table) <= n_max:
        table = [cycle_distribution_bruteforce(r, n) for n in range(n_max + 1)]
        _BRUTE_TABLES[r] = table
    return table


def _finish(criterion: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {criterion} blew its budget: {elapsed:.2f}s, allowed {budget:.0f}s"
    )
    print(f"criterion {criterion}: PASS ({label}, {elapsed:.2f}s of {budget:.0f}s)")


def test_criterion_1_golden_polynomials():
    started = time.perf_counter()
    table = band_continuants(2, 5)
    for n in range(6):
        assert table[n] == GOLDEN_R2[n], f"n={n}"
        assert str(table[n]) == GOLDEN_R2_STRINGS[n], f"n={n}"
    _finish(1, "tridiagonal family n=0..5 term for term", started, 1.0)


def test_criterion_2_four_way_oracle_equivalence():
    started = time.perf_counter()
    for r in range(2, 6):
        recurrence = band_continuants(r, 9)
        series = egf_coefficients(r, 9)
        enumerated = brute_table(r, 9)
        for n in range(10):
            matrix = band_matrix(r, n)
            expected = recurrence[n]
            assert det_bareiss(matrix) == expected, f"bareiss r={r} n={n}"
            assert series[n] == expected, f"egf r={r} n={n}"
            assert enumerated[n] == expected, f"enumeration r={r} n={n}"
            if n <= 8:
                assert det_leibniz(matrix) == expected, f"leibniz r={r} n={n}"
    _finish(2, "determinants, recurrence, enumeration, egf all agree", started, 60.0)


def test_criterion_3_base_cases():
    started = time.perf_counter()
    for r in range(2, 7):
        recurrence = band_continuants(r, r - 1)
        for n in range(r):
            expected = rising_factorial(n)
            assert recurrence[n] == expected, f"recurrence r={r} n={n}"
            assert det_bareiss(band_matrix(r, n)) == expected, f"determinant r={r} n={n}"
    _finish(3, "truncated matrices give rising factorials", started, 1.0)


def test_criterion_4_generating_function_agreement():
    started = time.perf_counter()
    for r in range(2, 7):
        assert egf_coefficients(r, 20) == band_continuants(r, 20), f"r={r}"
        assert ode_residual(r, 30).is_zero, f"r={r}"
    _finish(4, "egf matches recurrence to n=20 and solves its ODE", started, 10.0)


def test_criterion_5_sign_relation():
    started = time.perf_counter()
    table = band_continuants(2, 12)
    for n in range(13):
        assert cayley_continuant(n).substitute(X, -Y) == table[n], f"n={n}"
    _finish(5, "classical continuant at -y equals the r=2 family", started, 1.0)


def test_criterion_6_specializations():
    started = time.perf_counter()
    for r in range(2, 7):
        table = band_continuants(r, 12)
        for n in range(13):
            assert table[n].evaluate(1, 1) == math.factorial(n), f"r={r} n={n}"
            assert table[n].substitute(X, X) == rising_factorial(n), f"r={r} n={n}"
    # the two n=4 counts are forced by the frozen golden polynomial
    assert GOLDEN_R2[4].evaluate(1, 0) == 9
    assert GOLDEN_R2[4].evaluate(0, 1) == 9
    assert count_regular_permutations(2, 4) == 9
    assert count_singular_permutations(2, 4) == 9
    for r in range(2, 6):
        enumerated = brute_table(r, 9)
        for n in range(10):
            assert count_regular_permutations(r, n) == enumerated[n].evaluate(1, 0)
            assert count_singular_permutations(r, n) == enumerated[n].evaluate(0, 1)
    for r in range(2, 7):
        for n in range(1, 13):
            if n % r:
                assert count_singular_permutations(r, n) == 0, f"r={r} n={n}"
    _finish(6, "factorial, rising factorial, and counting specializations", started, 60.0)


def test_criterion_7_convention_sensitivity():
    started = time.perf_counter()
    decreasing = det_bareiss(_band_matrix_with_step(3, 4, -1))
    increasing = det_bareiss(_band_matrix_with_step(3, 4, 1))
    enumerated = cycle_distribution_bruteforce(3, 4)
    assert increasing == enumerated
    assert decreasing != enumerated
    _finish(7, "decreasing subdiagonal breaks the agreement at r=3 n=4", started, 1.0)


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cayleyband", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _faulty_cli(point: tuple[int, int, int, int], *argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh process whose verify.band_matrix bumps one entry
    (see faults.bumped_entry), so the exit code is the process's own."""
    script = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
        "from faults import bumped_entry; from cayleyband import cli, verify; "
        f"verify.band_matrix = bumped_entry(*{point!r}); sys.exit(cli.main({list(argv)!r}))"
    )
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )


def test_criterion_8_cli_contract():
    started = time.perf_counter()

    clean = _cli("verify")
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "verification PASS" in clean.stdout

    corrupt = _faulty_cli((2, 4, 1, 1), "verify", "--r-max", "3", "--n-max", "5", "--order", "8")
    assert corrupt.returncode == 1
    assert "four_way" in corrupt.stdout
    assert "r=2 n=4" in corrupt.stdout

    # a different entry (the superdiagonal) must be caught just the same
    corrupt2 = _faulty_cli((3, 4, 3, 4), "verify", "--r-max", "3", "--n-max", "5", "--order", "8")
    assert corrupt2.returncode == 1
    assert "four_way" in corrupt2.stdout
    assert "r=3 n=4" in corrupt2.stdout

    for argv in (
        ("table", "--r", "1"),
        ("verify", "--n-max", "-1"),
        ("sequence", "--r", "2", "--x", "oops"),
    ):
        usage = _cli(*argv)
        assert usage.returncode == 2, argv

    table = _cli("table", "--r", "4", "--n-max", "7", "--format", "json")
    assert table.returncode == 0
    raw = table.stdout.strip()
    assert canonical_json(json.loads(raw)) == raw

    report = _cli("verify", "--r-max", "2", "--n-max", "4", "--order", "6", "--format", "json")
    assert report.returncode == 0
    raw = report.stdout.strip()
    assert canonical_json(json.loads(raw)) == raw

    _finish(8, "exit codes 0/1/2 and byte-stable JSON", started, 60.0)
