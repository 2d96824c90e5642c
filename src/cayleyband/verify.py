"""Cross-verification of the four independent computation routes.

Each check family is a generator over the r and n ranges that
``run_verification`` builds once, yielding each failing parameter point
with a human-readable detail line.  ``_sweep`` reports it as a single
result: the first failure, or a pass whose params name those same ranges.
The families are deliberately redundant.  The recurrence, the two
determinant algorithms, the permutation enumeration, and the generating
function share no code beyond the polynomial arithmetic, so agreement
across all of them is strong evidence that each one is right.

``run_verification`` scans each (r, n) up to the enumeration limit once and
shares the scans across checks, as it shares the recurrence tables;
comparing a route with the enumeration is the harness's job alone.

``run_verification`` also carries two undocumented fault-injection knobs
used by the test suite: ``corrupt`` bumps one matrix entry by 1, and
``subdiagonal_step=-1`` builds every matrix with the decreasing variant of
the y-subdiagonal.  Both must make the determinant checks fail; if they do
not, the checks themselves are broken.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from typing import NamedTuple

from ._validate import InputError, require_int
from .algebra import ONE, X, Y
from .bandmatrix import (
    LEIBNIZ_LIMIT,
    BandMatrix,
    _band_matrix_with_step,
    band_matrix,
    det_bareiss,
    det_leibniz,
)
from .continuants import (
    BRUTE_FORCE_LIMIT,
    band_continuants,
    cayley_continuant,
    cycle_distribution_bruteforce,
    rising_factorial,
)
from .egf import egf_coefficients, factorization_check, ode_residual


class CheckResult(NamedTuple):
    name: str
    params: str
    status: str  # "pass" or "fail"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


class VerifyReport(NamedTuple):
    checks: tuple[CheckResult, ...] = ()
    elapsed_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "elapsed_ms": round(self.elapsed_ms),
            "checks": [
                {
                    "name": check.name,
                    "params": check.params,
                    "status": check.status,
                    "detail": check.detail,
                }
                for check in self.checks
            ],
        }


def _corrupted(matrix: BandMatrix, i: int, j: int) -> BandMatrix:
    rows = [list(row) for row in matrix.entries]
    rows[i - 1][j - 1] = rows[i - 1][j - 1] + ONE
    return BandMatrix(r=matrix.r, n=matrix.n, entries=tuple(tuple(row) for row in rows))


def run_verification(
    r_max: int = 5,
    n_max: int = 9,
    order: int = 30,
    corrupt: tuple[int, int, int, int] | None = None,
    subdiagonal_step: int = 1,
) -> VerifyReport:
    """Run every check family and collect the results.

    r_max bounds the band parameter sweep (inclusive, from 2), n_max the
    matrix dimension sweep, and order the series truncation used for the
    ODE residual.  corrupt=(r, n, i, j) adds 1 to the (i, j) entry of the
    matrix built for that single parameter point, 1-indexed.
    """
    require_int(r_max, 2, "r_max must be an integer >= 2, got {!r}")
    require_int(n_max, 0, "n_max must be a nonnegative integer, got {!r}")
    require_int(order, 1, "order must be an integer >= 1, got {!r}")
    if isinstance(subdiagonal_step, bool) or subdiagonal_step not in (1, -1):
        raise InputError(f"subdiagonal_step must be 1 or -1, got {subdiagonal_step!r}")
    if corrupt is not None:
        if not (isinstance(corrupt, tuple) and len(corrupt) == 4):
            raise InputError(f"corrupt must be a tuple (r, n, i, j) of four integers, got {corrupt!r}")
        for name, value, minimum in zip("rnij", corrupt, (2, 0, 1, 1)):
            require_int(value, minimum, f"corrupt {name} must be an integer >= {minimum}, got {{!r}}")

    def make_matrix(r: int, n: int) -> BandMatrix:
        matrix = band_matrix(r, n) if subdiagonal_step == 1 else _band_matrix_with_step(r, n, -1)
        if corrupt is not None:
            target_r, target_n, i, j = corrupt
            if (r, n) == (target_r, target_n) and i <= n and j <= n:
                matrix = _corrupted(matrix, i, j)
        return matrix

    started = time.perf_counter()
    rs, ns = range(2, r_max + 1), range(n_max + 1)
    tables = {r: band_continuants(r, n_max) for r in rs}
    scans = {r: [cycle_distribution_bruteforce(r, n) for n in ns[: BRUTE_FORCE_LIMIT + 1]] for r in rs}
    r_span, n_span = f"r={rs[0]}..{rs[-1]}", f"n={ns[0]}..{ns[-1]}"
    span = f"{r_span} {n_span}"
    checks = (
        _sweep("base_cases", f"{r_span} n<r", _check_base_cases(rs, ns, tables, make_matrix)),
        _sweep("four_way", span, _check_four_way(rs, ns, tables, scans, make_matrix)),
        _sweep("factorial_specialization", f"{span} at x=1 y=1", _check_factorial(rs, ns, tables)),
        _sweep("stirling_specialization", f"{span} at y=x", _check_stirling(rs, ns, tables)),
        _sweep("cayley_sign_relation", n_span, _check_cayley_sign(ns, tables)),
        _sweep("ode_residual", f"{r_span} order={order}", _check_ode_residual(rs, order)),
        _sweep("regular_singular_factorization", span, _check_factorization(rs, ns, tables, scans)),
    )
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return VerifyReport(checks=checks, elapsed_ms=elapsed_ms)


def _sweep(name: str, params: str, failures: Iterator[tuple[str, str]]) -> CheckResult:
    """The first (params, detail) that failures yields, or a pass over params."""
    for point, detail in failures:
        return CheckResult(name, point, "fail", detail)
    return CheckResult(name, params, "pass")


def _check_base_cases(rs, ns, tables, make_matrix) -> Iterator[tuple[str, str]]:
    """Below the bandwidth the polynomial must be the rising factorial."""
    for r in rs:
        for n in ns[:r]:
            expected = rising_factorial(n)
            if tables[r][n] != expected:
                yield f"r={r} n={n}", f"recurrence gives {tables[r][n]}, rising factorial is {expected}"
            determinant = det_bareiss(make_matrix(r, n))
            if determinant != expected:
                yield f"r={r} n={n}", f"determinant gives {determinant}, rising factorial is {expected}"


def _check_four_way(rs, ns, tables, scans, make_matrix) -> Iterator[tuple[str, str]]:
    """All four computation routes must produce the same polynomial."""
    for r in rs:
        egf_table = egf_coefficients(r, ns[-1])
        for n in ns:
            expected = tables[r][n]
            matrix = make_matrix(r, n)
            candidates = [
                ("bareiss determinant", det_bareiss(matrix)),
                ("egf coefficient", egf_table[n]),
            ]
            if n <= LEIBNIZ_LIMIT:
                candidates.append(("leibniz determinant", det_leibniz(matrix)))
            if n < len(scans[r]):
                candidates.append(("cycle enumeration", scans[r][n]))
            for label, value in candidates:
                if value != expected:
                    yield f"r={r} n={n}", f"{label} gives {value}, recurrence gives {expected}"


def _check_factorial(rs, ns, tables) -> Iterator[tuple[str, str]]:
    """At x=1, y=1 every permutation counts once, so the value is n!."""
    for r in rs:
        for n in ns:
            value = tables[r][n].evaluate(1, 1)
            if value != math.factorial(n):
                yield f"r={r} n={n}", f"value at x=1 y=1 is {value}, expected {math.factorial(n)}"


def _check_stirling(rs, ns, tables) -> Iterator[tuple[str, str]]:
    """Setting y=x merges the two statistics into the total cycle count,
    whose distribution over S_n is the rising factorial."""
    expected = [rising_factorial(n) for n in ns]
    for r in rs:
        for n in ns:
            merged = tables[r][n].substitute(X, X)
            if merged != expected[n]:
                yield f"r={r} n={n}", f"value at y=x is {merged}, expected {expected[n]}"


def _check_cayley_sign(ns, tables) -> Iterator[tuple[str, str]]:
    """The classical three-term continuant matches r=2 after y -> -y."""
    for n in ns:
        flipped = cayley_continuant(n).substitute(X, -Y)
        if flipped != tables[2][n]:
            yield f"n={n}", f"classical continuant at -y is {flipped}, band polynomial is {tables[2][n]}"


def _check_ode_residual(rs, order) -> Iterator[tuple[str, str]]:
    for r in rs:
        for power, coefficient in enumerate(ode_residual(r, order).coefficients):
            if not coefficient.is_zero:
                yield f"r={r} order={order}", f"residual coefficient of t^{power} is {coefficient}"


def _check_factorization(rs, ns, tables, scans) -> Iterator[tuple[str, str]]:
    """exp of each logarithm piece counts one pure class, as do the
    recurrence and the enumeration read at x=1, y=0 and at x=0, y=1."""
    for r in rs:
        scan_agrees = all(
            scan.evaluate(*point) == tables[r][n].evaluate(*point)
            for n, scan in enumerate(scans[r])
            for point in ((1, 0), (0, 1))
        )
        if not (factorization_check(r, ns[-1]) and scan_agrees):
            yield (
                f"r={r} n={ns[0]}..{ns[-1]}",
                "pure-class counts from exp of a single logarithm piece disagree",
            )


def render_report_text(report: VerifyReport) -> str:
    """Plain-text rendering: one line per check, verdict line last."""
    lines = []
    for check in report.checks:
        line = f"{check.status:>4}  {check.name}  [{check.params}]"
        if check.detail:
            line += f"  {check.detail}"
        lines.append(line)
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(f"verification {verdict} ({len(report.checks)} checks, {report.elapsed_ms:.1f} ms)")
    return "\n".join(lines)
