"""The cross-check engine and its fault-injection hooks."""

from __future__ import annotations

import math

import pytest

from cayleyband import continuants, egf, verify
from cayleyband.algebra import BiPoly, TruncSeries, X
from cayleyband.verify import CheckResult, run_verification, render_report_text

CHECK_NAMES = [
    "base_cases",
    "four_way",
    "factorial_specialization",
    "stirling_specialization",
    "cayley_sign_relation",
    "ode_residual",
    "regular_singular_factorization",
]


def test_clean_run_passes():
    report = run_verification(r_max=3, n_max=6, order=10)
    assert report.ok
    assert [check.name for check in report.checks] == CHECK_NAMES
    assert all(check.status == "pass" for check in report.checks)
    assert all(check.detail == "" for check in report.checks)
    assert report.elapsed_ms > 0


def test_corrupt_entry_fails_four_way():
    report = run_verification(r_max=3, n_max=5, order=8, corrupt=(2, 4, 1, 1))
    assert not report.ok
    failures = [check for check in report.checks if not check.ok]
    assert [check.name for check in failures] == ["four_way"]
    assert failures[0].params == "r=2 n=4"
    assert "recurrence" in failures[0].detail


def test_corrupt_base_case_fails_early_family():
    report = run_verification(r_max=4, n_max=5, order=8, corrupt=(4, 2, 1, 1))
    failures = [check for check in report.checks if not check.ok]
    assert failures
    assert failures[0].name == "base_cases"
    assert failures[0].params == "r=4 n=2"


def test_corrupt_outside_sweep_is_inert():
    report = run_verification(r_max=3, n_max=4, order=8, corrupt=(2, 3, 9, 9))
    assert report.ok


def test_decreasing_convention_fails_four_way():
    report = run_verification(r_max=3, n_max=5, order=8, subdiagonal_step=-1)
    failures = [check for check in report.checks if not check.ok]
    assert [check.name for check in failures] == ["four_way"]
    assert failures[0].params == "r=2 n=3"
    assert "determinant" in failures[0].detail


def test_faulty_cycle_walk_fails_the_enumeration_checks(monkeypatch):
    # Every scan goes through continuants._cycle_lengths, so a walk that
    # loses a cycle must be caught by both checks that enumerate S_n, and
    # by no other.
    walk = continuants._cycle_lengths

    def drops_last_cycle(perm):
        lengths = walk(perm)
        return lengths[:-1] if len(perm) > 2 else lengths

    monkeypatch.setattr(continuants, "_cycle_lengths", drops_last_cycle)
    report = run_verification(r_max=3, n_max=5, order=8)
    failed = [check.name for check in report.checks if not check.ok]
    assert failed == ["four_way", "regular_singular_factorization"]
    assert sum(check.ok for check in report.checks) == 5


def test_each_permutation_is_walked_once_per_r(monkeypatch):
    # The harness scans each (r, n) once and shares the scan between the
    # checks that compare with the enumeration.
    walk = continuants._cycle_lengths
    walked = []

    def counting_walk(perm):
        walked.append(1)
        return walk(perm)

    monkeypatch.setattr(continuants, "_cycle_lengths", counting_walk)
    assert run_verification(r_max=3, n_max=5, order=8).ok
    assert len(walked) == 2 * sum(math.factorial(n) for n in range(6))


def _miscount_falling_factorial(monkeypatch):
    falling = continuants.falling_factorial
    monkeypatch.setattr(
        continuants, "falling_factorial", lambda m, k: falling(m, k) + ((m, k) == (3, 1))
    )


def _flip_t_to_the_r(monkeypatch):
    # Count t^r in the regular logarithm as if r did not divide r.
    build = egf.build_basis

    def flipped(r, order):
        regular_log, singular_log = build(r, order)
        if order < r:
            return regular_log, singular_log
        regular = list(regular_log.coefficients)
        singular = list(singular_log.coefficients)
        regular[r], singular[r] = singular[r], regular[r]
        return TruncSeries(regular), TruncSeries(singular)

    monkeypatch.setattr(egf, "build_basis", flipped)


def _off_by_one_division(monkeypatch):
    divide = BiPoly.exact_div

    def off_by_one(self, divisor):
        quotient = divide(self, divisor)
        return quotient + 1 if len(divisor.sorted_terms()) > 1 else quotient

    monkeypatch.setattr(BiPoly, "exact_div", off_by_one)


@pytest.mark.parametrize(
    "mutate, failing",
    [
        (
            _miscount_falling_factorial,
            [
                "four_way",
                "factorial_specialization",
                "stirling_specialization",
                "cayley_sign_relation",
                "regular_singular_factorization",
            ],
        ),
        (_flip_t_to_the_r, ["four_way", "ode_residual", "regular_singular_factorization"]),
        (_off_by_one_division, ["four_way"]),
    ],
    ids=["recurrence", "egf", "bareiss"],
)
def test_a_faulty_route_fails_the_checks_that_read_it(monkeypatch, mutate, failing):
    mutate(monkeypatch)
    report = run_verification(r_max=3, n_max=5, order=8)
    assert [check.name for check in report.checks if not check.ok] == failing


def _bump_table_entry(n):
    def mutate(monkeypatch):
        build = verify.band_continuants

        def bumped(r, n_max):
            table = build(r, n_max)
            if r == 2:
                table[n] = table[n] + 1
            return table

        monkeypatch.setattr(verify, "band_continuants", bumped)

    return mutate


def _leibniz_wrong_at_8(monkeypatch):
    leibniz = verify.det_leibniz
    monkeypatch.setattr(verify, "det_leibniz", lambda m: leibniz(m) + int(m.n == 8))


def _bump_regular_log_t1(monkeypatch):
    build = egf.build_basis

    def bumped(r, order):
        regular_log, singular_log = build(r, order)
        if r != 2 or order < 1:
            return regular_log, singular_log
        regular = list(regular_log.coefficients)
        regular[1] = regular[1] + 1
        return TruncSeries(regular), singular_log

    monkeypatch.setattr(egf, "build_basis", bumped)


class _StrayTopTermExp(TruncSeries):
    """exp() is right except for an extra x in its top coefficient."""

    def exp(self):
        coefficients = list(super().exp().coefficients)
        coefficients[-1] = coefficients[-1] + X
        return TruncSeries(coefficients)


def _stray_degree_one_term_in_exp_a(monkeypatch):
    # Only the exp(A) that factorization_check takes is wrong: egf_series
    # scales A first, which yields a plain TruncSeries.  The constant term
    # is unchanged, so only the stray x itself can reject the coefficient.
    build = egf.build_basis

    def stray(r, order):
        regular_log, singular_log = build(r, order)
        return _StrayTopTermExp(regular_log.coefficients), singular_log

    monkeypatch.setattr(egf, "build_basis", stray)


@pytest.mark.parametrize(
    "mutate, failing",
    [
        (
            _bump_table_entry(0),
            [
                ("base_cases", "r=2 n=0"),
                ("four_way", "r=2 n=0"),
                ("factorial_specialization", "r=2 n=0"),
                ("stirling_specialization", "r=2 n=0"),
                ("cayley_sign_relation", "n=0"),
                ("regular_singular_factorization", "r=2 n=0..8"),
            ],
        ),
        (
            _bump_table_entry(1),
            [
                ("base_cases", "r=2 n=1"),
                ("four_way", "r=2 n=1"),
                ("factorial_specialization", "r=2 n=1"),
                ("stirling_specialization", "r=2 n=1"),
                ("cayley_sign_relation", "n=1"),
                ("regular_singular_factorization", "r=2 n=0..8"),
            ],
        ),
        (
            _bump_table_entry(4),
            [
                ("four_way", "r=2 n=4"),
                ("factorial_specialization", "r=2 n=4"),
                ("stirling_specialization", "r=2 n=4"),
                ("cayley_sign_relation", "n=4"),
                ("regular_singular_factorization", "r=2 n=0..8"),
            ],
        ),
        (_leibniz_wrong_at_8, [("four_way", "r=2 n=8")]),
        (
            _bump_regular_log_t1,
            [
                ("four_way", "r=2 n=1"),
                ("ode_residual", "r=2 order=30"),
                ("regular_singular_factorization", "r=2 n=0..8"),
            ],
        ),
        (_stray_degree_one_term_in_exp_a, [("regular_singular_factorization", "r=2 n=0..8")]),
    ],
    ids=["table-n0", "table-n1", "table-n4", "leibniz-n8", "egf-t1", "exp-a-stray-term"],
)
def test_a_fault_at_a_sweep_edge_fails_exactly_there(monkeypatch, mutate, failing):
    # Each fault sits at one extreme of a check's sweep, so a check whose
    # loop skipped that point would pass and drop out of the list.
    mutate(monkeypatch)
    report = run_verification(r_max=5, n_max=8, order=30)
    assert [(check.name, check.params) for check in report.checks if not check.ok] == failing


def test_report_dict_shape():
    report = run_verification(r_max=2, n_max=3, order=5)
    payload = report.to_dict()
    assert payload["ok"] is True
    assert isinstance(payload["elapsed_ms"], int)
    assert [entry["name"] for entry in payload["checks"]] == CHECK_NAMES
    for entry in payload["checks"]:
        assert set(entry) == {"name", "params", "status", "detail"}
        assert entry["status"] == "pass"


def test_text_rendering():
    report = run_verification(r_max=2, n_max=3, order=5)
    text = render_report_text(report)
    lines = text.splitlines()
    assert len(lines) == len(CHECK_NAMES) + 1
    for name in CHECK_NAMES:
        assert name in text
    assert lines[-1].startswith("verification PASS")

    bad = run_verification(r_max=2, n_max=4, order=5, corrupt=(2, 4, 2, 2))
    bad_text = render_report_text(bad)
    assert "fail" in bad_text
    assert bad_text.splitlines()[-1].startswith("verification FAIL")


def test_runs_are_deterministic():
    first = run_verification(r_max=3, n_max=4, order=6)
    second = run_verification(r_max=3, n_max=4, order=6)
    assert first.checks == second.checks


def test_parameter_validation():
    with pytest.raises(ValueError):
        run_verification(r_max=1)
    with pytest.raises(ValueError):
        run_verification(n_max=-1)
    with pytest.raises(ValueError):
        run_verification(order=0)
    with pytest.raises(ValueError):
        run_verification(subdiagonal_step=2)


def test_check_result_ok_property():
    assert CheckResult("x", "p", "pass").ok
    assert not CheckResult("x", "p", "fail", "boom").ok
