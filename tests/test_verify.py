"""The cross-check engine and its fault-injection hooks."""

from __future__ import annotations

import pytest

from cayleyband import continuants
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
