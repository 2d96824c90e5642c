"""Command line behavior: output formats and exit codes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from faults import bumped_entry, decreasing_subdiagonal

from cayleyband import egf, verify
from cayleyband.algebra import BiPoly, TruncSeries
from cayleyband.cli import canonical_json, main, polynomial_json
from cayleyband.continuants import band_continuant, band_continuants, cayley_continuant


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_table_text(capsys):
    code, out = run_cli(capsys, "table", "--r", "2", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["1", "x", "x^2 + y"]
    assert lines[4] == "x^4 + 6*x^2*y + 8*x^2 + 3*y^2 + 6*y"


def test_table_text_below_bandwidth(capsys):
    code, out = run_cli(capsys, "table", "--r", "4", "--n-max", "3")
    assert code == 0
    assert out.splitlines()[-1] == "x^3 + 3*x^2 + 2*x"


def test_table_json_roundtrip(capsys):
    code, out = run_cli(capsys, "table", "--r", "3", "--n-max", "5", "--format", "json")
    assert code == 0
    raw = out.strip()
    payload = json.loads(raw)
    assert canonical_json(payload) == raw
    assert [entry["n"] for entry in payload] == list(range(6))
    assert all(entry["r"] == 3 for entry in payload)
    # n=3 row carries the exact terms in canonical order
    assert payload[3]["terms"] == [
        {"dx": 3, "dy": 0, "c": "1"},
        {"dx": 2, "dy": 0, "c": "3"},
        {"dx": 0, "dy": 1, "c": "2"},
    ]
    # One and two rows: the edges of the row-by-row writer.
    for n_max in (0, 1):
        code, out = run_cli(capsys, "table", "--r", "4", "--n-max", str(n_max), "--format", "json")
        assert code == 0 and out.endswith("]\n")
        payload = json.loads(out)
        assert canonical_json(payload) + "\n" == out
        assert [(entry["r"], entry["n"]) for entry in payload] == [(4, n) for n in range(n_max + 1)]


def test_polynomial_json_matches_polynomial():
    poly = band_continuant(2, 4)
    text = polynomial_json(2, 4, poly)
    payload = json.loads(text)
    assert canonical_json(payload) == text
    assert payload["r"] == 2 and payload["n"] == 4
    rebuilt = {(t["dx"], t["dy"]): int(t["c"]) for t in payload["terms"]}
    assert {e: int(c) for e, c in poly.sorted_terms()} == rebuilt


def dict_polynomial_json(r: int, n: int, poly: BiPoly) -> str:
    """The reference: the row as dicts, serialized by compact json.dumps."""
    terms = [{"dx": dx, "dy": dy, "c": str(c)} for (dx, dy), c in poly.sorted_terms()]
    return json.dumps({"r": r, "n": n, "terms": terms}, separators=(",", ":"))


def test_polynomial_json_is_the_dumps_of_its_dict():
    cases = [
        (2, 7, cayley_continuant(7)),  # negative coefficients
        (3, 1, BiPoly({(4, 1): 2**70, (0, 0): -(2**70) + 1})),
        (2, 0, BiPoly()),
    ]
    cases += [(r, n, poly) for r in range(2, 6) for n, poly in enumerate(band_continuants(r, 12))]
    for r, n, poly in cases:
        assert polynomial_json(r, n, poly) == dict_polynomial_json(r, n, poly)
    assert polynomial_json(2, 0, BiPoly()) == '{"r":2,"n":0,"terms":[]}'


def test_polynomial_json_rejects_a_non_integer_coefficient():
    # The non-integral term is not the leading one: the guard must look at
    # every term.
    poly = BiPoly({(2, 0): 5, (1, 0): Fraction(3, 2)})
    with pytest.raises(ValueError) as excinfo:
        polynomial_json(2, 2, poly)
    assert str(excinfo.value) == "cannot serialize non-integer coefficient 3/2"


def test_matrix_output(capsys):
    code, out = run_cli(capsys, "matrix", "--r", "2", "--n", "2")
    assert code == 0
    assert out == "x\t-1\ny\tx\n"

    code, out = run_cli(capsys, "matrix", "--r", "3", "--n", "4")
    assert code == 0
    assert out.splitlines()[3] == ".\ty + 1\tx\tx"


def test_matrix_empty(capsys):
    code, out = run_cli(capsys, "matrix", "--r", "2", "--n", "0")
    assert code == 0
    assert out == ""


def test_sequence_factorials(capsys):
    code, out = run_cli(capsys, "sequence", "--r", "3", "--n-max", "5")
    assert code == 0
    assert out.splitlines() == ["1", "1", "2", "6", "24", "120"]


def test_sequence_counting_specializations(capsys):
    _, out = run_cli(capsys, "sequence", "--r", "2", "--x", "1", "--y", "0", "--n-max", "4")
    assert out.splitlines() == ["1", "1", "1", "3", "9"]
    _, out = run_cli(capsys, "sequence", "--r", "2", "--x", "0", "--y", "1", "--n-max", "4")
    assert out.splitlines() == ["1", "0", "1", "0", "9"]


def test_sequence_rational_point(capsys):
    _, out = run_cli(capsys, "sequence", "--r", "2", "--x", "1/2", "--y", "1", "--n-max", "2")
    assert out.splitlines()[2] == "5/4"


def test_verify_passes(capsys):
    code, out = run_cli(capsys, "verify", "--r-max", "3", "--n-max", "5", "--order", "8")
    assert code == 0
    assert "verification PASS (7 checks" in out


def test_verify_json(capsys):
    code, out = run_cli(
        capsys, "verify", "--r-max", "2", "--n-max", "4", "--order", "6", "--format", "json"
    )
    assert code == 0
    raw = out.strip()
    payload = json.loads(raw)
    assert canonical_json(payload) == raw
    assert payload["ok"] is True


def test_verify_degenerate_sweep(capsys):
    code, out = run_cli(capsys, "verify", "--r-max", "2", "--n-max", "0", "--order", "1")
    assert code == 0
    assert "verification PASS" in out


def test_verify_corrupt_hook(monkeypatch, capsys):
    monkeypatch.setattr(verify, "band_matrix", bumped_entry(2, 4, 1, 1))
    code, out = run_cli(capsys, "verify", "--r-max", "3", "--n-max", "5", "--order", "8")
    assert code == 1
    assert "four_way" in out
    assert "r=2 n=4" in out


def test_verify_convention_hook(monkeypatch, capsys):
    monkeypatch.setattr(verify, "band_matrix", decreasing_subdiagonal)
    code, out = run_cli(capsys, "verify", "--r-max", "3", "--n-max", "5", "--order", "8")
    assert code == 1
    assert "four_way" in out
    assert "r=2 n=3" in out


def test_verify_help_lists_exactly_its_options(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--help"])
    assert excinfo.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--r-max", "--n-max", "--order", "--format"}


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--r", "1"],
        ["table", "--r", "two"],
        ["table", "--r", "2", "--n-max", "-3"],
        ["matrix", "--r", "2"],
        ["matrix", "--r", "2", "--n", "-1"],
        ["sequence", "--r", "2", "--x", "foo"],
        ["sequence", "--r", "2", "--x", "1/0"],
        ["verify", "--r-max", "0"],
        ["verify", "--order", "0"],
        # verify takes no fault-injection flags
        ["verify", "--corrupt", "1,2,3"],
        ["verify", "--corrupt", "a,b,c,d"],
        ["verify", "--corrupt", "1,2,3,4"],
        ["verify", "--subdiagonal-step", "2"],
        ["bogus"],
        [],
        ["sequence", "--r", "2", "--n-max", "-1"],
        ["verify", "--n-max", "-1"],
        ["sequence", "--r", "1"],
        ["table", "--r", "3", "--n-max", "-1"],
    ],
)
def test_malformed_invocations_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_out_of_range_input_reports_the_library_message(capsys):
    # table and sequence stream their rows, yet still fail before the first.
    r_message = "band parameter r must be an integer >= 2, got 1"
    for argv, message in (
        (["matrix", "--r", "1", "--n", "3"], r_message),
        (["table", "--r", "1"], r_message),
        (["sequence", "--r", "1"], r_message),
        (["table", "--r", "3", "--n-max", "-1"], "n_max must be a nonnegative integer, got -1"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")


def test_integers_past_4300_digits_are_printed(capsys):
    # CPython's int -> str cap guards argument parsing only: main lifts it
    # while the handler prints and restores it afterwards.
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "sequence", "--r", "2", "--x", "1e100", "--y", "0", "--n-max", "50")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 51
    assert max(map(len, lines)) == 5001
    assert sys.get_int_max_str_digits() == limit
    with pytest.raises(SystemExit) as excinfo:
        main(["sequence", "--r", "2", "--x", "1" * 4301])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--x", "1e999999999"],
        ["--y", "1e-999999999"],
        ["--x", "1e4301"],
        ["--x", "1e" + "9" * 5000],
        ["--x", "1E+4301"],
        ["--y=-1e-4_301"],
        ["--x", "1e04301"],
    ],
)
def test_a_large_exponent_is_refused_at_once(capsys, argv):
    started = time.perf_counter()
    with pytest.raises(SystemExit) as excinfo:
        main(["sequence", "--r", "2", *argv])
    assert time.perf_counter() - started < 1.0
    assert excinfo.value.code == 2
    assert "exceeds 4300 in absolute value" in capsys.readouterr().err


def test_the_largest_exponent_is_accepted(capsys):
    code, out = run_cli(capsys, "sequence", "--r", "2", "--x", "1e4300", "--n-max", "2")
    assert code == 0
    assert out.splitlines()[1] == "1" + "0" * 4300


@pytest.mark.parametrize(
    ("argv", "lengths"),
    [
        (["--x", "1E+4300"], [1, 4301, 8601]),
        (["--x", "1e4_300"], [1, 4301, 8601]),
        (["--x=-1e4300"], [1, 4302, 8601]),
        (["--y", "1e-4300"], [1, 1, 8603]),
    ],
)
def test_every_exponent_form_at_the_bound_is_read_in_full(capsys, argv, lengths):
    # V(2, 1) = x and V(2, 2) = x**2 + y, printed to the last digit
    code, out = run_cli(capsys, "sequence", "--r", "2", *argv, "--n-max", "2")
    assert code == 0
    assert [len(line) for line in out.splitlines()] == lengths


def test_the_digit_cap_is_restored_when_the_handler_fails(monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as excinfo:
        main(["matrix", "--r", "1", "--n", "3"])
    assert excinfo.value.code == 2
    assert sys.get_int_max_str_digits() == limit

    def broken(*args):
        raise RuntimeError("fault in the computation")

    monkeypatch.setattr("cayleyband.cli.run_verification", broken)
    with pytest.raises(RuntimeError, match="^fault in the computation$"):
        main(["verify"])
    assert sys.get_int_max_str_digits() == limit
    capsys.readouterr()


def test_an_internal_fault_is_not_a_usage_error(monkeypatch, capsys):
    # A regular log with constant term 1 breaks exp() inside the EGF route.
    # That ValueError is a fault in the computation, not in the command
    # line, so it must leave main instead of becoming exit 2.
    build = egf.build_basis

    def shifted(r, order):
        regular_log, singular_log = build(r, order)
        return TruncSeries([1, *regular_log.coefficients[1:]]), singular_log

    monkeypatch.setattr(egf, "build_basis", shifted)
    with pytest.raises(ValueError, match="^series exponential requires a zero constant term$"):
        main(["verify", "--r-max", "2", "--n-max", "3", "--order", "4"])
    assert capsys.readouterr().err == ""


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    # Each CLI process pays for what the package imports; the three result
    # and matrix classes need neither module.
    code = (
        "import sys; before = set(sys.modules); import cayleyband.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
