"""The four benchmark workloads and the oracles their outputs are checked
against.

Every workload is a fixed point of the paper's family at one input size,
plus a tiny ``smoke`` size for the benchmark's own tests.  Each oracle
avoids the route under test: closed forms computed here in plain ints, a
digest recorded at the commit that defined the benchmark
(``reference.json``), or the r-term recurrence for the other routes.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"


@functools.cache
def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


VERIFY_CHECKS = (
    "base_cases",
    "four_way",
    "factorial_specialization",
    "stirling_specialization",
    "cayley_sign_relation",
    "ode_residual",
    "regular_singular_factorization",
)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, tuple[str, ...]]  # "full" / "smoke" -> arguments
    cli: bool  # arguments go to ``python -m cayleyband``, else to routes.py
    check: Callable[[str, tuple[str, ...], str, object], str | None]

    def argv(self, size: str) -> list[str]:
        """Command line of one workload process, after the interpreter."""
        if self.cli:
            return ["-m", "cayleyband", *self.sizes[size]]
        return [str(BENCH_DIR / "routes.py"), *self.sizes[size]]

    def oracle(self, size: str) -> object:
        """Expected results that need the package; computed once per run."""
        if self.cli:
            return None
        import routes

        det_n, egf_n, _ = (int(arg) for arg in self.sizes[size])
        return routes.expected(det_n, egf_n)

    def run_inprocess(self, size: str) -> tuple[int, str]:
        """Exit code and stdout of the same work, run in this process."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if self.cli:
                from cayleyband import cli

                try:
                    code = cli.main(list(self.sizes[size]))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
            else:
                import routes

                print(json.dumps(routes.run(*(int(arg) for arg in self.sizes[size]))))
                code = 0
        return code, out.getvalue()

    def verdict(self, size: str, code: int, stdout: str, oracle: object) -> str | None:
        """None when the output is right, else what is wrong with it."""
        if code != 0:
            return f"exit code {code}"
        return self.check(self.name, self.sizes[size], stdout, oracle)


def _option(args: tuple[str, ...], flag: str, default: str) -> str:
    return args[args.index(flag) + 1] if flag in args else default


def _check_verify(name, args, stdout, oracle) -> str | None:
    report = json.loads(stdout)
    if report.get("ok") is not True:
        return "report is not ok"
    statuses = {check["name"]: check["status"] for check in report["checks"]}
    if statuses != dict.fromkeys(VERIFY_CHECKS, "pass"):
        return f"checks are {statuses}"
    report.pop("elapsed_ms", None)
    if report != _reference()[name][" ".join(args)]:
        return "report differs from the reference"
    return None


def _check_table(name, args, stdout, oracle) -> str | None:
    r = int(_option(args, "--r", ""))
    rows = json.loads(stdout)
    if [row["n"] for row in rows] != list(range(int(_option(args, "--n-max", "8")) + 1)):
        return "wrong set of n"
    for row in rows:
        if row["r"] != r or sum(int(term["c"]) for term in row["terms"]) != math.factorial(row["n"]):
            return f"coefficients of n={row['n']} do not sum to n!"
    if hashlib.sha256(stdout.encode()).hexdigest() != _reference()[name][" ".join(args)]:
        return "stdout digest differs from the reference"
    return None


def a000246(n_max: int) -> list[int]:
    """Permutations of [n] with only odd cycles (OEIS A000246), n = 0..n_max."""
    values = [1, 1]
    for n in range(2, n_max + 1):
        values.append(n * values[n - 1] if n % 2 else (n - 1) ** 2 * values[n - 2])
    return values[: n_max + 1]


def _check_sequence(name, args, stdout, oracle) -> str | None:
    expected = [str(v) for v in a000246(int(_option(args, "--n-max", "8")))]
    got = stdout.split()
    if got != expected:
        bad = next((n for n, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        return f"value at n={bad} is not A000246"
    return None


def _check_routes(name, args, stdout, oracle) -> str | None:
    got = json.loads(stdout)
    wrong = [key for key in oracle if got.get(key) != oracle[key]]
    return f"{', '.join(wrong)} disagree with the recurrence" if wrong else None


# Why each workload was chosen is in BENCHMARK.json and README.md.  Each
# full-size process takes 1 to 2 s on a 2-core shared machine: long enough
# that start-up is a small share of it, short enough that a run holds ten or
# more of them (see README.md for why the defaults' 5 to 8 s were too long).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-default",
            {"full": ("verify", "--n-max", "8", "--format", "json"),
             "smoke": ("verify", "--r-max", "3", "--n-max", "5", "--order", "8", "--format", "json")},
            True,
            _check_verify,
        ),
        Workload(
            "table-deep",
            {"full": ("table", "--r", "3", "--n-max", "100", "--format", "json"),
             "smoke": ("table", "--r", "3", "--n-max", "12", "--format", "json")},
            True,
            _check_table,
        ),
        Workload(
            "sequence-scalar",
            {"full": ("sequence", "--r", "2", "--x", "1", "--y", "0", "--n-max", "80"),
             "smoke": ("sequence", "--r", "2", "--x", "1", "--y", "0", "--n-max", "20")},
            True,
            _check_sequence,
        ),
        Workload(
            "routes-deep",
            {"full": ("16", "40", "30"), "smoke": ("6", "10", "8")},
            False,
            _check_routes,
        ),
    )
}


def record_reference(src: Path) -> dict:
    """The reference outputs of the code under ``src``, keyed by workload
    and arguments; ``python3 bench/workloads.py`` rewrites reference.json."""
    sys.path.insert(0, str(src))
    reference: dict = {}
    for name in ("verify-default", "table-deep"):
        for size, args in WORKLOADS[name].sizes.items():
            _, stdout = WORKLOADS[name].run_inprocess(size)
            if name == "verify-default":
                report = json.loads(stdout)
                report.pop("elapsed_ms")
                value = report
            else:
                value = hashlib.sha256(stdout.encode()).hexdigest()
            reference.setdefault(name, {})[" ".join(args)] = value
    return reference


if __name__ == "__main__":
    reference = record_reference(BENCH_DIR.parent / "src")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
