"""Golden CLI corpus: exit code and stdout digest of fixed invocations.

Each invocation runs through ``cli.main`` in process.  Its stdout, with the
timing fields removed (``"elapsed_ms":...,`` from verify JSON and the
", ... ms" of the verify text verdict), is hashed with sha256 and compared
with ``golden_cli.json``.  A refactor that keeps the output byte-identical
passes; any changed byte, check name, params string, detail or exit code
fails and names the invocation.

The fault entries end in ``--corrupt R,N,I,J`` or ``--subdiagonal-step -1``,
which the CLI no longer has.  ``run`` reads that trailing pair as a fault
to install: it swaps ``verify.band_matrix`` for ``faults.bumped_entry(R, N,
I, J)`` or ``faults.decreasing_subdiagonal`` and runs the rest.

The digests were recorded from the commit before the verify sweep helper.
To record them for a deliberate output change, run this file as a script
and review the diff:

    PYTHONPATH=src python3 tests/test_golden_cli.py > tests/golden_cli.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path
from unittest import mock

import pytest
from faults import bumped_entry, decreasing_subdiagonal

from cayleyband import verify
from cayleyband.cli import main

DIGESTS = Path(__file__).with_name("golden_cli.json")

POINTS = (("1", "0"), ("0", "1"), ("1/2", "-2/3"), ("-3", "5"))
CORRUPT_POINTS = (
    "2,0,1,1",
    "2,1,1,1",
    "3,2,1,2",
    "5,4,4,4",
    "2,7,7,6",
    "3,5,5,3",
    "5,7,1,7",
    "2,3,9,9",
)


def corpus() -> list[str]:
    invocations = []
    for r in range(2, 6):
        invocations.append(f"table --r {r} --n-max 30")
        invocations.append(f"table --r {r} --n-max 30 --format json")
        invocations += [f"matrix --r {r} --n {n}" for n in (0, 1, 6)]
        invocations += [f"sequence --r {r} --x={x} --y={y} --n-max 40" for x, y in POINTS]
    grid = [(r, n, order) for r in (2, 3, 5) for n in (0, 1, 2, 4, 7) for order in (1, 6)]
    for r_max, n_max, order in grid + [(5, 8, 30)]:
        invocations.append(f"verify --r-max {r_max} --n-max {n_max} --order {order} --format json")
    faulty = "verify --r-max 5 --n-max 7 --order 8 --format json"
    invocations += [f"{faulty} --corrupt {point}" for point in CORRUPT_POINTS]
    invocations.append(f"{faulty} --subdiagonal-step -1")
    invocations.append("verify --r-max 3 --n-max 5 --order 8 --corrupt 2,4,1,1")
    return invocations


def run(invocation: str) -> tuple[int, str]:
    """Exit code and sha256 of the timing-free stdout of one invocation."""
    *argv, flag, value = invocation.split()
    if flag == "--corrupt":
        build = bumped_entry(*map(int, value.split(",")))
    elif flag == "--subdiagonal-step":
        build = decreasing_subdiagonal
    else:
        argv, build = invocation.split(), verify.band_matrix
    stdout = io.StringIO()
    with mock.patch.object(verify, "band_matrix", build), contextlib.redirect_stdout(stdout):
        code = main(argv)
    text = re.sub(r'"elapsed_ms":\d+,', "", stdout.getvalue())
    text = re.sub(r", \d+\.\d ms\)$", ")", text, flags=re.MULTILINE)
    return code, hashlib.sha256(text.encode()).hexdigest()


def test_corpus_matches_recorded_digests():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(corpus())


@pytest.mark.parametrize("invocation", corpus())
def test_cli_output_is_unchanged(invocation):
    expected_code, expected_digest = json.loads(DIGESTS.read_text())[invocation]
    assert run(invocation) == (expected_code, expected_digest)


if __name__ == "__main__":
    rows = [f"{json.dumps(invocation)}: {json.dumps(run(invocation))}" for invocation in corpus()]
    print("{\n" + ",\n".join(rows) + "\n}")
