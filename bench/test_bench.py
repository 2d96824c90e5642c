"""Tests of the benchmark itself, at the tiny ``smoke`` sizes.

They check outputs, oracles, metric names and the exactness of the traced
counts, never timings.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, a000246

SMOKE_SECONDS = 0.5


def test_a000246_closed_form():
    # OEIS A000246 starts 1, 1, 1, 3, 9, 45, 225, 1575, 11025, 99225.
    assert a000246(9) == [1, 1, 1, 3, 9, 45, 225, 1575, 11025, 99225]


def test_command_runs_every_workload_and_ends_with_one_result():
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--smoke", "--seconds", str(SMOKE_SECONDS), "--trace", "0"],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}/{m}" for w in WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    record = json.loads(next(line for line in lines if line.startswith("record: "))[len("record: "):])
    assert {"python", "nproc", "load_before", "load_after", "commit", "seed"} <= set(record)


@pytest.mark.parametrize("name", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(name):
    result = run.timed_run(WORKLOADS[name], "smoke", seed=1, seconds=SMOKE_SECONDS)
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = run.traced_run(WORKLOADS[name], "smoke", seconds=0)
    # correct also means: counts repeated and self times covered the wall time.
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert abs(metrics["trace.coverage"] - 1) <= run.COVERAGE_TOLERANCE
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["verify.checks_failed"] == 0


def traced_summary(name: str) -> dict[str, float]:
    tracer = Tracer()
    with tracer.installed():
        code, stdout = WORKLOADS[name].run_inprocess("smoke")
    assert code == 0
    summary = tracer.summary()
    summary["cli.output_bytes"] = len(stdout.encode())
    return summary


def test_counts_repeat_exactly_between_traced_runs():
    first, second = traced_summary("verify-default"), traced_summary("verify-default")
    counts = [
        k for k in first
        if k.endswith((".calls", ".term_products", ".perms_scanned", ".polys_built", ".output_bytes"))
    ]
    assert "continuants.enumeration.perms_scanned" in counts and "algebra.mul.term_products" in counts
    assert all(first[k] > 0 for k in ("continuants.enumeration.calls", "algebra.mul.calls", "cli.output_bytes"))
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_tracer_restores_the_package():
    from cayleyband import algebra, cli, verify

    before = (algebra.BiPoly.__mul__, verify.band_continuants, cli.run_verification)
    with Tracer().installed():
        assert algebra.BiPoly.__mul__ is not before[0]
        assert verify.band_continuants is not before[1] and cli.run_verification is not before[2]
    assert (algebra.BiPoly.__mul__, verify.band_continuants, cli.run_verification) == before


def corrupt(name: str, stdout: str) -> str:
    if name == "verify-default":
        report = json.loads(stdout)
        report["checks"][0]["status"] = "fail"
        return json.dumps(report)
    if name == "table-deep":
        rows = json.loads(stdout)
        rows[-1]["terms"][0]["c"] = str(int(rows[-1]["terms"][0]["c"]) + 1)
        return json.dumps(rows)
    if name == "sequence-scalar":
        values = stdout.split()
        values[-1] = str(int(values[-1]) + 1)
        return "\n".join(values) + "\n"
    got = json.loads(stdout)
    got["det"] = got["egf"]
    return json.dumps(got)


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracle_accepts_the_output_and_rejects_a_wrong_one(name):
    workload = WORKLOADS[name]
    oracle = workload.oracle("smoke")
    code, stdout = workload.run_inprocess("smoke")
    assert workload.verdict("smoke", code, stdout, oracle) is None
    assert workload.verdict("smoke", code, corrupt(name, stdout), oracle) is not None
    assert workload.verdict("smoke", 1, stdout, oracle) is not None


def test_wrong_output_makes_error_rate_nonzero():
    # x = 2 gives other values than A000246, which the oracle expects.
    wrong = dataclasses.replace(
        WORKLOADS["sequence-scalar"],
        sizes={"smoke": ("sequence", "--r", "2", "--x", "2", "--y", "0", "--n-max", "20")},
    )
    result = run.timed_run(wrong, "smoke", seed=1, seconds=SMOKE_SECONDS)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
