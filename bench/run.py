"""Benchmark of cayleyband: four workloads timed from outside, and a traced
in-process run that splits the time by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (the package is imported from ``src``).  NAME is
one of the workloads in workloads.py, or ``all`` to run each in turn.

``--trace 0`` is a closed loop with one client: it starts one workload
process at a time, the next only after the previous one has exited, until
``--seconds`` have passed.  Each process is started by launcher.py, timed
from spawn to exit, and its CPU time and peak RSS are read with
``os.wait4``.  Zero-work calls of the same entry point, interleaved with the
workload processes in an order drawn from ``--seed``, give the set-up time.
A reference process runs before and after each of them, and times are
reported at reference speed (see REFERENCE_ARGV).  Every output is checked
against the workload's oracle; a wrong exit code or output is a failed run.

``--trace 1`` runs the same work inside this process, alternating untraced
and traced runs (see tracer.py) for ``--seconds``, and reports per-layer self
times, exact counts and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  ``--smoke`` runs the same workloads at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# A zero-work call of the CLI entry point: interpreter start, import and
# argument parsing, then an empty matrix.
SETUP_ARGV = ["-m", "cayleyband", "matrix", "--r", "2", "--n", "0"]
SETUP_PROBES = 11
# A fixed piece of Fraction arithmetic in a fresh interpreter, run before and
# after every timed process.  On a shared machine other tenants slow a process
# by up to 1.6x for seconds at a time; each timed process is divided by the
# geometric mean of its two neighbouring reference runs and multiplied by
# REFERENCE_S, about the reference's time with nothing else running on the
# 2-core Xeon the benchmark was defined on (see README.md).
REFERENCE_ARGV = [
    "-c",
    "from fractions import Fraction\n"
    "total = Fraction(0)\n"
    "for i in range(1, 60000):\n"
    "    total += Fraction(1, i % 97 + 1) * i\n",
]
REFERENCE_S = 0.25
MIN_SAMPLES = 3
PROCESS_TIMEOUT_S = 120
COVERAGE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """The process that starts and measures every timed process (see
    launcher.py), with a directory in the checkout for their outputs."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.outputs = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.outputs)

    def spawn(self, args: list[str]) -> Process:
        """Run one interpreter process to its exit and measure it."""
        stdout, stderr = self.outputs / "stdout", self.outputs / "stderr"
        request = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(stdout),
            "stderr": str(stderr),
            "timeout_s": PROCESS_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the launcher exited with code {self.proc.wait()}")
        return Process(**json.loads(reply), stdout=stdout.read_text(), stderr=stderr.read_text(errors="replace"))


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return ""


def timed_run(workload: Workload, size: str, seed: int, seconds: float) -> dict:
    rng = random.Random(seed)
    oracle = workload.oracle(size)
    verdicts: dict[tuple[int, str], str | None] = {}
    # (process, wall scale, cpu scale): the scales turn its times into times
    # at reference speed, from the reference processes just before and after.
    setup: list[tuple[Process, float, float]] = []
    samples: list[tuple[Process, float, float]] = []
    problems: list[str] = []

    with Launcher(child_env()) as launcher:
        launcher.spawn(SETUP_ARGV)  # warm-up: writes bytecode caches, fills the file cache
        references = [launcher.spawn(REFERENCE_ARGV)]

        def measure(args: list[str]) -> tuple[Process, float, float]:
            p = launcher.spawn(args)
            before, after = references[-1], launcher.spawn(REFERENCE_ARGV)
            references.append(after)
            return (
                p,
                REFERENCE_S / math.sqrt(before.wall_s * after.wall_s),
                REFERENCE_S / math.sqrt(before.cpu_s * after.cpu_s),
            )

        probes_left = SETUP_PROBES
        start = time.perf_counter()
        while True:
            if probes_left and rng.random() < 0.5:
                setup.append(measure(SETUP_ARGV))
                probes_left -= 1
                continue
            # Start a process only if it should end within the time, so a run
            # lasts about --seconds whatever the workload's size.
            elapsed = time.perf_counter() - start
            step = statistics.median(p.wall_s for p, _, _ in samples) + references[-1].wall_s if samples else 0
            if len(samples) >= MIN_SAMPLES and elapsed + step > seconds:
                break
            samples.append(measure(workload.argv(size)))
        while probes_left:
            setup.append(measure(SETUP_ARGV))
            probes_left -= 1

    for p in references:
        if p.code != 0:
            problems.append(f"reference process: exit code {p.code}; stderr: {p.stderr[-300:]}")
    for p, _, _ in setup:
        if p.code != 0 or p.stdout:
            problems.append(f"set-up call: exit code {p.code}, {len(p.stdout)} bytes of output")
    for p, _, _ in samples:
        # Identical bytes and exit code get the same verdict; check them once.
        key = (p.code, hashlib.sha256(p.stdout.encode()).hexdigest())
        if key not in verdicts:
            verdicts[key] = workload.verdict(size, p.code, p.stdout, oracle)
        if verdicts[key] is not None:
            problems.append(f"{workload.name}: {verdicts[key]}; stderr: {p.stderr[-300:]}")

    series = {
        "wall_s": [p.wall_s * scale for p, scale, _ in samples],
        "cpu_s": [p.cpu_s * scale for p, _, scale in samples],
        "setup_s": [p.wall_s * scale for p, scale, _ in setup],
        "peak_rss_mb": [p.rss_mb for p, _, _ in samples],
    }
    measured = {
        "wall_s": [p.wall_s for p, _, _ in samples],
        "cpu_s": [p.cpu_s for p, _, _ in samples],
        "setup_s": [p.wall_s for p, _, _ in setup],
    }
    values = {name: statistics.median(v) for name, v in series.items()}
    attempted = len(samples) + len(setup)
    failed = len(problems)
    print(f"{workload.name}: {len(samples)} workload processes, {len(setup)} set-up calls and"
          f" {len(references)} reference processes, one at a time")
    print(f"  reference    median {statistics.median(p.wall_s for p in references):.6g} s of {len(references)},"
          f" min {min(p.wall_s for p in references):.6g} s; times below are at reference speed ({REFERENCE_S} s)")
    for name, v in series.items():
        unit = END_TO_END[name]
        print(f"  {name:<12} median {values[name]:.6g} {unit} of {len(v)}{tail(v)}")
        print(f"  {name:<12} each: {' '.join(f'{x:.4f}' for x in v)}")
        if name in measured:
            print(f"  {name:<12} as measured: median {statistics.median(measured[name]):.6g} {unit},"
                  f" each: {' '.join(f'{x:.4f}' for x in measured[name])}")
    print(f"  error_rate   {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    for problem in problems:
        print(f"  FAILED: {problem}")
    return result(values, END_TO_END, attempted, min(failed, attempted), not problems)


def traced_run(workload: Workload, size: str, seconds: float) -> dict:
    oracle = workload.oracle(size)
    plain: list[float] = []
    traced: list[float] = []
    summaries: list[dict[str, float]] = []
    problems: list[str] = []

    def check(code: int, stdout: str, label: str) -> None:
        verdict = workload.verdict(size, code, stdout, oracle)
        if verdict is not None:
            problems.append(f"{label} run: {verdict}")

    def untraced() -> None:
        begin = time.perf_counter()
        code, stdout = workload.run_inprocess(size)
        plain.append(time.perf_counter() - begin)
        check(code, stdout, "untraced")

    def traced_once() -> None:
        tracer = Tracer()
        with tracer.installed():
            begin, virtual_begin = time.perf_counter(), tracer.now()
            code, stdout = workload.run_inprocess(size)
            virtual_wall = tracer.now() - virtual_begin
            traced.append(time.perf_counter() - begin)
        check(code, stdout, "traced")
        summary = tracer.summary()
        summary["cli.output_bytes"] = len(stdout.encode()) if workload.cli else 0
        summary["trace.wall_s"] = virtual_wall
        summary["trace.coverage"] = sum(v for k, v in summary.items() if k.endswith(".self_s")) / virtual_wall
        summaries.append(summary)

    # Pairs of one untraced and one traced run, in alternating order so that
    # what the first run of the process warms up favours neither side.  A
    # pair starts only if it should end within the time, after at least two.
    start = time.perf_counter()
    while len(summaries) < 2 or (time.perf_counter() - start) * (len(summaries) + 1) / len(summaries) < seconds:
        for run in (untraced, traced_once) if len(summaries) % 2 == 0 else (traced_once, untraced):
            run()

    def exact(summary: dict[str, float]) -> dict[str, float]:
        return {k: v for k, v in summary.items() if not k.endswith("self_s") and not k.startswith("trace.")}

    for n, summary in enumerate(summaries[1:], start=2):
        if exact(summary) != exact(summaries[0]):
            diff = sorted(k for k in exact(summary).keys() | exact(summaries[0]).keys()
                          if summary.get(k) != summaries[0].get(k))
            problems.append(f"counts of traced run {n} differ from run 1: {diff}")
    for n, summary in enumerate(summaries, start=1):
        if abs(summary["trace.coverage"] - 1) > COVERAGE_TOLERANCE:
            problems.append(f"traced run {n}: layer self times cover {summary['trace.coverage']:.3f} of its wall time")

    def median_of(name: str) -> float:
        return statistics.median(s.get(name, 0.0) for s in summaries)

    values: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(traced) / statistics.median(plain)
        elif unit == "s" or name == "trace.coverage":
            values[name] = median_of(name)
        else:
            values[name] = summaries[0].get(name, 0)

    print(f"{workload.name} traced: {len(traced)} traced and {len(plain)} untraced runs in this process")
    print(f"  untraced median {statistics.median(plain):.6g} s, traced median {statistics.median(traced):.6g} s")
    print(f"  {'span':<36}{'calls':>12}{'self_s':>12}{'share':>8}")
    wall = median_of("trace.wall_s")
    spans = sorted({k[: -len(".self_s")] for s in summaries for k in s if k.endswith(".self_s")})
    for span in sorted(spans, key=lambda s: -median_of(f"{s}.self_s")):
        self_s = median_of(f"{span}.self_s")
        print(f"  {span:<36}{summaries[0].get(f'{span}.calls', 0):>12}{self_s:>12.4f}{self_s / wall:>8.1%}")
    print("  metrics (counts are exact and repeat between runs; *_s are medians):")
    for name, unit in PER_LAYER.items():
        print(f"    {name:<44}{values[name]:>16.6g} {unit}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    attempted = len(plain) + len(traced)
    return result(values, PER_LAYER, attempted, min(len(problems), attempted), not problems)


def result(values: dict[str, float], units: dict[str, str], attempted: int, failed: int, correct: bool) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cayleyband" / "__init__.py").is_file():
        print(f"no cayleyband sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    size = "smoke" if args.smoke else "full"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "load_before": os.getloadavg(),
        "commit": git_commit(),
        "seed": args.seed,
        "workloads": names,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    results = {}
    for n, name in enumerate(names):
        seed = args.seed * len(WORKLOADS) + n
        if args.trace:
            results[name] = traced_run(WORKLOADS[name], size, args.seconds)
        else:
            results[name] = timed_run(WORKLOADS[name], size, seed, args.seconds)
    record["load_after"] = os.getloadavg()
    print("record:", json.dumps(record))
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name in names:
            print(f"{name}:", json.dumps(results[name]))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name in names for metric, value in results[name]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
