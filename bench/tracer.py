"""In-process tracing of the cayleyband layers, installed from outside.

``Tracer.installed()`` replaces the public functions and arithmetic methods
listed in ``INSTRUMENTS`` with timing wrappers, rebinding each wrapper in
every ``cayleyband`` module that holds the original (``verify``, ``egf``,
``cli`` and the package itself import names with ``from .x import y``), and
restores the originals on exit.  The package is not edited.

Each wrapper records a span.  A span's self time is its duration minus the
durations of the traced spans directly inside it, so the self times of all
spans add up to the time spent inside the outermost spans.  A call that
re-enters the span it is already in (``__rmul__`` calling ``__mul__``,
``__sub__`` calling ``__add__``, ``band_continuant`` calling
``band_continuants``) is not a new call: its time and counts stay with the
outer one.

Counts (``calls``, term products, permutations scanned, polynomials built)
are exact and repeat between runs.  Statistics that need a walk over a
result's coefficients run on a paused clock, so they cost wall time but no
span time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction


def _terms(poly) -> dict:
    # The sparse dict is read directly because copying it through the public
    # sorted_terms() would sort every result; fall back if the layout changes.
    terms = getattr(poly, "_terms", None)
    return terms if isinstance(terms, dict) else dict(poly.sorted_terms())


def _size(value) -> int:
    """Number of terms of a polynomial operand; a scalar is one term or none."""
    if isinstance(value, (int, Fraction)):
        return 1 if value else 0
    return len(_terms(value))


def _param(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_mul(tracer, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    size_a, size_b = _size(a), _size(b)
    tracer.counts["algebra.mul.term_products"] += size_a * size_b
    if not (size_a and size_b):
        tracer.counts["algebra.mul.zero_operand_calls"] += 1
    tracer.observe(result)


def _observe_result(tracer, args, kwargs, result) -> None:
    tracer.observe(result)


def _count_scan(tracer, args, kwargs, result) -> None:
    n = _param(args, kwargs, 1, "n")
    perms = math.factorial(n)
    tracer.counts["continuants.enumeration.perms_scanned"] += perms
    if n not in tracer.scanned_sizes:
        tracer.scanned_sizes.add(n)
        tracer.counts["continuants.enumeration.first_scan_perms"] += perms


def _count_recurrence(tracer, args, kwargs, result) -> None:
    r = _param(args, kwargs, 0, "r")
    n = len(result) - 1 if isinstance(result, list) else _param(args, kwargs, 1, "n")
    tracer.counts["continuants.recurrence.polys_built"] += n + 1
    tracer.recurrence_points.update((r, k) for k in range(n + 1))


def _count_checks(tracer, args, kwargs, result) -> None:
    tracer.counts["verify.checks_failed"] += sum(1 for check in result.checks if not check.ok)


# (module, attribute or Class.method, span name, counter or None).
INSTRUMENTS = (
    ("cayleyband.algebra", "BiPoly.__mul__", "algebra.mul", _count_mul),
    ("cayleyband.algebra", "BiPoly.__rmul__", "algebra.mul", _count_mul),
    ("cayleyband.algebra", "BiPoly.__add__", "algebra.add", _observe_result),
    ("cayleyband.algebra", "BiPoly.__radd__", "algebra.add", _observe_result),
    ("cayleyband.algebra", "BiPoly.__sub__", "algebra.add", _observe_result),
    ("cayleyband.algebra", "BiPoly.__rsub__", "algebra.add", _observe_result),
    ("cayleyband.algebra", "BiPoly.evaluate", "algebra.evaluate", None),
    ("cayleyband.algebra", "BiPoly.substitute", "algebra.substitute", _observe_result),
    ("cayleyband.algebra", "BiPoly.exact_div", "algebra.exact_div", _observe_result),
    ("cayleyband.algebra", "BiPoly.__str__", "algebra.str", None),
    ("cayleyband.algebra", "TruncSeries.__mul__", "algebra.series_mul", None),
    ("cayleyband.algebra", "TruncSeries.exp", "algebra.series_exp", None),
    ("cayleyband.bandmatrix", "band_matrix", "bandmatrix.band_matrix", None),
    ("cayleyband.bandmatrix", "_band_matrix_with_step", "bandmatrix.band_matrix", None),
    ("cayleyband.bandmatrix", "det_bareiss", "bandmatrix.det_bareiss", None),
    ("cayleyband.bandmatrix", "det_leibniz", "bandmatrix.det_leibniz", None),
    ("cayleyband.bandmatrix", "render_matrix", "bandmatrix.render_matrix", None),
    ("cayleyband.continuants", "cycle_distribution_bruteforce", "continuants.enumeration", _count_scan),
    ("cayleyband.continuants", "count_regular_permutations_bruteforce", "continuants.enumeration", _count_scan),
    ("cayleyband.continuants", "count_singular_permutations_bruteforce", "continuants.enumeration", _count_scan),
    ("cayleyband.continuants", "band_continuants", "continuants.recurrence", _count_recurrence),
    ("cayleyband.continuants", "band_continuant", "continuants.recurrence", _count_recurrence),
    ("cayleyband.continuants", "count_regular_permutations", "continuants.count", None),
    ("cayleyband.continuants", "count_singular_permutations", "continuants.count", None),
    ("cayleyband.continuants", "rising_factorial", "continuants.rising_factorial", None),
    ("cayleyband.continuants", "cayley_continuant", "continuants.cayley_continuant", None),
    ("cayleyband.egf", "build_basis", "egf.build_basis", None),
    ("cayleyband.egf", "egf_series", "egf.series", None),
    ("cayleyband.egf", "egf_coefficients", "egf.coefficients", None),
    ("cayleyband.egf", "egf_coefficient", "egf.coefficients", None),
    ("cayleyband.egf", "ode_residual", "egf.ode_residual", None),
    ("cayleyband.egf", "factorization_check", "egf.factorization_check", None),
    ("cayleyband.verify", "run_verification", "verify.run_verification", _count_checks),
    ("cayleyband.verify", "render_report_text", "verify.render_report_text", None),
    ("cayleyband.cli", "main", "cli.main", None),
    ("cayleyband.cli", "polynomial_json", "cli.polynomial_json", None),
    ("cayleyband.cli", "canonical_json", "cli.canonical_json", None),
)


class Tracer:
    """Spans and exact counts for one traced run."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])  # calls, self_s, failed
        self.counts: dict[str, int] = defaultdict(int)
        self.scanned_sizes: set[int] = set()
        self.recurrence_points: set[tuple[int, int]] = set()
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.coefficients = 0
        self.integral_coefficients = 0
        self._stack: list[list] = []  # [span name, time in traced children]
        self._paused = 0.0

    def now(self) -> float:
        """Wall clock minus the time spent on coefficient statistics."""
        return time.perf_counter() - self._paused

    def observe(self, poly) -> None:
        """Size statistics of one BiPoly result."""
        terms = _terms(poly)
        self.max_terms = max(self.max_terms, len(terms))
        for c in terms.values():
            bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits
            if c.denominator == 1:
                self.integral_coefficients += 1
        self.coefficients += len(terms)

    def _wrap(self, name: str, fn, counter):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock() - self._paused
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - self._paused - start
                stack.pop()
                span = spans[name]
                span[0] += 1
                span[1] += elapsed - frame[1]
                span[2] += failed
                if stack:
                    stack[-1][1] += elapsed
            if counter is not None:
                paused_at = clock()
                counter(self, args, kwargs, result)
                self._paused += clock() - paused_at
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        owners = {name: importlib.import_module(name) for name, _, _, _ in INSTRUMENTS}
        modules = [m for key, m in sys.modules.items() if key == "cayleyband" or key.startswith("cayleyband.")]
        restore: list[tuple[object, str, object]] = []
        try:
            for module_name, attribute, span, counter in INSTRUMENTS:
                owner = owners[module_name]
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    cls = getattr(owner, class_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(span, original, counter))
                    continue
                original = getattr(owner, attribute)
                wrapper = self._wrap(span, original, counter)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(restore):
                setattr(target, key, original)

    def summary(self) -> dict[str, float]:
        """Every span's calls, self_s and failed, plus the derived counts."""
        out: dict[str, float] = {}
        for name, (calls, self_s, failed) in sorted(self.spans.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.failed"] = failed
        out.update(self.counts)
        counts = self.counts
        mul_calls = self.spans["algebra.mul"][0] if "algebra.mul" in self.spans else 0
        out["continuants.enumeration.distinct_ratio"] = _ratio(
            counts["continuants.enumeration.first_scan_perms"], counts["continuants.enumeration.perms_scanned"]
        )
        out["continuants.recurrence.reuse_ratio"] = _ratio(
            len(self.recurrence_points), counts["continuants.recurrence.polys_built"]
        )
        out["algebra.mul.zero_operand_share"] = _ratio(counts["algebra.mul.zero_operand_calls"], mul_calls)
        out["algebra.max_terms"] = self.max_terms
        out["algebra.max_coeff_bits"] = self.max_coeff_bits
        out["algebra.integral_share"] = _ratio(self.integral_coefficients, self.coefficients)
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
