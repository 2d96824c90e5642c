"""Command line front end.

Subcommands: ``table`` prints the polynomial family, ``matrix`` renders the
band matrix, ``sequence`` evaluates the family at a rational point, and
``verify`` runs the full cross-check battery.

Exit codes: 0 on success (and when every verification check passes), 1 when
verification finds a mathematical discrepancy, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from ._validate import InputError
from .algebra import BiPoly
from .bandmatrix import band_matrix, render_matrix
from .continuants import continuant_rows
from .verify import render_report_text, run_verification

_MAX_EXPONENT = 4300  # as CPython's default limit on the digits of an int read from text
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)\s*$")


def canonical_json(payload) -> str:
    """Compact JSON with insertion-ordered keys, so equal payloads are
    byte-identical and output survives a parse/re-serialize round trip."""
    return json.dumps(payload, separators=(",", ":"))


def polynomial_json(r: int, n: int, poly: BiPoly) -> str:
    """Canonical JSON text of one polynomial, as ``canonical_json`` would
    render ``{"r": r, "n": n, "terms": [{"dx": ..., "dy": ..., "c": ...}]}``.

    Terms appear in canonical order and every coefficient is rendered as a
    decimal integer string, which keeps arbitrary-precision values exact in
    every JSON implementation.  A non-integral coefficient raises
    ``ValueError`` before any term is formatted.
    """
    terms = poly.sorted_terms()
    for _, coefficient in terms:
        if coefficient.denominator != 1:
            raise ValueError(f"cannot serialize non-integer coefficient {coefficient}")
    body = ",".join([f'{{"dx":{dx},"dy":{dy},"c":"{c}"}}' for (dx, dy), c in terms])
    return f'{{"r":{r},"n":{n},"terms":[{body}]}}'


def _rational(text: str) -> Fraction:
    # Fraction scales a decimal by 10**exponent, which for an exponent in the
    # billions never returns, so a large exponent is refused first.
    exponent = _EXPONENT.search(text)
    if exponent and (len(exponent[1]) > _MAX_EXPONENT or int(exponent[1]) > _MAX_EXPONENT):
        raise argparse.ArgumentTypeError(f"exponent of {text!r} exceeds {_MAX_EXPONENT} in absolute value")
    # argparse only treats ValueError/TypeError as usage errors, so the
    # ZeroDivisionError from inputs like "1/0" needs translating.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleyband",
        description=(
            "Exact band continuant polynomials: print the family, render the "
            "defining matrix, evaluate integer sequences, and cross-verify "
            "the independent computation routes."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table = subparsers.add_parser("table", help="print the polynomials for n = 0 .. n-max")
    table.add_argument("--r", type=int, required=True, help="band parameter, at least 2")
    table.add_argument("--n-max", type=int, default=8, help="largest n (default 8)")
    table.add_argument("--format", choices=("text", "json"), default="text")
    table.set_defaults(handler=_run_table)

    matrix = subparsers.add_parser("matrix", help="render the n x n band matrix")
    matrix.add_argument("--r", type=int, required=True, help="band parameter, at least 2")
    matrix.add_argument("--n", type=int, required=True, help="matrix dimension")
    matrix.set_defaults(handler=_run_matrix)

    sequence = subparsers.add_parser(
        "sequence", help="evaluate the family at a rational point (x, y)"
    )
    sequence.add_argument("--r", type=int, required=True, help="band parameter, at least 2")
    sequence.add_argument("--x", type=_rational, default=Fraction(1), help="x value (default 1)")
    sequence.add_argument("--y", type=_rational, default=Fraction(1), help="y value (default 1)")
    sequence.add_argument("--n-max", type=int, default=8, help="largest n (default 8)")
    sequence.set_defaults(handler=_run_sequence)

    verify = subparsers.add_parser("verify", help="cross-check all computation routes")
    verify.add_argument("--r-max", type=int, default=5, help="largest band parameter (default 5)")
    verify.add_argument("--n-max", type=int, default=9, help="largest dimension (default 9)")
    verify.add_argument("--order", type=int, default=30, help="series order for the ODE residual")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(handler=_run_verify)

    return parser


def _library_call(parser: argparse.ArgumentParser, function, *args, **kwargs):
    """Call a library entry point.  The InputError its input check raises
    becomes a usage error (exit 2) carrying the library's message; any other
    error is a fault in the computation and propagates."""
    try:
        return function(*args, **kwargs)
    except InputError as exc:
        parser.error(str(exc))


def _run_table(args, parser) -> int:
    rows = _library_call(parser, continuant_rows, args.r, args.n_max)
    if args.format == "json":
        # Row by row, so no list of the rows, their dicts or their text is held.
        write = sys.stdout.write
        for n, poly in enumerate(rows):
            write("," if n else "[")
            write(polynomial_json(args.r, n, poly))
        write("]\n")
    else:
        for poly in rows:
            print(poly)
    return 0


def _run_matrix(args, parser) -> int:
    rendering = render_matrix(_library_call(parser, band_matrix, args.r, args.n))
    if rendering:
        print(rendering)
    return 0


def _run_sequence(args, parser) -> int:
    for poly in _library_call(parser, continuant_rows, args.r, args.n_max):
        print(poly.evaluate(args.x, args.y))
    return 0


def _run_verify(args, parser) -> int:
    report = _library_call(parser, run_verification, args.r_max, args.n_max, args.order)
    if args.format == "json":
        print(canonical_json(report.to_dict()))
    else:
        print(render_report_text(report))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CPython caps int -> str at 4300 digits to guard the parsing of text, so
    # the cap is lifted only while the handler prints, then restored.
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.handler(args, parser)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.handler(args, parser)
    finally:
        sys.set_int_max_str_digits(limit)
