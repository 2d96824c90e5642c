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
import sys
from fractions import Fraction

from ._validate import InputError
from .algebra import BiPoly
from .bandmatrix import band_matrix, render_matrix
from .continuants import band_continuants
from .verify import render_report_text, run_verification


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
    # Fault-injection hooks for the test suite; deliberately undocumented.
    verify.add_argument("--corrupt", type=str, default=None, help=argparse.SUPPRESS)
    verify.add_argument(
        "--subdiagonal-step", type=int, choices=(1, -1), default=1, help=argparse.SUPPRESS
    )
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
    polynomials = _library_call(parser, band_continuants, args.r, args.n_max)
    if args.format == "json":
        # One row at a time, so no list of every row's dicts or text is held.
        write = sys.stdout.write
        for n, poly in enumerate(polynomials):
            write("," if n else "[")
            write(polynomial_json(args.r, n, poly))
        write("]\n")
    else:
        for poly in polynomials:
            print(poly)
    return 0


def _run_matrix(args, parser) -> int:
    rendering = render_matrix(_library_call(parser, band_matrix, args.r, args.n))
    if rendering:
        print(rendering)
    return 0


def _run_sequence(args, parser) -> int:
    for poly in _library_call(parser, band_continuants, args.r, args.n_max):
        print(poly.evaluate(args.x, args.y))
    return 0


def _parse_corrupt(parser: argparse.ArgumentParser, text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        parser.error("--corrupt expects R,N,I,J")
    try:
        r, n, i, j = (int(part) for part in parts)
    except ValueError:
        parser.error("--corrupt expects four integers")
    if r < 2 or n < 0 or i < 1 or j < 1:
        parser.error("--corrupt values out of range (need R>=2, N>=0, I>=1, J>=1)")
    return (r, n, i, j)


def _run_verify(args, parser) -> int:
    corrupt = _parse_corrupt(parser, args.corrupt) if args.corrupt is not None else None
    report = _library_call(
        parser,
        run_verification,
        r_max=args.r_max,
        n_max=args.n_max,
        order=args.order,
        corrupt=corrupt,
        subdiagonal_step=args.subdiagonal_step,
    )
    if args.format == "json":
        print(canonical_json(report.to_dict()))
    else:
        print(render_report_text(report))
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args, parser)
