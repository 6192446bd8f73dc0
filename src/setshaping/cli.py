"""Command-line surface over the shaping library.

Subcommands reproduce the reference tables and the per-rank series, expose
the transform on files, and run the compression experiment.  Stdout carries
machine-readable output only (CSV or JSON); diagnostics and summaries go to
stderr.  Every randomized command takes an explicit --seed (default 0) and
is byte-reproducible for any --threads value.

Exit codes: 0 success, 1 stdout closed by its reader (quietly, nothing on
stderr), 2 invalid arguments or an input or output, stdout included, that
cannot be opened, read or written, 3 domain error (invalid symbol, bad
block length, not in image, corrupt stream, degenerate sample), 4 resource
limit exceeded (the partition walk's byte budget or depth, series limit,
physical memory).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import Sequence

from .analyzer import (
    AverageReport,
    average_info_exact,
    rank_info_series,
    shaped_average_info,
)
from .bijection import ShapingParameters, shape, string_rank, string_unrank, unshape
from .codec import shaping_experiment
from .errors import (
    BlockLengthError,
    InvalidSymbolError,
    ResourceLimitError,
    ShapingError,
)
from .montecarlo import McConfig, estimate_table
from .source import _INTERPRETATIONS, SourceEnsemble

def _round_floats(record: dict, digits: int) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, float):
            # JSON has no Infinity or NaN; null marks the value undefined.
            value = round(value, digits) if math.isfinite(value) else None
        out[key] = value
    return out


@contextmanager
def _output(path: str | None):
    """A text stream, which takes bytes at its .buffer: stdout for no path
    or "-", else the file at path, closed on leaving.

    stdout is flushed on leaving.  Where writing it fails, what it still
    holds is dropped, so that the flush at exit has nothing to fail on; a
    reader that closed it ends the program quietly with exit code 1, as the
    signal module's note on SIGPIPE advises, and any other OSError goes on.
    """
    if path is None or path == "-":
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                raise SystemExit(1) from None
            raise
    else:
        with open(path, "w", encoding="ascii", newline="") as stream:
            yield stream


def _emit_records(records: list[dict], args, digits: int) -> None:
    """Write records as CSV (fixed-decimal floats) or JSON (rounded floats).

    The CSV header is the first record's keys.
    """
    with _output(args.output) as stream:
        if args.format == "json":
            json.dump([_round_floats(r, digits) for r in records], stream, indent=2)
            stream.write("\n")
        else:
            writer = csv.DictWriter(stream, fieldnames=list(records[0]), lineterminator="\n")
            writer.writeheader()
            for record in records:
                row = {}
                for key, value in record.items():
                    if value is None:
                        row[key] = ""
                    elif isinstance(value, float):
                        row[key] = f"{value:.{digits}f}"
                    else:
                        row[key] = value
                writer.writerow(row)


# -- symbol text handling ---------------------------------------------------


def _parse_symbol_text(text: str, alphabet_size: int) -> list[int]:
    """ASCII digits for alphabets up to 10, comma or space separated ints beyond."""
    # str.isdigit and int() also accept non-ASCII digits (Arabic-Indic, superscripts).
    if not text.isascii():
        raise InvalidSymbolError("symbol text must be ASCII")
    stripped = "".join(text.split())
    if not stripped:
        return []
    if alphabet_size <= 10:
        if not stripped.isdigit():
            raise InvalidSymbolError("text mode expects decimal digits only")
        return [int(ch) for ch in stripped]
    # A comma separates two symbols: none may start, end or double one.
    if not all(field.strip() for field in text.split(",")):
        raise InvalidSymbolError("text mode expects a symbol between commas")
    tokens = text.replace(",", " ").split()
    if not all(map(str.isdigit, tokens)):
        raise InvalidSymbolError("text mode expects decimal integers only")
    return [int(tok) for tok in tokens]


def _format_symbols(symbols: Sequence[int], alphabet_size: int) -> str:
    if alphabet_size <= 10:
        return "".join(str(s) for s in symbols)
    return ",".join(str(s) for s in symbols)


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as handle:
        return handle.read()


def _write_output(path: str | None, data: bytes) -> None:
    with _output(path) as stream:
        stream.buffer.write(data)


def _blocks_of(symbols: list[int], block: int) -> list[list[int]]:
    if len(symbols) == 0 or len(symbols) % block:
        raise BlockLengthError(
            f"input holds {len(symbols)} symbols, not a positive multiple of {block}"
        )
    return [symbols[i : i + block] for i in range(0, len(symbols), block)]


def cmd_transform(args) -> int:
    """shape, or unshape, a file blockwise."""
    forward = args.command == "shape"
    params = ShapingParameters(args.alphabet, args.length, args.order_k)
    if not args.text and args.alphabet > 256:
        raise ValueError("byte mode supports alphabets up to 256 symbols")
    raw = _read_input(args.in_file)
    if args.text:
        # latin-1 decodes every byte, so a non-ASCII one is an invalid symbol.
        symbols = _parse_symbol_text(raw.decode("latin-1"), args.alphabet)
    else:
        symbols = list(raw)
    block = params.n if forward else params.output_length
    out: list[int] = []
    for piece in _blocks_of(symbols, block):
        mapped = shape(piece, params) if forward else unshape(piece, params)
        out.extend(mapped)
    if args.text:
        data = _format_symbols(out, args.alphabet).encode("ascii")
    else:
        data = bytes(out)
    _write_output(args.output, data)
    return 0


# -- subcommand handlers -----------------------------------------------------


def _exact_reports(cells, interpretation: str) -> list[AverageReport]:
    """One exact row per (a, n, k) cell, for the uniform source on a symbols."""
    return [
        AverageReport(
            a,
            n,
            k,
            average_info_exact(SourceEnsemble.uniform(a), n, interpretation),
            shaped_average_info(SourceEnsemble.uniform(a), n, k, interpretation),
            method="exact",
        )
        for a, n, k in cells
    ]


def cmd_table1(args) -> int:
    reports = _exact_reports([(a, a, 1) for a in range(2, 8)], args.interpretation)
    _emit_records([r.to_dict() for r in reports], args, digits=3)
    return 0


def cmd_table2(args) -> int:
    n, k = 100, 1
    alphabets = range(2, 11)
    if args.interpretation == "literal":
        reports = _exact_reports([(a, n, k) for a in alphabets], "literal")
    else:
        configs = [
            McConfig(
                alphabet_size=a,
                n=n,
                k=k,
                samples=args.samples,
                seed=args.seed + a,
                threads=args.threads,
            )
            for a in alphabets
        ]
        reports = estimate_table(configs, method=args.method)
    _emit_records([r.to_dict() for r in reports], args, digits=6)
    return 0


def cmd_figure1(args) -> int:
    xs, ys = rank_info_series(args.alphabet, args.length, args.order_k)
    if args.format == "json":
        records = [
            {"rank": i, "i_x_bits": float(x), "i_y_bits": float(y)}
            for i, (x, y) in enumerate(zip(xs, ys))
        ]
        _emit_records(records, args, digits=6)
    else:
        with _output(args.output) as stream:
            stream.write("rank,i_x_bits,i_y_bits\n")
            for i, (x, y) in enumerate(zip(xs, ys)):
                stream.write(f"{i},{float(x):.6f},{float(y):.6f}\n")
    print(
        f"mean_i_x_bits={float(xs.mean()):.6f} mean_i_y_bits={float(ys.mean()):.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_rank(args) -> int:
    symbols = _parse_symbol_text(args.string, args.alphabet)
    _write_output(None, f"{string_rank(symbols, args.alphabet)}\n".encode("ascii"))
    return 0


def cmd_unrank(args) -> int:
    symbols = string_unrank(args.rank, args.length, args.alphabet)
    _write_output(None, f"{_format_symbols(symbols, args.alphabet)}\n".encode("ascii"))
    return 0


def cmd_codec_experiment(args) -> int:
    params = ShapingParameters(args.alphabet, args.length, args.order_k)
    report = shaping_experiment(params, samples=args.samples, seed=args.seed)
    _emit_records([report.to_dict()], args, digits=6)
    return 0


# -- parser ------------------------------------------------------------------


def _add_format_flags(sub, default_format="csv"):
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help="output encoding (default %(default)s)",
    )
    sub.add_argument(
        "--output", "-o", default=None, help="output path (default stdout)"
    )


def _add_shape_params(sub, length_help, alphabet_default=None, length_default=None):
    sub.add_argument(
        "--alphabet",
        "-a",
        type=int,
        required=alphabet_default is None,
        default=alphabet_default,
        help="alphabet size",
    )
    sub.add_argument(
        "--length",
        "-n",
        type=int,
        required=length_default is None,
        default=length_default,
        help=length_help,
    )
    sub.add_argument(
        "--order-k",
        type=int,
        default=1,
        help="length surplus of the transform (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setshaping",
        description="Exact and Monte Carlo analysis of information-content "
        "shaping, plus the transform itself on files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser(
        "table1", help="exact mean content for alphabets 2..7 at n = alphabet size"
    )
    sub.add_argument(
        "--interpretation",
        choices=_INTERPRETATIONS,
        default="empirical",
        help="which notion of content to tabulate (default %(default)s)",
    )
    _add_format_flags(sub)
    sub.set_defaults(handler=cmd_table1)

    sub = commands.add_parser(
        "table2", help="mean content for alphabets 2..10 at n=100, k=1"
    )
    sub.add_argument(
        "--method",
        choices=("auto", "exact", "mc"),
        default="auto",
        help="exact enumeration, Monte Carlo, or auto per row (default %(default)s)",
    )
    sub.add_argument(
        "--samples",
        "-M",
        type=int,
        default=10**6,
        help="Monte Carlo sample count (default %(default)s)",
    )
    sub.add_argument(
        "--seed", type=int, default=0, help="base seed; row seed = seed + alphabet"
    )
    sub.add_argument(
        "--threads", type=int, default=1, help="worker threads (default %(default)s)"
    )
    sub.add_argument(
        "--interpretation",
        choices=_INTERPRETATIONS,
        default="empirical",
        help="which notion of content to tabulate (default %(default)s)",
    )
    _add_format_flags(sub)
    sub.set_defaults(handler=cmd_table2)

    sub = commands.add_parser(
        "figure1", help="per-rank content series before and after shaping"
    )
    _add_shape_params(sub, "block length n", alphabet_default=3, length_default=10)
    _add_format_flags(sub)
    sub.set_defaults(handler=cmd_figure1)

    for name, help_text, length_help in (
        ("shape", "apply the transform to a file blockwise", "input block length n"),
        (
            "unshape",
            "invert the transform blockwise",
            "output block length n (input blocks are n+k)",
        ),
    ):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("in_file", help="input path, or - for stdin")
        _add_shape_params(sub, length_help)
        sub.add_argument(
            "--text",
            action="store_true",
            help="treat input as ASCII digit text instead of one byte per symbol",
        )
        sub.add_argument("--output", "-o", default=None, help="output path (default stdout)")
        sub.set_defaults(handler=cmd_transform)

    sub = commands.add_parser(
        "rank", help="position of a string in the content-sorted order"
    )
    sub.add_argument("string", help="symbols as digits (a <= 10) or comma ints")
    sub.add_argument("--alphabet", "-a", type=int, required=True)
    sub.set_defaults(handler=cmd_rank)

    sub = commands.add_parser("unrank", help="string at a given order position")
    sub.add_argument("rank", type=int)
    sub.add_argument("--length", "-n", type=int, required=True)
    sub.add_argument("--alphabet", "-a", type=int, required=True)
    sub.set_defaults(handler=cmd_unrank)

    sub = commands.add_parser(
        "codec-experiment",
        help="compressed size of seeded strings before vs after shaping",
    )
    _add_shape_params(sub, "block length n")
    sub.add_argument(
        "--samples", "-M", type=int, default=10**4, help="default %(default)s"
    )
    sub.add_argument("--seed", type=int, default=0)
    _add_format_flags(sub, default_format="json")
    sub.set_defaults(handler=cmd_codec_experiment)

    return parser


# The exit code of each error main reports: the first type that matches.
_EXIT_CODES = {ResourceLimitError: 4, ShapingError: 3, ValueError: 2, OSError: 2}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
