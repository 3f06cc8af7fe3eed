"""Command-line front end.

Subcommands: compare, classify, scan, catalyst, entropy.  State arguments
are file paths (one coefficient per line or a JSON list) or names from the
bundled catalog.  Exit codes: 0 success, 2 input error (`InputError`), 3
resource cap exceeded, 4 output I/O error; any other exception is a bug
and ends with a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys

from .catalysis import CatalystSearchConfig, catalyzes, search_catalyst
from .majorization import Comparability, compare, vidal_pmax
from .multicopy import PairKind, classify_pair, obstruction, pmax_scan
from .render import format_decimal, format_decimal_fixed, format_rational
from .spectrum import InputError, MemoryCapExceeded, entropy, memory_cap, tensor_power
from .statefile import load_state

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


def _load(args, attr: str):
    return load_state(
        getattr(args, attr), amplitudes=args.amplitudes, normalize=args.normalize
    )


def _relation_text(relation: Comparability) -> str:
    return {
        Comparability.EQUIVALENT: "Equivalent",
        Comparability.SOURCE_TO_TARGET: "Comparable: A -> B deterministic",
        Comparability.TARGET_TO_SOURCE: "Comparable: B -> A deterministic",
        Comparability.INCOMPARABLE: "Incomparable",
    }[relation]


def _cmd_compare(args) -> int:
    a = _load(args, "state_a")
    b = _load(args, "state_b")
    print(_relation_text(compare(a, b)))
    for label, p in (("A->B", vidal_pmax(a, b)), ("B->A", vidal_pmax(b, a))):
        print(f"p_max({label}) = {format_rational(p)} = {format_decimal(p)}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    a = _load(args, "state_a")
    b = _load(args, "state_b")
    result = classify_pair(a, b, args.k_max)
    if result.kind is PairKind.COMPARABLE_SINGLE_COPY:
        print(f"Comparable (single copy): {_relation_text(result.direction)}")
    elif result.kind is PairKind.STRONGLY_INCOMPARABLE:
        op = "<" if a.largest < b.largest else ">"
        print(
            f"Strongly incomparable (largest(A) {op} largest(B) "
            f"and smallest(A) {op} smallest(B))"
        )
    elif result.kind is PairKind.K_COPY_INCOMPARABLE:
        direction = (
            "A -> B"
            if result.direction is Comparability.SOURCE_TO_TARGET
            else "B -> A"
        )
        print(
            f"{result.k}-copy LOCC incomparable "
            f"({direction} deterministic at {result.k + 1} copies)"
        )
    else:
        print(
            f"Undecided up to {result.searched_up_to} copies "
            "(no deterministic direction found)"
        )
    return EXIT_OK


def _cmd_scan(args) -> int:
    source = _load(args, "state_a")
    target = _load(args, "state_b")
    scan = pmax_scan(source, target, args.k_max)
    header = ("k", "pmax_exact", "pmax_decimal", "theorem3_bound_exact")
    rows = [
        (
            str(row.k),
            format_rational(row.pmax),
            format_decimal_fixed(row.pmax),
            "" if row.decay_bound is None else format_rational(row.decay_bound),
        )
        for row in scan.rows
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(header)]
    # Open the CSV before printing, so an unwritable path prints nothing.
    sink = (
        contextlib.nullcontext()
        if args.csv is None
        else open(args.csv, "w", encoding="utf-8", newline="")
    )
    with sink as handle:
        for line in [header, *rows]:
            print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())
        if handle is not None:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    return EXIT_OK


def _cmd_catalyst(args) -> int:
    source = _load(args, "state_a")
    target = _load(args, "state_b")
    if args.check is not None:
        candidate = _load(args, "check")
        k = args.copies
        ok = catalyzes(tensor_power(source, k), tensor_power(target, k), candidate)
        print("true" if ok else "false")
        return EXIT_OK
    lo, hi = args.dims
    cfg = CatalystSearchConfig(
        min_dim=lo, max_dim=hi, grid_denominator=args.grid_q, copies=args.copies
    )
    found = search_catalyst(source, target, cfg)
    if found is not None:
        print("catalyst: " + " ".join(format_rational(v) for v in found.expand()))
    elif (why := obstruction(source, target)) is not None:
        print(f"none ({why} rules out any catalyst)")
    else:
        print(f"none at resolution 1/{args.grid_q} (dims {lo}..{hi})")
    return EXIT_OK


def _cmd_entropy(args) -> int:
    state = _load(args, "state_a")
    print(f"{entropy(state):.15g}")
    return EXIT_OK


def _dims(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO..HI (e.g. 2..4), got {text!r}"
        ) from None


def _add_state_args(sub, two_states=True):
    sub.add_argument("state_a", metavar="A", help="state file or fixture name")
    if two_states:
        sub.add_argument("state_b", metavar="B", help="state file or fixture name")
    sub.add_argument(
        "--amplitudes",
        action="store_true",
        help="treat entries as Schmidt amplitudes and square them",
    )
    sub.add_argument(
        "--normalize",
        action="store_true",
        help="rescale entries by their exact sum instead of requiring sum 1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locc-lab",
        description="Exact analysis of entanglement transformations "
        "between bipartite pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="single-copy comparability and p_max")
    _add_state_args(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("classify", help="many-copy incomparability classification")
    _add_state_args(p)
    p.add_argument("--k-max", type=int, default=8, help="copy-count budget")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("scan", help="p_max per copy count, with decay bound")
    _add_state_args(p)
    p.add_argument("--k-max", type=int, default=8, help="copy-count budget")
    p.add_argument("--csv", metavar="PATH", help="also write the rows as CSV")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("catalyst", help="verify or search for a catalyst")
    _add_state_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", metavar="FILE", help="verify this candidate")
    group.add_argument("--find", action="store_true", help="grid-search a catalyst")
    p.add_argument("--dims", type=_dims, default=(2, 4), help="catalyst ranks LO..HI")
    p.add_argument("--grid-q", type=int, default=20, help="grid denominator")
    p.add_argument("--copies", type=int, default=1, help="catalyze the k-copy pair")
    p.set_defaults(handler=_cmd_catalyst)

    p = sub.add_parser("entropy", help="entropy of entanglement in bits")
    _add_state_args(p, two_states=False)
    p.set_defaults(handler=_cmd_entropy)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        memory_cap()  # a bad setting is bad input for every command
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
