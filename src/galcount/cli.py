"""Command-line surface: a-invariants, table reproduction, field counts,
exponent fits, and representation-domination checks.

Exit codes: 0 success (and all table rows / checks passing), 1 table FAIL,
2 bad flags or unparsable group, 3 enumeration cap exceeded, 4 intransitive
group, 5 census I/O or format error, 6 insufficient samples, 7 inconsistent
paired representation.

Each command imports the layers it runs when it runs, so a child process that
counts fields never loads the group layers, and one that computes a(G) never
loads the field counts or the fit.  numpy loads only where an array is built:
a ``fit --samples`` refused for too few distinct x, and a group expression
refused before its first group is built, never import it.  ``run``, the
console entry point, freezes the garbage collector once ``main`` has returned,
so the interpreter's shutdown skips the collections over every object still
alive; ``main`` called in process leaves the collector as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from decimal import Decimal, InvalidOperation
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    DEFAULT_CAP,
    CensusFormatError,
    EnumerationCapError,
    GroupSpecError,
    InconsistentDualRep,
    InsufficientSamplesError,
    read_text,
)

if TYPE_CHECKING:
    from .groups import PermGroup

EXIT_OK = 0
EXIT_TABLE_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3
EXIT_INTRANSITIVE = 4
EXIT_CENSUS = 5
EXIT_SAMPLES = 6
EXIT_INCONSISTENT = 7

FAMILIES = ["quadratic", "cyclic", "biquadratic", "census"]
TABLE_NAMES = ["deg6", "deg8"]  # the keys of tables.TABLES, which only the table command imports


def _grid_value(text: str) -> int:
    """An integer, written plainly or in scientific notation that names it exactly."""
    try:
        value = Decimal(text)  # exact, and unlike Fraction never expands the power of 1e999999999
    except InvalidOperation:
        value = Decimal("NaN")
    if not value.is_finite() or value != value.to_integral_value() or value.adjusted() > 308:
        raise GroupSpecError(f"grid values must be integers in the float range, got {text!r}")
    return int(value)


def _parse_grid(spec: str) -> list[int]:
    from .fitting import geometric_grid

    parts = spec.split(":")
    if len(parts) != 3:
        raise GroupSpecError(f"grid must be lo:hi:points, got {spec!r}")
    return geometric_grid(*map(_grid_value, parts))


def _resolve_group(expr: Optional[str], path: Optional[str], cap: int) -> PermGroup:
    from .groupspec import load_group_file, parse_group_expr

    if (expr is None) == (path is None):
        raise GroupSpecError("give exactly one of a group expression or --file")
    if path is not None:
        return load_group_file(path, cap)
    return parse_group_expr(expr, cap)


def _cmd_aval(args) -> int:
    group = _resolve_group(args.expr, args.file, args.cap)
    if not group.is_transitive():
        print("error: group is not transitive", file=sys.stderr)
        return EXIT_INTRANSITIVE
    a = group.a_invariant()
    print(f"degree: {group.degree}")
    print(f"order: {group.order()}")
    print(f"a(G): {a}")
    if group.order() == 1:
        print("witness: none (trivial group)")
    else:
        witness, ind = group.min_index_witness()
        print(f"witness: {witness}  [ind {ind}]")
    return EXIT_OK


def _cmd_table(args) -> int:
    from . import tables
    from .groupspec import parse_group_expr

    # the CSV is opened first, so a path that cannot be written fails before any row prints
    try:
        csv = open(args.csv, "w", encoding="utf-8") if args.csv else contextlib.nullcontext()
    except OSError as exc:
        raise OSError(f"cannot write {args.csv!r}: {exc.strerror or exc}") from None
    rows = tables.TABLES[args.which]
    lines = []
    any_fail = False
    with csv:
        for row in rows:
            if row.expression is None:
                computed, status = "-", "SKIPPED(external)"
            else:
                group = parse_group_expr(row.expression, args.cap)
                a = group.a_invariant()
                computed = str(a)
                status = "PASS" if a == row.expected_a else "FAIL"
                any_fail = any_fail or status == "FAIL"
            lines.append((row.row_id, row.name, str(row.order), str(row.expected_a), computed, status))
        header = ("row", "group", "order", "expected", "computed", "status")
        widths = [max(len(line[i]) for line in [header, *lines]) for i in range(6)]
        for line in [header, *lines]:
            print("  ".join(field.ljust(width) for field, width in zip(line, widths)).rstrip())
        if args.csv:
            csv.write("row_id,group,order,expected,computed,status\n")
            for line in lines:
                csv.write(",".join(line) + "\n")
    return EXIT_TABLE_FAIL if any_fail else EXIT_OK


def _family_samples(args) -> list[tuple[int, int]]:
    from . import fields, fitting, sieves

    if args.family == "quadratic":
        grid = _parse_grid(args.grid or "100:1e7:12")
        return fields.quadratic_samples(grid)
    if args.family == "cyclic":
        if args.ell is None:
            raise GroupSpecError("cyclic counts need --ell")
        ell = args.ell
        if ell % 2 == 0 or not sieves.is_prime(ell):
            raise GroupSpecError(f"--ell must be an odd prime, got {ell}")
        if args.grid:
            grid = _parse_grid(args.grid)
        else:
            if 4 * (ell - 1) > sys.float_info.max_10_exp:  # refused before the default top 10_000 ** (ell - 1) is formed
                raise ValueError("grid values must lie in the float range, below about 1.8e308")
            first = (2 * ell + 1) ** (ell - 1)
            grid = fitting.geometric_grid(first, 10_000 ** (ell - 1), 12)
        return fields.cyclic_samples(ell, grid)
    if args.family == "biquadratic":
        # default grid starts past the pre-asymptotic head, where the free
        # log power would otherwise soak up curvature from the first fields
        grid = _parse_grid(args.grid or "1e4:1e8:12")
        return fields.biquadratic_samples(grid)
    # argparse's choices leave only the census
    if not args.label or not args.file:
        raise GroupSpecError("census counts need --label and --file")
    census = fields.ingest_census(read_text(args.file, CensusFormatError))
    if args.label not in census:
        raise CensusFormatError(f"label {args.label!r} not present in census")
    discs = census[args.label]
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        top = int(discs[-1])
        grid = fitting.geometric_grid(1, top, min(top, 12)) if top > 1 else [1]
    return fields.tally_samples(discs, grid)


def _cmd_count(args) -> int:
    samples = _family_samples(args)
    print("x,count")
    for x, z in samples:
        print(f"{x},{z}")
    return EXIT_OK


def _read_samples(path: str) -> list[tuple[int, int]]:
    text = read_text(path, InsufficientSamplesError)
    lines = [(n, line.strip()) for n, line in enumerate(text.split("\n"), start=1) if line.strip()]
    if lines and lines[0][1] == "x,count":
        lines = lines[1:]
    samples = []
    for number, line in lines:
        try:
            x, count = (int(part) for part in line.split(","))
        except ValueError:
            raise InsufficientSamplesError(f"line {number}: bad sample line {line!r}") from None
        try:
            float(x), float(count)  # the fit works in floats
        except OverflowError:
            raise InsufficientSamplesError(f"line {number}: sample beyond the float range") from None
        samples.append((x, count))
    if not samples:
        raise InsufficientSamplesError("no samples in file")
    return samples


def _cmd_fit(args) -> int:
    from . import fitting

    if (args.samples is None) == (args.family is None):
        raise GroupSpecError("give exactly one of --samples or --family")
    samples = _read_samples(args.samples) if args.samples is not None else _family_samples(args)
    log_power = args.log_power
    if log_power is None:
        log_power = "fit" if args.family == "biquadratic" else 0.0
    elif log_power != "fit":
        try:
            log_power = float(log_power)
        except ValueError:
            raise GroupSpecError(f"--log-power must be 'fit' or a finite number, got {log_power!r}") from None
    result = fitting.fit_exponent(samples, log_power=log_power)
    verdict = None
    if args.predict:  # before anything prints, so a refused prediction prints no fit either
        from .groupspec import parse_group_expr

        group = parse_group_expr(args.predict, args.cap)
        tolerance = args.tolerance
        if tolerance is None:
            tolerance = 0.1 if log_power == "fit" else 0.05
        verdict = fitting.conjecture_verdict(group, result, tolerance)
    print(f"a_hat: {result.a_hat:.8g}")
    print(f"c_hat: {result.c_hat:.8g}")
    print(f"log_power: {result.b:.8g}" + (" (fitted)" if result.b_fitted else " (fixed)"))
    print(f"rms_residual: {result.rms_residual:.8g}")
    print(f"samples: {result.sample_count} used, {result.dropped} dropped")
    if verdict is not None:
        print(f"predicted a(G): {verdict.predicted}")
        print(f"|a_hat - a(G)|: {abs(verdict.fitted.a_hat - float(verdict.predicted)):.8g}")
        print(f"tolerance: {verdict.tolerance:.8g}")
        status = "WITHIN" if verdict.within_tolerance else "OUTSIDE"
        print(f"verdict: {status} tolerance (empirical evidence, not a proof)")
    return EXIT_OK


def _cmd_compare_reps(args) -> int:
    from . import constructions
    from .groupspec import parse_group_expr, parse_paired_file

    if (args.file is None) == (args.example is None):
        raise GroupSpecError("give exactly one of --file or --example")
    if args.example is not None:
        if args.example != "7.4":
            raise GroupSpecError(f"unknown built-in example {args.example!r}")
        dual = constructions.dual_regular_pair(parse_group_expr("product(heis3(), C 2)", args.cap))
    else:
        dual = parse_paired_file(read_text(args.file, GroupSpecError))
    report = constructions.check_index_domination(dual, args.cap)
    if report.holds:
        print("HOLDS")
    else:
        w = report.witness
        word = "*".join(f"g{j + 1}" for j in w.word)
        print("FAILS")
        print(f"witness: {word}")
        print(f"ind1: {w.ind1}")
        print(f"ind2: {w.ind2}")
        print(f"a1: {w.a1}")
        print(f"a2: {w.a2}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galcount",
        description="Growth exponents of number-field counting functions: "
        "group invariants, exact counts over Q, and empirical exponent fits.",
    )
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP, help="element enumeration cap")
    sub = parser.add_subparsers(dest="command", required=True)

    p_aval = sub.add_parser("aval", help="degree, order, exact a(G) and a minimal-index witness")
    p_aval.add_argument("expr", nargs="?", help="group expression, e.g. 'regular(C 4)'")
    p_aval.add_argument("--file", help="group file instead of an expression")
    p_aval.set_defaults(fn=_cmd_aval)

    p_table = sub.add_parser("table", help="recompute an expected-exponent table")
    p_table.add_argument("which", choices=TABLE_NAMES)
    p_table.add_argument("--csv", help="also write machine-readable rows to this path")
    p_table.set_defaults(fn=_cmd_table)

    family_options = argparse.ArgumentParser(add_help=False)
    family_options.add_argument("--ell", type=int, help="odd prime degree for cyclic counts")
    family_options.add_argument("--grid", help="geometric grid lo:hi:points")
    family_options.add_argument("--label", help="census group label")
    family_options.add_argument("--file", help="census file path")

    p_count = sub.add_parser(
        "count", parents=[family_options], help="stream (x, Z(x)) samples for a field family"
    )
    p_count.add_argument("family", choices=FAMILIES)
    p_count.set_defaults(fn=_cmd_count)

    p_fit = sub.add_parser("fit", parents=[family_options], help="fit c*x^a*(log x)^b to samples")
    p_fit.add_argument("--samples", help="file of x,count rows")
    p_fit.add_argument("--family", choices=FAMILIES)
    p_fit.add_argument("--log-power", dest="log_power", help="'fit' or a number (default 0; biquadratic: fit)")
    p_fit.add_argument("--predict", help="group expression to compare the fitted exponent against")
    p_fit.add_argument("--tolerance", type=float)
    p_fit.set_defaults(fn=_cmd_fit)

    p_cmp = sub.add_parser("compare-reps", help="check the index-domination inequality for a pair")
    p_cmp.add_argument("--file", help="paired-representation file")
    p_cmp.add_argument("--example", help="built-in pair name (7.4)")
    p_cmp.set_defaults(fn=_cmd_compare_reps)
    return parser


# First match wins, so the ValueError subclasses precede ValueError.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (EnumerationCapError, EXIT_CAP),
    (CensusFormatError, EXIT_CENSUS),
    (InsufficientSamplesError, EXIT_SAMPLES),
    (InconsistentDualRep, EXIT_INCONSISTENT),
    (OSError, EXIT_BAD_INPUT),
    (MemoryError, EXIT_BAD_INPUT),
    (ValueError, EXIT_BAD_INPUT),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(tokens) - 1, 0, -1):
        # argparse alone reads a value after a space as an option when it starts with "-" and is not
        # -digits or -digits.digits, such as -2.5e0 and -inf; joined by "=", it is read as a value
        if tokens[i - 1] in ("--log-power", "--tolerance") and tokens[i].startswith("-"):
            with contextlib.suppress(ValueError):
                float(tokens[i])
                tokens[i - 1 : i + 1] = [f"{tokens[i - 1]}={tokens[i]}"]
    args = parser.parse_args(tokens)
    if args.cap < 1:
        parser.error(f"argument --cap: must be at least 1, got {args.cap}")
    try:
        return args.fn(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a bare MemoryError has no text
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def run() -> None:
    try:
        sys.exit(main())
    finally:
        # everything alive now, numpy's objects among them, is left out of the collections at shutdown
        gc.freeze()


if __name__ == "__main__":
    run()
