"""The benchmark's workloads: galcount job lists, each job with its expected exit
code and a check of its output.

Expected values come from an independent source where one is cheap: the
Schreier orbit-stabilizer recursion in tests/oracles.py for group orders, the
closed form for quadratic counts, the generated files themselves for census and
samples jobs, and invariance under renaming points for relabelled groups and
pairs.  The rest are pinned from the program's output at the commit that
defined the benchmark, and a job whose output drifts from them fails.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass
from typing import Callable, Optional

from inputs import Inputs
from oracles import schreier_order

from galcount.perms import Perm

SIEVE_CLI = "@sieve_cli"  # argv marker: run perfbench/sieve_cli.py instead of the galcount CLI

Check = Callable[[str, str], Optional[str]]  # (stdout, stderr) -> problem, or None when right


@dataclass
class Job:
    name: str
    argv: list[str]
    code: int  # expected exit code, from the README's table
    check: Check


# ---------------------------------------------------------------------------
# independent expected values


def _mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    is_prime = [True] * (n + 1)
    for p in range(2, n + 1):
        if is_prime[p]:
            for m in range(2 * p, n + 1, p):
                is_prime[m] = False
            for m in range(p, n + 1, p):
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def quadratic_count(x: int) -> int:
    """Quadratic fields with |disc| <= x: Z(x) = S(x) - 1 + S(x/4) + 2 S(x/8), where
    S(y) = sum over odd d <= sqrt(y) of mu(d) * ceil(floor(y/d^2) / 2) counts odd
    squarefree integers up to y."""
    mu = _mobius_upto(math.isqrt(x) + 1)

    def odd_squarefree(y: int) -> int:
        return sum(mu[d] * ((y // (d * d) + 1) // 2) for d in range(1, math.isqrt(y) + 1, 2))

    return odd_squarefree(x) - 1 + odd_squarefree(x // 4) + 2 * odd_squarefree(x // 8)


def census_count(discs: list[int]) -> Callable[[int], int]:
    ordered = sorted(discs)
    return lambda x: bisect.bisect_right(ordered, x)


def ols_exponent(rows: list[tuple[int, int]], fit_log_power: bool = False) -> float:
    """a in log z = log c + a log x (+ b log log x), by normal equations in plain floats."""
    cols = [[1.0, math.log(x)] + ([math.log(math.log(x))] if fit_log_power else []) for x, _ in rows]
    ys = [math.log(z) for _, z in rows]
    k = len(cols[0])
    aug = [[sum(r[i] * r[j] for r in cols) for j in range(k)] + [sum(r[i] * y for r, y in zip(cols, ys))] for i in range(k)]
    for i in range(k):
        pivot = max(range(i, k), key=lambda r: abs(aug[r][i]))
        aug[i], aug[pivot] = aug[pivot], aug[i]
        for r in range(k):
            if r != i:
                f = aug[r][i] / aug[i][i]
                aug[r] = [u - f * v for u, v in zip(aug[r], aug[i])]
    return aug[1][k] / aug[1][1]


# ---------------------------------------------------------------------------
# output checks


def _close(got: float, want: float, rel: float = 1e-6) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-12


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def cycle_index(text: str) -> int:
    """ind of a permutation printed as disjoint cycles: the sum of (length - 1)."""
    return sum(len(c.split()) - 1 for c in re.findall(r"\(([^()]*)\)", text))


def aval(degree: int, order: int, a: str, ind: int, witness: Optional[str] = None) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        f = _fields(stdout)
        m = re.fullmatch(r"(.+?)  \[ind (\d+)\]", f.get("witness", ""))
        if not m:
            return f"no witness line in {stdout!r}"
        got = (f.get("degree"), f.get("order"), f.get("a(G)"), int(m.group(2)))
        want = (str(degree), str(order), a, ind)
        if got != want:
            return f"degree, order, a(G), ind {got} != {want}"
        if cycle_index(m.group(1)) != ind:
            return f"witness {m.group(1)} does not have ind {ind}"
        if witness is not None and m.group(1) != witness:
            return f"witness {m.group(1)} != {witness}"
        return None

    return check


def counts(expected: Callable[[int], int], lo: int, hi: int, points: int) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        lines = stdout.split()
        if not lines or lines[0] != "x,count":
            return "missing x,count header"
        rows = [tuple(map(int, line.split(","))) for line in lines[1:]]
        xs = [x for x, _ in rows]
        if len(rows) != points or xs[0] != lo or xs[-1] != hi or xs != sorted(set(xs)):
            return f"grid {xs} is not {points} ascending points from {lo} to {hi}"
        for x, z in rows:
            if z != expected(x):
                return f"Z({x}) = {z}, expected {expected(x)}"
        return None

    return check


def pinned_counts(table: dict[int, int]) -> Check:
    xs = sorted(table)
    return counts(table.__getitem__, xs[0], xs[-1], len(xs))


def text(expected: str, rel: float = 1e-6) -> Check:
    """Line by line equality; numbers printed as floats may differ by rel."""

    def check(stdout: str, stderr: str) -> Optional[str]:
        got, want = stdout.split("\n"), expected.split("\n")
        if len(got) != len(want):
            return f"{len(got)} lines, expected {len(want)}"
        for g, w in zip(got, want):
            gt, wt = g.split(), w.split()
            if len(gt) != len(wt):
                return f"line {g!r} != {w!r}"
            for a, b in zip(gt, wt):
                if a == b:
                    continue
                try:
                    if _close(float(a), float(b), rel):
                        continue
                except ValueError:
                    pass
                return f"line {g!r} != {w!r}"
        return None

    return check


def fit_exponent(rows: list[tuple[int, int]], fit_log_power: bool = False) -> Check:
    """Fitted exponent of the given rows; rows with a zero count are dropped."""
    used = [(x, z) for x, z in rows if z > 0]
    want = ols_exponent(used, fit_log_power)

    def check(stdout: str, stderr: str) -> Optional[str]:
        f = _fields(stdout)
        got = float(f.get("a_hat", "nan"))
        if not _close(got, want, 1e-5):
            return f"a_hat {got} != {want}"
        if f.get("samples") != f"{len(used)} used, {len(rows) - len(used)} dropped":
            return f"samples line {f.get('samples')!r}"
        if "verdict" in f:
            within = float(f["|a_hat - a(G)|"]) <= float(f["tolerance"])
            if f["verdict"].startswith("WITHIN") != within:
                return f"verdict {f['verdict']!r} contradicts the printed distance and tolerance"
        return None

    return check


def table_rows(computed: dict[str, str], rows: int, csv_path: Optional[str] = None) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        body = [line.split() for line in stdout.splitlines()[1:]]
        if len(body) != rows:
            return f"{len(body)} table rows, expected {rows}"
        for cells in body:
            row_id, status = cells[0], cells[-1]
            want = computed.get(row_id)
            if (want is None) != (status == "SKIPPED(external)"):
                return f"row {row_id} status {status}"
            if want is not None and (cells[-2], status) != (want, "PASS"):
                return f"row {row_id}: {cells[-2]} {status}, expected {want} PASS"
        if csv_path is not None:
            with open(csv_path, encoding="utf-8") as handle:
                csv = [line.split(",") for line in handle.read().splitlines()]
            if csv[0] != ["row_id", "group", "order", "expected", "computed", "status"] or [
                (c[0], c[4]) for c in csv[1:]
            ] != [(c[0], c[-2]) for c in body]:
                return "csv rows differ from the printed table"
        return None

    return check


def stderr_has(fragment: str) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        return None if fragment in stderr else f"stderr {stderr!r} lacks {fragment!r}"

    return check


# ---------------------------------------------------------------------------
# pinned values: program output when the benchmark was defined, cross-checked
# by a separate sieve or brute force (cyclic counts by a multiplicative sieve
# over conductors and the character oracle; biquadratic counts up to 1e7 by the
# perfect-square oracle; divisor ratios by factorisation; powerful counts up
# to 1e12 by deduplicated enumeration)

CYCLIC3 = {
    10**8: {1000: 5, 5179: 11, 26827: 27, 138950: 57, 719686: 135, 3727594: 300, 19306977: 701, 10**8: 1592},
    10**12: {
        1000: 5, 19307: 23, 372759: 97, 7196857: 422, 138949549: 1869,
        2682695795: 8204, 51794746792: 36079, 10**12: 158542,
    },
}
CYCLIC5 = {10000: 0, 2511886: 3, 630957344: 9, 158489319246: 39, 39810717055350: 166, 10**16: 647}
BIQUADRATIC = {
    10**7: {10000: 47, 26827: 95, 71969: 192, 193070: 359, 517947: 667, 1389495: 1258, 3727594: 2319, 10**7: 4207},
    10**9: {
        10000: 47, 51795: 144, 268270: 436, 1389495: 1258, 7196857: 3456,
        37275937: 9287, 193069773: 24532, 10**9: 64316,
    },
}
BIQUADRATIC_SMALL = {1000: 8, 6310: 32, 39811: 123, 251189: 427, 1584893: 1348, 10**7: 4207}
DIVISOR_RATIO = {10**4: 7.121043131712585, 10**6: 8.237010094874297}  # max d(n) / n^(1/4)
POWERFUL = {10**9: (67231, 3721, 906), 10**15: (68575557, 434572, 40049)}  # k = 2, 3, 4

DEG6 = {"deg6/Nr4": "1/2", "deg6/Nr5": "1/2", "deg6/Nr7": "1/2"}
DEG8 = {
    "deg8/Nr6": "1/3", "deg8/Nr12": "1/4", "deg8/Nr13": "1/4", "deg8/Nr14": "1/4",
    "deg8/Nr17": "1/2", "deg8/Nr18": "1/2", "deg8/Nr24": "1/2", "deg8/Nr38": "1", "deg8/Nr44": "1",
}
# (expression, degree, order, a(G), witness ind, witness or None when long)
SMALL_GROUPS = (
    ("heis3()", 9, 27, "1/4", 4, "(2 3 5)(4 6 7)"),
    ("sl2(7)", 48, 336, "1/24", 24, None),
    ("dihedral(8)", 8, 16, "1/3", 3, "(2 8)(3 7)(4 6)"),
    ('cosets(natural(S 4), "(1 2 3)")', 8, 24, "1/4", 4, "(1 2)(3 4)(5 6)(7 8)"),
    ("regular(C 4)", 4, 4, "1/2", 2, "(1 3)(2 4)"),
    ("wreath(C 3, C 2)", 6, 18, "1/2", 2, "(1 2 3)"),
    ("product(A 4, C 2)", 8, 24, "1/4", 4, "(1 3 5)(2 4 6)"),
    ("sl2(3)", 8, 24, "1/4", 4, "(1 4 7)(2 8 5)"),
    ("wreath(C 2, A 4)", 8, 192, "1", 1, "(1 2)"),
    ("regular(S 3)", 6, 6, "1/3", 3, "(1 2)(3 4)(5 6)"),
    ("A 5", 5, 60, "1/2", 2, "(1 2 3)"),
    ("dihedral(5)", 5, 10, "1/2", 2, "(2 5)(3 4)"),
    ("regular(dihedral(6))", 12, 12, "1/6", 6, "(1 3)(2 6)(4 9)(5 10)(7 12)(8 11)"),
    ("product(S 3, C 3)", 9, 18, "1/3", 3, "(1 4)(2 5)(3 6)"),
)
# the witness word and indices do not depend on how the points are labelled
EXAMPLE_7_4 = "FAILS\nwitness: g1\nind1: 36\nind2: 8\na1: 1/27\na2: 1/8\n"
FIT_DEFAULTS = (
    (
        ["--family", "quadratic", "--predict", "S 2"],
        "a_hat: 0.99918857\nc_hat: 0.61458011\nlog_power: 0 (fixed)\nrms_residual: 0.0035270733\n"
        "samples: 12 used, 0 dropped\npredicted a(G): 1\n|a_hat - a(G)|: 0.0008114288\ntolerance: 0.05\n",
    ),
    (
        ["--family", "cyclic", "--ell", "3", "--predict", "C 3"],
        "a_hat: 0.49741118\nc_hat: 0.16380077\nlog_power: 0 (fixed)\nrms_residual: 0.10885396\n"
        "samples: 12 used, 0 dropped\npredicted a(G): 1/2\n|a_hat - a(G)|: 0.0025888205\ntolerance: 0.05\n",
    ),
    (
        ["--family", "biquadratic", "--predict", "product(C 2, C 2)"],
        "a_hat: 0.45091728\nc_hat: 0.0032444784\nlog_power: 2.4498937 (fitted)\nrms_residual: 0.014298704\n"
        "samples: 12 used, 0 dropped\npredicted a(G): 1/2\n|a_hat - a(G)|: 0.049082721\ntolerance: 0.1\n",
    ),
)
WITHIN = "verdict: WITHIN tolerance (empirical evidence, not a proof)\n"


def divisor_ratio(want: float) -> Check:
    def check(stdout: str, stderr: str) -> Optional[str]:
        f = _fields(stdout)
        if not _close(float(f.get("max_ratio", "nan")), want, 1e-12) or f.get("holds") != "True":
            return f"divisor bound output {stdout!r}, expected max_ratio {want!r} and holds True"
        return None

    return check


def powerful(ks: tuple[int, ...], want: tuple[int, ...]) -> Check:
    expected = "".join(f"powerful_{k}: {n}\n" for k, n in zip(ks, want))
    return lambda stdout, stderr: None if stdout == expected else f"{stdout!r} != {expected!r}"


# ---------------------------------------------------------------------------
# workloads


def geometric_grid(lo: int, hi: int, points: int) -> list[int]:
    """The x values of a ``--grid lo:hi:points`` option, as documented for the CLI."""
    ratio = (hi / lo) ** (1.0 / (points - 1))
    values = [lo] + [int(round(lo * ratio**i)) for i in range(1, points - 1)] + [hi]
    return sorted(set(values))


def groups_large(inp: Inputs, quick: bool = False) -> list[Job]:
    """A few big enumerations: the group layer does the work."""
    n = len(inp.a_gens[0])
    big, cap, wreath_top = (7, 1000, 3) if quick else (9, 100_000, 4)
    regular = 2**wreath_top * math.factorial(wreath_top)  # the order of C2 wr S_k
    a_order = schreier_order(n, [Perm(g) for g in inp.a_gens])
    return [
        Job("aval-file-alternating", ["aval", "--file", inp.a_group], 0, aval(n, a_order, "1/2", 2, inp.a_witness)),
        Job("aval-symmetric", ["aval", f"S {big}"], 0, aval(big, math.factorial(big), "1", 1, "(1 2)")),
        Job("aval-symmetric-cap", ["--cap", str(cap), "aval", f"S {big}"], 3, stderr_has(f"exceeds cap {cap}")),
        # regular action: an involution moves every point, so ind = |G| / 2
        Job(
            "aval-regular-wreath",
            ["aval", f"regular(wreath(C 2, S {wreath_top}))"],
            0,
            aval(regular, regular, f"1/{regular // 2}", regular // 2),
        ),
    ]


def fields_large(inp: Inputs, quick: bool = False) -> list[Job]:
    """Large exact counts plus census ingestion: the field and sieve layers do the work."""
    qtop, ctop, btop, dlimit, ptop = (10**6, 10**8, 10**7, 10**4, 10**9) if quick else (
        3 * 10**7, 10**12, 10**9, 10**6, 10**15
    )
    return [
        Job("count-quadratic", ["count", "quadratic", "--grid", f"1000:{qtop}:8"], 0, counts(quadratic_count, 1000, qtop, 8)),
        Job("count-cyclic", ["count", "cyclic", "--ell", "3", "--grid", f"1000:{ctop}:8"], 0, pinned_counts(CYCLIC3[ctop])),
        Job("count-biquadratic", ["count", "biquadratic", "--grid", f"10000:{btop}:8"], 0, pinned_counts(BIQUADRATIC[btop])),
        Job(
            "count-census",
            ["count", "census", "--label", "S3", "--file", inp.census, "--grid", "1000:1000000000:8"],
            0,
            counts(census_count(inp.census_records["S3"]), 1000, 10**9, 8),
        ),
        Job("divisor-bound", [SIEVE_CLI, "divisor-bound", str(dlimit), "0.25"], 0, divisor_ratio(DIVISOR_RATIO[dlimit])),
        Job("powerful-count", [SIEVE_CLI, "powerful", str(ptop), "2", "3", "4"], 0, powerful((2, 3, 4), POWERFUL[ptop])),
    ]


def many_small(inp: Inputs, quick: bool = False) -> list[Job]:
    """35 sub-second jobs: interpreter set-up and fixed per-call cost dominate."""
    csv = f"{inp.directory}/deg8.csv"
    small = inp.small_census_records
    d4_rows = [(x, census_count(small["D4"])(x)) for x in geometric_grid(10**7, 10**9, 8)]
    jobs = [
        Job("table-deg6", ["table", "deg6"], 0, table_rows(DEG6, 3)),
        Job("table-deg8-csv", ["table", "deg8", "--csv", csv], 0, table_rows(DEG8, 22, csv)),
    ]
    jobs += [Job(f"aval {e}", ["aval", e], 0, aval(*rest)) for e, *rest in SMALL_GROUPS]
    n = len(inp.small_gens[0])
    jobs += [
        Job(
            "aval-file-small",
            ["aval", "--file", inp.small_group],
            0,
            aval(n, schreier_order(n, [Perm(g) for g in inp.small_gens]), "1/2", 2, inp.small_witness),
        ),
        Job("compare-reps-example", ["compare-reps", "--example", "7.4"], 0, text(EXAMPLE_7_4)),
        Job("compare-reps-file", ["compare-reps", "--file", inp.pair], 0, text(EXAMPLE_7_4)),
    ]
    jobs += [Job(f"fit {' '.join(a)}", ["fit", *a], 0, text(out + WITHIN)) for a, out in FIT_DEFAULTS]
    jobs += [
        Job("fit-samples", ["fit", "--samples", inp.samples], 0, fit_exponent(inp.sample_rows)),
        Job(
            "fit-samples-log-power",
            ["fit", "--samples", inp.samples, "--log-power", "fit"],
            0,
            fit_exponent(inp.sample_rows, fit_log_power=True),
        ),
        Job(
            "fit-census",
            ["fit", "--family", "census", "--label", "D4", "--file", inp.small_census,
             "--grid", "10000000:1000000000:8", "--predict", "dihedral(4)"],
            0,
            fit_exponent(d4_rows),
        ),
        Job("count-quadratic-small", ["count", "quadratic", "--grid", "100:1000000:6"], 0, counts(quadratic_count, 100, 10**6, 6)),
        Job("count-cyclic5", ["count", "cyclic", "--ell", "5", "--grid", f"10000:{10**16}:6"], 0, pinned_counts(CYCLIC5)),
        Job("count-biquadratic-small", ["count", "biquadratic", "--grid", "1000:10000000:6"], 0, pinned_counts(BIQUADRATIC_SMALL)),
        Job(
            "count-census-small",
            ["count", "census", "--label", "C3", "--file", inp.small_census, "--grid", "1000:1000000000:6"],
            0,
            counts(census_count(small["C3"]), 1000, 10**9, 6),
        ),
        # one job per documented error exit code
        Job("error-2-bad-expression", ["aval", "bogus(3)"], 2, stderr_has("unknown construction 'bogus'")),
        Job("error-3-cap", ["--cap", "1000", "aval", "S 7"], 3, stderr_has("exceeds cap 1000")),
        Job("error-4-intransitive", ["aval", "--file", inp.intransitive], 4, stderr_has("not transitive")),
        Job("error-5-census", ["count", "census", "--label", "S3", "--file", inp.bad_census], 5,
            stderr_has(f"line {inp.bad_census_line}:")),
        Job("error-6-few-samples", ["fit", "--samples", inp.few_samples], 6, stderr_has("need at least 3 usable samples")),
        Job("error-7-inconsistent", ["compare-reps", "--file", inp.inconsistent_pair], 7,
            stderr_has("acts as the identity in one representation")),
    ]
    return jobs


# Documented behaviour the program does not meet yet.  Kept out of the timed
# workloads, which must run without failures; the smoke check reports it.
def known_defects(inp: Inputs) -> list[Job]:
    return [
        Job("fit-samples-non-integer-row", ["fit", "--samples", inp.bad_row_samples], 6, stderr_has("line")),
    ]


WORKLOADS: dict[str, Callable[[Inputs, bool], list[Job]]] = {
    "groups-large": groups_large,
    "fields-large": fields_large,
    "many-small": many_small,
}
