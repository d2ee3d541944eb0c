"""Seeded input files for the galcount benchmark.

Everything the benchmarked jobs read is written here from one seed: the same
seed gives byte-identical files.  The generator builds its groups without
galcount, so the program sees only text files.  Each writer returns the facts
the checks need (expected witnesses, records, samples), read back from what it
wrote rather than from the program.

    python3 perfbench/inputs.py --seed 7 --out inputs-7   # writes the files
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass, field

CENSUS_LABELS = (
    # label, degree, growth exponent of the synthetic counts
    ("S3", 3, 1.0),
    ("C3", 3, 0.5),
    ("D4", 4, 1.0),
    ("C2xC2", 4, 0.5),
)
CENSUS_TOP = 10**9
SMALL_CENSUS_LINES = 3000


def conjugate(g: tuple[int, ...], sigma: tuple[int, ...]) -> tuple[int, ...]:
    """sigma g sigma^-1: the same permutation with every point renamed by sigma."""
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[sigma[i]] = sigma[j]
    return tuple(out)


def cycle_text(g: tuple[int, ...]) -> str:
    """1-based disjoint cycles, each from its smallest point, as the program prints them."""
    seen = [False] * len(g)
    parts = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            continue
        cycle = []
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cycle.append(cur + 1)
            cur = g[cur]
        parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "()"


def cycle(n: int, points: list[int]) -> tuple[int, ...]:
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return tuple(images)


def group_block(gens: list[tuple[int, ...]]) -> str:
    return f"degree={len(gens[0])}\n" + "".join(f"gen={cycle_text(g)}\n" for g in gens)


def relabelled(gens: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    sigma = list(range(len(gens[0])))
    rng.shuffle(sigma)
    return [conjugate(g, tuple(sigma)) for g in gens]


def alternating_gens(n: int) -> list[tuple[int, ...]]:
    """A 3-cycle first, then an n-cycle (n odd): the 3-cycle is the minimal-index witness."""
    return [cycle(n, [0, 1, 2]), cycle(n, list(range(n)))]


def heis_times_c2_pair() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Example 7.4 built without galcount: H x C2 (H the order-27 exponent-3 group) in its
    left regular action on 54 points, paired with its action on 18 = 9 * 2 points.

    H is the unitriangular group of triples with (a,b,c)(a',b',c') = (a+a', b+b',
    c+c'+ab'), generated by x = (1,0,0) and y = (0,1,0).  On the 9 left cosets of
    <x>, labelled (b, c), x sends (b, c) to (b, c+b) and y sends it to (b+1, c).
    The abstract generators are x, y and the C2 generator z, in that order.
    """
    elements = [(a, b, c, e) for a in range(3) for b in range(3) for c in range(3) for e in range(2)]
    index = {t: i for i, t in enumerate(elements)}

    def mul(s, t):
        a, b, c, e = s
        a2, b2, c2, e2 = t
        return ((a + a2) % 3, (b + b2) % 3, (c + c2 + a * b2) % 3, (e + e2) % 2)

    abstract = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    regular = [tuple(index[mul(g, t)] for t in elements) for g in abstract]

    def coset(b, c, e):
        return (b * 3 + c) * 2 + e

    small = [
        tuple(coset(b, (c + b) % 3, e) for b in range(3) for c in range(3) for e in range(2)),
        tuple(coset((b + 1) % 3, c, e) for b in range(3) for c in range(3) for e in range(2)),
        tuple(coset(b, c, 1 - e) for b in range(3) for c in range(3) for e in range(2)),
    ]
    return regular, small


@dataclass
class Inputs:
    """Paths of the generated files plus the facts the checks compare against."""

    directory: str
    a_group: str = ""
    a_gens: list[tuple[int, ...]] = field(default_factory=list)
    a_witness: str = ""
    small_group: str = ""
    small_gens: list[tuple[int, ...]] = field(default_factory=list)
    small_witness: str = ""
    pair: str = ""
    census: str = ""
    census_records: dict[str, list[int]] = field(default_factory=dict)
    small_census: str = ""
    small_census_records: dict[str, list[int]] = field(default_factory=dict)
    samples: str = ""
    sample_rows: list[tuple[int, int]] = field(default_factory=list)
    few_samples: str = ""
    bad_row_samples: str = ""
    intransitive: str = ""
    bad_census: str = ""
    bad_census_line: int = 0
    inconsistent_pair: str = ""


def write_census(path: str, lines: int, rng: random.Random) -> dict[str, list[int]]:
    """Synthetic census: |disc| drawn so that Z(x) grows like x^a for each label."""
    records: dict[str, list[int]] = {label: [] for label, _, _ in CENSUS_LABELS}
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("degree,group,abs_disc\n")
        for _ in range(lines):
            label, degree, a = CENSUS_LABELS[rng.randrange(len(CENSUS_LABELS))]
            disc = max(1, int(CENSUS_TOP * rng.random() ** (1.0 / a)))
            records[label].append(disc)
            handle.write(f"{degree},{label},{disc}\n")
    return records


def generate(seed: int, out: str, alt_degree: int = 9, census_lines: int = 300_000) -> Inputs:
    """Write every input file for one seed into out and return what was written."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(seed)
    inp = Inputs(directory=out)

    def path(name: str) -> str:
        return os.path.join(out, name)

    def write(name: str, text: str) -> str:
        with open(path(name), "w", encoding="utf-8") as handle:
            handle.write(text)
        return path(name)

    gens = relabelled(alternating_gens(alt_degree), rng)
    inp.a_group = write("alternating.group", f"# A {alt_degree}, points renamed\n" + group_block(gens))
    inp.a_gens = gens
    inp.a_witness = cycle_text(gens[0])
    inp.small_gens = relabelled(alternating_gens(7), rng)
    inp.small_group = write("small_alternating.group", "# A 7, points renamed\n" + group_block(inp.small_gens))
    inp.small_witness = cycle_text(inp.small_gens[0])

    regular, small = heis_times_c2_pair()
    inp.pair = write(
        "pair.txt", group_block(relabelled(regular, rng)) + "---\n" + group_block(relabelled(small, rng))
    )

    inp.census = path("census.csv")
    inp.census_records = write_census(inp.census, census_lines, rng)
    inp.small_census = path("census_small.csv")
    inp.small_census_records = write_census(inp.small_census, SMALL_CENSUS_LINES, rng)

    a, c = rng.uniform(0.3, 1.0), rng.uniform(0.5, 3.0)
    xs = [int(round(10 ** (2 + 0.5 * i + rng.random() * 0.1))) for i in range(12)]
    inp.sample_rows = [(x, max(1, round(c * x**a))) for x in xs]
    inp.samples = write("samples.csv", "x,count\n" + "".join(f"{x},{z}\n" for x, z in inp.sample_rows))

    inp.few_samples = write("few_samples.csv", "x,count\n" + "".join(f"{x},{z}\n" for x, z in inp.sample_rows[:2]))
    bad_rows = [f"{x},{z}" for x, z in inp.sample_rows]
    bad_rows[rng.randrange(len(bad_rows))] += ".5"
    inp.bad_row_samples = write("bad_row_samples.csv", "x,count\n" + "\n".join(bad_rows) + "\n")

    n = rng.randrange(5, 9)
    k = rng.randrange(2, n - 1)
    inp.intransitive = write(
        "intransitive.group", group_block(relabelled([cycle(n, list(range(k))), cycle(n, list(range(k, n)))], rng))
    )

    good = [f"3,S3,{rng.randrange(1, 10**6)}" for _ in range(rng.randrange(10, 40))]
    inp.bad_census_line = rng.randrange(2, len(good) + 2)
    good.insert(inp.bad_census_line - 2, f"3,S3,{rng.randrange(1, 10**6)}x")
    inp.bad_census = write("bad_census.csv", "degree,group,abs_disc\n" + "\n".join(good) + "\n")

    # g1 has order 3 in the first block but order 2 in the second: not one group.
    three, two = relabelled([cycle(3, [0, 1, 2]), cycle(3, [0, 1])], rng), relabelled([cycle(2, [0, 1])] * 2, rng)
    inp.inconsistent_pair = write("inconsistent_pair.txt", group_block(three) + "---\n" + group_block(two))
    return inp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    inp = generate(args.seed, args.out)
    print(f"wrote inputs for seed {args.seed} to {inp.directory}")


if __name__ == "__main__":
    main()
