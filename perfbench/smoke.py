"""Smoke check of the benchmark itself, at reduced sizes (about a minute).

    python3 perfbench/smoke.py

For each workload it runs every job once as a child process and once traced
in process, at reduced size (A 7 and S 7 instead of A 9 and S 9, counts to
1e6-1e9 instead of 3e7-1e15, a 3,000-line census), and requires every job to
pass.  It then shows that the checker is not vacuous: every job must fail when
its expected exit code is corrupted, and every job that prints a number must
fail when its numbers are changed.  Finally it reports the known defects,
documented behaviour the program does not meet yet, which the timed workloads
leave out.  Exits 0 when the benchmark behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import os
import re
import shutil
import sys
import time

import run


def bump_numbers(text: str) -> str:
    """Every run of digits increased by one: 36 -> 37, 0.99 -> 1.100."""
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), text)


def main() -> int:
    from inputs import generate
    from jobs import WORKLOADS, known_defects

    problems = []
    workdir = os.path.join(run.ROOT, ".perfbench_work", f"smoke-{os.getpid()}")
    try:
        inp = generate(1, workdir, alt_degree=7, census_lines=3000)
        runner = run.Runner(workdir, deadline=time.perf_counter() + 600)
        for name, build in WORKLOADS.items():
            jobs = build(inp, True)
            layer, results, _, _ = run.traced_round(runner, jobs, seed=1)
            problems += [f"{name}: {r.job}: {r.problem}" for r in results if r.problem]
            caught_code = caught_output = numeric = 0
            for job in jobs:
                _, code, _, stdout, stderr = runner.spawn(runner.command(job.argv))
                wrong_code = dataclasses.replace(job, code=job.code + 1)
                caught_code += run.verdict(wrong_code, code, stdout, stderr) is not None
                if re.search(r"\d", stdout + stderr):
                    numeric += 1
                    caught_output += run.verdict(job, code, bump_numbers(stdout), bump_numbers(stderr)) is not None
            print(
                f"{name}: {len(jobs)} jobs pass; corrupted exit code caught {caught_code}/{len(jobs)}, "
                f"corrupted numbers caught {caught_output}/{numeric}; {len(layer)} per-layer metrics"
            )
            if caught_code != len(jobs) or caught_output != numeric:
                problems.append(f"{name}: the checker missed a corrupted expectation")
        for job in known_defects(inp):
            _, code, _, stdout, stderr = runner.spawn(runner.command(job.argv))
            problem = run.verdict(job, code, stdout, stderr)
            print(f"known defect {job.name}: {problem or 'now fixed; move the job into a workload'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
