"""galcount benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload groups-large --seed 1 --seconds 36 --trace 0

One client runs one galcount job at a time and waits for it to exit, so only
this harness and one child are ever running.  Each child is reaped with
os.wait4, which gives its own wall time, CPU time and peak RSS.  Every job's
exit code and output are checked.  A pass runs the workload's whole job list;
passes repeat until --seconds is used up, and the metrics are medians over
passes.  Times are rescaled by the host's speed, measured while each child
runs (see host_speed); the raw figures are printed as well.

With --trace 0 the run reports the end-to-end metrics.  With --trace 1 it
reports the per-layer metrics: each job is also replayed in this process, once
untraced and once with spans around galcount's public functions (see
spans.py), and the untraced child's wall time is split into layer self times
plus the CLI's own overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the root of a galcount checkout; the
inputs are generated from --seed under .perfbench_work/ and removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

if TYPE_CHECKING:
    from jobs import Job

T = TypeVar("T")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
IMPORTS_PER_PASS = 6  # set-up samples per pass; the host's speed drifts within a run
# reference_seconds() at speed 1.0: between the fast (1.2 ms) and slow (2.2 ms) spells of the
# 2-vCPU 2.1 GHz Xeon VM where the benchmark was defined
REFERENCE_S = 0.0016
PROBE_INTERVAL_S = 0.03
RUN_LIMIT_S = 150.0  # children still running this long after the start are killed
sys.path[1:1] = [SRC, TESTS]  # galcount and its oracles, imported where needed once main has found them


@dataclasses.dataclass
class Result:
    job: str
    wall: float
    cpu: float
    rss_mb: float
    problem: Optional[str]


def verdict(job: Job, code: int, stdout: str, stderr: str) -> Optional[str]:
    """None when the job's exit code and output are right, else what is wrong."""
    if code != job.code:
        return f"exit {code}, expected {job.code}: {stderr.strip()[-200:]}"
    try:
        return job.check(stdout, stderr)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output ({exc!r}): {stdout[-200:]!r}"


class Runner:
    """Spawns jobs one at a time in a work directory and measures each child.

    A child still running at the deadline is killed, and its job fails, so a
    hung job cannot keep the run from ending.
    """

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline  # time.perf_counter() value
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.out = os.path.join(workdir, "job.stdout")
        self.err = os.path.join(workdir, "job.stderr")

    def command(self, argv: list[str]) -> list[str]:
        from jobs import SIEVE_CLI

        if argv[0] == SIEVE_CLI:
            return [sys.executable, os.path.join(HERE, "sieve_cli.py"), *argv[1:]]
        return [sys.executable, "-m", "galcount.cli", *argv]

    def spawn(self, cmd: list[str]) -> tuple[float, int, os.struct_rusage, str, str]:
        with open(self.out, "w+", encoding="utf-8") as out, open(self.err, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            killer = threading.Timer(max(0.0, self.deadline - start), self._kill, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return wall, proc.returncode, usage, out.read(), err.read()

    @staticmethod
    def _kill(pid: int) -> None:
        # os.kill, not Popen.kill: Popen polls first and could reap the child before os.wait4 does
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)

    def run(self, job: Job) -> Result:
        wall, code, usage, stdout, stderr = self.spawn(self.command(job.argv))
        return Result(job.name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, verdict(job, code, stdout, stderr))

    def python(self, code: str) -> tuple[float, str]:
        """Wall time and stdout of a fresh interpreter running code, which must exit 0."""
        wall, status, _, stdout, stderr = self.spawn([sys.executable, "-c", code])
        if status != 0:
            raise RuntimeError(f"python -c {code!r} failed: {stderr}")
        return wall, stdout


def timed_loop(seconds: float, body) -> list:
    """Call body() until the next call would end past the deadline; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(body())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def reference_seconds() -> float:
    """One timing of a fixed pure-Python loop (tuple building and hashing)."""
    start = time.perf_counter()
    acc = 0
    for i in range(1000):
        acc ^= hash(tuple((i + j) % 9 for j in range(9)))
    return time.perf_counter() - start


def host_speed(measure: Callable[[], T]) -> tuple[T, float]:
    """measure() and the host's mean speed while it ran, 1.0 being REFERENCE_S per loop.

    The two vCPUs of a shared host each switch between fast and slow spells
    of a few seconds, and the mix drifts over minutes.  A thread times the
    reference loop every PROBE_INTERVAL_S, on each CPU in turn, while the
    child runs; it costs the child a few percent of one CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speeds: list[float] = []
    stop = threading.Event()

    def probe() -> None:
        for turn in itertools.count():
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})  # this thread only
            speeds.append(REFERENCE_S / reference_seconds())
            if stop.wait(PROBE_INTERVAL_S):
                return

    thread = threading.Thread(target=probe)
    thread.start()
    try:
        result = measure()
    finally:
        stop.set()
        thread.join()
    return result, statistics.mean(speeds)


def end_to_end(runner: Runner, jobs, seconds: float) -> tuple[dict, list[Result]]:
    """Times are rescaled to a host whose speed is 1.0 (see host_speed): each
    child's wall and CPU time are multiplied by the speed measured while it ran.
    The raw figures are printed too."""
    runner.python("import galcount")  # compile the bytecode once, as an installed package would have it
    imports: list[tuple[float, float]] = []  # (raw, rescaled) seconds
    # set-up samples spread evenly through each pass, before the jobs at these positions
    slots = [i * len(jobs) // IMPORTS_PER_PASS for i in range(IMPORTS_PER_PASS)]

    def one_pass() -> list[tuple[Result, float]]:
        out = []
        for index, job in enumerate(jobs):
            for _ in range(slots.count(index)):
                (wall, _), speed = host_speed(lambda: runner.python("import galcount"))
                imports.append((wall, wall * speed))
            out.append(host_speed(lambda: runner.run(job)))
        return out

    passes = timed_loop(seconds, one_pass)

    def figures(scaled: bool) -> dict:
        def per_job(field: str) -> list[float]:
            # the median over passes of each job: a slow spell counts once per job, not in full
            return [
                statistics.median(getattr(p[i][0], field) * (p[i][1] if scaled else 1.0) for p in passes)
                for i in range(len(jobs))
            ]

        walls = per_job("wall")
        return {
            "setup_s": metric(statistics.median(i[scaled] for i in imports), "s"),
            "wall_s": metric(sum(walls), "s"),
            "cpu_s": metric(sum(per_job("cpu")), "s"),
            "job_p50_s": metric(statistics.median(walls), "s"),
        }

    raw = figures(scaled=False)
    metrics = {
        **figures(scaled=True),
        "peak_rss_mb": metric(max(statistics.median(p[i][0].rss_mb for p in passes) for i in range(len(jobs))), "MB"),
    }
    speeds = ", ".join(f"{statistics.median(speed for _, speed in p):.3f}" for p in passes)
    print(f"passes: {len(passes)} of {len(jobs)} jobs; median host speed per pass: {speeds}")
    print("raw: " + ", ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in raw.items()))
    return metrics, [r for p in passes for r, _ in p]


def traced_round(runner: Runner, jobs, seed: int) -> tuple[dict, list[Result], list[str], list]:
    """One untraced pass in children, one untraced and one traced replay in process."""
    from spans import Tracer, layer_metrics, perm_costs, replay

    children = [runner.run(job) for job in jobs]
    plain = replay(jobs, None)
    tracer = Tracer()
    traced = replay(jobs, tracer)
    results = list(children)
    for label, replayed in (("in-process", plain), ("traced", traced)):
        for job, (seconds, code, stdout, stderr) in zip(jobs, replayed):
            results.append(Result(f"{job.name} ({label})", seconds, 0.0, 0.0, verdict(job, code, stdout, stderr)))

    ratio = sum(t[0] for t in traced) / sum(p[0] for p in plain)
    notes, overhead = [], 0.0
    for index, (job, child) in enumerate(zip(jobs, children)):
        spans = [s for s in tracer.spans if s.job == index]
        root = spans[-1]
        library = sum(s.self_time for s in spans if s.parent is not None)
        overhead += child.wall - library
        # exact by construction: self times partition the root span
        if abs(root.end - root.start - sum(s.self_time for s in spans)) > 1e-6:
            results.append(Result(f"{job.name} (accounting)", 0.0, 0.0, 0.0, "span self times do not sum to the job's time"))
        within = "within" if library <= child.wall * max(ratio, 1.0) else "NOT within"
        notes.append(
            f"{job.name}: wall {child.wall:.4f} s = layers {library:.4f} s + cli overhead {child.wall - library:.4f} s"
            f" ({within} the tracing overhead)"
        )

    layer = {name: metric(value, unit) for name, (value, unit) in {**perm_costs(seed), **layer_metrics(tracer)}.items()}
    layer["cli.overhead_s"] = metric(overhead, "s")
    layer["trace.overhead_ratio"] = metric(ratio, "ratio")
    return layer, results, notes, tracer.spans


def per_layer(runner: Runner, jobs, seconds: float, spans_path: str, seed: int) -> tuple[dict, list[Result]]:
    runner.python("import galcount")  # compile the bytecode once
    imports = []
    timer = "import time; t = time.perf_counter(); import galcount; print(time.perf_counter() - t)"

    def one_round():
        imports.extend(float(runner.python(timer)[1]) for _ in range(IMPORTS_PER_PASS))
        return traced_round(runner, jobs, seed)

    rounds = timed_loop(seconds, one_round)
    for note in rounds[-1][2]:
        print(note)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for number, r in enumerate(rounds):
            for span in r[3]:
                handle.write(json.dumps({"round": number, "job": jobs[span.job].name, **dataclasses.asdict(span)}) + "\n")
    metrics = {
        name: metric(statistics.median(r[0][name]["value"] for r in rounds), rounds[0][0][name]["unit"])
        for name in rounds[0][0]
    }
    metrics["cli.import_s"] = metric(statistics.median(imports), "s")
    print(f"rounds: {len(rounds)} of {len(jobs)} jobs")
    return metrics, [res for r in rounds for res in r[1]]


def context() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the galcount CLI.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "galcount", "__init__.py")) or not os.path.isfile(
        os.path.join(TESTS, "oracles.py")
    ):
        print(f"error: no galcount checkout around {HERE} (need src/galcount and tests/oracles.py)", file=sys.stderr)
        return 2
    from inputs import generate
    from jobs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print("context: " + json.dumps(context(), sort_keys=True))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs = WORKLOADS[args.workload](generate(args.seed, workdir), False)
        runner = Runner(workdir, deadline=started + RUN_LIMIT_S)
        if args.trace:
            spans_path = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, results = per_layer(runner, jobs, args.seconds, spans_path, args.seed)
        else:
            metrics, results = end_to_end(runner, jobs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in results if r.problem is not None]
    print(f"failed_ratio: {len(failures) / len(results):.6g} ratio ({len(failures)} of {len(results)} jobs)")
    for r in failures[:20]:
        print(f"FAILED {r.job}: {r.problem}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": len(results), "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
