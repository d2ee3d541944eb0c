"""Per-layer spans for the traced run.

The tracer wraps galcount's public functions where they are looked up, as
module and class attributes, and replays each job in this process through
``galcount.cli.main`` (or perfbench/sieve_cli.py).  Every call to a wrapped function
records a span: its layer name, start, end, and the span that called it.  A
span's self time is its duration minus the time its child spans cover.
Spans stay in memory until the run ends.  Nothing in ``src/galcount`` knows it
is being traced.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time
import tracemalloc
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import sieve_cli
from jobs import SIEVE_CLI, Job
from oracles import schreier_order

from galcount import cli, constructions, fields, fitting, groupspec, sieves
from galcount.groups import EnumerationCapError, PermGroup
from galcount.perms import Perm


@dataclass
class Span:
    job: int
    name: str
    parent: Optional[str]
    start: float
    end: float
    self_time: float


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    job: int = 0
    job_start: float = 0.0
    cap_refused: bool = False
    _stack: list[list] = field(default_factory=list)  # [name, child time] per open span
    _enumerated: "weakref.WeakSet[PermGroup]" = field(default_factory=weakref.WeakSet)

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None, memory: bool = False) -> Callable:
        """fn recorded as a span; after(args, result) updates counters on success."""

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0] if stack else None
            measure = memory and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except EnumerationCapError:
                if not self.cap_refused:
                    self.cap_refused = True
                    self.add("groups.cap_refusal_s", time.perf_counter() - self.job_start)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans.append(Span(self.job, name, parent, start, end, end - start - frame[1]))
                if measure:
                    peak = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    self.counters["fields.quadratic_peak_mb"] = max(self.counters.get("fields.quadratic_peak_mb", 0), peak)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_enumerated(self, args, result) -> None:
        group = args[0]
        if group not in self._enumerated:
            self._enumerated.add(group)
            self.add("groups.elements", len(result))

    def targets(self) -> list[tuple[object, str, Callable]]:
        """(owner, attribute, wrapper) for every traced entry point."""
        count = lambda counter: lambda args, result: self.add(counter, len(result))  # noqa: E731
        dual_order = lambda args, result: self.add(  # noqa: E731
            "constructions.domination_elements", schreier_order(args[0].gens1[0].degree, list(args[0].gens1))
        )
        spec = [
            (groupspec, "parse_group_expr", "groupspec.parse", None),
            (groupspec, "parse_group_file", "groupspec.parse", None),
            (groupspec, "parse_paired_file", "groupspec.parse", None),
            (groupspec, "load_group_file", "groupspec.parse", None),
            (PermGroup, "elements", "groups.enumerate", self._count_enumerated),
            (PermGroup, "a_invariant", "groups.a_invariant", None),
            (PermGroup, "min_index_witness", "groups.a_invariant", None),
            (constructions, "coset_action", "constructions.coset_action", None),
            (constructions, "wreath", "constructions.wreath", None),
            (constructions, "check_index_domination", "constructions.domination", dual_order),
            (fields, "quadratic_samples", "fields.quadratic", None),
            (fields, "count_quadratic", "fields.quadratic", None),
            (sieves, "squarefree_sieve", "sieves.squarefree", None),
            (fields, "cyclic_tally", "fields.cyclic", None),
            (fields, "count_cyclic_ell", "fields.cyclic", None),
            (fields, "cyclic_conductors", "fields.cyclic", count("fields.conductors")),
            (fields, "biquadratic_tally", "fields.biquadratic", None),
            (fields, "count_biquadratic", "fields.biquadratic", None),
            (fields, "biquadratic_discs", "fields.biquadratic", count("fields.biquadratic_fields")),
            (fields, "fundamental_discriminants", "fields.biquadratic", count("fields.fundamental_discs")),
            (fields, "ingest_census", "fields.census", None),
            (fields, "read_census_records", "fields.census", count("fields.census_records")),
            (sieves, "divisor_bound_check", "sieves.divisor_counts", None),
            (sieves, "divisor_counts", "sieves.divisor_counts", None),
            (sieves, "powerful_count", "sieves.powerful_count", None),
            (fitting, "fit_exponent", "fitting.fit", lambda args, result: self.add("fitting.fits", 1)),
            (fitting, "conjecture_verdict", "fitting.verdict", None),
        ]
        out = [
            (owner, attr, self.wrap(name, getattr(owner, attr), after, memory=name == "fields.quadratic"))
            for owner, attr, name, after in spec
        ]
        if hasattr(fitting, "_fit_core"):  # every least-squares solve, the full fit and each leave-one-out refit
            core = fitting._fit_core

            def counted(*args, **kwargs):
                self.add("fitting.solves", 1)
                return core(*args, **kwargs)

            out.append((fitting, "_fit_core", counted))
        return out

    @contextlib.contextmanager
    def installed(self):
        """Replace each entry point wherever galcount or sieve_cli holds a reference to it."""
        modules = [m for n, m in sys.modules.items() if n == "galcount" or n.startswith("galcount.")] + [sieve_cli]
        undo = []
        try:
            for owner, attr, wrapper in self.targets():
                original = getattr(owner, attr)
                holders = [owner] + [m for m in modules if m is not owner and vars(m).get(attr) is original]
                for holder in holders:
                    undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
            yield
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def call(job: Job) -> tuple[int, str, str]:
    """Run one job in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.argv[0] == SIEVE_CLI:
                code = sieve_cli.main(job.argv[1:])
            else:
                code = cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def replay(jobs: list[Job], tracer: Optional[Tracer]) -> list[tuple[float, int, str, str]]:
    """Run each job in process, traced when a tracer is given: (seconds, code, stdout, stderr) per job."""
    results = []
    for index, job in enumerate(jobs):
        if tracer is None:
            start = time.perf_counter()
            code, out, err = call(job)
            results.append((time.perf_counter() - start, code, out, err))
            continue
        tracer.job, tracer.cap_refused = index, False
        root = tracer.wrap("sieve_cli.main" if job.argv[0] == SIEVE_CLI else "cli.main", call)
        with tracer.installed():
            tracer.job_start = time.perf_counter()
            code, out, err = root(job)
        span = tracer.spans[-1]
        results.append((span.end - span.start, code, out, err))
    return results


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Self times summed by layer, and the counters, of one traced pass: name -> (value, unit)."""
    own: dict[str, float] = {}
    for s in tracer.spans:
        own[s.name] = own.get(s.name, 0.0) + s.self_time
    counters = tracer.counters

    def seconds(name: str) -> tuple[float, str]:
        return own.get(name, 0.0), "s"

    def count(name: str) -> tuple[float, str]:
        return counters.get(name, 0), "count"

    def rate(counter: str, span: str) -> tuple[float, str]:
        return (counters.get(counter, 0) / own[span] if own.get(span) else 0.0), "1/s"

    return {
        "groups.enumerate_s": seconds("groups.enumerate"),
        "groups.elements": count("groups.elements"),
        "groups.elements_per_s": rate("groups.elements", "groups.enumerate"),
        "groups.a_invariant_s": seconds("groups.a_invariant"),
        "groups.cap_refusal_s": (counters.get("groups.cap_refusal_s", 0.0), "s"),
        "constructions.coset_action_s": seconds("constructions.coset_action"),
        "constructions.wreath_s": seconds("constructions.wreath"),
        "constructions.domination_s": seconds("constructions.domination"),
        "constructions.domination_elements": count("constructions.domination_elements"),
        "groupspec.parse_s": seconds("groupspec.parse"),
        "fields.quadratic_s": seconds("fields.quadratic"),
        "fields.quadratic_peak_mb": (counters.get("fields.quadratic_peak_mb", 0.0), "MB"),
        "sieves.squarefree_s": seconds("sieves.squarefree"),
        "fields.cyclic_s": seconds("fields.cyclic"),
        "fields.conductors": count("fields.conductors"),
        "fields.biquadratic_s": seconds("fields.biquadratic"),
        "fields.fundamental_discs": count("fields.fundamental_discs"),
        "fields.biquadratic_fields": count("fields.biquadratic_fields"),
        "fields.census_s": seconds("fields.census"),
        "fields.census_records_per_s": rate("fields.census_records", "fields.census"),
        "sieves.divisor_counts_s": seconds("sieves.divisor_counts"),
        "sieves.powerful_count_s": seconds("sieves.powerful_count"),
        "fitting.fit_s": seconds("fitting.fit"),
        "fitting.verdict_s": seconds("fitting.verdict"),
        "fitting.loo_refits": (max(0, counters.get("fitting.solves", 0) - counters.get("fitting.fits", 0)), "count"),
    }


def _microseconds(op: Callable, args: list, repeats: int = 5) -> float:
    """Median over repeats of the mean time of op over args, in microseconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for a in args:
            op(a)
        times.append((time.perf_counter() - start) / len(args) * 1e6)
    return statistics.median(times)


def perm_costs(seed: int) -> dict[str, tuple[float, str]]:
    """Cost of one Perm product and one ind, on seeded random permutations."""
    rng = random.Random(seed)

    def perms(n: int, count: int) -> list[Perm]:
        return [Perm(rng.sample(range(n), n)) for _ in range(count)]

    p9, p384 = perms(9, 64), perms(384, 16)
    pairs9 = [(p9[i % 64], p9[(i * 7 + 3) % 64]) for i in range(20000)]
    pairs384 = [(p384[i % 16], p384[(i * 5 + 1) % 16]) for i in range(1000)]
    return {
        "perms.mul_us": (_microseconds(lambda ab: ab[0] * ab[1], pairs9), "us"),
        "perms.ind_us": (_microseconds(lambda p: p.ind(), [p for p, _ in pairs9]), "us"),
        "perms.mul384_us": (_microseconds(lambda ab: ab[0] * ab[1], pairs384), "us"),
    }
