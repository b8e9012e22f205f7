"""Span tracing from outside the program.

The tracer replaces module attributes with wrappers at the place each
call looks its target up: ``module.attr`` for calls through a module
object (``_batch.tu_group``), and the importing module for names bound by
``from ... import`` (``decision.aggregate_statistic``).  Each wrapped call
records a span ``(trace, span, parent, name, start, end)``; a layer's
self time is its spans' durations minus the time covered by their child
spans.  Count-only wrappers record calls too frequent or too small to be
worth a span.  Nothing inside grouphom is changed on disk.
"""

from __future__ import annotations

import functools
import json
import re
import statistics
import subprocess
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        # Self time per (trace id, span name).
        self.self_time: defaultdict[tuple, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, child time]
        self._trace = None
        self._next_id = 0

    @contextmanager
    def trace(self, trace_id: str):
        """Group the spans of one traced operation under ``trace_id``."""
        previous, self._trace = self._trace, trace_id
        try:
            with self.span(f"op:{trace_id}"):
                yield
        finally:
            self._trace = previous

    @contextmanager
    def span(self, name: str):
        span_id, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][2] += duration
            self.self_time[(self._trace, name)] += duration - frame[2]
            self.calls[name] += 1
            self.spans.append((self._trace, span_id, parent, name, start, end))

    def merge(self, other: "Tracer") -> None:
        """Add another tracer's spans, self times and counts, as from a
        traced operation run in a forked child.  Span ids are unique
        within one trace id."""
        self.spans.extend(other.spans)
        for key, seconds in other.self_time.items():
            self.self_time[key] += seconds
        self.calls.update(other.calls)

    def total_self_time(self, name: str) -> float:
        return sum(t for (_, n), t in self.self_time.items() if n == name)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_count(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write(self, path, extra: dict) -> None:
        self_time: defaultdict[str, dict] = defaultdict(dict)
        for (trace, name), seconds in self.self_time.items():
            self_time[trace][name] = seconds
        with open(path, "w") as fh:
            json.dump(
                {
                    **extra,
                    "self_time_s": self_time,
                    "calls": dict(self.calls),
                    "span_fields": ["trace", "span", "parent", "name", "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


@contextmanager
def patched(targets):
    """Temporarily set ``(object, attribute, replacement)`` triples."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, replacement in targets:
            setattr(obj, attr, replacement)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def grouphom_targets(tracer: Tracer, gh) -> list[tuple]:
    """Wrappers for every layer boundary; ``gh`` maps short module names
    to the imported grouphom modules."""
    span = [
        ("cli", "main", "cli.main"),
        ("cli", "load_dataset", "data.load_dataset"),
        ("data", "read_counts_csv", "data.read_counts_csv"),
        ("data", "validate_dataset", "data.validate_dataset"),
        ("decision", "aggregate_statistic", "ustat.aggregate_statistic"),
        ("decision", "run_all_tests", "decision.run_all_tests"),
        ("decision", "run_global_test", "decision.run_global_test"),
        ("decision", "pergroup_bootstrap_pvalues", "decision.pergroup_bootstrap_pvalues"),
        ("decision", "adjust_pvalues", "decision.adjust_pvalues"),
        ("decision", "var0_bootstrap", "variance.var0_bootstrap"),
        ("_batch", "tu_group", "batch.tu_group"),
        ("_batch", "var_group", "batch.var_group"),
        ("_batch", "chi2_group", "batch.chi2_group"),
        ("_batch", "lrt_group", "batch.lrt_group"),
        ("classical", "chi_square_pooled", "classical.chi_square_pooled"),
        ("classical", "chi_square_moments_oracle", "classical.moments_oracle"),
        ("classical", "lrt_moments_oracle", "classical.moments_oracle"),
        ("simulate", "reproduce_table", "simulate.reproduce_table"),
        ("simulate", "estimate_rejection_rate", "simulate.estimate_rejection_rate"),
        ("simulate", "_run_cell", "simulate.run_cell"),
        ("simulate", "_run_block", "simulate.run_block"),
        ("simulate", "_draw_replicate", "simulate.draw_replicate"),
        ("simulate", "_conditional_binomial", "simulate.conditional_binomial"),
        ("simulate", "_replicate_rng", "simulate.replicate_rng"),
    ]
    count = [
        ("ustat", "group_ustat", "ustat.group_ustat"),
        ("decision", "group_ustat", "ustat.group_ustat"),
    ]
    out = []
    for module, attr, name in span:
        out.append((gh[module], attr, tracer.wrap(name, getattr(gh[module], attr))))
    for module, attr, name in count:
        out.append((gh[module], attr, tracer.wrap_count(name, getattr(gh[module], attr))))
    return out


class PoolCounter:
    """Stands in for the ``multiprocessing`` module inside
    ``grouphom.simulate`` and counts the worker pools it starts."""

    def __init__(self, multiprocessing_module):
        self._mp = multiprocessing_module
        self.pools = 0

    def __getattr__(self, attr):
        return getattr(self._mp, attr)

    def get_context(self, method=None):
        ctx = self._mp.get_context(method)
        counter = self

        class CountingContext:
            def __getattr__(self, attr):
                return getattr(ctx, attr)

            def Pool(self, *args, **kwargs):
                counter.pools += 1
                return ctx.Pool(*args, **kwargs)

        return CountingContext()


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")


def parse_importtime(text: str) -> tuple[float, float]:
    """From ``python -X importtime -c "import grouphom.cli"`` stderr,
    return (cumulative seconds of the top-level grouphom imports,
    cumulative seconds of scipy.stats)."""
    grouphom_us = 0
    scipy_stats_us = None
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if indent == 1 and (name == "grouphom" or name.startswith("grouphom.")):
            grouphom_us += cumulative
        if name == "scipy.stats" and scipy_stats_us is None:
            scipy_stats_us = cumulative
    if grouphom_us == 0 or scipy_stats_us is None:
        raise ValueError("importtime output names no grouphom or scipy.stats import")
    return grouphom_us / 1e6, scipy_stats_us / 1e6


def import_times(python: str, env: dict, cwd, runs: int = 3) -> tuple[float, float]:
    """Median import times over ``runs`` fresh interpreters."""
    pairs = []
    for _ in range(runs):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import grouphom.cli"],
            capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import grouphom.cli failed: {proc.stderr[-500:]}")
        pairs.append(parse_importtime(proc.stderr))
    return (
        statistics.median(p[0] for p in pairs),
        statistics.median(p[1] for p in pairs),
    )
