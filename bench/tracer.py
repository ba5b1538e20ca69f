"""Outside-in tracing of hsictest: spans around calls into each module's public functions.

A target is named ``<module>.<function>``.  It is wrapped at every attribute of
every ``hsictest`` module that holds the function, which is where its callers
look it up (``hsictest.testing.rng_for``, ``hsictest.cli.permutation_test``, ...).
A target that no longer exists is listed in ``missing`` and its metrics are
left out, so the trace survives refactors of the package.

Spans stay in memory until ``collect`` reduces them to per-name totals.  A
span's self time is its duration minus the union of its children's intervals;
a span opened on a pool thread takes the innermost open span of the tracing
thread as its parent, so ``testing.power_experiment`` gets its pool's work as
children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

TARGETS = {
    "cli": ("main", "load_csv_columns"),
    "testing": ("permutation_test", "power_experiment", "p_value_from_null"),
    "rng": ("rng_for", "derive_seed"),
    "kernels": ("parse_kernel", "resolve_bandwidth", "median_heuristic", "gram_entries"),
    "hsic": ("hsic_biased", "centered_gram_entries", "population_hsic", "theta"),
    "datagen": ("sample", "enumerate_discrete"),
}

# Targets returning an iterator whose next() calls are timed as their own spans.
ITERATORS = {"datagen.enumerate_discrete"}


def _gram_measure(args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    n = np.shape(points)[0]
    return {"bytes_computed": n * n * 8}


def _permutation_measure(args, kwargs):
    data, cfg = args[0], args[3] if len(args) > 3 else kwargs["cfg"]
    b = cfg.num_permutations
    return {"replicates": b, "null_gather_bytes_computed": b * data.n * data.n * 8}


# Work counts computed from a call's arguments ("computed", not measured).
MEASURES = {
    "kernels.gram_entries": _gram_measure,
    "testing.permutation_test": _permutation_measure,
}


class _TracedIterator:
    def __init__(self, tracer, name, it):
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        start = perf_counter()
        stack = self._tracer._stack()
        span = [self._name, self._tracer._parent(stack), start, 0.0, {"yielded": 1}]
        stack.append(span)
        try:
            return next(self._it)
        except StopIteration:
            span[4] = {"yielded": 0}
            raise
        finally:
            stack.pop()
            self._tracer._spans.append(span)
            span[3] = perf_counter()


class Tracer:
    """Wraps the targets while active; ``collect`` returns and clears per-name totals."""

    def __init__(self):
        self._spans: list[list] = []
        self._local = threading.local()
        self._main_stack: list[list] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "hsictest" or name.startswith("hsictest."))]
        for layer, functions in TARGETS.items():
            home = sys.modules.get(f"hsictest.{layer}")
            for fname in functions:
                target = f"{layer}.{fname}"
                original = getattr(home, fname, None)
                if not callable(original):
                    self.missing.append(target)
                    continue
                wrapped = self._wrap(original, target)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original, wrapped))

    def __enter__(self):
        self._main_stack = self._stack()
        for module, attr, _, wrapped in self._patches:
            setattr(module, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: list):
        """The caller's span; on a pool thread, the tracing thread's innermost open span."""
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, fn, name: str):
        # The span starts and ends as close to the wrapper's edges as possible,
        # so the tracer's own cost falls inside the child, not in its caller.
        measured = name in MEASURES
        iterator = name in ITERATORS
        spans = self._spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            stack = self._stack()
            span = [name, self._parent(stack), start, 0.0, (args, kwargs) if measured else None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                return _TracedIterator(self, name + ".next", result) if iterator else result
            finally:
                stack.pop()
                spans.append(span)
                span[3] = perf_counter()

        return traced

    def collect(self) -> dict:
        """Per-name ``calls``, ``total_s``, ``self_s``, ``children_s`` and measure sums."""
        spans = list(self._spans)
        self._spans.clear()
        children = defaultdict(list)
        for span in spans:
            if span[1] is not None:
                children[id(span[1])].append((span[2], span[3]))
        stats: dict[str, dict] = {}
        for span in spans:
            name, _, start, end, measure = span
            covered = _covered(children.get(id(span), ()), start, end)
            entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                            "children_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - covered
            entry["children_s"] += covered
            if isinstance(measure, tuple):
                measure = _safe_measure(MEASURES[name], *measure)
            for key, value in (measure or {}).items():
                entry[key] = entry.get(key, 0) + value
        return stats


def _safe_measure(measure, args, kwargs):
    try:
        return measure(args, kwargs)
    except (AttributeError, IndexError, KeyError, TypeError):
        return {"unmeasured": 1}


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


# Metric name -> (span name, stat).  Values are per CLI command.
_PER_COMMAND = {
    "testing.permutation_test.calls": ("testing.permutation_test", "calls"),
    "testing.permutation_test.self_s": ("testing.permutation_test", "self_s"),
    "testing.null_gather_bytes_computed": ("testing.permutation_test", "null_gather_bytes_computed"),
    "testing.power_experiment.self_s": ("testing.power_experiment", "self_s"),
    "testing.p_value_from_null.total_s": ("testing.p_value_from_null", "total_s"),
    "rng.rng_for.calls": ("rng.rng_for", "calls"),
    "rng.rng_for.total_s": ("rng.rng_for", "total_s"),
    "kernels.median_heuristic.calls": ("kernels.median_heuristic", "calls"),
    "kernels.median_heuristic.total_s": ("kernels.median_heuristic", "total_s"),
    "kernels.resolve_bandwidth.calls": ("kernels.resolve_bandwidth", "calls"),
    "kernels.gram_entries.calls": ("kernels.gram_entries", "calls"),
    "kernels.gram_entries.total_s": ("kernels.gram_entries", "total_s"),
    "kernels.gram_entries.bytes_computed": ("kernels.gram_entries", "bytes_computed"),
    "hsic.hsic_biased.calls": ("hsic.hsic_biased", "calls"),
    "hsic.hsic_biased.self_s": ("hsic.hsic_biased", "self_s"),
    "hsic.centered_gram_entries.calls": ("hsic.centered_gram_entries", "calls"),
    "hsic.centered_gram_entries.self_s": ("hsic.centered_gram_entries", "self_s"),
    "hsic.population_hsic.calls": ("hsic.population_hsic", "calls"),
    "hsic.population_hsic.self_s": ("hsic.population_hsic", "self_s"),
    "hsic.theta.total_s": ("hsic.theta", "total_s"),
    "datagen.enumerate_discrete.next_s": ("datagen.enumerate_discrete.next", "total_s"),
    "datagen.enumerate_discrete.yielded": ("datagen.enumerate_discrete.next", "yielded"),
    "datagen.sample.calls": ("datagen.sample", "calls"),
    "datagen.sample.total_s": ("datagen.sample", "total_s"),
    "cli.main.total_s": ("cli.main", "total_s"),
    "cli.load_csv_columns.total_s": ("cli.load_csv_columns", "total_s"),
}

# Metric name -> (numerator, denominator), each a (span name, stat); 0 when the denominator is.
_RATIOS = {
    "rng.rng_for.calls_per_replicate":
        (("rng.rng_for", "calls"), ("testing.permutation_test", "replicates")),
    "kernels.resolve_bandwidth.useful_ratio":
        (("kernels.median_heuristic", "calls"), ("kernels.resolve_bandwidth", "calls")),
    "trace.coverage": (("cli.main", "children_s"), ("cli.main", "total_s")),
}

METRIC_NAMES = (*_PER_COMMAND, *_RATIOS)

_TIMES = ("calls", "total_s", "self_s", "children_s")


def _stat(stats: dict, span: str, key: str):
    """A stat of one cycle: 0 when the span never ran, None when its arguments could not be measured."""
    entry = stats.get(span)
    if entry is None:
        return 0
    if key not in _TIMES and entry.get("unmeasured"):
        return None
    return entry.get(key, 0)


def layer_metrics(cycles: list[dict], commands_per_cycle: int, missing: list[str]) -> dict:
    """Layer metrics per CLI command: each traced cycle's value, median over cycles.

    A function the workload never calls reads 0.  A metric is left out when a
    target it reads is missing or its arguments could not be measured.
    """
    def usable(*spans):
        return not any(span.removesuffix(".next") in missing for span in spans)

    def median(values):
        return None if any(v is None for v in values) else statistics.median(values)

    out = {}
    for name, (span, key) in _PER_COMMAND.items():
        if usable(span):
            values = [_stat(stats, span, key) for stats in cycles]
            out[name] = median([None if v is None else v / commands_per_cycle for v in values])
    for name, ((num_span, num_key), (den_span, den_key)) in _RATIOS.items():
        if usable(num_span, den_span):
            ratios = []
            for stats in cycles:
                num, den = _stat(stats, num_span, num_key), _stat(stats, den_span, den_key)
                ratios.append(None if num is None or den is None else (num / den if den else 0.0))
            out[name] = median(ratios)
    return {name: value for name, value in out.items() if value is not None}
