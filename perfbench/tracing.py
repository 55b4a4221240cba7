"""Per-layer tracing for the benchmark's traced run.

Spans are recorded from outside the program: `instrument` rebinds each
traced gphi function, in every gphi module that holds it, to a wrapper that
opens a span (name, start, end, parent) around the call.  The package binds
names with `from .x import y`, so rebinding only the defining module would
miss calls silently.  Spans stay in memory and are reduced to per-layer
metrics once the traced job has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layer -> statistics reported for it.  What each should move, end to end:
# - sieve_segment: relaxed values_per_s and peak_rss_mb (no visible change
#   on theorem, where the sieve is a small share);
# - totient_progression, primes_in_class, base_primes: exotic values_per_s
#   and cpu_s; write_checkpoint is about 1% of exotic, so no change there;
# - is_prime, factorize, euler_phi: theorem (small n) and orbits (large n);
#   euler_phi's distinct arguments against its calls is the share of
#   totient work that memoization could not remove;
# - iterate_g, detect_relations, scan_orbits: orbits values_per_s;
# - classify, brute_force_solutions: theorem values_per_s;
# - exotic_prime_search, relaxed_search: orchestration and filtering;
# - cli.main: argument parsing and record emission, mostly on orbits.
# Every statistic is a sum, so a layer the workload never calls reads 0.
LAYER_STATS = (
    ("sieve.sieve_segment", ("calls", "values", "self_s", "incl_s")),
    ("sieve.totient_progression", ("calls", "values", "self_s", "incl_s")),
    ("sieve.primes_in_class", ("calls", "values", "self_s", "incl_s")),
    ("sieve.base_primes", ("calls", "self_s")),
    ("sieve.write_checkpoint", ("calls", "self_s", "bytes")),
    ("arith.is_prime", ("calls", "self_s", "incl_s")),
    ("arith.factorize", ("calls", "self_s", "incl_s")),
    ("arith.euler_phi", ("calls", "self_s", "distinct")),
    ("arith.iterate_g", ("calls", "self_s")),
    ("orbits.detect_relations", ("calls", "self_s", "incl_s")),
    ("orbits.scan_orbits", ("self_s",)),
    ("diophantine.classify", ("calls", "self_s", "incl_s")),
    ("diophantine.brute_force_solutions", ("self_s",)),
    ("diophantine.exotic_prime_search", ("self_s",)),
    ("diophantine.relaxed_search", ("self_s",)),
    ("cli.main", ("self_s",)),
)
LAYERS = tuple(layer for layer, _ in LAYER_STATS)
LAYER_INDEX = {layer: lid for lid, layer in enumerate(LAYERS)}
# Statistics that count work and must repeat exactly between traced jobs.
COUNT_STATS = ("calls", "values", "bytes", "distinct")
OVERHEAD_METRIC = "trace.overhead_frac"

# Statistic -> (unit, which direction is better).
STAT_UNITS = {
    "calls": ("count", "lower"),
    "values": ("count", "lower"),
    "bytes": ("B", "lower"),
    "distinct": ("count", "lower"),
    "self_s": ("s", "lower"),
    "incl_s": ("s", "lower"),
    "overhead_frac": ("ratio", "lower"),
}

# Per-call and per-value figures, derived from the sums above and printed
# only where their denominator is not 0: name -> (numerator, denominator,
# scale, unit), and the layers each is derived for.
RATIOS = {
    "ns_per_value": ("incl_s", "values", 1e9, "ns"),
    "us_per_call": ("incl_s", "calls", 1e6, "us"),
    "distinct_ratio": ("distinct", "calls", 1.0, "ratio"),
}
LAYER_RATIOS = (
    ("sieve.sieve_segment", "ns_per_value"),
    ("sieve.totient_progression", "ns_per_value"),
    ("sieve.primes_in_class", "ns_per_value"),
    ("arith.is_prime", "us_per_call"),
    ("arith.factorize", "us_per_call"),
    ("arith.euler_phi", "distinct_ratio"),
    ("orbits.detect_relations", "us_per_call"),
    ("diophantine.classify", "us_per_call"),
)

# Layers each workload must call at least once; a zero there means a
# rebinding was missed.
EXPECTED_LAYERS = {
    "theorem": ("diophantine.classify", "diophantine.brute_force_solutions",
                "sieve.sieve_segment", "sieve.base_primes", "arith.is_prime",
                "arith.factorize", "arith.euler_phi", "cli.main"),
    "exotic": ("sieve.primes_in_class", "sieve.totient_progression", "sieve.base_primes",
               "sieve.write_checkpoint", "diophantine.exotic_prime_search", "cli.main"),
    "relaxed": ("sieve.sieve_segment", "sieve.base_primes", "diophantine.relaxed_search",
                "cli.main"),
    "orbits": ("arith.iterate_g", "arith.euler_phi", "arith.factorize", "arith.is_prime",
               "orbits.detect_relations", "orbits.scan_orbits", "cli.main"),
}

# Work a call did, from its bound arguments and result: values sieved, or
# bytes written.  Taken after the span closes, so it costs the caller's self time.
_WORK = {
    "sieve.sieve_segment": lambda a, r: r.hi - r.lo,
    "sieve.totient_progression": lambda a, r: len(r[1]),
    "sieve.primes_in_class": lambda a, r: max(a["hi"] - max(a["lo"], 2), 0),
    "sieve.write_checkpoint": lambda a, r: os.path.getsize(a["path"]),
}
# Layers whose distinct first arguments are counted.
_DISTINCT = ("arith.euler_phi",)


def metric_name(layer, stat):
    return f"{layer}.{stat}"


def per_layer_spec():
    """The per_layer entries of BENCHMARK.json, in reporting order."""
    spec = []
    for layer, stats in LAYER_STATS:
        for stat in stats:
            unit, better = STAT_UNITS[stat]
            spec.append({"name": metric_name(layer, stat), "unit": unit, "better": better})
    unit, better = STAT_UNITS["overhead_frac"]
    spec.append({"name": OVERHEAD_METRIC, "unit": unit, "better": better})
    return spec


class Tracer:
    """Spans and counters of one traced job, one thread."""

    def __init__(self):
        self.calls = [0] * len(LAYERS)
        self.work = [0] * len(LAYERS)
        self.arguments = [set() for _ in LAYERS]
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = []

    def _open(self, lid):
        idx = len(self.starts)
        self.names.append(lid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, layer, fn):
        """A wrapper that records a span per call of `fn` (per resumption,
        for a generator function, so the consumer's time stays its own)."""
        lid = LAYER_INDEX[layer]
        work = _WORK.get(layer)
        distinct = layer in _DISTINCT
        bind = inspect.signature(fn).bind if work or distinct else None

        def record(args, kwargs, result):
            bound = bind(*args, **kwargs).arguments
            if work:
                self.work[lid] += work(bound, result)
            if distinct:
                self.arguments[lid].add(next(iter(bound.values())))

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.calls[lid] += 1
                gen = fn(*args, **kwargs)
                while True:
                    span = self._open(lid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[lid] += 1
            span = self._open(lid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if bind:
                record(args, kwargs, result)
            return result

        return wrapper


def _gphi_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gphi" or name.startswith("gphi."))]


@contextmanager
def instrument(tracer):
    """Rebind every traced function, wherever a gphi module holds it, to a
    span-recording wrapper; restore the originals on exit."""
    wrappers = {}
    for layer in LAYERS:
        module, func = layer.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"gphi.{module}"), func)
        wrappers[id(fn)] = (fn, tracer.wrap(layer, fn))
    replaced = []
    try:
        for module in _gphi_modules():
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))
        yield tracer
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)


def self_times(starts, ends, parents):
    """Each span's duration minus its children's durations.  parents[i] is
    the index of span i's parent, or -1.  Spans open and close on one stack,
    so a child lies inside its parent and siblings do not overlap."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    dur = ends - starts
    kids = np.flatnonzero(parents >= 0)
    covered = np.bincount(parents[kids], weights=dur[kids], minlength=dur.size)
    return dur - covered.astype(np.int64)


def layer_metrics(tracer):
    """Per-layer metrics of one traced job (all but the overhead)."""
    names = np.frombuffer(tracer.names, dtype=np.int32)
    starts = np.frombuffer(tracer.starts, dtype=np.int64)
    ends = np.frombuffer(tracer.ends, dtype=np.int64)
    own = self_times(starts, ends, np.frombuffer(tracer.parents, dtype=np.int64))
    self_ns = np.bincount(names, weights=own, minlength=len(LAYERS))
    incl_ns = np.bincount(names, weights=ends - starts, minlength=len(LAYERS))
    metrics = {}
    for lid, (layer, stats) in enumerate(LAYER_STATS):
        values = {
            "calls": tracer.calls[lid],
            "values": tracer.work[lid],
            "bytes": tracer.work[lid],
            "distinct": len(tracer.arguments[lid]),
            "self_s": float(self_ns[lid]) / 1e9,
            "incl_s": float(incl_ns[lid]) / 1e9,
        }
        for stat in stats:
            metrics[metric_name(layer, stat)] = values[stat]
    return metrics


def ratios(metrics):
    """{name: (value, unit)} of the derived figures whose denominator is not 0."""
    out = {}
    for layer, ratio in LAYER_RATIOS:
        num, den, scale, unit = RATIOS[ratio]
        base = metrics[metric_name(layer, den)]
        if base:
            out[metric_name(layer, ratio)] = (metrics[metric_name(layer, num)] * scale / base, unit)
    return out


def missing_layers(workload, tracer):
    """Layers the workload should call that the tracer saw no call of."""
    return [layer for layer in EXPECTED_LAYERS[workload]
            if tracer.calls[LAYER_INDEX[layer]] == 0]
