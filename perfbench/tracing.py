"""Per-layer tracing of ``locc_lab`` from outside the package.

`Tracer.installed()` swaps every public function of every layer module for
a wrapper that records a span (name, start, end, parent span, query id),
in every module namespace that binds the function - so
``multicopy.tensor_power`` and ``catalysis.majorized_by`` are traced as
well as ``spectrum.tensor_power`` - and puts the original objects back
when the block exits, also when a query raised.  Nothing under ``src/``
changes; with no tracer installed the package runs untouched.

A span's self time is its duration minus the time its child spans cover.
Counts (calls, distinct entries, breakpoints, grid candidates, ...) are
computed by the wrappers from the arguments and results, outside the timed
span, so they repeat exactly for a given input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from reference import grid_size

#: Layer name -> the modules it covers.  ``catalog`` is reported with
#: ``statefile`` because both turn named or written states into spectra.
LAYERS = {
    "spectrum": ("spectrum",),
    "majorization": ("majorization",),
    "multicopy": ("multicopy",),
    "catalysis": ("catalysis",),
    "statefile": ("statefile", "catalog"),
    "render": ("render",),
    "cli": ("cli",),
}
LAYER_OF_MODULE = {m: layer for layer, mods in LAYERS.items() for m in mods}


def layer_functions(package) -> dict[str, object]:
    """Qualified name -> original function, for every public function that
    a layer module defines (classes and imported names excluded)."""
    found = {}
    for module_name in LAYER_OF_MODULE:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{module_name}.{attr}"] = value
    return found


def _boundaries(spectrum) -> set[int]:
    total, out = 0, set()
    for _, mult in spectrum.entries:
        total += mult
        out.add(total)
    return out


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.originals = layer_functions(package)
        self.spans: list[tuple] = []  # (name, start, end, parent, query)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.query = None
        self._stack: list[list] = []  # [name, start, child_s, span_id]

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append(None)  # reserve the id; filled in on exit

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans[span_id] = (
            name, start, end, parent[3] if parent else None, self.query
        )
        self.self_s[name] += duration - child_s
        self.calls[name] += 1

    @contextmanager
    def span(self, name: str, query=None):
        """Root span of one query; layer spans opened inside are its children."""
        self.query = query
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        count = getattr(self, "_count_" + name.replace(".", "_"), None)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, count)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn, count):
        """Each ``next`` is one span, so self time is time inside the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs, None)
            inner = fn(*args, **kwargs)
            while True:
                self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit()
                self.counts[name + ".yielded"] += 1
                yield item

        return traced

    @contextmanager
    def installed(self):
        """Trace every layer function for the duration of the block."""
        wrapped = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        modules = [
            m for n, m in list(sys.modules.items())
            if n == self.package.__name__ or n.startswith(self.package.__name__ + ".")
        ]
        replaced = []
        try:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        setattr(module, attr, wrapped[id(value)])
                        replaced.append((module, attr, value))
            yield self
        finally:
            for module, attr, value in replaced:
                setattr(module, attr, value)

    # -- counts computed from arguments and results ---------------------------

    def _count_spectrum_tensor_power(self, args, kwargs, result):
        base, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        m = len(base.entries)
        self.counts["spectrum.tensor_power.distinct_out"] += len(result.entries)
        self.counts["spectrum.tensor_power.compositions"] += math.comb(k + m - 1, m - 1)

    def _count_spectrum_tensor_product(self, args, kwargs, result):
        self.counts["spectrum.tensor_product.distinct_out"] += len(result.entries)

    def _count_majorization_majorized_by(self, args, kwargs, result):
        x, y = args
        points = _boundaries(x) | _boundaries(y) | {max(x.dim, y.dim)}
        self.counts["majorization.majorized_by.breakpoints"] += len(points)

    def _count_majorization_vidal_pmax(self, args, kwargs, result):
        source, target = args
        if source.dim < target.dim:
            return
        last = target.dim - 1
        points = {0, last}
        points.update(b for b in _boundaries(source) | _boundaries(target) if b <= last)
        self.counts["majorization.vidal_pmax.breakpoints"] += len(points)

    def _count_catalysis_grid_candidates(self, args, kwargs, result):
        cfg = args[0] if args else kwargs["cfg"]
        self.counts["catalysis.grid_size"] += grid_size(
            cfg.grid_denominator, cfg.min_dim, cfg.max_dim
        )

    def _count_multicopy_classify_pair(self, args, kwargs, result):
        self.counts["multicopy.classify_pair.decided"] += result.kind.name != "UNDECIDED"

    def _count_catalysis_search_catalyst(self, args, kwargs, result):
        self.counts["catalysis.search_catalyst.hits"] += result is not None

    def _count_statefile_read_state(self, args, kwargs, result):
        path = args[0] if args else kwargs["path_or_name"]
        if os.path.isfile(path):
            self.counts["statefile.bytes_parsed"] += os.path.getsize(path)


#: (function, metrics) reported for single functions.
FUNCTION_METRICS = (
    ("spectrum.tensor_power", ("calls", "self_s")),
    ("spectrum.tensor_product", ("calls", "self_s")),
    ("spectrum.make_spectrum", ("calls", "self_s")),
    ("majorization.majorized_by", ("calls", "self_s")),
    ("majorization.vidal_pmax", ("calls", "self_s")),
    ("majorization.compare", ("calls", "self_s")),
    ("multicopy.classify_pair", ("self_s",)),
    ("multicopy.find_min_deterministic_k", ("self_s",)),
    ("multicopy.pmax_scan", ("self_s",)),
    ("multicopy.conjecture_scan", ("self_s",)),
    ("catalysis.search_catalyst", ("calls", "self_s")),
    ("catalysis.catalyzes", ("calls", "self_s")),
    ("catalysis.grid_candidates", ("self_s",)),
    ("statefile.load_state", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("cli.build_parser", ("self_s",)),
)
#: Counts and ratios: name -> (unit, better).
DERIVED_METRICS = {
    "spectrum.tensor_power.distinct_out": ("count", "lower"),
    "spectrum.tensor_power.merge_ratio": ("ratio", "lower"),
    "spectrum.tensor_product.distinct_out": ("count", "lower"),
    "majorization.majorized_by.breakpoints": ("count", "lower"),
    "majorization.vidal_pmax.breakpoints": ("count", "lower"),
    "multicopy.classify_pair.decided_ratio": ("ratio", "higher"),
    "catalysis.candidates_tried": ("count", "lower"),
    "catalysis.grid_size": ("count", "lower"),
    "catalysis.tried_ratio": ("ratio", "lower"),
    "catalysis.hit_ratio": ("ratio", "higher"),
    "statefile.bytes_parsed": ("bytes", "lower"),
    "render.self_s": ("s", "lower"),
    **{f"layer.{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "trace.harness_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}
UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower")}


def metric_specs() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports: name -> (unit, better)."""
    specs = {f"{fn}.{m}": UNITS[m] for fn, metrics in FUNCTION_METRICS for m in metrics}
    specs.update(DERIVED_METRICS)
    return specs


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(calls, counts, self_s, overhead_share) -> dict[str, float]:
    """Per-layer metric values of one traced pass.

    `calls` and `counts` come from one pass (they repeat exactly), `self_s`
    maps span names to self seconds (a median over repeated passes), and
    the root span ``query`` holds what no layer function covered.
    """
    values = {}
    for fn, metrics in FUNCTION_METRICS:
        for m in metrics:
            values[f"{fn}.{m}"] = calls.get(fn, 0) if m == "calls" else self_s.get(fn, 0.0)
    values["spectrum.tensor_power.merge_ratio"] = _ratio(
        counts.get("spectrum.tensor_power.distinct_out", 0),
        counts.get("spectrum.tensor_power.compositions", 0))
    for name in ("spectrum.tensor_power.distinct_out", "spectrum.tensor_product.distinct_out",
                 "majorization.majorized_by.breakpoints",
                 "majorization.vidal_pmax.breakpoints", "catalysis.grid_size",
                 "statefile.bytes_parsed"):
        values[name] = counts.get(name, 0)
    values["multicopy.classify_pair.decided_ratio"] = _ratio(
        counts.get("multicopy.classify_pair.decided", 0), calls.get("multicopy.classify_pair", 0))
    tried = counts.get("catalysis.grid_candidates.yielded", 0)
    values["catalysis.candidates_tried"] = tried
    values["catalysis.tried_ratio"] = _ratio(tried, counts.get("catalysis.grid_size", 0))
    values["catalysis.hit_ratio"] = _ratio(
        counts.get("catalysis.search_catalyst.hits", 0), calls.get("catalysis.search_catalyst", 0))
    values["render.self_s"] = sum(t for n, t in self_s.items() if n.startswith("render."))
    total = sum(self_s.values())
    for layer in LAYERS:
        own = sum(t for n, t in self_s.items() if LAYER_OF_MODULE.get(n.split(".")[0]) == layer)
        values[f"layer.{layer}.self_share"] = _ratio(own, total)
    values["trace.harness_share"] = _ratio(self_s.get("query", 0.0), total)
    values["trace.overhead_share"] = overhead_share
    return values
