"""Per-layer tracing of pretzeltab from outside its sources.

``install()`` wraps every public function of the layer modules and puts the
wrapper in place of the original in every loaded ``pretzeltab`` module
namespace that refers to it.  Callers look these functions up by module
attribute (``counts.count_row``) or module global (``binom`` inside
``signed_bracelets``), so each call reaches the wrapper; nothing under
``src/`` changes.  Generator functions (``combinat.compositions``) are left
alone: calling one does no work, and the work it does lands in the caller's
self time.

Every wrapped function is aggregated: calls, total time and self time (total
minus the time spent in wrapped callees).  Only the coarse functions in
SPANNED also record one span per call (name, start, end, parent span), so
the trace stays small however many leaf calls a command makes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "counts", "signed_bracelets", "necklaces", "combinat", "tcodes")

SPANNED = frozenset({
    "cli.main",
    "counts.count_row",
    "counts.count_by_type",
    "counts.count_type1",
    "counts.count_type2",
    "counts.count_type3",
    "counts.type3_params",
    "tcodes.enumerate_classes",
})

# Functions whose distinct positional arguments are collected, to measure how
# much of their work repeats.
DISTINCT_ARGS = frozenset({"signed_bracelets.signed_bracelet_count"})

# Functions that return a list whose total length is counted.
RESULT_LEN = frozenset({"counts.type3_params", "tcodes.enumerate_classes"})


class Tracer:
    """Aggregated call statistics and coarse spans for one process."""

    def __init__(self, totient) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.distinct: dict[str, set] = {}
        self.items: dict[str, int] = {}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[list[float]] = []  # one [time in wrapped callees] per active call
        self._open: list[int] = []  # indices of the open spans
        self._totient = totient

    def wrap(self, name: str, fn):
        cell = self.stats.setdefault(name, [0, 0.0, 0.0])
        seen = self.distinct.setdefault(name, set()) if name in DISTINCT_ARGS else None
        spanned = name in SPANNED
        counted = name in RESULT_LEN
        if counted:
            self.items[name] = 0
        items = self.items
        spans = self.spans
        stack = self._stack
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(args)
            if spanned:
                span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
                open_spans.append(len(spans))
                spans.append(span)
            inner = [0.0]
            stack.append(inner)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counted:
                    items[name] += len(result)
                return result
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - inner[0]
                if stack:
                    stack[-1][0] += elapsed
                if spanned:
                    span[1] = start
                    span[2] = end
                    open_spans.pop()

        return wrapper

    def report(self) -> dict:
        # A totient without its cache reads as no hits and no misses.
        cache_info = getattr(self._totient, "cache_info", None)
        hits, misses = cache_info()[:2] if cache_info else (0, 0)
        return {
            "functions": {name: {"calls": c, "total_s": t, "self_s": s}
                          for name, (c, t, s) in self.stats.items()},
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
            "items": dict(self.items),
            "totient_cache": {"hits": hits, "misses": misses},
            "spans": self.spans,
        }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
                or inspect.isgeneratorfunction(obj)):
            continue
        yield attr, obj


def install() -> Tracer:
    """Wrap the layer modules' public functions and return the tracer."""
    modules = {layer: importlib.import_module(f"pretzeltab.{layer}") for layer in LAYERS}
    tracer = Tracer(getattr(modules["combinat"], "totient", None))
    # Keyed by id(original); each wrapper's __wrapped__ keeps its original alive.
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in list(_public_functions(module)):
            wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name != "pretzeltab" and not name.startswith("pretzeltab."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    return tracer
