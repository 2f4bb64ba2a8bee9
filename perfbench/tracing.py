"""Spans around the calls the benchmark makes into it2rrap's public functions.

The program has no spans of its own, so the traced run swaps each public
function named in ``SPAN_POINTS`` for a wrapper in the module namespace its
caller looks it up in, and puts the original back afterwards.  A function
that is no longer there is left alone and its span reports 0 calls.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# span name -> (module whose global the caller reads, function name)
SPAN_POINTS = {
    "optimizer": [("it2rrap.cli", "swarm_solve"),
                  ("it2rrap.cli", "genetic_solve")],
    "crisp": [("it2rrap.optimizer", "crisp_metrics")],
    "pipeline": [("it2rrap.optimizer", "evaluate_objectives")],
    "centroid": [("it2rrap.sysmodel", "centroid_arrays")],
}


class Tracer:
    """Durations of nested spans, kept in memory.

    ``spans[name]`` lists ``(total_ns, self_ns)`` per call, where self time
    is the span's duration minus the durations of the spans opened inside
    it.  ``candidates`` keeps the ``(r, n)`` of every candidate handed to
    the crisp-metrics span.
    """

    def __init__(self):
        self.spans = {name: [] for name in SPAN_POINTS}
        self.spans["cli"] = []
        self.candidates = []
        self._children = []

    def _wrap(self, name, fn, capture=None):
        record = self.spans[name]
        children = self._children
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                record.append((total, total - children.pop()))
                if children:
                    children[-1] += total
                if capture is not None:
                    capture(args)

        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args)

    def _keep_candidate(self, args):
        cand = args[1]
        self.candidates.append((cand.r.tolist(), cand.n.tolist()))

    @contextmanager
    def patched(self):
        """Wrap every span point that exists for the duration of the block."""
        saved = []
        try:
            for name, points in SPAN_POINTS.items():
                capture = self._keep_candidate if name == "crisp" else None
                for module_name, attr in points:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, capture))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
