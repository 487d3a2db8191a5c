"""Span recorders installed around stftpr's public functions from outside.

A recorder replaces a function at every place a ``stftpr`` module binds it
(``stftpr.phase.edge_phase``, ``stftpr.cli.write_grid_csv``, ...), so calls
made inside ``reconstruct`` or ``cli.main`` get spans of their own while no
file of the package changes.  Spans and counts stay in memory and are written
out once, when the run ends.  Counts are kept apart from timings: they must
repeat exactly between two passes over the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _edges(result):
    return len(result.edges)


# span name -> (defining module, function, {counter name: counter of the result})
TARGETS = {
    "stft.measure": ("stftpr.stft", "measure",
                     # R*(n/L)*n complex sections, plus as much again of FFT output
                     {"stft.measure.bytes_computed": lambda g: 2 * 16 * g.values.size}),
    "stft.aggregate": ("stftpr.stft", "aggregate", {}),
    "stft.write_grid_csv": ("stftpr.stft", "write_grid_csv", {}),
    "stft.read_grid_csv": ("stftpr.stft", "read_grid_csv", {}),
    "spectral.certify_rank": ("stftpr.spectral", "certify_rank", {}),
    "spectral.recover_magnitudes": ("stftpr.spectral", "recover_magnitudes", {}),
    "supportgraph.window_support": ("stftpr.supportgraph", "window_support", {}),
    "supportgraph.endpoint_graph": ("stftpr.supportgraph", "endpoint_graph_from_support",
                                    {"supportgraph.endpoint_graph.edges": _edges}),
    "supportgraph.spanning_tree": ("stftpr.supportgraph", "spanning_tree",
                                   {"supportgraph.tree_depth": lambda t: t.depth,
                                    "supportgraph.spanning_tree.edges": _edges}),
    "supportgraph.covisibility_graph": ("stftpr.supportgraph", "covisibility_graph_from_support",
                                        {"supportgraph.covisibility_graph.edges": _edges}),
    "phase.reconstruct": ("stftpr.phase", "reconstruct", {}),
    "phase.edge_phase": ("stftpr.phase", "edge_phase", {}),
    "phase.propagate": ("stftpr.phase", "propagate", {}),
    "model.as_window_family": ("stftpr.model", "as_window_family", {}),
    "robustness.stability_constants": ("stftpr.robustness", "stability_constants", {}),
    "generators.chain_family": ("stftpr.generators", "chain_family", {}),
    "cli.simulate": ("stftpr.cli", "cmd_simulate", {}),
    "cli.recover": ("stftpr.cli", "cmd_recover", {}),
    "cli.analyze": ("stftpr.cli", "cmd_analyze", {}),
}


class Tracer:
    """Records one span per call of a wrapped function, tagged with the current op."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list = []

    def _recorder(self, name, fn, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            counts = self.counts[self.op]
            counts[name + ".calls"] += 1  # an attempt counts even if it raises
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, count in counters.items():
                counts[key] += count(result)
            return result

        return recorder

    def install(self) -> None:
        """Wrap every target at every binding inside the loaded stftpr modules."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("stftpr.")]
        for name, (module, attr, counters) in TARGETS.items():
            fn = getattr(importlib.import_module(module), attr)
            wrapped = self._recorder(name, fn, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def busy_and_self(self) -> tuple[dict[int, Counter], dict[int, Counter]]:
        """Per op and span name: busy seconds, and self seconds (busy minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy: dict[int, Counter] = defaultdict(Counter)
        own: dict[int, Counter] = defaultdict(Counter)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            busy[op][name] += end - start
            own[op][name] += end - start - child[i]
        return busy, own

    def write(self, path, **header) -> None:
        """Write spans and counts (kept apart) as one JSON document."""
        payload = {
            **header,
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))

