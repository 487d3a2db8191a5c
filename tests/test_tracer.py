"""The benchmark tracer's hooks into stftpr, checked on the tracer file as it stands.

``perfbench/tracer.py`` wraps stftpr functions by module and name, and counts
``len(result.edges)`` on the support graphs and the spanning tree.  A rename
on either side would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from stftpr import ProblemConfig, measure, phase, support
from stftpr.generators import certified_instance
from stftpr.supportgraph import (
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    spanning_tree,
)

from conftest import geom_at

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    for name, (module, attr, _) in _load_tracer().TARGETS.items():
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_edge_counters_on_real_graphs():
    targets = _load_tracer().TARGETS
    x, fam = certified_instance(16, 4, 6, np.random.default_rng(5))
    supp = support(x)
    graph = endpoint_graph_from_support(supp, geom_at(fam, 4))
    tree = spanning_tree(graph)
    cov = covisibility_graph_from_support(supp, geom_at(fam, 4))
    results = {
        "supportgraph.endpoint_graph": graph,
        "supportgraph.spanning_tree": tree,
        "supportgraph.covisibility_graph": cov,
    }
    counts = {
        key: count(result)
        for span, result in results.items()
        for key, count in targets[span][2].items()
    }
    assert counts == {
        "supportgraph.endpoint_graph.edges": graph.offsets.size - 1,
        "supportgraph.spanning_tree.edges": tree.child.size,
        "supportgraph.tree_depth": tree.depth,
        "supportgraph.covisibility_graph.edges": cov.offsets.size - 1,
    }
    assert 0 < tree.child.size < graph.offsets.size - 1
    assert cov.offsets.size > 1


def test_traced_reconstruct_records_one_edge_phase_span():
    tracer = _load_tracer()
    x, fam = certified_instance(16, 4, 6, np.random.default_rng(7))
    grid = measure(x, fam, 4)
    with tracer.Tracer() as t:
        t.op = 0
        phase.reconstruct(grid, fam, ProblemConfig(16, 4, 6))
    counts = t.counts[0]
    assert counts["phase.reconstruct.calls"] == 1
    assert counts["phase.edge_phase.calls"] == 1
    assert counts["supportgraph.spanning_tree.edges"] == 15  # full support, 16 vertices
    names = [span[0] for span in t.spans]
    (k,) = [i for i, name in enumerate(names) if name == "phase.edge_phase"]
    assert names[t.spans[k][3]] == "phase.reconstruct"
    assert not hasattr(phase.edge_phase, "__wrapped__")  # uninstalled on exit
