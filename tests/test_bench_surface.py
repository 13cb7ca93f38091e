"""The part of the package that the benchmark under perfbench/ calls.

perfbench/tracer.py wraps functions by name and perfbench/workloads.py calls
three of them with an `order` argument. The benchmark is run on the committed
tree, so a rename or a dropped parameter would only show there; these checks
catch it in the ordinary test run. perfbench/ is read, never changed.
"""

import importlib
import importlib.util
import os

import numpy as np

from bitsplit import enumerate_solutions, run_tcp_session, topological_order
from bitsplit.synth import TOY_MEMORY_BYTES
from bitsplit.wire import reference_outputs
from helpers import grid_input_covering, toy_profiles

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_is_a_callable():
    targets = _tracer_targets()
    assert targets
    for name, modname, attr in targets:
        owner = importlib.import_module("bitsplit." + modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name


def test_benchmark_call_shapes_still_run(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    wtable, atable = toy_tables
    order = topological_order(toy_graph)
    S, stats = enumerate_solutions(toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8))
    assert S[0].is_sentinel and stats.pairs_kept == len(S) - 1

    x = grid_input_covering(np.random.default_rng(5), toy_graph.nodes[toy_graph.input_id].out_shape)
    plan = S[-1]
    want = reference_outputs(toy_graph, x, plan, order=order)
    got = run_tcp_session(toy_graph, x, plan, order=order)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
