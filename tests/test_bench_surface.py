"""The part of the package that the benchmark under perfbench/ calls.

perfbench/tracer.py wraps functions by name and perfbench/workloads.py calls
three of them with an `order` argument, and it reads plans by node id. The benchmark is run on the committed
tree, so a rename or a dropped parameter would only show there; these checks
catch it in the ordinary test run. perfbench/ is read, never changed.
"""

import importlib
import importlib.util
import os

import numpy as np
import pytest

import oracles
from bitsplit import BitAssignment, enumerate_solutions, run_tcp_session, topological_order
from bitsplit.synth import TOY_MEMORY_BYTES, resnet50_shapes
from bitsplit.wire import reference_outputs
from helpers import grid_input_covering, table1_profiles, toy_profiles

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


@pytest.mark.parametrize("graph", ["toy", "resnet50"])
def test_plans_keep_the_shapes_the_benchmark_reads(toy_graph, toy_tables, graph):
    # perfbench/workloads.py rebuilds a plan from selected.json's dicts,
    # indexes its widths by node id, and fingerprints it with `key`
    if graph == "toy":
        g, (wtable, atable), (edge, cloud, net), M = toy_graph, toy_tables, toy_profiles(), TOY_MEMORY_BYTES
    else:
        g, (edge, cloud, net), M = resnet50_shapes()[0], table1_profiles(), 32 << 20
        rng = np.random.default_rng(0)
        sizes = {i: g.nodes[i].weight_elements() for i in g.compute_ids()}
        wtable = oracles.sized_table(rng, "w", sizes, (2, 4, 8))
        atable = oracles.sized_table(rng, "a", {i: g.nodes[i].act_elements() for i in sizes}, (2, 4, 8))
    S, _ = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, M, B=(2, 4, 8))
    assert len(S) > 1
    compute = g.compute_ids()
    for sol in S[1:]:
        plan, ids = sol.assignment, compute[: sol.n]
        wbits = {i: plan.weight_bits[i] for i in ids}
        abits = {i: plan.act_bits[i] for i in ids}
        assert all(type(b) is int for b in list(wbits.values()) + list(abits.values()))
        assert plan.weight_bits == wbits and wbits == plan.weight_bits and dict(plan.act_bits) == abits
        assert list(plan.weight_bits) == ids and len(plan.act_bits) == sol.n
        assert not any(i in plan.weight_bits or plan.act_bits.get(i) is not None for i in compute[sol.n :])
        doc = {key: {str(i): int(b) for i, b in sorted(bits.items())}
               for key, bits in (("weight_bits", plan.weight_bits), ("act_bits", plan.act_bits))}
        rebuilt = BitAssignment(
            weight_bits={int(k): int(v) for k, v in doc["weight_bits"].items()},
            act_bits={int(k): int(v) for k, v in doc["act_bits"].items()},
        )
        assert repr(rebuilt.key(ids)) == repr(plan.key(ids)) == repr(tuple(zip(wbits.values(), abits.values())))
        assert rebuilt.total_bits() == plan.total_bits() == sum(wbits.values()) + sum(abits.values())
        assert rebuilt.weight_bits == plan.weight_bits and rebuilt.act_bits == plan.act_bits
    if graph == "toy":  # the last plan, rebuilt from dicts, still runs over the wire
        x = grid_input_covering(np.random.default_rng(6), g.nodes[g.input_id].out_shape)
        plan = S[-1]
        plan.assignment = rebuilt
        got = run_tcp_session(g, x, plan, order=topological_order(g))
        assert [a.tobytes() for a in got] == [b.tobytes() for b in reference_outputs(g, x, plan)]
