"""Batch invariance: a stack of inputs through the engine gives, row for row,
the same bytes as the same inputs run one at a time, and a session's edge
half, which runs one input, ships codes that dequantize to the stacked
reference's crossing values."""

import numpy as np
import pytest

from bitsplit.engine import (
    EVAL_BLOCK,
    evaluate_accuracy,
    float_accuracy,
    run_fake_quantized,
    run_inference,
)
from bitsplit.graph import GraphError, LayerGraph, LayerNode, optimize_graph
from bitsplit.search import BitAssignment
from bitsplit.synth import make_eval_set, make_toy_classifier
from helpers import check_edge_codes, random_dag, random_grid_input, reference_values

BLOCKS = (1, 7, None)  # None: the whole stack in one call


def _inputs(rng, shape, k=6):
    xs = [random_grid_input(rng, shape) for _ in range(k - 3)]
    xs.append((rng.standard_normal(shape) * 3).astype(np.float32))
    xs.append(np.zeros(shape, dtype=np.float32))
    xs.append(np.full(shape, 0.375, dtype=np.float32))
    return xs


def _assignment(g, n, rng):
    compute = g.compute_ids()[:n]
    return BitAssignment(
        weight_bits={i: int(rng.choice((2, 4, 8, 16))) for i in compute},
        act_bits={i: int(rng.choice((1, 2, 4, 8, 16))) for i in compute},
    )


def _stacks(xs):
    for block in BLOCKS:
        size = block or len(xs)
        for start in range(0, len(xs), size):
            yield start, np.stack(xs[start : start + size])


def _check_batch_invariance(g, xs, rng):
    singles = [[o.tobytes() for o in run_inference(g, x)] for x in xs]
    for start, stack in _stacks(xs):
        outs = run_inference(g, stack)
        for k in range(len(stack)):
            assert [o[k].tobytes() for o in outs] == singles[start + k]

    for n in range(len(g.compute_ids()) + 1):
        asg = _assignment(g, n, rng)
        singles = [[o.tobytes() for o in run_fake_quantized(g, x, n, asg)] for x in xs]
        for start, stack in _stacks(xs):
            outs = run_fake_quantized(g, stack, n, asg)
            for k in range(len(stack)):
                assert [o[k].tobytes() for o in outs] == singles[start + k], (n, start + k)
        values = reference_values(g, np.stack(xs), n, asg)
        for k, x in enumerate(xs):
            check_edge_codes(g, x, n, asg, values, k)


def test_demo_graph_batch_invariant(toy_graph):
    rng = np.random.default_rng(50)
    xs = _inputs(rng, toy_graph.nodes[toy_graph.input_id].out_shape, k=9)
    _check_batch_invariance(toy_graph, xs, rng)
    _check_batch_invariance(make_toy_classifier(0), xs, rng)  # batchnorm and relu unfused


def test_random_dag_corpus_batch_invariant():
    rng = np.random.default_rng(51)
    for _ in range(20):
        g = random_dag(rng, max_nodes=10)
        _check_batch_invariance(g, _inputs(rng, g.nodes[g.input_id].out_shape), rng)


def test_pool_and_output_nodes_batch_invariant():
    rng = np.random.default_rng(52)
    nodes = [
        LayerNode(0, "input", out_shape=(3, 5, 5)),
        LayerNode(1, "conv", attrs={"stride": 2, "pad": 1}, weight_shape=(4, 3, 3, 3), out_shape=(4, 3, 3),
                  inputs=[0], weights=rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
                  bias=rng.standard_normal(4).astype(np.float32), fused_relu=True),
        LayerNode(2, "global_pool", out_shape=(4,), inputs=[1]),
        LayerNode(3, "fc", weight_shape=(3, 4), out_shape=(3,), inputs=[2],
                  weights=rng.standard_normal((3, 4)).astype(np.float32)),
        LayerNode(4, "output", out_shape=(3,), inputs=[3]),
    ]
    g = LayerGraph(nodes)
    _check_batch_invariance(g, _inputs(rng, (3, 5, 5), k=8), rng)


def test_stack_must_match_input_shape(toy_graph):
    with pytest.raises(GraphError, match="input shape"):
        run_inference(toy_graph, np.zeros((3, 2, 16, 16), dtype=np.float32))


def test_accuracy_equals_per_input_argmax_loop():
    g = optimize_graph(make_toy_classifier(0))
    eval_set = make_eval_set(per_class=4, seed=2, noise=120)
    assert len(eval_set.inputs) > 2 * EVAL_BLOCK and len(eval_set.inputs) % EVAL_BLOCK
    rng = np.random.default_rng(53)

    def per_input(n, asg):
        hits = 0
        for x, label in zip(eval_set.inputs, eval_set.labels):
            logits = run_inference(g, x)[0] if n == 0 else run_fake_quantized(g, x, n, asg)[0]
            hits += int(np.argmax(logits)) == int(label)
        return hits / len(eval_set.labels)

    base = float_accuracy(g, eval_set)
    assert base == per_input(0, None)
    accs = {base}
    for n in range(1, len(g.compute_ids()) + 1):
        for bits in ((1, 2), (2, 4, 8), (4, 16)):
            asg = BitAssignment(
                weight_bits={i: int(rng.choice([b for b in bits if b > 1])) for i in g.compute_ids()[:n]},
                act_bits={i: int(rng.choice(bits)) for i in g.compute_ids()[:n]},
            )
            acc = evaluate_accuracy(g, eval_set, n, asg)
            assert acc == per_input(n, asg), (n, bits)
            accs.add(acc)
    assert len(accs) > 2  # the assignments do move the accuracy
