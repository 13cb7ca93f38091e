import numpy as np
import pytest

import oracles
from bitsplit.engine import run_inference
from bitsplit.graph import (
    BN_EPS,
    GraphError,
    LayerGraph,
    LayerNode,
    boundary_cut,
    compute_working_sets,
    graph_from_dict,
    infer_out_shape,
    load_graph,
    optimize_graph,
    save_graph,
    topological_order,
)
from bitsplit.synth import resnet50_shapes
from helpers import random_dag


def _input(shape=(2, 4, 4)):
    return LayerNode(0, "input", out_shape=shape)


def _bn_params(rng, c):
    return np.stack(
        [rng.uniform(0.5, 2, c), rng.uniform(-1, 1, c), rng.uniform(-1, 1, c), rng.uniform(0.2, 2, c)]
    ).astype(np.float32)


# -- construction and validation --------------------------------------------------


def test_duplicate_ids_rejected():
    with pytest.raises(GraphError, match="duplicate"):
        LayerGraph([_input(), LayerNode(0, "relu", out_shape=(2, 4, 4), inputs=[0])])


def test_exactly_one_input_required():
    with pytest.raises(GraphError, match="exactly one input"):
        LayerGraph([_input(), LayerNode(1, "input", out_shape=(1, 2, 2))])
    with pytest.raises(GraphError, match="exactly one input"):
        LayerGraph([LayerNode(0, "relu", out_shape=(1,), inputs=[0])])


def test_unknown_input_id_rejected():
    with pytest.raises(GraphError, match="unknown input id 9"):
        LayerGraph([_input(), LayerNode(1, "relu", out_shape=(2, 4, 4), inputs=[9])])


def test_unknown_op_rejected():
    with pytest.raises(GraphError, match="unknown op kind"):
        LayerGraph([_input(), LayerNode(1, "maxpool", out_shape=(2, 4, 4), inputs=[0])])


def test_non_integer_attrs_rejected():
    bad = LayerNode(1, "relu", attrs={"stride": 1.5}, out_shape=(2, 4, 4), inputs=[0])
    with pytest.raises(GraphError, match="attrs must be integers"):
        LayerGraph([_input(), bad])


def test_cycle_detected():
    a = LayerNode(1, "relu", out_shape=(2, 4, 4), inputs=[2])
    b = LayerNode(2, "relu", out_shape=(2, 4, 4), inputs=[1])
    with pytest.raises(GraphError, match="cycle detected involving node 1"):
        LayerGraph([_input(), a, b])


def test_unreachable_node_detected():
    # node 2 feeds only itself-side chain disconnected from the input
    lone = LayerNode(2, "relu", out_shape=(3,), inputs=[3])
    lone2 = LayerNode(3, "relu", out_shape=(3,), inputs=[2])
    with pytest.raises(GraphError):
        LayerGraph([_input(), LayerNode(1, "relu", out_shape=(2, 4, 4), inputs=[0]), lone, lone2])


def test_declared_shape_must_match():
    bad = LayerNode(1, "relu", out_shape=(2, 4, 5), inputs=[0])
    with pytest.raises(GraphError, match="declared out_shape"):
        LayerGraph([_input(), bad])


def test_weights_blob_shape_checked():
    n = LayerNode(1, "fc", weight_shape=(3, 32), out_shape=(3,), inputs=[0])
    n.weights = np.zeros((3, 31), dtype=np.float32)
    with pytest.raises(GraphError, match="blob shape mismatch"):
        LayerGraph([_input(), n])


# -- shape arithmetic ---------------------------------------------------------------


@pytest.mark.parametrize(
    "stride,pad,expect",
    [(1, 0, (5, 6, 6)), (1, 1, (5, 8, 8)), (2, 1, (5, 4, 4)), (2, 0, (5, 3, 3))],
)
def test_conv_shapes(stride, pad, expect):
    n = LayerNode(1, "conv", attrs={"stride": stride, "pad": pad}, weight_shape=(5, 2, 3, 3))
    assert infer_out_shape(n, [(2, 8, 8)]) == expect


def test_conv_kernel_too_large():
    n = LayerNode(1, "conv", weight_shape=(1, 2, 9, 9))
    with pytest.raises(GraphError, match="kernel larger"):
        infer_out_shape(n, [(2, 8, 8)])


def test_pointwise_requires_1x1():
    n = LayerNode(1, "pointwise_conv", weight_shape=(4, 2, 3, 3))
    with pytest.raises(GraphError, match="1x1"):
        infer_out_shape(n, [(2, 8, 8)])


def test_channel_mismatch_rejected():
    n = LayerNode(1, "conv", weight_shape=(4, 3, 3, 3))
    with pytest.raises(GraphError, match="Cin"):
        infer_out_shape(n, [(2, 8, 8)])


def test_fc_flattens_any_rank():
    n = LayerNode(1, "fc", weight_shape=(7, 32))
    assert infer_out_shape(n, [(2, 4, 4)]) == (7,)
    with pytest.raises(GraphError, match="volume"):
        infer_out_shape(n, [(2, 4, 5)])


def test_add_requires_equal_shapes():
    n = LayerNode(3, "add", inputs=[1, 2])
    assert infer_out_shape(n, [(2, 4, 4), (2, 4, 4)]) == (2, 4, 4)
    with pytest.raises(GraphError, match="shapes differ"):
        infer_out_shape(n, [(2, 4, 4), (2, 4, 5)])


def test_concat_sums_axis():
    n = LayerNode(3, "concat", attrs={"axis": 0}, inputs=[1, 2])
    assert infer_out_shape(n, [(2, 4, 4), (3, 4, 4)]) == (5, 4, 4)
    with pytest.raises(GraphError, match="non-axis"):
        infer_out_shape(n, [(2, 4, 4), (3, 4, 5)])


def test_global_pool_and_batchnorm_shapes():
    assert infer_out_shape(LayerNode(1, "global_pool"), [(6, 3, 3)]) == (6,)
    bn = LayerNode(1, "batchnorm", weight_shape=(4, 6))
    assert infer_out_shape(bn, [(6, 3, 3)]) == (6, 3, 3)
    with pytest.raises(GraphError, match=r"\(4,C\)"):
        infer_out_shape(LayerNode(1, "batchnorm", weight_shape=(4, 5)), [(6, 3, 3)])


# -- deterministic order ----------------------------------------------------------


def test_topological_order_is_kahn_ascending_ids():
    # diamond with ids assigned against insertion order
    nodes = [
        LayerNode(0, "input", out_shape=(1, 4, 4)),
        LayerNode(3, "add", out_shape=(1, 4, 4), inputs=[2, 1]),
        LayerNode(2, "relu", out_shape=(1, 4, 4), inputs=[0]),
        LayerNode(1, "relu", out_shape=(1, 4, 4), inputs=[0]),
    ]
    g = LayerGraph(nodes)
    assert topological_order(g) == [0, 1, 2, 3]


def test_order_stable_under_node_list_shuffle():
    rng = np.random.default_rng(5)
    for k in range(20):
        g = random_dag(rng, max_nodes=10)
        nodes = list(g.nodes.values())
        rng.shuffle(nodes)
        g2 = LayerGraph(nodes, input_bits=g.input_bits)
        assert topological_order(g2) == topological_order(g)


def test_consumers_sorted_and_outputs_are_sinks():
    rng = np.random.default_rng(11)
    for k in range(20):
        g = random_dag(rng, max_nodes=10)
        for nid, cons in g.consumers.items():
            assert cons == sorted(cons)
        sinks = [i for i in g.nodes if not g.consumers[i]]
        assert g.output_ids == sorted(sinks)
        assert g.output_ids, "every graph has at least one sink"


# -- save / load -------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    for k in range(8):
        g = random_dag(rng, max_nodes=10)
        p = tmp_path / ("g%d" % k)
        p.mkdir()
        save_graph(g, p / "graph.json")
        h = load_graph(p / "graph.json")
        assert h.canonical_dump() == g.canonical_dump()
        assert h.input_bits == g.input_bits
        for nid, n in g.nodes.items():
            m = h.nodes[nid]
            if n.weights is None:
                assert m.weights is None
            else:
                assert np.array_equal(m.weights, n.weights)
            if n.bias is None:
                assert m.bias is None
            else:
                assert np.array_equal(m.bias, n.bias)


def test_save_preserves_fused_relu(tmp_path):
    rng = np.random.default_rng(2)
    n1 = LayerNode(1, "pointwise_conv", weight_shape=(2, 2, 1, 1), out_shape=(2, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    n2 = LayerNode(2, "relu", out_shape=(2, 4, 4), inputs=[1])
    n3 = LayerNode(3, "global_pool", out_shape=(2,), inputs=[2])
    g = optimize_graph(LayerGraph([_input(), n1, n2, n3]))
    assert g.nodes[1].fused_relu
    save_graph(g, tmp_path / "graph.json")
    h = load_graph(tmp_path / "graph.json")
    assert h.nodes[1].fused_relu
    assert h.canonical_dump() == g.canonical_dump()


def test_load_rejects_malformed_documents(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    with pytest.raises(GraphError, match="parse error"):
        load_graph(p)
    with pytest.raises(GraphError, match="cannot read"):
        load_graph(tmp_path / "missing.json")
    with pytest.raises(GraphError, match="nodes"):
        graph_from_dict({"input_bits": 8})
    with pytest.raises(GraphError, match="malformed node"):
        graph_from_dict({"nodes": [{"op": "relu"}]})


# -- batchnorm folding and relu fusion ------------------------------------------------


def _conv_bn_relu_chain(rng, with_bias=False):
    n1 = LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(3, 2, 3, 3),
                   out_shape=(3, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    if with_bias:
        n1.bias = rng.standard_normal(3).astype(np.float32)
    n2 = LayerNode(2, "batchnorm", weight_shape=(4, 3), out_shape=(3, 4, 4), inputs=[1])
    n2.weights = _bn_params(rng, 3)
    n3 = LayerNode(3, "relu", out_shape=(3, 4, 4), inputs=[2])
    n4 = LayerNode(4, "global_pool", out_shape=(3,), inputs=[3])
    return LayerGraph([_input(), n1, n2, n3, n4])


@pytest.mark.parametrize("with_bias", [False, True])
def test_bn_fold_matches_reference(with_bias):
    rng = np.random.default_rng(31)
    g = _conv_bn_relu_chain(rng, with_bias)
    og = optimize_graph(g)
    assert og.warnings == []
    assert sorted(og.nodes) == [0, 1, 4]
    assert og.nodes[1].fused_relu
    for _ in range(5):
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        a = run_inference(g, x)[0]
        b = run_inference(og, x)[0]
        scale = max(float(np.max(np.abs(a))), 1e-12)
        assert float(np.max(np.abs(a - b))) / scale < 1e-5


def test_bn_after_relu_stays_standalone():
    # folding through a relu would change the math, so it must not happen
    rng = np.random.default_rng(7)
    n1 = LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(3, 2, 3, 3),
                   out_shape=(3, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    n2 = LayerNode(2, "relu", out_shape=(3, 4, 4), inputs=[1])
    n3 = LayerNode(3, "batchnorm", weight_shape=(4, 3), out_shape=(3, 4, 4), inputs=[2])
    n3.weights = _bn_params(rng, 3)
    n4 = LayerNode(4, "global_pool", out_shape=(3,), inputs=[3])
    g = LayerGraph([_input(), n1, n2, n3, n4])
    og = optimize_graph(g)
    assert any("not affine" in w for w in og.warnings)
    assert og.nodes[1].fused_relu
    assert og.nodes[3].op_kind == "batchnorm"
    x = rng.standard_normal((2, 4, 4)).astype(np.float32)
    assert np.array_equal(run_inference(g, x)[0], run_inference(og, x)[0])


def test_bn_with_shared_producer_stays():
    rng = np.random.default_rng(9)
    n1 = LayerNode(1, "pointwise_conv", weight_shape=(2, 2, 1, 1), out_shape=(2, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    n2 = LayerNode(2, "batchnorm", weight_shape=(4, 2), out_shape=(2, 4, 4), inputs=[1])
    n2.weights = _bn_params(rng, 2)
    n3 = LayerNode(3, "add", out_shape=(2, 4, 4), inputs=[1, 2])  # second consumer of 1
    g = LayerGraph([_input(), n1, n2, n3])
    og = optimize_graph(g)
    assert any("other consumers" in w for w in og.warnings)
    assert og.nodes[2].op_kind == "batchnorm"


def test_relu_on_input_not_fused():
    g = LayerGraph([_input(), LayerNode(1, "relu", out_shape=(2, 4, 4), inputs=[0])])
    og = optimize_graph(g)
    assert og.nodes[1].op_kind == "relu"


def test_bn_without_weights_stays():
    n1 = LayerNode(1, "pointwise_conv", weight_shape=(2, 2, 1, 1), out_shape=(2, 4, 4), inputs=[0])
    n1.weights = np.ones((2, 2, 1, 1), dtype=np.float32)
    n2 = LayerNode(2, "batchnorm", weight_shape=(4, 2), out_shape=(2, 4, 4), inputs=[1])
    n3 = LayerNode(3, "global_pool", out_shape=(2,), inputs=[2])
    og = optimize_graph(LayerGraph([_input(), n1, n2, n3]))
    assert any("weights not loaded" in w for w in og.warnings)


def test_sink_rewrites_keep_output_identity():
    # a relu or batchnorm that is itself a graph output must survive, so the
    # output list keeps its ids and order
    rng = np.random.default_rng(13)
    n1 = LayerNode(1, "pointwise_conv", weight_shape=(2, 2, 1, 1), out_shape=(2, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    n2 = LayerNode(2, "pointwise_conv", weight_shape=(2, 2, 1, 1), out_shape=(2, 4, 4), inputs=[0])
    n2.weights = rng.standard_normal((2, 2, 1, 1)).astype(np.float32)
    n3 = LayerNode(3, "relu", out_shape=(2, 4, 4), inputs=[1])
    n4 = LayerNode(4, "batchnorm", weight_shape=(4, 2), out_shape=(2, 4, 4), inputs=[2])
    n4.weights = _bn_params(rng, 2)
    g = LayerGraph([_input(), n1, n2, n3, n4])
    og = optimize_graph(g)
    assert og.output_ids == g.output_ids == [3, 4]
    x = rng.standard_normal((2, 4, 4)).astype(np.float32)
    for a, b in zip(run_inference(g, x), run_inference(og, x)):
        assert np.array_equal(a, b)


def test_optimize_random_graphs_preserve_outputs():
    rng = np.random.default_rng(41)
    for k in range(25):
        g = random_dag(rng, max_nodes=10)
        og = optimize_graph(g)
        x = (rng.integers(0, 256, size=g.nodes[g.input_id].out_shape) / 256.0).astype(np.float32)
        ref = run_inference(g, x)
        got = run_inference(og, x)
        assert len(ref) == len(got)
        for a, b in zip(ref, got):
            scale = max(float(np.max(np.abs(a))), 1e-12)
            assert float(np.max(np.abs(a - b))) / scale < 1e-5


# -- working sets and cuts vs brute oracles --------------------------------------------


def _liveness_corpus(seed):
    """The ResNet-50 shapes and 60 random DAGs, with how many of the DAGs
    read the input again after their first compute step (an input skip)."""
    rng = np.random.default_rng(seed)
    dags = [random_dag(rng, max_nodes=10) for _ in range(60)]
    skips = sum(1 for g in dags if g.liveness.crossing[1:, 0].any())
    return [resnet50_shapes()[0]] + dags, skips


def test_working_sets_match_oracle():
    graphs, skips = _liveness_corpus(101)
    assert skips >= 10
    for g in graphs:
        order = topological_order(g)
        sets = compute_working_sets(g)
        assert len(sets) == len(order) - 1 == len(g.liveness.incidence)
        peak = 0
        assert g.liveness.peaks[0] == 0 and len(g.liveness.peaks) == len(order)
        for ws, row in zip(sets, g.liveness.incidence.tolist()):
            want = oracles.live_ids(g, order, ws.step)
            assert [nid for nid, _ in ws.live_tensors] == [i for i in order if i in want]
            assert all(e == g.nodes[nid].act_elements() for nid, e in ws.live_tensors)
            assert ws.total_elements == sum(g.nodes[i].act_elements() for i in want)
            # the incidence row the search prices each step from, and the prefix peaks
            assert row == [g.nodes[i].act_elements() if i in want else 0 for i in order]
            peak = max(peak, ws.total_elements)
            assert g.liveness.peaks[ws.step] == peak


def test_boundary_cuts_match_oracle():
    graphs, skips = _liveness_corpus(103)
    assert skips >= 10
    for g in graphs:
        order = topological_order(g)
        assert len(g.liveness.crossing) == len(order)
        for n in range(len(order)):
            cut = boundary_cut(g, n)
            want = oracles.cut_ids(g, order, n)
            assert cut.crossing_tensors == want
            assert cut.cut_elements == sum(g.nodes[i].act_elements() for i in want)
            # the crossing counts split_latencies and tx_bits_at_min read
            counts = dict(zip(order, g.liveness.crossing[n].tolist()))
            assert counts == {i: g.nodes[i].act_elements() if i in want else 0 for i in order}


def test_compute_ids_do_not_build_liveness(toy_graph):
    g = LayerGraph(list(toy_graph.nodes.values()))
    assert g.compute_ids() == topological_order(g)[1:]
    assert "liveness" not in vars(g)


@pytest.mark.parametrize("weight_shape", [(0, 4), (-1, 4), (3, 0)])
def test_a_dimension_below_one_is_a_graph_error(weight_shape):
    # a tensor with no elements would be neither live nor crossing
    fc = LayerNode(1, "fc", weight_shape=weight_shape, out_shape=(weight_shape[0],), inputs=[0])
    with pytest.raises(GraphError, match=r"node 1 \(fc\): weight_shape .* has a dimension below 1"):
        LayerGraph([LayerNode(0, "input", out_shape=(4,)), fc])


def test_cut_of_full_prefix_is_outputs_only():
    rng = np.random.default_rng(104)
    g = random_dag(rng, max_nodes=8)
    order = topological_order(g)
    cut = boundary_cut(g, len(order) - 1)
    assert cut.crossing_tensors == g.output_ids


def test_cut_index_range_checked(toy_graph):
    order = topological_order(toy_graph)
    with pytest.raises(GraphError, match="out of range"):
        boundary_cut(toy_graph, len(order))
