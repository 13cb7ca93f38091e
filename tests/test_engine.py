import numpy as np
import pytest

import oracles
from bitsplit import engine
from bitsplit.engine import (
    EvalSet,
    calibrate_activations,
    evaluate_accuracy,
    float_accuracy,
    load_eval_dir,
    quantized_weights,
    run_fake_quantized,
    run_fake_quantized_detailed,
    run_inference,
    save_eval_dir,
)
from bitsplit.graph import BN_EPS, GraphError, LayerGraph, LayerNode, optimize_graph
from bitsplit.quantize import choose_clip_range, dequantize, quantize_tensor
from bitsplit.search import BitAssignment
from bitsplit.synth import make_eval_set, make_toy_classifier
from helpers import (
    check_edge_codes,
    random_assignment,
    random_dag,
    random_grid_input,
    reference_values,
    uniform_assignment,
)


def _rel_err(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-12)
    return float(np.max(np.abs(np.asarray(a, np.float64) - np.asarray(b, np.float64)))) / scale


# -- kernels against scalar loop oracles ----------------------------------------------


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv_matches_scalar(stride, pad):
    rng = np.random.default_rng(stride * 10 + pad)
    x = rng.standard_normal((3, 7, 7)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    bias = rng.standard_normal(4).astype(np.float32)
    sp = (7 + 2 * pad - 3) // stride + 1
    node = LayerNode(1, "conv", attrs={"stride": stride, "pad": pad},
                     weight_shape=(4, 3, 3, 3), out_shape=(4, sp, sp), inputs=[0])
    node.weights, node.bias = w, bias
    g = LayerGraph([LayerNode(0, "input", out_shape=(3, 7, 7)), node])
    got = run_inference(g, x)[0]
    want = oracles.conv2d_scalar(x, w, bias, stride, pad)
    assert _rel_err(want, got) < 1e-6


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
def test_one_channel_conv_equals_per_tap_matmul_bitwise(stride, pad):
    # the one-input-channel outer product against the K=1 matmul it
    # replaces, over draws with signed zeros in inputs and weights
    rng = np.random.default_rng(40 + stride * 10 + pad)
    for _ in range(20):
        cout, H, k = int(rng.integers(1, 9)), int(rng.integers(3, 12)), int(rng.choice([1, 3]))
        x = rng.standard_normal((3, 1, H, H))
        w = rng.standard_normal((cout, 1, k, k))
        for a in (x, w):
            a[rng.random(a.shape) < 0.3] = 0.0
            a[rng.random(a.shape) < 0.3] *= -0.0 if rng.random() < 0.5 else 0.0
        got = engine._conv2d(x, w, None, stride, pad)
        xp = engine._padded(x, pad)
        ho = (H + 2 * pad - k) // stride + 1
        want = np.zeros((3, cout, ho * ho))
        for dy in range(k):
            for dx in range(k):
                xs = xp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * ho : stride]
                want += np.matmul(np.ascontiguousarray(w[:, :, dy, dx]), np.ascontiguousarray(xs).reshape(3, 1, -1))
        assert got.tobytes() == want.reshape(got.shape).tobytes()


def test_depthwise_matches_scalar():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 6, 6)).astype(np.float32)
    w = rng.standard_normal((5, 3, 3)).astype(np.float32)
    node = LayerNode(1, "depthwise_conv", attrs={"stride": 2, "pad": 1},
                     weight_shape=(5, 3, 3), out_shape=(5, 3, 3), inputs=[0])
    node.weights = w
    g = LayerGraph([LayerNode(0, "input", out_shape=(5, 6, 6)), node])
    got = run_inference(g, x)[0]
    want = oracles.depthwise2d_scalar(x, w, None, 2, 1)
    assert _rel_err(want, got) < 1e-6


def test_fc_pool_bn_match_scalar():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 4, 4)).astype(np.float32)
    w = rng.standard_normal((6, 48)).astype(np.float32)
    bias = rng.standard_normal(6).astype(np.float32)
    fc = LayerNode(1, "fc", weight_shape=(6, 48), out_shape=(6,), inputs=[0])
    fc.weights, fc.bias = w, bias
    g = LayerGraph([LayerNode(0, "input", out_shape=(3, 4, 4)), fc])
    assert _rel_err(oracles.fc_scalar(x, w, bias), run_inference(g, x)[0]) < 1e-6

    pool = LayerNode(1, "global_pool", out_shape=(3,), inputs=[0])
    g = LayerGraph([LayerNode(0, "input", out_shape=(3, 4, 4)), pool])
    assert _rel_err(oracles.global_pool_scalar(x), run_inference(g, x)[0]) < 1e-6

    params = np.stack([rng.uniform(0.5, 2, 3), rng.uniform(-1, 1, 3),
                       rng.uniform(-1, 1, 3), rng.uniform(0.2, 2, 3)]).astype(np.float32)
    bn = LayerNode(1, "batchnorm", weight_shape=(4, 3), out_shape=(3, 4, 4), inputs=[0])
    bn.weights = params
    g = LayerGraph([LayerNode(0, "input", out_shape=(3, 4, 4)), bn])
    assert _rel_err(oracles.batchnorm_scalar(x, params, BN_EPS), run_inference(g, x)[0]) < 1e-6


def test_batchnorm_broadcasts_on_vectors():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(6).astype(np.float32)
    params = np.stack([rng.uniform(0.5, 2, 6), rng.uniform(-1, 1, 6),
                       rng.uniform(-1, 1, 6), rng.uniform(0.2, 2, 6)]).astype(np.float32)
    bn = LayerNode(1, "batchnorm", weight_shape=(4, 6), out_shape=(6,), inputs=[0])
    bn.weights = params
    g = LayerGraph([LayerNode(0, "input", out_shape=(6,)), bn])
    gamma, beta, mean, var = (params[k].astype(np.float64) for k in range(4))
    want = (x - mean) * gamma / np.sqrt(var + BN_EPS) + beta
    assert _rel_err(want, run_inference(g, x)[0]) < 1e-6


def test_add_concat_relu_semantics():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2, 3, 3)).astype(np.float32)
    nodes = [
        LayerNode(0, "input", out_shape=(2, 3, 3)),
        LayerNode(1, "relu", out_shape=(2, 3, 3), inputs=[0]),
        LayerNode(2, "add", out_shape=(2, 3, 3), inputs=[0, 1]),
        LayerNode(3, "concat", attrs={"axis": 0}, out_shape=(4, 3, 3), inputs=[1, 2]),
    ]
    g = LayerGraph(nodes)
    out = run_inference(g, x)[0]
    relu = np.maximum(x, 0)
    want = np.concatenate([relu, x + relu], axis=0)
    assert _rel_err(want, out) < 1e-7


def test_outputs_are_float32_everywhere():
    rng = np.random.default_rng(7)
    g = random_dag(rng, max_nodes=10)
    for t in run_inference(g, random_grid_input(rng, g.nodes[g.input_id].out_shape)):
        assert t.dtype == np.float32


def test_input_shape_checked(toy_graph):
    with pytest.raises(GraphError, match="input shape"):
        run_inference(toy_graph, np.zeros((2, 16, 16), dtype=np.float32))


def test_missing_weights_raise():
    n = LayerNode(1, "fc", weight_shape=(2, 8), out_shape=(2,), inputs=[0])
    g = LayerGraph([LayerNode(0, "input", out_shape=(8,)), n])
    with pytest.raises(GraphError, match="weights not loaded"):
        run_inference(g, np.zeros(8, dtype=np.float32))


# -- calibration ----------------------------------------------------------------


def test_calibrate_collects_per_layer_samples(toy_graph):
    rng = np.random.default_rng(8)
    inputs = [random_grid_input(rng, (1, 16, 16)) for _ in range(5)]
    calib = calibrate_activations(toy_graph, inputs, max_samples=3)
    assert sorted(calib) == sorted(toy_graph.compute_ids())
    for nid, samples in calib.items():
        assert len(samples) == 3
        assert all(tuple(s.shape) == tuple(toy_graph.nodes[nid].out_shape) for s in samples)
    with pytest.raises(ValueError):
        calibrate_activations(toy_graph, [])


# -- fake-quantized execution ------------------------------------------------------


def test_fake_quant_zero_split_is_float(toy_graph):
    rng = np.random.default_rng(9)
    x = random_grid_input(rng, (1, 16, 16))
    a = run_inference(toy_graph, x)[0]
    b = run_fake_quantized(toy_graph, x, 0, BitAssignment({}, {}))[0]
    assert np.array_equal(a, b)


def test_edge_codes_are_the_quantized_crossing_tensors(toy_graph):
    # every split, with 16-bit layers mixed in: exactly the quantized
    # crossing tensors come back, and their codes are the reference's values
    rng = np.random.default_rng(10)
    x = random_grid_input(rng, (1, 16, 16))
    for n in range(len(toy_graph.compute_ids()) + 1):
        for choices in ((4, 8), (2, 16), (16,)):
            asg = random_assignment(toy_graph, n, rng, choices)
            check_edge_codes(toy_graph, x, n, asg, reference_values(toy_graph, x[None], n, asg))


def test_fake_quant_16bit_acts_pass_through(toy_graph):
    rng = np.random.default_rng(11)
    x = random_grid_input(rng, (1, 16, 16))
    asg = uniform_assignment(toy_graph, 2, 16, 16)
    ref = run_inference(toy_graph, x)[0]
    assert np.array_equal(run_fake_quantized(toy_graph, x, 2, asg)[0], ref)  # 16-bit everywhere changes nothing
    assert run_fake_quantized_detailed(toy_graph, x, 2, asg) == {}


def test_edge_codes_take_one_input(toy_graph):
    asg = uniform_assignment(toy_graph, 2, 4, 4)
    with pytest.raises(GraphError, match="input shape"):
        run_fake_quantized_detailed(toy_graph, np.zeros((2, 1, 16, 16), dtype=np.float32), 2, asg)


def test_fake_quant_quantizes_weights_and_acts():
    # a split run must equal quantize(weights) + quantize-each-activation by hand
    rng = np.random.default_rng(13)
    n1 = LayerNode(1, "pointwise_conv", weight_shape=(3, 2, 1, 1), out_shape=(3, 4, 4), inputs=[0])
    n1.weights = rng.standard_normal((3, 2, 1, 1)).astype(np.float32)
    n2 = LayerNode(2, "global_pool", out_shape=(3,), inputs=[1])
    g = LayerGraph([LayerNode(0, "input", out_shape=(2, 4, 4)), n1, n2])
    x = random_grid_input(rng, (2, 4, 4))

    asg = uniform_assignment(g, 1, 4, 8)
    outs = run_fake_quantized(g, x, 1, asg)
    codes = run_fake_quantized_detailed(g, x, 1, asg)

    wp = choose_clip_range(n1.weights, 4, symmetric=True)
    _, wdeq = quantize_tensor(n1.weights, wp)
    y = np.tensordot(wdeq.astype(np.float64)[:, :, 0, 0], x.astype(np.float64), axes=([1], [0]))
    y = y.astype(np.float32)
    ap = choose_clip_range(y, 8, symmetric=False)
    aq, adeq = quantize_tensor(y, ap)
    assert list(codes) == [1]
    q, p = codes[1]
    assert p == ap and np.array_equal(q, aq)
    assert np.array_equal(dequantize(q, p), adeq)
    want = adeq.astype(np.float64).mean(axis=(1, 2)).astype(np.float32)
    assert np.array_equal(outs[0], want)


def test_fake_quant_missing_assignment_raises(toy_graph):
    with pytest.raises(GraphError, match="missing bit assignment"):
        run_fake_quantized(toy_graph, np.zeros((1, 16, 16), dtype=np.float32), 2,
                           BitAssignment({}, {}))


# -- the per-graph weight cache ----------------------------------------------------------


def _weighted(g):
    return [i for i in g.compute_ids() if g.nodes[i].weight_elements() and g.nodes[i].weights is not None]


def _fresh(w, bits):
    return quantize_tensor(w, choose_clip_range(w, bits, symmetric=True))[1]


def test_cached_weights_equal_a_fresh_quantization():
    rng = np.random.default_rng(21)
    graphs = [optimize_graph(make_toy_classifier(0))] + [random_dag(rng, max_nodes=10) for _ in range(6)]
    for g in graphs:
        compute = g.compute_ids()
        for bits in (2, 3, 4, 8):
            asg = uniform_assignment(g, len(compute), bits, 8)
            filled = quantized_weights(g, compute, asg)
            read = quantized_weights(g, compute, asg)
            assert sorted(filled) == sorted(read) == sorted(_weighted(g))
            for nid, t in filled.items():
                want = _fresh(g.nodes[nid].weights, bits)
                assert t.dtype == want.dtype and t.shape == want.shape
                assert t.tobytes() == want.tobytes(), (nid, bits)
                assert read[nid] is t
        assert quantized_weights(g, compute, uniform_assignment(g, len(compute), 16, 16)) == {}


def test_reassigned_weights_miss_the_cache():
    g = optimize_graph(make_toy_classifier(0))
    compute = g.compute_ids()
    asg = uniform_assignment(g, len(compute), 4, 8)
    nid = _weighted(g)[0]
    before = quantized_weights(g, compute, asg)[nid]
    node = g.nodes[nid]
    node.weights = node.weights * np.float32(0.5)
    after = quantized_weights(g, compute, asg)[nid]
    assert after.tobytes() == _fresh(node.weights, 4).tobytes()
    assert after.tobytes() != before.tobytes()


def test_cached_weights_are_read_only(toy_graph):
    compute = toy_graph.compute_ids()
    qw = quantized_weights(toy_graph, compute, uniform_assignment(toy_graph, len(compute), 4, 8))
    assert qw
    for t in qw.values():
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t[...] = 0


# -- accuracy and eval-set storage ----------------------------------------------------


def test_float_accuracy_on_clean_templates(toy_graph):
    eval_set = make_eval_set(per_class=2, seed=0, noise=0)
    acc = float_accuracy(toy_graph, eval_set)
    assert acc == 1.0  # noise-free renders classify perfectly


def test_accuracy_monotone_grid(toy_graph, toy_eval):
    N = len(toy_graph.compute_ids())
    accs = {}
    for bits in (2, 8):
        asg = uniform_assignment(toy_graph, N, bits, bits)
        accs[bits] = evaluate_accuracy(toy_graph, toy_eval, N, asg)
    base = float_accuracy(toy_graph, toy_eval)
    assert 0.0 <= accs[2] <= accs[8] <= 1.0
    assert accs[8] <= base + 1e-9


def test_accuracy_requires_single_output():
    rng = np.random.default_rng(14)
    while True:
        g = random_dag(rng, max_nodes=8)
        if len(g.output_ids) > 1:
            break
    es = EvalSet(inputs=[random_grid_input(rng, g.nodes[g.input_id].out_shape)], labels=[0])
    with pytest.raises(GraphError, match="single-output"):
        float_accuracy(g, es)


def test_eval_set_alignment_checked():
    with pytest.raises(ValueError, match="align"):
        EvalSet(inputs=[np.zeros(3)], labels=[0, 1])


def test_eval_dir_roundtrip(tmp_path):
    eval_set = make_eval_set(per_class=2, seed=3, noise=40)
    save_eval_dir(eval_set, tmp_path / "eval")
    back = load_eval_dir(tmp_path / "eval")
    assert back.labels == [int(v) for v in eval_set.labels]
    assert len(back.inputs) == len(eval_set.inputs)
    for a, b in zip(back.inputs, eval_set.inputs):
        assert np.array_equal(a, b)
