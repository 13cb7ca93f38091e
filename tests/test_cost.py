import json
import os
from dataclasses import astuple, replace

import numpy as np
import pytest

import oracles
from bitsplit.cost import (
    ConfigError,
    DeviceProfile,
    NetworkProfile,
    activation_memory_bits,
    crossing_bits_map,
    latency_table,
    layer_macs,
    layer_ops,
    load_device_config,
    message_payload_bytes,
    split_latency,
)
from bitsplit.graph import LayerGraph, LayerNode, boundary_cut, topological_order
from bitsplit.search import BitAssignment
from bitsplit.synth import resnet50_shapes
from helpers import random_assignment, random_dag, table1_profiles, uniform_assignment

TPU_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "tpu.json")


def _dev(**kw):
    base = dict(name="d", off_chip_bytes=1 << 30,
                bandwidth_bytes_per_s=1e9, peak_ops_per_s=1e10, mac_bits=8,
                supported_bits=(2, 4, 8))
    base.update(kw)
    return DeviceProfile(**base)


# -- op and mac counting ---------------------------------------------------------


def test_macs_conventions():
    conv = LayerNode(1, "conv", weight_shape=(8, 3, 3, 3), out_shape=(8, 10, 10))
    assert layer_macs(conv) == 3 * 3 * 3 * 8 * 100
    dw = LayerNode(1, "depthwise_conv", weight_shape=(6, 3, 3), out_shape=(6, 5, 5))
    assert layer_macs(dw) == 3 * 3 * 6 * 25
    fc = LayerNode(1, "fc", weight_shape=(10, 128), out_shape=(10,))
    assert layer_macs(fc) == 1280
    assert layer_macs(LayerNode(1, "relu", out_shape=(4, 4, 4))) == 0


def test_ops_twice_macs_for_weighted():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(3, 8, 8)),
        LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(4, 3, 3, 3),
                  out_shape=(4, 8, 8), inputs=[0]),
    ])
    node = g.nodes[1]
    assert layer_ops(node, g) == 2 * layer_macs(node)


def test_ops_elementwise_conventions():
    nodes = [
        LayerNode(0, "input", out_shape=(2, 4, 4)),
        LayerNode(1, "relu", out_shape=(2, 4, 4), inputs=[0]),
        LayerNode(2, "add", out_shape=(2, 4, 4), inputs=[0, 1]),
        LayerNode(3, "add", out_shape=(2, 4, 4), inputs=[0, 1, 2]),
        LayerNode(4, "concat", attrs={"axis": 0}, out_shape=(6, 4, 4), inputs=[2, 3, 1]),
        LayerNode(5, "global_pool", out_shape=(6,), inputs=[4]),
    ]
    g = LayerGraph(nodes)
    assert layer_ops(g.nodes[1], g) == 32  # one op per element
    assert layer_ops(g.nodes[2], g) == 32  # (k-1) * elements
    assert layer_ops(g.nodes[3], g) == 64
    assert layer_ops(g.nodes[4], g) == 0  # concat is free
    assert layer_ops(g.nodes[5], g) == 96  # reads its input once
    bn = LayerNode(9, "batchnorm", weight_shape=(4, 2), out_shape=(2, 4, 4))
    assert layer_ops(bn, g) == 64  # scale + shift


# -- roofline per-layer latency -----------------------------------------------------


def _cell(g, d, k, bw, ba):
    """The latency table's cell for compute layer k at widths (bw, ba)."""
    t = latency_table(g, d)
    widths = t.widths.tolist()
    return t.edge[k, widths.index(bw), widths.index(ba)]


def test_layer_latency_compute_bound():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(3, 8, 8)),
        LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(4, 3, 3, 3),
                  out_shape=(4, 8, 8), inputs=[0]),
    ])
    node = g.nodes[1]
    d = _dev(peak_ops_per_s=1e6, bandwidth_bytes_per_s=1e12)
    want = 2 * layer_macs(node) / 1e6
    assert _cell(g, d, 0, 8, 8) == pytest.approx(want)
    # operands wider than the mac unit slow compute linearly
    assert _cell(g, d, 0, 16, 8) == pytest.approx(2 * want)
    # narrower operands do not speed it up
    assert _cell(g, d, 0, 2, 2) == pytest.approx(want)


def test_layer_latency_memory_bound():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(3, 8, 8)),
        LayerNode(1, "conv", attrs={"stride": 1, "pad": 1}, weight_shape=(4, 3, 3, 3),
                  out_shape=(4, 8, 8), inputs=[0]),
    ])
    d = _dev(peak_ops_per_s=1e18, bandwidth_bytes_per_s=1e6)
    w_elems, in_elems, out_elems = 108, 192, 256
    for bw, ba in [(2, 8), (8, 2), (4, 4)]:
        want = (w_elems * bw + (in_elems + out_elems) * ba) / 8 / 1e6
        assert _cell(g, d, 0, bw, ba) == pytest.approx(want)


def test_unsupported_bits_rejected_but_16_allowed():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(3, 8, 8)),
        LayerNode(1, "relu", out_shape=(3, 8, 8), inputs=[0]),
    ])
    d = _dev(supported_bits=(2, 4, 8))
    net = NetworkProfile(uplink_bits_per_s=1e6)
    split_latency(g, 1, BitAssignment({1: 16}, {1: 16}), d, d, net)  # always representable
    with pytest.raises(ConfigError, match="unsupported bit-width 3"):
        split_latency(g, 1, BitAssignment({1: 3}, {1: 8}), d, d, net)


def test_every_latency_cell_equals_the_scalar_oracle(toy_graph):
    # every cell is priced at construction in one array expression; each must
    # be the scalar roofline to the last bit, and the 16-bit sums its loops
    edge, cloud, _ = table1_profiles()
    tpu_edge, tpu_cloud, _ = load_device_config(TPU_CONFIG)
    wide = _dev(mac_bits=6, supported_bits=(1, 2, 4, 8, 32), bandwidth_bytes_per_s=3e8)
    rng = np.random.default_rng(24)
    graphs = [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=12) for _ in range(6)]
    for g in graphs:
        compute = g.compute_ids()
        for d in (edge, cloud, tpu_edge, tpu_cloud, wide):
            t = latency_table(g, d)
            assert t.widths.tolist() == sorted(set(d.supported_bits) | {16})
            assert t.edge.shape == (len(compute), len(t.widths), len(t.widths))
            for k, i in enumerate(compute):
                for a, ba in enumerate(t.widths.tolist()):
                    for w, bw in enumerate(t.widths.tolist()):
                        assert t.edge[k, w, a] == oracles.layer_latency(g.nodes[i], g, d, bw, ba), (d.name, i, bw, ba)
            for n in range(len(compute) + 1):
                prefix_s = suffix_s = 0.0
                for i in compute[:n]:
                    prefix_s += oracles.layer_latency(g.nodes[i], g, d, 16, 16)
                for i in compute[n:]:
                    suffix_s += oracles.layer_latency(g.nodes[i], g, d, 16, 16)
                assert (t.prefix[n], t.suffix[n]) == (prefix_s, suffix_s)


# -- transmission ----------------------------------------------------------------


def test_transmission_of_a_megabyte_scale_tensor():
    # 972 KiB at 3 Mbit/s is about 2.65 s, the kind of stall that motivates
    # splitting late and transmitting small tensors
    elems = 972 * 1024
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(elems,)),
        LayerNode(1, "relu", out_shape=(elems,), inputs=[0]),
    ])
    net = NetworkProfile(uplink_bits_per_s=3e6)
    asg = BitAssignment({1: 8}, {1: 8})
    t = split_latency(g, 1, asg, _dev(), _dev(), net).transmit_s
    assert t == oracles.transmission_latency(g, boundary_cut(g, 1), {1: 8}, net)
    assert t == pytest.approx(2.654208, rel=1e-6)


def test_transmission_includes_rtt_and_all_crossings():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(4, 2, 2)),
        LayerNode(1, "relu", out_shape=(4, 2, 2), inputs=[0]),
        LayerNode(2, "relu", out_shape=(4, 2, 2), inputs=[0]),
        LayerNode(3, "add", out_shape=(4, 2, 2), inputs=[1, 2]),
    ])
    net = NetworkProfile(uplink_bits_per_s=1e3, fixed_rtt_s=0.5)
    cut = boundary_cut(g, 1)  # node 1 done; input still needed by 2
    assert cut.crossing_tensors == [0, 1]
    t = split_latency(g, 1, BitAssignment({1: 8}, {1: 4}), _dev(), _dev(), net).transmit_s
    assert t == oracles.transmission_latency(g, cut, {0: g.input_bits, 1: 4}, net)
    assert t == pytest.approx((16 * 8 + 16 * 4) / 1e3 + 0.5)


def test_message_payload_bytes_rounds_up():
    assert message_payload_bytes(0, 4) == 0
    assert message_payload_bytes(1, 1) == 1
    assert message_payload_bytes(8, 1) == 1
    assert message_payload_bytes(9, 1) == 2
    assert message_payload_bytes(3, 4) == 2
    assert message_payload_bytes(5, 8) == 5


def test_crossing_bits_map_uses_input_bits(toy_graph):
    cut = boundary_cut(toy_graph, 0)
    m = crossing_bits_map(toy_graph, cut, None)
    assert m == {toy_graph.input_id: toy_graph.input_bits}


# -- split-level model ----------------------------------------------------------------


def test_split_zero_is_cloud_only(toy_graph):
    edge, cloud, net = table1_profiles()
    from bitsplit.search import EMPTY_ASSIGNMENT

    br = split_latency(toy_graph, 0, EMPTY_ASSIGNMENT, edge, cloud, net)
    assert br.edge_s == 0.0
    want_tx = toy_graph.nodes[toy_graph.input_id].act_elements() * 8 / net.uplink_bits_per_s
    assert br.transmit_s == pytest.approx(want_tx)
    assert br.total_s == pytest.approx(br.transmit_s + br.cloud_s)
    assert br.relative_s == pytest.approx(br.transmit_s)


def test_split_full_ships_outputs_unless_disabled(toy_graph):
    edge, cloud, net = table1_profiles()
    N = len(toy_graph.compute_ids())
    asg = uniform_assignment(toy_graph, N, 8, 8)
    br = split_latency(toy_graph, N, asg, edge, cloud, net)
    assert br.cloud_s == 0.0
    assert br.transmit_s == pytest.approx(10 * 8 / net.uplink_bits_per_s)  # 10 logits


def test_split_latency_total_is_sum_of_parts(toy_graph):
    edge, cloud, net = table1_profiles()
    rng = np.random.default_rng(21)
    for n in (1, 3, 5):
        asg = random_assignment(toy_graph, n, rng)
        br = split_latency(toy_graph, n, asg, edge, cloud, net)
        assert br.total_s == pytest.approx(br.edge_s + br.transmit_s + br.cloud_s)
        # per-layer recomputation
        compute = toy_graph.compute_ids()
        want_edge = sum(
            _cell(toy_graph, edge, k, asg.weight_bits[i], asg.act_bits[i]) for k, i in enumerate(compute[:n])
        )
        assert br.edge_s == pytest.approx(want_edge)
        want_cloud = sum(_cell(toy_graph, cloud, k, 16, 16) for k in range(n, len(compute)))
        assert br.cloud_s == pytest.approx(want_cloud)


def test_cloud_latencies_exact_per_profile(toy_graph):
    # the 16-bit cloud latencies are computed once per (graph, profile): a
    # second profile on the same graph must get its own, summed as before
    edge, cloud, net = table1_profiles()
    slow = replace(cloud, peak_ops_per_s=cloud.peak_ops_per_s / 1e3, bandwidth_bytes_per_s=1e6)
    compute = toy_graph.compute_ids()
    rng = np.random.default_rng(22)
    for n in range(len(compute) + 1):
        asg = random_assignment(toy_graph, n, rng)
        for c in (cloud, slow, cloud):
            br = split_latency(toy_graph, n, asg, edge, c, net)
            cloud_s = prefix_s = 0.0
            for k in range(n, len(compute)):
                cloud_s += _cell(toy_graph, c, k, 16, 16)
            for k in range(n):
                prefix_s += _cell(toy_graph, c, k, 16, 16)
            assert br.cloud_s == cloud_s
            assert br.relative_s == br.edge_s + br.transmit_s - prefix_s


def test_split_latency_equals_naive_oracle(toy_graph):
    # exact, not approximate: one edge or cloud profile, 16-bit widths and a
    # round trip all go through the same left-to-right sums as the oracle
    edge, cloud, net = table1_profiles()
    rtt = replace(net, fixed_rtt_s=1e-3)
    rng = np.random.default_rng(23)
    graphs = [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=12) for _ in range(8)]
    for g in graphs:
        order = topological_order(g)
        N = len(g.compute_ids())
        for n in sorted({0, 1, N // 2, N - 1, N}):
            asg = random_assignment(g, n, rng, choices=(2, 4, 8, 16))
            for e, c, w in ((edge, cloud, net), (cloud, edge, rtt), (edge, edge, net)):
                br = split_latency(g, n, asg, e, c, w)
                assert astuple(br) == oracles.split_latency_naive(g, order, n, asg, e, c, w)


def test_split_latency_rejects_a_width_the_edge_cannot_run(toy_graph):
    edge, cloud, net = table1_profiles()
    asg = uniform_assignment(toy_graph, 3, 8, 8)
    asg.act_bits[toy_graph.compute_ids()[1]] = 3
    with pytest.raises(ConfigError, match="unsupported bit-width 3"):
        split_latency(toy_graph, 3, asg, edge, cloud, net)


def test_split_index_range_checked(toy_graph):
    edge, cloud, net = table1_profiles()
    from bitsplit.graph import GraphError
    from bitsplit.search import EMPTY_ASSIGNMENT

    with pytest.raises(GraphError, match="out of range"):
        split_latency(toy_graph, 99, EMPTY_ASSIGNMENT, edge, cloud, net)


# -- memory vs brute oracles -----------------------------------------------------------


def test_memory_formulas_match_oracles():
    rng = np.random.default_rng(22)
    for k in range(40):
        g = random_dag(rng, max_nodes=10)
        order = topological_order(g)
        compute = g.compute_ids()
        ab = {i: int(rng.choice([2, 4, 8])) for i in compute}
        for n in range(len(compute) + 1):
            assert activation_memory_bits(g, n, ab) == oracles.act_peak_bits_brute(
                g, order, n, ab, g.input_bits
            )


def test_activation_memory_counts_input_at_input_bits():
    g = LayerGraph([
        LayerNode(0, "input", out_shape=(4, 4, 4)),
        LayerNode(1, "relu", out_shape=(4, 4, 4), inputs=[0]),
    ], input_bits=8)
    # step 1: input (64 elems at 8) + relu output (64 elems at chosen bits)
    assert activation_memory_bits(g, 1, {1: 2}) == 64 * 8 + 64 * 2
    assert activation_memory_bits(g, 0, {}) == 0


# -- profiles --------------------------------------------------------------------------


def test_device_profile_validation():
    with pytest.raises(ConfigError, match="positive"):
        _dev(peak_ops_per_s=0)
    with pytest.raises(ConfigError, match="sorted unique"):
        _dev(supported_bits=(8, 2))
    with pytest.raises(ConfigError, match="non-empty"):
        _dev(supported_bits=())
    with pytest.raises(ConfigError, match="1..32"):
        _dev(supported_bits=(2, 4, int(1e308)))
    with pytest.raises(ConfigError, match="1..32"):
        _dev(supported_bits=(0, 2))
    with pytest.raises(ConfigError, match="positive"):
        NetworkProfile(uplink_bits_per_s=0)
    with pytest.raises(ConfigError, match="rtt"):
        NetworkProfile(uplink_bits_per_s=1, fixed_rtt_s=-1)


def test_load_device_config(tmp_path):
    # on_chip_bytes is a field the model no longer has: old files still load
    doc = {
        "edge": {"name": "e", "on_chip_bytes": 1024, "off_chip_bytes": 4096,
                 "bandwidth_bytes_per_s": 1e6, "peak_ops_per_s": 1e9,
                 "mac_bits": 8, "supported_bits": [2, 4, 8]},
        "cloud": {"name": "c", "on_chip_bytes": 2048, "off_chip_bytes": 8192,
                  "bandwidth_bytes_per_s": 1e7, "peak_ops_per_s": 1e12},
        "network": {"uplink_bps": 3e6, "fixed_rtt_s": 0.01},
    }
    p = tmp_path / "devices.json"
    p.write_text(json.dumps(doc))
    edge, cloud, net = load_device_config(p)
    assert edge.name == "e" and edge.supported_bits == (2, 4, 8)
    assert cloud.mac_bits == 8  # default
    assert net.uplink_bits_per_s == 3e6 and net.fixed_rtt_s == 0.01

    bad = dict(doc)
    del bad["network"]
    p2 = tmp_path / "bad.json"
    p2.write_text(json.dumps(bad))
    with pytest.raises(ConfigError, match="missing section"):
        load_device_config(p2)

    p3 = tmp_path / "broken.json"
    p3.write_text("{nope")
    with pytest.raises(ConfigError, match="parse error"):
        load_device_config(p3)
    with pytest.raises(ConfigError, match="cannot read"):
        load_device_config(tmp_path / "absent.json")

    incomplete = {"edge": {"name": "e"}, "cloud": doc["cloud"], "network": doc["network"]}
    p4 = tmp_path / "incomplete.json"
    p4.write_text(json.dumps(incomplete))
    with pytest.raises(ConfigError, match="missing field"):
        load_device_config(p4)
