"""Shared builders for tests: device profiles, bit assignments, drops for
every solution, weighted-layer positions, and random graphs and inputs for
oracle corpora."""

import numpy as np

from bitsplit.cost import DeviceProfile, NetworkProfile
from bitsplit.engine import evaluate_accuracy, float_accuracy
from bitsplit.graph import WEIGHTED_OPS, LayerGraph, LayerNode
from bitsplit.search import BitAssignment
from bitsplit.synth import table1_device_config, toy_device_config


def device_from(cfg: dict) -> DeviceProfile:
    return DeviceProfile(
        name=cfg["name"],
        off_chip_bytes=int(cfg["off_chip_bytes"]),
        bandwidth_bytes_per_s=float(cfg["bandwidth_bytes_per_s"]),
        peak_ops_per_s=float(cfg["peak_ops_per_s"]),
        mac_bits=int(cfg["mac_bits"]),
        supported_bits=tuple(int(b) for b in cfg["supported_bits"]),
    )


def profiles_from(cfg: dict):
    net = NetworkProfile(
        uplink_bits_per_s=float(cfg["network"]["uplink_bps"]),
        fixed_rtt_s=float(cfg["network"].get("fixed_rtt_s", 0.0)),
    )
    return device_from(cfg["edge"]), device_from(cfg["cloud"]), net


def toy_profiles():
    return profiles_from(toy_device_config())


def table1_profiles():
    return profiles_from(table1_device_config())


def uniform_assignment(g, n, bw, ba) -> BitAssignment:
    compute = g.compute_ids()
    return BitAssignment(
        weight_bits={i: bw for i in compute[:n]},
        act_bits={i: ba for i in compute[:n]},
    )


def random_assignment(g, n, rng, choices=(2, 4, 8)) -> BitAssignment:
    compute = g.compute_ids()
    return BitAssignment(
        weight_bits={i: int(rng.choice(choices)) for i in compute[:n]},
        act_bits={i: int(rng.choice(choices)) for i in compute[:n]},
    )


def grid_input_covering(rng: np.random.Generator, shape) -> np.ndarray:
    """Input on the k/256 grid that spans the full code range, so 8-bit input
    quantization reconstructs it exactly (needed for bitwise session checks)."""
    x = rng.integers(0, 256, size=shape)
    flat = x.reshape(-1)
    flat[0] = 0
    flat[-1] = 255
    return (x / 256.0).astype(np.float32)


def measure_all(S, g, eval_set):
    """Records the accuracy drop on every solution in S that lacks one, as
    `select_solution` does for those it reaches; returns S."""
    base_acc = float_accuracy(g, eval_set)
    for sol in S:
        if sol.is_sentinel:
            sol.accuracy_drop = 0.0
        elif sol.accuracy_drop is None:
            sol.accuracy_drop = base_acc - evaluate_accuracy(g, eval_set, sol.n, sol.assignment)
    return S


def weighted_positions(g) -> dict:
    """Map node id -> index among weighted layers in execution order."""
    weighted = [nid for nid in g.compute_ids() if g.nodes[nid].op_kind in WEIGHTED_OPS]
    return {nid: k for k, nid in enumerate(weighted)}


def last_weighted_in_prefix(g, n: int):
    """Weighted index of the deepest weighted layer within the n-prefix."""
    wpos = weighted_positions(g)
    best = None
    for nid in g.compute_ids()[:n]:
        if nid in wpos:
            best = wpos[nid]
    return best


# -- random graphs for oracle corpora -------------------------------------------------


def random_dag(rng: np.random.Generator, max_nodes: int = 10) -> LayerGraph:
    """Small random valid graph with loaded weights (runnable end to end)."""
    H = int(rng.choice([4, 6, 8]))
    C0 = int(rng.integers(1, 4))
    nodes = [LayerNode(0, "input", out_shape=(C0, H, H))]
    pool = [(0, (C0, H, H))]
    target = int(rng.integers(3, max_nodes + 1))

    def w(shape, fan):
        return (rng.standard_normal(shape) / np.sqrt(max(1, fan))).astype(np.float32)

    nid = 1
    while nid < target:
        kinds = ["conv", "pointwise_conv", "depthwise_conv", "relu", "batchnorm", "add", "concat", "fc"]
        probs = [0.22, 0.14, 0.12, 0.14, 0.08, 0.14, 0.10, 0.06]
        op = rng.choice(kinds, p=probs)
        src_id, src_shape = pool[int(rng.integers(0, len(pool)))]
        rank3 = [t for t in pool if len(t[1]) == 3]
        node = None
        if op in ("conv", "pointwise_conv", "depthwise_conv", "batchnorm") and not rank3:
            op = "relu"
        if op == "conv":
            src_id, src_shape = rank3[int(rng.integers(0, len(rank3)))]
            cout = int(rng.integers(1, 7))
            stride = 2 if (src_shape[1] >= 4 and rng.random() < 0.25) else 1
            sp = (src_shape[1] + 2 - 3) // stride + 1
            node = LayerNode(nid, "conv", attrs={"stride": stride, "pad": 1},
                             weight_shape=(cout, src_shape[0], 3, 3), out_shape=(cout, sp, sp),
                             inputs=[src_id], weights=w((cout, src_shape[0], 3, 3), 9 * src_shape[0]))
        elif op == "pointwise_conv":
            src_id, src_shape = rank3[int(rng.integers(0, len(rank3)))]
            cout = int(rng.integers(1, 7))
            node = LayerNode(nid, "pointwise_conv", weight_shape=(cout, src_shape[0], 1, 1),
                             out_shape=(cout,) + src_shape[1:], inputs=[src_id],
                             weights=w((cout, src_shape[0], 1, 1), src_shape[0]))
        elif op == "depthwise_conv":
            src_id, src_shape = rank3[int(rng.integers(0, len(rank3)))]
            node = LayerNode(nid, "depthwise_conv", attrs={"stride": 1, "pad": 1},
                             weight_shape=(src_shape[0], 3, 3), out_shape=src_shape,
                             inputs=[src_id], weights=w((src_shape[0], 3, 3), 9))
        elif op == "batchnorm":
            src_id, src_shape = rank3[int(rng.integers(0, len(rank3)))]
            c = src_shape[0]
            params = np.stack(
                [
                    rng.uniform(0.5, 1.5, c),
                    rng.uniform(-0.2, 0.2, c),
                    rng.uniform(-0.2, 0.2, c),
                    rng.uniform(0.5, 1.5, c),
                ]
            ).astype(np.float32)
            node = LayerNode(nid, "batchnorm", weight_shape=(4, c), out_shape=src_shape,
                             inputs=[src_id], weights=params)
        elif op == "relu":
            node = LayerNode(nid, "relu", out_shape=src_shape, inputs=[src_id])
        elif op == "add":
            mates = [t for t in pool if t[1] == src_shape and t[0] != src_id]
            if not mates:
                node = LayerNode(nid, "relu", out_shape=src_shape, inputs=[src_id])
            else:
                other = mates[int(rng.integers(0, len(mates)))]
                node = LayerNode(nid, "add", out_shape=src_shape, inputs=[src_id, other[0]])
        elif op == "concat":
            mates = [t for t in pool if len(t[1]) == len(src_shape) and t[1][1:] == src_shape[1:]]
            if len(mates) < 2 or len(src_shape) < 2:
                node = LayerNode(nid, "relu", out_shape=src_shape, inputs=[src_id])
            else:
                other = mates[int(rng.integers(0, len(mates)))]
                out_shape = (src_shape[0] + other[1][0],) + src_shape[1:]
                node = LayerNode(nid, "concat", attrs={"axis": 0}, out_shape=out_shape,
                                 inputs=[src_id, other[0]])
        elif op == "fc":
            k = int(rng.integers(2, 8))
            nin = 1
            for d in src_shape:
                nin *= d
            node = LayerNode(nid, "fc", weight_shape=(k, nin), out_shape=(k,),
                             inputs=[src_id], weights=w((k, nin), nin))
        nodes.append(node)
        pool.append((nid, tuple(node.out_shape)))
        nid += 1
    return LayerGraph(nodes, input_bits=8)


def random_grid_input(rng: np.random.Generator, shape) -> np.ndarray:
    """Random tensor on the k/256 grid (exact under 8-bit input quantization)."""
    return (rng.integers(0, 256, size=shape) / 256.0).astype(np.float32)
