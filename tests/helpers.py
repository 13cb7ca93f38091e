"""Shared builders for tests: device profiles, bit assignments, drops for
every solution and weighted-layer positions."""

import numpy as np

from bitsplit.cost import DeviceProfile, NetworkProfile
from bitsplit.engine import evaluate_accuracy, float_accuracy
from bitsplit.graph import WEIGHTED_OPS
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
