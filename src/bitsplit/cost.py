"""Analytic latency and memory models.

Per-layer latency is roofline style: max(compute, data movement), summed over
layers with no pipelining. Compute counts 2 ops per multiply-accumulate and is
bit-independent at or below the device's native MAC width; wider operands slow
compute proportionally. Data movement scales linearly with operand bit-widths.
Transmission is pure bandwidth (optional fixed RTT), charged on every tensor
that crosses the split boundary; graph outputs count as crossing so an
edge-only split still ships its result.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

from .graph import (
    BoundaryCut,
    GraphError,
    LayerGraph,
    WEIGHTED_OPS,
    boundary_cut,
)
from .util import ceil_div, prod


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    on_chip_bytes: int
    off_chip_bytes: int
    bandwidth_bytes_per_s: float
    peak_ops_per_s: float
    mac_bits: int = 8
    supported_bits: tuple = (2, 4, 8)

    def __post_init__(self):
        # a tuple keeps the profile hashable: split_latency caches per profile
        object.__setattr__(self, "supported_bits", tuple(self.supported_bits))
        for f in ("on_chip_bytes", "off_chip_bytes", "bandwidth_bytes_per_s", "peak_ops_per_s", "mac_bits"):
            if getattr(self, f) <= 0:
                raise ConfigError("%s: %s must be positive" % (self.name, f))
        if not self.supported_bits:
            raise ConfigError("%s: supported_bits must be non-empty" % self.name)
        if list(self.supported_bits) != sorted(set(int(b) for b in self.supported_bits)):
            raise ConfigError("%s: supported_bits must be sorted unique" % self.name)


@dataclass(frozen=True)
class NetworkProfile:
    uplink_bits_per_s: float
    fixed_rtt_s: float = 0.0

    def __post_init__(self):
        if self.uplink_bits_per_s <= 0:
            raise ConfigError("uplink rate must be positive")
        if self.fixed_rtt_s < 0:
            raise ConfigError("rtt cannot be negative")


@dataclass(frozen=True)
class LatencyBreakdown:
    edge_s: float
    transmit_s: float
    cloud_s: float
    total_s: float
    relative_s: float  # edge + transmit minus the cloud cost of the edge prefix


# -- per-layer model -----------------------------------------------------------


def layer_macs(node) -> int:
    op = node.op_kind
    if op in ("conv", "pointwise_conv"):
        cout, cin, kh, kw = node.weight_shape
        return kh * kw * cin * cout * prod(node.out_shape[1:])
    if op == "depthwise_conv":
        c, kh, kw = node.weight_shape
        return kh * kw * c * prod(node.out_shape[1:])
    if op == "fc":
        nout, nin = node.weight_shape
        return nout * nin
    return 0


def layer_ops(node, g: LayerGraph) -> int:
    """Operation count: 2 per MAC for weighted layers, elementwise otherwise."""
    op = node.op_kind
    if op in WEIGHTED_OPS:
        return 2 * layer_macs(node)
    if op == "add":
        return (len(node.inputs) - 1) * node.act_elements()
    if op == "batchnorm":
        return 2 * node.act_elements()
    if op == "global_pool":
        return sum(g.nodes[i].act_elements() for i in node.inputs)
    if op in ("input", "output", "concat"):
        return 0
    return node.act_elements()  # relu and anything elementwise


def _check_bits(d: DeviceProfile, bits: int):
    if bits not in d.supported_bits and bits != 16:
        raise ConfigError("unsupported bit-width %d for device %s" % (bits, d.name))


def layer_latency(node, g: LayerGraph, d: DeviceProfile, bw_bits: int, ba_bits: int) -> float:
    """max(compute, memory) seconds for one layer on one device."""
    _check_bits(d, bw_bits)
    _check_bits(d, ba_bits)
    ops = layer_ops(node, g)
    penalty = max(1.0, max(bw_bits, ba_bits) / d.mac_bits)
    compute_s = ops / d.peak_ops_per_s * penalty
    in_elems = sum(g.nodes[i].act_elements() for i in node.inputs)
    mem_bits = node.weight_elements() * bw_bits + (in_elems + node.act_elements()) * ba_bits
    memory_s = mem_bits / 8.0 / d.bandwidth_bytes_per_s
    return max(compute_s, memory_s)


def transmission_latency(g: LayerGraph, cut: BoundaryCut, bits_map: dict, net: NetworkProfile) -> float:
    total_bits = 0
    for nid in cut.crossing_tensors:
        total_bits += g.nodes[nid].act_elements() * int(bits_map[nid])
    return total_bits / net.uplink_bits_per_s + net.fixed_rtt_s


def message_payload_bytes(elements: int, bits: int) -> int:
    """Exact packed payload size; what the wire layer actually ships."""
    return ceil_div(elements * bits, 8)


# -- split-level model -----------------------------------------------------------


def crossing_bits_map(g: LayerGraph, cut: BoundaryCut, assignment) -> dict:
    bits = {}
    for nid in cut.crossing_tensors:
        if nid == g.input_id:
            bits[nid] = g.input_bits
        else:
            bits[nid] = assignment.act_bits[nid]
    return bits


_CLOUD_LATENCIES = weakref.WeakKeyDictionary()  # graph -> {cloud profile: {node id: seconds}}


def _cloud_latencies(g: LayerGraph, cloud: DeviceProfile) -> dict:
    """16-bit latency of every compute layer on the cloud, computed once per
    (graph, profile): graphs are immutable by convention, profiles frozen."""
    per_graph = _CLOUD_LATENCIES.setdefault(g, {})
    if cloud not in per_graph:
        per_graph[cloud] = {nid: layer_latency(g.nodes[nid], g, cloud, 16, 16) for nid in g.compute_ids()}
    return per_graph[cloud]


def split_latency(
    g: LayerGraph,
    order,
    n: int,
    assignment,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    net: NetworkProfile,
) -> LatencyBreakdown:
    compute = g.compute_ids()
    if not 0 <= n <= len(compute):
        raise GraphError("split index %d out of range" % n)
    edge_ids, cloud_ids = compute[:n], compute[n:]

    cloud16 = _cloud_latencies(g, cloud)
    edge_s = 0.0
    cloud_of_prefix = 0.0
    for nid in edge_ids:
        edge_s += layer_latency(g.nodes[nid], g, edge, assignment.weight_bits[nid], assignment.act_bits[nid])
        cloud_of_prefix += cloud16[nid]
    cloud_s = 0.0
    for nid in cloud_ids:
        cloud_s += cloud16[nid]

    cut = boundary_cut(g, order, n)
    transmit_s = transmission_latency(g, cut, crossing_bits_map(g, cut, assignment), net)

    return LatencyBreakdown(
        edge_s=edge_s,
        transmit_s=transmit_s,
        cloud_s=cloud_s,
        total_s=edge_s + transmit_s + cloud_s,
        relative_s=edge_s + transmit_s - cloud_of_prefix,
    )


# -- memory ----------------------------------------------------------------------


def weight_memory_bits(g: LayerGraph, order, n: int, weight_bits: dict) -> int:
    total = 0
    for nid in g.compute_ids()[:n]:
        total += g.nodes[nid].weight_elements() * int(weight_bits[nid])
    return total


def activation_memory_bits(g: LayerGraph, order, n: int, act_bits: dict) -> int:
    """Peak bit-weighted working set over the first n compute steps."""
    peak = 0
    for ws in g.liveness.working_sets[:n]:
        step_bits = 0
        for nid, elems in ws.live_tensors:
            b = g.input_bits if nid == g.input_id else int(act_bits[nid])
            step_bits += elems * b
        peak = max(peak, step_bits)
    return peak


# -- profiles from JSON ------------------------------------------------------------


def _device_from_dict(d: dict, fallback_name: str) -> DeviceProfile:
    try:
        return DeviceProfile(
            name=str(d.get("name", fallback_name)),
            on_chip_bytes=int(d["on_chip_bytes"]),
            off_chip_bytes=int(d["off_chip_bytes"]),
            bandwidth_bytes_per_s=float(d["bandwidth_bytes_per_s"]),
            peak_ops_per_s=float(d["peak_ops_per_s"]),
            mac_bits=int(d.get("mac_bits", 8)),
            supported_bits=tuple(int(b) for b in d.get("supported_bits", (2, 4, 8))),
        )
    except KeyError as e:
        raise ConfigError("device %s: missing field %s" % (fallback_name, e))
    except (TypeError, ValueError) as e:
        raise ConfigError("device %s: %s" % (fallback_name, e))


def load_device_config(path):
    """Returns (edge, cloud, network) profiles from one JSON config file."""
    try:
        with open(path, "r") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("parse error in %s: %s" % (path, e))
    for key in ("edge", "cloud", "network"):
        if key not in doc:
            raise ConfigError("config %s: missing section %r" % (path, key))
    net = doc["network"]
    try:
        network = NetworkProfile(
            uplink_bits_per_s=float(net["uplink_bps"]),
            fixed_rtt_s=float(net.get("fixed_rtt_s", 0.0)),
        )
    except KeyError as e:
        raise ConfigError("network section: missing field %s" % e)
    return (
        _device_from_dict(doc["edge"], "edge"),
        _device_from_dict(doc["cloud"], "cloud"),
        network,
    )
