"""Analytic latency and memory models.

Per-layer latency is roofline style: max(compute, data movement), summed over
layers with no pipelining. Compute counts 2 ops per multiply-accumulate and is
bit-independent at or below the device's native MAC width; wider operands slow
compute proportionally. Data movement scales linearly with operand bit-widths.
Transmission is pure bandwidth (optional fixed RTT), charged on every tensor
that crosses the split boundary; graph outputs count as crossing so an
edge-only split still ships its result.

Plans are priced by `split_latencies`, any number at any splits at once,
into five float64 columns (the `LatencyBreakdown` fields), from one
`LatencyTable` per (graph, profile): the latency of every (layer, weight
width, activation width), priced whole when the table is built and read
through a width -> column lookup array, and the 16-bit prefix and suffix
sums the cloud side reads. The elements each split ships come from the
graph (`g.liveness.crossing`). `split_latency` prices one plan given as
node id -> width mappings through the same code, as one `LatencyBreakdown`.
"""

from __future__ import annotations

import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .graph import (
    PACKABLE_BITS,
    BoundaryCut,
    GraphError,
    LayerGraph,
    WEIGHTED_OPS,
)
from .util import MISSING, ceil_div, prod, read_field


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    off_chip_bytes: int
    bandwidth_bytes_per_s: float
    peak_ops_per_s: float
    mac_bits: int = 8
    supported_bits: tuple = (2, 4, 8)

    def __post_init__(self):
        # a tuple keeps the profile hashable: split_latency caches per profile
        object.__setattr__(self, "supported_bits", tuple(self.supported_bits))
        for f in ("off_chip_bytes", "bandwidth_bytes_per_s", "peak_ops_per_s", "mac_bits"):
            if not 0 < getattr(self, f) < math.inf:
                raise ConfigError("%s: %s must be positive and finite, not %r" % (self.name, f, getattr(self, f)))
        if not self.supported_bits:
            raise ConfigError("%s: supported_bits must be non-empty" % self.name)
        if list(self.supported_bits) != sorted(set(int(b) for b in self.supported_bits)):
            raise ConfigError("%s: supported_bits must be sorted unique" % self.name)
        if not 1 <= self.supported_bits[0] <= self.supported_bits[-1] <= 32:
            raise ConfigError("%s: supported_bits must lie in 1..32" % self.name)


@dataclass(frozen=True)
class NetworkProfile:
    uplink_bits_per_s: float
    fixed_rtt_s: float = 0.0

    def __post_init__(self):
        if not 0 < self.uplink_bits_per_s < math.inf:
            raise ConfigError("uplink_bits_per_s must be positive and finite, not %r" % self.uplink_bits_per_s)
        if not 0 <= self.fixed_rtt_s < math.inf:
            raise ConfigError("fixed_rtt_s must be non-negative and finite, not %r" % self.fixed_rtt_s)


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


def message_payload_bytes(elements: int, bits: int) -> int:
    """Exact packed payload size; what the wire layer actually ships."""
    return ceil_div(elements * bits, 8)


# -- split-level model -----------------------------------------------------------


def crossing_bits_map(g: LayerGraph, cut: BoundaryCut, act_bits) -> dict:
    """The width each crossing tensor ships at: the input at `input_bits`,
    every other tensor at its activation width in `act_bits`."""
    return {c: g.input_bits if c == g.input_id else act_bits[c] for c in cut.crossing_tensors}


class LatencyTable:
    """One device's latencies for one graph's compute layers, read by
    `split_latencies`. Built once per (graph, profile), since graphs are
    immutable by convention and profiles frozen.

    `edge[k, w, a]` is the roofline latency of compute layer k at the w-th
    and a-th width of `widths` (the device's widths and 16): the larger of
    ops / peak, slowed by max(w, a) / mac_bits above 1, and the weight bits
    at w plus the input and output bits at a over the bandwidth. Every cell
    is priced here, in one array expression. `column[b]` is width b's index
    in `widths`, -1 when the device cannot run b. The 16-bit latencies summed
    left to right give `prefix[n]` over the first n layers and `suffix[n]`
    from layer n to the end, each from 0.0, so they equal a loop over the
    layers.
    """

    def __init__(self, g: LayerGraph, d: DeviceProfile):
        nodes = [g.nodes[i] for i in g.compute_ids()]
        self.device = d
        self.widths = np.array(sorted(set(d.supported_bits) | {16}), dtype=np.int64)
        # int16 holds any cell of a layer (33 widths at most), and gathers
        # faster than intp
        self.column = np.full(self.widths[-1] + 2, -1, dtype=np.int16)
        self.column[self.widths] = np.arange(len(self.widths))
        ops = np.array([layer_ops(n, g) for n in nodes], dtype=np.float64)[:, None, None]
        weights = np.array([n.weight_elements() for n in nodes], dtype=np.int64)[:, None, None]
        acts = np.array(
            [sum(g.nodes[i].act_elements() for i in n.inputs) + n.act_elements() for n in nodes], dtype=np.int64
        )[:, None, None]
        w, a = self.widths[:, None], self.widths[None, :]
        compute_s = ops / d.peak_ops_per_s * np.maximum(1.0, np.maximum(w, a) / d.mac_bits)
        memory_s = (weights * w + acts * a) / 8.0 / d.bandwidth_bytes_per_s
        self.edge = np.maximum(compute_s, memory_s)
        k16 = self.column[16]
        c = self.edge[:, k16, k16]
        N = len(c)
        self.prefix = np.add.accumulate(np.concatenate([[0.0], c]))
        tails = np.where(np.arange(N + 1)[:, None] <= np.arange(N)[None, :], c, 0.0)
        self.suffix = np.add.accumulate(np.hstack([np.zeros((N + 1, 1)), tails]), axis=1)[:, -1]

    def edge_latencies(self, wbits, abits, live) -> np.ndarray:
        """Latency of each layer at the widths in the k x n arrays `wbits`
        and `abits`, read where the boolean `live` is True; a live width the
        device cannot run raises ConfigError. Elsewhere an entry holds some
        cell of the table, so a prefix sum up to the first non-live entry
        is exact."""
        # clipped: a width below 0 reads column[0] and one above the widest
        # its last entry, both -1
        wcol = self.column.take(wbits, mode="clip")
        acol = self.column.take(abits, mode="clip")
        bad = (np.minimum(wcol, acol) < 0) & live
        if bad.any():
            r, k = np.argwhere(bad)[0]
            _check_bits(self.device, int(wbits[r, k]))
            _check_bits(self.device, int(abits[r, k]))
        W = len(self.widths)
        cell = wcol * W + acol + np.arange(wbits.shape[1]) * (W * W)  # the flat index of edge[k, wcol, acol]
        return self.edge.take(cell, mode="clip")


_LATENCY_TABLES = weakref.WeakKeyDictionary()  # graph -> {profile: LatencyTable}


def latency_table(g: LayerGraph, d: DeviceProfile) -> LatencyTable:
    per_graph = _LATENCY_TABLES.setdefault(g, {})
    if d not in per_graph:
        per_graph[d] = LatencyTable(g, d)
    return per_graph[d]


def _split(g: LayerGraph, n: int) -> int:
    if not 0 <= n <= len(g.compute_ids()):
        raise GraphError("split index %d out of range" % n)
    return n


def split_latencies(
    g: LayerGraph,
    n,
    wbits,
    abits,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    net: NetworkProfile,
) -> tuple:
    """The latency of k plans, one per row of the width arrays `wbits` and
    `abits` (compute layers in order), as five float64 columns of k:
    `edge_s`, `transmit_s`, `cloud_s`, `total_s` and `relative_s`, the
    `LatencyBreakdown` fields. Plan r splits at `n[r]`, or at `n` for all of
    them, and only its first n[r] widths are read.

    Edge latencies are summed left to right from 0.0 in compute order, the
    cloud's from layer n to the end (never a total minus a prefix), and the
    crossing tensors' bits stay integers until the one division, so each
    row equals the scalar per-layer loop to the last bit. Crossing tensors
    ship at the widths `crossing_bits_map` gives: the input at
    `input_bits`, every other at its activation width.
    """
    wbits = np.asarray(wbits, dtype=np.int64)
    abits = np.asarray(abits, dtype=np.int64)
    k, width = wbits.shape
    n = np.asarray(n, dtype=np.intp)
    if n.size:
        _split(g, int(n.min()))
        _split(g, int(n.max()))
    n = np.broadcast_to(n, (k,))
    ct = latency_table(g, cloud)
    lat = latency_table(g, edge).edge_latencies(wbits, abits, np.arange(width) < n[:, None])
    np.add.accumulate(lat, axis=1, out=lat)  # each row's prefix sums, in place
    edge_s = np.zeros(k)
    cut = np.flatnonzero(n)
    edge_s[cut] = lat[cut, n[cut] - 1]
    crossing = g.liveness.crossing[n]  # a split's crossing tensors all sit in its prefix
    tx_bits = np.einsum("ij,ij->i", abits, crossing[:, 1 : width + 1]) + crossing[:, 0] * g.input_bits
    transmit_s = tx_bits / net.uplink_bits_per_s + net.fixed_rtt_s
    cloud_s = ct.suffix[n]
    return edge_s, transmit_s, cloud_s, edge_s + transmit_s + cloud_s, edge_s + transmit_s - ct.prefix[n]


def split_latency(
    g: LayerGraph,
    n: int,
    assignment,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    net: NetworkProfile,
) -> LatencyBreakdown:
    """`split_latencies` of one plan given as node id -> width mappings."""
    edge_ids = g.compute_ids()[: _split(g, n)]
    wbits = [[assignment.weight_bits[i] for i in edge_ids]]
    abits = [[assignment.act_bits[i] for i in edge_ids]]
    return LatencyBreakdown(*(c.item(0) for c in split_latencies(g, n, wbits, abits, edge, cloud, net)))


# -- memory ----------------------------------------------------------------------


def activation_memory_bits(g: LayerGraph, n: int, act_bits: dict) -> int:
    """Peak bit-weighted working set over the first n compute steps."""
    prefix = g.compute_ids()[:n]
    bits = np.array([g.input_bits] + [int(act_bits[i]) for i in prefix], dtype=np.int64)
    return int((g.liveness.incidence[:n, : n + 1] @ bits).max(initial=0))


# -- profiles from JSON ------------------------------------------------------------


# a device section's fields besides its name: (field, kind, value when absent)
_DEVICE_FIELDS = (
    ("off_chip_bytes", "int", MISSING),
    ("bandwidth_bytes_per_s", "number", MISSING),
    ("peak_ops_per_s", "number", MISSING),
    ("mac_bits", "int", 8),
    ("supported_bits", "bits", [2, 4, 8]),
)


def _device_from_dict(d: dict, section: str) -> DeviceProfile:
    where = "device %s" % section
    return DeviceProfile(
        name=read_field(d.get("name", section), "string", where, "name", ConfigError),
        **{key: read_field(d.get(key, absent), kind, where, key, ConfigError) for key, kind, absent in _DEVICE_FIELDS},
    )


def load_device_config(path):
    """Returns (edge, cloud, network) profiles from one JSON config file."""
    try:
        with open(path, "r") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("parse error in %s: %s" % (path, e))
    if not isinstance(doc, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    for key in ("edge", "cloud", "network"):
        if key not in doc:
            raise ConfigError("config %s: missing section %r" % (path, key))
        if not isinstance(doc[key], dict):
            raise ConfigError("config %s: section %r must be an object" % (path, key))
    net = doc["network"]
    network = NetworkProfile(
        uplink_bits_per_s=read_field(net.get("uplink_bps", MISSING), "number", "network", "uplink_bps", ConfigError),
        fixed_rtt_s=read_field(net.get("fixed_rtt_s", 0.0), "number", "network", "fixed_rtt_s", ConfigError),
    )
    return (
        _device_from_dict(doc["edge"], "edge"),
        _device_from_dict(doc["cloud"], "cloud"),
        network,
    )
