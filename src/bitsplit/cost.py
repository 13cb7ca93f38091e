"""Analytic latency and memory models.

Per-layer latency is roofline style: max(compute, data movement), summed over
layers with no pipelining. Compute counts 2 ops per multiply-accumulate and is
bit-independent at or below the device's native MAC width; wider operands slow
compute proportionally. Data movement scales linearly with operand bit-widths.
Transmission is pure bandwidth (optional fixed RTT), charged on every tensor
that crosses the split boundary; graph outputs count as crossing so an
edge-only split still ships its result.

Plans are priced by `split_latencies`, any number at any splits at once,
from one `LatencyTable` per (graph, profile): the edge latency of every
(layer, weight width, activation width) priced once on first use, the
cloud's 16-bit prefix and suffix sums, and the elements each split ships.
`split_latency` prices one plan given as node id -> width mappings through
the same code.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

from .graph import (
    BoundaryCut,
    GraphError,
    LayerGraph,
    WEIGHTED_OPS,
)
from .util import ceil_div, prod


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


PACKABLE_BITS = (1, 2, 4, 8)  # the widths the wire layer can pack


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

    `edge[k, w, a]` is the latency of compute layer k at the w-th and a-th
    width of `widths` (the device's widths and 16), priced through
    `layer_latency` on first use. `crossing[n, j]` is the element count of
    the tensor at topological position j (the input at 0) when it crosses
    split n, else 0. The cloud sums are the 16-bit latencies summed left to
    right: `prefix[n]` over the first n layers, `suffix[n]` from layer n to
    the end, each from 0.0, so they equal a loop over the layers.
    """

    def __init__(self, g: LayerGraph, d: DeviceProfile):
        live = g.liveness
        self.device = d
        self.widths = np.array(sorted(set(d.supported_bits) | {16}), dtype=np.int64)
        self.edge = np.full((len(live.compute_ids), len(self.widths), len(self.widths)), np.nan)
        pos = {nid: j for j, nid in enumerate((g.input_id,) + live.compute_ids)}
        self.crossing = np.zeros((len(live.cuts), len(pos)), dtype=np.int64)
        for n, cut in enumerate(live.cuts):
            for c in cut.crossing_tensors:
                self.crossing[n, pos[c]] = g.nodes[c].act_elements()
        self._cloud = None

    def edge_latencies(self, g: LayerGraph, wbits, abits, live=None) -> np.ndarray:
        """Latency of each layer at the widths in the k x n arrays `wbits`
        and `abits`; a width the device cannot run raises ConfigError. Where
        the boolean `live` is False the latency is 0.0 and the widths are
        neither checked nor priced."""
        wcol, wok = self._columns(wbits)
        acol, aok = self._columns(abits)
        bad = ~(wok & aok) if live is None else ~(wok & aok) & live
        if bad.any():
            r, k = np.argwhere(bad)[0]
            _check_bits(self.device, int(wbits[r, k]))
            _check_bits(self.device, int(abits[r, k]))
        layers = np.arange(wbits.shape[1])
        lat = self.edge[layers, wcol, acol]
        missing = np.isnan(lat) if live is None else np.isnan(lat) & live
        if missing.any():
            compute = g.liveness.compute_ids
            need = np.zeros(self.edge.shape, dtype=bool)
            need[np.nonzero(missing)[1], wcol[missing], acol[missing]] = True
            for k, w, a in np.argwhere(need).tolist():
                node = g.nodes[compute[k]]
                self.edge[k, w, a] = layer_latency(node, g, self.device, int(self.widths[w]), int(self.widths[a]))
            lat = self.edge[layers, wcol, acol]
        if live is not None:
            lat[~live] = 0.0
        return lat

    def cloud_sums(self, g: LayerGraph):
        """(prefix, suffix) sums of the 16-bit latencies, per split 0..N."""
        if self._cloud is None:
            N = len(g.liveness.compute_ids)
            full = np.full((1, N), 16, dtype=np.int64)
            c = self.edge_latencies(g, full, full)[0]
            prefix = np.add.accumulate(np.concatenate([[0.0], c]))
            tails = np.where(np.arange(N + 1)[:, None] <= np.arange(N)[None, :], c, 0.0)
            suffix = np.add.accumulate(np.hstack([np.zeros((N + 1, 1)), tails]), axis=1)[:, -1]
            self._cloud = (prefix, suffix)
        return self._cloud

    def _columns(self, bits):
        col = np.minimum(np.searchsorted(self.widths, bits), len(self.widths) - 1)
        return col, self.widths[col] == bits


_LATENCY_TABLES = weakref.WeakKeyDictionary()  # graph -> {profile: LatencyTable}


def latency_table(g: LayerGraph, d: DeviceProfile) -> LatencyTable:
    per_graph = _LATENCY_TABLES.setdefault(g, {})
    if d not in per_graph:
        per_graph[d] = LatencyTable(g, d)
    return per_graph[d]


def _split(g: LayerGraph, n: int) -> int:
    if not 0 <= n <= len(g.liveness.compute_ids):
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
) -> list:
    """Breakdowns of k plans, one per row of the width arrays `wbits` and
    `abits` (compute layers in order). Plan r splits at `n[r]`, or at `n`
    for all of them, and only its first n[r] widths are read.

    Edge latencies are summed left to right from 0.0 in compute order, the
    cloud's from layer n to the end (never a total minus a prefix), and the
    crossing tensors' bits stay integers until the one division, so each
    breakdown equals the scalar per-layer loop to the last bit. Crossing
    tensors ship at the widths `crossing_bits_map` gives: the input at
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
    et = latency_table(g, edge)
    prefix, suffix = latency_table(g, cloud).cloud_sums(g)
    lat = et.edge_latencies(g, wbits, abits, np.arange(width) < n[:, None])
    acc = np.zeros((k, width + 1))
    np.add.accumulate(lat, axis=1, out=acc[:, 1:])
    edge_s = acc[np.arange(k), n]
    crossing = et.crossing[n]  # a split's crossing tensors all sit in its prefix
    tx_bits = (abits * crossing[:, 1 : width + 1]).sum(axis=1) + crossing[:, 0] * g.input_bits
    transmit_s = tx_bits / net.uplink_bits_per_s + net.fixed_rtt_s
    cloud_s = suffix[n]
    return list(
        map(
            LatencyBreakdown,
            edge_s.tolist(),
            transmit_s.tolist(),
            cloud_s.tolist(),
            (edge_s + transmit_s + cloud_s).tolist(),
            (edge_s + transmit_s - prefix[n]).tolist(),
        )
    )


def split_latency(
    g: LayerGraph,
    n: int,
    assignment,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    net: NetworkProfile,
) -> LatencyBreakdown:
    """`split_latencies` of one plan given as node id -> width mappings."""
    edge_ids = g.liveness.compute_ids[: _split(g, n)]
    wbits = [[assignment.weight_bits[i] for i in edge_ids]]
    abits = [[assignment.act_bits[i] for i in edge_ids]]
    return split_latencies(g, n, wbits, abits, edge, cloud, net)[0]


# -- memory ----------------------------------------------------------------------


def activation_memory_bits(g: LayerGraph, n: int, act_bits: dict) -> int:
    """Peak bit-weighted working set over the first n compute steps."""
    prefix = g.compute_ids()[:n]
    bits = np.array([g.input_bits] + [int(act_bits[i]) for i in prefix], dtype=np.int64)
    return int((g.liveness.incidence[:n, : n + 1] @ bits).max(initial=0))


# -- profiles from JSON ------------------------------------------------------------


def _device_from_dict(d: dict, fallback_name: str) -> DeviceProfile:
    try:
        return DeviceProfile(
            name=str(d.get("name", fallback_name)),
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
    if not isinstance(doc, dict):
        raise ConfigError("config %s must hold a JSON object" % path)
    for key in ("edge", "cloud", "network"):
        if key not in doc:
            raise ConfigError("config %s: missing section %r" % (path, key))
        if not isinstance(doc[key], dict):
            raise ConfigError("config %s: section %r must be an object" % (path, key))
    net = doc["network"]
    try:
        network = NetworkProfile(
            uplink_bits_per_s=float(net["uplink_bps"]),
            fixed_rtt_s=float(net.get("fixed_rtt_s", 0.0)),
        )
    except KeyError as e:
        raise ConfigError("network section: missing field %s" % e)
    except (TypeError, ValueError) as e:
        raise ConfigError("network section: %s" % e)
    return (
        _device_from_dict(doc["edge"], "edge"),
        _device_from_dict(doc["cloud"], "cloud"),
        network,
    )
