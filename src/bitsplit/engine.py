"""Reference inference engine: float and fake-quantized execution.

Arithmetic is done in float64 internally and every node output is cast to
float32 before the next layer (or the wire) sees it. That makes a split run
reproduce the monolithic run bit for bit from the same float32 boundary
tensors.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensorio
from .graph import BN_EPS, GraphError, LayerGraph, WEIGHTED_OPS, topological_order
from .quantize import QuantParams, choose_clip_range, dequantize, quantize_tensor
from .util import prod


@dataclass
class EvalSet:
    inputs: list
    labels: list

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must align")


@dataclass
class FakeQuantRecord:
    """Quantized form of one edge layer output."""

    q: np.ndarray
    params: QuantParams
    deq: np.ndarray


# -- op kernels ---------------------------------------------------------------


def _conv2d(x, w, bias, stride, pad):
    cin, H, W = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad)))
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=np.float64)
    wf = w.astype(np.float64)
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
            out += np.tensordot(wf[:, :, dy, dx], xs, axes=([1], [0]))
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return out


def _depthwise2d(x, w, bias, stride, pad):
    c, H, W = x.shape
    _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad)))
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    wf = w.astype(np.float64)
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
            out += wf[:, dy, dx][:, None, None] * xs
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return out


def _apply_node(node, in_tensors):
    op = node.op_kind
    if op in ("conv", "pointwise_conv"):
        y = _conv2d(in_tensors[0], node.weights, node.bias, node.stride(), node.pad())
    elif op == "depthwise_conv":
        y = _depthwise2d(in_tensors[0], node.weights, node.bias, node.stride(), node.pad())
    elif op == "fc":
        y = node.weights.astype(np.float64) @ in_tensors[0].astype(np.float64).ravel()
        if node.bias is not None:
            y = y + node.bias.astype(np.float64)
    elif op == "relu":
        y = np.maximum(in_tensors[0].astype(np.float64), 0.0)
    elif op == "add":
        y = np.zeros(node.out_shape, dtype=np.float64)
        for t in in_tensors:
            y += t.astype(np.float64)
    elif op == "concat":
        y = np.concatenate([t.astype(np.float64) for t in in_tensors], axis=int(node.attrs.get("axis", 0)))
    elif op == "global_pool":
        y = in_tensors[0].astype(np.float64).mean(axis=(1, 2))
    elif op == "batchnorm":
        gamma, beta, mean, var = (node.weights[k].astype(np.float64) for k in range(4))
        scale = gamma / np.sqrt(var + BN_EPS)
        x = in_tensors[0].astype(np.float64)
        bshape = (-1,) + (1,) * (x.ndim - 1)
        y = x * scale.reshape(bshape) + (beta - mean * scale).reshape(bshape)
    elif op == "output":
        y = in_tensors[0].astype(np.float64)
    else:
        raise GraphError("node %d: cannot execute op %r" % (node.id, op))
    if node.fused_relu:
        y = np.maximum(y, 0.0)
    return y.astype(np.float32)


def _check_input(g, x):
    x = np.asarray(x, dtype=np.float32)
    want = tuple(g.nodes[g.input_id].out_shape)
    if tuple(x.shape) != want:
        raise GraphError("input shape %r does not match graph input %r" % (tuple(x.shape), want))
    return x


def _need_weights(node):
    if node.op_kind in WEIGHTED_OPS + ("batchnorm",) and node.weights is None:
        raise GraphError("node %d: weights not loaded" % node.id)


def _forward(g: LayerGraph, x, order, hook=None):
    """Run all nodes; hook(node, tensor) may replace each node output."""
    x = _check_input(g, x)
    vals = {g.input_id: x}
    for nid in order:
        if nid == g.input_id:
            continue
        node = g.nodes[nid]
        _need_weights(node)
        y = _apply_node(node, [vals[i] for i in node.inputs])
        if hook is not None:
            y = hook(node, y)
        vals[nid] = y
    return vals


def run_inference(g: LayerGraph, x, order=None):
    """Float reference pass; returns one tensor per graph output."""
    order = order or topological_order(g)
    vals = _forward(g, x, order)
    return [vals[i] for i in g.output_ids]


def calibrate_activations(g: LayerGraph, inputs, max_samples=None, order=None):
    """Per-layer float output samples for the quantizer (bounded count)."""
    order = order or topological_order(g)
    take = len(inputs) if max_samples is None else min(int(max_samples), len(inputs))
    if take < 1:
        raise ValueError("need at least one calibration input")
    samples = {i: [] for i in g.compute_ids()}
    for x in inputs[:take]:
        vals = _forward(g, x, order)
        for i in samples:
            samples[i].append(vals[i])
    return samples


def quantized_weights(g: LayerGraph, edge_ids, assignment):
    """Dequantized weight tensors for the edge prefix, keyed by node id."""
    out = {}
    for nid in edge_ids:
        node = g.nodes[nid]
        if node.weight_elements() == 0 or node.weights is None:
            continue
        bits = assignment.weight_bits[nid]
        if bits >= 16:
            continue
        p = choose_clip_range(node.weights, bits, symmetric=True)
        _, deq = quantize_tensor(node.weights, p)
        out[nid] = deq
    return out


def run_fake_quantized_detailed(g: LayerGraph, x, n: int, assignment, order=None, prefix_only=False, _qw=None):
    """Fake-quantized prefix + float suffix.

    Returns (outputs, records) where records maps each edge compute node id to
    its FakeQuantRecord (integer codes, params, reconstruction). Layers past
    the split run in float on the reconstructed tensors. With prefix_only the
    suffix is skipped and outputs come back empty (the edge half of a split
    session never touches cloud layers).
    """
    order = order or topological_order(g)
    compute = g.compute_ids()
    if not 0 <= n <= len(compute):
        raise GraphError("split index %d out of range" % n)
    edge = compute[:n]
    for nid in edge:
        if nid not in assignment.weight_bits or nid not in assignment.act_bits:
            raise GraphError("missing bit assignment for edge layer %d" % nid)
    qw = _qw if _qw is not None else quantized_weights(g, edge, assignment)
    records = {}
    edge_set = set(edge)

    x = _check_input(g, x)
    vals = {g.input_id: x}
    run_ids = ([g.input_id] + edge) if prefix_only else order
    for nid in run_ids:
        if nid == g.input_id:
            continue
        node = g.nodes[nid]
        _need_weights(node)
        if nid in edge_set and nid in qw:
            node = _with_weights(node, qw[nid])
        y = _apply_node(node, [vals[i] for i in node.inputs])
        if nid in edge_set:
            bits = assignment.act_bits[nid]
            if bits >= 16:
                p = QuantParams(bits, 1.0, 0.0, False)
                records[nid] = FakeQuantRecord(q=None, params=p, deq=y)
            else:
                p = choose_clip_range(y, bits, symmetric=False)
                q, deq = quantize_tensor(y, p)
                records[nid] = FakeQuantRecord(q=q, params=p, deq=deq)
                y = deq
        vals[nid] = y
    if prefix_only:
        return [], records
    return [vals[i] for i in g.output_ids], records


def _with_weights(node, w):
    import copy

    clone = copy.copy(node)
    clone.weights = w
    return clone


def run_fake_quantized(g: LayerGraph, x, n: int, assignment, order=None):
    outs, _ = run_fake_quantized_detailed(g, x, n, assignment, order=order)
    return outs


# -- evaluation ----------------------------------------------------------------


def _top1(logits) -> int:
    return int(np.argmax(logits))


def evaluate_accuracy(g: LayerGraph, eval_set: EvalSet, n: int, assignment, order=None) -> float:
    """Top-1 accuracy of the fake-quantized model over the eval set."""
    if not eval_set.inputs:
        raise ValueError("empty eval set")
    if len(g.output_ids) != 1:
        raise GraphError("accuracy needs a single-output graph")
    order = order or topological_order(g)
    compute = g.compute_ids()
    if n == 0:
        preds = [_top1(run_inference(g, x, order)[0]) for x in eval_set.inputs]
    else:
        qw = quantized_weights(g, compute[:n], assignment)
        preds = [
            _top1(run_fake_quantized_detailed(g, x, n, assignment, order=order, _qw=qw)[0][0])
            for x in eval_set.inputs
        ]
    hits = sum(1 for p, t in zip(preds, eval_set.labels) if p == int(t))
    return hits / len(eval_set.labels)


def float_accuracy(g: LayerGraph, eval_set: EvalSet, order=None) -> float:
    return evaluate_accuracy(g, eval_set, 0, None, order=order)


# -- eval set storage -----------------------------------------------------------


def save_eval_dir(eval_set: EvalSet, dirpath):
    os.makedirs(dirpath, exist_ok=True)
    for k, x in enumerate(eval_set.inputs):
        tensorio.write_tensor(os.path.join(dirpath, "input_%05d.astn" % k), x)
    with open(os.path.join(dirpath, "labels.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["index", "label"])
        for k, lab in enumerate(eval_set.labels):
            w.writerow([k, int(lab)])


def load_eval_dir(dirpath) -> EvalSet:
    labels_path = os.path.join(dirpath, "labels.csv")
    rows = []
    with open(labels_path, "r", newline="") as f:
        for row in csv.DictReader(f):
            rows.append((int(row["index"]), int(row["label"])))
    rows.sort()
    inputs, labels = [], []
    for k, lab in rows:
        inputs.append(tensorio.read_tensor(os.path.join(dirpath, "input_%05d.astn" % k)))
        labels.append(lab)
    return EvalSet(inputs=inputs, labels=labels)
