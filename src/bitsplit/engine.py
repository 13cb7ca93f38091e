"""Reference inference engine: float and fake-quantized execution.

Arithmetic is done in float64 internally and every node output is cast to
float32 before the next layer (or the wire) sees it. That makes a split run
reproduce the monolithic run bit for bit from the same float32 boundary
tensors.

The engine is layer-major: a stack of inputs, shape (N, *input shape), runs
through each layer in turn. Every stacked item goes through exactly the
floating-point operations of a stack of one, so a batch reproduces
one-at-a-time runs bit for bit. Evaluation and calibration run the eval set
EVAL_BLOCK inputs at a time; sessions run one input.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .graph import BN_EPS, GraphError, LayerGraph, WEIGHTED_OPS, topological_order
from .quantize import QuantParams, choose_clip_range, quantize_rows, quantize_tensor

EVAL_BLOCK = 16  # inputs per forward pass; on the demo, 200 costs 9 MB more peak memory for 3% less time


@dataclass
class EvalSet:
    inputs: list
    labels: list

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must align")


@dataclass
class FakeQuantRecord:
    """Quantized form of one edge layer output, for one input."""

    q: np.ndarray
    params: QuantParams
    deq: np.ndarray


# -- op kernels ---------------------------------------------------------------
# Each kernel maps stacks to stacks; axis 0 indexes the inputs.


def _conv2d(x, w, bias, stride, pad):
    """One matmul per kernel tap; per stacked item it is the C-contiguous
    (cout, cin) x (cin, ho*wo) product a single input makes."""
    N, cin, H, W = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((N, cout, ho * wo), dtype=np.float64)
    taps = np.ascontiguousarray(w.astype(np.float64).transpose(2, 3, 0, 1))  # (kh, kw, cout, cin)
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
            out += np.matmul(taps[dy, dx], np.ascontiguousarray(xs).reshape(N, cin, ho * wo))
    if bias is not None:
        out += bias.astype(np.float64)[:, None]
    return out.reshape(N, cout, ho, wo)


def _depthwise2d(x, w, bias, stride, pad):
    N, c, H, W = x.shape
    _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((N, c, ho, wo), dtype=np.float64)
    wf = w.astype(np.float64)
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
            out += wf[:, dy, dx][:, None, None] * xs
    if bias is not None:
        out += bias.astype(np.float64)[:, None, None]
    return out


def _apply_node(node, in_tensors, weights):
    op = node.op_kind
    x = in_tensors[0]
    if op in ("conv", "pointwise_conv"):
        y = _conv2d(x, weights, node.bias, node.stride(), node.pad())
    elif op == "depthwise_conv":
        y = _depthwise2d(x, weights, node.bias, node.stride(), node.pad())
    elif op == "fc":
        # one matrix-vector product per stacked item
        y = np.matmul(weights.astype(np.float64), x.astype(np.float64).reshape(len(x), -1, 1))[..., 0]
        if node.bias is not None:
            y = y + node.bias.astype(np.float64)
    elif op == "relu":
        y = np.maximum(x.astype(np.float64), 0.0)
    elif op == "add":
        y = np.zeros(x.shape, dtype=np.float64)
        for t in in_tensors:
            y += t.astype(np.float64)
    elif op == "concat":
        axis = 1 + int(node.attrs.get("axis", 0))  # past the stack axis
        y = np.concatenate([t.astype(np.float64) for t in in_tensors], axis=axis)
    elif op == "global_pool":
        y = x.astype(np.float64).mean(axis=(2, 3))
    elif op == "batchnorm":
        gamma, beta, mean, var = (weights[k].astype(np.float64) for k in range(4))
        scale = gamma / np.sqrt(var + BN_EPS)
        x = x.astype(np.float64)
        bshape = (-1,) + (1,) * (x.ndim - 2)
        y = x * scale.reshape(bshape) + (beta - mean * scale).reshape(bshape)
    elif op == "output":
        y = x.astype(np.float64)
    else:
        raise GraphError("node %d: cannot execute op %r" % (node.id, op))
    if node.fused_relu:
        y = np.maximum(y, 0.0)
    return y.astype(np.float32)


def _check_input(g, x, stacked=False):
    x = np.asarray(x, dtype=np.float32)
    want = tuple(g.nodes[g.input_id].out_shape)
    got = tuple(x.shape[1:] if stacked else x.shape)
    if got != want:
        raise GraphError("input shape %r does not match graph input %r" % (got, want))
    return x


def _as_stack(g, x):
    """(stack, single): x is one input, or a stack (N, *input shape)."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim == len(g.nodes[g.input_id].out_shape) + 1:
        return _check_input(g, x, stacked=True), False
    return _check_input(g, x)[None], True


def _blocks(g, inputs):
    """(start, stack) for each run of EVAL_BLOCK consecutive inputs."""
    for k in range(0, len(inputs), EVAL_BLOCK):
        yield k, np.stack([_check_input(g, x) for x in inputs[k : k + EVAL_BLOCK]])


def _need_weights(node):
    if node.op_kind in WEIGHTED_OPS + ("batchnorm",) and node.weights is None:
        raise GraphError("node %d: weights not loaded" % node.id)


def _forward(g: LayerGraph, vals: dict, ids, weights=None, hook=None):
    """Run the nodes `ids` in turn over stacks; returns `vals`.

    vals maps node id -> stack and gains one entry per node run. weights maps
    node id -> a tensor to use in place of the node's own weights.
    hook(node, stack) may replace each node output.
    """
    weights = weights or {}
    for nid in ids:
        if nid == g.input_id:
            continue
        node = g.nodes[nid]
        _need_weights(node)
        y = _apply_node(node, [vals[i] for i in node.inputs], weights.get(nid, node.weights))
        if hook is not None:
            y = hook(node, y)
        vals[nid] = y
    return vals


def run_inference(g: LayerGraph, x, order=None):
    """Float reference pass; returns one tensor per graph output.

    x is one input or a stack of them; for a stack every output is a stack.
    """
    order = order or topological_order(g)
    xs, single = _as_stack(g, x)
    vals = _forward(g, {g.input_id: xs}, order)
    return [vals[i][0] if single else vals[i] for i in g.output_ids]


def calibrate_activations(g: LayerGraph, inputs, max_samples=None, order=None):
    """Per-layer float output samples for the quantizer (bounded count).

    Returns node id -> stack (samples, *layer output shape), in input order.
    """
    order = order or topological_order(g)
    take = len(inputs) if max_samples is None else min(int(max_samples), len(inputs))
    if take < 1:
        raise ValueError("need at least one calibration input")
    samples = {i: np.empty((take, *g.nodes[i].out_shape), dtype=np.float32) for i in g.compute_ids()}
    for k, xs in _blocks(g, inputs[:take]):
        vals = _forward(g, {g.input_id: xs}, order)
        for i, stack in samples.items():
            stack[k : k + len(xs)] = vals[i]
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


def _edge_layers(g: LayerGraph, n: int, assignment):
    """The n edge compute ids, checked to carry a bit assignment."""
    compute = g.compute_ids()
    if not 0 <= n <= len(compute):
        raise GraphError("split index %d out of range" % n)
    edge = compute[:n]
    for nid in edge:
        if nid not in assignment.weight_bits or nid not in assignment.act_bits:
            raise GraphError("missing bit assignment for edge layer %d" % nid)
    return edge


def _fake_quantized(g: LayerGraph, xs, ids, edge, assignment, qw, records=None):
    """Run the nodes `ids` over the input stack xs with the edge layers'
    weights replaced by qw and their outputs fake-quantized; returns the node
    values. When given, records gains one FakeQuantRecord per input for each
    edge layer."""
    edge_set = set(edge)

    def fake_quantize(node, y):
        if node.id not in edge_set:
            return y
        bits = assignment.act_bits[node.id]
        if bits >= 16:
            if records is not None:
                p = QuantParams(bits, 1.0, 0.0, False)
                records[node.id] = [FakeQuantRecord(q=None, params=p, deq=row) for row in y]
            return y
        q, deq, scale, zero = quantize_rows(y.reshape(len(y), -1), bits, symmetric=False)
        q, deq = q.reshape(y.shape), deq.reshape(y.shape)
        if records is not None:
            records[node.id] = [
                FakeQuantRecord(q=q[k], params=QuantParams(bits, float(s), float(z), False), deq=deq[k])
                for k, (s, z) in enumerate(zip(scale, zero))
            ]
        return deq

    return _forward(g, {g.input_id: xs}, ids, qw, fake_quantize)


def run_fake_quantized_detailed(g: LayerGraph, x, n: int, assignment, order=None, prefix_only=False):
    """Fake-quantized prefix + float suffix.

    Returns (outputs, records) where records maps each edge compute node id to
    its FakeQuantRecord (integer codes, params, reconstruction). Layers past
    the split run in float on the reconstructed tensors. With prefix_only the
    suffix is skipped and outputs come back empty (the edge half of a split
    session never touches cloud layers).

    x is one input or a stack of them. For a stack every output is a stack
    and each record is a list, one FakeQuantRecord per input.
    """
    order = order or topological_order(g)
    edge = _edge_layers(g, n, assignment)
    xs, single = _as_stack(g, x)
    records = {}
    run_ids = ([g.input_id] + edge) if prefix_only else order
    qw = quantized_weights(g, edge, assignment)
    vals = _fake_quantized(g, xs, run_ids, edge, assignment, qw, records)
    if single:
        records = {nid: rows[0] for nid, rows in records.items()}
    if prefix_only:
        return [], records
    return [vals[i][0] if single else vals[i] for i in g.output_ids], records


def run_fake_quantized(g: LayerGraph, x, n: int, assignment, order=None):
    outs, _ = run_fake_quantized_detailed(g, x, n, assignment, order=order)
    return outs


# -- evaluation ----------------------------------------------------------------


def evaluate_accuracy(g: LayerGraph, eval_set: EvalSet, n: int, assignment, order=None) -> float:
    """Top-1 accuracy of the fake-quantized model over the eval set.

    Inputs run EVAL_BLOCK at a time through the kernel run_fake_quantized
    uses; predictions are bit-identical to running them one at a time.
    """
    if not eval_set.inputs:
        raise ValueError("empty eval set")
    if len(g.output_ids) != 1:
        raise GraphError("accuracy needs a single-output graph")
    order = order or topological_order(g)
    edge = _edge_layers(g, n, assignment)
    qw = quantized_weights(g, edge, assignment)
    hits = 0
    for k, xs in _blocks(g, eval_set.inputs):
        logits = _fake_quantized(g, xs, order, edge, assignment, qw)[g.output_ids[0]]
        preds = np.argmax(logits.reshape(len(xs), -1), axis=1)
        hits += sum(1 for p, t in zip(preds, eval_set.labels[k : k + len(xs)]) if int(p) == int(t))
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
