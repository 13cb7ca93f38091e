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

One fake-quantized pass serves evaluation and sessions alike:
`run_fake_quantized` runs it over the whole graph, and
`run_fake_quantized_detailed`, a session's edge half, over the split prefix
only, keeping the integer codes of just the tensors that cross the boundary.

Edge weights are quantized once per graph: `quantized_weights` keeps each
(node, bits) tensor it makes for as long as the graph lives, so a session
pays only for its input's activations. Graphs are immutable by convention; a
node whose `weights` is reassigned is quantized afresh, but a weight tensor
changed in place is not seen.
"""

from __future__ import annotations

import csv
import os
import weakref
from dataclasses import dataclass

import numpy as np

from . import tensorio
from .cost import ConfigError
from .graph import BN_EPS, GraphError, LayerGraph, WEIGHTED_OPS, boundary_cut, topological_order
from .quantize import QuantParams, choose_clip_range, quantize_rows, quantize_tensor

EVAL_BLOCK = 16  # inputs per forward pass; on the demo, 200 costs 9 MB more peak memory for 3% less time
_QUANTIZED_WEIGHTS = weakref.WeakKeyDictionary()  # graph -> {(node id, bits): (source weights, dequantized)}


@dataclass
class EvalSet:
    inputs: list
    labels: list

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels must align")


# -- op kernels ---------------------------------------------------------------
# Each kernel maps stacks to stacks; axis 0 indexes the inputs.


def _padded(x, pad):
    """x as float64 with `pad` zeros around each plane: one zero buffer with
    x written into its interior, much cheaper than `np.pad` on small tensors."""
    N, c, H, W = x.shape
    xp = np.zeros((N, c, H + 2 * pad, W + 2 * pad), dtype=np.float64)
    xp[:, :, pad : pad + H, pad : pad + W] = x
    return xp


def _conv2d(x, w, bias, stride, pad):
    """One matmul per kernel tap; per stacked item it is the C-contiguous
    (cout, cin) x (cin, ho*wo) product a single input makes. With one input
    channel the product is an einsum outer product, bit for bit."""
    N, cin, H, W = x.shape
    cout, _, kh, kw = w.shape
    xp = _padded(x, pad)
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((N, cout, ho * wo), dtype=np.float64)
    taps = np.ascontiguousarray(w.astype(np.float64).transpose(2, 3, 0, 1))  # (kh, kw, cout, cin)
    for dy in range(kh):
        for dx in range(kw):
            xs = xp[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride]
            if cin == 1:
                # a one-deep product is one multiply per output, and adding it
                # to out, which starts at +0, erases any sign-of-zero
                # difference; einsum makes it faster than matmul and without
                # the 128 KiB of iterator buffers a broadcast multiply takes
                out += np.einsum("ok,nkp->nop", taps[dy, dx], xs.reshape(N, 1, ho * wo))
            else:
                out += np.matmul(taps[dy, dx], np.ascontiguousarray(xs).reshape(N, cin, ho * wo))
    if bias is not None:
        out += bias.astype(np.float64)[:, None]
    return out.reshape(N, cout, ho, wo)


def _depthwise2d(x, w, bias, stride, pad):
    N, c, H, W = x.shape
    _, kh, kw = w.shape
    xp = _padded(x, pad)
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


def run_inference(g: LayerGraph, x):
    """Float reference pass; returns one tensor per graph output.

    x is one input or a stack of them; for a stack every output is a stack.
    """
    xs, single = _as_stack(g, x)
    vals = _forward(g, {g.input_id: xs}, topological_order(g))
    return [vals[i][0] if single else vals[i] for i in g.output_ids]


def calibrate_activations(g: LayerGraph, inputs, max_samples=None):
    """Per-layer float output samples for the quantizer (bounded count).

    Returns node id -> stack (samples, *layer output shape), in input order.
    """
    take = len(inputs) if max_samples is None else min(int(max_samples), len(inputs))
    if take < 1:
        raise ValueError("need at least one calibration input")
    samples = {i: np.empty((take, *g.nodes[i].out_shape), dtype=np.float32) for i in g.compute_ids()}
    for k, xs in _blocks(g, inputs[:take]):
        vals = _forward(g, {g.input_id: xs}, topological_order(g))
        for i, stack in samples.items():
            stack[k : k + len(xs)] = vals[i]
    return samples


def quantized_weights(g: LayerGraph, edge_ids, assignment):
    """Dequantized weight tensors for the edge prefix, keyed by node id.

    Each (node, bits) is quantized on first use and then read from a per-graph
    cache; the clip search is deterministic, so a cached tensor equals a fresh
    one. Cached tensors are read-only, and an entry counts only while the node
    still holds the weights array it was made from.
    """
    cache = _QUANTIZED_WEIGHTS.setdefault(g, {})
    out = {}
    for nid in edge_ids:
        node = g.nodes[nid]
        if node.weight_elements() == 0 or node.weights is None:
            continue
        bits = assignment.weight_bits[nid]
        if bits >= 16:
            continue
        entry = cache.get((nid, bits))
        if entry is None or entry[0] is not node.weights:
            p = choose_clip_range(node.weights, bits, symmetric=True)
            _, deq = quantize_tensor(node.weights, p)
            deq.flags.writeable = False
            entry = cache[(nid, bits)] = (node.weights, deq)
        out[nid] = entry[1]
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


def _fake_quantized(g: LayerGraph, xs, ids, edge, assignment, qw, codes=None):
    """Run the nodes `ids` over the input stack xs with the edge layers'
    weights replaced by qw and their outputs fake-quantized; returns the node
    values. codes, when given, is keyed by the wanted node ids: each wanted
    layer quantized below 16 bits gets its (codes, scales, zero points), one
    row per stacked input."""
    edge_set = set(edge)

    def fake_quantize(node, y):
        if node.id not in edge_set:
            return y
        bits = assignment.act_bits[node.id]
        if bits >= 16:
            return y
        q, deq, scale, zero = quantize_rows(y.reshape(len(y), -1), bits, symmetric=False)
        if codes is not None and node.id in codes:
            codes[node.id] = (q.reshape(y.shape), scale, zero)
        return deq.reshape(y.shape)

    return _forward(g, {g.input_id: xs}, ids, qw, fake_quantize)


def run_fake_quantized_detailed(g: LayerGraph, x, n: int, assignment):
    """The edge half of a split session: one input through the n-prefix only,
    fake-quantized as run_fake_quantized runs it.

    Returns {crossing id: (codes, QuantParams)} for every tensor that crosses
    split n and is quantized below 16 bits; the graph input and 16-bit layers
    are left out.
    """
    edge = _edge_layers(g, n, assignment)
    codes = dict.fromkeys(c for c in boundary_cut(g, n).crossing_tensors if c != g.input_id)
    qw = quantized_weights(g, edge, assignment)
    _fake_quantized(g, _check_input(g, x)[None], [g.input_id] + edge, edge, assignment, qw, codes)
    out = {}
    for nid, c in codes.items():
        if c is not None:
            q, scale, zero = c
            out[nid] = (q[0], QuantParams(assignment.act_bits[nid], float(scale[0]), float(zero[0]), False))
    return out


def run_fake_quantized(g: LayerGraph, x, n: int, assignment):
    """Fake-quantized prefix + float suffix: the edge layers run on quantized
    weights with their outputs fake-quantized, and the layers past the split
    run in float on the reconstructed tensors. With n = 0 the outputs are
    run_inference's.

    x is one input or a stack of them; for a stack every output is a stack.
    """
    edge = _edge_layers(g, n, assignment)
    xs, single = _as_stack(g, x)
    vals = _fake_quantized(g, xs, topological_order(g), edge, assignment, quantized_weights(g, edge, assignment))
    return [vals[i][0] if single else vals[i] for i in g.output_ids]


# -- evaluation ----------------------------------------------------------------


def evaluate_accuracy(g: LayerGraph, eval_set: EvalSet, n: int, assignment) -> float:
    """Top-1 accuracy of the fake-quantized model over the eval set.

    Inputs run EVAL_BLOCK at a time through run_fake_quantized; predictions
    are bit-identical to running them one at a time.
    """
    if not eval_set.inputs:
        raise ValueError("empty eval set")
    if len(g.output_ids) != 1:
        raise GraphError("accuracy needs a single-output graph")
    hits = 0
    for k, xs in _blocks(g, eval_set.inputs):
        logits = run_fake_quantized(g, xs, n, assignment)[0]
        preds = np.argmax(logits.reshape(len(xs), -1), axis=1)
        hits += sum(1 for p, t in zip(preds, eval_set.labels[k : k + len(xs)]) if int(p) == int(t))
    return hits / len(eval_set.labels)


def float_accuracy(g: LayerGraph, eval_set: EvalSet) -> float:
    return evaluate_accuracy(g, eval_set, 0, None)


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
    try:
        with open(labels_path, "r", newline="") as f:
            rows = [(int(row["index"]), int(row["label"])) for row in csv.DictReader(f)]
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (labels_path, e))
    except (KeyError, TypeError, ValueError, csv.Error) as e:
        raise ConfigError("malformed row in %s: %s" % (labels_path, e))
    rows.sort()
    for j, (k, lab) in enumerate(rows):
        if j and rows[j - 1][0] == k:
            raise ConfigError("%s lists input %d twice" % (labels_path, k))
        if lab < 0:
            raise ConfigError("%s: input %d has negative label %d" % (labels_path, k, lab))
    inputs, labels = [], []
    for k, lab in rows:
        inputs.append(tensorio.read_tensor(os.path.join(dirpath, "input_%05d.astn" % k)))
        labels.append(lab)
    return EvalSet(inputs=inputs, labels=labels)
