"""Layer graph: loading, validation, inference-time rewrites, order and liveness.

A graph is a DAG of layers. Exactly one node has op "input"; it produces the
network input and sits at position 0 of every topological order. Split indices
count the remaining (compute) nodes: split n puts the first n compute nodes on
the edge device. Tensors produced by graph outputs (sink nodes) are treated as
consumed by the outside world, so an edge-only split still has a boundary
tensor to ship.

The graph owns its execution order (`topological_order(g)`,
`g.compute_ids()`) and caches its liveness as three arrays, built on first
use (`LayerGraph.liveness`); `compute_working_sets` and `boundary_cut`
derive their records from one row of them. It caches its weight elements
the same way, as a prefix over the compute layers (`weight_prefix`). A
graph is immutable by convention and every rewrite returns a new graph, so
the caches cannot go stale. Only three functions take an `order`, and they
ignore it (`enumerate_solutions`, `run_tcp_session`, `reference_outputs`).
"""

from __future__ import annotations

import copy
import functools
import heapq
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .tensorio import read_tensor
from .util import prod

OP_KINDS = (
    "conv",
    "depthwise_conv",
    "pointwise_conv",
    "fc",
    "relu",
    "add",
    "concat",
    "global_pool",
    "batchnorm",
    "input",
    "output",
)

WEIGHTED_OPS = ("conv", "depthwise_conv", "pointwise_conv", "fc")

BN_EPS = 1e-5
PACKABLE_BITS = (1, 2, 4, 8)  # the widths the wire layer can pack


class GraphError(ValueError):
    pass


@dataclass
class LayerNode:
    id: int
    op_kind: str
    attrs: dict = field(default_factory=dict)
    weight_shape: tuple = ()
    out_shape: tuple = ()
    inputs: list = field(default_factory=list)
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    fused_relu: bool = False

    def act_elements(self) -> int:
        return prod(self.out_shape)

    def weight_elements(self) -> int:
        return prod(self.weight_shape) if self.weight_shape else 0

    def stride(self) -> int:
        return int(self.attrs.get("stride", 1))

    def pad(self) -> int:
        return int(self.attrs.get("pad", 0))


@dataclass
class WorkingSet:
    step: int
    live_tensors: list  # (producer id, element count)
    total_elements: int


@dataclass(frozen=True)
class BoundaryCut:
    crossing_tensors: list  # producer ids, ascending
    cut_elements: int


@dataclass(frozen=True, eq=False)
class Liveness:
    """Liveness of one graph's order. `incidence[k - 1, j]` is the element
    count of the tensor at topological position j (the input at 0) when it is
    live at compute step k, else 0, so the bit-weighted working set of every
    step of the n-prefix is `incidence[:n, :n + 1] @ bits`, with `bits` the
    input's width followed by the prefix layers' widths in order.
    `crossing[n, j]` is that tensor's element count when it crosses split n,
    else 0, so the bits split n ships are `crossing[n] @ bits`. No tensor is
    empty, so an entry is nonzero exactly when its tensor is live or crosses."""

    incidence: np.ndarray  # int64, steps x positions
    crossing: np.ndarray  # int64, splits x positions
    peaks: tuple  # largest working set, in elements, of steps 1..n per split n (0 at n = 0)


def _conv_spatial(size: int, k: int, stride: int, pad: int) -> int:
    if stride < 1:
        raise ValueError("stride %d is below 1" % stride)
    if pad < 0:
        raise ValueError("pad %d is negative" % pad)
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ValueError("kernel larger than padded input")
    return out


def infer_out_shape(node: LayerNode, in_shapes: list) -> tuple:
    """Shape arithmetic for every op kind; raises GraphError naming the node."""
    op = node.op_kind

    def fail(msg):
        raise GraphError("node %d (%s): %s" % (node.id, op, msg))

    if op == "input":
        if node.inputs:
            fail("input node cannot have inputs")
        if not node.out_shape or any(d < 1 for d in node.out_shape):
            fail("input shape must be positive")
        return tuple(node.out_shape)

    if len(in_shapes) == 0:
        fail("missing inputs")

    if op in ("conv", "pointwise_conv"):
        (ish,) = _expect_arity(in_shapes, 1, fail)
        if len(ish) != 3:
            fail("expects a (C,H,W) input, got %r" % (ish,))
        if len(node.weight_shape) != 4:
            fail("weight shape must be (Cout,Cin,kh,kw)")
        cout, cin, kh, kw = node.weight_shape
        if op == "pointwise_conv" and (kh, kw) != (1, 1):
            fail("pointwise kernel must be 1x1")
        if cin != ish[0]:
            fail("weight Cin %d != input channels %d" % (cin, ish[0]))
        try:
            h = _conv_spatial(ish[1], kh, node.stride(), node.pad())
            w = _conv_spatial(ish[2], kw, node.stride(), node.pad())
        except ValueError as e:
            fail(str(e))
        return (cout, h, w)

    if op == "depthwise_conv":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        if len(ish) != 3:
            fail("expects a (C,H,W) input")
        if len(node.weight_shape) != 3 or node.weight_shape[0] != ish[0]:
            fail("weight shape must be (C,kh,kw) with C matching input")
        _, kh, kw = node.weight_shape
        try:
            h = _conv_spatial(ish[1], kh, node.stride(), node.pad())
            w = _conv_spatial(ish[2], kw, node.stride(), node.pad())
        except ValueError as e:
            fail(str(e))
        return (ish[0], h, w)

    if op == "fc":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        if len(node.weight_shape) != 2:
            fail("weight shape must be (out,in)")
        nout, nin = node.weight_shape
        if nin != prod(ish):
            fail("weight in-features %d != input volume %d" % (nin, prod(ish)))
        return (nout,)

    if op == "relu":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        return tuple(ish)

    if op == "add":
        if len(in_shapes) < 2:
            fail("needs at least two inputs")
        first = tuple(in_shapes[0])
        for s in in_shapes[1:]:
            if tuple(s) != first:
                fail("input shapes differ: %r vs %r" % (first, tuple(s)))
        return first

    if op == "concat":
        if len(in_shapes) < 2:
            fail("needs at least two inputs")
        axis = int(node.attrs.get("axis", 0))
        first = list(in_shapes[0])
        if not 0 <= axis < len(first):
            fail("bad concat axis %d" % axis)
        total = 0
        for s in in_shapes:
            if len(s) != len(first):
                fail("rank mismatch")
            for d in range(len(first)):
                if d != axis and s[d] != first[d]:
                    fail("non-axis dims differ")
            total += s[axis]
        first[axis] = total
        return tuple(first)

    if op == "global_pool":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        if len(ish) != 3:
            fail("expects a (C,H,W) input")
        return (ish[0],)

    if op == "batchnorm":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        if len(node.weight_shape) != 2 or node.weight_shape[0] != 4 or node.weight_shape[1] != ish[0]:
            fail("weight shape must be (4,C) with C matching input channels")
        return tuple(ish)

    if op == "output":
        (ish,) = _expect_arity(in_shapes, 1, fail)
        return tuple(ish)

    fail("unknown op kind")


def _expect_arity(in_shapes, n, fail):
    if len(in_shapes) != n:
        fail("expects %d input(s), got %d" % (n, len(in_shapes)))
    return in_shapes


class LayerGraph:
    """Immutable-by-convention DAG of LayerNodes; validated on construction."""

    def __init__(self, nodes, input_bits: int = 8):
        self.nodes: dict[int, LayerNode] = {n.id: n for n in sorted(nodes, key=lambda n: n.id)}
        if len(self.nodes) != len(nodes):
            raise GraphError("duplicate node ids")
        self.input_bits = int(input_bits)
        self.warnings: list[str] = []
        self._validate()

    # -- structure ---------------------------------------------------------

    def _validate(self):
        inputs = [n.id for n in self.nodes.values() if n.op_kind == "input"]
        if len(inputs) != 1:
            raise GraphError("graph must have exactly one input node, found %d" % len(inputs))
        self.input_id = inputs[0]

        for n in self.nodes.values():
            if n.op_kind not in OP_KINDS:
                raise GraphError("node %d: unknown op kind %r" % (n.id, n.op_kind))
            for v in n.attrs.values():
                if not isinstance(v, int):
                    raise GraphError("node %d: attrs must be integers" % n.id)
            for i in n.inputs:
                if i not in self.nodes:
                    raise GraphError("node %d: unknown input id %d" % (n.id, i))

        self.consumers: dict[int, list[int]] = {i: [] for i in self.nodes}
        for n in self.nodes.values():
            for i in n.inputs:
                self.consumers[i].append(n.id)
        for i in self.consumers:
            self.consumers[i].sort()

        order = self._kahn()
        if len(order) != len(self.nodes):
            stuck = sorted(set(self.nodes) - set(order))
            raise GraphError("cycle detected involving node %d" % stuck[0])
        self._order = order

        # reachability from the input node
        seen = set()
        stack = [self.input_id]
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self.consumers[u])
        missing = sorted(set(self.nodes) - seen)
        if missing:
            raise GraphError("node %d not reachable from input" % missing[0])

        # shape arithmetic, in topological order; with every weight dimension
        # and the input's at least 1, so is every computed one
        for nid in order:
            n = self.nodes[nid]
            if any(d < 1 for d in n.weight_shape):
                raise GraphError(
                    "node %d (%s): weight_shape %r has a dimension below 1" % (n.id, n.op_kind, tuple(n.weight_shape))
                )
            in_shapes = [self.nodes[i].out_shape for i in n.inputs]
            expect = infer_out_shape(n, in_shapes)
            if tuple(n.out_shape) != expect:
                raise GraphError(
                    "node %d (%s): declared out_shape %r != computed %r"
                    % (n.id, n.op_kind, tuple(n.out_shape), expect)
                )
            if n.weights is not None and tuple(n.weights.shape) != tuple(n.weight_shape):
                raise GraphError("node %d: weights blob shape mismatch" % n.id)

        self.output_ids = sorted(i for i in self.nodes if not self.consumers[i])

    def _kahn(self):
        indeg = {i: len(n.inputs) for i, n in self.nodes.items()}
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            u = heapq.heappop(ready)
            order.append(u)
            for c in self.consumers[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        return order

    # -- derived views -----------------------------------------------------

    def compute_ids(self) -> list:
        """Topological order without the input node."""
        return self._order[1:]

    @functools.cached_property
    def liveness(self) -> Liveness:
        """Liveness of the topological order, built on first use.

        A tensor is live at step k (after running compute node k) iff it was
        produced at a position <= k and its last use, its last consumer's
        position, is >= k (a graph output's is len(order), past every step).
        The running node's input and output are both live. A tensor crosses
        split n iff it was produced at a position <= n and its last use is
        > n.
        """
        order = self._order
        pos = {nid: k for k, nid in enumerate(order)}
        last = np.array([max((pos[c] for c in self.consumers[i]), default=len(order)) for i in order])
        elems = np.array([self.nodes[i].act_elements() for i in order], dtype=np.int64)
        k = np.arange(len(order))[:, None]  # split or step, by rows
        produced = np.arange(len(order)) <= k
        incidence = np.where((produced & (k <= last))[1:], elems, 0)
        crossing = np.where(produced & (k < last), elems, 0)
        peaks = np.maximum.accumulate(incidence.sum(axis=1)).tolist()
        return Liveness(incidence, crossing, tuple([0] + peaks))

    @functools.cached_property
    def weight_prefix(self) -> np.ndarray:
        """`weight_prefix[n]`: the weight elements of the first n compute
        layers (int64, read-only), built on first use."""
        prefix = np.cumsum([0] + [self.nodes[i].weight_elements() for i in self.compute_ids()], dtype=np.int64)
        prefix.flags.writeable = False
        return prefix

    def canonical_dump(self) -> str:
        """Deterministic structural dump (weights excluded)."""
        rows = []
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            rows.append(
                {
                    "id": n.id,
                    "op": n.op_kind,
                    "attrs": {k: n.attrs[k] for k in sorted(n.attrs)},
                    "weight_shape": list(n.weight_shape),
                    "out_shape": list(n.out_shape),
                    "inputs": list(n.inputs),
                    "fused_relu": n.fused_relu,
                }
            )
        doc = {"input_bits": self.input_bits, "nodes": rows}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- loading ----------------------------------------------------------------


def _ints(value, what):
    """A JSON list of integers as is, or GraphError naming `what`; a bool, a
    float or a string is not an integer."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise GraphError("%s must be a list of integers, not %r" % (what, value))
    return list(value)


def graph_from_dict(doc: dict, base_dir: str = ".") -> LayerGraph:
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise GraphError("graph document must be an object with a 'nodes' list")
    bits = doc.get("input_bits", 8)
    if type(bits) is not int or bits not in PACKABLE_BITS:
        raise GraphError("input_bits must be a width the wire can ship, one of %s, not %r"
                         % (", ".join(map(str, PACKABLE_BITS)), bits))
    nodes = []
    for row in doc["nodes"]:
        try:
            nid, op = row["id"], str(row["op"])
        except (KeyError, TypeError) as e:
            raise GraphError("malformed node entry: %s" % e)
        if type(nid) is not int:
            raise GraphError("malformed node entry: id must be an integer, not %r" % (nid,))
        attrs, relu = row.get("attrs", {}), row.get("fused_relu", False)
        if not isinstance(attrs, dict):
            raise GraphError("node %d: attrs must be an object, not %r" % (nid, attrs))
        if type(relu) is not bool:
            raise GraphError("node %d: fused_relu must be true or false, not %r" % (nid, relu))
        n = LayerNode(
            id=nid,
            op_kind=op,
            attrs=dict(zip(map(str, attrs), _ints(list(attrs.values()), "node %d: attrs" % nid))),
            weight_shape=tuple(_ints(row.get("weight_shape", []), "node %d: weight_shape" % nid)),
            out_shape=tuple(_ints(row.get("out_shape", []), "node %d: out_shape" % nid)),
            inputs=_ints(row.get("inputs", []), "node %d: inputs" % nid),
            fused_relu=relu,
        )
        for key, slot in (("weights_file", "weights"), ("bias_file", "bias")):
            rel = row.get(key)
            if not isinstance(rel, (str, type(None))):
                raise GraphError("node %d: %s must be a path string, not %r" % (nid, key, rel))
            if rel:
                setattr(n, slot, read_tensor(os.path.join(base_dir, rel)))
        nodes.append(n)
    return LayerGraph(nodes, input_bits=bits)


def load_graph(path) -> LayerGraph:
    try:
        with open(path, "r") as f:
            doc = json.load(f)
    except OSError as e:
        raise GraphError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise GraphError("parse error in %s: %s" % (path, e))
    return graph_from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))


def save_graph(g: LayerGraph, path, blob_subdir: str = "weights"):
    """Write the graph JSON next to its weight blobs (load_graph round-trips)."""
    from .tensorio import write_tensor

    base = os.path.dirname(os.path.abspath(path))
    rows = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        row = {
            "id": n.id,
            "op": n.op_kind,
            "attrs": {k: n.attrs[k] for k in sorted(n.attrs)},
            "weight_shape": list(n.weight_shape),
            "out_shape": list(n.out_shape),
            "inputs": list(n.inputs),
        }
        if n.fused_relu:
            row["fused_relu"] = True
        if n.weights is not None:
            rel = "%s/node_%04d.astn" % (blob_subdir, nid)
            os.makedirs(os.path.join(base, blob_subdir), exist_ok=True)
            write_tensor(os.path.join(base, rel), n.weights)
            row["weights_file"] = rel
        if n.bias is not None:
            rel = "%s/node_%04d_bias.astn" % (blob_subdir, nid)
            os.makedirs(os.path.join(base, blob_subdir), exist_ok=True)
            write_tensor(os.path.join(base, rel), n.bias)
            row["bias_file"] = rel
        rows.append(row)
    doc = {"input_bits": g.input_bits, "nodes": rows}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


# -- rewrites ----------------------------------------------------------------


def optimize_graph(g: LayerGraph) -> LayerGraph:
    """Fold batchnorm into the preceding affine layer and fuse trailing relu.

    Both rewrites preserve the executor's outputs. A batchnorm whose producer
    is not an affine layer, feeds other consumers, or has no loaded weights is
    kept standalone and recorded in the result's warnings list.
    """
    nodes = {i: copy.deepcopy(n) for i, n in g.nodes.items()}
    consumers = {i: list(c) for i, c in g.consumers.items()}
    warnings = []

    def rewire(dead_id, onto_id):
        for c in consumers[dead_id]:
            node = nodes[c]
            node.inputs = [onto_id if x == dead_id else x for x in node.inputs]
        consumers[onto_id] = sorted(
            [c for c in consumers[onto_id] if c != dead_id] + consumers[dead_id]
        )
        del nodes[dead_id]
        del consumers[dead_id]

    changed = True
    while changed:
        changed = False
        for nid in sorted(nodes):
            n = nodes[nid]
            if n.op_kind == "batchnorm":
                (pid,) = n.inputs
                p = nodes[pid]
                # removing a sink would renumber the graph outputs
                if not consumers[nid]:
                    if not _warned(warnings, nid):
                        warnings.append("batchnorm %d kept: it is a graph output" % nid)
                    continue
                # a producer with a fused relu is no longer affine
                if p.op_kind not in WEIGHTED_OPS or p.fused_relu:
                    if not _warned(warnings, nid):
                        warnings.append("batchnorm %d kept: producer %d is not affine" % (nid, pid))
                    continue
                if consumers[pid] != [nid]:
                    if not _warned(warnings, nid):
                        warnings.append("batchnorm %d kept: producer %d has other consumers" % (nid, pid))
                    continue
                if p.weights is None or n.weights is None:
                    if not _warned(warnings, nid):
                        warnings.append("batchnorm %d kept: weights not loaded" % nid)
                    continue
                _fold_bn(p, n)
                rewire(nid, pid)
                changed = True
                break
            if n.op_kind == "relu":
                (pid,) = n.inputs
                p = nodes[pid]
                if not consumers[nid]:  # keep graph outputs in place
                    continue
                if p.op_kind == "input" or consumers[pid] != [nid]:
                    continue
                p.fused_relu = True
                rewire(nid, pid)
                changed = True
                break

    out = LayerGraph(list(nodes.values()), input_bits=g.input_bits)
    out.warnings = warnings
    return out


def _warned(warnings, nid):
    tag = "batchnorm %d " % nid
    return any(w.startswith(tag) for w in warnings)


def _fold_bn(p: LayerNode, bn: LayerNode):
    gamma, beta, mean, var = (bn.weights[k].astype(np.float64) for k in range(4))
    scale = gamma / np.sqrt(var + BN_EPS)
    w = p.weights.astype(np.float64)
    if p.op_kind == "depthwise_conv":
        w = w * scale[:, None, None]
    elif p.op_kind == "fc":
        w = w * scale[:, None]
    else:  # conv / pointwise_conv, Cout first
        w = w * scale[:, None, None, None]
    b0 = np.zeros(len(scale)) if p.bias is None else p.bias.astype(np.float64)
    p.weights = w.astype(np.float32)
    p.bias = ((b0 - mean) * scale + beta).astype(np.float32)
    if bn.fused_relu:
        p.fused_relu = True


# -- order, liveness, cuts ----------------------------------------------------


def topological_order(g: LayerGraph) -> list:
    """Deterministic Kahn order (ties by ascending id); input node first."""
    return list(g._order)


def compute_working_sets(g: LayerGraph) -> list:
    """Live tensor sets per compute step, each in topological order, from
    the rows of `g.liveness.incidence`; see LayerGraph.liveness."""
    order, rows = g._order, g.liveness.incidence.tolist()
    return [WorkingSet(k, [(order[j], e) for j, e in enumerate(row) if e], sum(row)) for k, row in enumerate(rows, 1)]


def boundary_cut(g: LayerGraph, n: int) -> BoundaryCut:
    """Tensors produced in the n-prefix that someone after the prefix still
    needs, from row n of `g.liveness.crossing`."""
    crossing = g.liveness.crossing
    if not 0 <= n < len(crossing):
        raise GraphError("split index %d out of range [0, %d]" % (n, len(crossing) - 1))
    row = crossing[n].tolist()
    return BoundaryCut(crossing_tensors=sorted(g._order[j] for j, e in enumerate(row) if e), cut_elements=sum(row))
