"""In-memory span recorder that wraps bitsplit functions from the outside.

Nothing in the package is edited: `Tracer.install` swaps the listed functions
for timing wrappers in every loaded `bitsplit` module that refers to them
(including names one module imported from another, such as
`search.evaluate_accuracy`), and `Tracer.uninstall` puts the originals back.
A span is (id, name, start, end, parent id, thread id). Parents come from a
per-thread stack; work that `util.parallel_map` hands to pool threads is
parented to the `parallel_map` span. Self time is a span's duration minus the
part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (span name, module, attribute). The attribute may be "Class.method".
TARGETS = [
    ("graph.compute_working_sets", "graph", "compute_working_sets"),
    ("graph.boundary_cut", "graph", "boundary_cut"),
    ("graph.load_graph", "graph", "load_graph"),
    ("graph.optimize_graph", "graph", "optimize_graph"),
    ("cost.activation_memory_bits", "cost", "activation_memory_bits"),
    ("cost.split_latency", "cost", "split_latency"),
    ("cost.load_device_config", "cost", "load_device_config"),
    ("search.potential_splits", "search", "potential_splits"),
    ("search.allocate_bits_lagrangian", "search", "allocate_bits_lagrangian"),
    ("search.allocate_activation_bits", "search", "allocate_activation_bits"),
    ("search.repair_activation_assignment", "search", "repair_activation_assignment"),
    ("search.enumerate_solutions", "search", "enumerate_solutions"),
    ("search.select_solution", "search", "select_solution"),
    ("search.float_baseline", "search", "float_baseline"),
    ("engine.evaluate_accuracy", "engine", "evaluate_accuracy"),
    ("engine.float_accuracy", "engine", "float_accuracy"),
    ("engine.run_fake_quantized_detailed", "engine", "run_fake_quantized_detailed"),
    ("engine.run_inference", "engine", "run_inference"),
    ("engine.forward", "engine", "_forward"),
    ("engine.quantized_weights", "engine", "quantized_weights"),
    ("engine.calibrate_activations", "engine", "calibrate_activations"),
    ("engine.load_eval_dir", "engine", "load_eval_dir"),
    ("quantize.choose_clip_range", "quantize", "choose_clip_range"),
    ("quantize.quantize_tensor", "quantize", "quantize_tensor"),
    ("quantize.dequantize", "quantize", "dequantize"),
    ("quantize.weight_distortion_table", "quantize", "weight_distortion_table"),
    ("quantize.activation_distortion_table", "quantize", "activation_distortion_table"),
    ("wire.run_tcp_session", "wire", "run_tcp_session"),
    ("wire.edge_role", "wire", "edge_role"),
    ("wire.cloud_role", "wire", "cloud_role"),
    ("wire.pack_activations", "wire", "pack_activations"),
    ("wire.unpack_activations", "wire", "unpack_activations"),
    ("wire.encode_message", "wire", "encode_message"),
    ("wire.decode_message", "wire", "decode_message"),
    ("wire.reference_outputs", "wire", "reference_outputs"),
    ("wire.send_frame", "wire", "Channel.send_frame"),
    ("wire.recv_frame", "wire", "Channel.recv_frame"),
    ("tensorio.read_tensor", "tensorio", "read_tensor"),
    ("util.parallel_map", "util", "parallel_map"),
    ("cli.solve", "cli", "cmd_solve"),
    ("cli.simulate", "cli", "cmd_simulate"),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []

    def count(self, name, n):
        with self._lock:
            self.counters[name] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        after = _AFTER.get(name)
        adapt = _ADAPT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            if adapt is not None:
                args = adapt(tracer, sid, args)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, t0, t1, parent, threading.get_ident()))
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target that still exists; record the rest as missing."""
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                importlib.import_module("bitsplit." + modname)
            except ImportError:
                pass
        modules = [m for k, m in sorted(sys.modules.items()) if k == "bitsplit" or k.startswith("bitsplit.")]
        for name, modname, attr in TARGETS:
            module = sys.modules.get("bitsplit." + modname)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                self._patch(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per span name: call count and total self time in seconds."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            calls[name] += 1
            self_s[name] += (t1 - t0) - _covered(t0, t1, children.get(sid, ()))
        return calls, self_s

    def write(self, path):
        """Spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for sid, name, t0, t1, parent, thread in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "thread": thread}) + "\n")


def _covered(t0, t1, intervals):
    """Length of [t0, t1] covered by the union of the given intervals."""
    total = 0.0
    reach = t0
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, t1)
        if b > a:
            total += b - a
            reach = b
    return total


# -- per-target hooks -------------------------------------------------------------


def _adapt_parallel_map(tracer, sid, args):
    """Parent pool-thread spans to the parallel_map span that queued them."""
    fn = args[0]

    def run_item(item):
        stack = tracer._stack()
        if stack:
            return fn(item)
        stack.append(sid)
        try:
            return fn(item)
        finally:
            stack.pop()

    return (run_item,) + tuple(args[1:])


def _after_enumerate(tracer, args, result):
    stats = result[1]
    tracer.count("search.solve_count", stats.solve_count)
    tracer.count("search.pairs_tried", stats.pairs_tried)
    tracer.count("search.pairs_kept", stats.pairs_kept)


def _after_select(tracer, args, result):
    tracer.count("search.selected_measured", 0 if result.is_sentinel else 1)


def _after_encode(tracer, args, result):
    tracer.count("wire.payload_bytes", len(args[0].payload))


def _after_send(tracer, args, result):
    tracer.count("wire.frame_bytes", 4 + len(args[1]))


_ADAPT = {"util.parallel_map": _adapt_parallel_map}
_AFTER = {
    "search.enumerate_solutions": _after_enumerate,
    "search.select_solution": _after_select,
    "wire.encode_message": _after_encode,
    "wire.send_frame": _after_send,
}
