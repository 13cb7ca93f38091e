"""bitsplit benchmark: one workload, timed or traced, one JSON result line.

    python3 perfbench/run.py --workload demo-solve --seed 0 --seconds 30 --trace 0

Run from the repository root. The program is imported from `src/`; the
benchmark generates every input from --seed under `.perfbench/`, where it
also leaves a run record (and, traced, the spans). The last stdout line is
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
THREAD_ENV = ("AUTOSPLIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics read from the traced run: spans whose call count and
# self time are reported, per pass of the workload.
CALLS_AND_SELF = [
    "graph.compute_working_sets", "graph.boundary_cut",
    "cost.activation_memory_bits", "cost.split_latency",
    "search.allocate_bits_lagrangian", "search.allocate_activation_bits",
    "search.repair_activation_assignment",
    "engine.evaluate_accuracy", "engine.run_fake_quantized_detailed", "engine.quantized_weights",
    "quantize.choose_clip_range", "quantize.quantize_tensor",
    "wire.pack_activations", "wire.unpack_activations",
    "tensorio.read_tensor", "util.parallel_map",
]
SELF_ONLY = [
    "search.potential_splits", "search.select_solution", "engine.calibrate_activations",
    "quantize.weight_distortion_table", "quantize.activation_distortion_table",
    "wire.cloud_role", "wire.edge_role", "wire.encode_message", "wire.decode_message",
    "wire.reference_outputs", "cli.solve", "cli.simulate",
]


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def measure_setup(wl):
    """Median of several fresh processes timing import plus input loading."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, wl.name] + wl.setup_args(),
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_for(wl, seconds, whole_cycles=False):
    """Passes until the next step would end past `seconds`; at least one
    cycle, so that every kind of call the workload makes is checked. A step
    is one pass, or one cycle of passes when `whole_cycles` is set."""
    step = wl.cycle if whole_cycles else 1
    passes = []
    t0 = time.perf_counter()
    while True:
        for _ in range(step):
            passes.append(wl.run_pass())
        if len(passes) < wl.cycle:
            continue
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + step) / len(passes) > seconds:
            return passes


def call_p50(passes):
    """Median call latency of each kind of call, averaged over the kinds, so
    that a run's mix of kinds does not move it."""
    kinds = {}
    for p in passes:
        kinds.setdefault(p.kind, []).extend(p.calls_ms)
    return statistics.mean(statistics.median(c) for c in kinds.values())


def end_to_end(passes, setup):
    return {
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_ms": (call_p50(passes), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced, untraced):
    from bitsplit.util import worker_count

    k = len(traced)
    calls, self_s = tracer.summary()
    out = {}
    for name in CALLS_AND_SELF + SELF_ONLY:
        if name in tracer.missing:
            continue
        if name in CALLS_AND_SELF:
            out[name + ".calls"] = (calls[name] / k, "count")
        out[name + ".self_s"] = (self_s[name] / k, "s")

    c = tracer.counters
    if "search.enumerate_solutions" not in tracer.missing:
        out["search.solve_count"] = (c["search.solve_count"] / k, "count")
        out["search.pairs_tried"] = (c["search.pairs_tried"] / k, "count")
        out["search.pairs_kept_ratio"] = (c["search.pairs_kept"] / max(1.0, c["search.pairs_tried"]), "ratio")
    if not {"search.select_solution", "engine.evaluate_accuracy"} & set(tracer.missing):
        selects = {s[0] for s in tracer.spans if s[1] == "search.select_solution"}
        measured = sum(1 for s in tracer.spans if s[1] == "engine.evaluate_accuracy" and s[4] in selects)
        rejected = measured - c["search.selected_measured"]
        out["search.candidates_measured"] = (measured / k, "count")
        out["search.candidates_rejected_ratio"] = (rejected / max(1, measured), "ratio")
    if not {"engine.forward", "engine.run_fake_quantized_detailed"} & set(tracer.missing):
        out["engine.forward_passes"] = ((calls["engine.forward"] + calls["engine.run_fake_quantized_detailed"]) / k,
                                        "count")
    if "wire.recv_frame" not in tracer.missing:
        wait = sum(s[3] - s[2] for s in tracer.spans if s[1] == "wire.recv_frame")
        out["wire.recv_wait_s"] = (wait / k, "s")
    if "wire.send_frame" not in tracer.missing:
        out["wire.frame_bytes"] = (c["wire.frame_bytes"] / k, "bytes")
    if "wire.encode_message" not in tracer.missing:
        out["wire.payload_bytes"] = (c["wire.payload_bytes"] / k, "bytes")
    out["util.worker_count"] = (worker_count(), "count")

    base = statistics.median(p.wall_s for p in untraced)
    with_trace = statistics.median(p.wall_s for p in traced)
    out["trace.untraced_wall_s"] = (base, "s")
    out["trace.traced_wall_s"] = (with_trace, "s")
    out["trace.overhead_ratio"] = (with_trace / base - 1.0, "ratio")
    return out


def run_record(args, wl, passes, setup, metrics, missing, inherited_threads):
    import numpy
    from bitsplit.util import worker_count

    calls = [c for p in passes for c in p.calls_ms]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "worker_count": worker_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "inherited_AUTOSPLIT_THREADS": inherited_threads,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": wl.failures[:20],
        "samples": {"setup_s": setup, "wall_s": [p.wall_s for p in passes], "call_ms": calls},
        "call_p95_ms": percentile(calls, 95),
        "workload_record": wl.record,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "missing_metrics": missing,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bitsplit", "__init__.py")):
        print("error: no bitsplit sources at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    # Measure the thread default users get.
    inherited_threads = os.environ.pop("AUTOSPLIT_THREADS", None)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    records = os.path.join(ROOT, ".perfbench", "records")
    workdir = os.path.join(ROOT, ".perfbench", "work", "%s-%d" % (tag, os.getpid()))
    os.makedirs(records, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir, args.seed)
    try:
        wl.generate()
        wl.prepare()
        if args.trace:
            setup = []
            untraced = run_for(wl, args.seconds / 2, whole_cycles=True)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_for(wl, args.seconds / 2, whole_cycles=True)
            finally:
                tracer.uninstall()
            passes = untraced + traced
            metrics = per_layer(tracer, traced, untraced)
            missing = tracer.missing
            tracer.write(os.path.join(records, tag + "-spans.jsonl.gz"))
        else:
            setup = measure_setup(wl)
            passes = run_for(wl, args.seconds)
            metrics = end_to_end(passes, setup)
            missing = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = run_record(args, wl, passes, setup, metrics, missing, inherited_threads)
    path = os.path.join(records, tag + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")
    if missing:
        print("missing (function gone from bitsplit): %s" % ", ".join(missing), file=sys.stderr)
    for line in wl.failures[:20]:
        print("failure: %s" % line, file=sys.stderr)
    print("%s: %d pass(es), %d call(s) (p95 %.3f ms), %d setup sample(s); record %s"
          % (tag, len(passes), len(record["samples"]["call_ms"]), record["call_p95_ms"], len(setup),
             os.path.relpath(path, ROOT)))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
