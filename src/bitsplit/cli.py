"""Command-line front end.

Subcommands:
  solve      pick a split point and per-layer bit-widths, write report files
  simulate   replay a solved configuration over the message protocol
  inspect    print graph statistics and candidate split points
  profile    emit weight/activation distortion tables as CSV
  make-demo  generate a self-contained example (graph, devices, eval data)

All flags are long-form. `solve` also accepts --config pointing at a JSON
object whose keys match the flag names (underscores for dashes); explicit
flags win. Exit codes: 0 success, 2 config error, 3 graph error,
4 no acceptable split under --require-split.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from .cost import (
    ConfigError,
    LatencyBreakdown,
    layer_macs,
    load_device_config,
)
from .engine import (
    calibrate_activations,
    float_accuracy,
    load_eval_dir,
    save_eval_dir,
)
from .graph import (
    WEIGHTED_OPS,
    GraphError,
    boundary_cut,
    load_graph,
    optimize_graph,
    save_graph,
    topological_order,
)
from .quantize import QuantError, activation_distortion_table, weight_distortion_table
from .search import (
    BitAssignment,
    SplitSolution,
    Widths,
    float_baseline,
    potential_splits,
    enumerate_solutions,
    select_solution,
    solution_sort_key,
    tx_bits_at_min,
)
from .synth import TOY_MEMORY_BYTES, make_eval_set, make_toy_classifier, table1_device_config, toy_device_config
from .tensorio import BlobError
from .wire import WireError, reference_outputs, run_split_session, run_tcp_session


class InfeasibleError(RuntimeError):
    pass


def _f(x: float) -> str:
    return "%.9e" % float(x)


def _pct(x: float) -> str:
    return "%.6f" % float(x)


def _hist(bits_map: dict) -> str:
    if not bits_map:
        return "-"
    c = Counter(bits_map.values())
    return "+".join("%dx%d" % (b, c[b]) for b in sorted(c))


def _shape(s) -> str:
    return "x".join(str(d) for d in s) if s else "-"


def _graph_digest(g) -> str:
    h = hashlib.sha256(g.canonical_dump().encode())
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        for tag, t in (("w", n.weights), ("b", n.bias)):
            if t is not None:
                h.update(("%s%d" % (tag, nid)).encode())
                h.update(np.ascontiguousarray(t, dtype=np.float32).tobytes())
    return h.hexdigest()


def _merge_config(args, keys):
    """Config-file values fill in flags the user left unset."""
    cfg = {k: getattr(args, k) for k in keys}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError("cannot read config %s: %s" % (path, e))
        except json.JSONDecodeError as e:
            raise ConfigError("parse error in config %s: %s" % (path, e))
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(doc) - set(keys))
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        for k, v in doc.items():
            if cfg[k] is None:
                cfg[k] = v
    return cfg


def _require(cfg, names):
    missing = [n for n in names if cfg.get(n) is None]
    if missing:
        raise ConfigError("missing required option(s): %s" % ", ".join("--" + n.replace("_", "-") for n in missing))


def _to_int(value) -> int:
    """An int from a config value: an int, an integral float or a numeric
    string; a bool or anything else raises ValueError."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(value)
    return int(value)


def _to_float(value) -> float:
    """A finite float from a config value; a bool or anything else raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(value)
    out = float(value)
    if not math.isfinite(out):
        raise ValueError(value)
    return out


def _option(cfg, key, convert, default=None, minimum=None, maximum=None):
    """cfg[key] converted, or `default` when unset; a value that does not
    convert, or falls outside `minimum`..`maximum`, raises ConfigError naming
    the option."""
    value = cfg[key]
    if value is None:
        return default
    try:
        out = convert(value)
        if (minimum is None or out >= minimum) and (maximum is None or out <= maximum):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "" if minimum is None else " of at least %s" % minimum
    if maximum is not None:
        bound = " in %s..%s" % (minimum, maximum)
    raise ConfigError("--%s: %r is not %s%s" % (
        key.replace("_", "-"), value, "an integer" if convert is _to_int else "a finite number", bound,
    ))


def _parse_bits(value):
    """Bit candidates from a comma-separated string or a list of integers."""
    if value is None:
        return None
    try:
        if isinstance(value, list):
            bits = {_to_int(b) for b in value}
        else:
            bits = {int(t) for t in str(value).split(",") if t.strip()}
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("cannot parse bit list %r" % (value,))
    if not bits or any(b < 1 for b in bits):
        raise ConfigError("bit candidates must be positive integers")
    return tuple(sorted(bits))


# -- solve --------------------------------------------------------------------

_SOLVE_KEYS = (
    "graph",
    "devices",
    "memory_bytes",
    "eval_dir",
    "bits",
    "accuracy_drop",
    "calib",
    "out",
    "seed",
    "require_split",
    "distortion_cap",
)


def _load_labelled_eval(dirpath, g):
    """`load_eval_dir`, refusing an empty eval set and a label the graph's
    single output cannot predict: one at or above its class count."""
    eval_set = load_eval_dir(dirpath)
    if not eval_set.inputs:
        raise ConfigError("eval directory %s holds no inputs" % dirpath)
    if len(g.output_ids) == 1:
        classes = g.nodes[g.output_ids[0]].act_elements()
        for lab in eval_set.labels:
            if lab >= classes:
                raise ConfigError("eval label %d is not below the output's %d classes" % (lab, classes))
    return eval_set


def cmd_solve(args) -> int:
    cfg = _merge_config(args, _SOLVE_KEYS)
    _require(cfg, ["graph", "devices", "memory_bytes", "eval_dir"])
    out_dir = cfg["out"] or "bitsplit_out"
    A = _option(cfg, "accuracy_drop", _to_float, default=1.0, minimum=0.0)
    calib_n = _option(cfg, "calib", _to_int, default=8, minimum=1)
    seed = _option(cfg, "seed", _to_int, default=0)
    M = _option(cfg, "memory_bytes", _to_int, minimum=1)
    distortion_cap = _option(cfg, "distortion_cap", _to_float)

    edge, cloud, net = load_device_config(cfg["devices"])
    B = _parse_bits(cfg["bits"]) or edge.supported_bits
    g = optimize_graph(load_graph(cfg["graph"]))
    for w in g.warnings:
        print("note: %s" % w, file=sys.stderr)
    compute = g.compute_ids()

    eval_set = _load_labelled_eval(cfg["eval_dir"], g)
    calib = calibrate_activations(g, eval_set.inputs, max_samples=calib_n)
    wtable = weight_distortion_table(g, B)
    atable = activation_distortion_table(g, calib, B)

    S, stats = enumerate_solutions(
        g, topological_order(g), wtable, atable, edge, cloud, net, M, B=B, distortion_cap=distortion_cap,
    )
    if cfg["require_split"] and len(S) <= 1:
        raise InfeasibleError("no feasible split found under %d bytes" % M)

    base_acc = float_accuracy(g, eval_set)
    chosen = select_solution(S, g, eval_set, A, base_acc=base_acc)
    if cfg["require_split"] and chosen.is_sentinel:
        raise InfeasibleError("only the cloud-only sentinel meets the %.4f%% accuracy limit" % A)

    os.makedirs(out_dir, exist_ok=True)
    _write_solutions_csv(os.path.join(out_dir, "solutions.csv"), S, compute)
    _write_tradeoff_csv(os.path.join(out_dir, "tradeoff.csv"), S, compute)
    sel_doc = _selected_doc(g, chosen, A, B, M, seed)
    with open(os.path.join(out_dir, "selected.json"), "w") as f:
        json.dump(sel_doc, f, indent=2, sort_keys=True)
        f.write("\n")
    summary = _summary_text(g, edge, cloud, net, M, B, eval_set, base_acc, stats, S, chosen, A, seed)
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write(summary)

    br = chosen.breakdown
    print(
        "selected split %d/%d: total %s s (edge %s + tx %s + cloud %s), drop %s%% <= %s%%"
        % (chosen.n, len(compute), _f(br.total_s), _f(br.edge_s), _f(br.transmit_s), _f(br.cloud_s),
           _pct(100.0 * (chosen.accuracy_drop or 0.0)), _pct(A))
    )
    print("reports written to %s" % out_dir)
    return 0


def _write_solutions_csv(path, S, compute):
    header = (
        "split_index,weight_bits,act_bits,edge_s,transmit_s,cloud_s,total_s,"
        "weight_bytes,act_bytes,total_distortion,accuracy_drop_percent"
    )
    lines = [header]
    for sol in sorted(S, key=lambda s: solution_sort_key(s, compute)):
        drop = sol.accuracy_drop
        br = sol.breakdown
        lines.append(
            ",".join(
                [
                    str(sol.n),
                    _hist(sol.assignment.weight_bits),
                    _hist(sol.assignment.act_bits),
                    _f(br.edge_s),
                    _f(br.transmit_s),
                    _f(br.cloud_s),
                    _f(br.total_s),
                    "%.3f" % sol.edge_weight_bytes,
                    "%.3f" % sol.edge_act_bytes,
                    _f(sol.total_distortion),
                    "" if drop is None else _pct(100.0 * drop),
                ]
            )
        )
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _write_tradeoff_csv(path, S, compute):
    sentinel_total = next(s for s in S if s.is_sentinel).breakdown.total_s
    rows = {}
    for sol in sorted(S, key=lambda s: solution_sort_key(s, compute)):
        drop = sol.accuracy_drop
        if drop is None:
            continue
        row = (
            _pct(100.0 * drop),
            _f(sol.breakdown.total_s / sentinel_total),
            str(sol.n),
            _f(sol.breakdown.total_s),
        )
        rows[row] = None
    lines = ["accuracy_drop_percent,normalized_latency,split_index,total_s"]
    lines += [",".join(r) for r in sorted(rows, key=lambda r: (float(r[0]), float(r[1]), int(r[2])))]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def _selected_doc(g, chosen, A, B, M, seed):
    cut = boundary_cut(g, chosen.n)
    br = chosen.breakdown
    return {
        "split_index": chosen.n,
        "weight_bits": {str(i): int(b) for i, b in sorted(chosen.assignment.weight_bits.items())},
        "act_bits": {str(i): int(b) for i, b in sorted(chosen.assignment.act_bits.items())},
        "input_bits": g.input_bits,
        "bits_candidates": [int(b) for b in B],
        "crossing_tensors": list(cut.crossing_tensors),
        "latency": {
            "edge_s": br.edge_s,
            "transmit_s": br.transmit_s,
            "cloud_s": br.cloud_s,
            "total_s": br.total_s,
            "relative_s": br.relative_s,
        },
        "memory": {
            "weight_bytes": chosen.edge_weight_bytes,
            "act_bytes": chosen.edge_act_bytes,
            "budget_bytes": M,
        },
        "total_distortion": chosen.total_distortion,
        "accuracy_drop_percent": 100.0 * (chosen.accuracy_drop or 0.0),
        "accuracy_limit_percent": A,
        "graph_sha256": _graph_digest(g),
        "seed": seed,
    }


def _summary_text(g, edge, cloud, net, M, B, eval_set, base_acc, stats, S, chosen, A, seed):
    compute = g.compute_ids()
    weighted = [i for i in compute if g.nodes[i].op_kind in WEIGHTED_OPS]
    w_elems = sum(g.nodes[i].weight_elements() for i in compute)
    peak = g.liveness.peaks[-1]
    fb_n, fb_br = float_baseline(g, edge, cloud, net)
    br = chosen.breakdown
    lines = [
        "split and bit-width optimization summary",
        "",
        "graph: %d nodes, %d compute layers (%d weighted), %d weight elements"
        % (len(g.nodes), len(compute), len(weighted), w_elems),
        "input: %s at %d bits; peak working set %d elements"
        % (_shape(g.nodes[g.input_id].out_shape), g.input_bits, peak),
        "edge: %s (%.3e ops/s, %.3e B/s, %d-bit mac, bits %s)"
        % (edge.name, edge.peak_ops_per_s, edge.bandwidth_bytes_per_s, edge.mac_bits, list(edge.supported_bits)),
        "cloud: %s (%.3e ops/s, %.3e B/s)" % (cloud.name, cloud.peak_ops_per_s, cloud.bandwidth_bytes_per_s),
        "uplink: %.3e bit/s, rtt %.3e s" % (net.uplink_bits_per_s, net.fixed_rtt_s),
        "memory budget: %d bytes; bit candidates: %s; seed: %d" % (M, list(B), seed),
        "eval: %d inputs, float top-1 %s%%" % (len(eval_set.inputs), _pct(100.0 * base_acc)),
        "",
        "candidate splits: %s" % stats.potential,
        "solutions kept: %d of %d budget pairs (+1 sentinel); allocator solves: %d (bound %d)"
        % (stats.pairs_kept, stats.pairs_tried, stats.solve_count, stats.solve_bound),
        "all-16-bit reference: split %d, total %s s" % (fb_n, _f(fb_br.total_s)),
        "",
        "selected: split %d of %d (%s)" % (chosen.n, len(compute), "cloud-only" if chosen.is_sentinel else
                                            ("edge-only" if chosen.n == len(compute) else "split")),
        "  total %s s = edge %s + transmit %s + cloud %s"
        % (_f(br.total_s), _f(br.edge_s), _f(br.transmit_s), _f(br.cloud_s)),
        "  weight bits %s, activation bits %s" % (_hist(chosen.assignment.weight_bits), _hist(chosen.assignment.act_bits)),
        "  edge memory: %.3f weight + %.3f activation bytes <= %d"
        % (chosen.edge_weight_bytes, chosen.edge_act_bytes, M),
        "  distortion %s; accuracy drop %s%% (limit %s%%)"
        % (_f(chosen.total_distortion), _pct(100.0 * (chosen.accuracy_drop or 0.0)), _pct(A)),
        "",
    ]
    return "\n".join(lines)


# -- simulate -----------------------------------------------------------------


def _load_selected(path, g):
    """The plan in a `selected.json`, checked against the graph: its split
    is one of g's, and its widths cover exactly the edge layers."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("corrupt selected file %s: %s" % (path, e))
    compute = g.compute_ids()
    try:
        n = doc["split_index"]
        if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= len(compute):
            raise ConfigError("selected file %s: split_index %r is not a split of 0..%d" % (path, n, len(compute)))
        position = {nid: k for k, nid in enumerate(compute)}
        latency, memory = doc["latency"], doc["memory"]
        plan = SplitSolution(
            n=n,
            assignment=BitAssignment(
                weight_bits=Widths(position, _plan_widths(doc["weight_bits"], compute[:n], "weight_bits")),
                act_bits=Widths(position, _plan_widths(doc["act_bits"], compute[:n], "act_bits")),
            ),
            breakdown=LatencyBreakdown(
                **{k: float(latency[k]) for k in ("edge_s", "transmit_s", "cloud_s", "total_s", "relative_s")}
            ),
            total_distortion=float(doc["total_distortion"]),
            edge_weight_bytes=float(memory["weight_bytes"]),
            edge_act_bytes=float(memory["act_bytes"]),
            accuracy_drop=float(doc["accuracy_drop_percent"]) / 100.0,
        )
        digest = doc["graph_sha256"]
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise ConfigError("selected file %s is missing fields: %s" % (path, e))
    if digest != _graph_digest(g):
        raise ConfigError("selected file %s was solved against a different graph" % path)
    return plan


def _plan_widths(bits, ids, name) -> np.ndarray:
    """A plan file's `name` object, which must map exactly `ids` (as
    strings) to positive integer widths, as a read-only width array."""
    if not isinstance(bits, dict):
        raise ConfigError("%s must be an object" % name)
    widths = {}
    for k, v in bits.items():
        try:
            nid = int(k)
        except ValueError:
            nid = None
        if nid is None or nid in widths:
            raise ConfigError("%s: %r is not a distinct layer id" % (name, k))
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise ConfigError("%s: width %r of layer %s is not a positive integer" % (name, v, k))
        widths[nid] = v
    if set(widths) != set(ids):
        raise ConfigError("%s must cover exactly the %d edge layers %s, not %s" % (name, len(ids), list(ids), sorted(widths)))
    array = np.array([widths[i] for i in ids], dtype=np.int64)
    array.flags.writeable = False
    return array


def cmd_simulate(args) -> int:
    limit = _option(vars(args), "limit", _to_int, minimum=1)
    g = optimize_graph(load_graph(args.graph))
    plan = _load_selected(args.selected, g)
    inputs = load_eval_dir(args.eval_dir).inputs[:limit]
    if not inputs:
        raise ConfigError("eval directory holds no inputs")

    cases = []
    all_match = True
    for idx, x in enumerate(inputs):
        if args.tcp:
            outs, transcript = run_tcp_session(g, x, plan, want_transcript=True)
        else:
            outs, transcript = run_split_session(g, x, plan, want_transcript=True)
        ref = reference_outputs(g, x, plan)
        match = len(outs) == len(ref) and all(
            a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(outs, ref)
        )
        all_match = all_match and match
        cases.append({"input_index": idx, "match": bool(match), "messages": transcript})

    doc = {
        "split_index": plan.n,
        "transport": "tcp" if args.tcp else "local",
        "num_cases": len(cases),
        "all_match": bool(all_match),
        "cases": cases,
    }
    out_dir = args.out or os.path.dirname(os.path.abspath(args.selected))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "transcript.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    total_payload = sum(m["payload_bytes"] for c in cases for m in c["messages"])
    print(
        "simulated %d input(s) at split %d over %s transport: %s (%d payload bytes); transcript %s"
        % (len(cases), plan.n, doc["transport"], "all outputs match" if all_match else "MISMATCH", total_payload, path)
    )
    return 0 if all_match else 1


# -- inspect ------------------------------------------------------------------


def cmd_inspect(args) -> int:
    g = optimize_graph(load_graph(args.graph))
    compute = g.compute_ids()
    peak = g.liveness.peaks[-1]

    node_rows = []
    for nid in topological_order(g):
        n = g.nodes[nid]
        node_rows.append(
            {
                "id": n.id,
                "op": n.op_kind + ("+relu" if n.fused_relu else ""),
                "out_shape": list(n.out_shape),
                "weight_elements": n.weight_elements(),
                "macs": layer_macs(n) if n.op_kind in WEIGHTED_OPS else 0,
            }
        )
    doc = {
        "nodes": node_rows,
        "compute_layers": len(compute),
        "weight_elements": sum(g.nodes[i].weight_elements() for i in compute),
        "peak_working_set_elements": peak,
        "outputs": list(g.output_ids),
        "input_bits": g.input_bits,
        "warnings": list(g.warnings),
    }

    if args.devices:
        edge, cloud, net = load_device_config(args.devices)
        B = _parse_bits(args.bits) or edge.supported_bits
        M = _option(vars(args), "memory_bytes", _to_int, default=edge.off_chip_bytes, minimum=1)
        P = potential_splits(g, edge, net, M, B)
        bits = tx_bits_at_min(g, B)
        splits = []
        for n in P:
            cut = boundary_cut(g, n)
            splits.append(
                {
                    "split_index": n,
                    "crossing_tensors": list(cut.crossing_tensors),
                    "cut_elements": cut.cut_elements,
                    "tx_bits_at_min": int(bits[n]),
                }
            )
        doc["memory_bytes"] = M
        doc["bits_candidates"] = [int(b) for b in B]
        doc["potential_splits"] = splits

    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print("%4s  %-18s %-14s %10s %12s" % ("id", "op", "out_shape", "weights", "macs"))
    for r in node_rows:
        print(
            "%4d  %-18s %-14s %10s %12s"
            % (r["id"], r["op"], _shape(r["out_shape"]),
               r["weight_elements"] or "-", r["macs"] or "-")
        )
    print()
    print(
        "%d compute layers, %d weight elements, peak working set %d elements, outputs %s"
        % (doc["compute_layers"], doc["weight_elements"], peak, doc["outputs"])
    )
    for w in g.warnings:
        print("note: %s" % w)
    if args.devices:
        print("candidate splits (memory %d bytes, bits %s):" % (doc["memory_bytes"], doc["bits_candidates"]))
        for s in doc["potential_splits"]:
            print(
                "  n=%-3d cut %6d elements (tensors %s), %d bits at min width"
                % (s["split_index"], s["cut_elements"], s["crossing_tensors"], s["tx_bits_at_min"])
            )
    return 0


# -- profile ------------------------------------------------------------------


def cmd_profile(args) -> int:
    g = optimize_graph(load_graph(args.graph))
    B = _parse_bits(args.bits) or (2, 4, 8)
    out_dir = args.out or "bitsplit_out"
    os.makedirs(out_dir, exist_ok=True)

    wtable = weight_distortion_table(g, B)
    wpath = os.path.join(out_dir, "weight_distortion.csv")
    wtable.to_csv(wpath)
    print("wrote %s (%d layers x %d widths)" % (wpath, len(wtable.sizes), len(wtable.bits)))

    if args.eval_dir:
        eval_set = _load_labelled_eval(args.eval_dir, g)
        calib_n = _option(vars(args), "calib", _to_int, default=8, minimum=1)
        calib = calibrate_activations(g, eval_set.inputs, max_samples=calib_n)
        atable = activation_distortion_table(g, calib, B)
        apath = os.path.join(out_dir, "act_distortion.csv")
        atable.to_csv(apath)
        print("wrote %s (%d layers x %d widths)" % (apath, len(atable.sizes), len(atable.bits)))
    else:
        print("no --eval-dir given; skipped activation table")
    return 0


# -- make-demo ----------------------------------------------------------------


def cmd_make_demo(args) -> int:
    out = args.out or "demo"
    seed = 0 if args.seed is None else int(args.seed)
    per_class = _option(vars(args), "per_class", _to_int, default=20, minimum=1)
    noise = _option(vars(args), "noise", _to_int, default=60, minimum=0, maximum=255)

    os.makedirs(out, exist_ok=True)
    g = make_toy_classifier(seed)
    save_graph(g, os.path.join(out, "graph.json"))
    devices = table1_device_config() if args.preset == "table1" else toy_device_config()
    with open(os.path.join(out, "devices.json"), "w") as f:
        json.dump(devices, f, indent=2, sort_keys=True)
        f.write("\n")
    save_eval_dir(make_eval_set(per_class=per_class, seed=seed, noise=noise), os.path.join(out, "eval"))
    run_cfg = {
        "graph": os.path.join(out, "graph.json"),
        "devices": os.path.join(out, "devices.json"),
        "eval_dir": os.path.join(out, "eval"),
        "memory_bytes": TOY_MEMORY_BYTES,
        "accuracy_drop": 1.0,
        "out": os.path.join(out, "report"),
        "seed": seed,
    }
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump(run_cfg, f, indent=2, sort_keys=True)
        f.write("\n")
    print("demo written to %s (%d eval inputs, seed %d)" % (out, per_class * 10, seed))
    print("next: bitsplit solve --config %s" % os.path.join(out, "run.json"))
    print("then: bitsplit simulate --graph %s --selected %s --eval-dir %s --limit 4"
          % (run_cfg["graph"], os.path.join(run_cfg["out"], "selected.json"), run_cfg["eval_dir"]))
    return 0


# -- entry point ---------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="bitsplit",
        description="Joint split-point and bit-width optimization for edge-cloud inference.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="search splits and bit-widths, write reports")
    ps.add_argument("--config", help="JSON file with default option values")
    ps.add_argument("--graph", help="graph JSON path")
    ps.add_argument("--devices", help="device/network profile JSON path")
    ps.add_argument("--memory-bytes", type=int, dest="memory_bytes", help="edge memory budget in bytes")
    ps.add_argument("--eval-dir", dest="eval_dir", help="eval set directory (inputs + labels.csv)")
    ps.add_argument("--bits", help="comma-separated bit candidates (default: edge profile)")
    ps.add_argument("--accuracy-drop", type=float, dest="accuracy_drop",
                    help="max top-1 drop in percent (default 1.0)")
    ps.add_argument("--calib", type=int, help="calibration sample count (default 8)")
    ps.add_argument("--out", help="report directory (default bitsplit_out)")
    ps.add_argument("--seed", type=int, help="seed recorded in reports (default 0)")
    ps.add_argument("--require-split", action="store_true", default=None, dest="require_split",
                    help="fail with exit 4 instead of falling back to cloud-only")
    ps.add_argument("--distortion-cap", type=float, dest="distortion_cap",
                    help="drop candidates whose summed distortion exceeds this")
    ps.set_defaults(fn=cmd_solve)

    pm = sub.add_parser("simulate", help="replay a solved split over the wire protocol")
    pm.add_argument("--graph", required=True)
    pm.add_argument("--selected", required=True, help="selected.json from solve")
    pm.add_argument("--eval-dir", dest="eval_dir", required=True)
    pm.add_argument("--limit", type=int, help="number of inputs to replay (default: all)")
    pm.add_argument("--tcp", action="store_true", help="loopback TCP instead of an in-process pipe")
    pm.add_argument("--out", help="transcript directory (default: next to selected.json)")
    pm.set_defaults(fn=cmd_simulate)

    pi = sub.add_parser("inspect", help="graph statistics and candidate splits")
    pi.add_argument("--graph", required=True)
    pi.add_argument("--devices", help="also list potential split points for these devices")
    pi.add_argument("--memory-bytes", type=int, dest="memory_bytes",
                    help="memory budget for the split listing (default: edge off-chip)")
    pi.add_argument("--bits", help="bit candidates for the split listing")
    pi.add_argument("--json", action="store_true", help="machine-readable output")
    pi.set_defaults(fn=cmd_inspect)

    pp = sub.add_parser("profile", help="emit distortion tables as CSV")
    pp.add_argument("--graph", required=True)
    pp.add_argument("--bits", help="comma-separated bit candidates (default 2,4,8)")
    pp.add_argument("--eval-dir", dest="eval_dir", help="eval inputs for activation calibration")
    pp.add_argument("--calib", type=int, help="calibration sample count (default 8)")
    pp.add_argument("--out", help="output directory (default bitsplit_out)")
    pp.set_defaults(fn=cmd_profile)

    pd = sub.add_parser("make-demo", help="generate a runnable example problem")
    pd.add_argument("--out", help="demo directory (default demo)")
    pd.add_argument("--seed", type=int, help="seed for weights and data (default 0)")
    pd.add_argument("--per-class", type=int, dest="per_class", help="eval images per class (default 20)")
    pd.add_argument("--noise", type=int, help="pixel jitter amplitude 0..255 (default 60)")
    pd.add_argument("--preset", choices=["toy", "table1"], default="toy",
                    help="device profile pair to write (default toy)")
    pd.set_defaults(fn=cmd_make_demo)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, QuantError, BlobError, WireError) as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except GraphError as e:
        print("graph error: %s" % e, file=sys.stderr)
        return 3
    except InfeasibleError as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
