"""The three benchmark workloads: input generation, one timed pass, checks.

Each workload object generates its inputs from the seed into its own work
directory, may prepare untimed state, and then runs passes. A pass returns
its wall time and the latencies of the calls it made; a failed call or check
is counted, never raised, so one bad call does not abort a run.

Call surface: demo-solve and demo-simulate drive `bitsplit.cli.main`;
resnet50-enumerate calls only names in `bitsplit.__all__` (input generation
also uses `bitsplit.synth`). A change to the `enumerate_solutions` signature
therefore needs a change to this file first.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import time
import traceback
from dataclasses import dataclass

import numpy as np

BITS = (2, 4, 8)
RESNET_BUDGETS = (8 << 20, 32 << 20)
DEMO_GRAPH_SEED = 0
DEMO_PER_CLASS = 20
# Pixel jitter of the eval inputs. At make-demo's default of 60 the solver
# rejects 3 or 4 candidates depending on the seed (12-20% more solve time on
# about one seed in three); at 25 it measures 2 on every seed from 0 to 59.
DEMO_NOISE = 25
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")


def _cli(argv):
    """bitsplit.cli.main with its chatter kept off the benchmark's stdout."""
    from bitsplit import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _sha(*blobs) -> str:
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


def known_fingerprint(workload: str, seed: int):
    try:
        with open(FINGERPRINTS) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


class CheckFailed(Exception):
    pass


def _check(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _timed(fn, *args, **kwargs):
    """(result, seconds); the result is the exception if fn raised."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as e:
        out = e
    return out, time.perf_counter() - t0


def _check_returned(out, what):
    _check(not isinstance(out, Exception), "%s raised %r" % (what, out))


@dataclass
class Pass:
    wall_s: float
    calls_ms: list
    attempted: int
    failed: int
    kind: str = ""  # calls of one kind are alike; kinds may differ in size


class Workload:
    name = ""
    cycle = 1  # passes that together make every kind of call once

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.fingerprint = None  # first fingerprint seen in this run
        self.known = known_fingerprint(self.name, seed)
        self.record = {}
        self.failures = []

    def generate(self):
        raise NotImplementedError

    def prepare(self):
        """Untimed work after generation (not counted in setup_s)."""

    def setup_args(self):
        """Arguments that let setup_probe.py load this workload's inputs."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def _fail(self, what, exc):
        self.failures.append("%s: %s" % (what, "".join(traceback.format_exception_only(exc)).strip()))

    def _check_fingerprint(self, fp):
        """Same output on every pass, and the recorded one when there is one."""
        if self.fingerprint is None:
            self.fingerprint = fp
            self.record["fingerprint"] = fp
            self.record["fingerprint_known"] = self.known is not None
        _check(fp == self.fingerprint, "fingerprint changed within the run")
        _check(self.known is None or fp == self.known,
               "fingerprint %s differs from recorded %s" % (fp[:12], str(self.known)[:12]))


# -- demo problem -----------------------------------------------------------------


def make_demo_problem(out_dir: str, seed: int):
    """The 6-layer toy classifier of `make-demo --seed 0 --noise 25` with 200
    eval inputs drawn from `seed`. The model and the jitter stay fixed so that
    every seed asks for the same amount of work; the seed varies the data it
    is judged on."""
    from bitsplit import save_eval_dir
    from bitsplit.synth import make_eval_set

    rc = _cli(["make-demo", "--seed", str(DEMO_GRAPH_SEED), "--noise", str(DEMO_NOISE), "--out", out_dir])
    if rc != 0:
        raise RuntimeError("make-demo exited %d" % rc)
    shutil.rmtree(os.path.join(out_dir, "eval"))
    save_eval_dir(make_eval_set(per_class=DEMO_PER_CLASS, seed=seed, noise=DEMO_NOISE),
                  os.path.join(out_dir, "eval"))


def load_demo_inputs(demo_dir: str, selected=None):
    """What a user's process loads before it can solve or simulate."""
    from bitsplit import BitAssignment, load_device_config, load_eval_dir, load_graph, optimize_graph

    g = optimize_graph(load_graph(os.path.join(demo_dir, "graph.json")))
    eval_set = load_eval_dir(os.path.join(demo_dir, "eval"))
    devices = load_device_config(os.path.join(demo_dir, "devices.json"))
    plan = None
    if selected is not None:
        with open(selected) as f:
            doc = json.load(f)
        plan = Plan(
            n=int(doc["split_index"]),
            assignment=BitAssignment(
                weight_bits={int(k): int(v) for k, v in doc["weight_bits"].items()},
                act_bits={int(k): int(v) for k, v in doc["act_bits"].items()},
            ),
        )
    return g, eval_set, devices, plan


@dataclass
class Plan:
    n: int
    assignment: object


def check_solve_reports(report_dir: str):
    """Checks the README guarantees on one solve's reports; returns the
    fingerprint and a summary of the plan for the run record."""
    with open(os.path.join(report_dir, "solutions.csv"), "rb") as f:
        solutions = f.read()
    with open(os.path.join(report_dir, "selected.json"), "rb") as f:
        selected = f.read()
    doc = json.loads(selected)
    mem = doc["memory"]
    _check(mem["weight_bytes"] + mem["act_bytes"] <= mem["budget_bytes"], "plan exceeds the memory budget")
    _check(doc["accuracy_drop_percent"] <= doc["accuracy_limit_percent"] + 1e-7, "plan exceeds the accuracy limit")
    rows = list(csv.DictReader(io.StringIO(solutions.decode())))
    cloud_only = [float(r["total_s"]) for r in rows if r["split_index"] == "0"]
    _check(len(cloud_only) == 1, "solutions.csv lacks the cloud-only row")
    _check(doc["latency"]["total_s"] <= cloud_only[0], "plan is slower than cloud-only")
    summary = {
        "plan_total_s": doc["latency"]["total_s"],
        "plan_split_index": doc["split_index"],
        "candidates_measured": sum(1 for r in rows if r["split_index"] != "0" and r["accuracy_drop_percent"]),
    }
    return _sha(solutions, selected), summary


class DemoSolve(Workload):
    name = "demo-solve"

    def generate(self):
        self.demo = os.path.join(self.workdir, "demo")
        make_demo_problem(self.demo, self.seed)

    def setup_args(self):
        return [self.demo]

    def run_pass(self) -> Pass:
        out = os.path.join(self.workdir, "report")
        argv = ["solve", "--config", os.path.join(self.demo, "run.json"), "--out", out, "--seed", str(self.seed)]
        rc, dt = _timed(_cli, argv)
        try:
            _check_returned(rc, "solve")
            _check(rc == 0, "solve exited %r" % rc)
            fp, summary = check_solve_reports(out)
            self._check_fingerprint(fp)
            self.record.update(summary)
            failed = 0
        except Exception as e:
            self._fail("solve", e)
            failed = 1
        return Pass(wall_s=dt, calls_ms=[dt * 1e3], attempted=1, failed=failed)


class DemoSimulate(Workload):
    """Replays demo-solve's plan over loopback TCP: the 200-input command,
    then one closed-loop session per input (one client, one at a time)."""

    name = "demo-simulate"

    def generate(self):
        self.demo = os.path.join(self.workdir, "demo")
        make_demo_problem(self.demo, self.seed)

    def prepare(self):
        from bitsplit import topological_order
        from bitsplit.wire import reference_outputs

        report = os.path.join(self.workdir, "report")
        # Untimed, so it runs serially: the reports do not depend on the
        # worker count, and the serial solve is the faster one here.
        os.environ["AUTOSPLIT_THREADS"] = "1"
        try:
            rc = _cli(["solve", "--config", os.path.join(self.demo, "run.json"), "--out", report,
                       "--seed", str(self.seed)])
        finally:
            del os.environ["AUTOSPLIT_THREADS"]
        if rc != 0:
            raise RuntimeError("preparing the plan: solve exited %d" % rc)
        fp, summary = check_solve_reports(report)
        known = known_fingerprint(DemoSolve.name, self.seed)
        if known is not None and fp != known:
            raise RuntimeError("preparing the plan: reports differ from demo-solve's for seed %d" % self.seed)
        self.record["solve_fingerprint"] = fp
        self.record.update(summary)
        self.selected = os.path.join(report, "selected.json")
        self.g, eval_set, _, self.plan = load_demo_inputs(self.demo, self.selected)
        self.order = topological_order(self.g)
        self.inputs = eval_set.inputs
        self.refs = [reference_outputs(self.g, x, self.plan, order=self.order) for x in self.inputs]

    def setup_args(self):
        return [self.demo, self.selected]

    def run_pass(self) -> Pass:
        from bitsplit import run_tcp_session

        out = os.path.join(self.workdir, "transcript")
        argv = ["simulate", "--graph", os.path.join(self.demo, "graph.json"), "--selected", self.selected,
                "--eval-dir", os.path.join(self.demo, "eval"), "--tcp", "--out", out]
        rc, wall = _timed(_cli, argv)
        failed = 0
        try:
            _check_returned(rc, "simulate")
            _check(rc == 0, "simulate exited %r" % rc)
            with open(os.path.join(out, "transcript.json")) as f:
                doc = json.load(f)
            _check(doc["all_match"] is True, "simulate reports a mismatch")
            _check(doc["num_cases"] == len(self.inputs), "simulate replayed %d inputs" % doc["num_cases"])
        except Exception as e:
            self._fail("simulate", e)
            failed += 1

        calls = []
        with _one_cpu():
            for x, ref in zip(self.inputs, self.refs):
                outs, dt = _timed(run_tcp_session, self.g, x, self.plan, order=self.order)
                calls.append(dt * 1e3)
                try:
                    _check_returned(outs, "session")
                    _check(_bitwise_equal(outs, ref), "session output differs from reference_outputs")
                except Exception as e:
                    self._fail("session", e)
                    failed += 1
        return Pass(wall_s=wall, calls_ms=calls, attempted=1 + len(calls), failed=failed)


@contextlib.contextmanager
def _one_cpu():
    """Keeps the calling thread, and the threads it starts, on one CPU.

    A session's edge and cloud roles take turns: one waits on the socket
    while the other computes, so one CPU costs them no parallelism. Spread
    over two vCPUs, every handoff instead waits for the host to wake the
    idle vCPU. On a loaded 2-vCPU VM, alternating blocks of 200 sessions
    read their median at 10.8-16.8 ms over both vCPUs and at 9.0-10.4 ms
    on one, over the same two minutes."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _bitwise_equal(outs, refs) -> bool:
    return len(outs) == len(refs) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(outs, refs)
    )


# -- ResNet-50 enumeration ------------------------------------------------------------


def synthetic_table(rng, kind, sizes):
    """Seeded distortion rows that decay geometrically in the bit-width, as
    the tests' `random_table` oracle does; sizes come from the graph."""
    from bitsplit import DistortionTable

    d = {}
    for i in sorted(sizes):
        if sizes[i] == 0:
            d.update({(i, b): 0.0 for b in BITS})
            continue
        a = float(rng.uniform(0.01, 10.0))
        c = float(rng.uniform(0.5, 1.2))
        vals = sorted((a * 4.0 ** (-c * b) * (1.0 + float(rng.uniform(-0.15, 0.15))) for b in BITS), reverse=True)
        d.update({(i, b): v for b, v in zip(BITS, vals)})
    return DistortionTable(kind, BITS, sizes, d)


def load_resnet_inputs(devices_path: str, seed: int):
    from bitsplit import load_device_config, topological_order
    from bitsplit.synth import resnet50_shapes

    g, _ = resnet50_shapes()
    order = topological_order(g)
    compute = [i for i in order if i != g.input_id]
    rng = np.random.default_rng(seed)
    wtable = synthetic_table(rng, "w", {i: g.nodes[i].weight_elements() for i in compute})
    atable = synthetic_table(rng, "a", {i: g.nodes[i].act_elements() for i in compute})
    return g, order, wtable, atable, load_device_config(devices_path)


def naive_live_steps(g, order):
    """Live tensors at each compute step k = 1..N, from `g.consumers` alone:
    a tensor is live at k if it was made at k, or made earlier and read at k
    or later (graph outputs are read at infinity)."""
    pos = {nid: k for k, nid in enumerate(order)}
    last = {nid: max((pos[c] for c in g.consumers[nid]), default=math.inf) for nid in order}
    return [
        [(nid, g.nodes[nid].act_elements()) for nid in order[: k + 1] if pos[nid] == k or last[nid] >= k]
        for k in range(1, len(order))
    ]


def naive_memory_bits(g, order, steps, n, assignment):
    """Edge weight bits plus the peak bit-weighted live set of the n-prefix."""
    compute = [i for i in order if i != g.input_id]
    weight = sum(g.nodes[i].weight_elements() * assignment.weight_bits[i] for i in compute[:n])
    peak = 0
    for live in steps[:n]:
        step = sum(e * (g.input_bits if nid == g.input_id else assignment.act_bits[nid]) for nid, e in live)
        peak = max(peak, step)
    return weight + peak


class ResnetEnumerate(Workload):
    name = "resnet50-enumerate"
    cycle = len(RESNET_BUDGETS)

    def generate(self):
        from bitsplit.synth import table1_device_config

        os.makedirs(self.workdir, exist_ok=True)
        self.devices = os.path.join(self.workdir, "devices.json")
        with open(self.devices, "w") as f:
            json.dump(table1_device_config(), f)

    def prepare(self):
        self.g, self.order, self.wtable, self.atable, (self.edge, self.cloud, self.net) = \
            load_resnet_inputs(self.devices, self.seed)
        self.steps = naive_live_steps(self.g, self.order)
        self.calls = 0
        self.keys = {}  # budget -> sorted solution keys, once checked

    def setup_args(self):
        return [self.devices, str(self.seed)]

    def run_pass(self) -> Pass:
        """One enumerate_solutions call; passes alternate between the budgets."""
        from bitsplit import enumerate_solutions

        M = RESNET_BUDGETS[self.calls % len(RESNET_BUDGETS)]
        label = "%dMiB" % (M >> 20)
        self.calls += 1
        out, dt = _timed(enumerate_solutions, self.g, self.order, self.wtable, self.atable,
                         self.edge, self.cloud, self.net, M, B=BITS)
        self.record.setdefault("call_s", {}).setdefault(label, []).append(dt)
        try:
            _check_returned(out, "enumerate")
            key = self._check_solutions(*out, M)
            _check(self.keys.setdefault(M, key) == key, "solutions changed within the run")
            if len(self.keys) == len(RESNET_BUDGETS):
                self._check_fingerprint(_sha(*(self.keys[m].encode() for m in RESNET_BUDGETS)))
            failed = 0
        except Exception as e:
            self._fail("enumerate " + label, e)
            failed = 1
        return Pass(wall_s=dt, calls_ms=[dt * 1e3], attempted=1, failed=failed, kind=label)

    def _check_solutions(self, S, stats, M):
        _check(stats.solve_count <= stats.solve_bound, "allocator solves exceed the bound")
        _check(S and S[0].is_sentinel, "sentinel is not first")
        compute = [i for i in self.order if i != self.g.input_id]
        keys = []
        for sol in S[1:]:
            bits = naive_memory_bits(self.g, self.order, self.steps, sol.n, sol.assignment)
            _check(bits <= M * 8, "split %d exceeds the memory budget" % sol.n)
            _check(bits == round((sol.edge_weight_bytes + sol.edge_act_bytes) * 8),
                   "split %d: reported memory differs from naive liveness" % sol.n)
            keys.append((sol.n, sol.assignment.key(compute[: sol.n])))
        self.record.setdefault("solutions", {})["%dMiB" % (M >> 20)] = len(S)
        self.record.setdefault("solve_count", {})["%dMiB" % (M >> 20)] = stats.solve_count
        return repr(sorted(keys))


WORKLOADS = {w.name: w for w in (DemoSolve, ResnetEnumerate, DemoSimulate)}
