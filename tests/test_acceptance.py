"""End-to-end guarantees, one test per headline property.

Each test prints a PASS line with the measured numbers so a verbose run reads
as a checklist. Oracles live in oracles.py and are deliberately naive
restatements of the definitions.
"""

import glob
import json
import time

import numpy as np
import pytest

import oracles
from bitsplit.cli import main as cli_main
from bitsplit.cost import (
    activation_memory_bits,
    crossing_bits_map,
    message_payload_bytes,
    split_latency,
)
from bitsplit.engine import (
    EvalSet,
    calibrate_activations,
    run_inference,
)
from bitsplit.graph import (
    LayerGraph,
    LayerNode,
    boundary_cut,
    compute_working_sets,
    optimize_graph,
    topological_order,
)
from bitsplit.quantize import activation_distortion_table, weight_distortion_table
from bitsplit.search import (
    SplitSolution,
    allocate_bits_lagrangian,
    enumerate_solutions,
    potential_splits,
    select_solution,
)
from bitsplit.synth import (
    TOY_MEMORY_BYTES,
    make_eval_set,
    make_toy_classifier,
    resnet50_shapes,
)
from bitsplit.wire import (
    PACKABLE_BITS,
    pack_activations,
    reference_outputs,
    run_split_session,
    run_tcp_session,
    unpack_activations,
)
from helpers import (
    grid_input_covering,
    last_weighted_in_prefix,
    measure_all,
    random_assignment,
    random_dag,
    table1_profiles,
    toy_profiles,
    uniform_assignment,
)


# -- 1. bit allocation vs exhaustive search ------------------------------------------


def test_allocator_matches_exhaustive_search_within_hull_gap():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)

    # steep decay: exercises exactness whenever the optimum is a hull point
    steep_checked = steep_hull = 0
    for _ in range(150):
        table = oracles.random_table(rng)
        ids = table.layers()
        budget = oracles.random_budget(rng, table)
        alloc = allocate_bits_lagrangian(table, ids, budget)
        best = oracles.exhaustive_alloc(table, ids, budget)
        assert alloc.feasible == (best is not None)
        if best is None:
            continue
        steep_checked += 1
        d_star, r_star, _ = best
        dist = sum(table.d(i, alloc.bits[i]) for i in ids)
        assert dist >= d_star - 1e-12
        hull = oracles.lower_hull_vertices(oracles.aggregate_points(table, ids))
        if (r_star, d_star) in hull:
            steep_hull += 1
            assert dist <= d_star * (1 + 1e-9) + 1e-15

    # matched-amplitude shallow decay: off-hull optima stay within 10%
    dense_checked = dense_off = 0
    max_gap = 0.0
    for _ in range(250):
        table = oracles.dense_hull_table(rng)
        ids = table.layers()
        budget = oracles.random_budget(rng, table)
        alloc = allocate_bits_lagrangian(table, ids, budget)
        best = oracles.exhaustive_alloc(table, ids, budget)
        assert alloc.feasible == (best is not None)
        if best is None:
            continue
        dense_checked += 1
        d_star, r_star, _ = best
        dist = sum(table.d(i, alloc.bits[i]) for i in ids)
        hull = oracles.lower_hull_vertices(oracles.aggregate_points(table, ids))
        if (r_star, d_star) in hull:
            assert dist <= d_star * (1 + 1e-9) + 1e-15
        else:
            dense_off += 1
            gap = (dist - d_star) / max(d_star, 1e-12)
            max_gap = max(max_gap, gap)
            assert gap <= 0.10

    elapsed = time.monotonic() - t0
    assert steep_checked + dense_checked >= 100
    assert steep_hull > steep_checked // 2
    assert dense_off > 20
    assert elapsed < 60.0
    print(
        "PASS allocation: %d cases exact on hull optima, %d off-hull cases within "
        "%.1f%% of optimum (bound 10%%), %.1fs"
        % (steep_hull + (dense_checked - dense_off), dense_off, 100 * max_gap, elapsed)
    )


# -- 2. liveness, cuts, memory vs brute force ------------------------------------------


def _check_liveness(g, ab):
    order = topological_order(g)
    compute = g.compute_ids()
    N = len(compute)

    sets = compute_working_sets(g)
    assert len(sets) == N
    for k in range(1, N + 1):
        want_live = oracles.live_ids(g, order, k)
        got = sets[k - 1]
        assert sorted(i for i, _ in got.live_tensors) == want_live
        assert got.total_elements == sum(g.nodes[i].act_elements() for i in want_live)

    for n in range(0, N + 1):
        cut = boundary_cut(g, n)
        assert cut.crossing_tensors == oracles.cut_ids(g, order, n)
        assert cut.cut_elements == sum(
            g.nodes[c].act_elements() for c in cut.crossing_tensors
        )
        assert activation_memory_bits(g, n, ab) == oracles.act_peak_bits_brute(
            g, order, n, ab, g.input_bits
        )


def test_liveness_cuts_and_memory_match_brute_force():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    dags = 0
    while dags < 200:
        g = random_dag(rng, max_nodes=10)
        dags += 1
        compute = g.compute_ids()
        ab = {i: int(rng.choice((2, 4, 8))) for i in compute}
        _check_liveness(g, ab)
        # rewritten only after g's cached analysis was read: the new graph
        # must build its own (its compute ids are a subset of g's)
        _check_liveness(optimize_graph(g), ab)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print("PASS graph machinery: %d random DAGs, every split index, %.1fs" % (dags, elapsed))


# -- shared corpus for the selection guarantees ---------------------------------------


def _labels_from_float(g, inputs):
    return [int(np.argmax(run_inference(g, x)[0].ravel())) for x in inputs]


def _random_instance(rng, B=(2, 4, 8)):
    """Single-output random graph with tables, profiles, and a self-labeled eval set."""
    while True:
        g = random_dag(rng, max_nodes=9)
        if len(g.output_ids) == 1 and g.nodes[g.output_ids[0]].act_elements() >= 2:
            break
    compute = g.compute_ids()
    shape = g.nodes[g.input_id].out_shape
    inputs = [grid_input_covering(rng, shape) for _ in range(10)]
    eval_set = EvalSet(inputs=inputs, labels=_labels_from_float(g, inputs))
    calib = calibrate_activations(g, inputs[:4])
    wtable = weight_distortion_table(g, B)
    atable = activation_distortion_table(g, calib, B)
    w_total = sum(g.nodes[i].weight_elements() for i in compute)
    peak = max(ws.total_elements for ws in compute_working_sets(g))
    M = max(1, int((w_total + peak) * float(rng.uniform(0.5, 1.3))))
    return g, eval_set, wtable, atable, M


def test_selected_latency_bounded_by_baselines(toy_graph):
    edge, cloud, net = toy_profiles()
    rng = np.random.default_rng(20)
    instances = []

    eval_toy = make_eval_set(per_class=6, seed=1, noise=60)
    calib = calibrate_activations(toy_graph, eval_toy.inputs, max_samples=8)
    instances.append(
        (
            toy_graph,
            eval_toy,
            weight_distortion_table(toy_graph, (2, 4, 8)),
            activation_distortion_table(toy_graph, calib, (2, 4, 8)),
            TOY_MEMORY_BYTES,
        )
    )
    for _ in range(6):
        instances.append(_random_instance(rng))

    checked = 0
    for g, eval_set, wtable, atable, M in instances:
        compute = g.compute_ids()
        S, _ = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, M, B=(2, 4, 8))
        measured = measure_all(S, g, eval_set)
        sentinel_total = next(s.breakdown.total_s for s in S if s.is_sentinel)
        for A in (0.0, 1.0, 5.0, 20.0):
            chosen = select_solution(S, g, eval_set, A)
            checked += 1
            assert chosen.breakdown.total_s <= sentinel_total + 1e-15
            threshold = A / 100.0 + 1e-9
            qualifying = [s for s in measured if s.accuracy_drop <= threshold]
            edge_only = [s for s in qualifying if s.n == len(compute)]
            if edge_only:
                assert chosen.breakdown.total_s <= min(s.breakdown.total_s for s in edge_only) + 1e-15
            # selection is exactly the latency argmin of the qualifying set
            best = min(qualifying, key=lambda s: oracles.solution_sort_key(s, compute))
            assert chosen.breakdown.total_s == best.breakdown.total_s
    print(
        "PASS baselines: %d (instance, threshold) selections, none slower than "
        "cloud-only or any qualifying full-edge plan" % checked
    )


# -- 4. every emitted plan fits the memory budget ---------------------------------------


def test_all_emitted_solutions_fit_edge_memory(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    rng = np.random.default_rng(21)
    emitted = 0

    def check(g, S, M):
        nonlocal emitted
        order = topological_order(g)
        for sol in S:
            if sol.is_sentinel:
                continue
            emitted += 1
            wb = oracles.weight_bits_brute(g, order, sol.n, sol.assignment.weight_bits)
            ab = oracles.act_peak_bits_brute(
                g, order, sol.n, sol.assignment.act_bits, g.input_bits
            )
            assert wb + ab <= M * 8
            assert sol.edge_weight_bytes * 8 == wb
            assert sol.edge_act_bytes * 8 == ab

    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, topological_order(toy_graph), wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    check(toy_graph, S, TOY_MEMORY_BYTES)

    for _ in range(16):
        g, _eval, wtable, atable, M = _random_instance(rng)
        S, _ = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, M, B=(2, 4, 8))
        check(g, S, M)

    assert emitted >= 50
    print("PASS memory: %d emitted plans all satisfy weights+peak <= budget" % emitted)


# -- 4b. every emitted plan replays over the wire ----------------------------------------


def test_emitted_plans_replay_with_a_sixteen_bit_menu(toy_graph, toy_eval):
    # 16 bits is in the menu but not on the wire: a tensor that crosses the
    # boundary must still get a packable width, so every plan is executable
    B = (2, 4, 8, 16)
    edge, cloud, net = toy_profiles()
    rng = np.random.default_rng(24)
    calib = calibrate_activations(toy_graph, toy_eval.inputs, max_samples=8)
    instances = [
        (toy_graph, weight_distortion_table(toy_graph, B), activation_distortion_table(toy_graph, calib, B), 100000)
    ]
    for _ in range(6):
        g, _eval, wtable, atable, M = _random_instance(rng, B)
        instances.append((g, wtable, atable, 2 * M))

    replayed = sixteen = 0
    for g, wtable, atable, M in instances:
        S, _ = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, M, B=B)
        x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
        for sol in S[1:]:
            sixteen += 16 in sol.assignment.act_bits.values()
            got = run_split_session(g, x, sol)
            want = reference_outputs(g, x, sol)
            assert [(a.shape, a.tobytes()) for a in got] == [(b.shape, b.tobytes()) for b in want]
            replayed += 1
    assert replayed >= 50 and sixteen >= 10
    print(
        "PASS replay: %d emitted plans over a 16-bit menu (%d with 16-bit layers) "
        "replay bit-exactly" % (replayed, sixteen)
    )


# -- 5. candidate splits on a residual classifier ---------------------------------------


def test_split_candidates_on_residual_classifier_tail():
    t0 = time.monotonic()
    g, names = resnet50_shapes()
    order = topological_order(g)
    edge, cloud, net = table1_profiles()
    in_elems = g.nodes[g.input_id].act_elements()
    assert in_elems == 150528

    P = potential_splits(g, edge, net, 1 << 30, B=(8,))
    assert P, "no candidates admitted"

    # every admitted boundary moves no more data than the raw input
    for n in P:
        assert boundary_cut(g, n).cut_elements <= in_elems

    # the big stage boundaries are all rejected
    for name in ("layer1.2.add", "layer2.3.add", "layer3.5.add"):
        n_stage = order.index(names[name])
        assert boundary_cut(g, n_stage).cut_elements > in_elems
        assert n_stage not in P

    # single-tensor candidates land exactly on the published tail layers
    single = {
        last_weighted_in_prefix(g, n)
        for n in P
        if len(boundary_cut(g, n).crossing_tensors) == 1
    }
    assert single == {46, 49, 52, 53}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        "PASS candidates: tail splits map to weighted layers %s, stage boundaries "
        "excluded, %.2fs" % (sorted(single), elapsed)
    )


# -- 6. ranking of a near split vs the last split ----------------------------------------


def test_split_ranking_under_device_profiles():
    g, names = resnet50_shapes()
    order = topological_order(g)
    edge, cloud, net = table1_profiles()
    compute = g.compute_ids()
    n12 = order.index(names["layer2.0.add"])
    n53 = len(compute)
    assert boundary_cut(g, n12).cut_elements == 401408
    assert boundary_cut(g, n53).cut_elements == 1000

    # full precision: the last split ships >=2x less time on the wire
    a12 = uniform_assignment(g, n12, 16, 16)
    a53 = uniform_assignment(g, n53, 16, 16)
    br12 = split_latency(g, n12, a12, edge, cloud, net)
    br53 = split_latency(g, n53, a53, edge, cloud, net)
    assert br53.transmit_s * 2 < br12.transmit_s

    # 8-bit compute with 1-bit transmission: the earlier split wins end to end
    q12 = split_latency(g, n12, uniform_assignment(g, n12, 8, 8), edge, cloud, net)
    q53 = split_latency(g, n53, uniform_assignment(g, n53, 8, 8), edge, cloud, net)
    cut12 = boundary_cut(g, n12)
    cut53 = boundary_cut(g, n53)
    tx12 = oracles.transmission_latency(g, cut12, {c: 1 for c in cut12.crossing_tensors}, net)
    tx53 = oracles.transmission_latency(g, cut53, {c: 1 for c in cut53.crossing_tensors}, net)
    total12 = q12.edge_s + tx12 + q12.cloud_s
    total53 = q53.edge_s + tx53 + q53.cloud_s
    assert total12 < total53
    print(
        "PASS ranking: 16-bit wire %.3fs vs %.3fs (>=2x), 1-bit totals %.3fs < %.3fs"
        % (br53.transmit_s, br12.transmit_s, total12, total53)
    )


# -- 7. accuracy budget sweep -------------------------------------------------------


def test_accuracy_budget_sweep_is_monotone(toy_graph):
    t0 = time.monotonic()
    edge, cloud, net = toy_profiles()
    eval_set = make_eval_set(per_class=20, seed=1, noise=60)
    calib = calibrate_activations(toy_graph, eval_set.inputs, max_samples=8)
    wtable = weight_distortion_table(toy_graph, (2, 4, 8))
    atable = activation_distortion_table(toy_graph, calib, (2, 4, 8))
    S, _ = enumerate_solutions(
        toy_graph, topological_order(toy_graph), wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    rows = []
    for A in (0.0, 1.0, 5.0, 10.0, 20.0):
        chosen = select_solution(S, toy_graph, eval_set, A)
        rows.append((A, chosen.n, chosen.breakdown.total_s, chosen.accuracy_drop))
    totals = [r[2] for r in rows]
    assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))  # non-increasing
    assert rows[0][3] <= 1e-9  # a zero budget buys an actually lossless plan
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        "PASS sweep: thresholds %s -> totals %s, tightest budget lossless, %.1fs"
        % ([r[0] for r in rows], ["%.1fus" % (1e6 * t) for t in totals], elapsed)
    )


# -- 8. transport is bit-exact -------------------------------------------------------


def test_transport_round_trip_is_bit_exact(toy_graph):
    rng = np.random.default_rng(31)
    trips = 0
    for _ in range(250):
        for bits in PACKABLE_BITS:
            nd = int(rng.integers(1, 4))
            shape = tuple(int(d) for d in rng.integers(1, 7, size=nd))
            q = rng.integers(0, 1 << bits, size=shape)
            back = unpack_activations(pack_activations(q, bits), bits, shape)
            assert np.array_equal(back, q)
            trips += 1
    assert trips == 1000

    sessions = 0
    graphs = [toy_graph] + [random_dag(rng, max_nodes=9) for _ in range(9)]
    for case in range(50):
        g = graphs[case % len(graphs)]
        compute = g.compute_ids()
        n = int(rng.integers(0, len(compute) + 1))
        sol = SplitSolution(
            n=n,
            assignment=random_assignment(g, n, rng),
            breakdown=None,
            total_distortion=0.0,
            edge_weight_bytes=0.0,
            edge_act_bytes=0.0,
        )
        x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
        runner = run_tcp_session if case % 5 == 4 else run_split_session
        outs, transcript = runner(g, x, sol, want_transcript=True)
        want = reference_outputs(g, x, sol)
        assert len(outs) == len(want)
        for a, b in zip(outs, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        cut = boundary_cut(g, n)
        bits_map = crossing_bits_map(g, cut, sol.assignment.act_bits)
        assert [m["tensor_id"] for m in transcript] == list(cut.crossing_tensors)
        for m in transcript:
            assert m["payload_bytes"] == message_payload_bytes(
                g.nodes[m["tensor_id"]].act_elements(), bits_map[m["tensor_id"]]
            )
        sessions += 1
    assert sessions == 50
    print(
        "PASS transport: 1000 pack round-trips and 50 split sessions bit-identical, "
        "payload bytes equal the cost model"
    )


# -- 9. numerical guarantees ---------------------------------------------------------


def _bn_params(rng, c):
    return np.stack(
        [rng.uniform(0.5, 2, c), rng.uniform(-1, 1, c), rng.uniform(-1, 1, c), rng.uniform(0.2, 2, c)]
    ).astype(np.float32)


def _random_fold_chain(rng):
    cin = int(rng.integers(1, 4))
    cout = int(rng.integers(1, 5))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        op, wshape = "conv", (cout, cin, 3, 3)
        attrs = {"stride": 1, "pad": 1}
    elif kind == 1:
        op, wshape, cout = "depthwise_conv", (cin, 3, 3), cin
        attrs = {"stride": 1, "pad": 1}
    else:
        op, wshape = "pointwise_conv", (cout, cin, 1, 1)
        attrs = {}
    n0 = LayerNode(0, "input", out_shape=(cin, 5, 5))
    n1 = LayerNode(1, op, attrs=attrs, weight_shape=wshape, out_shape=(cout, 5, 5), inputs=[0])
    n1.weights = rng.standard_normal(wshape).astype(np.float32)
    if rng.integers(0, 2):
        n1.bias = rng.standard_normal(cout).astype(np.float32)
    n2 = LayerNode(2, "batchnorm", weight_shape=(4, cout), out_shape=(cout, 5, 5), inputs=[1])
    n2.weights = _bn_params(rng, cout)
    n3 = LayerNode(3, "relu", out_shape=(cout, 5, 5), inputs=[2])
    n4 = LayerNode(4, "global_pool", out_shape=(cout,), inputs=[3])
    return LayerGraph([n0, n1, n2, n3, n4]), cin


def test_numerical_guarantees_hold():
    rng = np.random.default_rng(41)

    folds = 0
    for _ in range(25):
        g, cin = _random_fold_chain(rng)
        og = optimize_graph(g)
        assert og.warnings == []
        for _ in range(4):
            x = rng.standard_normal((cin, 5, 5)).astype(np.float32)
            a = run_inference(g, x)[0]
            b = run_inference(og, x)[0]
            scale = max(float(np.max(np.abs(a))), 1e-12)
            assert float(np.max(np.abs(a - b))) / scale < 1e-5
            folds += 1

    ops = 0
    for _ in range(40):
        g = random_dag(rng, max_nodes=8)
        order = topological_order(g)
        x = rng.standard_normal(g.nodes[g.input_id].out_shape).astype(np.float32)
        vals = {g.input_id: x.astype(np.float64)}
        outs = run_inference(g, x)
        got = dict(zip(g.output_ids, outs))
        for nid in order[1:]:
            node = g.nodes[nid]
            ins = [vals[i] for i in node.inputs]
            if node.op_kind == "conv":
                ref = oracles.conv2d_scalar(ins[0], node.weights, node.bias,
                                            node.attrs.get("stride", 1), node.attrs.get("pad", 0))
            elif node.op_kind == "depthwise_conv":
                ref = oracles.depthwise2d_scalar(ins[0], node.weights, node.bias,
                                                 node.attrs.get("stride", 1), node.attrs.get("pad", 0))
            elif node.op_kind == "pointwise_conv":
                ref = oracles.conv2d_scalar(ins[0], node.weights, node.bias, 1, 0)
            elif node.op_kind == "fc":
                ref = oracles.fc_scalar(ins[0], node.weights, node.bias)
            elif node.op_kind == "global_pool":
                ref = oracles.global_pool_scalar(ins[0])
            elif node.op_kind == "batchnorm":
                ref = oracles.batchnorm_scalar(ins[0], node.weights, 1e-5)
            elif node.op_kind == "add":
                ref = np.sum(ins, axis=0)
            elif node.op_kind == "concat":
                ref = np.concatenate(ins, axis=0)
            else:  # relu
                ref = np.maximum(ins[0], 0.0)
            if node.fused_relu:
                ref = np.maximum(ref, 0.0)
            # mirror the executor's per-node float32 boundary so only the
            # within-node summation order can differ
            vals[nid] = np.asarray(ref, dtype=np.float32).astype(np.float64)
            if nid in got:
                scale = max(float(np.max(np.abs(vals[nid]))), 1e-12)
                assert float(np.max(np.abs(got[nid] - vals[nid]))) / scale < 1e-6
                ops += 1
    assert ops >= 40

    tables = violations = 0
    for _ in range(12):
        g = random_dag(rng, max_nodes=9)
        inputs = [grid_input_covering(rng, g.nodes[g.input_id].out_shape) for _ in range(3)]
        calib = calibrate_activations(g, inputs)
        wt = weight_distortion_table(g, (2, 4, 8))
        at = activation_distortion_table(g, calib, (1, 2, 4, 8))
        for table in (wt, at):
            tables += 1
            for i in table.layers():
                row = [table.d(i, b) for b in table.bits]
                tol = 1e-12 + 1e-9 * max(row)
                violations += sum(1 for a, b in zip(row, row[1:]) if b > a + tol)
    assert violations == 0
    print(
        "PASS numerics: %d fold checks < 1e-5 rel, %d op outputs < 1e-6 rel, "
        "%d distortion tables monotone with 0 violations" % (folds, ops, tables)
    )


# -- 10. determinism ------------------------------------------------------------------


def test_solver_reports_are_deterministic(tmp_path):
    demo = tmp_path / "demo"
    assert cli_main(["make-demo", "--out", str(demo), "--seed", "3", "--per-class", "3"]) == 0
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli_main(["solve", "--config", str(demo / "run.json"), "--out", str(out)])
        assert rc == 0
    names = ("solutions.csv", "tradeoff.csv", "selected.json", "summary.txt")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    print("PASS determinism: %d report files byte-identical across runs" % len(names))
