from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

import oracles
from bitsplit import cost, search
from bitsplit.engine import EvalSet, calibrate_activations
from bitsplit.graph import (
    LayerGraph,
    LayerNode,
    boundary_cut,
    compute_working_sets,
    optimize_graph,
    topological_order,
)
from bitsplit.quantize import DistortionTable, activation_distortion_table, weight_distortion_table
from bitsplit.search import (
    BitAssignment,
    Widths,
    allocate_activation_bits,
    allocate_bits_lagrangian,
    enumerate_solutions,
    float_baseline,
    potential_splits,
    repair_activation_assignment,
    select_solution,
)
from bitsplit.synth import TOY_MEMORY_BYTES, make_eval_set, make_toy_classifier, resnet50_shapes
from bitsplit.wire import PACKABLE_BITS, reference_outputs, run_split_session
from helpers import (
    grid_input_covering,
    measure_all,
    random_dag,
    random_grid_input,
    table1_profiles,
    toy_profiles,
    uniform_assignment,
)


def test_assignment_helpers():
    a = BitAssignment(weight_bits={1: 2, 2: 8, 3: 2}, act_bits={1: 4, 2: 4, 3: 8})
    assert a.total_bits() == 12 + 16
    assert a.key([1, 3]) == ((2, 4), (2, 8))
    # the same plan as width arrays behind node-id views over layers 1..4
    position = {1: 0, 2: 1, 3: 2, 4: 3}
    v = BitAssignment(
        weight_bits=Widths(position, np.array([2, 8, 2])),
        act_bits=Widths(position, np.array([4, 4, 8])),
    )
    assert v == a and v.weight_bits == a.weight_bits and a.act_bits == v.act_bits
    assert v.total_bits() == 12 + 16
    assert v.key([1, 3]) == ((2, 4), (2, 8)) and v.key([1, 2, 3]) == a.key([1, 2, 3])
    assert type(v.weight_bits[2]) is int and list(v.act_bits.items()) == [(1, 4), (2, 4), (3, 8)]
    assert 3 in v.act_bits and 4 not in v.act_bits and v.act_bits.get(4) is None
    for missing in (4, 5):
        with pytest.raises(KeyError):
            v.weight_bits[missing]
        with pytest.raises(KeyError):
            v.key([1, missing])


# -- candidate split filtering ---------------------------------------------------------


def test_potential_splits_on_toy(toy_graph):
    edge, cloud, net = toy_profiles()
    P = potential_splits(toy_graph, edge, net, TOY_MEMORY_BYTES, B=(2, 4, 8))
    # the first conv inflates 256 input elements to 2048, so even 2-bit
    # transmission there loses to shipping the 8-bit input
    assert P == [2, 3, 4, 5, 6]


def test_potential_splits_memory_filter(toy_graph):
    edge, cloud, net = toy_profiles()
    P = potential_splits(toy_graph, edge, net, 100, B=(2, 4, 8))
    assert P == []  # 100 bytes cannot hold any prefix even at 2 bits
    P8 = potential_splits(toy_graph, edge, net, 10**9, B=(8,))
    assert P8  # huge memory admits the transmission-driven set


def test_potential_splits_transmission_rule(toy_graph):
    # every crossing tensor is priced as the wire ships it (the input at
    # input_bits, any other at the smallest packable width in B), memory at
    # min(B), and a menu without a packable width admits no split
    rng = np.random.default_rng(31)
    edge, cloud, net = toy_profiles()
    graphs = [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=10) for _ in range(20)]
    input_crossings = 0
    for g in graphs:
        order = topological_order(g)
        compute = g.compute_ids()
        N = len(compute)
        peak = max(g.liveness.peaks)
        weights = sum(g.nodes[i].weight_elements() for i in compute)
        M_tight = max(1, (weights + peak) * 3 // 8)
        input_crossings += sum(g.input_id in oracles.cut_ids(g, order, n) for n in range(1, N + 1))
        for B in ((2, 4, 8), (3, 8), (2, 4, 8, 16), (3, 16)):
            for M in (10**9, M_tight):
                want = oracles.potential_splits_naive(g, order, net, M, B)
                assert potential_splits(g, edge, net, M, B=B) == want
    assert input_crossings > 0  # the input-at-input_bits rule was exercised
    # at 8 bits, the only packable width of (3, 8), splits 2 and 4 of the
    # toy classifier cost more to send than the raw input
    assert not {2, 4} & set(potential_splits(toy_graph, edge, net, 10**9, B=(3, 8)))


# -- Lagrangian allocation vs exhaustive search ------------------------------------------


def test_lagrangian_matches_exhaustive_on_hull():
    # steep realistic decay: hull-membership cases must be solved exactly
    rng = np.random.default_rng(42)
    checked = hull_hits = 0
    for _ in range(200):
        table = oracles.random_table(rng)
        ids = table.layers()
        budget = oracles.random_budget(rng, table)
        alloc = allocate_bits_lagrangian(table, ids, budget)
        best = oracles.exhaustive_alloc(table, ids, budget)
        assert alloc.feasible == (best is not None)
        if best is None:
            continue
        checked += 1
        d_star, r_star, _ = best
        rate = sum(table.r(i, alloc.bits[i]) for i in ids)
        dist = sum(table.d(i, alloc.bits[i]) for i in ids)
        assert rate <= budget
        assert alloc.budget_used_bits == rate
        assert alloc.total_distortion == pytest.approx(dist)
        assert dist >= d_star - 1e-12  # cannot beat the optimum
        hull = oracles.lower_hull_vertices(oracles.aggregate_points(table, ids))
        if (r_star, d_star) in hull:
            hull_hits += 1
            assert dist <= d_star * (1 + 1e-9) + 1e-15
    assert checked > 100
    assert hull_hits > checked // 2  # the generator mostly produces hull optima


def test_lagrangian_returns_hull_points():
    # every returned allocation is itself a vertex of the lower hull
    rng = np.random.default_rng(17)
    for _ in range(120):
        table = oracles.random_table(rng)
        ids = table.layers()
        budget = oracles.random_budget(rng, table)
        alloc = allocate_bits_lagrangian(table, ids, budget)
        if not alloc.feasible:
            continue
        rate = sum(table.r(i, alloc.bits[i]) for i in ids)
        dist = sum(table.d(i, alloc.bits[i]) for i in ids)
        hull = oracles.lower_hull_vertices(oracles.aggregate_points(table, ids))
        assert (rate, dist) in hull


def test_lagrangian_gap_bounded_on_dense_tables():
    # when each layer carries a similar share and steps are shallow, landing
    # off the hull costs at most a few percent
    rng = np.random.default_rng(11)
    offhull = 0
    for _ in range(300):
        table = oracles.dense_hull_table(rng)
        ids = table.layers()
        budget = oracles.random_budget(rng, table)
        alloc = allocate_bits_lagrangian(table, ids, budget)
        best = oracles.exhaustive_alloc(table, ids, budget)
        assert alloc.feasible == (best is not None)
        if best is None:
            continue
        d_star, r_star, _ = best
        dist = sum(table.d(i, alloc.bits[i]) for i in ids)
        hull = oracles.lower_hull_vertices(oracles.aggregate_points(table, ids))
        if (r_star, d_star) in hull:
            assert dist <= d_star * (1 + 1e-9) + 1e-15
        else:
            offhull += 1
            assert dist <= d_star * 1.10
    assert offhull > 20  # the bound is actually exercised


def test_lagrangian_edge_budgets():
    rng = np.random.default_rng(43)
    table = oracles.random_table(rng, max_layers=4)
    ids = table.layers()
    rmax = sum(table.r(i, 8) for i in ids)
    top = allocate_bits_lagrangian(table, ids, rmax)
    assert top.feasible and all(b == 8 for b in top.bits.values())
    assert top.lam == 0.0
    rmin = sum(table.r(i, 2) for i in ids)
    floor = allocate_bits_lagrangian(table, ids, rmin)
    assert floor.feasible
    assert sum(table.r(i, floor.bits[i]) for i in ids) <= rmin
    infeasible = allocate_bits_lagrangian(table, ids, rmin - 1)
    assert not infeasible.feasible and infeasible.reason


def test_lagrangian_empty_layer_list():
    rng = np.random.default_rng(44)
    table = oracles.random_table(rng)
    alloc = allocate_bits_lagrangian(table, [], 0)
    assert alloc.feasible and alloc.bits == {} and alloc.total_distortion == 0.0


def test_lagrangian_weightless_layers_cost_nothing():
    # a zero-size layer has zero rate at every width, so it never eats budget
    d = {(0, 2): 0.0, (0, 4): 0.0, (0, 8): 0.0, (1, 2): 4.0, (1, 4): 1.0, (1, 8): 0.1}
    table = DistortionTable("w", (2, 4, 8), {0: 0, 1: 10}, d)
    alloc = allocate_bits_lagrangian(table, [0, 1], 40)
    assert alloc.feasible
    assert alloc.bits[1] == 4  # 80 bits would blow the budget
    assert table.r(0, alloc.bits[0]) == 0


# Layer 0's largest multiplier breakpoint is 5e29 and all of layer 1's lie
# below 1e-9: 64 halvings down from 5e29 cannot tell those apart, while the
# breakpoint sweep probes between every pair.
WIDE_D = {(0, 2): 1e30, (0, 4): 1.0, (0, 8): 0.0, (1, 2): 1e-9, (1, 4): 1e-12, (1, 8): 0.0}


def test_lagrangian_exact_across_wide_breakpoints():
    table = DistortionTable("w", (2, 4, 8), {0: 1, 1: 1}, WIDE_D)
    alloc = allocate_bits_lagrangian(table, [0, 1], 12)
    assert alloc.bits == {0: 8, 1: 4}
    assert alloc.budget_used_bits == 12
    assert alloc.total_distortion == 1e-12


# -- activation allocation under the working-set constraint --------------------------------


def _act_setup(rng, max_nodes=8):
    g = random_dag(rng, max_nodes=max_nodes)
    order = topological_order(g)
    inputs = [random_grid_input(rng, g.nodes[g.input_id].out_shape) for _ in range(2)]
    calib = calibrate_activations(g, inputs)
    table = activation_distortion_table(g, calib, (2, 4, 8))
    return g, order, table


def test_activation_allocation_respects_peak():
    rng = np.random.default_rng(51)
    for _ in range(15):
        g, order, table = _act_setup(rng)
        compute = g.compute_ids()
        n = int(rng.integers(1, len(compute) + 1))
        floor_peak = oracles.act_peak_bits_brute(g, order, n, {i: 2 for i in compute[:n]}, g.input_bits)
        top_peak = oracles.act_peak_bits_brute(g, order, n, {i: 8 for i in compute[:n]}, g.input_bits)
        for budget in {floor_peak - 1, floor_peak, (floor_peak + top_peak) // 2, top_peak}:
            alloc = allocate_activation_bits(table, g, n, budget_bits=budget)
            if budget < floor_peak:
                assert not alloc.feasible
                continue
            assert alloc.feasible
            peak = oracles.act_peak_bits_brute(g, order, n, alloc.bits, g.input_bits)
            assert peak <= budget
            assert alloc.budget_used_bits == peak
            best = oracles.exhaustive_act_alloc(table, g, order, n, budget)
            assert best is not None
            assert alloc.total_distortion >= best[0] - 1e-12


def test_activation_allocation_single_layer_optimal():
    rng = np.random.default_rng(52)
    for _ in range(10):
        g, order, table = _act_setup(rng, max_nodes=6)
        top_peak = oracles.act_peak_bits_brute(g, order, 1, {order[1]: 8}, g.input_bits)
        mid = top_peak - 1
        alloc = allocate_activation_bits(table, g, 1, budget_bits=mid)
        best = oracles.exhaustive_act_alloc(table, g, order, 1, mid)
        assert alloc.feasible == (best is not None)
        if best is not None:
            assert alloc.total_distortion == pytest.approx(best[0])


def test_activation_allocation_exact_across_wide_breakpoints():
    # input -> relu 1 -> relu 2, one element each: the peak is max(8 + b1, b1 + b2)
    nodes = [
        LayerNode(id=0, op_kind="input", out_shape=(1,)),
        LayerNode(id=1, op_kind="relu", out_shape=(1,), inputs=[0]),
        LayerNode(id=2, op_kind="relu", out_shape=(1,), inputs=[1]),
    ]
    g = LayerGraph(nodes, input_bits=8)
    order = topological_order(g)
    d = {(1, 2): 1e-9, (1, 4): 1e-12, (1, 8): 0.0, (2, 2): 1e30, (2, 4): 1.0, (2, 8): 0.0}
    table = DistortionTable("a", (2, 4, 8), {1: 1, 2: 1}, d)
    alloc = allocate_activation_bits(table, g, n=2, budget_bits=12)
    assert alloc.bits == {1: 4, 2: 8}
    assert alloc.bits == oracles.exhaustive_act_alloc(table, g, order, 2, 12)[1]


def test_activation_allocation_ships_only_packable_widths(toy_graph):
    compute = toy_graph.compute_ids()
    n = 3
    crossing = [i for i in boundary_cut(toy_graph, n).crossing_tensors if i in compute]
    sizes = {i: toy_graph.nodes[i].act_elements() for i in compute}
    # 16 bits is lossless and the budget unbounded: only the wire holds it back
    d = {(i, b): float(16 - b) for i in compute for b in (4, 16)}
    alloc = allocate_activation_bits(DistortionTable("a", (4, 16), sizes, d), toy_graph, n, budget_bits=1 << 40)
    assert alloc.feasible
    assert crossing and all(alloc.bits[i] == 4 for i in crossing)
    assert all(alloc.bits[i] == 16 for i in compute[:n] if i not in crossing)

    d = {(i, b): 0.0 for i in compute for b in (3, 16)}
    alloc = allocate_activation_bits(DistortionTable("a", (3, 16), sizes, d), toy_graph, n, budget_bits=1 << 40)
    assert not alloc.feasible and "transportable" in alloc.reason


def test_repair_lowers_heaviest_live_tensor(toy_graph):
    order = topological_order(toy_graph)
    compute = toy_graph.compute_ids()
    sizes = {i: toy_graph.nodes[i].act_elements() for i in compute}
    d = {(i, b): float(8 - b) for i in compute for b in (2, 4, 8)}
    table = DistortionTable("a", (2, 4, 8), sizes, d)
    n = 3
    bits = {i: 8 for i in compute[:n]}
    start = oracles.act_peak_bits_brute(toy_graph, order, n, bits, toy_graph.input_bits)
    budget = start - 1  # just below the all-8 peak
    repaired = repair_activation_assignment(table, toy_graph, n, bits, budget)
    assert repaired is not None
    assert oracles.act_peak_bits_brute(toy_graph, order, n, repaired, toy_graph.input_bits) <= budget
    assert all(repaired[i] <= bits[i] for i in repaired)

    def step_bits(k):
        total = 0
        for i in oracles.live_ids(toy_graph, order, k):
            b = toy_graph.input_bits if i == toy_graph.input_id else 8
            total += toy_graph.nodes[i].act_elements() * b
        return total

    # first victim: largest current-rate live tensor at the first violating step
    k0 = next(k for k in range(1, n + 1) if step_bits(k) == start)
    live0 = [i for i in oracles.live_ids(toy_graph, order, k0) if i != toy_graph.input_id]
    expected = max(live0, key=lambda i: (toy_graph.nodes[i].act_elements() * 8, -i))
    assert repaired[expected] < 8


def test_repair_gives_up_when_floor_violates(toy_graph):
    compute = toy_graph.compute_ids()
    sizes = {i: toy_graph.nodes[i].act_elements() for i in compute}
    d = {(i, b): 0.0 for i in compute for b in (2, 4, 8)}
    table = DistortionTable("a", (2, 4, 8), sizes, d)
    bits = {i: 2 for i in compute[:2]}
    assert repair_activation_assignment(table, toy_graph, 2, bits, 10) is None


# -- enumeration -------------------------------------------------------------------------


def test_enumerate_sentinel_first_and_memory_safe(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S, stats = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    assert S[0].is_sentinel and S[0].accuracy_drop == 0.0 and S[0].n == 0
    assert len(S) > 1
    assert stats.pairs_kept == len(S) - 1
    assert stats.solve_count <= stats.solve_bound
    seen = set()
    compute = toy_graph.compute_ids()
    for sol in S[1:]:
        key = (sol.n, sol.assignment.key(compute[: sol.n]))
        assert key not in seen
        seen.add(key)
        wb = oracles.weight_bits_brute(toy_graph, order, sol.n, sol.assignment.weight_bits)
        ab = oracles.act_peak_bits_brute(
            toy_graph, order, sol.n, sol.assignment.act_bits, toy_graph.input_bits
        )
        assert wb + ab <= TOY_MEMORY_BYTES * 8
        assert sol.edge_weight_bytes == wb / 8.0
        assert sol.edge_act_bytes == ab / 8.0
        assert sol.n in stats.potential


def test_enumerate_rejects_a_weight_table_of_another_graph(toy_graph, toy_tables):
    # the emitted memory is what the weight allocator measured on the table,
    # so a table whose sizes are not the graph's could emit a plan that overflows
    edge, cloud, net = toy_profiles()
    wtable, atable = toy_tables
    i = next(i for i in toy_graph.compute_ids() if wtable.sizes[i])
    for sizes in ({**wtable.sizes, i: wtable.sizes[i] - 1}, {j: s for j, s in wtable.sizes.items() if j != i}):
        d = {(j, b): wtable.d(j, b) for j in sizes for b in wtable.bits}
        bad = DistortionTable("w", wtable.bits, sizes, d)
        with pytest.raises(ValueError, match="weight table size .* layer %d" % i):
            enumerate_solutions(
                toy_graph, topological_order(toy_graph), bad, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
            )


def test_enumerate_is_deterministic(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables

    def run():
        S, _ = enumerate_solutions(
            toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
        )
        return [(s.n, s.assignment.key(toy_graph.compute_ids()[: s.n]),
                 s.breakdown.total_s, s.total_distortion) for s in S]

    assert run() == run()


def test_enumerate_distortion_cap(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S_all, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    dists = sorted(s.total_distortion for s in S_all[1:])
    cap = dists[len(dists) // 2]
    S_cap, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8),
        distortion_cap=cap,
    )
    assert all(s.total_distortion <= cap for s in S_cap[1:])
    assert len(S_cap) < len(S_all)


def test_enumerate_tiny_memory_leaves_sentinel(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S, stats = enumerate_solutions(toy_graph, order, wtable, atable, edge, cloud, net, 10, B=(2, 4, 8))
    assert len(S) == 1 and S[0].is_sentinel
    assert stats.potential == []


def _graph_tables(rng, g, B):
    compute = g.compute_ids()
    wtable = oracles.sized_table(rng, "w", {i: g.nodes[i].weight_elements() for i in compute}, B)
    atable = oracles.sized_table(rng, "a", {i: g.nodes[i].act_elements() for i in compute}, B)
    return wtable, atable


def _prefix_sweep(kind, table, g, order, steps, n, budget):
    """The naive reference for one (prefix, budget) allocation: a sweep over
    the prefix's own breakpoints, with crossing activations restricted to
    packable widths and the peak summed over the oracle's live sets."""
    prefix = g.compute_ids()[:n]
    if kind == "weights":
        return oracles.sweep_alloc(
            oracles.table_points(table, prefix), lambda bits: sum(table.r(i, bits[i]) for i in prefix), budget
        )
    points = oracles.table_points(table, prefix)
    for i in set(prefix) & set(oracles.cut_ids(g, order, n)):
        points[i] = [p for p in points[i] if p[0] in PACKABLE_BITS]

    def peak(bits):
        return max(
            sum(g.nodes[j].act_elements() * (g.input_bits if j == g.input_id else bits[j]) for j in live)
            for live in steps[:n]
        )

    return oracles.sweep_alloc(points, peak, budget)


def _record_reads(monkeypatch):
    """Every (kind, path, reads) `MultiplierPath.read` returns: all first
    fits go through it, the one-split reads included."""
    reads = []
    real = search.MultiplierPath.read

    def record(self, g, splits, budgets):
        out = real(self, g, splits, budgets)
        reads.append(("weights" if g is None else "activations", self, out))
        return out

    monkeypatch.setattr(search.MultiplierPath, "read", record)
    return reads


def _check_reads(reads, wtable, atable, g, order, steps):
    """Each read equals the per-prefix sweep; returns how many were feasible."""
    feasible = 0
    for kind, path, out in reads:
        table = wtable if kind == "weights" else atable
        for r, (n, budget) in enumerate(zip(out.splits.tolist(), out.budgets.tolist())):
            alloc = out.allocation(r)
            want = _prefix_sweep(kind, table, g, order, steps, n, budget)
            assert alloc.feasible == (want is not None)
            if want is None:
                continue
            feasible += 1
            assert alloc.bits == want[0]
            assert alloc.budget_used_bits == want[1]
            distortion = 0.0  # left to right: builtin sum compensates on Python 3.12+
            for i in g.compute_ids()[:n]:
                distortion += table.d(i, alloc.bits[i])
            assert alloc.total_distortion == distortion
            assert alloc.lam in path.probes
    return feasible


@pytest.mark.parametrize("B", [(2, 4, 8), (3, 8), (2, 4, 8, 16)])
def test_every_enumerated_allocation_equals_a_per_prefix_sweep(toy_graph, B, monkeypatch):
    # (3, 8) leaves crossing tensors a one-point menu; 16 is not packable
    reads = _record_reads(monkeypatch)
    edge, cloud, net = toy_profiles()
    edge = replace(edge, supported_bits=B)
    rng = np.random.default_rng(71)
    graphs = [("toy", toy_graph), ("resnet50", resnet50_shapes()[0])]
    graphs += [("random", random_dag(rng, max_nodes=12)) for _ in range(24)]
    checked = 0
    feasible = Counter()
    for label, g in graphs:
        order = topological_order(g)
        compute = g.compute_ids()
        steps = [oracles.live_ids(g, order, k) for k in range(1, len(order))]
        wtable, atable = _graph_tables(rng, g, B)
        full = sum(g.nodes[i].weight_elements() for i in compute) + max(
            sum(g.nodes[j].act_elements() for j in live) for live in steps
        )
        for M in (full // 2, 4 * full):
            reads.clear()
            S, stats = enumerate_solutions(g, order, wtable, atable, edge, cloud, net, M, B=B)
            assert sum(len(out.splits) for *_, out in reads) == stats.solve_count
            checked += stats.solve_count
            feasible[label] += _check_reads(reads, wtable, atable, g, order, steps)
    assert set(feasible) == {"toy", "resnet50", "random"}
    assert checked > sum(feasible.values())  # infeasible budgets were read too


@pytest.mark.parametrize("B", [(2, 4, 8), (3, 8), (2, 4, 8, 16)])
def test_enumerated_prices_and_paths_match_oracles(toy_graph, B, monkeypatch):
    # every breakdown equals the naive left-to-right pricing, and every
    # path's measures fall as the probe grows: the premise that makes the
    # first probe within a budget the bisection's answer. Its distortion
    # only grows, since a layer's choice only narrows.
    reads = _record_reads(monkeypatch)
    edge, cloud, net = toy_profiles()
    edge = replace(edge, supported_bits=B)
    rng = np.random.default_rng(73)
    graphs = [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=12) for _ in range(12)]
    priced = 0
    for g in graphs:
        order = topological_order(g)
        wtable, atable = _graph_tables(rng, g, B)
        reads.clear()
        S, _ = enumerate_solutions(g, order, wtable, atable, edge, cloud, net, 10**9, B=B)
        for sol in S:
            want = oracles.split_latency_naive(g, order, sol.n, sol.assignment, edge, cloud, net)
            assert astuple(sol.breakdown) == want
        priced += len(S) - 1
        paths = {id(path): (kind, path) for kind, path, _ in reads}
        for kind, path in paths.values():
            assert (np.diff(path.rate, axis=0) <= 0).all()
            assert (np.diff(path.dist, axis=0) >= 0).all()
            if kind == "activations":
                assert (np.diff(path.prefix_peaks(g), axis=0) <= 0).all()
                fresh = search.MultiplierPath(atable, path.ids)  # read nothing yet
                for n in range(len(path.ids) + 1):  # crossing layers held to packable widths
                    fix = path._packable_crossing(g, n)
                    again = fresh._packable_crossing(g, n)
                    if fix is None or isinstance(fix, str):
                        assert again == fix
                    else:
                        assert (np.diff(fix[1]) <= 0).all() and (np.diff(fix[2]) >= 0).all()
                        assert again[0] == fix[0] and np.array_equal(again[1], fix[1]) and np.array_equal(again[2], fix[2])
    assert priced > 0


def _widen_worse(table, layer):
    """`table` with `layer`'s 8-bit distortion above its 4-bit one."""
    d = {(i, b): table.d(i, b) for i in table.layers() for b in table.bits}
    d[(layer, 8)] = 2.0 * d[(layer, 4)]
    return DistortionTable(table.kind, table.bits, table.sizes, d)


def test_tables_whose_distortion_rises_with_width_are_solved_exactly(toy_graph, monkeypatch):
    edge, cloud, net = toy_profiles()
    B = (2, 4, 8)
    # the 4th draw holds a 1x1 conv with one input channel whose weights
    # quantize closer at 4 bits than at 8; its table once refused the graph
    rng = np.random.default_rng(2)
    g = optimize_graph([random_dag(rng, max_nodes=12) for _ in range(4)][-1])
    wtable = weight_distortion_table(g, B)
    assert any(wtable.d(i, 8) > wtable.d(i, 4) for i in wtable.layers())
    x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
    atable = activation_distortion_table(g, calibrate_activations(g, [x]), B)
    S, _ = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, 10**9, B=B)
    plan = select_solution(S, g, EvalSet(inputs=[x], labels=[0]), 1.0)
    # every cut ships more than the raw input, so the plan is cloud-only
    in_elems = g.nodes[g.input_id].act_elements()
    assert all(boundary_cut(g, n).cut_elements > in_elems for n in range(1, len(g.compute_ids()) + 1))
    assert plan.is_sentinel
    plans = [(g, x, plan)]

    # on the toy graph, layer 4 (a conv whose output crosses splits 2 and 3)
    # pays more distortion at 8 bits than at 4 in both tables
    order = topological_order(toy_graph)
    steps = [oracles.live_ids(toy_graph, order, k) for k in range(1, len(order))]
    wtable, atable = (_widen_worse(t, 4) for t in _graph_tables(np.random.default_rng(72), toy_graph, B))
    reads = _record_reads(monkeypatch)
    S, _ = enumerate_solutions(toy_graph, order, wtable, atable, edge, cloud, net, 10**6, B=B)
    assert _check_reads(reads, wtable, atable, toy_graph, order, steps) > 0
    assert len(S) > 1
    for sol in S[1:]:
        assert 8 not in (sol.assignment.weight_bits.get(4), sol.assignment.act_bits.get(4))
    assert any(8 in sol.assignment.weight_bits.values() for sol in S)  # other layers still get 8
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    plans += [(toy_graph, x, sol) for sol in S]

    for g, x, sol in plans:
        got = run_split_session(g, x, sol)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in reference_outputs(g, x, sol)]


def test_enumerate_prices_each_edge_layer_once_and_never_rechecks_memory(monkeypatch):
    g, _ = resnet50_shapes()
    compute = g.compute_ids()
    edge, cloud, net = table1_profiles()
    B = (2, 4, 8)
    wtable, atable = _graph_tables(np.random.default_rng(0), g, B)
    memory_calls = []
    for module in (cost, search):
        if hasattr(module, "activation_memory_bits"):
            monkeypatch.setattr(module, "activation_memory_bits", lambda *a: memory_calls.append(a))
    for _ in range(2):  # the second call reads the same (graph, profile) tables
        S, stats = enumerate_solutions(g, topological_order(g), wtable, atable, edge, cloud, net, 32 << 20, B=B)
        assert len(S) > 100
        assert stats.solve_count <= stats.solve_bound
    assert cost.latency_table(g, edge).edge.shape == (len(compute), len(B) + 1, len(B) + 1)
    assert not memory_calls


# -- per-graph arrays -----------------------------------------------------------------


def test_a_second_enumeration_reads_no_weight_elements(monkeypatch):
    # the graph holds its weight prefix, so the size check, the split filter
    # and the weight anchors of a later call read it, not the layers
    g, _ = resnet50_shapes()
    edge, cloud, net = table1_profiles()
    wtable, atable = _graph_tables(np.random.default_rng(5), g, (2, 4, 8))
    read = []
    real = LayerNode.weight_elements

    def weight_elements(self):
        read.append(self.id)
        return real(self)

    monkeypatch.setattr(LayerNode, "weight_elements", weight_elements)
    enumerate_solutions(g, None, wtable, atable, edge, cloud, net, 8 << 20, B=(2, 4, 8))
    assert read
    read.clear()
    S, _ = enumerate_solutions(g, None, wtable, atable, edge, cloud, net, 32 << 20, B=(2, 4, 8))
    assert len(S) > 100 and read == []
    with pytest.raises(ValueError, match="weight table size"):
        enumerate_solutions(g, None, atable, atable, edge, cloud, net, 32 << 20, B=(2, 4, 8))


@pytest.mark.parametrize("B", [(2, 4, 8), (3, 8), (2, 4, 8, 16), (1, 2, 3, 4, 8)])
def test_a_path_keeps_the_first_probe_of_each_run_of_equal_choices(toy_graph, B):
    # the reference: numpy's argmin over every width at every probe of
    # `_probes`, and over the packable widths alone for crossing tensors.
    # A table with NaN cells is included: argmin takes the first NaN.
    rng = np.random.default_rng(31)
    packable = np.isin(B, PACKABLE_BITS)
    for g in [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=12) for _ in range(10)]:
        wtable, atable = _graph_tables(rng, g, B)
        d = {(i, b): atable.d(i, b) for i in atable.layers() for b in atable.bits}
        d.update((key, float("nan")) for key in list(d)[::3])
        for table in (wtable, atable, DistortionTable("a", atable.bits, atable.sizes, d)):
            path = search.MultiplierPath(table, g.compute_ids())
            probes = search._probes(path.d, path.r)
            cost = probes[:, None, None] * path.r + path.d
            choice = cost.argmin(axis=2)
            cost[:, :, ~packable] = np.inf
            held = cost.argmin(axis=2)
            rows = np.hstack([choice, held])
            first = [0] + [p for p in range(1, len(probes)) if (rows[p] != rows[p - 1]).any()]
            assert path.probes.tolist() == probes[first].tolist()
            assert path.choice.tolist() == choice[first].tolist()
            if not packable.any():
                assert path.packable_choice is None
            else:
                assert path.packable_choice.tolist() == held[first].tolist()


@pytest.mark.parametrize("B", [(2, 4, 8), (3, 8), (2, 4, 8, 16)])
def test_step_bits_equal_each_probe_summed_alone(toy_graph, B):
    # a path sums every working set at its first probe and then adds each
    # width change; summing each probe's widths over the incidence is the
    # reference
    rng = np.random.default_rng(29)
    for g in [toy_graph, resnet50_shapes()[0]] + [random_dag(rng, max_nodes=12) for _ in range(10)]:
        _, atable = _graph_tables(rng, g, B)
        path = search.MultiplierPath(atable, g.compute_ids())
        n = len(path.ids)
        steps = path.step_bits(g)
        assert steps.shape == (len(path.probes), n) and steps.dtype == np.int64
        for p, choice in enumerate(path.choice):
            widths = [g.input_bits] + [path.bits[k] for k in choice.tolist()]
            want = [sum(int(e) * w for e, w in zip(row, widths)) for row in g.liveness.incidence[:n, : n + 1]]
            assert steps[p].tolist() == want


# -- selection ----------------------------------------------------------------------------


def test_sort_key_orders_by_latency_then_simplicity(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    compute = toy_graph.compute_ids()
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    keys = [oracles.solution_sort_key(s, compute) for s in sorted(S, key=lambda s: oracles.solution_sort_key(s, compute))]
    assert keys == sorted(keys)
    totals = [k[0] for k in keys]
    assert totals == sorted(totals)


def test_select_requires_sentinel(toy_graph, toy_eval):
    with pytest.raises(ValueError, match="sentinel"):
        select_solution([], toy_graph, toy_eval, 1.0)


def test_select_falls_back_to_sentinel_when_nothing_qualifies(toy_graph, toy_eval, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    # preset measurements say every real split fails the accuracy bar
    for s in S[1:]:
        s.accuracy_drop = 1.0
    chosen = select_solution(S, toy_graph, toy_eval, 0.0)
    assert chosen.is_sentinel
    assert chosen.accuracy_drop == 0.0


def test_select_prefers_fastest_qualifier(toy_graph, toy_eval, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    compute = toy_graph.compute_ids()
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    for s in S[1:]:
        s.accuracy_drop = 0.0
    chosen = select_solution(S, toy_graph, toy_eval, 0.0)
    best = min(S, key=lambda s: oracles.solution_sort_key(s, compute))
    assert oracles.solution_sort_key(chosen, compute)[:2] == oracles.solution_sort_key(best, compute)[:2]


def test_select_records_drops_on_solutions(toy_graph, toy_eval, toy_tables, monkeypatch):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    a = select_solution(S, toy_graph, toy_eval, 5.0)
    assert a in S  # the chosen solution itself, not a copy
    measured = [s for s in S[1:] if s.accuracy_drop is not None]
    assert measured and a.accuracy_drop is not None

    def no_eval(*args):
        raise AssertionError("a recorded drop was measured again")

    monkeypatch.setattr(search, "evaluate_accuracy", no_eval)
    b = select_solution(S, toy_graph, toy_eval, 5.0)
    assert b is a
    assert [s for s in S[1:] if s.accuracy_drop is not None] == measured


def test_measure_all_fills_every_drop(toy_graph, toy_eval, toy_tables):
    edge, cloud, net = toy_profiles()
    order = topological_order(toy_graph)
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(
        toy_graph, order, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8)
    )
    measured = measure_all(S, toy_graph, toy_eval)
    assert all(s.accuracy_drop is not None for s in measured)
    assert measured[0].accuracy_drop == 0.0


def test_float_baseline_is_min_over_splits(toy_graph):
    edge, cloud, net = toy_profiles()
    compute = toy_graph.compute_ids()
    n_star, br_star = float_baseline(toy_graph, edge, cloud, net)
    from bitsplit.cost import split_latency

    breakdowns = []
    for n in range(len(compute) + 1):
        asg = uniform_assignment(toy_graph, n, 16, 16)
        breakdowns.append(split_latency(toy_graph, n, asg, edge, cloud, net))
    totals = [br.total_s for br in breakdowns]
    assert n_star == totals.index(min(totals))  # ties to the smaller split
    assert br_star == breakdowns[n_star]


def test_enumerate_on_random_graphs_memory_safe():
    rng = np.random.default_rng(61)
    edge, cloud, net = toy_profiles()
    for _ in range(6):
        g = random_dag(rng, max_nodes=8)
        order = topological_order(g)
        inputs = [random_grid_input(rng, g.nodes[g.input_id].out_shape) for _ in range(2)]
        calib = calibrate_activations(g, inputs)
        wtable = weight_distortion_table(g, (2, 4, 8))
        atable = activation_distortion_table(g, calib, (2, 4, 8))
        compute = g.compute_ids()
        w_total = sum(g.nodes[i].weight_elements() for i in compute)
        peak = max(ws.total_elements for ws in compute_working_sets(g))
        M = max(1, int((w_total + peak) * rng.uniform(0.3, 1.2)))
        S, _ = enumerate_solutions(g, order, wtable, atable, edge, cloud, net, M, B=(2, 4, 8))
        assert S[0].is_sentinel
        for sol in S[1:]:
            wb = oracles.weight_bits_brute(g, order, sol.n, sol.assignment.weight_bits)
            ab = oracles.act_peak_bits_brute(g, order, sol.n, sol.assignment.act_bits, g.input_bits)
            assert wb + ab <= M * 8


# -- the plan set --------------------------------------------------------------------------


def _enumerated_sets():
    """(graph, set, profiles) triples: the toy graph and the ResNet-50
    shapes at two budgets each, and seeded random DAGs, with synthetic
    tables."""
    rng = np.random.default_rng(81)
    toy = optimize_graph(make_toy_classifier(0))
    out = []
    for g, profiles, budgets in [(toy, toy_profiles(), (TOY_MEMORY_BYTES, 10**6)),
                                 (resnet50_shapes()[0], table1_profiles(), (8 << 20, 32 << 20))]:
        wtable, atable = _graph_tables(rng, g, (2, 4, 8))
        out += [(g, enumerate_solutions(g, None, wtable, atable, *profiles, M, B=(2, 4, 8))[0], profiles)
                for M in budgets]
    for _ in range(12):
        g = random_dag(rng, max_nodes=12)
        wtable, atable = _graph_tables(rng, g, (2, 4, 8))
        S = enumerate_solutions(g, None, wtable, atable, *toy_profiles(), 10**9, B=(2, 4, 8))[0]
        out.append((g, S, toy_profiles()))
    return out


def _oracle_order(S, g):
    compute = g.compute_ids()
    return sorted(range(len(S)), key=lambda r: oracles.solution_sort_key(S[r], compute))


def test_the_lexsort_order_is_the_sort_key_order():
    ties = 0
    for g, S, _ in _enumerated_sets():
        assert S.order().tolist() == _oracle_order(S, g)
        ties += len(S) - len(set(S.total_s.tolist()))
        # every total tied with another row's, at other splits and widths
        rows = list(S)
        tied = [replace(s, breakdown=replace(s.breakdown, total_s=float(k % 3))) for k, s in enumerate(rows)]
        assert search.PlanSet.from_solutions(g, tied).order().tolist() == _oracle_order(tied, g)
        ties += len(tied) - 3
    assert ties > 0


def test_split_latencies_columns_equal_split_latency():
    for g, S, (edge, cloud, net) in _enumerated_sets():
        columns = cost.split_latencies(g, S.n, S.weight_bits, S.act_bits, edge, cloud, net)
        assert all(c.dtype == np.float64 and c.shape == (len(S),) for c in columns)
        for r, sol in enumerate(S):
            want = astuple(cost.split_latency(g, sol.n, sol.assignment, edge, cloud, net))
            assert tuple(c.item(r) for c in columns) == want == astuple(sol.breakdown)


def test_split_latencies_refuse_only_a_live_width_the_device_cannot_run(toy_graph):
    edge, cloud, net = toy_profiles()
    N = len(toy_graph.compute_ids())
    widths = np.full((3, N), 2, dtype=np.int64)
    widths[:, 2:] = [[3], [40], [-1]]  # past split 2: never read
    cost.split_latencies(toy_graph, 2, widths, widths, edge, cloud, net)
    for bad in (3, 40, -1, 0):
        widths[1, 1] = bad
        with pytest.raises(cost.ConfigError, match="unsupported bit-width %d" % bad):
            cost.split_latencies(toy_graph, 2, widths, widths, edge, cloud, net)


def test_plan_set_rows_are_built_once_and_kept(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    wtable, atable = toy_tables
    S, _ = enumerate_solutions(toy_graph, None, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8))
    assert len(S) > 3 and S[0].is_sentinel and S[0].accuracy_drop == 0.0
    assert S[0].assignment == search.EMPTY_ASSIGNMENT and S.recorded_drop(0) == 0.0
    assert S.recorded_drop(2) is None
    S[2].accuracy_drop = 0.25
    assert S[2] is S[2] is S[-len(S) + 2] and S.recorded_drop(2) == 0.25
    assert all(a is b for a, b in zip(S[1:], list(S)[1:])) and S[::2][1] is S[2]
    assert S[2].assignment.weight_bits.array.base is not None  # a view of the set's width row
    with pytest.raises(IndexError):
        S[len(S)]
    with pytest.raises(ValueError):
        S.n[0] = 1


def test_a_solve_builds_only_the_sentinel_and_the_rows_it_reaches(tmp_path, monkeypatch):
    from bitsplit.cli import main

    built, measured = [], []
    real_solution, real_evaluate = search.SplitSolution, search.evaluate_accuracy

    def spy_solution(*args, **kwargs):
        built.append(real_solution(*args, **kwargs))
        return built[-1]

    def spy_evaluate(g, eval_set, n, assignment):
        measured.append((n, assignment))
        return real_evaluate(g, eval_set, n, assignment)

    monkeypatch.setattr(search, "SplitSolution", spy_solution)
    monkeypatch.setattr(search, "evaluate_accuracy", spy_evaluate)
    demo = tmp_path / "demo"
    assert main(["make-demo", "--out", str(demo), "--seed", "0", "--per-class", "4"]) == 0
    assert main(["solve", "--config", str(demo / "run.json"), "--out", str(tmp_path / "report")]) == 0
    rows = (tmp_path / "report" / "solutions.csv").read_text().splitlines()[1:]
    assert built[0].is_sentinel and [(s.n, s.assignment) for s in built[1:]] == measured
    assert 0 < len(measured) < len(rows) - 1  # most plans were never built
    assert sum(1 for r in rows if r.split(",")[-1]) == len(built)  # each built row, and only those, has a drop


def test_a_plain_list_selects_the_same_plan(toy_graph, toy_tables):
    edge, cloud, net = toy_profiles()
    wtable, atable = toy_tables
    eval_set = make_eval_set(per_class=2, seed=3, noise=60)

    def enumerate_set():
        return enumerate_solutions(toy_graph, None, wtable, atable, edge, cloud, net, TOY_MEMORY_BYTES, B=(2, 4, 8))[0]

    for A in (0.0, 5.0, 50.0):
        want = select_solution(enumerate_set(), toy_graph, eval_set, A)
        plans = list(enumerate_set())
        got = select_solution(plans, toy_graph, eval_set, A)
        assert any(got is p for p in plans)
        assert repr(got) == repr(want)
        reversed_plans = plans[::-1]
        for p in reversed_plans:
            p.accuracy_drop = None
        assert repr(select_solution(reversed_plans, toy_graph, eval_set, A)) == repr(want)
