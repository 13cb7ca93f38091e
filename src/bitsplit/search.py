"""Joint split-point and bit-width search.

Pipeline: filter feasible split prefixes, then for each one sweep a grid of
(weight budget, activation budget) pairs anchored at uniform-bit totals. Each
budget is solved with per-layer Lagrangian rate-distortion allocation. A
layer's choice at a given multiplier does not depend on the split, so each
distortion table gets one multiplier path per `enumerate_solutions` call
(`MultiplierPath`), and every (n, weight anchor) and (n, activation anchor)
allocation is read from it; the number read stays within |P|*|B|^2 + |B|.
No bisection runs: each read takes the first probe whose measure, from
arrays the path builds once, fits the budget. The kept candidates of each
split are deduplicated on their width arrays and priced together by
`split_latencies`, from one latency table per (graph, profile). The
solution list always starts with the cloud-only sentinel, so selection
under an accuracy threshold cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import (
    PACKABLE_BITS,
    DeviceProfile,
    NetworkProfile,
    crossing_bits_map,
    split_latencies,
    split_latency,
    transmission_latency,
)
from .engine import evaluate_accuracy, float_accuracy
from .graph import LayerGraph, boundary_cut
from .quantize import DistortionTable


@dataclass(frozen=True)
class BitAssignment:
    weight_bits: dict
    act_bits: dict

    def total_bits(self) -> int:
        return sum(self.weight_bits.values()) + sum(self.act_bits.values())

    def key(self, prefix_ids) -> tuple:
        return tuple((self.weight_bits[i], self.act_bits[i]) for i in prefix_ids)


EMPTY_ASSIGNMENT = BitAssignment(weight_bits={}, act_bits={})


@dataclass
class SplitSolution:
    """One plan: the split, its bits, predicted latency, distortion and edge
    memory, and its accuracy drop once `select_solution` has measured it."""

    n: int
    assignment: BitAssignment
    breakdown: object
    total_distortion: float
    edge_weight_bytes: float
    edge_act_bytes: float
    accuracy_drop: float | None = None

    @property
    def is_sentinel(self) -> bool:
        return self.n == 0


@dataclass
class Allocation:
    feasible: bool
    bits: dict
    budget_used_bits: int = 0
    total_distortion: float = 0.0
    lam: float = 0.0
    reason: str = ""
    widths: np.ndarray | None = None  # the layers' widths in order, as `bits` holds them


# -- potential splits -----------------------------------------------------------


def min_wire_bits(g: LayerGraph, cut, B):
    """Bits per crossing tensor at the cheapest width the wire can ship it:
    `crossing_bits_map` with every activation at the smallest width in B
    that is also in `PACKABLE_BITS`. None when B holds no packable width."""
    b = min((b for b in B if b in PACKABLE_BITS), default=None)
    return None if b is None else crossing_bits_map(g, cut, dict.fromkeys(cut.crossing_tensors, b))


def potential_splits(g: LayerGraph, edge: DeviceProfile, net: NetworkProfile, M_bytes: int, B=None):
    """Split prefixes whose boundary, at the cheapest widths the wire can ship
    (`min_wire_bits`), beats raw-input transmission, and that fit memory at
    min(B). Without a packable width in B no split is admitted: cut 0 crosses
    only the input, so its `min_wire_bits` is the raw-input map, or None."""
    B = tuple(B) if B else edge.supported_bits
    cut0 = boundary_cut(g, 0)
    bits0 = min_wire_bits(g, cut0, B)
    if bits0 is None:
        return []
    T0 = transmission_latency(g, cut0, bits0, net)
    b_min = min(B)
    compute = g.compute_ids()
    peaks = g.liveness.peaks

    weights_prefix = 0
    out = []
    for n in range(1, len(compute) + 1):
        weights_prefix += g.nodes[compute[n - 1]].weight_elements()
        cut = boundary_cut(g, n)
        if transmission_latency(g, cut, min_wire_bits(g, cut, B), net) > T0:
            continue
        if b_min * (weights_prefix + peaks[n]) > M_bytes * 8:
            continue
        out.append(n)
    return out


# -- Lagrangian allocation ---------------------------------------------------------


def _probes(d, r):
    """One multiplier strictly inside each interval between breakpoints.

    A layer's choice, the argmin of d + lam*r over its widths, changes only
    where two of its points cost the same, at the breakpoints
    (d1 - d2) / (r2 - r1) (Shoham & Gersho, IEEE TASSP 1988). The probes are
    0 below the first breakpoint, the midpoints, and twice the last above
    it, so they visit every distinct choice of every layer and none sits on
    a breakpoint, where a float tie would decide. `d` and `r` are
    layers x widths, widths ascending.
    """
    k1, k2 = np.triu_indices(d.shape[1], 1)
    dd = d[:, k1] - d[:, k2]
    dr = r[:, k2] - r[:, k1]
    keep = (dr > 0) & (dd > 0)
    cuts = np.array(sorted(set((dd[keep] / dr[keep]).tolist())), dtype=np.float64)
    return np.concatenate([[0.0], 0.5 * (cuts[:-1] + cuts[1:]), 2.0 * cuts[-1:]])


class MultiplierPath:
    """One table's per-layer Lagrangian choices at every probe of its
    multiplier path (`_probes` over the breakpoints of all its layers).

    At a given multiplier each layer's choice does not depend on which
    other layers are allocated, and the probes of all layers refine the
    probes of any prefix of them. So the first probe of this path whose
    choices fit a prefix's budget lies in the same interval of the prefix's
    own breakpoints as the first fitting probe of the prefix alone: every
    (prefix, budget) allocation is read from one path with the same bits.
    A probe's choices tie to the smaller width (numpy's first minimum).
    Crossing tensors choose among the packable widths only; those widths'
    breakpoints are a subset of the full menu's.

    The measures are read from arrays built once per path: `rate[p, n]` is
    the n-prefix's rate at probe p, and the activation step bits (built on
    the first `activations` read) hold every compute step's bit-weighted
    working set at each probe. Both only fall as the probe grows, since a
    layer's choice only gets narrower as the multiplier grows, so the first
    fit is the first probe whose measure is within the budget.
    """

    def __init__(self, table: DistortionTable, layer_ids):
        self.ids = list(layer_ids)
        shape = (len(self.ids), len(table.bits))
        self.bits = np.array(table.bits, dtype=np.int64)
        self.d = np.array([[table.d(i, b) for b in table.bits] for i in self.ids], dtype=np.float64).reshape(shape)
        self.r = np.array([[table.r(i, b) for b in table.bits] for i in self.ids], dtype=np.int64).reshape(shape)
        self.probes = _probes(self.d, self.r)
        cost = self.probes[:, None, None] * self.r  # probes x layers x widths
        cost += self.d
        self.choice = cost.argmin(axis=2).astype(np.uint8)  # column indices: a menu holds a few widths
        packable = np.isin(self.bits, PACKABLE_BITS)
        if packable.all():
            self.packable_choice = self.choice
        else:
            cost[:, :, ~packable] = np.inf
            self.packable_choice = cost.argmin(axis=2).astype(np.uint8) if packable.any() else None
        layers = np.arange(len(self.ids))
        self.rate = np.zeros((len(self.probes), len(self.ids) + 1), dtype=np.int64)
        np.cumsum(self.r[layers, self.choice], axis=1, out=self.rate[:, 1:])
        self._position = {i: k for k, i in enumerate(self.ids)}
        self._step_bits = None

    def weights(self, n: int, budgets) -> list:
        """For each budget, the first n layers' choices at the first probe
        whose total rate is within it."""
        return self._read(self.choice[:, :n], self.rate[:, n], budgets, "budget below minimum rate")

    def activations(self, g: LayerGraph, n: int, budgets) -> list:
        """For each budget, the first n layers' choices at the first probe
        whose peak bit-weighted working set (`peak`) is within it. Without a
        packable width for a crossing tensor the split is infeasible."""
        read = self.peak(g, n)
        if read is None:
            tensor = min(c for c in g.liveness.cuts[n].crossing_tensors if c != g.input_id)
            return [Allocation(feasible=False, bits={}, reason="no transportable width for tensor %d" % tensor)
                    for _ in budgets]
        return self._read(*read, budgets, "infeasible even at minimum bits")

    def peak(self, g: LayerGraph, n: int):
        """(choices, peak) of the n-prefix at every probe: the peak bit-weighted
        working set (`g.liveness.incidence`) of its first n steps. A layer
        whose output crosses the boundary gets only widths the wire can pack
        (`PACKABLE_BITS`), which changes only those layers' columns; without
        one in the menu this returns None. The path's layers must be the
        graph's compute layers, in order."""
        if self._step_bits is None:
            widths = np.empty((len(self.probes), len(self.ids) + 1), dtype=np.int64)
            widths[:, 0] = g.input_bits
            widths[:, 1:] = self.bits[self.choice]
            self._step_bits = widths @ g.liveness.incidence[: len(self.ids), : len(self.ids) + 1].T
        choice = self.choice[:, :n]
        steps = self._step_bits[:, :n]
        if self.packable_choice is not self.choice:
            crossing = [self._position[c] for c in g.liveness.cuts[n].crossing_tensors if c != g.input_id]
            if crossing:
                if self.packable_choice is None:
                    return None
                choice = choice.copy()
                choice[:, crossing] = self.packable_choice[:, crossing]
                delta = self.bits[choice[:, crossing]] - self.bits[self.choice[:, crossing]]
                columns = [k + 1 for k in crossing]
                steps = steps + delta @ g.liveness.incidence[:n, columns].T
        return choice, steps.max(axis=1, initial=0)

    def _read(self, choice, measure, budgets, reason) -> list:
        """The allocation at the first probe whose measure is within each
        budget. The measure only falls along the path, so none fits unless
        the last probe does."""
        out = []
        n = choice.shape[1]
        for budget in budgets:
            fits = measure <= budget
            if not fits[-1]:
                out.append(Allocation(feasible=False, bits={}, reason=reason))
                continue
            p = int(fits.argmax())
            widths = self.bits[choice[p]]
            # left to right from 0.0: builtin sum compensates on Python 3.12+
            distortion = np.add.accumulate(self.d[np.arange(n), choice[p]])
            out.append(
                Allocation(
                    feasible=True,
                    bits=dict(zip(self.ids, widths.tolist())),
                    budget_used_bits=int(measure[p]),
                    total_distortion=float(distortion[-1]) if n else 0.0,
                    lam=float(self.probes[p]),
                    widths=widths,
                )
            )
        return out


def allocate_bits_lagrangian(table: DistortionTable, layer_ids, budget_bits: int) -> Allocation:
    """Largest-rate convex-hull point with total rate within the budget.

    Exact: the multiplier path visits every lower-hull point of the summed
    rate/distortion, and each layer's returned choice minimizes
    d_i(b) + lam*r_i(b) at the returned multiplier.
    """
    path = MultiplierPath(table, layer_ids)
    return path.weights(len(path.ids), [budget_bits])[0]


def repair_activation_assignment(table, g, n, bits, budget_bits):
    """Lower bits until every step's bit-weighted working set fits the budget.

    At the first violating step, the live tensor with the largest current rate
    (ties to smaller id) that can still go lower is dropped one width. Returns
    the repaired bits dict or None when stuck. Unused: the allocator's sweep
    only returns choices that fit; the benchmark's tracer wraps it (ROADMAP 4b).
    """
    bits = dict(bits)
    working = g.liveness.working_sets[:n]
    ladder = {b: i for i, b in enumerate(table.bits)}
    while True:
        violating = None
        for ws in working:
            step_bits = sum(
                e * (g.input_bits if nid == g.input_id else bits[nid]) for nid, e in ws.live_tensors
            )
            if step_bits > budget_bits:
                violating = ws
                break
        if violating is None:
            return bits
        candidates = [
            (nid, e)
            for nid, e in violating.live_tensors
            if nid != g.input_id and ladder[bits[nid]] > 0
        ]
        if not candidates:
            return None
        victim = max(candidates, key=lambda t: (t[1] * bits[t[0]], -t[0]))[0]
        bits[victim] = table.bits[ladder[bits[victim]] - 1]


def allocate_activation_bits(table: DistortionTable, g: LayerGraph, n: int, budget_bits: int) -> Allocation:
    """Per-layer Lagrangian choices with feasibility measured on the true
    constraint: the peak bit-weighted working set of the edge prefix. A layer
    whose output crosses the boundary gets only widths the wire can pack
    (`PACKABLE_BITS`); without one in the menu the split is infeasible."""
    return MultiplierPath(table, g.compute_ids()[:n]).activations(g, n, [budget_bits])[0]


# -- enumeration -------------------------------------------------------------------


@dataclass
class SearchStats:
    potential: list
    solve_count: int
    solve_bound: int
    pairs_tried: int
    pairs_kept: int


def enumerate_solutions(
    g: LayerGraph,
    order,
    wtable: DistortionTable,
    atable: DistortionTable,
    edge: DeviceProfile,
    cloud: DeviceProfile,
    net: NetworkProfile,
    M_bytes: int,
    B=None,
    distortion_cap: float | None = None,
):
    """All feasible (split, bit assignment) candidates plus the sentinel.

    Returns (solutions, stats); the sentinel is always first. Each solution's
    edge memory is what its two allocations measured, and fits the budget
    because their budgets do. That holds only when the weight table's sizes
    are the graph's, so a mismatched table raises ValueError. `order` is
    unused; it keeps its slot because the benchmark passes it (ROADMAP item 1).
    """
    B = tuple(B) if B else edge.supported_bits
    compute = g.compute_ids()
    for i in compute:
        if wtable.sizes.get(i) != g.nodes[i].weight_elements():
            raise ValueError(
                "weight table size %s for layer %d differs from its %d weight elements"
                % (wtable.sizes.get(i), i, g.nodes[i].weight_elements())
            )

    sentinel = SplitSolution(
        n=0,
        assignment=EMPTY_ASSIGNMENT,
        breakdown=split_latency(g, 0, EMPTY_ASSIGNMENT, edge, cloud, net),
        total_distortion=0.0,
        edge_weight_bytes=0.0,
        edge_act_bytes=0.0,
        accuracy_drop=0.0,
    )
    S = [sentinel]

    P = potential_splits(g, edge, net, M_bytes, B)
    stats = SearchStats(
        potential=P,
        solve_count=0,
        solve_bound=len(P) * len(B) ** 2 + len(B),
        pairs_tried=0,
        pairs_kept=0,
    )

    wpath = MultiplierPath(wtable, compute)
    apath = MultiplierPath(atable, compute)
    peaks = g.liveness.peaks
    w_cum = np.cumsum([0] + [g.nodes[i].weight_elements() for i in compute])
    room = M_bytes * 8
    seen = set()
    for n in P:
        w_total = int(w_cum[n])
        w_anchors = [w_total * b for b in B]
        a_anchors = [peaks[n] * b for b in B]
        # read only the anchors that fit M beside the other kind's smallest
        w_read = [k for k, W in enumerate(w_anchors) if W + min(a_anchors) <= room]
        a_read = [k for k, A in enumerate(a_anchors) if min(w_anchors) + A <= room]
        walloc = dict(zip(w_read, wpath.weights(n, [w_anchors[k] for k in w_read])))
        aalloc = dict(zip(a_read, apath.activations(g, n, [a_anchors[k] for k in a_read])))
        stats.solve_count += len(walloc) + len(aalloc)
        kept = []
        for kw, Wk in enumerate(w_anchors):
            for ka, Ak in enumerate(a_anchors):
                if Wk + Ak > room:
                    continue
                stats.pairs_tried += 1
                wa, aa = walloc[kw], aalloc[ka]
                if not (wa.feasible and aa.feasible):
                    continue
                key = (n, wa.widths.tobytes(), aa.widths.tobytes())
                if key in seen:
                    continue
                seen.add(key)
                distortion = wa.total_distortion + aa.total_distortion
                if distortion_cap is not None and distortion > distortion_cap:
                    continue
                kept.append((wa, aa, distortion))
        if not kept:
            continue
        wbits = np.array([wa.widths for wa, _, _ in kept])
        abits = np.array([aa.widths for _, aa, _ in kept])
        for (wa, aa, distortion), breakdown in zip(kept, split_latencies(g, n, wbits, abits, edge, cloud, net)):
            S.append(
                SplitSolution(
                    n=n,
                    assignment=BitAssignment(weight_bits=dict(wa.bits), act_bits=dict(aa.bits)),
                    breakdown=breakdown,
                    total_distortion=distortion,
                    edge_weight_bytes=wa.budget_used_bits / 8.0,
                    edge_act_bytes=aa.budget_used_bits / 8.0,
                )
            )
        stats.pairs_kept += len(kept)
    if len(B) >= 2:
        assert stats.solve_count <= stats.solve_bound, "allocator call budget exceeded"
    return S, stats


# -- selection ---------------------------------------------------------------------


def solution_sort_key(sol: SplitSolution, compute_ids):
    return (
        sol.breakdown.total_s,
        sol.n,
        sol.assignment.total_bits(),
        sol.assignment.key(compute_ids[: sol.n]),
    )


def select_solution(S, g, eval_set, A_percent: float, base_acc: float | None = None) -> SplitSolution:
    """First solution in predicted-latency order whose measured accuracy drop
    stays within A. Each drop measured is recorded on its solution in S, and
    a solution that already carries one is not measured again. The
    sentinel's drop is 0 by definition, so this returns."""
    if not any(s.is_sentinel for s in S):
        raise ValueError("solution list is missing the cloud-only sentinel")
    compute = g.compute_ids()
    threshold = A_percent / 100.0 + 1e-9
    for sol in sorted(S, key=lambda s: solution_sort_key(s, compute)):
        if sol.is_sentinel:
            sol.accuracy_drop = 0.0
        elif sol.accuracy_drop is None:
            if base_acc is None:
                base_acc = float_accuracy(g, eval_set)
            sol.accuracy_drop = base_acc - evaluate_accuracy(g, eval_set, sol.n, sol.assignment)
        if sol.accuracy_drop <= threshold:
            return sol
    raise AssertionError("unreachable: sentinel always qualifies")


def float_baseline(g, edge, cloud, net):
    """Best all-16-bit split by predicted latency (no quantization)."""
    compute = g.compute_ids()
    best = None
    for n in range(0, len(compute) + 1):
        assignment = BitAssignment(
            weight_bits={i: 16 for i in compute[:n]},
            act_bits={i: 16 for i in compute[:n]},
        )
        br = split_latency(g, n, assignment, edge, cloud, net)
        key = (br.total_s, n)
        if best is None or key < best[0]:
            best = (key, n, br)
    return best[1], best[2]
