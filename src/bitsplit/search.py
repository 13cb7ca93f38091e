"""Joint split-point and bit-width search.

Pipeline: filter feasible split prefixes, then for each one sweep a grid of
(weight budget, activation budget) pairs anchored at uniform-bit totals. Each
budget is solved with per-layer Lagrangian rate-distortion allocation. A
layer's choice at a given multiplier does not depend on the split, so each
distortion table gets one multiplier path per `enumerate_solutions` call
(`MultiplierPath`), and every (n, weight anchor) and (n, activation anchor)
allocation is read from it; the number read stays within |P|*|B|^2 + |B|.
No bisection runs and no split is read on its own: one `MultiplierPath.read`
per table takes, for every (split, anchor) at once, the first probe whose
prefix measure fits, from arrays the path builds once. The kept candidates
of all splits are deduplicated on their width arrays and priced in one
`split_latencies` pass, from one latency table per (graph, profile). Each
plan holds its widths as read-only arrays behind node-id mappings
(`Widths`). The solution list always starts with the cloud-only sentinel,
so selection under an accuracy threshold cannot fail.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .cost import (
    PACKABLE_BITS,
    DeviceProfile,
    NetworkProfile,
    split_latencies,
    split_latency,
)
from .engine import evaluate_accuracy, float_accuracy
from .graph import LayerGraph, compute_working_sets
from .quantize import DistortionTable


class Widths(Mapping):
    """Read-only node id -> width mapping over a plan's width array.

    `array[k]` is the width of the k-th id of `position` (a dict from id to
    its index, shared by many plans, in index order); the mapping holds the
    first len(array) of them. Nothing is copied: indexing reads the array.
    """

    __slots__ = ("position", "array")

    def __init__(self, position: dict, array: np.ndarray):
        self.position = position
        self.array = array

    def __getitem__(self, nid) -> int:
        k = self.position[nid]
        if k >= len(self.array):
            raise KeyError(nid)
        return self.array.item(k)

    def __contains__(self, nid) -> bool:
        return self.position.get(nid, len(self.array)) < len(self.array)

    def __iter__(self):
        return itertools.islice(self.position, len(self.array))

    def __len__(self) -> int:
        return len(self.array)

    def values(self) -> list:
        return self.array.tolist()

    def items(self) -> list:
        return list(zip(self, self.array.tolist()))

    def __repr__(self) -> str:
        return "Widths(%r)" % self.items()


@dataclass(frozen=True)
class BitAssignment:
    """Each edge layer's weight and activation width, keyed by node id.
    Enumerated plans hold `Widths` views; dicts work as well."""

    weight_bits: Mapping
    act_bits: Mapping

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
    bits: Mapping  # the layers' widths in order, as `Widths`
    budget_used_bits: int = 0
    total_distortion: float = 0.0
    lam: float = 0.0
    reason: str = ""


# -- potential splits -----------------------------------------------------------


def tx_bits_at_min(g: LayerGraph, B):
    """The bits each split 0..N ships at the cheapest widths the wire can
    pack: the input at input_bits, every other crossing tensor at the
    smallest width of B in `PACKABLE_BITS`. One integer product of the
    graph's crossing counts (`g.liveness.crossing`) with those widths; None
    when B holds no packable width."""
    b_wire = min((b for b in B if b in PACKABLE_BITS), default=None)
    if b_wire is None:
        return None
    crossing = g.liveness.crossing
    widths = np.full(crossing.shape[1], b_wire, dtype=np.int64)
    widths[0] = g.input_bits
    return crossing @ widths


def potential_splits(g: LayerGraph, edge: DeviceProfile, net: NetworkProfile, M_bytes: int, B=None):
    """Split prefixes whose boundary, at the cheapest widths the wire can ship
    (`tx_bits_at_min`), beats raw-input transmission, and that fit memory at
    min(B). Without a packable width in B no split is admitted: no
    activation could cross the boundary.

    Each split's bits are divided by the uplink rate, and the round trip
    added, as `split_latencies` prices the wire."""
    B = tuple(B) if B else edge.supported_bits
    bits = tx_bits_at_min(g, B)
    if bits is None:
        return []
    tx_s = bits / net.uplink_bits_per_s + net.fixed_rtt_s
    fits = min(B) * (_weight_prefix(g) + np.array(g.liveness.peaks, dtype=np.int64)) <= M_bytes * 8
    return (np.flatnonzero(((tx_s <= tx_s[0]) & fits)[1:]) + 1).tolist()


def _weight_prefix(g: LayerGraph) -> np.ndarray:
    """`w[n]`: the weight elements of the first n compute layers."""
    return np.cumsum([0] + [g.nodes[i].weight_elements() for i in g.compute_ids()])


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

    Every measure is a prefix array built once per path, probes x splits:
    `rate[p, n]` and `dist[p, n]` are the n-prefix's rate and distortion
    (summed left to right from 0.0) at probe p, and the activation peaks
    (`prefix_peaks`, built on the first activation read) the largest
    bit-weighted working set of its first n steps. Rate and peak only fall
    as the probe grows, since a layer's choice only gets narrower as the
    multiplier grows, so the first fit is the first probe whose measure is
    within the budget. `read` takes it for any number of (split, budget)
    pairs in one array pass.
    """

    def __init__(self, table: DistortionTable, layer_ids):
        self.ids = list(layer_ids)
        self.bits = np.array(table.bits, dtype=np.int64)
        self.d = table.mse[np.array([table.row[i] for i in self.ids], dtype=np.intp)]
        self.r = np.array([table.sizes[i] for i in self.ids], dtype=np.int64)[:, None] * self.bits
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
        # accumulate adds left to right; builtin sum compensates on Python 3.12+
        self.dist = np.zeros((len(self.probes), len(self.ids) + 1), dtype=np.float64)
        np.add.accumulate(self.d[layers, self.choice], axis=1, out=self.dist[:, 1:])
        self.position = {i: k for k, i in enumerate(self.ids)}
        self._steps = None
        self._peaks = None
        self._crossing = {}

    def read(self, g: LayerGraph | None, splits, budgets) -> "PathReads":
        """The first fit at each of m (split, budget) pairs, in one pass:
        by rate when `g` is None, else by the peak working set of g's steps
        (the path's layers must then be g's compute layers, in order)."""
        splits = np.asarray(splits, dtype=np.intp).reshape(-1)
        budgets = np.asarray(budgets).reshape(-1)
        measure = self.rate if g is None else self.prefix_peaks(g)
        measure, dist = measure[:, splits], self.dist[:, splits]
        blocked, patched = {}, []
        if g is not None and self.packable_choice is not self.choice:
            for r, n in enumerate(splits.tolist()):
                fix = self._packable_crossing(g, n)
                if isinstance(fix, str):
                    blocked[r] = fix
                elif fix is not None:
                    columns, measure[:, r], dist[:, r] = fix
                    patched.append((r, columns))
        fits = measure <= budgets
        probe = fits.argmax(axis=0)
        feasible = fits[-1]
        feasible[list(blocked)] = False
        at = np.arange(len(splits))
        choice = self.choice[probe]
        for r, columns in patched:
            choice[r, columns] = self.packable_choice[probe[r], columns]
        widths = self.bits[choice]
        widths.flags.writeable = False
        return PathReads(
            path=self,
            splits=splits,
            budgets=budgets,
            feasible=feasible,
            probe=probe,
            used=measure[probe, at],
            distortion=dist[probe, at],
            widths=widths,
            reasons=blocked,
            reason="budget below minimum rate" if g is None else "infeasible even at minimum bits",
        )

    def step_bits(self, g: LayerGraph) -> np.ndarray:
        """`steps[p, s]`: the bit-weighted working set (`g.liveness.incidence`)
        of compute step s at probe p."""
        if self._steps is None:
            n = len(self.ids)
            widths = np.empty((n + 1, len(self.probes)), dtype=np.int64)  # positions x probes
            widths[0] = g.input_bits
            widths[1:] = self.bits[self.choice.T]
            # each working set summed over its live tensors only: a step
            # holds a few, and its own output keeps it non-empty
            incidence = g.liveness.incidence[:n, : n + 1]
            live = incidence != 0
            live[np.arange(n), np.arange(1, n + 1)] = True
            step, tensor = np.nonzero(live)
            terms = widths[tensor] * incidence[step, tensor][:, None]
            steps = np.add.reduceat(terms, np.searchsorted(step, np.arange(n)), axis=0) if n else terms
            self._steps = steps.T
        return self._steps

    def prefix_peaks(self, g: LayerGraph) -> np.ndarray:
        """`peaks[p, n]`: the largest of the first n `step_bits` at probe p,
        0 at n = 0."""
        if self._peaks is None:
            self._peaks = np.zeros((len(self.probes), len(self.ids) + 1), dtype=np.int64)
            np.maximum.accumulate(self.step_bits(g), axis=1, out=self._peaks[:, 1:])
        return self._peaks

    def _packable_crossing(self, g: LayerGraph, n: int):
        """Split n with the layers whose outputs cross its boundary held to
        the widths the wire can pack (`PACKABLE_BITS`): None when that
        changes nothing, the reason when the menu has no such width, else
        (their columns, peak, distortion) at every probe."""
        if n not in self._crossing:
            crossing = np.flatnonzero(g.liveness.crossing[n, 1 : n + 1]).tolist()
            if not crossing:
                fix = None
            elif self.packable_choice is None:
                fix = "no transportable width for tensor %d" % min(self.ids[k] for k in crossing)
            else:
                choice = self.choice[:, :n].copy()
                choice[:, crossing] = self.packable_choice[:, crossing]
                delta = self.bits[choice[:, crossing]] - self.bits[self.choice[:, crossing]]
                columns = [k + 1 for k in crossing]
                steps = self.step_bits(g)[:, :n] + delta @ g.liveness.incidence[:n, columns].T
                dist = np.add.accumulate(self.d[np.arange(n), choice], axis=1)[:, -1]
                fix = (crossing, steps.max(axis=1, initial=0), dist)
            self._crossing[n] = fix
        return self._crossing[n]


@dataclass(frozen=True)
class PathReads:
    """`MultiplierPath.read`'s first fits, one entry per (split, budget)
    pair: whether any probe fits, the first that does, its measure and
    distortion, and the path's widths there (the first `splits[r]` count)."""

    path: MultiplierPath
    splits: np.ndarray
    budgets: np.ndarray
    feasible: np.ndarray
    probe: np.ndarray
    used: np.ndarray
    distortion: np.ndarray
    widths: np.ndarray  # reads x layers, read-only
    reasons: dict  # read -> why its split cannot be allocated at all
    reason: str  # why any other infeasible read is

    def allocation(self, r: int) -> Allocation:
        n = int(self.splits[r])
        if not self.feasible[r]:
            return Allocation(feasible=False, bits=Widths(self.path.position, self.widths[r, :0]),
                              reason=self.reasons.get(r, self.reason))
        return Allocation(
            feasible=True,
            bits=Widths(self.path.position, self.widths[r, :n]),
            budget_used_bits=int(self.used[r]),
            total_distortion=float(self.distortion[r]),
            lam=float(self.path.probes[self.probe[r]]),
        )


def allocate_bits_lagrangian(table: DistortionTable, layer_ids, budget_bits: int) -> Allocation:
    """Largest-rate convex-hull point with total rate within the budget.

    Exact: the multiplier path visits every lower-hull point of the summed
    rate/distortion, and each layer's returned choice minimizes
    d_i(b) + lam*r_i(b) at the returned multiplier.
    """
    path = MultiplierPath(table, layer_ids)
    return path.read(None, [len(path.ids)], [budget_bits]).allocation(0)


def repair_activation_assignment(table, g, n, bits, budget_bits):
    """Lower bits until every step's bit-weighted working set fits the budget.

    At the first violating step, the live tensor with the largest current rate
    (ties to smaller id) that can still go lower is dropped one width. Returns
    the repaired bits dict or None when stuck. Unused: the allocator's sweep
    only returns choices that fit; the benchmark's tracer wraps it (ROADMAP item 1).
    """
    bits = dict(bits)
    working = compute_working_sets(g)[:n]
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
    return MultiplierPath(table, g.compute_ids()[:n]).read(g, [n], [budget_bits]).allocation(0)


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
    splits = np.array(P, dtype=np.intp)
    widths = np.array(B, dtype=np.int64)
    W = _weight_prefix(g)[splits, None] * widths  # splits x anchors
    A = np.array(g.liveness.peaks, dtype=np.int64)[splits, None] * widths
    room = M_bytes * 8
    pairs = W[:, :, None] + A[:, None, :] <= room  # splits x weight anchors x activation anchors
    # read only the anchors that fit M beside the other kind's smallest
    w_at = np.nonzero(W + A.min(axis=1, keepdims=True) <= room)
    a_at = np.nonzero(W.min(axis=1, keepdims=True) + A <= room)
    wr = wpath.read(None, splits[w_at[0]], W[w_at])
    ar = apath.read(g, splits[a_at[0]], A[a_at])
    stats.solve_count = len(wr.splits) + len(ar.splits)
    stats.pairs_tried = int(pairs.sum())

    # every pair within M reads both anchors; keep the feasible ones, each
    # (split, weight widths, activation widths) once, in pair order
    w_read = np.full(W.shape, -1)
    w_read[w_at] = np.arange(len(wr.splits))
    a_read = np.full(A.shape, -1)
    a_read[a_at] = np.arange(len(ar.splits))
    j, kw, ka = np.nonzero(pairs)
    rw, ra = w_read[j, kw], a_read[j, ka]
    ok = wr.feasible[rw] & ar.feasible[ra]
    rw, ra = rw[ok], ra[ok]
    w_keys, a_keys = _width_keys(wr), _width_keys(ar)
    seen, kept = set(), []
    for t, (n, r, s) in enumerate(zip(wr.splits[rw].tolist(), rw.tolist(), ra.tolist())):
        key = (n, w_keys[r], a_keys[s])
        if key not in seen:
            seen.add(key)
            kept.append(t)
    rw, ra = rw[kept], ra[kept]
    distortion = wr.distortion[rw] + ar.distortion[ra]
    if distortion_cap is not None:
        under = ~(distortion > distortion_cap)
        rw, ra, distortion = rw[under], ra[under], distortion[under]
    stats.pairs_kept = len(rw)

    # one pricing pass; each plan's widths are row views of these two arrays
    ns = wr.splits[rw]
    wbits, abits = wr.widths[rw], ar.widths[ra]
    wbits.flags.writeable = abits.flags.writeable = False
    breakdowns = split_latencies(g, ns, wbits, abits, edge, cloud, net)
    position = wpath.position
    for n, w, a, br, dist, wu, au in zip(
        ns.tolist(), wbits, abits, breakdowns, distortion.tolist(), wr.used[rw].tolist(), ar.used[ra].tolist()
    ):
        S.append(
            SplitSolution(
                n=n,
                assignment=BitAssignment(weight_bits=Widths(position, w[:n]), act_bits=Widths(position, a[:n])),
                breakdown=br,
                total_distortion=dist,
                edge_weight_bytes=wu / 8.0,
                edge_act_bytes=au / 8.0,
            )
        )
    if len(B) >= 2:
        assert stats.solve_count <= stats.solve_bound, "allocator call budget exceeded"
    return S, stats


def _width_keys(reads: PathReads) -> list:
    """Each feasible read's widths over its split as bytes, the dedup key
    (None when infeasible)."""
    return [
        row[:n].tobytes() if ok else None
        for row, n, ok in zip(reads.widths, reads.splits.tolist(), reads.feasible.tolist())
    ]


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
    """Best all-16-bit split by predicted latency (no quantization), ties to
    the smaller split; every split is priced in one `split_latencies` call."""
    N = len(g.compute_ids())
    full = np.full((N + 1, N), 16, dtype=np.int64)
    breakdowns = split_latencies(g, np.arange(N + 1), full, full, edge, cloud, net)
    n = min(range(N + 1), key=lambda n: breakdowns[n].total_s)
    return n, breakdowns[n]
