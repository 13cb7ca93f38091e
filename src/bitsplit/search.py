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
`split_latencies` pass, from one latency table per (graph, profile).

The plans stay columns (`PlanSet`): splits, width arrays, latency,
distortion and memory, one row per plan, the cloud-only sentinel first, so
selection under an accuracy threshold cannot fail. Selection orders the rows
with one `np.lexsort` and builds a plan's record (`SplitSolution`, its
widths `Widths` views over the rows) only for the rows it reaches.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping, Sequence
from dataclasses import astuple, dataclass

import numpy as np

from .cost import (
    PACKABLE_BITS,
    DeviceProfile,
    LatencyBreakdown,
    NetworkProfile,
    split_latencies,
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


class PlanSet(Sequence):
    """Every plan of one enumeration as columns, one row per plan, read-only.

    `n[r]` is row r's split. `weight_bits[r]` and `act_bits[r]` are its
    widths over the compute layers in order, of which the first n[r] are the
    plan's. `edge_s`, `transmit_s`, `cloud_s`, `total_s` and `relative_s`
    are its predicted latency (`split_latencies`), `distortion` its summed
    distortion, and `weight_bytes` and `act_bytes` its edge memory.

    Indexing builds row r's `SplitSolution`, its widths `Widths` views over
    the rows, on first access and keeps it: `S[r] is S[r]`, and a drop
    recorded on it stays. Slices are lists of the same objects. An
    enumerated set holds the cloud-only sentinel at row 0, built at once;
    `from_solutions` makes a set whose rows are given solutions.
    """

    def __init__(self, position, n, weight_bits, act_bits, latency, distortion, weight_bytes, act_bytes, rows=None):
        self.position = position  # compute id -> its column
        self.n = n
        self.weight_bits = weight_bits
        self.act_bits = act_bits
        self.latency = latency
        self.edge_s, self.transmit_s, self.cloud_s, self.total_s, self.relative_s = latency
        self.distortion = distortion
        self.weight_bytes = weight_bytes
        self.act_bytes = act_bytes
        for column in (n, weight_bits, act_bits, *latency, distortion, weight_bytes, act_bytes):
            column.flags.writeable = False
        if rows is None:
            rows = {0: SplitSolution(0, EMPTY_ASSIGNMENT, self.breakdown(0), 0.0, 0.0, 0.0, accuracy_drop=0.0)}
        self._rows = rows
        self._order = None

    @classmethod
    def from_solutions(cls, g: LayerGraph, solutions) -> "PlanSet":
        """The set whose rows, in order, are `solutions` themselves."""
        compute = g.compute_ids()
        n = np.array([s.n for s in solutions], dtype=np.intp)
        wbits = np.zeros((len(n), len(compute)), dtype=np.int64)
        abits = np.zeros_like(wbits)
        for r, s in enumerate(solutions):
            wbits[r, : s.n] = [s.assignment.weight_bits[i] for i in compute[: s.n]]
            abits[r, : s.n] = [s.assignment.act_bits[i] for i in compute[: s.n]]
        floats = np.array(
            [astuple(s.breakdown) + (s.total_distortion, s.edge_weight_bytes, s.edge_act_bytes) for s in solutions],
            dtype=np.float64,
        ).reshape(-1, 8).T
        return cls({i: k for k, i in enumerate(compute)}, n, wbits, abits, tuple(floats[:5]), *floats[5:],
                   rows=dict(enumerate(solutions)))

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, r):
        if isinstance(r, slice):
            return [self[k] for k in range(*r.indices(len(self)))]
        r = operator.index(r)
        if not -len(self) <= r < len(self):
            raise IndexError("plan %d of %d" % (r, len(self)))
        r %= len(self)
        sol = self._rows.get(r)
        if sol is None:
            n = self.n.item(r)
            sol = self._rows[r] = SplitSolution(
                n=n,
                assignment=BitAssignment(
                    weight_bits=Widths(self.position, self.weight_bits[r, :n]),
                    act_bits=Widths(self.position, self.act_bits[r, :n]),
                ),
                breakdown=self.breakdown(r),
                total_distortion=self.distortion.item(r),
                edge_weight_bytes=self.weight_bytes.item(r),
                edge_act_bytes=self.act_bytes.item(r),
            )
        return sol

    def breakdown(self, r: int) -> LatencyBreakdown:
        return LatencyBreakdown(*(c.item(r) for c in self.latency))

    def recorded_drop(self, r: int):
        """Row r's measured accuracy drop; None when it has none or was never built."""
        sol = self._rows.get(r)
        return None if sol is None else sol.accuracy_drop

    def order(self) -> np.ndarray:
        """Row indices in selection order: by total latency, then split,
        then total bits, then the (weight, activation) widths layer by
        layer. Rows of one split have widths of one length, so the widths
        compare as the plans' key tuples do. `np.lexsort` is stable, so
        full ties keep row order."""
        if self._order is None:
            live = np.arange(self.weight_bits.shape[1]) < self.n[:, None]
            widths = np.empty((2 * live.shape[1], len(self)), dtype=np.int64)  # interleaved, layer by layer
            widths[0::2] = np.where(live, self.weight_bits, 0).T
            widths[1::2] = np.where(live, self.act_bits, 0).T
            self._order = np.lexsort((*widths[::-1], widths.sum(axis=0), self.n, self.total_s))
        return self._order


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
    fits = min(B) * (g.weight_prefix + np.array(g.liveness.peaks, dtype=np.int64)) <= M_bytes * 8
    return (np.flatnonzero(((tx_s <= tx_s[0]) & fits)[1:]) + 1).tolist()


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
    cuts = np.sort(dd[keep] / dr[keep])
    first = np.ones(len(cuts), dtype=bool)  # each cut once (np.unique on floats imports numpy.ma)
    first[1:] = cuts[1:] > cuts[:-1]
    cuts = cuts[first]
    return np.concatenate([[0.0], 0.5 * (cuts[:-1] + cuts[1:]), 2.0 * cuts[-1:]])


def _first_minimum(probes, d, r, columns):
    """`choice[l, p]`: the first of `columns` (ascending) at which layer l's
    d + probe*r is least, as numpy's argmin ties; layers x probes."""
    rf = r.astype(np.float64)  # the cast numpy makes for int64 * float64
    d = np.where(np.isnan(d), -np.inf, d)  # argmin takes the first NaN as the least
    best = rf[:, columns[0], None] * probes + d[:, columns[0], None]
    choice = np.full(best.shape, columns[0], dtype=np.uint8)  # column indices: a menu holds a few widths
    for k in columns[1:]:
        cost = rf[:, k, None] * probes + d[:, k, None]
        less = cost < best
        np.copyto(best, cost, where=less)
        choice[less] = k
    return choice


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
    breakpoints are a subset of the full menu's. A probe whose choices, in
    either menu, equal the previous probe's measures the same, so no first
    fit lands on it and the path keeps only the first probe of each run.

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
        probes = _probes(self.d, self.r)
        columns = range(len(self.bits))
        packable = [k for k in columns if table.bits[k] in PACKABLE_BITS]
        choice = _first_minimum(probes, self.d, self.r, columns)  # layers x probes
        # crossing tensors' choices, when the packable widths are fewer
        held = _first_minimum(probes, self.d, self.r, packable) if 0 < len(packable) < len(columns) else None
        # a probe whose choices equal its predecessor's measures the same, so
        # no first fit lands on it: keep the first probe of each run
        keep = np.ones(len(probes), dtype=bool)
        keep[1:] = (choice[:, 1:] != choice[:, :-1]).any(axis=0)
        if held is not None:
            keep[1:] |= (held[:, 1:] != held[:, :-1]).any(axis=0)
        self.probes = probes[keep]
        choice = choice[:, keep]
        self.choice = np.ascontiguousarray(choice.T)  # probes x layers: a read takes rows
        if not packable:
            self.packable_choice = None
        elif held is None:
            self.packable_choice = self.choice
        else:
            self.packable_choice = np.ascontiguousarray(held[:, keep].T)
        # each prefix summed down the layers, contiguous rows of a layers x probes array
        cell = choice + np.arange(len(self.ids))[:, None] * len(self.bits)
        rows = (len(self.ids) + 1, len(self.probes))
        self.rate = np.zeros(rows, dtype=np.int64)
        np.cumsum(self.r.take(cell), axis=0, out=self.rate[1:])
        # accumulate adds left to right; builtin sum compensates on Python 3.12+
        self.dist = np.zeros(rows, dtype=np.float64)
        np.add.accumulate(self.d.take(cell), axis=0, out=self.dist[1:])
        self.rate, self.dist = self.rate.T, self.dist.T  # probes x splits
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
        measure = measure.T[splits]  # reads x probes
        blocked, patched = {}, []
        if g is not None and self.packable_choice is not self.choice:
            for r, n in enumerate(splits.tolist()):
                fix = self._packable_crossing(g, n)
                if isinstance(fix, str):
                    blocked[r] = fix
                elif fix is not None:
                    columns, measure[r], dist = fix
                    patched.append((r, columns, dist))
        fits = measure <= budgets[:, None]
        probe = fits.argmax(axis=1)
        feasible = fits[:, -1]
        feasible[list(blocked)] = False
        distortion = self.dist[probe, splits]
        choice = self.choice[probe]
        for r, columns, dist in patched:
            distortion[r] = dist[probe[r]]
            choice[r, columns] = self.packable_choice[probe[r], columns]
        widths = self.bits.take(choice)
        widths.flags.writeable = False
        return PathReads(
            path=self,
            splits=splits,
            budgets=budgets,
            feasible=feasible,
            probe=probe,
            used=measure[np.arange(len(splits)), probe],
            distortion=distortion,
            widths=widths,
            reasons=blocked,
            reason="budget below minimum rate" if g is None else "infeasible even at minimum bits",
        )

    def step_bits(self, g: LayerGraph) -> np.ndarray:
        """`steps[p, s]`: the bit-weighted working set (`g.liveness.incidence`)
        of compute step s at probe p."""
        if self._steps is None:
            n = len(self.ids)
            incidence = g.liveness.incidence[:n, : n + 1]
            # every step summed once at probe 0; after that a layer's width
            # changes at a few probes only (once per move down its menu), and
            # each change moves every working set that holds its output
            p, k = np.divmod(np.flatnonzero(np.diff(self.choice, axis=0)), n)
            change = self.bits.take(self.choice[p + 1, k]) - self.bits.take(self.choice[p, k])
            sums = np.empty((len(p) + 1, n), dtype=np.int64)
            sums[0] = incidence @ np.concatenate([[g.input_bits], self.bits.take(self.choice[0])])
            np.cumsum(change[:, None] * incidence.T[k + 1], axis=0, out=sums[1:])
            sums[1:] += sums[0]
            self._steps = sums[np.searchsorted(p, np.arange(len(self.probes)))]  # the changes before each probe
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
    for i, e in zip(compute, np.diff(g.weight_prefix).tolist()):
        if wtable.sizes.get(i) != e:
            raise ValueError(
                "weight table size %s for layer %d differs from its %d weight elements"
                % (wtable.sizes.get(i), i, e)
            )

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
    W = g.weight_prefix[splits, None] * widths  # splits x anchors
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
    w_ids, a_ids = _width_ids(wr), _width_ids(ar)
    kept = np.unique(w_ids[rw] * (len(ar.splits) + 1) + a_ids[ra], return_index=True)[1]
    kept.sort()
    rw, ra = rw[kept], ra[kept]
    distortion = wr.distortion[rw] + ar.distortion[ra]
    if distortion_cap is not None:
        under = ~(distortion > distortion_cap)
        rw, ra, distortion = rw[under], ra[under], distortion[under]
    stats.pairs_kept = len(rw)

    # one pricing pass over every plan, the sentinel first: it splits at 0,
    # so none of its widths is read, and it has no distortion or edge memory
    ns = np.concatenate([[0], wr.splits[rw]])
    wbits = np.zeros((len(ns), len(compute)), dtype=np.int64)
    abits = np.zeros_like(wbits)
    np.take(wr.widths, rw, axis=0, out=wbits[1:])
    np.take(ar.widths, ra, axis=0, out=abits[1:])
    S = PlanSet(
        wpath.position,
        ns,
        wbits,
        abits,
        split_latencies(g, ns, wbits, abits, edge, cloud, net),
        np.concatenate([[0.0], distortion]),
        np.concatenate([[0.0], wr.used[rw] / 8.0]),
        np.concatenate([[0.0], ar.used[ra] / 8.0]),
    )
    if len(B) >= 2:
        assert stats.solve_count <= stats.solve_bound, "allocator call budget exceeded"
    return S, stats


def _width_ids(reads: PathReads) -> np.ndarray:
    """One id per read, shared by the reads with the same widths over the
    same split: the dedup key."""
    item = reads.widths.itemsize
    row = reads.widths.shape[1] * item
    buf, ids = reads.widths.tobytes(), {}
    keys = (buf[r * row : r * row + n * item] for r, n in enumerate(reads.splits.tolist()))
    return np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.intp)


# -- selection ---------------------------------------------------------------------


def select_solution(S, g, eval_set, A_percent: float, base_acc: float | None = None) -> SplitSolution:
    """First solution in predicted-latency order (`PlanSet.order`) whose
    measured accuracy drop stays within A. S is a `PlanSet` or a list of
    solutions, which becomes one. Only the rows reached are built; each drop
    measured is recorded on its solution, and a solution that already
    carries one is not measured again. The sentinel's drop is 0 by
    definition, so this returns."""
    if not isinstance(S, PlanSet):
        S = PlanSet.from_solutions(g, S)
    if not (S.n == 0).any():
        raise ValueError("solution list is missing the cloud-only sentinel")
    threshold = A_percent / 100.0 + 1e-9
    for r in S.order().tolist():
        sol = S[r]
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
    latency = split_latencies(g, np.arange(N + 1), full, full, edge, cloud, net)
    n = int(np.argmin(latency[3]))  # the first minimum of total_s
    return n, LatencyBreakdown(*(c.item(n) for c in latency))
