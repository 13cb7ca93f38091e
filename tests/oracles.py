"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (scalar loops, exhaustive
product search, direct definition scans) and deliberately shares no code with
the package internals beyond public dataclasses.
"""

import itertools
import math

import numpy as np

# -- scalar op kernels ----------------------------------------------------------


def conv2d_scalar(x, w, bias, stride, pad):
    cin, H, W = x.shape
    cout, _, kh, kw = w.shape
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((cout, ho, wo), dtype=np.float64)
    for co in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for dy in range(kh):
                        for dx in range(kw):
                            iy = oy * stride + dy - pad
                            ix = ox * stride + dx - pad
                            if 0 <= iy < H and 0 <= ix < W:
                                acc += float(x[ci, iy, ix]) * float(w[co, ci, dy, dx])
                if bias is not None:
                    acc += float(bias[co])
                out[co, oy, ox] = acc
    return out


def depthwise2d_scalar(x, w, bias, stride, pad):
    c, H, W = x.shape
    _, kh, kw = w.shape
    ho = (H + 2 * pad - kh) // stride + 1
    wo = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((c, ho, wo), dtype=np.float64)
    for ch in range(c):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for dy in range(kh):
                    for dx in range(kw):
                        iy = oy * stride + dy - pad
                        ix = ox * stride + dx - pad
                        if 0 <= iy < H and 0 <= ix < W:
                            acc += float(x[ch, iy, ix]) * float(w[ch, dy, dx])
                if bias is not None:
                    acc += float(bias[ch])
                out[ch, oy, ox] = acc
    return out


def fc_scalar(x, w, bias):
    flat = [float(v) for v in np.asarray(x).ravel()]
    nout, nin = w.shape
    out = np.zeros(nout, dtype=np.float64)
    for o in range(nout):
        acc = 0.0
        for i in range(nin):
            acc += float(w[o, i]) * flat[i]
        if bias is not None:
            acc += float(bias[o])
        out[o] = acc
    return out


def global_pool_scalar(x):
    c, H, W = x.shape
    out = np.zeros(c, dtype=np.float64)
    for ch in range(c):
        acc = 0.0
        for y in range(H):
            for xx in range(W):
                acc += float(x[ch, y, xx])
        out[ch] = acc / (H * W)
    return out


def batchnorm_scalar(x, params, eps):
    gamma, beta, mean, var = (params[k].astype(np.float64) for k in range(4))
    out = np.zeros(x.shape, dtype=np.float64)
    for ch in range(x.shape[0]):
        s = float(gamma[ch]) / math.sqrt(float(var[ch]) + eps)
        out[ch] = (x[ch].astype(np.float64) - float(mean[ch])) * s + float(beta[ch])
    return out


# -- liveness / cuts / memory, straight from the definitions ----------------------


def live_ids(g, order, k):
    """Producers live at compute step k: produced at position <= k and either
    produced at k itself or still wanted by a consumer at position >= k
    (graph outputs are wanted forever)."""
    pos = {nid: i for i, nid in enumerate(order)}
    out = []
    for nid in order:
        if pos[nid] > k:
            continue
        wanted_later = not g.consumers[nid] or any(pos[c] >= k for c in g.consumers[nid])
        if pos[nid] == k or wanted_later:
            out.append(nid)
    return sorted(out)


def cut_ids(g, order, n):
    """Producers inside the n-prefix with a consumer outside it (or none at all)."""
    pos = {nid: i for i, nid in enumerate(order)}
    out = []
    for nid in order:
        if pos[nid] > n:
            continue
        if not g.consumers[nid] or any(pos[c] > n for c in g.consumers[nid]):
            out.append(nid)
    return sorted(out)


def weight_bits_brute(g, order, n, weight_bits):
    total = 0
    for nid in order[1 : n + 1]:
        total += g.nodes[nid].weight_elements() * int(weight_bits[nid])
    return total


def act_peak_bits_brute(g, order, n, act_bits, input_bits):
    peak = 0
    for k in range(1, n + 1):
        step = 0
        for nid in live_ids(g, order, k):
            b = input_bits if nid == order[0] else int(act_bits[nid])
            step += g.nodes[nid].act_elements() * b
        peak = max(peak, step)
    return peak


def potential_splits_naive(g, order, net, M_bytes, B):
    """The admitted splits, the slow way: each cut's crossing tensors priced
    one by one as the wire ships them (the input at input_bits, any other at
    the smallest packable width in B), the bits summed as Python integers and
    divided by the uplink rate, with the round trip added; a split is kept if
    that time is at most the raw input's and its weights and peak live
    activations fit M_bytes at min(B). No packable width admits no split."""
    packable = [b for b in B if b in (1, 2, 4, 8)]
    if not packable:
        return []
    compute = order[1:]

    def tx_s(ids):
        bits = 0
        for c in ids:
            bits += g.nodes[c].act_elements() * (g.input_bits if c == g.input_id else min(packable))
        return bits / net.uplink_bits_per_s + net.fixed_rtt_s

    T0 = tx_s([g.input_id])
    out = []
    for n in range(1, len(compute) + 1):
        weights = sum(g.nodes[i].weight_elements() for i in compute[:n])
        peak = max(sum(g.nodes[i].act_elements() for i in live_ids(g, order, k)) for k in range(1, n + 1))
        if tx_s(cut_ids(g, order, n)) <= T0 and min(B) * (weights + peak) <= M_bytes * 8:
            out.append(n)
    return out


# -- latency model -----------------------------------------------------------------


def transmission_latency(g, cut, bits_map, net):
    """Seconds to ship a cut's crossing tensors at the widths in bits_map:
    their bits summed as integers, one division by the uplink rate, and the
    round trip added."""
    total_bits = 0
    for nid in cut.crossing_tensors:
        total_bits += g.nodes[nid].act_elements() * int(bits_map[nid])
    return total_bits / net.uplink_bits_per_s + net.fixed_rtt_s


def layer_latency(node, g, d, bw_bits, ba_bits):
    """One layer's roofline seconds on one device, one scalar at a time: the
    larger of compute (ops over peak, slowed by max(bw, ba) / mac_bits when
    that exceeds 1) and memory (weight bits at bw plus input and output bits
    at ba, over the bandwidth)."""
    from bitsplit.cost import layer_ops

    penalty = max(1.0, max(bw_bits, ba_bits) / d.mac_bits)
    compute_s = layer_ops(node, g) / d.peak_ops_per_s * penalty
    in_elems = sum(g.nodes[i].act_elements() for i in node.inputs)
    mem_bits = node.weight_elements() * bw_bits + (in_elems + node.act_elements()) * ba_bits
    memory_s = mem_bits / 8.0 / d.bandwidth_bytes_per_s
    return max(compute_s, memory_s)


def split_latency_naive(g, order, n, assignment, edge, cloud, net):
    """The five `LatencyBreakdown` fields, the slow way: each edge layer's
    `layer_latency` added left to right from 0.0, the 16-bit cloud latencies
    added from layer n to the end (and, for the relative term, over the
    prefix), and the crossing tensors' bits summed as integers before the
    one division."""
    compute = order[1:]
    edge_s = 0.0
    for i in compute[:n]:
        edge_s += layer_latency(g.nodes[i], g, edge, assignment.weight_bits[i], assignment.act_bits[i])
    cloud_s = 0.0
    for i in compute[n:]:
        cloud_s += layer_latency(g.nodes[i], g, cloud, 16, 16)
    prefix_s = 0.0
    for i in compute[:n]:
        prefix_s += layer_latency(g.nodes[i], g, cloud, 16, 16)
    bits = 0
    for i in cut_ids(g, order, n):
        bits += g.nodes[i].act_elements() * (g.input_bits if i == order[0] else assignment.act_bits[i])
    transmit_s = bits / net.uplink_bits_per_s + net.fixed_rtt_s
    return (edge_s, transmit_s, cloud_s, edge_s + transmit_s + cloud_s, edge_s + transmit_s - prefix_s)


# -- exhaustive bit allocation ------------------------------------------------------


def exhaustive_alloc(table, layer_ids, budget_bits):
    """Minimum total distortion subject to sum of rates <= budget.

    Returns (distortion, rate, bits dict) or None when nothing fits.
    """
    layer_ids = list(layer_ids)
    best = None
    for combo in itertools.product(table.bits, repeat=len(layer_ids)):
        rate = sum(table.r(i, b) for i, b in zip(layer_ids, combo))
        if rate > budget_bits:
            continue
        dist = sum(table.d(i, b) for i, b in zip(layer_ids, combo))
        key = (dist, rate)
        if best is None or key < best[:2]:
            best = (dist, rate, dict(zip(layer_ids, combo)))
    return best


def exhaustive_act_alloc(table, g, order, n, budget_bits):
    """Minimum total distortion subject to the peak bit-weighted working set."""
    layer_ids = [i for i in order if i != order[0]][:n]
    best = None
    for combo in itertools.product(table.bits, repeat=len(layer_ids)):
        bits = dict(zip(layer_ids, combo))
        if act_peak_bits_brute(g, order, n, bits, g.input_bits) > budget_bits:
            continue
        dist = sum(table.d(i, b) for i, b in zip(layer_ids, combo))
        if best is None or dist < best[0]:
            best = (dist, bits)
    return best


# -- per-prefix Lagrangian sweep ---------------------------------------------------


def table_points(table, layer_ids):
    """{layer: [(bits, d, r), ...]} in ascending bits."""
    return {i: [(b, table.d(i, b), table.r(i, b)) for b in table.bits] for i in layer_ids}


def choices_at(points, lam):
    """Per-layer argmin of d + lam*r; ties to smaller rate, then smaller bits."""
    out = {}
    for i, pts in points.items():
        best = None
        for b, d, r in pts:  # ascending b, hence ascending r
            cost = d + lam * r
            if best is None or cost < best[0]:
                best = (cost, b, r)
        out[i] = best[1]
    return out


def sweep_alloc(points, measure, budget):
    """A sweep over one problem's own breakpoints, the reference for
    `search.MultiplierPath`: one multiplier inside each interval between
    them, bisected for the smallest whose choices measure within the
    budget. Returns (choices, measure(choices)), or None."""
    cuts = sorted(
        {
            (d1 - d2) / (r2 - r1)
            for pts in points.values()
            for k, (_, d1, r1) in enumerate(pts)
            for _, d2, r2 in pts[k + 1 :]
            if r2 > r1 and d1 > d2
        }
    )
    probes = [0.0] + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])] + [2.0 * c for c in cuts[-1:]]
    lo, hi = 0, len(probes) - 1
    best = choices_at(points, probes[hi])
    used = measure(best)
    if used > budget:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        cand = choices_at(points, probes[mid])
        cand_used = measure(cand)
        if cand_used <= budget:
            best, used, hi = cand, cand_used, mid
        else:
            lo = mid + 1
    return best, used


def sized_table(rng, kind, sizes, bits):
    """Seeded rows decaying geometrically in the bit-width, as `random_table`,
    for given layer sizes; zero-size layers get flat zero rows."""
    from bitsplit.quantize import DistortionTable

    d = {}
    for i in sorted(sizes):
        a = float(rng.uniform(0.01, 10.0))
        c = float(rng.uniform(0.5, 1.2))
        vals = sorted((a * 4.0 ** (-c * b) * (1.0 + float(rng.uniform(-0.15, 0.15))) for b in bits), reverse=True)
        d.update({(i, b): (v if sizes[i] else 0.0) for b, v in zip(bits, vals)})
    return DistortionTable(kind, tuple(bits), sizes, d)


def aggregate_points(table, layer_ids):
    """Every achievable (total rate, total distortion) pair."""
    layer_ids = list(layer_ids)
    pts = []
    for combo in itertools.product(table.bits, repeat=len(layer_ids)):
        rate = sum(table.r(i, b) for i, b in zip(layer_ids, combo))
        dist = sum(table.d(i, b) for i, b in zip(layer_ids, combo))
        pts.append((rate, dist))
    return pts


def lower_hull_vertices(points):
    """Vertices of the lower convex hull, ascending rate (Andrew scan)."""
    per_x = {}
    for x, y in points:
        if x not in per_x or y < per_x[x]:
            per_x[x] = y
    pts = sorted(per_x.items())
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


# -- random rate-distortion tables -----------------------------------------------------


def random_table(rng, bits=(2, 4, 8), max_layers=5, kind="w", jitter=0.15):
    """Synthetic per-layer distortion curves with roughly geometric decay.

    Jitter perturbs the curve shape; sorting keeps each row monotone.
    """
    from bitsplit.quantize import DistortionTable

    nlay = int(rng.integers(1, max_layers + 1))
    sizes = {i: int(rng.integers(1, 2000)) for i in range(nlay)}
    d = {}
    for i in range(nlay):
        a = float(rng.uniform(0.01, 10.0))
        c = float(rng.uniform(0.5, 1.2))
        vals = [a * (4.0 ** (-c * b)) * (1.0 + float(rng.uniform(-jitter, jitter))) for b in bits]
        vals.sort(reverse=True)
        for b, v in zip(bits, vals):
            d[(i, b)] = v
    return DistortionTable(kind, tuple(bits), sizes, d)


def dense_hull_table(rng, bits=(2, 4, 8), max_layers=5):
    """Shallow-decay curves with matched amplitudes.

    Every layer contributes a comparable distortion share and each bit step
    shaves only a modest fraction, so the achievable (rate, distortion) cloud
    hugs its lower hull and off-hull optima sit close to the nearest vertex.
    """
    from bitsplit.quantize import DistortionTable

    nlay = int(rng.integers(3, max_layers + 1))
    sizes = {i: int(rng.integers(50, 401)) for i in range(nlay)}
    d = {}
    for i in range(nlay):
        a = float(rng.uniform(0.8, 1.25))
        c = float(rng.uniform(0.03, 0.06))
        vals = sorted((a * (4.0 ** (-c * b)) for b in bits), reverse=True)
        for b, v in zip(bits, vals):
            d[(i, b)] = v
    return DistortionTable("w", tuple(bits), sizes, d)


def random_budget(rng, table, slack=0.1):
    """A rate budget anywhere from a bit below min to a bit above max."""
    ids = table.layers()
    rmin = sum(table.r(i, table.bits[0]) for i in ids)
    rmax = sum(table.r(i, table.bits[-1]) for i in ids)
    u = float(rng.uniform(-slack, 1.0 + slack))
    return int(round(rmin + u * (rmax - rmin)))


# -- quantization reference ------------------------------------------------------


def clip_range_scalar(x, bits, symmetric):
    """The clip search for one tensor, one alpha at a time.

    alpha runs from 1.0 down to 0.5 in steps of 0.05. Clip bounds are Python
    floats, scale and zero point are rounded to float32, codes are clipped
    integers, and the error is the mean squared error of the float32
    reconstruction; a later alpha must be strictly better to win. An alpha
    whose float32 scale is 0 or inf is never tried: codes at that scale
    cannot reconstruct anything, and its error would be NaN. All-zero
    tensors, and constant ones under asymmetric quantization, are
    represented exactly; a tensor where no alpha is tried gets float32's
    finest step, 2^-149, with zero point -min / 2^-149 (asymmetric) or 0,
    and its error is measured like any alpha's. Returns (QuantParams, mse).
    """
    from bitsplit.quantize import QuantParams

    x = np.asarray(x, dtype=np.float32)
    amax = float(np.max(np.abs(x)))
    if amax == 0.0:
        return QuantParams(bits, 1.0, 0.0, symmetric), 0.0
    lo_full = float(np.min(x))
    hi_full = float(np.max(x))
    if not symmetric and lo_full == hi_full:
        return QuantParams(bits, 1.0, float(np.float32(-lo_full)), False), 0.0

    xf = x.astype(np.float64)
    qmax = 2 ** (bits - 1) - 1 if symmetric else 2**bits - 1
    qmin = -qmax if symmetric else 0

    def error(s, z):
        q = np.clip(np.rint(xf / s + z), qmin, qmax).astype(np.int64)
        deq = ((q - z) * s).astype(np.float32)
        d = xf - deq.astype(np.float64)
        return float(np.mean(d * d))

    best = None
    # a 1-bit step can pass float32's max, and so can a reconstruction near
    # it, whose error is then +inf
    with np.errstate(over="ignore"):
        for k in range(11):
            alpha = 1.0 - 0.05 * k
            if symmetric:
                clip = alpha * amax
                if clip <= 0.0:
                    continue
                scale, zero = clip / qmax, 0.0
            else:
                lo, hi = alpha * lo_full, alpha * hi_full
                if hi <= lo:
                    continue
                scale = (hi - lo) / qmax
                zero = -lo / scale
            s = float(np.float32(scale))
            z = float(np.float32(zero))
            if s == 0.0 or s == math.inf:
                continue
            err = error(s, z)
            if best is None or err < best[1]:
                best = (QuantParams(bits, s, z, symmetric), err)
        if best is None:
            s = float(np.finfo(np.float32).smallest_subnormal)
            z = 0.0 if symmetric else float(np.float32(-lo_full / s))
            best = (QuantParams(bits, s, z, symmetric), error(s, z))
    return best


# -- bit packing reference ------------------------------------------------------------


def pack_ref(values, bits):
    """Little-end-first packing of already flattened small ints, one byte loop."""
    per = 8 // bits
    out = bytearray()
    vals = list(values)
    for start in range(0, len(vals), per):
        byte = 0
        for j, v in enumerate(vals[start : start + per]):
            byte |= int(v) << (bits * j)
        out.append(byte)
    return bytes(out)


def channel_last_order(shape):
    """Index tuples in the transmit order: channel axis varying fastest."""
    if len(shape) < 2:
        return [(i,) for i in range(shape[0])] if shape else [()]
    rest = [range(d) for d in shape[1:]]
    out = []
    for tail in itertools.product(*rest):
        for c in range(shape[0]):
            out.append((c,) + tail)
    return out
