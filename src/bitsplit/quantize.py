"""Uniform affine quantization and per-layer distortion/rate tables.

Weights quantize symmetrically (zero point 0, signed levels), activations
asymmetrically (unsigned levels, real-valued zero point). Scale and zero
point are stored as float32 so that shipping them over the wire and reusing
them reproduces dequantized tensors bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .graph import LayerGraph

CLIP_ALPHAS = [1.0 - 0.05 * k for k in range(11)]  # 1.0 down to 0.50
_ALPHA_COLUMN = np.array(CLIP_ALPHAS)[:, None]
_ALPHA_COLUMN.flags.writeable = False
CLIP_GROUP_ELEMENTS = 1 << 13  # float64 elements per alpha group of the clip search (64 KiB)
REFERENCE_BITS = 16


class QuantError(ValueError):
    pass


@dataclass(frozen=True)
class QuantParams:
    bits: int
    scale: float
    zero_point: float
    symmetric: bool

    def qrange(self):
        return _qrange(self.bits, self.symmetric)


def _qrange(bits: int, symmetric: bool):
    if symmetric:
        m = 2 ** (bits - 1) - 1
        return -m, m
    return 0, 2**bits - 1


def _codes(x, scale, zero, qmin, qmax):
    """(q, dequant) of x under float32 scale and zero point, which may be
    arrays that broadcast against x."""
    scale = np.asarray(scale, dtype=np.float32).astype(np.float64)
    zero = np.asarray(zero, dtype=np.float32).astype(np.float64)
    t = np.divide(x, scale, dtype=np.float64)
    t += zero
    np.rint(t, out=t)
    q = np.clip(t, qmin, qmax, out=t).astype(np.int64)
    np.subtract(q, zero, out=t)
    t *= scale
    return q, t.astype(np.float32)


def quantize_tensor(x: np.ndarray, p: QuantParams):
    """Returns (q, dequant): integer codes and their float32 reconstruction."""
    if p.symmetric and p.bits < 2:
        raise QuantError("symmetric quantization needs at least 2 bits")
    return _codes(x, p.scale, p.zero_point, *p.qrange())


def dequantize(q: np.ndarray, p: QuantParams) -> np.ndarray:
    scale = np.float64(np.float32(p.scale))
    zero = np.float64(np.float32(p.zero_point))
    return ((np.asarray(q, dtype=np.float64) - zero) * scale).astype(np.float32)


def _clip_pass(x, s, z, qmin, qmax, b, out):
    """The squared-error sums of one group of alphas: s and z are the
    group's (k, rows, 1) float64 params, out its (k, rows) sums and b a
    float64 buffer of at least k such stacks. Each group runs the elementwise
    steps of one alpha in the same order, so every sum is the one an
    alpha-at-a-time search gives.
    """
    b = b[: len(s)]
    # _codes' reconstruction, in place; codes stay float64, which changes at
    # most the sign of a zero and so no squared error
    np.divide(x, s, out=b)
    b += z
    np.rint(b, out=b)
    np.clip(b, qmin, qmax, out=b)
    b -= z
    b *= s
    b[...] = b.astype(np.float32)
    np.subtract(x, b, out=b)
    b *= b
    # over the last, contiguous axis: each row is the pairwise sum of a
    # one-row search
    np.add.reduce(b, axis=-1, out=out)


def _tail_sums(x, rec, ext, above, scratch):
    """Per (alpha, row) of rec: the sum of fl(x - rec)^2 over the row's values
    above rec (or below it), each squared difference rounded as _clip_pass
    rounds it. ext holds each row's max (or min); only values beyond the
    row's nearest rec are gathered, and scratch, of at least x.size float64s,
    holds their terms."""
    sums = np.zeros(rec.shape)
    cut = rec.min(axis=0) if above else rec.max(axis=0)
    if not (ext > cut if above else ext < cut).any():
        return sums
    # rec holds float32 values, so comparing in float32 is exact
    cut = cut.astype(np.float32)[:, None]
    mask = x > cut if above else x < cut
    counts = np.count_nonzero(mask, axis=1)
    rows = np.flatnonzero(counts)
    vals = x[mask].astype(np.float64)
    owner = np.repeat(np.arange(len(x)), counts)
    starts = (np.cumsum(counts) - counts)[rows]
    n = len(vals)
    g = scratch.size // n
    for a in range(0, len(rec), g):
        d = scratch.reshape(-1)[: min(g, len(rec) - a) * n].reshape(-1, n)
        np.take(rec[a : a + g], owner, axis=1, out=d, mode="clip")
        if above:
            np.minimum(d, vals, out=d)
            np.subtract(vals, d, out=d)
        else:
            np.maximum(d, vals, out=d)
            np.subtract(d, vals, out=d)
        d *= d
        sums[a : a + len(d), rows] = np.add.reduceat(d, starts, axis=1)
    return sums


def _clip_bounds(x, lo, hi, s64, z64, qmin, qmax, scratch):
    """A lower bound on each (alpha, row) sum that _clip_pass computes, from
    the values the alpha clips alone; lo and hi are the rows' min and max,
    s64 and z64 are (alphas, rows, 1).

    Proof, for 0 < s < inf (the caller runs no other alpha). A pass clips
    each code to [qmin, qmax] and reconstructs it as
    float32(fl(fl(q - z) * s)), which never falls as q grows, since each
    rounding is monotone. So every reconstruction lies in [lo_rec, hi_rec],
    computed here the same way. For a value x above hi_rec,
    x - rec >= x - hi_rec > 0 and rounding keeps that order, so the pass's
    term fl(fl(x - rec)^2) is at least the term fl(fl(x - hi_rec)^2) summed
    here; below lo_rec the same holds for lo_rec - x, and a value in range
    adds a pass term >= 0 and none here. A float sum of n non-negative
    terms, in any order, is within a factor 1 +- g(n) of the exact sum,
    g(n) = n*u / (1 - n*u) with u = eps / 2. The pass sums M terms and the
    tails at most 2M (a value gathered by both tails adds to one per alpha),
    so pass >= (1 - g(M)) / (1 + g(2M)) * tails >= (1 - 3.02*M*u) * tails
    while M*u < 1e-3. The product returned, its factor 1 - 4*(M + 1)*u and
    both roundings included, is at most (1 - 4*M*u - 2*u) * tails, so never
    above the pass's sum.
    """
    lo_rec = ((qmin - z64[..., 0]) * s64[..., 0]).astype(np.float32).astype(np.float64)
    hi_rec = ((qmax - z64[..., 0]) * s64[..., 0]).astype(np.float32).astype(np.float64)
    tails = _tail_sums(x, hi_rec, hi, True, scratch) + _tail_sums(x, lo_rec, lo, False, scratch)
    return tails * (1.0 - 2 * (x.shape[1] + 1) * np.finfo(np.float64).eps)


def choose_clip_rows(x: np.ndarray, bits: int, symmetric: bool):
    """MSE-optimal clip for each row of a stack (N, M), over a fixed alpha grid.

    Returns float32 scale and zero point arrays and the float64 MSE of each
    row's reconstruction. Per row: clip bounds alpha * max|x| (symmetric) or
    alpha * min and alpha * max (asymmetric) in float64, params rounded to
    float32, the MSE a mean over the row, and ties resolve to the larger
    alpha. An alpha whose float32 scale rounds to 0 or overflows to inf is
    never chosen: where a pass covers it, it runs at scale 1 and its sum
    reads +inf.
    All-zero rows, constant rows of an asymmetric search, and rows so narrow
    that alpha 1.0's scale rounds to 0 (so every alpha's does) are represented
    exactly, the last at float32's finest step, 2^-149.

    The alphas run k at a time, k = CLIP_GROUP_ELEMENTS // (live rows * M)
    clamped to 1..11, each group one _clip_pass over a (k, live rows, M)
    buffer. Small stacks (a session's single rows, weight tensors, small
    layers' blocks) run every group. Stacks larger than the budget (k = 1)
    run alpha 1.0 first and then only the alphas that can still win: for
    each other (alpha, row), _clip_bounds bounds the error from the values
    the alpha clips alone, and an alpha whose bound is at least alpha 1.0's
    error, or whose scale is unusable, for every row is not run. Its entries
    read +inf, and where it runs for some rows, the others read errors at
    least alpha 1.0's. A skipped alpha thus never is the first minimum, and
    scale, zero point and MSE are those of the full search, ties included.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape[1] == 0:
        raise QuantError("empty tensor")
    lo = x.min(axis=1).astype(np.float64)
    hi = x.max(axis=1).astype(np.float64)
    # min and max propagate NaN, so finite extremes mean a finite row
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise QuantError("non-finite values")
    if bits < 1 or (symmetric and bits < 2):
        raise QuantError("bad bit-width %d" % bits)
    qmin, qmax = _qrange(bits, symmetric)
    scale = np.ones(len(x), dtype=np.float32)
    zero = np.zeros(len(x), dtype=np.float32)
    err = np.zeros(len(x))

    amax = np.maximum(hi, -lo)  # max |x|
    if symmetric:
        live = amax != 0.0
    else:
        # constant row: code 0 with zero_point -c reconstructs exactly
        const = (lo == hi) & (amax != 0.0)
        zero[const] = -lo[const]
        live = lo != hi
    if not live.any():
        return scale, zero, err

    # one errstate for every pass and bound: a 1-bit step can pass float32's
    # max, and so can a reconstruction near it, whose error then reads +inf
    with np.errstate(over="ignore"):
        # params for every alpha at once, shape (alphas, live rows); alpha > 0
        # keeps every live row's clip range non-empty
        if symmetric:
            s = (_ALPHA_COLUMN * amax[live] / qmax).astype(np.float32)
            z = np.zeros_like(s)
        else:
            lo_a = _ALPHA_COLUMN * lo[live]
            hi_a = _ALPHA_COLUMN * hi[live]
            step = (hi_a - lo_a) / qmax
            s = step.astype(np.float32)
            z = (-lo_a / step).astype(np.float32)

        bad = (s == 0) | (s == np.inf)
        if bad.any():
            # A row whose every step rounds to 0 spans at most qmax / 2 steps of
            # 2^-149, and every float32 is a multiple of 2^-149: that step, with
            # zero point -lo / 2^-149 (an integer float32 holds), codes each
            # value exactly within [qmin, qmax]. Every other row keeps a usable
            # alpha (alpha 0.5's step never overflows), and its bad slots run at
            # scale 1, with z finite (|z| < qmax * 2^25), for sums read as +inf.
            fine = bad.all(axis=0)
            narrow = np.flatnonzero(live)[fine]
            scale[narrow] = np.finfo(np.float32).smallest_subnormal
            if not symmetric:
                zero[narrow] = -lo[narrow] / scale[narrow]
            live[narrow] = False
            if not live.any():
                return scale, zero, err
            s, z, bad = s[:, ~fine], z[:, ~fine], bad[:, ~fine]
            s[bad] = 1
        s64, z64 = s.astype(np.float64)[..., None], z.astype(np.float64)[..., None]
        n_live = int(np.count_nonzero(live))
        k = max(1, min(len(CLIP_ALPHAS), CLIP_GROUP_ELEMENTS // (n_live * x.shape[1])))
        if k > 1:
            xl = x[live].astype(np.float64)
            buf = np.empty((k,) + xl.shape)
            sums = np.empty(s.shape)
            for a in range(0, len(CLIP_ALPHAS), k):
                _clip_pass(xl, s64[a : a + k], z64[a : a + k], qmin, qmax, buf, sums[a : a + k])
        else:
            # float32 values go into float64 ufuncs exactly, so no float64 copy
            xl = x if n_live == len(x) else x[live]
            buf = np.empty((1,) + xl.shape)
            sums = np.full(s.shape, np.inf)
            _clip_pass(xl, s64[:1], z64[:1], qmin, qmax, buf, sums[:1])
            sums[bad] = np.inf
            lower = _clip_bounds(xl, lo[live], hi[live], s64[1:], z64[1:], qmin, qmax, buf)
            skip = (lower >= sums[0]) | bad[1:]
            for a in np.flatnonzero(~skip.all(axis=1)) + 1:
                _clip_pass(xl, s64[a : a + 1], z64[a : a + 1], qmin, qmax, buf, sums[a : a + 1])
        sums[bad] = np.inf
        errs = sums / x.shape[1]  # np.mean over each row, as the same sum and division
        best = errs.argmin(axis=0)  # the first minimum: ties go to the larger alpha
        rows = np.arange(len(xl))
        scale[live], zero[live], err[live] = s[best, rows], z[best, rows], errs[best, rows]
        return scale, zero, err


def choose_clip_range(x: np.ndarray, bits: int, symmetric: bool) -> QuantParams:
    """MSE-optimal clip over a fixed alpha grid; ties resolve to larger alpha.

    Degenerate tensors (all zero, or constant) are represented exactly.
    """
    x = np.asarray(x, dtype=np.float32)
    scale, zero, _ = choose_clip_rows(x.reshape(1, -1), bits, symmetric)
    return QuantParams(bits, float(scale[0]), float(zero[0]), symmetric)


def quantize_rows(x: np.ndarray, bits: int, symmetric: bool):
    """choose_clip_range and quantize_tensor on each row of a stack (N, M).

    Returns (q, dequant, scale, zero_point), the last two per row.
    """
    scale, zero, _ = choose_clip_rows(x, bits, symmetric)
    q, deq = _codes(x, scale[:, None], zero[:, None], *_qrange(bits, symmetric))
    return q, deq, scale, zero


# -- distortion tables --------------------------------------------------------


class DistortionTable:
    """Per-layer, per-bit MSE d_i(b) and rate r_i(b) = s_i * b bits.

    `mse[row[i], k]` is layer i's distortion at the k-th width of `bits`,
    one float64 array with the layers in ascending id. d must be
    non-negative (checked at construction), d(16) = 0 by definition, and
    rates grow linearly in b. Weightless layers carry flat zero rows (size
    0). d need not fall with b: the clip search picks a range per width, so
    a tiny tensor can land closer to the grid at fewer bits, and a width
    with both more rate and more distortion than a narrower one is never a
    Lagrangian choice.
    """

    def __init__(self, kind: str, bits, sizes: dict, d: dict):
        if kind not in ("w", "a"):
            raise QuantError("kind must be 'w' or 'a'")
        self.kind = kind
        self.bits = tuple(sorted(int(b) for b in bits))
        self.sizes = dict(sizes)  # layer id -> element count
        self.row = {i: k for k, i in enumerate(sorted(self.sizes))}
        self._col = {b: k for k, b in enumerate(self.bits)}
        mse = np.array([[d[(i, b)] for b in self.bits] for i in self.row], dtype=np.float64)
        self.mse = mse.reshape(len(self.row), len(self.bits))
        negative = (self.mse < 0).any(axis=1)
        if negative.any():
            raise QuantError("negative distortion at layer %d" % self.layers()[int(np.argmax(negative))])
        self.mse[:, np.array(self.bits) >= REFERENCE_BITS] = 0.0

    def layers(self):
        return list(self.row)

    def d(self, layer: int, b: int) -> float:
        if b >= REFERENCE_BITS:
            return 0.0
        return self.mse.item(self.row[layer], self._col[b])

    def r(self, layer: int, b: int) -> int:
        return self.sizes[layer] * int(b)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["layer_id", "bits", "kind", "mse", "rate_bits"])
            for i in self.layers():
                for b in self.bits:
                    w.writerow([i, b, self.kind, "%.12e" % self.d(i, b), self.r(i, b)])


def weight_distortion_table(g: LayerGraph, B) -> DistortionTable:
    """MSE of quantizing each layer's weight tensor at every candidate width.

    Bias vectors stay in float and are excluded from both distortion and rate.
    """
    sizes, d = {}, {}
    for i in g.compute_ids():
        n = g.nodes[i]
        sizes[i] = n.weight_elements()
        for b in B:
            if sizes[i] and n.weights is None:
                raise QuantError("layer %d has no weights blob loaded" % i)
            if sizes[i] == 0 or b >= REFERENCE_BITS:
                d[(i, b)] = 0.0
            else:
                d[(i, b)] = float(choose_clip_rows(n.weights.reshape(1, -1), b, symmetric=True)[2][0])
    return DistortionTable("w", B, sizes, d)


def activation_distortion_table(g: LayerGraph, calib: dict, B) -> DistortionTable:
    """Mean local fake-quantization MSE of each layer's sampled outputs."""
    sizes, d = {}, {}
    for i in g.compute_ids():
        sizes[i] = g.nodes[i].act_elements()
        samples = calib.get(i)
        if samples is None or len(samples) == 0:
            raise QuantError("no calibration samples for layer %d" % i)
        rows = np.asarray(samples, dtype=np.float32).reshape(len(samples), -1)
        for b in B:
            if b >= REFERENCE_BITS:
                d[(i, b)] = 0.0
            else:
                d[(i, b)] = float(np.mean(choose_clip_rows(rows, b, symmetric=False)[2]))
    return DistortionTable("a", B, sizes, d)
