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
# live elements from which the clip search bounds alphas, at 1, 2, 3, ... bits
# (wider take the last), sized on the demo's activations: at 1-2 bits it pruned none
CLIP_BOUND_ELEMENTS = (np.inf, np.inf, 1 << 14, 1 << 12, 1 << 12, 1 << 11, 1 << 11, 1 << 10)
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


def _codes(x, s64, z64, qmin, qmax):
    """(q, dequant) of x under a float32 scale and zero point, given as their
    float64 values (scalars or arrays that broadcast against x). A zero point
    of +-0 moves no code, and codes reconstruct from int64, where code 0
    gives +0.0 either way, so that shift is skipped."""
    shift = np.count_nonzero(z64)
    t = np.divide(x, s64, dtype=np.float64)
    if shift:
        t += z64
    np.rint(t, out=t)
    q = t.clip(qmin, qmax, out=t).astype(np.int64)
    np.multiply(np.subtract(q, z64, out=t) if shift else q, s64, out=t)
    return q, t.astype(np.float32)


def quantize_tensor(x: np.ndarray, p: QuantParams):
    """Returns (q, dequant): integer codes and their float32 reconstruction."""
    if p.symmetric and p.bits < 2:
        raise QuantError("symmetric quantization needs at least 2 bits")
    return _codes(x, np.float64(np.float32(p.scale)), np.float64(np.float32(p.zero_point)), *p.qrange())


def dequantize(q: np.ndarray, p: QuantParams) -> np.ndarray:
    scale = np.float64(np.float32(p.scale))
    zero = np.float64(np.float32(p.zero_point))
    return ((np.asarray(q, dtype=np.float64) - zero) * scale).astype(np.float32)


def _clip_pass(x, s, z, qmin, qmax, b, out, shift=True):
    """The squared-error sums of one group of alphas: s and z are the
    group's (k, rows, 1) float64 params, out its (k, rows) sums and b a
    float64 buffer of at least k such stacks. Each group runs the elementwise
    steps of one alpha in the same order, so every sum is the one an
    alpha-at-a-time search gives. With shift false every z is +-0, whose
    shifts change at most the sign of a zero, and they are skipped.
    """
    b = b[: len(s)]
    # _codes' reconstruction, in place; codes stay float64, which changes at
    # most the sign of a zero and so no squared error
    np.divide(x, s, out=b)
    if shift:
        b += z
    np.rint(b, out=b)
    b.clip(qmin, qmax, out=b)
    if shift:
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
    if not np.count_nonzero(ext > cut if above else ext < cut):
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


def _clip_bounds(x, lo, hi, s64, z64, qmin, qmax, scratch, err=None):
    """A lower bound on each (alpha, row) sum that _clip_pass computes, from
    the values the alpha clips alone; lo and hi are the rows' min and max,
    s64 and z64 are (alphas, rows, 1). With err, each row's alpha 1.0 sum,
    the tails are summed only for the alphas that some row's extremes alone
    leave below err; the other alphas' bounds come from the extremes.

    Proof, for 0 < s < inf (the caller runs no other alpha). A pass clips
    each code to [qmin, qmax] and reconstructs it as
    float32(fl(fl(q - z) * s)), which never falls as q grows, since each
    rounding is monotone. So every reconstruction lies in [lo_rec, hi_rec],
    computed here the same way. For a value x above hi_rec,
    x - rec >= x - hi_rec > 0 and rounding keeps that order, so the pass's
    term fl(fl(x - rec)^2) is at least the term fl(fl(x - hi_rec)^2) summed
    here; below lo_rec the same holds for lo_rec - x, and a value in range
    adds a pass term >= 0 and none here. Extremes: a float sum of
    non-negative terms never falls as a term grows, and zeroing all terms
    but two leaves their rounded sum, so the pass's sum is at least the
    rounded sum of its max's and min's terms, and so of theirs here. Tails:
    a float sum of n non-negative terms, in any order, is within a factor
    1 +- g(n) of the exact sum, g(n) = n*u / (1 - n*u) with u = eps / 2. The
    pass sums M terms and the tails at most 2M (a value gathered by both
    tails adds to one per alpha), so pass >= (1 - g(M)) / (1 + g(2M)) * tails
    >= (1 - 3.02*M*u) * tails while M*u < 1e-3. The product taken, its factor
    1 - 4*(M + 1)*u and both roundings included, is at most
    (1 - 4*M*u - 2*u) * tails, so never above the pass's sum.
    """
    lo_rec = ((qmin - z64[..., 0]) * s64[..., 0]).astype(np.float32).astype(np.float64)
    hi_rec = ((qmax - z64[..., 0]) * s64[..., 0]).astype(np.float32).astype(np.float64)
    bound = np.square(np.maximum(hi - hi_rec, 0.0)) + np.square(np.maximum(lo_rec - lo, 0.0))
    run = np.arange(len(bound)) if err is None else np.flatnonzero(np.logical_or.reduce(bound < err, axis=1))
    if len(run):
        tails = _tail_sums(x, hi_rec[run], hi, True, scratch) + _tail_sums(x, lo_rec[run], lo, False, scratch)
        bound[run] = np.maximum(bound[run], tails * (1.0 - 2 * (x.shape[1] + 1) * np.finfo(np.float64).eps))
    return bound


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
    buffer. From the width's CLIP_BOUND_ELEMENTS live elements on, alpha 1.0
    runs first and then only the alphas that can still win: for each other
    (alpha, row), _clip_bounds bounds the error from the values the alpha
    clips alone, and an alpha whose bound is at least alpha 1.0's error for
    every row is not run. Its entries read +inf, and where it runs for some
    rows, the others read errors at least alpha 1.0's. A skipped alpha thus
    never is the first minimum, and scale, zero point and MSE are those of
    the full search, ties included.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape[1] == 0:
        raise QuantError("empty tensor")
    lo = x.min(axis=1).astype(np.float64)
    hi = x.max(axis=1).astype(np.float64)
    amax = np.maximum(hi, -lo)  # max |x|
    # min and max propagate NaN, so a finite amax means a finite row
    if np.count_nonzero(np.isfinite(amax)) < len(x):
        raise QuantError("non-finite values")
    if bits < 1 or (symmetric and bits < 2):
        raise QuantError("bad bit-width %d" % bits)
    live = amax != 0.0 if symmetric else lo != hi
    n_live = np.count_nonzero(live)
    if n_live < len(x) or n_live == 0:
        scale = np.ones(len(x), dtype=np.float32)
        zero = np.zeros(len(x), dtype=np.float32)
        err = np.zeros(len(x))
        if not symmetric:
            # constant row: code 0 with zero_point -c reconstructs exactly
            const = ~live & (amax != 0.0)
            zero[const] = -lo[const]
        if n_live:
            scale[live], zero[live], err[live] = choose_clip_rows(x[live], bits, symmetric)
        return scale, zero, err

    qmin, qmax = _qrange(bits, symmetric)
    n, m = x.shape
    # one errstate for every pass and bound: a 1-bit step can pass float32's
    # max, and so can a reconstruction near it, whose error then reads +inf
    with np.errstate(over="ignore"):
        # params for every alpha at once, shape (alphas, rows); alpha > 0
        # keeps every live row's clip range non-empty
        if symmetric:
            s = (_ALPHA_COLUMN * amax / qmax).astype(np.float32)
            z = np.zeros_like(s)
        else:
            lo_a = _ALPHA_COLUMN * lo
            step = (_ALPHA_COLUMN * hi - lo_a) / qmax
            s = step.astype(np.float32)
            z = (-lo_a / step).astype(np.float32)
        bad = fine = None
        # s >= 0, and only a 1-bit step can overflow float32
        if np.count_nonzero(s) < s.size or (bits == 1 and np.count_nonzero(s == np.inf)):
            # A row whose every step rounds to 0 spans at most qmax / 2 steps of
            # 2^-149, and every float32 is a multiple of 2^-149: that step, with
            # zero point -lo / 2^-149 (an integer float32 holds), codes each
            # value exactly within [qmin, qmax]; such rows are set after the
            # search. Every other row keeps a usable alpha (alpha 0.5's step
            # never overflows). Bad slots run at scale 1, with z finite
            # (|z| < qmax * 2^25), for sums read as +inf.
            bad = (s == 0) | (s == np.inf)
            fine = np.logical_and.reduce(bad, axis=0)
            s[bad] = 1
        s64, z64 = s.astype(np.float64)[..., None], z.astype(np.float64)[..., None]
        # zero points of +-0 (all of a symmetric search's, and those of a row
        # whose min is +-0) only flip the sign of a zero, which squaring erases
        shift = np.count_nonzero(z) > 0
        k = max(1, min(len(CLIP_ALPHAS), CLIP_GROUP_ELEMENTS // (n * m)))
        # float32 values go into float64 ufuncs exactly, so no float64 copy
        buf = np.empty((k, n, m))
        sums = out = np.empty(s.shape)
        todo = None  # every alpha runs
        if n * m >= CLIP_BOUND_ELEMENTS[min(bits, len(CLIP_BOUND_ELEMENTS)) - 1]:
            _clip_pass(x, s64[:1], z64[:1], qmin, qmax, buf, sums[:1], shift)
            if bad is not None:
                sums[:1][bad[:1]] = np.inf
            keep = _clip_bounds(x, lo, hi, s64[1:], z64[1:], qmin, qmax, buf, sums[0]) < sums[0]
            sums[1:] = np.inf
            todo = np.flatnonzero(np.logical_or.reduce(keep, axis=1)) + 1
            s64, z64, out = s64[todo], z64[todo], np.empty((len(todo), n))
        for a in range(0, len(out), k):
            _clip_pass(x, s64[a : a + k], z64[a : a + k], qmin, qmax, buf, out[a : a + k], shift)
        if todo is not None:
            sums[todo] = out
        if bad is not None:
            sums[bad] = np.inf
        sums /= m  # np.mean over each row, as the same sum and division
        # the first minimum, so ties go to the larger alpha; flat (alpha, row)
        pick = sums.argmin(axis=0) * n + np.arange(n)
        scale, zero, err = s.take(pick), z.take(pick), sums.take(pick)
        if fine is not None and np.count_nonzero(fine):
            scale[fine] = np.finfo(np.float32).smallest_subnormal
            if not symmetric:
                zero[fine] = -lo[fine] / scale[fine]
            err[fine] = 0.0
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
    q, deq = _codes(x, scale.astype(np.float64)[:, None], zero.astype(np.float64)[:, None], *_qrange(bits, symmetric))
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
