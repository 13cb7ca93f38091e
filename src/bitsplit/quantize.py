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


def mse(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d)) if d.size else 0.0


def choose_clip_rows(x: np.ndarray, bits: int, symmetric: bool):
    """MSE-optimal clip for each row of a stack (N, M), over a fixed alpha grid.

    Returns float32 scale and zero point arrays and the float64 MSE of each
    row's reconstruction. Per row: clip bounds alpha * max|x| (symmetric) or
    alpha * min and alpha * max (asymmetric) in float64, params rounded to
    float32, the MSE a mean over the row, and ties resolve to the larger
    alpha. All-zero rows, and constant rows of an asymmetric search, are
    represented exactly.

    The alphas are tried k at a time, k = CLIP_GROUP_ELEMENTS // (live rows
    * M) clamped to 1..11: each group runs the elementwise steps of one alpha
    in the same order on a (k, live rows, M) buffer, so every result is the
    one alpha-at-a-time search gives. Small stacks (a session's single rows)
    take one or a few groups; stacks larger than the budget go one alpha at
    a time.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.shape[1] == 0:
        raise QuantError("empty tensor")
    if not np.isfinite(x).all():
        raise QuantError("non-finite values")
    if bits < 1 or (symmetric and bits < 2):
        raise QuantError("bad bit-width %d" % bits)
    qmin, qmax = _qrange(bits, symmetric)
    scale = np.ones(len(x), dtype=np.float32)
    zero = np.zeros(len(x), dtype=np.float32)
    err = np.zeros(len(x))

    amax = np.max(np.abs(x), axis=1).astype(np.float64)
    if symmetric:
        live = amax != 0.0
    else:
        lo = np.min(x, axis=1).astype(np.float64)
        hi = np.max(x, axis=1).astype(np.float64)
        # constant row: code 0 with zero_point -c reconstructs exactly
        const = (lo == hi) & (amax != 0.0)
        zero[const] = -lo[const]
        live = lo != hi
    if not live.any():
        return scale, zero, err

    # params for every alpha at once, shape (alphas, live rows); alpha > 0
    # keeps every live row's clip range non-empty
    alphas = np.array(CLIP_ALPHAS)[:, None]
    if symmetric:
        s = (alphas * amax[live] / qmax).astype(np.float32)
        z = np.zeros_like(s)
    else:
        lo_a = alphas * lo[live]
        hi_a = alphas * hi[live]
        step = (hi_a - lo_a) / qmax
        s, z = step.astype(np.float32), (-lo_a / step).astype(np.float32)

    xl = x[live].astype(np.float64)
    k = max(1, min(len(CLIP_ALPHAS), CLIP_GROUP_ELEMENTS // xl.size))
    buf = np.empty((k,) + xl.shape)
    sums = np.empty(s.shape)
    s64, z64 = s.astype(np.float64)[..., None], z.astype(np.float64)[..., None]
    for a in range(0, len(CLIP_ALPHAS), k):
        sa, za = s64[a : a + k], z64[a : a + k]
        b = buf[: len(sa)]
        # _codes' reconstruction, in place; codes stay float64, which changes
        # at most the sign of a zero and so no squared error
        np.divide(xl, sa, out=b)
        b += za
        np.rint(b, out=b)
        np.clip(b, qmin, qmax, out=b)
        b -= za
        b *= sa
        b[...] = b.astype(np.float32)
        np.subtract(xl, b, out=b)
        b *= b
        # over the last, contiguous axis: each row is the pairwise sum of a
        # one-row search
        np.add.reduce(b, axis=2, out=sums[a : a + k])
    errs = sums / xl.shape[1]  # np.mean over each row, as the same sum and division
    best = np.argmin(errs, axis=0)  # the first minimum: ties go to the larger alpha
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


def quant_mse(x: np.ndarray, bits: int, symmetric: bool) -> float:
    if bits >= REFERENCE_BITS:
        return 0.0
    x = np.asarray(x, dtype=np.float32)
    return float(choose_clip_rows(x.reshape(1, -1), bits, symmetric)[2][0])


# -- distortion tables --------------------------------------------------------


class DistortionTable:
    """Per-layer, per-bit MSE d_i(b) and rate r_i(b) = s_i * b bits.

    d must be non-negative (checked at construction), d(16) = 0 by
    definition, and rates grow linearly in b. Weightless layers carry flat
    zero rows (size 0). d need not fall with b: the clip search picks a
    range per width, so a tiny tensor can land closer to the grid at fewer
    bits, and a width with both more rate and more distortion than a
    narrower one is never a Lagrangian choice.
    """

    def __init__(self, kind: str, bits, sizes: dict, d: dict):
        if kind not in ("w", "a"):
            raise QuantError("kind must be 'w' or 'a'")
        self.kind = kind
        self.bits = tuple(sorted(int(b) for b in bits))
        self.sizes = dict(sizes)  # layer id -> element count
        self._d = dict(d)  # (layer id, bits) -> mse
        self._check()

    def _check(self):
        for i in sorted(self.sizes):
            if any(self._d[(i, b)] < 0 for b in self.bits):
                raise QuantError("negative distortion at layer %d" % i)

    def layers(self):
        return sorted(self.sizes)

    def d(self, layer: int, b: int) -> float:
        if b >= REFERENCE_BITS:
            return 0.0
        return self._d[(layer, b)]

    def r(self, layer: int, b: int) -> int:
        return self.sizes[layer] * int(b)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["layer_id", "bits", "kind", "mse", "rate_bits"])
            for i in self.layers():
                for b in self.bits:
                    w.writerow([i, b, self.kind, "%.12e" % self.d(i, b), self.r(i, b)])

    @classmethod
    def from_csv(cls, path) -> "DistortionTable":
        sizes, d, bits, kinds = {}, {}, set(), set()
        with open(path, "r", newline="") as f:
            for row in csv.DictReader(f):
                i, b = int(row["layer_id"]), int(row["bits"])
                kinds.add(row["kind"])
                bits.add(b)
                d[(i, b)] = float(row["mse"])
                sizes[i] = int(row["rate_bits"]) // b if b else 0
        if len(kinds) != 1:
            raise QuantError("mixed kinds in table file")
        return cls(kinds.pop(), sorted(bits), sizes, d)


def weight_distortion_table(g: LayerGraph, B) -> DistortionTable:
    """MSE of quantizing each layer's weight tensor at every candidate width.

    Bias vectors stay in float and are excluded from both distortion and rate.
    """
    sizes, d = {}, {}
    for i in g.compute_ids():
        n = g.nodes[i]
        sizes[i] = n.weight_elements()
        for b in B:
            if sizes[i] == 0:
                d[(i, b)] = 0.0
            else:
                if n.weights is None:
                    raise QuantError("layer %d has no weights blob loaded" % i)
                d[(i, b)] = quant_mse(n.weights, b, symmetric=True)
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
