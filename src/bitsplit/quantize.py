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

from .graph import LayerGraph, WEIGHTED_OPS

CLIP_ALPHAS = [1.0 - 0.05 * k for k in range(11)]  # 1.0 down to 0.50
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
        if self.symmetric:
            m = 2 ** (self.bits - 1) - 1
            return -m, m
        return 0, 2**self.bits - 1


def _f32(x) -> float:
    return float(np.float32(x))


def quantize_tensor(x: np.ndarray, p: QuantParams):
    """Returns (q, dequant): integer codes and their float32 reconstruction."""
    if p.symmetric and p.bits < 2:
        raise QuantError("symmetric quantization needs at least 2 bits")
    qmin, qmax = p.qrange()
    scale = np.float64(np.float32(p.scale))
    zero = np.float64(np.float32(p.zero_point))
    xf = np.asarray(x, dtype=np.float64)
    q = np.clip(np.rint(xf / scale + zero), qmin, qmax).astype(np.int64)
    deq = ((q - zero) * scale).astype(np.float32)
    return q, deq


def dequantize(q: np.ndarray, p: QuantParams) -> np.ndarray:
    scale = np.float64(np.float32(p.scale))
    zero = np.float64(np.float32(p.zero_point))
    return ((np.asarray(q, dtype=np.float64) - zero) * scale).astype(np.float32)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d)) if d.size else 0.0


def choose_clip_range(x: np.ndarray, bits: int, symmetric: bool) -> QuantParams:
    """MSE-optimal clip over a fixed alpha grid; ties resolve to larger alpha.

    Degenerate tensors (all zero, or constant) are represented exactly.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.size == 0:
        raise QuantError("empty tensor")
    if not np.isfinite(x).all():
        raise QuantError("non-finite values")
    if bits < 1 or (symmetric and bits < 2):
        raise QuantError("bad bit-width %d" % bits)

    amax = float(np.max(np.abs(x)))
    if amax == 0.0:
        return QuantParams(bits, 1.0, 0.0, symmetric)

    lo_full = float(np.min(x))
    hi_full = float(np.max(x))
    if not symmetric and lo_full == hi_full:
        # constant tensor: code 0 with zero_point -c reconstructs exactly
        return QuantParams(bits, 1.0, _f32(-lo_full), False)

    best = None
    for alpha in CLIP_ALPHAS:
        if symmetric:
            clip = alpha * amax
            if clip <= 0.0:
                continue
            scale = clip / (2 ** (bits - 1) - 1)
            p = QuantParams(bits, _f32(scale), 0.0, True)
        else:
            lo = alpha * lo_full
            hi = alpha * hi_full
            if hi <= lo:
                continue
            scale = (hi - lo) / (2**bits - 1)
            zero = -lo / scale
            p = QuantParams(bits, _f32(scale), _f32(zero), False)
        _, deq = quantize_tensor(x, p)
        err = mse(x, deq)
        if best is None or err < best[0]:
            best = (err, p)
    return best[1]


def quant_mse(x: np.ndarray, bits: int, symmetric: bool) -> float:
    if bits >= REFERENCE_BITS:
        return 0.0
    p = choose_clip_range(x, bits, symmetric)
    _, deq = quantize_tensor(x, p)
    return mse(x, deq)


# -- distortion tables --------------------------------------------------------


class DistortionTable:
    """Per-layer, per-bit MSE d_i(b) and rate r_i(b) = s_i * b bits.

    d must be non-increasing in b (checked at construction), d(16) = 0 by
    definition, and rates grow linearly in b. Weightless layers carry flat
    zero rows (size 0).
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
            prev = None
            for b in self.bits:
                cur = self._d[(i, b)]
                if cur < 0:
                    raise QuantError("negative distortion at layer %d" % i)
                if prev is not None and cur > prev + 1e-12 + 1e-9 * abs(prev):
                    raise QuantError(
                        "distortion not monotone at layer %d: d(%d)=%g > d(previous)=%g"
                        % (i, b, cur, prev)
                    )
                prev = cur

    def layers(self):
        return sorted(self.sizes)

    def d(self, layer: int, b: int) -> float:
        if b >= REFERENCE_BITS:
            return 0.0
        return self._d[(layer, b)]

    def r(self, layer: int, b: int) -> int:
        return self.sizes[layer] * int(b)

    def restrict(self, layer_ids) -> "DistortionTable":
        ids = set(layer_ids)
        return DistortionTable(
            self.kind,
            self.bits,
            {i: s for i, s in self.sizes.items() if i in ids},
            {(i, b): v for (i, b), v in self._d.items() if i in ids},
        )

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
    order = [i for i in g._order if i != g.input_id]
    sizes, d = {}, {}
    for i in order:
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
    order = [i for i in g._order if i != g.input_id]
    sizes, d = {}, {}
    for i in order:
        sizes[i] = g.nodes[i].act_elements()
        samples = calib.get(i)
        if not samples:
            raise QuantError("no calibration samples for layer %d" % i)
        for b in B:
            d[(i, b)] = float(np.mean([quant_mse(s, b, symmetric=False) for s in samples]))
    return DistortionTable("a", B, sizes, d)
