import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bitsplit.engine import calibrate_activations
from bitsplit import quantize
from bitsplit.quantize import (
    CLIP_ALPHAS,
    CLIP_BOUND_ELEMENTS,
    CLIP_GROUP_ELEMENTS,
    DistortionTable,
    QuantError,
    QuantParams,
    choose_clip_range,
    choose_clip_rows,
    dequantize,
    quantize_tensor,
    weight_distortion_table,
)
from helpers import random_dag, random_grid_input


def _row_mse(x, bits, symmetric):
    """The clip search's error for one tensor as a single row."""
    return float(choose_clip_rows(np.asarray(x, dtype=np.float32).reshape(1, -1), bits, symmetric)[2][0])


def test_clip_alpha_grid():
    assert CLIP_ALPHAS[0] == 1.0
    assert CLIP_ALPHAS[-1] == pytest.approx(0.5)
    assert len(CLIP_ALPHAS) == 11


def test_symmetric_params_have_zero_point_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(200).astype(np.float32)
    for bits in (2, 4, 8):
        p = choose_clip_range(x, bits, symmetric=True)
        assert p.zero_point == 0.0
        assert p.symmetric
        lo, hi = p.qrange()
        assert (lo, hi) == (-(2 ** (bits - 1) - 1), 2 ** (bits - 1) - 1)


def test_asymmetric_range_unsigned():
    p = QuantParams(bits=4, scale=0.1, zero_point=3.0, symmetric=False)
    assert p.qrange() == (0, 15)


def test_symmetric_needs_two_bits():
    x = np.ones(4, dtype=np.float32)
    with pytest.raises(QuantError):
        choose_clip_range(x, 1, symmetric=True)
    p = QuantParams(bits=1, scale=1.0, zero_point=0.0, symmetric=True)
    with pytest.raises(QuantError):
        quantize_tensor(x, p)


def test_rejects_bad_tensors():
    with pytest.raises(QuantError, match="empty"):
        choose_clip_range(np.zeros(0, dtype=np.float32), 4, symmetric=False)
    with pytest.raises(QuantError, match="non-finite"):
        choose_clip_range(np.array([1.0, np.inf], dtype=np.float32), 4, symmetric=False)


def test_all_zero_tensor_is_exact():
    x = np.zeros((3, 3), dtype=np.float32)
    for bits, sym in [(2, True), (4, False), (1, False)]:
        p = choose_clip_range(x, bits, sym)
        q, deq = quantize_tensor(x, p)
        assert np.array_equal(deq, x)
        assert np.all(q == (0 if not sym else 0))


def test_constant_tensor_is_exact():
    x = np.full((5,), 3.25, dtype=np.float32)
    p = choose_clip_range(x, 2, symmetric=False)
    q, deq = quantize_tensor(x, p)
    assert np.array_equal(deq, x)
    x2 = np.full((5,), -0.7, dtype=np.float32)
    p2 = choose_clip_range(x2, 1, symmetric=False)
    _, deq2 = quantize_tensor(x2, p2)
    assert np.array_equal(deq2, x2)


def test_full_range_tie_prefers_alpha_one():
    # codes land exactly on levels at alpha=1, so the scan keeps the first
    # (largest) alpha and the reconstruction is exact
    x = np.array([-1.0, 0.0, 1.0], dtype=np.float32)
    p = choose_clip_range(x, 4, symmetric=True)
    assert p.scale == pytest.approx(1.0 / 7.0)
    assert _row_mse(x, 4, symmetric=True) == 0.0


def test_quantize_roundtrip_codes_in_range():
    rng = np.random.default_rng(5)
    for sym in (True, False):
        x = rng.standard_normal(500).astype(np.float32) * 3
        for bits in (2, 4, 8):
            p = choose_clip_range(x, bits, sym)
            q, deq = quantize_tensor(x, p)
            lo, hi = p.qrange()
            assert q.min() >= lo and q.max() <= hi
            assert np.array_equal(dequantize(q, p), deq)
            assert deq.dtype == np.float32


def test_wire_params_reproduce_dequant_bitwise():
    # f32-quantized scale/zero shipped to another party give the same bytes
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 6)).astype(np.float32)
    p = choose_clip_range(x, 4, symmetric=False)
    q, deq = quantize_tensor(x, p)
    remote = QuantParams(p.bits, float(np.float32(p.scale)), float(np.float32(p.zero_point)), False)
    assert dequantize(q, remote).tobytes() == deq.tobytes()


def test_mse_decreases_with_bits():
    rng = np.random.default_rng(7)
    for k in range(20):
        x = (rng.standard_normal(300) * rng.uniform(0.1, 5)).astype(np.float32)
        for sym, ladder in [(True, (2, 4, 8)), (False, (1, 2, 4, 8))]:
            errs = [_row_mse(x, b, sym) for b in ladder]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-12


def test_better_than_naive_minmax():
    # the alpha sweep can only improve on the full-range choice
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.standard_normal(500), [15.0]]).astype(np.float32)  # outlier
    p_full = QuantParams(4, float(np.float32(np.max(np.abs(x)) / 7)), 0.0, True)
    _, deq_full = quantize_tensor(x, p_full)
    full_mse = float(np.mean((x.astype(np.float64) - deq_full.astype(np.float64)) ** 2))
    assert _row_mse(x, 4, symmetric=True) <= full_mse + 1e-15


def _clip_search_rows(rng, m, bits):
    """Rows of length m that stress the clip search: random, non-negative,
    all-zero, constant, signed zeros, huge and tiny magnitudes, and values on
    an exact quantization grid (where several alphas can tie)."""
    rows = [
        rng.standard_normal(m) * rng.uniform(0.05, 20),
        np.abs(rng.standard_normal(m)),
        np.zeros(m),
        np.full(m, -2.5),
        np.full(m, 0.375),
        np.where(rng.random(m) < 0.5, -0.0, 0.0),
        rng.standard_normal(m) * 1e30,
        rng.standard_normal(m) * 1e-30,
        rng.integers(0, 2**bits, m) * 0.125,
        (rng.integers(0, 2**bits, m) - (2 ** (bits - 1) - 1)) / 4.0,
        np.round(rng.standard_normal(m) * 2) / 2,
    ]
    if m > 1:
        rows.append(np.concatenate([[-0.0], rng.standard_normal(m - 1)]))
        grid = rng.integers(0, 2**bits, m) * 0.25
        grid[:2] = [0.0, (2**bits - 1) * 0.25]  # spans the full code range
        rows.append(grid)
    return np.stack(rows).astype(np.float32)


def _exact(p):
    return (p.bits, np.float64(p.scale).tobytes(), np.float64(p.zero_point).tobytes(), p.symmetric)


@pytest.mark.parametrize("symmetric", [False, True])
def test_row_search_matches_scalar_oracle(symmetric):
    rng = np.random.default_rng(40 + symmetric)
    for bits in range(2 if symmetric else 1, 9):
        for m in (1, 2, 9, 300, 9000):
            stack = _clip_search_rows(rng, m, bits)
            scale, zero, err = choose_clip_rows(stack, bits, symmetric)
            assert scale.dtype == zero.dtype == np.float32
            for k, row in enumerate(stack):
                want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
                got = QuantParams(bits, float(scale[k]), float(zero[k]), symmetric)
                assert _exact(got) == _exact(want), (bits, m, k)
                assert err[k] == want_err, (bits, m, k)
                assert _exact(choose_clip_range(row, bits, symmetric)) == _exact(want)
                assert _row_mse(row, bits, symmetric) == want_err


@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 11])
def test_grouped_row_search_matches_scalar_oracle_at_group_edges(k, symmetric):
    """Stacks sized so the 11 alphas run in groups of k: one at a time, 5 x 2
    + 1, 3 x 3 + 2 (short last groups) and all at once. All-zero rows between
    the live ones exercise the live-row indexing."""
    rng = np.random.default_rng(50 + k)
    live = 6
    m = CLIP_GROUP_ELEMENTS // live + 1 if k == 1 else CLIP_GROUP_ELEMENTS // (k * live)
    assert max(1, min(len(CLIP_ALPHAS), CLIP_GROUP_ELEMENTS // (live * m))) == k
    rows = [
        rng.standard_normal(m),  # Gaussian rows clip hard at low bit-widths
        np.zeros(m),
        rng.standard_normal(m) * 30,
        np.abs(rng.standard_normal(m)),
        rng.laplace(size=m),
        np.zeros(m),
        rng.integers(0, 16, m) * 0.125,  # on a quantization grid: alphas tie
        rng.uniform(-1, 3, m),
    ]
    stack = np.stack(rows).astype(np.float32)
    for bits in (2, 3, 4, 8):
        scale, zero, err = choose_clip_rows(stack, bits, symmetric)
        for j, row in enumerate(stack):
            want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
            got = QuantParams(bits, float(scale[j]), float(zero[j]), symmetric)
            assert _exact(got) == _exact(want), (bits, j)
            assert err[j] == want_err, (bits, j)


ROW_KINDS = ("relu", "signed", "cauchy", "huge", "tiny", "quarter_grid", "constant", "zeros")


def _stress_row(rng, kind, m, bits):
    """One float32 row of length m of the given kind."""
    if kind == "relu":  # many exact zeros, a long positive tail
        row = np.maximum(rng.standard_normal(m), 0) * rng.exponential(1.0, m)
    elif kind == "signed":
        row = rng.standard_normal(m) - rng.uniform(0, 3)
    elif kind == "cauchy":
        row = rng.standard_cauchy(m)
    elif kind == "huge":
        row = rng.standard_normal(m) * 1e30
    elif kind == "tiny":
        row = np.maximum(rng.standard_normal(m), 0) * 1e-30
    elif kind == "quarter_grid":  # integer multiples of a quarter step: alphas tie
        row = rng.integers(-(2**bits), 2**bits, m) / 4.0
    elif kind == "constant":
        row = np.full(m, rng.standard_normal())
    else:
        row = np.zeros(m)
    return row.astype(np.float32)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=3),
    m=st.integers(CLIP_GROUP_ELEMENTS // 2 + 1, 6000),
    symmetric=st.booleans(),
    bits=st.integers(1, 8),
)
def test_bounded_row_search_matches_scalar_oracle(seed, kinds, m, symmetric, bits):
    """Any live row puts these stacks above the group budget, where alphas
    run one at a time and those that provably lose to alpha 1.0 are
    skipped: every row still gets the oracle's params and MSE exactly."""
    bits = max(bits, 2) if symmetric else bits
    rng = np.random.default_rng(seed)
    stack = np.stack([_stress_row(rng, kind, m, bits) for kind in kinds])
    scale, zero, err = choose_clip_rows(stack, bits, symmetric)
    for k, row in enumerate(stack):
        want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
        got = QuantParams(bits, float(scale[k]), float(zero[k]), symmetric)
        assert _exact(got) == _exact(want), k
        assert err[k] == want_err, k


def _alpha_params(x, bits, symmetric):
    """(s64, z64) of every alpha for each row, shaped (alphas, rows, 1), as
    the oracle rounds them."""
    qmin, qmax = quantize._qrange(bits, symmetric)
    alphas = np.array(CLIP_ALPHAS)[:, None]
    if symmetric:
        s = (alphas * np.max(np.abs(x), axis=1).astype(np.float64) / qmax).astype(np.float32)
        z = np.zeros_like(s)
    else:
        lo_a = alphas * np.min(x, axis=1).astype(np.float64)
        step = (alphas * np.max(x, axis=1).astype(np.float64) - lo_a) / qmax
        s, z = step.astype(np.float32), (-lo_a / step).astype(np.float32)
    return s.astype(np.float64)[..., None], z.astype(np.float64)[..., None]


@pytest.mark.parametrize(
    "bits, symmetric, rows",
    [
        # 127 * float32(1/127) is just below 1.0 in float64 but rounds to 1.0
        # in float32: 1.0 is not clipped, and every value reconstructs exactly
        (7, False, [[0.0, 1.0]]),
        (8, True, [[-1.0, 0.0, 1.0]]),
        # integers 0..15 and 30: alpha 0.5 puts 0..15 on codes and clips 30
        # to 15, so its whole error is the clipped error
        (4, False, [list(range(16)) + [30.0]]),
        (4, True, [list(range(-7, 8)) + [14.0]]),
    ],
)
def test_clip_bound_never_exceeds_the_pass_error_on_exact_grids(bits, symmetric, rows):
    x = np.array(rows, dtype=np.float32)
    _check_clip_bound(x, bits, symmetric)


@pytest.mark.parametrize("symmetric", [False, True])
def test_clip_bound_never_exceeds_the_pass_error(symmetric):
    rng = np.random.default_rng(60 + symmetric)
    for bits in range(2 if symmetric else 1, 9):
        live = [k for k in ROW_KINDS if k not in ("constant", "zeros")]
        x = np.stack([_stress_row(rng, kind, 700, bits) for kind in live])
        _check_clip_bound(x, bits, symmetric)


def _check_clip_bound(x, bits, symmetric):
    """The bound of every (alpha, row), alpha 1.0 included, is at most the
    squared-error sum its pass computes, and is not vacuous."""
    qmin, qmax = quantize._qrange(bits, symmetric)
    s64, z64 = _alpha_params(x, bits, symmetric)
    buf = np.empty((1,) + x.shape)
    sums = np.empty(s64.shape[:2])
    for a in range(len(CLIP_ALPHAS)):
        quantize._clip_pass(x, s64[a : a + 1], z64[a : a + 1], qmin, qmax, buf, sums[a : a + 1])
    lower = quantize._clip_bounds(x, x.min(axis=1), x.max(axis=1), s64, z64, qmin, qmax, buf)
    assert (lower <= sums).all(), np.argwhere(lower > sums)
    assert (lower > 0).any()


def test_bounded_search_skips_alphas_on_a_relu_block(monkeypatch):
    """A 16 x 2048 block of ReLU outputs at 8 bits: rounding error is tiny
    next to any clipping, so most alphas provably lose to alpha 1.0. Fewer
    than 11 passes shows the bound is in use."""
    rng = np.random.default_rng(70)
    stack = np.stack([_stress_row(rng, "relu", 2048, 8) for _ in range(16)])
    passes = []
    run = quantize._clip_pass
    monkeypatch.setattr(quantize, "_clip_pass", lambda *a: passes.append(1) or run(*a))
    scale, zero, err = choose_clip_rows(stack, 8, symmetric=False)
    assert 1 <= len(passes) < len(CLIP_ALPHAS)
    for k, row in enumerate(stack):
        want, want_err = oracles.clip_range_scalar(row, 8, False)
        assert (float(scale[k]), float(zero[k]), err[k]) == (want.scale, want.zero_point, want_err)


# rows at float32's limits: alpha 0.5's scale rounds to 0 (the first), every
# alpha's does (the next two), and at 1 bit alpha 1.0's overflows to inf (the
# fourth); the last is an ordinary row
EXTREME_ROWS = [[0.0, 2.5e-43], [0.0, 1.4e-45], [1e-44, 2e-44], [-3e38, 3e38], [0.0, 1.0]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("symmetric", [False, True])
@pytest.mark.parametrize("repeat", [1, 2100])
def test_row_search_never_picks_a_zero_or_infinite_scale(repeat, symmetric):
    """One row runs every alpha group; 2,100 rows of 2 values put the stack
    above the group budget, where alphas run one at a time. Either way, each
    row alone or all kinds in one stack, every row gets the oracle's finite
    params and MSE, and its codes fit the range."""
    kinds = np.array(EXTREME_ROWS, dtype=np.float32)
    stacks = [np.repeat(kinds[j : j + 1], repeat, axis=0) for j in range(len(kinds))]
    stacks.append(np.resize(kinds, (max(repeat, len(kinds)), 2)))
    for bits in range(2 if symmetric else 1, 9):
        qmin, qmax = quantize._qrange(bits, symmetric)
        want = {}
        for row in kinds:
            want[row.tobytes()] = oracles.clip_range_scalar(row, bits, symmetric)
            assert 0 < want[row.tobytes()][0].scale < np.inf and np.isfinite(want[row.tobytes()][1])
        for stack in stacks:
            scale, zero, err = choose_clip_rows(stack, bits, symmetric)
            for row, s, z, e in zip(stack, scale, zero, err):
                p, want_err = want[row.tobytes()]
                assert _exact(QuantParams(bits, float(s), float(z), symmetric)) == _exact(p), (bits, row)
                assert e == want_err, (bits, row)
            q, deq = quantize.quantize_rows(stack, bits, symmetric)[:2]
            assert qmin <= q.min() and q.max() <= qmax
            assert np.isfinite(deq).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 1), (2, 2500)])
def test_row_search_at_float32_max_matches_the_oracle(shape):
    """Values at float32's max reconstruct to inf at alpha 1.0, an error of
    +inf that loses, and raise no overflow warning: on one row (the grouped
    passes) and on a 2 x 5000 stack (the bounded path)."""
    top = np.finfo(np.float32).max
    stack = np.tile(np.array([[-top, top]], dtype=np.float32), shape)
    for bits, symmetric in ((8, True), (2, True), (1, False), (8, False)):
        want, want_err = oracles.clip_range_scalar(stack[0], bits, symmetric)
        scale, zero, err = choose_clip_rows(stack, bits, symmetric)
        for s, z, e in zip(scale, zero, err):
            assert _exact(QuantParams(bits, float(s), float(z), symmetric)) == _exact(want), (bits, symmetric)
            assert e == want_err, (bits, symmetric)


def test_row_search_validates_the_stack():
    rows = np.ones((3, 4), dtype=np.float32)
    with pytest.raises(QuantError, match="empty"):
        choose_clip_rows(np.zeros((2, 0), dtype=np.float32), 4, symmetric=False)
    rows[1, 2] = np.nan
    with pytest.raises(QuantError, match="non-finite"):
        choose_clip_rows(rows, 4, symmetric=False)
    with pytest.raises(QuantError, match="bit-width"):
        choose_clip_rows(np.ones((3, 4), dtype=np.float32), 1, symmetric=True)



def _shifting_codes(x, p):
    """The codes step as the oracle runs it: always shifted by the zero point,
    whatever its value or sign."""
    s, z = np.float64(np.float32(p.scale)), np.float64(np.float32(p.zero_point))
    lo, hi = p.qrange()
    q = np.clip(np.rint(x.astype(np.float64) / s + z), lo, hi).astype(np.int64)
    return q, ((q - z) * s).astype(np.float32)


def _signed_zero_stacks(rng, m):
    """ReLU rows with min +0.0, the same with min -0.0, signed rows with
    -0.0 values inside, and all three mixed."""
    relu = np.maximum(rng.standard_normal((3, m)), 0).astype(np.float32)
    relu[:, 0] = 0.0
    negzero = np.where(relu == 0, np.float32(-0.0), relu)
    signed = rng.standard_normal((3, m)).astype(np.float32)
    signed[:, ::7] = -0.0
    return [relu, negzero, signed, np.concatenate([relu[:1], negzero[:1], signed[:1]])]


@pytest.mark.parametrize("m", [1, 2, 300, 2048, 3000])
def test_zero_point_skip_matches_always_shifting_codes(m):
    """Where no zero point of a search is nonzero (a symmetric search, or rows
    whose min is +-0), the searches and codes skip the shifts. Codes,
    reconstruction, scale and zero point keep every byte, the sign of each
    zero included, and the MSE stays the oracle's."""
    rng = np.random.default_rng(80 + m)
    for stack in _signed_zero_stacks(rng, m):
        for symmetric in (False, True):
            for bits in range(2 if symmetric else 1, 9):
                q, deq, scale, zero = quantize.quantize_rows(stack, bits, symmetric)
                err = choose_clip_rows(stack, bits, symmetric)[2]
                for k, row in enumerate(stack):
                    want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
                    want_q, want_deq = _shifting_codes(row, want)
                    got = (scale[k].tobytes(), zero[k].tobytes(), q[k].tobytes(), deq[k].tobytes())
                    assert got == (
                        np.float32(want.scale).tobytes(),
                        np.float32(want.zero_point).tobytes(),
                        want_q.tobytes(),
                        want_deq.tobytes(),
                    ), (bits, symmetric, k)
                    assert err[k] == want_err, (bits, symmetric, k)


def _bound_edges(bits):
    """Live-element counts one below and at the width's CLIP_BOUND_ELEMENTS,
    and at the alpha-group edges (k = 1, 2, 3 and 11)."""
    t = CLIP_BOUND_ELEMENTS[min(bits, len(CLIP_BOUND_ELEMENTS)) - 1]
    edges = [CLIP_GROUP_ELEMENTS // k + d for k in (1, 2, 3) for d in (0, 1)] + [len(CLIP_ALPHAS) * 2, 1]
    return t, ([t - 1, t] if t < np.inf else []) + edges


@pytest.mark.parametrize("bits, symmetric", [(b, s) for s in (False, True) for b in range(2 if s else 1, 9)])
def test_row_search_matches_the_oracle_at_the_bound_threshold(monkeypatch, bits, symmetric):
    """Single rows, a row beside an all-zero one, and two half rows beside
    it, with live elements one below and at the width's threshold and at the
    alpha-group edges: the bound runs from the threshold on, and every row
    gets the oracle's params and MSE exactly."""
    rng = np.random.default_rng(90 + bits + 10 * symmetric)
    bounds = []
    run = quantize._clip_bounds
    monkeypatch.setattr(quantize, "_clip_bounds", lambda *a: bounds.append(1) or run(*a))
    t, sizes = _bound_edges(bits)
    for size in sizes:
        zeros = np.zeros(size, dtype=np.float32)
        stacks = [_stress_row(rng, kind, size, bits)[None] for kind in ("relu", "signed", "quarter_grid")]
        stacks.append(np.stack([_stress_row(rng, "cauchy", size, bits), zeros]))
        if size % 2 == 0:
            halves = [_stress_row(rng, kind, size // 2, bits) for kind in ("relu", "huge")]
            stacks.append(np.stack([halves[0], zeros[: size // 2], halves[1]]))
        for stack in stacks:
            bounds.clear()
            scale, zero, err = choose_clip_rows(stack, bits, symmetric)
            assert len(bounds) == (size >= t), (size, stack.shape)
            for k, row in enumerate(stack):
                want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
                assert _exact(QuantParams(bits, float(scale[k]), float(zero[k]), symmetric)) == _exact(want), (size, k)
                assert err[k] == want_err, (size, k)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bound_from", [(1,), (np.inf,)])
def test_row_search_matches_the_oracle_whatever_the_threshold(monkeypatch, bound_from):
    """The threshold only trades time: bounding every stack, the 1-bit ones
    and those at float32's limits included, or none, gives each row the
    oracle's params and MSE exactly."""
    monkeypatch.setattr(quantize, "CLIP_BOUND_ELEMENTS", bound_from)
    rng = np.random.default_rng(95)
    for symmetric in (False, True):
        for bits in range(2 if symmetric else 1, 9):
            stacks = [np.array(EXTREME_ROWS, dtype=np.float32), _clip_search_rows(rng, 40, bits)]
            stacks.append(np.stack([_stress_row(rng, kind, 300, bits) for kind in ROW_KINDS]))
            for stack in stacks:
                scale, zero, err = choose_clip_rows(stack, bits, symmetric)
                for k, row in enumerate(stack):
                    want, want_err = oracles.clip_range_scalar(row, bits, symmetric)
                    assert _exact(QuantParams(bits, float(scale[k]), float(zero[k]), symmetric)) == _exact(want), (bits, k)
                    assert err[k] == want_err, (bits, k)


def test_bounded_search_skips_alphas_on_a_relu_row(monkeypatch):
    """A session's first-layer row: one 2,048-value ReLU row at 8 bits is
    bounded too, and runs fewer than the 11 alphas."""
    rng = np.random.default_rng(71)
    row = _stress_row(rng, "relu", 2048, 8)[None]
    alphas = []
    run = quantize._clip_pass
    monkeypatch.setattr(quantize, "_clip_pass", lambda *a: alphas.append(len(a[1])) or run(*a))
    scale, zero, err = choose_clip_rows(row, 8, symmetric=False)
    assert 1 <= sum(alphas) < len(CLIP_ALPHAS)
    want, want_err = oracles.clip_range_scalar(row[0], 8, False)
    assert (float(scale[0]), float(zero[0]), err[0]) == (want.scale, want.zero_point, want_err)


def test_clip_bound_keeps_its_rounding_margin():
    """A row whose in-range values sit on alpha 0.5's 1-bit grid: that
    alpha's pass error is the clipped tails' terms alone, summed in another
    order than _tail_sums sums them, and on this row their unmargined sum is
    an ulp above the pass's. The bound's margin keeps it at most the pass's."""
    bits, a, m = 1, CLIP_ALPHAS.index(0.5), 256
    rng = np.random.default_rng(9)
    ext = np.array([[-rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]], np.float32)
    s64, z64 = _alpha_params(ext, bits, False)
    grid = ((np.arange(2) - z64[a, 0, 0]) * s64[a, 0, 0]).astype(np.float32)
    above = rng.random(m - 2) < 0.5
    tail = np.where(above, rng.uniform(grid[-1], ext[0, 1], m - 2), rng.uniform(ext[0, 0], grid[0], m - 2))
    x = np.concatenate([ext[0], np.where(rng.random(m - 2) < 0.5, rng.choice(grid, m - 2), tail)])
    x = x.astype(np.float32)[None]  # its extremes are ext's, so its params are too
    s64, z64 = s64[a : a + 1], z64[a : a + 1]
    p = QuantParams(bits, float(s64[0, 0, 0]), float(z64[0, 0, 0]), False)
    inside = (x >= grid[0]) & (x <= grid[-1])
    assert (quantize_tensor(x, p)[1][inside] == x[inside]).all()  # in range, every value reconstructs exactly

    buf = np.empty((1,) + x.shape)
    pass_sum = np.empty((1, 1))
    quantize._clip_pass(x, s64, z64, 0, 1, buf, pass_sum)
    lo, hi = x.min(axis=1).astype(np.float64), x.max(axis=1).astype(np.float64)
    rec = grid.astype(np.float64)[:, None, None]
    tails = quantize._tail_sums(x, rec[1], hi, True, buf) + quantize._tail_sums(x, rec[0], lo, False, buf)
    assert tails[0, 0] > pass_sum[0, 0]  # unmargined, the bound would prune an alpha that can win
    assert quantize._clip_bounds(x, lo, hi, s64, z64, 0, 1, buf)[0, 0] <= pass_sum[0, 0]


@pytest.mark.parametrize("symmetric", [False, True])
def test_clip_bound_with_the_alpha_one_error_never_exceeds_the_pass_error(symmetric):
    """Given each row's alpha 1.0 sum, the bounds of the alphas whose extremes
    alone reach it skip the tails; every bound is still at most its pass's."""
    rng = np.random.default_rng(62 + symmetric)
    for bits in range(2 if symmetric else 1, 9):
        live = [k for k in ROW_KINDS if k not in ("constant", "zeros")]
        x = np.stack([_stress_row(rng, kind, 700, bits) for kind in live])
        qmin, qmax = quantize._qrange(bits, symmetric)
        s64, z64 = _alpha_params(x, bits, symmetric)
        buf = np.empty((1,) + x.shape)
        sums = np.empty(s64.shape[:2])
        for a in range(len(CLIP_ALPHAS)):
            quantize._clip_pass(x, s64[a : a + 1], z64[a : a + 1], qmin, qmax, buf, sums[a : a + 1])
        lower = quantize._clip_bounds(x, x.min(axis=1), x.max(axis=1), s64[1:], z64[1:], qmin, qmax, buf, sums[0])
        assert (lower <= sums[1:]).all(), np.argwhere(lower > sums[1:])


def test_row_search_of_an_empty_stack_is_empty():
    for symmetric in (False, True):
        scale, zero, err = choose_clip_rows(np.zeros((0, 5), dtype=np.float32), 4, symmetric)
        assert scale.shape == zero.shape == err.shape == (0,)


def test_quantize_rows_peaks_no_higher_than_before():
    """tracemalloc's peak above the base while quantize_rows runs on a 16 x 2,048
    float32 block stays within the codes step's own arrays, 20 bytes an
    element (its float64 work array, the int64 codes and the float32
    reconstruction), plus 8 KiB for the small arrays, whose count moves a few
    hundred bytes with NumPy's cache of freed ones. The search holds no
    float64 copy of the block, which would add 256 KiB. Before the shift skip
    these blocks peaked at 658,499 to 658,619 bytes, after it at 658,080 to
    659,019."""
    import tracemalloc

    rng = np.random.default_rng(72)
    blocks = [np.maximum(rng.standard_normal((16, 2048)), 0).astype(np.float32)]
    blocks.append(rng.standard_normal((16, 2048)).astype(np.float32))
    for x in blocks:
        for bits in (2, 4, 8):
            quantize.quantize_rows(x, bits, symmetric=False)  # first-call allocations
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = quantize.quantize_rows(x, bits, symmetric=False)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            del out
            assert peak <= 20 * x.size + 8192, (bits, peak)

# -- distortion tables ----------------------------------------------------------


def _table(kind="w", bits=(2, 4, 8)):
    sizes = {0: 10, 1: 0, 2: 7}
    d = {}
    for i in sizes:
        for k, b in enumerate(bits):
            d[(i, b)] = 0.0 if sizes[i] == 0 else 1.0 / (k + 1) / (i + 1)
    return DistortionTable(kind, bits, sizes, d)


def test_table_rates_linear_and_reference_bits_free():
    t = _table()
    assert t.bits == (2, 4, 8)
    assert t.r(0, 4) == 40
    assert t.r(1, 8) == 0
    assert t.d(0, 16) == 0.0
    assert t.layers() == [0, 1, 2]


def test_table_kind_checked():
    with pytest.raises(QuantError, match="kind"):
        DistortionTable("x", (2,), {0: 1}, {(0, 2): 0.0})


def test_table_rejects_negative_distortion():
    # a row need not fall with the width (a clip range per width can land a
    # tiny tensor closer to the grid at fewer bits), but it cannot go below 0
    d = {(0, 2): 1.0, (0, 4): 2.0, (0, 8): 0.5}
    assert [DistortionTable("w", (2, 4, 8), {0: 3}, d).d(0, b) for b in (2, 4, 8)] == [1.0, 2.0, 0.5]
    with pytest.raises(QuantError, match="negative"):
        DistortionTable("w", (2,), {0: 3}, {(0, 2): -1e-9})


def test_table_csv_roundtrip(tmp_path):
    # the CSV holds one row per (layer, width): each cell's MSE to 13
    # significant digits and its rate
    t = _table("a")
    path = tmp_path / "table.csv"
    t.to_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(int(r["layer_id"]), int(r["bits"])) for r in rows] == [(i, b) for i in t.layers() for b in t.bits]
    for r in rows:
        i, b = int(r["layer_id"]), int(r["bits"])
        assert r["kind"] == "a"
        assert float(r["mse"]) == pytest.approx(t.d(i, b), rel=1e-12, abs=1e-300)
        assert int(r["rate_bits"]) == t.r(i, b)


def test_table_array_is_the_dict_it_was_built_from():
    # one float64 array holds the cells, layers ascending and widths in
    # `bits` order; widths at 16 and above read 0 by definition
    rng = np.random.default_rng(13)
    sizes = {7: 5, 2: 0, 11: 3}
    d = {(i, b): float(rng.uniform(0, 2)) for i in sizes for b in (8, 2, 16, 4)}
    t = DistortionTable("w", (8, 2, 16, 4), sizes, d)
    assert t.bits == (2, 4, 8, 16) and t.layers() == [2, 7, 11]
    assert t.mse.dtype == np.float64 and t.mse.shape == (3, 4)
    for k, i in enumerate(t.layers()):
        assert t.row[i] == k
        assert t.mse[k].tolist() == [d[(i, 2)], d[(i, 4)], d[(i, 8)], 0.0]
        assert [t.d(i, b) for b in t.bits] == t.mse[k].tolist()
        assert all(type(t.d(i, b)) is float for b in t.bits)
    with pytest.raises(KeyError):
        t.d(5, 2)
    with pytest.raises(KeyError):
        DistortionTable("w", (2, 4), {0: 1}, {(0, 2): 1.0})
    with pytest.raises(QuantError, match="negative distortion at layer 11"):
        DistortionTable("w", (2, 4), {2: 1, 11: 1}, {(2, 2): 1.0, (2, 4): 0.5, (11, 2): 0.1, (11, 4): -0.1})


def test_weight_table_from_graph():
    rng = np.random.default_rng(11)
    g = random_dag(rng, max_nodes=10)
    t = weight_distortion_table(g, (2, 4, 8))
    assert t.layers() == sorted(g.compute_ids())
    for i in t.layers():
        n = g.nodes[i]
        assert t.sizes[i] == n.weight_elements()
        if n.weight_elements() == 0:
            assert all(t.d(i, b) == 0.0 for b in t.bits)
        else:
            sym = n.op_kind != "batchnorm"
            if sym:
                assert t.d(i, 2) == _row_mse(n.weights, 2, symmetric=True)
            assert t.d(i, 8) <= t.d(i, 2) + 1e-12
    assert weight_distortion_table(g, (4, 16)).mse[:, 1].tolist() == [0.0] * len(t.layers())


def test_weight_table_requires_blobs():
    rng = np.random.default_rng(12)
    g = random_dag(rng, max_nodes=8)
    weighted = [i for i, n in g.nodes.items() if n.weight_elements() and n.weights is not None]
    g.nodes[weighted[0]].weights = None
    with pytest.raises(QuantError, match="no weights"):
        weight_distortion_table(g, (2, 4))


def test_activation_table_is_mean_over_samples(toy_graph):
    inputs = [random_grid_input(np.random.default_rng(s), (1, 16, 16)) for s in range(3)]
    calib = calibrate_activations(toy_graph, inputs)
    from bitsplit.quantize import activation_distortion_table

    t = activation_distortion_table(toy_graph, calib, (2, 4, 8))
    nid = toy_graph.compute_ids()[0]
    want = float(np.mean([_row_mse(s, 4, symmetric=False) for s in calib[nid]]))
    assert t.d(nid, 4) == pytest.approx(want)
    assert t.sizes[nid] == toy_graph.nodes[nid].act_elements()
