import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bitsplit.engine import calibrate_activations
from bitsplit import quantize
from bitsplit.quantize import (
    CLIP_ALPHAS,
    CLIP_GROUP_ELEMENTS,
    DistortionTable,
    QuantError,
    QuantParams,
    choose_clip_range,
    choose_clip_rows,
    dequantize,
    mse,
    quant_mse,
    quantize_tensor,
    weight_distortion_table,
)
from helpers import random_dag, random_grid_input


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
    assert quant_mse(x, 4, symmetric=True) == 0.0


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
            errs = [quant_mse(x, b, sym) for b in ladder]
            for a, b in zip(errs, errs[1:]):
                assert b <= a + 1e-12
        assert quant_mse(x, 16, symmetric=True) == 0.0


def test_better_than_naive_minmax():
    # the alpha sweep can only improve on the full-range choice
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.standard_normal(500), [15.0]]).astype(np.float32)  # outlier
    p_full = QuantParams(4, float(np.float32(np.max(np.abs(x)) / 7)), 0.0, True)
    _, deq_full = quantize_tensor(x, p_full)
    assert quant_mse(x, 4, symmetric=True) <= mse(x, deq_full) + 1e-15


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
                assert quant_mse(row, bits, symmetric) == want_err


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


def test_row_search_validates_the_stack():
    rows = np.ones((3, 4), dtype=np.float32)
    with pytest.raises(QuantError, match="empty"):
        choose_clip_rows(np.zeros((2, 0), dtype=np.float32), 4, symmetric=False)
    rows[1, 2] = np.nan
    with pytest.raises(QuantError, match="non-finite"):
        choose_clip_rows(rows, 4, symmetric=False)
    with pytest.raises(QuantError, match="bit-width"):
        choose_clip_rows(np.ones((3, 4), dtype=np.float32), 1, symmetric=True)


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
    t = _table("a")
    path = tmp_path / "table.csv"
    t.to_csv(path)
    u = DistortionTable.from_csv(path)
    assert u.kind == "a"
    assert u.bits == t.bits
    assert u.sizes == t.sizes
    for i in t.layers():
        for b in t.bits:
            assert u.d(i, b) == pytest.approx(t.d(i, b), rel=1e-10, abs=1e-300)
            assert u.r(i, b) == t.r(i, b)


def test_table_csv_mixed_kinds_rejected(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "layer_id,bits,kind,mse,rate_bits\n1,2,w,0.5,20\n1,4,a,0.25,40\n"
    )
    with pytest.raises(QuantError, match="mixed"):
        DistortionTable.from_csv(path)


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
                assert t.d(i, 2) == pytest.approx(quant_mse(n.weights, 2, symmetric=True))
            assert t.d(i, 8) <= t.d(i, 2) + 1e-12


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
    want = float(np.mean([quant_mse(s, 4, symmetric=False) for s in calib[nid]]))
    assert t.d(nid, 4) == pytest.approx(want)
    assert t.sizes[nid] == toy_graph.nodes[nid].act_elements()
