import numpy as np
import pytest

import oracles
from bitsplit.engine import calibrate_activations
from bitsplit.graph import topological_order
from bitsplit.quantize import (
    CLIP_ALPHAS,
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
from bitsplit.synth import random_dag, random_grid_input


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


def test_table_monotonicity_enforced():
    d = {(0, 2): 1.0, (0, 4): 2.0, (0, 8): 0.5}
    with pytest.raises(QuantError, match="monotone"):
        DistortionTable("w", (2, 4, 8), {0: 3}, d)
    with pytest.raises(QuantError, match="negative"):
        DistortionTable("w", (2,), {0: 3}, {(0, 2): -1e-9})


def test_table_restrict():
    t = _table()
    r = t.restrict([0, 2])
    assert r.layers() == [0, 2]
    assert r.d(2, 4) == t.d(2, 4)
    with pytest.raises(KeyError):
        r.r(1, 2)


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
    order = topological_order(g)
    assert t.layers() == sorted(i for i in order if i != g.input_id)
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
    order = topological_order(toy_graph)
    inputs = [random_grid_input(np.random.default_rng(s), (1, 16, 16)) for s in range(3)]
    calib = calibrate_activations(toy_graph, inputs, order=order)
    from bitsplit.quantize import activation_distortion_table

    t = activation_distortion_table(toy_graph, calib, (2, 4, 8))
    nid = order[1]
    want = float(np.mean([quant_mse(s, 4, symmetric=False) for s in calib[nid]]))
    assert t.d(nid, 4) == pytest.approx(want)
    assert t.sizes[nid] == toy_graph.nodes[nid].act_elements()
