import struct
import time

import numpy as np
import pytest

import oracles
from bitsplit import wire
from bitsplit.cost import crossing_bits_map, message_payload_bytes
from bitsplit.graph import GraphError, boundary_cut, topological_order
from bitsplit.search import BitAssignment, SplitSolution
from bitsplit.synth import random_dag
from bitsplit.wire import (
    ActivationMessage,
    BadMagicError,
    BadVersionError,
    ChannelClosedError,
    PACKABLE_BITS,
    TruncatedError,
    WireError,
    decode_message,
    edge_role,
    encode_message,
    make_channel_pair,
    pack_activations,
    reference_outputs,
    run_split_session,
    run_tcp_session,
    unpack_activations,
)
from helpers import grid_input_covering, random_assignment, uniform_assignment


def make_sol(n, assignment):
    return SplitSolution(
        n=n,
        assignment=assignment,
        breakdown=None,
        total_distortion=0.0,
        edge_weight_bytes=0.0,
        edge_act_bytes=0.0,
    )


# -- packing -----------------------------------------------------------------------


def test_pack_golden_values():
    assert pack_activations(np.array([1, 2, 3, 4]), 4) == b"\x21\x43"
    assert pack_activations(np.array([1, 0, 1, 1, 0, 0, 1, 0]), 1) == b"\x4d"
    assert pack_activations(np.array([3, 0, 1, 2]), 2) == b"\x93"
    assert pack_activations(np.array([7, 255]), 8) == b"\x07\xff"


def test_pack_pads_last_byte_with_zeros():
    assert pack_activations(np.array([15, 15, 15]), 4) == b"\xff\x0f"
    assert pack_activations(np.array([1]), 1) == b"\x01"


def test_pack_is_channel_last():
    rng = np.random.default_rng(3)
    for shape in [(3, 2, 2), (4, 5), (6,), (2, 3, 2, 2)]:
        q = rng.integers(0, 16, size=shape)
        want = oracles.pack_ref([q[idx] for idx in oracles.channel_last_order(shape)], 4)
        assert pack_activations(q, 4) == want


def test_pack_round_trips_every_width():
    rng = np.random.default_rng(4)
    for bits in PACKABLE_BITS:
        for shape in [(3, 4, 4), (5,), (2, 7)]:
            q = rng.integers(0, 1 << bits, size=shape)
            buf = pack_activations(q, bits)
            assert len(buf) == message_payload_bytes(q.size, bits)
            back = unpack_activations(buf, bits, shape)
            assert np.array_equal(back, q)


def test_pack_rejects_out_of_range():
    with pytest.raises(WireError, match="out of range"):
        pack_activations(np.array([4]), 2)
    with pytest.raises(WireError, match="out of range"):
        pack_activations(np.array([-1]), 8)
    with pytest.raises(WireError, match="cannot pack"):
        pack_activations(np.array([0]), 3)
    with pytest.raises(WireError, match="cannot pack"):
        pack_activations(np.array([0]), 16)


def test_unpack_rejects_wrong_length():
    with pytest.raises(WireError, match="does not match"):
        unpack_activations(b"\x00", 4, (4,))
    with pytest.raises(WireError, match="does not match"):
        unpack_activations(b"\x00\x00\x00", 4, (4,))


# -- message codec -----------------------------------------------------------------


def _sample_message():
    payload = pack_activations(np.arange(6).reshape(2, 3) % 16, 4)
    return ActivationMessage(
        tensor_id=7, bits=4, scale=0.5, zero_point=3.0, shape=(2, 3), payload=payload
    )


def test_encode_golden_bytes():
    buf = encode_message(_sample_message())
    want = (
        b"\x53\x41"              # magic 0x4153
        b"\x01"                  # version
        b"\x04"                  # bits
        b"\x07\x00\x00\x00"      # tensor id
        b"\x00\x00\x00\x3f"      # scale 0.5
        b"\x00\x00\x40\x40"      # zero point 3.0
        b"\x02"                  # ndim
        b"\x02\x00\x00\x00\x03\x00\x00\x00"  # dims
        b"\x03\x00\x00\x00"      # payload length
    )
    assert buf.startswith(want)
    assert len(buf) == len(want) + 3


def test_message_round_trip():
    rng = np.random.default_rng(5)
    for bits in PACKABLE_BITS:
        shape = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(1, 4))))
        q = rng.integers(0, 1 << bits, size=shape)
        m = ActivationMessage(
            tensor_id=int(rng.integers(0, 1000)),
            bits=bits,
            scale=float(np.float32(rng.uniform(1e-4, 2.0))),
            zero_point=float(np.float32(rng.uniform(-5, 5))),
            shape=shape,
            payload=pack_activations(q, bits),
        )
        back = decode_message(encode_message(m))
        assert back == m
        assert np.array_equal(unpack_activations(back.payload, back.bits, back.shape), q)


def test_decode_rejects_every_truncation():
    buf = encode_message(_sample_message())
    for cut in range(len(buf)):
        with pytest.raises(TruncatedError):
            decode_message(buf[:cut])


def test_decode_rejects_trailing_bytes():
    buf = encode_message(_sample_message()) + b"\x00"
    with pytest.raises(WireError, match="trailing"):
        decode_message(buf)


def test_decode_rejects_bad_magic():
    buf = bytearray(encode_message(_sample_message()))
    buf[0] ^= 0xFF
    with pytest.raises(BadMagicError, match="bad magic"):
        decode_message(bytes(buf))


def test_decode_rejects_bad_version():
    buf = bytearray(encode_message(_sample_message()))
    buf[2] = 9
    with pytest.raises(BadVersionError):
        decode_message(bytes(buf))


def test_decode_rejects_bad_bits_field():
    buf = bytearray(encode_message(_sample_message()))
    buf[3] = 3  # not a packable width
    with pytest.raises(WireError, match="bad bits"):
        decode_message(bytes(buf))


def test_decode_rejects_payload_shape_mismatch():
    head = struct.pack(
        "<HBBIffB", 0x4153, 1, 8, 0, np.float32(1.0), np.float32(0.0), 1
    )
    buf = head + struct.pack("<i", 4) + struct.pack("<I", 2) + b"\x00\x00"
    with pytest.raises(WireError, match="inconsistent with shape"):
        decode_message(buf)


# -- end-to-end sessions --------------------------------------------------------------


def test_session_equals_reference_on_toy(toy_graph):
    rng = np.random.default_rng(8)
    order = topological_order(toy_graph)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    compute = [i for i in order if i != toy_graph.input_id]
    for n in (0, 2, 4, len(compute)):
        sol = make_sol(n, random_assignment(toy_graph, order, n, rng))
        got = run_split_session(toy_graph, x, sol, order=order)
        want = reference_outputs(toy_graph, x, sol, order=order)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert np.array_equal(a, b)


def test_tcp_session_equals_reference(toy_graph):
    rng = np.random.default_rng(9)
    order = topological_order(toy_graph)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(3, random_assignment(toy_graph, order, 3, rng))
    got = run_tcp_session(toy_graph, x, sol, order=order)
    want = reference_outputs(toy_graph, x, sol, order=order)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_transcript_matches_cost_accounting(toy_graph):
    rng = np.random.default_rng(10)
    order = topological_order(toy_graph)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    for n in (0, 3):
        sol = make_sol(n, uniform_assignment(toy_graph, order, n, 8, 4))
        _, transcript = run_split_session(
            toy_graph, x, sol, order=order, want_transcript=True
        )
        cut = boundary_cut(toy_graph, order, n)
        bits_map = crossing_bits_map(toy_graph, cut, sol.assignment)
        assert [row["tensor_id"] for row in transcript] == list(cut.crossing_tensors)
        for row in transcript:
            nid = row["tensor_id"]
            assert row["bits"] == bits_map[nid]
            assert row["elements"] == toy_graph.nodes[nid].act_elements()
            want_bytes = message_payload_bytes(row["elements"], row["bits"])
            assert row["payload_bytes"] == want_bytes
            assert row["expected_payload_bytes"] == want_bytes


def test_sessions_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(8):
        g = random_dag(rng, max_nodes=9)
        order = topological_order(g)
        compute = [i for i in order if i != g.input_id]
        x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
        n = int(rng.integers(0, len(compute) + 1))
        sol = make_sol(n, random_assignment(g, order, n, rng))
        got = run_split_session(g, x, sol, order=order)
        want = reference_outputs(g, x, sol, order=order)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [0, 3])
def test_sessions_take_one_input_not_a_stack(toy_graph, n):
    rng = np.random.default_rng(13)
    order = topological_order(toy_graph)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(n, uniform_assignment(toy_graph, order, n, 8, 8))
    with pytest.raises(GraphError, match="input shape"):
        reference_outputs(toy_graph, x[None], sol, order=order)
    with pytest.raises(GraphError, match="input shape"):
        run_split_session(toy_graph, x[None], sol, order=order)


def _sixteen_bit_boundary_plan(g, order, n):
    asg = uniform_assignment(g, order, n, 8, 8)
    cut = boundary_cut(g, order, n)
    crossing = [i for i in cut.crossing_tensors if i != g.input_id]
    return make_sol(n, BitAssignment(weight_bits=asg.weight_bits, act_bits={**asg.act_bits, crossing[0]: 16}))


def test_edge_refuses_untransportable_bits(toy_graph):
    order = topological_order(toy_graph)
    sol = _sixteen_bit_boundary_plan(toy_graph, order, 3)
    x = grid_input_covering(np.random.default_rng(13), toy_graph.nodes[toy_graph.input_id].out_shape)
    a, b = make_channel_pair()
    try:
        with pytest.raises(WireError, match="non-transportable"):
            edge_role(toy_graph, x, sol, a, order=order)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("runner", [run_split_session, run_tcp_session])
def test_sessions_raise_the_edge_error(toy_graph, runner):
    order = topological_order(toy_graph)
    sol = _sixteen_bit_boundary_plan(toy_graph, order, 3)
    x = grid_input_covering(np.random.default_rng(13), toy_graph.nodes[toy_graph.input_id].out_shape)
    with pytest.raises(WireError, match="non-transportable bit-width") as info:
        runner(toy_graph, x, sol, order=order)
    assert isinstance(info.value.__cause__, ChannelClosedError)


def test_tcp_session_fails_promptly_when_edge_cannot_connect(toy_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise ConnectionRefusedError("edge cannot connect")

    monkeypatch.setattr(wire.socket, "create_connection", refuse)
    monkeypatch.setattr(wire, "CONNECT_TIMEOUT_S", 0.5)
    order = topological_order(toy_graph)
    x = grid_input_covering(np.random.default_rng(14), toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(3, uniform_assignment(toy_graph, order, 3, 8, 8))
    t0 = time.monotonic()
    with pytest.raises(ConnectionRefusedError) as info:
        run_tcp_session(toy_graph, x, sol, order=order)
    assert time.monotonic() - t0 < 5.0
    assert isinstance(info.value.__cause__, ChannelClosedError)


def test_sessions_keep_a_cloud_error_that_is_not_a_closed_channel():
    def edge():
        raise ChannelClosedError("send failed: timed out")

    def cloud():
        raise BadMagicError("bad magic 0x0000")

    with pytest.raises(BadMagicError, match="bad magic"):
        wire._drive(edge, cloud)
