import math
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bitsplit import engine, wire
from bitsplit.cost import crossing_bits_map, message_payload_bytes
from bitsplit.engine import EVAL_BLOCK, EvalSet, evaluate_accuracy, float_accuracy, run_inference
from bitsplit.graph import GraphError, LayerGraph, LayerNode, boundary_cut, optimize_graph
from bitsplit.search import BitAssignment, SplitSolution
from bitsplit.synth import make_toy_classifier
from bitsplit.wire import (
    ActivationMessage,
    BadMagicError,
    BadVersionError,
    Channel,
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
from helpers import grid_input_covering, random_assignment, random_dag, uniform_assignment


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


def _raw_message(bits, dims, payload):
    head = wire._HEAD.pack(wire.MAGIC, wire.VERSION, bits, 5, np.float32(0.5), np.float32(0.0), len(dims))
    return head + struct.pack("<%di" % len(dims), *dims) + struct.pack("<I", len(payload)) + payload


def test_decode_rejects_negative_dims():
    # (-1, 0) holds zero elements, so the empty payload alone would pass
    with pytest.raises(WireError, match="negative"):
        decode_message(_raw_message(8, (-1, 0), b""))


_DIM = st.one_of(st.integers(-2, 4), st.integers(-(2**31), 2**31 - 1))


@st.composite
def _message_bytes(draw):
    """Raw noise, or a header with arbitrary fields (up to 80 dims, more than
    numpy holds) whose payload length matches its shape or not, then whole,
    cut short or followed by extra bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    bits = draw(st.one_of(st.sampled_from(PACKABLE_BITS), st.integers(0, 255)))
    dims = draw(st.lists(_DIM, max_size=80))
    elements = math.prod(dims)
    if bits in PACKABLE_BITS and 0 <= elements <= 4096 and draw(st.booleans()):
        size = message_payload_bytes(elements, bits)
    else:
        size = draw(st.integers(0, 64))
    buf = _raw_message(bits, dims, draw(st.binary(min_size=size, max_size=size)))
    end = draw(st.sampled_from(("whole", "cut", "extra")))
    if end == "cut":
        return buf[: draw(st.integers(0, len(buf)))]
    return buf + (draw(st.binary(min_size=1, max_size=4)) if end == "extra" else b"")


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_message_bytes())
@example(_raw_message(8, (-1, 0), b""))
@example(_raw_message(8, (0, 2**31 - 1, 2**31 - 1, 2**31 - 1), b""))
@example(_raw_message(8, (1,) * 70, b"\x07"))
@example(_raw_message(8, (), b""))
def test_decoding_arbitrary_bytes_raises_only_wire_errors(buf):
    try:
        m = decode_message(buf)
        out = unpack_activations(m.payload, m.bits, m.shape)
    except WireError:
        return
    assert out.shape == tuple(m.shape)
    assert out.size == m.elements()


def test_empty_shapes_are_refused_both_ways():
    # no graph tensor is 0-d, and a 0-d array would hold one element
    with pytest.raises(WireError, match="empty shape"):
        decode_message(_raw_message(8, (), b""))
    for payload in (b"", b"\x07"):
        with pytest.raises(WireError, match="1 to 255 dims"):
            encode_message(ActivationMessage(1, 8, 1.0, 0.0, (), payload))


@st.composite
def _frame_stream(draw):
    """(stream, frames): length-prefixed frames, some with a forged length up
    to 4 GiB, then whole, cut at a random byte or followed by random bytes.
    frames is what an honest whole stream carries, else None."""
    frames = draw(st.lists(st.binary(max_size=48), max_size=4))
    honest = True
    stream = b""
    for payload in frames:
        size = len(payload)
        if draw(st.integers(0, 4)) == 0:
            size = draw(st.integers(0, 2**32 - 1))
            honest = honest and size == len(payload)
        stream += struct.pack("<I", size) + payload
    end = draw(st.sampled_from(("whole", "cut", "extra")))
    if end == "cut":
        return stream[: draw(st.integers(0, len(stream)))], None
    if end == "extra":
        return stream + draw(st.binary(min_size=1, max_size=8)), None
    return stream, frames if honest else None


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_frame_stream(), st.one_of(st.none(), st.integers(0, 64)))
@example((struct.pack("<I", 2**32 - 1) + b"abc", None), None)
@example((struct.pack("<I", 2**32 - 1) + b"abc", None), 64)
def test_recv_frame_returns_frames_or_raises_wire_errors(case, max_size):
    stream, frames = case
    writer, reader = socket.socketpair()
    reader.settimeout(5.0)  # a read that waited for bytes that never come would fail, not hang
    writer.sendall(stream)
    writer.close()
    chan = Channel(reader)
    got = []
    try:
        # a call that returns or rejects a length consumes at least its 4-byte
        # prefix, so the stream runs out within this many calls
        for _ in range(len(stream) // 4 + 1):
            try:
                got.append(chan.recv_frame(max_size=max_size))
            except ChannelClosedError as e:
                assert "timed out" not in str(e)
                break
            except WireError:
                continue
        else:
            pytest.fail("recv_frame kept returning after the stream ran out")
    finally:
        chan.close()
    if frames is not None and (max_size is None or all(len(f) <= max_size for f in frames)):
        assert got == frames


# -- end-to-end sessions --------------------------------------------------------------


def test_session_equals_reference_on_toy(toy_graph):
    rng = np.random.default_rng(8)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    compute = toy_graph.compute_ids()
    for n in (0, 2, 4, len(compute)):
        sol = make_sol(n, random_assignment(toy_graph, n, rng))
        got = run_split_session(toy_graph, x, sol)
        want = reference_outputs(toy_graph, x, sol)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == np.float32
            assert np.array_equal(a, b)


def test_tcp_session_equals_reference(toy_graph):
    rng = np.random.default_rng(9)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(3, random_assignment(toy_graph, 3, rng))
    got = run_tcp_session(toy_graph, x, sol)
    want = reference_outputs(toy_graph, x, sol)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_transcript_matches_cost_accounting(toy_graph):
    rng = np.random.default_rng(10)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    for n in (0, 3):
        sol = make_sol(n, uniform_assignment(toy_graph, n, 8, 4))
        _, transcript = run_split_session(toy_graph, x, sol, want_transcript=True)
        cut = boundary_cut(toy_graph, n)
        bits_map = crossing_bits_map(toy_graph, cut, sol.assignment.act_bits)
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
        compute = g.compute_ids()
        x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
        n = int(rng.integers(0, len(compute) + 1))
        sol = make_sol(n, random_assignment(g, n, rng))
        got = run_split_session(g, x, sol)
        want = reference_outputs(g, x, sol)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_sessions_that_ship_the_input_replay_exactly():
    # an input off the 8-bit grid: the edge ships it quantized, so the
    # reference's layers past the split read it as shipped
    rng = np.random.default_rng(31)
    shipped = 0
    for _ in range(12):
        g = random_dag(rng, max_nodes=10)
        x = rng.standard_normal(g.nodes[g.input_id].out_shape).astype(np.float32)
        for n in range(1, len(g.compute_ids()) + 1):
            sol = make_sol(n, random_assignment(g, n, rng))
            if g.input_id not in boundary_cut(g, n).crossing_tensors:
                continue
            want = reference_outputs(g, x, sol)
            runner = run_tcp_session if shipped == 0 else run_split_session
            got = runner(g, x, sol)
            shipped += 1
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
    assert shipped >= 5


def test_evaluation_runs_the_plan_as_deployed():
    # inputs off the 8-bit grid, at every split: row k of the stacked
    # evaluation pass is the session's output for input k, byte for byte,
    # whether or not the input crosses the split
    rng = np.random.default_rng(41)
    shipped = 0
    for _ in range(12):
        g = random_dag(rng, max_nodes=10)
        xs = rng.standard_normal((3, *g.nodes[g.input_id].out_shape)).astype(np.float32)
        for n in range(len(g.compute_ids()) + 1):
            sol = make_sol(n, random_assignment(g, n, rng))
            stacked = engine.run_fake_quantized(g, xs, n, sol.assignment)
            for k, x in enumerate(xs):
                got = run_split_session(g, x, sol)
                assert [a.tobytes() for a in got] == [b[k].tobytes() for b in stacked], (n, k)
            shipped += n > 0 and g.input_id in boundary_cut(g, n).crossing_tensors
    assert shipped >= 5


def test_accuracy_is_a_per_input_loop_over_the_replay_reference():
    # labels set to each input's prediction by a per-input loop: the
    # accuracy reads 1.0 only if every blocked prediction is that one
    rng = np.random.default_rng(42)
    graphs = moved = 0
    while graphs < 4:
        g = random_dag(rng, max_nodes=10)
        if len(g.output_ids) != 1:
            continue
        graphs += 1
        inputs = list(rng.standard_normal((EVAL_BLOCK + 4, *g.nodes[g.input_id].out_shape)).astype(np.float32))
        floats = [int(np.argmax(run_inference(g, x)[0])) for x in inputs]
        assert float_accuracy(g, EvalSet(inputs, floats)) == 1.0
        for n in range(len(g.compute_ids()) + 1):
            sol = make_sol(n, random_assignment(g, n, rng, choices=(2,)))
            labels = [int(np.argmax(reference_outputs(g, x, sol)[0])) for x in inputs]
            assert evaluate_accuracy(g, EvalSet(inputs, labels), n, sol.assignment) == 1.0, n
            moved += labels != floats
    assert moved  # the plans do change predictions


@pytest.mark.parametrize("n", [0, 3])
def test_sessions_take_one_input_not_a_stack(toy_graph, n):
    rng = np.random.default_rng(13)
    x = grid_input_covering(rng, toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(n, uniform_assignment(toy_graph, n, 8, 8))
    with pytest.raises(GraphError, match="input shape"):
        reference_outputs(toy_graph, x[None], sol)
    with pytest.raises(GraphError, match="input shape"):
        run_split_session(toy_graph, x[None], sol)


def test_sessions_quantize_each_edge_weight_once(monkeypatch):
    g = optimize_graph(make_toy_classifier(0))  # a graph no other test has quantized
    searched = []
    search = engine.choose_clip_range

    def counting(w, bits, symmetric):
        searched.append(id(w))
        return search(w, bits, symmetric)

    monkeypatch.setattr(engine, "choose_clip_range", counting)
    compute = g.compute_ids()
    sol = make_sol(len(compute), uniform_assignment(g, len(compute), 4, 8))
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = grid_input_covering(rng, g.nodes[g.input_id].out_shape)
        assert [a.tobytes() for a in run_split_session(g, x, sol)] == [
            b.tobytes() for b in reference_outputs(g, x, sol)
        ]
    weighted = [id(g.nodes[i].weights) for i in compute if g.nodes[i].weight_elements()]
    assert sorted(searched) == sorted(weighted)


def _sixteen_bit_boundary_plan(g, n):
    asg = uniform_assignment(g, n, 8, 8)
    cut = boundary_cut(g, n)
    crossing = [i for i in cut.crossing_tensors if i != g.input_id]
    return make_sol(n, BitAssignment(weight_bits=asg.weight_bits, act_bits={**asg.act_bits, crossing[0]: 16}))


def test_edge_refuses_untransportable_bits(toy_graph):
    sol = _sixteen_bit_boundary_plan(toy_graph, 3)
    x = grid_input_covering(np.random.default_rng(13), toy_graph.nodes[toy_graph.input_id].out_shape)
    a, b = make_channel_pair()
    try:
        with pytest.raises(WireError, match="non-transportable"):
            edge_role(toy_graph, x, sol, a)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("runner", [run_split_session, run_tcp_session])
def test_sessions_raise_the_edge_error(toy_graph, runner, monkeypatch):
    # the edge fails before it sends a frame, and the cloud never runs
    clouds = []
    monkeypatch.setattr(wire, "cloud_role", lambda *args, **kwargs: clouds.append(args))
    sol = _sixteen_bit_boundary_plan(toy_graph, 3)
    x = grid_input_covering(np.random.default_rng(13), toy_graph.nodes[toy_graph.input_id].out_shape)
    with pytest.raises(WireError, match="non-transportable bit-width"):
        runner(toy_graph, x, sol)
    assert clouds == []


def test_tcp_session_fails_promptly_when_edge_cannot_connect(toy_graph, monkeypatch):
    def refuse(*args, **kwargs):
        raise ConnectionRefusedError("edge cannot connect")

    monkeypatch.setattr(wire.socket, "create_connection", refuse)
    monkeypatch.setattr(wire, "CONNECT_TIMEOUT_S", 0.5)
    x = grid_input_covering(np.random.default_rng(14), toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(3, uniform_assignment(toy_graph, 3, 8, 8))
    t0 = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        run_tcp_session(toy_graph, x, sol)
    assert time.monotonic() - t0 < 5.0


def test_frame_cap_is_the_exact_message_size(toy_graph):
    x = grid_input_covering(np.random.default_rng(15), toy_graph.nodes[toy_graph.input_id].out_shape)
    for n in range(len(toy_graph.compute_ids()) + 1):
        sol = make_sol(n, uniform_assignment(toy_graph, n, 8, 4))
        for _, msg in wire._crossing_payloads(toy_graph, x, sol):
            assert len(encode_message(msg)) == wire._message_size(msg.shape, msg.bits)


def test_cloud_rejects_a_forged_frame_length_at_once(toy_graph):
    sol = make_sol(3, uniform_assignment(toy_graph, 3, 8, 8))
    edge_sock, cloud_sock = socket.socketpair()
    cloud_sock.settimeout(2.0)  # without the cap, recv would wait for 4 GiB
    chan = wire.Channel(cloud_sock)
    try:
        edge_sock.sendall(struct.pack("<I", 0xFFFFFFFF))
        t0 = time.monotonic()
        with pytest.raises(WireError, match="exceeds"):
            wire.cloud_role(toy_graph, sol, chan)
        assert time.monotonic() - t0 < 1.0
    finally:
        edge_sock.close()
        chan.close()


def _feed_cloud(g, sol, frames):
    """cloud_role over a socketpair whose far end sends `frames` and stays open."""
    edge_sock, cloud_sock = socket.socketpair()
    cloud_sock.settimeout(2.0)
    chan = wire.Channel(cloud_sock)
    try:
        for frame in frames:
            edge_sock.sendall(struct.pack("<I", len(frame)) + frame)
        return wire.cloud_role(g, sol, chan)
    finally:
        edge_sock.close()
        chan.close()


def test_cloud_rejects_a_message_narrower_than_the_plan(toy_graph):
    x = grid_input_covering(np.random.default_rng(18), toy_graph.nodes[toy_graph.input_id].out_shape)
    plan = make_sol(3, uniform_assignment(toy_graph, 3, 8, 8))
    narrow = make_sol(3, uniform_assignment(toy_graph, 3, 8, 4))
    msgs = [msg for _, msg in wire._crossing_payloads(toy_graph, x, narrow)]
    frames = [encode_message(msg) for msg in msgs]
    assert len(frames[0]) < wire._message_size(msgs[0].shape, 8)  # it fits under the frame cap
    with pytest.raises(WireError, match="sent at 4 bits, the plan ships 8"):
        _feed_cloud(toy_graph, plan, frames)


def test_cloud_rejects_a_frame_after_the_expected_ones(toy_graph):
    x = grid_input_covering(np.random.default_rng(19), toy_graph.nodes[toy_graph.input_id].out_shape)
    plan = make_sol(3, uniform_assignment(toy_graph, 3, 8, 8))
    frames = [encode_message(msg) for _, msg in wire._crossing_payloads(toy_graph, x, plan)]
    with pytest.raises(WireError, match="after the last expected frame"):
        _feed_cloud(toy_graph, plan, frames + frames[-1:])


_PAIRS = {"socketpair": make_channel_pair, "tcp": lambda: wire._tcp_channel_pair("127.0.0.1", 0)}


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_a_silent_edge_fails_the_cloud(toy_graph, pair, monkeypatch):
    # the edge's end stays open and sends nothing: the cloud's recv deadline
    # ends the session instead of waiting on the edge
    monkeypatch.setattr(wire, "RECV_TIMEOUT_S", 0.2)
    edge, cloud = _PAIRS[pair]()
    sol = make_sol(3, uniform_assignment(toy_graph, 3, 8, 8))
    t0 = time.monotonic()
    try:
        with pytest.raises(ChannelClosedError, match="timed out"):
            wire.cloud_role(toy_graph, sol, cloud)
        assert time.monotonic() - t0 < 5.0
    finally:
        edge.close()
        cloud.close()


def _wide_graph():
    """input (4, 128, 128) -> relu -> relu: every boundary message holds
    65,536 values."""
    shape = (4, 128, 128)
    return LayerGraph(
        [
            LayerNode(0, "input", out_shape=shape),
            LayerNode(1, "relu", out_shape=shape, inputs=[0]),
            LayerNode(2, "relu", out_shape=shape, inputs=[1]),
        ]
    )


def _small_buffers(sock):
    for opt in (socket.SO_SNDBUF, socket.SO_RCVBUF):
        sock.setsockopt(socket.SOL_SOCKET, opt, 4096)
    return sock


@pytest.mark.parametrize("runner", [run_split_session, run_tcp_session])
def test_frames_larger_than_the_socket_buffers_arrive_whole(runner, monkeypatch):
    # 64 KiB frames through sockets with 4 KiB buffers: the edge's sends fill
    # its socket, and it moves the waiting bytes to the cloud's buffer. The
    # TCP listener gets its buffers before the handshake, which sizes the
    # window the cloud advertises.
    socketpair, create_server, create_connection = socket.socketpair, socket.create_server, socket.create_connection
    monkeypatch.setattr(wire.socket, "socketpair", lambda: tuple(map(_small_buffers, socketpair())))
    monkeypatch.setattr(wire.socket, "create_server", lambda *a, **k: _small_buffers(create_server(*a, **k)))
    monkeypatch.setattr(wire.socket, "create_connection", lambda *a, **k: _small_buffers(create_connection(*a, **k)))
    pulls = []
    pull = wire.Channel._pull

    def counting(chan):
        pulls.append(chan)
        pull(chan)

    monkeypatch.setattr(wire.Channel, "_pull", counting)
    g = _wide_graph()
    x = np.random.default_rng(21).standard_normal(g.nodes[0].out_shape).astype(np.float32)
    for n in (0, 1):
        sol = make_sol(n, uniform_assignment(g, n, 8, 8))
        got = runner(g, x, sol)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in reference_outputs(g, x, sol)]
    assert pulls


@pytest.mark.parametrize("runner", [run_split_session, run_tcp_session])
def test_sessions_start_no_thread(toy_graph, runner, monkeypatch):
    def refuse(self):
        raise AssertionError("a session started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    x = grid_input_covering(np.random.default_rng(22), toy_graph.nodes[toy_graph.input_id].out_shape)
    sol = make_sol(3, uniform_assignment(toy_graph, 3, 8, 4))
    got = runner(toy_graph, x, sol)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in reference_outputs(toy_graph, x, sol)]
