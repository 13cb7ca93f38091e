"""Wire layer: sub-byte activation packing, message framing, split sessions.

A session runs both roles in the caller's thread: the edge computes every
boundary message, writes the frames and closes its end, then the cloud reads
and checks them and runs the suffix. No role waits on the other, so no
thread is needed; the edge's channel keeps its writes from blocking (see
`Channel`).

Message layout (little-endian): magic 0x4153 u16, version u8 = 1, bits u8,
tensor_id u32, scale f32, zero_point f32, ndim u8, dims i32 x ndim,
payload_len u32, payload. The fixed fields through ndim span 17 bytes; ndim
is at least 1, as no graph tensor is 0-d. Values pack little-end-first
within each byte, with the channel axis varying fastest; the final partial
byte is zero padded.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

from .cost import PACKABLE_BITS, crossing_bits_map, message_payload_bytes
from .engine import _check_input, _forward, run_fake_quantized, run_fake_quantized_detailed
from .graph import LayerGraph, boundary_cut
from .quantize import QuantParams, dequantize
from .util import prod

MAGIC = 0x4153
VERSION = 1
CONNECT_TIMEOUT_S = 10.0  # edge connect and cloud accept deadline for TCP sessions
RECV_TIMEOUT_S = 30.0  # the deadline of each recv on a session's cloud socket
RECV_CHUNK = 1 << 16  # most bytes one recv asks for; socket.recv allocates the full request up front
_HEAD = struct.Struct("<HBBIffB")


class WireError(ValueError):
    pass


class TruncatedError(WireError):
    pass


class BadMagicError(WireError):
    pass


class BadVersionError(WireError):
    pass


class ChannelClosedError(WireError):
    pass


# -- packing -------------------------------------------------------------------


def _channel_last_flat(q: np.ndarray) -> np.ndarray:
    if q.ndim >= 2:
        return np.moveaxis(q, 0, -1).ravel()
    return q.ravel()


def _channel_first_unflat(flat: np.ndarray, shape) -> np.ndarray:
    if len(shape) >= 2:
        moved = tuple(shape[1:]) + (shape[0],)
        return np.moveaxis(flat.reshape(moved), -1, 0)
    return flat.reshape(shape)


def pack_activations(q: np.ndarray, bits: int) -> bytes:
    if bits not in PACKABLE_BITS:
        raise WireError("cannot pack %d-bit values (supported: 1, 2, 4, 8)" % bits)
    q = np.asarray(q)
    if q.size and (q.min() < 0 or q.max() >= (1 << bits)):
        raise WireError("value out of range for %d-bit packing" % bits)
    flat = _channel_last_flat(q).astype(np.uint8)
    if flat.size == 0:
        return b""
    per = 8 // bits
    padded = np.zeros((-(-flat.size // per)) * per, dtype=np.uint8)
    padded[: flat.size] = flat
    grouped = padded.reshape(-1, per)
    out = np.zeros(len(grouped), dtype=np.uint8)
    for j in range(per):
        out |= grouped[:, j] << (bits * j)
    return out.tobytes()


def unpack_activations(buf: bytes, bits: int, shape) -> np.ndarray:
    if bits not in PACKABLE_BITS:
        raise WireError("cannot unpack %d-bit values" % bits)
    elements = prod(shape)
    expect = message_payload_bytes(elements, bits)
    if len(buf) != expect:
        raise WireError("payload length %d does not match %d elements at %d bits" % (len(buf), elements, bits))
    raw = np.frombuffer(buf, dtype=np.uint8)
    per = 8 // bits
    mask = (1 << bits) - 1
    cols = [(raw >> (bits * j)) & mask for j in range(per)]
    flat = np.stack(cols, axis=1).ravel()[:elements].astype(np.int64)
    try:  # numpy refuses negative dims, too many dims and oversized empty shapes
        return np.zeros(shape, dtype=np.int64) if elements == 0 else _channel_first_unflat(flat, tuple(shape))
    except ValueError as e:
        raise WireError("cannot build a tensor of shape %s: %s" % (tuple(shape), e))


# -- messages ------------------------------------------------------------------


@dataclass(frozen=True)
class ActivationMessage:
    tensor_id: int
    bits: int
    scale: float
    zero_point: float
    shape: tuple
    payload: bytes

    def elements(self) -> int:
        return prod(self.shape)


def encode_message(m: ActivationMessage) -> bytes:
    if m.bits not in PACKABLE_BITS:
        raise WireError("bits %d not encodable" % m.bits)
    if not 1 <= len(m.shape) <= 255:
        raise WireError("a message needs 1 to 255 dims, got %d" % len(m.shape))
    if len(m.payload) != message_payload_bytes(m.elements(), m.bits):
        raise WireError("payload length does not match shape/bits")
    head = _HEAD.pack(
        MAGIC,
        VERSION,
        m.bits,
        m.tensor_id,
        np.float32(m.scale),
        np.float32(m.zero_point),
        len(m.shape),
    )
    dims = struct.pack("<%di" % len(m.shape), *m.shape)
    return head + dims + struct.pack("<I", len(m.payload)) + m.payload


def decode_message(buf: bytes) -> ActivationMessage:
    if len(buf) < 2:
        raise TruncatedError("message shorter than magic")
    (magic,) = struct.unpack_from("<H", buf, 0)
    if magic != MAGIC:
        raise BadMagicError("bad magic 0x%04x" % magic)
    if len(buf) < 3:
        raise TruncatedError("message cut before version")
    version = buf[2]
    if version != VERSION:
        raise BadVersionError("unsupported version %d" % version)
    if len(buf) < _HEAD.size:
        raise TruncatedError("message cut inside fixed header")
    _, _, bits, tensor_id, scale, zero_point, ndim = _HEAD.unpack_from(buf, 0)
    if ndim == 0:
        raise WireError("message has an empty shape")
    off = _HEAD.size
    if len(buf) < off + 4 * ndim:
        raise TruncatedError("message cut inside dims")
    shape = struct.unpack_from("<%di" % ndim, buf, off)
    if any(d < 0 for d in shape):
        raise WireError("negative dimension in shape %s" % (shape,))
    off += 4 * ndim
    if len(buf) < off + 4:
        raise TruncatedError("message cut before payload length")
    (payload_len,) = struct.unpack_from("<I", buf, off)
    off += 4
    if len(buf) < off + payload_len:
        raise TruncatedError("message cut inside payload")
    if len(buf) > off + payload_len:
        raise WireError("trailing bytes after payload")
    if bits not in PACKABLE_BITS:
        raise WireError("bad bits field %d" % bits)
    payload = bytes(buf[off : off + payload_len])
    m = ActivationMessage(
        tensor_id=tensor_id,
        bits=bits,
        scale=float(scale),
        zero_point=float(zero_point),
        shape=tuple(shape),
        payload=payload,
    )
    if payload_len != message_payload_bytes(m.elements(), bits):
        raise WireError("payload length inconsistent with shape")
    return m


# -- byte channels ---------------------------------------------------------------


class Channel:
    """Length-prefixed frames over a stream socket.

    A channel given `peer`, the channel at the other end of its socket in the
    same thread, writes without blocking: whenever its socket is full, it
    moves the bytes waiting at the peer's end into the peer's buffer and
    sends again. The peer's reads take that buffer first. On loopback a full
    send buffer means the peer's end holds data, so that move returns at
    once; failing that, it waits at most the peer socket's timeout.
    """

    def __init__(self, sock: socket.socket, peer: Channel | None = None):
        self._sock = sock
        self._peer = peer
        self._buf = bytearray()  # bytes a peer moved off this socket, not yet read
        if peer is not None:
            sock.setblocking(False)

    def send_frame(self, data: bytes):
        frame = memoryview(struct.pack("<I", len(data)) + data)
        try:
            while frame:
                try:
                    frame = frame[self._sock.send(frame) :]
                except BlockingIOError:
                    self._peer._pull()
        except OSError as e:
            raise ChannelClosedError("send failed: %s" % e)

    def _recv_some(self, n: int) -> bytes:
        try:
            chunk = self._sock.recv(min(n, RECV_CHUNK))
        except OSError as e:
            raise ChannelClosedError("recv failed: %s" % e)
        if not chunk:
            raise ChannelClosedError("channel closed mid-frame")
        return chunk

    def _pull(self):
        self._buf += self._recv_some(RECV_CHUNK)

    def _recv_exact(self, n: int) -> bytes:
        chunks = [bytes(self._buf[:n])]
        del self._buf[:n]
        got = len(chunks[0])
        while got < n:
            chunk = self._recv_some(n - got)
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def recv_frame(self, max_size: int | None = None) -> bytes:
        """One frame's bytes. A length prefix above `max_size` raises WireError
        before anything is allocated for the frame; without a cap, memory grows
        only with the bytes that actually arrive."""
        (size,) = struct.unpack("<I", self._recv_exact(4))
        if max_size is not None and size > max_size:
            raise WireError("frame of %d bytes exceeds the %d expected" % (size, max_size))
        return self._recv_exact(size)

    def expect_end(self):
        """Return once the peer has closed its end; a byte sent instead
        raises WireError."""
        if self._buf:
            raise WireError("data after the last expected frame")
        try:
            extra = self._sock.recv(1)
        except OSError as e:
            raise ChannelClosedError("recv failed: %s" % e)
        if extra:
            raise WireError("data after the last expected frame")

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def _channels(edge_sock: socket.socket, cloud_sock: socket.socket):
    """(edge, cloud) channels over the two ends of one connection."""
    cloud_sock.settimeout(RECV_TIMEOUT_S)
    cloud = Channel(cloud_sock)
    return Channel(edge_sock, peer=cloud), cloud


def make_channel_pair():
    """(edge, cloud) channels over a socketpair."""
    return _channels(*socket.socketpair())


def _tcp_channel_pair(host, port):
    """(edge, cloud) channels over a loopback TCP connection."""
    with socket.create_server((host, port), backlog=1) as server:
        server.settimeout(CONNECT_TIMEOUT_S)
        edge_sock = socket.create_connection((host, server.getsockname()[1]), timeout=CONNECT_TIMEOUT_S)
        try:
            cloud_sock, _ = server.accept()
        except OSError as e:
            edge_sock.close()
            raise ChannelClosedError("accept failed: %s" % e)
    return _channels(edge_sock, cloud_sock)


# -- split session -----------------------------------------------------------------


def _crossing_payloads(g: LayerGraph, x, solution):
    """One (id, message) per boundary tensor, ascending id order."""
    crossing = boundary_cut(g, solution.n).crossing_tensors
    codes = run_fake_quantized_detailed(g, x, solution.n, solution.assignment, crossing=crossing)
    out = []
    for nid in crossing:
        if nid not in codes:
            raise WireError("tensor %d uses a non-transportable bit-width" % nid)
        q, p = codes[nid]
        msg = ActivationMessage(
            tensor_id=nid,
            bits=p.bits,
            scale=p.scale,
            zero_point=p.zero_point,
            shape=tuple(g.nodes[nid].out_shape),
            payload=pack_activations(q, p.bits),
        )
        out.append((nid, msg))
    return out


def _message_size(shape, bits: int) -> int:
    """Encoded size of one message: fixed header, dims, payload length, payload."""
    return _HEAD.size + 4 * len(shape) + 4 + message_payload_bytes(prod(shape), bits)


def edge_role(g: LayerGraph, x, solution, chan: Channel):
    for _, msg in _crossing_payloads(g, x, solution):
        chan.send_frame(encode_message(msg))


def cloud_role(g: LayerGraph, solution, chan: Channel, want_transcript=False):
    """Receive boundary tensors, each at the width the plan ships it
    (`crossing_bits_map`), require the stream to end, run the suffix in
    float, return outputs."""
    n = solution.n
    cut = boundary_cut(g, n)
    bits = crossing_bits_map(g, cut, solution.assignment.act_bits)
    vals = {}
    transcript = []
    for expect_id in cut.crossing_tensors:
        shape = tuple(g.nodes[expect_id].out_shape)
        msg = decode_message(chan.recv_frame(max_size=_message_size(shape, bits[expect_id])))
        if msg.tensor_id != expect_id:
            raise WireError("expected tensor %d, got %d" % (expect_id, msg.tensor_id))
        if tuple(msg.shape) != shape:
            raise WireError("tensor %d shape mismatch" % expect_id)
        if msg.bits != bits[expect_id]:
            raise WireError("tensor %d sent at %d bits, the plan ships %d" % (expect_id, msg.bits, bits[expect_id]))
        q = unpack_activations(msg.payload, msg.bits, msg.shape)
        p = QuantParams(msg.bits, msg.scale, msg.zero_point, symmetric=False)
        vals[expect_id] = dequantize(q, p)[None]
        if want_transcript:
            transcript.append(
                {
                    "tensor_id": expect_id,
                    "bits": msg.bits,
                    "elements": msg.elements(),
                    "payload_bytes": len(msg.payload),
                    "expected_payload_bytes": message_payload_bytes(prod(shape), bits[expect_id]),
                }
            )
    chan.expect_end()

    _forward(g, vals, g.compute_ids()[n:])  # a stack of one, as in reference_outputs
    outputs = [vals[i][0] for i in g.output_ids]
    return (outputs, transcript) if want_transcript else outputs


def _session(channels, g: LayerGraph, x, solution, want_transcript):
    """The edge sends every frame and closes its end, then the cloud reads
    them; returns cloud_role's result. An edge error raises before any frame
    is sent, and the cloud never runs."""
    edge, cloud = channels
    try:
        try:
            edge_role(g, x, solution, edge)
        finally:
            edge.close()
        return cloud_role(g, solution, cloud, want_transcript=want_transcript)
    finally:
        cloud.close()


def run_split_session(g: LayerGraph, x, solution, want_transcript=False):
    """Run edge and cloud roles over a socketpair, in this thread; returns
    cloud outputs, bit-identical to `reference_outputs`."""
    return _session(make_channel_pair(), g, x, solution, want_transcript)


def run_tcp_session(g: LayerGraph, x, solution, host="127.0.0.1", port=0, order=None, want_transcript=False):
    """Same as run_split_session but over a real TCP loopback connection.
    `order` is unused; the benchmark still passes it (ROADMAP item 1)."""
    return _session(_tcp_channel_pair(host, port), g, x, solution, want_transcript)


def reference_outputs(g: LayerGraph, x, solution, order=None):
    """What a session must reproduce bitwise: `run_fake_quantized` on the
    one input x, the plan as evaluated. `order` is unused; the benchmark
    still passes it (ROADMAP item 1)."""
    return run_fake_quantized(g, _check_input(g, x), solution.n, solution.assignment)
