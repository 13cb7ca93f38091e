"""Binary tensor blobs: little-endian f32 with a fixed magic/version header.

Layout: magic "ASTN" (4 bytes), version u32 = 1, dtype u8 (0 = f32),
ndim u8, dims u32 x ndim, then the row-major f32 payload.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"ASTN"
VERSION = 1
DTYPE_F32 = 0


class BlobError(ValueError):
    pass


def tensor_to_bytes(x: np.ndarray) -> bytes:
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim > 255:
        raise BlobError("too many dimensions")
    head = struct.pack("<4sIBB", MAGIC, VERSION, DTYPE_F32, x.ndim)
    dims = struct.pack("<%dI" % x.ndim, *x.shape)
    return head + dims + x.astype("<f4").tobytes()


def tensor_from_bytes(buf: bytes) -> np.ndarray:
    if len(buf) < 10:
        raise BlobError("truncated header")
    magic, version, dtype, ndim = struct.unpack_from("<4sIBB", buf, 0)
    if magic != MAGIC:
        raise BlobError("bad magic %r" % magic)
    if version != VERSION:
        raise BlobError("unsupported version %d" % version)
    if dtype != DTYPE_F32:
        raise BlobError("unsupported dtype %d" % dtype)
    off = 10
    if len(buf) < off + 4 * ndim:
        raise BlobError("truncated dims")
    dims = struct.unpack_from("<%dI" % ndim, buf, off)
    off += 4 * ndim
    count = 1
    for d in dims:
        count *= d
    if len(buf) != off + 4 * count:
        raise BlobError("payload length mismatch")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=off)
    try:  # numpy refuses too many dims and oversized empty shapes
        return data.reshape(dims).copy()
    except ValueError as e:
        raise BlobError("cannot build a tensor of shape %s: %s" % (dims, e))


def write_tensor(path, x: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(tensor_to_bytes(x))


def read_tensor(path) -> np.ndarray:
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise BlobError("cannot read %s: %s" % (path, e))
    return tensor_from_bytes(buf)
