import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitsplit.tensorio import (
    BlobError,
    read_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
    write_tensor,
)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 4), (2, 3, 5), (2, 1, 4, 3)])
def test_roundtrip_shapes(shape):
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape).astype(np.float32)
    y = tensor_from_bytes(tensor_to_bytes(x))
    assert y.dtype == np.float32
    assert y.shape == x.shape
    assert np.array_equal(y, x)


def test_roundtrip_preserves_exact_bits():
    # denormals, negative zero, extremes survive
    x = np.array([0.0, -0.0, 1e-45, -1e-45, 3.4e38, -3.4e38, 1 / 3], dtype=np.float32)
    y = tensor_from_bytes(tensor_to_bytes(x))
    assert y.tobytes() == x.tobytes()


def test_header_layout():
    x = np.arange(6, dtype=np.float32).reshape(2, 3)
    buf = tensor_to_bytes(x)
    magic, version, dtype, ndim = struct.unpack_from("<4sIBB", buf, 0)
    assert magic == b"ASTN"
    assert version == 1
    assert dtype == 0
    assert ndim == 2
    assert struct.unpack_from("<2I", buf, 10) == (2, 3)
    assert buf[18:] == x.astype("<f4").tobytes()
    assert len(buf) == 10 + 8 + 4 * 6


def test_non_f32_input_is_converted():
    x = np.arange(4, dtype=np.float64).reshape(2, 2)
    y = tensor_from_bytes(tensor_to_bytes(x))
    assert y.dtype == np.float32
    assert np.array_equal(y, x.astype(np.float32))


def test_truncations_raise():
    buf = tensor_to_bytes(np.ones((2, 2), dtype=np.float32))
    for cut in (0, 5, 9, 11, 17, len(buf) - 1):
        with pytest.raises(BlobError):
            tensor_from_bytes(buf[:cut])


def test_trailing_bytes_raise():
    buf = tensor_to_bytes(np.ones(3, dtype=np.float32))
    with pytest.raises(BlobError, match="length mismatch"):
        tensor_from_bytes(buf + b"\x00")


def test_bad_magic_version_dtype():
    buf = bytearray(tensor_to_bytes(np.ones(2, dtype=np.float32)))
    bad = bytes(b"XSTN") + bytes(buf[4:])
    with pytest.raises(BlobError, match="magic"):
        tensor_from_bytes(bad)
    v2 = bytearray(buf)
    v2[4] = 2
    with pytest.raises(BlobError, match="version"):
        tensor_from_bytes(bytes(v2))
    d1 = bytearray(buf)
    d1[8] = 1
    with pytest.raises(BlobError, match="dtype"):
        tensor_from_bytes(bytes(d1))


def test_file_roundtrip(tmp_path):
    x = np.random.default_rng(3).standard_normal((4, 5)).astype(np.float32)
    p = tmp_path / "t.astn"
    write_tensor(p, x)
    assert np.array_equal(read_tensor(p), x)


@st.composite
def _blob_bytes(draw):
    """Raw noise, or a header with arbitrary fields (up to 80 dims, more than
    numpy holds) whose payload matches its dims or not, then whole, cut short
    or followed by extra bytes."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=64))
    magic = draw(st.one_of(st.just(b"ASTN"), st.binary(min_size=4, max_size=4)))
    version = draw(st.one_of(st.just(1), st.integers(0, 2**32 - 1)))
    dtype = draw(st.one_of(st.just(0), st.integers(0, 255)))
    dims = draw(st.lists(st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)), max_size=80))
    count = math.prod(dims)
    size = 4 * count if count <= 1024 and draw(st.booleans()) else draw(st.integers(0, 64))
    buf = (
        struct.pack("<4sIBB", magic, version, dtype, len(dims))
        + struct.pack("<%dI" % len(dims), *dims)
        + draw(st.binary(min_size=size, max_size=size))
    )
    end = draw(st.sampled_from(("whole", "cut", "extra")))
    if end == "cut":
        return buf[: draw(st.integers(0, len(buf)))]
    return buf + (draw(st.binary(min_size=1, max_size=4)) if end == "extra" else b"")


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_blob_bytes())
@example(struct.pack("<4sIBB", b"ASTN", 1, 0, 4) + struct.pack("<4I", 0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
@example(struct.pack("<4sIBB", b"ASTN", 1, 0, 70) + struct.pack("<70I", *([1] * 70)) + bytes(4))
def test_reading_arbitrary_bytes_raises_only_blob_errors(buf):
    try:
        tensor_from_bytes(buf)
    except BlobError:
        pass
