"""Mutated PPM and LFW1 bytes: each codec raises only its own error.

A mutated blob either decodes, and then round-trips exactly, or fails with
PpmParseError / WeightFormatError naming a field; no other exception may
escape from the parsers.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightfuse.model import (
    LayerSpec,
    ModelGraph,
    WeightFormatError,
    build_lightfuse,
    init_weights,
    load_weights,
    save_weights,
)
from lightfuse.tensor_core import PpmParseError, decode_ppm, encode_ppm


@st.composite
def mutated(draw, blob):
    """blob after one to four byte edits: set, insert, delete or truncate."""
    data = bytearray(blob)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if edit == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif edit == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "delete":
            del data[pos : pos + draw(st.integers(1, 8))]
        elif edit == "truncate":
            del data[pos:]
    return bytes(data)


_IMAGE = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
_PPMS = [encode_ppm(_IMAGE), b"P6 # comment\n3\t2 #\n255\n" + _IMAGE.tobytes()]


@given(data=st.sampled_from(_PPMS).flatmap(mutated))
@example(data=b"P6 " + b"9" * 5000 + b" 1 255 ")
@example(data=b"P6 1 1 " + b"2" * 5000 + b" ")
@settings(max_examples=300, deadline=None)
def test_mutated_ppm_raises_only_ppm_parse_error(data):
    try:
        img = decode_ppm(data)
    except PpmParseError:
        return
    assert decode_ppm(encode_ppm(img)).tobytes() == img.tobytes()


# one 1x1 conv: a 56-byte LFW1 file, so most edits land in its headers
_TINY = ModelGraph(
    "tiny", (("main", (LayerSpec("p", "pointwise", in_channels=2, out_channels=1),)),), False, 1
)
_STORES = [
    (_TINY, save_weights(init_weights(_TINY, 1), _TINY)),
    (build_lightfuse(), save_weights(init_weights(build_lightfuse(), 2), build_lightfuse())),
]


@given(index=st.integers(0, len(_STORES) - 1), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_lfw1_raises_only_weight_format_error(index, data):
    graph, blob = _STORES[index]
    blob = data.draw(mutated(blob))
    try:
        store = load_weights(blob, graph)
    except WeightFormatError:
        return
    assert save_weights(store, graph) == blob


def test_tensor_name_that_is_not_utf8_is_named():
    blob = b"LFW1" + struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<BI", 1, 1) + bytes(4)
    with pytest.raises(WeightFormatError, match="tensor name 0: not valid UTF-8"):
        load_weights(blob, build_lightfuse())


def test_tensor_with_more_dims_than_numpy_allows_is_a_shape_mismatch():
    # numpy arrays have at most 64 dims; the file format allows 255
    name = b"g1.weight"
    blob = b"LFW1" + struct.pack("<IH", 1, len(name)) + name
    blob += struct.pack("<B", 100) + struct.pack("<100I", *[1] * 100) + bytes(4)
    with pytest.raises(WeightFormatError, match=r"shape mismatch for 'g1\.weight'"):
        load_weights(blob, build_lightfuse())
