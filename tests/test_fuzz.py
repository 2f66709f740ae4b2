"""Container fuzzing: every mutated byte string decodes or fails with a CodecError.

The clean streams are 16x16, n = 4, block 4, rate 0.5 (m = 32 of k = 64,
composite side 8), one GOP plus one trailing frame, in f32 and q16. A case
truncates the stream, writes random bytes into it, or writes extreme
float32 values (NaN, inf, the largest and smallest magnitudes) into the
measurement records' f32 fields. A stream the parser accepts must serialize
back to the same bytes. A case takes about 30 ms when the stream decodes.
"""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import ubss_codec.codec as codec_mod  # noqa: E402
from ubss_codec import (Bitstream, CodecConfig, CodecError,  # noqa: E402
                        decode_sequence, encode_sequence, moving_square)
from ubss_codec.cli import main  # noqa: E402

_FUZZ = settings(max_examples=50, deadline=None, database=None, derandomize=True)


@functools.cache
def _clean(fmt):
    frames = moving_square(16, 16, 6, square=6, step=1, start_x=2)
    return encode_sequence(frames, CodecConfig(
        n=4, block_size=4, sampling_rate=0.5, measurement_format=fmt)).to_bytes()


@st.composite
def _mutations(draw, fmt):
    data = _clean(fmt)
    kind = draw(st.sampled_from(["truncate", "write", "extreme"]))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    if kind == "write":
        # half the writes land in the header after the magic, which a uniform
        # offset would rarely hit
        offsets = st.integers(4, codec_mod._HEADER.size - 1) | st.integers(0, len(data) - 1)
        writes = st.tuples(offsets, st.integers(0, 255))
        for offset, value in draw(st.lists(writes, min_size=1, max_size=4)):
            out[offset] = value
        return bytes(out)
    stream = Bitstream.from_bytes(data)
    start = codec_mod._HEADER.size + stream.width * stream.height
    records = np.frombuffer(out, codec_mod._record(stream.m_per_block, stream.q16),
                            stream.grid.num_blocks, start)
    extreme = st.floats(width=32) | st.sampled_from(
        [np.nan, np.inf, -np.inf, 3.4028235e38, -3.4028235e38, 1e-45, -0.0])
    for _ in range(draw(st.integers(1, 4))):
        row = draw(st.integers(0, len(records) - 1))
        if stream.q16:
            records[draw(st.sampled_from(["lo", "hi"]))][row] = draw(extreme)
        else:
            records[row, draw(st.integers(0, stream.m_per_block - 1))] = draw(extreme)
    return bytes(out)


@pytest.mark.parametrize("fmt", ["f32", "q16"])
@_FUZZ
@given(data=st.data())
def test_mutated_stream_decodes_or_raises_codec_error(fmt, data):
    mutated = data.draw(_mutations(fmt))
    try:
        stream = Bitstream.from_bytes(mutated)
    except CodecError:
        return
    assert stream.to_bytes() == mutated
    try:
        frames = decode_sequence(stream)
    except CodecError:
        return
    assert len(frames) == stream.frame_count


@_FUZZ
@given(data=st.data())
def test_cli_decode_of_mutated_file_exits_cleanly(tmp_path_factory, data):
    # an uncaught exception would propagate out of main instead of exit 1
    path = tmp_path_factory.mktemp("fuzz") / "mutated.ubs"
    path.write_bytes(data.draw(_mutations(data.draw(st.sampled_from(["f32", "q16"])))))
    assert main(["decode", str(path), "--out", str(path.with_suffix(""))]) in (0, 1)
