import dataclasses
import hashlib
import logging
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest

import ubss_codec.codec as codec_mod
import ubss_codec.mixing as mixing_mod
import ubss_codec.tv as tv_mod
from ubss_codec import (Bitstream, CodecConfig, CodecError, DecodeReport, Frame,
                        SolverParams, decode_sequence, encode_sequence,
                        iter_decode, moving_square, psnr, rate_report)


def _no_matrix(*args):
    raise AssertionError("gen_mixing_matrix called")


def _no_draw(*args):
    raise AssertionError("mixing matrix entries drawn")


def _static_frames(count=5, w=32, h=32, value=17):
    return [Frame(np.full((h, w), value, np.uint8)) for _ in range(count)]


# --- configuration ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(CodecError) as e:
        CodecConfig(n=3)
    assert e.value.code == "n-not-perfect-square"
    with pytest.raises(CodecError) as e:
        CodecConfig(sampling_rate=0.0)
    assert e.value.code == "invalid-sampling-rate"
    with pytest.raises(CodecError):
        CodecConfig(sampling_rate=1.5)
    with pytest.raises(CodecError):
        CodecConfig(measurement_format="f64")
    # n and block size must fit their u8 header fields
    for n, bs in ((256, 1), (1, 256)):
        with pytest.raises(CodecError) as e:
            CodecConfig(n=n, block_size=bs)
        assert e.value.code == "header-field-overflow"
    # header fields must be integers, the seed too; the rate must be a real number
    for bad in (dict(n=4.0), dict(block_size=16.0), dict(seed=1.5), dict(seed="1"),
                dict(sampling_rate="0.5")):
        with pytest.raises(CodecError):
            CodecConfig(**bad)
    # every integer seed is accepted, modulo 2^64
    for seed in (-1, 2 ** 64 + 1, np.int64(7), np.uint64(2 ** 64 - 1)):
        stream = encode_sequence(moving_square(16, 16, 5, square=4),
                                 CodecConfig(block_size=8, seed=seed))
        assert stream.seed == int(seed) % 2 ** 64


def test_config_matrix_size_limit():
    # a composite may take at most MAX_MEASUREMENTS measurements: k = 16384
    # allows m = 2048 exactly; one measurement more is refused
    assert codec_mod.MAX_MEASUREMENTS == 2048
    assert CodecConfig(n=16, block_size=32, sampling_rate=2048 / 16384).m == 2048
    with pytest.raises(CodecError) as e:
        CodecConfig(n=16, block_size=32, sampling_rate=2049 / 16384)
    assert e.value.code == "resource-limit"
    # so is m = k = 4096 at side 64, whose u-step factor build would peak
    # at 384 MiB
    with pytest.raises(CodecError) as e:
        CodecConfig(n=1, block_size=64, sampling_rate=1.0)
    assert e.value.code == "resource-limit"


def test_configs_are_frozen():
    # a field set after construction would skip every check: block 64 at
    # n = 16 is composite side 256, and max_outer = 0 runs no iteration
    cfg, params = CodecConfig(block_size=8), SolverParams()
    for obj, name, value in ((cfg, "block_size", 64), (cfg, "n", 16), (cfg, "sampling_rate", 5.0),
                             (params, "max_outer", 0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    # dataclasses.replace builds a checked copy
    with pytest.raises(CodecError) as e:
        dataclasses.replace(cfg, n=3)
    assert e.value.code == "n-not-perfect-square"
    with pytest.raises(CodecError) as e:
        dataclasses.replace(params, max_outer=0)
    assert e.value.code == "invalid-solver-params"


def test_config_composite_side_limit():
    # the composite side sqrt(n) * block_size may be at most MAX_COMPOSITE_SIDE
    assert codec_mod.MAX_COMPOSITE_SIDE == 128
    for n, bs in ((16, 32), (1, 128), (64, 16)):
        CodecConfig(n=n, block_size=bs, sampling_rate=1e-9)
    for n, bs in ((1, 129), (25, 26), (225, 9)):
        with pytest.raises(CodecError) as e:
            CodecConfig(n=n, block_size=bs, sampling_rate=1e-9)
        assert e.value.code == "resource-limit"


def test_measurements_per_block_rounding():
    assert CodecConfig(sampling_rate=0.25).m == 256
    assert CodecConfig(sampling_rate=1.0).m == 1024
    assert CodecConfig(sampling_rate=0.1).m == 102
    assert CodecConfig(sampling_rate=1e-9).m == 1


# --- encoding structure -----------------------------------------------------

def test_encode_requires_frames():
    with pytest.raises(CodecError) as e:
        encode_sequence([], CodecConfig())
    assert e.value.code == "empty-input"


def test_encode_refuses_what_is_not_a_frame(monkeypatch):
    # checked before the matrix is built or any payload byte written: an int16
    # residual would not fit the u8 key rasters
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    frames = _static_frames(5, 16, 16)
    residuals = [mixing_mod.compute_residual(f, frames[0]) for f in frames]
    for bad in (residuals, [f.pixels for f in frames], frames[:4] + residuals[4:]):
        with pytest.raises(CodecError) as e:
            encode_sequence(bad, CodecConfig(block_size=8))
        assert e.value.code == "not-a-frame"


def test_encode_requires_divisible_dims():
    frames = _static_frames(w=30, h=30)
    with pytest.raises(CodecError) as e:
        encode_sequence(frames, CodecConfig(block_size=16))
    assert e.value.code == "dimension-not-divisible"


def test_encode_rejects_dims_beyond_header(monkeypatch):
    # width and height are u16 header fields; refused before the matrix is built
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    for h, w in ((1, 65536), (65536, 1)):
        with pytest.raises(CodecError) as e:
            encode_sequence([Frame(np.zeros((h, w), np.uint8))], CodecConfig(n=1, block_size=1))
        assert e.value.code == "header-field-overflow"


def test_stream_without_gop_builds_no_matrix(monkeypatch):
    # 4 frames at n = 4 are all trailing key frames: neither side draws an
    # entry of the 2048 x 4096 matrix (64 MiB) of block 32 at rate 0.5
    monkeypatch.setattr(mixing_mod, "_draw_normals", _no_draw)
    frames = moving_square(64, 64, 4, square=12)
    stream = encode_sequence(frames, CodecConfig(n=4, block_size=32, sampling_rate=0.5))
    assert stream.num_gops == 0 and stream.num_trailing == 4
    decoded = decode_sequence(Bitstream.from_bytes(stream.to_bytes()))
    assert [f.pixels.tobytes() for f in decoded] == [f.pixels.tobytes() for f in frames]


def test_structure_two_gops():
    stream = encode_sequence(_static_frames(10), CodecConfig(block_size=16))
    assert stream.num_gops == 2 and stream.num_trailing == 0
    assert stream.frame_count == 10


def test_structure_trailing():
    stream = encode_sequence(_static_frames(12), CodecConfig(block_size=16))
    assert stream.num_gops == 2 and stream.num_trailing == 2


def test_static_scene_zero_measurements():
    stream = encode_sequence(_static_frames(), CodecConfig(block_size=16))
    for vals in stream.gop_measurements(0):
        assert np.all(vals == 0)


def test_static_scene_lossless_at_every_rate():
    frames = _static_frames(7, 32, 32, 133)  # 1 GOP + 2 trailing
    for rate in (0.05, 0.25, 0.5, 1.0):
        for fmt in ("f32", "q16"):
            stream = encode_sequence(frames, CodecConfig(
                sampling_rate=rate, block_size=16, measurement_format=fmt))
            decoded = decode_sequence(stream)
            assert len(decoded) == 7
            for orig, dec in zip(frames, decoded):
                assert np.array_equal(orig.pixels, dec.pixels)


def test_encode_deterministic_bytes():
    frames = moving_square(64, 48, 10, square=16, start_x=4)
    cfg = CodecConfig(sampling_rate=0.25, seed=99)
    a = encode_sequence(frames, cfg).to_bytes()
    b = encode_sequence(frames, cfg).to_bytes()
    assert a == b


def test_encoder_holds_one_residual_at_a_time(monkeypatch):
    live = {"now": 0, "max": 0}
    real = codec_mod.compute_residual

    def tracking(frame, key):
        res = real(frame, key)
        live["now"] += 1
        live["max"] = max(live["max"], live["now"])
        weakref.finalize(res, lambda: live.__setitem__("now", live["now"] - 1))
        return res

    monkeypatch.setattr(codec_mod, "compute_residual", tracking)
    frames = moving_square(64, 48, 10, square=16, start_x=4)
    encode_sequence(frames, CodecConfig(sampling_rate=0.25, seed=3))
    assert live["max"] == 1


def test_pipeline_calls_the_hooked_names(monkeypatch):
    # perfbench times the pipeline by wrapping these names where the pipeline
    # looks them up; a wrapped name the pipeline stops calling leaves its
    # metrics empty, so the call counts are fixed here
    hooked = [(codec_mod, "gen_mixing_matrix"), (codec_mod, "compute_residual"),
              (codec_mod, "disassemble_composite"), (mixing_mod.StreamAccumulator, "push"),
              (mixing_mod.StreamAccumulator, "finish"), (tv_mod, "solve_tv"),
              (codec_mod.Bitstream, "gop_measurements"), (codec_mod.Bitstream, "from_bytes")]
    calls = dict.fromkeys((name for _, name in hooked), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    gop_measurements = codec_mod.Bitstream.gop_measurements
    for owner, name in hooked:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    frames = moving_square(64, 48, 12, square=16, start_x=4)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.25, seed=3))
    assert stream.num_gops == 2 and stream.grid.num_blocks == 12
    # per GOP: n = 4 residuals and pushes, one finish; the encoder parses its
    # serialization without the hooked from_bytes
    assert calls == {"gen_mixing_matrix": 1, "compute_residual": 2 * 4,
                     "disassemble_composite": 0, "push": 2 * 4, "finish": 2,
                     "solve_tv": 0, "gop_measurements": 0, "from_bytes": 0}
    active = sum(int(gop_measurements(stream, g).any(axis=1).sum()) for g in range(2))
    assert active == 5
    decode_sequence(stream)
    # per GOP: one gop_measurements; per composite with a nonzero measurement:
    # one solve_tv and one disassemble
    assert calls == {"gen_mixing_matrix": 2, "compute_residual": 2 * 4,
                     "disassemble_composite": active, "push": 2 * 4, "finish": 2,
                     "solve_tv": active, "gop_measurements": 2, "from_bytes": 0}

    # a static sequence measures all zeros: every frame is still pushed, but
    # nothing is solved and neither side draws an entry of the matrix; the
    # keys come back
    calls.update(dict.fromkeys(calls, 0))
    frames = _static_frames()
    monkeypatch.setattr(mixing_mod, "_draw_normals", _no_draw)
    stream = encode_sequence(frames, CodecConfig(block_size=8))
    decoded = decode_sequence(stream)
    assert [f.pixels.tolist() for f in decoded] == [f.pixels.tolist() for f in frames]
    assert calls == {"gen_mixing_matrix": 2, "compute_residual": 4,
                     "disassemble_composite": 0, "push": 4, "finish": 1,
                     "solve_tv": 0, "gop_measurements": 1, "from_bytes": 0}


def test_encoder_builds_no_measurement_vector(monkeypatch):
    # the encoder packs finish()'s (blocks, m) sums as they are; the decoder
    # builds one MeasurementVector per composite it solves
    built = []
    post_init = mixing_mod.MeasurementVector.__post_init__

    def counted(mv):
        built.append(mv.grid_position)
        post_init(mv)

    monkeypatch.setattr(mixing_mod.MeasurementVector, "__post_init__", counted)
    stream = encode_sequence(moving_square(64, 48, 12, square=16, start_x=4),
                             CodecConfig(sampling_rate=0.25, seed=3))
    assert built == []
    decode_sequence(stream)
    assert len(built) == 5


def _inverted_square_frames():
    # left half 0, right half 255, and a 12 x 12 square that moves 2 px a frame
    # across the edge with its pixels inverted: decoded values leave [0, 255]
    # before the clip (-227 to 373 residual, to 435 non-residual)
    frames = []
    for i in range(7):
        a = np.zeros((32, 48), np.uint8)
        a[:, 24:] = 255
        a[8:20, 4 + 2 * i:16 + 2 * i] = 255 - a[8:20, 4 + 2 * i:16 + 2 * i]
        frames.append(Frame(a))
    return frames


# sha256 of the stream bytes and of the decoded frames' pixels: a change to
# the encoder's or the decoder's plumbing must move neither
@pytest.mark.parametrize("frames, config, stream_sha, frames_sha", [
    (lambda: moving_square(64, 48, 12, square=16, start_x=4),
     CodecConfig(sampling_rate=0.25, seed=3),
     "1ec0b7adae1fd6f9f7c5f848a40d805645be0040e6c7b05c330a292ee1676afd",
     "db687273bec10abd7ea9499d9e120a82575348539d5e10abc22b86bfab9adfc5"),
    (lambda: moving_square(32, 32, 7, square=8, start_x=2),
     CodecConfig(block_size=8, sampling_rate=0.5, seed=5, measurement_format="q16"),
     "4822c5d4abd1bea821ab6499ea98986f974732a72fc1c6b19e450d1227fb9809",
     "f78e7b5cc6f10dad56e6ac752b4f3b32bbe7fe980ced6dc8f626ae1027e46ce5"),
    (_inverted_square_frames,
     CodecConfig(block_size=8, sampling_rate=0.15, seed=9),
     "23379a6c22d80c9111238898c04f489070c9632b7dad6f4491428df1668623eb",
     "598f35f7d2e7075d64a3caedf32afc5284d126470b3be97bb2391e4727088c12"),
    (_inverted_square_frames,
     CodecConfig(block_size=8, sampling_rate=0.15, seed=9, residual_mode=False),
     "27576ccdc359d792798ac77a5dd3ba70a4fb379114aee99baca972eb4695c3e7",
     "8976ed967d8c2445037d50caa725632459a34b7585648310c58262fdd163baa5"),
    # a block row of 3 pixels is 3 words of 2 bytes, one of 6 pixels 3 words of 4 bytes
    (lambda: moving_square(36, 27, 7, square=7, step=1, start_x=2),
     CodecConfig(block_size=3, sampling_rate=0.5, seed=7),
     "77b8bc2a147a947d3ac257bf22576d92c181898ddc743163419eaa437877dee8",
     "3fe319c24ee4b587b2a084d34b18ca54ecff852b83393de8e2980d2e1ea88db9"),
    (lambda: moving_square(48, 36, 12, square=10, start_x=3),
     CodecConfig(block_size=6, sampling_rate=0.25, seed=11, measurement_format="q16"),
     "a3b690ab0033e90f5858356f5f930ccaccd427ce1bc90d01acc22ea5f3fe979f",
     "c45b07d209d72af03d8503a070d9435a238a68ddf31854eb8e9a4daeec8f668b"),
    # tile roots other than 2; k = 25 and 81 are odd, so Box-Muller pairs straddle rows
    (lambda: moving_square(40, 30, 7, square=8, step=1, start_x=3),
     CodecConfig(n=1, block_size=5, sampling_rate=0.5, seed=13),
     "507dce7df813d652a41b9abc929ed5a92b549d6045d151daf2800741bbd33b07",
     "2aa56d57856e3563b8832e9c1eca6e427549431161d5f7838e802a9b7bc7f4ed"),
    (lambda: moving_square(36, 27, 21, square=7, step=1, start_x=2),
     CodecConfig(n=9, block_size=3, sampling_rate=0.5, seed=17),
     "2cd9ee151376902baecfe3e066a8b36f02fb764322ee0c090077c30166731059",
     "c0585c2aec0b1b4167151c74e5a283e45ce5d94f3d40eb4307e9a734d57d67e1"),
    (lambda: moving_square(32, 32, 18, square=9, step=1, start_x=4),
     CodecConfig(n=16, block_size=4, sampling_rate=0.25, seed=19, measurement_format="q16"),
     "0532a74f6ce03995eb7439b987131632d0ff098b0849cc584138397245492b0f",
     "368cfa0d90c1cd480290567d074d373382bcf6f5a12ae0380d5d3831edcc3e1a"),
], ids=["f32", "q16", "clip", "clip-non-residual", "block-3", "block-6", "n1-block-5",
        "n9-block-3", "n16-q16"])
def test_stream_and_decoded_frames_pinned(frames, config, stream_sha, frames_sha):
    data = encode_sequence(frames(), config).to_bytes()
    assert hashlib.sha256(data).hexdigest() == stream_sha
    pixels = hashlib.sha256()
    for f in decode_sequence(Bitstream.from_bytes(data)):
        pixels.update(f.pixels.tobytes())
    assert pixels.hexdigest() == frames_sha


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_is_one_uint8_gop():
    # one GOP with 4 active composites of 1584: the decoder builds each frame
    # once, in uint8, and reads the f32 records where they lie, so its peak is
    # the 5 output frames (0.48 MiB) and the solver's working set; a float64
    # copy of the records (0.77 MiB) or a second copy of the GOP would not fit
    stream = encode_sequence(moving_square(352, 288, 5, square=8, step=1, start_x=20),
                             CodecConfig(block_size=8, sampling_rate=0.25, seed=3))
    assert np.count_nonzero(stream.gop_measurements(0).any(axis=1)) == 4
    output = stream.frame_count * stream.height * stream.width
    assert _traced_peak(lambda: decode_sequence(stream)) < output + 2 ** 19


def _many_gop_stream():
    """239 KiB, header-legal: 16 GOPs of 1 + 225 frames of 120x120 at block 8 and
    m = 1, all records zero, so 3,616 frames and no composite to solve."""
    w = h = 120
    keys = np.random.default_rng(1).integers(0, 256, (16, h * w), np.uint8)
    payload = b"".join(key.tobytes() + bytes(225 * 4) for key in keys)
    return Bitstream(_serialization(payload, width=w, height=h, gop_n=225, block_size=8,
                                    frame_count=16 * 226))


def test_consuming_iter_decode_holds_one_gop():
    stream = _many_gop_stream()
    assert len(stream.to_bytes()) // 1024 == 239 and stream.frame_count == 3616
    gop = (stream.gop_n + 1) * stream.height * stream.width  # 3.1 MiB of output

    def consume():
        for frame in iter_decode(stream):
            pass
    # decode_sequence's list of all 3,616 frames peaks at about 50 MiB
    assert _traced_peak(consume) < 2 * gop
    # the key, then a coded frame that is the key, its composites all zero
    key = bytes(stream.payload[:stream.height * stream.width])
    decoded = iter_decode(stream)
    assert [next(decoded).pixels.tobytes() for _ in range(2)] == [key, key]


@pytest.mark.parametrize("config, frames", [
    (CodecConfig(block_size=8, sampling_rate=0.25, seed=3), 12),
    (CodecConfig(block_size=8, sampling_rate=0.5, seed=5, measurement_format="q16"), 7),
    (CodecConfig(block_size=8, sampling_rate=0.25, seed=3, residual_mode=False), 6),
], ids=["f32", "q16", "non-residual"])
def test_decoded_frames_are_held_once(config, frames):
    # every frame, key, coded or trailing, is locked in a buffer of its own:
    # none keeps the stream's payload or another frame of its GOP alive
    stream = Bitstream.from_bytes(encode_sequence(
        moving_square(32, 32, frames, square=12, start_x=2), config).to_bytes())
    assert stream.num_trailing > 0
    decoded = decode_sequence(stream)
    assert len(decoded) == stream.frame_count
    for f in decoded:
        assert f.pixels.base is None and not f.pixels.flags.writeable
        assert not np.shares_memory(f.pixels, stream.payload)


def test_gop_measurements_are_the_f32_records():
    frames = moving_square(32, 32, 12, square=12, start_x=2)
    stream = encode_sequence(frames, CodecConfig(block_size=8, sampling_rate=0.25, seed=3))
    blocks, m = stream.grid.num_blocks, stream.m_per_block
    gop_bytes = stream.width * stream.height + blocks * m * 4
    for g in range(stream.num_gops):
        rows = stream.gop_measurements(g)
        assert rows.dtype == np.float32 and rows.shape == (blocks, m)
        assert not rows.flags.writeable and np.shares_memory(rows, stream.payload)
        stored = np.frombuffer(stream.payload, "<f4", blocks * m,
                               g * gop_bytes + stream.width * stream.height)
        assert np.array_equal(rows, stored.reshape(blocks, m))
    # q16 records are dequantized into a new float64 array, as before
    q16 = encode_sequence(frames, CodecConfig(block_size=8, seed=3, measurement_format="q16"))
    rows = q16.gop_measurements(0)
    assert rows.dtype == np.float64 and rows.shape == (blocks, q16.m_per_block)
    assert not np.shares_memory(rows, q16.payload)


def test_iter_decode_checks_at_the_call_and_logs_only_at_the_end(caplog):
    stream = encode_sequence(moving_square(32, 32, 10, square=12, start_x=2),
                             CodecConfig(sampling_rate=0.4, seed=2))
    for bad in ({"max_outer": 1}, "default"):
        with pytest.raises(CodecError) as e:
            iter_decode(stream, bad)
        assert e.value.code == "invalid-solver-params"
    with pytest.raises(CodecError) as e:
        iter_decode(Bitstream(_edited(stream, generator_id=200)))
    assert e.value.code == "unknown-generator"
    # every composite stops on the cap, yet a generator stopped before the
    # last GOP is done logs nothing
    with caplog.at_level(logging.WARNING, logger="ubss_codec"):
        decoded = iter_decode(stream, SolverParams(max_outer=1))
        first = [next(decoded) for _ in range(stream.gop_n + 2)]
        decoded.close()
    assert len(first) == stream.gop_n + 2 and not caplog.records
    with caplog.at_level(logging.WARNING, logger="ubss_codec"):
        assert len(list(iter_decode(stream, SolverParams(max_outer=1)))) == stream.frame_count
    assert len(caplog.records) == 1


def test_decode_report_lists_each_active_composite():
    stream = encode_sequence(moving_square(32, 32, 12, square=12, start_x=2),
                             CodecConfig(block_size=8, sampling_rate=0.25, seed=3))
    active = [(g, j) for g in range(stream.num_gops)
              for j in np.flatnonzero(stream.gop_measurements(g).any(axis=1))]
    assert len(active) > stream.num_gops
    report = DecodeReport()
    decoded = decode_sequence(stream, report=report)
    assert [f.pixels.tobytes() for f in decoded] == \
        [f.pixels.tobytes() for f in decode_sequence(stream)]
    assert len(report) == len(active)
    assert list(zip(report.gop.tolist(), report.block.tolist())) == active
    assert np.all(report.outer_iterations >= 1)
    assert set(report.stop_reason) <= {"tolerance", "cap"}
    assert np.all(np.isfinite(report.final_fidelity)) and np.all(report.final_fidelity >= 0)
    # the report takes each SolverResult as it is
    capped = DecodeReport()
    decode_sequence(stream, SolverParams(max_outer=1), capped)
    assert capped.outer_iterations.tolist() == [1] * len(active)
    assert capped.stop_reason.tolist() == ["cap"] * len(active)


def test_decode_report_of_a_stopped_generator_holds_the_gops_decoded():
    stream = encode_sequence(moving_square(32, 32, 12, square=12, start_x=2),
                             CodecConfig(block_size=8, sampling_rate=0.25, seed=3))
    report = DecodeReport()
    decoded = iter_decode(stream, report=report)
    assert len(report) == 0  # nothing runs before the first frame is asked for
    next(decoded)
    decoded.close()
    assert set(report.gop.tolist()) == {0}
    empty = DecodeReport()
    assert [len(getattr(empty, name)) for name in DecodeReport.FIELDS] == [0] * 5


def test_decode_refuses_a_report_of_another_type():
    stream = encode_sequence(_static_frames(), CodecConfig(block_size=16))
    for bad in ([], {}, "report"):
        with pytest.raises(CodecError) as e:
            iter_decode(stream, report=bad)
        assert e.value.code == "not-a-decode-report"


def test_block_4_acceptance_stream_stops_on_the_tolerance():
    # acceptance criterion 3's block-4 stream: over-relaxation brings every
    # composite in under the cap (4 capped and 20,135 outer iterations with
    # alpha = 1; none and 13,058 with alpha = 1.8)
    stream = encode_sequence(moving_square(176, 144, 10),
                             CodecConfig(sampling_rate=0.25, block_size=4, seed=1))
    report = DecodeReport()
    decode_sequence(stream, report=report)
    assert len(report) and not np.any(report.stop_reason == "cap")
    assert report.outer_iterations.sum() < 16_000


def test_block_16_acceptance_stream_iterates_less_from_the_smooth_start():
    # acceptance criterion 3's block-16 stream: starting each solve from the
    # smooth least-squares image, not from A^T b, cuts its total outer
    # iterations from 1,523 to 1,141
    stream = encode_sequence(moving_square(176, 144, 10),
                             CodecConfig(sampling_rate=0.25, block_size=16, seed=1))
    report = DecodeReport()
    decode_sequence(stream, report=report)
    assert len(report) and not np.any(report.stop_reason == "cap")
    assert report.outer_iterations.sum() <= 1_300


_HEADER_SIZE = codec_mod._HEADER.size


def _small_stream():
    """One GOP of 16x16 frames at block 4 and one trailing frame."""
    return encode_sequence(moving_square(16, 16, 6, square=4), CodecConfig(block_size=4))


def _serialization(payload=b"\0", **fields):
    """_HEADER packed from field values, then payload; by default an f32 stream
    of one 1x1 key frame at n = 1, block 1 and m = 1."""
    header = dict(magic=codec_mod.MAGIC, version=codec_mod.VERSION, flags=0, generator_id=1,
                  reserved=0, width=1, height=1, gop_n=1, block_size=1, frame_count=1, seed=1,
                  m_per_block=1)
    header.update(fields)
    return codec_mod._HEADER.pack(*(header[name] for name in codec_mod._FIELDS)) + payload


def _edited(stream, **fields):
    """stream's serialization with the given header fields rewritten."""
    data = stream.to_bytes()
    header = dict(zip(codec_mod._FIELDS, codec_mod._HEADER.unpack_from(data)))
    return _serialization(data[_HEADER_SIZE:], **{**header, **fields})


# --- container --------------------------------------------------------------

def test_container_round_trip_lossless():
    frames = moving_square(64, 48, 7, square=16, start_x=4)
    for fmt in ("f32", "q16"):
        stream = encode_sequence(frames, CodecConfig(
            sampling_rate=0.3, seed=5, measurement_format=fmt))
        data = stream.to_bytes()
        parsed = Bitstream.from_bytes(data)
        assert parsed.to_bytes() == data
        assert (parsed.width, parsed.height) == (64, 48)
        assert parsed.q16 == (fmt == "q16")
        assert parsed.seed == 5
        assert parsed.num_trailing == 2


def test_payload_is_held_once():
    # the shape of the benchmark's capture workload: 20 GOPs and a trailing frame
    frames = moving_square(352, 288, 101, square=40, step=1, start_x=20)
    config = CodecConfig(block_size=8, sampling_rate=0.25, seed=3)
    encode_sequence(frames[:6], config).to_bytes()  # numpy's first-call caches
    tracemalloc.start()
    try:
        data = encode_sequence(frames, config).to_bytes()
        encode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the serialization plus one GOP's working set (about 1.3 MiB): a copy of
    # the 9.8 MiB payload, in the encoder or in to_bytes, would double the peak
    assert encode_peak < 1.15 * (len(data) - _HEADER_SIZE)
    tracemalloc.start()
    try:
        parsed = Bitstream.from_bytes(data)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parser views the bytes it is given
    assert parse_peak < len(data) // 32
    assert parsed.payload.base is data and parsed.to_bytes() is data


def test_to_bytes_returns_the_held_serialization():
    stream = _small_stream()
    data = stream.to_bytes()
    assert type(data) is bytes and stream.to_bytes() is data
    assert stream.payload.base is data and data[_HEADER_SIZE:] == stream.payload.tobytes()
    assert Bitstream.from_bytes(data).to_bytes() is data
    parsed = Bitstream.from_bytes(bytearray(data))
    assert parsed.to_bytes() == data and parsed.to_bytes() is not data
    assert parsed.to_bytes() is parsed.to_bytes()


def test_frame_memory_order_does_not_change_the_stream():
    # one GOP and two trailing frames, so keys, records and rasters are all written
    frames = moving_square(32, 32, 7, square=12, start_x=2)
    config = CodecConfig(block_size=8)
    data = encode_sequence(frames, config).to_bytes()
    # Frame's copy keeps the memory order, and a view of bytes is kept as it
    # is: here every other column of a raster twice as wide
    fortran = [Frame(np.asfortranarray(f.pixels)) for f in frames]
    strided = [Frame(np.ndarray((32, 32), np.uint8, np.repeat(f.pixels, 2, axis=1).tobytes(),
                                0, (64, 2))) for f in frames]
    assert all(f.pixels.flags.f_contiguous and not f.pixels.flags.c_contiguous for f in fortran)
    assert all(f.pixels.strides == (64, 2) for f in strided)
    for given in (fortran, strided):
        assert [f.pixels.tolist() for f in given] == [f.pixels.tolist() for f in frames]
        assert encode_sequence(given, config).to_bytes() == data


def test_payload_is_copied_unless_it_views_its_serialization():
    stream = _small_stream()
    data = stream.to_bytes()
    # bytes are kept as they are: the payload is a read-only view of them at
    # the header's end
    assert stream.payload.base is data and not stream.payload.flags.writeable
    assert Bitstream(data).payload.base is data
    assert Bitstream.from_bytes(data).payload.base is data
    # anything else is copied once into new bytes: a bytearray, or a
    # memoryview of it or of the bytes
    mutable = bytearray(data)
    for given in (mutable, memoryview(mutable), memoryview(data)):
        copy = Bitstream(given)
        assert type(copy.to_bytes()) is bytes and copy.to_bytes() is not data
        assert copy.to_bytes() == data and copy.payload.base is copy.to_bytes()
        assert not np.shares_memory(copy.payload, np.frombuffer(given, np.uint8))
    parsed = [Bitstream(given) for given in (mutable, memoryview(mutable))]
    mutable[_HEADER_SIZE:] = bytes(len(mutable) - _HEADER_SIZE)
    for s in parsed:
        assert s.to_bytes() == data
    # a memoryview is read as its raw bytes, in C order, whatever its strides
    every_other = np.repeat(np.frombuffer(data, np.uint8), 2)[::2]
    assert Bitstream(memoryview(every_other)).to_bytes() == data


def test_payload_is_read_only():
    stream = _small_stream()
    data = stream.to_bytes()
    for s in (stream, Bitstream.from_bytes(data), Bitstream.from_bytes(bytearray(data)),
              Bitstream(memoryview(data)), Bitstream(_edited(stream, seed=2)),
              Bitstream(_serialization())):
        assert s.payload.dtype == np.uint8 and s.payload.ndim == 1
        with pytest.raises(ValueError):
            s.payload[0] = 1
        # an array over bytes cannot be unlocked, so no holder can write to it
        with pytest.raises(ValueError):
            s.payload.setflags(write=True)
        assert s.to_bytes()[:4] == b"UBS1"
    assert stream.to_bytes() == data


def test_replaced_stream_is_checked_and_round_trips():
    # a header field replaced in the serialization: the payload is the same,
    # and the parse checks the new header against it
    stream = _small_stream()
    moved = Bitstream(_edited(stream, seed=9))
    assert moved.seed == 9 and moved != stream
    assert Bitstream.from_bytes(moved.to_bytes()) == moved
    assert moved.to_bytes()[_HEADER_SIZE:] == stream.to_bytes()[_HEADER_SIZE:]
    with pytest.raises(CodecError) as e:
        Bitstream(_edited(stream, frame_count=stream.frame_count + 1))
    assert e.value.code == "truncated-payload"


def test_streams_compare_by_their_bytes():
    stream = _small_stream()
    parsed = Bitstream.from_bytes(stream.to_bytes())
    assert parsed == stream and hash(parsed) == hash(stream)
    assert len({stream, parsed, Bitstream(_edited(stream, seed=2))}) == 2
    assert hash(stream) == hash(stream.to_bytes())
    flipped = bytearray(stream.to_bytes())
    flipped[-1] ^= 1
    assert Bitstream(flipped) != stream
    assert stream != stream.to_bytes()


def test_container_bad_magic():
    with pytest.raises(CodecError) as e:
        Bitstream.from_bytes(b"JUNKJUNKJUNK")
    assert e.value.code == "bad-magic"


def test_container_unsupported_version():
    data = bytearray(encode_sequence(_static_frames(), CodecConfig()).to_bytes())
    data[4] = 2
    with pytest.raises(CodecError) as e:
        Bitstream.from_bytes(bytes(data))
    assert e.value.code == "unsupported-version"


def test_container_rejects_undefined_header_bits():
    # flag bits 2-7 and the reserved byte are written as zero, so a stream
    # with any of them set could not round-trip through to_bytes
    data = encode_sequence(_static_frames(w=16, h=16), CodecConfig(block_size=4)).to_bytes()
    assert Bitstream.from_bytes(data).to_bytes() == data
    for offset, value in ((5, data[5] | 0x80), (5, data[5] | 0x04), (7, 9)):
        bad = bytearray(data)
        bad[offset] = value
        with pytest.raises(CodecError) as e:
            Bitstream.from_bytes(bytes(bad))
        assert e.value.code == "invalid-header", (offset, value)


def test_container_truncated():
    data = encode_sequence(_static_frames(), CodecConfig()).to_bytes()
    with pytest.raises(CodecError) as e:
        Bitstream.from_bytes(data[:len(data) - 7])
    assert e.value.code == "truncated-payload"


def test_container_trailing_garbage():
    data = encode_sequence(_static_frames(), CodecConfig()).to_bytes()
    with pytest.raises(CodecError) as e:
        Bitstream.from_bytes(data + b"\x00")
    assert e.value.code == "trailing-garbage"


def test_decode_unknown_generator():
    data = bytearray(encode_sequence(_static_frames(), CodecConfig()).to_bytes())
    data[6] = 200
    stream = Bitstream.from_bytes(bytes(data))
    with pytest.raises(CodecError) as e:
        decode_sequence(stream)
    assert e.value.code == "unknown-generator"


def test_q16_codes_half_the_f32_bytes():
    frames = _static_frames(5)
    f32 = encode_sequence(frames, CodecConfig(measurement_format="f32"))
    q16 = encode_sequence(frames, CodecConfig(measurement_format="q16"))
    m = f32.m_per_block
    # one GOP and no trailing frame: the key, then one record per block position
    assert f32.num_gops == 1 and f32.num_trailing == 0
    blocks = f32.grid.num_blocks
    key_bytes = f32.width * f32.height
    assert len(f32.payload) - key_bytes == blocks * 4 * m
    assert len(q16.payload) - key_bytes - blocks * 8 == blocks * (4 * m) // 2


def test_bitstream_fields_are_frozen():
    # a field set after construction would skip the checks and the payload
    # views made from it
    stream = Bitstream(_serialization())
    for name, value in (("width", 70000), ("payload", b""), ("seed", 2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stream, name, value)
    assert stream.to_bytes() == _serialization()
    # parsing is the only way to make a stream: not from fields, not by replace
    fields = {f.name: getattr(stream, f.name) for f in dataclasses.fields(stream)}
    for make in (lambda: Bitstream(**fields), lambda: dataclasses.replace(stream),
                 lambda: dataclasses.replace(stream, width=2)):
        with pytest.raises(TypeError):
            make()


def test_decode_refuses_hostile_matrix_size(monkeypatch):
    # streams of at most 65 KB whose headers ask for more decoder work than
    # the limits allow, refused before any matrix is built:
    # - m = 2049, one measurement over MAX_MEASUREMENTS, at composite side
    #   128, and m = 1000 at side 3825, each with one trailing frame and no GOP;
    # - one GOP of one block position with m = 1 at composite sides 129 and
    #   3825;
    # - the 20,510-byte stream of one GOP of one block position at side 64
    #   with m = k = 4096, whose u-step factor build would peak at 384 MiB
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    for gop_n, bs, frames, m, payload in ((16, 32, 1, 2049, 32 * 32),
                                          (225, 255, 1, 1000, 255 * 255),
                                          (1, 129, 2, 1, 129 * 129 + 4),
                                          (225, 255, 226, 1, 255 * 255 + 4),
                                          (1, 64, 2, 4096, 64 * 64 + 4 * 4096)):
        data = _serialization(bytes(payload), width=bs, height=bs, gop_n=gop_n, block_size=bs,
                              frame_count=frames, m_per_block=m)
        with pytest.raises(CodecError) as e:
            decode_sequence(Bitstream.from_bytes(data))
        assert e.value.code == "resource-limit", (gop_n, bs, m)


def test_decode_builds_u_step_once_per_stream(monkeypatch):
    # every composite of a stream shares the matrix, so its u-step factor is
    # built on the first active composite and reused by the rest; the build
    # reads the matrix by blocks of rows and the encoder reads its tile order,
    # so neither side draws the row-major entries
    builds, matrices = [], []
    gen = codec_mod.gen_mixing_matrix

    def recorded(*args):
        matrices.append(gen(*args))
        return matrices[-1]

    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", recorded)

    class Counted(tv_mod._UStep):
        def __init__(self, *args):
            builds.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(tv_mod, "_UStep", Counted)
    frames = moving_square(32, 32, 10, square=12, step=1, start_x=2)
    stream = encode_sequence(frames, CodecConfig(n=4, block_size=8, sampling_rate=0.5))
    assert stream.num_gops == 2 and all(stream.gop_measurements(i).any() for i in (0, 1))
    decode_sequence(Bitstream.from_bytes(stream.to_bytes()))
    assert len(builds) == 1
    assert len(matrices) == 2  # encoder, decoder
    assert matrices[0]._tiles is not None and matrices[0]._tiles.shape == (128, 4, 64)
    assert matrices[0]._entries is None
    assert matrices[1]._entries is None and matrices[1]._solver_cache is not None


def _last_gop_writer(fmt):
    """Encode a 2-GOP stream; return a function that writes struct (offset,
    format, value) triples over its last GOP's measurement records."""
    stream = encode_sequence(_static_frames(10, 32, 32), CodecConfig(
        block_size=16, measurement_format=fmt))
    data = stream.to_bytes()
    start = len(data) - len(stream.payload) // 2 + 32 * 32

    def write(*triples):
        out = bytearray(data)
        for offset, fmt_char, value in triples:
            struct.pack_into("<" + fmt_char, out, start + offset, value)
        return bytes(out)
    return write


def test_parse_refuses_non_finite_f32(monkeypatch):
    write = _last_gop_writer("f32")
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    last = 4 * (4 * 256 - 1)  # the last value of the GOP's 4 records
    for offset in (0, last):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(CodecError) as e:
                Bitstream.from_bytes(write((offset, "f", value)))
            assert e.value.code == "non-finite-value"
    # the largest finite float32 still parses
    Bitstream.from_bytes(write((last, "f", 3.4e38)))


def test_parse_refuses_bad_q16_range(monkeypatch):
    write = _last_gop_writer("q16")
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    last = 3 * (8 + 2 * 256)  # the last of the GOP's 4 records
    for offset in (0, last):
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf),
                       (2.0, 1.0)):
            with pytest.raises(CodecError) as e:
                Bitstream.from_bytes(write((offset, "f", lo), (offset + 4, "f", hi)))
            assert e.value.code == "non-finite-value", (lo, hi)
    # min == max is a constant record
    stream = Bitstream.from_bytes(write((last, "f", 1.0), (last + 4, "f", 1.0)))
    assert np.all(stream.gop_measurements(1)[3] == 1.0)


# --- rate accounting --------------------------------------------------------

def test_rate_report_counts():
    frames = _static_frames(5, 176, 144)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.25, block_size=16))
    report = rate_report(stream)
    assert report.measurement_count == 99 * 256 == 25344
    assert report.source_samples == 176 * 144 * 5
    assert report.bitstream_bytes == len(stream.to_bytes())
    # 99 blocks * 256 measurements + one raw key = wh + 4wh source samples
    assert report.pixel_domain_ratio == pytest.approx(
        (176 * 144 * 5) / (25344 + 176 * 144))


def test_rate_report_unity_at_full_sampling():
    frames = _static_frames(5, 176, 144)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=1.0, block_size=16))
    assert rate_report(stream).pixel_domain_ratio == pytest.approx(1.0)


def test_rate_report_bit_ratio_reflects_serialized_size():
    frames = _static_frames(5, 64, 48)
    f32 = encode_sequence(frames, CodecConfig(sampling_rate=0.5, measurement_format="f32"))
    q16 = encode_sequence(frames, CodecConfig(sampling_rate=0.5, measurement_format="q16"))
    rf, rq = rate_report(f32), rate_report(q16)
    assert rq.bitstream_bytes < rf.bitstream_bytes
    assert rq.bit_domain_ratio > rf.bit_domain_ratio


# --- decoding ---------------------------------------------------------------

def test_static_round_trip_is_exact_per_frame():
    frames = _static_frames(10, 32, 32, 90)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.1, block_size=16))
    decoded = decode_sequence(stream)
    for orig, dec in zip(frames, decoded):
        assert psnr(orig, dec) == np.inf


def test_non_residual_mode_round_trips_flat_frames():
    # ablation path: raw frames mixed, decoder skips key addition
    frames = _static_frames(5, 32, 32, 42)
    stream = encode_sequence(frames, CodecConfig(
        sampling_rate=0.5, block_size=16, residual_mode=False))
    assert stream.non_residual
    assert any(np.any(v != 0) for v in stream.gop_measurements(0))
    decoded = decode_sequence(stream)
    for orig, dec in zip(frames, decoded):
        assert psnr(orig, dec) >= 50.0


def test_decode_honors_solver_params():
    frames = moving_square(32, 32, 5, square=12, start_x=2)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.4, seed=2))
    quick = decode_sequence(stream, SolverParams(max_outer=1))
    good = decode_sequence(stream)
    quick_psnr = np.mean([psnr(a, b) for a, b in zip(frames[1:5], quick[1:5])])
    good_psnr = np.mean([psnr(a, b) for a, b in zip(frames[1:5], good[1:5])])
    assert good_psnr > quick_psnr


def test_decode_warns_once_when_composites_stop_on_the_cap(caplog):
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("ubss_codec").handlers)
    frames = moving_square(32, 32, 10, square=12, start_x=2)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.4, seed=2))
    with caplog.at_level(logging.WARNING, logger="ubss_codec"):
        decode_sequence(stream, SolverParams(max_outer=1))
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert caplog.records[0].name == "ubss_codec"
    assert re.fullmatch(r"(\d+) of \1 active composites stopped at max_outer=1",
                        caplog.records[0].getMessage())
    caplog.clear()
    # all-zero composites stop on no cap, so a static sequence logs nothing
    static = encode_sequence(_static_frames(), CodecConfig(block_size=16))
    with caplog.at_level(logging.WARNING, logger="ubss_codec"):
        decode_sequence(static, SolverParams(max_outer=1))
    assert not caplog.records


@pytest.mark.parametrize("static", [True, False], ids=["static", "active"])
def test_decode_refuses_solver_params_of_another_type(static, monkeypatch):
    # refused before any work, so also on a stream whose composites need no solve
    frames = _static_frames() if static else moving_square(32, 32, 5, square=12, start_x=2)
    stream = encode_sequence(frames, CodecConfig(sampling_rate=0.4, seed=2))
    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", _no_matrix)
    for params in ({"mu": 1.0}, 300, "defaults"):
        with pytest.raises(CodecError) as e:
            decode_sequence(stream, params)
        assert e.value.code == "invalid-solver-params", params


# --- refusals ---------------------------------------------------------------

def _one_gop_stream():
    """1x1 frames at n = 1: one GOP (key and one f32 record) and one trailing frame."""
    return Bitstream(_serialization(bytes(6), frame_count=3))


def _stream_array():
    """_one_gop_stream's serialization as a uint8 array."""
    return np.frombuffer(_one_gop_stream().to_bytes(), np.uint8)


@pytest.mark.parametrize("call, code", [
    (lambda: CodecConfig(block_size=0), "invalid-block-size"),
    (lambda: Bitstream(_serialization(width=0)), "invalid-header"),
    (lambda: Bitstream(_serialization(b"", frame_count=0)), "invalid-header"),
    (lambda: Bitstream.from_bytes(b"UBS1" + bytes(10)), "truncated-payload"),
    (lambda: tv_mod.solve_tv(mixing_mod.gen_mixing_matrix(1, 16, 256),
                             mixing_mod.MeasurementVector((0, 0), np.ones(16)), 16.0),
     "shape-mismatch"),
    (lambda: _one_gop_stream().gop_key(-1), "index-out-of-range"),
    (lambda: _one_gop_stream().gop_key(1), "index-out-of-range"),
    (lambda: _one_gop_stream().gop_measurements(-1), "index-out-of-range"),
    (lambda: _one_gop_stream().gop_measurements(1), "index-out-of-range"),
    (lambda: _one_gop_stream().trailing_frame(-1), "index-out-of-range"),
    (lambda: _one_gop_stream().trailing_frame(1), "index-out-of-range"),
    (lambda: _one_gop_stream().gop_key(0.0), "index-out-of-range"),
    # an array is refused before its first element is compared, even when it
    # holds a valid stream
    (lambda: Bitstream(_stream_array()), "not-bytes"),
    (lambda: Bitstream.from_bytes(_stream_array().astype(np.float64)), "not-bytes"),
    (lambda: Bitstream(np.stack([_stream_array()] * 2)), "not-bytes"),
    (lambda: Bitstream(np.repeat(_stream_array(), 2)[::2]), "not-bytes"),
], ids=["block-size-0", "width-0", "frame-count-0", "shorter-than-header", "solve-side-float",
        "gop-key-negative", "gop-key-past-end", "gop-measurements-negative",
        "gop-measurements-past-end", "trailing-frame-negative", "trailing-frame-past-end",
        "gop-key-float", "array-uint8", "array-float64", "array-2d", "array-strided"])
def test_refusal_codes(call, code):
    with pytest.raises(CodecError) as e:
        call()
    assert e.value.code == code
