import weakref

import numpy as np
import pytest

import ubss_codec.codec as codec_mod
from ubss_codec import (Bitstream, CodecConfig, CodecError, Frame,
                        SolverParams, decode_sequence, encode_sequence,
                        moving_square, psnr, rate_report)


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


def test_encode_requires_divisible_dims():
    frames = _static_frames(w=30, h=30)
    with pytest.raises(CodecError) as e:
        encode_sequence(frames, CodecConfig(block_size=16))
    assert e.value.code == "dimension-not-divisible"


def test_encode_rejects_dims_beyond_header(monkeypatch):
    # width and height are u16 header fields; refused before the matrix is built
    def no_matrix(*args):
        raise AssertionError("gen_mixing_matrix called")

    monkeypatch.setattr(codec_mod, "gen_mixing_matrix", no_matrix)
    for h, w in ((1, 65536), (65536, 1)):
        with pytest.raises(CodecError) as e:
            encode_sequence([Frame(np.zeros((h, w), np.uint8))], CodecConfig(n=1, block_size=1))
        assert e.value.code == "header-field-overflow"


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
    assert f32._block_bytes() == 4 * m
    assert q16._block_bytes() - 8 == (4 * m) // 2


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
