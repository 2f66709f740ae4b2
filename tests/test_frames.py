import math

import numpy as np
import pytest

from ubss_codec import (BlockGrid, CodecError, Frame, Gop, ResidualFrame,
                        load_raw_sequence, psnr, save_frame_pgm,
                        segment_gops)


def test_frame_validation():
    f = Frame(np.zeros((3, 5), np.uint8))
    assert (f.height, f.width) == (3, 5)
    with pytest.raises(CodecError) as e:
        Frame(np.zeros((0, 5), np.uint8))
    assert e.value.code == "dimensions-zero"
    with pytest.raises(CodecError):
        Frame(np.full((2, 2), 300))
    # float samples must be whole numbers: refused, not truncated
    for bad in (100.7, np.nan):
        with pytest.raises(CodecError) as e:
            Frame(np.array([[bad]]))
        assert e.value.code == "non-integral-sample"
    with pytest.raises(CodecError) as e:
        Frame(np.array([[np.inf]]))
    assert e.value.code == "sample-out-of-range"
    # integral floats, e.g. rounded output, are taken as they are
    f = Frame(np.rint(np.array([[100.4, 3.6], [0.0, 255.0]])))
    assert f.pixels.dtype == np.uint8
    assert f.pixels.tolist() == [[100, 4], [0, 255]]


def test_frame_immutable():
    f = Frame(np.zeros((2, 2), np.uint8))
    with pytest.raises(ValueError):
        f.pixels[0, 0] = 1


def test_residual_range():
    ResidualFrame(np.full((2, 2), -255, np.int16))
    with pytest.raises(CodecError) as e:
        ResidualFrame(np.full((2, 2), 256))
    assert e.value.code == "sample-out-of-range"


def test_residual_refuses_what_frame_refuses():
    # fractional and NaN samples are refused, not truncated; inf is out of range
    for bad, code in ((np.nan, "non-integral-sample"), (2.9, "non-integral-sample"),
                      (-3.9, "non-integral-sample"), (np.inf, "sample-out-of-range"),
                      (-np.inf, "sample-out-of-range")):
        with pytest.raises(CodecError) as e:
            ResidualFrame(np.array([[bad]]))
        assert e.value.code == code, bad
    with pytest.raises(CodecError) as e:
        ResidualFrame(np.array([[np.nan, 2.9], [-3.9, 3.0]]))
    assert e.value.code == "non-integral-sample"
    with pytest.raises(CodecError) as e:
        ResidualFrame(np.zeros((0, 3)))
    assert e.value.code == "dimensions-zero"
    r = ResidualFrame(np.rint(np.array([[-255.0, 254.6], [0.0, 3.0]])))
    assert r.pixels.dtype == np.int16
    assert r.pixels.tolist() == [[-255, 255], [0, 3]]
    assert repr(r) == "ResidualFrame(2x2)"
    # uint8 input is in range of both rasters and is copied as it is
    raw = np.array([[0, 255]], np.uint8)
    assert ResidualFrame(raw).pixels.tolist() == [[0, 255]]
    assert Frame(raw).pixels is not raw


# --- raw file loading -------------------------------------------------------

def test_load_gray8(tmp_path):
    data = np.arange(176 * 144 * 5, dtype=np.uint64).astype(np.uint8)
    path = tmp_path / "seq.gray"
    path.write_bytes(data.tobytes())
    frames = load_raw_sequence(path, 176, 144, 5, "gray8")
    assert len(frames) == 5
    assert all(f.width == 176 and f.height == 144 for f in frames)
    expect = data.reshape(5, 144, 176)
    for i, f in enumerate(frames):
        assert np.array_equal(f.pixels, expect[i])


def test_load_yuv420p_keeps_luma_only(tmp_path):
    w, h = 176, 144
    luma0 = np.full((h, w), 10, np.uint8)
    luma1 = np.full((h, w), 200, np.uint8)
    chroma = np.full((w * h) // 2, 99, np.uint8)
    path = tmp_path / "seq.yuv"
    path.write_bytes(luma0.tobytes() + chroma.tobytes()
                     + luma1.tobytes() + chroma.tobytes())
    frames = load_raw_sequence(path, w, h, 2, "yuv420p")
    assert len(frames) == 2
    assert np.all(frames[0].pixels == 10)
    assert np.all(frames[1].pixels == 200)


def test_load_too_short(tmp_path):
    path = tmp_path / "short.gray"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(CodecError) as e:
        load_raw_sequence(path, 176, 144, 1, "gray8")
    assert e.value.code == "file-too-short"


def test_load_bad_args(tmp_path):
    path = tmp_path / "x.gray"
    path.write_bytes(b"\x00" * 16)
    with pytest.raises(CodecError) as e:
        load_raw_sequence(path, 0, 4, 1, "gray8")
    assert e.value.code == "dimensions-zero"
    with pytest.raises(CodecError) as e:
        load_raw_sequence(path, 4, 4, 1, "rgb24")
    assert e.value.code == "unknown-format"


# --- GOP segmentation -------------------------------------------------------

def _frames(count, w=8, h=8):
    return [Frame(np.full((h, w), i % 256, np.uint8)) for i in range(count)]


def test_segment_exact_fit():
    gops, trailing = segment_gops(_frames(10), 4)
    assert len(gops) == 2 and trailing == []
    assert gops[0].key.pixels[0, 0] == 0
    assert [f.pixels[0, 0] for f in gops[1].ubss] == [6, 7, 8, 9]


def test_segment_remainder():
    gops, trailing = segment_gops(_frames(12), 4)
    assert len(gops) == 2 and len(trailing) == 2
    assert [f.pixels[0, 0] for f in trailing] == [10, 11]


def test_segment_short_sequence():
    gops, trailing = segment_gops(_frames(3), 4)
    assert gops == [] and len(trailing) == 3


def test_segment_is_partition():
    for count in (0, 1, 4, 5, 9, 10, 11, 23):
        frames = _frames(count)
        gops, trailing = segment_gops(frames, 4)
        flat = []
        for g in gops:
            flat.append(g.key)
            flat.extend(g.ubss)
        flat.extend(trailing)
        assert flat == frames


def test_segment_errors():
    with pytest.raises(CodecError) as e:
        segment_gops(_frames(5), 3)
    assert e.value.code == "n-not-perfect-square"
    frames = _frames(5) + [Frame(np.zeros((4, 4), np.uint8))]
    with pytest.raises(CodecError) as e:
        segment_gops(frames, 4)
    assert e.value.code == "inconsistent-dimensions"


def test_gop_validation():
    with pytest.raises(CodecError):
        Gop(key=_frames(1)[0], ubss=tuple(_frames(3)))


# --- PSNR -------------------------------------------------------------------

def test_psnr_identical_is_infinite():
    f = _frames(1, 16, 16)[0]
    assert psnr(f, f) == math.inf


def test_psnr_unit_offset_closed_form():
    rng = np.random.default_rng(7)
    base = rng.integers(0, 255, size=(32, 48)).astype(np.uint8)
    a = Frame(base)
    b = Frame(base + 1)
    assert psnr(a, b) == pytest.approx(20 * math.log10(255), abs=1e-9)
    assert psnr(a, b) == pytest.approx(48.1308, abs=1e-4)


def test_psnr_full_range_is_zero():
    a = Frame(np.zeros((8, 8), np.uint8))
    b = Frame(np.full((8, 8), 255, np.uint8))
    assert psnr(a, b) == 0.0


def test_psnr_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pa = rng.integers(0, 256, size=(9, 13))
        pb = rng.integers(0, 256, size=(9, 13))
        acc = 0.0
        for r in range(9):
            for c in range(13):
                acc += (float(pa[r, c]) - float(pb[r, c])) ** 2
        expected = 10 * math.log10(255 ** 2 / (acc / (9 * 13)))
        assert psnr(Frame(pa), Frame(pb)) == pytest.approx(expected, abs=1e-9)


def test_psnr_symmetric():
    rng = np.random.default_rng(3)
    a = Frame(rng.integers(0, 256, size=(12, 12)))
    b = Frame(rng.integers(0, 256, size=(12, 12)))
    assert psnr(a, b) == psnr(b, a)


def test_psnr_dimension_mismatch():
    with pytest.raises(CodecError) as e:
        psnr(_frames(1, 4, 4)[0], _frames(1, 8, 8)[0])
    assert e.value.code == "dimension-mismatch"


# --- PGM --------------------------------------------------------------------

def test_pgm_exact_bytes(tmp_path):
    f = Frame(np.array([[0, 128], [255, 7]], np.uint8))
    path = tmp_path / "f.pgm"
    save_frame_pgm(f, path)
    assert path.read_bytes() == b"P5\n2 2\n255\n\x00\x80\xff\x07"


def test_pgm_round_trip_all_values(tmp_path):
    raster = np.arange(256, dtype=np.uint8).reshape(16, 16)
    path = tmp_path / "all.pgm"
    save_frame_pgm(Frame(raster), path)
    assert path.read_bytes() == b"P5\n16 16\n255\n" + bytes(range(256))


def test_pgm_unwritable_path(tmp_path):
    f = Frame(np.zeros((2, 2), np.uint8))
    with pytest.raises(CodecError) as e:
        save_frame_pgm(f, tmp_path / "missing-dir" / "f.pgm")
    assert e.value.code == "io-failure"


# --- block grid -------------------------------------------------------------

def test_block_grid():
    g = BlockGrid.for_dims(176, 144, 16)
    assert (g.cols, g.rows, g.num_blocks) == (11, 9, 99)
    assert list(g.positions())[:3] == [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(CodecError) as e:
        BlockGrid.for_dims(100, 144, 16)
    assert e.value.code == "dimension-not-divisible"
