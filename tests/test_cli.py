import csv
import io

import numpy as np
import pytest

from ubss_codec import moving_square
from ubss_codec.cli import SWEEP_COLUMNS, main


def _write_static_gray8(path, w=32, h=32, count=5, value=55):
    data = np.full((count, h, w), value, np.uint8)
    path.write_bytes(data.tobytes())
    return path


def _write_moving_gray8(path, w=32, h=32, count=5):
    frames = moving_square(w, h, count, square=12, start_x=2)
    path.write_bytes(b"".join(f.pixels.tobytes() for f in frames))
    return path


def _encode_args(inp, out, rate="0.25", extra=()):
    return ["encode", str(inp), "--width", "32", "--height", "32",
            "--frames", "5", "--rate", rate, "--out", str(out), *extra]


def test_encode_success(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    out = tmp_path / "out.ubs"
    assert main(_encode_args(raw, out)) == 0
    assert out.exists() and out.stat().st_size > 0
    printed = capsys.readouterr().out
    assert "pixel_domain_ratio=" in printed
    assert "encode_s=" in printed


def test_encode_missing_width_is_usage_error(tmp_path):
    raw = _write_static_gray8(tmp_path / "in.gray")
    with pytest.raises(SystemExit) as e:
        main(["encode", str(raw), "--height", "32", "--frames", "5",
              "--out", str(tmp_path / "o.ubs")])
    assert e.value.code == 2


def test_encode_deterministic_output(tmp_path):
    raw = _write_moving_gray8(tmp_path / "in.gray")
    out1, out2 = tmp_path / "a.ubs", tmp_path / "b.ubs"
    assert main(_encode_args(raw, out1)) == 0
    assert main(_encode_args(raw, out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_encode_runtime_error_exits_one(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["encode"])  # missing everything: argparse usage error
    rc = main(_encode_args(tmp_path / "missing.gray", tmp_path / "o.ubs"))
    assert rc == 1
    assert "io-failure" in capsys.readouterr().err


def test_encode_config_beyond_header_exits_one(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(_encode_args(raw, tmp_path / "o.ubs", extra=("--gop-n", "256", "--block-size", "1")))
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: header-field-overflow")


def test_decode_writes_zero_padded_pgms(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    stream_path = tmp_path / "s.ubs"
    assert main(_encode_args(raw, stream_path)) == 0
    capsys.readouterr()
    assert main(["decode", str(stream_path), "--out", str(tmp_path / "dec")]) == 0
    assert "decode_s=" in capsys.readouterr().out
    for i in range(5):
        p = tmp_path / f"dec_{i:05d}.pgm"
        assert p.exists()
        assert p.read_bytes() == b"P5\n32 32\n255\n" + bytes([55]) * (32 * 32)


def test_decode_bad_magic_message(tmp_path, capsys):
    bad = tmp_path / "bad.ubs"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    rc = main(["decode", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad-magic" in err
    assert len(err.strip().splitlines()) == 1


def test_sweep_csv_shape_and_error_rows(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(["sweep", str(raw), "--width", "32", "--height", "32",
               "--frames", "5", "--rates", "0.1,0.3,2.0", "--modes",
               "residual,nonresidual"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == SWEEP_COLUMNS
    assert len(rows) == 1 + 6  # cartesian product of 3 rates x 2 modes
    assert all(len(r) == len(SWEEP_COLUMNS) for r in rows[1:])
    # rate 2.0 rows carry a machine-readable error marker, sweep continued
    bad = [r for r in rows[1:] if r[1] == "2.0"]
    assert len(bad) == 2
    assert all(r[4] == "error:invalid-sampling-rate" for r in bad)


def test_sweep_psnr_reproducible_across_runs(tmp_path, capsys):
    raw = _write_moving_gray8(tmp_path / "in.gray")
    args = ["sweep", str(raw), "--width", "32", "--height", "32",
            "--frames", "5", "--rates", "0.4", "--modes", "residual"]
    assert main(args) == 0
    first = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert main(args) == 0
    second = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    for a, b in zip(first[1:], second[1:]):
        assert a[4] == b[4]          # psnr_db identical
        assert a[7:] == b[7:]        # ratios identical; timing columns may differ


def test_blockstudy_rows(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(["blockstudy", str(raw), "--width", "32", "--height", "32",
               "--frames", "5", "--rate", "0.25", "--block-sizes", "16"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    assert rows[1][2] == "16" and rows[1][3] == "32"


def test_blockstudy_indivisible_size_marks_error(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(["blockstudy", str(raw), "--width", "32", "--height", "32",
               "--frames", "5", "--rate", "0.25", "--block-sizes", "16,12"])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[2][4] == "error:dimension-not-divisible"


def test_timing_report_format(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(["timing", str(raw), "--width", "32", "--height", "32",
               "--frames", "5", "--rate", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("encode_s=", "encode_s_per_frame=", "decode_s=", "decode_s_per_frame="):
        assert key in out


def test_builtin_synthetic_input(tmp_path, capsys):
    out = tmp_path / "synth.ubs"
    rc = main(["encode", "moving-square", "--width", "48", "--height", "48",
               "--frames", "5", "--rate", "0.25", "--out", str(out)])
    assert rc == 0
    assert out.exists()
