import csv
import hashlib
import io
import json

import numpy as np
import pytest

from ubss_codec import (Bitstream, CodecConfig, DecodeReport, decode_sequence, encode_sequence,
                        moving_square)
from ubss_codec.cli import SWEEP_COLUMNS, main
from ubss_codec.codec import _HEADER, MAGIC, VERSION


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


def test_decode_streams_the_same_pgms(tmp_path, capsys):
    # two GOPs with active composites and two trailing frames: each PGM is
    # written as its frame is decoded, byte for byte what a decode of the
    # whole list wrote (sha256 of the 12 files in order)
    raw = _write_moving_gray8(tmp_path / "in.gray", count=12)
    stream_path = tmp_path / "s.ubs"
    assert main(["encode", str(raw), "--width", "32", "--height", "32", "--frames", "12",
                 "--block-size", "8", "--out", str(stream_path)]) == 0
    capsys.readouterr()
    assert main(["decode", str(stream_path), "--out", str(tmp_path / "dec")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "frames=12"
    assert [line.split("=")[0] for line in printed[1:]] == ["decode_s", "decode_s_per_frame"]
    pgms = sorted(tmp_path.glob("dec_*.pgm"))
    assert [p.name for p in pgms] == [f"dec_{i:05d}.pgm" for i in range(12)]
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in pgms)).hexdigest()
    assert digest == "20be36d2f3e60220138b7f0402aeebc79f8bf6cd7683e84d4050f3d365e58ecc"


def test_decode_report_json(tmp_path, capsys):
    # the report file holds the library's DecodeReport as JSON arrays, and
    # asking for it changes neither the PGMs nor what decode prints
    raw = _write_moving_gray8(tmp_path / "in.gray", count=12)
    stream_path = tmp_path / "s.ubs"
    assert main(["encode", str(raw), "--width", "32", "--height", "32", "--frames", "12",
                 "--block-size", "8", "--out", str(stream_path)]) == 0
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    assert main(["decode", str(stream_path), "--out", str(tmp_path / "dec"),
                 "--report", str(report_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("=")[0] for line in printed] == ["frames", "decode_s", "decode_s_per_frame"]
    digest = hashlib.sha256(b"".join(p.read_bytes()
                                     for p in sorted(tmp_path.glob("dec_*.pgm")))).hexdigest()
    assert digest == "20be36d2f3e60220138b7f0402aeebc79f8bf6cd7683e84d4050f3d365e58ecc"
    written = json.loads(report_path.read_text())
    expected = DecodeReport()
    decode_sequence(Bitstream(stream_path.read_bytes()), report=expected)
    assert list(written) == list(DecodeReport.FIELDS) and len(expected) > 0
    for name in DecodeReport.FIELDS:
        assert written[name] == getattr(expected, name).tolist()


def test_decode_bad_magic_message(tmp_path, capsys):
    bad = tmp_path / "bad.ubs"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    rc = main(["decode", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bad-magic" in err
    assert len(err.strip().splitlines()) == 1


def test_decode_of_a_directory_is_one_io_failure_line(tmp_path, capsys):
    rc = main(["decode", str(tmp_path), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: io-failure")


def test_decode_of_a_hostile_measurement_count_is_one_resource_limit_line(tmp_path, capsys):
    # one GOP at side 64 with m = k = 4096 and f32 ones: 20,510 bytes whose
    # u-step factor build would peak at 384 MiB
    header = _HEADER.pack(MAGIC, VERSION, 0, 1, 0, 64, 64, 1, 64, 2, 1, 4096)
    stream_path = tmp_path / "m4096.ubs"
    stream_path.write_bytes(header + bytes(64 * 64) + np.ones(4096, "<f4").tobytes())
    assert stream_path.stat().st_size == 20510
    rc = main(["decode", str(stream_path), "--out", str(tmp_path / "dec")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: resource-limit: ")


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


def test_bad_list_value_is_usage_error(capsys):
    for command, option, value in (("sweep", "--rates", "0.5,abc"),
                                   ("blockstudy", "--block-sizes", "8,x"),
                                   ("sweep", "--modes", "residual,bogus")):
        with pytest.raises(SystemExit) as e:
            main([command, "moving-square", "--width", "32", "--height", "32",
                  "--frames", "5", option, value])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}:" in err and "Traceback" not in err


def test_timing_report_format(tmp_path, capsys):
    raw = _write_static_gray8(tmp_path / "in.gray")
    rc = main(["timing", str(raw), "--width", "32", "--height", "32",
               "--frames", "5", "--rate", "0.25"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("encode_s=", "encode_s_per_frame=", "decode_s=", "decode_s_per_frame="):
        assert key in out


def test_timing_prints_the_decode_reports_counts(tmp_path, capsys):
    # after decode_s_per_frame, timing prints the counts of the DecodeReport
    # its decode filled: those of a library decode of the same stream
    raw = _write_moving_gray8(tmp_path / "in.gray", count=12)
    rc = main(["timing", str(raw), "--width", "32", "--height", "32",
               "--frames", "12", "--block-size", "8"])
    assert rc == 0
    printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert list(printed)[-4:] == ["decode_s_per_frame", "active_composites",
                                  "capped_composites", "outer_iterations"]
    expected = DecodeReport()
    frames = moving_square(32, 32, 12, square=12, start_x=2)
    decode_sequence(encode_sequence(frames, CodecConfig(block_size=8)), report=expected)
    assert len(expected) > 0
    assert int(printed["active_composites"]) == len(expected)
    assert int(printed["capped_composites"]) == np.count_nonzero(expected.stop_reason == "cap")
    assert int(printed["outer_iterations"]) == expected.outer_iterations.sum()


def test_builtin_synthetic_input(tmp_path, capsys):
    out = tmp_path / "synth.ubs"
    rc = main(["encode", "moving-square", "--width", "48", "--height", "48",
               "--frames", "5", "--rate", "0.25", "--out", str(out)])
    assert rc == 0
    assert out.exists()
