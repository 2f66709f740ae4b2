"""Command-line front end: encode/decode plus the evaluation harness commands."""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

from .codec import (MEASUREMENT_FORMATS, Bitstream, CodecConfig, DecodeReport,
                    decode_sequence, encode_sequence, iter_decode, rate_report)
from .errors import CodecError
from .frames import RAW_FORMATS, load_raw_sequence, mean_coded_psnr, save_frame_pgm
from .synthetic import moving_square

SWEEP_COLUMNS = ["sequence", "rate", "block_size", "mode", "psnr_db",
                 "encode_s", "decode_s", "pixel_ratio", "bit_ratio"]

BLOCKSTUDY_COLUMNS = ["sequence", "rate", "block_size", "composite_side", "psnr_db",
                      "decode_s_per_composite", "decode_s", "composites"]

SYNTHETIC_INPUT = "moving-square"
MODES = ("residual", "nonresidual")


def _load_input(args):
    if args.input == SYNTHETIC_INPUT:
        return moving_square(args.width, args.height, args.frames)
    return load_raw_sequence(args.input, args.width, args.height, args.frames, args.format)


def _config(args, rate=None, block_size=None, mode=None) -> CodecConfig:
    return CodecConfig(
        n=args.gop_n,
        block_size=args.block_size if block_size is None else block_size,
        sampling_rate=args.rate if rate is None else rate,
        seed=args.seed,
        measurement_format=args.meas,
        residual_mode=(args.mode if mode is None else mode) == "residual",
    )


def cmd_encode(args) -> int:
    frames = _load_input(args)
    config = _config(args)
    t0 = time.perf_counter()
    stream = encode_sequence(frames, config)
    encode_s = time.perf_counter() - t0
    with open(args.out, "wb") as fh:
        fh.write(stream.to_bytes())
    report = rate_report(stream)
    print(f"frames={stream.frame_count}")
    print(f"source_samples={report.source_samples}")
    print(f"measurement_count={report.measurement_count}")
    print(f"bitstream_bytes={report.bitstream_bytes}")
    print(f"pixel_domain_ratio={report.pixel_domain_ratio:.6f}")
    print(f"bit_domain_ratio={report.bit_domain_ratio:.6f}")
    print(f"encode_s={encode_s:.4f}")
    return 0


def cmd_decode(args) -> int:
    with open(args.input, "rb") as fh:
        stream = Bitstream.from_bytes(fh.read())
    report = DecodeReport() if args.report else None
    # each frame is written as it is decoded; decode_s counts decoding only
    decode_s, count = 0.0, 0
    t0 = time.perf_counter()
    for frame in iter_decode(stream, report=report):
        decode_s += time.perf_counter() - t0
        save_frame_pgm(frame, f"{args.out}_{count:05d}.pgm")
        count += 1
        t0 = time.perf_counter()
    decode_s += time.perf_counter() - t0
    if report is not None:
        with open(args.report, "w") as fh:
            json.dump({name: getattr(report, name).tolist() for name in DecodeReport.FIELDS}, fh)
    print(f"frames={count}")
    print(f"decode_s={decode_s:.4f}")
    print(f"decode_s_per_frame={decode_s / count:.4f}")
    return 0


def _run_point(frames, config):
    t0 = time.perf_counter()
    stream = encode_sequence(frames, config)
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    decoded = decode_sequence(stream)
    decode_s = time.perf_counter() - t0
    return stream, mean_coded_psnr(frames, decoded, config.n), encode_s, decode_s


def cmd_sweep(args) -> int:
    frames = _load_input(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(SWEEP_COLUMNS)
    for rate in args.rates:
        for mode in args.modes:
            try:
                config = _config(args, rate=rate, mode=mode)
                stream, mean_psnr, encode_s, decode_s = _run_point(frames, config)
                report = rate_report(stream)
                writer.writerow([args.input, rate, args.block_size, mode,
                                 f"{mean_psnr:.4f}", f"{encode_s:.4f}", f"{decode_s:.4f}",
                                 f"{report.pixel_domain_ratio:.6f}",
                                 f"{report.bit_domain_ratio:.6f}"])
            except CodecError as exc:
                writer.writerow([args.input, rate, args.block_size, mode,
                                 f"error:{exc.code}", "", "", "", ""])
            sys.stdout.flush()
    return 0


def cmd_blockstudy(args) -> int:
    frames = _load_input(args)
    writer = csv.writer(sys.stdout)
    writer.writerow(BLOCKSTUDY_COLUMNS)
    for size in args.block_sizes:
        try:
            stream, mean_psnr, _, decode_s = _run_point(frames, _config(args, block_size=size))
            composites = stream.num_gops * stream.grid.num_blocks
            per_composite = decode_s / composites if composites else 0.0
            writer.writerow([args.input, args.rate, size, stream.composite_side,
                             f"{mean_psnr:.4f}", f"{per_composite:.6f}",
                             f"{decode_s:.4f}", composites])
        except CodecError as exc:
            writer.writerow([args.input, args.rate, size, "", f"error:{exc.code}", "", "", ""])
        sys.stdout.flush()
    return 0


def cmd_timing(args) -> int:
    frames = _load_input(args)
    _, mean_psnr, encode_s, decode_s = _run_point(frames, _config(args))
    count = len(frames)
    print(f"frames={count}")
    print(f"psnr_db={mean_psnr:.4f}")
    print(f"encode_s={encode_s:.4f}")
    print(f"encode_s_per_frame={encode_s / count:.6f}")
    print(f"decode_s={decode_s:.4f}")
    print(f"decode_s_per_frame={decode_s / count:.6f}")
    return 0


def _comma_list(item_type):
    """argparse type: comma-separated item_type values, empty items skipped."""
    def parse(text):
        return [item_type(item) for item in text.split(",") if item]
    parse.__name__ = f"comma-separated {item_type.__name__}"  # argparse names it on error
    return parse


def _mode(text):
    """argparse type: one of MODES."""
    if text not in MODES:
        raise argparse.ArgumentTypeError(f"unknown mode {text!r}; choose from {', '.join(MODES)}")
    return text


def _add_input_args(p):
    p.add_argument("input",
                   help=f"raw video file, or '{SYNTHETIC_INPUT}' for the built-in sequence")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--format", choices=RAW_FORMATS, default="gray8")


def _add_config_args(p, with_rate=True, with_block_size=True, with_mode=True):
    if with_rate:
        p.add_argument("--rate", type=float, default=0.25, help="sampling rate m/k in (0, 1]")
    p.add_argument("--gop-n", type=int, default=4, dest="gop_n",
                   help="coded frames per key frame (perfect square)")
    if with_block_size:
        p.add_argument("--block-size", type=int, default=16, dest="block_size")
    p.add_argument("--seed", type=int, default=1)
    if with_mode:
        p.add_argument("--mode", choices=MODES, default="residual")
    p.add_argument("--meas", choices=MEASUREMENT_FORMATS, default="f32",
                   help="measurement serialization format")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubss-codec",
        description="Compressive video codec with seeded Gaussian block measurements "
                    "and total-variation decoding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a raw sequence to a bitstream")
    _add_input_args(p)
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output bitstream path")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a bitstream to PGM frames")
    p.add_argument("input", help="bitstream path")
    p.add_argument("--out", required=True, help="output prefix for <prefix>_00000.pgm ...")
    p.add_argument("--report", metavar="FILE.json",
                   help="write each active composite's GOP, block, outer iterations, "
                        "stop reason and final fidelity as JSON arrays")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="rate-distortion sweep, CSV on stdout")
    _add_input_args(p)
    _add_config_args(p, with_rate=False, with_mode=False)
    p.add_argument("--rates", type=_comma_list(float), required=True,
                   help="comma-separated sampling rates")
    p.add_argument("--modes", type=_comma_list(_mode), default="residual",
                   help=f"comma-separated subset of {','.join(MODES)}")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("blockstudy", help="decode quality/time versus block size, CSV on stdout")
    _add_input_args(p)
    _add_config_args(p, with_block_size=False)
    p.add_argument("--block-sizes", type=_comma_list(int), required=True, dest="block_sizes",
                   help="comma-separated block sizes")
    p.set_defaults(func=cmd_blockstudy)

    p = sub.add_parser("timing", help="encode/decode wall-clock report")
    _add_input_args(p)
    _add_config_args(p)
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodecError as exc:
        line = f"error: {exc.code}: {exc.detail}" if exc.detail else f"error: {exc.code}"
        print(line, file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io-failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
