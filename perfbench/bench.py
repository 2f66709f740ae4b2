"""The measured passes, the two kinds of run, and their result objects.

Imported by ``run.py`` once the BLAS thread count is pinned and
``ubss_codec`` was found in this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from perfbench import workloads
from perfbench.checks import check_decoded, check_mixing
from perfbench.tracer import Tracer
from ubss_codec import Bitstream, decode_sequence, encode_sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SCRIPT = os.path.join(ROOT, "perfbench", "run.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 15
MIB = 2 ** 20


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py",
                                 description="Benchmark of the ubss_codec pipeline.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", help="'tiny' shrinks every input, for smoke.py")
    ap.add_argument("--setup-probe", action="store_true",
                    help="generate the inputs, print the wall clock and exit (measures setup_s)")
    return ap.parse_args(argv)


# -- the pipeline -------------------------------------------------------------

@dataclass
class Reference:
    """Outputs of the first pass, which every later pass must reproduce exactly."""

    data: bytes          # encoded stream of inputs.frames
    decode_data: bytes   # stream that is decoded (the same, except on capture)
    psnr_db: float
    encode_peak_mib: float | None = None
    decode_peak_mib: float | None = None


def _no_span(_name):
    return nullcontext()


def _encode(frames, config, tracer=None):
    span = tracer.span if tracer else _no_span
    t0 = time.perf_counter()
    with span("codec.encode_sequence"):
        stream = encode_sequence(frames, config)
    data = stream.to_bytes()
    return data, time.perf_counter() - t0


def _decode(data, tracer=None):
    span = tracer.span if tracer else _no_span
    t0 = time.perf_counter()
    parsed = Bitstream.from_bytes(data)
    with span("codec.decode_sequence"):
        decoded = decode_sequence(parsed)
    return parsed, decoded, time.perf_counter() - t0


def _peak_mib(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def reference(inputs, seed, measure_memory=True):
    """First pass: the outputs to reproduce, plus the tracemalloc peaks.

    Returns (Reference or None, problems).
    """
    measure = _peak_mib if measure_memory else (lambda fn: (fn(), None))
    (data, _), enc_peak = measure(lambda: _encode(inputs.frames, inputs.config))
    problems = []
    if inputs.mix_checks:
        problems += check_mixing(inputs.frames, data, inputs.config, inputs.mix_checks, seed)
    if inputs.decode_frames is inputs.frames:
        decode_data = data
    else:
        decode_data, _ = _encode(inputs.decode_frames, inputs.config)
    (parsed, decoded, _), dec_peak = measure(lambda: _decode(decode_data))
    found, quality = check_decoded(inputs.decode_frames, decode_data, parsed, decoded,
                                   inputs.config.n, inputs.psnr_floor)
    problems += found
    if quality is None:
        return None, problems
    return Reference(data, decode_data, quality, enc_peak, dec_peak), problems


def run_pass(inputs, ref, repeats=1, tracer=None, pass_id=None):
    """One timed pass, hooked when a tracer is given, then checked against the reference.

    Returns ((encode seconds per repeat, decode seconds), problems).
    """
    with tracer.traced_pass(pass_id) if tracer else nullcontext():
        encoded = [_encode(inputs.frames, inputs.config, tracer) for _ in range(repeats)]
        parsed, decoded, decode_s = _decode(ref.decode_data, tracer)
    problems = []
    if any(data != ref.data for data, _ in encoded):
        problems.append("encoded stream differs from the first pass")
    found, quality = check_decoded(inputs.decode_frames, ref.decode_data, parsed, decoded,
                                   inputs.config.n, inputs.psnr_floor)
    problems += found
    if quality is not None and quality != ref.psnr_db:
        problems.append(f"psnr_db {quality!r} differs from the first pass ({ref.psnr_db!r})")
    return ([s for _, s in encoded], decode_s), problems


class PassCounter:
    """Attempted and failed passes; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {label} failed: {p}", file=sys.stderr)
        return not problems

    def attempt(self, label, fn):
        """Run fn() -> (result, problems); an exception is a failed pass, not a crash."""
        try:
            result, problems = fn()
        except Exception as exc:  # any failure of the program under test is a failed pass
            self.record(label, [f"{type(exc).__name__}: {exc}"])
            return None
        return result if self.record(label, problems) else None


def _median(values):
    return statistics.median(values) if values else None


def plain_run(inputs, seed, seconds, setup_s=None):
    """End-to-end metrics, no hooks installed. Returns (result, info)."""
    count = PassCounter()
    ref = count.attempt("first pass", lambda: reference(inputs, seed))
    enc_ms, dec_ms = [], []
    deadline = time.perf_counter() + seconds
    while ref is not None:
        timed = count.attempt(f"pass {count.attempted}",
                              lambda: run_pass(inputs, ref, inputs.encode_repeats))
        if timed is not None:
            enc_ms += [1e3 * s / len(inputs.frames) for s in timed[0]]
            dec_ms.append(1e3 * timed[1] / len(inputs.decode_frames))
        if time.perf_counter() >= deadline:
            break
    frames = inputs.frames
    pixels = frames[0].width * frames[0].height * len(frames)
    metrics = {
        "encode_ms_per_frame": (_median(enc_ms), "ms", None),
        "decode_ms_per_frame": (_median(dec_ms), "ms", None),
        "psnr_db": (ref and ref.psnr_db, "dB", None),
        "bits_per_pixel": (ref and len(ref.data) * 8 / pixels, "bit", None),
        "encode_peak_mib": (ref and ref.encode_peak_mib, "MiB", None),
        "decode_peak_mib": (ref and ref.decode_peak_mib, "MiB", None),
        "setup_s": (setup_s, "s", "a setup probe failed"),
    }
    info = {"encode_samples": len(enc_ms), "decode_samples": len(dec_ms)}
    return _result(count, metrics), _stream_info(ref, info)


def traced_run(inputs, seed, seconds, trace_path=None):
    """Per-layer metrics: plain and hooked passes alternate. Returns (result, info)."""
    count = PassCounter()
    ref = count.attempt("first pass", lambda: reference(inputs, seed, measure_memory=False))
    tracer = Tracer()
    decode_s = {False: [], True: []}
    deadline = time.perf_counter() + seconds
    i = 0
    while ref is not None:
        hooked = i % 2 == 1
        timed = count.attempt(f"{'traced ' if hooked else ''}pass {i}",
                              lambda: run_pass(inputs, ref, 1, tracer if hooked else None, i))
        if timed is not None:
            decode_s[hooked].append(timed[1])
        i += 1
        if i >= 2 and time.perf_counter() >= deadline:
            break
    if ref is not None and not tracer.solved_zero():
        count.attempt("zero-composite probe",
                      lambda: (tracer.probe_zero(ref.decode_data), []))
    metrics = tracer.metrics() if ref is not None else {}
    if decode_s[False] and decode_s[True]:
        overhead = statistics.median(decode_s[True]) / statistics.median(decode_s[False]) - 1
        metrics["trace.overhead_frac"] = (overhead, "fraction", None)
    else:
        metrics["trace.overhead_frac"] = (None, "fraction", "no passed pair of passes")
    info = {"traced_passes": len(tracer.passes), "missing_hooks": tracer.missing,
            "zero_ms_from_probe": ref is not None and not tracer.solved_zero()}
    if trace_path and tracer.spans:
        try:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            tracer.write(trace_path)
            info["spans_file"] = os.path.relpath(trace_path, ROOT)
        except OSError as exc:
            print(f"perfbench: could not write spans: {exc}", file=sys.stderr)
    return _result(count, metrics), _stream_info(ref, info)


def _result(count, metrics):
    out = {}
    for name, (value, unit, note) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if value is None:
            out[name]["note"] = note or "not measured: no pass succeeded"
    return {"correct": count.failed == 0 and count.attempted > 0,
            "attempted": count.attempted, "failed": count.failed, "metrics": out}


def _stream_info(ref, info):
    if ref is not None:
        info["stream_sha256"] = hashlib.sha256(ref.data).hexdigest()
        info["psnr_db"] = ref.psnr_db
    return info


# -- set-up time and environment ------------------------------------------------

def measure_setup(args):
    """setup_s: median over fresh processes of start -> inputs generated."""
    cmd = [sys.executable, RUN_SCRIPT, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            print(f"perfbench: setup probe failed: {done.stderr.strip()}", file=sys.stderr)
            return None
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def _git_revision():
    # The ceiling keeps git from reporting an enclosing repository's revision.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"git_revision": _git_revision(), "nproc": os.cpu_count(),
            "blas_threads": blas_threads, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas}


def main(argv, blas_threads):
    args = _parse_args(argv)
    try:
        inputs = workloads.make(args.workload, args.seed, args.size)
    except workloads.RegimeError as exc:
        sys.exit(f"perfbench: {exc}")
    if args.setup_probe:
        print(repr(time.time()))
        return 0
    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.size}-{args.seed}.json")
        result, info = traced_run(inputs, args.seed, args.seconds, trace_path)
    else:
        setup_s = measure_setup(args)
        result, info = plain_run(inputs, args.seed, args.seconds, setup_s)
    info.update(workload=args.workload, seed=args.seed, size=args.size,
                start=inputs.start, seconds=args.seconds, trace=args.trace,
                env=environment(blas_threads))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0
