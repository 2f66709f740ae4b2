"""Smoke test of the benchmark at tiny sizes; it takes seconds.

    python3 perfbench/smoke.py

It checks that
* on every workload, with ``--trace 0`` and ``--trace 1``, the last line of
  output is a passing result (correct, 0 failed) that prints every metric
  named in BENCHMARK.json as a number with its unit, and that layers.json maps exactly
  the per-layer metrics of BENCHMARK.json;
* two runs of one seed print the same stream hash and psnr_db, on every workload;
* the correctness checks fire on deliberately corrupted streams, and a pass
  that raises is counted as failed instead of crashing the run;
* a hook target that no longer exists gives absent metrics with a note.
It exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench import run  # noqa: E402  (pins BLAS threads, puts src/ on the path)

run.import_codec()

from perfbench import bench, checks, tracer, workloads  # noqa: E402
from ubss_codec import Bitstream, CodecError  # noqa: E402

failures = []
passed = []


def expect(ok, what):
    (passed if ok else failures).append(what)
    if not ok:
        print(f"FAIL {what}")


def run_tiny(workload, seed, trace):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
                           "--size", "tiny"], cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return None, None, done.stderr.strip()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"], done.stderr.strip()


def check_outputs(spec):
    kinds = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
    infos = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in kinds:
            label = f"{workload} --trace {trace}"
            result, info, err = run_tiny(workload, 7, trace)
            expect(result is not None, f"{label}: exits 0 and prints a result {err[-300:]}")
            if result is None:
                continue
            infos[workload, trace] = info
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result has exactly correct/attempted/failed/metrics")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{label}: correct, 0 failed of {result['attempted']}")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                has_value = (got is not None and isinstance(got["value"], (int, float))
                             and not isinstance(got["value"], bool))
                expect(has_value and got["unit"] == m["unit"] and set(got) == {"value", "unit"},
                       f"{label}: {m['name']} printed in {m['unit']} ({got})")
    for workload in (w["name"] for w in spec["workloads"]):
        plain, traced = infos.get((workload, 0), {}), infos.get((workload, 1), {})
        expect(plain.get("stream_sha256") is not None
               and (plain.get("stream_sha256"), plain.get("psnr_db"))
               == (traced.get("stream_sha256"), traced.get("psnr_db")),
               f"{workload}: two runs of one seed give the same stream hash and psnr_db")


def check_layer_map(spec):
    with open(os.path.join(HERE, "layers.json")) as fh:
        mapped = set(json.load(fh)["metrics"])
    named = {m["name"] for m in spec["per_layer"]}
    expect(mapped == named, f"layers.json maps exactly the per-layer metrics "
                            f"(missing {sorted(named - mapped)}, extra {sorted(mapped - named)})")


def _header_size(data):
    return len(data) - len(Bitstream.from_bytes(data).payload)


def check_corruption():
    inputs = workloads.make("square", 3, "tiny")
    ref, problems = bench.reference(inputs, 3, measure_memory=False)
    expect(ref is not None and not problems, "square tiny: the first pass passes its checks")
    data = ref.data
    header = _header_size(data)
    frame_bytes = inputs.frames[0].width * inputs.frames[0].height

    def flipped(offset):
        bad = bytearray(data)
        bad[offset] ^= 0x5A
        return bytes(bad)

    for what, bad in (("a key-frame byte", flipped(header + 7)),
                      ("a measurement byte", flipped(header + frame_bytes + 4 * 5 + 3)),
                      ("a trailing-frame byte", flipped(len(data) - 2))):
        corrupt = bench.Reference(data, bad, ref.psnr_db)
        _, problems = bench.run_pass(inputs, corrupt)
        expect(bool(problems), f"corrupting {what} is caught: {problems[:1]}")

    count = bench.PassCounter()
    truncated = bench.Reference(data, data[:-1], ref.psnr_db)
    count.attempt("truncated", lambda: bench.run_pass(inputs, truncated))
    expect((count.attempted, count.failed) == (1, 1),
           "a truncated stream raises inside the pass and counts as 1 failed of 1")

    original = bench.decode_sequence

    def broken(stream):
        raise CodecError("non-finite-value", "injected by smoke.py")

    bench.decode_sequence = broken
    try:
        result, _ = bench.plain_run(inputs, 3, 0.1)
    finally:
        bench.decode_sequence = original
    expect(not result["correct"] and result["failed"] >= 1,
           f"a decoder that raises gives correct=false and failed>=1, not a crash "
           f"({result['attempted']} attempted, {result['failed']} failed)")

    capture = workloads.make("capture", 3, "tiny")
    config = capture.config
    data = bench.reference(capture, 3, measure_memory=False)[0].data
    header = _header_size(data)
    frame_bytes = capture.frames[0].width * capture.frames[0].height
    start = header + frame_bytes
    meas = (frame_bytes // config.block_size ** 2) * config.m * 4
    bad = bytearray(data)
    for off in range(start, start + meas, 4):
        bad[off] ^= 0x01  # one float32 ulp on every measurement of GOP 0
    expect(not checks.check_mixing(capture.frames, data, config, capture.mix_checks, 3),
           "capture tiny: stored measurements match mix_batch")
    expect(bool(checks.check_mixing(capture.frames, bytes(bad), config, capture.mix_checks, 3)),
           "capture tiny: a one-ulp change of the measurements fails the mixing check")


def check_missing_hook():
    inputs = workloads.make("square", 3, "tiny")
    saved = dict(tracer.HOOKS)
    tracer.HOOKS["tv.solve_tv"] = ("ubss_codec.tv", "solve_tv_gone")
    try:
        result, _ = bench.traced_run(inputs, 3, 0.1)
    finally:
        tracer.HOOKS.update(saved)
    metrics = result["metrics"]
    gone = [metrics[n] for n in metrics if n.startswith("tv.solve_tv.")]
    expect(result["correct"] and all(m["value"] is None and "does not exist" in m["note"]
                                     for m in gone),
           "a hook target that no longer exists gives absent tv metrics with a note")
    expect(isinstance(metrics["mixing.gen_mixing_matrix.ms"]["value"], float),
           "the other hooks still report when one target is gone")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_layer_map(spec)
    check_corruption()
    check_missing_hook()
    check_outputs(spec)
    print(f"smoke: {len(passed)} checks passed, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
