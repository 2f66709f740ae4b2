"""Acceptance harness: every exit criterion at its stated tolerance.

Each test prints one machine-greppable pass/fail line (run with -s to see
them on success). The synthetic moving-square sequence drives the codec-level
trend checks so no external video data is needed.
"""

import time

import numpy as np
import pytest

from ubss_codec import (BlockGrid, Bitstream, CodecConfig, Frame,
                        MeasurementVector, MixingMatrix,
                        ResidualFrame, SolverParams, StreamAccumulator,
                        assemble_composite, decode_sequence, divergence_adjoint,
                        encode_sequence, forward_diff, gen_mixing_matrix,
                        mean_coded_psnr, mix_batch, moving_square, shrink2,
                        solve_tv)

from reference_tv import psnr_vs, tv_subgradient_reference, piecewise_constant_image

SEQ = moving_square(176, 144, 10)
GOP_N = 4


def _report(num, name, ok, detail):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _run_codec(frames, rate, residual=True, block_size=16, seed=1,
               fmt="f32", solver=None):
    cfg = CodecConfig(sampling_rate=rate, block_size=block_size, seed=seed,
                      measurement_format=fmt, residual_mode=residual)
    t0 = time.perf_counter()
    stream = encode_sequence(frames, cfg)
    encode_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    decoded = decode_sequence(stream, solver)
    decode_s = time.perf_counter() - t0
    return stream, decoded, encode_s, decode_s


def test_criterion_1_streamed_equals_batch():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        seed = int(rng.integers(0, 2 ** 63))
        matrix = gen_mixing_matrix(seed, 256, 1024)
        grid = BlockGrid.for_dims(48, 32, 16)
        residuals = [ResidualFrame(rng.integers(-255, 256, size=(32, 48)))
                     for _ in range(4)]
        acc = StreamAccumulator(matrix, grid, 4)
        for j, res in enumerate(residuals):
            acc.push(res, j)
        streamed = acc.finish()
        for row, pos in zip(streamed, grid.positions()):
            batch = mix_batch(matrix, assemble_composite(residuals, pos, 16))
            worst = max(worst, float(np.max(np.abs(row - batch.values))))
    elapsed = time.perf_counter() - t0
    _report(1, "streamed equals batch", worst <= 1e-9 and elapsed < 10.0,
            f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_residual_mixing_advantage():
    t0 = time.perf_counter()
    _, dec_res, _, _ = _run_codec(SEQ, 0.3, residual=True)
    _, dec_raw, _, _ = _run_codec(SEQ, 0.3, residual=False)
    p_res = mean_coded_psnr(SEQ, dec_res, GOP_N)
    p_raw = mean_coded_psnr(SEQ, dec_raw, GOP_N)
    elapsed = time.perf_counter() - t0
    _report(2, "residual mixing advantage",
            p_res >= p_raw + 5.0 and elapsed < 180.0,
            f"residual {p_res:.2f} dB vs non-residual {p_raw:.2f} dB, {elapsed:.0f}s")


def test_criterion_3_block_size_trend():
    t0 = time.perf_counter()
    quality = {}
    decode_time = {}
    for bs in (4, 8, 16):
        _, decoded, _, decode_s = _run_codec(SEQ, 0.25, block_size=bs)
        quality[2 * bs] = mean_coded_psnr(SEQ, decoded, GOP_N)
        decode_time[2 * bs] = decode_s
    elapsed = time.perf_counter() - t0
    increasing = quality[8] < quality[16] < quality[32]
    not_max = decode_time[32] < max(decode_time.values())
    _report(3, "block size trend",
            increasing and not_max and elapsed < 600.0,
            f"psnr {quality[8]:.2f}<{quality[16]:.2f}<{quality[32]:.2f} dB, "
            f"decode s {decode_time[8]:.1f}/{decode_time[16]:.1f}/{decode_time[32]:.1f}, "
            f"{elapsed:.0f}s")


def test_criterion_4_rate_distortion_monotonicity():
    t0 = time.perf_counter()
    rates = (0.1, 0.2, 0.4, 0.8)
    values = []
    for rate in rates:
        _, decoded, _, _ = _run_codec(SEQ, rate)
        values.append(mean_coded_psnr(SEQ, decoded, GOP_N))
    elapsed = time.perf_counter() - t0
    monotone = all(values[i + 1] >= values[i] - 0.5 for i in range(len(values) - 1))
    pretty = "/".join("inf" if v == np.inf else f"{v:.2f}" for v in values)
    _report(4, "rate-distortion monotonicity", monotone and elapsed < 600.0,
            f"psnr {pretty} dB at rates {rates}, {elapsed:.0f}s")


def test_criterion_5_encoder_decoder_asymmetry():
    encode_times, decode_times = [], []
    for _ in range(3):
        _, _, encode_s, decode_s = _run_codec(SEQ, 0.1)
        encode_times.append(encode_s)
        decode_times.append(decode_s)
    enc = sorted(encode_times)[1] / len(SEQ)
    dec = sorted(decode_times)[1] / len(SEQ)
    _report(5, "encoder/decoder asymmetry", enc <= dec / 10.0,
            f"median encode {enc * 1e3:.2f} ms/frame vs decode {dec * 1e3:.0f} ms/frame")


def test_criterion_6_solver_correctness_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    checks = []

    # adjoint identity on random rasters
    worst_adj = 0.0
    for _ in range(100):
        u = rng.normal(size=(8, 8))
        g = rng.normal(size=(2, 8, 8))
        lhs = float(np.vdot(forward_diff(u), g))
        rhs = float(np.vdot(u, divergence_adjoint(g)))
        worst_adj = max(worst_adj, abs(lhs - rhs))
    checks.append(("adjoint", worst_adj <= 1e-10))

    # shrinkage closed form
    w = shrink2(np.array([[[3.0]], [[4.0]]]), 2.0)
    checks.append(("shrink2", abs(w[0, 0, 0] - 1.8) <= 1e-12
                   and abs(w[1, 0, 0] - 2.4) <= 1e-12))

    # analytic surrogate gradient vs central differences on an 8x8 problem
    beta, mu = 2.0 ** 5, 2.0 ** 8
    A = rng.normal(size=(32, 64)) / np.sqrt(32)
    b = rng.normal(size=32) * 10
    w = rng.normal(size=(2, 8, 8))
    nu = rng.normal(size=(2, 8, 8))
    lam = rng.normal(size=32)
    u = rng.normal(size=(8, 8)) * 5

    def q(vec):
        r = forward_diff(vec.reshape(8, 8)) - w - nu / beta
        rb = A @ vec - b - lam / mu
        return 0.5 * beta * np.vdot(r, r) + 0.5 * mu * np.vdot(rb, rb)

    analytic = beta * divergence_adjoint(forward_diff(u) - w - nu / beta) \
        + mu * (A.T @ (A @ u.ravel() - b - lam / mu)).reshape(8, 8)
    numeric = np.empty(64)
    flat = u.ravel()
    for i in range(64):
        plus, minus = flat.copy(), flat.copy()
        plus[i] += 1e-6
        minus[i] -= 1e-6
        numeric[i] = (q(plus) - q(minus)) / 2e-6
    rel = np.max(np.abs(analytic.ravel() - numeric)) / max(1.0, np.max(np.abs(numeric)))
    checks.append(("gradient", rel <= 1e-5))

    # identity recovery and exact zero
    img = np.zeros((32, 32))
    img[8:20, 8:20] = 100.0
    res = solve_tv(MixingMatrix.identity(1024), MeasurementVector((0, 0), img.ravel()), 32)
    checks.append(("identity", psnr_vs(img, res.u) >= 60.0))
    zres = solve_tv(gen_mixing_matrix(5, 128, 1024),
                    MeasurementVector((0, 0), np.zeros(128)), 32)
    checks.append(("zero", np.all(zres.u == 0.0) and zres.final_fidelity == 0.0))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _report(6, "solver correctness suite", not failed and elapsed < 60.0,
            f"adjoint {worst_adj:.1e}, grad rel {rel:.1e}, "
            f"failed={failed or 'none'}, {elapsed:.0f}s")


def test_criterion_7_reference_solver_equivalence():
    t0 = time.perf_counter()
    # the reference runs to convergence, so the production solver gets a
    # converged stopping tolerance as well
    tight = SolverParams(outer_tol=1e-6, max_outer=1000)
    margins = []
    for seed in range(10):
        img = piecewise_constant_image(16, seed)
        matrix = gen_mixing_matrix(1000 + seed, 128, 256)
        b = matrix.entries @ img.ravel()
        ref = tv_subgradient_reference(matrix.entries, b, 16, iters=20000)
        main = solve_tv(matrix, MeasurementVector((0, 0), b), 16, tight)
        margins.append(psnr_vs(img, main.u) - psnr_vs(img, ref))
    elapsed = time.perf_counter() - t0
    _report(7, "oracle equivalence", min(margins) >= -1.0 and elapsed < 300.0,
            f"worst margin {min(margins):+.2f} dB over 10 instances, {elapsed:.0f}s")


def test_criterion_8_round_trip_and_container_integrity():
    t0 = time.perf_counter()
    checks = []

    # static scenes decode losslessly at every sampling rate
    static = [Frame(np.full((32, 32), 140, np.uint8)) for _ in range(5)]
    lossless = True
    for rate in (0.05, 0.25, 0.5, 1.0):
        for fmt in ("f32", "q16"):
            stream = encode_sequence(static, CodecConfig(
                sampling_rate=rate, block_size=16, measurement_format=fmt))
            decoded = decode_sequence(stream)
            lossless &= all(np.array_equal(a.pixels, d.pixels)
                            for a, d in zip(static, decoded))
    checks.append(("static-lossless", lossless))

    # full sampling on random content round-trips above 50 dB; the decoder is
    # given a converged budget since the check targets the well-posed system,
    # not the default iteration cap
    rng = np.random.default_rng(8)
    noisy = [Frame(rng.integers(0, 256, size=(16, 32))) for _ in range(5)]
    stream = encode_sequence(noisy, CodecConfig(sampling_rate=1.0, block_size=8, seed=12))
    strong = SolverParams(mu=2.0 ** 12, max_outer=1500, outer_tol=1e-10)
    decoded = decode_sequence(stream, strong)
    rt = mean_coded_psnr(noisy, decoded, GOP_N)
    checks.append(("full-sampling-roundtrip", rt >= 50.0))

    # container round trip is byte-lossless, encoding byte-deterministic
    moving = moving_square(64, 48, 7, square=16, start_x=4)
    cfg = CodecConfig(sampling_rate=0.3, seed=77, measurement_format="q16")
    data = encode_sequence(moving, cfg).to_bytes()
    checks.append(("container-lossless", Bitstream.from_bytes(data).to_bytes() == data))
    checks.append(("deterministic", encode_sequence(moving, cfg).to_bytes() == data))

    elapsed = time.perf_counter() - t0
    failed = [name for name, ok in checks if not ok]
    _report(8, "round trip and container integrity", not failed,
            f"full-sampling {rt:.1f} dB, failed={failed or 'none'}, {elapsed:.0f}s")
