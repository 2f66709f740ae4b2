"""Correctness checks on the pipeline's outputs; each returns a list of problems.

They run outside the timed region. An empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

from ubss_codec import (Bitstream, assemble_composite, compute_residual,
                        gen_mixing_matrix, mix_batch, psnr, segment_gops)


def coded_indices(frame_count: int, n: int):
    """Indices of the frames coded through mixing (all but keys and trailing frames)."""
    group = n + 1
    return [g * group + j for g in range(frame_count // group) for j in range(1, group)]


def mean_coded_psnr(original, decoded, n: int) -> float:
    idx = coded_indices(len(original), n)
    return sum(psnr(original[i], decoded[i]) for i in idx) / len(idx)


def check_decoded(original, data: bytes, parsed: Bitstream, decoded, n: int,
                  psnr_floor: float):
    """Checks of one parse + decode. Returns (problems, mean coded PSNR or None)."""
    problems = []
    if parsed.to_bytes() != data:
        problems.append("Bitstream.from_bytes(b).to_bytes() != b")
    if len(decoded) != len(original):
        problems.append(f"decoded {len(decoded)} frames, encoded {len(original)}")
        return problems, None
    coded = set(coded_indices(len(original), n))
    for i, (src, out) in enumerate(zip(original, decoded)):
        if out.pixels.shape != src.pixels.shape:
            problems.append(f"frame {i} decoded as {out.width}x{out.height}")
            return problems, None
        if i not in coded and not np.array_equal(out.pixels, src.pixels):
            problems.append(f"key or trailing frame {i} is not byte-identical to the input")
    quality = mean_coded_psnr(original, decoded, n)
    if not (math.isfinite(quality) and quality >= psnr_floor):
        problems.append(f"mean coded PSNR {quality} dB is below the floor of {psnr_floor} dB")
    return problems, quality


def check_mixing(frames, data: bytes, config, positions: int, seed: int):
    """Criterion 1 on the encoded stream, for a few composite positions per GOP.

    Half the positions are drawn from composites with a nonzero residual, the
    rest from all of them. Each stored measurement vector must equal
    ``mix_batch(matrix, assemble_composite(...))`` to within 1e-9 once the
    container's f32 rounding (half a float32 spacing) is allowed for.
    """
    if config.measurement_format != "f32":
        raise ValueError("the mixing check reads f32 measurements only")
    stream = Bitstream.from_bytes(data)
    matrix = gen_mixing_matrix(config.seed, config.m, config.k)
    grid = stream.grid
    bs = config.block_size
    gops, _ = segment_gops(frames, config.n)
    rng = np.random.default_rng(seed)
    problems = []
    for g, gop in enumerate(gops):
        residuals = [compute_residual(f, gop.key) for f in gop.ubss]
        energy = sum(np.abs(r.pixels.astype(np.int64)).reshape(grid.rows, bs, grid.cols, bs)
                     .sum(axis=(1, 3)).ravel() for r in residuals)
        active = np.flatnonzero(energy)
        picks = rng.choice(active, min(positions // 2, active.size), replace=False)
        picks = np.concatenate([picks, rng.choice(grid.num_blocks, positions - picks.size,
                                                  replace=False)])
        measured = stream.gop_measurements(g)
        for i in picks:
            pos = (int(i) % grid.cols, int(i) // grid.cols)
            want = mix_batch(matrix, assemble_composite(residuals, pos, bs)).values
            tol = 0.5 * np.spacing(np.abs(want).astype(np.float32)).astype(np.float64) + 1e-9
            if np.any(np.abs(measured[i] - want) > tol):
                problems.append(f"GOP {g} composite {pos}: stored measurements differ "
                                "from mix_batch by more than f32 rounding + 1e-9")
    return problems
