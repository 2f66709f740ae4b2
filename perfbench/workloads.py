"""Workload inputs, generated from the seed alone.

Each workload fixes a regime of the codec; the seed picks the codec seed
(``CodecConfig.seed``) and where the generator starts (the square's
``start_x``, the pan's origin). Start offsets are drawn so that the regime
cannot change with the seed:

* the square always starts 4 pixels past a block boundary, so the set of
  composites it touches (and so the active/all-zero mix) is the same for
  every seed, and it never reaches the right edge, where ``moving_square``
  would park it;
* the pan window never leaves its texture canvas.

A length or size that breaks either rule is refused with ``RegimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ubss_codec import CodecConfig, Frame, moving_square

NAMES = ("square", "pan", "capture")
SIZES = ("full", "tiny")
GOP_N = 4
RATE = 0.25
_U64 = 2 ** 64
_SQUARE_PHASE = 4  # square start, in pixels past a block boundary


class RegimeError(ValueError):
    """The seed, length or size would take the workload out of its regime."""


@dataclass
class Inputs:
    name: str
    frames: list            # encoded for the encode metrics
    config: CodecConfig
    decode_frames: list     # encoded once; that stream is decoded for the decode metrics
    start: tuple            # generator offset the seed chose
    psnr_floor: float       # sanity floor of mean coded PSNR, far below any healthy decode
    encode_repeats: int     # encodes per pass, so short encodes still give a steady median
    mix_checks: int         # composite positions per GOP checked against mix_batch (0: none)


# name -> size -> generator parameters. Frame counts leave trailing key-only
# frames after the last full GOP so their pass-through is checked too.
_SPECS = {
    "square": {
        "full": dict(width=176, height=144, frames=12, block=16, square=40, step=2,
                     fmt="f32", repeats=8, floor=45.0),
        "tiny": dict(width=64, height=32, frames=7, block=8, square=12, step=2,
                     fmt="f32", repeats=2, floor=30.0),
    },
    "pan": {
        "full": dict(width=64, height=64, frames=6, block=8, canvas=256,
                     fmt="q16", repeats=20, floor=30.0),
        "tiny": dict(width=16, height=16, frames=6, block=8, canvas=48,
                     fmt="q16", repeats=2, floor=20.0),
    },
    "capture": {
        "full": dict(width=352, height=288, frames=101, block=8, square=40, step=1,
                     fmt="f32", repeats=1, window=6, floor=30.0, mix_checks=4),
        "tiny": dict(width=64, height=32, frames=11, block=8, square=12, step=1,
                     fmt="f32", repeats=1, window=6, floor=20.0, mix_checks=2),
    },
}


def make(name: str, seed: int, size: str = "full") -> Inputs:
    """Generate the inputs of workload `name` for `seed`."""
    if name not in NAMES:
        raise RegimeError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if size not in SIZES:
        raise RegimeError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    if not 0 <= seed < _U64:
        raise RegimeError(f"seed {seed} is outside [0, 2^64)")
    p = _SPECS[name][size]
    config = CodecConfig(n=GOP_N, block_size=p["block"], sampling_rate=RATE, seed=seed,
                         measurement_format=p["fmt"], residual_mode=True)
    if name == "pan":
        frames, start = _pan(seed, p)
    else:
        frames, start = _square(seed, p)
    decode_frames = frames[:p["window"]] if "window" in p else frames
    return Inputs(name=name, frames=frames, config=config, decode_frames=decode_frames,
                  start=start, psnr_floor=p["floor"], encode_repeats=p["repeats"],
                  mix_checks=p.get("mix_checks", 0))


def _square(seed: int, p: dict):
    """moving_square, started block-aligned so it moves on every frame of the run."""
    last_start = p["width"] - p["square"] - p["step"] * (p["frames"] - 1)
    if last_start < _SQUARE_PHASE:
        raise RegimeError(f"{p['frames']} frames at step {p['step']} would park the "
                          f"square at the right edge of a {p['width']}-pixel frame")
    starts = (last_start - _SQUARE_PHASE) // p["block"] + 1
    start_x = _SQUARE_PHASE + p["block"] * (seed % starts)
    frames = moving_square(p["width"], p["height"], p["frames"], square=p["square"],
                           step=p["step"], start_x=start_x)
    return frames, (start_x,)


def _pan(seed: int, p: dict):
    """A window panning 1 pixel per frame to the right over a static smooth field."""
    width, height, count, canvas = p["width"], p["height"], p["frames"], p["canvas"]
    spare_x = canvas - width - (count - 1)
    spare_y = canvas - height
    if spare_x < 0 or spare_y < 0:
        raise RegimeError(f"a {count}-frame pan of a {width}x{height} window runs off "
                          f"its {canvas}x{canvas} texture")
    ox = seed % (spare_x + 1)
    oy = (seed // (spare_x + 1)) % (spare_y + 1)
    field = smooth_field(canvas, canvas)
    frames = [Frame(field[oy:oy + height, ox + i:ox + i + width].astype(np.uint8))
              for i in range(count)]
    return frames, (ox, oy)


def smooth_field(width: int, height: int, amplitude: int = 60) -> np.ndarray:
    """The smooth multi-frequency pattern of ``ubss_codec.synthetic``, in [0, amplitude].

    Copied rather than imported from the library's private helper, so the pan
    input stays the same whatever later changes do to that helper.
    """
    x = np.arange(width)[None, :]
    y = np.arange(height)[:, None]
    f = (0.35 * np.sin(2 * np.pi * x / 31 + 0.9) * np.cos(2 * np.pi * y / 27 + 0.4)
         + 0.35 * np.cos(2 * np.pi * x / 13 + 2.2) * np.sin(2 * np.pi * y / 17 + 1.1)
         + 0.30 * np.sin(2 * np.pi * (x + y) / 41 + 0.6))
    return np.rint(amplitude * (f + 1.0) / 2.0)
