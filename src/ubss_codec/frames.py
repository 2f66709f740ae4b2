"""Raw video ingestion, frame/GOP structure, block geometry and quality metrics."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import CodecError

RAW_FORMATS = ("gray8", "yuv420p")


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def is_perfect_square(n: int) -> bool:
    if n < 1:
        return False
    r = math.isqrt(n)
    return r * r == n


class _Raster:
    """Immutable row-major 2-D raster of whole-number samples in [_lo, _hi], held as _dtype.

    Float input is accepted when every sample is integral (np.rint output, say);
    a fractional or NaN sample is refused with CodecError("non-integral-sample")
    rather than truncated, and one out of range, inf included, with
    "sample-out-of-range". uint8 input lies in range of either raster and is
    copied unchecked.
    """

    __slots__ = ("pixels", "__weakref__")

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise CodecError("dimensions-zero", f"expected nonempty 2-D raster, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if np.any(arr < self._lo) or np.any(arr > self._hi):
                raise CodecError("sample-out-of-range", f"samples must lie in [{self._lo}, {self._hi}]")
            if arr.dtype.kind == "f" and not np.all(arr == np.rint(arr)):
                raise CodecError("non-integral-sample", "samples must be whole numbers")
        self.pixels = _locked(arr.astype(self._dtype))

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __repr__(self):
        return f"{type(self).__name__}({self.width}x{self.height})"


class Frame(_Raster):
    """Single 8-bit luma raster: samples in [0, 255], held as uint8."""

    __slots__ = ()
    _lo, _hi, _dtype = 0, 255, np.uint8


class ResidualFrame(_Raster):
    """Signed per-pixel difference against a key frame: samples in [-255, 255], held as int16."""

    __slots__ = ()
    _lo, _hi, _dtype = -255, 255, np.int16


@dataclass
class Gop:
    """One key frame plus the n frames coded against it."""

    key: Frame
    ubss: tuple

    def __post_init__(self):
        self.ubss = tuple(self.ubss)
        if not is_perfect_square(len(self.ubss)):
            raise CodecError("n-not-perfect-square", f"group holds {len(self.ubss)} coded frames")
        dims = (self.key.height, self.key.width)
        for f in self.ubss:
            if (f.height, f.width) != dims:
                raise CodecError("inconsistent-dimensions",
                                 f"{f.width}x{f.height} frame in a {dims[1]}x{dims[0]} group")


@dataclass(frozen=True)
class BlockGrid:
    """Tiling of a frame into square blocks with no partial blocks."""

    block_size: int
    cols: int
    rows: int

    @classmethod
    def for_dims(cls, width: int, height: int, block_size: int) -> "BlockGrid":
        if block_size < 1:
            raise CodecError("dimension-not-divisible", f"block size {block_size} invalid")
        if width % block_size or height % block_size:
            raise CodecError("dimension-not-divisible",
                             f"{width}x{height} not divisible by block size {block_size}")
        return cls(block_size=block_size, cols=width // block_size, rows=height // block_size)

    @property
    def num_blocks(self) -> int:
        return self.cols * self.rows

    def positions(self):
        """Yield (block column, block row) in row-major grid order."""
        for by in range(self.rows):
            for bx in range(self.cols):
                yield bx, by


def _frame_bytes(width: int, height: int, fmt: str) -> int:
    luma = width * height
    if fmt == "gray8":
        return luma
    # yuv420p: two quarter-size chroma planes follow the luma plane
    return luma + 2 * ((width + 1) // 2) * ((height + 1) // 2)


def load_raw_sequence(path, width: int, height: int, count: int, fmt: str = "gray8"):
    """Read `count` luma frames from a headerless raw file.

    For yuv420p input only the luma plane is kept; chroma bytes are skipped.
    """
    if fmt not in RAW_FORMATS:
        raise CodecError("unknown-format", f"format {fmt!r} not one of {RAW_FORMATS}")
    if width <= 0 or height <= 0:
        raise CodecError("dimensions-zero", f"{width}x{height}")
    if count < 0:
        raise CodecError("invalid-frame-count", str(count))
    per_frame = _frame_bytes(width, height, fmt)
    luma = width * height
    try:
        size = os.path.getsize(path)
        if size < count * per_frame:
            raise CodecError("file-too-short",
                             f"need {count * per_frame} bytes for {count} frames, file has {size}")
        frames = []
        with open(path, "rb") as fh:
            for _ in range(count):
                plane = fh.read(luma)
                frames.append(Frame(np.frombuffer(plane, dtype=np.uint8).reshape(height, width)))
                fh.seek(per_frame - luma, os.SEEK_CUR)
    except OSError as exc:
        raise CodecError("io-failure", str(exc)) from exc
    return frames


def segment_gops(frames, n: int):
    """Split frames into groups of 1 key + n coded frames.

    Returns (gops, trailing) where `trailing` holds the leftover frames at the
    end (fewer than n+1) that must be coded as plain key frames.
    """
    if not is_perfect_square(n):
        raise CodecError("n-not-perfect-square", f"n={n}")
    frames = list(frames)
    if frames:
        dims = (frames[0].height, frames[0].width)
        for f in frames:
            if (f.height, f.width) != dims:
                raise CodecError("inconsistent-dimensions",
                                 f"{f.width}x{f.height} frame in a {dims[1]}x{dims[0]} sequence")
    group = n + 1
    full = len(frames) // group
    gops = [Gop(key=frames[i * group], ubss=tuple(frames[i * group + 1:(i + 1) * group]))
            for i in range(full)]
    return gops, frames[full * group:]


def psnr(reference: Frame, test: Frame) -> float:
    """Peak signal-to-noise ratio in dB against an 8-bit peak of 255.

    Returns +inf for identical frames. MSE is accumulated in double precision.
    """
    if (reference.height, reference.width) != (test.height, test.width):
        raise CodecError("dimension-mismatch",
                         f"{reference.width}x{reference.height} vs {test.width}x{test.height}")
    diff = reference.pixels.astype(np.float64) - test.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def mean_coded_psnr(original, decoded, n: int) -> float:
    """Mean PSNR over the frames coded through mixing, i.e. all but the key of each
    group of 1 + n frames and the trailing key-only frames; +inf if there are none."""
    group = n + 1
    idx = [g * group + j for g in range(len(original) // group) for j in range(1, group)]
    if not idx:
        return math.inf
    return sum(psnr(original[i], decoded[i]) for i in idx) / len(idx)


def save_frame_pgm(frame: Frame, path) -> None:
    """Write a frame as binary PGM (P5), maxval 255."""
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(frame.pixels.tobytes())
    except OSError as exc:
        raise CodecError("io-failure", str(exc)) from exc
