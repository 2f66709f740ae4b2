"""Raw video ingestion, frame/GOP structure, block geometry and quality metrics."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .errors import CodecError

RAW_FORMATS = ("gray8", "yuv420p")


def _locked(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _held_once(arr, dtype, ndim: int) -> bool:
    """The held-once rule: whether an array can be kept as it is, without a copy.

    It can when it is a plain read-only ndarray of this dtype and number of
    dimensions that owns its data (a buffer its maker has locked and handed
    over) or views a bytes object directly: no writable array reaches its
    buffer. Anything else, a view of another array included, is copied by the
    holder, so what it keeps never changes under it and never keeps a larger
    buffer alive.

    The lock guards against accidents, not against a holder that unlocks:
    numpy lets whoever holds an array that owns its data make it writable
    again, and writes then reach what was kept. Only an array over bytes
    cannot be unlocked, which is why a Bitstream keeps its payload that way.
    """
    return (type(arr) is np.ndarray and arr.dtype == dtype and arr.ndim == ndim
            and not arr.flags.writeable and (arr.base is None or type(arr.base) is bytes))


def is_perfect_square(n: int) -> bool:
    if n < 1:
        return False
    r = math.isqrt(n)
    return r * r == n


def _tile_root(n: int) -> int:
    """t = sqrt(n), the tiles per composite side; the one check that n is a perfect square."""
    if not (isinstance(n, numbers.Integral) and is_perfect_square(n)):
        raise CodecError("n-not-perfect-square", f"n={n}")
    return math.isqrt(n)


class _Raster:
    """Immutable row-major 2-D raster of whole-number samples in [_lo, _hi], held as _dtype.

    Float input is accepted when every sample is integral (np.rint output, say);
    a fractional or NaN sample is refused with CodecError("non-integral-sample")
    rather than truncated, and one out of range, inf included, with
    "sample-out-of-range". The range is tested on the raster's min and max,
    which a NaN makes NaN, so a raster holding a NaN is refused as
    "non-integral-sample" whatever else it holds. uint8 input lies in range of
    either raster and is not scanned. The pixels are held once, under the rule
    of _held_once: a locked array of _dtype that owns its data, or views a
    bytes object, is kept as it is; anything else, a view of another array
    included, is copied.
    """

    __slots__ = ("pixels", "__weakref__")

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise CodecError("dimensions-zero", f"expected nonempty 2-D raster, got shape {arr.shape}")
        if arr.dtype != np.uint8:
            if arr.min() < self._lo or arr.max() > self._hi:
                raise CodecError("sample-out-of-range", f"samples must lie in [{self._lo}, {self._hi}]")
            if arr.dtype.kind == "f" and not np.all(arr == np.rint(arr)):
                raise CodecError("non-integral-sample", "samples must be whole numbers")
        if not _held_once(arr, self._dtype, 2):
            arr = _locked(arr.astype(self._dtype))
        self.pixels = arr

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
    """One key frame plus the tuple of n frames coded against it. segment_gops, which builds
    every Gop, has checked n and the frames' dimensions, so a Gop checks neither."""

    key: Frame
    ubss: tuple


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
    Each Frame views the bytes its plane was read into, without a copy.
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
                if len(plane) < luma:  # the file shrank after its size was read
                    raise CodecError("file-too-short", f"a frame ends after {len(plane)} of "
                                     f"{luma} bytes")
                frames.append(Frame(np.ndarray((height, width), np.uint8, plane)))
                fh.seek(per_frame - luma, os.SEEK_CUR)
    except OSError as exc:
        raise CodecError("io-failure", str(exc)) from exc
    return frames


def segment_gops(frames, n: int):
    """Split frames into groups of 1 key + n coded frames.

    Returns (gops, trailing) where `trailing` holds the leftover frames at the
    end (fewer than n+1) that must be coded as plain key frames.
    """
    _tile_root(n)
    frames = list(frames)
    sizes = {f.pixels.shape for f in frames}
    if len(sizes) > 1:
        raise CodecError("inconsistent-dimensions", f"frames of sizes {sorted(sizes)} (h, w)")
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
    _tile_root(n)
    if len(decoded) != len(original):
        raise CodecError("frame-count-mismatch",
                         f"{len(decoded)} decoded frames for {len(original)} originals")
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
