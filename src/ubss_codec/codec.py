"""End-to-end encoder/decoder pipeline and the self-describing bitstream container.

Bitstream layout (all little-endian):

* magic "UBS1" (4 bytes), version u8=1, flags u8 (bit0: non-residual ablation,
  bit1: q16 measurements), generator-ID u8, reserved u8
* width u16, height u16, gop_n u8, block_size u8, frame_count u32, seed u64,
  m_per_block u32
* per GOP: raw key payload (width*height bytes), then for each block position
  in row-major grid order either f32[m] or (min f32, max f32, u16[m])
* trailing key-only frames: raw payloads in order.

Everything the decoder needs to regenerate the mixing matrix is in the header.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CodecError
from .frames import BlockGrid, Frame, ResidualFrame, is_perfect_square, segment_gops
from .mixing import (GENERATOR_SPLITMIX64_BOXMULLER, MeasurementVector,
                     StreamAccumulator, compute_residual,
                     disassemble_composite, gen_mixing_matrix)
from .tv import SolverParams, decode_composite

MAGIC = b"UBS1"
VERSION = 1
FLAG_NON_RESIDUAL = 0x01
FLAG_Q16 = 0x02

_HEADER = struct.Struct("<4sBBBBHHBBIQI")
_Q16_MINMAX = struct.Struct("<ff")
_U64_MASK = 0xFFFFFFFFFFFFFFFF
# Largest values the header fields can hold: gop_n is the largest perfect
# square in a u8, block_size and generator-ID u8s, width and height u16,
# frame_count and m_per_block u32.
_MAX_GOP_N = 225
_MAX_U8 = 0xFF
_MAX_DIM = 0xFFFF
_MAX_U32 = 0xFFFFFFFF
# Largest m x k float64 mixing matrix the encoder builds or the decoder
# regenerates from a header: 256 MiB, 32 times the 8 MiB of k = 1024 at rate 1.
MAX_MATRIX_BYTES = 256 * 2 ** 20


def _check_matrix_size(m: int, k: int) -> None:
    if m * k * 8 > MAX_MATRIX_BYTES:
        raise CodecError("resource-limit",
                         f"{m}x{k} mixing matrix exceeds {MAX_MATRIX_BYTES} bytes")


@dataclass
class CodecConfig:
    """Encoder settings; everything the bitstream header needs comes from here."""

    n: int = 4
    block_size: int = 16
    sampling_rate: float = 0.25
    seed: int = 1
    measurement_format: str = "f32"
    residual_mode: bool = True

    def __post_init__(self):
        if not is_perfect_square(self.n):
            raise CodecError("n-not-perfect-square", f"n={self.n}")
        if not (0.0 < self.sampling_rate <= 1.0):
            raise CodecError("invalid-sampling-rate", f"{self.sampling_rate} not in (0, 1]")
        if self.block_size < 1:
            raise CodecError("invalid-block-size", str(self.block_size))
        if self.n > _MAX_GOP_N:
            raise CodecError("header-field-overflow", f"n={self.n} exceeds {_MAX_GOP_N}")
        if self.block_size > _MAX_U8:
            raise CodecError("header-field-overflow",
                             f"block size {self.block_size} exceeds {_MAX_U8}")
        if self.measurement_format not in ("f32", "q16"):
            raise CodecError("unknown-measurement-format", self.measurement_format)
        _check_matrix_size(self.m, self.k)

    @property
    def k(self) -> int:
        return self.n * self.block_size * self.block_size

    @property
    def m(self) -> int:
        """Measurements per composite block: sampling_rate * k to the nearest integer."""
        return min(self.k, max(1, round(self.sampling_rate * self.k)))


@dataclass
class RateReport:
    source_samples: int
    measurement_count: int
    bitstream_bytes: int
    pixel_domain_ratio: float
    bit_domain_ratio: float


class Bitstream:
    """Parsed container: header fields plus the verbatim payload bytes."""

    def __init__(self, *, width, height, gop_n, block_size, frame_count, seed,
                 m_per_block, generator_id, non_residual, q16, payload):
        self.width = width
        self.height = height
        self.gop_n = gop_n
        self.block_size = block_size
        self.frame_count = frame_count
        self.seed = seed & _U64_MASK
        self.m_per_block = m_per_block
        self.generator_id = generator_id
        self.non_residual = non_residual
        self.q16 = q16
        self.payload = bytes(payload)
        self._validate()

    def _validate(self):
        for name, limit in (("width", _MAX_DIM), ("height", _MAX_DIM),
                            ("gop_n", _MAX_U8), ("block_size", _MAX_U8),
                            ("frame_count", _MAX_U32), ("m_per_block", _MAX_U32),
                            ("generator_id", _MAX_U8)):
            value = getattr(self, name)
            if not 0 <= value <= limit:
                raise CodecError("header-field-overflow", f"{name}={value} outside [0, {limit}]")
        if self.width < 1 or self.height < 1:
            raise CodecError("invalid-header", f"dimensions {self.width}x{self.height}")
        if not is_perfect_square(self.gop_n):
            raise CodecError("invalid-header", f"gop_n={self.gop_n} is not a perfect square")
        if self.block_size < 1 or self.width % self.block_size or self.height % self.block_size:
            raise CodecError("invalid-header",
                             f"block size {self.block_size} does not tile {self.width}x{self.height}")
        if self.frame_count < 1:
            raise CodecError("invalid-header", "frame_count is zero")
        if not (1 <= self.m_per_block <= self.k):
            raise CodecError("invalid-header", f"m={self.m_per_block} outside [1, {self.k}]")
        _check_matrix_size(self.m_per_block, self.k)
        expected = self.num_gops * self._gop_bytes() + self.num_trailing * self.width * self.height
        if len(self.payload) < expected:
            raise CodecError("truncated-payload",
                             f"payload {len(self.payload)} bytes, need {expected}")
        if len(self.payload) > expected:
            raise CodecError("trailing-garbage",
                             f"payload {len(self.payload)} bytes, expected {expected}")
        for i in range(self.num_gops):
            self._check_finite(i)

    # -- derived geometry -------------------------------------------------

    @property
    def k(self) -> int:
        return self.gop_n * self.block_size * self.block_size

    @property
    def composite_side(self) -> int:
        return math.isqrt(self.gop_n) * self.block_size

    @property
    def grid(self) -> BlockGrid:
        return BlockGrid.for_dims(self.width, self.height, self.block_size)

    @property
    def num_gops(self) -> int:
        return self.frame_count // (self.gop_n + 1)

    @property
    def num_trailing(self) -> int:
        return self.frame_count % (self.gop_n + 1)

    def _block_bytes(self) -> int:
        m = self.m_per_block
        return _Q16_MINMAX.size + 2 * m if self.q16 else 4 * m

    def _gop_bytes(self) -> int:
        return self.width * self.height + self.grid.num_blocks * self._block_bytes()

    def _check_finite(self, i: int):
        """Refuse NaN or inf in GOP i's f32 values or q16 (min, max), or min > max.

        Reads the records in place as float32: an f32 GOP is summed in float64,
        which no run of finite float32 can overflow, so no copy is made.
        """
        off = i * self._gop_bytes() + self.width * self.height
        count = self.grid.num_blocks
        if not self.q16:
            values = np.frombuffer(self.payload, "<f4", count * self.m_per_block, off)
            ok = math.isfinite(values.sum(dtype=np.float64))
        else:
            lo_hi = np.ndarray((count, 2), "<f4", self.payload, off, (self._block_bytes(), 4))
            ok = bool(np.isfinite(lo_hi).all() and (lo_hi[:, 0] <= lo_hi[:, 1]).all())
        if not ok:
            raise CodecError("non-finite-value",
                             f"GOP {i} holds a non-finite measurement or an inverted q16 range")

    # -- payload access ----------------------------------------------------

    def gop_key(self, i: int) -> Frame:
        off = i * self._gop_bytes()
        raster = np.frombuffer(self.payload, np.uint8, self.width * self.height, off)
        return Frame(raster.reshape(self.height, self.width))

    def gop_measurements(self, i: int):
        """Dequantized float64 measurement vectors, one per block position."""
        off = i * self._gop_bytes() + self.width * self.height
        step = self._block_bytes()
        out = []
        for _ in range(self.grid.num_blocks):
            out.append(_parse_block(self.payload, off, self.m_per_block, self.q16))
            off += step
        return out

    def trailing_frame(self, j: int) -> Frame:
        off = self.num_gops * self._gop_bytes() + j * self.width * self.height
        raster = np.frombuffer(self.payload, np.uint8, self.width * self.height, off)
        return Frame(raster.reshape(self.height, self.width))

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        flags = (FLAG_NON_RESIDUAL if self.non_residual else 0) | (FLAG_Q16 if self.q16 else 0)
        header = _HEADER.pack(MAGIC, VERSION, flags, self.generator_id, 0,
                              self.width, self.height, self.gop_n, self.block_size,
                              self.frame_count, self.seed, self.m_per_block)
        return header + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < 4 or data[:4] != MAGIC:
            raise CodecError("bad-magic", "input is not a UBS1 bitstream")
        if len(data) < _HEADER.size:
            raise CodecError("truncated-payload", f"{len(data)} bytes is shorter than the header")
        (_, version, flags, generator_id, _reserved, width, height, gop_n,
         block_size, frame_count, seed, m_per_block) = _HEADER.unpack_from(data)
        if version != VERSION:
            raise CodecError("unsupported-version", f"version {version}")
        return cls(width=width, height=height, gop_n=gop_n, block_size=block_size,
                   frame_count=frame_count, seed=seed, m_per_block=m_per_block,
                   generator_id=generator_id,
                   non_residual=bool(flags & FLAG_NON_RESIDUAL),
                   q16=bool(flags & FLAG_Q16),
                   payload=data[_HEADER.size:])


def _serialize_block(values: np.ndarray, q16: bool) -> bytes:
    if not q16:
        return values.astype("<f4").tobytes()
    lo = float(np.float32(values.min()))
    hi = float(np.float32(values.max()))
    if hi > lo:
        codes = np.clip(np.rint((values - lo) * (65535.0 / (hi - lo))), 0, 65535)
    else:
        codes = np.zeros(values.shape)
    return _Q16_MINMAX.pack(lo, hi) + codes.astype("<u2").tobytes()


def _parse_block(payload: bytes, offset: int, m: int, q16: bool) -> np.ndarray:
    if not q16:
        return np.frombuffer(payload, "<f4", m, offset).astype(np.float64)
    lo, hi = _Q16_MINMAX.unpack_from(payload, offset)
    codes = np.frombuffer(payload, "<u2", m, offset + _Q16_MINMAX.size)
    return lo + codes.astype(np.float64) * ((hi - lo) / 65535.0)


def _raw_as_residual(frame: Frame) -> ResidualFrame:
    # Non-residual ablation: mix the raw frame, i.e. subtract a zero key.
    return ResidualFrame(frame.pixels.astype(np.int16))


def encode_sequence(frames, config: CodecConfig) -> Bitstream:
    """Encode: raw keys, streamed measurement of (residual) frame groups."""
    frames = list(frames)
    if not frames:
        raise CodecError("empty-input", "no frames to encode")
    width, height = frames[0].width, frames[0].height
    if width > _MAX_DIM or height > _MAX_DIM:
        raise CodecError("header-field-overflow",
                         f"{width}x{height} frames exceed {_MAX_DIM} pixels a side")
    grid = BlockGrid.for_dims(width, height, config.block_size)
    gops, trailing = segment_gops(frames, config.n)
    matrix = gen_mixing_matrix(config.seed, config.m, config.k)
    q16 = config.measurement_format == "q16"

    payload = bytearray()
    for gop in gops:
        payload += gop.key.pixels.tobytes()
        acc = StreamAccumulator(matrix, grid, config.n)
        for j, f in enumerate(gop.ubss):
            if config.residual_mode:
                residual = compute_residual(f, gop.key)
            else:
                residual = _raw_as_residual(f)
            acc.push(residual, j)
            # streamed-memory contract: never hold more than the current residual
            del residual
        for mv in acc.finish():
            payload += _serialize_block(mv.values, q16)
    for f in trailing:
        payload += f.pixels.tobytes()

    return Bitstream(width=width, height=height, gop_n=config.n,
                     block_size=config.block_size, frame_count=len(frames),
                     seed=config.seed, m_per_block=config.m,
                     generator_id=GENERATOR_SPLITMIX64_BOXMULLER,
                     non_residual=not config.residual_mode, q16=q16,
                     payload=bytes(payload))


def decode_sequence(stream: Bitstream, solver_params: SolverParams | None = None):
    """Decode every frame: keys verbatim, coded frames via TV separation."""
    if stream.generator_id != GENERATOR_SPLITMIX64_BOXMULLER:
        raise CodecError("unknown-generator", f"generator id {stream.generator_id}")
    params = solver_params if solver_params is not None else SolverParams()
    matrix = gen_mixing_matrix(stream.seed, stream.m_per_block, stream.k)
    grid = stream.grid
    side = stream.composite_side
    bs = stream.block_size
    n = stream.gop_n

    out = []
    for i in range(stream.num_gops):
        key = stream.gop_key(i)
        recovered = np.zeros((n, stream.height, stream.width))
        for values, (bx, by) in zip(stream.gop_measurements(i), grid.positions()):
            mv = MeasurementVector(grid_position=(bx, by), values=values)
            block = decode_composite(matrix, mv, side, params)
            recovered[:, by * bs:(by + 1) * bs, bx * bs:(bx + 1) * bs] = \
                disassemble_composite(block, n)
        out.append(key)
        base = 0.0 if stream.non_residual else key.pixels.astype(np.float64)
        out.extend(Frame(np.clip(np.rint(base + r), 0, 255).astype(np.uint8))
                   for r in recovered)
    for j in range(stream.num_trailing):
        out.append(stream.trailing_frame(j))
    return out


def rate_report(stream: Bitstream) -> RateReport:
    """Compression accounting in both sample-count and serialized-bit terms."""
    source_samples = stream.width * stream.height * stream.frame_count
    measurement_count = stream.num_gops * stream.grid.num_blocks * stream.m_per_block
    key_samples = (stream.num_gops + stream.num_trailing) * stream.width * stream.height
    total_bytes = len(stream.to_bytes())
    return RateReport(
        source_samples=source_samples,
        measurement_count=measurement_count,
        bitstream_bytes=total_bytes,
        pixel_domain_ratio=source_samples / (measurement_count + key_samples),
        bit_domain_ratio=(source_samples * 8) / (total_bytes * 8),
    )
