"""End-to-end encoder/decoder pipeline and the self-describing bitstream container.

Bitstream layout (all little-endian):

* the header, stated once as the field table _FIELDS: magic "UBS1", version = 1,
  flags (bit0: non-residual ablation, bit1: q16 measurements, bits 2-7 zero),
  generator-ID, reserved = 0, width, height, gop_n, block_size, frame_count,
  seed, m_per_block; each field unsigned with the width of its struct code
* per GOP: raw key payload (width*height bytes), then for each block position
  in row-major grid order either f32[m] or (min f32, max f32, u16[m])
* trailing key-only frames: raw payloads in order.

Everything the decoder needs to regenerate the mixing matrix is in the header.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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

# The header in wire order, field name -> struct code: the only statement of
# its layout and of each field's limit. The container writes the _FRAMING
# fields itself; the others are Bitstream fields of the same name.
_FIELDS = {"magic": "4s", "version": "B", "flags": "B", "generator_id": "B", "reserved": "B",
           "width": "H", "height": "H", "gop_n": "B", "block_size": "B",
           "frame_count": "I", "seed": "Q", "m_per_block": "I"}
_FRAMING = ("magic", "version", "flags", "reserved")
_HEADER = struct.Struct("<" + "".join(_FIELDS.values()))
# Largest m x k float64 mixing matrix the encoder builds or the decoder
# regenerates from a header: 256 MiB, 32 times the 8 MiB of k = 1024 at rate 1.
MAX_MATRIX_BYTES = 256 * 2 ** 20
# Largest composite side, sqrt(gop_n) * block_size, a config or header may ask
# for: the decoder's TV u-step takes dense products of side x side matrices,
# which MAX_MATRIX_BYTES does not bound. 128 is the side of n = 16 at block
# 32, the largest any test builds. The u-step's other state, an (m+1) x (m+1)
# float64 matrix, takes at most (m+1)^2 * 8 bytes: since m <= k, about the
# matrix's own bytes.
MAX_COMPOSITE_SIDE = 128


def _record(m: int, q16: bool) -> np.dtype:
    """One block position's measurement record: f32[m], or (min f32, max f32, u16[m])."""
    if q16:
        return np.dtype([("lo", "<f4"), ("hi", "<f4"), ("codes", "<u2", (m,))])
    return np.dtype(("<f4", (m,)))


def _field_max(name: str) -> int:
    return 256 ** struct.calcsize(_FIELDS[name]) - 1


def _check_fits(name: str, value: int) -> None:
    """Refuse a value that the unsigned header field `name` cannot hold."""
    if not 0 <= value <= _field_max(name):
        raise CodecError("header-field-overflow", f"{name}={value} outside [0, {_field_max(name)}]")


def _check_decoder_work(m: int, gop_n: int, block_size: int) -> None:
    """Refuse a composite side or mixing matrix beyond MAX_COMPOSITE_SIDE or MAX_MATRIX_BYTES."""
    side = math.isqrt(gop_n) * block_size
    if side > MAX_COMPOSITE_SIDE:
        raise CodecError("resource-limit",
                         f"composite side {side} exceeds {MAX_COMPOSITE_SIDE}")
    k = gop_n * block_size * block_size
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
        _check_fits("gop_n", self.n)
        _check_fits("block_size", self.block_size)
        if self.measurement_format not in ("f32", "q16"):
            raise CodecError("unknown-measurement-format", self.measurement_format)
        _check_decoder_work(self.m, self.n, self.block_size)

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


@dataclass(kw_only=True)
class Bitstream:
    """Parsed container: header fields plus the verbatim payload bytes."""

    width: int
    height: int
    gop_n: int
    block_size: int
    frame_count: int
    seed: int
    m_per_block: int
    generator_id: int
    non_residual: bool
    q16: bool
    payload: bytes = field(repr=False)

    def __post_init__(self):
        self.seed &= _field_max("seed")  # modulo 2^64, as the mixing generator reads it
        self.payload = bytes(self.payload)
        self._validate()

    def _validate(self):
        for name in _FIELDS:
            if name not in _FRAMING:
                _check_fits(name, getattr(self, name))
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
        _check_decoder_work(self.m_per_block, self.gop_n, self.block_size)
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

    def _gop_bytes(self) -> int:
        record = _record(self.m_per_block, self.q16)
        return self.width * self.height + self.grid.num_blocks * record.itemsize

    def _records(self, i: int) -> np.ndarray:
        """GOP i's measurement records, read in place, one per block position."""
        off = i * self._gop_bytes() + self.width * self.height
        return np.frombuffer(self.payload, _record(self.m_per_block, self.q16),
                             self.grid.num_blocks, off)

    def _check_finite(self, i: int):
        """Refuse NaN or inf in GOP i's f32 values or q16 (min, max), or min > max.

        An f32 GOP is summed in float64, which no run of finite float32 can
        overflow, so no copy is made.
        """
        rec = self._records(i)
        if not self.q16:
            ok = math.isfinite(rec.sum(dtype=np.float64))
        else:
            lo, hi = rec["lo"], rec["hi"]
            ok = bool((np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)).all())
        if not ok:
            raise CodecError("non-finite-value",
                             f"GOP {i} holds a non-finite measurement or an inverted q16 range")

    # -- payload access ----------------------------------------------------

    def gop_key(self, i: int) -> Frame:
        off = i * self._gop_bytes()
        raster = np.frombuffer(self.payload, np.uint8, self.width * self.height, off)
        return Frame(raster.reshape(self.height, self.width))

    def gop_measurements(self, i: int) -> np.ndarray:
        """Dequantized float64 measurements, one row per block position in grid order."""
        rec = self._records(i)
        if not self.q16:
            return rec.astype(np.float64)
        lo = rec["lo"].astype(np.float64)[:, None]
        hi = rec["hi"].astype(np.float64)[:, None]
        return lo + rec["codes"] * ((hi - lo) / 65535.0)

    def trailing_frame(self, j: int) -> Frame:
        off = self.num_gops * self._gop_bytes() + j * self.width * self.height
        raster = np.frombuffer(self.payload, np.uint8, self.width * self.height, off)
        return Frame(raster.reshape(self.height, self.width))

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        flags = (FLAG_NON_RESIDUAL if self.non_residual else 0) | (FLAG_Q16 if self.q16 else 0)
        framing = {"magic": MAGIC, "version": VERSION, "flags": flags, "reserved": 0}
        return _HEADER.pack(*(framing[name] if name in framing else getattr(self, name)
                              for name in _FIELDS)) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) < 4 or data[:4] != MAGIC:
            raise CodecError("bad-magic", "input is not a UBS1 bitstream")
        if len(data) < _HEADER.size:
            raise CodecError("truncated-payload", f"{len(data)} bytes is shorter than the header")
        fields = dict(zip(_FIELDS, _HEADER.unpack_from(data)))
        _, version, flags, reserved = (fields.pop(name) for name in _FRAMING)
        if version != VERSION:
            raise CodecError("unsupported-version", f"version {version}")
        # to_bytes writes them as zero, so any other value would not round-trip
        if flags & ~(FLAG_NON_RESIDUAL | FLAG_Q16) or reserved:
            raise CodecError("invalid-header", f"flags {flags:#04x}, reserved byte {reserved}: "
                             "undefined bits must be zero")
        return cls(**fields, non_residual=bool(flags & FLAG_NON_RESIDUAL),
                   q16=bool(flags & FLAG_Q16), payload=data[_HEADER.size:])


def _pack_records(values: np.ndarray, q16: bool) -> bytes:
    """One GOP's records from its (block positions, m) measurements.

    q16 maps each row onto 65536 levels between its min and max, both rounded
    to float32; a constant row is all code 0.
    """
    rec = np.empty(len(values), _record(values.shape[1], q16))
    if not q16:
        rec[...] = values
        return rec.tobytes()
    lo = values.min(axis=1).astype(np.float32).astype(np.float64)
    hi = values.max(axis=1).astype(np.float32).astype(np.float64)
    gain = np.divide(65535.0, hi - lo, out=np.zeros_like(lo), where=hi > lo)
    rec["lo"], rec["hi"] = lo, hi
    rec["codes"] = np.clip(np.rint((values - lo[:, None]) * gain[:, None]), 0, 65535)
    return rec.tobytes()


def _raw_as_residual(frame: Frame) -> ResidualFrame:
    # Non-residual ablation: mix the raw frame, i.e. subtract a zero key.
    return ResidualFrame(frame.pixels.astype(np.int16))


def encode_sequence(frames, config: CodecConfig) -> Bitstream:
    """Encode: raw keys, streamed measurement of (residual) frame groups."""
    frames = list(frames)
    if not frames:
        raise CodecError("empty-input", "no frames to encode")
    width, height = frames[0].width, frames[0].height
    _check_fits("width", width)
    _check_fits("height", height)
    grid = BlockGrid.for_dims(width, height, config.block_size)
    gops, trailing = segment_gops(frames, config.n)
    matrix = gen_mixing_matrix(config.seed, config.m, config.k) if gops else None
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
        payload += _pack_records(np.stack([mv.values for mv in acc.finish()]), q16)
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
    matrix = gen_mixing_matrix(stream.seed, stream.m_per_block, stream.k) \
        if stream.num_gops else None
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
        del values, mv  # row views that would keep the GOP's measurements alive
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
    total_bytes = _HEADER.size + len(stream.payload)
    return RateReport(
        source_samples=source_samples,
        measurement_count=measurement_count,
        bitstream_bytes=total_bytes,
        pixel_domain_ratio=source_samples / (measurement_count + key_samples),
        bit_domain_ratio=(source_samples * 8) / (total_bytes * 8),
    )
