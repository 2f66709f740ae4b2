"""End-to-end encoder/decoder pipeline and the self-describing bitstream container.

Bitstream layout (all little-endian):

* the header, stated once as the field table _FIELDS: magic "UBS1", version = 1,
  flags (bit0: non-residual ablation, bit1: q16 measurements, bits 2-7 zero),
  generator-ID, reserved = 0, width, height, gop_n, block_size, frame_count,
  seed, m_per_block; each field unsigned with the width of its struct code
* the payload, stated once as the views of _payload_layout: per GOP the raw
  key (width*height bytes), then per block position in row-major grid order
  f32[m] or (min f32, max f32, u16[m]); then the trailing key-only frames, raw.

Everything the decoder needs to regenerate the mixing matrix is in the header.
A Bitstream is made one way, by parsing a serialization, and holds it as one
bytes object, which to_bytes() returns: the encoder writes header and payload
into it in place and parses that, and the parser views the bytes it is given.
"""

from __future__ import annotations

import io
import logging
import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from . import tv
from .errors import CodecError
from .frames import BlockGrid, Frame, _locked, _tile_root, is_perfect_square, segment_gops
from .mixing import (GENERATOR_SPLITMIX64_BOXMULLER, MeasurementVector,
                     StreamAccumulator, compute_residual,
                     disassemble_composite, gen_mixing_matrix)

_log = logging.getLogger("ubss_codec")

MAGIC = b"UBS1"
VERSION = 1
FLAG_NON_RESIDUAL = 0x01
FLAG_Q16 = 0x02
MEASUREMENT_FORMATS = ("f32", "q16")

# The header in wire order, field name -> struct code: the only statement of
# its layout and of each field's limit. The container writes the _FRAMING
# fields itself; the others are Bitstream fields of the same name.
_FIELDS = {"magic": "4s", "version": "B", "flags": "B", "generator_id": "B", "reserved": "B",
           "width": "H", "height": "H", "gop_n": "B", "block_size": "B",
           "frame_count": "I", "seed": "Q", "m_per_block": "I"}
_FRAMING = ("magic", "version", "flags", "reserved")
_HEADER = struct.Struct("<" + "".join(_FIELDS.values()))
# Largest composite side, sqrt(gop_n) * block_size, a config or header may ask
# for: the decoder's TV u-step takes dense products of side x side matrices.
# 128 is the side of n = 16 at block 32, the largest any test builds.
MAX_COMPOSITE_SIDE = 128
# Most measurements per composite, m, a config or header may ask for: the
# decoder's u-step factor is an eigendecomposition of an m x m Gram matrix,
# O(m^3) time, and holds an m x k spectral copy of the matrix beside two m x m
# float64 arrays. With k = side^2, the m x k float64 mixing matrix is then at
# most 2048 * 128^2 * 8 bytes = 256 MiB.
MAX_MEASUREMENTS = 2048


def _record(m: int, q16: bool) -> np.dtype:
    """One block position's measurement record: f32[m], or (min f32, max f32, u16[m])."""
    if q16:
        return np.dtype([("lo", "<f4"), ("hi", "<f4"), ("codes", "<u2", (m,))])
    return np.dtype(("<f4", (m,)))


def _payload_layout(width: int, height: int, gops: int, blocks: int, trailing: int, record: np.dtype):
    """(byte size, views): views(buf) are the (gops, height, width) u8 keys, (gops, blocks)
    records and (trailing, height, width) u8 rasters in place, writable when buf is."""
    raster, gop = width * height, width * height + blocks * record.itemsize

    def views(buf):
        return (np.ndarray((gops, height, width), np.uint8, buf, 0, (gop, width, 1)),
                np.ndarray((gops, blocks), record, buf, raster, (gop, record.itemsize)),
                np.ndarray((trailing, height, width), np.uint8, buf, gops * gop, (raster, width, 1)))
    return gops * gop + trailing * raster, views


def _field_max(name: str) -> int:
    return 256 ** struct.calcsize(_FIELDS[name]) - 1


def _check_fits(name: str, value: int) -> None:
    """Refuse a value that is not an integer the unsigned header field `name` can hold."""
    if not isinstance(value, numbers.Integral):
        raise CodecError("non-integer-field", f"{name}={value!r} is not an integer")
    if not 0 <= value <= _field_max(name):
        raise CodecError("header-field-overflow", f"{name}={value} outside [0, {_field_max(name)}]")


def _header(non_residual: bool, q16: bool, **fields) -> bytes:
    """The packed header of a stream whose fields are given by Bitstream field name.

    Each header field is checked first, so struct never sees a value it cannot pack.
    """
    for name, value in fields.items():
        _check_fits(name, value)
    fields.update(magic=MAGIC, version=VERSION, reserved=0,
                  flags=(FLAG_NON_RESIDUAL if non_residual else 0) | (FLAG_Q16 if q16 else 0))
    return _HEADER.pack(*(fields[name] for name in _FIELDS))


def _check_decoder_work(m: int, gop_n: int, block_size: int) -> None:
    """Refuse a composite side above MAX_COMPOSITE_SIDE or an m above MAX_MEASUREMENTS."""
    side = math.isqrt(gop_n) * block_size
    if side > MAX_COMPOSITE_SIDE:
        raise CodecError("resource-limit",
                         f"composite side {side} exceeds {MAX_COMPOSITE_SIDE}")
    if m > MAX_MEASUREMENTS:
        raise CodecError("resource-limit",
                         f"{m} measurements per composite exceed {MAX_MEASUREMENTS}")


@dataclass(frozen=True)
class CodecConfig:
    """Encoder settings; everything the bitstream header needs comes from here."""

    n: int = 4
    block_size: int = 16
    sampling_rate: float = 0.25
    seed: int = 1
    measurement_format: str = "f32"
    residual_mode: bool = True

    def __post_init__(self):
        _check_fits("gop_n", self.n)
        _check_fits("block_size", self.block_size)
        _tile_root(self.n)
        if not (isinstance(self.sampling_rate, numbers.Real) and 0.0 < self.sampling_rate <= 1.0):
            raise CodecError("invalid-sampling-rate", f"{self.sampling_rate} not in (0, 1]")
        if self.block_size < 1:
            raise CodecError("invalid-block-size", str(self.block_size))
        if not isinstance(self.seed, numbers.Integral):
            raise CodecError("non-integer-field", f"seed={self.seed!r} is not an integer")
        if self.measurement_format not in MEASUREMENT_FORMATS:
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


@dataclass(frozen=True, init=False)
class Bitstream:
    """A parsed stream: header fields plus the payload, a read-only 1-D uint8 array.

    Bitstream(data) is the one way to make a stream: it parses the
    serialization `data`, header then payload, and checks it. bytes are kept
    as they are; a bytearray or a memoryview is copied into bytes once (a
    memoryview as its raw bytes), and anything else, a numpy array included,
    is refused as "not-bytes". The payload is a view of those bytes at offset
    _HEADER.size, so to_bytes() returns them and copies nothing, and numpy
    cannot make an array over bytes writable, so nothing can change a stream
    after its checks. Keys, records and trailing rasters are views into the
    payload, and gop_key and trailing_frame copy theirs out. Frozen, because
    the checks and the payload views are made once, at construction. Two
    streams are equal when their serializations are.
    """

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
    payload: np.ndarray = field(repr=False)

    def __init__(self, data):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise CodecError("not-bytes", f"a stream is parsed from bytes, not {type(data).__name__}")
        data = data if type(data) is bytes else bytes(data)
        if len(data) < 4 or data[:4] != MAGIC:
            raise CodecError("bad-magic", "input is not a UBS1 bitstream")
        if len(data) < _HEADER.size:
            raise CodecError("truncated-payload", f"{len(data)} bytes is shorter than the header")
        fields = dict(zip(_FIELDS, _HEADER.unpack_from(data)))
        _, version, flags, reserved = (fields.pop(name) for name in _FRAMING)
        if version != VERSION:
            raise CodecError("unsupported-version", f"version {version}")
        # the encoder writes them as zero, so any other value would not round-trip
        if flags & ~(FLAG_NON_RESIDUAL | FLAG_Q16) or reserved:
            raise CodecError("invalid-header", f"flags {flags:#04x}, reserved byte {reserved}: "
                             "undefined bits must be zero")
        fields.update(non_residual=bool(flags & FLAG_NON_RESIDUAL), q16=bool(flags & FLAG_Q16),
                      payload=np.frombuffer(data, np.uint8, offset=_HEADER.size))
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        self._validate()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def __hash__(self):
        return hash(self.to_bytes())

    def _validate(self):
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
        size, views = _payload_layout(self.width, self.height, self.num_gops, self.grid.num_blocks,
                                      self.num_trailing, _record(self.m_per_block, self.q16))
        if len(self.payload) != size:
            raise CodecError("truncated-payload" if len(self.payload) < size else "trailing-garbage",
                             f"payload {len(self.payload)} bytes, expected {size}")
        for name, view in zip(("_keys", "_gop_records", "_rasters"), views(self.payload)):
            object.__setattr__(self, name, view)
        # refuse NaN or inf in an f32 value or a q16 (min, max), or min > max; a NaN
        # makes the f32 min and max NaN, an inf one of them infinite
        rec = self._gop_records
        if not self.q16:
            ok = not rec.size or math.isfinite(rec.min()) and math.isfinite(rec.max())
        else:
            lo, hi = rec["lo"], rec["hi"]
            ok = bool((np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)).all())
        if not ok:
            raise CodecError("non-finite-value", "a non-finite measurement or an inverted q16 range")

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

    # -- payload access ----------------------------------------------------

    def gop_key(self, i: int) -> Frame:
        return Frame(self._keys[_checked_index(i, self.num_gops, "GOP")])

    def gop_measurements(self, i: int) -> np.ndarray:
        """GOP i's measurements, one row per block position in grid order.

        On an f32 stream these are the stored records themselves, a read-only
        float32 (blocks, m) view into the payload; a q16 stream's records are
        dequantized into a new float64 array.
        """
        rec = self._gop_records[_checked_index(i, self.num_gops, "GOP")]
        if not self.q16:
            return rec
        lo = rec["lo"].astype(np.float64)[:, None]
        hi = rec["hi"].astype(np.float64)[:, None]
        return lo + rec["codes"] * ((hi - lo) / 65535.0)

    def trailing_frame(self, j: int) -> Frame:
        return Frame(self._rasters[_checked_index(j, self.num_trailing, "trailing frame")])

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The serialization the payload views: the same object on every call."""
        return self.payload.base

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        """Parse a stream: the same as Bitstream(data)."""
        return cls(data)


def _checked_index(i, count: int, what: str) -> int:
    """Refuse an index that is not an integer in [0, count): no counting from the end."""
    if not (isinstance(i, numbers.Integral) and 0 <= i < count):
        raise CodecError("index-out-of-range", f"{what} index {i!r} outside [0, {count})")
    return i


def _pack_records(rec: np.ndarray, values: np.ndarray, rows: np.ndarray, q16: bool) -> None:
    """Write one GOP's records, in place, from its (block positions, m) measurements.

    Only the given rows are written: every other row of values is +0.0, whose
    record, f32 or q16, is all zero bytes, as the zero-filled payload holds
    already. q16 maps each row onto 65536 levels between its min and max,
    both rounded to float32; a constant row is all code 0.
    """
    if not q16:
        rec[rows] = values[rows]
        return
    levels = values[rows]  # the one (rows, m) temporary: the steps below run in place
    lo = levels.min(axis=1).astype(np.float32).astype(np.float64)
    hi = levels.max(axis=1).astype(np.float32).astype(np.float64)
    gain = np.divide(65535.0, hi - lo, out=np.zeros_like(lo), where=hi > lo)
    levels -= lo[:, None]
    levels *= gain[:, None]
    rec["lo"][rows], rec["hi"][rows] = lo, hi
    rec["codes"][rows] = np.clip(np.rint(levels, out=levels), 0, 65535, out=levels)


def encode_sequence(frames, config: CodecConfig) -> Bitstream:
    """Encode: raw keys, streamed measurement of (residual) frame groups."""
    frames = list(frames)
    if not frames:
        raise CodecError("empty-input", "no frames to encode")
    for f in frames:  # checked before any is written into the u8 payload
        if not isinstance(f, Frame):
            raise CodecError("not-a-frame", f"encode_sequence takes Frames, not {type(f).__name__}")
    width, height = frames[0].width, frames[0].height
    q16 = config.measurement_format == "q16"
    # refuses a width, height or frame count the header cannot hold; the seed
    # is stored modulo 2^64, as the generator reads it
    header = _header(width=width, height=height, gop_n=config.n, block_size=config.block_size,
                     frame_count=len(frames), seed=int(config.seed) & _field_max("seed"),
                     m_per_block=config.m, generator_id=GENERATOR_SPLITMIX64_BOXMULLER,
                     non_residual=not config.residual_mode, q16=q16)
    grid = BlockGrid.for_dims(width, height, config.block_size)
    gops, trailing = segment_gops(frames, config.n)
    matrix = gen_mixing_matrix(config.seed, config.m, config.k)
    # the non-residual ablation mixes the raw frames, i.e. subtracts an all-zero key
    zero_key = None if config.residual_mode else Frame(np.zeros((height, width), np.uint8))

    size, views = _payload_layout(width, height, len(gops), grid.num_blocks, len(trailing),
                                  _record(config.m, q16))
    # the serialization, sized once behind the header; the packed layout then
    # writes every payload byte in place
    out = io.BytesIO(header)
    out.seek(_HEADER.size + size - 1)
    out.write(b"\0")
    keys, records, rasters = views(np.frombuffer(out.getbuffer(), np.uint8, offset=_HEADER.size))
    for i, gop in enumerate(gops):
        keys[i] = gop.key.pixels
        key = gop.key if config.residual_mode else zero_key
        acc = StreamAccumulator(matrix, grid, config.n)
        for j, f in enumerate(gop.ubss):
            # streamed-memory contract: never hold more than the current residual
            acc.push(compute_residual(f, key), j)
        _pack_records(records[i], acc.finish(), np.array(sorted(acc.touched), np.intp), q16)
    for j, f in enumerate(trailing):
        rasters[j] = f.pixels
    # with no view left to export the buffer, getvalue() hands it over uncopied;
    # a live view would make it copy
    del keys, records, rasters
    return Bitstream(out.getvalue())


class DecodeReport:
    """What a decode did for each active composite, in decode order, as arrays.

    Pass one to iter_decode or decode_sequence and the decoder appends to it
    as each GOP is decoded; a generator stopped early leaves the GOPs decoded
    so far. Every field is an array with one entry per active composite:
    gop; block, its position in grid order; outer_iterations; stop_reason,
    "tolerance" or "cap"; and final_fidelity, |A u - b| in measurement units.
    All-zero composites are not solved, so they are not listed.
    """

    FIELDS = ("gop", "block", "outer_iterations", "stop_reason", "final_fidelity")

    def __init__(self):
        self._rows = []  # one (gop, block, outer_iterations, stop_reason, final_fidelity) each

    def __len__(self) -> int:
        return len(self._rows)

    def _column(self, index: int, dtype) -> np.ndarray:
        return np.array([row[index] for row in self._rows], dtype)

    @property
    def gop(self) -> np.ndarray:
        return self._column(0, np.int64)

    @property
    def block(self) -> np.ndarray:
        return self._column(1, np.int64)

    @property
    def outer_iterations(self) -> np.ndarray:
        return self._column(2, np.int64)

    @property
    def stop_reason(self) -> np.ndarray:
        return self._column(3, str)

    @property
    def final_fidelity(self) -> np.ndarray:
        return self._column(4, np.float64)


def iter_decode(stream: Bitstream, solver_params: tv.SolverParams | None = None,
                report: DecodeReport | None = None):
    """Decode one GOP at a time: yield every frame in stream order.

    Per GOP that is the key, verbatim, then its n coded frames, recovered by TV
    separation; then the trailing frames, verbatim. The solver parameters and
    the generator ID are checked at the call, before the first frame.

    Each coded frame is built in its own uint8 buffer, which its Frame keeps:
    it starts as a copy of the key (of zeros for the non-residual ablation),
    and only composites with a nonzero measurement are solved and rounded in,
    as an all-zero composite decodes as its key's block. A GOP's frames are
    built before its first is yielded, and the generator holds no frame it
    has yielded, so consuming it holds one GOP of output plus the u-step
    factor, whatever frame_count is. Keys and trailing frames are copied out
    of the payload, so no decoded frame keeps the stream alive.

    The mixing matrix is built for every stream, and the first solve draws its
    entries, by blocks of rows, into the u-step factor: a stream with no
    active composite draws none. When any composite stops on the solver's
    max_outer cap, one WARNING on the "ubss_codec" logger gives the count for
    the stream, after its last GOP; a generator stopped early logs nothing.
    A DecodeReport passed as report gets one entry per active composite.
    """
    params = tv._params(solver_params)
    if stream.generator_id != GENERATOR_SPLITMIX64_BOXMULLER:
        raise CodecError("unknown-generator", f"generator id {stream.generator_id}")
    if report is not None and not isinstance(report, DecodeReport):
        raise CodecError("not-a-decode-report",
                         f"report must be a DecodeReport or None, not {type(report).__name__}")
    return _decoded_frames(stream, params, report)


def _decoded_frames(stream: Bitstream, params: tv.SolverParams, report):
    matrix = gen_mixing_matrix(stream.seed, stream.m_per_block, stream.k)
    active = capped = 0
    for i in range(stream.num_gops):
        gop, solved, stopped = _decode_gop(stream, i, matrix, params, report)
        active += solved
        capped += stopped
        while gop:  # hand each frame over: the generator keeps none it has yielded
            yield gop.pop(0)
    if capped:
        _log.warning("%d of %d active composites stopped at max_outer=%d",
                     capped, active, params.max_outer)
    for j in range(stream.num_trailing):
        yield stream.trailing_frame(j)


def _decode_gop(stream: Bitstream, i: int, matrix, params: tv.SolverParams, report):
    """([key, n coded frames], active composites, composites capped) of GOP i.

    Each solve is appended to report, unless it is None.
    """
    side, bs, n, cols = stream.composite_side, stream.block_size, stream.gop_n, stream.grid.cols
    key = stream.gop_key(i)
    base = np.zeros_like(key.pixels) if stream.non_residual else key.pixels
    frames = [base.copy() for _ in range(n)]
    rows = stream.gop_measurements(i)
    solved = np.flatnonzero(rows.any(axis=1))
    capped = 0
    for j in solved:
        by, bx = divmod(int(j), cols)
        result = tv.solve_tv(matrix, MeasurementVector((bx, by), rows[j]), side, params)
        capped += result.stop_reason == "cap"
        if report is not None:
            report._rows.append((i, int(j), result.outer_iterations, result.stop_reason,
                                 result.final_fidelity))
        # composites do not overlap, so each frame's block still holds base's
        window = np.s_[by * bs:(by + 1) * bs, bx * bs:(bx + 1) * bs]
        blocks = np.clip(np.rint(base[window] + disassemble_composite(result.u, n)), 0, 255)
        for f, block in zip(frames, blocks):
            f[window] = block
    return [key] + [Frame(_locked(f)) for f in frames], len(solved), capped


def decode_sequence(stream: Bitstream, solver_params: tv.SolverParams | None = None,
                    report: DecodeReport | None = None):
    """Decode every frame into one list: list(iter_decode(stream, solver_params, report)).

    The list holds the whole sequence; iter_decode holds one GOP at a time.
    """
    return list(iter_decode(stream, solver_params, report))


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
