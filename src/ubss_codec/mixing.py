"""Encoder math: seeded Gaussian measurement, residuals, composite tiling, streamed mixing.

The measurement matrix is never transmitted; the decoder regenerates it
bit-identically from the header fields (seed, m, k) using a fixed generator:

* uint64 stream: SplitMix64, i.e. word i (0-based) is the SplitMix64 finalizer
  applied to ``seed + (i+1) * 0x9E3779B97F4A7C15 (mod 2^64)``;
* each word maps to a uniform in (0, 1) via ``((word >> 11) + 0.5) * 2^-53``;
* consecutive uniform pairs feed the Box-Muller transform, emitting
  ``r*cos(theta)`` then ``r*sin(theta)``;
* normals fill the matrix row-major and are scaled by ``1/sqrt(m)`` so entries
  are N(0, 1/m).

This scheme is identified by ``GENERATOR_SPLITMIX64_BOXMULLER`` in the
bitstream header. Draw i depends on (seed, i) alone, so a generated matrix is
a function of (seed, m, k): any row range is drawn without the rest, by the
one primitive _draw_normals, and the entries are drawn only when first read.
The encoder draws them, once, at the first push with a changed block, so a
sequence with no change draws nothing; the decoder's TV solver builds its
u-step factor from blocks of rows and never draws the whole matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .errors import CodecError
from .frames import BlockGrid, Frame, ResidualFrame, _locked, _tile_root

GENERATOR_SPLITMIX64_BOXMULLER = 1

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)
# Words per generator step: _draw_normals holds one step of uint64 beside its output.
_STEP_WORDS = 8192
# j * gamma (mod 2^64) for j = 1 .. _STEP_WORDS: words lo, lo + 1, ... start as
# seed + lo * gamma plus these
_STEP_GAMMAS = _locked(np.arange(1, _STEP_WORDS + 1, dtype=np.uint64) * _SM64_GAMMA)


def _splitmix64(z: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the SplitMix64 finalizer to the uint64 states z in place; scratch holds the shifts."""
    for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= mix
    z ^= np.right_shift(z, np.uint64(31), out=scratch)


def _draw_normals(seed: int, start: int, out: np.ndarray) -> None:
    """Write N(0, 1) draws start, start + 1, ... of the scheme above into the float64 vector out.

    start and len(out) are even: out holds whole Box-Muller pairs. They run
    in steps of _STEP_WORDS words in the output itself plus one step of
    uint64 scratch: SplitMix64 runs in place in the output's uint64 view
    with the scratch holding its shifts, the uniforms are written to the
    scratch's float64 view and Box-Muller's output back to the output.
    """
    scratch = np.empty(min(_STEP_WORDS, len(out)), np.uint64)
    for lo in range(0, len(out), _STEP_WORDS):
        normals = out[lo:lo + _STEP_WORDS]
        z, size = normals.view(np.uint64), len(normals)
        np.add(_STEP_GAMMAS[:size], np.uint64((seed + (start + lo) * int(_SM64_GAMMA)) & _U64_MASK),
               out=z)
        _splitmix64(z, scratch[:size])
        # the shifted words are below 2^53, so the float64 copy is exact
        u = scratch[:size].view(np.float64)
        np.copyto(u, np.right_shift(z, np.uint64(11), out=z))
        u += 0.5
        u *= 2.0 ** -53
        r, theta = u[0::2], u[1::2]
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        np.cos(theta, out=normals[0::2])
        normals[0::2] *= r
        np.sin(theta, out=normals[1::2])
        normals[1::2] *= r


class MixingMatrix:
    """An m-by-k measurement matrix, read-only: m rows, the measurements per
    composite, and k columns, the pixels per composite.

    gen_mixing_matrix makes one from (seed, m, k) alone: its entries, seeded
    N(0, 1/m) draws, are drawn only when first read, and rows() draws any
    row range without the rest. MixingMatrix(entries) holds a locked copy of
    given 2-D entries as a plain float64 ndarray, whatever array type they
    come in; the identity constructor below is one such, and neither can
    appear in a bitstream. No attribute but the solver's cache can be set
    after construction, so the TV u-step factor that the solver caches on
    the matrix, which depends on the entries alone and serves every
    penalty, cannot go stale; it is freed with the matrix.
    """

    def __init__(self, entries):
        entries = np.array(entries, dtype=np.float64)
        if entries.ndim != 2:
            raise CodecError("shape-mismatch", f"entries must be 2-D, got shape {entries.shape}")
        self._init(*entries.shape, None, _locked(entries))

    def _init(self, m, k, seed, entries):
        for name, value in (("m", m), ("k", k), ("_seed", seed), ("_entries", entries),
                            ("_solver_cache", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        if name != "_solver_cache":
            raise FrozenInstanceError(f"cannot assign to MixingMatrix.{name}")
        object.__setattr__(self, name, value)

    @property
    def entries(self) -> np.ndarray:
        """The locked (m, k) entries; a generated matrix draws them, in place, on the first read."""
        if self._entries is None:
            object.__setattr__(self, "_entries", _locked(self.rows(0, self.m)))
        return self._entries

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows [start, stop) of the entries: a view once they are drawn, else fresh draws."""
        if not (isinstance(start, numbers.Integral) and isinstance(stop, numbers.Integral)
                and 0 <= start <= stop <= self.m):
            raise CodecError("index-out-of-range",
                             f"rows [{start!r}, {stop!r}) not within the {self.m} rows")
        if self._entries is not None:
            return self._entries[start:stop]
        # the whole Box-Muller pairs that cover draws [lo, hi); an odd k can start
        # the range on a pair's sine or end it on a pair's cosine
        lo, hi = start * self.k, stop * self.k
        draws = np.empty(hi + hi % 2 - (lo - lo % 2))
        _draw_normals(self._seed, lo - lo % 2, draws)
        out = draws[lo % 2:lo % 2 + hi - lo].reshape(stop - start, self.k)
        out /= math.sqrt(self.m)  # a division: multiplying by 1/sqrt(m) rounds differently
        return out

    @classmethod
    def identity(cls, k: int) -> "MixingMatrix":
        """Square identity matrix for tests and diagnostics (m = k)."""
        return cls(np.eye(k))


def gen_mixing_matrix(seed: int, m: int, k: int) -> MixingMatrix:
    """The measurement matrix of (seed, m, k); its entries are drawn when first read."""
    if not (isinstance(m, numbers.Integral) and isinstance(k, numbers.Integral) and 1 <= m <= k):
        raise CodecError("invalid-shape", f"need integers 1 <= m <= k, got m={m!r} k={k!r}")
    if not isinstance(seed, numbers.Integral):
        raise CodecError("non-integer-field", f"seed={seed!r} is not an integer")
    matrix = MixingMatrix.__new__(MixingMatrix)
    matrix._init(int(m), int(k), int(seed) & _U64_MASK, None)
    return matrix


def compute_residual(frame: Frame, key: Frame) -> ResidualFrame:
    """Signed difference frame - key, no clipping, held once by its ResidualFrame."""
    if (frame.height, frame.width) != (key.height, key.width):
        raise CodecError("dimension-mismatch",
                         f"{frame.width}x{frame.height} vs key {key.width}x{key.height}")
    return ResidualFrame(_locked(np.subtract(frame.pixels, key.pixels, dtype=np.int16)))


@dataclass
class CompositeBlock:
    """n co-located blocks arranged as one square tile, the solver's image domain: a locked
    float64 copy of the square 2-D values, whose shape gives the side."""

    values: np.ndarray
    grid_position: tuple

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1]:
            raise CodecError("shape-mismatch", f"composite values {vals.shape} are not square 2-D")
        self.values = _locked(vals)

    side = property(lambda self: self.values.shape[0], doc="Side of the square tile, in pixels.")


@dataclass
class MeasurementVector:
    """Observed measurements of one composite block position."""

    grid_position: tuple
    values: np.ndarray

    def __post_init__(self):
        self.values = _locked(np.asarray(self.values, dtype=np.float64).reshape(-1))


def _split_blocks(raster: np.ndarray, bs: int) -> np.ndarray:
    """(rows*bs, cols*bs) raster -> (rows*cols, bs, bs) stack in row-major grid order.

    This is the one statement of the tile layout: viewed as (rows, bs, cols, bs),
    block (bx, by) is [by, :, bx, :]. A t x t composite is split the same way,
    so tile j sits at tile-grid cell (j mod t, j div t).
    """
    rows, cols = raster.shape[0] // bs, raster.shape[1] // bs
    return raster.reshape(rows, bs, cols, bs).swapaxes(1, 2).reshape(rows * cols, bs, bs)


def assemble_composite(residuals, grid_position, block_size: int) -> CompositeBlock:
    """Place the co-located block of each residual frame into one composite tile."""
    residuals = list(residuals)
    t, bs = _tile_root(len(residuals)), block_size
    if len({r.pixels.shape for r in residuals}) > 1:
        raise CodecError("inconsistent-dimensions", "residual frames differ in size")
    grid = BlockGrid.for_dims(residuals[0].width, residuals[0].height, block_size)
    pos = tuple(grid_position) if np.iterable(grid_position) else ()
    if not (len(pos) == 2 and all(isinstance(v, numbers.Integral) for v in pos)
            and 0 <= pos[0] < grid.cols and 0 <= pos[1] < grid.rows):
        raise CodecError("out-of-grid", f"position {grid_position!r} is not a pair of "
                                        f"integers within the {grid.cols}x{grid.rows} grid")
    bx, by = pos
    tiles = np.stack([r.pixels[by * bs:(by + 1) * bs, bx * bs:(bx + 1) * bs] for r in residuals])
    # inverse of _split_blocks on a t x t tile grid
    values = tiles.reshape(t, t, bs, bs).swapaxes(1, 2).reshape(t * bs, t * bs)
    return CompositeBlock(values=values, grid_position=(bx, by))


def disassemble_composite(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of assemble_composite: split side x side composite values into (n, bs, bs) tiles."""
    t, side = _tile_root(n), len(values)
    if values.shape != (side, side) or side % t:
        raise CodecError("shape-mismatch", f"composite {values.shape} is not {t} x {t} tiles")
    return _split_blocks(values, side // t)


def mix_batch(matrix: MixingMatrix, block: CompositeBlock) -> MeasurementVector:
    """Measure a composite: matrix times the row-major vectorized block.

    This is the reference the streamed accumulation is checked against; the two
    sum in different orders, so they agree to rounding, not bit for bit.
    """
    if matrix.k != block.side * block.side:
        raise CodecError("shape-mismatch",
                         f"matrix k={matrix.k} vs composite side {block.side}")
    return MeasurementVector(grid_position=block.grid_position,
                             values=matrix.entries @ block.values.ravel())


def _changed_blocks(pixels: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Grid-order indices of the blocks of a C-ordered int16 raster that hold a nonzero pixel.

    The test runs on unsigned words of gcd(2 bs, 8) bytes, so that a block row
    of bs pixels is a whole number of words, per = 2 bs / size of them, and a
    word is nonzero exactly when one of its pixels is. One reduce ORs each
    band of bs pixel rows into one row of words, and ORs of strided slices
    fold the per words of each block into one. The words are freed on return.
    """
    bs = grid.block_size
    size = math.gcd(2 * bs, 8)
    per = 2 * bs // size
    words = np.bitwise_or.reduce(pixels.view(f"u{size}").reshape(grid.rows, bs, grid.cols * per),
                                 axis=1)
    folded = words[:, 0::per]
    for i in range(1, per):
        folded = folded | words[:, i::per]
    return folded.ravel().nonzero()[0]


class StreamAccumulator:
    """Accumulates per-block measurements one residual frame at a time.

    Only the running (num_blocks, m) partial sums are held, never a frame
    group: pushing frame j adds A'_j times each of its blocks, where A'_j is
    the column sub-block of the mixing matrix for tile j of the t x t
    composite, t = sqrt(n). An all-zero block adds nothing, so push gathers
    and multiplies only the blocks with a nonzero pixel: its work and memory
    are proportional to the changed blocks. It finds them on machine words
    of the residual rather than on its int16 pixels (_changed_blocks), and it
    reads a residual held in any memory order: the test and the gather read
    one C-ordered array, a copy only when the pixels are in another order.
    finish() returns the sums as they are, locked, and consumes the
    accumulator: partial is None.
    """

    def __init__(self, matrix: MixingMatrix, grid: BlockGrid, n: int):
        self.t = _tile_root(n)
        if matrix.k != n * grid.block_size * grid.block_size:
            raise CodecError("shape-mismatch",
                             f"matrix k={matrix.k}, group needs {n * grid.block_size ** 2}")
        self.matrix = matrix
        self.grid = grid
        self.n = n
        self.partial = np.zeros((grid.num_blocks, matrix.m))
        self.frames_pushed = 0

    def push(self, residual: ResidualFrame, frame_index_in_group: int) -> None:
        """Fold one residual frame into the partial sums. Frames must arrive in order."""
        if self.partial is None:
            raise CodecError("accumulator-consumed", "finish() was already called")
        if frame_index_in_group != self.frames_pushed or frame_index_in_group >= self.n:
            raise CodecError("out-of-order-frame",
                             f"got frame {frame_index_in_group}, expected {self.frames_pushed} of {self.n}")
        bs = self.grid.block_size
        if (residual.height, residual.width) != (self.grid.rows * bs, self.grid.cols * bs):
            raise CodecError("dimension-mismatch",
                             f"residual {residual.width}x{residual.height} does not match grid")
        self.frames_pushed += 1
        # viewing pixel rows as wider words needs C order; the gather reads the same array
        pixels = np.ascontiguousarray(residual.pixels)
        changed = _changed_blocks(pixels, self.grid)
        if not len(changed):
            return  # an all-zero frame adds nothing and reads no entry of the matrix
        m, t = self.matrix.m, self.t
        ty, tx = divmod(frame_index_in_group, t)
        # columns of A that multiply tile (tx, ty) of the composite
        sub = self.matrix.entries.reshape(m, t, bs, t, bs)[:, ty, :, tx, :].reshape(m, bs * bs)
        # block (bx, by) is [by, :, bx, :], as in _split_blocks
        rows, cols = self.grid.rows, self.grid.cols
        by, bx = np.divmod(changed, cols)
        # the float64 block stack is freed before the changed rows are read back
        product = (pixels.reshape(rows, bs, cols, bs)[by, :, bx, :].reshape(len(changed), bs * bs)
                   .astype(np.float64) @ sub.T)
        product += self.partial.take(changed, axis=0)
        self.partial[changed] = product

    def finish(self) -> np.ndarray:
        """The locked (num_blocks, m) sums, one row per block position in grid order; consumes."""
        if self.partial is None:
            raise CodecError("accumulator-consumed", "finish() was already called")
        if self.frames_pushed != self.n:
            raise CodecError("incomplete-group",
                             f"{self.frames_pushed} of {self.n} frames pushed")
        values, self.partial = _locked(self.partial), None
        return values

