import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from ubss_codec import (BlockGrid, CodecError, CompositeBlock, Frame,
                        MixingMatrix, ResidualFrame, StreamAccumulator,
                        assemble_composite, compute_residual,
                        disassemble_composite, gen_mixing_matrix, mix_batch)


# --- matrix generation ------------------------------------------------------

def test_generator_deterministic():
    a = gen_mixing_matrix(42, 256, 1024)
    b = gen_mixing_matrix(42, 256, 1024)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_generator_seed_sensitivity():
    a = gen_mixing_matrix(42, 64, 256)
    b = gen_mixing_matrix(43, 64, 256)
    assert not np.array_equal(a.entries, b.entries)


def test_generator_moments():
    # 262144 draws: mean within 4 standard errors of 0, variance within 5% of 1/m
    m, k = 256, 1024
    entries = gen_mixing_matrix(42, m, k).entries
    sigma = 1 / np.sqrt(m)
    assert abs(entries.mean()) < 4 * sigma / np.sqrt(m * k)
    assert abs(entries.var() - 1 / m) < 0.05 / m


def _scalar_generator(seed, m, k):
    """The scheme of mixing.py's docstring one draw at a time, in Python integers and floats.

    log, cos and sin are numpy's, called on one value at a time: its vectorized
    log rounds some inputs differently from math.log, and a decoder must
    regenerate numpy's bytes.
    """
    mask = 2 ** 64 - 1

    def word(i):
        z = ((seed & mask) + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    normals = []
    for pair in range((m * k + 1) // 2):
        u1, u2 = (((word(2 * pair + j) >> 11) + 0.5) * 2.0 ** -53 for j in (1, 2))
        r = math.sqrt(-2.0 * float(np.log(u1)))
        theta = 2.0 * math.pi * u2
        normals += [r * float(np.cos(theta)), r * float(np.sin(theta))]
    return np.array(normals[:m * k]).reshape(m, k) / math.sqrt(m)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
@pytest.mark.parametrize("m, k", [(1, 1), (3, 5), (5, 7), (16, 64), (3, 2731), (5, 3277)])
def test_generator_matches_scalar_scheme(seed, m, k):
    # odd m * k included: the last pair's sine is drawn and dropped. Every row
    # range is also drawn alone: with odd k, a range can start on a pair's
    # sine, and at k = 2731 and 3277 ranges of more than 8192 draws take more
    # than one generator step
    matrix = gen_mixing_matrix(seed, m, k)
    entries = matrix.entries
    assert entries.tobytes() == _scalar_generator(seed, m, k).tobytes()
    for start in range(m):
        for stop in range(start + 1, m + 1):
            rows = gen_mixing_matrix(seed, m, k).rows(start, stop)
            assert rows.tobytes() == entries[start:stop].tobytes(), (start, stop)
            # once the entries are drawn, a row range is a view of them
            assert np.shares_memory(matrix.rows(start, stop), entries)


def test_generator_bytes_pinned():
    # the decoder regenerates the encoder's matrix from the header alone, so
    # these bytes are part of the stream format
    entries = gen_mixing_matrix(7, 256, 1024).entries
    assert hashlib.sha256(entries.tobytes()).hexdigest() == \
        "0646a1f61623c6302174bb8bb303c4e30eeb0edb3da6188a4487eb9d7b0b383e"


def test_generator_memory_peak():
    # the entries are drawn in place, beside one 8192-word step of scratch
    tracemalloc.start()
    try:
        entries = gen_mixing_matrix(7, 256, 1024).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * entries.nbytes


def test_generator_invalid_shapes():
    with pytest.raises(CodecError) as e:
        gen_mixing_matrix(1, 0, 16)
    assert e.value.code == "invalid-shape"
    with pytest.raises(CodecError):
        gen_mixing_matrix(1, 17, 16)


def test_identity_constructor():
    ident = MixingMatrix.identity(9)
    assert np.array_equal(ident.entries, np.eye(9))
    assert ident.m == ident.k == 9


def test_matrix_shape_is_its_entries_shape():
    # m and k are read from the entries, so they cannot disagree with them
    matrix = MixingMatrix(entries=np.eye(4, 16))
    assert (matrix.m, matrix.k) == (4, 16)
    generated = gen_mixing_matrix(3, 5, 16)
    assert (generated.m, generated.k) == generated.entries.shape == (5, 16)
    for entries in (np.ones(16), np.ones((2, 4, 16))):
        with pytest.raises(CodecError) as e:
            MixingMatrix(entries=entries)
        assert e.value.code == "shape-mismatch"


@pytest.mark.parametrize("n, bs", [(1, 3), (1, 4), (4, 1), (4, 3), (4, 8), (9, 2), (9, 3), (16, 2)])
@pytest.mark.parametrize("kind", ["generated", "explicit"])
def test_tile_order_is_the_entries_by_tile(n, bs, kind):
    # odd k at n = 1 and 9 with odd bs: a Box-Muller pair straddles a row boundary
    t, k = math.isqrt(n), n * bs * bs
    m = max(1, k // 3)
    entries = gen_mixing_matrix(21, m, k).entries
    matrix = gen_mixing_matrix(21, m, k) if kind == "generated" else MixingMatrix(entries)
    tiles = matrix.tiles(n)
    assert tiles.shape == (m, n, bs * bs) and not tiles.flags.writeable
    for j in range(n):
        ty, tx = divmod(j, t)
        columns = entries.reshape(m, t, bs, t, bs)[:, ty, :, tx, :].reshape(m, bs * bs)
        assert tiles[:, j].tobytes() == columns.tobytes(), j
    assert matrix.tiles(n) is tiles
    # a generated matrix is read in tile order without drawing the row-major entries
    assert (matrix._entries is None) == (kind == "generated")


def test_tile_order_follows_n():
    # k = 64 is 4 tiles of 4 x 4 or 16 of 2 x 2: each call reads the order its n asks for
    entries = gen_mixing_matrix(3, 8, 64).entries
    matrix = gen_mixing_matrix(3, 8, 64)
    for n, bs in ((4, 4), (16, 2), (4, 4)):
        t = math.isqrt(n)
        expected = entries.reshape(8, t, bs, t, bs).swapaxes(2, 3).reshape(8, n, bs * bs)
        assert matrix.tiles(n).tobytes() == expected.tobytes(), n


def test_tile_order_memory_peak():
    # drawn once and permuted in place: beside the matrix, one generator step
    tracemalloc.start()
    try:
        tiles = gen_mixing_matrix(7, 256, 1024).tiles(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tiles.nbytes + 2 * 8192 * 8


# --- residuals --------------------------------------------------------------

def test_residual_of_identical_frames_is_zero():
    f = Frame(np.full((8, 8), 77, np.uint8))
    assert np.all(compute_residual(f, f).pixels == 0)


def test_residual_is_held_once():
    # the int16 difference is locked and kept by its ResidualFrame: a copy of
    # it would double the peak
    frame, key = Frame(np.full((288, 352), 77, np.uint8)), Frame(np.zeros((288, 352), np.uint8))
    compute_residual(frame, key)  # numpy's first-call caches
    tracemalloc.start()
    try:
        res = compute_residual(frame, key).pixels
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.dtype == np.int16 and res.base is None and not res.flags.writeable
    assert peak < 1.5 * res.nbytes


def test_residual_extremes():
    lo = Frame(np.zeros((4, 4), np.uint8))
    hi = Frame(np.full((4, 4), 255, np.uint8))
    assert np.all(compute_residual(lo, hi).pixels == -255)
    assert np.all(compute_residual(hi, lo).pixels == 255)


def test_residual_reconstruction_exact():
    # key + residual reproduces the frame exactly, integer arithmetic
    rng = np.random.default_rng(0)
    for _ in range(1000):
        fp = rng.integers(0, 256, size=(6, 6))
        kp = rng.integers(0, 256, size=(6, 6))
        res = compute_residual(Frame(fp), Frame(kp))
        assert np.array_equal(kp.astype(np.int32) + res.pixels, fp)


def test_residual_dimension_mismatch():
    with pytest.raises(CodecError) as e:
        compute_residual(Frame(np.zeros((4, 4), np.uint8)),
                         Frame(np.zeros((4, 8), np.uint8)))
    assert e.value.code == "dimension-mismatch"


# --- composite assembly -----------------------------------------------------

def _const_residuals(values, h=32, w=32):
    return [ResidualFrame(np.full((h, w), v, np.int16)) for v in values]


def test_composite_side():
    block = assemble_composite(_const_residuals([0, 0, 0, 0]), (0, 0), 16)
    assert block.side == 32 and block.values.shape == (32, 32)


def test_composite_zero_propagation():
    # numpy integers are grid positions too
    block = assemble_composite(_const_residuals([0] * 4), (np.int64(1), np.int32(1)), 16)
    assert np.all(block.values == 0) and block.grid_position == (1, 1)


def test_composite_tile_layout():
    # frame j constant j: tiles (0,0)=0, (1,0)=1, (0,1)=2, (1,1)=3
    block = assemble_composite(_const_residuals([0, 1, 2, 3]), (0, 0), 16)
    v = block.values
    assert np.all(v[:16, :16] == 0)
    assert np.all(v[:16, 16:] == 1)
    assert np.all(v[16:, :16] == 2)
    assert np.all(v[16:, 16:] == 3)


def test_composite_layout_matches_index_oracle():
    # direct index arithmetic, independent of the implementation's slicing
    rng = np.random.default_rng(5)
    residuals = [ResidualFrame(rng.integers(-255, 256, size=(32, 48)))
                 for _ in range(4)]
    bx, by, bs = 2, 1, 16
    block = assemble_composite(residuals, (bx, by), bs)
    for j in range(4):
        tx, ty = j % 2, j // 2
        for r in range(bs):
            for c in range(bs):
                assert block.values[ty * bs + r, tx * bs + c] == \
                    residuals[j].pixels[by * bs + r, bx * bs + c]


def test_composite_disassembly_is_inverse():
    rng = np.random.default_rng(6)
    residuals = [ResidualFrame(rng.integers(-255, 256, size=(32, 32)))
                 for _ in range(4)]
    block = assemble_composite(residuals, (0, 1), 16)
    tiles = disassemble_composite(block.values, 4)
    for j, tile in enumerate(tiles):
        expect = residuals[j].pixels[16:32, 0:16]
        assert np.array_equal(tile, expect)


def test_composite_out_of_grid():
    with pytest.raises(CodecError) as e:
        assemble_composite(_const_residuals([0] * 4), (2, 0), 16)
    assert e.value.code == "out-of-grid"


def test_composite_bad_count():
    with pytest.raises(CodecError) as e:
        assemble_composite(_const_residuals([0] * 3), (0, 0), 16)
    assert e.value.code == "n-not-perfect-square"


# --- batch mixing -----------------------------------------------------------

def test_mix_zero_block():
    matrix = gen_mixing_matrix(1, 64, 1024)
    block = assemble_composite(_const_residuals([0] * 4), (0, 0), 16)
    assert np.all(mix_batch(matrix, block).values == 0)


def test_mix_linearity():
    rng = np.random.default_rng(2)
    matrix = gen_mixing_matrix(9, 32, 64)
    for _ in range(20):
        u = rng.normal(size=(8, 8)) * 100
        v = rng.normal(size=(8, 8)) * 100
        a, b = rng.normal(size=2)
        mu = mix_batch(matrix, CompositeBlock(u, (0, 0))).values
        mv = mix_batch(matrix, CompositeBlock(v, (0, 0))).values
        mixed = mix_batch(matrix, CompositeBlock(a * u + b * v, (0, 0))).values
        ref = a * mu + b * mv
        assert np.max(np.abs(mixed - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_mix_identity_matrix():
    ident = MixingMatrix.identity(64)
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(8, 8)) * 50
    out = mix_batch(ident, CompositeBlock(vals, (0, 0))).values
    assert np.array_equal(out, vals.ravel())


def test_mix_shape_mismatch():
    matrix = gen_mixing_matrix(1, 16, 64)
    with pytest.raises(CodecError) as e:
        mix_batch(matrix, CompositeBlock(np.zeros((16, 16)), (0, 0)))
    assert e.value.code == "shape-mismatch"


# --- streamed mixing --------------------------------------------------------

def _random_group(rng, h=48, w=64, n=4):
    return [ResidualFrame(rng.integers(-255, 256, size=(h, w))) for _ in range(n)]


def test_stream_zero_group():
    matrix = gen_mixing_matrix(4, 128, 1024)
    grid = BlockGrid.for_dims(64, 48, 16)
    acc = StreamAccumulator(matrix, grid, 4)
    for j in range(4):
        acc.push(ResidualFrame(np.zeros((48, 64), np.int16)), j)
    out = acc.finish()
    assert out.shape == (grid.num_blocks, 128) and not out.any()


def test_finish_returns_the_locked_sums():
    rng = np.random.default_rng(11)
    matrix = gen_mixing_matrix(5, 32, 256)
    grid = BlockGrid.for_dims(64, 48, 8)
    acc = StreamAccumulator(matrix, grid, 4)
    for j, res in enumerate(_random_group(rng)):
        acc.push(res, j)
    sums = acc.partial
    out = acc.finish()
    assert type(out) is np.ndarray and out.dtype == np.float64
    assert out.shape == (grid.num_blocks, 32) and np.shares_memory(out, sums)
    assert not out.flags.writeable
    with pytest.raises(ValueError):
        out[0, 0] = 1.0


def _sparse_group(rng, bs, h=48, w=64, n=4):
    """Residuals with about a third of their blocks nonzero: frame 1 is all zero, block
    (0, 0) is zero in every frame, and block (2, 1) of frame 0 is zero but for its last pixel."""
    keep = rng.random((n, h // bs, w // bs)) < 0.3
    keep[1] = keep[:, 0, 0] = False
    pixels = rng.integers(-255, 256, size=(n, h, w)) * keep.repeat(bs, axis=1).repeat(bs, axis=2)
    pixels[0, bs:2 * bs, 2 * bs:3 * bs] = 0
    pixels[0, 2 * bs - 1, 3 * bs - 1] = 1
    return [ResidualFrame(p) for p in pixels]


def test_stream_equals_batch():
    # n = 1 and 9 check push's choice of tile columns beyond the 2x2 layout; the
    # sparse group checks that push skips the all-zero blocks and only those
    rng = np.random.default_rng(10)
    for n, bs, m, sparse in ((4, 16, 256, False), (1, 4, 8, False), (9, 4, 36, False),
                             (4, 8, 64, True)):
        matrix = gen_mixing_matrix(77, m, n * bs * bs)
        grid = BlockGrid.for_dims(64, 48, bs)
        residuals = _sparse_group(rng, bs, n=n) if sparse else _random_group(rng, n=n)
        acc = StreamAccumulator(matrix, grid, n)
        for j, res in enumerate(residuals):
            acc.push(res, j)
        streamed = acc.finish()
        zero_rows = 0
        for row, (bx, by) in zip(streamed, grid.positions(), strict=True):
            composite = assemble_composite(residuals, (bx, by), bs)
            batch = mix_batch(matrix, composite)
            assert np.max(np.abs(row - batch.values)) <= 1e-9
            if not composite.values.any():
                assert np.all(row == 0)
                zero_rows += 1
        assert zero_rows or not sparse  # block (0, 0) of the sparse group is zero throughout


def test_push_memory_scales_with_changed_blocks():
    # one nonzero block of a 352x288 frame: push gathers and multiplies that
    # block alone, never the float64 stack of all 1584 blocks
    grid = BlockGrid.for_dims(352, 288, 8)
    matrix = gen_mixing_matrix(4, 16, 4 * 64)
    assert matrix.tiles(4).shape == (16, 4, 64)  # drawn before tracing
    acc = StreamAccumulator(matrix, grid, 4)
    pixels = np.zeros((288, 352), np.int16)
    pixels[96:104, 200:208] = 9
    residual = ResidualFrame(pixels)
    tracemalloc.start()
    try:
        acc.push(residual, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dense_stack = grid.num_blocks * 64 * 8
    assert peak <= dense_stack / 8
    assert np.count_nonzero(acc.partial.any(axis=1)) == 1


def test_push_after_the_first_reads_the_matrix_in_place():
    # the columns of tile j are a view of the tile order, so a later push
    # allocates only its gathered blocks and their products, nothing of m x bs^2
    m, bs = 256, 16
    grid = BlockGrid.for_dims(176, 144, bs)
    acc = StreamAccumulator(gen_mixing_matrix(4, m, 4 * bs * bs), grid, 4)
    pixels = np.zeros((144, 176), np.int16)
    pixels[40:80, 36:76] = 50  # 9 changed blocks
    acc.push(ResidualFrame(pixels), 0)
    residual = ResidualFrame(pixels)
    tracemalloc.start()
    try:
        acc.push(residual, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * bs * bs * 8 / 4
    assert sorted(acc.touched) == np.flatnonzero(acc.partial.any(axis=1)).tolist()
    assert acc.matrix._entries is None


class _WrittenRows(np.ndarray):
    """Partial sums that log the rows each assignment writes."""

    def __setitem__(self, index, value):
        self.written.append(np.asarray(index).tolist())
        super().__setitem__(index, value)


def _held_as(pixels, layout):
    """A ResidualFrame holding pixels in the given memory layout, without a copy."""
    h, w = pixels.shape
    if layout == "fortran":
        held = np.asfortranarray(pixels)
        held.setflags(write=False)
    elif layout == "strided-bytes":  # every other column of a raster twice as wide
        held = np.ndarray((h, w), np.int16, np.repeat(pixels, 2, axis=1).tobytes(), 0, (4 * w, 4))
    elif layout == "unaligned-bytes":
        held = np.ndarray((h, w), np.int16, b"\0" + pixels.tobytes(), 1)
    else:
        held = pixels.copy()
        held.setflags(write=False)
    residual = ResidualFrame(held)
    assert residual.pixels is held
    return residual


@pytest.mark.parametrize("bs", [*range(1, 18), 32])
def test_push_finds_exactly_the_blocks_with_a_nonzero_pixel(bs):
    # block rows of 1 to 32 pixels: push tests words of 2, 4 or 8 bytes, 1 to 8
    # of them per block row; nonzero pixels land anywhere in a block, with
    # extra weight on its first and last row and column and on the columns
    # either side of each 8-byte boundary, in rasters of any memory layout
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrix = gen_mixing_matrix(3, 1, bs * bs)
    row = st.sampled_from([0, bs - 1]) | st.integers(0, bs - 1)
    col = st.sampled_from(sorted({0, bs - 1} | {c for c in range(bs) if c % 4 in (0, 3)}))
    col |= st.integers(0, bs - 1)

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(rows=st.integers(1, 3), cols=st.integers(1, 3), data=st.data(),
                      layout=st.sampled_from(["c", "fortran", "strided-bytes", "unaligned-bytes"]))
    def check(rows, cols, data, layout):
        pixels = np.zeros((rows * bs, cols * bs), np.int16)
        for _ in range(data.draw(st.integers(0, 4))):
            y = data.draw(st.integers(0, rows - 1)) * bs + data.draw(row)
            x = data.draw(st.integers(0, cols - 1)) * bs + data.draw(col)
            pixels[y, x] = data.draw(st.sampled_from([-255, -1, 1, 255]))
        grid = BlockGrid.for_dims(cols * bs, rows * bs, bs)
        acc = StreamAccumulator(matrix, grid, 1)
        acc.partial = acc.partial.view(_WrittenRows)
        acc.partial.written = []
        acc.push(_held_as(pixels, layout), 0)
        expected = np.flatnonzero(np.any(pixels.reshape(rows, bs, cols, bs) != 0, axis=(1, 3)))
        assert acc.partial.written == ([expected.tolist()] if len(expected) else [])

    check()


def test_stream_out_of_order():
    matrix = gen_mixing_matrix(4, 16, 1024)
    grid = BlockGrid.for_dims(32, 32, 16)
    acc = StreamAccumulator(matrix, grid, 4)
    with pytest.raises(CodecError) as e:
        acc.push(ResidualFrame(np.zeros((32, 32), np.int16)), 2)
    assert e.value.code == "out-of-order-frame"


def test_stream_incomplete_group():
    matrix = gen_mixing_matrix(4, 16, 1024)
    grid = BlockGrid.for_dims(32, 32, 16)
    acc = StreamAccumulator(matrix, grid, 4)
    for j in range(3):
        acc.push(ResidualFrame(np.zeros((32, 32), np.int16)), j)
    with pytest.raises(CodecError) as e:
        acc.finish()
    assert e.value.code == "incomplete-group"


def test_stream_consumed_after_finish():
    matrix = gen_mixing_matrix(4, 16, 256)
    grid = BlockGrid.for_dims(16, 16, 8)
    acc = StreamAccumulator(matrix, grid, 4)
    for j in range(4):
        acc.push(ResidualFrame(np.zeros((16, 16), np.int16)), j)
    acc.finish()
    with pytest.raises(CodecError) as e:
        acc.finish()
    assert e.value.code == "accumulator-consumed"


def test_stream_measurement_buffer_size():
    # memory held for measurements is exactly (number of blocks) x m doubles
    matrix = gen_mixing_matrix(4, 100, 1024)
    grid = BlockGrid.for_dims(176, 144, 16)
    acc = StreamAccumulator(matrix, grid, 4)
    assert acc.partial.shape == (grid.num_blocks, 100)
    assert acc.partial.nbytes == grid.num_blocks * 100 * 8


# --- refusals ---------------------------------------------------------------

def _accumulator():
    return StreamAccumulator(gen_mixing_matrix(4, 16, 256), BlockGrid.for_dims(16, 16, 8), 4)


def _finished_accumulator():
    acc = _accumulator()
    for j in range(4):
        acc.push(ResidualFrame(np.zeros((16, 16), np.int16)), j)
    acc.finish()
    return acc


@pytest.mark.parametrize("call, code", [
    (lambda: assemble_composite(_const_residuals([0] * 3) + _const_residuals([0], h=16),
                                (0, 0), 16), "inconsistent-dimensions"),
    (lambda: assemble_composite(_const_residuals([0] * 4), (0.5, 0), 16), "out-of-grid"),
    (lambda: assemble_composite(_const_residuals([0] * 4), (1.0, 0), 16), "out-of-grid"),
    (lambda: assemble_composite(_const_residuals([0] * 4), ("0", 0), 16), "out-of-grid"),
    (lambda: assemble_composite(_const_residuals([0] * 4), (0, 0, 0), 16), "out-of-grid"),
    (lambda: assemble_composite(_const_residuals([0] * 4), 0, 16), "out-of-grid"),
    (lambda: disassemble_composite(np.zeros((6, 6)), 3), "n-not-perfect-square"),
    (lambda: disassemble_composite(np.zeros((5, 5)), 4), "shape-mismatch"),
    (lambda: disassemble_composite(np.zeros((4, 6)), 4), "shape-mismatch"),
    (lambda: CompositeBlock(np.zeros((4, 6)), (0, 0)), "shape-mismatch"),
    (lambda: CompositeBlock(np.zeros(16), (0, 0)), "shape-mismatch"),
    (lambda: StreamAccumulator(gen_mixing_matrix(4, 16, 192), BlockGrid.for_dims(16, 16, 8), 3),
     "n-not-perfect-square"),
    (lambda: StreamAccumulator(gen_mixing_matrix(4, 16, 128), BlockGrid.for_dims(16, 16, 8), 4),
     "shape-mismatch"),
    (lambda: _finished_accumulator().push(ResidualFrame(np.zeros((16, 16), np.int16)), 0),
     "accumulator-consumed"),
    (lambda: _accumulator().push(ResidualFrame(np.zeros((16, 8), np.int16)), 0),
     "dimension-mismatch"),
    (lambda: disassemble_composite(np.zeros((4, 4)), 4.0), "n-not-perfect-square"),
    (lambda: StreamAccumulator(gen_mixing_matrix(4, 16, 256), BlockGrid.for_dims(16, 16, 8), 4.0),
     "n-not-perfect-square"),
    (lambda: gen_mixing_matrix(1, 16.0, 256), "invalid-shape"),
    (lambda: gen_mixing_matrix(1, 16, 256.0), "invalid-shape"),
    (lambda: gen_mixing_matrix(1.5, 16, 256), "non-integer-field"),
    (lambda: gen_mixing_matrix(1, 4, 16).rows(3, 5), "index-out-of-range"),
    (lambda: MixingMatrix.identity(4).rows(-1, 2), "index-out-of-range"),
    (lambda: gen_mixing_matrix(1, 4, 36).tiles(3), "n-not-perfect-square"),
    (lambda: gen_mixing_matrix(1, 4, 32).tiles(4), "shape-mismatch"),
], ids=["assemble-two-sizes", "assemble-x-half", "assemble-x-float", "assemble-x-str",
        "assemble-triple", "assemble-scalar", "disassemble-n-3", "disassemble-5x5", "disassemble-4x6",
        "composite-4x6", "composite-1d", "accumulator-n-3", "accumulator-k-mismatch",
        "push-after-finish", "push-wrong-size", "disassemble-n-float", "accumulator-n-float",
        "generator-m-float", "generator-k-float", "generator-seed-float", "rows-past-m",
        "rows-negative", "tiles-n-3", "tiles-k-mismatch"])
def test_refusal_codes(call, code):
    with pytest.raises(CodecError) as e:
        call()
    assert e.value.code == code
