import dataclasses
import tracemalloc

import numpy as np
import pytest

from ubss_codec import (CodecError, CompositeBlock, MeasurementVector,
                        MixingMatrix, SolverParams, divergence_adjoint,
                        forward_diff, gen_mixing_matrix, mix_batch, shrink2,
                        solve_tv)
from ubss_codec import tv as tv_mod
from ubss_codec.tv import _grad, _grad_t, _shrink, _UStep

from reference_tv import psnr_vs, tv_subgradient_reference


def _dense_gradient_matrix(h, w):
    """Explicit (2*h*w, h*w) matrix of the forward-difference stencil.

    Built directly from the stencil definition, entry by entry, so it is an
    independent oracle for both forward_diff and its adjoint.
    """
    npix = h * w
    D = np.zeros((2 * npix, npix))
    for r in range(h):
        for c in range(w):
            row = r * w + c
            if c + 1 < w:
                D[row, r * w + (c + 1)] += 1
                D[row, row] -= 1
            if r + 1 < h:
                D[npix + row, (r + 1) * w + c] += 1
                D[npix + row, row] -= 1
    return D


# --- forward differences ----------------------------------------------------

def test_forward_diff_constant():
    g = forward_diff(np.full((5, 7), 3.5))
    assert g.shape == (2, 5, 7) and np.all(g == 0)


def test_forward_diff_column_ramp():
    u = np.tile(np.arange(6.0), (4, 1))
    dx, dy = forward_diff(u)
    assert np.all(dx[:, :-1] == 1) and np.all(dx[:, -1] == 0)
    assert np.all(dy == 0)


def test_forward_diff_1x1():
    g = forward_diff(np.array([[4.0]]))
    assert np.array_equal(g, np.zeros((2, 1, 1)))


def test_forward_diff_matches_dense_matrix():
    rng = np.random.default_rng(0)
    D = _dense_gradient_matrix(6, 9)
    for _ in range(10):
        u = rng.normal(size=(6, 9))
        g = forward_diff(u)
        assert np.allclose(g.ravel(), D @ u.ravel(), atol=1e-12)


@pytest.mark.parametrize("u", [np.zeros(4), np.zeros((0, 3)), np.zeros((2, 2, 2))],
                         ids=["1-d", "empty", "3-d"])
def test_forward_diff_refusal_codes(u):
    with pytest.raises(CodecError) as e:
        forward_diff(u)
    assert e.value.code == "shape-mismatch"


def test_public_operators_are_the_solvers_own():
    # the solve loop calls _grad, _grad_t and _shrink unchecked; the public
    # names must return exactly what they do
    rng = np.random.default_rng(4)
    for h, w in ((1, 1), (3, 5), (8, 8), (7, 2)):
        u = rng.normal(size=(h, w))
        g = rng.normal(size=(2, h, w))
        assert np.array_equal(forward_diff(u), _grad(u))
        assert np.array_equal(divergence_adjoint(g), _grad_t(g))
        for t in (0.0, 0.3, 5.0):
            assert np.array_equal(shrink2(g, t), _shrink(g, t))


# --- adjoint ----------------------------------------------------------------

def test_adjoint_zero_field():
    assert np.all(divergence_adjoint(np.zeros((2, 4, 4))) == 0)


def test_adjoint_identity_against_dense_oracle():
    rng = np.random.default_rng(1)
    D = _dense_gradient_matrix(8, 8)
    for _ in range(100):
        u = rng.normal(size=(8, 8))
        g = rng.normal(size=(2, 8, 8))
        lhs = np.vdot(forward_diff(u), g)
        rhs = np.vdot(u, divergence_adjoint(g))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        # dead entries (last dx column / dy row) do not reach the adjoint
        dense = (D.T @ g.ravel()).reshape(8, 8)
        assert np.allclose(divergence_adjoint(g), dense, atol=1e-12)


def test_adjoint_delta_two_pixel_pattern():
    D = _dense_gradient_matrix(5, 5)
    g = np.zeros((2, 5, 5))
    g[0, 2, 1] = 1.0
    out = divergence_adjoint(g)
    # column readout of the dense transpose
    expect = (D.T @ g.ravel()).reshape(5, 5)
    assert np.array_equal(out, expect)
    assert out[2, 1] == -1.0 and out[2, 2] == 1.0 and np.count_nonzero(out) == 2


def test_adjoint_shape_mismatch():
    # a field is (2, H, W): a 2-D raster, a third plane, one plane, an empty
    # plane or a fourth axis is refused by both operators that take one
    for shape in ((3, 3), (3, 4, 4), (1, 4, 4), (2, 0, 3), (2, 2, 2, 2)):
        for op in (divergence_adjoint, lambda g: shrink2(g, 1.0)):
            with pytest.raises(CodecError) as e:
                op(np.zeros(shape))
            assert e.value.code == "shape-mismatch", shape


# --- shrinkage --------------------------------------------------------------

def test_shrink2_closed_form():
    w = shrink2(np.array([[[3.0]], [[4.0]]]), 2.0)
    assert abs(w[0, 0, 0] - 1.8) <= 1e-12
    assert abs(w[1, 0, 0] - 2.4) <= 1e-12


def test_shrink2_dead_zone():
    w = shrink2(np.array([[[0.3]], [[0.4]]]), 0.5)
    assert np.all(w == 0.0)


def test_shrink2_zero_threshold_is_identity():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(2, 6, 6))
    assert np.array_equal(shrink2(v, 0.0), v)


def test_shrink2_zero_vector_stays_zero():
    for t in (1.0, 0.0):
        assert np.all(shrink2(np.zeros((2, 2, 2)), t) == 0)


def test_shrink2_negative_threshold():
    with pytest.raises(CodecError) as e:
        shrink2(np.zeros((2, 2, 2)), -0.1)
    assert e.value.code == "negative-threshold"


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, "1", None, 1j, np.array([1.0, 2.0])],
                         ids=["nan", "inf", "-inf", "str", "none", "complex", "array"])
def test_shrink2_refuses_a_threshold_that_is_not_a_finite_real(t):
    # NaN would make every output NaN; the others would raise raw TypeErrors
    with pytest.raises(CodecError) as e:
        shrink2(np.ones((2, 2, 2)), t)
    assert e.value.code == "invalid-threshold"
    # a finite real of any numeric type is taken
    for ok in (1, np.float32(0.5), np.int64(2)):
        assert np.all(np.isfinite(shrink2(np.ones((2, 2, 2)), ok)))


def test_shrink2_is_prox_minimizer_by_grid_search():
    # w minimizes |w| + (1/(2t)) |w - v|^2; optimum is radial, so search the radius
    rng = np.random.default_rng(3)
    for _ in range(25):
        vx, vy = rng.normal(size=2) * 3
        t = float(rng.uniform(0.05, 2.5))
        norm_v = np.hypot(vx, vy)

        def objective(r):
            return r + (r - norm_v) ** 2 / (2 * t)

        lo, hi = 0.0, norm_v + 3 * t
        for _stage in range(4):
            grid = np.linspace(lo, hi, 1001)
            best = grid[np.argmin(objective(grid))]
            span = (hi - lo) / 1000
            lo, hi = max(0.0, best - span), best + span
        w = shrink2(np.array([[[vx]], [[vy]]]), t)
        assert abs(np.hypot(w[0, 0, 0], w[1, 0, 0]) - best) <= 1e-6


# --- surrogate gradient vs finite differences -------------------------------

def test_surrogate_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    beta, mu = 2.0 ** 5, 2.0 ** 8
    for trial in range(5):
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

        flat = u.ravel()
        h = 1e-6
        numeric = np.empty(64)
        for i in range(64):
            plus = flat.copy()
            minus = flat.copy()
            plus[i] += h
            minus[i] -= h
            numeric[i] = (q(plus) - q(minus)) / (2 * h)
        scale = max(1.0, np.max(np.abs(numeric)))
        assert np.max(np.abs(analytic.ravel() - numeric)) / scale <= 1e-5


def _surrogate(A, side, seed, beta, mu):
    """A side x side instance of the u-step for the m x side^2 matrix A: (ws, bl, u0, grad Q).

    Q(u) = beta/2 |D u - w - s|^2 + mu/2 |A u - b - l|^2; w, s and b, l
    enter Q only as the sums ws = w + s and bl = b + l, which are drawn at
    random and are the u-step's (t, r).
    """
    rng = np.random.default_rng(seed)
    ws = rng.normal(size=(2, side, side))
    bl = rng.normal(size=len(A))

    def grad(u):
        return beta * _grad_t(_grad(u) - ws) \
            + mu * (A.T @ (A @ u.ravel() - bl)).reshape(side, side)

    return ws, bl, rng.normal(size=(side, side)), grad


# the 1 x 1 case, odd sides and even sides up to 8
_U_STEP_SIDES = (1, 2, 3, 4, 8)
# (beta, mu): the defaults, beta far above mu and mu far above beta
_PENALTIES = ((SolverParams().beta, SolverParams().mu), (2.0 ** 8, 2.0 ** 2), (1.0, 2.0 ** 12))


def _u_step_instances(side):
    """Gaussian max(1, k/2) x k matrices, the k x k identity and Gaussian 1 x k rows, k = side^2."""
    k = side * side
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        yield seed, rng.normal(size=(max(1, k // 2), k)) / np.sqrt(max(1, k // 2))
        yield seed, np.eye(k)
        yield seed, rng.normal(size=(1, k))


def _u_step(A, side, t, r, beta, mu):
    """(u, A u) from the u-step for (t, r): u = V u^ V^T and A u = r + Q d.

    The u-step takes r and returns d in the eigenbasis Q of its factor.
    """
    step = _UStep(MixingMatrix(A), side)
    uhat, d = step(t, r @ step.Q, *step.weights(beta / mu))
    return step.V @ uhat @ step.V.T, r + step.Q @ d


def test_u_step_lands_on_q_minimizer():
    # the exact u-step zeroes Q's gradient to rounding and agrees with a dense
    # solve of H u = beta D^T t + mu A^T r, D the entry-by-entry stencil matrix
    for beta, mu in _PENALTIES:
        for side in _U_STEP_SIDES:
            D = _dense_gradient_matrix(side, side)
            for seed, A in _u_step_instances(side):
                ws, bl, u0, grad = _surrogate(A, side, seed, beta, mu)
                u, _ = _u_step(A, side, ws, bl, beta, mu)
                assert np.linalg.norm(grad(u)) <= 1e-9 * np.linalg.norm(grad(u0))
                rhs = beta * D.T @ ws.reshape(-1) + mu * A.T @ bl
                dense = np.linalg.solve(beta * D.T @ D + mu * A.T @ A, rhs)
                assert np.linalg.norm(u.ravel() - dense) <= 1e-9 * np.linalg.norm(dense)


def test_warm_start_is_the_smooth_least_squares_image(monkeypatch):
    # solve_tv starts from the u-step at w = s = 0, the minimizer of
    # beta/2 |D u|^2 + mu/2 |A u - b|^2, which solves
    # (beta D^T D + mu A^T A) u = mu A^T b, not from the back-projection A^T b;
    # solve_tv scales b to unit RMS, and the minimizer is linear in b
    starts = []
    start = tv_mod._UStep.start

    def recorded(self, *args):
        uhat, d = start(self, *args)
        starts.append(self.V @ uhat @ self.V.T)
        return uhat, d

    monkeypatch.setattr(tv_mod._UStep, "start", recorded)
    img = _square_image(8, 2, 6, 80.0)
    D = _dense_gradient_matrix(8, 8)
    for beta, mu in _PENALTIES:
        for seed, m in ((1, 16), (2, 32)):
            matrix = gen_mixing_matrix(seed, m, 64)
            A = matrix.entries
            b = A @ img.ravel()
            solve_tv(matrix, MeasurementVector((0, 0), b), 8,
                     SolverParams(beta=beta, mu=mu, max_outer=1))
            scale = np.linalg.norm(b) / np.sqrt(m)
            dense = np.linalg.solve(beta * D.T @ D + mu * A.T @ A, mu * A.T @ b)
            assert np.linalg.norm(scale * starts[-1].ravel() - dense) \
                <= 1e-9 * np.linalg.norm(dense)
    assert len(starts) == 2 * len(_PENALTIES)


def test_u_step_returns_a_u():
    # A u = r + Q d comes from the Woodbury solve, not from a product with A
    for beta, mu in _PENALTIES:
        for side in _U_STEP_SIDES:
            for seed, A in _u_step_instances(side):
                ws, bl, _, _ = _surrogate(A, side, seed, beta, mu)
                u, Au = _u_step(A, side, ws, bl, beta, mu)
                assert np.linalg.norm(Au - A @ u.ravel()) <= 1e-9 * np.linalg.norm(A @ u.ravel())


def test_one_u_step_factor_serves_every_penalty(monkeypatch):
    # the factor depends on A and the side only: solves at other penalties
    # reuse the one built by the first solve with the matrix
    builds = []

    class Counted(tv_mod._UStep):
        def __init__(self, *args):
            builds.append(args[1:])
            super().__init__(*args)

    monkeypatch.setattr(tv_mod, "_UStep", Counted)
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(5, 64, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    for beta, mu in _PENALTIES:
        solve_tv(matrix, b, 16, SolverParams(beta=beta, mu=mu, max_outer=5))
    assert len(builds) == 1


def test_matrix_is_read_only():
    # the solver caches its u-step factor on the matrix: replacing the entries
    # after a solve would leave the factor stale, so no field can be set, and
    # the entries, a generated matrix's or a copy of given ones, are locked
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(5, 64, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    solve_tv(matrix, b, 16, SolverParams(max_outer=5))
    for name, value in (("entries", gen_mixing_matrix(6, 64, 256).entries),
                        ("entries", gen_mixing_matrix(6, 32, 256).entries), ("m", 32), ("k", 64)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(matrix, name, value)
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 1.0
    given = np.eye(4, 16)
    wrapped = MixingMatrix(given)
    given[0, 0] = 5.0
    assert wrapped.entries[0, 0] == 1.0
    with pytest.raises(ValueError):
        wrapped.entries[0, 0] = 2.0


def test_u_step_factor_build_memory():
    # the build holds the m x k spectral copy, G and Q: rotating the copy by Q
    # a block of columns at a time keeps the peak near 1.5 times the matrix
    matrix = gen_mixing_matrix(9, 256, 1024)
    entries = matrix.entries
    tracemalloc.start()
    try:
        _UStep(matrix, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * entries.nbytes


def test_u_step_factor_build_memory_undrawn():
    # the decoder's case: the build draws the matrix a block of rows at a time
    # inside the measured region, within the same bound, and leaves it undrawn;
    # its factor is the one built from the drawn entries, byte for byte
    matrix = gen_mixing_matrix(9, 256, 1024)
    tracemalloc.start()
    try:
        step = _UStep(matrix, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix._entries is None
    assert peak <= 1.6 * 256 * 1024 * 8
    drawn = gen_mixing_matrix(9, 256, 1024)
    reference = _UStep(MixingMatrix(drawn.entries), 32)
    for name in ("At", "Q", "lam", "h"):
        assert getattr(step, name).tobytes() == getattr(reference, name).tobytes(), name


# --- solve_tv ---------------------------------------------------------------

def _square_image(side=32, lo=10, hi=22, value=100.0):
    img = np.zeros((side, side))
    img[lo:hi, lo:hi] = value
    return img


def test_solve_identity_recovers_image():
    img = _square_image()
    ident = MixingMatrix.identity(1024)
    res = solve_tv(ident, MeasurementVector((0, 0), img.ravel()), 32)
    assert psnr_vs(img, res.u) >= 60.0
    assert res.outer_iterations <= 300


def test_solve_zero_measurements_exactly_zero():
    matrix = gen_mixing_matrix(3, 128, 1024)
    res = solve_tv(matrix, MeasurementVector((0, 0), np.zeros(128)), 32)
    assert np.all(res.u == 0.0) and res.u.shape == (32, 32)
    assert res.final_fidelity == 0.0
    assert res.outer_iterations == 1 and res.final_rel_change == 0.0
    # all-zero b returns before A is read: with a NaN matrix the iterations
    # would raise non-finite-value
    nan_matrix = MixingMatrix(entries=np.full((4, 16), np.nan))
    res = solve_tv(nan_matrix, MeasurementVector((0, 0), np.zeros(4)), 4)
    assert np.all(res.u == 0.0) and res.outer_iterations == 1


def test_solve_square_at_forty_percent_sampling():
    # compressive recovery of a piecewise-constant composite, checked both
    # absolutely and against the independent projected-subgradient reference
    img = _square_image()
    m = round(0.4 * 1024)
    matrix = gen_mixing_matrix(7, m, 1024)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    res = solve_tv(matrix, b, 32, SolverParams(max_outer=300))
    main_psnr = psnr_vs(img, res.u)
    assert main_psnr >= 35.0
    ref = tv_subgradient_reference(matrix.entries, b.values, 32, iters=8000)
    assert main_psnr >= psnr_vs(img, ref) - 1.0


def test_solve_deterministic():
    img = _square_image()
    matrix = gen_mixing_matrix(21, 410, 1024)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    r1 = solve_tv(matrix, b, 32)
    r2 = solve_tv(matrix, b, 32)
    assert r1.u.tobytes() == r2.u.tobytes()
    assert r1.outer_iterations == r2.outer_iterations
    assert r1.final_fidelity == r2.final_fidelity


def test_solve_fidelity_never_worse_than_warm_start():
    rng = np.random.default_rng(8)
    for seed in (1, 2, 3):
        img = rng.normal(size=(16, 16)) * 60
        matrix = gen_mixing_matrix(seed, 128, 256)
        bvec = matrix.entries @ img.ravel()
        res = solve_tv(matrix, MeasurementVector((0, 0), bvec), 16)
        init_fid = np.linalg.norm(
            matrix.entries @ (matrix.entries.T @ bvec) - bvec)
        assert res.final_fidelity <= init_fid + 1e-9


def test_solve_scale_covariance_on_identity_problems():
    img = _square_image(16, 4, 11, 100.0)
    ident = MixingMatrix.identity(256)
    base = solve_tv(ident, MeasurementVector((0, 0), img.ravel()), 16)
    for alpha in (0.5, 2.0):
        scaled = solve_tv(ident, MeasurementVector((0, 0), alpha * img.ravel()), 16)
        assert psnr_vs(alpha * base.u, scaled.u) >= 60.0


def test_stop_reason_tolerance():
    img = _square_image()
    res = solve_tv(MixingMatrix.identity(1024), MeasurementVector((0, 0), img.ravel()), 32)
    assert res.stop_reason == "tolerance"
    assert res.final_rel_change < SolverParams().outer_tol and res.outer_iterations < 300


def test_stop_reason_cap():
    img = _square_image()
    res = solve_tv(MixingMatrix.identity(1024), MeasurementVector((0, 0), img.ravel()), 32,
                   SolverParams(max_outer=3))
    assert res.stop_reason == "cap"
    assert res.outer_iterations == 3 and res.final_rel_change >= SolverParams().outer_tol


def _smooth_composite():
    """A smooth side-16 composite at m = 64, the pan benchmark's shape: (matrix, b)."""
    x, y = np.arange(16)[None, :], np.arange(16)[:, None]
    img = 30.0 * np.sin(2 * np.pi * x / 23) * np.cos(2 * np.pi * y / 19)
    matrix = gen_mixing_matrix(1, 64, 256)
    return matrix, MeasurementVector((0, 0), matrix.entries @ img.ravel())


def test_default_beta_stops_on_tolerance_for_a_smooth_composite():
    # the default beta converges well inside the cap; beta = 2^5 iterates
    # clearly more (outer iterations at beta 2^3/2^4/2^5/2^6: 52/87/141/213)
    matrix, b = _smooth_composite()
    default = solve_tv(matrix, b, 16)
    assert default.stop_reason == "tolerance"
    assert default.outer_iterations <= 2 * SolverParams().max_outer // 3
    slower = solve_tv(matrix, b, 16, SolverParams(beta=2.0 ** 5))
    assert slower.outer_iterations >= 1.5 * default.outer_iterations


def test_over_relaxation_cuts_outer_iterations():
    # the same composite takes 131 outer iterations without over-relaxation
    # (alpha = 1) and 87 with the default alpha = 1.8
    matrix, b = _smooth_composite()
    result = solve_tv(matrix, b, 16)
    assert result.stop_reason == "tolerance" and result.outer_iterations <= 110


def test_stop_reason_zero_input():
    res = solve_tv(gen_mixing_matrix(3, 128, 1024), MeasurementVector((0, 0), np.zeros(128)), 32)
    assert res.stop_reason == "zero-input" and res.outer_iterations == 1


class _CountedAt(np.ndarray):
    """An array that counts the products it takes part in through `@`."""

    products = 0

    def __matmul__(self, other):
        _CountedAt.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        _CountedAt.products += 1
        return np.asarray(other) @ np.asarray(self)


def test_outer_iteration_takes_two_products_with_spectral_copy(monkeypatch):
    # once the u-step is built, a solve never reads A: the warm start takes
    # one product with the cached spectral copy At, each outer iteration
    # takes At p and a At
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(5, 64, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    solve_tv(matrix, b, 16)  # builds and caches the u-step
    u_step = matrix._solver_cache
    u_step.At = u_step.At.view(_CountedAt)
    reads = []
    rows, entries = MixingMatrix.rows, MixingMatrix.entries.fget

    def counted_rows(self, start, stop):
        reads.append("rows")
        return rows(self, start, stop)

    def counted_entries(self):
        reads.append("entries")
        return entries(self)
    monkeypatch.setattr(MixingMatrix, "rows", counted_rows)
    monkeypatch.setattr(MixingMatrix, "entries", property(counted_entries))
    for outer in (1, 2, 10):
        _CountedAt.products = 0
        res = solve_tv(matrix, b, 16, SolverParams(max_outer=outer, outer_tol=1e-300))
        assert res.outer_iterations == outer and res.stop_reason == "cap"
        assert reads == []
        assert _CountedAt.products == 1 + 2 * outer


def test_matrix_from_an_ndarray_subclass_is_plain():
    # a given array is copied into a plain float64 ndarray: np.matrix keeps
    # 2-D shapes under indexing and reshape, which the u-step build cannot use
    img = _square_image(16, 3, 10, 80.0)
    entries = gen_mixing_matrix(5, 64, 256).entries
    with pytest.warns(PendingDeprecationWarning):
        given = np.matrix(entries)
    matrix = MixingMatrix(given)
    assert type(matrix.entries) is np.ndarray and matrix.entries.dtype == np.float64
    assert np.array_equal(matrix.entries, entries)
    b = MeasurementVector((0, 0), entries @ img.ravel())
    res = solve_tv(matrix, b, 16, SolverParams(max_outer=5))
    assert res.u.shape == (16, 16) and type(res.u) is np.ndarray


def test_final_fidelity_is_measurement_misfit_of_result():
    # final_fidelity is |A u - b| of the returned u, on a tolerance stop and
    # on cap stops, where the multiplier update follows the last u-step
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(5, 128, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    for params, reason in ((SolverParams(), "tolerance"),
                           (SolverParams(max_outer=1), "cap"),
                           (SolverParams(max_outer=3), "cap")):
        res = solve_tv(matrix, b, 16, params)
        assert res.stop_reason == reason
        misfit = np.linalg.norm(matrix.entries @ res.u.ravel() - b.values)
        assert abs(res.final_fidelity - misfit) <= 1e-9 * misfit


def test_solve_refuses_matrix_blind_to_constants():
    # rows summing to zero leave the constant image unmeasured and H singular
    matrix = MixingMatrix(entries=np.array([[1.0, -1.0, 0.0, 0.0]]))
    with pytest.raises(CodecError) as e:
        solve_tv(matrix, MeasurementVector((0, 0), np.ones(1)), 2)
    assert e.value.code == "singular-matrix"


def test_solve_shape_checks():
    matrix = gen_mixing_matrix(1, 16, 64)
    with pytest.raises(CodecError):
        solve_tv(matrix, MeasurementVector((0, 0), np.zeros(16)), 16)
    with pytest.raises(CodecError):
        solve_tv(matrix, MeasurementVector((0, 0), np.zeros(15)), 8)


def test_solve_flags_non_finite_inputs():
    bad = MixingMatrix(entries=np.array([[np.nan]]))
    with pytest.raises(CodecError) as e:
        solve_tv(bad, MeasurementVector((0, 0), np.ones(1)), 1)
    assert e.value.code == "non-finite-value"


def test_solver_params_validation():
    for bad in (dict(mu=0.0), dict(outer_tol=0.0), dict(mu=np.inf), dict(beta=np.inf),
                dict(beta=np.nan), dict(mu=np.nan), dict(outer_tol=np.nan),
                dict(outer_tol=np.inf), dict(max_outer=2.5), dict(max_outer=3.0),
                dict(max_outer=0), dict(mu="1"), dict(beta=None), dict(outer_tol=1j),
                dict(mu=np.array([1.0, 2.0])), dict(beta=np.array([2.0]))):
        with pytest.raises(CodecError) as e:
            SolverParams(**bad)
        assert e.value.code == "invalid-solver-params", bad
    SolverParams(mu=np.float32(3.0), beta=16, max_outer=np.int64(3))
    # solve_tv takes a SolverParams or None, and refuses anything else before any work
    for bad in ({"mu": 1.0}, 300, "defaults"):
        with pytest.raises(CodecError) as e:
            solve_tv(MixingMatrix.identity(1), MeasurementVector((0, 0), np.zeros(1)), 1, bad)
        assert e.value.code == "invalid-solver-params", bad


@pytest.mark.parametrize("b", [np.ones(4), [1.0] * 4, None,
                               CompositeBlock(np.ones((2, 2)), (0, 0))],
                         ids=["ndarray", "list", "none", "composite-block"])
def test_solve_refuses_measurements_of_another_type(b):
    with pytest.raises(CodecError) as e:
        solve_tv(gen_mixing_matrix(1, 4, 16), b, 4)
    assert e.value.code == "not-a-measurement-vector"


def test_solve_refuses_measurements_whose_norm_overflows():
    # finite measurements whose norm overflows float64 cannot be normalized
    matrix = gen_mixing_matrix(3, 16, 64)
    with pytest.raises(CodecError) as e:
        solve_tv(matrix, MeasurementVector((0, 0), np.full(16, 1e155)), 8)
    assert e.value.code == "non-finite-value"
    # measurements whose norm underflows to 0 solve with the scale left at 1
    res = solve_tv(matrix, MeasurementVector((0, 0), np.full(16, 5e-324)), 8)
    assert np.all(np.abs(res.u) <= 1e-300)


# --- solve_tv on composites -------------------------------------------------

def test_decode_zero_measurements_gives_zero_composite():
    matrix = gen_mixing_matrix(5, 64, 256)
    u = solve_tv(matrix, MeasurementVector((2, 3), np.zeros(64)), 16).u
    assert np.all(u == 0)


def test_decode_round_trip_fully_determined():
    # m = k: the system is well posed (least-squares oracle reproduces the
    # input); the solver must recover it too
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(31, 256, 256)
    b = mix_batch(matrix, CompositeBlock(img, (0, 0)))
    lstsq = np.linalg.lstsq(matrix.entries, b.values, rcond=None)[0]
    assert psnr_vs(img, lstsq.reshape(16, 16)) >= 100.0
    u = solve_tv(matrix, b, 16).u
    assert psnr_vs(img, u) >= 50.0


def test_decode_deterministic():
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(31, 128, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    u1 = solve_tv(matrix, b, 16).u
    u2 = solve_tv(matrix, b, 16).u
    assert u1.tobytes() == u2.tobytes()
