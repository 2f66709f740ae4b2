import numpy as np
import pytest

from ubss_codec import (CodecError, CompositeBlock, GradientField,
                        MeasurementVector, MixingMatrix, SolverParams,
                        decode_composite, divergence_adjoint, forward_diff,
                        gen_mixing_matrix, mix_batch, shrink2, solve_tv)
from ubss_codec.tv import _grad, _grad_t, _UStep

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
    assert np.all(g.dx == 0) and np.all(g.dy == 0)


def test_forward_diff_column_ramp():
    u = np.tile(np.arange(6.0), (4, 1))
    g = forward_diff(u)
    assert np.all(g.dx[:, :-1] == 1) and np.all(g.dx[:, -1] == 0)
    assert np.all(g.dy == 0)


def test_forward_diff_1x1():
    g = forward_diff(np.array([[4.0]]))
    assert g.dx == np.array([[0.0]]) and g.dy == np.array([[0.0]])


def test_forward_diff_matches_dense_matrix():
    rng = np.random.default_rng(0)
    D = _dense_gradient_matrix(6, 9)
    for _ in range(10):
        u = rng.normal(size=(6, 9))
        g = forward_diff(u)
        flat = D @ u.ravel()
        assert np.allclose(g.dx.ravel(), flat[:54], atol=1e-12)
        assert np.allclose(g.dy.ravel(), flat[54:], atol=1e-12)


# --- adjoint ----------------------------------------------------------------

def test_adjoint_zero_field():
    g = GradientField(np.zeros((4, 4)), np.zeros((4, 4)))
    assert np.all(divergence_adjoint(g) == 0)


def test_adjoint_identity_against_dense_oracle():
    rng = np.random.default_rng(1)
    D = _dense_gradient_matrix(8, 8)
    for _ in range(100):
        u = rng.normal(size=(8, 8))
        gx = rng.normal(size=(8, 8))
        gy = rng.normal(size=(8, 8))
        g = GradientField(gx, gy)
        lhs = np.vdot(forward_diff(u).dx, gx) + np.vdot(forward_diff(u).dy, gy)
        rhs = np.vdot(u, divergence_adjoint(g))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        dense = (D.T @ np.concatenate([gx.ravel(), gy.ravel()])).reshape(8, 8)
        # dead entries (last dx column / dy row) do not reach the adjoint
        live = GradientField(gx.copy(), gy.copy())
        assert np.allclose(divergence_adjoint(live), dense, atol=1e-12)


def test_adjoint_delta_two_pixel_pattern():
    D = _dense_gradient_matrix(5, 5)
    gx = np.zeros((5, 5))
    gx[2, 1] = 1.0
    out = divergence_adjoint(GradientField(gx, np.zeros((5, 5))))
    # column readout of the dense transpose
    expect = (D.T @ np.concatenate([gx.ravel(), np.zeros(25)])).reshape(5, 5)
    assert np.array_equal(out, expect)
    assert out[2, 1] == -1.0 and out[2, 2] == 1.0 and np.count_nonzero(out) == 2


def test_adjoint_shape_mismatch():
    with pytest.raises(CodecError) as e:
        GradientField(np.zeros((3, 3)), np.zeros((4, 3)))
    assert e.value.code == "shape-mismatch"


# --- shrinkage --------------------------------------------------------------

def test_shrink2_closed_form():
    v = GradientField(np.array([[3.0]]), np.array([[4.0]]))
    w = shrink2(v, 2.0)
    assert abs(w.dx[0, 0] - 1.8) <= 1e-12
    assert abs(w.dy[0, 0] - 2.4) <= 1e-12


def test_shrink2_dead_zone():
    v = GradientField(np.array([[0.3]]), np.array([[0.4]]))
    w = shrink2(v, 0.5)
    assert w.dx[0, 0] == 0.0 and w.dy[0, 0] == 0.0


def test_shrink2_zero_threshold_is_identity():
    rng = np.random.default_rng(2)
    dx, dy = rng.normal(size=(2, 6, 6))
    w = shrink2(GradientField(dx, dy), 0.0)
    assert np.array_equal(w.dx, dx) and np.array_equal(w.dy, dy)


def test_shrink2_zero_vector_stays_zero():
    for t in (1.0, 0.0):
        w = shrink2(GradientField(np.zeros((2, 2)), np.zeros((2, 2))), t)
        assert np.all(w.dx == 0) and np.all(w.dy == 0)


def test_shrink2_negative_threshold():
    with pytest.raises(CodecError) as e:
        shrink2(GradientField(np.zeros((2, 2)), np.zeros((2, 2))), -0.1)
    assert e.value.code == "negative-threshold"


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
        w = shrink2(GradientField(np.array([[vx]]), np.array([[vy]])), t)
        assert abs(np.hypot(w.dx[0, 0], w.dy[0, 0]) - best) <= 1e-6


# --- surrogate gradient vs finite differences -------------------------------

def test_surrogate_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    beta, mu = 2.0 ** 5, 2.0 ** 8
    for trial in range(5):
        A = rng.normal(size=(32, 64)) / np.sqrt(32)
        b = rng.normal(size=32) * 10
        wx, wy = rng.normal(size=(2, 8, 8))
        nux, nuy = rng.normal(size=(2, 8, 8))
        lam = rng.normal(size=32)
        u = rng.normal(size=(8, 8)) * 5

        def q(vec):
            g = forward_diff(vec.reshape(8, 8))
            rx = g.dx - wx - nux / beta
            ry = g.dy - wy - nuy / beta
            rb = A @ vec - b - lam / mu
            return 0.5 * beta * (np.vdot(rx, rx) + np.vdot(ry, ry)) \
                + 0.5 * mu * np.vdot(rb, rb)

        g = forward_diff(u)
        analytic = beta * divergence_adjoint(
            GradientField(g.dx - wx - nux / beta, g.dy - wy - nuy / beta)) \
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


def _surrogate(A, side, seed):
    """A side x side instance of the u-step for the m x side^2 matrix A: (rhs, u0, grad Q).

    Q(u) = beta/2 |D u - w - s|^2 + mu/2 |A u - b - l|^2 at the default
    penalties; w, s and b, l enter Q only as the sums w + s and b + l, which
    are drawn at random, and rhs = beta D^T (w + s) + mu A^T (b + l) is the
    right-hand side of the u-step's system H u = rhs.
    """
    rng = np.random.default_rng(seed)
    beta, mu = SolverParams().beta, SolverParams().mu
    ws = rng.normal(size=(2, side, side))
    bl = rng.normal(size=len(A))

    def grad(u):
        return beta * _grad_t(_grad(u) - ws) \
            + mu * (A.T @ (A @ u.ravel() - bl)).reshape(side, side)

    rhs = beta * _grad_t(ws) + mu * (A.T @ bl).reshape(side, side)
    return rhs, rng.normal(size=(side, side)), grad


# the 1 x 1 case, odd sides and even sides up to 8
_U_STEP_SIDES = (1, 2, 3, 4, 8)


def _u_step_instances(side):
    """Gaussian max(1, k/2) x k matrices, the k x k identity and Gaussian 1 x k rows, k = side^2."""
    k = side * side
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        yield seed, rng.normal(size=(max(1, k // 2), k)) / np.sqrt(max(1, k // 2))
        yield seed, np.eye(k)
        yield seed, rng.normal(size=(1, k))


def test_u_step_lands_on_q_minimizer():
    # the exact u-step zeroes Q's gradient to rounding and agrees with a dense
    # solve of H u = rhs, H built from the entry-by-entry stencil matrix
    beta, mu = SolverParams().beta, SolverParams().mu
    for side in _U_STEP_SIDES:
        D = _dense_gradient_matrix(side, side)
        for seed, A in _u_step_instances(side):
            rhs, u0, grad = _surrogate(A, side, seed)
            u, _ = _UStep(A, side, beta, mu)(rhs)
            assert np.linalg.norm(grad(u)) <= 1e-9 * np.linalg.norm(grad(u0))
            dense = np.linalg.solve(beta * D.T @ D + mu * A.T @ A, rhs.ravel())
            assert np.linalg.norm(u.ravel() - dense) <= 1e-9 * np.linalg.norm(dense)


def test_u_step_returns_a_u():
    # A u comes from the Woodbury solve, not from a product with A
    beta, mu = SolverParams().beta, SolverParams().mu
    for side in _U_STEP_SIDES:
        for seed, A in _u_step_instances(side):
            rhs, _, _ = _surrogate(A, side, seed)
            u, Au = _UStep(A, side, beta, mu)(rhs)
            assert np.linalg.norm(Au - A @ u.ravel()) <= 1e-9 * np.linalg.norm(A @ u.ravel())


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
    nan_matrix = MixingMatrix(seed=None, m=4, k=16, entries=np.full((4, 16), np.nan))
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


def test_stop_reason_zero_input():
    res = solve_tv(gen_mixing_matrix(3, 128, 1024), MeasurementVector((0, 0), np.zeros(128)), 32)
    assert res.stop_reason == "zero-input" and res.outer_iterations == 1


class _CountedMatrix(np.ndarray):
    """An array that counts the products it takes part in through `@`."""

    products = 0

    def __matmul__(self, other):
        _CountedMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)

    def __rmatmul__(self, other):
        _CountedMatrix.products += 1
        return np.asarray(other) @ np.asarray(self)


def test_outer_iteration_takes_three_products_with_a():
    # the warm start u = A^T b takes one product; each outer iteration takes
    # A^T (b + l), A z and A^T y, and gets A u without a product
    img = _square_image(16, 3, 10, 80.0)
    entries = gen_mixing_matrix(5, 64, 256).entries
    matrix = MixingMatrix(seed=None, m=64, k=256, entries=entries.view(_CountedMatrix))
    b = MeasurementVector((0, 0), entries @ img.ravel())
    solve_tv(matrix, b, 16)  # builds and caches the u-step
    for outer in (1, 2, 10):
        _CountedMatrix.products = 0
        res = solve_tv(matrix, b, 16, SolverParams(max_outer=outer, outer_tol=1e-300))
        assert res.outer_iterations == outer and res.stop_reason == "cap"
        assert _CountedMatrix.products == 1 + 3 * outer


def test_solve_refuses_matrix_blind_to_constants():
    # rows summing to zero leave the constant image unmeasured and H singular
    matrix = MixingMatrix(seed=None, m=1, k=4, entries=np.array([[1.0, -1.0, 0.0, 0.0]]))
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
    bad = MixingMatrix(seed=None, m=1, k=1, entries=np.array([[np.nan]]))
    with pytest.raises(CodecError) as e:
        solve_tv(bad, MeasurementVector((0, 0), np.ones(1)), 1)
    assert e.value.code == "non-finite-value"


def test_solver_params_validation():
    with pytest.raises(CodecError):
        SolverParams(mu=0.0)
    with pytest.raises(CodecError):
        SolverParams(outer_tol=0.0)


# --- decode_composite -------------------------------------------------------

def test_decode_zero_measurements_gives_zero_composite():
    matrix = gen_mixing_matrix(5, 64, 256)
    block = decode_composite(matrix, MeasurementVector((2, 3), np.zeros(64)), 16)
    assert np.all(block.values == 0)
    assert block.grid_position == (2, 3)


def test_decode_round_trip_fully_determined():
    # m = k: the system is well posed (least-squares oracle reproduces the
    # input); the solver must recover it too
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(31, 256, 256)
    b = mix_batch(matrix, CompositeBlock(16, img, (0, 0)))
    lstsq = np.linalg.lstsq(matrix.entries, b.values, rcond=None)[0]
    assert psnr_vs(img, lstsq.reshape(16, 16)) >= 100.0
    block = decode_composite(matrix, b, 16)
    assert psnr_vs(img, block.values) >= 50.0


def test_decode_deterministic():
    img = _square_image(16, 3, 10, 80.0)
    matrix = gen_mixing_matrix(31, 128, 256)
    b = MeasurementVector((0, 0), matrix.entries @ img.ravel())
    d1 = decode_composite(matrix, b, 16)
    d2 = decode_composite(matrix, b, 16)
    assert d1.values.tobytes() == d2.values.tobytes()
