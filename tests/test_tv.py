import numpy as np
import pytest

from ubss_codec import (CodecError, CompositeBlock, GradientField,
                        MeasurementVector, MixingMatrix, SolverParams,
                        decode_composite, divergence_adjoint, forward_diff,
                        gen_mixing_matrix, mix_batch, shrink2, solve_tv,
                        tv_norm)
from ubss_codec.tv import _D, _Dt, _diff_matrix, _hessian_terms

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


def test_matrix_form_of_d_equals_slice_stencil():
    # u B^T and B u add one +1 and one -1 term to exact zeros, so they equal
    # forward_diff's slice stencil exactly (array_equal: same bits, up to the
    # sign of 0); the solver's D^T sums up to four terms in another order
    rng = np.random.default_rng(9)
    for shape in ((16, 16), (32, 32), (6, 9), (9, 6), (1, 7), (7, 1), (1, 1)):
        h, w = shape
        for _ in range(5):
            u = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4)
            g = forward_diff(u)
            assert np.array_equal(u @ _diff_matrix(w).T, g.dx)
            assert np.array_equal(_diff_matrix(h) @ u, g.dy)
            if h == w:
                B = _diff_matrix(h)
                assert np.array_equal(_D(u, B), np.stack((g.dx, g.dy)))
                r = rng.normal(size=(2, h, w))
                assert np.allclose(_Dt(r, B), divergence_adjoint(GradientField(r[0], r[1])),
                                   rtol=0, atol=1e-12)


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


# --- TV norm ----------------------------------------------------------------

def test_tv_norm_constant():
    assert tv_norm(np.full((9, 9), 42.0)) == 0.0


def test_tv_norm_two_unit_jumps():
    assert tv_norm(np.array([[0.0, 1.0], [0.0, 1.0]])) == 2.0


def test_tv_norm_homogeneity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = rng.normal(size=(7, 5)) * 40
        a = float(rng.normal() * 5)
        assert tv_norm(a * u) == pytest.approx(abs(a) * tv_norm(u), rel=1e-12)


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


def test_hessian_product_matches_central_differences():
    # Q's gradient is affine in u, so central differences of it along g give
    # H g = (beta D^T D + mu A^T A) g up to rounding; the solver builds H g and
    # g^T H g from the terms A g and beta D^T D g
    rng = np.random.default_rng(6)
    beta, mu = 2.0 ** 5, 2.0 ** 8
    B = _diff_matrix(8)
    for trial in range(5):
        A = rng.normal(size=(32, 64)) / np.sqrt(32)
        b = rng.normal(size=32) * 10
        wx, wy = rng.normal(size=(2, 8, 8))
        nux, nuy = rng.normal(size=(2, 8, 8))
        lam = rng.normal(size=32)
        u = rng.normal(size=(8, 8)) * 5
        g = rng.normal(size=(8, 8))

        def grad_q(v):
            d = forward_diff(v)
            return beta * divergence_adjoint(
                GradientField(d.dx - wx - nux / beta, d.dy - wy - nuy / beta)) \
                + mu * (A.T @ (A @ v.ravel() - b - lam / mu)).reshape(8, 8)

        h = 1e-6
        numeric = (grad_q(u + h * g) - grad_q(u - h * g)) / (2 * h)
        Ag, DtDg = _hessian_terms(A, beta * (B.T @ B), g)
        Hg = DtDg + mu * (Ag @ A).reshape(8, 8)
        scale = max(1.0, np.max(np.abs(numeric)))
        assert np.max(np.abs(Hg - numeric)) / scale <= 1e-5
        curv = np.vdot(g, DtDg) + mu * np.vdot(Ag, Ag)
        assert curv == pytest.approx(np.vdot(g, numeric), rel=1e-5)


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
