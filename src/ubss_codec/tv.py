"""Separation engine: total-variation recovery of a composite block from its measurements.

solve_tv minimizes isotropic TV(u) subject to A u = b with an augmented
Lagrangian on both the gradient splitting D u = w and the measurement
constraint (TVAL3; Li, Yin & Zhang 2013), alternating four steps per outer
iteration:

1. w-step: per-pixel isotropic shrinkage of D u - nu/beta with threshold 1/beta;
2. over-relaxation of the gradient split: w <- alpha w + (1 - alpha) D u, with
   D u the gradient of the iterate the w-step read and alpha = _ALPHA = 1.8
   (Eckstein & Bertsekas 1992, Math. Programming 55; Boyd, Parikh, Chu,
   Peleato & Eckstein 2011, Distributed optimization and statistical learning
   via ADMM, section 3.4.3); alpha = 1 is the plain splitting. It takes about
   a third fewer outer iterations on every benchmark workload and block size;
3. u-step: the exact minimizer of the quadratic surrogate
   Q(u) = beta/2 ||D u - w - nu/beta||^2 + mu/2 ||A u - b - lambda/mu||^2;
4. multiplier updates nu <- nu - beta (D u - w), lambda <- lambda - mu (A u - b).

D and D^T are the slice stencils _grad and _grad_t, public as forward_diff and
divergence_adjoint; a gradient field is one float64 (2, H, W) array, dx over dy.

The u-step solves H u = beta D^T t + mu A^T r, t = w + nu/beta, r = b + lambda/mu,
with H = beta D^T D + mu A^T A. Since D^T D u = u L + L u for L the 1-D
Neumann Laplacian, L's eigenbasis V, the DCT-II basis in closed form,
diagonalizes D^T D (as the FFT does under a periodic boundary in FTVd; Wang,
Yang, Yin & Zhang 2008): a raster x has spectral coefficients x^ = V^T x V.
Its null space is the constant unit image q, x^ = delta_0, so
M = beta (D^T D + q q^T) is diagonal there, with eigenvalues beta eig
(eig_00 = 1). H is M plus a correction of rank m + 1, H = M + U^T C U with
U = [A; q^T] and C = diag(mu I, -beta). With Ahat = A (V (x) V) eig^-1/2,
the m x k spectral copy of A, and G = Ahat Ahat^T, the Woodbury identity's
S = C^-1 + U M^-1 U^T is [[G + rho I, A q], [q^T A^T, 0]] / beta for
rho = beta/mu: the penalties enter it only as scalars, so one
eigendecomposition G = Q diag(lam) Q^T serves every penalty. In G's
eigenbasis, with At = Q^T Ahat, h = At[:, 0] = Q^T A q, delta = 1/(lam + rho)
and p = (V^T D^T t V) / eig^1/2 (p_00 = (D q)^T t = 0), the u-step is

    x = At p - Q^T r,  gamma = h^T delta x / h^T delta h,
    a = delta (x - h gamma),  u^ = (p - At^T a - gamma delta_0) / eig^1/2,

two products with At, two side x side products for V^T D^T t V and none
with A; A u = r + rho Q a. _UStep holds V, eig^1/2, Q, lam and At; solve_tv
builds it on the first solve with a matrix, caches it on the MixingMatrix,
and forms rho and delta once per call. The solver iterates on u^ and forms
u = V u^ V^T (two side x side products) only for D u and the result; as V
is orthonormal, |u^| = |u| for the relative change. The multiplier update
lambda <- lambda - mu (A u - b) becomes l <- -rho Q a for l = lambda/mu, so
the measurement side runs in G's eigenbasis: b' = Q^T b once per call,
d = rho a and r' = b' - d per iteration, and |A u - b| = |r' + d - b'| is
the final fidelity. The warm start is the u-step at t = 0 (w = s = 0) and
r' = b', the minimizer of beta/2 ||D u||^2 + mu/2 ||A u - b||^2, the smoothest
image consistent with b (TVAL3; Boyd et al. 2011, section 3.4): p = 0 and
x = -b', so it takes one product with At. The measurement multiplier starts
at d = 0. Against the back-projection u = A^T b it takes about a quarter
fewer outer iterations at every composite side.

The solver is fully deterministic: no randomized steps, fixed summation order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CodecError
from .mixing import _STEP_WORDS, MeasurementVector, MixingMatrix

# Relative-change denominator floor.
_REL_FLOOR = 1e-8
# Smallest positive double: as a floor on |v| it only ever replaces |v| = 0.
_MAG_FLOOR = math.ulp(0.0)
# Over-relaxation of the gradient split, step 2 of the module docstring; 1 turns it off.
_ALPHA = 1.8


@dataclass(frozen=True)
class SolverParams:
    """Knobs of the augmented-Lagrangian TV solver.

    mu and beta weigh the measurement and gradient constraints; the solver
    stops when an outer iteration changes u by less than outer_tol
    (relative) or after max_outer outer iterations; all three are positive
    and finite real numbers, max_outer a positive integer. solve_tv scales b
    to unit RMS, so the defaults are scale-free. beta, the main control on
    convergence speed, was set by a seed study of the benchmark workloads
    without over-relaxation (alpha = 1): against 2^5, 2^4 took about 36%
    fewer outer iterations on the square workload (seeds 1-30) at a higher
    mean PSNR, and most pan and capture composites (seeds 1-6) then stopped
    on the tolerance, not the cap. 2^3 iterates less still, but it speeds
    small composites more than large ones, which leaves the acceptance
    suite's block-size timing clause too thin a margin. At beta = 2^4,
    alpha = 1.8 cut the outer iterations again: square seeds 1-30 65,825 ->
    45,660 at mean PSNR 58.080 -> 58.041 dB; pan seeds 1-6 78,200 -> 50,386
    and capture 16,073 -> 10,459, with no composite left on the cap (13 and
    10 before). Starting each solve from the smooth least-squares image in
    place of A^T b cut them once more: square 45,660 -> 34,514 at mean PSNR
    58.041 -> 58.043 dB, pan 50,386 -> 39,636 (37.769 -> 37.773 dB) and
    capture 10,459 -> 8,601 (46.794 -> 46.798 dB), still with none capped.
    The beta study has been redone neither at alpha = 1.8 nor from the new
    start, and the best beta may move with either. mu barely moves the
    result.
    """

    mu: float = 2.0 ** 8
    beta: float = 2.0 ** 4
    outer_tol: float = 1e-4
    max_outer: int = 300

    def __post_init__(self):
        if not all(isinstance(v, numbers.Real) and 0 < v < math.inf
                   for v in (self.mu, self.beta, self.outer_tol)):
            raise CodecError("invalid-solver-params", "mu, beta, outer_tol must be finite reals > 0")
        if not isinstance(self.max_outer, numbers.Integral) or self.max_outer < 1:
            raise CodecError("invalid-solver-params", "max_outer must be an integer >= 1")


def _params(params):
    """params, or the defaults for None; anything but a SolverParams is refused."""
    if params is None:
        return SolverParams()
    if not isinstance(params, SolverParams):
        raise CodecError("invalid-solver-params",
                         f"expected SolverParams, got {type(params).__name__}")
    return params


@dataclass
class SolverResult:
    """The recovered raster and how the solve ended.

    stop_reason is "tolerance" (an outer iteration changed u by less than
    outer_tol), "cap" (max_outer outer iterations ran without that) or
    "zero-input" (all-zero measurements: u = 0 without iterating).
    """

    u: np.ndarray
    outer_iterations: int
    final_fidelity: float
    final_rel_change: float
    stop_reason: str


def _grad(u):
    """D u of a raster as the stacked field (dx, dy): forward differences, replicate boundary."""
    g = np.zeros((2,) + u.shape)
    np.subtract(u[:, 1:], u[:, :-1], out=g[0, :, :-1])
    np.subtract(u[1:], u[:-1], out=g[1, :-1])
    return g


def _grad_t(g):
    """D^T of the stacked field g = (gx, gy), the negative divergence: see divergence_adjoint.

    The x-direction terms run on the flattened raster, where a shift by one
    sample is a contiguous slice; gx is copied with its dead last column
    zeroed, so the shift that wraps a row end onto the next row's start adds
    nothing. Kept for speed over the plain 2-D stencil, whose output is
    bit-identical (2-core Xeon, 1 BLAS thread, best of 5: 5.2 vs 7.0 us at
    side 8, 6.0 vs 8.8 at 16, 8.2 vs 14.0 at 32); it runs every outer iteration.
    """
    width = g.shape[2]
    gx = g[0].ravel().copy()
    gx[width - 1::width] = 0.0
    dy = g[1, :-1]
    out = np.zeros(g.shape[1:])
    flat = out.ravel()
    flat[:-1] -= gx[:-1]
    flat[1:] += gx[:-1]
    out[:-1] -= dy
    out[1:] += dy
    return out


def _field(g):
    """g as a float64 (2, H, W) gradient field; any other shape is refused."""
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 3 or len(g) != 2 or g.size == 0:
        raise CodecError("shape-mismatch", f"expected a nonempty (2, H, W) field, got {g.shape}")
    return g


def forward_diff(u: np.ndarray) -> np.ndarray:
    """D u: forward differences with replicate boundary (last column/row slopes are 0)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise CodecError("shape-mismatch", f"expected nonempty 2-D raster, got {u.shape}")
    return _grad(u)


def divergence_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of forward_diff: the raster v with <D u, g> = <u, v> for all u.

    Equals the negative divergence of g under the replicate boundary; the dead
    last column of dx / last row of dy never contribute.
    """
    return _grad_t(_field(g))


def _shrink(v, t):
    """Isotropic shrinkage of the stacked field v = (vx, vy) with threshold t."""
    mag = np.hypot(v[0], v[1])
    return v * (np.maximum(mag - t, 0.0) / np.maximum(mag, _MAG_FLOOR))


def shrink2(v: np.ndarray, t: float) -> np.ndarray:
    """Isotropic two-vector shrinkage of a field: w = max(|v| - t, 0) * v/|v|, 0 at |v| = 0.

    t must be a finite real number (else "invalid-threshold"), and not below 0
    (else "negative-threshold").
    """
    if not (isinstance(t, numbers.Real) and math.isfinite(t)):
        raise CodecError("invalid-threshold", f"t={t!r} is not a finite real number")
    if t < 0:
        raise CodecError("negative-threshold", f"t={t}")
    return _shrink(_field(v), t)


class _UStep:
    """The exact u-step's factor for one matrix A and side, the same for every beta and mu.

    Holds V (L's closed-form DCT-II eigenbasis, with V[:, 0] = 1/sqrt(side)
    and its eigenvalue 0 exact), root = eig^1/2 (M's eigenvalues over beta in
    the basis V (x) V, 1 along q), Q and lam, the eigendecomposition of
    G = Ahat Ahat^T for Ahat = A (V (x) V) eig^-1/2, At = Q^T Ahat, the m x k
    spectral copy of A in G's eigenbasis, and h = At[:, 0] = Q^T A q. Q takes
    m^2 float64. It reads A, a MixingMatrix, by blocks of rows and keeps no
    reference to it: an outer iteration reads only At.
    """

    def __init__(self, matrix, side):
        j = np.arange(side)
        V = math.sqrt(2 / side) * np.cos(np.pi * np.outer(j + 0.5, j) / side)
        V[:, 0] = side ** -0.5
        lap = 2 - 2 * np.cos(np.pi * j / side)  # L's eigenvalues
        root = np.sqrt(lap[:, None] + lap[None, :])
        root[0, 0] = 1.0  # M's eigenvalue along q is beta
        # each row of Ahat is V^T A_i V scaled, so that A M^-1 A^T = Ahat Ahat^T / beta.
        # A is read by blocks of rows, drawn if the matrix has not drawn its entries,
        # so it never exists whole. A block holds at most one generator step and m^2
        # entries: it, its product with V and the generator's scratch take at most
        # about 1.5 times G and Q below
        m = matrix.m
        At = np.empty((m, side, side))
        block = max(1, min(_STEP_WORDS, m * m) // matrix.k)
        for start in range(0, m, block):
            rows = matrix.rows(start, min(start + block, m))
            np.matmul(V.T, rows.reshape(-1, side, side) @ V, out=At[start:start + len(rows)])
        At /= root
        At = At.reshape(m, side * side)
        G = At @ At.T
        if not np.all(np.isfinite(G)):
            raise CodecError("non-finite-value", "A has a non-finite or huge entry")
        self.lam, Q = np.linalg.eigh(G)
        del G  # the build's peak is At, G and Q
        # At <- Q^T At in place, m columns at a time: each copy is no larger than G was
        for col in range(0, side * side, len(Q)):
            At[:, col:col + len(Q)] = Q.T @ At[:, col:col + len(Q)]
        self.h = At[:, 0].copy()
        if not self.h.any():
            raise CodecError("singular-matrix", "A maps constant images to zero: no unique u-step")
        self.At, self.Q, self.V, self.root = At, Q, V, root

    def weights(self, rho):
        """The u-step's terms in rho = beta/mu: rho, delta = 1/(lam + rho), delta h, h^T delta h."""
        delta = 1.0 / (self.lam + rho)
        return rho, delta, delta * self.h, float(self.h @ (delta * self.h))

    def __call__(self, t, r, rho, delta, dh, hdh):
        """(u^, d) for the minimizer u = V u^ V^T of Q with w + s = t, b + l = Q r; Q d = A u - Q r.

        The last four arguments are self.weights(beta / mu). Two products
        with At and none with A.
        """
        p = (self.V.T @ _grad_t(t) @ self.V) / self.root
        return self._solve(p, self.At @ p.ravel() - r, rho, delta, dh, hdh)

    def start(self, r, rho, delta, dh, hdh):
        """The u-step at t = 0: p = 0 and x = -r, so it takes one product with At."""
        return self._solve(np.zeros(self.root.shape), -r, rho, delta, dh, hdh)

    def _solve(self, p, x, rho, delta, dh, hdh):
        """The u-step from p and x = At p - r: the Woodbury solve and the return to u^."""
        gamma = dh @ x / hdh
        a = delta * x - dh * gamma
        p[0, 0] -= gamma
        return (p - (a @ self.At).reshape(p.shape)) / self.root, rho * a


def solve_tv(matrix: MixingMatrix, b: MeasurementVector, side: int,
             params: SolverParams | None = None) -> SolverResult:
    """Recover a side x side raster u from measurements b = A u by TV minimization.

    The measurements are normalized to unit RMS before iterating and the
    result is scaled back, so the penalty defaults behave identically across
    content scales and the recovery is scale-covariant. All-zero measurements
    return u = 0 at once, counted as one outer iteration.
    """
    params = _params(params)
    if not isinstance(b, MeasurementVector):
        raise CodecError("not-a-measurement-vector",
                         f"solve_tv takes a MeasurementVector, not {type(b).__name__}")
    if not isinstance(side, numbers.Integral) or matrix.k != side * side:
        raise CodecError("shape-mismatch", f"matrix k={matrix.k} vs side {side!r}")
    raw = np.asarray(b.values, dtype=np.float64)
    if raw.shape != (matrix.m,):
        raise CodecError("shape-mismatch", f"b has {raw.shape[0]} values, matrix m={matrix.m}")
    if not raw.any():
        return SolverResult(u=np.zeros((side, side)), outer_iterations=1,
                            final_fidelity=0.0, final_rel_change=0.0, stop_reason="zero-input")
    with np.errstate(over="ignore"):  # an overflow is refused below
        scale = float(np.linalg.norm(raw)) / math.sqrt(matrix.m)
    if not math.isfinite(scale):
        raise CodecError("non-finite-value", "the measurements' norm overflows float64")
    if scale == 0.0:
        scale = 1.0
    if matrix._solver_cache is None:
        matrix._solver_cache = _UStep(matrix, side)
    u_step = matrix._solver_cache
    weights = u_step.weights(params.beta / params.mu)
    V = u_step.V
    bvec = (raw / scale) @ u_step.Q  # b' = Q^T b: r and d live in G's eigenbasis too

    # u^ = V^T u V, the spectral coefficients of u. The warm start is the u-step
    # at w = s = 0, the minimizer of beta/2 |D u|^2 + mu/2 |A u - b|^2, the
    # smoothest image that fits b. d stays 0: starting from the step's own d
    # moved the outer iterations of square seeds 1-3 by one in total
    uhat, _ = u_step.start(bvec, *weights)
    u = V @ uhat @ V.T
    Du = _grad(u)
    # s = nu/beta, the scaled gradient-split multiplier (dx, dy stacked like
    # Du); the measurement multiplier l = lambda/mu is -d of the last u-step
    s = np.zeros((2, side, side))
    d = np.zeros(matrix.m)
    rel_change = 0.0
    stop_reason = "cap"
    for outer in range(1, params.max_outer + 1):
        w = _shrink(Du - s, 1.0 / params.beta)
        # over-relaxation, in place: w <- D u + alpha (w - D u), for the D u just read
        w -= Du
        w *= _ALPHA
        w += Du
        t = w + s
        r = bvec - d  # b + l
        uhat_prev = uhat
        uhat, d = u_step(t, r, *weights)
        if not np.all(np.isfinite(uhat)):
            raise CodecError("non-finite-value",
                             f"solver diverged at outer iteration {outer}; reduce the penalties")
        rel_change = float(np.linalg.norm(uhat - uhat_prev)) \
            / max(float(np.linalg.norm(uhat_prev)), _REL_FLOOR)
        u = V @ uhat @ V.T
        if rel_change < params.outer_tol:
            stop_reason = "tolerance"
            break
        Du = _grad(u)
        s = t - Du  # s - (D u - w)
    return SolverResult(
        u=scale * u,
        outer_iterations=outer,
        final_fidelity=scale * float(np.linalg.norm(r + d - bvec)),
        final_rel_change=rel_change,
        stop_reason=stop_reason,
    )
