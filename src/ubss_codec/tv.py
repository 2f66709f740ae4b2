"""Separation engine: total-variation recovery of a composite block from its measurements.

solve_tv minimizes isotropic TV(u) subject to A u = b with an augmented
Lagrangian on both the gradient splitting D u = w and the measurement
constraint, alternating three steps per outer iteration:

1. w-step: per-pixel isotropic shrinkage of D u - nu/beta with threshold 1/beta;
2. u-step: max_inner conjugate-gradient steps, from the current u, on the
   quadratic surrogate
   Q(u) = beta/2 ||D u - w - nu/beta||^2 + mu/2 ||A u - b - lambda/mu||^2;
3. multiplier updates nu <- nu - beta (D u - w), lambda <- lambda - mu (A u - b).

forward_diff and divergence_adjoint state D and D^T for any raster as O(HW)
slice stencils. Inside the solver, where a raster is one composite, D is the
1-D forward-difference matrix B of _diff_matrix: _D(u, B) = (u B^T, B u) and
_Dt((gx, gy), B) = gx B + B^T gy; on finite input _D equals forward_diff bit
for bit. Q has the constant, positive semidefinite Hessian
H = beta D^T D + mu A^T A, with D^T D g = g L + L g for L = B^T B, so each
conjugate-gradient step (Hestenes & Stiefel 1952) is an exact line
minimization along its direction p and needs one product H p (two products
with A and two side x side products with L; the last step of a u-step skips
the product with A^T, as its new residual is never read). With the gradient
of Q taken once per outer iteration, an outer iteration makes 2 max_inner
products with A. D u is taken once per outer iteration, for the multiplier
update and the next shrinkage.

The solver is fully deterministic: no randomized steps, fixed summation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CodecError
from .mixing import CompositeBlock, MeasurementVector, MixingMatrix

# Relative-change denominator floor.
_REL_FLOOR = 1e-8
# Smallest positive double: as a floor on |v| it only ever replaces |v| = 0.
_MAG_FLOOR = math.ulp(0.0)


@dataclass
class SolverParams:
    """Knobs of the augmented-Lagrangian TV solver.

    mu and beta weigh the measurement and gradient constraints; the solver
    stops when an outer iteration changes u by less than outer_tol
    (relative) or after max_outer outer iterations, and each outer iteration
    takes max_inner conjugate-gradient steps on the u-subproblem, one
    Hessian-vector product apiece. Defaults are the values the acceptance
    harness runs at; they suit 8-bit scale imagery.
    """

    mu: float = 2.0 ** 8
    beta: float = 2.0 ** 5
    outer_tol: float = 1e-4
    max_outer: int = 300
    max_inner: int = 5

    def __post_init__(self):
        if self.mu <= 0 or self.beta <= 0:
            raise CodecError("invalid-solver-params", "mu and beta must be positive")
        if self.outer_tol <= 0:
            raise CodecError("invalid-solver-params", "outer_tol must be positive")
        if self.max_outer < 1 or self.max_inner < 0:
            raise CodecError("invalid-solver-params", "iteration caps out of range")


@dataclass
class GradientField:
    """Per-pixel discrete gradient (dx, dy), same shape as the image."""

    dx: np.ndarray
    dy: np.ndarray

    def __post_init__(self):
        self.dx = np.asarray(self.dx, dtype=np.float64)
        self.dy = np.asarray(self.dy, dtype=np.float64)
        if self.dx.shape != self.dy.shape:
            raise CodecError("shape-mismatch", f"dx {self.dx.shape} vs dy {self.dy.shape}")


@dataclass
class SolverResult:
    u: np.ndarray
    outer_iterations: int
    final_fidelity: float
    final_rel_change: float


def _diff_matrix(n: int) -> np.ndarray:
    """The n x n forward-difference matrix B: (B x)_i = x_(i+1) - x_i, last row 0."""
    B = np.eye(n, k=1) - np.eye(n)
    B[-1, -1] = 0.0
    return B


def _D(u, B):
    """D u of a square raster as the stacked field (dx, dy), with B = _diff_matrix(side).

    Each entry sums one +1 and one -1 term with exact zeros, so on finite
    input it equals forward_diff bit for bit.
    """
    return np.stack((u @ B.T, B @ u))


def _Dt(r, B):
    """D^T of the stacked field r = (rx, ry), the matrix form of divergence_adjoint."""
    return r[0] @ B + B.T @ r[1]


def forward_diff(u: np.ndarray) -> GradientField:
    """Forward differences with replicate boundary (last column/row slopes are 0)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise CodecError("shape-mismatch", f"expected nonempty 2-D raster, got {u.shape}")
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = u[:, 1:] - u[:, :-1]
    dy[:-1, :] = u[1:, :] - u[:-1, :]
    return GradientField(dx=dx, dy=dy)


def divergence_adjoint(g: GradientField) -> np.ndarray:
    """Adjoint of forward_diff: the raster v with <D u, g> = <u, v> for all u.

    Equals the negative divergence of g under the replicate boundary; the dead
    last column of dx / last row of dy never contribute.
    """
    out = np.zeros_like(g.dx)
    out[:, :-1] -= g.dx[:, :-1]
    out[:, 1:] += g.dx[:, :-1]
    out[:-1, :] -= g.dy[:-1, :]
    out[1:, :] += g.dy[:-1, :]
    return out


def _shrink(v, t):
    """Isotropic shrinkage of the stacked field v = (vx, vy) with threshold t."""
    mag = np.hypot(v[0], v[1])
    return v * (np.maximum(mag - t, 0.0) / np.maximum(mag, _MAG_FLOOR))


def shrink2(v: GradientField, t: float) -> GradientField:
    """Isotropic two-vector shrinkage: w = max(|v| - t, 0) * v/|v|, 0 at |v| = 0."""
    if t < 0:
        raise CodecError("negative-threshold", f"t={t}")
    w = _shrink(np.stack((v.dx, v.dy)), t)
    return GradientField(dx=w[0], dy=w[1])


def tv_norm(u: np.ndarray) -> float:
    """Isotropic total variation: sum over pixels of the gradient magnitude."""
    g = forward_diff(u)
    return float(np.hypot(g.dx, g.dy).sum())


def _hessian_terms(A, beta_L, g):
    """(A g, beta D^T D g) for a square raster g, with beta_L = beta B^T B.

    They give the surrogate's Hessian-vector product
    H g = beta D^T D g + mu A^T (A g), and its curvature
    g^T H g = <g, beta D^T D g> + mu |A g|^2 without the product with A^T.
    """
    return A @ g.ravel(), g @ beta_L + beta_L @ g


def _minimize_surrogate(A, beta_L, mu, u, Au, grad, max_inner):
    """max_inner conjugate-gradient steps on Q from u, whose gradient is `grad`.

    Each step moves u and A u along p by the exact minimizer
    alpha = |r|^2 / p^T H p, where r = -grad Q(u); in exact arithmetic the
    iterates minimize Q over the Krylov space of H and r, and Q never rises.
    """
    r = -grad
    p = r
    rr = float(np.vdot(r, r))
    for step in range(max_inner):
        Ap, DtDp = _hessian_terms(A, beta_L, p)
        curv = float(np.vdot(p, DtDp)) + mu * float(np.vdot(Ap, Ap))
        if curv <= 0.0:  # p = 0 (u minimizes Q), or H p = 0
            break
        alpha = rr / curv
        u = u + alpha * p
        Au = Au + alpha * Ap
        if step + 1 < max_inner:
            r = r - alpha * (DtDp + mu * (Ap @ A).reshape(p.shape))
            rr, rr_prev = float(np.vdot(r, r)), rr
            p = r + (rr / rr_prev) * p
    return u, Au


def solve_tv(matrix: MixingMatrix, b: MeasurementVector, side: int,
             params: SolverParams | None = None) -> SolverResult:
    """Recover a side x side raster u from measurements b = A u by TV minimization.

    The measurements are normalized to unit RMS before iterating and the
    result is scaled back, so the penalty defaults behave identically across
    content scales and the recovery is scale-covariant. All-zero measurements
    return u = 0 at once, counted as one outer iteration.
    """
    params = params if params is not None else SolverParams()
    A = matrix.entries
    if matrix.k != side * side:
        raise CodecError("shape-mismatch", f"matrix k={matrix.k} vs side {side}")
    raw = np.asarray(b.values, dtype=np.float64)
    if raw.shape != (matrix.m,):
        raise CodecError("shape-mismatch", f"b has {raw.shape[0]} values, matrix m={matrix.m}")
    if not raw.any():
        return SolverResult(u=np.zeros((side, side)), outer_iterations=1,
                            final_fidelity=0.0, final_rel_change=0.0)
    mu, beta = params.mu, params.beta

    scale = float(np.linalg.norm(raw)) / math.sqrt(matrix.m)
    if scale == 0.0:
        scale = 1.0
    bvec = raw / scale

    B = _diff_matrix(side)
    beta_L = beta * (B.T @ B)
    u = (bvec @ A).reshape(side, side)
    Au = A @ u.ravel()
    Du = _D(u, B)
    # Lagrange multipliers, scaled: s = nu/beta for the gradient split (dx, dy
    # stacked like Du), l = lambda/mu for the measurements
    s = np.zeros((2, side, side))
    l = np.zeros(matrix.m)
    rel_change = 0.0
    outer = 0
    for outer in range(1, params.max_outer + 1):
        v = Du - s
        w = _shrink(v, 1.0 / beta)
        # residuals of the surrogate: D u - (w + s), A u - (b + l)
        r = v - w
        rb = Au - bvec - l
        grad = beta * _Dt(r, B) + mu * (rb @ A).reshape(side, side)
        u_prev = u
        u, Au = _minimize_surrogate(A, beta_L, mu, u, Au, grad, params.max_inner)
        if not np.all(np.isfinite(u)):
            raise CodecError("non-finite-value",
                             f"solver diverged at outer iteration {outer}; reduce step or penalties")
        rel_change = float(np.linalg.norm(u - u_prev)) \
            / max(float(np.linalg.norm(u_prev)), _REL_FLOOR)
        if rel_change < params.outer_tol:
            break
        Du = _D(u, B)
        s = s - (Du - w)
        l = l - (Au - bvec)
    return SolverResult(
        u=scale * u,
        outer_iterations=outer,
        final_fidelity=scale * float(np.linalg.norm(Au - bvec)),
        final_rel_change=rel_change,
    )


def decode_composite(matrix: MixingMatrix, b: MeasurementVector, side: int,
                     params: SolverParams | None = None) -> CompositeBlock:
    """Recover a composite block; residual-domain values are left unclamped."""
    result = solve_tv(matrix, b, side, params)
    return CompositeBlock(side=side, values=result.u, grid_position=b.grid_position)
