"""Separation engine: total-variation recovery of a composite block from its measurements.

solve_tv minimizes isotropic TV(u) subject to A u = b with an augmented
Lagrangian on both the gradient splitting D u = w and the measurement
constraint, alternating three steps per outer iteration:

1. w-step: per-pixel isotropic shrinkage of D u - nu/beta with threshold 1/beta;
2. u-step: a few Barzilai-Borwein gradient steps with a nonmonotone Armijo
   safeguard on the quadratic surrogate
   Q(u) = beta/2 ||D u - w - nu/beta||^2 + mu/2 ||A u - b - lambda/mu||^2;
3. multiplier updates nu <- nu - beta (D u - w), lambda <- lambda - mu (A u - b).

Because Q is quadratic, its value along the descent ray is evaluated in closed
form and the residuals are updated incrementally, so each inner step costs two
matrix products regardless of how often the safeguard backtracks.

The solver is fully deterministic: no randomized steps, fixed summation order.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CodecError
from .mixing import CompositeBlock, MeasurementVector, MixingMatrix

# Relative-change denominator floor, Armijo slope factor, nonmonotone window
# and backtracking limits for the u-subproblem.
_REL_FLOOR = 1e-8
_ARMIJO_C = 1e-4
_NONMONOTONE_WINDOW = 5
_MAX_BACKTRACKS = 30
_ALPHA_MIN = 1e-14
_ALPHA_MAX = 1e14


@dataclass
class SolverParams:
    """Knobs of the augmented-Lagrangian TV solver.

    Defaults are the values the acceptance harness runs at; they suit 8-bit
    scale imagery.
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


def _dxdy(u):
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dx[:, :-1] = u[:, 1:]
    dx[:, :-1] -= u[:, :-1]
    dy[:-1, :] = u[1:, :]
    dy[:-1, :] -= u[:-1, :]
    return dx, dy


def _dadj(gx, gy):
    out = np.zeros_like(gx)
    out[:, :-1] -= gx[:, :-1]
    out[:, 1:] += gx[:, :-1]
    out[:-1, :] -= gy[:-1, :]
    out[1:, :] += gy[:-1, :]
    return out


def forward_diff(u: np.ndarray) -> GradientField:
    """Forward differences with replicate boundary (last column/row slopes are 0)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise CodecError("shape-mismatch", f"expected nonempty 2-D raster, got {u.shape}")
    dx, dy = _dxdy(u)
    return GradientField(dx=dx, dy=dy)


def divergence_adjoint(g: GradientField) -> np.ndarray:
    """Adjoint of forward_diff: the raster v with <D u, g> = <u, v> for all u.

    Equals the negative divergence of g under the replicate boundary; the dead
    last column of dx / last row of dy never contribute.
    """
    return _dadj(g.dx, g.dy)


def _shrink(vx, vy, t):
    mag = np.hypot(vx, vy)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.maximum(mag - t, 0.0) / mag
    scale[mag == 0.0] = 0.0
    return vx * scale, vy * scale


def shrink2(v: GradientField, t: float) -> GradientField:
    """Isotropic two-vector shrinkage: w = max(|v| - t, 0) * v/|v|, 0 at |v| = 0."""
    if t < 0:
        raise CodecError("negative-threshold", f"t={t}")
    dx, dy = _shrink(v.dx, v.dy, t)
    return GradientField(dx=dx, dy=dy)


def tv_norm(u: np.ndarray) -> float:
    """Isotropic total variation: sum over pixels of the gradient magnitude."""
    g = forward_diff(u)
    return float(np.hypot(g.dx, g.dy).sum())


def _minimize_surrogate(A, At, u, Au, rx, ry, rb, mu, beta, max_inner, carry):
    """Barzilai-Borwein descent with a nonmonotone Armijo safeguard on Q(u).

    Operates on the residuals rx = Dx u - cx, ry = Dy u - cy, rb = A u - cb and
    updates them incrementally. `carry` is the (grad norm^2, curvature) pair of
    the last accepted step; the surrogate's Hessian never changes between
    outer iterations, so the Barzilai-Borwein ratio it encodes stays valid
    across calls.
    """
    q = 0.5 * beta * (float(np.vdot(rx, rx)) + float(np.vdot(ry, ry))) \
        + 0.5 * mu * float(np.vdot(rb, rb))
    grad = beta * _dadj(rx, ry) + mu * (At @ rb).reshape(u.shape)
    history = deque([q], maxlen=_NONMONOTONE_WINDOW)
    prev_gnorm2, prev_curv = carry

    for _ in range(max_inner):
        gnorm2 = float(np.vdot(grad, grad))
        if gnorm2 == 0.0:
            break
        Ag = A @ grad.ravel()
        dgx, dgy = _dxdy(grad)
        curv = beta * (float(np.vdot(dgx, dgx)) + float(np.vdot(dgy, dgy))) \
            + mu * float(np.vdot(Ag, Ag))
        if curv <= 0.0:
            break
        if prev_gnorm2 is not None:
            alpha = prev_gnorm2 / prev_curv  # Barzilai-Borwein: s^T s / s^T y
        else:
            alpha = gnorm2 / curv  # exact minimizer along -grad for the first move
        alpha = min(max(alpha, _ALPHA_MIN), _ALPHA_MAX)

        # Q along the ray is the exact quadratic q - a*|g|^2 + a^2/2 * g^T H g
        q_ref = max(history)
        accepted = False
        for _bt in range(_MAX_BACKTRACKS):
            q_t = q - alpha * gnorm2 + 0.5 * alpha * alpha * curv
            if q_t <= q_ref - _ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        u = u - alpha * grad
        Au = Au - alpha * Ag
        rx = rx - alpha * dgx
        ry = ry - alpha * dgy
        rb = rb - alpha * Ag
        grad = grad - alpha * (beta * _dadj(dgx, dgy)
                               + mu * (At @ Ag).reshape(u.shape))
        q = q_t
        prev_gnorm2, prev_curv = gnorm2, curv
        history.append(q)
    return u, Au, rx, ry, (prev_gnorm2, prev_curv)


def solve_tv(matrix: MixingMatrix, b: MeasurementVector, side: int,
             params: SolverParams | None = None) -> SolverResult:
    """Recover a side x side raster u from measurements b = A u by TV minimization.

    The measurements are normalized to unit RMS before iterating and the
    result is scaled back, so the penalty defaults behave identically across
    content scales and the recovery is scale-covariant.
    """
    params = params if params is not None else SolverParams()
    A = matrix.entries
    if matrix.k != side * side:
        raise CodecError("shape-mismatch", f"matrix k={matrix.k} vs side {side}")
    raw = np.asarray(b.values, dtype=np.float64)
    if raw.shape != (matrix.m,):
        raise CodecError("shape-mismatch", f"b has {raw.shape[0]} values, matrix m={matrix.m}")
    mu, beta = params.mu, params.beta

    scale = float(np.linalg.norm(raw)) / math.sqrt(matrix.m)
    if scale == 0.0:
        scale = 1.0
    bvec = raw / scale

    At = A.T
    u = (At @ bvec).reshape(side, side)
    Au = A @ u.ravel()
    # Lagrange multipliers: nu for the gradient split, lam for the measurements
    nux = np.zeros((side, side))
    nuy = np.zeros((side, side))
    lam = np.zeros(matrix.m)
    rel_change = 0.0
    outer = 0
    carry = (None, None)
    for outer in range(1, params.max_outer + 1):
        dx, dy = _dxdy(u)
        wx, wy = _shrink(dx - nux / beta, dy - nuy / beta, 1.0 / beta)
        # residuals of the surrogate: D u - (w + nu/beta), A u - (b + lam/mu)
        rx = dx - wx - nux / beta
        ry = dy - wy - nuy / beta
        rb = Au - bvec - lam / mu
        u_prev = u
        u, Au, rx, ry, carry = _minimize_surrogate(
            A, At, u, Au, rx, ry, rb, mu, beta, params.max_inner, carry)
        if not np.all(np.isfinite(u)):
            raise CodecError("non-finite-value",
                             f"solver diverged at outer iteration {outer}; reduce step or penalties")
        rel_change = float(np.linalg.norm(u - u_prev)) \
            / max(float(np.linalg.norm(u_prev)), _REL_FLOOR)
        # rx tracks D u - w - nu/beta, so nu - beta (D u - w) collapses to -beta rx
        nux, nuy = -beta * rx, -beta * ry
        lam = lam - mu * (Au - bvec)
        if rel_change < params.outer_tol:
            break
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
