"""Separation engine: total-variation recovery of a composite block from its measurements.

solve_tv minimizes isotropic TV(u) subject to A u = b with an augmented
Lagrangian on both the gradient splitting D u = w and the measurement
constraint (TVAL3; Li, Yin & Zhang 2013), alternating three steps per outer
iteration:

1. w-step: per-pixel isotropic shrinkage of D u - nu/beta with threshold 1/beta;
2. u-step: the exact minimizer of the quadratic surrogate
   Q(u) = beta/2 ||D u - w - nu/beta||^2 + mu/2 ||A u - b - lambda/mu||^2;
3. multiplier updates nu <- nu - beta (D u - w), lambda <- lambda - mu (A u - b).

D and D^T are the slice stencils _grad and _grad_t, public as forward_diff and divergence_adjoint.

The u-step solves H u = beta D^T (w + nu/beta) + mu A^T (b + lambda/mu) with
H = beta D^T D + mu A^T A. Since D^T D u = u L + L u for L the 1-D Neumann
Laplacian, L's eigenbasis V, the DCT-II basis in closed form, diagonalizes
D^T D (as the FFT does under a periodic boundary in FTVd; Wang, Yang, Yin &
Zhang 2008). Its null space is the constant unit image q, so
M = beta D^T D + gamma q q^T is invertible, and M^-1 costs four side x side
products and a divide. H is M plus a correction of rank m + 1, H = M + U^T C U
with U = [A; q^T] and C = diag(mu I, -gamma), so by the Woodbury identity

    u = z - M^-1 U^T y,  z = M^-1 rhs,  y = S^-1 U z,  S = C^-1 + U M^-1 U^T,

and U u = C^-1 y gives A u = y[:m] / mu with no product with A. S^-1 is
(m+1) x (m+1) and depends only on A, side, beta and mu, so solve_tv builds
it (_UStep) on the first solve with a matrix and penalties and caches it on
the MixingMatrix; an outer iteration then makes three products with A. D u
is taken once per outer iteration, for the multiplier update and the next
shrinkage.

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
    (relative) or after max_outer outer iterations. Each outer iteration
    solves its u-subproblem exactly, so max_inner has no effect: it is still
    accepted, and must not be negative, so that callers written for the
    earlier iterative u-step keep working. Defaults are the values the
    acceptance harness runs at; they suit 8-bit scale imagery.
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
    """D^T of the stacked field g = (gx, gy), the negative divergence: see divergence_adjoint."""
    dx, dy = g[0, :, :-1], g[1, :-1]
    out = np.zeros(g.shape[1:])
    out[:, :-1] -= dx
    out[:, 1:] += dx
    out[:-1] -= dy
    out[1:] += dy
    return out


def forward_diff(u: np.ndarray) -> GradientField:
    """Forward differences with replicate boundary (last column/row slopes are 0)."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.size == 0:
        raise CodecError("shape-mismatch", f"expected nonempty 2-D raster, got {u.shape}")
    g = _grad(u)
    return GradientField(dx=g[0], dy=g[1])


def divergence_adjoint(g: GradientField) -> np.ndarray:
    """Adjoint of forward_diff: the raster v with <D u, g> = <u, v> for all u.

    Equals the negative divergence of g under the replicate boundary; the dead
    last column of dx / last row of dy never contribute.
    """
    return _grad_t(np.stack((g.dx, g.dy)))


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


class _UStep:
    """The exact u-step for one matrix A, side, beta and mu: H^-1 by the Woodbury identity.

    Holds V (L's closed-form DCT-II eigenbasis, with V[:, 0] = 1/sqrt(side) and
    its eigenvalue 0 exact), eig (M's eigenvalues in the basis V (x) V, gamma =
    beta along q) and S^-1, which takes (m+1)^2 float64; it refers to A but
    keeps no copy of it and no other m x k array.
    """

    def __init__(self, A, side, beta, mu):
        j = np.arange(side)
        V = math.sqrt(2 / side) * np.cos(np.pi * np.outer(j + 0.5, j) / side)
        V[:, 0] = side ** -0.5
        lam = 2 - 2 * np.cos(np.pi * j / side)
        eig = beta * (lam[:, None] + lam[None, :])
        eig[0, 0] = beta  # gamma, M's eigenvalue along q
        m = len(A)
        # A_hat = A (V (x) V) eig^(-1/2), the one m x k transient, so that
        # A M^-1 A^T = A_hat A_hat^T; each row is V^T A_i V scaled
        Ahat = A.reshape(m, side, side) @ V
        for row in Ahat:
            row[...] = V.T @ row
        Ahat /= np.sqrt(eig)
        Ahat = Ahat.reshape(m, side * side)
        S = np.empty((m + 1, m + 1))
        S[:m, :m] = Ahat @ Ahat.T
        S[np.diag_indices(m)] += 1.0 / mu
        # A M^-1 q = A q / gamma, q being the first image of the basis V (x) V
        S[:m, m] = S[m, :m] = Ahat[:, 0] / math.sqrt(beta)
        S[m, m] = 0.0  # -1/gamma + q^T M^-1 q
        del Ahat
        try:
            self.S_inv = np.linalg.inv(S)
        except np.linalg.LinAlgError:
            raise CodecError("singular-matrix", "A maps the constant image to zero: "
                             "the u-step has no unique solution") from None
        self.A, self.V, self.eig, self.mu = A, V, eig, mu

    def _m_inv(self, x):
        """M^-1 x for a side x side raster x."""
        V = self.V
        return V @ ((V.T @ x @ V) / self.eig) @ V.T

    def __call__(self, rhs):
        """(u, A u) for the minimizer u of Q, H u = rhs: three products with A."""
        A, side, m = self.A, len(rhs), len(self.A)
        z = self._m_inv(rhs)
        y = self.S_inv @ np.append(A @ z.ravel(), z.sum() / side)
        u = z - self._m_inv((y[:m] @ A).reshape(side, side) + y[m] / side)
        return u, y[:m] / self.mu


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
                            final_fidelity=0.0, final_rel_change=0.0, stop_reason="zero-input")
    mu, beta = params.mu, params.beta
    cache = matrix._solver_cache
    if (beta, mu) not in cache:
        cache[beta, mu] = _UStep(A, side, beta, mu)
    u_step = cache[beta, mu]

    scale = float(np.linalg.norm(raw)) / math.sqrt(matrix.m)
    if scale == 0.0:
        scale = 1.0
    bvec = raw / scale

    u = (bvec @ A).reshape(side, side)
    Du = _grad(u)
    # Lagrange multipliers, scaled: s = nu/beta for the gradient split (dx, dy
    # stacked like Du), l = lambda/mu for the measurements
    s = np.zeros((2, side, side))
    l = np.zeros(matrix.m)
    rel_change = 0.0
    stop_reason = "cap"
    for outer in range(1, params.max_outer + 1):
        w = _shrink(Du - s, 1.0 / beta)
        u_prev = u
        u, Au = u_step(beta * _grad_t(w + s) + mu * ((bvec + l) @ A).reshape(side, side))
        if not np.all(np.isfinite(u)):
            raise CodecError("non-finite-value",
                             f"solver diverged at outer iteration {outer}; reduce the penalties")
        rel_change = float(np.linalg.norm(u - u_prev)) \
            / max(float(np.linalg.norm(u_prev)), _REL_FLOOR)
        if rel_change < params.outer_tol:
            stop_reason = "tolerance"
            break
        Du = _grad(u)
        s = s - (Du - w)
        l = l - (Au - bvec)
    return SolverResult(
        u=scale * u,
        outer_iterations=outer,
        final_fidelity=scale * float(np.linalg.norm(Au - bvec)),
        final_rel_change=rel_change,
        stop_reason=stop_reason,
    )


def decode_composite(matrix: MixingMatrix, b: MeasurementVector, side: int,
                     params: SolverParams | None = None) -> CompositeBlock:
    """Recover a composite block; residual-domain values are left unclamped."""
    result = solve_tv(matrix, b, side, params)
    return CompositeBlock(side=side, values=result.u, grid_position=b.grid_position)
