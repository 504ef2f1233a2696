"""Independent brute-force oracles.

Everything here is written as plain double loops (or an explicit N x N
difference table for the slow-but-vectorized cases) on top of the math
module, deliberately avoiding the mat-vec identities the package uses, so a
match is evidence and not a tautology.
"""

from __future__ import annotations

import math

import numpy as np


def dist(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def kernel_value(r: float, d: int, s: float, eps: float | None = None) -> float:
    if eps is None:
        return r ** (-(d + 2.0 * s))
    return (r + eps) ** (-(d + 2.0 * s))


def kernel_matrix_loop(grid, s, eps=None, weight=None) -> np.ndarray:
    """Dense kernel matrix times ``weight`` (default: the cell weight), zero diagonal."""
    weight = grid.weight if weight is None else weight
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    out = np.zeros((nn, nn))
    for i in range(nn):
        for j in range(nn):
            if i == j:
                continue
            out[i, j] = kernel_value(dist(pts[i], pts[j]), grid.dim, s, eps) * weight
    return out


class DenseOperator:
    """The kernel-operator interface (apply, row_sums, to_dense) over an
    explicit symmetric matrix, for synthetic weights the lattice has no
    generator for.

    Without a grid, the matrix lives on a 1d grid of unit cell weight.
    """

    is_singular = True

    def __init__(self, weights, grid=None):
        from nlkuramoto import build_grid

        self.weights = np.asarray(weights, dtype=float)
        nn = self.weights.shape[0]
        self.grid = build_grid(1, nn, [(0.0, float(nn))]) if grid is None else grid
        self.row_sums = self.weights.sum(axis=1)

    def apply(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.weights  # symmetric: x W = (W x^T)^T

    def to_dense(self) -> np.ndarray:
        return self.weights.copy()


def rhs_singular_loop(grid, theta, s, kappa) -> np.ndarray:
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    out = np.zeros(nn)
    for i in range(nn):
        acc = 0.0
        for j in range(nn):
            if j == i:
                continue
            k = kernel_value(dist(pts[i], pts[j]), grid.dim, s)
            acc += k * grid.weight * math.sin(theta[j] - theta[i])
        out[i] = kappa * acc
    return out


def rhs_regularized_loop(grid, theta, s, eps, kappa, delta) -> np.ndarray:
    """eps=None evaluates the singular coupling (the zero-truncation flow)."""
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    out = np.zeros(nn)
    for i in range(nn):
        acc = 0.0
        for j in range(nn):
            if j == i:
                continue
            r = dist(pts[i], pts[j])
            acc += kappa * kernel_value(r, grid.dim, s, eps) * grid.weight \
                * math.sin(theta[j] - theta[i])
            acc -= delta * kernel_value(r, grid.dim, s) * grid.weight \
                * (theta[i] - theta[j])
        out[i] = acc
    return out


def rhs_lattice_loop(theta, weights, kappa, nu) -> np.ndarray:
    nn = len(theta)
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (nn,))
    out = np.zeros(nn)
    for i in range(nn):
        acc = 0.0
        for j in range(nn):
            acc += weights[i, j] * math.sin(theta[j] - theta[i])
        out[i] = nu[i] + kappa / nn * acc
    return out


def bilinear_loop(grid, u, v, s) -> float:
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    acc = 0.0
    for i in range(nn):
        for j in range(nn):
            if j == i:
                continue
            k = kernel_value(dist(pts[i], pts[j]), grid.dim, s)
            acc += k * grid.weight * grid.weight * (u[i] - u[j]) * (v[i] - v[j])
    return 0.5 * acc


def double_sum_loop(grid, theta, s, fn, eps=None) -> float:
    """sum_{i != j} k_ij * w^2 * fn(theta_i - theta_j)."""
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    acc = 0.0
    for i in range(nn):
        for j in range(nn):
            if j == i:
                continue
            k = kernel_value(dist(pts[i], pts[j]), grid.dim, s, eps)
            acc += k * grid.weight * grid.weight * fn(theta[i] - theta[j])
    return acc


def seminorm_loop(grid, theta, s) -> float:
    return double_sum_loop(grid, theta, s, lambda z: z * z)


def sin2_loop(grid, theta, s, eps=None) -> float:
    return double_sum_loop(grid, theta, s, lambda z: math.sin(z) ** 2, eps)


def energy_potential_loop(grid, theta, s, kappa, eps=None) -> float:
    # 1 - cos z written as 2 sin^2(z/2), which does not cancel at small z
    return 0.5 * kappa * double_sum_loop(grid, theta, s, lambda z: 2.0 * math.sin(0.5 * z) ** 2,
                                         eps)


def k_sums_loop(grid, s, eps):
    """(k_eps, k_eps_star) by loops; the diagonal is included (finite there)."""
    pts = [tuple(p) for p in grid.coords]
    nn = len(pts)
    best_sq = 0.0
    best = 0.0
    for i in range(nn):
        acc_sq = 0.0
        acc = 0.0
        for j in range(nn):
            k = kernel_value(dist(pts[i], pts[j]), grid.dim, s, eps)
            acc_sq += k * k * grid.weight
            acc += k * grid.weight
        best_sq = max(best_sq, acc_sq)
        best = max(best, acc)
    return best_sq, best


def lambda_star_dense(grid, s) -> float:
    """Smallest nonzero eigenvalue of the loop-assembled nonlocal operator."""
    w = kernel_matrix_loop(grid, s)
    row = w.sum(axis=1)
    op = 2.0 * (np.diag(row) - w)
    evals = np.linalg.eigvalsh(op)
    return float(evals[1])


def rate_table(theta, w_coupling, w_dissipation, kappa, delta) -> np.ndarray:
    """Rate field via an explicit N x N difference table (vectorized oracle)."""
    diff = theta[None, :] - theta[:, None]
    rate = kappa * (w_coupling * np.sin(diff)).sum(axis=1)
    if delta:
        rate += delta * (w_dissipation * diff).sum(axis=1)
    return rate


def euler_reference(theta0, w_coupling, w_dissipation, kappa, delta, dt, n_steps) -> np.ndarray:
    """Forward-Euler integration on the difference-table rates."""
    theta = np.array(theta0, dtype=float)
    for _ in range(n_steps):
        theta = theta + dt * rate_table(theta, w_coupling, w_dissipation, kappa, delta)
    return theta


def two_oscillator_gap(phi0: float, a: float, t: float) -> float:
    """Closed-form phase gap of two oscillators: gap' = -a sin(gap)."""
    return 2.0 * math.atan(math.tan(phi0 / 2.0) * math.exp(-a * t))
