"""Independent brute-force oracles.

Everything here is written as plain double loops (or an explicit N x N
difference table for the slow-but-vectorized cases) on top of the math
module, deliberately avoiding the mat-vec identities the package uses, so a
match is evidence and not a tautology.  The exceptions are the last two
sections: the record formulas one field at a time, which the records must
match bitwise, and the relaxation check one record at a time, which the
relaxation report's column expressions must match bitwise.  Both are
written here in full, scalar by scalar, with the floating-point operations
of the package's column expressions; they borrow no package code, only its
kernel operators' applies and row sums, which the loops above check.
"""

from __future__ import annotations

import math

import numpy as np

from nlkuramoto.errors import GridMismatchError, ParameterError
from nlkuramoto.experiments import RELAXATION_TOL
from nlkuramoto.grid import Grid
from nlkuramoto.kernel import KernelOperator


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


# The snapshot passes the checks made before the records carried these norms:
# each returns one value per snapshot row, by the same expressions, so a record
# must match it bitwise.

def overshoot_series(snapshots, weight) -> tuple[list[float], list[float]]:
    """Squared L2 norms of the overshoot above the first row's max and below
    its min, row by row."""
    k_hi, k_lo = snapshots[0].max(), snapshots[0].min()
    hi = [weight * float(o @ o) for o in (np.maximum(s - k_hi, 0.0) for s in snapshots)]
    lo = [weight * float(u @ u) for u in (np.maximum(k_lo - s, 0.0) for s in snapshots)]
    return hi, lo


def distance_series(snapshots_a, snapshots_b, weight) -> list[float]:
    """L2 distance between two runs' rows at each shared record time."""
    return [math.sqrt(weight * float(d @ d)) for d in map(np.subtract, snapshots_a, snapshots_b)]


def linf_series(snapshots) -> list[float]:
    """Largest |u| of each row."""
    return [float(np.abs(s).max()) for s in snapshots]


# The record formulas one field at a time, as a record evaluates them for
# every member at once: a record must match each bitwise, and the loops above
# check them.

def _field(theta, grid: Grid) -> np.ndarray:
    """``theta`` as floats, one per node of ``grid``; GridMismatchError otherwise."""
    values = np.asarray(theta, dtype=float)
    if values.shape != (grid.node_count,):
        raise GridMismatchError(
            f"field of shape {values.shape} for a grid with {grid.node_count} nodes")
    return values


def _cosine_fields(theta, matrix: KernelOperator, scale: float) -> np.ndarray:
    """Rows a = 1 - cos = 2 sin^2(angle / 2) and s = sin(angle), angle = scale (u - u_0)."""
    values = _field(theta, matrix.grid)
    angle = scale * (values - values.flat[0])
    return np.stack([2.0 * np.sin(0.5 * angle) ** 2, np.sin(angle)])


def _cosine_double_sum(fields, applied, matrix: KernelOperator, factor: float) -> float:
    """factor * w * sum_{ij} W_ij (1 - cos(angle_i - angle_j)), clipped at 0.

    ``applied`` is W times :func:`_cosine_fields` (a, s).  The summand is
    a_i + a_j - a_i a_j - s_i s_j, so the sum is 2 a.r - a.Wa - s.Ws: exactly
    zero for a constant field, and without the cancellation of
    1.W1 - c.Wc - s.Ws at small amplitude.
    """
    (a, s), (wa, ws) = fields, applied
    total = 2.0 * (a @ matrix.row_sums) - a @ wa - s @ ws
    return float(max(0.0, factor * matrix.grid.weight * total))


def _form_value(u: np.ndarray, v: np.ndarray, wv: np.ndarray, matrix: KernelOperator) -> float:
    """The Dirichlet form (1/2) sum_{ij} W_ij w (u_i - u_j)(v_i - v_j), given wv = W v."""
    return float(matrix.grid.weight * ((matrix.row_sums * u) @ v - u @ wv))


def dist_sq_to_mean(theta, grid: Grid) -> float:
    """Squared L2 distance to the field's own mean."""
    values = _field(theta, grid)
    centered = values - grid.weight * values.sum() / grid.measure
    return float(grid.weight * (centered @ centered))


def bilinear_form(u, v, matrix) -> float:
    """Symmetric Dirichlet form (1/2) sum_{ij} W_ij w (u_i-u_j)(v_i-v_j).

    Nonnegative on the diagonal; exactly zero when either argument is
    constant, since both are taken about their first value (the form sees
    differences only).
    """
    uv = _field(u, matrix.grid)
    vv = _field(v, matrix.grid)
    uv = uv - uv.flat[0]
    vv = vv - vv.flat[0]
    return _form_value(uv, vv, matrix.apply(vv), matrix)


def seminorm_sq(theta, matrix) -> float:
    """Squared Gagliardo-type seminorm sum_{ij} W_ij w (u_i - u_j)^2."""
    return 2.0 * bilinear_form(theta, theta, matrix)


def sin2_seminorm(theta, matrix) -> float:
    """Weighted double sum of sin^2 of phase differences.

    Uses sin^2 z = (1 - cos 2z) / 2, the cosine double sum at doubled angles.
    """
    fields = _cosine_fields(theta, matrix, 2.0)
    return _cosine_double_sum(fields, matrix.apply(fields), matrix, 0.5)


def energy_potential(theta, matrix, kappa: float) -> float:
    """(kappa/2) sum_{ij} W_ij w (1 - cos(u_i - u_j)); zero iff constant."""
    fields = _cosine_fields(theta, matrix, 1.0)
    return _cosine_double_sum(fields, matrix.apply(fields), matrix, 0.5 * kappa)


def energy_kinetic(theta, dissipation, delta: float) -> float:
    """(delta/4) times the squared seminorm taken with the singular matrix."""
    if not dissipation.is_singular:
        raise ParameterError("the dissipative energy uses the singular kernel matrix")
    return 0.0 if delta == 0.0 else 0.25 * delta * seminorm_sq(theta, dissipation)


def dual_bound_value(theta, coupling, dissipation, kappa: float, delta: float,
                     m: float) -> float:
    """Computable upper bound for the dual norm of the rate field.

    (kappa/2) * sqrt(sin^2-seminorm with the coupling matrix)
    + (delta/2) * sqrt(squared seminorm with the singular matrix), each term
    left out where its strength is 0, and a negative seminorm read as 0.
    Requires the diameter bound m below pi.
    """
    if m >= math.pi:
        raise ParameterError(f"diameter bound must be below pi, got {m}")
    value = 0.5 * kappa * math.sqrt(sin2_seminorm(theta, coupling)) if kappa != 0.0 else 0.0
    seminorm = seminorm_sq(theta, dissipation)
    clipped = seminorm if seminorm > 0.0 else 0.0
    return value + (0.5 * delta * math.sqrt(clipped) if delta != 0.0 else 0.0)


# The relaxation check one record at a time, in Python floats: the relaxation
# report's column expressions must match it bitwise.

def relaxation_rows(records, rate: float, measure: float):
    """The pointwise relaxation check of ``records`` at the certified ``rate``
    on a domain of ``measure``: the {t, dist_sq, bound} rows, pointwise_ok,
    pointwise_margin and rows_below_floor."""
    dist0 = float(records["dist_sq"][0])
    table, ok, margin, below = [], True, math.inf, 0
    columns = (records[name].tolist() for name in ("t", "dist_sq", "mean", "diameter"))
    for k, (t, dist_sq, mean, diam) in enumerate(zip(*columns)):
        bound = dist0 * math.exp(-rate * t) * (1.0 + RELAXATION_TOL)
        table.append({"t": t, "dist_sq": dist_sq, "bound": bound})
        if bound < measure * (4.0 * np.spacing(abs(mean) + diam)) ** 2:
            below += 1
            continue
        ok = ok and dist_sq <= bound
        if k > 0 and dist_sq > 0.0:
            margin = min(margin, bound / dist_sq)
    return table, ok, 1.0 if math.isinf(margin) else margin, below
