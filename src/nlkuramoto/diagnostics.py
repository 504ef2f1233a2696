"""Observables tracked along trajectories.

Diameter, mean phase, potential and dissipative energies, Gagliardo-type
seminorms, uniform-bound checks, the computable dual-norm bound, the sharp
discrete Poincare constant, and decay-rate fits.  All functions are pure and
operate on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_field, _values_and_grid, bilinear_form
from .errors import IterationError, ParameterError
from .grid import Grid
from .kernel import KernelOperator


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-instant observables of one run.

    ``e_pot`` uses whichever coupling matrix the run evolves with; ``e_kin``
    and ``seminorm_sq`` always use the singular matrix.  ``dual_bound`` is the
    computable upper bound for the dual norm of the rate field (NaN when the
    initial diameter is not below pi, where the bound has no meaning).
    """

    t: float
    mean: float
    diameter: float
    e_pot: float
    e_kin: float
    seminorm_sq: float
    dist_sq: float
    dissipation_cum: float
    dual_bound: float


def diameter(theta) -> float:
    """max - min over nodes (the discrete essential diameter)."""
    values, _ = _values_and_grid(theta, None)
    if values.size == 0:
        raise ParameterError("diameter of an empty field is undefined")
    return float(values.max() - values.min())


def mean_phase(theta, grid: Grid) -> float:
    """Quadrature-weighted average phase over the domain."""
    values, fgrid = _values_and_grid(theta, grid)
    _check_field(values, grid, fgrid)
    return float(grid.weight * values.sum() / grid.measure)


def dist_sq_to_mean(theta, grid: Grid) -> float:
    """Squared L2 distance to the field's own mean."""
    values, fgrid = _values_and_grid(theta, grid)
    _check_field(values, grid, fgrid)
    centered = values - grid.weight * values.sum() / grid.measure
    return float(grid.weight * (centered @ centered))


def seminorm_sq(theta, matrix: KernelOperator) -> float:
    """Squared Gagliardo-type seminorm sum_{ij} W_ij w (u_i - u_j)^2."""
    return 2.0 * bilinear_form(theta, theta, matrix)


def _cosine_double_sum(theta, matrix: KernelOperator, scale: float) -> float:
    """sum_{ij} W_ij (1 - cos(scale * (u_i - u_j))) via one batched apply.

    Angles are shifted by a base value first (an exact identity).  With
    a = 1 - cos = 2 sin^2(angle / 2) and s = sin(angle), the summand is
    a_i + a_j - a_i a_j - s_i s_j, so the sum is 2 a.r - a.Wa - s.Ws: exactly
    zero for a constant field, and without the cancellation of
    1.W1 - c.Wc - s.Ws at small amplitude.
    """
    values, fgrid = _values_and_grid(theta, matrix.grid)
    _check_field(values, matrix.grid, fgrid)
    angle = scale * (values - values.flat[0])
    a_s = np.stack([2.0 * np.sin(0.5 * angle) ** 2, np.sin(angle)])
    wa, ws = matrix.apply(a_s)
    a, s = a_s
    return 2.0 * (a @ matrix.row_sums) - a @ wa - s @ ws


def sin2_seminorm(theta, matrix: KernelOperator) -> float:
    """Weighted double sum of sin^2 of phase differences.

    Uses sin^2 z = (1 - cos 2z) / 2, the cosine double sum at doubled angles.
    """
    total = _cosine_double_sum(theta, matrix, 2.0)
    return float(max(0.0, 0.5 * matrix.grid.weight * total))


def energy_potential(theta, matrix: KernelOperator, kappa: float) -> float:
    """(kappa/2) sum_{ij} W_ij w (1 - cos(u_i - u_j)); zero iff constant."""
    total = _cosine_double_sum(theta, matrix, 1.0)
    return float(max(0.0, 0.5 * kappa * matrix.grid.weight * total))


def _kinetic_from_seminorm(seminorm: float, delta: float) -> float:
    return 0.0 if delta == 0.0 else 0.25 * delta * seminorm


def energy_kinetic(theta, dissipation: KernelOperator, delta: float) -> float:
    """(delta/4) times the squared seminorm taken with the singular matrix."""
    if not dissipation.is_singular:
        raise ParameterError("the dissipative energy uses the singular kernel matrix")
    return _kinetic_from_seminorm(seminorm_sq(theta, dissipation), delta)


def min_sinc(m: float) -> float:
    """Lower bound of sin(z)/z over |z| <= m, in (0, 1]; m = 0 gives 1."""
    if m < 0.0 or m >= math.pi:
        raise ParameterError(f"diameter bound must lie in [0, pi), got {m}")
    if m == 0.0:
        return 1.0
    return math.sin(m) / m


def dual_bound_value(theta, coupling: KernelOperator, dissipation: KernelOperator,
                     kappa: float, delta: float, m: float) -> float:
    """Computable upper bound for the dual norm of the rate field.

    (kappa/2) * sqrt(sin^2-seminorm with the coupling matrix)
    + (delta/2) * sqrt(squared seminorm with the singular matrix).
    Requires the diameter bound m below pi.
    """
    if m >= math.pi:
        raise ParameterError(f"diameter bound must be below pi, got {m}")
    return _dual_bound(theta, coupling, kappa, delta, seminorm_sq(theta, dissipation))


def _dual_bound(theta, coupling: KernelOperator, kappa: float, delta: float,
                seminorm: float) -> float:
    """dual_bound_value given the squared seminorm with the singular matrix."""
    value = 0.0
    if kappa != 0.0:
        value += 0.5 * kappa * math.sqrt(sin2_seminorm(theta, coupling))
    if delta != 0.0:
        value += 0.5 * delta * math.sqrt(max(0.0, seminorm))
    return value


def energy_identity_residual(trajectory) -> float:
    """Worst absolute defect of E_pot + E_kin + dissipated = E(0) over records."""
    records = trajectory.records
    e0 = records[0].e_pot + records[0].e_kin
    return max(abs(r.e_pot + r.e_kin + r.dissipation_cum - e0) for r in records)


@dataclass(frozen=True)
class BoundCheck:
    """One row of the uniform-bound report.

    ``satisfied`` is None for rows whose preconditions do not hold; ``reason``
    then says why the row was skipped.
    """

    name: str
    lhs: float | None
    rhs: float | None
    satisfied: bool | None
    reason: str = ""


_REL_SLACK = 1e-9
_ABS_SLACK = 1e-12


def _holds(lhs: float, rhs: float) -> bool:
    return lhs <= rhs * (1.0 + _REL_SLACK) + _ABS_SLACK


def uniform_bound_report(trajectory, coupling: KernelOperator, dissipation: KernelOperator,
                         kappa: float, delta: float) -> list[BoundCheck]:
    """Evaluate the uniform a priori bounds at every recorded instant.

    Right-hand sides are built from the initial data's squared seminorm (with
    the singular matrix).  Inapplicable rows are returned as skipped with the
    reason; applicable rows must come back satisfied.
    """
    records = trajectory.records
    seminorm0 = records[0].seminorm_sq
    m0 = records[0].diameter
    worst_seminorm = max(r.seminorm_sq for r in records)
    rows = []

    if delta > 0.0:
        rhs = (kappa + delta) / delta * seminorm0
        rows.append(BoundCheck("seminorm-dissipation-bound", worst_seminorm, rhs,
                               _holds(worst_seminorm, rhs)))
    else:
        rows.append(BoundCheck("seminorm-dissipation-bound", None, None, None,
                               "needs positive dissipation strength"))

    if kappa > 0.0 and m0 < math.pi and coupling.is_singular:
        factor = 1.0 if m0 == 0.0 else (m0 / math.sin(m0)) ** 2
        rhs = factor * (kappa + delta) / kappa * seminorm0
        rows.append(BoundCheck("seminorm-sinc-bound", worst_seminorm, rhs,
                               _holds(worst_seminorm, rhs)))
    else:
        reason = ("needs positive coupling strength" if kappa <= 0.0
                  else "needs initial diameter below pi" if m0 >= math.pi
                  else "needs the singular coupling kernel")
        rows.append(BoundCheck("seminorm-sinc-bound", None, None, None, reason))

    rhs = 0.25 * kappa * seminorm0
    rows.append(BoundCheck("initial-potential-energy", records[0].e_pot, rhs,
                           _holds(records[0].e_pot, rhs)))

    if kappa > 0.0:
        worst_sin2 = max(sin2_seminorm(snap.values, coupling) for snap in trajectory.snapshots)
        rhs = (kappa + delta) / kappa * seminorm0
        rows.append(BoundCheck("sin2-seminorm-bound", worst_sin2, rhs,
                               _holds(worst_sin2, rhs)))
    else:
        rows.append(BoundCheck("sin2-seminorm-bound", None, None, None,
                               "needs positive coupling strength"))
    return rows


def poincare_sharp_discrete(matrix: KernelOperator, tol: float = 1e-11,
                            max_iter: int = 5000) -> float:
    """Sharp discrete Poincare constant lambda_star.

    The smallest ratio seminorm_sq(u) / ||u||_L2^2 over mean-zero fields: the
    smallest nonzero eigenvalue of B = 2 (diag(row sums) - W), whose kernel
    is the constants.  The reciprocal never exceeds the constructive domain
    constant.

    Matrix-free inverse iteration on the mean-zero subspace: B is applied only
    through ``matrix.apply``, and each step solves B x = v inexactly by
    conjugate gradients, warm-started at v / lam and stopped once its residual
    falls to a tenth of the starting one, ||B v - lam v|| / lam (or after N
    iterations).  Convergence is judged on the true residual
    ||B v - lam v|| <= tol * lam; IterationError reports it after ``max_iter``
    steps.
    """
    nn = matrix.grid.node_count
    two_rows = 2.0 * matrix.row_sums

    def apply_b(x):
        return two_rows * x - 2.0 * matrix.apply(x)

    def rayleigh(v):
        bv = apply_b(v)
        lam = float(v @ bv)
        return bv, lam, float(np.linalg.norm(bv - lam * v))

    rng = np.random.default_rng(0)
    v = rng.standard_normal(nn)
    v -= v.mean()
    v /= np.linalg.norm(v)
    bv, lam, residual = rayleigh(v)
    for _ in range(max_iter):
        # conjugate gradients on B x = v, warm-started at v / lam
        x = v / lam
        r = v - bv / lam
        p = r.copy()
        rr = float(r @ r)
        stop = (0.1 * residual / lam) ** 2
        for _ in range(nn):
            if rr <= stop:
                break
            bp = apply_b(p)
            alpha = rr / float(p @ bp)
            x += alpha * p
            r -= alpha * bp
            rr, rr_old = float(r @ r), rr
            p = r + (rr / rr_old) * p
        x -= x.mean()
        v = x / np.linalg.norm(x)
        bv, lam, residual = rayleigh(v)
        if residual <= tol * max(lam, 1e-300):
            return lam
    raise IterationError(
        f"inverse iteration did not converge in {max_iter} steps "
        f"(residual {residual:.3e}, estimate {lam:.6e})",
        residual=residual,
    )


def fit_decay_rate(times, dist_sq, transient_fraction: float = 0.1,
                   floor: float = 1e-28) -> tuple[float, float]:
    """Least-squares decay exponent of a squared-distance series.

    Fits -log(dist_sq) against t over the window after the initial transient
    (first ``transient_fraction`` of the horizon), truncating at the first
    value at or below ``floor``.  Returns the fitted rate and the RMS residual
    of the linear fit.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(dist_sq, dtype=float)
    if t.shape != d.shape or t.ndim != 1 or t.size < 2:
        raise ParameterError("need matching 1d series with at least two points")

    below = np.nonzero(d <= floor)[0]
    if below.size:
        t, d = t[: below[0]], d[: below[0]]
    keep = t >= transient_fraction * t[-1] if t.size else np.array([], dtype=bool)
    t, d = t[keep], d[keep]
    if t.size < 2:
        raise ParameterError("fit window has fewer than two usable points")
    if np.any(d <= 0.0):
        raise ParameterError("fit window contains nonpositive values")

    y = -np.log(d)
    slope, intercept = np.polyfit(t, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return float(slope), residual


def truncation_functionals(trajectory) -> tuple[float, float]:
    """Worst squared norms of the overshoot above the initial max and below
    the initial min, over all recorded snapshots.

    Both start at zero and must not grow along a contracting flow.
    """
    grid = trajectory.snapshots[0].grid
    first = trajectory.snapshots[0].values
    k_hi = float(first.max())
    k_lo = float(first.min())
    worst_hi = 0.0
    worst_lo = 0.0
    for snap in trajectory.snapshots:
        over = np.maximum(snap.values - k_hi, 0.0)
        under = np.maximum(k_lo - snap.values, 0.0)
        worst_hi = max(worst_hi, float(grid.weight * (over @ over)))
        worst_lo = max(worst_lo, float(grid.weight * (under @ under)))
    return worst_hi, worst_lo
