"""Observables tracked along trajectories.

Diameter, mean phase, potential and dissipative energies, Gagliardo-type
seminorms, uniform-bound checks, the computable dual-norm bound, the sharp
discrete Poincare constant, and decay-rate fits.  All functions are pure and
operate on immutable inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .dynamics import _field, _versine, bilinear_form
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
    ``sin2_seminorm`` (coupling matrix) feeds the dual bound and the bound
    report; it is neither written to the CSV nor compared (NaN when read back).
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
    sin2_seminorm: float = field(default=math.nan, compare=False)


def diameter(theta) -> float:
    """max - min over nodes (the discrete essential diameter)."""
    values = np.asarray(theta, dtype=float)
    if values.size == 0:
        raise ParameterError("diameter of an empty field is undefined")
    return float(values.max() - values.min())


def mean_phase(theta, grid: Grid) -> float:
    """Quadrature-weighted average phase over the domain."""
    values = _field(theta, grid)
    return float(grid.weight * values.sum() / grid.measure)


def dist_sq_to_mean(theta, grid: Grid) -> float:
    """Squared L2 distance to the field's own mean."""
    values = _field(theta, grid)
    centered = values - grid.weight * values.sum() / grid.measure
    return float(grid.weight * (centered @ centered))


def seminorm_sq(theta, matrix: KernelOperator) -> float:
    """Squared Gagliardo-type seminorm sum_{ij} W_ij w (u_i - u_j)^2."""
    return 2.0 * bilinear_form(theta, theta, matrix)


def _cosine_fields(theta, matrix: KernelOperator, scale: float) -> np.ndarray:
    """Rows a = 1 - cos = 2 sin^2(angle / 2) and s = sin(angle), angle = scale (u - u_0)."""
    values = _field(theta, matrix.grid)
    angle = scale * (values - values.flat[0])
    return np.stack([_versine(angle), np.sin(angle)])


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


def sin2_seminorm(theta, matrix: KernelOperator) -> float:
    """Weighted double sum of sin^2 of phase differences.

    Uses sin^2 z = (1 - cos 2z) / 2, the cosine double sum at doubled angles.
    """
    fields = _cosine_fields(theta, matrix, 2.0)
    return _cosine_double_sum(fields, matrix.apply(fields), matrix, 0.5)


def energy_potential(theta, matrix: KernelOperator, kappa: float) -> float:
    """(kappa/2) sum_{ij} W_ij w (1 - cos(u_i - u_j)); zero iff constant."""
    fields = _cosine_fields(theta, matrix, 1.0)
    return _cosine_double_sum(fields, matrix.apply(fields), matrix, 0.5 * kappa)


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
    sin2 = sin2_seminorm(theta, coupling) if kappa != 0.0 else 0.0
    return _dual_bound(sin2, seminorm_sq(theta, dissipation), kappa, delta)


def _dual_bound(sin2: float, seminorm: float, kappa: float, delta: float) -> float:
    """dual_bound_value from the sin^2 seminorm (coupling) and seminorm_sq (singular)."""
    value = 0.0
    if kappa != 0.0:
        value += 0.5 * kappa * math.sqrt(sin2)
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


def uniform_bound_report(trajectory) -> list[BoundCheck]:
    """Evaluate the uniform a priori bounds at every recorded instant, with
    the kappa, delta and model of the trajectory's own config.

    Right-hand sides are built from the initial data's squared seminorm (with
    the singular matrix); left-hand sides, the sin^2 seminorm included, are
    read from the records.  Inapplicable rows are returned as skipped with the
    reason; applicable rows must come back satisfied.
    """
    physics = trajectory.config.physics
    kappa, delta = physics.kappa, physics.delta
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

    if kappa > 0.0 and m0 < math.pi and physics.model != "regularized":
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
        worst_sin2 = float(np.max([r.sin2_seminorm for r in records]))  # NaN fails the row
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

    Preconditioned LOBPCG with a block of one vector (Knyazev 2001) on the
    mean-zero subspace, B applied only through ``matrix.apply``: each
    iteration takes the Rayleigh-Ritz minimum over span{x, M^-1 r, p} (r the
    residual, p the previous direction) and applies B to the two new
    directions in one stacked apply.  The start is the lowest cosine mode
    along the longest axis plus seeded uniform noise of relative size 1e-6,
    which keeps every symmetry class present.  The solve stops once
    ||B x - lam x|| <= max(tol * lam, 50 eps ||B||), the second term the
    rounding floor of the apply with ||B|| <= 4 max(row sums); IterationError
    reports it after ``max_iter`` iterations.
    """
    grid = matrix.grid
    two_rows = 2.0 * matrix.row_sums

    def apply_b(x):
        return two_rows * x - 2.0 * matrix.apply(x)

    precondition = _strang_preconditioner(matrix)
    axis = int(np.argmax([hi - lo for lo, hi in grid.extents]))
    lo, hi = grid.extents[axis]
    x = np.cos(math.pi * (grid.coords[:, axis] - lo) / (hi - lo))
    # seeded noise (stdlib random: numpy.random costs 1.7 MB to import)
    bits = np.frombuffer(random.Random(0).randbytes(8 * grid.node_count), np.uint64)
    noise = bits / 2.0**64 - 0.5
    x += 1e-6 * np.linalg.norm(x) / np.linalg.norm(noise) * noise
    x -= x.mean()
    x /= np.linalg.norm(x)
    bx = apply_b(x)
    floor = 50.0 * np.finfo(float).eps * 4.0 * float(matrix.row_sums.max())
    directions = np.empty((0, grid.node_count))
    for iteration in range(max_iter + 1):
        lam = float(x @ bx)
        residual_vec = bx - lam * x
        residual = float(np.linalg.norm(residual_vec))
        if residual <= max(tol * lam, floor):
            return lam
        if iteration == max_iter:
            raise IterationError(f"LOBPCG did not converge in {max_iter} iterations (residual "
                                 f"{residual:.3e}, rounding floor {floor:.3e}, estimate {lam:.6e})",
                                 residual=residual)
        s = np.vstack([precondition(residual_vec), directions])
        s -= s.mean(axis=1, keepdims=True)
        for _ in range(2):  # twice is enough (Kahan) for orthogonality to working precision
            s -= np.outer(s @ x, x)
        s /= np.maximum(np.linalg.norm(s, axis=1), np.finfo(float).tiny)[:, None]
        basis, images = np.vstack([x, s]), np.vstack([bx, apply_b(s)])
        evals, evecs = np.linalg.eigh(basis @ basis.T)
        keep = evals > 1e-12 * evals[-1]  # drop near-dependent directions
        ortho = evecs[:, keep] / np.sqrt(evals[keep])
        _, ritz = np.linalg.eigh(ortho.T @ (basis @ images.T) @ ortho)
        coef = ortho @ ritz[:, 0]
        directions = coef[1:] @ s
        x, bx = coef @ basis, coef @ images  # of unit norm: ortho is Gram-orthonormal


def _strang_preconditioner(matrix: KernelOperator):
    """r -> M^-1 r = D^-1/2 C^-1 D^-1/2 r for :func:`poincare_sharp_discrete`.

    C is the Strang circulant of B: the generator at offsets min(k, n - k) per
    axis, symbol 2 (mu_0 - mu_k) with k = 0 (the constants) sent to infinity.
    D = diag(row sums) / mu_0 corrects the boundary rows C overestimates.  An
    operator without a generator gets Jacobi, 1 / (2 row sums).
    """
    rows = matrix.row_sums
    generator = getattr(matrix, "generator", None)
    if generator is None:
        return lambda r: r / (2.0 * rows)
    shape = generator.shape
    wrap = [np.minimum(np.arange(n), n - np.arange(n)) for n in shape]
    mu = np.fft.rfftn(generator[np.ix_(*wrap)]).real
    mu0 = float(mu.flat[0])
    symbol = 2.0 * (mu0 - mu)
    symbol.flat[0] = np.inf
    scale = np.sqrt(mu0 / rows)

    def precondition(r):
        f = np.fft.rfftn((scale * r).reshape(shape)) / symbol
        return scale * np.fft.irfftn(f, shape, range(len(shape))).ravel()
    return precondition


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
    snaps = trajectory.snapshots
    k_hi, k_lo = snaps[0].max(), snaps[0].min()
    w = trajectory.grid.weight
    hi = max(w * float(o @ o) for o in (np.maximum(s - k_hi, 0.0) for s in snaps))
    lo = max(w * float(u @ u) for u in (np.maximum(k_lo - s, 0.0) for s in snaps))
    return hi, lo
