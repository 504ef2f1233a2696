"""Observables tracked along trajectories.

Diameter, mean phase, the record fields (a run computes its records in
:func:`nlkuramoto.run.simulate_family`), uniform-bound checks, the
computable dual-norm bound, the sharp discrete Poincare constant, and
decay-rate fits.  All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _field
from .errors import IterationError, ParameterError
from .grid import Grid
from .initial import seeded_bits
from .kernel import KernelOperator


# The fields of a run's records, each one float64 column.  The first nine are
# the diagnostics CSV's columns, in its order.  e_pot uses whichever coupling
# matrix the run evolves with; e_kin and seminorm_sq always use the singular
# matrix.  dual_bound is the computable upper bound for the dual norm of the
# rate field (NaN when the initial diameter is not below pi, where the bound
# has no meaning); sin2_seminorm (coupling matrix) feeds it and the bound
# report.  linf is the largest |u|; overshoot_hi and overshoot_lo are the
# squared L2 norms of the overshoot above the run's t = 0 max and below its
# t = 0 min; dist_to_next is the L2 distance to the next member of the run's
# family (NaN for the last member and a lone run).  The last five are not
# written to the CSV (NaN when read back).
RECORD_FIELDS = ("t", "mean", "diameter", "e_pot", "e_kin", "seminorm_sq", "dist_sq",
                 "dissipation_cum", "dual_bound", "sin2_seminorm", "linf", "overshoot_hi",
                 "overshoot_lo", "dist_to_next")
RECORD_DTYPE = np.dtype([(name, np.float64) for name in RECORD_FIELDS])


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


def _kinetic_from_seminorm(seminorm, delta):
    """(delta / 4) seminorm, exactly 0.0 where delta is 0; elementwise over members."""
    return np.where(delta == 0.0, 0.0, 0.25 * delta * seminorm)


def min_sinc(m: float) -> float:
    """Lower bound of sin(z)/z over |z| <= m, in (0, 1]; m = 0 gives 1."""
    if m < 0.0 or m >= math.pi:
        raise ParameterError(f"diameter bound must lie in [0, pi), got {m}")
    if m == 0.0:
        return 1.0
    return math.sin(m) / m


def _dual_bound(sin2, seminorm, kappa: float, delta):
    """(kappa/2) sqrt(sin2) + (delta/2) sqrt(seminorm), the rate field's dual-norm bound,
    elementwise over members; each term is left out where its strength is 0, and a
    negative or NaN seminorm counts as 0."""
    value = 0.5 * kappa * np.sqrt(sin2) if kappa != 0.0 else 0.0
    clipped = np.where(seminorm > 0.0, seminorm, 0.0)
    return value + np.where(delta != 0.0, 0.5 * delta * np.sqrt(clipped), 0.0)


def energy_identity_residual(trajectory) -> float:
    """Worst absolute defect of E_pot + E_kin + dissipated = E(0) over records;
    NaN when a record's is."""
    records = trajectory.records
    energy = records["e_pot"] + records["e_kin"]
    return float(np.max(np.abs(energy + records["dissipation_cum"] - energy[0])))


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
    seminorm0, m0, e_pot0 = (float(records[name][0])
                             for name in ("seminorm_sq", "diameter", "e_pot"))
    worst_seminorm = float(np.max(records["seminorm_sq"]))
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
    rows.append(BoundCheck("initial-potential-energy", e_pot0, rhs, _holds(e_pot0, rhs)))

    if kappa > 0.0:
        worst_sin2 = float(np.max(records["sin2_seminorm"]))  # NaN fails the row
        rhs = (kappa + delta) / kappa * seminorm0
        rows.append(BoundCheck("sin2-seminorm-bound", worst_sin2, rhs,
                               _holds(worst_sin2, rhs)))
    else:
        rows.append(BoundCheck("sin2-seminorm-bound", None, None, None,
                               "needs positive coupling strength"))
    return rows


LOBPCG_TOL = 1e-11  # the relative residual at which lambda_star is solved
LOBPCG_MAX_ITER = 5000  # and the iterations it may take


def poincare_sharp_discrete(matrix: KernelOperator) -> float:
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
    ||B x - lam x|| <= max(LOBPCG_TOL * lam, 50 eps ||B||), the second term the
    rounding floor of the apply with ||B|| <= 4 max(row sums); IterationError
    reports it after LOBPCG_MAX_ITER iterations.
    """
    grid = matrix.grid
    two_rows = 2.0 * matrix.row_sums

    def apply_b(x):
        return two_rows * x - 2.0 * matrix.apply(x)

    precondition = _strang_preconditioner(matrix)
    axis = int(np.argmax([hi - lo for lo, hi in grid.extents]))
    lo, hi = grid.extents[axis]
    x = np.cos(math.pi * (grid.coords[:, axis] - lo) / (hi - lo))
    noise = seeded_bits(0, grid.node_count) / 2.0**64 - 0.5
    x += 1e-6 * np.linalg.norm(x) / np.linalg.norm(noise) * noise
    x -= x.mean()
    x /= np.linalg.norm(x)
    bx = apply_b(x)
    floor = 50.0 * np.finfo(float).eps * 4.0 * float(matrix.row_sums.max())
    directions = np.empty((0, grid.node_count))
    for iteration in range(LOBPCG_MAX_ITER + 1):
        lam = float(x @ bx)
        residual_vec = bx - lam * x
        residual = float(np.linalg.norm(residual_vec))
        if residual <= max(LOBPCG_TOL * lam, floor):
            return lam
        if iteration == LOBPCG_MAX_ITER:
            raise IterationError(f"LOBPCG did not converge in {iteration} iterations (residual "
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
    D = diag(row sums) / mu_0 corrects the boundary rows C overestimates.
    """
    rows, generator = matrix.row_sums, matrix.generator
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


FIT_TRANSIENT = 0.1  # a decay-rate fit skips this fraction of its series' time span
FIT_FLOOR = 1e-28  # and stops at the first squared distance at or below this


def fit_window(times) -> np.ndarray:
    """The mask of the times a decay-rate fit reads: t >= FIT_TRANSIENT x the last."""
    t = np.asarray(times, dtype=float)
    return t >= FIT_TRANSIENT * t[-1] if t.size else np.zeros(0, dtype=bool)


def fit_decay_rate(times, dist_sq) -> tuple[float, float]:
    """Least-squares decay exponent of a squared-distance series.

    Fits -log(dist_sq) against t over the :func:`fit_window` of the series cut
    at its first value at or below FIT_FLOOR.  Returns the fitted rate and the
    RMS residual of the linear fit.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(dist_sq, dtype=float)
    if t.shape != d.shape or t.ndim != 1 or t.size < 2:
        raise ParameterError("need matching 1d series with at least two points")

    above = np.logical_and.accumulate(d > FIT_FLOOR)  # before the first value at the floor
    t, d = t[above], d[above]
    keep = fit_window(t)
    t, d = t[keep], d[keep]
    if t.size < 2:
        raise ParameterError("fit window has fewer than two usable points")

    y = -np.log(d)
    slope, intercept = np.polyfit(t, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return float(slope), residual


def truncation_functionals(trajectory) -> tuple[float, float]:
    """Worst squared norms of the overshoot above the initial max and below
    the initial min, over all records.

    Both start at zero and must not grow along a contracting flow.
    """
    records = trajectory.records
    return float(np.max(records["overshoot_hi"])), float(np.max(records["overshoot_lo"]))
