"""Run orchestration: configuration -> operator bundle, initial data, trajectory.

:func:`build_operators` assembles a run's grid and kernel matrices once;
callers that need them again after the run pass that bundle to
:func:`simulate`.  Continuum models always evolve in the zero-mean,
zero-frequency gauge: the mean is subtracted from the initial field here, and
the affine shift mean + nu * t is reapplied when physical fields are
requested.  The lattice model is gauge-reduced too when its frequency is
constant, and integrated as-is when per-node frequencies are supplied.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import SimConfig
from .diagnostics import (DiagnosticsRecord, diameter, dist_sq_to_mean, dual_bound_value,
                          energy_kinetic, energy_potential, mean_phase, seminorm_sq)
from .dynamics import rhs_lattice, rhs_regularized, rhs_singular
from .errors import BlowUpError, ConfigurationError, ParameterError
from .grid import Grid, build_grid, grids_match
from .initial import initial_field
from .integrate import Trajectory, integrate_flow, select_dt
from .kernel import (SINGULAR, TRUNCATED, KernelMatrix, assemble_kernel_matrix,
                     pairwise_kernel_values)


class Operators(NamedTuple):
    """The grid and kernel operators of one run.

    ``coupling`` is the matrix driving the sine term (for the lattice model
    it is the singular matrix, used for diagnostics only), ``dissipation`` is
    always the singular matrix, and ``lattice_weights`` is the raw unweighted
    pairwise kernel (None for continuum models).
    """

    grid: Grid
    coupling: KernelMatrix
    dissipation: KernelMatrix
    lattice_weights: np.ndarray | None


def build_operators(cfg: SimConfig) -> Operators:
    """Assemble the grid and the kernel operators a config asks for."""
    grid = build_grid(cfg.grid.dimension, cfg.grid.nodes, cfg.grid.extents)
    s = cfg.physics.s
    dissipation = assemble_kernel_matrix(grid, SINGULAR, s)
    lattice_weights = None
    if cfg.physics.model == "regularized":
        coupling = assemble_kernel_matrix(grid, TRUNCATED, s, cfg.physics.epsilon)
    else:
        coupling = dissipation
        if cfg.physics.model == "lattice":
            lattice_weights = pairwise_kernel_values(grid, s)
    return Operators(grid, coupling, dissipation, lattice_weights)


def _check_operators(ops: Operators, cfg: SimConfig) -> None:
    """Refuse a bundle built for another grid, kernel exponent, truncation or model."""
    grid = build_grid(cfg.grid.dimension, cfg.grid.nodes, cfg.grid.extents)
    model = cfg.physics.model
    eps = cfg.physics.epsilon if model == "regularized" else None
    if not (grids_match(ops.grid, grid) and ops.dissipation.s == cfg.physics.s
            and ops.coupling.eps == eps
            and (ops.lattice_weights is None) == (model != "lattice")):
        raise ParameterError("operator bundle was built for another grid, s, eps or model")


def load_frequency(cfg: SimConfig, grid: Grid):
    """Constant frequency, or the per-node array from physics.nu_file."""
    if cfg.physics.nu_file is None:
        return float(cfg.physics.nu)
    values = np.loadtxt(cfg.physics.nu_file, dtype=float).reshape(-1)
    if values.shape[0] != grid.node_count:
        raise ConfigurationError([
            f"physics.nu_file: {values.shape[0]} frequencies for a grid with "
            f"{grid.node_count} nodes"
        ])
    return values


def _step_count(horizon: float, dt: float) -> int:
    return max(1, int(math.ceil(horizon / dt - 1e-12)))


def simulate(cfg: SimConfig, ops: Operators | None = None) -> Trajectory:
    """Integrate the configured evolution over [0, horizon].

    ``ops`` is the config's operator bundle when the caller has already built
    it; a bundle built for another grid, ``s`` or ``eps`` raises
    ParameterError.  Deterministic: the same config (and seed) reproduces the
    trajectory bitwise on one platform.  On numerical blow-up a BlowUpError is
    raised carrying the partial trajectory (status "blow-up") for persistence.
    """
    cfg.validate()
    if ops is None:
        ops = build_operators(cfg)
    else:
        _check_operators(ops, cfg)
    grid, coupling, dissipation, lattice_weights = ops

    theta0 = initial_field(cfg.initial.kind, grid, diameter=cfg.initial.diameter,
                           seed=cfg.initial.seed, value=cfg.initial.value)
    nu = load_frequency(cfg, grid)
    kappa = cfg.physics.kappa
    delta = cfg.physics.delta
    model = cfg.physics.model

    gauge = np.ndim(nu) == 0  # continuum configs always hit this branch
    theta_bar = 0.0
    work = theta0
    if gauge:
        theta_bar = mean_phase(theta0, grid)
        work = theta0 - theta_bar

    policy = cfg.integrator
    if policy.dt is not None:
        dt = policy.dt
    elif model == "lattice":
        lam = 2.0 * kappa * float(lattice_weights.sum(axis=1).max()) / grid.node_count
        dt = policy.safety / lam if lam > 0.0 else policy.safety * policy.horizon
    else:
        dt = select_dt(coupling, dissipation, kappa, delta, policy.safety,
                       free_drift_horizon=policy.horizon)
    n_steps = _step_count(policy.horizon, dt)
    dt = policy.horizon / n_steps

    if model == "lattice":
        nu_term = 0.0 if gauge else nu

        def rhs(values):
            return rhs_lattice(values, lattice_weights, kappa, nu_term)
    elif model == "regularized" or delta > 0.0:

        def rhs(values):
            return rhs_regularized(values, coupling, dissipation, kappa, delta)
    else:

        def rhs(values):
            return rhs_singular(values, coupling, kappa)

    m0 = diameter(theta0)
    bounded_diameter = m0 < math.pi

    def make_record(values, t, dissipated) -> DiagnosticsRecord:
        dual = (dual_bound_value(values, coupling, dissipation, kappa, delta, m0)
                if bounded_diameter else float("nan"))
        return DiagnosticsRecord(
            t=t,
            mean=mean_phase(values, grid),
            diameter=diameter(values),
            e_pot=energy_potential(values, coupling, kappa),
            e_kin=energy_kinetic(values, dissipation, delta),
            seminorm_sq=seminorm_sq(values, dissipation),
            dist_sq=dist_sq_to_mean(values, grid),
            dissipation_cum=dissipated,
            dual_bound=dual,
        )

    try:
        times, snapshots, records = integrate_flow(
            work, grid, rhs, dt, n_steps, policy.stride, policy.scheme, make_record)
    except BlowUpError as exc:
        part_times, part_snaps, part_records, t_last = exc.trajectory
        partial = Trajectory(
            config=cfg, grid=grid, times=part_times, snapshots=part_snaps,
            records=part_records, theta_bar=theta_bar, nu=nu, gauge_reduced=gauge,
            dt=dt, n_steps=n_steps, status="blow-up",
        )
        raise BlowUpError(str(exc), trajectory=partial, t=t_last) from exc

    return Trajectory(
        config=cfg, grid=grid, times=times, snapshots=snapshots, records=records,
        theta_bar=theta_bar, nu=nu, gauge_reduced=gauge, dt=dt, n_steps=n_steps,
        status="completed",
    )
