"""Run orchestration: configuration -> operator bundle, initial data, trajectory.

:func:`build_operators` builds a run's grid and kernel operators once;
callers that need them again after the run pass that bundle to
:func:`simulate`.  :func:`simulate_family` steps several runs that differ
only in epsilon or delta as one (R, N) system; a plain run is a family of
one, and :func:`family_step` picks a family's step.  Continuum models always
evolve in the zero-mean, zero-frequency gauge: the mean is subtracted from
the initial field here, and the affine shift mean + nu * t is reapplied when
physical fields are requested.  The lattice model is gauge-reduced too when
its frequency is constant, and integrated as-is when per-node frequencies are
supplied.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .config import IntegratorPolicy, SimConfig
from .diagnostics import (DiagnosticsRecord, _cosine_double_sum, _cosine_fields, _dual_bound,
                          _kinetic_from_seminorm, diameter, dist_sq_to_mean, mean_phase)
from .dynamics import RateStack, _form_value, rhs_lattice, rhs_regularized, rhs_singular
from .errors import BlowUpError, ConfigurationError, ParameterError
from .grid import Grid, build_grid, grids_match
from .initial import initial_field
from .integrate import Trajectory, auto_step, integrate_flow, stiffness_bound
from .kernel import KernelOperator, assemble_kernel_matrix, stacked_apply


class Operators(NamedTuple):
    """The grid and kernel operators of one run.

    ``coupling`` is the operator driving the sine term: the truncated one for
    the regularized model, the singular one otherwise (the lattice model
    couples through it without its cell weight).  ``dissipation`` is always
    the singular operator.
    """

    grid: Grid
    coupling: KernelOperator
    dissipation: KernelOperator


def build_operators(cfg: SimConfig) -> Operators:
    """Build the grid and the kernel operators a config asks for."""
    grid = build_grid(cfg.grid.dimension, cfg.grid.nodes, cfg.grid.extents)
    s = cfg.physics.s
    dissipation = assemble_kernel_matrix(grid, s)
    coupling = dissipation
    if cfg.physics.model == "regularized":
        coupling = assemble_kernel_matrix(grid, s, cfg.physics.epsilon)
    return Operators(grid, coupling, dissipation)


def _check_operators(ops: Operators, cfg: SimConfig) -> None:
    """Refuse a bundle built for another grid, kernel exponent or truncation."""
    grid = build_grid(cfg.grid.dimension, cfg.grid.nodes, cfg.grid.extents)
    eps = cfg.physics.epsilon if cfg.physics.model == "regularized" else None
    if not (grids_match(ops.grid, grid) and ops.dissipation.s == cfg.physics.s
            and ops.coupling.eps == eps):
        raise ParameterError("operator bundle was built for another grid, s or eps")


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


def physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_record_buffer(policy: IntegratorPolicy, members: int, n_steps: int, nodes: int) -> None:
    """Refuse a run that keeps snapshots when its buffer, members x record
    times x nodes doubles, exceeds physical memory: it would fail to allocate,
    or fill pages until the system kills the run."""
    size = members * (len(range(policy.stride, n_steps, policy.stride)) + 2) * nodes * 8
    if size > physical_memory():
        raise ConfigurationError(
            f"the snapshot buffer needs {size / 2 ** 30:.3g} GiB, more than the machine's "
            f"{physical_memory() / 2 ** 30:.3g} GiB of physical memory: raise integrator.stride "
            f"({policy.stride}), shorten integrator.horizon ({policy.horizon}) or drop "
            f"'snapshots' from output.formats")


def _rate_kappa(cfg: SimConfig, grid: Grid) -> float:
    """kappa as the rate applies it, kappa / (N w) = kappa / |domain| for the lattice."""
    kappa = cfg.physics.kappa
    return kappa / (grid.node_count * grid.weight) if cfg.physics.model == "lattice" else kappa


def family_step(configs: list[SimConfig], operators: list[Operators]) -> tuple[float, float]:
    """A family's shared step, the configured one or else the smallest of the
    members' automatic steps, and the largest of their stiffness bounds.

    Sweeps write this step into every rung's config; :func:`simulate_family`
    shortens it to divide the horizon."""
    policy = configs[0].integrator
    kappa = _rate_kappa(configs[0], operators[0].grid)
    bounds = [stiffness_bound(ops.coupling, ops.dissipation, kappa, cfg.physics.delta)
              for cfg, ops in zip(configs, operators, strict=True)]
    dt = policy.dt
    if dt is None:
        dt = min(auto_step(bound, policy.safety, free_drift_horizon=policy.horizon)
                 for bound in bounds)
    return dt, max(bounds)


def simulate(cfg: SimConfig, ops: Operators | None = None) -> Trajectory:
    """Integrate the configured evolution over [0, horizon]: a family of one.

    ``ops`` is the config's operator bundle when the caller has already built
    it; a bundle built for another grid, ``s`` or ``eps`` raises
    ParameterError.  Deterministic: the same config (and seed) reproduces the
    trajectory bitwise on one platform.  On numerical blow-up a BlowUpError is
    raised carrying the partial trajectory (status "blow-up") for persistence.
    """
    return simulate_family([cfg], None if ops is None else [ops])[0]


def simulate_family(configs: list[SimConfig],
                    operators: list[Operators] | None = None) -> list[Trajectory]:
    """Step configs that differ only in epsilon and delta as one (R, N) system.

    ``operators`` holds their bundles if already built.  The members share the
    grid, ``s``, the initial data, the record times and one step (the family's
    smallest automatic one, if not configured; adaptive rkc steps follow the
    worst member's error, and rkc's stages the largest stiffness bound); with
    a fixed step each trajectory is bitwise the member's alone (for rkc, when
    the members' step needs as many stages alone, as a sweep's does).  A run
    holds one state per member plus its records, whose norms (the largest
    |u|, the overshoots above the t = 0 max and below its min, the L2 distance
    to the next member) serve every check; it keeps the snapshots only when
    ``output.formats`` names them, and a snapshot buffer larger than physical
    memory then raises ConfigurationError before any step.  A BlowUpError
    carries the partial trajectory of the member that went non-finite first
    (``row``).
    """
    cfg = configs[0]
    for other in configs:
        other.validate()
        if replace(other, physics=replace(other.physics, epsilon=cfg.physics.epsilon,
                                          delta=cfg.physics.delta)) != cfg:
            raise ParameterError("a family's configs may differ only in epsilon and delta")
    if operators is None:
        operators = [build_operators(other) for other in configs]
    for ops, other in zip(operators, configs, strict=True):
        _check_operators(ops, other)
    grid, coupling, dissipation = operators[0]
    couplings = tuple(ops.coupling for ops in operators)
    deltas = [other.physics.delta for other in configs]

    theta0 = initial_field(cfg.initial.kind, grid, diameter=cfg.initial.diameter,
                           seed=cfg.initial.seed, value=cfg.initial.value)
    nu = load_frequency(cfg, grid)
    kappa = _rate_kappa(cfg, grid)  # the records' energies take the rate's coupling too
    model = cfg.physics.model

    gauge = np.ndim(nu) == 0  # continuum configs always hit this branch
    theta_bar = mean_phase(theta0, grid) if gauge else 0.0
    work = theta0 - theta_bar

    policy = cfg.integrator
    dt, stiffness = family_step(configs, operators)
    n_steps = _step_count(policy.horizon, dt)
    dt = policy.horizon / n_steps
    keep_snapshots = "snapshots" in cfg.output.formats
    if keep_snapshots:
        _check_record_buffer(policy, len(configs), n_steps, grid.node_count)

    # the last rate evaluation's stack: integrate_flow records a state right after one
    kept = RateStack()
    if model == "lattice":
        rate, args = rhs_lattice, (coupling, cfg.physics.kappa, 0.0 if gauge else nu)
    elif model == "regularized" or max(deltas) > 0.0:
        rate, args = rhs_regularized, (couplings, dissipation, kappa, deltas)
    else:
        rate, args = rhs_singular, (coupling, kappa)

    def rhs(values):
        return rate(values, *args, keep=kept)

    bounded_diameter = diameter(theta0) < math.pi
    top, bottom = work.max(), work.min()  # every member's t = 0 extremes
    w = grid.weight

    def excess_sq(excess) -> float:
        """w |max(excess, 0)|^2: an overshoot norm, as the checks read it."""
        positive = np.maximum(excess, 0.0)
        return w * float(positive @ positive)

    def make_record(values, t, dissipated) -> list[DiagnosticsRecord]:
        # the rate evaluation at this state already applied the coupling to
        # (1 - cos u, sin u), and the dissipation to u when it dissipates, so
        # the record transforms only its doubled-angle rows (and u when the
        # rate did not); every value follows the public formulas bitwise
        own = (dissipation,) if len(kept.rows) == 2 else ()
        shifted = values - values[:, :1]
        fields = np.stack([_cosine_fields(v, c, 2.0) for v, c in zip(values, couplings)])
        if own:
            fields = np.concatenate([fields, shifted[:, None]], axis=1)
        applied = stacked_apply(tuple((c, c, *own) for c in couplings))(fields)
        wu = applied[:, 2] if own else kept.applied[2]
        records = []
        for j, (v, u, c, delta, diss) in enumerate(zip(values, shifted, couplings, deltas,
                                                       dissipated)):
            e_pot = _cosine_double_sum(kept.rows[:2, j], kept.applied[:2, j], c, 0.5 * kappa)
            sin2 = _cosine_double_sum(fields[j, :2], applied[j, :2], c, 0.5)
            seminorm = 2.0 * _form_value(u, u, wu[j], dissipation)
            dual = _dual_bound(sin2, seminorm, kappa, delta) if bounded_diameter else math.nan
            hi, lo = v.max(), v.min()
            gap = v - values[j + 1] if j + 1 < len(values) else None
            # an overshoot norm is exactly 0.0 until the row crosses its t = 0
            # extreme, so it is formed only then
            records.append(DiagnosticsRecord(
                t=t, mean=mean_phase(v, grid), diameter=float(hi - lo), e_pot=e_pot,
                e_kin=_kinetic_from_seminorm(seminorm, delta), seminorm_sq=seminorm,
                dist_sq=dist_sq_to_mean(v, grid), dissipation_cum=diss, dual_bound=dual,
                sin2_seminorm=sin2, linf=float(max(abs(hi), abs(lo))),
                overshoot_hi=excess_sq(v - top) if hi > top else 0.0,
                overshoot_lo=excess_sq(bottom - v) if lo < bottom else 0.0,
                dist_to_next=math.nan if gap is None else math.sqrt(w * float(gap @ gap))))
        return records

    def trajectory(j, flow, status) -> Trajectory:
        return Trajectory(
            config=configs[j], grid=grid, times=list(flow.times), final=flow.final[j],
            records=flow.records[j], theta_bar=theta_bar, nu=nu, gauge_reduced=gauge, dt=dt,
            step_counts=list(flow.step_counts), counters=flow.counters, status=status,
            snapshots=None if flow.snapshots is None else flow.snapshots[j])

    try:
        flow = integrate_flow(
            np.broadcast_to(work, (len(configs), work.size)), grid, rhs, dt, n_steps,
            policy.stride, policy.scheme, make_record, stiffness=stiffness,
            adaptive=policy.adaptive, keep_snapshots=keep_snapshots)
    except BlowUpError as exc:
        exc.trajectory = trajectory(exc.row, exc.trajectory, "blow-up")
        raise
    return [trajectory(j, flow, "completed") for j in range(len(configs))]
