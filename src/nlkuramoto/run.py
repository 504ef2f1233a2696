"""Run orchestration: configuration -> operator bundle, initial data, trajectory.

:func:`build_operators` builds a run's grid and kernel operators once;
callers that need them again after the run pass that bundle to
:func:`simulate`.  :func:`simulate_family` steps several runs that differ
only in epsilon, delta or output directory as one (R, N) system; a plain run
is a family of one, and :func:`family_step` picks a family's step and
scheme.  Continuum
models always evolve in the zero-mean, zero-frequency gauge: the mean is
subtracted from the initial field here, and the affine shift mean + nu * t is
reapplied to the snapshot files a run writes.  The lattice model is
gauge-reduced too when its frequency is constant, and integrated as-is when
per-node frequencies are supplied.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from itertools import count
from typing import NamedTuple

import numpy as np

from .config import SimConfig
from .diagnostics import RECORD_DTYPE, _dual_bound, _kinetic_from_seminorm, diameter, mean_phase
from .dynamics import RateStack, rhs_lattice, rhs_regularized, rhs_singular
from .errors import BlowUpError, ConfigurationError, ParameterError
from .grid import Grid, build_grid, grids_match
from .initial import initial_field
from .integrate import (AUTO, RK4, RKC, Trajectory, auto_step, integrate_flow, rkc_stage_count,
                        stiffness_bound)
from .kernel import KernelOperator, assemble_kernel_matrix, stacked_apply
from .output import snapshot_directories, write_snapshot


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


# The least peak RSS a run added, over simulate, sweep-delta, relax, verify and
# poincare (Linux x86-64, numpy 2.4): 380-530 B per node (1d 16,384 -> 65,536,
# 2d 128^2 -> 256^2); per record and member, 131-134 B (sweep-delta, 3 members),
# 153-161 B (simulate), 243 B (verify) and 445-458 B (relax, its report's table),
# from 20k to 100k and 100k to 300k records at 16 nodes
NODE_BYTES = 380
RECORD_BYTES = 130


def _refuse_beyond_memory(size: float, keys: str) -> None:
    """ConfigurationError when ``size`` bytes exceed the physical memory."""
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if size > physical:
        raise ConfigurationError([f"the run needs about {size:.3g} bytes, more than the "
                                  f"{physical:,} bytes of physical memory: change {keys}"])


def build_operators(cfg: SimConfig) -> Operators:
    """Build the grid and the kernel operators a config asks for."""
    _refuse_beyond_memory(NODE_BYTES * cfg.grid.nodes ** cfg.grid.dimension, "grid.nodes")
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
    """Constant frequency, or the per-node array from physics.nu_file: one
    finite number per node, else ConfigurationError."""
    if cfg.physics.nu_file is None:
        return float(cfg.physics.nu)
    try:
        values = np.loadtxt(cfg.physics.nu_file, dtype=float).reshape(-1)
    except (OSError, ValueError) as exc:  # unreadable, or not numbers
        raise ConfigurationError([f"physics.nu_file: {exc}"]) from None
    finite = int(np.isfinite(values).sum())
    if not values.shape[0] == finite == grid.node_count:
        raise ConfigurationError([f"physics.nu_file: {values.shape[0]} values, {finite} finite, "
                                  f"for a grid with {grid.node_count} nodes"])
    return values


def _rate_kappa(cfg: SimConfig, grid: Grid) -> float:
    """kappa as the rate applies it, kappa / (N w) = kappa / |domain| for the lattice."""
    kappa = cfg.physics.kappa
    return kappa / (grid.node_count * grid.weight) if cfg.physics.model == "lattice" else kappa


# scheme = auto with an automatic dt takes rk4 while rk4 needs at most this
# many rate evaluations (4 per step) and adaptive rkc beyond.  A lone run's
# adaptive rkc sizes its steps by a 1e-7 error test, which took 660-1,250
# evaluations in every case below, however few rk4 needed.  Measured rk4
# against adaptive rkc, relax config at horizon 0.5 (random data, seed 1,
# unless marked smooth): s = 0.5, n = 16: 781 vs 811 (smooth 781 vs 667);
# n = 18: 885 vs 851; n = 20: 993 vs 875 (smooth 993 vs 679); n = 32: 1,625
# vs 977; s = 0.95, n = 16: 7,533 vs 1,241.  Sweep base config, eps = 0.2:
# 1d n = 48 709 vs 751, n = 56 793 vs 753; 2d 12^2 565 vs 805.  Singular,
# kappa = 0, delta = 0.3, n = 32, random, horizon 0.4, safety 0.5: 197 vs
# 869.  So rk4 was cheaper up to 709 and rkc from 793 up; where the two are
# close rk4's fourth order wins.
RK4_EVALS_MAX = 800


class FamilyStep(NamedTuple):
    """A family's shared base step ``dt`` (the configured one or else the
    smallest of the members' automatic steps), the ``n_steps`` of that size
    that cover the horizon, the record ``times``, each member's stiffness
    bound, the scheme the family steps with, and whether rkc sizes the steps
    adaptively."""

    dt: float
    n_steps: int
    times: np.ndarray
    bounds: tuple[float, ...]
    scheme: str
    adaptive: bool


def family_step(configs: list[SimConfig], operators: list[Operators]) -> FamilyStep:
    """A family's shared step and scheme.

    The steps are fixed when ``dt`` is configured (a sweep configures its
    automatic step in every rung); else rkc steps adaptively.  ``scheme =
    auto`` resolves here, and only here.  At a fixed step, to rkc when rkc
    takes its minimum of 2 stages at that step and the largest stiffness
    bound, half of rk4's 4 rate evaluations a step, else to rk4: past 2
    stages the step is near or past rk4's stability limit, and auto leaves
    whether such a step is stable as rk4 has it.  With an automatic step, to
    rk4 when rk4's own count of rate evaluations, 4 n_steps, is at most
    :data:`RK4_EVALS_MAX`, else to adaptive rkc.  Sweeps write ``dt`` and the
    scheme into every rung's config; :func:`simulate_family` shortens ``dt``
    to h = horizon / n_steps.  The record times, here and only here, are k h
    for every ``stride``-th k and k = n_steps, known before any step."""
    policy = configs[0].integrator
    kappa = _rate_kappa(configs[0], operators[0].grid)
    bounds = tuple(stiffness_bound(ops.coupling, ops.dissipation, kappa, cfg.physics.delta)
                   for cfg, ops in zip(configs, operators, strict=True))
    dt = policy.dt
    fixed = dt is not None
    if dt is None:
        dt = min(auto_step(bound, policy.safety, free_drift_horizon=policy.horizon)
                 for bound in bounds)
    records = policy.horizon / dt / policy.stride  # a float: an infinite count is refused too
    _refuse_beyond_memory(records * len(configs) * RECORD_BYTES,
                          "integrator.stride, integrator.dt or integrator.horizon")
    n_steps = max(1, math.ceil(policy.horizon / dt - 1e-12))
    h = policy.horizon / n_steps
    times = np.append(np.arange(0, n_steps, policy.stride), n_steps) * h
    scheme = policy.scheme
    if scheme == AUTO and fixed:
        # sweep base config, 1d 128 and 2d 24^2, 41 to 735 steps: rkc halved
        # the evaluations and took 35-45% less time, and the successive
        # differences moved by at most 4.9e-4 relative (eps), 6.2e-6 (delta)
        two_stages = rkc_stage_count(h, max(bounds)) == 2
        scheme = RKC if two_stages else RK4
    elif scheme == AUTO:
        scheme = RK4 if 4 * n_steps <= RK4_EVALS_MAX else RKC
    return FamilyStep(dt, n_steps, times, bounds, scheme, scheme == RKC and not fixed)


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
    """Step configs that differ only in epsilon, delta and the output
    directory as one (R, N) system.

    ``operators`` holds their bundles if already built.  The members share the
    grid, ``s``, the initial data, the record times, one scheme (``auto``
    resolved by :func:`family_step`) and one step (the family's smallest
    automatic one, if not configured; adaptive rkc steps follow the worst
    member's error, and rkc's stages the largest stiffness bound); with
    a fixed step each trajectory is bitwise the member's alone (for rkc, when
    the members' step needs as many stages alone, as a sweep's does).  A run
    holds one state per member plus its records, whose norms (the largest
    |u|, the overshoots above the t = 0 max and below its min, the L2 distance
    to the next member) serve every check.  When ``output.formats`` names
    ``snapshots``, each record also writes member j's physical field (the
    gauge shift reapplied) to ``snapshot_<k>.bin`` in its config's output
    directory; snapshot files larger than the free disk space raise
    ConfigurationError before any step.  A BlowUpError carries every
    member's partial trajectory, their snapshot files stopping at the last
    record, and as ``trajectory`` that of the member that went non-finite
    first (``row``).
    """
    cfg = configs[0]
    for other in configs:
        other.validate()
        if replace(other, physics=replace(other.physics, epsilon=cfg.physics.epsilon,
                                          delta=cfg.physics.delta),
                   output=replace(other.output, directory=cfg.output.directory)) != cfg:
            raise ParameterError("a family's configs may differ only in epsilon, delta and "
                                 "the output directory")
    if operators is None:
        operators = [build_operators(other) for other in configs]
    for ops, other in zip(operators, configs, strict=True):
        _check_operators(ops, other)
    grid, coupling, dissipation = operators[0]
    couplings = tuple(ops.coupling for ops in operators)
    deltas = np.array([other.physics.delta for other in configs])

    theta0 = initial_field(cfg.initial.kind, grid, diameter=cfg.initial.diameter,
                           seed=cfg.initial.seed, value=cfg.initial.value)
    nu = load_frequency(cfg, grid)
    kappa = _rate_kappa(cfg, grid)  # the records' energies take the rate's coupling too
    model = cfg.physics.model

    gauge = np.ndim(nu) == 0  # continuum configs always hit this branch
    theta_bar = mean_phase(theta0, grid) if gauge else 0.0
    work = theta0 - theta_bar

    step = family_step(configs, operators)
    dt = cfg.integrator.horizon / step.n_steps
    directories = []
    if "snapshots" in cfg.output.formats:
        directories = snapshot_directories(configs, len(step.times), grid.node_count)
    written = count()  # the index of the next snapshot file

    # the rate's transforms and last stack; integrate_flow records right after an evaluation
    kept = RateStack()
    dissipating = model != "lattice" and deltas.max() > 0.0  # the rate then transforms u
    if model == "lattice":
        rate, args = rhs_lattice, (coupling, cfg.physics.kappa, 0.0 if gauge else nu)
    elif model == "regularized" or dissipating:
        rate, args = rhs_regularized, (couplings, dissipation, kappa, deltas)
    else:
        rate, args = rhs_singular, (coupling, kappa)

    def rhs(values):
        return rate(values, *args, keep=kept)

    bounded_diameter = diameter(theta0) < math.pi
    top, bottom = work.max(), work.min()  # every member's t = 0 extremes
    w = grid.weight
    own = () if dissipating else (dissipation,)  # the records transform u when the rate did not
    record_apply = stacked_apply(tuple(zip(*[(c, c, *own) for c in couplings])))

    def cosine_double_sum(rows, applies, factor):
        """Each member's factor * w * sum_{ij} W_ij (1 - cos(angle_i - angle_j)), clipped at
        0 as max(0.0, x) is: 2 a.r - a.Wa - s.Ws, (a, s) = (1 - cos, sin) of its angles."""
        (a, s), (wa, ws) = rows[:2], applies[:2]
        total = 2.0 * np.vecdot(a, kept.row_sums) - np.vecdot(a, wa) - np.vecdot(s, ws)
        value = factor * w * total
        return np.where(value > 0.0, value, 0.0)

    def make_record(values, t, dissipated) -> np.ndarray:
        if directories:
            k = next(written)
            for v, directory in zip(values, directories):
                write_snapshot(directory / f"snapshot_{k:06d}.bin", grid.dim, grid.n, t,
                               v + theta_bar + float(nu) * t if gauge else v)
        # the rate evaluation at this state already applied the coupling to
        # (1 - cos u, sin u), and the dissipation to u when it dissipates, so the
        # record transforms only its doubled-angle rows (1 - cos 2u = 2 sin^2 u,
        # sin 2u), and u when the rate did not.  Each field is one expression
        # over the (R, N) family, bitwise each row's own (a row's vecdot is its @)
        shifted = values - values[:, :1]
        fields = np.stack([2.0 * kept.rows[1] ** 2, np.sin(2.0 * shifted), shifted][:2 + len(own)])
        applied = record_apply(fields)
        wu = applied[2] if own else kept.applied[2]
        record = np.full(len(values), math.nan, RECORD_DTYPE)
        record["t"], record["dissipation_cum"] = t, dissipated
        record["mean"] = w * values.sum(axis=1) / grid.measure
        his, los = values.max(axis=1), values.min(axis=1)
        record["diameter"] = his - los
        record["e_pot"] = cosine_double_sum(kept.rows, kept.applied, 0.5 * kappa)
        record["sin2_seminorm"] = cosine_double_sum(fields, applied, 0.5)
        record["seminorm_sq"] = 2.0 * (w * (np.vecdot(dissipation.row_sums * shifted, shifted)
                                            - np.vecdot(shifted, wu)))
        record["e_kin"] = _kinetic_from_seminorm(record["seminorm_sq"], deltas)
        centered = values - record["mean"][:, None]
        record["dist_sq"] = w * np.vecdot(centered, centered)
        if bounded_diameter:  # else the dual bound has no meaning and stays NaN
            record["dual_bound"] = _dual_bound(record["sin2_seminorm"], record["seminorm_sq"],
                                               kappa, deltas)
        record["linf"] = np.maximum(np.abs(his), np.abs(los))
        # the overshoot norms, w |max(excess, 0)|^2, are exactly 0.0 until a row
        # crosses its t = 0 extreme
        excess = np.maximum(values - top, 0.0), np.maximum(bottom - values, 0.0)
        record["overshoot_hi"], record["overshoot_lo"] = (w * np.vecdot(e, e) for e in excess)
        gaps = values[:-1] - values[1:]  # the last member's distance stays NaN
        record["dist_to_next"][:-1] = np.sqrt(w * np.vecdot(gaps, gaps))
        return record

    def trajectory(j, flow, status) -> Trajectory:
        return Trajectory(
            config=configs[j], grid=grid, final=flow.final[j],
            records=flow.records[:, j], gauge_reduced=gauge, dt=dt, scheme=step.scheme,
            adaptive=step.adaptive, stiffness=step.bounds[j], step_counts=list(flow.step_counts),
            counters=flow.counters, status=status)

    try:
        flow = integrate_flow(
            np.broadcast_to(work, (len(configs), work.size)), grid, rhs, dt, step.n_steps,
            step.times, step.scheme, make_record, stiffness=max(step.bounds),
            adaptive=step.adaptive)
    except BlowUpError as exc:
        exc.trajectories = [trajectory(j, exc.trajectory, "blow-up") for j in range(len(configs))]
        exc.trajectory = exc.trajectories[exc.row]
        raise
    return [trajectory(j, flow, "completed") for j in range(len(configs))]
