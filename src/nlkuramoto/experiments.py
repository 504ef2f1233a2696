"""Scripted studies: truncation and dissipation sweeps, relaxation-rate
verification, grid refinement, and the run-level invariant suite.

Sweeps share one grid, one dissipation operator, one fixed step size (the
configured one, else chosen for the stiffest rung so every rung is stable;
every rung's config carries it) and one output stride, so trajectories can
be compared at identical times.  Each rung's coupling is built once, and all
rungs step together as one batched system.  The successive differences
Delta_j are the computable stand-in for the compactness limits the analysis
provides: the sweeps certify a decreasing Cauchy trend, never a convergence
order.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import SimConfig
from .diagnostics import (BoundCheck, energy_identity_residual, fit_decay_rate, min_sinc,
                          poincare_sharp_discrete, truncation_functionals,
                          uniform_bound_report)
from .errors import BlowUpError, ConfigurationError
from .grid import build_grid, poincare_domain_constant
from .integrate import StepCounters, Trajectory, select_dt
from .kernel import TRUNCATED, assemble_kernel_matrix
from .run import Operators, build_operators, simulate, simulate_family

RELAXATION_TOL = 1e-2  # slack on the pointwise exponential bound
DIAMETER_SLOPE_TOL = 1e-8  # allowed diameter growth per unit time
MEAN_DRIFT_TOL = 1e-10
TRUNCATION_TOL = 1e-16
CONTRACTION_STEP_TOL = 1e-10  # per-step slack for the kappa = 0 semigroup checks


@dataclass(frozen=True)
class RungResult:
    value: float
    config: SimConfig
    records: list
    bound_checks: list[BoundCheck]
    n_steps: int


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    ladder: tuple[float, ...]
    rungs: list[RungResult]
    differences: list[float]
    decreasing: bool
    bounds_ok: bool
    dt: float
    stride: int
    wall_clock_s: float  # the rungs' batched simulation
    counters: StepCounters  # of the batched simulation, which every rung shares

    def report(self) -> dict:
        return {
            "parameter": self.parameter,
            "ladder": list(self.ladder),
            "dt": self.dt,
            "stride": self.stride,
            "successive_differences": self.differences,
            "decreasing": self.decreasing,
            "bounds_ok": self.bounds_ok,
            "rungs": [
                {
                    "value": rung.value,
                    "config_hash": rung.config.content_hash(),
                    "n_steps": rung.n_steps,
                    "final_diameter": rung.records[-1].diameter,
                    "final_dist_sq": rung.records[-1].dist_sq,
                    "bounds": [asdict(c) for c in rung.bound_checks],
                }
                for rung in self.rungs
            ],
        }


def _check_ladder(ladder, name) -> tuple[float, ...]:
    ladder = tuple(float(v) for v in ladder)
    problems = []
    if len(ladder) < 2:
        problems.append(f"{name}: need at least two rungs, got {len(ladder)}")
    if any(v <= 0.0 for v in ladder):
        problems.append(f"{name}: rung values must be positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        problems.append(f"{name}: ladder must be strictly decreasing")
    if problems:
        raise ConfigurationError(problems)
    return ladder


def _successive_differences(trajs: list[Trajectory]) -> list[float]:
    """Worst L2 distance between consecutive rungs over their shared record times."""
    w = trajs[0].grid.weight
    # row by row: a whole (K, N) difference would add to the sweep's peak memory
    return [max(math.sqrt(w * float(d @ d)) for d in map(np.subtract, a.snapshots, b.snapshots))
            for a, b in zip(trajs, trajs[1:])]


def _rung_configs(base: SimConfig, parameter: str, ladder, stiffest: Operators,
                  delta: float) -> list[SimConfig]:
    """One config per rung, each carrying the shared step: the configured one,
    else the automatic step of the stiffest rung's operators at ``delta``."""
    policy = base.integrator
    dt = policy.dt
    if dt is None:
        dt = select_dt(stiffest.coupling, stiffest.dissipation, base.physics.kappa, delta,
                       policy.safety, free_drift_horizon=policy.horizon)
    return [replace(base, physics=replace(base.physics, **{parameter: value}),
                    integrator=replace(policy, dt=dt)) for value in ladder]


def _sweep(parameter, ladder, configs: list[SimConfig],
           operators: list[Operators]) -> SweepResult:
    """Step every rung together and check each one's uniform bounds."""
    t0 = time.perf_counter()
    try:
        trajs = simulate_family(configs, operators)
    except BlowUpError as exc:
        raise BlowUpError(f"rung {exc.row} (value {ladder[exc.row]}) blew up: {exc}",
                          trajectory=exc.trajectory, t=exc.t, row=exc.row,
                          node=exc.node) from exc
    wall_clock_s = time.perf_counter() - t0
    rungs = [RungResult(value=value, config=traj.config, records=traj.records,
                        bound_checks=uniform_bound_report(traj), n_steps=traj.n_steps)
             for value, traj in zip(ladder, trajs)]
    diffs = _successive_differences(trajs)
    decreasing = all(b < a for a, b in zip(diffs, diffs[1:]))
    bounds_ok = all(c.satisfied is not False
                    for rung in rungs for c in rung.bound_checks)
    return SweepResult(parameter=parameter, ladder=ladder, rungs=rungs,
                       differences=diffs, decreasing=decreasing, bounds_ok=bounds_ok,
                       dt=trajs[0].dt, stride=configs[0].integrator.stride,
                       wall_clock_s=wall_clock_s, counters=trajs[0].counters)


def sweep_epsilon(base: SimConfig, ladder) -> SweepResult:
    """Shrink the kernel truncation along a decreasing ladder at fixed delta.

    Every rung shares the configured step, or else the automatic step of the
    smallest truncation (the stiffest rung): row sums grow as the truncation
    shrinks, so that rung's step is the smallest on the ladder.  Every rung
    shares the stiffest rung's dissipation operator; each report includes the
    dissipation-seminorm uniform bound.
    """
    ladder = _check_ladder(ladder, "epsilon ladder")
    problems = []
    if base.physics.model != "regularized":
        problems.append("sweep-eps: base config must use the regularized model")
    if base.physics.delta <= 0.0:
        problems.append("sweep-eps: needs a fixed positive delta")
    if problems:
        raise ConfigurationError(problems)

    stiffest = build_operators(replace(
        base, physics=replace(base.physics, epsilon=ladder[-1])))
    configs = _rung_configs(base, "epsilon", ladder, stiffest, base.physics.delta)
    operators = [stiffest._replace(coupling=assemble_kernel_matrix(
        stiffest.grid, TRUNCATED, base.physics.s, eps)) for eps in ladder[:-1]]
    return _sweep("epsilon", ladder, configs, operators + [stiffest])


def sweep_delta(base: SimConfig, ladder) -> SweepResult:
    """Shrink the dissipation strength with the singular coupling in force.

    The initial diameter must be below pi: that hypothesis backs the
    sinc-seminorm uniform bound checked on every rung.  The operators do not
    depend on delta, so one bundle serves every rung, and the shared step is
    the configured one or else the largest delta's automatic step.
    """
    ladder = _check_ladder(ladder, "delta ladder")
    problems = []
    if base.physics.model != "singular":
        problems.append("sweep-delta: base config must use the singular model "
                        "(the sine coupling keeps the untruncated kernel)")
    if base.initial.effective_diameter >= math.pi:
        problems.append("sweep-delta: initial diameter must be below pi")
    if base.physics.kappa <= 0.0:
        problems.append("sweep-delta: needs positive coupling strength")
    if problems:
        raise ConfigurationError(problems)

    ops = build_operators(base)
    configs = _rung_configs(base, "delta", ladder, ops, ladder[0])
    return _sweep("delta", ladder, configs, [ops] * len(ladder))


@dataclass(frozen=True)
class RelaxationReport:
    """Outcome of a relaxation run against its certified exponential rate."""

    m: float
    c_m: float
    lambda_star: float
    c_p_domain: float
    certified_rate: float
    gamma_hat: float
    fit_residual: float
    pointwise_ok: bool
    pointwise_margin: float
    rate_ok: bool
    satisfied: bool
    table: list[dict]

    def report(self) -> dict:
        report = asdict(self)
        report["initial_diameter"] = report.pop("m")
        return report


def pointwise_relaxation(records, kappa: float, lam_star: float):
    """Check dist_sq(t) <= dist_sq(0) * exp(-rate t) * (1 + RELAXATION_TOL) at every record.

    The certified rate is kappa * min_sinc(M) * lambda_star with M the
    initial diameter.  Returns (rate, table, ok, margin): one
    {t, dist_sq, bound} row per record, whether every row holds, and the
    smallest bound / dist_sq (1 when every distance is zero).
    """
    rate = kappa * min_sinc(records[0].diameter) * lam_star
    dist0 = records[0].dist_sq
    table = []
    ok = True
    margin = math.inf
    for rec in records:
        bound = dist0 * math.exp(-rate * rec.t) * (1.0 + RELAXATION_TOL)
        table.append({"t": rec.t, "dist_sq": rec.dist_sq, "bound": bound})
        ok = ok and rec.dist_sq <= bound
        if rec.dist_sq > 0.0:
            margin = min(margin, bound / rec.dist_sq)
    return rate, table, ok, 1.0 if math.isinf(margin) else margin


def relaxation_experiment(cfg: SimConfig) -> tuple[RelaxationReport, Trajectory]:
    """Run the undamped singular dynamics and verify exponential relaxation.

    Certifies the rate kappa * min_sinc(M) * lambda_star built from the sharp
    discrete constant; the loose constructive domain constant is reported
    alongside.  Hypothesis violations fail before any computation.
    """
    problems = []
    if cfg.physics.model != "singular":
        problems.append("relax: needs the singular model")
    if cfg.physics.delta != 0.0:
        problems.append("relax: needs delta = 0 (undamped dynamics)")
    if cfg.physics.kappa <= 0.0:
        problems.append("relax: needs positive coupling strength")
    if cfg.physics.nu_file is not None:
        problems.append("relax: needs a constant natural frequency")
    m = cfg.initial.effective_diameter
    if m >= math.pi:
        problems.append(f"relax: initial diameter must be below pi, got {m}")
    if problems:
        raise ConfigurationError(problems)

    ops = build_operators(cfg)
    lam_star = poincare_sharp_discrete(ops.dissipation)
    c_p_dom = poincare_domain_constant(ops.grid, cfg.physics.s)
    traj = simulate(cfg, ops)

    m0 = traj.records[0].diameter
    rate, table, pointwise_ok, margin = pointwise_relaxation(
        traj.records, cfg.physics.kappa, lam_star)

    if traj.records[0].dist_sq <= 1e-28:
        # Already at the mean: nothing decays, the bound holds trivially.
        gamma_hat, residual, rate_ok = 0.0, 0.0, True
    else:
        gamma_hat, residual = fit_decay_rate([r.t for r in traj.records],
                                             [r.dist_sq for r in traj.records])
        rate_ok = gamma_hat >= rate * (1.0 - 1e-9)

    report = RelaxationReport(
        m=m0, c_m=min_sinc(m0), lambda_star=lam_star, c_p_domain=c_p_dom,
        certified_rate=rate, gamma_hat=gamma_hat, fit_residual=residual,
        pointwise_ok=pointwise_ok, pointwise_margin=margin,
        rate_ok=rate_ok, satisfied=pointwise_ok and rate_ok, table=table,
    )
    return report, traj


def restrict_to_coarse(values: np.ndarray, dim: int, n_fine: int, n_coarse: int) -> np.ndarray:
    """Piecewise-constant restriction: average fine cells inside each coarse cell."""
    if n_fine % n_coarse:
        raise ConfigurationError([f"refinement ladder: {n_fine} is not a multiple of {n_coarse}"])
    f = n_fine // n_coarse
    if dim == 1:
        return values.reshape(n_coarse, f).mean(axis=1)
    return values.reshape(n_coarse, f, n_coarse, f).mean(axis=(1, 3)).ravel()


@dataclass(frozen=True)
class RefinementReport:
    rows: list[dict]
    coarse_diffs: list[float]
    dt_halving: dict

    def report(self) -> dict:
        return asdict(self)


def refinement_study(base: SimConfig, n_ladder) -> RefinementReport:
    """Refine the grid at fixed physics; separate h-error from the parameter limits.

    Reports the energy-identity residual per rung, final-state differences
    between consecutive rungs restricted to the coarsest grid, and one
    step-halving row on the coarsest rung (rk4 or rkc stepping with a
    second-order dissipation quadrature: the residual must drop at least 4x).
    An adaptive rkc run takes that row in fixed steps of its base dt.
    """
    n_ladder = tuple(int(n) for n in n_ladder)
    if any(b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ConfigurationError(["refinement ladder must be strictly increasing"])
    for n in n_ladder[1:]:
        if n % n_ladder[0]:
            raise ConfigurationError(
                [f"refinement ladder: {n} is not a multiple of the coarsest {n_ladder[0]}"])

    n0 = n_ladder[0]
    rows = []
    finals = []
    for n in n_ladder:
        cfg = replace(base, grid=replace(base.grid, nodes=n))
        ops = build_operators(cfg)
        traj = simulate(cfg, ops)
        e0 = traj.records[0].e_pot + traj.records[0].e_kin
        residual = energy_identity_residual(traj)
        rows.append({"n": n, "dt": traj.dt, "n_steps": traj.n_steps,
                     "energy_residual": residual,
                     "energy_residual_rel": residual / e0 if e0 > 0 else 0.0})
        finals.append(traj.snapshots[-1])
        if n == n0:
            # step-halving row on the coarsest rung, with that rung's operators;
            # an adaptive run halves the fixed step of its base dt instead
            if cfg.integrator.adaptive:
                fixed = replace(cfg, integrator=replace(cfg.integrator, dt=traj.dt))
                residual = energy_identity_residual(simulate(fixed, ops))
            cfg_half = replace(cfg, integrator=replace(cfg.integrator, dt=traj.dt / 2.0))
            res_half = energy_identity_residual(simulate(cfg_half, ops))
            dt_halving = {"n": n0, "dt": traj.dt, "residual": residual,
                          "residual_half": res_half,
                          "ratio": residual / res_half if res_half > 0 else math.inf}

    dim = base.grid.dimension
    w_coarse = build_grid(dim, n0, base.grid.extents).weight
    diffs = []
    for (na, fa), (nb, fb) in zip(zip(n_ladder, finals), zip(n_ladder[1:], finals[1:])):
        ra = restrict_to_coarse(fa, dim, na, n0)
        rb = restrict_to_coarse(fb, dim, nb, n0)
        d = ra - rb
        diffs.append(math.sqrt(w_coarse * float(d @ d)))
    return RefinementReport(rows=rows, coarse_diffs=diffs, dt_halving=dt_halving)


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool | None
    detail: str = ""


def _pairwise(records):
    return zip(records, records[1:])


def run_invariant_suite(cfg: SimConfig):
    """Simulate a config and check every invariant that applies to it.

    Returns (trajectory, checks, ok).  Checks that do not apply are reported
    as skipped with the reason; ok means no applicable check failed.
    """
    cfg.validate()
    ops = build_operators(cfg)
    traj = simulate(cfg, ops)
    kappa, delta = cfg.physics.kappa, cfg.physics.delta
    model = cfg.physics.model
    continuum = model != "lattice"
    m0 = traj.records[0].diameter
    checks = []

    if traj.gauge_reduced:
        worst = max(abs(r.mean) for r in traj.records)
        checks.append(CheckOutcome("mean-conservation", worst <= MEAN_DRIFT_TOL,
                                   f"max |mean| = {worst:.3e}"))
    else:
        checks.append(CheckOutcome("mean-conservation", None,
                                   "per-node frequencies drift the mean"))

    contracting = traj.gauge_reduced and (m0 < math.pi or kappa == 0.0)
    if contracting:
        ok = traj.records[-1].diameter <= m0 + 1e-12
        worst_slope = 0.0
        for a, b in _pairwise(traj.records):
            growth = b.diameter - a.diameter - DIAMETER_SLOPE_TOL * (b.t - a.t)
            worst_slope = max(worst_slope, growth)
        ok = ok and worst_slope <= 1e-12
        checks.append(CheckOutcome("diameter-monotone", ok,
                                   f"D(0) = {m0:.6g}, D(T) = {traj.records[-1].diameter:.6g}"))

        hi, lo = truncation_functionals(traj)
        checks.append(CheckOutcome("truncation-decay", max(hi, lo) <= TRUNCATION_TOL,
                                   f"overshoot norms {hi:.3e} / {lo:.3e}"))
    else:
        reason = "needs initial diameter below pi (or kappa = 0) and a constant frequency"
        checks.append(CheckOutcome("diameter-monotone", None, reason))
        checks.append(CheckOutcome("truncation-decay", None, reason))

    if continuum:
        e0 = traj.records[0].e_pot + traj.records[0].e_kin
        slack = 1e-9 * (e0 + 1.0)
        ok = all(b.e_pot + b.e_kin <= a.e_pot + a.e_kin + slack
                 for a, b in _pairwise(traj.records))
        checks.append(CheckOutcome("energy-monotone", ok,
                                   f"E(0) = {e0:.6g}, energy-identity residual "
                                   f"{energy_identity_residual(traj):.3e}"))

        rows = uniform_bound_report(traj)
        bad = [c.name for c in rows if c.satisfied is False]
        checks.append(CheckOutcome("uniform-bounds", not bad,
                                   "all applicable rows hold" if not bad
                                   else f"violated: {', '.join(bad)}"))
    else:
        checks.append(CheckOutcome("energy-monotone", None,
                                   "lattice coupling uses its own normalization"))
        checks.append(CheckOutcome("uniform-bounds", None,
                                   "lattice coupling uses its own normalization"))

    if kappa == 0.0 and continuum:
        steps_between = traj.step_counts
        l2 = [math.sqrt(r.dist_sq) for r in traj.records]
        linf = [float(np.abs(s).max()) for s in traj.snapshots]
        ok = all(b <= a + CONTRACTION_STEP_TOL * m
                 for (a, b), m in zip(_pairwise(l2), steps_between))
        ok = ok and all(b <= a + CONTRACTION_STEP_TOL * m
                        for (a, b), m in zip(_pairwise(linf), steps_between))
        checks.append(CheckOutcome("semigroup-contraction", ok,
                                   f"L2 {l2[0]:.6g} -> {l2[-1]:.6g}, "
                                   f"Linf {linf[0]:.6g} -> {linf[-1]:.6g}"))
    else:
        checks.append(CheckOutcome("semigroup-contraction", None,
                                   "applies to kappa = 0 continuum runs"))

    relax_applies = (model == "singular" and delta == 0.0 and kappa > 0.0
                     and 0.0 < m0 < math.pi)
    if relax_applies:
        rate, _, ok, _ = pointwise_relaxation(
            traj.records, kappa, poincare_sharp_discrete(ops.dissipation))
        checks.append(CheckOutcome("relaxation-pointwise", ok,
                                   f"certified rate {rate:.6g}"))
    else:
        checks.append(CheckOutcome("relaxation-pointwise", None,
                                   "applies to undamped singular runs with 0 < diameter < pi"))

    ok = all(c.passed is not False for c in checks)
    return traj, checks, ok
