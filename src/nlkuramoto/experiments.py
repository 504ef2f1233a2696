"""Scripted studies: truncation and dissipation sweeps, relaxation-rate
verification, grid refinement, and the run-level invariant suite.

Sweeps share one grid, one dissipation operator, one fixed step size (the
configured one, else chosen for the stiffest rung so every rung is stable),
one scheme (``auto`` resolved once for the whole ladder; every rung's config
carries the step and the scheme) and one output stride, so trajectories can
be compared at identical times.  Each rung's coupling is built once, and all
rungs step together as one batched system.  The successive differences
Delta_j are the computable stand-in for the compactness limits the analysis
provides: the sweeps certify a decreasing Cauchy trend, never a convergence
order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import pairwise
from pathlib import Path

import numpy as np

from .config import SimConfig, relaxation_problems
from .diagnostics import (FIT_FLOOR, FIT_TRANSIENT, BoundCheck, energy_identity_residual,
                          fit_decay_rate, fit_window, min_sinc, poincare_sharp_discrete,
                          truncation_functionals, uniform_bound_report)
from .errors import BlowUpError, ConfigurationError, ParameterError
from .grid import Grid, build_grid, poincare_domain_constant
from .integrate import Trajectory
from .kernel import assemble_kernel_matrix
from .run import (RECORD_KEYS, RELAX_RECORD_BYTES, Operators, build_operators, family_step,
                  memory_problems, simulate, simulate_family)

RELAXATION_TOL = 1e-2  # slack on the pointwise exponential bound
DIAMETER_SLOPE_TOL = 1e-8  # allowed diameter growth per unit time
MEAN_DRIFT_TOL = 1e-10
TRUNCATION_TOL = 1e-16
CONTRACTION_STEP_TOL = 1e-10  # per-step slack for the kappa = 0 semigroup checks


@dataclass(frozen=True)
class SweepResult:
    """A ladder's rungs, one trajectory each (they share the step, the stride
    and the batched run's counters), with each rung's uniform-bound rows in
    ``bound_checks`` and the successive differences between rungs."""

    parameter: str
    ladder: tuple[float, ...]
    rungs: list[Trajectory]
    bound_checks: list[list[BoundCheck]]
    differences: list[float]
    decreasing: bool
    bounds_ok: bool

    def report(self) -> dict:
        return {
            "parameter": self.parameter,
            "ladder": list(self.ladder),
            "dt": self.rungs[0].dt,
            "stride": self.rungs[0].config.integrator.stride,
            "successive_differences": self.differences,
            "decreasing": self.decreasing,
            "bounds_ok": self.bounds_ok,
            "rungs": [
                {
                    "value": value,
                    "config_hash": rung.config.content_hash(),
                    "n_steps": rung.counters.steps,
                    "final_diameter": float(rung.records["diameter"][-1]),
                    "final_dist_sq": float(rung.records["dist_sq"][-1]),
                    "bounds": [asdict(c) for c in checks],
                }
                for value, rung, checks in zip(self.ladder, self.rungs, self.bound_checks)
            ],
        }


def _check_ladder(ladder, name) -> tuple[float, ...]:
    ladder = tuple(float(v) for v in ladder)
    problems = []
    if len(ladder) < 2:
        problems.append(f"{name}: need at least two rungs, got {len(ladder)}")
    if any(v <= 0.0 for v in ladder):
        problems.append(f"{name}: rung values must be positive")
    if any(b >= a for a, b in pairwise(ladder)):
        problems.append(f"{name}: ladder must be strictly decreasing")
    if problems:
        raise ConfigurationError(problems)
    return ladder


def _successive_differences(trajs: list[Trajectory]) -> list[float]:
    """Worst L2 distance between consecutive rungs over their shared record times."""
    return [float(np.max(traj.records["dist_to_next"])) for traj in trajs[:-1]]


def _rung_configs(base: SimConfig, parameter: str, ladder,
                  operators: list[Operators]) -> list[SimConfig]:
    """One config per rung, each carrying the family's shared step and
    scheme, so a rung's manifest reproduces that rung alone.  The step is
    written in first, so :func:`family_step` resolves auto as at a fixed step
    and a resolved rkc does not step adaptively.  Rung j writes to
    ``rung_<j>/`` of the base's output directory."""
    def rungs(**integrator) -> list[SimConfig]:
        return [replace(base, physics=replace(base.physics, **{parameter: value}),
                        integrator=replace(base.integrator, **integrator),
                        output=replace(base.output,
                                       directory=str(Path(base.output.directory) / f"rung_{j}")))
                for j, value in enumerate(ladder)]

    dt = family_step(rungs(), operators).dt
    return rungs(dt=dt, scheme=family_step(rungs(dt=dt), operators).scheme)


def _sweep(parameter, ladder, configs: list[SimConfig],
           operators: list[Operators]) -> SweepResult:
    """Step every rung together and check each one's uniform bounds."""
    try:
        trajs = simulate_family(configs, operators)
    except BlowUpError as exc:  # every rung's partial trajectory rides along
        exc.args = (f"rung {exc.row} (value {ladder[exc.row]}) blew up: {exc}",)
        raise
    bound_checks = [uniform_bound_report(traj) for traj in trajs]
    diffs = _successive_differences(trajs)
    decreasing = all(b < a for a, b in pairwise(diffs))
    bounds_ok = all(c.satisfied is not False for checks in bound_checks for c in checks)
    return SweepResult(parameter=parameter, ladder=ladder, rungs=trajs,
                       bound_checks=bound_checks, differences=diffs, decreasing=decreasing,
                       bounds_ok=bounds_ok)


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
    operators = [stiffest._replace(coupling=assemble_kernel_matrix(
        stiffest.grid, base.physics.s, eps)) for eps in ladder[:-1]] + [stiffest]
    return _sweep("epsilon", ladder, _rung_configs(base, "epsilon", ladder, operators),
                  operators)


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

    operators = [build_operators(base)] * len(ladder)
    return _sweep("delta", ladder, _rung_configs(base, "delta", ladder, operators), operators)


@dataclass(frozen=True)
class RelaxationReport:
    """Outcome of a relaxation run against its certified exponential rate;
    no fitted rate (None) when dist_sq fell under the fit floor too soon."""

    initial_diameter: float
    c_m: float
    lambda_star: float
    c_p_domain: float
    certified_rate: float
    gamma_hat: float | None
    fit_residual: float | None
    pointwise_ok: bool
    pointwise_margin: float
    rows_below_floor: int
    rate_ok: bool
    satisfied: bool

    def document(self, records) -> dict:
        """The report as relaxation_report.json holds it: every field, and a
        {t, dist_sq, bound} row per record of the run it was made from."""
        rows = zip(records["t"].tolist(), records["dist_sq"].tolist(),
                   _relaxation_bound(records, self.certified_rate).tolist())
        return {**asdict(self), "table": [{"t": t, "dist_sq": d, "bound": b} for t, d, b in rows]}


def _relaxation_bound(records, rate: float) -> np.ndarray:
    """dist_sq(0) exp(-rate t) (1 + RELAXATION_TOL) at each record, by math.exp:
    numpy's exp differs from it in the last bit for some arguments."""
    exp = np.fromiter(map(math.exp, -rate * records["t"]), float, len(records))
    return float(records["dist_sq"][0]) * exp * (1.0 + RELAXATION_TOL)


def relaxation_report(records, kappa: float, lam_star: float, grid: Grid,
                      s: float) -> RelaxationReport:
    """Check a relaxation run's records against the certified rate
    kappa * min_sinc(M) * lambda_star, M the initial diameter, beside the
    loose domain constant of ``grid`` and ``s``.

    Pointwise, dist_sq(t) <= dist_sq(0) exp(-rate t) (1 + RELAXATION_TOL) at
    every record whose bound is at least |domain| (4u)^2, u = spacing(|mean|
    + diameter) of the record: no field within 4 ulps of its mean has a
    larger dist_sq, so below that floor the distance is rounding
    (``rows_below_floor`` counts those rows; a NaN row is compared, and
    fails).  ``pointwise_margin`` is the smallest bound / dist_sq of the
    compared rows after t = 0 (1 when none has dist_sq > 0; the t = 0 row's
    ratio is 1 + RELAXATION_TOL by construction).  The fitted rate must reach
    the certified one.
    """
    m0, dist0 = float(records["diameter"][0]), float(records["dist_sq"][0])
    c_m = min_sinc(m0)
    rate = kappa * c_m * lam_star
    dist_sq = records["dist_sq"]
    bound = _relaxation_bound(records, rate)
    floor = grid.measure * (4.0 * np.spacing(np.abs(records["mean"]) + records["diameter"])) ** 2
    below = bound < floor  # NaN compares False, so a NaN row is compared
    ok = bool(np.all(dist_sq[~below] <= bound[~below]))
    later = ~below & (dist_sq > 0.0)
    later[0] = False
    with np.errstate(over="ignore"):  # a ratio past the largest double is inf, as in Python
        margin = float(np.fmin.reduce(bound[later] / dist_sq[later], initial=math.inf))

    gamma_hat, residual, rate_ok = 0.0, 0.0, True  # already at the mean: nothing decays
    if dist0 > FIT_FLOOR:
        try:
            gamma_hat, residual = fit_decay_rate(records["t"], dist_sq)
            rate_ok = gamma_hat >= rate * (1.0 - 1e-9)
        except ParameterError:  # dist_sq fell under the floor before two fitted records
            gamma_hat, residual, rate_ok = None, None, False

    return RelaxationReport(
        initial_diameter=m0, c_m=c_m, lambda_star=lam_star,
        c_p_domain=poincare_domain_constant(grid, s), certified_rate=rate,
        gamma_hat=gamma_hat, fit_residual=residual, pointwise_ok=ok,
        pointwise_margin=1.0 if math.isinf(margin) else margin,
        rows_below_floor=int(below.sum()), rate_ok=rate_ok, satisfied=ok and rate_ok,
    )


def relaxation_experiment(cfg: SimConfig) -> tuple[RelaxationReport, Trajectory]:
    """Run the undamped singular dynamics and verify exponential relaxation
    (:func:`relaxation_report`), lambda_star solved before the first step.

    Hypothesis violations, a record grid that leaves the rate fit fewer than
    two records after its transient, and records whose report table would
    not fit in physical memory (:data:`~nlkuramoto.run.RELAX_RECORD_BYTES`
    each) fail before any step, all listed in one ConfigurationError.
    """
    problems = relaxation_problems(cfg.physics, cfg.initial.effective_diameter)
    ops = build_operators(cfg)
    times = family_step([cfg], [ops]).times
    fitted = int(fit_window(times).sum())
    if fitted < 2:
        problems.append(
            f"the decay-rate fit needs two records at t >= {FIT_TRANSIENT:g} x horizon; "
            f"integrator.stride = {cfg.integrator.stride} leaves {fitted} there "
            f"({len(times)} records in all): lower integrator.stride")
    problems += memory_problems(len(times) * RELAX_RECORD_BYTES, RECORD_KEYS)
    if problems:
        raise ConfigurationError([f"relax: {problem}" for problem in problems])

    lam_star = poincare_sharp_discrete(ops.dissipation)
    traj = simulate(cfg, ops)
    return relaxation_report(traj.records, cfg.physics.kappa, lam_star, ops.grid,
                             cfg.physics.s), traj


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


def refinement_study(base: SimConfig, n_ladder) -> RefinementReport:
    """Refine the grid at fixed physics; separate h-error from the parameter limits.

    Reports the energy-identity residual per rung, final-state differences
    between consecutive rungs restricted to the coarsest grid, and one
    step-halving row on the coarsest rung (rk4 or rkc stepping with a
    second-order dissipation quadrature: the residual must drop at least 4x;
    its ratio is None when the halved residual is zero).  An adaptive rkc run
    takes that row in fixed steps of its base dt.  The study writes no
    outputs, so its runs write no snapshots.
    """
    n_ladder = tuple(int(n) for n in n_ladder)
    if not n_ladder:
        raise ConfigurationError(["refinement ladder: need at least one grid size"])
    if any(b <= a for a, b in pairwise(n_ladder)):
        raise ConfigurationError(["refinement ladder must be strictly increasing"])
    for n in n_ladder[1:]:
        if n % n_ladder[0]:
            raise ConfigurationError(
                [f"refinement ladder: {n} is not a multiple of the coarsest {n_ladder[0]}"])

    formats = tuple(f for f in base.output.formats if f != "snapshots")
    base = replace(base, output=replace(base.output, formats=formats))
    n0 = n_ladder[0]
    rows = []
    finals = []
    for n in n_ladder:
        cfg = replace(base, grid=replace(base.grid, nodes=n))
        ops = build_operators(cfg)
        traj = simulate(cfg, ops)
        e0 = float(traj.records["e_pot"][0] + traj.records["e_kin"][0])
        residual = energy_identity_residual(traj)
        rows.append({"n": n, "dt": traj.dt, "n_steps": traj.counters.steps,
                     "energy_residual": residual,
                     "energy_residual_rel": residual / e0 if e0 > 0 else 0.0})
        finals.append(traj.final)
        if n == n0:
            # step-halving row on the coarsest rung, with that rung's operators
            # and scheme (auto could resolve otherwise at half the step); an
            # adaptive run halves the fixed step of its base dt instead
            policy = replace(cfg.integrator, scheme=traj.scheme)
            if traj.adaptive:
                fixed = replace(cfg, integrator=replace(policy, dt=traj.dt))
                residual = energy_identity_residual(simulate(fixed, ops))
            cfg_half = replace(cfg, integrator=replace(policy, dt=traj.dt / 2.0))
            res_half = energy_identity_residual(simulate(cfg_half, ops))
            dt_halving = {"n": n0, "dt": traj.dt, "residual": residual,
                          "residual_half": res_half,
                          "ratio": residual / res_half if res_half > 0 else None}

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


def run_invariant_suite(cfg: SimConfig):
    """Simulate a config and check every invariant that applies to it.

    Returns (trajectory, checks, ok).  Checks that do not apply are reported
    as skipped with the reason; ok means no applicable check failed.
    """
    cfg.validate()
    ops = build_operators(cfg)
    traj = simulate(cfg, ops)
    kappa = cfg.physics.kappa
    continuum = cfg.physics.model != "lattice"
    records = traj.records
    t, diam = records["t"], records["diameter"]
    m0 = float(diam[0])
    checks = []

    if traj.gauge_reduced:
        worst = float(np.max(np.abs(records["mean"])))
        checks.append(CheckOutcome("mean-conservation", worst <= MEAN_DRIFT_TOL,
                                   f"max |mean| = {worst:.3e}"))
    else:
        checks.append(CheckOutcome("mean-conservation", None,
                                   "per-node frequencies drift the mean"))

    contracting = traj.gauge_reduced and (m0 < math.pi or kappa == 0.0)
    if contracting:
        growth = np.diff(diam) - DIAMETER_SLOPE_TOL * np.diff(t)
        ok = bool(diam[-1] <= m0 + 1e-12 and np.all(growth <= 1e-12))
        checks.append(CheckOutcome("diameter-monotone", ok,
                                   f"D(0) = {m0:.6g}, D(T) = {diam[-1]:.6g}"))

        hi, lo = truncation_functionals(traj)
        checks.append(CheckOutcome("truncation-decay", max(hi, lo) <= TRUNCATION_TOL,
                                   f"overshoot norms {hi:.3e} / {lo:.3e}"))
    else:
        reason = "needs initial diameter below pi (or kappa = 0) and a constant frequency"
        checks.append(CheckOutcome("diameter-monotone", None, reason))
        checks.append(CheckOutcome("truncation-decay", None, reason))

    if traj.gauge_reduced:  # the lattice's records couple at its rate's kappa / |domain| too
        energy = records["e_pot"] + records["e_kin"]
        e0 = float(energy[0])
        slack = 1e-9 * (e0 + 1.0)
        ok = bool(np.all(energy[1:] <= energy[:-1] + slack))
        checks.append(CheckOutcome("energy-monotone", ok,
                                   f"E(0) = {e0:.6g}, energy-identity residual "
                                   f"{energy_identity_residual(traj):.3e}"))
    else:
        checks.append(CheckOutcome("energy-monotone", None,
                                   "per-node frequencies break the energy identity"))

    if continuum:
        rows = uniform_bound_report(traj)
        bad = [c.name for c in rows if c.satisfied is False]
        checks.append(CheckOutcome("uniform-bounds", not bad,
                                   "all applicable rows hold" if not bad
                                   else f"violated: {', '.join(bad)}"))
    else:
        checks.append(CheckOutcome("uniform-bounds", None,
                                   "its rows read kappa, not the lattice's kappa / |domain|"))

    if kappa == 0.0 and continuum:
        slack = CONTRACTION_STEP_TOL * np.array(traj.step_counts)
        l2, linf = np.sqrt(records["dist_sq"]), records["linf"]
        ok = bool(np.all(l2[1:] <= l2[:-1] + slack) and np.all(linf[1:] <= linf[:-1] + slack))
        checks.append(CheckOutcome("semigroup-contraction", ok,
                                   f"L2 {l2[0]:.6g} -> {l2[-1]:.6g}, "
                                   f"Linf {linf[0]:.6g} -> {linf[-1]:.6g}"))
    else:
        checks.append(CheckOutcome("semigroup-contraction", None,
                                   "applies to kappa = 0 continuum runs"))

    if m0 > 0.0 and not relaxation_problems(cfg.physics, m0):
        lam_star = poincare_sharp_discrete(ops.dissipation)
        report = relaxation_report(records, kappa, lam_star, ops.grid, cfg.physics.s)
        below = report.rows_below_floor
        floor = f", {below} rows below the rounding floor" if below else ""
        checks.append(CheckOutcome("relaxation-pointwise", report.pointwise_ok,
                                   f"certified rate {report.certified_rate:.6g}{floor}"))
    else:
        checks.append(CheckOutcome("relaxation-pointwise", None,
                                   "applies to undamped singular runs with 0 < diameter < pi"))

    ok = all(c.passed is not False for c in checks)
    return traj, checks, ok
