"""Explicit time stepping with step sizes tied to discrete operator norms.

The right-hand sides are globally Lipschitz at fixed discretization, and
every one has a symmetric Jacobian whose spectrum lies inside
[-rho, rho], rho = 2*kappa*max_row(coupling) + 2*delta*max_row(dissipation)
(:func:`stiffness_bound`).  The automatic step size safety / rho keeps the
scaled step inside the stability region of rk4 and euler.  rkc, a
second-order Runge-Kutta-Chebyshev method, adds stages as the step grows
past that limit instead, so its step is set by accuracy, not stability.
Dissipation is accumulated along the run by the trapezoidal rule on
rate-field norms (over the stage abscissae for rkc), so the energy identity
can be checked without differencing snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import BlowUpError, ParameterError
from .grid import Grid
from .kernel import KernelOperator

RK4 = "rk4"
EULER = "euler"
RKC = "rkc"
SCHEMES = (RK4, EULER, RKC)

# RKC2 (Sommeijer, Shampine & Verwer, JCAM 1998): the damping of the
# Chebyshev stages, and the absolute and relative tolerance of the adaptive
# step's error test
RKC_DAMPING = 2.0 / 13.0
RKC_TOL = 1e-7


def stiffness_bound(coupling: KernelOperator | None, dissipation: KernelOperator | None,
                    kappa: float, delta: float) -> float:
    """2 kappa max_row(coupling) + 2 delta max_row(dissipation).

    Gershgorin's bound on the spectral radius of the rate's Jacobian; 0 for
    free drift (kappa = delta = 0).
    """
    lam = 0.0
    if kappa > 0.0:
        if coupling is None:
            raise ParameterError("kappa > 0 needs a coupling matrix")
        lam += 2.0 * kappa * float(coupling.row_sums.max())
    if delta > 0.0:
        if dissipation is None:
            raise ParameterError("delta > 0 needs a dissipation matrix")
        lam += 2.0 * delta * float(dissipation.row_sums.max())
    return lam


def auto_step(bound: float, safety: float, free_drift_horizon: float = 1.0) -> float:
    """safety / bound; with no coupling at all (bound 0) the motion is free
    drift and needs no stability limit, so the fallback is safety *
    free_drift_horizon."""
    if not 0.0 < safety <= 1.0:
        raise ParameterError(f"safety factor must lie in (0, 1], got {safety}")
    if bound == 0.0:
        return safety * free_drift_horizon
    return safety / bound


def select_dt(coupling: KernelOperator | None, dissipation: KernelOperator | None,
              kappa: float, delta: float, safety: float,
              free_drift_horizon: float = 1.0) -> float:
    """Step size safety / (2 kappa max_row(coupling) + 2 delta max_row(dissipation))."""
    return auto_step(stiffness_bound(coupling, dissipation, kappa, delta), safety,
                     free_drift_horizon)


@lru_cache(maxsize=None)
def _rkc_coefficients(s: int):
    """(mu, nu, mu~, gamma~, c) of the s-stage RKC2 method, indexed by stage.

    From the Chebyshev polynomials T_j and their first two derivatives at
    w0 = 1 + damping / s^2 (SSV98, section 2); c[j] is the abscissa of stage
    j, and c[s] = 1.
    """
    w0 = 1.0 + RKC_DAMPING / s ** 2
    t, t1, t2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        t.append(2.0 * w0 * t[j - 1] - t[j - 2])
        t1.append(2.0 * t[j - 1] + 2.0 * w0 * t1[j - 1] - t1[j - 2])
        t2.append(4.0 * t1[j - 1] + 2.0 * w0 * t2[j - 1] - t2[j - 2])
    w1 = t1[s] / t2[s]
    b = [t2[max(j, 2)] / t1[max(j, 2)] ** 2 for j in range(s + 1)]
    mu, nu, mu_t, gamma_t = ([0.0] * (s + 1) for _ in range(4))
    mu_t[1] = b[1] * w1
    for j in range(2, s + 1):
        mu[j] = 2.0 * w0 * b[j] / b[j - 1]
        nu[j] = -b[j] / b[j - 2]
        mu_t[j] = 2.0 * w1 * b[j] / b[j - 1]
        gamma_t[j] = -(1.0 - b[j - 1] * t[j - 1]) * mu_t[j]
    c = [0.0, mu_t[1]] + [w1 * t2[j] / t1[j] for j in range(2, s)] + [1.0]
    return mu, nu, mu_t, gamma_t, c


def _rkc_stages(values, rhs, dt, k1, stiffness, stage_rates):
    # s stages with s^2 >= 1 + 1.54 dt rho: the damped stability interval,
    # about 0.65 s^2, then covers [-dt rho, 0]
    s = max(2, math.ceil(math.sqrt(1.0 + 1.54 * dt * stiffness)))
    mu, nu, mu_t, gamma_t, c = _rkc_coefficients(s)
    older, old = values, values + (mu_t[1] * dt) * k1
    for j in range(2, len(c)):
        rate = rhs(old)
        if stage_rates is not None:
            stage_rates.append((c[j - 1], rate))
        older, old = old, ((1.0 - mu[j] - nu[j]) * values + mu[j] * old + nu[j] * older
                           + (mu_t[j] * dt) * rate + (gamma_t[j] * dt) * k1)
    return old


def step(values: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], dt: float,
         scheme: str = RK4, k1: np.ndarray | None = None, stiffness: float = 0.0,
         stage_rates: list | None = None) -> np.ndarray:
    """One explicit step of the autonomous system values' = rhs(values).

    ``values`` is one state or an (R, N) family; ``k1`` may supply a
    precomputed rhs(values) to reuse.  rkc takes as many stages as dt times
    ``stiffness``, a bound on the spectral radius of the rate's Jacobian,
    needs, and appends (abscissa, rate) of every stage rate it evaluates to
    ``stage_rates`` if given.  Raises BlowUpError if the result is not
    finite, with ``row`` the first non-finite member.
    """
    if dt <= 0.0:
        raise ParameterError(f"dt must be positive, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):
        if k1 is None:
            k1 = rhs(values)
        if scheme == EULER:
            out = values + dt * k1
        elif scheme == RK4:
            k2 = rhs(values + 0.5 * dt * k1)
            k3 = rhs(values + 0.5 * dt * k2)
            k4 = rhs(values + dt * k3)
            out = values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        elif scheme == RKC:
            out = _rkc_stages(values, rhs, dt, k1, stiffness, stage_rates)
        else:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not np.all(np.isfinite(out)):
        finite = np.isfinite(out).all(axis=-1)
        raise BlowUpError("non-finite state after step", row=int(np.argmin(finite)))
    return out


def _error_norms(old, new, rate_old, rate_new, dt) -> np.ndarray:
    """RMS of each member's SSV98 local error estimate
    (12 (y_n - y_n+1) + 6 dt (F_n + F_n+1)) / 15 over the tolerance scale."""
    est = (12.0 * (old - new) + 6.0 * dt * (rate_old + rate_new)) / 15.0
    scale = RKC_TOL + RKC_TOL * np.maximum(np.abs(old), np.abs(new))
    return np.sqrt(np.mean((est / scale) ** 2, axis=-1))


def _step_factor(err: float) -> float:
    """SSV98's step-size factor 0.8 err^(-1/3), kept within [0.1, 10]."""
    return 10.0 if err == 0.0 else min(10.0, max(0.1, 0.8 * err ** (-1 / 3)))


@dataclass
class StepCounters:
    """The work of one run: accepted and rejected steps, rate evaluations and
    record times (t = 0 included)."""

    steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0
    records: int = 0


@dataclass
class Trajectory:
    """Snapshots and diagnostics of one run.

    ``snapshots`` is one read-only (len(times), N) array whose row k is the
    evolved (gauge-reduced, for continuum models) field at ``times[k]``;
    :meth:`physical_values` restores the affine shift mean + nu * t.  The
    cumulative dissipation lives in the records, accumulated by the same
    trapezoidal quadrature the stepper uses.  ``dt`` is the base step, whose
    multiples give the record times; ``n_steps`` is the number of steps the
    run was set for, or the accepted steps of an adaptive rkc run;
    ``step_counts`` holds the steps taken between consecutive records and
    ``counters`` the work of the whole run (a family's members share it).
    """

    config: object
    grid: Grid
    times: list[float]
    snapshots: np.ndarray
    records: list[DiagnosticsRecord]
    theta_bar: float
    nu: object
    gauge_reduced: bool
    dt: float
    n_steps: int
    step_counts: list[int]
    counters: StepCounters
    status: str = "completed"

    def physical_values(self, index: int) -> np.ndarray:
        snap = self.snapshots[index]
        if not self.gauge_reduced:
            return snap.copy()
        return snap + self.theta_bar + float(self.nu) * self.times[index]


RecordFn = Callable[[np.ndarray, float, list[float]], list[DiagnosticsRecord]]


class Flow(NamedTuple):
    """Times, snapshots and per-member records, the steps taken between
    records, and the run's counters.  ``snapshots`` is one read-only
    (R, len(times), N) array, member j's states at the record times in
    ``snapshots[j]``."""

    times: list[float]
    snapshots: np.ndarray
    records: list[list[DiagnosticsRecord]]
    step_counts: list[int]
    counters: StepCounters


def integrate_flow(theta0: np.ndarray, grid: Grid, rhs: Callable[[np.ndarray], np.ndarray],
                   dt: float, n_steps: int, stride: int, scheme: str,
                   make_record: RecordFn, *, stiffness: float = 0.0,
                   adaptive: bool = False) -> Flow:
    """Step an (R, N) family of states together, recording at t = k dt for
    every ``stride``-th k and at k = ``n_steps``.

    Fixed steps are ``dt`` long.  With ``adaptive`` (rkc only) the steps
    start at ``dt`` and are sized by the SSV98 error estimate, the family's
    worst member deciding, and clipped to land on each record time.
    ``stiffness`` bounds the spectral radius of the rate's Jacobian; rkc
    sizes its stages by it.  ``make_record(values, t, dissipated)`` returns
    one record per member, and each member's dissipation sums its own rate
    rows.  Every record follows a rate evaluation at the state it records,
    the last one made (under every scheme, after rejected tries too), so
    ``make_record`` may reuse what that evaluation computed.
    The snapshots fill one (R, K, N) buffer, K the number of record times.
    On blow-up, raises BlowUpError naming the member (``row``) and the node of
    its largest |rate| at the last finite state (``node``), with ``t`` the
    last good time and as ``trajectory`` the partial Flow, whose snapshots are
    the rows recorded.
    """
    # C order keeps each member's row contiguous, as a lone state is, so the
    # reductions over a row are bitwise the same
    values = np.array(theta0, dtype=float, order="C")
    marks = (*range(stride, n_steps, stride), n_steps)
    snapshots = np.empty((len(values), 1 + len(marks), values.shape[1]))
    counters = StepCounters()
    diss = [0.0] * len(values)
    norm_w = grid.weight

    def rate_of(v):
        counters.rhs_evals += 1
        return rhs(v)

    def squares(rates):
        return [norm_w * float(r @ r) for r in rates]

    def record(index, t):
        snapshots[:, index] = values
        counters.records += 1
        return make_record(values, t, diss)

    def recorded() -> Flow:
        """The flow with its snapshots cut to the rows recorded, read-only."""
        view = snapshots[:, :len(flow.times)]
        view.setflags(write=False)
        return flow._replace(snapshots=view)

    def peak(row):
        """The node of a member's largest |rate| at the current state."""
        return int(np.argmax(np.abs(rate[row])))

    def advance(t, h, where):
        """One step of size h from the current state at t: the new state, its
        rate and the stage (abscissa, squared rate norms) of the quadrature."""
        stages = [] if scheme == RKC else None
        try:
            new = step(values, rate_of, h, scheme, k1=rate, stiffness=stiffness,
                       stage_rates=stages)
        except BlowUpError as exc:
            node = peak(exc.row)
            raise BlowUpError(f"non-finite state at t = {t + h:.6g} "
                              f"(step {counters.steps + 1}{where}, node {node})",
                              trajectory=recorded(), t=t, row=exc.row, node=node) from exc
        rate_new = rate_of(new)
        return new, rate_new, [(c, squares(r)) for c, r in stages or ()]

    def accept(h, sq, stages, rate_new):
        """Count a step and add its trapezoid over the abscissae 0, c_1, ...,
        c_{s-1}, 1; returns the squared norms of its end rate."""
        nodes = [(0.0, sq), *stages, (1.0, squares(rate_new))]
        for j in range(len(diss)):
            diss[j] += 0.5 * h * sum((cb - ca) * (qa[j] + qb[j])
                                     for (ca, qa), (cb, qb) in zip(nodes, nodes[1:]))
        counters.steps += 1
        return nodes[-1][1]

    h = dt
    # Overflow on the way to a detected blow-up is expected; the finite-state
    # check in step() is the guard, so the warnings are suppressed here.
    with np.errstate(over="ignore", invalid="ignore"):
        rate = rate_of(values)
        flow = Flow([0.0], snapshots, [[rec] for rec in record(0, 0.0)], [], counters)
        sq = squares(rate)
        for index, k_rec in enumerate(marks, 1):
            t, t_rec = flow.times[-1], k_rec * dt
            start = counters.steps
            if not adaptive:
                for k in range(counters.steps, k_rec):
                    values, rate, stages = advance(k * dt, dt, f" of {n_steps}")
                    sq = accept(dt, sq, stages, rate)
            while adaptive and t < t_rec:
                # a step within 10% of the record time stretches to land on it
                # rather than leave a sliver
                last = 1.1 * h >= t_rec - t
                h_try = t_rec - t if last else h
                new, rate_new, stages = advance(t, h_try, ", adaptive")
                errs = _error_norms(values, new, rate, rate_new, h_try)
                err = float(errs.max())
                h = h_try * _step_factor(err)
                if not err <= 1.0:
                    counters.rejected_steps += 1
                    if t + h == t:
                        row = int(np.argmin(errs <= 1.0))
                        raise BlowUpError(f"step size underflow at t = {t:.6g}",
                                          trajectory=recorded(), t=t, row=row, node=peak(row))
                    continue
                sq = accept(h_try, sq, stages, rate_new)
                values, rate = new, rate_new
                t = t_rec if last else t + h_try
            flow.times.append(t_rec)
            flow.step_counts.append(counters.steps - start)
            for j, rec in enumerate(record(index, t_rec)):
                flow.records[j].append(rec)
    return recorded()
