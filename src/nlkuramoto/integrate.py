"""Explicit time stepping with step sizes tied to discrete operator norms.

The right-hand sides are globally Lipschitz at fixed discretization, and
every one has a symmetric Jacobian whose spectrum lies inside
[-rho, rho], rho = 2*kappa*max_row(coupling) + 2*delta*max_row(dissipation)
(:func:`stiffness_bound`).  The automatic step size safety / rho keeps the
scaled step inside the stability region of rk4 and euler.  rkc, a
second-order Runge-Kutta-Chebyshev method, adds stages as the step grows
past that limit instead, so its step is set by accuracy, not stability.  A
config's scheme may also be ``auto``, which each run resolves to rk4 or rkc
(:func:`nlkuramoto.run.family_step`).
Dissipation is accumulated along the run by the trapezoidal rule on
rate-field norms (over the stage abscissae for rkc), so the energy identity
can be checked without differencing snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from typing import Callable, NamedTuple

import numpy as np

from .diagnostics import RECORD_DTYPE
from .errors import BlowUpError, ParameterError
from .grid import Grid
from .kernel import KernelOperator

RK4 = "rk4"
EULER = "euler"
RKC = "rkc"
SCHEMES = (RK4, EULER, RKC)
AUTO = "auto"  # a config's scheme, resolved to rk4 or rkc per run

# RKC2 (Sommeijer, Shampine & Verwer, JCAM 1998): the damping of the
# Chebyshev stages, and the absolute and relative tolerance of the adaptive
# step's error test
RKC_DAMPING = 2.0 / 13.0
RKC_TOL = 1e-7


def stiffness_bound(coupling: KernelOperator, dissipation: KernelOperator,
                    kappa: float, delta: float) -> float:
    """2 kappa max_row(coupling) + 2 delta max_row(dissipation).

    Gershgorin's bound on the spectral radius of the rate's Jacobian; 0 for
    free drift (kappa = delta = 0).
    """
    lam = 0.0
    if kappa > 0.0:
        lam += 2.0 * kappa * float(coupling.row_sums.max())
    if delta > 0.0:
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


def rkc_stage_count(dt: float, stiffness: float) -> int:
    """The stages rkc takes for a step dt at stiffness rho: the fewest s >= 2
    with s^2 >= 1 + 1.54 dt rho, so that the damped stability interval,
    about 0.65 s^2, covers [-dt rho, 0]."""
    return max(2, math.ceil(math.sqrt(1.0 + 1.54 * dt * stiffness)))


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
    mu, nu, mu_t, gamma_t, c = _rkc_coefficients(rkc_stage_count(dt, stiffness))
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
    """The work of one run: accepted and rejected steps and rate evaluations."""

    steps: int = 0
    rejected_steps: int = 0
    rhs_evals: int = 0


@dataclass
class Trajectory:
    """The one record of what a run did: its config, status, step and work,
    final state and diagnostics.

    ``records`` is the member's column of the run's records, one row per
    record time with the float64 fields :data:`nlkuramoto.diagnostics.RECORD_FIELDS`.
    ``final`` is the read-only evolved (gauge-reduced, for continuum models)
    field at the last time reached: the last record's ``t`` for a completed
    run, the last finite state for a blow-up.  The records carry every norm the
    checks read, so no check needs the states of the history; a run whose
    output formats name ``snapshots`` writes those as it records them
    (:func:`nlkuramoto.run.simulate_family`).  The cumulative dissipation
    lives in the records, accumulated by the same trapezoidal quadrature the
    stepper uses.  ``dt`` is the base step, whose multiples give the record
    times; ``scheme`` is the scheme the run stepped with (a config's ``auto``
    resolved), ``adaptive`` whether rkc sized its steps by its error
    estimate, and ``stiffness`` the member's bound on the spectral radius of
    its rate's Jacobian (a family's rkc sizes its stages by the largest).
    ``step_counts`` holds the steps taken between consecutive records and
    ``counters`` the work of the whole run (a family's members share it):
    ``counters.steps`` is the accepted steps, of a partial run too.
    ``status`` is "completed" or "blow-up".
    """

    config: object
    grid: Grid
    final: np.ndarray
    records: np.ndarray
    gauge_reduced: bool
    dt: float
    scheme: str
    adaptive: bool
    stiffness: float
    step_counts: list[int]
    counters: StepCounters
    status: str = "completed"


RecordFn = Callable[[np.ndarray, float, list[float]], np.ndarray]


class Flow(NamedTuple):
    """The current (R, N) state, the records (a (K, R) array of RECORD_DTYPE:
    one row per record time reached, one column per member), the steps taken
    between records, and the run's counters.  ``final`` is read-only."""

    final: np.ndarray
    records: np.ndarray
    step_counts: list[int]
    counters: StepCounters


def integrate_flow(theta0: np.ndarray, grid: Grid, rhs: Callable[[np.ndarray], np.ndarray],
                   dt: float, n_steps: int, times: np.ndarray, scheme: str,
                   make_record: RecordFn, *, stiffness: float = 0.0,
                   adaptive: bool = False) -> Flow:
    """Step an (R, N) family of states together, recording at each of
    ``times``: 0, then multiples of ``dt`` up to ``n_steps`` dt
    (:func:`nlkuramoto.run.family_step` gives them).

    Fixed steps are ``dt`` long, the k-th ending at k dt.  With ``adaptive``
    (rkc only) the steps start at ``dt`` and are sized by the SSV98 error
    estimate, the family's worst member deciding, and clipped to land on each
    record time.  ``stiffness`` bounds the spectral radius of the rate's
    Jacobian; rkc sizes its stages by it.  ``make_record(values, t,
    dissipated)`` returns the records at t, one RECORD_DTYPE element per
    member, and each member's dissipation sums its own rate rows.  The records
    fill one array, allocated once, of a row per time and a column per
    member.  Every record follows a rate evaluation at the state it records,
    the last one made (under every scheme, after rejected tries too), so
    ``make_record`` may reuse what that evaluation computed.  Only the current
    (R, N) state is held, returned as ``final``.  On blow-up, raises
    BlowUpError naming the member (``row``) and the node of its largest |rate|
    at the last finite state (``node``), with ``t`` the last good time and as
    ``trajectory`` the partial Flow, whose ``final`` is that state.
    """
    # C order keeps each member's row contiguous, as a lone state is, so the
    # reductions over a row are bitwise the same
    values = np.array(theta0, dtype=float, order="C")
    counters = StepCounters()
    records = np.empty((len(times), len(values)), RECORD_DTYPE)
    diss = [0.0] * len(values)
    norm_w = grid.weight

    def rate_of(v):
        counters.rhs_evals += 1
        return rhs(v)

    def squares(rates):
        return [norm_w * float(r @ r) for r in rates]

    def recorded() -> Flow:
        """The flow at the current state, read-only."""
        values.setflags(write=False)
        return flow._replace(final=values, records=records[:len(flow.step_counts) + 1])

    def blow_up(message, t, row) -> BlowUpError:
        """The error of member ``row`` at the current state, reached at t:
        ``message`` with {node} the node of the member's largest |rate| there."""
        node = int(np.argmax(np.abs(rate[row])))
        return BlowUpError(message.format(node=node), trajectory=recorded(), t=t, row=row,
                           node=node)

    where = ", adaptive" if adaptive else f" of {n_steps}"
    h = dt
    # Overflow on the way to a detected blow-up is expected; the finite-state
    # check in step() is the guard, so the warnings are suppressed here.
    with np.errstate(over="ignore", invalid="ignore"):
        rate = rate_of(values)
        records[0] = make_record(values, 0.0, diss)
        flow = Flow(values, records, [], counters)
        sq = squares(rate)
        for t, t_rec in pairwise(map(float, times)):  # from the exact last record time
            start = counters.steps
            while t < t_rec:
                # an adaptive step within 10% of the record time stretches to
                # land on it rather than leave a sliver
                last = adaptive and 1.1 * h >= t_rec - t
                h_try = t_rec - t if last else h
                stages = [] if scheme == RKC else None
                try:
                    new = step(values, rate_of, h_try, scheme, k1=rate, stiffness=stiffness,
                               stage_rates=stages)
                except BlowUpError as exc:
                    raise blow_up(f"non-finite state at t = {t + h_try:.6g} (step "
                                  f"{counters.steps + 1}{where}, node {{node}})",
                                  t, exc.row) from exc
                rate_new = rate_of(new)
                if adaptive:
                    errs = _error_norms(values, new, rate, rate_new, h_try)
                    err = float(errs.max())
                    h = h_try * _step_factor(err)
                    if not err <= 1.0:
                        counters.rejected_steps += 1
                        if t + h == t:
                            raise blow_up(f"step size underflow at t = {t:.6g}", t,
                                          int(np.argmin(errs <= 1.0)))
                        continue
                # the step's trapezoid over the abscissae 0, c_1, ..., c_{s-1}, 1
                nodes = [(0.0, sq), *((c, squares(r)) for c, r in stages or ()),
                         (1.0, squares(rate_new))]
                for j in range(len(diss)):
                    diss[j] += 0.5 * h_try * sum((cb - ca) * (qa[j] + qb[j])
                                                 for (ca, qa), (cb, qb) in zip(nodes, nodes[1:]))
                counters.steps += 1
                values, rate, sq = new, rate_new, nodes[-1][1]
                t = t_rec if last else t + h_try if adaptive else counters.steps * dt
            flow.step_counts.append(counters.steps - start)
            records[len(flow.step_counts)] = make_record(values, t_rec, diss)
    return recorded()
