"""Explicit time stepping with step sizes tied to discrete operator norms.

The right-hand sides are globally Lipschitz at fixed discretization, with a
one-sided constant bounded by 2*kappa*max_row(coupling) +
2*delta*max_row(dissipation); the automatic step size keeps the scaled step
inside the stability region of the explicit schemes.  Dissipation is
accumulated along the run by the trapezoidal rule on rate-field norms, so the
energy identity can be checked without differencing snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diagnostics import DiagnosticsRecord
from .dynamics import PhaseField
from .errors import BlowUpError, ParameterError
from .grid import Grid
from .kernel import KernelOperator

RK4 = "rk4"
EULER = "euler"
SCHEMES = (RK4, EULER)


def select_dt(coupling: KernelOperator | None, dissipation: KernelOperator | None,
              kappa: float, delta: float, safety: float,
              free_drift_horizon: float = 1.0) -> float:
    """Step size safety / (2 kappa max_row(coupling) + 2 delta max_row(dissipation)).

    With no coupling at all (kappa = delta = 0) the motion is free drift and
    needs no stability limit; the fallback is safety * free_drift_horizon.
    """
    if not 0.0 < safety <= 1.0:
        raise ParameterError(f"safety factor must lie in (0, 1], got {safety}")
    lam = 0.0
    if kappa > 0.0:
        if coupling is None:
            raise ParameterError("kappa > 0 needs a coupling matrix")
        lam += 2.0 * kappa * float(coupling.row_sums.max())
    if delta > 0.0:
        if dissipation is None:
            raise ParameterError("delta > 0 needs a dissipation matrix")
        lam += 2.0 * delta * float(dissipation.row_sums.max())
    if lam == 0.0:
        return safety * free_drift_horizon
    return safety / lam


def step(values: np.ndarray, rhs: Callable[[np.ndarray], np.ndarray], dt: float,
         scheme: str = RK4, k1: np.ndarray | None = None) -> np.ndarray:
    """One explicit step of the autonomous system values' = rhs(values).

    ``values`` is one state or an (R, N) family; ``k1`` may supply a
    precomputed rhs(values) to reuse.  Raises BlowUpError if the result is
    not finite, with ``row`` the first non-finite member.
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
        else:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    if not np.all(np.isfinite(out)):
        finite = np.isfinite(out).all(axis=-1)
        raise BlowUpError("non-finite state after step", row=int(np.argmin(finite)))
    return out


@dataclass
class Trajectory:
    """Snapshots and diagnostics of one run.

    Snapshots hold the evolved (gauge-reduced, for continuum models) field;
    :meth:`physical_values` restores the affine shift mean + nu * t.  The
    cumulative dissipation lives in the records, accumulated by the same
    trapezoidal quadrature the stepper uses.
    """

    config: object
    grid: Grid
    times: list[float]
    snapshots: list[PhaseField]
    records: list[DiagnosticsRecord]
    theta_bar: float
    nu: object
    gauge_reduced: bool
    dt: float
    n_steps: int
    status: str = "completed"

    def physical_values(self, index: int) -> np.ndarray:
        snap = self.snapshots[index]
        if not self.gauge_reduced:
            return snap.values.copy()
        return snap.values + self.theta_bar + float(self.nu) * snap.t


RecordFn = Callable[[np.ndarray, float, list[float]], list[DiagnosticsRecord]]


def integrate_flow(theta0: np.ndarray, grid: Grid, rhs: Callable[[np.ndarray], np.ndarray],
                   dt: float, n_steps: int, stride: int, scheme: str,
                   make_record: RecordFn):
    """Step an (R, N) family of states together, recording every ``stride`` steps.

    ``make_record(values, t, dissipated)`` returns one record per member, and
    each member's dissipation sums its own rate rows.  Returns (times,
    snapshots, records), ``snapshots[j]`` and ``records[j]`` being member j's.
    On blow-up, raises BlowUpError naming the member (``row``) and carrying
    the partial (times, snapshots, records, t_last_good) payload.
    """
    # C order keeps each member's row contiguous, as a lone state is, so the
    # reductions over a row are bitwise the same
    values = np.array(theta0, dtype=float, order="C")
    times = [0.0]
    snapshots = [[PhaseField(v, 0.0, grid)] for v in values]
    diss = [0.0] * len(values)
    records = [[record] for record in make_record(values, 0.0, diss)]
    norm_w = grid.weight

    rate = rhs(values)
    # Overflow on the way to a detected blow-up is expected; the finite-state
    # check in step() is the guard, so the warnings are suppressed here.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t_next = (k + 1) * dt
            try:
                values = step(values, rhs, dt, scheme, k1=rate)
            except BlowUpError as exc:
                raise BlowUpError(
                    f"non-finite state at t = {t_next:.6g} (step {k + 1} of {n_steps})",
                    trajectory=(times, snapshots, records, k * dt), row=exc.row,
                ) from exc
            rate_next = rhs(values)
            for j, (r, r_next) in enumerate(zip(rate, rate_next)):
                diss[j] += 0.5 * dt * (norm_w * float(r @ r) + norm_w * float(r_next @ r_next))
            rate = rate_next
            if (k + 1) % stride == 0 or k + 1 == n_steps:
                times.append(t_next)
                for j, record in enumerate(make_record(values, t_next, diss)):
                    snapshots[j].append(PhaseField(values[j], t_next, grid))
                    records[j].append(record)
    return times, snapshots, records
