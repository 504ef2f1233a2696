"""Right-hand sides of the phase evolutions.

Kernel operators already carry the inner quadrature weight, so right-hand
side values are per-node rates shaped like the pointwise equation;
double-integral quantities (the bilinear form, energies, seminorms) multiply
the remaining outer weight explicitly.

The sine coupling sum_j W_ij sin(theta_j - theta_i) is evaluated through the
exact expansion cos(u_i) (W sin u)_i - sin(u_i) (W cos u)_i, written with
a = 1 - cos u = 2 sin^2(u / 2) and W cos u = r - W a (r the row sums) as
(1 - a_i) (W sin u)_i + sin(u_i) ((W a)_i - r_i): one batched operator apply
to the stacked (1 - cos, sin) rows, O(N log N) with the Toeplitz/BTTB kernel
operator, instead of an N^2 table of sine evaluations; a dissipative rate
stacks the shifted field under them, so every rate costs one transform pair.
A caller can keep that stack and its applies (:class:`RateStack`): a
diagnostics record at the same state reads its potential energy, and its
singular seminorm when the rate dissipates, from them.  Every apply is real,
and every form is taken about a base angle, so a constant field gives
exactly zero rates and energies.  Fields are plain float arrays, checked
for their shape only.  The rate functions take one field or an (R, N)
family of fields, one member per row, each with its own coupling and delta
when given one per row; every other function takes one field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import Grid
from .kernel import KernelOperator, stacked_apply, stacked_row_sums


def _field(theta, grid: Grid, family: bool = False) -> np.ndarray:
    """``theta`` as floats: one field on ``grid``, or with ``family`` an (R, N)
    family too; GridMismatchError for any other shape."""
    values = np.asarray(theta, dtype=float)
    if values.shape[-1:] != (grid.node_count,) or values.ndim > 1 + family:
        raise GridMismatchError(
            f"field of shape {values.shape} for a grid with {grid.node_count} nodes")
    return values


@dataclass
class RateStack:
    """The rows a rate evaluation transformed and their applies, kept for a
    caller that needs them at the same state.

    ``rows`` holds (1 - cos u, sin u) of the shifted (R, N) family u, with u
    under them when the rate dissipates; ``applied`` holds the coupling's
    applies of the first two rows and the dissipation's of the third.  Both
    have shape (2 or 3, R, N).
    """

    rows: np.ndarray | None = None
    applied: np.ndarray | None = None


def _versine(angle: np.ndarray) -> np.ndarray:
    """1 - cos(angle) as 2 sin^2(angle / 2), without the cancellation at small angles."""
    return 2.0 * np.sin(0.5 * angle) ** 2


def _sine_rows(values: np.ndarray, coupling, *extra, keep: RateStack | None = None):
    """The sine coupling sum_j W[i, j] sin(u_j - u_i) of every row u of
    ``values``, taken about the row's first value (so a constant row gives
    exactly zero), plus ``extra`` operators applied to the shifted rows, all
    in one transform pair of the stacked (1 - cos, sin[, shifted]) rows.

    ``coupling`` is one operator shared by every row, or one per row.
    Returns the shifted (R, N) rows, their sine coupling and the extra
    applies; fills ``keep`` with the stack and its applies if given.
    """
    rows = values.reshape(-1, values.shape[-1])
    shifted = rows - rows[:, :1]
    stack = np.empty((2 + len(extra),) + shifted.shape)
    stack[0] = _versine(shifted)
    np.sin(shifted, out=stack[1])
    if extra:
        stack[2] = shifted
    if isinstance(coupling, KernelOperator):
        coupling = (coupling,)  # shared: its one-row spectra and row sums broadcast
    if isinstance(coupling, (tuple, list)):  # stacked: a step loop reuses the buffers
        applied = stacked_apply(tuple(zip(*[(c, c, *extra) for c in coupling])))(stack)
        row_sums = stacked_row_sums(tuple(coupling))
    else:  # an operator known by its apply and row sums alone, such as a dense matrix
        applied = coupling.apply(stack)
        row_sums = coupling.row_sums
    if keep is not None:
        keep.rows, keep.applied = stack, applied
    sine = (1.0 - stack[0]) * applied[1] + stack[1] * (applied[0] - row_sums)
    return shifted, sine, applied[2:]


def rhs_singular(theta, coupling: KernelOperator, kappa: float, *,
                 keep: RateStack | None = None) -> np.ndarray:
    """Rate field of the singular sine-coupled evolution (zero-frequency gauge).

    The principal value is realized by the matrix's excluded diagonal.  A
    constant natural frequency, if any, is added back by the caller.
    ``keep``, if given, receives the evaluation's :class:`RateStack`.
    """
    if not coupling.is_singular:
        raise ParameterError("rhs_singular needs the singular kernel matrix")
    return rhs_regularized(theta, coupling, coupling, kappa, 0.0, keep=keep)


def rhs_regularized(theta, coupling, dissipation: KernelOperator,
                    kappa: float, delta, *, keep: RateStack | None = None) -> np.ndarray:
    """Rate field of the dissipative evolution.

    ``coupling`` drives the sine term (truncated kernel, or the singular one
    for the zero-truncation flow); ``dissipation`` must be the singular matrix
    and feeds the nonlocal difference term scaled by delta.  The one sine
    coupling expression: :func:`rhs_singular` (delta = 0) and
    :func:`rhs_lattice` evaluate through it.  ``keep``,
    if given, receives the evaluation's :class:`RateStack`, which holds the
    shifted rows only when some delta is positive.
    """
    if not dissipation.is_singular:
        raise ParameterError("the dissipation term uses the singular kernel matrix")
    values = _field(theta, dissipation.grid, family=True)
    delta = np.asarray(delta, dtype=float)[..., None]
    if not delta.any():
        return (kappa * _sine_rows(values, coupling, keep=keep)[1]).reshape(values.shape)
    shifted, sine, (wd,) = _sine_rows(values, coupling, dissipation, keep=keep)
    return (kappa * sine - delta * (dissipation.row_sums * shifted - wd)).reshape(values.shape)


def rhs_lattice(theta, kernel: KernelOperator, kappa: float, nu, *,
                keep: RateStack | None = None) -> np.ndarray:
    """Rate field of the node-count-normalized lattice model.

    The lattice couples through the raw pairwise kernel, the singular
    ``kernel`` without its cell weight, scaled by kappa / node_count instead
    of by quadrature weights.  nu may be a scalar or a per-node array.
    ``keep``, if given, receives the evaluation's :class:`RateStack`.
    """
    nn = kernel.grid.node_count
    nu = np.asarray(nu, dtype=float)
    if nu.ndim not in (0, 1) or (nu.ndim == 1 and nu.shape[0] != nn):
        raise GridMismatchError("per-node frequencies must match the node count")
    return nu + rhs_singular(theta, kernel, kappa / (nn * kernel.grid.weight), keep=keep)
