"""Right-hand sides of the phase evolutions and the nonlocal Dirichlet form.

Kernel matrices already carry the inner quadrature weight, so right-hand side
values are per-node rates shaped like the pointwise equation; double-integral
quantities (the bilinear form, energies, seminorms) multiply the remaining
outer weight explicitly.

The sine coupling sum_j W_ij sin(theta_j - theta_i) is evaluated through the
exact expansion cos(theta_i) * (W sin theta)_i - sin(theta_i) * (W cos theta)_i,
two matrix-vector products instead of an N^2 table of sine evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .grid import Grid, grids_match
from .kernel import KernelMatrix


@dataclass(frozen=True, eq=False)
class PhaseField:
    """Node-indexed phase values at one instant, tied to a grid."""

    values: np.ndarray
    t: float
    grid: Grid

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.node_count,):
            raise GridMismatchError(
                f"field has {values.shape} values for a grid with {self.grid.node_count} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("phase field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _values_and_grid(theta, fallback_grid: Grid | None):
    if isinstance(theta, PhaseField):
        return theta.values, theta.grid
    return np.asarray(theta, dtype=float), fallback_grid


def _check_field(values: np.ndarray, grid: Grid, field_grid: Grid | None) -> None:
    if field_grid is not None and not grids_match(field_grid, grid):
        raise GridMismatchError("phase field and kernel matrix live on different grids")
    if values.shape != (grid.node_count,):
        raise GridMismatchError(
            f"field has {values.shape[0]} values for a grid with {grid.node_count} nodes"
        )


def sine_coupling(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j weights[i, j] * sin(values[j] - values[i]) via two mat-vecs.

    Angles are shifted by a base value first (an exact identity), so a
    constant field yields an exactly zero rate and equilibria stay fixed.
    """
    shifted = values - values.flat[0]
    c = np.cos(shifted)
    s = np.sin(shifted)
    return c * (weights @ s) - s * (weights @ c)


def rhs_singular(theta, coupling: KernelMatrix, kappa: float) -> np.ndarray:
    """Rate field of the singular sine-coupled evolution (zero-frequency gauge).

    The principal value is realized by the matrix's excluded diagonal.  A
    constant natural frequency, if any, is added back by the caller.
    """
    if not coupling.is_singular:
        raise ParameterError("rhs_singular needs the singular kernel matrix")
    values, fgrid = _values_and_grid(theta, coupling.grid)
    _check_field(values, coupling.grid, fgrid)
    return kappa * sine_coupling(values, coupling.weights)


def rhs_regularized(theta, coupling: KernelMatrix, dissipation: KernelMatrix,
                    kappa: float, delta: float) -> np.ndarray:
    """Rate field of the dissipative evolution.

    ``coupling`` drives the sine term (truncated kernel, or the singular one
    for the zero-truncation flow); ``dissipation`` must be the singular matrix
    and feeds the nonlocal difference term scaled by delta.  With delta = 0
    and a singular coupling this reduces to :func:`rhs_singular`.
    """
    if not dissipation.is_singular:
        raise ParameterError("the dissipation term uses the singular kernel matrix")
    if not grids_match(coupling.grid, dissipation.grid):
        raise GridMismatchError("coupling and dissipation matrices live on different grids")
    values, fgrid = _values_and_grid(theta, coupling.grid)
    _check_field(values, coupling.grid, fgrid)
    rate = kappa * sine_coupling(values, coupling.weights)
    if delta != 0.0:
        # shift-invariant difference term, evaluated about a base angle so a
        # constant field stays an exact equilibrium
        shifted = values - values.flat[0]
        rate -= delta * (dissipation.row_sums * shifted - dissipation.weights @ shifted)
    return rate


def rhs_lattice(theta, weights: np.ndarray, kappa: float, nu) -> np.ndarray:
    """Rate field of the node-count-normalized lattice model.

    ``weights`` is a general symmetric nonnegative matrix with zero diagonal;
    the coupling is scaled by kappa / node_count, not by quadrature weights.
    nu may be a scalar or a per-node array.
    """
    values, _ = _values_and_grid(theta, None)
    nn = values.shape[0]
    if weights.shape != (nn, nn):
        raise GridMismatchError(
            f"weights are {weights.shape} for a field with {nn} nodes"
        )
    nu = np.asarray(nu, dtype=float)
    if nu.ndim not in (0, 1) or (nu.ndim == 1 and nu.shape[0] != nn):
        raise GridMismatchError("per-node frequencies must match the node count")
    return nu + (kappa / nn) * sine_coupling(values, weights)


def bilinear_form(u, v, matrix: KernelMatrix) -> float:
    """Symmetric Dirichlet form (1/2) sum_{ij} W_ij w (u_i-u_j)(v_i-v_j).

    Nonnegative on the diagonal; vanishes when either argument is constant.
    """
    uv, ug = _values_and_grid(u, matrix.grid)
    vv, vg = _values_and_grid(v, matrix.grid)
    _check_field(uv, matrix.grid, ug)
    _check_field(vv, matrix.grid, vg)
    w = matrix.grid.weight
    return float(w * ((matrix.row_sums * uv) @ vv - uv @ (matrix.weights @ vv)))
