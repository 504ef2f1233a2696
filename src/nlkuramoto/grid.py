"""Uniform midpoint lattices on axis-aligned boxes in one or two dimensions.

Nodes sit at cell midpoints, so no two nodes coincide and no node touches the
boundary; the composite midpoint rule gives a single uniform quadrature weight
(the cell volume) per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError

SUPPORTED_DIMENSIONS = (1, 2)
_LOG10_MIN, _LOG10_MAX = np.log10(np.finfo(float).tiny), np.log10(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class Grid:
    """Immutable lattice discretization of a box domain.

    Attributes
    ----------
    dim : spatial dimension, 1 or 2
    n : nodes per axis
    extents : per-axis intervals ``(a_k, b_k)``
    coords : ``(node_count, dim)`` array of cell midpoints
    spacing : per-axis cell width ``(b_k - a_k) / n``
    weight : cell volume, the uniform quadrature weight
    measure : volume of the box
    diameter : Euclidean diameter of the box
    """

    dim: int
    n: int
    extents: tuple[tuple[float, float], ...]
    coords: np.ndarray
    spacing: np.ndarray
    weight: float
    measure: float
    diameter: float

    @property
    def node_count(self) -> int:
        return self.coords.shape[0]


def check_s(s: float) -> None:
    """ParameterError unless the kernel exponent s lies in (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must lie in (0, 1), got {s}")


def grids_match(a: Grid, b: Grid) -> bool:
    """Whether two grids describe the same lattice."""
    return a is b or (a.dim == b.dim and a.n == b.n and a.extents == b.extents)


def grid_problems(dim: int, n: int, extents, s: float | None = None) -> list[str]:
    """A grid's violations, one message each, named by the config keys.  Given
    the kernel exponent ``s``, they include singular kernel weights
    ``w r**-(d+2s)``, their factors, or squared node distances ``r**2`` beyond
    the normal double range at the nearest r (the least spacing) or the
    farthest (at most the box's diameter), where they overflow or vanish."""
    problems = []
    if dim not in SUPPORTED_DIMENSIONS:
        problems.append(f"grid.dimension: must be 1 or 2, got {dim}")
    if n < 2:
        problems.append(f"grid.nodes: must be at least 2, got {n}")
    if dim in SUPPORTED_DIMENSIONS and len(extents) != dim:
        problems.append(f"grid.extents: dimension {dim} needs {dim} "
                        f"interval{'s' if dim > 1 else ''}, got {len(extents)}")
    for k, (a, b) in enumerate(extents):
        if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
            problems.append(f"grid.extent{'' if k == 0 else k + 1}: degenerate interval ({a}, {b})")
    if s is not None and not problems:
        # each width's log without forming b - a, which overflows past 1.8e308
        log_widths = [math.log10(b - a) if b - a < math.inf
                      else math.log10(b / 2.0 - a / 2.0) + math.log10(2.0) for a, b in extents]
        top = max(log_widths)  # and the box diameter's without hypot, for the same reason
        log_d = top + 0.5 * math.log10(sum(100.0 ** (v - top) for v in log_widths))
        log_h = [v - math.log10(n) for v in log_widths]
        log_w, p = sum(log_h), dim + 2.0 * s
        logs = [log_w, *(v for r in (min(log_h), log_d) for v in (2.0 * r, -p * r, log_w - p * r))]
        if not _LOG10_MIN <= min(logs) <= max(logs) <= _LOG10_MAX:
            keys = "grid.extent" if dim == 1 else "grid.extent, grid.extent2"
            problems.append(f"{keys}: the kernel weights and squared node distances span "
                            f"1e{min(logs):.0f} to 1e{max(logs):.0f}, beyond the double range")
    return problems


def build_grid(dim: int, n: int, extents) -> Grid:
    """Build the uniform midpoint lattice of a box.

    ``extents`` is a sequence of per-axis ``(a, b)`` pairs; a single pair is
    replicated across axes.  Raises :class:`ConfigurationError` listing every
    :func:`grid_problems` at once.
    """
    extents = [tuple(map(float, e)) for e in extents]
    if dim in SUPPORTED_DIMENSIONS and len(extents) == 1:
        extents = extents * dim
    problems = grid_problems(dim, n, extents)
    if problems:
        raise ConfigurationError(problems)

    lows = np.array([e[0] for e in extents])
    highs = np.array([e[1] for e in extents])
    spacing = (highs - lows) / n
    axes = [lows[k] + (np.arange(n) + 0.5) * spacing[k] for k in range(dim)]
    if dim == 1:
        coords = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.ravel() for m in mesh], axis=1)

    coords.setflags(write=False)
    spacing.setflags(write=False)
    return Grid(
        dim=dim,
        n=n,
        extents=tuple(extents),
        coords=coords,
        spacing=spacing,
        weight=float(np.prod(spacing)),
        measure=float(np.prod(highs - lows)),
        diameter=float(np.linalg.norm(highs - lows)),
    )


def poincare_domain_constant(grid: Grid, s: float) -> float:
    """Constructive constant C with ||u||_{L2}^2 <= C [u]^2 for mean-zero u.

    Equals max(diam, 1)^(d+2s) / measure; a guaranteed (generally loose) upper
    bound for the reciprocal of the sharp discrete constant.
    """
    check_s(s)
    return max(grid.diameter, 1.0) ** (grid.dim + 2.0 * s) / grid.measure
