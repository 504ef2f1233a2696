"""Power-law interaction kernels and their dense quadrature matrices.

The interaction weight between points at distance r is ``r**-(d+2s)``
(principal value at the diagonal, realized here as an exactly zero diagonal
entry) or its truncation ``(r+eps)**-(d+2s)``, which is finite everywhere.
Matrix entries carry the quadrature weight of the inner integral, so a
matrix-vector product discretizes ``\\int k(x,y) f(y) dy`` at each node.

Matrices are symmetric, nonnegative, and immutable after assembly.  A small
binary cache format (header ``{d, n, s, variant, eps}`` followed by row-major
64-bit floats) avoids repeated O(N^2) assembly across runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridMismatchError, ParameterError, ResourceError, SingularityError
from .grid import Grid

SINGULAR = "singular"
TRUNCATED = "truncated"
VARIANTS = (SINGULAR, TRUNCATED)

_HEADER = struct.Struct("<qqdqd")  # dim, nodes per axis, s, variant code, eps
_VARIANT_CODE = {SINGULAR: 0, TRUNCATED: 1}
_CODE_VARIANT = {v: k for k, v in _VARIANT_CODE.items()}


def _check_s(s: float) -> None:
    if not 0.0 < s < 1.0:
        raise ParameterError(f"s must lie in (0, 1), got {s}")


def psi(r, d: int, s: float):
    """Singular kernel r**-(d+2s); r must be strictly positive."""
    _check_s(s)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise SingularityError("kernel is singular at zero distance; exclude the diagonal")
    return r ** (-(d + 2.0 * s))


def psi_eps(r, d: int, s: float, eps: float):
    """Truncated kernel (r+eps)**-(d+2s); finite for r = 0."""
    _check_s(s)
    if eps <= 0.0:
        raise ParameterError(f"eps must be positive, got {eps}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ParameterError("distances must be nonnegative")
    return (r + eps) ** (-(d + 2.0 * s))


def pairwise_distances(coords: np.ndarray) -> np.ndarray:
    """Dense (N, N) Euclidean distance matrix, accumulated per axis."""
    n = coords.shape[0]
    d2 = np.zeros((n, n))
    for k in range(coords.shape[1]):
        diff = coords[:, k, None] - coords[None, :, k]
        d2 += diff * diff
    return np.sqrt(d2)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """Dense symmetric kernel matrix with quadrature weights folded in.

    ``weights[i, j] = k(x_i, x_j) * w`` off the diagonal and exactly zero on
    it.  The zero diagonal is exact for every right-hand side built on phase
    differences: the sine or difference factor vanishes at y = x, so the
    excluded entry contributes nothing even for the truncated kernel.
    """

    variant: str
    s: float
    eps: float | None
    grid: Grid
    weights: np.ndarray
    row_sums: np.ndarray

    @property
    def is_singular(self) -> bool:
        return self.variant == SINGULAR


def assemble_kernel_matrix(grid: Grid, variant: str, s: float, eps: float | None = None) -> KernelMatrix:
    """Assemble the dense kernel matrix for a grid.

    Memory is O(N^2); on allocation failure a :class:`ResourceError` says how
    large the matrix would have been.
    """
    if variant not in VARIANTS:
        raise ParameterError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _check_s(s)
    if variant == TRUNCATED:
        if eps is None or eps <= 0.0:
            raise ParameterError(f"truncated variant needs eps > 0, got {eps}")
    else:
        eps = None

    nn = grid.node_count
    try:
        r = pairwise_distances(grid.coords)
        if variant == TRUNCATED:
            vals = psi_eps(r, grid.dim, s, eps)
        else:
            np.fill_diagonal(r, 1.0)  # placeholder; the diagonal is zeroed below
            vals = psi(r, grid.dim, s)
        weights = vals * grid.weight
    except MemoryError as exc:
        need = nn * nn * 8 / 2**30
        raise ResourceError(
            f"cannot allocate the {nn}x{nn} kernel matrix (~{need:.1f} GiB); reduce grid.nodes"
        ) from exc

    np.fill_diagonal(weights, 0.0)
    row_sums = weights.sum(axis=1)
    weights.setflags(write=False)
    row_sums.setflags(write=False)
    return KernelMatrix(variant=variant, s=s, eps=eps, grid=grid, weights=weights, row_sums=row_sums)


def pairwise_kernel_values(grid: Grid, s: float) -> np.ndarray:
    """Raw pairwise kernel values psi(|x_i - x_j|) with zero diagonal.

    No quadrature weight: this is the network-topology form used by the
    node-count-normalized lattice right-hand side.
    """
    r = pairwise_distances(grid.coords)
    np.fill_diagonal(r, 1.0)
    vals = psi(r, grid.dim, s)
    np.fill_diagonal(vals, 0.0)
    return vals


@dataclass(frozen=True)
class LipschitzBounds:
    """Discrete suprema controlling the sine-coupling operator.

    k_eps and k_eps_star discretize sup_x of the integrals of psi_eps^2 and
    psi_eps; lip_l2 and lip_linf are the induced global Lipschitz constants of
    the coupling operator on the discrete L2 and sup norms.
    """

    k_eps: float
    k_eps_star: float
    lip_l2: float
    lip_linf: float


def lipschitz_bounds(grid: Grid, s: float, eps: float) -> LipschitzBounds:
    """Compute the discrete Lipschitz bounds for the eps-truncated coupling.

    The diagonal is included: the truncated kernel is finite at r = 0, and the
    underlying integrals run over the whole domain.
    """
    r = pairwise_distances(grid.coords)
    pe = psi_eps(r, grid.dim, s, eps)
    k_eps = float((pe * pe).sum(axis=1).max() * grid.weight)
    k_star = float(pe.sum(axis=1).max() * grid.weight)
    # Any valid upper bound serves here; 2*max(|domain|, 1) dominates the
    # constants from splitting the coupling difference into its two terms.
    c_dom = 2.0 * max(grid.measure, 1.0)
    return LipschitzBounds(
        k_eps=k_eps,
        k_eps_star=k_star,
        lip_l2=float(np.sqrt(c_dom * (k_eps + k_star * k_star))),
        lip_linf=2.0 * k_star,
    )


def k_eps_analytic_bound(grid: Grid, s: float, eps: float) -> float:
    """Closed-form bound |domain| * eps**-(2d+4s) dominating k_eps."""
    return grid.measure * eps ** (-(2.0 * grid.dim + 4.0 * s))


def k_eps_star_analytic_bound(grid: Grid, s: float, eps: float) -> float:
    """Closed-form bound |domain| * eps**-(d+2s) dominating k_eps_star."""
    return grid.measure * eps ** (-(grid.dim + 2.0 * s))


def save_kernel_matrix(matrix: KernelMatrix, path) -> None:
    """Write a matrix in the binary cache format."""
    path = Path(path)
    header = _HEADER.pack(
        matrix.grid.dim,
        matrix.grid.n,
        matrix.s,
        _VARIANT_CODE[matrix.variant],
        0.0 if matrix.eps is None else matrix.eps,
    )
    data = np.ascontiguousarray(matrix.weights, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def load_kernel_matrix(path, grid: Grid) -> KernelMatrix:
    """Read a cached matrix back, validating it against the given grid."""
    path = Path(path)
    raw = path.read_bytes()
    dim, n, s, code, eps = _HEADER.unpack_from(raw, 0)
    if (dim, n) != (grid.dim, grid.n):
        raise GridMismatchError(
            f"cached matrix is for a {dim}d grid with n={n}, "
            f"not the given {grid.dim}d grid with n={grid.n}"
        )
    nn = grid.node_count
    expect = _HEADER.size + nn * nn * 8
    if len(raw) != expect:
        raise ValueError(f"cache file {path} has {len(raw)} bytes, expected {expect}")
    weights = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(nn, nn).copy()
    row_sums = weights.sum(axis=1)
    weights.setflags(write=False)
    row_sums.setflags(write=False)
    variant = _CODE_VARIANT[code]
    return KernelMatrix(
        variant=variant,
        s=s,
        eps=None if variant == SINGULAR else eps,
        grid=grid,
        weights=weights,
        row_sums=row_sums,
    )


class KernelCache:
    """Directory of assembled matrices keyed by (grid hash, variant, s, eps)."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, grid: Grid, variant: str, s: float, eps: float | None = None) -> Path:
        tag = f"{grid.content_hash()[:16]}_{variant}_s{s!r}_e{0.0 if eps is None else eps!r}"
        return self.directory / f"{tag}.kmat"

    def get(self, grid: Grid, variant: str, s: float, eps: float | None = None) -> KernelMatrix:
        path = self.path_for(grid, variant, s, eps)
        if path.exists():
            return load_kernel_matrix(path, grid)
        matrix = assemble_kernel_matrix(grid, variant, s, eps)
        save_kernel_matrix(matrix, path)
        return matrix
