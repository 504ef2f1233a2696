"""Power-law interaction kernels as matrix-free Toeplitz/BTTB operators.

The interaction weight between points at distance r is ``r**-(d+2s)``
(principal value at the diagonal, realized here as an exactly zero diagonal
entry) or its truncation ``(r+eps)**-(d+2s)``, which is finite everywhere.
Entries carry the quadrature weight of the inner integral, so an apply
discretizes ``\\int k(x,y) f(y) dy`` at each node.

On the uniform midpoint lattice an entry depends only on the index offset
between its two nodes, so the matrix is Toeplitz in 1d and block-Toeplitz
with Toeplitz blocks (BTTB) in 2d.  An operator keeps the generator (the
entry at each nonnegative offset) and the real spectrum of its even circulant
embedding, twice as long on each axis; an apply zero-pads, multiplies in
Fourier space with real transforms and truncates, in O(N log N) time and
O(N) memory, and :func:`stacked_apply` applies one operator per row of a
stack (or of a family of stacks) in one transform pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import GridMismatchError, ParameterError, SingularityError
from .grid import Grid, grids_match


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


def _offset_distances(grid: Grid) -> np.ndarray:
    """Node distance at each nonnegative index offset: shape (n,) or (n, n)."""
    axes = np.ix_(*[np.arange(grid.n) * h for h in grid.spacing])
    return np.sqrt(sum(a * a for a in axes))


def _toeplitz_row_sums(generator: np.ndarray) -> np.ndarray:
    """Row sums of the symmetric (multilevel) Toeplitz matrix of a generator.

    Per axis, row i sums the offsets 0..i and 1..n-1-i: two prefix sums less
    the offset-0 entry counted twice.
    """
    for axis in range(generator.ndim):
        prefix = np.cumsum(generator, axis=axis)
        generator = prefix + np.flip(prefix, axis) - generator.take([0], axis)
    return generator.ravel()


def _spectrum_shape(grid: Grid, lead: tuple) -> tuple:
    """The shape of the complex spectrum of a stack of leading shape ``lead``:
    (..., n+1) in 1d, (..., 2n, n+1) in 2d with the zero-padded axis."""
    return (*lead, *(2 * grid.n,) * (grid.dim - 1), grid.n + 1)


def _spectral_apply(grid: Grid, spectrum: np.ndarray, x, work=None) -> np.ndarray:
    """x (..., N) times ``spectrum`` (one, or one per row) by one transform pair.

    Every transform writes through ``out=``.  ``work``, if given, holds the
    complex spectrum and real output buffers of x's leading shape; a caller
    that keeps them across applies, as :func:`stacked_apply` does, allocates
    no transform buffer after its first apply (at 1d n = 4096 each is above
    the C allocator's 128 KB mmap threshold, so a fresh one would be mapped
    and faulted in on every apply).  In 2d the transforms between the two
    real ones run in place in the zero-padded spectrum.  Without ``work`` the
    output is allocated only after those, whose overlap copies would
    otherwise coexist with it.  The result is a copy, which the next apply
    leaves as it is.
    """
    x = np.asarray(x, dtype=float)
    n, d = grid.n, grid.dim
    lead = x.shape[:-1]
    x = x.reshape(*lead, *(n,) * d)
    f, out = work or (np.empty(_spectrum_shape(grid, lead), dtype=complex), None)
    if d == 1:
        np.fft.rfft(x, 2 * n, out=f)
    else:  # padding rows join after the last-axis rfft and leave before its irfft
        f[..., n:, :] = 0.0
        np.fft.rfft(x, 2 * n, out=f[..., :n, :])
        np.fft.fft(f, axis=-2, out=f)
    f *= spectrum
    if d == 2:
        f = np.fft.ifft(f, axis=-2, out=f)[..., :n, :]
    out = np.fft.irfft(f, 2 * n, out=out)
    return out[..., :n].copy().reshape(*lead, n ** d)


@lru_cache(maxsize=8)
def stacked_apply(operators: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (operators[k] x[k])_k on a (k, N) stack by one transform pair, bitwise
    equal to each operator's :meth:`apply`; nested tuples match more leading axes,
    and a one-operator tuple applies its operator to every row.
    Memoized on the (immutable) operators, so the read-only spectra stack once,
    and the transform buffers of each stack shape are allocated on its first
    apply and reused by every later one."""
    layout = np.array(operators, dtype=object)
    grid = layout.flat[0].grid
    if not all(grids_match(op.grid, grid) for op in layout.flat):
        raise GridMismatchError("stacked operators live on different grids")
    spectra = np.array([op.spectrum for op in layout.flat])
    spectra.setflags(write=False)
    spectra = spectra.reshape(layout.shape + spectra.shape[1:])
    workspaces = {}  # stack shape -> its spectrum and output buffers

    def apply(x):
        x = np.asarray(x, dtype=float)
        if x.shape not in workspaces:
            lead = x.shape[:-1]
            workspaces[x.shape] = (np.empty(_spectrum_shape(grid, lead), dtype=complex),
                                   np.empty((*lead, *(grid.n,) * (grid.dim - 1), 2 * grid.n)))
        return _spectral_apply(grid, spectra, x, workspaces[x.shape])

    return apply


@lru_cache(maxsize=8)
def stacked_row_sums(operators: tuple) -> np.ndarray:
    """(operators[k].row_sums)_k as one read-only (k, N) array, memoized like
    :func:`stacked_apply`, so a family's row sums stack once per run."""
    rows = np.array([op.row_sums for op in operators])
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class KernelOperator:
    """Symmetric kernel matrix W with quadrature weights folded in, matrix-free.

    ``W[i, j] = generator[|offset(i, j)|]``, the kernel at the nodes'
    distance times the cell weight off the diagonal and exactly zero on it.
    The zero diagonal is exact for every right-hand side built on phase
    differences: the sine or difference factor vanishes at y = x, so the
    excluded entry contributes nothing even for the truncated kernel.
    ``spectrum`` is the real half-spectrum of the generator's even circulant
    embedding (shape (n+1,) in 1d, (2n, n+1) in 2d).  ``eps`` is the
    truncation, None for the singular kernel.
    """

    s: float
    eps: float | None
    grid: Grid
    generator: np.ndarray
    spectrum: np.ndarray
    row_sums: np.ndarray

    @property
    def is_singular(self) -> bool:
        return self.eps is None

    def apply(self, x) -> np.ndarray:
        """W x for real x of shape (..., N), batched over the leading axes."""
        return _spectral_apply(self.grid, self.spectrum, x)


def assemble_kernel_matrix(grid: Grid, s: float, eps: float | None = None) -> KernelOperator:
    """Build the kernel operator for a grid in O(N log N) time and O(N) memory:
    the singular kernel for ``eps=None``, else its truncation at ``eps``."""
    r = _offset_distances(grid)
    if eps is not None:
        generator = psi_eps(r, grid.dim, s, eps)
    else:
        r.flat[0] = 1.0  # placeholder; the diagonal is zeroed below
        generator = psi(r, grid.dim, s)
    generator *= grid.weight
    generator.flat[0] = 0.0

    # even circulant embedding: offsets 0..n-1, one zero, then n-1..1
    n, d = grid.n, grid.dim
    wrap = np.minimum(np.arange(2 * n), np.arange(2 * n, 0, -1))
    embedded = np.pad(generator, [(0, 1)] * d)[np.ix_(*[wrap] * d)]
    spectrum = np.fft.rfftn(embedded, axes=tuple(range(d))).real
    row_sums = _toeplitz_row_sums(generator)
    for a in (generator, spectrum, row_sums):
        a.setflags(write=False)
    return KernelOperator(s=s, eps=eps, grid=grid, generator=generator, spectrum=spectrum,
                          row_sums=row_sums)


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
    pe = psi_eps(_offset_distances(grid), grid.dim, s, eps)
    k_eps = float(_toeplitz_row_sums(pe * pe).max() * grid.weight)
    k_star = float(_toeplitz_row_sums(pe).max() * grid.weight)
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
