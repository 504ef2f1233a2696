"""Initial phase profiles.

Four kinds cover equilibrium, smooth, rough, and near-extremal data:
a constant field, a sine profile rescaled to a prescribed diameter, seeded
uniform noise, and a two-cluster step along the first axis.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import ParameterError
from .grid import Grid

KINDS = ("constant", "smooth", "random", "two_cluster")


def seeded_bits(seed: int, count: int) -> np.ndarray:
    """``count`` uint64 words from stdlib ``random.Random(seed)``, read
    little-endian so one seed gives the same words on every host.  Not
    numpy.random: importing it maps about 6 MB of native code that no run
    computes with."""
    return np.frombuffer(random.Random(seed).randbytes(8 * count), "<u8")


def initial_field(kind: str, grid: Grid, diameter: float = 0.0,
                  seed: int | None = None, value: float = 0.0) -> np.ndarray:
    """Build an initial phase field of the requested kind.

    ``diameter`` prescribes max - min exactly for the smooth and two-cluster
    profiles and bounds it for the random one (values drawn uniformly from
    [-diameter/2, diameter/2)).  The random kind requires a nonnegative seed,
    so runs stay reproducible: stdlib ``random.Random(seed)`` draws it, the
    same field on every platform.
    """
    if kind not in KINDS:
        raise ParameterError(f"initial kind must be one of {KINDS}, got {kind!r}")
    if diameter < 0.0:
        raise ParameterError(f"initial diameter must be nonnegative, got {diameter}")

    nn = grid.node_count
    x1 = grid.coords[:, 0]

    if kind == "constant":
        return np.full(nn, float(value))

    if kind == "smooth":
        u = np.sin(2.0 * np.pi * x1)
        spread = u.max() - u.min()
        if spread == 0.0:
            raise ParameterError("sine profile is constant on this grid; cannot rescale")
        return u * (diameter / spread)

    if kind == "random":
        if seed is None:
            raise ParameterError("random initial data requires a seed")
        if seed < 0:
            raise ParameterError(f"the random seed must be nonnegative, got {seed}")
        # the top 53 bits of each word: a uniform double in [0, 1), then
        # (u - 0.5) exactly, so one rounding maps it into [-d/2, d/2)
        u = (seeded_bits(seed, nn) >> 11) * 2.0**-53
        return (u - 0.5) * diameter

    # two_cluster: step across the midpoint of the first axis
    a, b = grid.extents[0]
    return np.where(x1 < 0.5 * (a + b), -diameter / 2.0, diameter / 2.0).astype(float)
