import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (ConfigurationError, GridConfig, ParameterError, SimConfig,
                        assemble_kernel_matrix, build_grid, poincare_domain_constant)


def test_1d_midpoints():
    g = build_grid(1, 4, [(0.0, 1.0)])
    assert np.allclose(g.coords.ravel(), [0.125, 0.375, 0.625, 0.875])
    assert g.weight == 0.25
    assert g.measure == 1.0
    assert g.diameter == 1.0


def test_2d_unit_square():
    g = build_grid(2, 2, [(0.0, 1.0)])
    assert g.node_count == 4
    assert g.weight == 0.25
    assert g.diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)
    expect = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
    assert {tuple(p) for p in g.coords} == expect


def test_quadrature_partitions_measure():
    g = build_grid(1, 1024, [(0.0, 1.0)])
    assert abs(g.weight * g.node_count - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), a=st.floats(-5, 5), width=st.floats(0.1, 10),
       dim=st.sampled_from([1, 2]))
def test_grid_invariants(n, a, width, dim):
    g = build_grid(dim, n, [(a, a + width)])
    assert abs(g.weight * g.node_count - g.measure) <= 1e-12 * max(1.0, g.measure)
    for k in range(dim):
        lo, hi = g.extents[k]
        assert np.all(g.coords[:, k] > lo)
        assert np.all(g.coords[:, k] < hi)
    # midpoint lattice: all nodes distinct
    rounded = {tuple(p) for p in g.coords}
    assert len(rounded) == g.node_count


def test_refinement_consistency():
    coarse = build_grid(1, 32, [(0.0, 2.0)])
    fine = build_grid(1, 64, [(0.0, 2.0)])
    assert fine.spacing[0] == pytest.approx(coarse.spacing[0] / 2.0, rel=1e-15)
    assert fine.weight * fine.node_count == pytest.approx(coarse.weight * coarse.node_count,
                                                          rel=1e-14)


def test_grid_is_immutable(grid16):
    with pytest.raises(ValueError):
        grid16.coords[0, 0] = 0.0


def test_build_grid_rejects_bad_input():
    with pytest.raises(ConfigurationError) as err:
        build_grid(3, 1, [(1.0, 1.0)])
    text = str(err.value)
    assert "dimension" in text and "nodes" in text and "degenerate" in text


@pytest.mark.parametrize("dim,n,extents", [
    (3, 4, ((0.0, 1.0),)),
    (1, 1, ((0.0, 1.0),)),
    (1, 4, ((0.0, 1.0), (0.0, 1.0))),
    (1, 4, ((0.0, math.inf),)),
    (2, 4, ((0.0, 1.0), (2.0, 2.0))),
], ids=["dimension-3", "one-node", "extent-count", "non-finite-extent", "degenerate-extent"])
def test_build_grid_refuses_what_config_refuses_in_its_words(dim, n, extents):
    problems = SimConfig(grid=GridConfig(dimension=dim, nodes=n, extents=extents)).problems()
    with pytest.raises(ConfigurationError) as err:
        build_grid(dim, n, extents)
    assert len(problems) == 1 and err.value.problems == problems


@pytest.mark.parametrize("dim,length,refused", [
    (1, 1e153, False), (1, 1e160, True), (1, 1e-150, False), (1, 1e-170, True),
    (2, 1e102, False), (2, 1e160, True), (2, 1e-100, False), (2, 1e-150, True),
])
def test_config_refuses_kernel_weights_beyond_the_double_range(dim, length, refused):
    # a refused grid's weights or squared distances overflow or vanish; an
    # accepted one assembles finite, normal weights
    extents = ((0.0, length),) * dim
    problems = SimConfig(grid=GridConfig(dimension=dim, nodes=8, extents=extents)).problems()
    keys = "grid.extent" if dim == 1 else "grid.extent, grid.extent2"
    assert [p.partition(": the kernel weights")[0] for p in problems] == ([keys] if refused else [])
    if not refused:
        op = assemble_kernel_matrix(build_grid(dim, 8, extents), 0.5)
        weights = op.generator.ravel()[1:]
        assert weights.min() >= np.finfo(float).tiny and np.isfinite(op.spectrum).all()


def test_poincare_domain_constant_unit_interval(grid16):
    for s in (0.1, 0.5, 0.9):
        assert poincare_domain_constant(grid16, s) == 1.0


def test_poincare_domain_constant_formula():
    g = build_grid(1, 8, [(0.0, 2.0)])
    assert poincare_domain_constant(g, 0.5) == pytest.approx(2.0, rel=1e-15)
    # unit square, s = 0.25: max(sqrt(2), 1)^(2 + 0.5) evaluated independently
    sq = build_grid(2, 4, [(0.0, 1.0)])
    expect = math.exp(2.5 * 0.5 * math.log(2.0))
    assert poincare_domain_constant(sq, 0.25) == pytest.approx(expect, rel=1e-14)


def test_poincare_domain_constant_rejects_bad_s(grid16):
    for s in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ParameterError):
            poincare_domain_constant(grid16, s)
