import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (GridMismatchError, ParameterError, assemble_kernel_matrix,
                        bilinear_form, build_grid, dist_sq_to_mean, dual_bound_value,
                        energy_kinetic, energy_potential, mean_phase, rhs_lattice,
                        rhs_regularized, rhs_singular, seminorm_sq, sin2_seminorm)

import oracles
from conftest import rel_close


def random_field(grid, scale, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, grid.node_count)


def test_rhs_singular_constant_field(singular16):
    rate = rhs_singular(np.full(16, 0.7), singular16, kappa=1.3)
    assert np.all(rate == 0.0)


def test_rhs_singular_two_nodes_antisymmetric():
    g = build_grid(1, 2, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, "singular", 0.5)
    a = 0.4
    rate = rhs_singular(np.array([a, -a]), m, kappa=1.0)
    expect = m.to_dense()[0, 1] * np.sin(-2.0 * a)
    assert rate[0] == pytest.approx(expect, rel=1e-14)
    assert rate[1] == pytest.approx(-expect, rel=1e-14)


def test_rhs_singular_matches_oracle(grid16, singular16):
    theta = random_field(grid16, 1.2, seed=3)
    rate = rhs_singular(theta, singular16, kappa=0.8)
    expect = oracles.rhs_singular_loop(grid16, theta, 0.5, 0.8)
    assert rel_close(rate, expect, rtol=1e-13)


def test_rhs_singular_rejects_truncated(grid16):
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.1)
    with pytest.raises(ParameterError):
        rhs_singular(np.zeros(16), trunc, kappa=1.0)


def test_rhs_regularized_constant_field(grid16, singular16):
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.1)
    rate = rhs_regularized(np.full(16, -2.0), trunc, singular16, kappa=1.0, delta=0.3)
    assert np.all(rate == 0.0)


@pytest.mark.parametrize("dim,n", [(1, 37), (2, 7)])
@pytest.mark.parametrize("value", [0.0, -2.3, 1e3])
def test_constant_field_is_exactly_still(dim, n, value):
    # real transforms of all-zero shifted fields: every rate, energy and
    # seminorm of every variant is exactly zero, not merely round-off small
    g = build_grid(dim, n, [(0.0, 1.0), (0.0, 1.7)][:dim])
    sing = assemble_kernel_matrix(g, "singular", 0.6)
    trunc = assemble_kernel_matrix(g, "truncated", 0.6, 0.05)
    theta = np.full(g.node_count, value)
    rates = [rhs_singular(theta, sing, 1.3),
             rhs_regularized(theta, trunc, sing, 1.3, 0.4),
             rhs_regularized(theta, sing, sing, 1.3, 0.4),
             rhs_lattice(theta, sing, 1.3, 0.0)]
    assert all(np.all(rate == 0.0) for rate in rates)
    values = [energy_potential(theta, m, 1.3) for m in (sing, trunc)]
    values += [sin2_seminorm(theta, m) for m in (sing, trunc)]
    values += [energy_kinetic(theta, sing, 0.4), seminorm_sq(theta, sing),
               bilinear_form(theta, random_field(g, 1.0, seed=1), sing),
               dual_bound_value(theta, trunc, sing, 1.3, 0.4, 0.0)]
    assert values == [0.0] * len(values)


def test_rhs_regularized_pure_dissipation_preserves_mean(grid16, singular16):
    theta = random_field(grid16, 1.0, seed=11)
    rate = rhs_regularized(theta, singular16, singular16, kappa=0.0, delta=0.4)
    mean_rate = grid16.weight * rate.sum()
    assert abs(mean_rate) <= 1e-12 * np.abs(rate).max()


def test_rhs_regularized_matches_oracle(grid16, singular16):
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.2)
    theta = random_field(grid16, 1.0, seed=5)
    rate = rhs_regularized(theta, trunc, singular16, kappa=1.1, delta=0.25)
    expect = oracles.rhs_regularized_loop(grid16, theta, 0.5, 0.2, 1.1, 0.25)
    assert rel_close(rate, expect, rtol=1e-13)


def test_rhs_regularized_reduces_to_singular(grid16, singular16):
    theta = random_field(grid16, 1.0, seed=6)
    a = rhs_regularized(theta, singular16, singular16, kappa=1.0, delta=0.0)
    b = rhs_singular(theta, singular16, kappa=1.0)
    assert np.array_equal(a, b)


def test_rhs_lattice_zero_coupling_returns_frequency():
    theta = np.array([0.1, 0.2, 0.3])
    nu = np.array([1.0, -2.0, 0.5])
    rate = rhs_lattice(theta, oracles.DenseOperator(np.zeros((3, 3))), kappa=0.0, nu=nu)
    assert np.array_equal(rate, nu)


def test_rhs_lattice_two_nodes():
    # uniform weights, kappa / node_count = 1
    weights = np.array([[0.0, 1.0], [1.0, 0.0]])
    rate = rhs_lattice(np.array([0.0, np.pi / 2.0]), oracles.DenseOperator(weights),
                       kappa=2.0, nu=0.0)
    assert rate == pytest.approx([1.0, -1.0], rel=1e-15)


def test_rhs_lattice_matches_oracle():
    rng = np.random.default_rng(9)
    n = 8
    theta = rng.uniform(-2, 2, n)
    raw = rng.uniform(0, 1, (n, n))
    weights = 0.5 * (raw + raw.T)
    np.fill_diagonal(weights, 0.0)
    nu = rng.uniform(-1, 1, n)
    rate = rhs_lattice(theta, oracles.DenseOperator(weights), kappa=0.7, nu=nu)
    expect = oracles.rhs_lattice_loop(theta, weights, 0.7, nu)
    assert rel_close(rate, expect, rtol=1e-13)


def test_rhs_lattice_couples_through_the_raw_kernel():
    # the singular operator without its cell weight, on an anisotropic box
    g = build_grid(2, 5, [(0.0, 1.0), (0.0, 3.0)])
    theta = random_field(g, 1.5, seed=12)
    rate = rhs_lattice(theta, assemble_kernel_matrix(g, "singular", 0.4), kappa=0.9, nu=0.3)
    raw = oracles.kernel_matrix_loop(g, 0.4, weight=1.0)
    assert rel_close(rate, oracles.rhs_lattice_loop(theta, raw, 0.9, 0.3), rtol=1e-13)
    with pytest.raises(GridMismatchError):
        rhs_lattice(np.zeros(24), oracles.DenseOperator(raw), kappa=1.0, nu=0.0)


def test_rates_of_a_family_are_its_members_rates(grid16, singular16):
    # one row per member, each with its own coupling and delta, bitwise
    truncs = [assemble_kernel_matrix(grid16, "truncated", 0.5, eps) for eps in (0.2, 0.1, 0.05)]
    family = np.stack([random_field(grid16, 1.0, seed=k) for k in range(3)])
    deltas = [0.3, 0.2, 0.1]
    rates = rhs_regularized(family, truncs, singular16, 0.7, deltas)
    for row, coupling, delta, rate in zip(family, truncs, deltas, rates, strict=True):
        assert rate.tobytes() == rhs_regularized(row, coupling, singular16, 0.7, delta).tobytes()
    for rate, row in zip(rhs_singular(family, singular16, 0.7), family, strict=True):
        assert rate.tobytes() == rhs_singular(row, singular16, 0.7).tobytes()
    for rate, row in zip(rhs_lattice(family, singular16, 0.7, 0.2), family, strict=True):
        assert rate.tobytes() == rhs_lattice(row, singular16, 0.7, 0.2).tobytes()


def test_bilinear_form_constant_argument(grid16, singular16):
    u = random_field(grid16, 1.0, seed=2)
    value = bilinear_form(u, np.full(16, 3.0), singular16)
    assert abs(value) <= 1e-12 * seminorm_sq(u, singular16)


def test_bilinear_form_symmetry_and_oracle(grid16, singular16):
    u = random_field(grid16, 1.0, seed=7)
    v = random_field(grid16, 1.0, seed=8)
    auv = bilinear_form(u, v, singular16)
    avu = bilinear_form(v, u, singular16)
    assert auv == pytest.approx(avu, rel=1e-14)
    assert auv == pytest.approx(oracles.bilinear_loop(grid16, u, v, 0.5), rel=1e-12)


def test_bilinear_form_is_half_seminorm(grid16, singular16):
    u = random_field(grid16, 1.0, seed=4)
    assert seminorm_sq(u, singular16) == pytest.approx(
        2.0 * bilinear_form(u, u, singular16), rel=1e-15)
    assert bilinear_form(u, u, singular16) >= 0.0


def test_grid_mismatch_rejected(grid16, singular16):
    with pytest.raises(GridMismatchError):
        rhs_singular(np.zeros(8), singular16, kappa=1.0)
    with pytest.raises(GridMismatchError):
        rhs_singular(np.zeros((2, 8)), singular16, kappa=1.0)  # a family of 8-node fields
    # only the rate functions take an (R, N) family
    assert rhs_singular(np.zeros((2, 16)), singular16, kappa=1.0).shape == (2, 16)
    family = np.zeros((2, 16))
    for diagnostic in (lambda u: mean_phase(u, grid16), lambda u: dist_sq_to_mean(u, grid16),
                       lambda u: bilinear_form(u, u, singular16),
                       lambda u: energy_potential(u, singular16, 1.0)):
        with pytest.raises(GridMismatchError):
            diagnostic(family)


def test_rhs_domination_consistency(grid16, singular16):
    # swapping the truncated coupling for the singular one moves each
    # component by at most kappa times the matrices' row-sum gap
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.15)
    theta = random_field(grid16, 1.4, seed=31)
    gap = np.abs(rhs_singular(theta, singular16, 1.2)
                 - rhs_regularized(theta, trunc, singular16, 1.2, 0.0))
    allowance = 1.2 * (singular16.row_sums - trunc.row_sums)
    assert np.all(gap <= allowance * (1 + 1e-12) + 1e-15)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kappa=st.floats(0.0, 3.0), delta=st.floats(0.0, 1.0))
def test_rhs_properties(seed, kappa, delta, grid16, singular16):
    theta = random_field(grid16, 2.0, seed=seed)
    rate = rhs_regularized(theta, singular16, singular16, kappa=kappa, delta=delta)
    scale = max(np.abs(rate).max(), 1.0)

    # weighted mean rate vanishes by antisymmetry
    assert abs(grid16.weight * rate.sum()) <= 1e-12 * scale
    # shift equivariance: couplings see differences only
    shifted = rhs_regularized(theta + 1.7, singular16, singular16, kappa=kappa, delta=delta)
    assert np.abs(shifted - rate).max() <= 1e-10 * scale
    # odd symmetry at zero frequency
    negated = rhs_regularized(-theta, singular16, singular16, kappa=kappa, delta=delta)
    assert np.abs(negated + rate).max() <= 1e-10 * scale
