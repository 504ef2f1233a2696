import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (GridMismatchError, ParameterError, SingularityError,
                        assemble_kernel_matrix, build_grid, k_eps_analytic_bound,
                        k_eps_star_analytic_bound, lipschitz_bounds, psi, psi_eps)
from nlkuramoto.kernel import stacked_apply

import oracles
from conftest import rel_close


def test_psi_values():
    assert psi(1.0, 1, 0.3) == 1.0
    assert psi(0.5, 1, 0.5) == 4.0
    # 0.25^(-2.5) evaluated independently: 4^(5/2) = 32
    assert psi(0.25, 2, 0.25) == pytest.approx(math.exp(-2.5 * math.log(0.25)), rel=1e-15)
    assert psi(0.25, 2, 0.25) == pytest.approx(32.0, rel=1e-15)


def test_psi_rejects_nonpositive_distance():
    with pytest.raises(SingularityError):
        psi(0.0, 1, 0.5)
    with pytest.raises(SingularityError):
        psi(np.array([1.0, -0.5]), 1, 0.5)
    with pytest.raises(ParameterError):
        psi(1.0, 1, 1.5)


def test_psi_eps_values():
    assert psi_eps(0.0, 1, 0.5, 1.0) == 1.0
    assert psi_eps(0.5, 1, 0.5, 0.5) == 1.0
    expect = math.exp(-1.5 * math.log(1.1))
    assert psi_eps(1.0, 1, 0.25, 0.1) == pytest.approx(expect, rel=1e-15)


def test_psi_eps_validation():
    with pytest.raises(ParameterError):
        psi_eps(1.0, 1, 0.5, 0.0)
    with pytest.raises(ParameterError):
        psi_eps(-1.0, 1, 0.5, 0.1)


def test_two_node_entry():
    g = build_grid(1, 2, [(0.0, 1.0)])
    op = assemble_kernel_matrix(g, 0.5)
    assert op.generator[1] == 2.0  # W[0, 1] = W[1, 0] = psi(0.5) * w = 4 * 0.5
    assert op.generator[0] == 0.0
    assert np.array_equal(op.row_sums, [2.0, 2.0])


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
@pytest.mark.parametrize("eps", [None, 0.1], ids=["singular-None", "truncated-0.1"])
def test_matrix_matches_loop_oracle(dim, n, eps):
    g = build_grid(dim, n, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, 0.5, eps)
    expect = oracles.kernel_matrix_loop(g, 0.5, eps)
    # node 0 sits in the corner, so its row holds the entry at every offset
    assert np.allclose(m.generator.ravel(), expect[0], rtol=1e-13, atol=0.0)
    assert np.allclose(m.row_sums, expect.sum(axis=1), rtol=1e-13, atol=0.0)
    x = np.random.default_rng(n).standard_normal(g.node_count)
    assert rel_close(m.apply(x), expect @ x, rtol=1e-12)


def test_matrix_structure(grid64, singular64):
    assert np.all(singular64.generator >= 0.0)
    assert singular64.generator[0] == 0.0
    # row sums come from prefix sums of the generator, not from dense rows
    expect = oracles.kernel_matrix_loop(grid64, 0.5).sum(axis=1)
    assert np.allclose(singular64.row_sums, expect, rtol=1e-14, atol=0)
    # the apply is self-adjoint: x . W y = y . W x
    x, y = np.random.default_rng(1).standard_normal((2, grid64.node_count))
    assert x @ singular64.apply(y) == pytest.approx(y @ singular64.apply(x), rel=1e-13)


def test_truncated_dominated_by_singular(grid64, singular64):
    # every entry is a generator value, so the generators order the matrices
    for eps in (0.5, 0.1, 0.01):
        trunc = assemble_kernel_matrix(grid64, 0.5, eps)
        assert np.all(trunc.generator <= singular64.generator)


def test_truncated_monotone_in_eps(grid16):
    gens = [assemble_kernel_matrix(grid16, 0.5, eps).generator
            for eps in (0.4, 0.2, 0.1, 0.05)]
    for coarse, fine in zip(gens, gens[1:]):
        assert np.all(fine[1:] > coarse[1:])  # every off-diagonal offset


def test_reflection_symmetry():
    # dyadic grid: coordinates and distances are exact, so the reflected
    # relabeling commutes with the operator
    g = build_grid(1, 64, [(0.0, 1.0)])
    op = assemble_kernel_matrix(g, 0.5)
    x = np.random.default_rng(2).standard_normal(g.node_count)
    assert rel_close(op.apply(x[::-1]), op.apply(x)[::-1], rtol=1e-13)
    assert np.array_equal(op.row_sums, op.row_sums[::-1])


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.05, 0.95), eps=st.floats(0.01, 2.0))
def test_truncation_invariants(s, eps):
    g = build_grid(1, 12, [(0.0, 1.0)])
    sing = assemble_kernel_matrix(g, s)
    trunc = assemble_kernel_matrix(g, s, eps)
    assert np.all(trunc.generator <= sing.generator)
    assert np.all(trunc.row_sums <= sing.row_sums)


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(2, 48)),
                      st.tuples(st.just(2), st.integers(2, 9))),
       s=st.floats(0.05, 0.95), eps=st.one_of(st.none(), st.floats(0.01, 2.0)),
       lengths=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
       seed=st.integers(0, 1000))
def test_operator_matches_loop_oracle(shape, s, eps, lengths, seed):
    dim, n = shape
    # anisotropic boxes in 2d: distinct spacings on the two axes
    g = build_grid(dim, n, [(-1.0, -1.0 + length) for length in lengths[:dim]])
    op = assemble_kernel_matrix(g, s, eps)
    expect = oracles.kernel_matrix_loop(g, s, eps)
    assert rel_close(op.generator.ravel(), expect[0], rtol=1e-12)
    assert rel_close(op.row_sums, expect.sum(axis=1), rtol=1e-12)
    x = np.random.default_rng(seed).standard_normal((3, g.node_count))
    batched = op.apply(x)
    assert batched.shape == x.shape
    for row, got in zip(x, batched):
        assert rel_close(got, expect @ row, rtol=1e-12)
        assert rel_close(op.apply(row), got, rtol=1e-13)


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(2, 64)),
                      st.tuples(st.just(2), st.integers(2, 12))),
       s=st.floats(0.05, 0.95), eps=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)),
       lengths=st.tuples(st.floats(0.25, 4.0), st.floats(0.25, 4.0)),
       picks=st.lists(st.integers(0, 2), min_size=1, max_size=6), seed=st.integers(0, 1000))
def test_stacked_apply_is_each_operator_apply_bitwise(shape, s, eps, lengths, picks, seed):
    dim, n = shape
    g = build_grid(dim, n, [(0.0, length) for length in lengths[:dim]])
    ops = [assemble_kernel_matrix(g, s),
           assemble_kernel_matrix(g, s, eps[0]),
           assemble_kernel_matrix(g, s, eps[1])]
    stack = tuple(ops[k] for k in picks)
    x = np.random.default_rng(seed).standard_normal((len(stack), g.node_count))
    got = stacked_apply(stack)(x)
    assert got.shape == x.shape
    for op, row, out in zip(stack, x, got):
        assert np.array_equal(out, op.apply(row))


def test_stacked_apply_takes_one_row_of_operators_per_member(grid16, singular16):
    trunc = assemble_kernel_matrix(grid16, 0.5, 0.1)
    layout = ((singular16, trunc), (trunc, trunc), (trunc, singular16))
    x = np.random.default_rng(3).standard_normal((3, 2, 16))
    got = stacked_apply(layout)(x)
    assert got.shape == x.shape
    for ops, rows, outs in zip(layout, x, got):
        for op, row, out in zip(ops, rows, outs):
            assert np.array_equal(out, op.apply(row))


def test_stacked_apply_needs_one_grid(grid16, singular16):
    other = assemble_kernel_matrix(build_grid(1, 16, [(0.0, 2.0)]), 0.5)
    with pytest.raises(GridMismatchError):
        stacked_apply((singular16, other))


def test_assemble_validation(grid16):
    assert assemble_kernel_matrix(grid16, 0.5).is_singular
    assert not assemble_kernel_matrix(grid16, 0.5, 0.1).is_singular
    for s, eps in ((0.5, 0.0), (0.5, -0.1), (1.5, None), (0.0, 0.1)):
        with pytest.raises(ParameterError):
            assemble_kernel_matrix(grid16, s, eps)


def test_lipschitz_bounds_against_oracle():
    g = build_grid(1, 32, [(0.0, 1.0)])
    b = lipschitz_bounds(g, 0.5, 0.1)
    k_sq, k_star = oracles.k_sums_loop(g, 0.5, 0.1)
    assert b.k_eps == pytest.approx(k_sq, rel=1e-13)
    assert b.k_eps_star == pytest.approx(k_star, rel=1e-13)
    assert b.lip_l2 == pytest.approx(math.sqrt(2.0 * (k_sq + k_star ** 2)), rel=1e-13)
    assert b.lip_linf == pytest.approx(2.0 * k_star, rel=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 128), (2, 12)])
@pytest.mark.parametrize("s", [0.25, 0.75])
@pytest.mark.parametrize("eps", [0.5, 0.1, 0.02])
def test_lipschitz_analytic_bounds(dim, n, s, eps):
    g = build_grid(dim, n, [(0.0, 1.0)])
    b = lipschitz_bounds(g, s, eps)
    assert 0.0 < b.k_eps <= k_eps_analytic_bound(g, s, eps)
    assert 0.0 < b.k_eps_star <= k_eps_star_analytic_bound(g, s, eps)


def test_lipschitz_bounds_nonincreasing_in_eps(grid16):
    ladder = (0.05, 0.1, 0.2, 0.4, 0.8)
    rows = [lipschitz_bounds(grid16, 0.5, eps) for eps in ladder]
    for tight, loose in zip(rows, rows[1:]):
        assert loose.k_eps <= tight.k_eps
        assert loose.k_eps_star <= tight.k_eps_star
