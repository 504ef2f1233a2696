import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (ParameterError, SingularityError, assemble_kernel_matrix, build_grid,
                        k_eps_analytic_bound, k_eps_star_analytic_bound, lipschitz_bounds,
                        psi, psi_eps)

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
    w = assemble_kernel_matrix(g, "singular", 0.5).to_dense()
    assert w[0, 1] == 2.0  # psi(0.5) * w = 4 * 0.5
    assert w[1, 0] == 2.0
    assert w[0, 0] == 0.0


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
@pytest.mark.parametrize("variant,eps", [("singular", None), ("truncated", 0.1)])
def test_matrix_matches_loop_oracle(dim, n, variant, eps):
    g = build_grid(dim, n, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, variant, 0.5, eps)
    expect = oracles.kernel_matrix_loop(g, 0.5, eps)
    assert np.allclose(m.to_dense(), expect, rtol=1e-13, atol=0.0)


def test_matrix_structure(singular64):
    w = singular64.to_dense()
    assert np.array_equal(w, w.T)
    assert np.all(w >= 0.0)
    assert np.all(np.diag(w) == 0.0)
    # row sums come from prefix sums of the generator, not from the dense rows
    assert np.allclose(singular64.row_sums, w.sum(axis=1), rtol=1e-14, atol=0)


def test_truncated_dominated_by_singular(grid64, singular64):
    for eps in (0.5, 0.1, 0.01):
        trunc = assemble_kernel_matrix(grid64, "truncated", 0.5, eps)
        assert np.all(trunc.to_dense() <= singular64.to_dense())


def test_truncated_monotone_in_eps(grid16):
    mats = [assemble_kernel_matrix(grid16, "truncated", 0.5, eps).to_dense()
            for eps in (0.4, 0.2, 0.1, 0.05)]
    for coarse, fine in zip(mats, mats[1:]):
        off = ~np.eye(coarse.shape[0], dtype=bool)
        assert np.all(fine[off] > coarse[off])


def test_reflection_symmetry():
    # dyadic grid: coordinates and distances are exact, so the reflected
    # relabeling permutes the matrix identically
    g = build_grid(1, 64, [(0.0, 1.0)])
    w = assemble_kernel_matrix(g, "singular", 0.5).to_dense()
    rev = np.arange(g.node_count)[::-1]
    assert np.array_equal(w[np.ix_(rev, rev)], w)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.05, 0.95), eps=st.floats(0.01, 2.0))
def test_truncation_invariants(s, eps):
    g = build_grid(1, 12, [(0.0, 1.0)])
    sing = assemble_kernel_matrix(g, "singular", s).to_dense()
    trunc = assemble_kernel_matrix(g, "truncated", s, eps).to_dense()
    assert np.all(trunc <= sing)
    assert np.array_equal(trunc, trunc.T)


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
    op = assemble_kernel_matrix(g, "singular" if eps is None else "truncated", s, eps)
    expect = oracles.kernel_matrix_loop(g, s, eps)
    assert rel_close(op.to_dense(), expect, rtol=1e-12)
    assert rel_close(op.row_sums, expect.sum(axis=1), rtol=1e-12)
    x = np.random.default_rng(seed).standard_normal((3, g.node_count))
    batched = op.apply(x)
    assert batched.shape == x.shape
    for row, got in zip(x, batched):
        assert rel_close(got, expect @ row, rtol=1e-12)
        assert rel_close(op.apply(row), got, rtol=1e-13)


def test_assemble_validation(grid16):
    with pytest.raises(ParameterError):
        assemble_kernel_matrix(grid16, "truncated", 0.5, None)
    with pytest.raises(ParameterError):
        assemble_kernel_matrix(grid16, "gaussian", 0.5)


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
