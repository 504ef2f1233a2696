import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (IterationError, ParameterError, assemble_kernel_matrix,
                        build_grid, diameter, dist_sq_to_mean, dual_bound_value,
                        energy_identity_residual, energy_kinetic, energy_potential,
                        fit_decay_rate, min_sinc, poincare_domain_constant,
                        poincare_sharp_discrete, seminorm_sq, simulate, sin2_seminorm,
                        truncation_functionals, uniform_bound_report)

import oracles
from conftest import make_config


def random_field(grid, scale, seed):
    return np.random.default_rng(seed).uniform(-scale, scale, grid.node_count)


def synthetic_matrix(weights, w=1.0):
    """Operator over explicit weights.

    The grid spans [0, n*w] so its quadrature weight is exactly w.
    """
    n = weights.shape[0]
    return oracles.DenseOperator(weights, build_grid(1, n, [(0.0, n * w)]))


def test_diameter_examples():
    assert diameter(np.full(5, 3.3)) == 0.0
    assert diameter(np.array([0.0, math.pi / 2, -math.pi / 4])) == pytest.approx(
        3 * math.pi / 4, rel=1e-15)
    rng = np.random.default_rng(1)
    values = rng.normal(size=40)
    by_sort = np.sort(values)
    assert diameter(values) == by_sort[-1] - by_sort[0]
    with pytest.raises(ParameterError):
        diameter(np.array([]))


def test_energy_potential_two_antipodal_nodes():
    m = synthetic_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), w=1.0)
    value = energy_potential(np.array([0.0, math.pi]), m, kappa=1.0)
    assert value == pytest.approx(2.0, rel=1e-14)


def test_energy_potential_constant_and_oracle(grid16, singular16):
    assert energy_potential(np.full(16, 0.4), singular16, kappa=2.0) == 0.0
    theta = random_field(grid16, 1.0, seed=21)
    expect = oracles.energy_potential_loop(grid16, theta, 0.5, 1.7)
    assert energy_potential(theta, singular16, kappa=1.7) == pytest.approx(expect, rel=1e-12)


def test_energy_kinetic(grid16, singular16):
    theta = random_field(grid16, 1.0, seed=22)
    assert energy_kinetic(theta, singular16, delta=0.0) == 0.0
    assert energy_kinetic(theta, singular16, delta=0.4) == pytest.approx(
        0.1 * seminorm_sq(theta, singular16), rel=1e-15)
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.1)
    with pytest.raises(ParameterError):
        energy_kinetic(theta, trunc, delta=0.1)


def test_seminorm_constant_and_oracle(grid16, singular16):
    assert abs(seminorm_sq(np.full(16, -1.0), singular16)) <= 1e-13
    theta = random_field(grid16, 1.5, seed=23)
    expect = oracles.seminorm_loop(grid16, theta, 0.5)
    assert seminorm_sq(theta, singular16) == pytest.approx(expect, rel=1e-12)


def test_sin2_seminorm_oracle(grid16, singular16):
    assert sin2_seminorm(np.full(16, 0.9), singular16) == 0.0
    theta = random_field(grid16, 1.0, seed=24)
    expect = oracles.sin2_loop(grid16, theta, 0.5)
    assert sin2_seminorm(theta, singular16) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("amplitude", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_small_amplitude_energies_do_not_cancel(amplitude, grid64, singular64):
    # 1 - cos evaluated as 1.W1 - c.Wc - s.Ws loses every digit here; the
    # oracle writes it as 2 sin^2(z/2), which does not cancel either
    theta = random_field(grid64, amplitude, seed=26)
    expect = oracles.energy_potential_loop(grid64, theta, 0.5, 1.0)
    got = energy_potential(theta, singular64, kappa=1.0)
    assert got == pytest.approx(expect, rel=1e-10, abs=0.0)
    expect = oracles.sin2_loop(grid64, theta, 0.5)
    assert sin2_seminorm(theta, singular64) == pytest.approx(expect, rel=1e-10, abs=0.0)


def test_dual_bound_value(grid16, singular16):
    theta = random_field(grid16, 1.0, seed=25)
    assert dual_bound_value(np.full(16, 1.0), singular16, singular16, 1.0, 0.1, 2.0) == 0.0
    just_sine = dual_bound_value(theta, singular16, singular16, 1.4, 0.0, 2.0)
    assert just_sine == pytest.approx(
        0.7 * math.sqrt(oracles.sin2_loop(grid16, theta, 0.5)), rel=1e-12)
    full = dual_bound_value(theta, singular16, singular16, 1.4, 0.6, 2.0)
    expect = 0.7 * math.sqrt(oracles.sin2_loop(grid16, theta, 0.5)) \
        + 0.3 * math.sqrt(oracles.seminorm_loop(grid16, theta, 0.5))
    assert full == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ParameterError):
        dual_bound_value(theta, singular16, singular16, 1.0, 0.1, math.pi)


def test_min_sinc():
    assert min_sinc(0.0) == 1.0
    assert min_sinc(math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert min_sinc(3.0) == pytest.approx(math.sin(3.0) / 3.0, rel=1e-15)
    for bad in (-0.1, math.pi, 4.0):
        with pytest.raises(ParameterError):
            min_sinc(bad)


def test_energy_identity_residual_zero_dynamics():
    traj = simulate(make_config(n=16, kind="constant", value=0.3, horizon=0.5))
    assert energy_identity_residual(traj) == 0.0


def test_energy_identity_pure_dissipation():
    # kappa = 0: potential energy is identically zero, so the kinetic energy
    # plus the dissipation integral must return the initial kinetic energy
    cfg = make_config(n=64, model="singular", kappa=0.0, delta=0.3, kind="smooth",
                      diameter=1.0, horizon=1.0, stride=8, safety=0.1)
    traj = simulate(cfg)
    e0 = traj.records[0].e_kin
    assert traj.records[0].e_pot == 0.0
    assert energy_identity_residual(traj) <= 1e-4 * e0


def test_energy_identity_residual_drops_with_dt():
    base = make_config(n=64, model="regularized", epsilon=0.1, delta=0.1, kind="smooth",
                       diameter=math.pi / 2, horizon=1.0, stride=16, safety=0.5)
    coarse = simulate(base)
    from dataclasses import replace
    halved = replace(base, integrator=replace(base.integrator, dt=coarse.dt / 2))
    fine = simulate(halved)
    assert energy_identity_residual(coarse) >= 4.0 * energy_identity_residual(fine)


def test_uniform_bound_report_rows():
    cfg = make_config(n=32, model="regularized", epsilon=0.1, delta=0.2, kind="random",
                      seed=5, diameter=2.0, horizon=0.5, stride=4)
    traj = simulate(cfg)
    rows = {c.name: c for c in uniform_bound_report(traj)}
    assert rows["seminorm-dissipation-bound"].satisfied is True
    assert rows["seminorm-sinc-bound"].satisfied is None  # truncated coupling
    assert "singular" in rows["seminorm-sinc-bound"].reason
    assert rows["initial-potential-energy"].satisfied is True
    assert rows["sin2-seminorm-bound"].satisfied is True


def test_uniform_bound_report_singular_model():
    cfg = make_config(n=32, model="singular", delta=0.05, kind="smooth",
                      diameter=math.pi / 2, horizon=0.5, stride=4)
    traj = simulate(cfg)
    rows = {c.name: c for c in uniform_bound_report(traj)}
    assert all(c.satisfied for c in rows.values())


def test_uniform_bound_report_constant_field_trivial():
    cfg = make_config(n=16, kind="constant", value=0.2, horizon=0.2)
    traj = simulate(cfg)
    rows = uniform_bound_report(traj)
    for row in rows:
        if row.satisfied is not None:
            assert row.lhs <= 1e-12


@settings(max_examples=25, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(2, 32)),
                       st.tuples(st.just(2), st.integers(2, 7))),
       s=st.floats(0.05, 0.95), eps=st.one_of(st.none(), st.floats(0.02, 1.0)),
       lengths=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
       kappa=st.floats(0.0, 2.0), delta=st.floats(0.0, 0.5), diameter=st.floats(0.0, 3.0),
       seed=st.integers(0, 1000))
def test_fused_records_equal_the_public_functions(shape, s, eps, lengths, kappa, delta,
                                                  diameter, seed):
    # eps None is the singular model, where the coupling is the dissipation
    dim, n = shape
    cfg = make_config(dim=dim, n=n, extents=[(0.0, length) for length in lengths[:dim]],
                      model="singular" if eps is None else "regularized", s=s, epsilon=eps,
                      kappa=kappa, delta=delta, kind="random", seed=seed, diameter=diameter,
                      horizon=0.02, stride=3)
    traj = simulate(cfg)
    from nlkuramoto import build_operators
    _, coupling, dissipation = build_operators(cfg)
    m0 = traj.records[0].diameter
    for snap, rec in zip(traj.snapshots, traj.records):
        assert rec.e_pot == energy_potential(snap, coupling, kappa)
        assert rec.sin2_seminorm == sin2_seminorm(snap, coupling)
        assert rec.seminorm_sq == seminorm_sq(snap, dissipation)
        assert rec.dual_bound == dual_bound_value(snap, coupling, dissipation,
                                                  kappa, delta, m0)
    rows = {c.name: c for c in uniform_bound_report(traj)}
    expect = max(sin2_seminorm(snap, coupling) for snap in traj.snapshots)
    assert rows["sin2-seminorm-bound"].lhs == (expect if kappa > 0.0 else None)


def test_missing_sin2_value_fails_its_bound_row():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.05)
    traj = simulate(cfg)
    for k in (0, len(traj.records) - 1):
        records = list(traj.records)
        records[k] = replace(records[k], sin2_seminorm=math.nan)
        rows = {c.name: c for c in uniform_bound_report(replace(traj, records=records))}
        assert rows["sin2-seminorm-bound"].satisfied is False


def test_poincare_two_nodes_closed_form():
    w12 = 1.7
    m = synthetic_matrix(np.array([[0.0, w12], [w12, 0.0]]), w=0.25)
    assert poincare_sharp_discrete(m) == pytest.approx(4.0 * w12, rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_poincare_matches_dense_oracle(s):
    g = build_grid(1, 64, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, "singular", s)
    lam = poincare_sharp_discrete(m)
    assert lam == pytest.approx(oracles.lambda_star_dense(g, s), rel=1e-8)
    assert 1.0 / lam <= poincare_domain_constant(g, s)


def test_poincare_2d_grid():
    g = build_grid(2, 8, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, "singular", 0.5)
    lam = poincare_sharp_discrete(m)
    assert lam == pytest.approx(oracles.lambda_star_dense(g, 0.5), rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(shape=st.one_of(st.tuples(st.just(1), st.integers(2, 256)),
                       st.tuples(st.just(2), st.integers(2, 16))),
       s=st.floats(0.01, 0.99), width=st.floats(0.5, 2.0),
       ratio=st.one_of(st.just(1.0), st.floats(1.0, 1.1), st.floats(1.1, 3.0)))
def test_poincare_matches_dense_oracle_everywhere(shape, s, width, ratio):
    dim, n = shape
    extents = [(0.0, width), (0.0, width * ratio)][:dim]
    g = build_grid(dim, n, extents)
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, "singular", s))
    assert lam == pytest.approx(oracles.lambda_star_dense(g, s), rel=1e-10)


def test_poincare_scaling_covariance(grid16, singular16):
    lam = poincare_sharp_discrete(singular16)
    scaled = oracles.DenseOperator(3.0 * singular16.to_dense(), grid16)
    assert poincare_sharp_discrete(scaled) == pytest.approx(3.0 * lam, rel=1e-10)


def test_poincare_near_square_box_matches_dense_oracle():
    # two nearly equal lowest eigenvalues (the 1 x 1.001 box)
    g = build_grid(2, 12, [(0.0, 1.0), (0.0, 1.001)])
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, "singular", 0.5))
    assert lam == pytest.approx(oracles.lambda_star_dense(g, 0.5), rel=1e-10)


def test_poincare_converges_where_rounding_floors_the_residual():
    # the rounding floor of the stop (5.7e-8) lies above tol * lambda (9.3e-10)
    g = build_grid(1, 1024, [(0.0, 1.0)])
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, "singular", 0.95))
    assert lam == pytest.approx(oracles.lambda_star_dense(g, 0.95), rel=1e-8)


@pytest.mark.parametrize("dim, n", [(2, 56), (1, 512)])
def test_poincare_apply_budget(monkeypatch, dim, n):
    # one solve takes 60 kernel-apply rows at 56 x 56 and 34 at 1d n = 512
    from nlkuramoto import kernel

    rows = [0]
    real_apply = kernel._spectral_apply

    def counted(grid, spectrum, x):
        rows[0] += np.asarray(x).size // grid.node_count
        return real_apply(grid, spectrum, x)

    monkeypatch.setattr(kernel, "_spectral_apply", counted)
    g = build_grid(dim, n, [(0.0, 1.0)] * dim)
    poincare_sharp_discrete(assemble_kernel_matrix(g, "singular", 0.5))
    assert 0 < rows[0] <= 150


def test_poincare_iteration_error():
    m = assemble_kernel_matrix(build_grid(1, 64, [(0.0, 1.0)]), "singular", 0.5)
    with pytest.raises(IterationError) as info:
        poincare_sharp_discrete(m, max_iter=1)
    message = str(info.value)
    assert message.startswith("LOBPCG did not converge in 1 iterations")
    assert f"residual {info.value.residual:.3e}" in message
    assert "rounding floor" in message
    assert info.value.residual > 0.0


def test_fit_decay_rate_exact_exponential():
    t = np.linspace(0.0, 3.0, 200)
    gamma, residual = fit_decay_rate(t, np.exp(-3.0 * t))
    assert gamma == pytest.approx(3.0, abs=1e-10)
    assert residual <= 1e-12


def test_fit_decay_rate_constant_series():
    t = np.linspace(0.0, 1.0, 50)
    gamma, _ = fit_decay_rate(t, np.full(50, 0.7))
    assert abs(gamma) <= 1e-12


def test_fit_decay_rate_errors():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(ParameterError):
        fit_decay_rate(t, np.full(50, -1.0))
    with pytest.raises(ParameterError):
        fit_decay_rate([0.0], [1.0])


def test_fit_decay_rate_floor_truncation():
    t = np.linspace(0.0, 10.0, 400)
    d = np.exp(-20.0 * t)  # underflows below the floor midway
    gamma, _ = fit_decay_rate(t, d)
    assert gamma == pytest.approx(20.0, rel=1e-6)


def test_truncation_functionals_on_contracting_run():
    cfg = make_config(n=32, kind="two_cluster", diameter=3.0, horizon=1.0, stride=4)
    traj = simulate(cfg)
    hi, lo = truncation_functionals(traj)
    assert hi <= 1e-16 and lo <= 1e-16


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), scale=st.floats(0.1, 2.0))
def test_dist_sq_shift_invariant(seed, scale, grid16):
    theta = random_field(grid16, scale, seed)
    a = dist_sq_to_mean(theta, grid16)
    b = dist_sq_to_mean(theta + 5.0, grid16)
    assert b == pytest.approx(a, rel=1e-9, abs=1e-12)
