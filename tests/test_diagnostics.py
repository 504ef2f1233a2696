import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (BlowUpError, IterationError, ParameterError, assemble_kernel_matrix,
                        build_grid, diameter, energy_identity_residual, fit_decay_rate, min_sinc,
                        poincare_domain_constant, poincare_sharp_discrete, simulate,
                        truncation_functionals, uniform_bound_report)
from nlkuramoto import diagnostics, run
from nlkuramoto.experiments import _successive_differences
from nlkuramoto.run import simulate_family

import oracles
from conftest import make_config, recorded_states
from oracles import (dist_sq_to_mean, dual_bound_value, energy_kinetic, energy_potential,
                     seminorm_sq, sin2_seminorm)


def test_oracles_import_no_private_name_of_the_package():
    # a record field compared with an oracle that borrows the package's own
    # helper would compare the package with itself; a plain import of the
    # package would reach its private names unseen
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    package = [(node, alias.name) for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
               if (getattr(node, "module", None) or alias.name).split(".")[0] == "nlkuramoto"]
    assert package and all(isinstance(node, ast.ImportFrom) for node, _ in package)
    assert [name for _, name in package if name.startswith("_")] == []


def random_field(grid, scale, seed):
    return np.random.default_rng(seed).uniform(-scale, scale, grid.node_count)


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
    # unit spacing and cell weight: the one off-diagonal weight is 1 ** -(1 + 2s) = 1
    m = assemble_kernel_matrix(build_grid(1, 2, [(0.0, 2.0)]), 0.5)
    assert m.grid.weight == m.generator[1] == 1.0
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
    trunc = assemble_kernel_matrix(grid16, 0.5, 0.1)
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
    e0 = traj.records["e_kin"][0]
    assert traj.records["e_pot"][0] == 0.0
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
       kappa=st.floats(0.0, 2.0), delta=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
       diameter=st.floats(0.0, 3.0), seed=st.integers(0, 1000), members=st.integers(1, 3))
def test_fused_records_equal_the_public_functions(shape, s, eps, lengths, kappa, delta,
                                                  diameter, seed, members):
    # eps None is the singular model, where the coupling is the dissipation; a
    # family's members differ in eps (regularized) or in delta (singular, with
    # member 0 at delta = 0), and with delta = 0 no rate transforms u
    dim, n = shape
    cfg = make_config(dim=dim, n=n, extents=[(0.0, length) for length in lengths[:dim]],
                      model="singular" if eps is None else "regularized", s=s, epsilon=eps,
                      kappa=kappa, delta=delta, kind="random", seed=seed, diameter=diameter,
                      horizon=0.02, stride=3)
    physics = [replace(cfg.physics, delta=delta * j) if eps is None
               else replace(cfg.physics, epsilon=eps * 0.5 ** j) for j in range(members)]
    configs = [replace(cfg, physics=p) for p in physics]
    with recorded_states() as states:
        trajs = simulate_family(configs)
    family = states.of()
    from nlkuramoto import build_operators
    for j, (member, traj, snapshots) in enumerate(zip(configs, trajs, family, strict=True)):
        grid, coupling, dissipation = build_operators(member)
        kappa, delta = member.physics.kappa, member.physics.delta
        m0 = traj.records["diameter"][0]
        nexts = (oracles.distance_series(snapshots, family[j + 1], grid.weight)
                 if j + 1 < members else [math.nan] * len(snapshots))
        assert np.array_equal(traj.records["dist_to_next"], nexts, equal_nan=True)
        for snap, rec in zip(snapshots, traj.records, strict=True):
            assert rec["e_pot"] == energy_potential(snap, coupling, kappa)
            assert rec["sin2_seminorm"] == sin2_seminorm(snap, coupling)
            assert rec["seminorm_sq"] == seminorm_sq(snap, dissipation)
            assert rec["e_kin"] == energy_kinetic(snap, dissipation, delta)
            assert rec["dual_bound"] == dual_bound_value(snap, coupling, dissipation,
                                                         kappa, delta, m0)
            assert rec["mean"] == diagnostics.mean_phase(snap, grid)
            assert rec["dist_sq"] == dist_sq_to_mean(snap, grid)
        rows = {c.name: c for c in uniform_bound_report(traj)}
        expect = max(sin2_seminorm(snap, coupling) for snap in snapshots)
        assert rows["sin2-seminorm-bound"].lhs == (expect if kappa > 0.0 else None)
    # a record's row-wise vecdot is each row's @, bitwise, here and at a run's
    # length of thousands of nodes
    for block in (family[:, -1], np.random.default_rng(seed).uniform(-1, 1, (3, 4099))):
        assert np.vecdot(block, block[::-1]).tolist() == [float(a @ b)
                                                          for a, b in zip(block, block[::-1])]


def test_missing_sin2_value_fails_its_bound_row():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.05)
    traj = simulate(cfg)
    for k in (0, len(traj.records) - 1):
        records = traj.records.copy()
        records["sin2_seminorm"][k] = math.nan
        rows = {c.name: c for c in uniform_bound_report(replace(traj, records=records))}
        assert rows["sin2-seminorm-bound"].satisfied is False


def test_poincare_two_nodes_closed_form():
    # B = 2 [[w12, -w12], [-w12, w12]] has the one nonzero eigenvalue 4 w12
    m = assemble_kernel_matrix(build_grid(1, 2, [(0.0, 0.5)]), 0.7)
    w12 = float(m.generator[1])
    assert m.grid.weight == 0.25 and w12 > 1.0
    assert poincare_sharp_discrete(m) == pytest.approx(4.0 * w12, rel=1e-12)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_poincare_matches_dense_oracle(s):
    g = build_grid(1, 64, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, s)
    lam = poincare_sharp_discrete(m)
    assert lam == pytest.approx(oracles.lambda_star_dense(g, s), rel=1e-8)
    assert 1.0 / lam <= poincare_domain_constant(g, s)


def test_poincare_2d_grid():
    g = build_grid(2, 8, [(0.0, 1.0)])
    m = assemble_kernel_matrix(g, 0.5)
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
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, s))
    assert lam == pytest.approx(oracles.lambda_star_dense(g, s), rel=1e-10)


def test_poincare_scaling_covariance(grid16, singular16):
    lam = poincare_sharp_discrete(singular16)
    scaled = replace(singular16, generator=3.0 * singular16.generator,
                     spectrum=3.0 * singular16.spectrum, row_sums=3.0 * singular16.row_sums)
    assert np.allclose(scaled.apply(np.eye(16)),
                       3.0 * oracles.kernel_matrix_loop(grid16, 0.5), rtol=1e-13,
                       atol=1e-13 * scaled.row_sums.max())
    assert poincare_sharp_discrete(scaled) == pytest.approx(3.0 * lam, rel=1e-10)


def test_poincare_near_square_box_matches_dense_oracle():
    # two nearly equal lowest eigenvalues (the 1 x 1.001 box)
    g = build_grid(2, 12, [(0.0, 1.0), (0.0, 1.001)])
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, 0.5))
    assert lam == pytest.approx(oracles.lambda_star_dense(g, 0.5), rel=1e-10)


def test_poincare_converges_where_rounding_floors_the_residual():
    # the rounding floor of the stop (5.7e-8) lies above tol * lambda (9.3e-10)
    g = build_grid(1, 1024, [(0.0, 1.0)])
    lam = poincare_sharp_discrete(assemble_kernel_matrix(g, 0.95))
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
    poincare_sharp_discrete(assemble_kernel_matrix(g, 0.5))
    assert 0 < rows[0] <= 150


def test_poincare_iteration_error(monkeypatch):
    monkeypatch.setattr(diagnostics, "LOBPCG_MAX_ITER", 1)
    m = assemble_kernel_matrix(build_grid(1, 64, [(0.0, 1.0)]), 0.5)
    with pytest.raises(IterationError) as info:
        poincare_sharp_discrete(m)
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


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def _assert_norms_match_the_snapshot_passes(records, snapshots, weight):
    # member j's records against its (K, N) snapshots: bitwise the passes the
    # checks made over snapshots before the records carried these norms; a
    # blow-up partial's norms may overflow, as they did there
    for j, (recs, snaps) in enumerate(zip(records, snapshots, strict=True)):
        assert len(recs) == len(snaps) > 1
        with np.errstate(over="ignore"):
            hi, lo = oracles.overshoot_series(snaps, weight)
        assert _bits(recs["overshoot_hi"]) == _bits(hi)
        assert _bits(recs["overshoot_lo"]) == _bits(lo)
        assert _bits(recs["linf"]) == _bits(oracles.linf_series(snaps))
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = ([math.nan] * len(recs) if j + 1 == len(records)
                    else oracles.distance_series(snaps, snapshots[j + 1], weight))
        assert _bits(recs["dist_to_next"]) == _bits(gaps)


@pytest.mark.parametrize("dim,n,scheme", [(1, 32, "rk4"), (2, 6, "rkc")])
@pytest.mark.parametrize("ladder", [(0.2,), (0.2, 0.1, 0.05)])
def test_record_norms_equal_the_snapshot_passes(dim, n, scheme, ladder):
    # a lone run and an epsilon family of three, in 1d under rk4 and in 2d
    # under adaptive rkc (automatic dt)
    configs = [make_config(dim=dim, n=n, model="regularized", epsilon=eps, delta=0.1,
                           kind="random", seed=6, diameter=2.0, horizon=0.05, stride=2,
                           scheme=scheme) for eps in ladder]
    with recorded_states() as states:
        trajs = simulate_family(configs)
    snapshots = states.of()
    assert all(traj.adaptive == (scheme == "rkc") for traj in trajs)
    w = trajs[0].grid.weight
    _assert_norms_match_the_snapshot_passes([t.records for t in trajs], snapshots, w)
    for traj, snaps in zip(trajs, snapshots, strict=True):
        hi, lo = oracles.overshoot_series(snaps, w)
        assert truncation_functionals(traj) == (max(hi), max(lo))
        assert np.array_equal(traj.final, snaps[-1])
    assert _successive_differences(trajs) == [
        max(oracles.distance_series(a, b, w)) for a, b in zip(snapshots, snapshots[1:])]


def test_record_norms_of_a_blow_up_partial_equal_the_snapshot_passes(monkeypatch):
    # dt = 0.089 is 12x past the stable step of delta = 0.4: the family blows
    # up, and its partial flow's records match its snapshots up to the last
    # record; the growing states overshoot their initial extremes
    flows = []
    real_flow = run.integrate_flow

    def capturing(*args, **kwargs):
        try:
            return real_flow(*args, **kwargs)
        except BlowUpError as exc:
            flows.append(exc.trajectory)
            raise

    monkeypatch.setattr(run, "integrate_flow", capturing)
    configs = [make_config(n=24, kappa=0.05, delta=delta, kind="random", seed=3, horizon=60.0,
                           stride=10, dt=0.089) for delta in (0.4, 0.2, 0.1)]
    with recorded_states() as states, pytest.raises(BlowUpError) as err:
        simulate_family(configs)
    (flow,) = flows
    partial = err.value.trajectory
    assert partial.status == "blow-up" and len(partial.records) == len(flow.step_counts) + 1 > 2
    _assert_norms_match_the_snapshot_passes(flow.records.T, states.of(), partial.grid.weight)
    assert max(truncation_functionals(partial)) > 0.0
    assert np.all(np.isfinite(flow.final)) and partial.final is not None


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
