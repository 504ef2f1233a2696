import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import nlkuramoto.experiments as experiments
import nlkuramoto.run as run
from nlkuramoto import (BlowUpError, ConfigurationError, ParameterError,
                        assemble_kernel_matrix, build_operators, energy_identity_residual,
                        initial_field, refinement_study, relaxation_experiment,
                        restrict_to_coarse, run_invariant_suite, select_dt, simulate,
                        sweep_delta, sweep_epsilon)

import oracles
from conftest import make_config


# ---------------------------------------------------------------------------
# initial-condition library
# ---------------------------------------------------------------------------

def test_initial_constant(grid16):
    field = initial_field("constant", grid16, value=0.7)
    assert np.all(field == 0.7)


def test_initial_smooth_hits_diameter_exactly(grid64):
    field = initial_field("smooth", grid64, diameter=math.pi / 2)
    assert field.max() - field.min() == pytest.approx(math.pi / 2, rel=1e-15)


def test_initial_two_cluster(grid16):
    field = initial_field("two_cluster", grid16, diameter=3.0)
    assert set(np.unique(field)) == {-1.5, 1.5}
    assert field.max() - field.min() == 3.0
    # split across the domain midpoint
    assert np.all((grid16.coords[:, 0] < 0.5) == (field < 0))


def test_initial_random_seeded(grid64):
    a = initial_field("random", grid64, diameter=2.0, seed=5)
    b = initial_field("random", grid64, diameter=2.0, seed=5)
    c = initial_field("random", grid64, diameter=2.0, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.abs(a) <= 1.0)
    with pytest.raises(ParameterError):
        initial_field("random", grid64, diameter=2.0)


def test_initial_validation(grid16):
    with pytest.raises(ParameterError):
        initial_field("plaid", grid16)
    with pytest.raises(ParameterError):
        initial_field("smooth", grid16, diameter=-1.0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def eps_base(**kw):
    defaults = dict(n=24, model="regularized", epsilon=0.2, delta=0.1, kind="smooth",
                    diameter=1.0, horizon=0.3, stride=6)
    defaults.update(kw)
    return make_config(**defaults)


def test_sweep_epsilon_constant_data_gives_zero_differences():
    sweep = sweep_epsilon(eps_base(kind="constant", value=0.4), [0.2, 0.1, 0.05])
    assert sweep.differences == [0.0, 0.0]
    assert sweep.bounds_ok


def test_sweep_epsilon_zero_coupling_rungs_identical():
    # the truncation only enters through the sine coupling
    sweep = sweep_epsilon(eps_base(kappa=0.0, kind="random", seed=2, diameter=1.5),
                          [0.2, 0.1, 0.05])
    assert sweep.differences == [0.0, 0.0]


def test_sweep_epsilon_shares_dt_and_times():
    base = eps_base()
    ladder = [0.4, 0.2, 0.1]
    sweep = sweep_epsilon(base, ladder)
    assert len({rung.n_steps for rung in sweep.rungs}) == 1
    requested = {rung.config.integrator.dt for rung in sweep.rungs}
    # the stiffest rung's step is exactly the smallest automatic step on the ladder
    dissipation = build_operators(base).dissipation
    assert requested == {min(
        select_dt(assemble_kernel_matrix(dissipation.grid, "truncated", 0.5, eps),
                  dissipation, base.physics.kappa, base.physics.delta,
                  base.integrator.safety, free_drift_horizon=base.integrator.horizon)
        for eps in ladder)}
    # the executed step is the request rounded down to land on the horizon
    assert sweep.dt <= requested.pop() * (1 + 1e-12)


def test_sweep_epsilon_validation():
    with pytest.raises(ConfigurationError):
        sweep_epsilon(eps_base(), [0.1, 0.2])  # not decreasing
    with pytest.raises(ConfigurationError):
        sweep_epsilon(eps_base(), [0.1])  # too short
    with pytest.raises(ConfigurationError):
        sweep_epsilon(eps_base(delta=0.0), [0.2, 0.1])  # needs dissipation
    with pytest.raises(ConfigurationError):
        sweep_epsilon(make_config(model="singular"), [0.2, 0.1])


def test_sweep_epsilon_decreasing_on_smooth_data():
    sweep = sweep_epsilon(eps_base(n=48, horizon=0.5, diameter=math.pi / 2),
                          [0.2, 0.1, 0.05, 0.025])
    assert sweep.decreasing
    assert sweep.bounds_ok


def delta_base(**kw):
    defaults = dict(n=24, model="singular", kind="smooth", diameter=1.0,
                    horizon=0.3, stride=6)
    defaults.update(kw)
    return make_config(**defaults)


def _bits(records):
    # every field, sin2_seminorm included, as raw bytes
    return np.array([astuple(r) for r in records]).tobytes()


@pytest.mark.parametrize("parameter,dim,n", [("epsilon", 1, 24), ("epsilon", 2, 8),
                                             ("delta", 1, 24), ("delta", 2, 8)])
def test_batched_sweep_rungs_equal_lone_runs(monkeypatch, parameter, dim, n):
    # the rungs step together, yet each one's records and snapshots are
    # bitwise those of the rung simulated alone with its own operators
    families = []

    def recording(configs, operators):
        families.append(run.simulate_family(configs, operators))
        return families[-1]

    monkeypatch.setattr(experiments, "simulate_family", recording)
    data = dict(dim=dim, n=n, extents=[(0.0, 1.0)] * dim, kind="random", seed=4, diameter=2.0)
    if parameter == "epsilon":
        sweep = sweep_epsilon(eps_base(**data), [0.2, 0.1, 0.05])
    else:
        sweep = sweep_delta(delta_base(**data), [0.4, 0.2, 0.1])
    (trajs,) = families
    for rung, traj in zip(sweep.rungs, trajs, strict=True):
        alone = simulate(rung.config, build_operators(rung.config))
        assert traj.times == alone.times and len(alone.records) > 2
        assert _bits(rung.records) == _bits(traj.records) == _bits(alone.records)
        for a, b in zip(traj.snapshots, alone.snapshots, strict=True):
            assert a.tobytes() == b.tobytes()


def test_sweep_blow_up_names_the_unstable_rung():
    # dt = 0.089, 12x past the stable step, destabilizes at kappa = 0.05 the
    # damping of delta = 0.4 (the stiffest rung) but not of 0.1
    base = delta_base(kappa=0.05, kind="random", seed=3, horizon=60.0, stride=10, dt=0.089)
    with pytest.raises(BlowUpError) as err:
        sweep_delta(base, [0.4, 0.1])
    assert str(err.value).startswith("rung 0 (value 0.4) blew up: non-finite state at t = ")
    partial = err.value.trajectory
    assert partial.status == "blow-up" and partial.config.physics.delta == 0.4
    assert 1 < len(partial.records) == len(partial.snapshots) < partial.n_steps // 10
    assert partial.snapshots.shape == (len(partial.times), 24)
    assert partial.times[-1] <= err.value.t < 60.0


@pytest.mark.parametrize("parameter", ["epsilon", "delta"])
def test_sweeps_share_a_configured_dt(parameter):
    # every rung steps at the configured dt and its config carries it, so
    # that config reproduces the rung alone
    if parameter == "epsilon":
        sweep = sweep_epsilon(eps_base(horizon=0.1, dt=0.001), [0.2, 0.1])
    else:
        sweep = sweep_delta(delta_base(horizon=0.1, dt=0.001), [0.4, 0.2])
    assert sweep.dt == 0.001
    assert [rung.config.integrator.dt for rung in sweep.rungs] == [0.001, 0.001]
    assert [rung.n_steps for rung in sweep.rungs] == [100, 100]


def test_sweep_delta_constant_data():
    sweep = sweep_delta(delta_base(kind="constant", value=-0.3), [0.4, 0.2, 0.1])
    assert sweep.differences == [0.0, 0.0]


def test_sweep_delta_rejects_wide_data():
    wide = delta_base(kind="two_cluster", diameter=3.5, allow_large_diameter=True)
    with pytest.raises(ConfigurationError) as err:
        sweep_delta(wide, [0.4, 0.2])
    assert any("below pi" in p for p in err.value.problems)


def test_sweep_delta_decreasing():
    sweep = sweep_delta(delta_base(n=48, kind="random", seed=7, diameter=math.pi / 2,
                                   horizon=0.5), [0.4, 0.2, 0.1, 0.05])
    assert sweep.decreasing
    assert sweep.bounds_ok
    # the sinc-seminorm row applies on every rung of a singular-coupling sweep
    for rung in sweep.rungs:
        rows = {c.name: c for c in rung.bound_checks}
        assert rows["seminorm-sinc-bound"].satisfied is True


def test_sweep_report_shape():
    sweep = sweep_delta(delta_base(), [0.2, 0.1])
    report = sweep.report()
    assert report["parameter"] == "delta"
    assert [r["value"] for r in report["rungs"]] == [0.2, 0.1]
    assert isinstance(report["rungs"][0]["bounds"], list)


# ---------------------------------------------------------------------------
# each experiment builds its operators once
# ---------------------------------------------------------------------------

@pytest.fixture
def assemblies(monkeypatch):
    """Every kernel-matrix assembly made through run or experiments, by variant."""
    calls = []
    for module in (run, experiments):
        def counted(*args, _assemble=module.assemble_kernel_matrix, **kwargs):
            calls.append(args[1])
            return _assemble(*args, **kwargs)
        monkeypatch.setattr(module, "assemble_kernel_matrix", counted)
    return calls


def test_sweep_epsilon_assembles_each_coupling_once(assemblies):
    # one shared singular dissipation plus one truncated coupling per rung
    sweep_epsilon(eps_base(), [0.2, 0.1, 0.05])
    assert sorted(assemblies) == ["singular", "truncated", "truncated", "truncated"]


def test_sweep_delta_shares_one_bundle(assemblies):
    sweep_delta(delta_base(), [0.4, 0.2, 0.1])
    assert assemblies == ["singular"]


def test_relaxation_experiment_assembles_once(assemblies):
    relaxation_experiment(delta_base())
    assert assemblies == ["singular"]


def test_invariant_suite_assembles_once(assemblies):
    run_invariant_suite(delta_base())
    assert assemblies == ["singular"]


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------

def test_relaxation_constant_data_trivially_satisfied():
    report, traj = relaxation_experiment(make_config(n=16, kind="constant", value=0.1,
                                                     horizon=0.3))
    assert report.satisfied
    assert report.gamma_hat == 0.0
    assert traj.records[-1].dist_sq == 0.0


def test_relaxation_two_oscillators_match_closed_form():
    cfg = make_config(n=2, kind="two_cluster", diameter=math.pi / 2, horizon=2.0,
                      safety=0.02, stride=10)
    report, traj = relaxation_experiment(cfg)
    assert report.satisfied
    w12 = oracles.kernel_value(0.5, 1, 0.5) * traj.grid.weight
    a = 2.0 * w12  # gap rate: gap' = -2 kappa W12 sin(gap), kappa = 1
    gap0 = -math.pi / 2
    for t, snap in zip(traj.times[1:], traj.snapshots[1:]):
        sim_gap = snap[0] - snap[1]
        exact = oracles.two_oscillator_gap(gap0, a, t)
        assert abs(sim_gap - exact) <= 1e-6 * abs(exact)


def test_relaxation_hypothesis_violations_fail_fast():
    with pytest.raises(ConfigurationError):
        relaxation_experiment(make_config(model="regularized", epsilon=0.1))
    with pytest.raises(ConfigurationError):
        relaxation_experiment(make_config(delta=0.1))
    with pytest.raises(ConfigurationError):
        relaxation_experiment(make_config(kappa=0.0))
    with pytest.raises(ConfigurationError):
        relaxation_experiment(make_config(kind="smooth", diameter=3.2,
                                          allow_large_diameter=True))


def test_relaxation_report_fields():
    report, _ = relaxation_experiment(make_config(n=32, kind="smooth",
                                                  diameter=math.pi / 2, horizon=1.0,
                                                  stride=8))
    assert report.m == pytest.approx(math.pi / 2, rel=1e-12)
    assert report.c_m == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert report.certified_rate == pytest.approx(report.c_m * report.lambda_star, rel=1e-12)
    assert 1.0 / report.lambda_star <= report.c_p_domain
    assert report.gamma_hat >= report.certified_rate
    assert report.pointwise_ok and report.rate_ok and report.satisfied
    data = report.report()
    assert data["satisfied"] is True
    assert len(data["table"]) == len([r for r in data["table"]])


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_restrict_to_coarse_1d():
    fine = np.arange(8.0)
    coarse = restrict_to_coarse(fine, 1, 8, 4)
    assert np.array_equal(coarse, [0.5, 2.5, 4.5, 6.5])


def test_restrict_to_coarse_2d():
    fine = np.arange(16.0)
    coarse = restrict_to_coarse(fine, 2, 4, 2)
    blocks = fine.reshape(2, 2, 2, 2).mean(axis=(1, 3)).ravel()
    assert np.array_equal(coarse, blocks)


def test_refinement_constant_data_all_zero():
    report = refinement_study(make_config(n=8, kind="constant", value=0.2, horizon=0.2),
                              [8, 16, 32])
    assert all(row["energy_residual"] == 0.0 for row in report.rows)
    assert report.coarse_diffs == [0.0, 0.0]


def test_refinement_smooth_profile():
    base = make_config(n=8, model="regularized", epsilon=0.2, delta=0.1, kind="smooth",
                       diameter=1.0, horizon=0.3, stride=4)
    report = refinement_study(base, [8, 16, 32])
    assert report.coarse_diffs[1] < report.coarse_diffs[0]
    assert report.dt_halving["ratio"] >= 4.0


def test_refinement_halves_the_fixed_base_step_of_an_adaptive_rkc_run():
    base = make_config(n=8, model="regularized", epsilon=0.2, delta=0.1, kind="smooth",
                       diameter=1.0, horizon=0.3, stride=4, scheme="rkc")
    report = refinement_study(base, [8, 16])
    fixed = replace(base, integrator=replace(base.integrator, dt=report.rows[0]["dt"]))
    half = replace(fixed, integrator=replace(fixed.integrator, dt=report.rows[0]["dt"] / 2))
    row = report.dt_halving
    assert row["residual"] == energy_identity_residual(simulate(fixed))
    assert row["residual_half"] == energy_identity_residual(simulate(half))
    assert row["ratio"] >= 4.0


def test_refinement_ladder_validation():
    base = make_config(n=8)
    with pytest.raises(ConfigurationError):
        refinement_study(base, [16, 8])
    with pytest.raises(ConfigurationError):
        refinement_study(base, [8, 12])


# ---------------------------------------------------------------------------
# invariant suite
# ---------------------------------------------------------------------------

def test_invariant_suite_contracting_run():
    cfg = make_config(n=32, kind="random", seed=11, diameter=2.0, nu=0.4,
                      horizon=0.5, stride=2)
    traj, checks, ok = run_invariant_suite(cfg)
    assert ok
    by_name = {c.name: c for c in checks}
    assert by_name["mean-conservation"].passed is True
    assert by_name["diameter-monotone"].passed is True
    assert by_name["truncation-decay"].passed is True
    assert by_name["uniform-bounds"].passed is True
    assert by_name["relaxation-pointwise"].passed is True
    assert by_name["semigroup-contraction"].passed is None


def test_invariant_suite_semigroup_run():
    cfg = make_config(n=32, model="singular", kappa=0.0, delta=0.3, kind="random",
                      seed=12, diameter=2.0, horizon=0.4, stride=1)
    _, checks, ok = run_invariant_suite(cfg)
    assert ok
    by_name = {c.name: c for c in checks}
    assert by_name["semigroup-contraction"].passed is True
    assert by_name["relaxation-pointwise"].passed is None


def test_invariant_suite_semigroup_run_under_adaptive_rkc():
    # the per-step slack of the contraction check counts each record
    # interval's adaptive steps
    cfg = make_config(n=32, model="singular", kappa=0.0, delta=0.3, kind="random",
                      seed=12, diameter=2.0, horizon=0.4, stride=10, scheme="rkc")
    traj, checks, ok = run_invariant_suite(cfg)
    assert ok and {c.name: c for c in checks}["semigroup-contraction"].passed is True
    assert sum(traj.step_counts) == traj.n_steps and len(set(traj.step_counts)) > 1


def test_invariant_suite_lattice_run():
    cfg = make_config(n=16, model="lattice", kind="smooth", diameter=1.0,
                      horizon=0.3, stride=2)
    _, checks, ok = run_invariant_suite(cfg)
    assert ok
    by_name = {c.name: c for c in checks}
    assert by_name["mean-conservation"].passed is True
    assert by_name["diameter-monotone"].passed is True
    assert by_name["uniform-bounds"].passed is None
