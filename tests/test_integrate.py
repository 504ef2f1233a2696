import math
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from nlkuramoto import (BlowUpError, ParameterError, apply_overrides, assemble_kernel_matrix,
                        build_grid, build_operators, energy_potential, mean_phase, parse_config,
                        rhs_singular, select_dt, seminorm_sq, simulate, sin2_seminorm, step,
                        sweep_epsilon)
from nlkuramoto.integrate import integrate_flow, stiffness_bound

import oracles
from conftest import make_config


def test_select_dt_free_drift(grid16, singular16):
    assert select_dt(None, None, 0.0, 0.0, 0.5, free_drift_horizon=2.0) == 1.0
    assert select_dt(singular16, singular16, 0.0, 0.0, 0.25) == 0.25


def test_select_dt_scales_inversely_with_kappa(singular16):
    dt1 = select_dt(singular16, singular16, 1.0, 0.0, 0.5)
    dt2 = select_dt(singular16, singular16, 2.0, 0.0, 0.5)
    assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-15)


def test_select_dt_matches_oracle_row_sums():
    g = build_grid(1, 64, [(0.0, 1.0)])
    sing = assemble_kernel_matrix(g, "singular", 0.5)
    trunc = assemble_kernel_matrix(g, "truncated", 0.5, 0.1)
    w_sing = oracles.kernel_matrix_loop(g, 0.5)
    w_trunc = oracles.kernel_matrix_loop(g, 0.5, 0.1)
    lam = 2.0 * 1.0 * w_trunc.sum(axis=1).max() + 2.0 * 0.01 * w_sing.sum(axis=1).max()
    assert select_dt(trunc, sing, 1.0, 0.01, 0.5) == pytest.approx(0.5 / lam, rel=1e-13)


def test_select_dt_rejects_bad_safety(singular16):
    for sigma in (0.0, 1.5, -1.0):
        with pytest.raises(ParameterError):
            select_dt(singular16, singular16, 1.0, 0.0, sigma)


def test_step_zero_rhs_is_identity():
    values = np.array([1.0, -2.0, 3.0])
    out = step(values, lambda v: np.zeros_like(v), 0.1, "rk4")
    assert np.array_equal(out, values)


def test_step_rk4_linear_taylor():
    lam, dt = 0.7, 0.3
    out = step(np.array([1.0]), lambda v: -lam * v, dt, "rk4")
    z = -lam * dt
    poly = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    assert out[0] == pytest.approx(poly, rel=1e-15)


def test_step_euler_linear():
    out = step(np.array([2.0]), lambda v: -0.5 * v, 0.1, "euler")
    assert out[0] == pytest.approx(2.0 * (1.0 - 0.05), rel=1e-15)


def test_step_rejects_bad_scheme():
    with pytest.raises(ParameterError):
        step(np.zeros(2), lambda v: v, 0.1, "rk7")
    with pytest.raises(ParameterError):
        step(np.zeros(2), lambda v: v, -0.1, "rk4")


def test_step_detects_blow_up():
    with pytest.raises(BlowUpError):
        step(np.array([1.0]), lambda v: np.full_like(v, np.inf), 0.1, "euler")


def test_rk4_order_via_step_halving(grid16, singular16):
    trunc = assemble_kernel_matrix(grid16, "truncated", 0.5, 0.2)
    rng = np.random.default_rng(12)
    theta = rng.uniform(-0.7, 0.7, 16)

    def rhs(v):
        from nlkuramoto import rhs_regularized
        return rhs_regularized(v, trunc, singular16, kappa=1.0, delta=0.1)

    tau = 0.05
    coarse = step(theta, rhs, tau, "rk4")
    half = step(step(theta, rhs, tau / 2, "rk4"), rhs, tau / 2, "rk4")
    fine = theta.copy()
    for _ in range(64):
        fine = step(fine, rhs, tau / 64, "rk4")
    err_coarse = np.abs(coarse - fine).max()
    err_half = np.abs(half - fine).max()
    # fourth order: two half steps cut the error over the same window ~16x
    assert 10.0 <= err_coarse / err_half <= 24.0


def test_simulate_constant_field_is_equilibrium():
    cfg = make_config(n=16, kind="constant", value=1.2, horizon=0.5, stride=4)
    traj = simulate(cfg)
    assert traj.status == "completed"
    for snap in traj.snapshots:
        assert np.all(snap == traj.snapshots[0])
    assert traj.records[-1].dissipation_cum == 0.0


def test_simulate_pure_dissipation_l2_contracts():
    cfg = make_config(n=32, model="singular", kappa=0.0, delta=0.3, kind="random",
                      seed=4, diameter=2.0, horizon=0.5)
    traj = simulate(cfg)
    dists = [r.dist_sq for r in traj.records]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_simulate_trajectory_contract():
    cfg = make_config(n=16, nu=0.7, horizon=0.25, stride=3, diameter=1.0)
    traj = simulate(cfg)
    times = np.array(traj.times)
    assert np.all(np.diff(times) > 0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.25, rel=1e-12)
    # one read-only (record times, nodes) array
    assert traj.snapshots.shape == (len(traj.times), 16) and traj.snapshots.dtype == float
    with pytest.raises(ValueError):
        traj.snapshots[-1, 0] = 0.0
    # first snapshot is the gauge-reduced initial data; the physical field
    # restores the original profile
    from nlkuramoto import initial_field
    theta0 = initial_field("smooth", traj.grid, diameter=1.0)
    bar = mean_phase(theta0, traj.grid)
    assert np.allclose(traj.snapshots[0], theta0 - bar, atol=1e-15)
    assert np.allclose(traj.physical_values(0), theta0, atol=1e-14)
    # gauge bookkeeping: physical field at T includes nu * T
    assert traj.gauge_reduced and traj.nu == 0.7
    drift = traj.physical_values(-1).mean() - traj.physical_values(0).mean()
    assert drift == pytest.approx(0.7 * 0.25, abs=1e-10)


def test_simulate_extrema_contract_pointwise_in_time():
    # along a bounded-diameter flow the running max never rises and the
    # running min never falls (up to time-discretization slack)
    cfg = make_config(n=48, model="regularized", epsilon=0.1, delta=0.1, kind="random",
                      seed=17, diameter=2.8, horizon=1.0, stride=3)
    traj = simulate(cfg)
    tops = [float(s.max()) for s in traj.snapshots]
    bottoms = [float(s.min()) for s in traj.snapshots]
    for (ta, tb), (a, b) in zip(zip(traj.times, traj.times[1:]), zip(tops, tops[1:])):
        assert b <= a + 1e-9 * (tb - ta)
    for (ta, tb), (a, b) in zip(zip(traj.times, traj.times[1:]), zip(bottoms, bottoms[1:])):
        assert b >= a - 1e-9 * (tb - ta)


def test_simulate_two_dimensional_run():
    cfg = make_config(dim=2, n=8, model="regularized", epsilon=0.15, delta=0.1,
                      kind="two_cluster", diameter=2.0, nu=0.3, horizon=0.4, stride=4,
                      safety=0.1)
    traj = simulate(cfg)
    assert traj.grid.node_count == 64
    assert max(abs(r.mean) for r in traj.records) <= 1e-10
    diameters = [r.diameter for r in traj.records]
    assert all(b <= a + 1e-10 for a, b in zip(diameters, diameters[1:]))
    from nlkuramoto import energy_identity_residual
    e0 = traj.records[0].e_pot + traj.records[0].e_kin
    assert energy_identity_residual(traj) <= 2e-4 * e0


def test_simulate_lattice_with_per_node_frequencies(tmp_path):
    nu = np.linspace(-0.5, 0.5, 16) ** 2
    nu_path = tmp_path / "nu.txt"
    np.savetxt(nu_path, nu)
    cfg = make_config(n=16, model="lattice", nu_file=str(nu_path), kind="smooth",
                      diameter=1.0, horizon=0.2, stride=2)
    traj = simulate(cfg)
    assert not traj.gauge_reduced
    assert np.array_equal(traj.nu, nu)
    # the raw mean drifts at the average frequency
    drift = traj.records[-1].mean - traj.records[0].mean
    expect = float(traj.grid.weight * nu.sum() / traj.grid.measure) * traj.times[-1]
    assert drift == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("kappa", [0.0, 1.3])
def test_simulate_lattice_dt_from_raw_row_sums(kappa):
    # the lattice step is bounded by 2 kappa max_row(raw kernel) / N; delta
    # does not enter, since the lattice rate has no dissipation term
    cfg = make_config(dim=2, n=6, extents=((0.0, 1.0), (0.0, 2.0)), model="lattice",
                      kappa=kappa, delta=0.7, horizon=0.3, safety=0.4)
    traj = simulate(cfg)
    raw = oracles.kernel_matrix_loop(traj.grid, 0.5, weight=1.0)
    lam = 2.0 * kappa * raw.sum(axis=1).max() / traj.grid.node_count
    dt = 0.4 / lam if kappa else 0.4 * 0.3
    assert traj.dt == pytest.approx(0.3 / np.ceil(0.3 / dt), rel=1e-13)


def test_simulate_lattice_frequency_file_length_checked(tmp_path):
    nu_path = tmp_path / "nu.txt"
    np.savetxt(nu_path, np.zeros(5))
    cfg = make_config(n=16, model="lattice", nu_file=str(nu_path))
    from nlkuramoto import ConfigurationError
    with pytest.raises(ConfigurationError):
        simulate(cfg)


def test_simulate_mean_conserved_in_gauge():
    cfg = make_config(n=64, model="regularized", epsilon=0.1, delta=0.1, nu=1.5,
                      kind="random", seed=8, diameter=2.5, horizon=1.0, stride=7)
    traj = simulate(cfg)
    assert max(abs(r.mean) for r in traj.records) <= 1e-10


def test_simulate_with_its_bundle_matches_a_fresh_build():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.1)
    shared = simulate(cfg, build_operators(cfg))
    fresh = simulate(cfg)
    assert shared.records == fresh.records
    assert all(np.array_equal(a, b)
               for a, b in zip(shared.snapshots, fresh.snapshots))


def test_simulate_rejects_a_bundle_built_for_another_config():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.1)
    ops = build_operators(cfg)
    for other in (replace(cfg, physics=replace(cfg.physics, epsilon=0.05)),
                  replace(cfg, physics=replace(cfg.physics, s=0.4)),
                  replace(cfg, grid=replace(cfg.grid, nodes=32)),
                  replace(cfg, grid=replace(cfg.grid, extents=((0.0, 2.0),)))):
        with pytest.raises(ParameterError):
            simulate(other, ops)


@pytest.mark.parametrize("scheme,dt", [("rk4", None), ("euler", None), ("rkc", 0.01),
                                       ("rkc", None)])
@pytest.mark.parametrize("delta", [0.2, 0.0])
@pytest.mark.parametrize("dim,n", [(1, 16), (2, 6)])
def test_each_record_and_each_rhs_take_one_forward_transform(monkeypatch, dim, n, delta,
                                                             scheme, dt):
    # a rate stacks (1 - cos, sin[, shifted]) rows into one transform pair; a
    # record reads the coupling applies (and the shifted rows' dissipation
    # apply, when the rate dissipates) from the rate evaluation at its own
    # state and transforms only its doubled-angle rows: 2 per member, 3 when
    # the rate has no shifted rows.  The records equal the public formulas at
    # their snapshots, so that evaluation was at the recorded state under
    # fixed, euler, fixed-step rkc and adaptive rkc stepping alike.
    from nlkuramoto import run

    counts = {"records": 0, "rhs": 0, "record_ffts": 0, "record_rows": 0, "ffts": 0}
    inside = [False]
    real_rfft, real_flow, real_rhs = np.fft.rfft, run.integrate_flow, run.rhs_regularized

    def rfft(x, *args, **kwargs):
        counts["ffts"] += 1
        if inside[0]:
            counts["record_ffts"] += 1
            counts["record_rows"] += np.size(x) // n ** dim
        return real_rfft(x, *args, **kwargs)

    def rhs(*args, **kwargs):
        counts["rhs"] += 1
        return real_rhs(*args, **kwargs)

    def flow(*args, **kwargs):
        *rest, make_record = args

        def counted(*record_args):
            counts["records"] += 1
            inside[0] = True
            try:
                return make_record(*record_args)
            finally:
                inside[0] = False
        return real_flow(*rest, counted, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    monkeypatch.setattr(run, "rhs_regularized", rhs)
    monkeypatch.setattr(run, "integrate_flow", flow)
    cfg = make_config(dim=dim, n=n, model="regularized", epsilon=0.1, delta=delta,
                      kind="random", seed=5, diameter=2.0, scheme=scheme, dt=dt,
                      horizon=0.05)
    traj = simulate(cfg)
    monkeypatch.undo()
    assert counts["records"] == traj.counters.records == len(traj.records) > 1
    assert counts["rhs"] == traj.counters.rhs_evals >= counts["records"]
    assert counts["record_ffts"] == counts["records"]
    assert counts["record_rows"] == (2 if delta > 0.0 else 3) * counts["records"]
    assert counts["ffts"] == counts["records"] + counts["rhs"]
    assert traj.counters.rejected_steps > 0 or not cfg.integrator.adaptive
    _, coupling, dissipation = build_operators(cfg)
    for snap, rec in zip(traj.snapshots, traj.records):
        assert rec.e_pot == energy_potential(snap, coupling, cfg.physics.kappa)
        assert rec.sin2_seminorm == sin2_seminorm(snap, coupling)
        assert rec.seminorm_sq == seminorm_sq(snap, dissipation)


def test_simulate_deterministic():
    cfg = make_config(n=32, kind="random", seed=13, diameter=2.0, horizon=0.3)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a.dt == b.dt
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert np.array_equal(sa, sb)


def test_simulate_matches_independent_euler():
    # gentle instance so the first-order oracle at 10x smaller steps stays
    # within 1e-6 of the fourth-order run
    cfg = make_config(n=8, model="regularized", epsilon=0.3, kappa=0.05, delta=0.02,
                      kind="smooth", diameter=0.2, horizon=0.1, dt=2.5e-3)
    traj = simulate(cfg)
    g = traj.grid
    w_trunc = oracles.kernel_matrix_loop(g, 0.5, 0.3)
    w_sing = oracles.kernel_matrix_loop(g, 0.5)
    theta0 = traj.snapshots[0]
    n_euler = traj.n_steps * 10
    expect = oracles.euler_reference(theta0, w_trunc, w_sing, 0.05, 0.02,
                                     0.1 / n_euler, n_euler)
    assert np.abs(traj.snapshots[-1] - expect).max() <= 1e-6


def test_simulate_blow_up_keeps_partial_trajectory():
    # force instability: fixed dt far beyond the dissipation stability limit
    cfg = make_config(n=64, model="singular", kappa=0.0, delta=1.0, kind="random",
                      seed=3, diameter=2.0, horizon=30.0, dt=0.5, stride=1)
    with pytest.raises(BlowUpError) as err:
        simulate(cfg)
    partial = err.value.trajectory
    assert partial is not None and partial.status == "blow-up"
    assert 1 <= len(partial.records) < 61
    assert partial.snapshots.shape == (len(partial.times), 64)
    assert np.all(np.isfinite(partial.snapshots))
    assert all(b > a for a, b in zip(partial.times, partial.times[1:]))
    assert err.value.t is not None and 0.0 <= err.value.t < 30.0


@pytest.mark.parametrize("growth,row", [((0.0, 1e300, 1e300), 1), ((0.0, 10.0, 1e300), 2)])
def test_family_blow_up_names_the_first_member_to_go_non_finite(grid16, growth, row):
    # the earliest step decides, then the lowest index: row 1 overflows at the
    # first step only in the tie; node 5 has the largest rate
    rates = np.array(growth)[:, None]
    theta0 = np.ones((3, 16))
    theta0[:, 5] = 2.0
    with pytest.raises(BlowUpError) as err:
        integrate_flow(theta0, grid16, lambda v: rates * v, 1e10, 50, 1, "euler",
                       lambda values, t, dissipated: [t] * len(values))
    assert err.value.row == row and err.value.node == 5
    assert str(err.value) == "non-finite state at t = 1e+10 (step 1 of 50, node 5)"
    times, snapshots, records, step_counts, counters = err.value.trajectory
    assert times == [0.0] and err.value.t == 0.0 and step_counts == []
    assert [len(s) for s in snapshots] == [len(r) for r in records] == [1, 1, 1]
    assert snapshots.shape == (3, len(times), 16) and np.all(snapshots == theta0[:, None])
    with pytest.raises(ValueError):
        snapshots[0, 0, 0] = 0.0  # read-only
    assert counters.steps == 0


# ---------------------------------------------------------------------------
# rkc: second-order Runge-Kutta-Chebyshev
# ---------------------------------------------------------------------------

def _bits(records, snapshots=()):
    # every record field and every snapshot, as raw bytes
    return (np.array([astuple(r) for r in records]).tobytes()
            + b"".join(s.tobytes() for s in snapshots))


@pytest.mark.parametrize("adaptive", [False, True])
def test_rkc_blow_up_names_the_member(grid16, adaptive):
    rates = np.array([0.0, 10.0, 1e300])[:, None]
    with pytest.raises(BlowUpError) as err:
        integrate_flow(np.ones((3, 16)), grid16, lambda v: rates * v, 1e10, 50, 1, "rkc",
                       lambda values, t, dissipated: [t] * len(values), adaptive=adaptive)
    assert err.value.row == 2
    assert str(err.value).startswith("non-finite state at t = ")


def test_rkc_is_stable_far_past_the_explicit_limit(singular64):
    # near a constant the singular rate's Jacobian is kappa (W - diag(row sums)),
    # with spectrum in [-rho, 0]: at h rho = 50 (9 stages) rkc damps every
    # mode, where one rk4 step amplifies the stiff ones
    rho = stiffness_bound(singular64, None, 1.0, 0.0)
    h = 50.0 / rho

    def rhs(v):
        return rhs_singular(v, singular64, 1.0)

    values = 1e-3 * np.random.default_rng(5).standard_normal(64)
    values -= values.mean()
    norms = [np.linalg.norm(values)]
    for _ in range(10):
        values = step(values, rhs, h, "rkc", stiffness=rho)
        norms.append(np.linalg.norm(values - values.mean()))
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.5 * norms[0]
    assert np.linalg.norm(step(values, rhs, h, "rk4")) > 10.0 * norms[-1]


def test_rkc_is_second_order_on_the_two_oscillator_closed_form():
    errors = []
    for dt in (0.025, 0.0125):
        cfg = make_config(n=2, model="singular", kind="two_cluster", diameter=math.pi / 2,
                          horizon=2.0, dt=dt, scheme="rkc")
        traj = simulate(cfg)
        w12 = oracles.kernel_value(0.5, 1, 0.5) * traj.grid.weight
        exact = oracles.two_oscillator_gap(-math.pi / 2, 2.0 * w12, 2.0)
        final = traj.snapshots[-1]
        errors.append(abs(final[0] - final[1] - exact))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_rkc_runs_are_deterministic():
    cfg = make_config(n=64, kind="random", seed=13, diameter=2.0, horizon=0.3, stride=5,
                      scheme="rkc")
    a, b = simulate(cfg), simulate(cfg)
    assert _bits(a.records, a.snapshots) == _bits(b.records, b.snapshots)
    assert a.counters == b.counters and a.step_counts == b.step_counts


def test_adaptive_rkc_lands_on_the_rk4_record_times():
    cfg = make_config(n=128, kind="random", seed=3, diameter=2.0, horizon=0.37, stride=7,
                      safety=0.25)
    rk4 = simulate(cfg)
    rkc = simulate(replace(cfg, integrator=replace(cfg.integrator, scheme="rkc")))
    assert rkc.times == rk4.times
    assert [r.t for r in rkc.records] == [r.t for r in rk4.records]
    assert rkc.dt == rk4.dt
    # fewer, larger steps than rk4's, each interval counted exactly
    assert sum(rkc.step_counts) == rkc.n_steps == rkc.counters.steps < rk4.n_steps
    assert rk4.step_counts == [7] * (len(rk4.times) - 2) + [rk4.n_steps % 7 or 7]


def test_fixed_step_rkc_family_members_equal_lone_runs():
    # a sweep's shared step is at most every rung's auto step, so every member
    # takes two stages, as it does alone
    base = make_config(n=24, model="regularized", epsilon=0.2, delta=0.1, kind="random",
                       seed=4, diameter=2.0, horizon=0.3, stride=6, scheme="rkc")
    sweep = sweep_epsilon(base, [0.2, 0.1, 0.05])
    for rung in sweep.rungs:
        alone = simulate(rung.config)
        assert _bits(rung.records) == _bits(alone.records)
        assert alone.counters == sweep.counters


def test_rk4_takes_four_rate_evaluations_a_step():
    traj = simulate(make_config(n=32, kind="random", seed=2, diameter=2.0, horizon=0.2,
                                stride=3))
    assert traj.counters.rhs_evals == 4 * traj.n_steps + 1
    assert traj.counters.steps == traj.n_steps and traj.counters.rejected_steps == 0
    assert sum(traj.step_counts) == traj.n_steps


def test_reference_relaxation_takes_at_most_2500_rate_evaluations():
    # the relaxation reference config at n = 512, horizon 0.5, random data,
    # seed 1: rk4 takes 26,889 rate evaluations; a count, so no timing noise
    cfg = apply_overrides(
        parse_config(Path(__file__).resolve().parents[1] / "configs"
                     / "relaxation_quarter_circle.cfg"),
        {("grid", "nodes"): "512", ("integrator", "horizon"): "0.5",
         ("initial", "kind"): "random", ("initial", "seed"): "1"})
    assert cfg.integrator.scheme == "rkc"
    traj = simulate(cfg)
    assert traj.counters.rhs_evals <= 2500
    assert traj.n_steps <= 1000


def test_adaptive_rkc_refuses_a_step_shrunk_to_nothing(grid16):
    # an error estimate that is never finite would shrink the step forever:
    # every end-of-step rate (each odd call after the first) is NaN
    calls = []

    def rhs(v):
        calls.append(None)
        return np.full_like(v, np.nan if len(calls) > 1 and len(calls) % 2 else 0.0)

    with pytest.raises(BlowUpError) as err:
        integrate_flow(np.ones((2, 16)), grid16, rhs, 0.1, 10, 1, "rkc",
                       lambda values, t, dissipated: [t] * len(values), adaptive=True)
    assert str(err.value) == "step size underflow at t = 0" and err.value.row == 0
    flow = err.value.trajectory
    assert flow.counters.steps == 0 and flow.counters.rejected_steps > 300
