import ast
import gc
import math
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlkuramoto.run as run
from nlkuramoto import (RECORD_FIELDS, BlowUpError, ParameterError, apply_overrides,
                        assemble_kernel_matrix, build_grid, build_operators, initial_field,
                        mean_phase, parse_config, read_snapshot, rhs_singular, simulate, step,
                        sweep_epsilon)
from nlkuramoto.integrate import auto_step, integrate_flow, rkc_stage_count, stiffness_bound

import oracles
from conftest import make_config, recorded_states
from oracles import energy_potential, seminorm_sq, sin2_seminorm


def test_select_dt_free_drift(grid16, singular16):
    assert auto_step(stiffness_bound(singular16, singular16, 0.0, 0.0), 0.5,
                     free_drift_horizon=2.0) == 1.0
    assert auto_step(stiffness_bound(singular16, singular16, 0.0, 0.0), 0.25) == 0.25


def test_select_dt_scales_inversely_with_kappa(singular16):
    dt1 = auto_step(stiffness_bound(singular16, singular16, 1.0, 0.0), 0.5)
    dt2 = auto_step(stiffness_bound(singular16, singular16, 2.0, 0.0), 0.5)
    assert dt2 == pytest.approx(dt1 / 2.0, rel=1e-15)


def test_select_dt_matches_oracle_row_sums():
    g = build_grid(1, 64, [(0.0, 1.0)])
    sing = assemble_kernel_matrix(g, 0.5)
    trunc = assemble_kernel_matrix(g, 0.5, 0.1)
    w_sing = oracles.kernel_matrix_loop(g, 0.5)
    w_trunc = oracles.kernel_matrix_loop(g, 0.5, 0.1)
    lam = 2.0 * 1.0 * w_trunc.sum(axis=1).max() + 2.0 * 0.01 * w_sing.sum(axis=1).max()
    dt = auto_step(stiffness_bound(trunc, sing, 1.0, 0.01), 0.5)
    assert dt == pytest.approx(0.5 / lam, rel=1e-13)


def test_select_dt_rejects_bad_safety(singular16):
    for sigma in (0.0, 1.5, -1.0):
        with pytest.raises(ParameterError):
            auto_step(stiffness_bound(singular16, singular16, 1.0, 0.0), sigma)


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
    trunc = assemble_kernel_matrix(grid16, 0.5, 0.2)
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
    with recorded_states() as states:
        traj = simulate(cfg)
    assert traj.status == "completed"
    (snapshots,) = states.of()
    for snap in snapshots:
        assert np.all(snap == snapshots[0])
    assert traj.records["dissipation_cum"][-1] == 0.0


def test_simulate_pure_dissipation_l2_contracts():
    cfg = make_config(n=32, model="singular", kappa=0.0, delta=0.3, kind="random",
                      seed=4, diameter=2.0, horizon=0.5)
    traj = simulate(cfg)
    dists = traj.records["dist_sq"].tolist()
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_simulate_trajectory_contract(tmp_path):
    cfg = make_config(n=16, nu=0.7, horizon=0.25, stride=3, diameter=1.0,
                      formats=("csv", "manifest", "snapshots"), directory=str(tmp_path))
    with recorded_states() as states:
        traj = simulate(cfg)
    times = traj.records["t"]
    assert np.all(np.diff(times) > 0)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.25, rel=1e-12)
    # one recorded state and one snapshot file per record time
    (snapshots,) = states.of()
    files = sorted(tmp_path.glob("snapshot_*.bin"))
    assert snapshots.shape == (len(times), 16) and len(files) == len(times)
    # the final state is the last recorded one, and read-only
    assert np.array_equal(traj.final, snapshots[-1])
    with pytest.raises(ValueError):
        traj.final[0] = 0.0
    # the first state is the gauge-reduced initial data; the files hold the
    # physical field, which restores the original profile
    theta0 = initial_field("smooth", traj.grid, diameter=1.0)
    bar = mean_phase(theta0, traj.grid)
    assert np.allclose(snapshots[0], theta0 - bar, atol=1e-15)
    first, last = read_snapshot(files[0]), read_snapshot(files[-1])
    assert first[2] == 0.0 and last[2] == times[-1]
    assert np.allclose(first[3], theta0, atol=1e-14)
    # gauge bookkeeping: the physical field at T includes nu * T
    assert traj.gauge_reduced
    drift = last[3].mean() - first[3].mean()
    assert drift == pytest.approx(0.7 * 0.25, abs=1e-10)


def test_simulate_extrema_contract_pointwise_in_time():
    # along a bounded-diameter flow the running max never rises and the
    # running min never falls (up to time-discretization slack)
    cfg = make_config(n=48, model="regularized", epsilon=0.1, delta=0.1, kind="random",
                      seed=17, diameter=2.8, horizon=1.0, stride=3)
    with recorded_states() as states:
        traj = simulate(cfg)
    (snapshots,) = states.of()
    tops = [float(s.max()) for s in snapshots]
    bottoms = [float(s.min()) for s in snapshots]
    times = traj.records["t"].tolist()
    for (ta, tb), (a, b) in zip(zip(times, times[1:]), zip(tops, tops[1:])):
        assert b <= a + 1e-9 * (tb - ta)
    for (ta, tb), (a, b) in zip(zip(times, times[1:]), zip(bottoms, bottoms[1:])):
        assert b >= a - 1e-9 * (tb - ta)


def test_simulate_two_dimensional_run():
    cfg = make_config(dim=2, n=8, model="regularized", epsilon=0.15, delta=0.1,
                      kind="two_cluster", diameter=2.0, nu=0.3, horizon=0.4, stride=4,
                      safety=0.1)
    traj = simulate(cfg)
    assert traj.grid.node_count == 64
    assert np.max(np.abs(traj.records["mean"])) <= 1e-10
    diameters = traj.records["diameter"].tolist()
    assert all(b <= a + 1e-10 for a, b in zip(diameters, diameters[1:]))
    from nlkuramoto import energy_identity_residual
    e0 = traj.records["e_pot"][0] + traj.records["e_kin"][0]
    assert energy_identity_residual(traj) <= 2e-4 * e0


def test_simulate_lattice_with_per_node_frequencies(tmp_path):
    nu = np.linspace(-0.5, 0.5, 16) ** 2
    nu_path = tmp_path / "nu.txt"
    np.savetxt(nu_path, nu)
    cfg = make_config(n=16, model="lattice", nu_file=str(nu_path), kind="smooth",
                      diameter=1.0, horizon=0.2, stride=2)
    traj = simulate(cfg)
    assert not traj.gauge_reduced
    assert np.array_equal(run.load_frequency(cfg, traj.grid), nu)
    # the raw mean drifts at the average frequency
    drift = traj.records["mean"][-1] - traj.records["mean"][0]
    expect = float(traj.grid.weight * nu.sum() / traj.grid.measure) * traj.records["t"][-1]
    assert drift == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("kappa", [0.0, 1.3])
def test_simulate_lattice_dt_from_raw_row_sums(kappa):
    # the lattice step is bounded by 2 kappa max_row(raw kernel) / N
    cfg = make_config(dim=2, n=6, extents=((0.0, 1.0), (0.0, 2.0)), model="lattice",
                      kappa=kappa, horizon=0.3, safety=0.4)
    traj = simulate(cfg)
    raw = oracles.kernel_matrix_loop(traj.grid, 0.5, weight=1.0)
    lam = 2.0 * kappa * raw.sum(axis=1).max() / traj.grid.node_count
    dt = 0.4 / lam if kappa else 0.4 * 0.3
    assert traj.dt == pytest.approx(0.3 / np.ceil(0.3 / dt), rel=1e-13)


def test_lattice_records_use_the_coupling_of_its_rate():
    # on a domain of length 2 the lattice couples at kappa / |domain| = 0.5, so
    # its records, energies and dual bound included, are the singular run's at 0.5
    common = dict(n=32, extents=((0.0, 2.0),), kind="random", seed=3, diameter=2.0,
                  horizon=0.2, stride=4)
    with recorded_states() as states:
        lattice = simulate(make_config(model="lattice", kappa=1.0, **common))
        singular = simulate(make_config(model="singular", kappa=0.5, **common))
    assert np.array_equal(states.of(0), states.of(1))
    assert _bits(lattice.records) == _bits(singular.records)


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
    assert np.max(np.abs(traj.records["mean"])) <= 1e-10


def test_simulate_with_its_bundle_matches_a_fresh_build():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.1)
    shared = simulate(cfg, build_operators(cfg))
    fresh = simulate(cfg)
    assert _bits(shared.records) == _bits(fresh.records)
    assert np.array_equal(shared.final, fresh.final)


def test_runs_on_one_bundle_in_two_threads_equal_their_serial_runs():
    # each run owns its transforms and their workspaces; the shared bundle is read-only
    configs = [make_config(dim=2, n=48, kind="random", seed=seed, horizon=0.05)
               for seed in (1, 2)]
    ops = build_operators(configs[0])
    serial = [simulate(cfg, ops) for cfg in configs]
    with ThreadPoolExecutor(2) as pool:
        threaded = list(pool.map(simulate, configs, [ops, ops], timeout=120))
    for alone, beside in zip(serial, threaded, strict=True):
        assert beside.records.tobytes() == alone.records.tobytes()
        assert beside.final.tobytes() == alone.final.tobytes()


def test_a_finished_run_keeps_no_operator_alive():
    cfg = make_config(dim=2, n=16, kind="random", seed=1, horizon=0.05)
    ops = build_operators(cfg)
    refs = [weakref.ref(part) for part in ops]  # the grid and both operators
    traj = simulate(cfg, ops)
    assert traj.status == "completed"
    del traj, ops
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3


def test_only_the_rkc_coefficient_table_is_cached():
    # a process-wide cache would share a run's buffers with other runs and keep
    # its operators alive; the rkc table is a pure function of the stage count
    cached, mentions = [], []
    for path in sorted(Path(run.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "lru_cache" in text or "functools.cache" in text or "import cache" in text:
            mentions.append(path.stem)
        for fn in ast.walk(ast.parse(text)):
            for decorator in getattr(fn, "decorator_list", ()):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", None))
                if name in ("lru_cache", "cache", "cached_property"):
                    cached.append(f"{path.stem}.{fn.name}")
    assert (cached, mentions) == (["integrate._rkc_coefficients"], ["integrate"])


def test_simulate_rejects_a_bundle_built_for_another_config():
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.1)
    ops = build_operators(cfg)
    for other in (replace(cfg, physics=replace(cfg.physics, epsilon=0.05)),
                  replace(cfg, physics=replace(cfg.physics, s=0.4)),
                  replace(cfg, grid=replace(cfg.grid, nodes=32)),
                  replace(cfg, grid=replace(cfg.grid, extents=((0.0, 2.0),)))):
        with pytest.raises(ParameterError):
            simulate(other, ops)


@pytest.mark.parametrize("section, change", [("physics", dict(kappa=0.5)),
                                             ("grid", dict(nodes=32)),
                                             ("integrator", dict(horizon=0.2))],
                         ids=["kappa", "nodes", "horizon"])
def test_a_family_refuses_configs_that_differ_outside_epsilon_delta_and_directory(section,
                                                                                    change):
    cfg = make_config(n=16, model="regularized", epsilon=0.1, delta=0.2, horizon=0.1)
    other = replace(cfg, **{section: replace(getattr(cfg, section), **change)})
    with pytest.raises(ParameterError, match="may differ only in epsilon, delta"):
        run.simulate_family([cfg, other])


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
    counts = {"records": 0, "rhs": 0, "record_ffts": 0, "record_rows": 0, "ffts": 0}
    inside = [False]
    snapshots = []  # the lone member's state at each record
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
            snapshots.append(record_args[0][0].copy())
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
    assert counts["records"] == len(traj.step_counts) + 1 == len(traj.records) > 1
    assert counts["rhs"] == traj.counters.rhs_evals >= counts["records"]
    assert counts["record_ffts"] == counts["records"]
    assert counts["record_rows"] == (2 if delta > 0.0 else 3) * counts["records"]
    assert counts["ffts"] == counts["records"] + counts["rhs"]
    assert traj.counters.rejected_steps > 0 or not traj.adaptive
    _, coupling, dissipation = build_operators(cfg)
    for snap, rec in zip(snapshots, traj.records, strict=True):
        assert rec["e_pot"] == energy_potential(snap, coupling, cfg.physics.kappa)
        assert rec["sin2_seminorm"] == sin2_seminorm(snap, coupling)
        assert rec["seminorm_sq"] == seminorm_sq(snap, dissipation)


def test_simulate_deterministic():
    cfg = make_config(n=32, kind="random", seed=13, diameter=2.0, horizon=0.3)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a.dt == b.dt and _bits(a.records) == _bits(b.records)
    assert np.array_equal(a.final, b.final)


def test_simulate_matches_independent_euler():
    # gentle instance so the first-order oracle at 10x smaller steps stays
    # within 1e-6 of the fourth-order run
    cfg = make_config(n=8, model="regularized", epsilon=0.3, kappa=0.05, delta=0.02,
                      kind="smooth", diameter=0.2, horizon=0.1, dt=2.5e-3)
    traj = simulate(cfg)
    g = traj.grid
    w_trunc = oracles.kernel_matrix_loop(g, 0.5, 0.3)
    w_sing = oracles.kernel_matrix_loop(g, 0.5)
    theta0 = initial_field("smooth", g, diameter=0.2)
    theta0 = theta0 - mean_phase(theta0, g)
    n_euler = traj.counters.steps * 10
    expect = oracles.euler_reference(theta0, w_trunc, w_sing, 0.05, 0.02,
                                     0.1 / n_euler, n_euler)
    assert np.abs(traj.final - expect).max() <= 1e-6


def _traced_peak(cfg):
    """The trajectory of ``cfg`` and the tracemalloc peak of its simulate
    call, after a short run that puts lazy imports and the operators' caches
    in place."""
    ops = build_operators(cfg)
    simulate(replace(cfg, integrator=replace(cfg.integrator, horizon=0.001)), ops)
    tracemalloc.start()
    try:
        traj = simulate(cfg, ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return traj, peak


def test_a_run_without_the_snapshots_format_holds_one_state_per_member():
    # 1,010 records of 512 nodes: the history would take K N 8 B = 4.1 MB,
    # while the run holds one state and its records
    cfg = make_config(n=512, kind="random", seed=1, diameter=2.0, horizon=0.15)
    traj, peak = _traced_peak(cfg)
    assert len(traj.records) >= 1000 and traj.final.shape == (512,)
    assert peak < len(traj.records) * 512 * 8 / 4


def test_a_snapshots_run_writes_its_history_and_holds_one_state_per_member(tmp_path):
    # the same run writes each record's field to its file as it is taken: its
    # peak stays that of one state, not of the 4.1 MB history it writes
    cfg = make_config(n=512, kind="random", seed=1, diameter=2.0, horizon=0.15,
                      formats=("csv", "manifest", "snapshots"), directory=str(tmp_path))
    traj, peak = _traced_peak(cfg)
    assert len(traj.records) >= 1000
    assert len(list(tmp_path.glob("snapshot_*.bin"))) == len(traj.records)
    assert peak < len(traj.records) * 512 * 8 / 4


def test_a_record_costs_little_more_than_its_fields():
    # 16 nodes, rk4 at dt = 1e-4 and a record every step: from 101 to 1,001
    # records the peak grows by at most 250 B a record.  A record's 14 float64
    # fields take 112 B, its time on the record grid 8 and its count of steps
    # (in the run's list and the trajectory's copy) about 16; the peak was
    # about 195 B a record on Linux x86-64 with numpy 2.4
    (short, low), (long, high) = (
        _traced_peak(make_config(n=16, scheme="rk4", dt=1e-4, stride=1, horizon=horizon))
        for horizon in (0.01, 0.1))
    assert (len(short.records), len(long.records)) == (101, 1001)
    assert high - low <= 250 * 900


def test_simulate_blow_up_keeps_partial_trajectory(tmp_path):
    # force instability: fixed dt far beyond the dissipation stability limit
    cfg = make_config(n=64, model="singular", kappa=0.0, delta=1.0, kind="random",
                      seed=3, diameter=2.0, horizon=30.0, dt=0.5, stride=1,
                      formats=("csv", "manifest", "snapshots"), directory=str(tmp_path))
    with pytest.raises(BlowUpError) as err:
        simulate(cfg)
    partial = err.value.trajectory
    assert partial is not None and partial.status == "blow-up"
    assert 1 <= len(partial.records) < 61
    # one snapshot file per record taken, each finite
    files = sorted(tmp_path.glob("snapshot_*.bin"))
    times = partial.records["t"].tolist()
    assert [read_snapshot(f)[2] for f in files] == times
    assert all(np.all(np.isfinite(read_snapshot(f)[3])) for f in files)
    assert np.all(np.isfinite(partial.final))
    assert all(b > a for a, b in zip(times, times[1:]))
    assert err.value.t is not None and 0.0 <= err.value.t < 30.0


def test_fixed_step_blow_up_after_several_steps():
    # dt = 3 is far past the dissipation's stable step: the state goes
    # non-finite at step 30 of 100, after one interior record
    cfg = apply_overrides(
        parse_config(Path(__file__).resolve().parents[1] / "configs"
                     / "regularized_sweep_base.cfg"),
        {("grid", "nodes"): "64", ("integrator", "dt"): "3", ("integrator", "horizon"): "300",
         ("physics", "delta"): "1"})
    with pytest.raises(BlowUpError) as err:
        simulate(cfg)
    partial, dt, stride = err.value.trajectory, 3.0, cfg.integrator.stride
    assert str(err.value) == "non-finite state at t = 90 (step 30 of 100, node 8)"
    assert partial.dt == dt and partial.counters.steps == 29
    assert err.value.t == partial.counters.steps * dt
    times = partial.records["t"].tolist()
    assert times == [k * stride * dt for k in range(len(times))]
    assert len(times) == len(partial.step_counts) + 1 == 2 and partial.step_counts == [20]


@pytest.mark.parametrize("growth,row", [((0.0, 1e300, 1e300), 1), ((0.0, 10.0, 1e300), 2)])
def test_family_blow_up_names_the_first_member_to_go_non_finite(grid16, growth, row):
    # the earliest step decides, then the lowest index: row 1 overflows at the
    # first step only in the tie; node 5 has the largest rate
    rates = np.array(growth)[:, None]
    theta0 = np.ones((3, 16))
    theta0[:, 5] = 2.0
    with pytest.raises(BlowUpError) as err:
        integrate_flow(theta0, grid16, lambda v: rates * v, 1e10, 50, np.arange(51) * 1e10, "euler",
                       lambda values, t, dissipated: [t] * len(values))
    assert err.value.row == row and err.value.node == 5
    assert str(err.value) == "non-finite state at t = 1e+10 (step 1 of 50, node 5)"
    final, records, step_counts, counters = err.value.trajectory
    assert np.array_equal(final, theta0)
    with pytest.raises(ValueError):
        final[0, 0] = 0.0  # read-only
    assert records["t"].tolist() == [[0.0] * 3] and err.value.t == 0.0 and step_counts == []
    assert records.tolist() == [[(0.0,) * len(RECORD_FIELDS)] * 3]
    assert counters.steps == 0


# ---------------------------------------------------------------------------
# rkc: second-order Runge-Kutta-Chebyshev
# ---------------------------------------------------------------------------

def _bits(records, states=()):
    # every record field and every given state, as raw bytes; all but the
    # distance to the next member, which a lone run does not have
    records = records.copy()
    records["dist_to_next"] = 0.0
    return records.tobytes() + b"".join(s.tobytes() for s in states)


@pytest.mark.parametrize("adaptive", [False, True])
def test_rkc_blow_up_names_the_member(grid16, adaptive):
    rates = np.array([0.0, 10.0, 1e300])[:, None]
    with pytest.raises(BlowUpError) as err:
        integrate_flow(np.ones((3, 16)), grid16, lambda v: rates * v, 1e10, 50,
                       np.arange(51) * 1e10, "rkc", lambda values, t, dissipated: [t] * len(values),
                       adaptive=adaptive)
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
        final = traj.final
        errors.append(abs(final[0] - final[1] - exact))
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_rkc_runs_are_deterministic():
    cfg = make_config(n=64, kind="random", seed=13, diameter=2.0, horizon=0.3, stride=5,
                      scheme="rkc")
    a, b = simulate(cfg), simulate(cfg)
    assert _bits(a.records, [a.final]) == _bits(b.records, [b.final])
    assert a.counters == b.counters and a.step_counts == b.step_counts


def test_adaptive_rkc_lands_on_the_rk4_record_grid():
    cfg = make_config(n=128, kind="random", seed=3, diameter=2.0, horizon=0.37, stride=7,
                      safety=0.25)
    rk4 = simulate(cfg)
    rkc = simulate(replace(cfg, integrator=replace(cfg.integrator, scheme="rkc")))
    assert rkc.records["t"].tolist() == rk4.records["t"].tolist()
    assert len(rkc.step_counts) == len(rk4.step_counts) == len(rk4.records) - 1
    assert rkc.dt == rk4.dt
    # fewer, larger steps than rk4's, each interval counted exactly
    assert sum(rkc.step_counts) == rkc.counters.steps < rk4.counters.steps
    assert rk4.step_counts == [7] * (len(rk4.records) - 2) + [rk4.counters.steps % 7 or 7]


def test_fixed_step_rkc_family_members_equal_lone_runs():
    # a sweep's shared step is at most every rung's auto step, so every member
    # takes two stages, as it does alone
    base = make_config(n=24, model="regularized", epsilon=0.2, delta=0.1, kind="random",
                       seed=4, diameter=2.0, horizon=0.3, stride=6, scheme="rkc")
    sweep = sweep_epsilon(base, [0.2, 0.1, 0.05])
    for rung in sweep.rungs:
        alone = simulate(rung.config)
        assert _bits(rung.records) == _bits(alone.records)
        assert alone.counters == rung.counters


def test_rk4_takes_four_rate_evaluations_a_step():
    traj = simulate(make_config(n=32, kind="random", seed=2, diameter=2.0, horizon=0.2,
                                stride=3))
    steps = traj.counters.steps
    assert traj.counters.rhs_evals == 4 * steps + 1
    assert steps == round(0.2 / traj.dt) and traj.counters.rejected_steps == 0
    assert sum(traj.step_counts) == steps


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
    assert traj.counters.steps <= 1000


def test_adaptive_rkc_refuses_a_step_shrunk_to_nothing(grid16):
    # an error estimate that is never finite would shrink the step forever:
    # every end-of-step rate (each odd call after the first) is NaN
    calls = []

    def rhs(v):
        calls.append(None)
        return np.full_like(v, np.nan if len(calls) > 1 and len(calls) % 2 else 0.0)

    with pytest.raises(BlowUpError) as err:
        integrate_flow(np.ones((2, 16)), grid16, rhs, 0.1, 10, np.arange(11) * 0.1, "rkc",
                       lambda values, t, dissipated: [t] * len(values), adaptive=True)
    assert str(err.value) == "step size underflow at t = 0" and err.value.row == 0
    flow = err.value.trajectory
    assert flow.counters.steps == 0 and flow.counters.rejected_steps > 300


def _with(cfg, **integrator):
    return replace(cfg, integrator=replace(cfg.integrator, **integrator))


def test_auto_keeps_rk4_on_a_short_barely_stiff_run():
    # rk4 takes 197 rate evaluations here, adaptive rkc 869
    cfg = make_config(n=32, kappa=0.0, delta=0.3, kind="random", seed=12, diameter=2.0,
                      horizon=0.4, scheme="auto")
    traj = simulate(cfg)
    assert traj.scheme == "rk4" and not traj.adaptive
    assert traj.counters.rhs_evals == 4 * traj.counters.steps + 1 == 197
    rk4 = simulate(_with(cfg, scheme="rk4"))
    assert _bits(traj.records) == _bits(rk4.records)
    assert simulate(_with(cfg, scheme="rkc")).counters.rhs_evals > 4 * 197


@pytest.mark.parametrize("steps,scheme", [(200, "rk4"), (201, "rkc")])
def test_auto_takes_rkc_past_800_rk4_rate_evaluations(steps, scheme):
    # an automatic step: auto resolves on rk4's count 4 x steps, and a
    # resolved rkc steps adaptively, bitwise the run that names it
    cfg = make_config(n=16, kind="random", seed=1, diameter=1.0, stride=50, scheme="auto")
    ops = build_operators(cfg)
    bound = stiffness_bound(ops.coupling, ops.dissipation, 1.0, 0.0)
    dt = auto_step(bound, cfg.integrator.safety)
    cfg = _with(cfg, horizon=(steps - 0.5) * dt)
    plan = run.family_step([cfg], [ops])
    assert (plan.dt, plan.n_steps, plan.bounds, plan.scheme, plan.adaptive) == (
        dt, steps, (bound,), scheme, scheme == "rkc")
    traj = simulate(cfg, ops)
    assert traj.scheme == scheme and traj.adaptive == plan.adaptive
    named = simulate(_with(cfg, scheme=scheme), ops)
    assert _bits(traj.records) == _bits(named.records) and traj.counters == named.counters


@pytest.mark.parametrize("h_rho,stages,scheme", [(1.9, 2, "rkc"), (2.5, 3, "rk4")])
def test_auto_at_a_fixed_step_takes_rkc_where_it_needs_2_stages(h_rho, stages, scheme):
    # a configured step: rkc where it takes its minimum of 2 stages, 2 rate
    # evaluations a step against rk4's 4, and rk4 past that, where the step
    # nears rk4's stability limit (h rho ~ 2.79); never adaptive
    cfg = make_config(n=16, kind="random", seed=1, diameter=1.0, stride=10, scheme="auto")
    ops = build_operators(cfg)
    bound = stiffness_bound(ops.coupling, ops.dissipation, 1.0, 0.0)
    cfg = _with(cfg, dt=h_rho / bound, horizon=40 * h_rho / bound)
    plan = run.family_step([cfg], [ops])
    assert plan.n_steps == 40 and (plan.scheme, plan.adaptive) == (scheme, False)
    assert rkc_stage_count(cfg.integrator.horizon / 40, bound) == stages
    traj = simulate(cfg, ops)
    assert traj.scheme == scheme and not traj.adaptive
    per_step = 2 if scheme == "rkc" else 4
    assert traj.counters.rhs_evals == per_step * traj.counters.steps + 1
    assert _bits(traj.records) == _bits(simulate(_with(cfg, scheme=scheme), ops).records)


def test_auto_with_an_automatic_step_resolves_to_adaptive_rkc():
    cfg = make_config(n=128, kind="random", seed=3, diameter=2.0, horizon=0.37, stride=7,
                      safety=0.25, scheme="auto")
    traj = simulate(cfg)
    assert traj.scheme == "rkc" and traj.adaptive
    rkc = simulate(_with(cfg, scheme="rkc"))
    assert _bits(traj.records) == _bits(rkc.records) and traj.counters == rkc.counters
    assert traj.counters.rhs_evals < 4 * round(0.37 / traj.dt)


_SCHEMES = {"rk4": ("rk4", None), "euler": ("euler", None), "rkc-fixed": ("rkc", 0.004),
            "rkc": ("rkc", None)}


@pytest.mark.parametrize("scheme,dt,stride", [
    *(pytest.param(*plan, 7, id=name) for name, plan in _SCHEMES.items()),
    *(pytest.param(*plan, 1000, id=f"{name}-2-records") for name, plan in _SCHEMES.items())])
def test_family_step_gives_the_record_grid_before_the_run(scheme, dt, stride):
    # family_step gives the record times k h, h = horizon / n_steps, for every
    # stride-th k and k = n_steps, before any step: fixed steps end on them
    # and adaptive rkc lands on them; a stride that does not divide n_steps
    # leaves a shorter last interval
    cfg = make_config(n=32, kind="random", seed=3, diameter=2.0, horizon=0.37, stride=stride,
                      scheme=scheme, dt=dt)
    ops = build_operators(cfg)
    plan = run.family_step([cfg], [ops])
    assert plan.n_steps % stride and plan.adaptive == (scheme == "rkc" and dt is None)
    h = 0.37 / plan.n_steps
    expected = [k * h for k in (*range(0, plan.n_steps, stride), plan.n_steps)]
    assert plan.times.dtype == np.float64 and plan.times.tolist() == expected
    assert len(expected) == (plan.n_steps // stride + 2 if stride == 7 else 2)
    traj = simulate(cfg, ops)
    assert traj.records["t"].tolist() == expected and len(traj.step_counts) == len(expected) - 1
