import json
import math
import random
from dataclasses import asdict, replace

import numpy as np
import pytest

import nlkuramoto.experiments as experiments
import nlkuramoto.run as run
from nlkuramoto import (BlowUpError, ConfigurationError, ParameterError, assemble_kernel_matrix,
                        build_grid, build_operators, energy_identity_residual, initial_field,
                        read_snapshot, refinement_study, relaxation_experiment,
                        run_invariant_suite, simulate, sweep_delta, sweep_epsilon, write_json)
from nlkuramoto.diagnostics import RECORD_DTYPE
from nlkuramoto.experiments import relaxation_report, restrict_to_coarse
from nlkuramoto.integrate import auto_step, stiffness_bound

import oracles
from conftest import make_config, recorded_states


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
    assert np.all((-1.0 <= a) & (a < 1.0))
    # stdlib random.Random(5), each 8 bytes read little-endian on every host,
    # its top 53 bits a double u in [0, 1), and (u - 0.5) * diameter
    words = random.Random(5).randbytes(8 * 3)
    expect = [((int.from_bytes(words[8 * k:8 * k + 8], "little") >> 11) * 2.0**-53 - 0.5) * 2.0
              for k in range(3)]
    assert a[:3].tolist() == expect == [-0.48910996614820257, -0.28292897495357927,
                                        0.38089369181319754]
    with pytest.raises(ParameterError):
        initial_field("random", grid64, diameter=2.0)
    with pytest.raises(ParameterError, match="nonnegative"):  # Random(-5) would seed as 5
        initial_field("random", grid64, diameter=2.0, seed=-5)


def test_initial_validation(grid16):
    with pytest.raises(ParameterError):
        initial_field("plaid", grid16)
    with pytest.raises(ParameterError):
        initial_field("smooth", grid16, diameter=-1.0)
    # two nodes one period apart, both on the sine's crest: x = 0.25 and 1.25
    with pytest.raises(ParameterError, match="sine profile is constant on this grid"):
        initial_field("smooth", build_grid(1, 2, [(-0.25, 1.75)]), diameter=1.0)


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
    (dt,) = {rung.dt for rung in sweep.rungs}
    requested = {rung.config.integrator.dt for rung in sweep.rungs}
    # the stiffest rung's step is exactly the smallest automatic step on the ladder
    dissipation = build_operators(base).dissipation
    assert requested == {min(
        auto_step(stiffness_bound(assemble_kernel_matrix(dissipation.grid, 0.5, eps),
                                  dissipation, base.physics.kappa, base.physics.delta),
                  base.integrator.safety, free_drift_horizon=base.integrator.horizon)
        for eps in ladder)}
    # the executed step is the request rounded down to land on the horizon
    assert dt <= requested.pop() * (1 + 1e-12)


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
    # every field, sin2_seminorm included, as raw bytes; all but the distance
    # to the next member, which a lone run does not have
    records = records.copy()
    records["dist_to_next"] = 0.0
    return records.tobytes()


@pytest.mark.parametrize("parameter,dim,n", [("epsilon", 1, 24), ("epsilon", 2, 8),
                                             ("delta", 1, 24), ("delta", 2, 8)])
def test_batched_sweep_rungs_equal_lone_runs(monkeypatch, parameter, dim, n):
    # the rungs step together, yet each one's records and recorded states
    # are bitwise those of the rung simulated alone with its own operators
    families = []

    def recording(configs, operators):
        families.append(run.simulate_family(configs, operators))
        return families[-1]

    monkeypatch.setattr(experiments, "simulate_family", recording)
    data = dict(dim=dim, n=n, extents=[(0.0, 1.0)] * dim, kind="random", seed=4, diameter=2.0)
    with recorded_states() as states:
        if parameter == "epsilon":
            sweep = sweep_epsilon(eps_base(**data), [0.2, 0.1, 0.05])
        else:
            sweep = sweep_delta(delta_base(**data), [0.4, 0.2, 0.1])
        alones = [simulate(rung.config, build_operators(rung.config)) for rung in sweep.rungs]
    (trajs,) = families
    family = states.of(0)
    for j, (rung, traj, alone) in enumerate(zip(sweep.rungs, trajs, alones, strict=True)):
        assert traj.times == alone.times and len(alone.records) > 2
        assert _bits(rung.records) == _bits(traj.records) == _bits(alone.records)
        assert family[j].tobytes() == states.of(j + 1)[0].tobytes()


def test_sweep_blow_up_names_the_unstable_rung(tmp_path):
    # dt = 0.089, 12x past the stable step, destabilizes at kappa = 0.05 the
    # damping of delta = 0.4 (the stiffest rung) but not of 0.1
    base = delta_base(kappa=0.05, kind="random", seed=3, horizon=60.0, stride=10, dt=0.089,
                      formats=("csv", "manifest", "snapshots"), directory=str(tmp_path))
    with pytest.raises(BlowUpError) as err:
        sweep_delta(base, [0.4, 0.1])
    assert str(err.value).startswith("rung 0 (value 0.4) blew up: non-finite state at t = ")
    partial = err.value.trajectory
    assert partial.status == "blow-up" and partial.config.physics.delta == 0.4
    assert partial.config.output.directory == str(tmp_path / "rung_0")
    # one record at t = 0 and one after every 10th step taken, and each
    # rung's snapshot file of every record taken
    assert 1 < len(partial.records) == partial.counters.steps // 10 + 1
    for rung_dir in ("rung_0", "rung_1"):
        files = sorted((tmp_path / rung_dir).glob("snapshot_*.bin"))
        assert [read_snapshot(f)[2] for f in files] == partial.times
    assert partial.times[-1] <= err.value.t < 60.0
    # every rung's partial trajectory rides along, up to the same last record
    rungs = err.value.trajectories
    assert rungs[0] is partial and [r.config.physics.delta for r in rungs] == [0.4, 0.1]
    assert rungs[1].status == "blow-up" and rungs[1].times == partial.times


@pytest.mark.parametrize("parameter", ["epsilon", "delta"])
def test_sweeps_share_a_configured_dt(parameter):
    # every rung steps at the configured dt and its config carries it, so
    # that config reproduces the rung alone
    if parameter == "epsilon":
        sweep = sweep_epsilon(eps_base(horizon=0.1, dt=0.001), [0.2, 0.1])
    else:
        sweep = sweep_delta(delta_base(horizon=0.1, dt=0.001), [0.4, 0.2])
    assert [rung.dt for rung in sweep.rungs] == [0.001, 0.001]
    assert [rung.config.integrator.dt for rung in sweep.rungs] == [0.001, 0.001]
    assert [rung.counters.steps for rung in sweep.rungs] == [100, 100]


def test_sweep_delta_constant_data():
    sweep = sweep_delta(delta_base(kind="constant", value=-0.3), [0.4, 0.2, 0.1])
    assert sweep.differences == [0.0, 0.0]


def test_sweep_delta_rejects_wide_data():
    wide = delta_base(kind="two_cluster", diameter=3.5, allow_large_diameter=True)
    with pytest.raises(ConfigurationError) as err:
        sweep_delta(wide, [0.4, 0.2])
    assert any("below pi" in p for p in err.value.problems)


@pytest.mark.parametrize("physics,problem", [
    (dict(model="regularized", epsilon=0.2),
     "sweep-delta: base config must use the singular model (the sine coupling keeps the "
     "untruncated kernel)"),
    (dict(kappa=0.0), "sweep-delta: needs positive coupling strength"),
], ids=["model", "kappa"])
def test_sweep_delta_refuses_a_base_outside_its_hypotheses(physics, problem):
    with pytest.raises(ConfigurationError) as err:
        sweep_delta(delta_base(**physics), [0.4, 0.2])
    assert err.value.problems == [problem]


def test_sweep_delta_decreasing():
    sweep = sweep_delta(delta_base(n=48, kind="random", seed=7, diameter=math.pi / 2,
                                   horizon=0.5), [0.4, 0.2, 0.1, 0.05])
    assert sweep.decreasing
    assert sweep.bounds_ok
    # the sinc-seminorm row applies on every rung of a singular-coupling sweep
    for checks in sweep.bound_checks:
        rows = {c.name: c for c in checks}
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
    """Every kernel-matrix assembly made through run or experiments, by kernel."""
    calls = []
    for module in (run, experiments):
        def counted(grid, s, eps=None, _assemble=module.assemble_kernel_matrix):
            calls.append("singular" if eps is None else "truncated")
            return _assemble(grid, s, eps)
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
    assert traj.records["dist_sq"][-1] == 0.0


def test_relaxation_two_oscillators_match_closed_form():
    cfg = make_config(n=2, kind="two_cluster", diameter=math.pi / 2, horizon=2.0,
                      safety=0.02, stride=10)
    with recorded_states() as states:
        report, traj = relaxation_experiment(cfg)
    assert report.satisfied
    w12 = oracles.kernel_value(0.5, 1, 0.5) * traj.grid.weight
    a = 2.0 * w12  # gap rate: gap' = -2 kappa W12 sin(gap), kappa = 1
    gap0 = -math.pi / 2
    (snapshots,) = states.of()
    for t, snap in zip(traj.times[1:], snapshots[1:], strict=True):
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
    assert report.initial_diameter == pytest.approx(math.pi / 2, rel=1e-12)
    assert report.c_m == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert report.certified_rate == pytest.approx(report.c_m * report.lambda_star, rel=1e-12)
    assert 1.0 / report.lambda_star <= report.c_p_domain
    assert report.gamma_hat >= report.certified_rate
    assert report.pointwise_ok and report.rate_ok and report.satisfied
    data = asdict(report)
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


def test_refinement_refuses_an_empty_ladder():
    with pytest.raises(ConfigurationError, match="at least one grid size"):
        refinement_study(make_config(n=8), [])


@pytest.mark.parametrize("call, problem", [
    (lambda: sweep_epsilon(eps_base(), [0.2, 0.0]),
     "epsilon ladder: rung values must be positive"),
    (lambda: sweep_delta(delta_base(), [0.2, -0.1]), "delta ladder: rung values must be positive"),
    (lambda: restrict_to_coarse(np.zeros(12), 1, 12, 8),
     "refinement ladder: 12 is not a multiple of 8"),
], ids=["epsilon-rung", "delta-rung", "restriction"])
def test_ladders_refuse_rungs_they_cannot_use(call, problem):
    with pytest.raises(ConfigurationError) as err:
        call()
    assert err.value.problems == [problem]


def test_refinement_writes_no_snapshots(tmp_path):
    # the study writes no outputs: with a snapshots base, its rungs and both
    # halving runs would otherwise overwrite one directory's files with
    # fields of different sizes
    base = make_config(n=8, model="regularized", epsilon=0.2, delta=0.1, kind="smooth",
                       diameter=1.0, horizon=0.1, stride=4, directory=str(tmp_path / "out"),
                       formats=("csv", "manifest", "snapshots"))
    report = refinement_study(base, [8, 16])
    assert len(report.rows) == 2 and report.dt_halving["n"] == 8
    assert not (tmp_path / "out").exists()


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
    assert sum(traj.step_counts) == traj.counters.steps and len(set(traj.step_counts)) > 1


def test_invariant_suite_lattice_run():
    cfg = make_config(n=16, model="lattice", kind="smooth", diameter=1.0,
                      horizon=0.3, stride=2)
    _, checks, ok = run_invariant_suite(cfg)
    assert ok
    by_name = {c.name: c for c in checks}
    assert by_name["mean-conservation"].passed is True
    assert by_name["diameter-monotone"].passed is True
    assert by_name["energy-monotone"].passed is True
    assert by_name["uniform-bounds"].passed is None
    # on (0, 2) the rate couples at kappa / 2, and so do the records' energies
    cfg = make_config(n=32, model="lattice", extents=((0.0, 2.0),), kind="random", seed=3,
                      diameter=1.5, horizon=0.5, scheme="rkc")
    _, checks, ok = run_invariant_suite(cfg)
    assert ok and {c.name: c for c in checks}["energy-monotone"].passed is True


def test_invariant_suite_skips_every_row_under_per_node_frequencies(tmp_path):
    nu_path = tmp_path / "nu.txt"
    nu_path.write_text("\n".join(repr(0.1 * math.sin(k)) for k in range(32)) + "\n")
    cfg = make_config(n=32, model="lattice", nu_file=str(nu_path), kind="smooth",
                      diameter=1.0, horizon=0.3)
    traj, checks, ok = run_invariant_suite(cfg)
    assert ok and not traj.gauge_reduced
    reason = "needs initial diameter below pi (or kappa = 0) and a constant frequency"
    assert [(c.name, c.passed, c.detail) for c in checks] == [
        ("mean-conservation", None, "per-node frequencies drift the mean"),
        ("diameter-monotone", None, reason),
        ("truncation-decay", None, reason),
        ("energy-monotone", None, "per-node frequencies break the energy identity"),
        ("uniform-bounds", None, "its rows read kappa, not the lattice's kappa / |domain|"),
        ("semigroup-contraction", None, "applies to kappa = 0 continuum runs"),
        ("relaxation-pointwise", None,
         "applies to undamped singular runs with 0 < diameter < pi"),
    ]


def _relax_record(t, mean, diameter, dist_sq):
    return {"t": t, "mean": mean, "diameter": diameter, "dist_sq": dist_sq}


def _pointwise(rows):
    """The pointwise fields of the relaxation report at kappa = lambda_star = 1
    on the unit interval, for records whose other fields are 0."""
    records = np.zeros(len(rows), RECORD_DTYPE)
    for k, row in enumerate(rows):
        for name, value in row.items():
            records[name][k] = value
    report = relaxation_report(records, 1.0, 1.0, build_grid(1, 2, [(0.0, 1.0)]), 0.5)
    return report.table, report.pointwise_ok, report.pointwise_margin, report.rows_below_floor


def test_pointwise_relaxation_compares_only_rows_above_the_rounding_floor():
    start = _relax_record(0.0, 0.0, 1.0, 0.1)
    # a field within ulps of its mean 1e-15 when the bound has underflowed to 0
    stalled = _relax_record(1000.0, 1e-15, 1e-30, 1e-62)
    table, ok, margin, below = _pointwise([start, stalled])
    assert ok and below == 1 and len(table) == 2 and table[1]["bound"] == 0.0
    assert margin == 1.0  # the one row after t = 0 is below the floor
    # a row above the floor and over its bound still fails
    over = _relax_record(1.0, 0.0, 1e-20, 0.1)
    _, ok, margin, below = _pointwise([start, over, stalled])
    assert not ok and below == 1 and margin < 1.0


def test_pointwise_margin_leaves_out_the_t0_row():
    # the t = 0 row's bound / dist_sq is 1 + RELAXATION_TOL by construction;
    # the margin is the smallest ratio after it
    start = _relax_record(0.0, 0.0, 1.0, 0.1)
    later = _relax_record(1.0, 0.0, 0.5, 0.001)
    table, ok, margin, below = _pointwise([start, later])
    assert ok and below == 0
    assert table[0]["bound"] / table[0]["dist_sq"] == pytest.approx(1.01, rel=1e-15)
    assert margin == table[1]["bound"] / 0.001 > 40.0


@pytest.mark.parametrize("horizon,steps", [(1.0, 214), (0.25, 54)])
def test_a_sweep_under_auto_takes_fixed_step_rkc_and_each_rung_equals_its_lone_run(horizon,
                                                                                    steps):
    # a sweep fixes the stiffest rung's automatic step, h rho = safety, where
    # rkc takes its minimum of 2 stages, 2 rate evaluations a step against
    # rk4's 4, however few steps: the ladder resolves to rkc once
    base = eps_base(n=32, kind="random", seed=4, diameter=2.0, horizon=horizon, scheme="auto")
    sweep = sweep_epsilon(base, [0.2, 0.1, 0.05, 0.025])
    counters = sweep.rungs[0].counters
    assert counters.steps == steps and counters.rejected_steps == 0
    assert counters.rhs_evals == 2 * counters.steps + 1
    for rung in sweep.rungs:
        assert rung.scheme == rung.config.integrator.scheme == "rkc" and not rung.adaptive
        assert rung.config.integrator.dt == sweep.rungs[0].config.integrator.dt
        alone = simulate(rung.config, build_operators(rung.config))
        assert alone.scheme == "rkc" and alone.counters == counters
        assert _bits(rung.records) == _bits(alone.records)
        assert rung.final.tobytes() == alone.final.tobytes()


def test_refinement_under_auto_halves_the_step_of_the_scheme_it_resolved():
    # at h rho = 2.4 rkc would need 3 stages, so the fixed step resolves to
    # rk4; at half the step rkc's 2 stages would resolve to rkc, so the
    # halving row names the scheme
    ops = build_operators(eps_base(n=8))
    rho = stiffness_bound(ops.coupling, ops.dissipation, 1.0, 0.1)
    base = eps_base(n=8, horizon=20 * 2.4 / rho, stride=4, dt=2.4 / rho, scheme="auto")
    report = refinement_study(base, [8])
    half = replace(base, integrator=replace(base.integrator, scheme="rk4", dt=1.2 / rho))
    assert report.dt_halving["residual_half"] == energy_identity_residual(simulate(half))
    assert report.dt_halving["ratio"] >= 4.0


def test_a_refinement_report_of_zero_residuals_is_strict_json(tmp_path):
    # constant data: every residual is exactly zero, so the halving ratio is
    # undefined and written as null (write_json refuses NaN and infinity)
    report = refinement_study(make_config(n=8, kind="constant", value=0.2, horizon=0.2), [8, 16])
    assert report.dt_halving["residual_half"] == 0.0 and report.dt_halving["ratio"] is None
    write_json(asdict(report), tmp_path / "refinement_report.json")
    parsed = json.loads((tmp_path / "refinement_report.json").read_text())
    assert parsed["dt_halving"]["ratio"] is None
