#!/usr/bin/env python3
"""Exponential-relaxation study for the undamped singular dynamics.

Simulates the n = 256 reference run (initial diameter pi/2), certifies the
decay rate kappa * min_sinc(M) * lambda_star against the observed one, and
cross-checks the time stepper against the closed-form two-oscillator gap.
"""

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlkuramoto import (GridConfig, InitialConfig, IntegratorPolicy, OutputConfig,
                        PhysicsConfig, SimConfig, psi, relaxation_experiment, simulate,
                        write_run_outputs)


def config(outdir, n, safety, stride, diameter=math.pi / 2, kind="smooth"):
    return SimConfig(
        grid=GridConfig(dimension=1, nodes=n, extents=((0.0, 1.0),)),
        physics=PhysicsConfig(model="singular", s=0.5, kappa=1.0),
        initial=InitialConfig(kind=kind, diameter=diameter),
        integrator=IntegratorPolicy(scheme="rk4", safety=safety, horizon=2.0,
                                    stride=stride),
        output=OutputConfig(directory=str(outdir), formats=("csv", "manifest")),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="relaxation_outputs")
    parser.add_argument("--nodes", type=int, default=256)
    args = parser.parse_args()
    outdir = Path(args.outdir)

    cfg = config(outdir / "main", args.nodes, safety=0.25, stride=20)
    report, traj = relaxation_experiment(cfg)
    write_run_outputs(traj)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "relaxation_report.json").write_text(
        json.dumps(report.report(), indent=2, sort_keys=True) + "\n")

    print(f"n = {args.nodes}: M = {report.m:.6g}, min sinc = {report.c_m:.6g}")
    print(f"lambda_star = {report.lambda_star:.8g}  "
          f"(1/lambda_star = {1 / report.lambda_star:.4g} <= "
          f"C_P_domain = {report.c_p_domain:.4g})")
    print(f"certified rate = {report.certified_rate:.6g}")
    print(f"fitted rate    = {report.gamma_hat:.6g}  (fit rms {report.fit_residual:.2e})")
    print(f"pointwise exponential bound: {'ok' if report.pointwise_ok else 'VIOLATED'} "
          f"(margin {report.pointwise_margin:.4g})")

    # two-oscillator cross-check: gap' = -2 W12 sin(gap) has a closed form
    pair = config(outdir / "pair", 2, safety=0.02, stride=10, kind="two_cluster")
    traj2 = simulate(pair)
    w12 = float(psi(0.5, 1, 0.5)) * traj2.grid.weight
    worst = 0.0
    for t, snap in zip(traj2.times[1:], traj2.snapshots[1:]):
        exact = 2.0 * math.atan(math.tan(-math.pi / 4) * math.exp(-2.0 * w12 * t))
        got = snap[0] - snap[1]
        worst = max(worst, abs(got - exact) / abs(exact))
    print(f"two-oscillator closed-form deviation: {worst:.3e} (relative)")

    ok = report.satisfied and worst <= 1e-6
    print(f"overall: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
