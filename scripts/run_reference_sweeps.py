#!/usr/bin/env python3
"""Reference truncation and dissipation sweeps at desk scale.

Runs the two four-rung dyadic ladders used by the acceptance suite (n = 128,
horizon 2) and writes per-rung diagnostics plus the sweep reports.  The
successive differences should decrease strictly down both ladders.
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlkuramoto import (GridConfig, InitialConfig, IntegratorPolicy, OutputConfig,
                        PhysicsConfig, SimConfig, sweep_delta, sweep_epsilon,
                        write_sweep_outputs)


def base_config(outdir, model, **physics):
    return SimConfig(
        grid=GridConfig(dimension=1, nodes=128, extents=((0.0, 1.0),)),
        physics=PhysicsConfig(model=model, s=0.5, kappa=1.0, **physics),
        initial=InitialConfig(kind="smooth", diameter=math.pi / 2),
        integrator=IntegratorPolicy(scheme="rk4", safety=0.5, horizon=2.0, stride=20),
        output=OutputConfig(directory=str(outdir), formats=("csv", "manifest")),
    )


def show(sweep):
    print(f"\n{sweep.parameter} ladder: {list(sweep.ladder)} (dt = {sweep.rungs[0].dt:.6g})")
    for j, d in enumerate(sweep.differences):
        print(f"  Delta_{j} = {d:.6e}")
    print(f"  strictly decreasing: {sweep.decreasing}")
    print(f"  uniform bounds on every rung: {sweep.bounds_ok}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="sweep_outputs")
    args = parser.parse_args()
    outdir = Path(args.outdir)

    eps_base = base_config(outdir / "epsilon", "regularized", delta=0.1, epsilon=0.2)
    eps_sweep = sweep_epsilon(eps_base, [0.2, 0.1, 0.05, 0.025])
    write_sweep_outputs(eps_sweep)
    show(eps_sweep)

    # rough random data for the dissipation ladder: the singular coupling is
    # shared by all rungs, only the damping shrinks
    del_base = base_config(outdir / "delta", "singular")
    del_base = SimConfig(grid=del_base.grid, physics=del_base.physics,
                         initial=InitialConfig(kind="random", diameter=math.pi / 2, seed=7),
                         integrator=del_base.integrator,
                         output=OutputConfig(directory=str(outdir / "delta"),
                                             formats=("csv", "manifest")))
    del_sweep = sweep_delta(del_base, [0.4, 0.2, 0.1, 0.05])
    write_sweep_outputs(del_sweep)
    show(del_sweep)

    ok = (eps_sweep.decreasing and del_sweep.decreasing
          and eps_sweep.bounds_ok and del_sweep.bounds_ok)
    print(f"\noverall: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
