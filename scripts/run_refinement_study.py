#!/usr/bin/env python3
"""Grid-refinement study at fixed physics.

Separates the spatial discretization error from the truncation/dissipation
limits: runs one configuration over an n-ladder, reports the energy-identity
residual per rung and the final-state differences restricted to the coarsest
grid, plus a step-halving row (the residual must drop at least 4x).
"""

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nlkuramoto import (GridConfig, InitialConfig, IntegratorPolicy, OutputConfig,
                        PhysicsConfig, SimConfig, refinement_study, write_json)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="refinement_outputs")
    parser.add_argument("--ladder", default="32,64,128,256",
                        help="increasing node counts; multiples of the first")
    args = parser.parse_args()
    ladder = [int(v) for v in args.ladder.replace(",", " ").split()]

    base = SimConfig(
        grid=GridConfig(dimension=1, nodes=ladder[0], extents=((0.0, 1.0),)),
        physics=PhysicsConfig(model="regularized", s=0.5, kappa=1.0, delta=0.1,
                              epsilon=0.1),
        initial=InitialConfig(kind="smooth", diameter=math.pi / 2),
        integrator=IntegratorPolicy(scheme="rk4", safety=0.25, horizon=1.0, stride=10),
        output=OutputConfig(directory=args.outdir),
    )
    report = refinement_study(base, ladder)

    print(f"{'n':>6} {'dt':>12} {'steps':>7} {'energy residual (rel)':>22}")
    for row in report.rows:
        print(f"{row['n']:>6} {row['dt']:>12.4e} {row['n_steps']:>7} "
              f"{row['energy_residual_rel']:>22.4e}")
    print("\nfinal-state differences on the coarsest grid:")
    for (na, nb), d in zip(zip(ladder, ladder[1:]), report.coarse_diffs):
        print(f"  n={na:>4} vs n={nb:>4}: {d:.6e}")
    h = report.dt_halving
    ratio = "n/a" if h["ratio"] is None else f"{h['ratio']:.2f}"
    print(f"\nstep halving at n={h['n']}: residual {h['residual']:.4e} -> "
          f"{h['residual_half']:.4e} (ratio {ratio})")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(asdict(report), outdir / "refinement_report.json")

    diffs_ok = all(b < a for a, b in zip(report.coarse_diffs, report.coarse_diffs[1:]))
    ok = diffs_ok and h["residual"] >= 4.0 * h["residual_half"]
    print(f"\noverall: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
