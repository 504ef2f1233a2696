"""Command-line surface.

Subcommands: simulate, sweep-eps, sweep-delta, relax, poincare, verify.
Command-line flags override config-file values, which override the built-in
defaults.  Exit codes: 0 success, 1 invariant or acceptance failure,
2 configuration error (including a missing config file), 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import apply_overrides, parse_config
from .diagnostics import poincare_sharp_discrete
from .errors import BlowUpError, ConfigurationError
from .experiments import relaxation_experiment, run_invariant_suite, sweep_delta, sweep_epsilon
from .grid import poincare_domain_constant
from .output import write_run_outputs, write_sweep_outputs
from .run import build_operators, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3

# flag name -> (section, key) for the common overrides
_OVERRIDE_FLAGS = {
    "nodes": ("grid", "nodes"),
    "dimension": ("grid", "dimension"),
    "model": ("physics", "model"),
    "s": ("physics", "s"),
    "kappa": ("physics", "kappa"),
    "delta": ("physics", "delta"),
    "epsilon": ("physics", "epsilon"),
    "nu": ("physics", "nu"),
    "kind": ("initial", "kind"),
    "diameter": ("initial", "diameter"),
    "seed": ("initial", "seed"),
    "scheme": ("integrator", "scheme"),
    "dt": ("integrator", "dt"),
    "safety": ("integrator", "safety"),
    "horizon": ("integrator", "horizon"),
    "stride": ("integrator", "stride"),
    "out": ("output", "directory"),
}


def _add_common(parser):
    parser.add_argument("config", help="path to the run configuration file")
    for flag in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{flag.replace('_', '-')}", dest=f"ov_{flag}", default=None,
                            metavar="VALUE", help=f"override {'.'.join(_OVERRIDE_FLAGS[flag])}")
    parser.add_argument("--set", dest="ov_set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override any config key")
    parser.add_argument("--allow-large-diameter", action="store_true",
                        help="permit initial diameters of pi or more")


def _load_config(args):
    cfg = parse_config(args.config)
    overrides = {}
    for flag, key in _OVERRIDE_FLAGS.items():
        value = getattr(args, f"ov_{flag}")
        if value is not None:
            overrides[key] = value
    for item in args.ov_set:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError([f"--set expects SECTION.KEY=VALUE, got {item!r}"])
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        overrides[(section.strip(), key.strip())] = value.strip()
    if args.allow_large_diameter:
        overrides[("initial", "allow_large_diameter")] = "true"
    return apply_overrides(cfg, overrides) if overrides else cfg


def _parse_ladder(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigurationError([f"--ladder expects numbers, got {raw!r}"]) from None


def _persist_blowup(exc: BlowUpError) -> None:
    traj = exc.trajectory
    if traj is None:
        return
    paths = write_run_outputs(traj, notes=str(exc))
    print(f"partial outputs written to {Path(traj.config.output.directory).resolve()}",
          file=sys.stderr)
    del paths


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    traj = simulate(cfg)
    paths = write_run_outputs(traj, wall_clock_s=time.perf_counter() - t0)
    last = traj.records[-1]
    print(f"completed {traj.n_steps} steps (dt = {traj.dt:.6g}) to t = {last.t:.6g}")
    print(f"final diameter = {last.diameter:.6g}, dist_sq = {last.dist_sq:.6g}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return EXIT_OK


def _cmd_sweep(args, which) -> int:
    cfg = _load_config(args)
    ladder = _parse_ladder(args.ladder)
    t0 = time.perf_counter()
    sweep = (sweep_epsilon if which == "epsilon" else sweep_delta)(
        cfg, ladder, workers=args.workers)
    paths = write_sweep_outputs(sweep, cfg, wall_clock_s=time.perf_counter() - t0)
    print(f"{sweep.parameter} ladder: {list(sweep.ladder)}")
    print(f"successive differences: {['%.6e' % d for d in sweep.differences]}")
    print(f"decreasing: {sweep.decreasing}, uniform bounds: "
          f"{'ok' if sweep.bounds_ok else 'VIOLATED'}")
    print(f"report: {paths['report']}")
    return EXIT_OK if (sweep.decreasing and sweep.bounds_ok) else EXIT_CHECK_FAILED


def cmd_relax(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    report, traj = relaxation_experiment(cfg)
    write_run_outputs(traj, wall_clock_s=time.perf_counter() - t0)
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "relaxation_report.json").write_text(
        json.dumps(report.report(), indent=2, sort_keys=True) + "\n")
    print(f"initial diameter M = {report.m:.6g}, min sinc = {report.c_m:.6g}")
    print(f"lambda_star = {report.lambda_star:.8g} "
          f"(domain constant bound 1/C = {1.0 / report.c_p_domain:.8g})")
    print(f"certified rate = {report.certified_rate:.6g}, fitted rate = {report.gamma_hat:.6g}")
    print(f"pointwise bound: {'ok' if report.pointwise_ok else 'VIOLATED'}"
          f" (margin {report.pointwise_margin:.4g})")
    print(f"rate bound: {'ok' if report.rate_ok else 'VIOLATED'}")
    return EXIT_OK if report.satisfied else EXIT_CHECK_FAILED


def cmd_poincare(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    dissipation = build_operators(cfg).dissipation
    c_dom = poincare_domain_constant(dissipation.grid, cfg.physics.s)
    lam_star = poincare_sharp_discrete(dissipation)
    print(f"C_P_domain = {c_dom!r}")
    print(f"lambda_star = {lam_star!r}")
    print(f"1/lambda_star = {1.0 / lam_star!r}")
    ok = 1.0 / lam_star <= c_dom * (1.0 + 1e-9)
    print(f"1/lambda_star <= C_P_domain: {'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    t0 = time.perf_counter()
    traj, checks, ok = run_invariant_suite(cfg)
    write_run_outputs(traj, wall_clock_s=time.perf_counter() - t0)
    for check in checks:
        tag = "pass" if check.passed else "skip" if check.passed is None else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlkuramoto",
        description="Simulate and verify nonlocally coupled phase oscillators "
                    "with a singular power-law kernel.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one configuration and write outputs")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-eps", help="kernel-truncation ladder at fixed dissipation")
    _add_common(p)
    p.add_argument("--ladder", required=True, help="decreasing truncation values")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=lambda a: _cmd_sweep(a, "epsilon"))

    p = sub.add_parser("sweep-delta", help="dissipation ladder with the singular coupling")
    _add_common(p)
    p.add_argument("--ladder", required=True, help="decreasing dissipation values")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=lambda a: _cmd_sweep(a, "delta"))

    p = sub.add_parser("relax", help="verify the exponential relaxation rate")
    _add_common(p)
    p.set_defaults(func=cmd_relax)

    p = sub.add_parser("poincare", help="print the domain and sharp discrete constants")
    _add_common(p)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("verify", help="run the invariant suite on a configuration")
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("configuration error:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        _persist_blowup(exc)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
