"""Command-line surface.

Subcommands: simulate, sweep-eps, sweep-delta, relax, poincare, verify.
Command-line flags override config-file values, which override the built-in
defaults.  Exit codes: 0 success, 1 invariant or acceptance failure,
2 configuration error (including a missing config file), 3 numerical failure:
a blow-up (partial outputs are written) or a lambda_star solve that did not
converge.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import apply_overrides, parse_config
from .diagnostics import FIT_FLOOR, poincare_sharp_discrete
from .errors import BlowUpError, ConfigurationError, IterationError
from .experiments import relaxation_experiment, run_invariant_suite, sweep_delta, sweep_epsilon
from .grid import poincare_domain_constant
from .output import existing_directory, write_json, write_run_outputs, write_sweep_outputs
from .run import build_operators, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

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
    cfg = apply_overrides(cfg, overrides) if overrides else cfg
    existing_directory(cfg.output.directory)
    return cfg


def _parse_ladder(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.replace(",", " ").split()]
    except ValueError:
        raise ConfigurationError([f"--ladder expects numbers, got {raw!r}"]) from None


def _elapsed(args) -> float:
    """Seconds since :func:`main` started the command."""
    return time.perf_counter() - args.started


def _steps(traj) -> str:
    """The steps a run took, naming its scheme (``auto`` resolved)."""
    counters = traj.counters
    if traj.adaptive:
        return (f"{counters.steps} adaptive {traj.scheme} steps "
                f"({counters.rejected_steps} rejected)")
    return f"{counters.steps} {traj.scheme} steps (dt = {traj.dt:.6g})"


def cmd_simulate(args, cfg) -> int:
    traj = simulate(cfg)
    paths = write_run_outputs(traj, wall_clock_s=_elapsed(args))
    last = traj.records[-1]
    print(f"completed {_steps(traj)} to t = {last['t']:.6g}")
    print(f"final diameter = {last['diameter']:.6g}, dist_sq = {last['dist_sq']:.6g}")
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return EXIT_OK


def _cmd_sweep(args, cfg, which) -> int:
    ladder = _parse_ladder(args.ladder)
    sweep = (sweep_epsilon if which == "epsilon" else sweep_delta)(cfg, ladder)
    paths = write_sweep_outputs(sweep, wall_clock_s=_elapsed(args))
    print(f"{sweep.parameter} ladder: {list(sweep.ladder)}, stepped together in "
          f"{_steps(sweep.rungs[0])}")
    print(f"successive differences: {['%.6e' % d for d in sweep.differences]}")
    print(f"decreasing: {sweep.decreasing}, uniform bounds: "
          f"{'ok' if sweep.bounds_ok else 'VIOLATED'}")
    print(f"report: {paths['report']}")
    return EXIT_OK if (sweep.decreasing and sweep.bounds_ok) else EXIT_CHECK_FAILED


def cmd_relax(args, cfg) -> int:
    report, traj = relaxation_experiment(cfg)
    write_run_outputs(traj, wall_clock_s=_elapsed(args))
    write_json(report.document(traj.records), Path(cfg.output.directory) / "relaxation_report.json")
    print(f"completed {_steps(traj)} to t = {traj.records['t'][-1]:.6g}")
    print(f"initial diameter M = {report.initial_diameter:.6g}, min sinc = {report.c_m:.6g}")
    print(f"lambda_star = {report.lambda_star:.8g} "
          f"(domain constant bound 1/C = {1.0 / report.c_p_domain:.8g})")
    fitted = "n/a" if report.gamma_hat is None else f"{report.gamma_hat:.6g}"
    print(f"certified rate = {report.certified_rate:.6g}, fitted rate = {fitted}")
    print(f"pointwise bound: {'ok' if report.pointwise_ok else 'VIOLATED'}"
          f" (margin {report.pointwise_margin:.4g})")
    if report.rows_below_floor:
        print(f"  {report.rows_below_floor} rows below the rounding floor not compared")
    verdict = "ok" if report.rate_ok else "VIOLATED"
    if report.gamma_hat is None:
        t = traj.records["t"][traj.records["dist_sq"] <= FIT_FLOOR][0]
        verdict = f"not measurable (dist_sq fell under the {FIT_FLOOR:g} fit floor by t = {t:.6g})"
    print(f"rate bound: {verdict}")
    return EXIT_OK if report.satisfied else EXIT_CHECK_FAILED


def cmd_poincare(args, cfg) -> int:
    dissipation = build_operators(cfg).dissipation
    c_dom = poincare_domain_constant(dissipation.grid, cfg.physics.s)
    lam_star = poincare_sharp_discrete(dissipation)
    print(f"C_P_domain = {c_dom!r}")
    print(f"lambda_star = {lam_star!r}")
    print(f"1/lambda_star = {1.0 / lam_star!r}")
    ok = 1.0 / lam_star <= c_dom * (1.0 + 1e-9)
    print(f"1/lambda_star <= C_P_domain: {'ok' if ok else 'VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify(args, cfg) -> int:
    traj, checks, ok = run_invariant_suite(cfg)
    write_run_outputs(traj, wall_clock_s=_elapsed(args))
    for check in checks:
        tag = "pass" if check.passed else "skip" if check.passed is None else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# name, help, handler(args, cfg), help of --ladder (None: no ladder); in --help order
_COMMANDS = (
    ("simulate", "run one configuration and write outputs", cmd_simulate, None),
    ("sweep-eps", "kernel-truncation ladder at fixed dissipation",
     lambda args, cfg: _cmd_sweep(args, cfg, "epsilon"), "decreasing truncation values"),
    ("sweep-delta", "dissipation ladder with the singular coupling",
     lambda args, cfg: _cmd_sweep(args, cfg, "delta"), "decreasing dissipation values"),
    ("relax", "verify the exponential relaxation rate", cmd_relax, None),
    ("poincare", "print the domain and sharp discrete constants", cmd_poincare, None),
    ("verify", "run the invariant suite on a configuration", cmd_verify, None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlkuramoto",
        description="Simulate and verify nonlocally coupled phase oscillators "
                    "with a singular power-law kernel.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, ladder_help in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the run configuration file")
        for flag, key in _OVERRIDE_FLAGS.items():
            p.add_argument(f"--{flag}", dest=f"ov_{flag}", default=None, metavar="VALUE",
                           help=f"override {'.'.join(key)}")
        p.add_argument("--set", dest="ov_set", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override any config key")
        p.add_argument("--allow-large-diameter", action="store_true",
                       help="permit initial diameters of pi or more")
        if ladder_help is not None:
            p.add_argument("--ladder", required=True, help=ladder_help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()  # the one clock of wall_clock_s
    try:
        return args.func(args, _load_config(args))
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
        for traj in exc.trajectories:  # the partial outputs of the run, or of every rung
            write_run_outputs(traj, wall_clock_s=_elapsed(args), notes=str(exc))
            print(f"partial outputs written to {Path(traj.config.output.directory).resolve()}",
                  file=sys.stderr)
        return EXIT_NUMERICAL
    except IterationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
