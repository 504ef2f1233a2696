"""Programs the benchmark runs in a fresh interpreter of their own.

    python3 perfbench/probe.py setup CONFIG OVERRIDES_JSON
        Times the set-up a run pays before it steps: importing the package,
        parsing the config, applying the overrides and building the
        operators.  Prints one JSON object.

    python3 perfbench/probe.py trace SPANS_JSON -- CLI_ARGS...
        Installs a span around every entry of TRACE_TABLE, runs the CLI with
        CLI_ARGS, writes the spans to SPANS_JSON and exits with the CLI's
        exit code.

The package must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).  Untraced CLI invocations never load this module: they start
the CLI directly, so they carry no wrappers at all.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# Where each layer's entry points are looked up by their callers, and the span
# each call records.  "module.name" patches a function; "module.name:arg"
# leaves the function alone and wraps the callable it receives as ``arg``
# (the diagnostics-record closure is only reachable that way).  grid,
# initial and errors take under 1% of every workload and stay inside their
# callers' spans.
TRACE_TABLE = (
    ("nlkuramoto.cli.parse_config", "config.load"),
    ("nlkuramoto.cli.apply_overrides", "config.load"),
    ("nlkuramoto.cli.relaxation_experiment", "experiments"),
    ("nlkuramoto.cli.sweep_epsilon", "experiments"),
    ("nlkuramoto.cli.sweep_delta", "experiments"),
    ("nlkuramoto.cli.run_invariant_suite", "experiments"),
    ("nlkuramoto.cli.simulate", "run.simulate"),
    ("nlkuramoto.experiments.simulate", "run.simulate"),
    ("nlkuramoto.cli.build_operators", "run.build_operators"),
    ("nlkuramoto.run.build_operators", "run.build_operators"),
    ("nlkuramoto.experiments.build_operators", "run.build_operators"),
    ("nlkuramoto.run.assemble_kernel_matrix", "kernel.assemble"),
    ("nlkuramoto.experiments.assemble_kernel_matrix", "kernel.assemble"),
    ("nlkuramoto.run.rhs_singular", "dynamics.rhs"),
    ("nlkuramoto.run.rhs_regularized", "dynamics.rhs"),
    ("nlkuramoto.run.rhs_lattice", "dynamics.rhs"),
    ("nlkuramoto.integrate.step", "integrate.step"),
    ("nlkuramoto.run.integrate_flow:make_record", "diagnostics.record"),
    ("nlkuramoto.experiments.uniform_bound_report", "diagnostics.bounds"),
    ("nlkuramoto.cli.poincare_sharp_discrete", "diagnostics.poincare"),
    ("nlkuramoto.experiments.poincare_sharp_discrete", "diagnostics.poincare"),
    ("nlkuramoto.cli.write_run_outputs", "output.write"),
    ("nlkuramoto.cli.write_sweep_outputs", "output.write"),
)


def resolve(entry: str):
    """Return (module, attribute, function, wrapped argument or None) for an entry.

    Raises LookupError naming the entry when the module, the attribute or the
    argument no longer exists, so a renamed entry point cannot record zero.
    """
    target, _, arg = entry.partition(":")
    modname, _, attr = target.rpartition(".")
    try:
        module = importlib.import_module(modname)
    except ImportError as exc:
        raise LookupError(f"trace table entry {entry!r}: cannot import {modname}") from exc
    fn = getattr(module, attr, None)
    if not callable(fn):
        raise LookupError(f"trace table entry {entry!r}: {modname} has no function {attr}")
    if arg and arg not in inspect.signature(fn).parameters:
        raise LookupError(f"trace table entry {entry!r}: {attr} takes no argument {arg}")
    return module, attr, fn, arg or None


class Tracer:
    """Spans kept in memory: (name, parent index or -1, start, end)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, clock())
                stack.pop()

        return traced

    def wrap_argument(self, fn, arg: str, name: str):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def patched(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments[arg] = self.wrap(bound.arguments[arg], name)
            return fn(*bound.args, **bound.kwargs)

        return patched

    def install(self, table=TRACE_TABLE) -> None:
        resolved = [(resolve(entry), name) for entry, name in table]
        for (module, attr, fn, arg), name in resolved:
            patched = self.wrap_argument(fn, arg, name) if arg else self.wrap(fn, name)
            setattr(module, attr, patched)


def setup_main(config: str, overrides_json: str) -> int:
    start = time.perf_counter()
    import nlkuramoto
    from nlkuramoto import config as config_mod
    from nlkuramoto import run as run_mod

    overrides = {tuple(key.split(".", 1)): value
                 for key, value in json.loads(overrides_json).items()}
    cfg = config_mod.apply_overrides(config_mod.parse_config(config), overrides)
    run_mod.build_operators(cfg)
    elapsed = time.perf_counter() - start

    from nlkuramoto.output import platform_fingerprint
    print(json.dumps({"setup_s": elapsed, "package": nlkuramoto.__file__,
                      "platform": platform_fingerprint()}))
    return 0


def trace_main(spans_path: str, cli_args: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from nlkuramoto.cli import main
    from nlkuramoto.output import platform_fingerprint

    code = 1  # what the interpreter returns if main raises
    try:
        code = main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"exit": code, "platform": platform_fingerprint(),
                       "spans": tracer.spans}, fh)
    return code


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "setup":
        return setup_main(argv[1], argv[2])
    if len(argv) >= 3 and argv[0] == "trace" and argv[2] == "--":
        return trace_main(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
