"""Benchmark of the ``nlkuramoto`` CLI on fixed workloads.

    python3 perfbench/bench.py --workload relax-1d [--seed 1] [--seconds 36] [--trace 0]
    python3 perfbench/bench.py --workload all

Run from anywhere; it works on the checkout it lives in.  Every CLI
invocation runs in a fresh interpreter with BLAS pinned to one thread and a
fresh output directory that is removed afterwards.  Each invocation's answers
go through the gate in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics over ``--seconds`` seconds of
rounds, each of SETUP_PER_ROUND fresh set-up probes and one untraced
invocation: the median wall time and peak resident memory of the
invocations, the median set-up time of the probes, and the share of checks
that passed.  ``--trace 1`` makes the same invocations without the probes,
then one traced invocation, and reports the per-layer metrics from its
spans.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A checkout the
benchmark cannot run in exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, load_reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).with_name("probe.py")
TMP_ROOT = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_PER_ROUND = 10
RUN_BUDGET_S = 170.0  # a run, set-up and trace included, must end within 180 s
BLAS_THREADS = "1"


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["MKL_NUM_THREADS"] = BLAS_THREADS
    return env


@dataclass(frozen=True)
class Finished:
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


def run_child(args: list[str], workdir: Path, deadline: float) -> Finished:
    """Run ``python3 ARGS`` from the checkout root and wait for it.

    The wall time runs from just before the interpreter is started until it
    has exited; the peak resident memory is that process's own, from wait4.
    A child still running at ``deadline`` (time.monotonic) is killed.
    """
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    status = None
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        if status is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(exit_code=proc.returncode, wall_s=wall,
                    peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
                    stdout=out_path.read_text(errors="replace"),
                    stderr=err_path.read_text(errors="replace"),
                    timed_out=not ready)


def setup_sample(workload: Workload, seed: int, deadline: float) -> dict:
    workdir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        done = run_child([str(PROBE), "setup", workload.config,
                          json.dumps(workload.config_overrides(seed))], workdir, deadline)
    finally:
        shutil.rmtree(workdir)
    if done.exit_code != 0:
        raise BenchError(f"set-up probe failed (exit {done.exit_code}):\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported nlkuramoto from {result['package']}, not from {SRC}")
    return result


@dataclass(frozen=True)
class Invocation:
    finished: Finished
    checks: list
    trace: dict | None
    output_files: int
    output_bytes: int


def invoke(workload: Workload, seed: int, reference: dict, deadline: float,
           traced: bool = False) -> Invocation:
    workdir = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        outdir = workdir / "out"
        spans_path = workdir / "spans.json"
        cli = workload.cli_args(seed, outdir)
        args = ([str(PROBE), "trace", str(spans_path), "--", *cli] if traced
                else ["-m", "nlkuramoto.cli", *cli])
        done = run_child(args, workdir, deadline)
        checks = workload.check(done.exit_code, outdir, done.stdout, reference)
        files = [p for p in outdir.rglob("*") if p.is_file()] if outdir.exists() else []
        trace = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
        return Invocation(done, checks, trace, len(files), sum(p.stat().st_size for p in files))
    finally:
        shutil.rmtree(workdir)


def measure(workload, seed, seconds, reference, deadline, setup_per_round):
    """Rounds of ``setup_per_round`` set-up probes and one untraced invocation.

    At least MIN_ROUNDS rounds; after those, another round starts while at
    least half a round's time is left, so the run ends about ``seconds``
    seconds after it began, within half a round either way.  Interleaving spreads both kinds of sample over the
    whole run, so a slow spell of the machine weighs on both alike.
    Returns (invocations, set-up samples).
    """
    runs, setup, rounds = [], [], []
    stop = time.monotonic() + seconds
    while len(rounds) < MIN_ROUNDS or time.monotonic() + statistics.median(rounds) / 2 <= stop:
        start = time.monotonic()
        setup += [setup_sample(workload, seed, deadline) for _ in range(setup_per_round)]
        runs.append(invoke(workload, seed, reference, deadline))
        rounds.append(time.monotonic() - start)
        if runs[-1].finished.timed_out:
            break
    return runs, setup


def layer_metrics(inv: Invocation, workload: Workload, untraced_wall_s: float) -> dict:
    """Per-layer metrics from one traced invocation's spans.

    A span's self time is its duration minus the durations of its direct
    children.
    """
    spans = inv.trace["spans"]
    child_s = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls, total_s, self_s = Counter(), defaultdict(float), defaultdict(float)
    rhs_us = []
    for (name, _, start, end), inner in zip(spans, child_s):
        calls[name] += 1
        total_s[name] += end - start
        self_s[name] += end - start - inner
        if name == "dynamics.rhs":
            rhs_us.append((end - start) * 1e6)
    n = workload.node_count
    steps = calls["integrate.step"]
    traced_wall = inv.finished.wall_s
    values = {
        "kernel.assemble_calls": (calls["kernel.assemble"], "count"),
        "kernel.assemble_s": (total_s["kernel.assemble"], "s"),
        "kernel.assembled_mb": (calls["kernel.assemble"] * n * n * 8 / 1e6, "MB"),
        "run.build_operators_calls": (calls["run.build_operators"], "count"),
        "run.simulate_self_s": (self_s["run.simulate"], "s"),
        "dynamics.rhs_calls": (calls["dynamics.rhs"], "count"),
        "dynamics.rhs_s": (total_s["dynamics.rhs"], "s"),
        "dynamics.rhs_us_p50": (statistics.median(rhs_us) if rhs_us else 0.0, "us"),
        "integrate.steps": (steps, "count"),
        "integrate.step_self_s": (self_s["integrate.step"], "s"),
        "integrate.rhs_per_step": (calls["dynamics.rhs"] / steps if steps else 0.0, "ratio"),
        "diagnostics.records": (calls["diagnostics.record"], "count"),
        "diagnostics.record_s": (total_s["diagnostics.record"], "s"),
        "diagnostics.bounds_s": (total_s["diagnostics.bounds"], "s"),
        "diagnostics.poincare_calls": (calls["diagnostics.poincare"], "count"),
        "diagnostics.poincare_s": (total_s["diagnostics.poincare"], "s"),
        "experiments.self_s": (self_s["experiments"], "s"),
        "output.write_s": (total_s["output.write"], "s"),
        "output.bytes": (inv.output_bytes, "B"),
        "output.files": (inv.output_files, "count"),
        "config.load_s": (total_s["config.load"], "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall_s, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _print_failures(invocations: list[Invocation]) -> None:
    for k, inv in enumerate(invocations):
        for name, ok in inv.checks:
            if not ok:
                print(f"FAILED check {name} (invocation {k})", file=sys.stderr)
        if inv.finished.exit_code != 0:
            print(inv.finished.stderr[-2000:], file=sys.stderr)


def bench(workload: Workload, seed: int, seconds: int, traced: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    reference = load_reference()
    provenance = {"nproc": len(os.sched_getaffinity(0)),
                  "blas_threads": BLAS_THREADS, "seed": seed}

    warm = setup_sample(workload, seed, deadline)  # warms the file and bytecode caches
    provenance["platform"] = warm["platform"]
    runs, setup = measure(workload, seed, seconds, reference, deadline,
                          0 if traced else SETUP_PER_ROUND)
    wall = statistics.median(r.finished.wall_s for r in runs)
    invocations = list(runs)

    if traced:
        inv = invoke(workload, seed, reference, deadline, traced=True)
        invocations.append(inv)
        if inv.trace is None:
            _print_failures([inv])
            raise BenchError("the traced invocation wrote no spans")
        metrics = layer_metrics(inv, workload, wall)
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.finished.peak_rss_mb for r in runs),
                            "unit": "MB"},
        }
    attempted = sum(len(inv.checks) for inv in invocations)
    failed = sum(not ok for inv in invocations for _, ok in inv.checks)
    if not traced:
        metrics["pass_frac"] = {"value": 1.0 - failed / attempted, "unit": "fraction"}
    _print_failures(invocations)

    print(f"{workload.name}: {attempted - failed}/{attempted} checks passed")
    samples = {"wall_s": [r.finished.wall_s for r in runs],
               "setup_s": [s["setup_s"] for s in setup],
               "peak_rss_mb": [r.finished.peak_rss_mb for r in runs]}
    for name, metric in metrics.items():
        line = f"  {name:28s} {metric['value']:.6g} {metric['unit']}"
        if samples.get(name):
            values = samples[name]
            line += f"  (median of {len(values)}, {min(values):.4g} to {max(values):.4g})"
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def preflight(names) -> None:
    missing = [p for p in [SRC / "nlkuramoto" / "cli.py"]
               + [ROOT / WORKLOADS[n].config for n in names] if not p.is_file()]
    if missing:
        raise BenchError("not a checkout of nlkuramoto; missing "
                         + ", ".join(str(p) for p in missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds the initial data of relax-1d; the others ignore it")
    parser.add_argument("--seconds", type=int, default=36,
                        help="how long the untraced invocations are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % 2**32

    try:
        preflight(names)
        TMP_ROOT.mkdir(exist_ok=True)
        try:
            results = {name: bench(WORKLOADS[name], seed, args.seconds, bool(args.trace))
                       for name in names}
        finally:
            shutil.rmtree(TMP_ROOT, ignore_errors=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
