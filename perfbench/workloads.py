"""The benchmark's workloads and the gate that checks their answers.

Each workload is one ``nlkuramoto`` CLI command.  Its overrides are written
once, as ``section.key`` config keys: the CLI receives them as ``--set``
flags and the set-up probe applies them with ``config.apply_overrides``, so
both build the same operators.

The gate turns one CLI invocation into named checks: the exit code, every
certificate the command reports, and the seed-independent answers pinned in
``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# lambda_star is an eigenvalue solved to a 1e-11 residual: any correct solver
# reproduces it far below this.  The sweep differences are trajectory
# quantities: a different stepper of the same accuracy meets 1e-3.
OPERATOR_RTOL = 1e-9
TRAJECTORY_RTOL = 1e-3
# slack the CLI itself allows on 1/lambda_star <= C_P_domain
DOMAIN_SLACK = 1e-9


def _close(value: float, pinned: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - pinned) <= rtol * abs(pinned)


def _domain_ok(lambda_star: float, c_p_domain: float) -> bool:
    return lambda_star > 0.0 and 1.0 / lambda_star <= c_p_domain * (1.0 + DOMAIN_SLACK)


def check_relax(outdir: Path, stdout: str, pinned: dict) -> list[tuple[str, bool]]:
    report = json.loads((outdir / "relaxation_report.json").read_text())
    lam = float(report["lambda_star"])
    return [
        ("pointwise_ok", report["pointwise_ok"] is True),
        ("rate_ok", report["rate_ok"] is True),
        ("lambda_star<=C_P_domain", _domain_ok(lam, float(report["c_p_domain"]))),
        ("lambda_star=pinned", _close(lam, pinned["lambda_star"], OPERATOR_RTOL)),
    ]


def check_sweep(outdir: Path, stdout: str, pinned: dict) -> list[tuple[str, bool]]:
    report = json.loads((outdir / "sweep_report.json").read_text())
    diffs = [float(d) for d in report["successive_differences"]]
    expected = pinned["successive_differences"]
    checks = [("decreasing", report["decreasing"] is True),
              ("bounds_ok", report["bounds_ok"] is True),
              ("rungs=pinned", len(diffs) == len(expected))]
    checks += [(f"difference_{j}=pinned", _close(d, e, TRAJECTORY_RTOL))
               for j, (d, e) in enumerate(zip(diffs, expected))]
    return checks


def _printed(stdout: str, label: str) -> float:
    """Value of the line ``label = <number>`` the poincare command prints."""
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key.strip() == label:
            return float(value)
    raise ValueError(f"no '{label} = ...' line in the command's output")


def check_poincare(outdir: Path, stdout: str, pinned: dict) -> list[tuple[str, bool]]:
    lam = _printed(stdout, "lambda_star")
    return [
        ("lambda_star<=C_P_domain", _domain_ok(lam, _printed(stdout, "C_P_domain"))),
        ("lambda_star=pinned", _close(lam, pinned["lambda_star"], OPERATOR_RTOL)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # relative to the checkout root
    overrides: dict  # "section.key" -> value, before the seed is applied
    extra_args: tuple
    seeded: bool  # whether --seed reaches the initial data
    check_answers: Callable[[Path, str, dict], list]

    @property
    def node_count(self) -> int:
        """N, the size of every kernel matrix the run assembles."""
        return int(self.overrides["grid.nodes"]) ** int(self.overrides["grid.dimension"])

    def config_overrides(self, seed: int) -> dict:
        overrides = dict(self.overrides)
        if self.seeded:
            overrides["initial.seed"] = str(seed)
        return overrides

    def cli_args(self, seed: int, outdir: Path) -> list[str]:
        args = [self.command, self.config, *self.extra_args]
        for key, value in self.config_overrides(seed).items():
            args += ["--set", f"{key}={value}"]
        return args + ["--set", f"output.directory={outdir}"]

    def check(self, exit_code: int, outdir: Path, stdout: str,
              reference: dict) -> list[tuple[str, bool]]:
        """Every check of one invocation; answers that cannot be read fail."""
        checks = [("exit_code=0", exit_code == 0)]
        try:
            checks += self.check_answers(outdir, stdout, reference[self.name])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            checks.append((f"answers readable ({type(exc).__name__}: {exc})", False))
        return checks


WORKLOADS = {w.name: w for w in (
    Workload(
        name="relax-1d",
        command="relax",
        config="configs/relaxation_quarter_circle.cfg",
        overrides={"grid.dimension": "1", "grid.nodes": "512", "integrator.horizon": "0.5",
                   "initial.kind": "random"},
        extra_args=(),
        seeded=True,
        check_answers=check_relax,
    ),
    Workload(
        name="sweep-eps-2d",
        command="sweep-eps",
        config="configs/regularized_sweep_base.cfg",
        overrides={"grid.dimension": "2", "grid.nodes": "24", "integrator.horizon": "1",
                   "integrator.stride": "1"},
        extra_args=("--ladder", "0.2,0.1,0.05,0.025"),
        seeded=False,
        check_answers=check_sweep,
    ),
    Workload(
        name="poincare-2d",
        command="poincare",
        config="configs/relaxation_quarter_circle.cfg",
        overrides={"grid.dimension": "2", "grid.nodes": "56"},
        extra_args=(),
        seeded=False,
        check_answers=check_poincare,
    ),
)}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())
