"""The study scripts import from the package's top level; each must start,
and each must run end to end on a small instance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("run_reference_sweeps.py", "run_relaxation_study.py", "run_refinement_study.py")


def run_script(script, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # the suite's own warning filters (pyproject.toml) hold in the scripts too
    warnings = ("-W", "error::DeprecationWarning", "-W", "error::FutureWarning",
                "-W", "error::RuntimeWarning")
    return subprocess.run([sys.executable, *warnings, str(ROOT / "scripts" / script), *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_exits_0(script):
    result = run_script(script, "--help")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script,args", [("run_relaxation_study.py", ("--nodes", "32")),
                                         ("run_refinement_study.py", ("--ladder", "16,32")),
                                         ("run_reference_sweeps.py", ())])
def test_script_runs_end_to_end(tmp_path, script, args):
    result = run_script(script, "--outdir", str(tmp_path / "out"), *args)
    assert result.returncode == 0, result.stdout + result.stderr
