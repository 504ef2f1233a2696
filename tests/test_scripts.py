"""The study scripts import from the package's top level; each must start."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("run_reference_sweeps.py", "run_relaxation_study.py", "run_refinement_study.py")


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_help_exits_0(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
