import json
import math
from functools import partial
from pathlib import Path

import nlkuramoto.cli as cli
from nlkuramoto.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


BASE = """
[grid]
nodes = 24

[physics]
model = singular
kappa = 1.0

[initial]
kind = smooth
diameter = 1.0

[integrator]
horizon = 0.3
stride = 4

[output]
directory = {out}
formats = csv manifest
"""


def write_cfg(tmp_path, text, name="run.cfg", out="run_out"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return path


def test_simulate_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "completed" in out
    assert (tmp_path / "run_out" / "diagnostics.csv").exists()
    assert (tmp_path / "run_out" / "manifest.json").exists()


def test_flag_overrides_beat_file_values(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out2 = tmp_path / "override_out"
    assert main(["simulate", str(cfg), "--horizon", "0.1", "--stride", "2",
                 "--out", str(out2), "--set", "physics.kappa=0.5"]) == 0
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["integrator"]["horizon"] == 0.1
    assert manifest["config"]["physics"]["kappa"] == 0.5
    assert manifest["config"]["output"]["directory"] == str(out2)


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "\n[physics]\ns = 1.2\n")
    assert main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "physics.s" in err and "(0, 1)" in err


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2


def test_large_diameter_needs_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), "--diameter", "3.5"]) == 2
    err = capsys.readouterr().err
    assert "initial.diameter" in err and "pi" in err
    assert main(["simulate", str(cfg), "--diameter", "3.5",
                 "--allow-large-diameter", "--horizon", "0.05"]) == 0


def test_blow_up_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code = main(["simulate", str(cfg), "--set", "physics.delta=1.0",
                 "--set", "physics.kappa=0.0", "--dt", "0.5",
                 "--horizon", "40", "--nodes", "64", "--kind", "random",
                 "--seed", "3", "--diameter", "2.0"])
    assert code == 3
    captured = capsys.readouterr()
    assert "blow-up" in captured.err
    manifest = json.loads((tmp_path / "run_out" / "manifest.json").read_text())
    assert manifest["termination"] == "blow-up"


def test_sweep_blow_up_exits_3_with_the_rung_partial_outputs(tmp_path, capsys):
    # dt = 0.089, 12x past the stable step, destabilizes the damping of delta = 0.4 only
    cfg = write_cfg(tmp_path, BASE)
    code = main(["sweep-delta", str(cfg), "--ladder", "0.4,0.1", "--kappa", "0.05",
                 "--kind", "random", "--seed", "3", "--horizon", "60", "--stride", "10",
                 "--dt", "0.089"])
    assert code == 3
    assert "rung 0 (value 0.4) blew up" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "run_out" / "manifest.json").read_text())
    assert manifest["termination"] == "blow-up"
    assert manifest["config"]["physics"]["delta"] == 0.4
    assert len((tmp_path / "run_out" / "diagnostics.csv").read_text().splitlines()) > 2


def test_verify_passes_and_is_bitwise_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    out_a = tmp_path / "va"
    out_b = tmp_path / "vb"
    assert main(["verify", str(cfg), "--out", str(out_a)]) == 0
    assert main(["verify", str(cfg), "--out", str(out_b)]) == 0
    text = capsys.readouterr().out
    assert "[pass] mean-conservation" in text
    assert "[pass] diameter-monotone" in text
    assert "[pass] energy-monotone: E(0) = " in text and "identity residual" in text
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()


def test_verify_certifies_relaxation_above_1024_nodes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["verify", str(cfg), "--nodes", "2048", "--horizon", "0.002",
                 "--stride", "16"]) == 0
    assert "[pass] relaxation-pointwise: certified rate" in capsys.readouterr().out


def test_poincare_prints_constants(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["poincare", str(cfg), "--nodes", "32"]) == 0
    out = capsys.readouterr().out
    assert "C_P_domain = 1.0" in out
    lam = float(out.split("lambda_star = ")[1].splitlines()[0])
    assert lam > 1.0
    assert "ok" in out


def test_unconverged_lambda_star_exits_3(monkeypatch, capsys):
    # one iteration cannot converge from the cosine start
    monkeypatch.setattr(cli, "poincare_sharp_discrete",
                        partial(cli.poincare_sharp_discrete, max_iter=1))
    code = main(["poincare", str(CONFIGS / "relaxation_quarter_circle.cfg"), "--nodes", "64"])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: LOBPCG did not converge")


def test_poincare_exits_0_where_the_rounding_floor_decides(capsys):
    code = main(["poincare", str(CONFIGS / "relaxation_quarter_circle.cfg"),
                 "--nodes", "4096", "--set", "physics.s=0.95"])
    assert code == 0
    assert "1/lambda_star <= C_P_domain: ok" in capsys.readouterr().out


def test_relax_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["relax", str(cfg), "--diameter", str(math.pi / 2),
                 "--horizon", "1.0", "--stride", "8"]) == 0
    out = capsys.readouterr().out
    assert "certified rate" in out
    assert "pointwise bound: ok" in out
    report = json.loads((tmp_path / "run_out" / "relaxation_report.json").read_text())
    assert report["satisfied"] is True


def test_relax_manifest_records_wall_clock(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["relax", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "run_out" / "manifest.json").read_text())
    assert manifest["wall_clock_s"] > 0.0


def test_sweep_eps_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code = main(["sweep-eps", str(cfg), "--ladder", "0.2,0.1,0.05",
                 "--set", "physics.model=regularized",
                 "--set", "physics.epsilon=0.2",
                 "--set", "physics.delta=0.1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "successive differences" in out
    report = json.loads((tmp_path / "run_out" / "sweep_report.json").read_text())
    assert report["parameter"] == "epsilon"


def test_sweep_rung_manifests_record_wall_clock(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep-delta", str(cfg), "--ladder", "0.4 0.2"]) == 0
    for j in range(2):
        manifest = json.loads((tmp_path / "run_out" / f"rung_{j}" / "manifest.json").read_text())
        assert manifest["wall_clock_s"] > 0.0


def test_sweep_delta_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    code = main(["sweep-delta", str(cfg), "--ladder", "0.4 0.2 0.1"])
    assert code == 0
    report = json.loads((tmp_path / "run_out" / "sweep_report.json").read_text())
    assert report["parameter"] == "delta"
    assert len(report["rungs"]) == 3


def test_bad_ladder_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep-delta", str(cfg), "--ladder", "0.1,0.2"]) == 2
    assert main(["sweep-delta", str(cfg), "--ladder", "zebra"]) == 2


def test_failed_check_exits_1(tmp_path, capsys):
    # constant data makes every rung identical: the tied differences fail the
    # strict Cauchy-decrease check, which must surface as exit code 1
    cfg = write_cfg(tmp_path, BASE)
    code = main(["sweep-delta", str(cfg), "--ladder", "0.4,0.2,0.1",
                 "--kind", "constant"])
    assert code == 1
    assert "decreasing: False" in capsys.readouterr().out
