import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import pytest

import nlkuramoto
import nlkuramoto.diagnostics as diagnostics
import nlkuramoto.experiments as experiments
import nlkuramoto.run as run
from nlkuramoto.cli import main
from nlkuramoto.config import OUTPUT_FORMATS, apply_overrides, parse_config

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


@pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
def test_simulate_writes_each_format_alone(tmp_path, capsys, fmt):
    pattern = {"csv": "diagnostics.csv", "manifest": "manifest.json",
               "snapshots": "snapshot_*.bin"}[fmt]
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), "--set", f"output.formats={fmt}"]) == 0
    names = [path.name for path in (tmp_path / "run_out").iterdir()]
    assert names and all(fnmatch(name, pattern) for name in names)


@pytest.mark.parametrize("content,problem", [
    ("1 2 x", "could not convert string 'x'"),
    (None, "Is a directory"),
    ("nan 0 0 0", "4 values, 3 finite, for a grid with 4 nodes"),
], ids=["malformed", "directory", "non-finite"])
def test_a_bad_frequency_file_exits_2(tmp_path, capsys, content, problem):
    nu_path = tmp_path / "nu"
    if content is None:
        nu_path.mkdir()
    else:
        nu_path.write_text(content + "\n")
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), "--model", "lattice", "--nodes", "4",
                 "--set", f"physics.nu_file={nu_path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:\n  physics.nu_file: ") and problem in err
    assert not (tmp_path / "run_out").exists()


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "\n[physics]\ns = 1.2\n")
    assert main(["simulate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "physics.s" in err and "(0, 1)" in err


@pytest.mark.parametrize("flags,problem", [
    (["--set", "foo"], "--set expects SECTION.KEY=VALUE, got 'foo'"),
    (["--kind", "spiral"], "initial.kind: must be one of ('constant', 'smooth', 'random', "
                           "'two_cluster'), got 'spiral'"),
    (["--set", "output.formats=csv,pdf"], "output.formats: unknown format 'pdf', "
                                          "choose from ('csv', 'manifest', 'snapshots')"),
    (["--set", "grid.extent=1 0"], "grid.extent: degenerate interval (1.0, 0.0)"),
    (["--kind", "random", "--seed", "-3"], "initial.seed: must be nonnegative, got -3"),
], ids=["set-without-key", "unknown-kind", "unknown-format", "degenerate-extent",
        "negative-seed"])
def test_each_refusal_exits_2_with_its_message(tmp_path, capsys, flags, problem):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), *flags]) == 2
    assert capsys.readouterr().err == f"configuration error:\n  {problem}\n"
    assert not (tmp_path / "run_out").exists()


@pytest.mark.parametrize("command,extent", [
    ("poincare", "0 1e300"), ("poincare", "0 1e160"), ("verify", "0 1e300"),
    ("simulate", "0 1e-300"), ("poincare", "0 1e-170"),
], ids=["poincare-1e300", "poincare-1e160", "verify-1e300", "simulate-1e-300",
        "poincare-1e-170"])
def test_a_grid_beyond_the_double_range_exits_2(tmp_path, capsys, command, extent):
    # before the refusal: a ZeroDivisionError or SingularityError traceback
    # (exit 1), or a verify whose every check passed on all-zero kernel weights
    assert main([command, str(CONFIGS / "relaxation_quarter_circle.cfg"), "--nodes", "8",
                 "--set", f"grid.extent={extent}",
                 "--set", f"output.directory={tmp_path / 'run_out'}"]) == 2
    problems = capsys.readouterr().err.splitlines()
    assert problems[0] == "configuration error:" and len(problems) == 2
    assert problems[1].startswith("  grid.extent: the kernel weights and squared node "
                                  "distances span 1e")
    assert problems[1].endswith(", beyond the double range")
    assert not (tmp_path / "run_out").exists()


def test_a_grid_beyond_the_double_range_is_listed_with_the_other_problems(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), "--set", "grid.extent=0 1e300",
                 "--set", "physics.kappa=-1"]) == 2
    assert capsys.readouterr().err == (
        "configuration error:\n"
        "  grid.extent: the kernel weights and squared node distances span 1e-600 to "
        "1e600, beyond the double range\n"
        "  physics.kappa: must be nonnegative, got -1.0\n")


def test_an_overflowing_extent_is_refused_with_its_span(tmp_path, capsys):
    # b - a is inf here: the message read "span 1e-inf to 1einf"
    assert main(["poincare", str(CONFIGS / "relaxation_quarter_circle.cfg"), "--nodes", "8",
                 "--set", "grid.extent=-1e308 1e308"]) == 2
    assert capsys.readouterr().err == (
        "configuration error:\n"
        "  grid.extent: the kernel weights and squared node distances span 1e-617 to "
        "1e617, beyond the double range\n")


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
    # the steps taken before the blow-up, not the 80 the run was set for
    assert manifest["n_steps"] == manifest["counters"]["steps"] < 80
    assert manifest["wall_clock_s"] > 0.0


def test_sweep_blow_up_exits_3_with_the_rung_partial_outputs(tmp_path, capsys):
    # dt = 0.089, 12x past the stable step, destabilizes the damping of delta = 0.4 only
    cfg = write_cfg(tmp_path, BASE)
    code = main(["sweep-delta", str(cfg), "--ladder", "0.4,0.1", "--kappa", "0.05",
                 "--kind", "random", "--seed", "3", "--horizon", "60", "--stride", "10",
                 "--dt", "0.089"])
    assert code == 3
    assert "rung 0 (value 0.4) blew up" in capsys.readouterr().err
    # the partial outputs go to the rung's own directory
    manifest = json.loads((tmp_path / "run_out" / "rung_0" / "manifest.json").read_text())
    assert manifest["termination"] == "blow-up"
    assert manifest["config"]["physics"]["delta"] == 0.4
    assert len((tmp_path / "run_out" / "rung_0" / "diagnostics.csv").read_text()
               .splitlines()) > 2


def test_a_sweep_blow_up_writes_every_rung_partial_outputs(tmp_path, capsys):
    # rung 0 (delta = 0.4) blows up at step 425; rung 1 stepped beside it to
    # the same last record, so it too gets its partial CSV and manifest
    out = tmp_path / "sweep"
    code = main(["sweep-delta", str(CONFIGS / "relaxation_quarter_circle.cfg"),
                 "--ladder", "0.4,0.1", "--kappa", "0.05", "--kind", "random", "--seed", "3",
                 "--diameter", "2.0", "--nodes", "24", "--horizon", "60", "--stride", "10",
                 "--dt", "0.089", "--scheme", "rk4",
                 "--set", "output.formats=csv,manifest,snapshots", "--out", str(out)])
    assert code == 3
    first, *written = capsys.readouterr().err.splitlines()
    message = first.removeprefix("numerical blow-up: ")
    assert message.startswith("rung 0 (value 0.4) blew up: non-finite state at t = ")
    assert written == [f"partial outputs written to {(out / f'rung_{j}').resolve()}"
                       for j in (0, 1)]
    for j, delta in enumerate((0.4, 0.1)):
        rung = out / f"rung_{j}"
        manifest = json.loads((rung / "manifest.json").read_text())
        assert manifest["termination"] == "blow-up" and manifest["notes"] == message
        assert manifest["config"]["physics"]["delta"] == delta
        # one record at t = 0 and one after every 10th step taken, as in rung 0
        records = manifest["counters"]["records"]
        assert 1 < records == manifest["n_steps"] // 10 + 1
        assert len((rung / "diagnostics.csv").read_text().splitlines()) == 1 + records
        assert len(list(rung.glob("snapshot_*.bin"))) == records
    assert not (out / "sweep_report.json").exists()


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


def test_verify_fails_on_a_violated_uniform_bound(tmp_path, capsys, monkeypatch):
    # one violated row fails the check and the command; the others still print
    real = experiments.uniform_bound_report

    def one_violated(traj):
        return [replace(row, satisfied=False) if row.name == "sin2-seminorm-bound" else row
                for row in real(traj)]
    monkeypatch.setattr(experiments, "uniform_bound_report", one_violated)
    assert main(["verify", str(write_cfg(tmp_path, BASE)), "--out", str(tmp_path / "v")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(("[pass]", "[skip]"))] == [
        "[FAIL] uniform-bounds: violated: sin2-seminorm-bound"]
    assert len(lines) == 7


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


def test_commands_never_load_numpy_random_or_openssl(tmp_path):
    # numpy.random (with secrets -> hashlib) and OpenSSL's libcrypto (_hashlib)
    # map about 6 MB resident that no step computes with: the seeded draws
    # take stdlib random and the content hash the interpreter's own SHA-256.
    # A fresh interpreter shows what the commands load.
    relax, sweep = (str(CONFIGS / name) for name in ("relaxation_quarter_circle.cfg",
                                                     "regularized_sweep_base.cfg"))
    commands = [["poincare", relax, "--nodes", "32"],
                ["relax", relax, "--nodes", "32", "--horizon", "0.05", "--kind", "random",
                 "--seed", "7", "--out", str(tmp_path / "relax")],
                ["sweep-eps", sweep, "--ladder", "0.4,0.2", "--nodes", "16", "--horizon", "0.05",
                 "--out", str(tmp_path / "sweep")]]
    script = ("import sys; from nlkuramoto.cli import main; "
              f"codes = [main(args) for args in {commands!r}]; "
              "print(codes, [m for m in ('numpy.random', 'secrets', '_hashlib') "
              "if m in sys.modules])")
    src = str(Path(nlkuramoto.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert (tmp_path / "relax" / "manifest.json").exists()  # which took a content hash


@pytest.mark.parametrize("flags,key", [
    (["simulate", "--dt", "1e-13"], "integrator.stride"),
    (["simulate", "--horizon", "1e300"], "integrator.stride"),
    (["simulate", "--horizon", "1e308", "--dt", "1e-10"], "integrator.stride"),
    (["poincare", "--dimension", "2", "--nodes", "10000000"], "grid.nodes"),
], ids=["small-dt", "long-horizon", "infinite-records", "large-grid"])
def test_a_run_too_large_for_memory_exits_2_before_any_allocation(tmp_path, capsys, flags,
                                                                  key):
    # each run needs more than a 47-bit address space: a refusal that no
    # longer fires fails at once with MemoryError, not after filling memory
    command, *flags = flags
    out = tmp_path / "out"
    code = main([command, str(CONFIGS / "relaxation_quarter_circle.cfg"), *flags,
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:\n") and "bytes of physical memory" in err
    assert key in err and not out.exists()


def test_relax_prices_a_record_with_its_report_row(tmp_path, capsys, monkeypatch):
    # relax also holds its report table, about 445 B a record where the other
    # commands hold 130: memory between the two prices refuses relax alone,
    # listed like its other problems, before any step
    path = CONFIGS / "relaxation_quarter_circle.cfg"
    cfg = apply_overrides(parse_config(path), {
        ("grid", "nodes"): "16", ("integrator", "horizon"): "0.5",
        ("integrator", "stride"): "1", ("physics", "delta"): "0.1"})
    records = len(run.family_step([cfg], [run.build_operators(cfg)]).times)
    physical = records * (run.RECORD_BYTES + run.RELAX_RECORD_BYTES) // 2
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PHYS_PAGES": physical,
                                                     "SC_PAGE_SIZE": 1}.get(name) or sysconf(name))
    flags = ["--nodes", "16", "--horizon", "0.5", "--stride", "1", "--delta", "0.1",
             "--out", str(tmp_path / "out")]
    assert main(["simulate", str(path), *flags]) == 0
    capsys.readouterr()

    def no_step(*args, **kwargs):
        raise AssertionError("relax stepped")
    monkeypatch.setattr(run, "integrate_flow", no_step)
    assert main(["relax", str(path), *flags]) == 2
    assert capsys.readouterr().err == (
        "configuration error:\n"
        "  relax: needs delta = 0 (undamped dynamics)\n"
        f"  relax: the run needs about {records * run.RELAX_RECORD_BYTES:.3g} bytes, more than "
        f"the {physical:,} bytes of physical memory: change integrator.stride, integrator.dt "
        "or integrator.horizon\n")


def test_unconverged_lambda_star_exits_3(monkeypatch, capsys):
    # one iteration cannot converge from the cosine start
    monkeypatch.setattr(diagnostics, "LOBPCG_MAX_ITER", 1)
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


def test_relax_skips_rows_below_the_rounding_floor(tmp_path, capsys):
    # at kappa = 200 the state reaches its rounded mean by t = 0.2: its spread
    # is a few ulps of the mean while the certified bound keeps falling, so
    # those rows are rounding and are not compared
    out = tmp_path / "k200"
    assert main(["relax", str(CONFIGS / "relaxation_quarter_circle.cfg"), "--kappa", "200",
                 "--nodes", "64", "--horizon", "0.2", "--out", str(out)]) == 0
    report = json.loads((out / "relaxation_report.json").read_text())
    assert report["pointwise_ok"] is True
    assert 0 < report["rows_below_floor"] < len(report["table"])
    assert f"{report['rows_below_floor']} rows below the rounding floor" in capsys.readouterr().out


def test_relax_reports_a_rate_the_fit_floor_leaves_unmeasurable(tmp_path, capsys):
    # at kappa = 200 every record after t = 0 reads dist_sq ~ 5e-61: the grid
    # leaves the fit three records at t >= horizon / 10, but none above its
    # 1e-28 floor.  The rate is not measurable, the outputs are written and
    # relax exits 1
    out = tmp_path / "floor"
    assert main(["relax", str(CONFIGS / "relaxation_quarter_circle.cfg"), "--kappa", "200",
                 "--nodes", "16", "--horizon", "0.2", "--scheme", "rk4", "--stride", "5187",
                 "--out", str(out)]) == 1
    assert ("rate bound: not measurable (dist_sq fell under the 1e-28 fit floor by "
            "t = 0.0666667)") in capsys.readouterr().out
    text = (out / "relaxation_report.json").read_text()
    report = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in strict JSON"))
    assert report["gamma_hat"] is None and report["fit_residual"] is None
    assert report["rate_ok"] is False and report["satisfied"] is False
    assert [row["t"] for row in report["table"]] == [0.0, 0.2 / 3, 0.4 / 3, 0.2]
    assert all(0.0 < row["dist_sq"] < 1e-28 for row in report["table"][1:])
    assert (out / "diagnostics.csv").exists() and (out / "manifest.json").exists()


@pytest.mark.parametrize("under", [False, True])
@pytest.mark.parametrize("command,extra", [
    ("simulate", ()), ("relax", ()), ("verify", ()), ("poincare", ()),
    ("sweep-delta", ("--ladder", "0.4,0.2")),
    ("sweep-eps", ("--ladder", "0.2,0.1", "--set", "physics.model=regularized",
                   "--set", "physics.epsilon=0.2", "--set", "physics.delta=0.1"))])
def test_an_output_directory_that_is_a_file_exits_2_before_any_step(tmp_path, capsys,
                                                                    monkeypatch, command,
                                                                    extra, under):
    cfg = write_cfg(tmp_path, BASE)
    blocker = tmp_path / "a_file"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    steps = []
    monkeypatch.setattr(run, "integrate_flow", lambda *args, **kwargs: steps.append(args))
    assert main([command, str(cfg), "--out", str(out), *extra,
                 "--set", "output.formats=csv manifest snapshots"]) == 2
    where = f"lies under {blocker}, a file" if under else "is a file"
    assert capsys.readouterr().err.splitlines() == ["configuration error:",
                                                    f"  output.directory: {out} {where}"]
    assert steps == [] and blocker.read_text() == "kept\n"


def test_snapshot_files_larger_than_the_free_disk_space_are_refused(tmp_path, capsys,
                                                                     monkeypatch):
    # one snapshot file of 24 doubles already exceeds the pretended 64 bytes free
    usage = shutil.disk_usage(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=64))
    cfg = write_cfg(tmp_path, BASE)
    steps = []
    with monkeypatch.context() as patch:
        patch.setattr(run, "integrate_flow", lambda *args, **kwargs: steps.append(args))
        assert main(["simulate", str(cfg), "--set",
                     "output.formats=csv manifest snapshots"]) == 2
    err = capsys.readouterr().err
    assert "integrator.stride (4)" in err and "integrator.horizon (0.3)" in err
    assert "drop 'snapshots' from output.formats" in err
    assert steps == [] and not list(tmp_path.rglob("snapshot_*.bin"))
    assert not (tmp_path / "run_out").exists()
    # without the snapshots format nothing is refused; the run's record count
    # gives the size the refusal named
    assert main(["simulate", str(cfg)]) == 0
    counters = json.loads((tmp_path / "run_out" / "manifest.json").read_text())["counters"]
    size = counters["records"] * (24 + 8 * 24)
    assert f"the snapshot files need {size:,} bytes, more than the 64 bytes free" in err


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


def test_relax_refuses_a_record_grid_the_rate_fit_cannot_use(tmp_path, capsys):
    # one stride past the horizon leaves the records at t = 0 and t = T: the
    # fit after its transient (t >= T / 10) would hold one point.  The run is
    # refused with its other problems, before any step
    out = tmp_path / "sparse"
    assert main(["relax", str(CONFIGS / "relaxation_quarter_circle.cfg"), "--nodes", "64",
                 "--horizon", "0.5", "--stride", "1000000", "--kappa", "0",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "configuration error:"
    assert "  relax: needs positive coupling strength" in err
    assert ("  relax: the decay-rate fit needs two records at t >= 0.1 x horizon; "
            "integrator.stride = 1000000 leaves 1 there (2 records in all): "
            "lower integrator.stride") in err
    assert not out.exists()


def test_commands_name_the_scheme_they_stepped_with(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE)
    assert main(["simulate", str(cfg), "--scheme", "auto"]) == 0
    assert "completed 90 rk4 steps (dt = 0.00333333) to t = 0.3" in capsys.readouterr().out
    relax = CONFIGS / "relaxation_quarter_circle.cfg"
    assert main(["relax", str(relax), "--nodes", "64", "--horizon", "0.5",
                 "--out", str(tmp_path / "relax")]) == 0
    assert "adaptive rkc steps (" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "relax" / "manifest.json").read_text())
    assert manifest["scheme"] == "rkc" and manifest["stiffness_bound"] > 0.0
    # the sweep base config asks for auto; its ladder needs rkc
    sweep = CONFIGS / "regularized_sweep_base.cfg"
    assert main(["sweep-eps", str(sweep), "--ladder", "0.2,0.1", "--nodes", "48",
                 "--out", str(tmp_path / "sweep")]) == 0
    assert ("epsilon ladder: [0.2, 0.1], stepped together in 241 rkc steps (dt = 0.00829876)"
            in capsys.readouterr().out)
