import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (CSV_COLUMNS, RECORD_DTYPE, BlowUpError, ConfigurationError,
                        apply_overrides, build_manifest, build_operators,
                        energy_identity_residual, initial_field, mean_phase, parse_config,
                        read_diagnostics_csv, read_snapshot, simulate, sweep_epsilon,
                        truncation_functionals, write_diagnostics_csv, write_json,
                        write_run_outputs, write_snapshot, write_sweep_outputs)
from nlkuramoto.cli import main as cli_main
from nlkuramoto.integrate import stiffness_bound

from conftest import make_config, recorded_states

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def strict_json(path):
    """Parse a file as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def awkward_records(*times):
    # values chosen to stress shortest-round-trip printing; the fields past
    # the CSV's columns are NaN
    records = np.full(len(times), math.nan, RECORD_DTYPE)
    records["t"] = times
    for name, value in (("mean", -1.0 / 3.0), ("diameter", math.pi), ("e_pot", 0.1),
                        ("e_kin", 1e-300), ("seminorm_sq", 2.0 ** -52), ("dist_sq", 1.7e300),
                        ("dissipation_cum", 0.0)):
        records[name] = value
    return records


def test_csv_header_contract(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv(awkward_records(0.0), path)
    header = path.read_text().splitlines()[0]
    assert header == "t,mean,diameter,E_P,E_K,seminorm_sq,dist_sq,dissipation_cum,dual_bound"
    assert header.split(",") == list(CSV_COLUMNS)


def test_zero_step_run_writes_single_row(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv(awkward_records(0.0), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.0,")


def test_csv_round_trip_is_lossless(tmp_path):
    records = awkward_records(0.0, 0.1)
    path = tmp_path / "d.csv"
    write_diagnostics_csv(records, path)
    back = read_diagnostics_csv(path)
    path2 = tmp_path / "d2.csv"
    write_diagnostics_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()
    for a, b in zip(records, back):
        for name in ("t", "mean", "diameter", "e_pot", "e_kin", "seminorm_sq",
                     "dist_sq", "dissipation_cum"):
            assert a[name] == b[name]
        assert math.isnan(b["dual_bound"])


def test_csv_blank_lines_read_back_the_same_records(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv(awkward_records(0.0, 0.1), path)
    header, first, second = path.read_text().splitlines()
    blank = tmp_path / "blank.csv"
    blank.write_text(f"{header}\n{first}\n\n{second}\n\n")
    expect, back = read_diagnostics_csv(path), read_diagnostics_csv(blank)
    assert back.dtype == RECORD_DTYPE and back.tobytes() == expect.tobytes()


@pytest.mark.parametrize("width", [10, 8])
def test_csv_reader_refuses_a_row_of_another_width(tmp_path, width):
    # a tenth number would land in sin2_seminorm, and eight would leave a
    # field unset: either row is named by its line
    path = tmp_path / "d.csv"
    write_diagnostics_csv(awkward_records(0.0, 0.1), path)
    header, first, second = path.read_text().splitlines()
    row = ",".join((second.split(",") + ["1.0"])[:width])
    path.write_text(f"{header}\n{first}\n{row}\n")
    with pytest.raises(ValueError) as err:
        read_diagnostics_csv(path)
    assert str(err.value) == f"{path}, line 3: {width} fields, the header has 9"


def test_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_diagnostics_csv(path)


def test_snapshot_round_trip(tmp_path):
    values = np.random.default_rng(0).normal(size=16)
    path = tmp_path / "snap.bin"
    write_snapshot(path, 1, 16, 0.75, values)
    dim, n, t, back = read_snapshot(path)
    assert (dim, n, t) == (1, 16, 0.75)
    assert np.array_equal(back, values)
    # fixed header layout: dimension, nodes per axis, time as little-endian
    raw = path.read_bytes()
    assert struct.unpack_from("<qqd", raw, 0) == (1, 16, 0.75)
    assert len(raw) == 24 + 16 * 8


def test_snapshot_length_validation(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshot(path, 2, 4, 0.0, np.zeros(16))
    read_snapshot(path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_write_run_outputs(tmp_path):
    cfg = make_config(n=16, horizon=0.2, stride=2, nu=0.5,
                      formats=("csv", "manifest", "snapshots"),
                      directory=str(tmp_path / "run"))
    with recorded_states() as states:
        traj = simulate(cfg)
    paths = write_run_outputs(traj, wall_clock_s=0.12)
    assert paths["csv"].exists()
    assert paths["manifest"].exists()
    snaps = sorted(paths["snapshots"].glob("snapshot_*.bin"))
    assert len(snaps) == len(traj.records)

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["config_hash"] == cfg.content_hash()
    assert manifest["termination"] == "completed"
    n_steps = round(0.2 / traj.dt)
    assert manifest["n_steps"] == n_steps
    assert manifest["counters"] == {"steps": n_steps, "rejected_steps": 0,
                                    "rhs_evals": 4 * n_steps + 1,
                                    "records": len(traj.records)}
    assert set(manifest["platform"]) == {"python", "numpy", "system", "machine"}
    assert set(manifest) == {"config", "config_hash", "artifact_version", "platform",
                             "termination", "n_steps", "dt", "scheme", "stiffness_bound",
                             "wall_clock_s", "counters", "margins"}
    # the scheme stepped with, and the bound rho that set the automatic dt
    ops = build_operators(cfg)
    rho = stiffness_bound(ops.coupling, ops.dissipation, cfg.physics.kappa, cfg.physics.delta)
    assert manifest["scheme"] == "rk4" and manifest["stiffness_bound"] == rho > 0.0
    assert manifest["dt"] <= cfg.integrator.safety / rho
    times, means, diameters = (traj.records[name].tolist() for name in ("t", "mean", "diameter"))
    assert manifest["margins"] == {
        "max_abs_mean": max(abs(m) for m in means),
        "worst_diameter_slope": max((db - da) / (tb - ta) for (da, ta), (db, tb)
                                    in zip(zip(diameters, times), zip(diameters[1:], times[1:]))),
        "energy_identity_residual": energy_identity_residual(traj),
        "worst_truncation_overshoot": max(truncation_functionals(traj)),
    }
    # a contracting run: its margins sit inside the invariant suite's tolerances
    assert manifest["margins"]["max_abs_mean"] <= 1e-10
    assert manifest["margins"]["worst_diameter_slope"] <= 1e-8
    assert manifest["margins"]["worst_truncation_overshoot"] <= 1e-16

    back = read_diagnostics_csv(paths["csv"])
    assert len(back) == len(traj.records)
    assert back["dist_sq"][-1] == traj.records["dist_sq"][-1]

    # snapshots store the physical field: gauge shift and drift reapplied
    _, _, t_last, values = read_snapshot(snaps[-1])
    assert t_last == traj.records["t"][-1]
    theta_bar = mean_phase(initial_field("smooth", traj.grid, diameter=1.0), traj.grid)
    assert np.array_equal(values, states.of()[0, -1] + theta_bar + 0.5 * t_last)


@pytest.mark.parametrize("sub", ["", "sub"])
def test_a_snapshot_run_refuses_an_output_directory_that_is_a_file(tmp_path, sub):
    # refused before any step with the path named, not left to mkdir
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    cfg = make_config(n=16, horizon=0.2, formats=("snapshots",), directory=str(out))
    with recorded_states() as states, pytest.raises(ConfigurationError) as err:
        simulate(cfg)
    where = f"lies under {blocker}, a file" if sub else "is a file"
    assert err.value.problems == [f"output.directory: {out} {where}"] and states == []


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_format_round_trips_every_double(x):
    from nlkuramoto.output import format_number
    assert float(format_number(x)) == x


def test_blow_up_manifest_margins_with_one_record():
    # dt = 0.5 is far past the stable step: the run blows up before its first
    # record after t = 0, so no diameter slope exists
    cfg = make_config(n=64, kappa=0.0, delta=1.0, kind="random", seed=3, diameter=2.0,
                      horizon=30.0, dt=0.5, stride=50)
    with pytest.raises(BlowUpError) as err:
        simulate(cfg)
    partial = err.value.trajectory
    assert len(partial.records) == 1
    margins = build_manifest(partial)["margins"]
    assert margins["worst_diameter_slope"] is None
    assert margins["energy_identity_residual"] == 0.0
    assert margins["worst_truncation_overshoot"] == 0.0


def test_a_blow_up_manifest_is_strict_json(tmp_path, capsys):
    # past the stable step the state's squares overflow before it goes
    # non-finite, so the overshoot margin is infinite: it is written as null.
    # rk4 needs 400 rate evaluations here, so scheme = auto keeps rk4
    out = tmp_path / "blow"
    assert cli_main(["simulate", str(CONFIGS / "regularized_sweep_base.cfg"), "--nodes", "64",
                     "--dt", "3", "--horizon", "300", "--delta", "1", "--out", str(out)]) == 3
    manifest = strict_json(out / "manifest.json")
    assert manifest["termination"] == "blow-up" and manifest["scheme"] == "rk4"
    assert manifest["config"]["integrator"]["scheme"] == "auto"
    assert manifest["margins"]["worst_truncation_overshoot"] is None
    assert math.isfinite(manifest["margins"]["max_abs_mean"])


def test_a_nan_in_a_blow_ups_records_makes_its_margin_null():
    # dt = 3 blows up at step 30; the t = 60 record has E_K = nan and an
    # infinite dissipation, so the energy-identity residual is not finite: it
    # is written as null, not as the largest of the finite defects
    cfg = apply_overrides(parse_config(CONFIGS / "regularized_sweep_base.cfg"),
                          {("grid", "nodes"): "64", ("integrator", "dt"): "3",
                           ("integrator", "horizon"): "300", ("physics", "delta"): "1"})
    with pytest.raises(BlowUpError) as err:
        simulate(cfg)
    records = err.value.trajectory.records
    assert records["t"].tolist() == [0.0, 60.0] and math.isnan(records["e_kin"][-1])
    assert records["dissipation_cum"][-1] == math.inf
    margins = build_manifest(err.value.trajectory)["margins"]
    assert margins["energy_identity_residual"] is None
    assert math.isfinite(margins["max_abs_mean"])


def test_a_refused_json_write_leaves_the_file_as_it_was(tmp_path):
    # the text streams into a temporary beside the file, which is removed
    path = tmp_path / "report.json"
    write_json({"margin": 1.0}, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_json({"a": 1.0, "margin": math.nan}, path)
    assert path.read_bytes() == before == b'{\n  "margin": 1.0\n}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    with pytest.raises(ValueError):
        write_json({"margin": value}, tmp_path / "bad.json")
    write_json({"margin": None}, tmp_path / "good.json")
    assert strict_json(tmp_path / "good.json") == {"margin": None}


def test_manifest_hash_reproducible():
    cfg = make_config(n=16, horizon=0.01)
    a = build_manifest(simulate(cfg))
    b = build_manifest(simulate(cfg))
    assert a["config_hash"] == b["config_hash"] == cfg.content_hash()


def test_sweep_outputs(tmp_path):
    base = make_config(n=16, model="regularized", epsilon=0.2, delta=0.1,
                       kind="smooth", diameter=1.0, horizon=0.2, stride=4,
                       directory=str(tmp_path / "sweep"))
    sweep = sweep_epsilon(base, [0.2, 0.1, 0.05, 0.025])
    paths = write_sweep_outputs(sweep)
    for j, rung in enumerate(sweep.rungs):
        # each rung's config carries its own directory
        rung_dir = paths[f"rung_{j}"]
        assert rung_dir == tmp_path / "sweep" / f"rung_{j}"
        assert rung.config.output.directory == str(rung_dir)
        assert (rung_dir / "diagnostics.csv").exists()
        manifest = json.loads((rung_dir / "manifest.json").read_text())
        # the rungs step as one batched system and share its counters
        assert manifest["counters"] == {**asdict(sweep.rungs[0].counters),
                                        "records": len(rung.records)}
        assert manifest["n_steps"] == manifest["counters"]["steps"] == round(0.2 / rung.dt)
        assert manifest["counters"]["records"] == len(rung.records)
        assert set(manifest["margins"]) == {"max_abs_mean", "worst_diameter_slope",
                                            "energy_identity_residual",
                                            "worst_truncation_overshoot"}
        # each rung's own bound; the stiffest rung's sets the shared step
        assert manifest["scheme"] == rung.config.integrator.scheme == "rk4"
        assert manifest["stiffness_bound"] == rung.stiffness
        assert rung.dt <= base.integrator.safety / rung.stiffness
    assert sweep.rungs[-1].stiffness == max(rung.stiffness for rung in sweep.rungs)
    report = json.loads(paths["report"].read_text())
    assert paths["report"] == tmp_path / "sweep" / "sweep_report.json"
    assert report["parameter"] == "epsilon"
    assert len(report["rungs"]) == 4
    assert len(report["successive_differences"]) == 3


def test_sweep_rungs_write_what_their_lone_runs_write(tmp_path):
    # each rung directory follows output.formats and holds exactly the files
    # a lone run of the rung's config writes
    base = make_config(n=16, model="regularized", epsilon=0.2, delta=0.1, kind="random",
                       seed=5, diameter=2.0, horizon=0.1, stride=5,
                       formats=("csv", "manifest", "snapshots"),
                       directory=str(tmp_path / "sweep"))
    sweep = sweep_epsilon(base, [0.2, 0.1])
    paths = write_sweep_outputs(sweep, wall_clock_s=0.5)
    for j, rung in enumerate(sweep.rungs):
        # the rung's files moved aside, its config run alone writes them anew
        swept = paths[f"rung_{j}"].rename(tmp_path / f"swept_{j}")
        write_run_outputs(simulate(rung.config), wall_clock_s=0.5)
        alone = paths[f"rung_{j}"]
        names = sorted(path.name for path in swept.iterdir())
        assert names == sorted(path.name for path in alone.iterdir())
        assert sum(name.startswith("snapshot_") for name in names) == len(rung.records) > 2
        for name in names:
            assert (swept / name).read_bytes() == (alone / name).read_bytes()
