import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (CSV_COLUMNS, DiagnosticsRecord, build_manifest, read_diagnostics_csv,
                        read_snapshot, simulate, sweep_epsilon, write_diagnostics_csv,
                        write_run_outputs, write_snapshot, write_sweep_outputs)

from conftest import make_config


def awkward_record(t):
    # values chosen to stress shortest-round-trip printing
    return DiagnosticsRecord(t=t, mean=-1.0 / 3.0, diameter=math.pi, e_pot=0.1,
                             e_kin=1e-300, seminorm_sq=2.0 ** -52, dist_sq=1.7e300,
                             dissipation_cum=0.0, dual_bound=float("nan"))


def test_csv_header_contract(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv([awkward_record(0.0)], path)
    header = path.read_text().splitlines()[0]
    assert header == "t,mean,diameter,E_P,E_K,seminorm_sq,dist_sq,dissipation_cum,dual_bound"
    assert header.split(",") == list(CSV_COLUMNS)


def test_zero_step_run_writes_single_row(tmp_path):
    path = tmp_path / "d.csv"
    write_diagnostics_csv([awkward_record(0.0)], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.0,")


def test_csv_round_trip_is_lossless(tmp_path):
    records = [awkward_record(0.0), awkward_record(0.1)]
    path = tmp_path / "d.csv"
    write_diagnostics_csv(records, path)
    back = read_diagnostics_csv(path)
    path2 = tmp_path / "d2.csv"
    write_diagnostics_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()
    for a, b in zip(records, back):
        for name in ("t", "mean", "diameter", "e_pot", "e_kin", "seminorm_sq",
                     "dist_sq", "dissipation_cum"):
            assert getattr(a, name) == getattr(b, name)
        assert math.isnan(b.dual_bound)


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
    traj = simulate(cfg)
    paths = write_run_outputs(traj, wall_clock_s=0.12)
    assert paths["csv"].exists()
    assert paths["manifest"].exists()
    snaps = sorted(paths["snapshots"].glob("snapshot_*.bin"))
    assert len(snaps) == len(traj.snapshots)

    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["config_hash"] == cfg.content_hash()
    assert manifest["termination"] == "completed"
    assert manifest["n_steps"] == traj.n_steps
    assert manifest["counters"] == {"steps": traj.n_steps, "rejected_steps": 0,
                                    "rhs_evals": 4 * traj.n_steps + 1,
                                    "records": len(traj.records)}
    assert set(manifest["platform"]) == {"python", "numpy", "system", "machine"}

    back = read_diagnostics_csv(paths["csv"])
    assert len(back) == len(traj.records)
    assert back[-1].dist_sq == traj.records[-1].dist_sq

    # snapshots store the physical field: gauge shift and drift reapplied
    _, _, t_last, values = read_snapshot(snaps[-1])
    assert t_last == traj.times[-1]
    assert np.array_equal(values, traj.physical_values(len(traj.snapshots) - 1))


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_number_format_round_trips_every_double(x):
    from nlkuramoto.output import format_number
    assert float(format_number(x)) == x


def test_manifest_hash_reproducible():
    cfg = make_config(n=16)
    a = build_manifest(cfg, status="completed")
    b = build_manifest(cfg, status="completed")
    assert a["config_hash"] == b["config_hash"]


def test_sweep_outputs(tmp_path):
    base = make_config(n=16, model="regularized", epsilon=0.2, delta=0.1,
                       kind="smooth", diameter=1.0, horizon=0.2, stride=4,
                       directory=str(tmp_path / "sweep"))
    sweep = sweep_epsilon(base, [0.2, 0.1, 0.05, 0.025])
    paths = write_sweep_outputs(sweep, base)
    for j in range(4):
        rung_dir = paths[f"rung_{j}"]
        assert (rung_dir / "diagnostics.csv").exists()
        manifest = json.loads((rung_dir / "manifest.json").read_text())
        # the rungs step as one batched system and share its counters
        assert manifest["counters"] == asdict(sweep.counters)
        assert manifest["counters"]["steps"] == sweep.rungs[j].n_steps
        assert manifest["counters"]["records"] == len(sweep.rungs[j].records)
    report = json.loads(paths["report"].read_text())
    assert report["parameter"] == "epsilon"
    assert len(report["rungs"]) == 4
    assert len(report["successive_differences"]) == 3
