"""Result serialization: diagnostics CSV, snapshot binaries, run manifests.

Numbers are written as the shortest decimal that round-trips to the same
double, so a reparsed CSV reproduces the in-memory records exactly.  Snapshot
files carry a fixed binary header {dimension, nodes-per-axis, time} followed
by the node values as little-endian 64-bit floats.
"""

from __future__ import annotations

import json
import platform
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import SimConfig
from .diagnostics import DiagnosticsRecord
from .integrate import StepCounters

CSV_COLUMNS = ("t", "mean", "diameter", "E_P", "E_K", "seminorm_sq",
               "dist_sq", "dissipation_cum", "dual_bound")

_SNAPSHOT_HEADER = struct.Struct("<qqd")  # dimension, nodes per axis, time


def format_number(x) -> str:
    """Shortest decimal representation that round-trips the double."""
    return repr(float(x))


def _record_row(r: DiagnosticsRecord) -> str:
    fields = (r.t, r.mean, r.diameter, r.e_pot, r.e_kin, r.seminorm_sq,
              r.dist_sq, r.dissipation_cum, r.dual_bound)
    return ",".join(format_number(v) for v in fields)


def write_diagnostics_csv(records, path) -> None:
    path = Path(path)
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_record_row(r) for r in records)
    path.write_text("\n".join(lines) + "\n")


def read_diagnostics_csv(path) -> list[DiagnosticsRecord]:
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path} is not a diagnostics CSV (bad header)")
    records = []
    for line in lines[1:]:
        if not line:
            continue
        # the columns are the record's fields in order; sin2_seminorm stays NaN
        records.append(DiagnosticsRecord(*(float(v) for v in line.split(","))))
    return records


def write_snapshot(path, dim: int, n: int, t: float, values: np.ndarray) -> None:
    data = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(dim, n, float(t)))
        fh.write(data.tobytes())


def read_snapshot(path):
    raw = Path(path).read_bytes()
    dim, n, t = _SNAPSHOT_HEADER.unpack_from(raw, 0)
    values = np.frombuffer(raw, dtype="<f8", offset=_SNAPSHOT_HEADER.size).copy()
    expect = n ** dim
    if values.shape[0] != expect:
        raise ValueError(f"snapshot {path}: {values.shape[0]} values, expected {expect}")
    return dim, n, t, values


def platform_fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


def build_manifest(cfg: SimConfig, *, status: str, n_steps: int = 0, dt: float = 0.0,
                   wall_clock_s: float = 0.0, notes: str = "",
                   counters: StepCounters | None = None) -> dict:
    manifest = {
        "config": asdict(cfg),
        "config_hash": cfg.content_hash(),
        "artifact_version": __version__,
        "platform": platform_fingerprint(),
        "termination": status,
        "n_steps": n_steps,
        "dt": dt,
        "wall_clock_s": wall_clock_s,
        "counters": asdict(counters or StepCounters()),
    }
    if notes:
        manifest["notes"] = notes
    return manifest


def write_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_run_outputs(traj, wall_clock_s: float = 0.0, notes: str = "") -> dict:
    """Write a trajectory's outputs per its config's output block.

    Returns the mapping of artifact names to paths.  Snapshots store the
    physical field (gauge shift reapplied).
    """
    cfg: SimConfig = traj.config
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    formats = cfg.output.formats
    paths = {}

    if "csv" in formats:
        csv_path = outdir / "diagnostics.csv"
        write_diagnostics_csv(traj.records, csv_path)
        paths["csv"] = csv_path
    if "snapshots" in formats:
        for k, t in enumerate(traj.times):
            snap_path = outdir / f"snapshot_{k:06d}.bin"
            write_snapshot(snap_path, traj.grid.dim, traj.grid.n, t, traj.physical_values(k))
        paths["snapshots"] = outdir
    if "manifest" in formats:
        manifest = build_manifest(cfg, status=traj.status, n_steps=traj.n_steps,
                                  dt=traj.dt, wall_clock_s=wall_clock_s, notes=notes,
                                  counters=traj.counters)
        man_path = outdir / "manifest.json"
        write_manifest(manifest, man_path)
        paths["manifest"] = man_path
    return paths


def write_sweep_outputs(sweep, cfg: SimConfig) -> dict:
    """Write per-rung directories plus the top-level sweep report."""
    outdir = Path(cfg.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for j, rung in enumerate(sweep.rungs):
        rung_dir = outdir / f"rung_{j}"
        rung_dir.mkdir(exist_ok=True)
        write_diagnostics_csv(rung.records, rung_dir / "diagnostics.csv")
        write_manifest(build_manifest(rung.config, status="completed",
                                      n_steps=rung.n_steps, dt=sweep.dt,
                                      wall_clock_s=sweep.wall_clock_s,
                                      counters=sweep.counters),
                       rung_dir / "manifest.json")
        paths[f"rung_{j}"] = rung_dir
    report_path = outdir / "sweep_report.json"
    report_path.write_text(json.dumps(sweep.report(), indent=2, sort_keys=True) + "\n")
    paths["report"] = report_path
    return paths
