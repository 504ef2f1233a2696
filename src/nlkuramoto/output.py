"""Result serialization: diagnostics CSV, snapshot binaries, JSON manifests and reports.

Numbers are written as the shortest decimal that round-trips to the same
double, so a reparsed CSV reproduces the records' CSV columns exactly.  Snapshot
files carry a fixed binary header {dimension, nodes-per-axis, time} followed
by the node values as little-endian 64-bit floats.
"""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import struct
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import format_number
from .diagnostics import (RECORD_DTYPE, RECORD_FIELDS, energy_identity_residual,
                          truncation_functionals)
from .errors import ConfigurationError
from .integrate import Trajectory

CSV_COLUMNS = ("t", "mean", "diameter", "E_P", "E_K", "seminorm_sq",
               "dist_sq", "dissipation_cum", "dual_bound")

_SNAPSHOT_HEADER = struct.Struct("<qqd")  # dimension, nodes per axis, time


def write_diagnostics_csv(records, path) -> None:
    """Write the CSV columns of a member's records (the first fields of
    RECORD_FIELDS) in the CSV_COLUMNS header's order."""
    width = len(CSV_COLUMNS)
    with open(path, "w") as fh:  # row by row: the whole text would cost more than the records
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for record in records:
            fh.write(",".join(map(format_number, record.item()[:width])) + "\n")


def read_diagnostics_csv(path) -> np.ndarray:
    """The records a diagnostics CSV holds, as an array of RECORD_DTYPE whose
    fields past the CSV's columns are NaN; ValueError for a bad header or a
    row whose field count is not the header's."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ValueError(f"{path} is not a diagnostics CSV (bad header)")
    missing = (math.nan,) * (len(RECORD_FIELDS) - len(CSV_COLUMNS))
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        values = line.split(",")
        if len(values) != len(CSV_COLUMNS):
            raise ValueError(f"{path}, line {number}: {len(values)} fields, the header has "
                             f"{len(CSV_COLUMNS)}")
        rows.append((*map(float, values), *missing))
    return np.array(rows, dtype=RECORD_DTYPE)


def write_snapshot(path, dim: int, n: int, t: float, values: np.ndarray) -> None:
    data = np.ascontiguousarray(values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_SNAPSHOT_HEADER.pack(dim, n, float(t)))
        fh.write(data.tobytes())


def existing_directory(directory) -> Path:
    """The nearest existing one of an output directory and its parents;
    ConfigurationError if that is a file, as nothing could be written there."""
    path = Path(directory)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        where = "is a file" if existing == path else f"lies under {existing}, a file"
        raise ConfigurationError([f"output.directory: {path} {where}"])
    return existing


def snapshot_directories(configs, records: int, nodes: int) -> list[Path]:
    """Make the output directories of a family's snapshot files.  Raises
    ConfigurationError first if one is a file (:func:`existing_directory`) or
    if the files, members x records x (header + nodes doubles), exceed the
    free space where the first member writes: they would fill the disk and
    stop the run part way."""
    policy = configs[0].integrator
    directories = [Path(cfg.output.directory) for cfg in configs]
    size = len(directories) * records * (_SNAPSHOT_HEADER.size + 8 * nodes)
    existing = [existing_directory(d) for d in directories]
    free = shutil.disk_usage(existing[0]).free
    if size > free:
        raise ConfigurationError(
            f"the snapshot files need {size:,} bytes, more than the {free:,} bytes free for "
            f"{directories[0]}: raise integrator.stride ({policy.stride}), shorten "
            f"integrator.horizon ({policy.horizon}) or drop 'snapshots' from output.formats")
    for directory in directories:
        directory.mkdir(parents=True, exist_ok=True)
    return directories


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


def _margins(traj: Trajectory) -> dict:
    """How close a run came to its invariants, read from its records: the
    largest |mean|, the worst diameter slope (D_k+1 - D_k) / (t_k+1 - t_k)
    (None with one record), the energy-identity residual and the worst
    truncation overshoot norm.  A margin that is not finite (a blow-up's
    squares overflow) is None, as strict JSON has no infinity."""
    records = traj.records
    slopes = np.diff(records["diameter"]) / np.diff(records["t"])
    margins = {
        "max_abs_mean": np.max(np.abs(records["mean"])),
        "worst_diameter_slope": slopes.max() if slopes.size else None,
        "energy_identity_residual": energy_identity_residual(traj),
        "worst_truncation_overshoot": max(truncation_functionals(traj)),
    }
    return {key: None if value is None or not math.isfinite(value) else float(value)
            for key, value in margins.items()}


def build_manifest(traj: Trajectory, wall_clock_s: float = 0.0, notes: str = "") -> dict:
    """The manifest of a run: its config and hash, platform, termination, step
    with the scheme it took and the stiffness bound rho beside it, counters
    (``records`` counts the records) and invariant margins, all read
    from the trajectory."""
    manifest = {
        "config": asdict(traj.config),
        "config_hash": traj.config.content_hash(),
        "artifact_version": __version__,
        "platform": platform_fingerprint(),
        "termination": traj.status,
        "n_steps": traj.counters.steps,
        "dt": traj.dt,
        "scheme": traj.scheme,
        "stiffness_bound": traj.stiffness,
        "wall_clock_s": wall_clock_s,
        "counters": {**asdict(traj.counters), "records": len(traj.records)},
        "margins": _margins(traj),
    }
    if notes:
        manifest["notes"] = notes
    return manifest


def write_json(obj, path) -> None:
    """Write a manifest or report as strict JSON, indented, with sorted keys.

    The text streams into ``<path>.tmp``, which replaces ``path`` once whole;
    a NaN or an infinity raises ValueError and leaves ``path`` as it was."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # gone once it replaced path


def write_run_outputs(traj: Trajectory, wall_clock_s: float = 0.0, notes: str = "") -> dict:
    """Write a trajectory's outputs to its config's output directory, per the
    config's output formats, and return the mapping of artifact names to
    paths.  The run itself wrote the snapshots, as it recorded them
    (:func:`nlkuramoto.run.simulate_family`); ``snapshots`` names their
    directory."""
    outdir = Path(traj.config.output.directory)
    outdir.mkdir(parents=True, exist_ok=True)
    formats = traj.config.output.formats
    paths = {}

    if "csv" in formats:
        csv_path = outdir / "diagnostics.csv"
        write_diagnostics_csv(traj.records, csv_path)
        paths["csv"] = csv_path
    if "snapshots" in formats:
        paths["snapshots"] = outdir
    if "manifest" in formats:
        man_path = outdir / "manifest.json"
        write_json(build_manifest(traj, wall_clock_s, notes), man_path)
        paths["manifest"] = man_path
    return paths


def write_sweep_outputs(sweep, wall_clock_s: float = 0.0) -> dict:
    """Write each rung's outputs to its config's directory, ``rung_<j>/`` of
    the sweep's output directory, per the output formats, plus the sweep
    report (always) in the sweep's directory."""
    paths = {}
    for j, rung in enumerate(sweep.rungs):
        write_run_outputs(rung, wall_clock_s)
        paths[f"rung_{j}"] = Path(rung.config.output.directory)
    report_path = paths["rung_0"].parent / "sweep_report.json"
    write_json(sweep.report(), report_path)
    paths["report"] = report_path
    return paths
