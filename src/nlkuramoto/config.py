"""Run configuration: a line-oriented, sectioned key = value text format.

Every violation is collected and reported with its field path, not just the
first.  The canonical re-serialization of a parsed config is deterministic,
re-parseable, and the input of the manifest content hash, so command-line
overrides participate in the hash exactly like file values.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .integrate import RK4, IntegratorPolicy
from .initial import KINDS

MODELS = ("lattice", "regularized", "singular")
OUTPUT_FORMATS = ("csv", "manifest", "snapshots", "report")

_KEYS = {
    "grid": ("dimension", "nodes", "extent", "extent2"),
    "physics": ("model", "s", "kappa", "delta", "epsilon", "nu", "nu_file"),
    "initial": ("kind", "diameter", "value", "seed", "allow_large_diameter"),
    "integrator": ("scheme", "dt", "safety", "horizon", "stride"),
    "output": ("directory", "formats"),
}


@dataclass(frozen=True)
class GridConfig:
    dimension: int = 1
    nodes: int = 64
    extents: tuple[tuple[float, float], ...] = ((0.0, 1.0),)


@dataclass(frozen=True)
class PhysicsConfig:
    model: str = "singular"
    s: float = 0.5
    kappa: float = 1.0
    delta: float = 0.0
    epsilon: float | None = None
    nu: float = 0.0
    nu_file: str | None = None


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "smooth"
    diameter: float = 1.0
    value: float = 0.0
    seed: int | None = None
    allow_large_diameter: bool = False

    @property
    def effective_diameter(self) -> float:
        return 0.0 if self.kind == "constant" else self.diameter


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "manifest")


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig = GridConfig()
    physics: PhysicsConfig = PhysicsConfig()
    initial: InitialConfig = InitialConfig()
    integrator: IntegratorPolicy = IntegratorPolicy()
    output: OutputConfig = OutputConfig()

    def problems(self) -> list[str]:
        return _validate(self)

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise ConfigurationError(problems)

    def canonical_text(self) -> str:
        return _render(self)

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def to_dict(self) -> dict:
        g, p, i, n, o = self.grid, self.physics, self.initial, self.integrator, self.output
        return {
            "grid": {"dimension": g.dimension, "nodes": g.nodes,
                     "extents": [list(e) for e in g.extents]},
            "physics": {"model": p.model, "s": p.s, "kappa": p.kappa, "delta": p.delta,
                        "epsilon": p.epsilon, "nu": p.nu, "nu_file": p.nu_file},
            "initial": {"kind": i.kind, "diameter": i.diameter, "value": i.value,
                        "seed": i.seed, "allow_large_diameter": i.allow_large_diameter},
            "integrator": {"scheme": n.scheme, "dt": n.dt, "safety": n.safety,
                           "horizon": n.horizon, "stride": n.stride},
            "output": {"directory": o.directory, "formats": list(o.formats)},
        }


def _validate(cfg: SimConfig) -> list[str]:
    problems = []
    g, p, i = cfg.grid, cfg.physics, cfg.initial

    if g.dimension not in (1, 2):
        problems.append(f"grid.dimension: must be 1 or 2, got {g.dimension}")
    if g.nodes < 2:
        problems.append(f"grid.nodes: must be at least 2, got {g.nodes}")
    for k, (a, b) in enumerate(g.extents):
        if not (math.isfinite(a) and math.isfinite(b)) or b <= a:
            problems.append(f"grid.extent{'' if k == 0 else k + 1}: degenerate interval ({a}, {b})")

    if p.model not in MODELS:
        problems.append(f"physics.model: must be one of {MODELS}, got {p.model!r}")
    if not 0.0 < p.s < 1.0:
        problems.append(f"physics.s: must lie in (0, 1), got {p.s}")
    if p.kappa < 0.0:
        problems.append(f"physics.kappa: must be nonnegative, got {p.kappa}")
    if p.delta < 0.0:
        problems.append(f"physics.delta: must be nonnegative, got {p.delta}")
    if p.model == "regularized":
        if p.epsilon is None or p.epsilon <= 0.0:
            problems.append("physics.epsilon: the regularized model needs a positive truncation")
    elif p.epsilon is not None:
        problems.append(f"physics.epsilon: only the regularized model truncates the kernel "
                        f"(model is {p.model!r})")
    if p.nu_file is not None and p.model != "lattice":
        problems.append("physics.nu_file: per-node frequencies are only supported by the "
                        "lattice model; continuum models need a constant frequency")

    if i.kind not in KINDS:
        problems.append(f"initial.kind: must be one of {KINDS}, got {i.kind!r}")
    if i.diameter < 0.0:
        problems.append(f"initial.diameter: must be nonnegative, got {i.diameter}")
    if i.kind == "random" and i.seed is None:
        problems.append("initial.seed: random initial data requires a seed")
    relaxation_regime = (p.model == "singular" and p.delta == 0.0 and p.kappa > 0.0)
    if relaxation_regime and i.effective_diameter >= math.pi and not i.allow_large_diameter:
        problems.append(
            "initial.diameter: must be < pi when relaxation checks are enabled -- the "
            "contraction and exponential-relaxation guarantees need an initial phase "
            "diameter below pi (set initial.allow_large_diameter = true to override)"
        )

    problems.extend(cfg.integrator.problems())

    if not cfg.output.directory:
        problems.append("output.directory: must not be empty")
    for fmt in cfg.output.formats:
        if fmt not in OUTPUT_FORMATS:
            problems.append(f"output.formats: unknown format {fmt!r}, "
                            f"choose from {OUTPUT_FORMATS}")
    return problems


# ----------------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------------

def collect_raw(text: str, source: str = "<config>"):
    """Split config text into a {(section, key): value-string} mapping."""
    raw = {}
    problems = []
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _KEYS:
                problems.append(f"{source}:{lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in stripped:
            problems.append(f"{source}:{lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if section is None:
            problems.append(f"{source}:{lineno}: key {key!r} appears before any section")
            continue
        if key not in _KEYS[section]:
            problems.append(f"{source}:{lineno}: unknown key {section}.{key}")
            continue
        raw[(section, key)] = value
    return raw, problems


def _parse_float(raw, key, problems, allow_auto=False):
    if allow_auto and raw.lower() == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        problems.append(f"{key}: expected a number, got {raw!r}")
        return None


def _parse_int(raw, key, problems):
    try:
        return int(raw)
    except ValueError:
        problems.append(f"{key}: expected an integer, got {raw!r}")
        return None


def _parse_bool(raw, key, problems):
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    problems.append(f"{key}: expected true or false, got {raw!r}")
    return None


def _parse_pair(raw, key, problems):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        problems.append(f"{key}: expected two numbers 'a b', got {raw!r}")
        return None
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        problems.append(f"{key}: expected two numbers 'a b', got {raw!r}")
        return None


def build_config(raw: dict) -> SimConfig:
    """Build and validate a SimConfig from a raw key mapping."""
    problems = []

    def take(section, key, parser, default, **kw):
        if (section, key) not in raw:
            return default
        value = parser(raw[(section, key)], f"{section}.{key}", problems, **kw)
        return default if value is None else value

    dimension = take("grid", "dimension", _parse_int, 1)
    nodes = take("grid", "nodes", _parse_int, 64)
    extent = take("grid", "extent", _parse_pair, (0.0, 1.0))
    extent2 = take("grid", "extent2", _parse_pair, None)
    if dimension == 2:
        extents = (extent, extent2 if extent2 is not None else extent)
    else:
        extents = (extent,)
        if extent2 is not None:
            problems.append("grid.extent2: a second axis needs grid.dimension = 2")

    model = take("physics", "model", lambda r, k, p: r, "singular")
    epsilon = take("physics", "epsilon", _parse_float, None)
    physics = PhysicsConfig(
        model=model,
        s=take("physics", "s", _parse_float, 0.5),
        kappa=take("physics", "kappa", _parse_float, 1.0),
        delta=take("physics", "delta", _parse_float, 0.0),
        epsilon=epsilon,
        nu=take("physics", "nu", _parse_float, 0.0),
        nu_file=take("physics", "nu_file", lambda r, k, p: r, None),
    )

    seed_raw = raw.get(("initial", "seed"))
    initial = InitialConfig(
        kind=take("initial", "kind", lambda r, k, p: r, "smooth"),
        diameter=take("initial", "diameter", _parse_float, 1.0),
        value=take("initial", "value", _parse_float, 0.0),
        seed=None if seed_raw is None else _parse_int(seed_raw, "initial.seed", problems),
        allow_large_diameter=take("initial", "allow_large_diameter", _parse_bool, False),
    )

    integrator = IntegratorPolicy(
        scheme=take("integrator", "scheme", lambda r, k, p: r.lower(), RK4),
        dt=take("integrator", "dt", _parse_float, None, allow_auto=True),
        safety=take("integrator", "safety", _parse_float, 0.5),
        horizon=take("integrator", "horizon", _parse_float, 1.0),
        stride=take("integrator", "stride", _parse_int, 1),
    )

    formats_raw = raw.get(("output", "formats"))
    formats = ("csv", "manifest") if formats_raw is None else tuple(
        formats_raw.replace(",", " ").split()
    )
    output = OutputConfig(
        directory=take("output", "directory", lambda r, k, p: r, "out"),
        formats=formats,
    )

    cfg = SimConfig(
        grid=GridConfig(dimension=dimension, nodes=nodes, extents=extents),
        physics=physics, initial=initial, integrator=integrator, output=output,
    )
    problems.extend(cfg.problems())
    if problems:
        raise ConfigurationError(problems)
    return cfg


def parse_config_text(text: str, source: str = "<config>") -> SimConfig:
    raw, problems = collect_raw(text, source)
    if problems:
        # Still try to surface value/invariant problems alongside syntax ones.
        try:
            build_config(raw)
        except ConfigurationError as exc:
            problems.extend(exc.problems)
        raise ConfigurationError(problems)
    return build_config(raw)


def parse_config(path) -> SimConfig:
    """Parse and validate a config file; reports all violations at once."""
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def apply_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    """Apply {(section, key): value-string} overrides on top of a config.

    Overrides run through the same coercion and validation as file values, so
    precedence is simply: command line beats file beats defaults.
    """
    raw, problems = collect_raw(cfg.canonical_text())
    assert not problems, "canonical config text must reparse cleanly"
    for key, value in overrides.items():
        if key[0] not in _KEYS or key[1] not in _KEYS[key[0]]:
            raise ConfigurationError([f"unknown override {key[0]}.{key[1]}"])
        raw[key] = value
    return build_config(raw)


def _render(cfg: SimConfig) -> str:
    g, p, i, n, o = cfg.grid, cfg.physics, cfg.initial, cfg.integrator, cfg.output

    def num(x):
        return repr(float(x))

    lines = ["[grid]",
             f"dimension = {g.dimension}",
             f"nodes = {g.nodes}",
             f"extent = {num(g.extents[0][0])} {num(g.extents[0][1])}"]
    if g.dimension == 2:
        lines.append(f"extent2 = {num(g.extents[1][0])} {num(g.extents[1][1])}")

    lines += ["", "[initial]",
              f"allow_large_diameter = {'true' if i.allow_large_diameter else 'false'}",
              f"diameter = {num(i.diameter)}",
              f"kind = {i.kind}"]
    if i.seed is not None:
        lines.append(f"seed = {i.seed}")
    lines.append(f"value = {num(i.value)}")

    lines += ["", "[integrator]",
              f"dt = {'auto' if n.dt is None else num(n.dt)}",
              f"horizon = {num(n.horizon)}",
              f"safety = {num(n.safety)}",
              f"scheme = {n.scheme}",
              f"stride = {n.stride}"]

    lines += ["", "[output]",
              f"directory = {o.directory}",
              f"formats = {' '.join(o.formats)}"]

    lines += ["", "[physics]",
              f"delta = {num(p.delta)}"]
    if p.epsilon is not None:
        lines.append(f"epsilon = {num(p.epsilon)}")
    lines += [f"kappa = {num(p.kappa)}",
              f"model = {p.model}",
              f"nu = {num(p.nu)}"]
    if p.nu_file is not None:
        lines.append(f"nu_file = {p.nu_file}")
    lines += [f"s = {num(p.s)}", ""]
    return "\n".join(lines)
