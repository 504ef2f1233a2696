"""Run configuration: a line-oriented, sectioned key = value text format.

Every violation is collected and reported with its field path, not just the
first.  The canonical re-serialization of a parsed config is deterministic,
re-parseable, and the input of the manifest content hash, so command-line
overrides participate in the hash exactly like file values.  ``_SCHEMA``
declares every section and key once; the defaults live in the dataclasses.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigurationError
from .grid import grid_problems
from .integrate import AUTO, RK4, SCHEMES
from .initial import KINDS

MODELS = ("lattice", "regularized", "singular")
OUTPUT_FORMATS = ("csv", "manifest", "snapshots")


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
class IntegratorPolicy:
    """Time-integration policy: scheme, step-size mode, horizon, stride.

    ``dt`` is None for automatic selection (scaled by ``safety``) or a fixed
    positive value; ``stride`` is the number of steps of that size between
    diagnostics records.  rkc with an automatic ``dt`` steps adaptively and
    lands on the same record times.  ``scheme = auto`` is resolved per run to
    rk4 or rkc (:func:`nlkuramoto.run.family_step`), which also decides
    whether the run steps adaptively (``Trajectory.adaptive``).
    """

    scheme: str = RK4
    dt: float | None = None
    safety: float = 0.5
    horizon: float = 1.0
    stride: int = 1


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
        # the interpreter's own SHA-256, as the stdlib random takes its SHA-512
        # (hashlib maps OpenSSL's libcrypto), imported here so that commands
        # that never hash load no hashing module
        try:
            from _sha2 import sha256  # 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # 3.10, 3.11
            except ImportError:
                from hashlib import sha256
        return sha256(self.canonical_text().encode("utf-8")).hexdigest()


def relaxation_problems(physics: PhysicsConfig, diameter: float) -> list[str]:
    """The hypotheses of the exponential relaxation that these physics and
    this initial diameter break, one message each: the singular model,
    delta = 0, kappa > 0 and a diameter below pi."""
    problems = []
    if physics.model != "singular":
        problems.append("needs the singular model")
    if physics.delta != 0.0:
        problems.append("needs delta = 0 (undamped dynamics)")
    if not physics.kappa > 0.0:
        problems.append("needs positive coupling strength")
    if diameter >= math.pi:
        problems.append(f"initial diameter must be below pi, got {diameter}")
    return problems


def _validate(cfg: SimConfig) -> list[str]:
    # NaN passes every comparison below, so non-finite numbers are refused first
    problems = [f"{part.name}.{key}: must be finite, got {value}"
                for part in fields(cfg) for key, value in vars(getattr(cfg, part.name)).items()
                if isinstance(value, float) and not math.isfinite(value)]
    g, p, i = cfg.grid, cfg.physics, cfg.initial
    s = p.s if 0.0 < p.s < 1.0 else None  # the kernel's range needs a valid s
    problems.extend(grid_problems(g.dimension, g.nodes, g.extents, s))

    if p.model not in MODELS:
        problems.append(f"physics.model: must be one of {MODELS}, got {p.model!r}")
    if not 0.0 < p.s < 1.0:
        problems.append(f"physics.s: must lie in (0, 1), got {p.s}")
    if p.kappa < 0.0:
        problems.append(f"physics.kappa: must be nonnegative, got {p.kappa}")
    if p.delta < 0.0:
        problems.append(f"physics.delta: must be nonnegative, got {p.delta}")
    elif p.delta > 0.0 and p.model == "lattice":
        problems.append(f"physics.delta: the lattice model has no dissipation term, "
                        f"got {p.delta}")
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
    if i.seed is not None and i.seed < 0:
        problems.append(f"initial.seed: must be nonnegative, got {i.seed}")
    relaxation_regime = not relaxation_problems(p, 0.0)
    if relaxation_regime and i.effective_diameter >= math.pi and not i.allow_large_diameter:
        problems.append(
            "initial.diameter: must be < pi when relaxation checks are enabled -- the "
            "contraction and exponential-relaxation guarantees need an initial phase "
            "diameter below pi (set initial.allow_large_diameter = true to override)"
        )

    n = cfg.integrator
    if n.scheme not in (*SCHEMES, AUTO):
        problems.append(f"integrator.scheme: must be one of {(*SCHEMES, AUTO)}, "
                        f"got {n.scheme!r}")
    if n.dt is not None and not n.dt > 0.0:
        problems.append(f"integrator.dt: must be positive, got {n.dt}")
    if not 0.0 < n.safety <= 1.0:
        problems.append(f"integrator.safety: must lie in (0, 1], got {n.safety}")
    if not n.horizon > 0.0:
        problems.append(f"integrator.horizon: must be positive, got {n.horizon}")
    if n.stride < 1:
        problems.append(f"integrator.stride: must be at least 1, got {n.stride}")

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

class _Kind(NamedTuple):
    """How one key's value is read from text and written back.

    ``parse`` raises ValueError on malformed text, reported as "expected
    ``expected``".  A None value is written as ``none``, or left out when
    ``none`` is None.
    """

    parse: Callable[[str], object]
    write: Callable[[object], str]
    expected: str = ""
    none: str | None = None


def format_number(x) -> str:
    """Shortest decimal representation that round-trips the double."""
    return repr(float(x))


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(raw)


def _pair(raw: str) -> tuple[float, float]:
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise ValueError(raw)
    return float(parts[0]), float(parts[1])


_TEXT = _Kind(lambda raw: raw, str)
_NUMBER = _Kind(float, format_number, "a number")
_INTEGER = _Kind(int, str, "an integer")
_PAIR = _Kind(_pair, lambda ab: " ".join(map(format_number, ab)), "two numbers 'a b'")

# Every key of every section, in the order the canonical text lists them:
# reordering this table changes every content hash.
_SCHEMA = {
    "grid": {"dimension": _INTEGER, "nodes": _INTEGER, "extent": _PAIR, "extent2": _PAIR},
    "initial": {
        "allow_large_diameter": _Kind(_boolean, lambda b: "true" if b else "false",
                                      "true or false"),
        "diameter": _NUMBER, "kind": _TEXT, "seed": _INTEGER, "value": _NUMBER,
    },
    "integrator": {
        "dt": _Kind(lambda raw: None if raw.lower() == "auto" else float(raw), format_number,
                    "a number", none="auto"),
        "horizon": _NUMBER, "safety": _NUMBER, "scheme": _Kind(str.lower, str),
        "stride": _INTEGER,
    },
    "output": {"directory": _TEXT,
               "formats": _Kind(lambda raw: tuple(raw.replace(",", " ").split()), " ".join)},
    "physics": {"delta": _NUMBER, "epsilon": _NUMBER, "kappa": _NUMBER, "model": _TEXT,
                "nu": _NUMBER, "nu_file": _TEXT, "s": _NUMBER},
}


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
            if section not in _SCHEMA:
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
        if key not in _SCHEMA[section]:
            problems.append(f"{source}:{lineno}: unknown key {section}.{key}")
            continue
        raw[(section, key)] = value
    return raw, problems


def build_config(raw: dict, problems=()) -> SimConfig:
    """Build and validate a SimConfig from a raw key mapping.

    Only the keys present in ``raw`` (and parsed cleanly) are set; every other
    field keeps its dataclass default.  ``problems`` found earlier (by the
    text parse or the overrides) are reported first, with this build's own.
    """
    problems = list(problems)
    given = {section: {} for section in _SCHEMA}
    for section, keys in _SCHEMA.items():
        for key, kind in keys.items():
            if (section, key) not in raw:
                continue
            text = raw[(section, key)]
            try:
                given[section][key] = kind.parse(text)
            except ValueError:
                problems.append(f"{section}.{key}: expected {kind.expected}, got {text!r}")

    grid = given["grid"]
    extent = grid.pop("extent", GridConfig.extents[0])
    extent2 = grid.pop("extent2", None)
    if grid.get("dimension", GridConfig.dimension) == 2:
        grid["extents"] = (extent, extent if extent2 is None else extent2)
    else:
        grid["extents"] = (extent,)
        if extent2 is not None:
            problems.append("grid.extent2: a second axis needs grid.dimension = 2")

    defaults = SimConfig()
    cfg = SimConfig(**{section: replace(getattr(defaults, section), **values)
                       for section, values in given.items()})
    problems.extend(cfg.problems())
    if problems:
        raise ConfigurationError(problems)
    return cfg


def parse_config_text(text: str, source: str = "<config>") -> SimConfig:
    return build_config(*collect_raw(text, source))


def parse_config(path) -> SimConfig:
    """Parse and validate a config file; reports all violations at once."""
    path = Path(path)
    return parse_config_text(path.read_text(), source=str(path))


def apply_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    """Apply {(section, key): value-string} overrides on top of a config.

    Overrides run through the same coercion and validation as file values, so
    precedence is simply: command line beats file beats defaults.  Values are
    stripped; ``#`` or a line break, which the canonical text cannot carry, is refused.
    """
    raw, problems = collect_raw(cfg.canonical_text())
    assert not problems, "canonical config text must reparse cleanly"
    for (section, key), value in overrides.items():
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            problems.append(f"unknown override {section}.{key}")
        elif "#" in value or "".join(value.splitlines()) != value:
            problems.append(f"{section}.{key}: '#' and line breaks are refused, got {value!r}")
        else:
            raw[(section, key)] = value.strip()
    return build_config(raw, problems)


def _render(cfg: SimConfig) -> str:
    lines = []
    for section, keys in _SCHEMA.items():
        values = asdict(getattr(cfg, section))
        if section == "grid":
            extents = values.pop("extents")
            values["extent"] = extents[0]
            values["extent2"] = extents[1] if cfg.grid.dimension == 2 else None
        lines.append(f"[{section}]")
        for key, kind in keys.items():
            value = values[key]
            text = kind.none if value is None else kind.write(value)
            if text is not None:
                lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
