import hashlib
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkuramoto import (ConfigurationError, GridConfig, PhysicsConfig, SimConfig,
                        apply_overrides, parse_config, parse_config_text, simulate)
from nlkuramoto.cli import _OVERRIDE_FLAGS
from nlkuramoto.cli import main as cli_main
from nlkuramoto.config import _SCHEMA, collect_raw

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


MINIMAL = """
[grid]
nodes = 32

[physics]
model = singular
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.grid.dimension == 1
    assert cfg.grid.nodes == 32
    assert cfg.grid.extents == ((0.0, 1.0),)
    assert cfg.physics.s == 0.5
    assert cfg.physics.kappa == 1.0
    assert cfg.integrator.scheme == "rk4"
    assert cfg.integrator.dt is None
    assert cfg.output.formats == ("csv", "manifest")


def test_empty_config_is_the_default_run():
    cfg = parse_config_text("")
    assert cfg == SimConfig()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("""
# a comment
[physics]
kappa = 2.0   # inline comment

[integrator]
horizon = 3.0
""")
    assert cfg.physics.kappa == 2.0
    assert cfg.integrator.horizon == 3.0


def test_s_out_of_range_rejected_with_constraint():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[physics]\ns = 1.2\n")
    assert any("physics.s" in p and "(0, 1)" in p for p in err.value.problems)


def test_relaxation_diameter_hypothesis_enforced():
    text = "[initial]\nkind = smooth\ndiameter = 3.5\n"
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(text)
    assert any("initial.diameter" in p and "pi" in p for p in err.value.problems)
    # the documented override lifts it
    cfg = parse_config_text(text + "allow_large_diameter = true\n")
    assert cfg.initial.diameter == 3.5
    # and so does turning on dissipation (the guarantee is only needed for the
    # undamped singular dynamics)
    cfg = parse_config_text(text + "\n[physics]\ndelta = 0.1\n")
    assert cfg.physics.delta == 0.1


def test_all_violations_reported_at_once():
    bad = """
[grid]
dimension = 3
nodes = 1

[physics]
model = warp
s = -1
kappa = -2

[integrator]
safety = 7
stride = 0
"""
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(bad)
    problems = "\n".join(err.value.problems)
    for fragment in ("grid.dimension", "grid.nodes", "physics.model", "physics.s",
                     "physics.kappa", "integrator.safety", "integrator.stride"):
        assert fragment in problems


def test_unknown_keys_and_sections_rejected():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[grid]\nnodse = 10\n\n[warp]\nspeed = 9\n")
    problems = "\n".join(err.value.problems)
    assert "unknown key grid.nodse" in problems
    assert "unknown section [warp]" in problems


def test_epsilon_model_coupling():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[physics]\nmodel = regularized\n")
    assert any("physics.epsilon" in p for p in err.value.problems)
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[physics]\nmodel = singular\nepsilon = 0.1\n")
    assert any("physics.epsilon" in p for p in err.value.problems)
    cfg = parse_config_text("[physics]\nmodel = regularized\nepsilon = 0.2\n")
    assert cfg.physics.epsilon == 0.2


def test_random_kind_requires_seed():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[initial]\nkind = random\ndiameter = 1.0\n")
    assert any("initial.seed" in p for p in err.value.problems)
    # random.Random(-3) would draw seed 3's field: refused, with the other problems
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[initial]\nkind = random\nseed = -3\ndiameter = -1.0\n")
    assert err.value.problems == ["initial.diameter: must be nonnegative, got -1.0",
                                  "initial.seed: must be nonnegative, got -3"]


def test_nu_file_only_for_lattice(tmp_path):
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[physics]\nmodel = singular\nnu_file = nu.txt\n")
    assert any("nu_file" in p for p in err.value.problems)


def test_lattice_model_refuses_dissipation():
    # the lattice rate has no dissipation term: a delta would leave the
    # dynamics alone and skew only the records' E_K and dual bound
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[physics]\nmodel = lattice\nkappa = -1\ndelta = 0.7\n")
    assert err.value.problems == [
        "physics.kappa: must be nonnegative, got -1.0",
        "physics.delta: the lattice model has no dissipation term, got 0.7"]
    lattice = parse_config_text("[physics]\nmodel = lattice\ndelta = 0\n")
    assert replace(lattice, physics=replace(lattice.physics, delta=0.7)).problems() == [
        "physics.delta: the lattice model has no dissipation term, got 0.7"]


def test_two_dimensional_extents():
    cfg = parse_config_text("[grid]\ndimension = 2\nnodes = 8\nextent = 0 1\nextent2 = -1 1\n")
    assert cfg.grid.extents == ((0.0, 1.0), (-1.0, 1.0))
    # extent2 defaults to extent
    cfg = parse_config_text("[grid]\ndimension = 2\nnodes = 8\nextent = 0 2\n")
    assert cfg.grid.extents == ((0.0, 2.0), (0.0, 2.0))
    with pytest.raises(ConfigurationError):
        parse_config_text("[grid]\ndimension = 1\nextent2 = 0 1\n")


def test_canonical_text_round_trips():
    cfg = parse_config_text("""
[grid]
dimension = 2
nodes = 12
extent = 0 1
extent2 = 0.5 2.5

[physics]
model = regularized
epsilon = 0.05
kappa = 0.75
delta = 0.3
nu = -0.25
s = 0.6180339887498949

[initial]
kind = random
seed = 99
diameter = 2.2

[integrator]
scheme = euler
dt = 0.001
stride = 5
horizon = 0.25

[output]
directory = results/run1
formats = csv snapshots manifest
""")
    again = parse_config_text(cfg.canonical_text())
    assert again == cfg
    assert again.content_hash() == cfg.content_hash()


def test_content_hash_tracks_changes():
    a = parse_config_text("[physics]\nkappa = 1.0\n")
    b = parse_config_text("[physics]\nkappa = 1.5\n")
    assert a.content_hash() != b.content_hash()
    # whitespace and comments do not matter
    c = parse_config_text("# hi\n[physics]\n  kappa =   1.0\n")
    assert c.content_hash() == a.content_hash()


def test_apply_overrides_precedence():
    cfg = parse_config_text("[physics]\nkappa = 1.0\n\n[integrator]\nhorizon = 1.0\n")
    over = apply_overrides(cfg, {("physics", "kappa"): "2.5",
                                 ("integrator", "dt"): "0.01"})
    assert over.physics.kappa == 2.5
    assert over.integrator.dt == 0.01
    assert over.integrator.horizon == 1.0
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, {("physics", "warp"): "1"})
    with pytest.raises(ConfigurationError):
        apply_overrides(cfg, {("physics", "s"): "2.0"})


def test_shipped_configs_parse():
    configs = sorted(CONFIGS.glob("*.cfg"))
    assert configs, "example configs missing"
    for path in configs:
        parse_config(path)


def test_readme_config_example_parses_and_names_every_key():
    # the README's ini block is the config reference: it parses, and it lists
    # every key under its section, commented out or not
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    parse_config_text(block, source="README.md")
    documented, section = set(), None
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[] ")
        elif match := re.match(r"#?\s*(\w+) =", line):
            documented.add((section, match.group(1)))
    assert {(name, key) for name, keys in _SCHEMA.items() for key in keys} <= documented


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[grid]\nnodes 32\n", source="demo.cfg")
    assert any("demo.cfg:2" in p for p in err.value.problems)


ALL_KEYS = """
[grid]
dimension = 2
nodes = 12
extent = 0 1
extent2 = 0.5 2.5

[physics]
model = regularized
s = 0.6180339887498949
kappa = 0.75
delta = 0.3
epsilon = 0.05
nu = -0.25

[initial]
kind = random
diameter = 2.2
value = 0.125
seed = 99
allow_large_diameter = yes

[integrator]
scheme = EULER
dt = 0.001
safety = 0.75
horizon = 0.25
stride = 5

[output]
directory = results/run1
formats = csv, snapshots manifest
"""


def test_content_hashes_are_stable():
    # Every manifest and sweep report carries these hashes: a change to the
    # canonical text (key order, number format, omitted keys) breaks them.
    assert SimConfig().content_hash() == (
        "f54523261cf6ea1e395550a4c1e180e8c601530f8945be41f940544fe2b1b288")
    assert parse_config(CONFIGS / "regularized_sweep_base.cfg").content_hash() == (
        "38d660e9d397ef982300399be34af5d71dc9f4540e8681120330f77b792fae12")
    assert parse_config(CONFIGS / "relaxation_quarter_circle.cfg").content_hash() == (
        "23a5d613ed0181488826eca3079b39e1ef7f1e24b436488c60a6fbb75d5fe8b0")
    # nu_file is valid only for the lattice model and epsilon only for the
    # regularized one, so the 23rd key is set after parsing; hashing does not
    # validate.
    cfg = parse_config_text(ALL_KEYS)
    cfg = replace(cfg, physics=replace(cfg.physics, nu_file="nu.txt"))
    assert cfg.content_hash() == (
        "a2039b720fc510216b8caf0d06019b3fffdda44c46439e205bef7442ee7bc2c0")


@pytest.mark.parametrize("cfg", [SimConfig(), parse_config(CONFIGS / "regularized_sweep_base.cfg"),
                                 parse_config(CONFIGS / "relaxation_quarter_circle.cfg")],
                         ids=["default", "regularized_sweep_base", "relaxation_quarter_circle"])
def test_content_hash_is_hashlibs_sha256(cfg):
    # the interpreter's built-in SHA-256 (_sha2, or _sha256 before 3.12) stands
    # in for hashlib's, which would map OpenSSL's libcrypto
    assert cfg.content_hash() == hashlib.sha256(cfg.canonical_text().encode("utf-8")).hexdigest()


def test_content_hash_falls_back_to_hashlib(monkeypatch):
    # an interpreter built without the _sha2 and _sha256 modules: hashlib's
    # SHA-256 gives the same digest
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)  # importing it raises ImportError
    calls = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
    cfg = parse_config(CONFIGS / "relaxation_quarter_circle.cfg")
    assert cfg.content_hash() == (
        "23a5d613ed0181488826eca3079b39e1ef7f1e24b436488c60a6fbb75d5fe8b0")
    assert calls == [cfg.canonical_text().encode("utf-8")]


@pytest.mark.parametrize("section, key, raw, expected", [
    ("grid", "nodes", "x", "an integer"),
    ("physics", "s", "q", "a number"),
    ("initial", "allow_large_diameter", "maybe", "true or false"),
    ("grid", "extent", "a b", "two numbers 'a b'"),
    ("grid", "extent", "0 1 2", "two numbers 'a b'"),
    ("integrator", "dt", "fast", "a number"),
])
def test_malformed_value_names_the_expected_type(section, key, raw, expected):
    with pytest.raises(ConfigurationError) as err:
        parse_config_text(f"[{section}]\n{key} = {raw}\n")
    assert err.value.problems == [f"{section}.{key}: expected {expected}, got {raw!r}"]


_FLOAT_KEYS = [("physics", "s"), ("physics", "kappa"), ("physics", "delta"),
               ("physics", "epsilon"), ("physics", "nu"), ("initial", "diameter"),
               ("initial", "value"), ("integrator", "dt"), ("integrator", "safety"),
               ("integrator", "horizon")]


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", _FLOAT_KEYS)
def test_non_finite_numbers_are_refused(section, key, raw):
    # NaN passes every range comparison, and inf passes the one-sided ones
    message = f"{section}.{key}: must be finite, got {float(raw)}"
    with pytest.raises(ConfigurationError) as err:
        apply_overrides(SimConfig(), {(section, key): raw})
    assert message in err.value.problems
    part = getattr(SimConfig(), section)
    cfg = replace(SimConfig(), **{section: replace(part, **{key: float(raw)})})
    assert message in cfg.problems()


def test_every_non_finite_number_is_listed_at_once(tmp_path, capsys):
    with pytest.raises(ConfigurationError) as err:
        apply_overrides(SimConfig(), {key: "nan" for key in _FLOAT_KEYS})
    for section, key in _FLOAT_KEYS:
        assert f"{section}.{key}: must be finite, got nan" in err.value.problems
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MINIMAL)
    assert cli_main(["simulate", str(cfg), "--kappa", "nan", "--horizon", "inf"]) == 2
    stderr = capsys.readouterr().err
    assert "physics.kappa: must be finite" in stderr
    assert "integrator.horizon: must be finite" in stderr


def test_override_flags_target_table_keys():
    for flag, (section, key) in _OVERRIDE_FLAGS.items():
        _, problems = collect_raw(f"[{section}]\n{key} = 1\n")
        assert not problems, flag


def test_override_values_that_break_the_canonical_text_are_refused():
    with pytest.raises(ConfigurationError) as err:
        apply_overrides(SimConfig(), {("output", "directory"): "runs/a#1",
                                      ("physics", "kappa"): "2\n[physics]\ns = 0.9",
                                      ("physics", "warp"): "1"})
    problems = err.value.problems
    assert len(problems) == 3
    assert problems[0].startswith("output.directory: '#' and line breaks are refused")
    assert problems[1].startswith("physics.kappa: '#' and line breaks are refused")
    assert problems[2] == "unknown override physics.warp"


def _numbers(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw).map(repr)


_OVERRIDE_VALUES = {
    ("output", "directory"): st.text(),
    ("physics", "kappa"): _numbers(0.0, 1e6),
    ("physics", "delta"): _numbers(0.0, 1e6),
    ("physics", "s"): _numbers(0.0, 1.0, exclude_min=True, exclude_max=True),
    ("physics", "nu"): _numbers(-1e6, 1e6),
    ("initial", "diameter"): _numbers(0.0, 3.0),
    ("initial", "seed"): st.integers(0, 2 ** 63).map(str),
    ("integrator", "dt"): st.one_of(st.just("auto"), _numbers(1e-9, 1.0)),
    ("integrator", "horizon"): _numbers(1e-9, 1e3),
    ("integrator", "stride"): st.integers(1, 10_000).map(str),
    ("grid", "nodes"): st.integers(2, 4096).map(str),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_overridden_config_reparses_from_its_canonical_text(data):
    keys = data.draw(st.lists(st.sampled_from(sorted(_OVERRIDE_VALUES)), unique=True))
    padding = st.sampled_from(["", " ", "\t"])
    overrides = {key: data.draw(padding) + data.draw(_OVERRIDE_VALUES[key]) + data.draw(padding)
                 for key in keys}
    directory = overrides.get(("output", "directory"), "out")
    breaks_text = any("#" in v or len((v + "x").splitlines()) > 1 for v in overrides.values())
    try:
        cfg = apply_overrides(SimConfig(), overrides)
    except ConfigurationError:
        assert breaks_text or not directory.strip()
        return
    assert not breaks_text
    assert cfg.output.directory == directory.strip()
    assert parse_config_text(cfg.canonical_text()) == cfg
    assert apply_overrides(cfg, {}) == cfg


def test_the_text_path_gives_one_extent_per_dimension():
    # a second axis defaults to the first, and a 1d grid refuses extent2
    square = parse_config_text("[grid]\ndimension = 2\nextent = 0 2\n")
    assert square.grid.extents == ((0.0, 2.0), (0.0, 2.0))
    assert apply_overrides(SimConfig(), {("grid", "dimension"): "2"}).grid.extents == (
        (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[grid]\nextent2 = 0 1\n")
    assert err.value.problems == ["grid.extent2: a second axis needs grid.dimension = 2"]


def test_a_dataclass_grid_needs_one_extent_per_dimension():
    # listed with the other problems, before content_hash() could fail on it
    cfg = SimConfig(grid=GridConfig(dimension=2, nodes=4), physics=PhysicsConfig(kappa=-1.0))
    assert cfg.problems() == ["grid.extents: dimension 2 needs 2 intervals, got 1",
                              "physics.kappa: must be nonnegative, got -1.0"]
    flat = SimConfig(grid=GridConfig(extents=((0.0, 1.0), (0.0, 1.0))))
    assert flat.problems() == ["grid.extents: dimension 1 needs 1 interval, got 2"]
    with pytest.raises(ConfigurationError):
        simulate(cfg)


def test_scheme_auto_parses_and_round_trips():
    cfg = parse_config_text("[integrator]\nscheme = AUTO\n")
    assert cfg.integrator.scheme == "auto"
    assert parse_config_text(cfg.canonical_text()) == cfg
    assert "scheme = auto" in cfg.canonical_text()
    with pytest.raises(ConfigurationError) as err:
        parse_config_text("[integrator]\nscheme = fastest\n")
    assert err.value.problems == ["integrator.scheme: must be one of "
                                  "('rk4', 'euler', 'rkc', 'auto'), got 'fastest'"]
