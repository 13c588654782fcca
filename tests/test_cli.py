import math
from pathlib import Path

import pytest

from needlecomp import (ConfigError, CurvatureDimension, DensityProfile, EuclideanBall,
                        GeodesicSphere, LevelPoint, RoundSphere, SphericalSuspension,
                        WeightedInterval, decompose, equality_detect, hk_full, hk_outer,
                        model_interval)
from needlecomp.cli import CSV_HEADER, ExperimentConfig, main, parse_config, run
from needlecomp.geometry import GEOMETRY_KINDS

SPHERE_CFG = """\
[geometry]
kind = round-sphere
n = 2
radius = 1.0

[surface]
r0 = 1.5707963267948966

[run]
checks = hk-full, rigidity
"""

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

TRUNCATED_CFG = """\
# half point of a truncated model interval
[geometry]
kind = weighted-interval
K = 1.0
N = 2.0
density = model
length = 3.0415926535897933

[surface]
r0 = 1.5707963267948966

[run]
checks = rigidity
"""


# ----------------------------------------------------------------- parsing

def test_parse_valid_sphere_config():
    config = parse_config(SPHERE_CFG)
    assert config.geometry == RoundSphere(2, 1.0)
    assert config.surface == GeodesicSphere(1.5707963267948966)
    assert config.checks == ("hk-full", "rigidity")
    assert config.output_format == "report"


def test_parse_unknown_key_is_hard_error():
    bad = SPHERE_CFG.replace("radius = 1.0", "raduis = 1.0")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "raduis" in str(err.value)
    assert "line" in str(err.value)


def test_parse_unknown_section_and_check():
    with pytest.raises(ConfigError):
        parse_config(SPHERE_CFG + "\n[plots]\nx = 1\n")
    with pytest.raises(ConfigError) as err:
        parse_config(SPHERE_CFG.replace("hk-full", "hk-fill"))
    assert "hk-fill" in str(err.value)


def test_parse_duplicate_key():
    with pytest.raises(ConfigError):
        parse_config(SPHERE_CFG + "radius = 2.0\n")


def test_parse_bad_number():
    with pytest.raises(ConfigError) as err:
        parse_config(SPHERE_CFG.replace("1.5707963267948966", "about-half-pi"))
    assert "r0" in str(err.value)


def test_parse_surface_touching_pole():
    with pytest.raises(ConfigError) as err:
        parse_config(SPHERE_CFG.replace("1.5707963267948966", "0.0"))
    assert "touches pole" in str(err.value)


def test_parse_interval_surface_out_of_range():
    with pytest.raises(ConfigError):
        parse_config(TRUNCATED_CFG.replace("r0 = 1.5707963267948966", "r0 = 3.2"))


def test_parse_weighted_interval_maps_to_level_point():
    config = parse_config(TRUNCATED_CFG)
    assert isinstance(config.surface, LevelPoint)


def test_overrides_replace_keys():
    config = parse_config(SPHERE_CFG, overrides=["surface.r0=0.5",
                                                 "output.format=csv"])
    assert config.surface == GeodesicSphere(0.5)
    assert config.output_format == "csv"


# A valid value for each config key of a kind, its required keys, the classes
# it parses to and what a surface at r0 = 0 touches.
KIND_CONFIGS = {
    "weighted-interval": ({"K": "1.0", "N": "3.0", "density": "model", "length": "2.0"},
                          ("K", "N"), WeightedInterval, LevelPoint, "boundary"),
    "round-sphere": ({"n": "3", "radius": "1.5"}, ("n", "radius"), RoundSphere,
                     GeodesicSphere, "pole"),
    "euclidean-ball": ({"n": "3", "R": "1.0"}, ("n", "R"), EuclideanBall, GeodesicSphere,
                       "boundary"),
    "spherical-suspension": ({"K": "1.0", "N": "3.0", "base_volume": "2.5"},
                             ("K", "N", "base_volume"), SphericalSuspension,
                             GeodesicSphere, "pole"),
}


def _kind_config(kind: str, keys: dict, r0: str = "0.5") -> str:
    return "\n".join(["[geometry]", f"kind = {kind}", *(f"{k} = {v}" for k, v in keys.items()),
                      "", "[surface]", f"r0 = {r0}", "", "[run]", "checks = hk-full", ""])


def test_kind_table_lists_the_four_kinds_in_order():
    assert list(GEOMETRY_KINDS) == list(KIND_CONFIGS)
    with pytest.raises(ConfigError) as err:
        parse_config(_kind_config("torus", {}))
    assert str(err.value) == ("line 2, key 'kind': unknown geometry kind 'torus'; expected one "
                              "of weighted-interval, round-sphere, euclidean-ball, "
                              "spherical-suspension")


@pytest.mark.parametrize("kind", GEOMETRY_KINDS)
def test_each_kind_parses_from_exactly_its_keys(kind):
    values, required, cls, surface, end = KIND_CONFIGS[kind]
    for keys in (values, {key: values[key] for key in required}):
        config = parse_config(_kind_config(kind, keys))
        assert type(config.geometry) is cls and config.surface == surface(0.5)
    with pytest.raises(ConfigError) as err:
        parse_config(_kind_config(kind, values, r0="0"))
    r0_line = 5 + len(values)  # after the geometry lines, a blank and [surface]
    assert str(err.value).startswith(f"line {r0_line}, key 'r0': surface touches {end}: "
                                     "r0=0.0 must lie strictly inside (0, ")
    for key in required:
        with pytest.raises(ConfigError) as err:
            parse_config(_kind_config(kind, {k: v for k, v in values.items() if k != key}))
        assert str(err.value) == f"key '{key}': missing required key in [geometry]"
    foreign = {k: v for other in KIND_CONFIGS.values() for k, v in other[0].items()
               if k not in values}
    assert foreign
    for key, value in foreign.items():
        with pytest.raises(ConfigError) as err:
            parse_config(_kind_config(kind, {**values, key: value}))
        line = 3 + len(values)  # after [geometry], kind and the kind's own keys
        assert str(err.value) == f"line {line}, key '{key}': unknown key in [geometry]"


# ------------------------------------------------------------------ running

def test_run_sphere_equator_exits_zero(capsys):
    config = parse_config(SPHERE_CFG, overrides=["run.expect=rigid"])
    assert run(config) == 0
    out = capsys.readouterr().out
    assert "check hk-full: PASS" in out
    assert "equality=true" in out
    assert repr(4 * math.pi) in out


def test_run_truncated_rigidity_is_reported_not_asserted(capsys):
    config = parse_config(TRUNCATED_CFG)
    assert run(config) == 0
    assert "equality=false" in capsys.readouterr().out


def test_run_expectation_failure_is_nonzero(capsys):
    config = parse_config(TRUNCATED_CFG, overrides=["run.expect=rigid"])
    assert run(config) == 1
    out = capsys.readouterr().out
    assert "FAIL check=rigidity" in out


def test_run_expect_not_rigid_passes():
    config = parse_config(TRUNCATED_CFG, overrides=["run.expect=not-rigid"])
    assert run(config) == 0


def test_run_cd_density_failure_is_nonzero(capsys):
    # constant density cannot satisfy a positive curvature bound; the API
    # still builds it, where a configuration refuses it
    geom = WeightedInterval(1.5, DensityProfile(0.0, 1.5, lambda r: 1.0),
                            CurvatureDimension(1.0, 2.0))
    assert run(ExperimentConfig(geom, LevelPoint(0.75), ("cd-density",))) == 1
    assert "FAIL check=cd-density" in capsys.readouterr().out


def test_run_corollaries_past_the_sphere_power_overflow(capsys):
    # kappa^{-N/2} overflows a float although both corollary bounds do not
    assert main(["run", str(CONFIGS / "suspension.cfg"),
                 "--set", "geometry.K=1.02e-4", "--set", "geometry.N=103",
                 "--set", "geometry.base_volume=1e-300", "--set", "surface.r0=1000",
                 "--set", "run.checks=corollaries", "--path", "-"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert "check corollaries: PASS" in captured.out
    assert "statement=corollary-positive-K-spheres kind=summary" in captured.out


def test_run_corollaries_without_applicable_branch_fails(capsys):
    text = """\
[geometry]
kind = euclidean-ball
n = 3
R = 1.0

[surface]
r0 = 0.5

[run]
checks = corollaries
"""
    assert run(parse_config(text)) == 1
    assert "FAIL check=corollaries" in capsys.readouterr().out


# ---------------------------------------------------------------- emission

def test_csv_output_is_deterministic(tmp_path):
    target = tmp_path / "out.csv"
    config = parse_config(SPHERE_CFG, overrides=[
        "output.format=csv", f"output.path={target}",
        "run.checks=hk-outer, hk-full", "run.t_values=0.25, 0.5, 1.0"])
    assert run(config) == 0
    first = target.read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == CSV_HEADER
    # three t-values with one needle each, plus hk-full: 4 blocks of 2 rows
    assert len(lines) == 1 + 4 * 2
    assert run(config) == 0
    assert target.read_bytes() == first


def test_csv_summary_only_when_no_widths(tmp_path):
    target = tmp_path / "empty.csv"
    config = parse_config(SPHERE_CFG, overrides=[
        "output.format=csv", f"output.path={target}", "run.checks=hk-outer"])
    assert run(config) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2  # summary row only
    assert lines[1].startswith("hk-outer,")


def test_csv_floats_round_trip(tmp_path):
    target = tmp_path / "ball.csv"
    config = parse_config(SPHERE_CFG, overrides=[
        "output.format=csv", f"output.path={target}", "run.checks=hk-full"])
    assert run(config) == 0
    summary = target.read_text().splitlines()[-1].split(",")
    assert float(summary[2]) == 4 * math.pi  # lhs survives the round trip
    assert summary[6] == "true"


def test_plotdata_series(tmp_path):
    target = tmp_path / "curves.dat"
    config = parse_config(SPHERE_CFG, overrides=[
        "output.format=plotdata", f"output.path={target}",
        "run.checks=hk-outer", "run.t_values=0.2, 0.4, 0.8, 1.2"])
    assert run(config) == 0
    text = target.read_text()
    assert "# series: hk-outer lhs" in text
    assert "# series: hk-outer rhs" in text
    blocks = {}
    series = None
    for line in text.splitlines():
        if line.startswith("# series:"):
            series = line.split(":", 1)[1].strip()
            blocks[series] = []
        elif line.strip() and series:
            x, y = line.split()
            blocks[series].append((float(x), float(y)))
    lhs, rhs = blocks["hk-outer lhs"], blocks["hk-outer rhs"]
    assert [x for x, _ in lhs] == [0.2, 0.4, 0.8, 1.2]
    assert all(a[1] <= b[1] + 1e-12 for a, b in zip(lhs, lhs[1:]))  # monotone
    assert all(l[1] <= r[1] + 1e-9 * abs(r[1]) for l, r in zip(lhs, rhs))


def test_no_leftover_temp_files(tmp_path):
    target = tmp_path / "out.csv"
    config = parse_config(SPHERE_CFG, overrides=[
        "output.format=csv", f"output.path={target}", "run.checks=hk-full"])
    assert run(config) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


# --------------------------------------------------------------- interface

def test_main_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SPHERE_CFG)
    assert main(["run", str(cfg)]) == 0
    assert "hk-full" in capsys.readouterr().out


def test_main_run_missing_file(capsys):
    assert main(["run", "/nonexistent/exp.cfg"]) == 2
    assert "FAIL check=config" in capsys.readouterr().out


def test_main_run_parse_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SPHERE_CFG.replace("radius", "raduis"))
    assert main(["run", str(cfg)]) == 2
    assert "raduis" in capsys.readouterr().out


def test_main_rejects_nonpositive_grid_size(capsys):
    # a grid of 0 points once made ratio and sturm pass with lhs=-inf
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"),
                 "--set", "run.checks=ratio,sturm", "--set", "run.grid_size=0"]) == 2
    out = capsys.readouterr().out
    assert "ConfigError" in out and "grid_size" in out
    assert "PASS" not in out


def test_main_rejects_unknown_override_section(capsys):
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "foo.bar=1"]) == 2
    out = capsys.readouterr().out
    assert "ConfigError: unknown section 'foo'" in out
    with pytest.raises(ConfigError) as in_file:
        parse_config(SPHERE_CFG + "\n[foo]\nbar = 1\n")
    with pytest.raises(ConfigError) as in_override:
        parse_config(SPHERE_CFG, overrides=["foo.bar=1"])
    assert in_override.value.reason == in_file.value.reason


def test_main_levy_gromov_near_antipode(capsys):
    # the inner fraction is 1 - 2.5e-13 here, and the float 1 - v keeps only
    # a few digits of the outer share
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"),
                 "--set", "surface.r0=3.1415916535897933",
                 "--set", "run.checks=levy-gromov"]) == 0
    out = capsys.readouterr().out
    assert "check levy-gromov: PASS" in out
    assert "equality=true" in out


def test_main_jacobian_subcommand(capsys):
    assert main(["jacobian", "--H", "1.0", "--K", "0.0", "--N", "2.0",
                 "--r", "0.5"]) == 0
    assert float(capsys.readouterr().out) == 1.5


def test_main_profile_subcommand(capsys):
    assert main(["profile", "--K", "1.0", "--N", "2.0", "--v", "0.5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.5, abs=1e-10)


def test_main_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.startswith("needlecomp ")


def test_env_tolerance_reaches_equality_flag(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(TRUNCATED_CFG.replace("3.0415926535897933",
                                         "3.1414926535897933"))
    monkeypatch.setenv("NEEDLECOMP_TOL", "1e-2")
    assert main(["run", str(cfg)]) == 0
    assert "equality=true" in capsys.readouterr().out
    monkeypatch.setenv("NEEDLECOMP_TOL", "1e-12")
    assert main(["run", str(cfg)]) == 0
    assert "equality=false" in capsys.readouterr().out


def test_main_output_in_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.csv"
    assert main(["run", str(CONFIGS / "euclidean_ball.cfg"), "--format", "csv",
                 "--path", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"FAIL check=output reason=cannot write {target}" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert list(tmp_path.iterdir()) == []


def test_expect_without_rigidity_check_is_enforced(capsys):
    # expect = not-rigid in the file; the run lists hk-full only
    cfg = str(CONFIGS / "truncated_interval.cfg")
    assert main(["run", cfg, "--set", "run.checks=hk-full",
                 "--set", "run.expect=rigid"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check=expect reason=expected rigid but conditions failed" in out
    assert "check hk-full: PASS" in out

    assert main(["run", cfg, "--set", "run.checks=hk-full"]) == 0
    assert "expect" not in capsys.readouterr().out


def test_expect_without_rigidity_check_leaves_output_alone(capsys):
    # the equator is rigid, so expect = rigid holds and prints nothing
    cfg = str(CONFIGS / "sphere_equator.cfg")
    assert main(["run", cfg, "--set", "run.checks=hk-full", "--format", "csv"]) == 0
    with_expect = capsys.readouterr().out
    assert main(["run", cfg, "--set", "run.checks=hk-full,rigidity",
                 "--format", "csv"]) == 0
    assert with_expect.splitlines() == capsys.readouterr().out.splitlines()[:-1]


@pytest.mark.parametrize("value", ["-1e-3", "0", "inf", "-inf", "nan"])
def test_parse_rejects_invalid_tolerance(value):
    with pytest.raises(ConfigError) as err:
        parse_config(SPHERE_CFG, overrides=[f"run.tolerance={value}"])
    assert err.value.key == "tolerance"


def test_main_invalid_tolerance_is_a_config_error(capsys, monkeypatch):
    cfg = str(CONFIGS / "sphere_equator.cfg")
    assert main(["run", cfg, "--set", "run.tolerance=-1"]) == 2
    out = capsys.readouterr().out
    assert "FAIL check=config" in out and "tolerance" in out
    monkeypatch.setenv("NEEDLECOMP_TOL", "abc")
    assert main(["run", cfg]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL check=config") and "NEEDLECOMP_TOL" in out
    assert "check hk-full" not in out


def test_no_path_imports_scipy(run_isolated):
    # every shipped config, profile and jacobian run on the pure-Python
    # quadrature and incomplete beta; scipy stays a test-only oracle
    out = run_isolated(f"""
import contextlib, io
from pathlib import Path
from needlecomp.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for cfg in sorted(Path({str(CONFIGS)!r}).glob("*.cfg")):
        codes.append(main(["run", str(cfg), "--path", "-"]))
    codes.append(main(["profile", "--K", "1", "--N", "3", "--v", "0.3"]))
    codes.append(main(["jacobian", "--H", "1", "--K", "1", "--N", "3", "--r", "0.5"]))
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
""")
    assert out.strip() == "[0, 0, 0, 0, 0, 0] []"


def test_numpy_is_loaded_only_by_cd_density(run_isolated):
    # numpy serves the array paths only: the cd-density check, profile samples
    # and grid(), and array sigma_kappa; euclidean_ball.cfg runs cd-density
    out = run_isolated(f"""
import contextlib, io
from pathlib import Path
import needlecomp
from needlecomp.cli import main
loaded = ["numpy" in sys.modules]
configs = Path({str(CONFIGS)!r})
calls = [["version"],
         ["profile", "--K", "1", "--N", "3", "--v", "0.3"],
         ["jacobian", "--H", "1", "--K", "1", "--N", "3", "--r", "0.5"]]
calls += [["run", str(configs / name), "--path", "-"]
          for name in ("sphere_equator.cfg", "suspension.cfg", "truncated_interval.cfg",
                       "euclidean_ball.cfg")]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for args in calls:
        codes.append(main(args))
        loaded.append("numpy" in sys.modules)
print(codes, loaded)
""")
    assert out.strip() == ("[0, 0, 0, 0, 0, 0, 0] "
                           "[False, False, False, False, False, False, False, True]")


def test_no_command_loads_dataclasses(run_isolated):
    # the value types are named tuples and plain classes: importing
    # dataclasses (and with it inspect) took most of a cold command's import
    out = run_isolated(f"""
import contextlib, io
from pathlib import Path
from needlecomp.cli import main
configs = Path({str(CONFIGS)!r})
calls = [["version"],
         ["profile", "--K", "1", "--N", "3", "--v", "0.3"],
         ["jacobian", "--H", "1", "--K", "1", "--N", "3", "--r", "0.5"]]
calls += [["run", str(configs / name), "--path", "-"]
          for name in ("sphere_equator.cfg", "suspension.cfg", "truncated_interval.cfg")]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for args in calls:
        codes.append(main(args))
    loaded = [m in sys.modules for m in ("dataclasses", "inspect")]
    codes.append(main(["run", str(configs / "euclidean_ball.cfg"), "--path", "-"]))
loaded.append("dataclasses" in sys.modules)  # numpy imports inspect, not dataclasses
print(codes, loaded)
""")
    assert out.strip() == "[0, 0, 0, 0, 0, 0, 0] [False, False, False]"


SUSPENSION_OVERFLOW_CFG = """\
[geometry]
kind = spherical-suspension
K = 1e-3
N = 400
base_volume = 1

[surface]
r0 = 1000

[run]
checks = hk-full
"""


def test_density_overflow_is_a_typed_error(tmp_path, capsys):
    # sin_kappa reaches about 632 here, and 632^399 overflows a float
    path = tmp_path / "overflow.cfg"
    path.write_text(SUSPENSION_OVERFLOW_CFG)
    assert main(["run", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL check=decompose reason=ParameterError: ")
    assert "overflows" in out and "Traceback" not in out


def test_failing_override_is_reported_by_position(capsys):
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"),
                 "--set", "run.checks=ratio", "--set", "run.grid_size=0"]) == 2
    out = capsys.readouterr().out
    assert "ConfigError: --set #2, key 'grid_size': grid_size must be >= 1" in out
    assert "line 0" not in out
    with pytest.raises(ConfigError) as info:
        parse_config(SPHERE_CFG, overrides=["run.grid_size=0"])
    assert info.value.line == "--set #1"
    with pytest.raises(ConfigError) as info:
        parse_config(SPHERE_CFG, overrides=["surface.r0=1", "geometry.raduis=2"])
    assert str(info.value).startswith("--set #2, key 'raduis'")


CD_OVERFLOW_CFG = """\
[geometry]
kind = weighted-interval
density = constant
length = 10
K = -10000
N = 2

[surface]
r0 = 5

[run]
checks = cd-density
"""


def test_cd_density_overflow_is_a_typed_error(tmp_path, capsys):
    # sinh(sqrt(1e4) theta) overflows a float once theta passes about 7.1
    path = tmp_path / "cd_overflow.cfg"
    path.write_text(CD_OVERFLOW_CFG)
    assert main(["run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL check=cd-density reason=ParameterError: " in out
    assert "overflow" in out and "Traceback" not in out


def test_equator_of_the_100_sphere_is_rigid(capsys):
    # the total mass (about 6e-39) was once integrated to an absolute 1e-12,
    # so that the quadrature stopped at once, 1.2e-8 off
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"),
                 "--set", "geometry.n=100", "--path", "-"]) == 0
    out = capsys.readouterr().out
    assert "check rigidity: PASS" in out and "FAIL" not in out


def test_sturm_power_overflow_is_a_typed_error(capsys):
    # the density 10 raised to 1/(N-1) = 1000 overflows a float
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"), "--set", "geometry.K=0",
                 "--set", "geometry.density=constant", "--set", "geometry.length=0.1",
                 "--set", "geometry.N=1.001", "--set", "surface.r0=0.05",
                 "--set", "run.checks=sturm", "--path", "-"]) == 1
    out = capsys.readouterr().out
    assert "FAIL check=sturm reason=ParameterError: density must be positive" in out
    assert "Traceback" not in out


def test_constant_density_with_positive_K_is_a_config_error(capsys):
    # a constant density satisfies CD(K, N) only for K <= 0; hk-full once
    # raised InequalityViolation on this configuration
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"),
                 "--set", "geometry.density=constant", "--set", "geometry.length=0.1",
                 "--set", "geometry.N=1.001", "--set", "surface.r0=0.05",
                 "--set", "run.checks=sturm", "--path", "-"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL check=config reason=ConfigError: ")
    assert "K <= 0" in out and "InequalityViolation" not in out


def test_area_of_a_400_ball_no_longer_overflows(capsys):
    # the area constant of the 399-sphere is 1.37e-273; the run now reaches
    # decompose, where s^399 underflows next to the centre
    assert main(["run", str(CONFIGS / "euclidean_ball.cfg"), "--set", "geometry.n=400",
                 "--path", "-"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL check=decompose reason=ParameterError: density must be "
                          "positive")
    assert "Traceback" not in out


@pytest.mark.parametrize("n, radius, r0, where, what", [
    (400, 1e4, 100.0, "config", "overflows"),  # Gamma(200) in the sphere's area
    (210, 0.01, 0.01, "decompose", "underflows"),  # the total mass is below 1e-324
])
def test_unrepresentable_sphere_is_a_typed_error(capsys, n, radius, r0, where, what):
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", f"geometry.n={n}",
                 "--set", f"geometry.radius={radius}", "--set", f"surface.r0={r0}"]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL check={where} reason=ParameterError: ")
    assert what in out and "Traceback" not in out


def test_overflowing_distortion_profile_is_a_typed_failure(capsys):
    # H = 31 cot(1e-5) is about 3.1e6 at this small cap of the 63-sphere, and
    # J = (cos + H/62 sin)^62 overflows a float inside the profile match of
    # hk-outer and in the corollary-positive-K bound
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "geometry.n=63",
                 "--set", "geometry.radius=2", "--set", "surface.r0=2e-5",
                 "--set", "run.checks=hk-outer,corollaries", "--set", "run.t_values=1e-6",
                 "--path", "-"]) == 1
    out = capsys.readouterr().out
    for check in ("hk-outer", "corollaries"):
        assert (f"FAIL check={check} reason=ParameterError: the distortion profile J "
                "overflows a float at these parameters") in out
    assert "Traceback" not in out


# ------------------------------------------------- README experiment recipes

def test_tube_curve_recipe_matches_hk_outer(capsys):
    widths = (0.5, 1.0, 1.5, 2.0)
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "surface.r0=0.7",
                 "--set", "run.checks=hk-outer", "--set", "run.t_values=0.5,1,1.5,2",
                 "--format", "plotdata"]) == 0
    reports = [hk_outer(decompose(RoundSphere(2, 1.0), GeodesicSphere(0.7)), t)
               for t in widths]
    assert capsys.readouterr().out.splitlines() == [
        "# series: hk-outer lhs", *(f"{t!r} {r.lhs!r}" for t, r in zip(widths, reports)), "",
        "# series: hk-outer rhs", *(f"{t!r} {r.rhs!r}" for t, r in zip(widths, reports))]


@pytest.mark.parametrize("r0", ["0.5", "1.5", "2.5"])
def test_rigidity_scan_recipe_matches_equality_detect(capsys, r0):
    cfg = str(CONFIGS / "truncated_interval.cfg")
    recipe = ["run", cfg, "--set", f"surface.r0={r0}", "--set", "run.checks=hk-full,rigidity",
              "--format", "csv"]
    assert main(recipe) == 0
    rows = capsys.readouterr().out.splitlines()
    dec = decompose(model_interval(CurvatureDimension(1.0, 2.0), length=3.0415926535897933),
                    LevelPoint(float(r0)))
    full, verdict = hk_full(dec), equality_detect(dec)
    assert rows[-2].startswith(f"hk-full,,{full.lhs!r},{full.rhs!r},{full.gap!r},"
                               f"{full.relative_gap!r},false,,,")
    assert rows[-1] == (f"rigidity,,,,{verdict.gap!r},{verdict.relative_gap!r},"
                        f"{str(verdict.rigid).lower()},,,")
    assert main(recipe + ["--set", "run.expect=rigid"]) == 1
    assert (f"FAIL check=rigidity reason=expected rigid but conditions failed: "
            f"{verdict.failed_conditions}") in capsys.readouterr().out
