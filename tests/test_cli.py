import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argparse_reference import argparse_outcome
from conftest import ISOLATED_TIMEOUT_S
from needlecomp import cli
from needlecomp import (ConfigError, CurvatureDimension, DensityProfile, EuclideanBall,
                        GeodesicSphere, LevelPoint, RoundSphere, SphericalSuspension,
                        WeightedInterval, decompose, equality_detect, hk_full, hk_outer,
                        model_interval)
from needlecomp.cli import (CHECKS, CSV_HEADER, MAX_GRID_SIZE, ExperimentConfig, main,
                            parse_config, run)
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


@pytest.fixture(autouse=True)
def parse_args_matches_argparse(monkeypatch):
    """Every command line that a test here passes to main parses to the command
    and values, or the usage error, that the argparse parser it replaced gave."""
    parse = cli.parse_args

    def checked(argv):
        try:
            command, values = parse(argv)
        except cli._UsageError:
            assert argparse_outcome(argv) == 2
            raise
        assert argparse_outcome(argv) == (0 if values is None else (command, values))
        return command, values

    monkeypatch.setattr(cli, "parse_args", checked)


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
    assert str(err.value) == (
        "line 10, key 'checks': unknown check 'hk-fill'; expected one of cd-density, sturm, "
        "ratio, hk-outer, hk-full, corollaries, levy-gromov, rigidity, minkowski")


def test_epsilons_is_an_unknown_key(tmp_path, capsys):
    # the Minkowski widths follow the density's scale; a configured list once
    # replaced them, and the README's own list made minkowski FAIL on a 90-ball
    path = tmp_path / "epsilons.cfg"
    path.write_text(SPHERE_CFG + "epsilons = 0.01, 0.005, 0.0025\n")
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().out == ("FAIL check=config reason=ConfigError: line 11, "
                                       "key 'epsilons': unknown key in [run]\n")


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


def test_hk_outer_without_widths_is_a_config_error(tmp_path, capsys):
    # an hk-outer check over no tube widths compares nothing: it used to pass
    # with an empty summary row
    target = tmp_path / "empty.csv"
    with pytest.raises(ConfigError) as err:
        parse_config(SPHERE_CFG, overrides=[
            "output.format=csv", f"output.path={target}", "run.checks=hk-outer"])
    assert (err.value.key, err.value.reason) == ("t_values",
                                                 "hk-outer needs at least one tube width")
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "run.checks=hk-outer",
                 "--path", "-"]) == 2
    assert capsys.readouterr().out == ("FAIL check=config reason=ConfigError: key 't_values': "
                                       "hk-outer needs at least one tube width\n")
    assert not target.exists()


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


@pytest.mark.parametrize("grid", [1, 2, MAX_GRID_SIZE + 1])
def test_main_rejects_grid_size_outside_its_range(grid, capsys):
    # 1 and 2 were a FAIL of the cd-density check with exit 1, and a grid above
    # the ceiling ran for minutes to hours
    assert main(["run", str(CONFIGS / "euclidean_ball.cfg"), "--set", "run.checks=cd-density",
                 "--set", f"run.grid_size={grid}", "--path", "-"]) == 2
    assert capsys.readouterr().out == (
        f"FAIL check=config reason=ConfigError: --set #2, key 'grid_size': grid_size must "
        f"be between 3 and {MAX_GRID_SIZE}, got {grid}\n")
    config = parse_config(SPHERE_CFG)
    for ok in (3, MAX_GRID_SIZE):
        assert config._replace(grid_size=ok).grid_size == ok


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


def test_main_jacobian_takes_negative_values_with_an_exponent(capsys):
    # argparse's own negative-number pattern has no exponent, so it took -1e-5
    # for an option and refused --K
    for K in ("-1e-5", "-1E-5", "-1.0e-05", "-0.00001"):
        assert main(["jacobian", "--H", "1", "--K", K, "--N", "3", "--r", "0.5"]) == 0
        assert capsys.readouterr().out == "1.5625016927089623\n"
    assert main(["jacobian", "--H", "-1e0", "--K", "0", "--N", "2", "--r", "-2.5e-1"]) == 0
    assert float(capsys.readouterr().out) == 1.25


def test_main_profile_takes_negative_values_with_an_exponent(capsys):
    assert main(["profile", "--K", "-1e-5", "--N", "3", "--v", "0.3"]) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: positive "
                                       "curvature bound required, got K=-1e-05\n")


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


def test_main_output_onto_a_directory_leaves_no_temporary_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.mkdir()
    assert main(["run", str(CONFIGS / "euclidean_ball.cfg"), "--format", "csv",
                 "--path", str(target)]) == 2
    captured = capsys.readouterr()
    assert f"FAIL check=output reason=cannot write {target}: Is a directory" in captured.out
    assert "Traceback" not in captured.out + captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_output_file_mode_follows_the_umask(tmp_path, capsys, umask):
    target = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--format", "csv",
                     "--path", str(target)]) == 0
    finally:
        os.umask(old)
    assert target.stat().st_mode & 0o777 == 0o666 & ~umask
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize("format, text", [
    ("csv", CSV_HEADER + "\n"), ("plotdata", ""), ("report", (
        "needlecomp report\ncheck levy-gromov: FAIL\n  note: ParameterError: isoperimetric "
        "comparison requires K > 0, got K=0.0\n"))])
def test_a_run_without_rows_writes_no_empty_row(capsys, tmp_path, format, text):
    # the ball has K = 0, so levy-gromov fails without a row
    target = tmp_path / f"out.{format}"
    assert main(["run", str(CONFIGS / "euclidean_ball.cfg"), "--set", "run.checks=levy-gromov",
                 "--format", format, "--path", str(target)]) == 1
    assert target.read_text() == text
    assert capsys.readouterr().out == ("FAIL check=levy-gromov reason=ParameterError: "
                                       "isoperimetric comparison requires K > 0, got K=0.0\n")


def test_undecodable_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe[geometry]\n")
    assert main(["run", str(cfg), "--path", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ("FAIL check=config reason='utf-8' codec can't decode byte 0xff "
                            "in position 0: invalid start byte\n")
    assert captured.err == ""


@pytest.mark.parametrize("argv, command", [
    (["-h"], None), (["--he", "run"], None), (["run", "-h"], "run"),
    (["run", "x.cfg", "--format", "csv", "--help"], "run"), (["jacobian", "--h"], "jacobian"),
    (["profile", "--help"], "profile"), (["version", "-h"], "version")])
def test_help_is_built_from_the_command_table(capsys, argv, command):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    if command is None:
        assert lines[0] == "usage: needlecomp [-h] {run,jacobian,profile,version} ..."
        for name, spec in cli.COMMANDS.items():
            assert f"  {name:<10}{spec.help}" in lines
    else:
        assert lines[0].startswith(f"usage: needlecomp {command} [-h]")
        assert cli.COMMANDS[command].help in lines
        for name, flag in cli.COMMANDS[command].flags.items():
            assert any(line.startswith(f"  --{name} {flag.metavar} ") or
                       line == f"  --{name} {flag.metavar}" for line in lines)
    if command == "run":
        assert "--format {report,csv,plotdata}" in lines[0]


@pytest.mark.parametrize("argv, message", [
    ([], "needlecomp: error: the following arguments are required: command"),
    (["run"], "needlecomp run: error: the following arguments are required: CONFIG"),
    (["run", "x.cfg", "--format", "xml"],
     "needlecomp run: error: argument --format: expected {report,csv,plotdata}, got 'xml'"),
    (["jacobian", "--H", "1", "--K", "0"],
     "needlecomp jacobian: error: the following arguments are required: --N, --r")])
def test_usage_error_prints_the_usage_to_stderr_and_exits_2(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: needlecomp")
    assert error == message


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
    # numpy serves the cd-density check only, and only on a lattice of more
    # than 1,024 points: euclidean_ball.cfg runs it at grid 24 in Python
    # floats, and the sturm and ratio checks stay in Python floats.  Once
    # numpy is loaded, grid 24 takes the array path too.
    out = run_isolated(f"""
import contextlib, io
from pathlib import Path
import needlecomp
from needlecomp import needle
from needlecomp.cli import main
float_grids = []
floats = needle._cd_density_floats
needle._cd_density_floats = lambda p, cd, grid: float_grids.append(grid) or floats(p, cd, grid)
loaded = ["numpy" in sys.modules]
configs = Path({str(CONFIGS)!r})
ball = ["run", str(configs / "euclidean_ball.cfg"), "--path", "-"]
calls = [["version"],
         ["profile", "--K", "1", "--N", "3", "--v", "0.3"],
         ["jacobian", "--H", "1", "--K", "1", "--N", "3", "--r", "0.5"]]
calls += [["run", str(configs / "sphere_equator.cfg"), "--set", "run.checks=" + check,
           "--path", "-"] for check in ("sturm", "ratio")]
calls += [["run", str(configs / name), "--path", "-"]
          for name in ("sphere_equator.cfg", "suspension.cfg", "truncated_interval.cfg")]
calls += [ball, ball + ["--set", "run.checks=cd-density", "--set", "run.grid_size=32"],
          ball + ["--set", "run.checks=cd-density", "--set", "run.grid_size=48"], ball]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for args in calls:
        codes.append(main(args))
        loaded.append("numpy" in sys.modules)
print(codes, loaded, float_grids)
""")
    assert out.strip() == ("[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] "
                           "[False, False, False, False, False, False, False, False, False, "
                           "False, False, True, True] [24, 32]")


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
    codes.append(main(["run", str(configs / "euclidean_ball.cfg"), "--set", "run.grid_size=48",
                       "--path", "-"]))
loaded.append("dataclasses" in sys.modules)  # numpy imports inspect, not dataclasses
print(codes, loaded)
""")
    assert out.strip() == "[0, 0, 0, 0, 0, 0, 0] [False, False, False]"


def test_no_command_loads_argparse_tempfile_or_pathlib(tmp_path):
    # argparse (with gettext and locale), tempfile and pathlib took about a
    # third of a cold command's own start-up; -S keeps site's imports out
    src = str(Path(cli.__file__).resolve().parents[1])
    banned = {"argparse", "gettext", "locale", "tempfile", "pathlib"}
    for args in (["version"], ["jacobian", "--H", "1", "--K", "1", "--N", "3", "--r", "0.5"],
                 ["profile", "--K", "1", "--N", "3", "--v", "0.3"],
                 ["run", str(CONFIGS / "euclidean_ball.cfg"), "--path", str(tmp_path / "ball")]):
        done = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "needlecomp.cli", *args],
            capture_output=True, text=True, timeout=ISOLATED_TIMEOUT_S,
            env=dict(os.environ, PYTHONPATH=src))
        assert done.returncode == 0, done.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "needlecomp.geometry" in loaded
        assert loaded.isdisjoint(banned), (args, loaded & banned)
    assert (tmp_path / "ball").read_text().startswith(CSV_HEADER + "\n")


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


@pytest.mark.parametrize("overrides, where", [
    (["geometry.density=constant", "geometry.length=0.1", "geometry.K=2", "surface.r0=0.05"],
     "--set #3"),
    (["geometry.density=constant", "geometry.length=0.1", "surface.r0=0.05"], "line 4"),
])
def test_geometry_error_names_the_line_of_its_key(capsys, overrides, where):
    # the constructor names the key it rejects; the error once named the line of kind
    args = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"), *args]) == 2
    K = "2.0" if where.startswith("--set") else "1.0"
    assert capsys.readouterr().out == (
        f"FAIL check=config reason=ConfigError: {where}, key 'K': a constant density "
        f"satisfies CD(K, N) only for K <= 0, got K={K}\n")
    text = SPHERE_CFG.replace("radius = 1.0", "radius = -1.0")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == "line 4, key 'radius': sphere radius must be positive, got -1.0"


@pytest.mark.parametrize("length", ("-1", "inf"))
def test_constant_interval_length_names_its_key(capsys, length):
    # DensityProfile once rejected the length first, naming the line of kind
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"),
                 "--set", "geometry.density=constant", "--set", f"geometry.length={length}",
                 "--set", "geometry.K=0", "--path", "-"]) == 2
    assert capsys.readouterr().out == (
        f"FAIL check=config reason=ConfigError: --set #2, key 'length': interval length "
        f"must be positive, got {float(length)}\n")
    text = (CONFIGS / "truncated_interval.cfg").read_text().replace(
        "density = model", "density = constant").replace("K = 1.0", "K = 0.0")
    text = re.sub(r"length = .*", f"length = {length}", text)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == \
        f"line 7, key 'length': interval length must be positive, got {float(length)}"


@pytest.mark.parametrize("config, overrides, expected", [
    ("truncated_interval", ["geometry.density=constant", "geometry.K=0", "geometry.N=1",
                            "geometry.length=2", "surface.r0=1"],
     "--set #3, key 'N': dimension bound N must be finite and > 1, got 1.0"),
    ("suspension", ["geometry.N=1"],
     "--set #1, key 'N': dimension bound N must be finite and > 1, got 1.0"),
    ("euclidean_ball", ["geometry.n=1"], "--set #1, key 'n': ball dimension must be >= 2, got 1"),
])
def test_dimension_one_is_a_config_error(capsys, config, overrides, expected):
    # refused where N and n are checked, not later by decompose (check=decompose)
    args = [arg for item in overrides for arg in ("--set", item)]
    assert main(["run", str(CONFIGS / f"{config}.cfg"), *args, "--path", "-"]) == 2
    assert capsys.readouterr().out == f"FAIL check=config reason=ConfigError: {expected}\n"


@pytest.mark.parametrize("args", [["jacobian", "--H", "1", "--K", "0", "--N", "1", "--r", "0.5"],
                                  ["profile", "--K", "1", "--N", "1", "--v", "0.5"]])
def test_subcommands_refuse_dimension_one_where_N_is_checked(capsys, args):
    # each once named N = 1 in its own words, from the function that needed N > 1
    assert main(args) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: dimension bound "
                                       "N must be finite and > 1, got 1.0\n")


@pytest.mark.parametrize("override, checks", [
    ("run.t_values=nan", "hk-outer"), ("run.t_values=0.5,nan", "hk-outer"),
    ("run.H0=nan", "corollaries")])
def test_nan_is_a_config_error_in_lists_too(capsys, override, checks):
    # a NaN in a list once reached the checks: FAIL, exit 1, "t must be positive"
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", override,
                 "--set", f"run.checks={checks}"]) == 2
    key = override.split("=")[0].split(".")[1]
    assert capsys.readouterr().out == (f"FAIL check=config reason=ConfigError: --set #1, "
                                       f"key '{key}': NaN is not a valid value\n")


@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_infinite_H0_is_a_config_error(capsys, value):
    # it once reached closed_form_bounds: FAIL check=corollaries, exit 1
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", f"run.H0={value}",
                 "--set", "run.checks=corollaries"]) == 2
    assert capsys.readouterr().out == (f"FAIL check=config reason=ConfigError: --set #1, "
                                       f"key 'H0': H0 must be finite, got {float(value)}\n")


def test_experiment_config_checks_its_values():
    config = parse_config(SPHERE_CFG)
    for field, value, key, reason in [
            ("checks", (), "checks", "checks must name at least one check"),
            ("t_values", (1.0, 0.0), "t_values", "t_values must be positive, got 0.0"),
            ("expect", "yes", "expect", "expect must be 'rigid' or 'not-rigid', got 'yes'"),
            ("tolerance", math.inf, "tolerance", "tolerance must be finite and positive, got inf"),
            ("grid_size", 0, "grid_size", "grid_size must be between 3 and 1500, got 0"),
            ("H0", -math.inf, "H0", "H0 must be finite, got -inf"),
            ("output_format", "xml", "format",
             "format must be report, csv or plotdata, got 'xml'")]:
        for build in (lambda: config._replace(**{field: value}),
                      lambda: ExperimentConfig(**{**config._asdict(), field: value})):
            with pytest.raises(ConfigError) as err:
                build()
            assert (err.value.key, err.value.line, err.value.reason) == (key, None, reason)


def test_failing_override_is_reported_by_position(capsys):
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"),
                 "--set", "run.checks=ratio", "--set", "run.grid_size=0"]) == 2
    out = capsys.readouterr().out
    assert "ConfigError: --set #2, key 'grid_size': grid_size must be between 3 and" in out
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


def test_cd_density_power_overflow_names_the_density(capsys):
    # K = 0, so no distortion coefficient can overflow: h**(1/(N-1)) = h**2 does
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"),
                 "--set", "geometry.density=constant", "--set", "geometry.K=0",
                 "--set", "geometry.N=1.5", "--set", "geometry.length=1e-200",
                 "--set", "surface.r0=5e-201", "--set", "run.checks=cd-density",
                 "--path", "-"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL check=cd-density reason=ParameterError: the density check's "
            "u = h**(1/(N-1)) overflows a float") in out
    assert "distortion" not in out and "Traceback" not in out


@pytest.mark.parametrize("cfg, overrides", [
    ("sphere_equator.cfg", ["geometry.n=40", "surface.r0=0.3"]),  # deviated by 4.163e-6
    ("suspension.cfg", ["geometry.N=60"]),  # by 1.653e-5
    ("euclidean_ball.cfg", ["geometry.n=90"]),  # by 5.981e-5
])
def test_minkowski_schedule_follows_the_density_in_high_dimension(capsys, cfg, overrides):
    # a schedule scaled to the ray end alone once reported these as FAIL
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert main(["run", str(CONFIGS / cfg), *sets, "--set", "run.checks=minkowski",
                 "--format", "csv", "--path", "-"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == "minkowski" and row[6] == "true"
    assert float(row[5]) < 1e-9


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


@pytest.mark.parametrize("check, reason", [
    ("sturm", "the sturm check's comparison bound u(r0) cos_kappa + u'(r0) sin_kappa "
              "overflows a float"),
    ("ratio", "the distortion profile J overflows a float")])
def test_cosh_overflow_of_a_needle_check_is_a_typed_failure(capsys, check, reason):
    # cosh and sinh of sqrt(1e6) r overflow: both ended in an OverflowError traceback
    assert main(["run", str(CONFIGS / "truncated_interval.cfg"),
                 "--set", "geometry.density=constant", "--set", "geometry.K=-1e6",
                 "--set", f"run.checks={check}", "--path", "-"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL check={check} reason=ParameterError: {reason}" in out


def test_jacobian_command_overflow_is_a_cli_error(capsys):
    assert main(["jacobian", "--H", "0", "--K", "-1e6", "--N", "2", "--r", "10"]) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: the distortion "
                                       "profile J overflows a float at these parameters\n")


@pytest.mark.parametrize("K, N, v", [("1", "1e16", "0.3"), ("1", "1e17", "0.01"),
                                     ("1e300", "1e300", "1e-300")])
def test_profile_command_refuses_an_unresolved_dimension_at_once(capsys, K, N, v):
    # it printed phi(0), 26457.4 and, after 28 s, 0.0
    start = time.perf_counter()
    assert main(["profile", "--K", K, "--N", N, "--v", v]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.startswith(
        "FAIL check=cli reason=ParameterError: the model profile is resolved only for N <= ")


@st.composite
def _valid_configs(draw):
    """Configuration text: the four kinds (the interval as a model density with
    K > 0 or a constant one with K <= 0) at scales 1e-6 to 1e6 with N in
    (1, 300], r0 at 0.1-99.9% of the radial range, every check, a grid of
    3-16 and two tube widths."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    N = draw(st.floats(1.0, 300.0, exclude_min=True))
    n = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(("round-sphere", "euclidean-ball", "spherical-suspension",
                                 "model", "constant")))
    if kind == "round-sphere":
        geometry, extent = f"n = {n}\nradius = {scale!r}", math.pi * scale
    elif kind == "euclidean-ball":
        geometry, extent = f"n = {n}\nR = {scale!r}", scale
    elif kind == "spherical-suspension":
        base_volume = 10.0 ** draw(st.floats(-6.0, 6.0))
        geometry = f"K = {scale!r}\nN = {N!r}\nbase_volume = {base_volume!r}"
        extent = math.pi / math.sqrt(scale / (N - 1.0))
    elif kind == "model":
        extent = math.pi / math.sqrt(scale / (N - 1.0)) * draw(st.floats(0.01, 1.0))
        geometry = f"K = {scale!r}\nN = {N!r}\ndensity = model\nlength = {extent!r}"
        kind = "weighted-interval"
    else:
        K = -draw(st.sampled_from((0.0, 1.0))) * 10.0 ** draw(st.floats(-6.0, 6.0))
        geometry = f"K = {K!r}\nN = {N!r}\ndensity = constant\nlength = {scale!r}"
        extent, kind = scale, "weighted-interval"
    r0 = extent * draw(st.floats(0.001, 0.999))
    widths = ", ".join(repr(extent * draw(st.floats(1e-3, 1.0))) for _ in range(2))
    return (f"[geometry]\nkind = {kind}\n{geometry}\n[surface]\nr0 = {r0!r}\n"
            f"[run]\nchecks = {', '.join(CHECKS)}\nt_values = {widths}\n"
            f"grid_size = {draw(st.integers(3, 16))}\n[output]\npath = -\n")


@settings(max_examples=200, deadline=None)
@given(text=_valid_configs())
def test_no_valid_configuration_escapes_as_an_untyped_exception(text):
    # a valid configuration ends with exit 0, 1 or 2; a ConfigError is a valid refusal
    try:
        config = parse_config(text)
    except ConfigError:
        return
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(config) in (0, 1, 2)


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
    (400, 1e4, 100.0, "decompose", "overflows"),  # (R sin(s/R))^399 in the sphere's density
    (210, 0.01, 0.01, "decompose", "underflows"),  # the total mass is below 1e-324
])
def test_unrepresentable_sphere_is_a_typed_error(capsys, n, radius, r0, where, what):
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", f"geometry.n={n}",
                 "--set", f"geometry.radius={radius}", "--set", f"surface.r0={r0}"]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL check={where} reason=ParameterError: ")
    assert what in out and "Traceback" not in out


def test_total_mass_that_overflows_is_a_typed_error(capsys):
    # the density is finite but its integral is inf, so every needle value was
    # 0 and the run blamed the density's sign
    assert main(["run", str(CONFIGS / "suspension.cfg"), "--set", "geometry.base_volume=5e307",
                 "--path", "-"]) == 2
    assert capsys.readouterr().out == ("FAIL check=decompose reason=ParameterError: the total "
                                       "mass of spherical-suspension overflows a float\n")


@pytest.mark.parametrize("config", ["suspension.cfg", "truncated_interval.cfg"])
def test_curvature_ratio_that_underflows_is_a_config_error(capsys, config):
    # K/(N-1) = 5e-324/2 rounds to 0, and the sine-power density divided by
    # sqrt(K/(N-1)): an untyped ZeroDivisionError
    assert main(["run", str(CONFIGS / config), "--set", "geometry.K=5e-324",
                 "--set", "geometry.N=3", "--path", "-"]) == 2
    out = capsys.readouterr().out
    assert out == ("FAIL check=config reason=ConfigError: --set #1, key 'K': K=5e-324 is "
                   "too small for N=3.0: K/(N-1) underflows to 0\n")


def test_model_profile_that_overflows_is_a_typed_error(capsys):
    # K/(N-1) = 1e308/1e-7 overflows; the profile command printed inf, and
    # now CurvatureDimension refuses it
    assert main(["profile", "--K", "1e308", "--N", "1.0000001", "--v", "0.3"]) == 2
    assert capsys.readouterr().out == ("FAIL check=cli reason=ParameterError: K/(N-1) "
                                       "overflows a float at K=1e+308, N=1.0000001\n")


def test_overflowing_distortion_profile_is_a_typed_failure(capsys):
    # H = 31 cot(1e-5) is about 3.1e6 at this small cap of the 63-sphere, and
    # J = (cos + H/62 sin)^62 overflows a float in the corollary-positive-K
    # bound; h(0) is about 1.6e-310, so the outer tube's mass is refused
    assert main(["run", str(CONFIGS / "sphere_equator.cfg"), "--set", "geometry.n=63",
                 "--set", "geometry.radius=2", "--set", "surface.r0=2e-5",
                 "--set", "run.checks=hk-outer,corollaries", "--set", "run.t_values=1e-6",
                 "--path", "-"]) == 1
    out = capsys.readouterr().out
    assert ("FAIL check=hk-outer reason=ParameterError: the needle density is subnormal "
            "on average over the outer tube of width 1e-06") in out
    assert ("FAIL check=corollaries reason=ParameterError: the distortion profile J "
            "overflows a float at these parameters") in out
    assert "Traceback" not in out
    assert "InequalityViolation" not in out


def test_subnormal_tube_mass_is_a_typed_failure(capsys):
    # h(0) = 2 pi r0 / (pi R^2) = 2e-310 is subnormal here: the tube masses of the
    # narrow widths lose their digits, so they are refused, not compared
    ball = [str(CONFIGS / "euclidean_ball.cfg"), "--set", "geometry.n=2",
            "--set", "geometry.R=1e150", "--set", "surface.r0=1e-10",
            "--set", "run.checks=hk-outer", "--path", "-", "--format", "csv"]
    for t in ("1e-12", "1e-11"):
        assert main(["run", *ball, "--set", f"run.t_values={t}"]) == 1
        out = capsys.readouterr().out
        assert (f"FAIL check=hk-outer reason=ParameterError: the needle density is "
                f"subnormal on average over the outer tube of width {t}") in out
        assert "InequalityViolation" not in out and "Traceback" not in out
    # the outer tube of width 1 reaches the ray end: an exact equality case
    assert main(["run", *ball, "--set", "run.t_values=1"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1].split(",")
    assert summary[0] == "hk-outer" and summary[6] == "true"
    assert abs(float(summary[5])) < 1e-15


def test_outer_bound_needs_no_profile_match(tmp_path, capsys):
    # J_0 = cosh(sqrt(50) r)^2 at K = -100, N = 3 overflows a float within the
    # interval [-100, 100], but the outer bound integrates J over [0, t] only
    config = tmp_path / "steep.cfg"
    config.write_text("[geometry]\nkind = weighted-interval\nK = -100\nN = 3\n"
                      "density = constant\nlength = 200\n[surface]\nr0 = 100\n"
                      "[run]\nchecks = hk-outer\nt_values = 0.1, 1.0\n")
    assert main(["run", str(config), "--format", "csv", "--path", "-"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [(row[0], row[1]) for row in rows] == [("hk-outer", "0.1")] * 2 + \
        [("hk-outer", "1.0")] * 2
    for (needle, summary), lhs, rhs in zip((rows[:2], rows[2:]), (0.1, 1.0),
                                           (0.11841494360042955, 24506.7282702168)):
        assert needle[2] == "" and float(needle[3]) == float(summary[3])
        assert float(summary[2]) == pytest.approx(lhs, rel=1e-14)
        assert float(summary[3]) == pytest.approx(rhs, rel=1e-12)
        assert summary[6] == "false"


# ------------------------------------------------- README experiment recipes

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"  # the example's rigidity


def test_readme_config_block_parses(tmp_path, capsys):
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    config = parse_config(blocks[0])
    assert config.geometry == RoundSphere(2, 1.0) and config.expect == "rigid"
    assert config.output_path == "out.txt"
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0])
    assert main(["run", str(path), "--path", "-"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_readme_config_block_lists_every_check_in_order():
    block = re.findall(r"^```ini\n(.*?)^```", README.read_text(), re.S | re.M)[0]
    listed = re.search(r"^# from:(.*?)^checks =", block, re.S | re.M).group(1)
    assert tuple(listed.replace("#", " ").split()) == tuple(CHECKS)


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
                        f"{str(verdict.equality).lower()},,,")
    assert main(recipe + ["--set", "run.expect=rigid"]) == 1
    assert (f"FAIL check=rigidity reason=expected rigid but conditions failed: "
            f"{verdict.failed}") in capsys.readouterr().out
