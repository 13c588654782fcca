"""cli.parse_args against the argparse parser it replaced (argparse_reference):
the same command and values on every documented command line and on drawn
well-formed ones, and exit status 2 from both on malformed ones."""

import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from needlecomp import cli
from argparse_reference import argparse_outcome

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse_args_outcome(argv):
    """argparse_outcome's result for cli.parse_args."""
    try:
        command, values = cli.parse_args(argv)
    except cli._UsageError:
        return 2
    return 0 if values is None else (command, values)


# The command lines of README.md and .github/workflows/tier1.yml, with the
# shell variables of the recipes filled in.
DOCUMENTED = [
    "run configs/sphere_equator.cfg",
    "run configs/euclidean_ball.cfg --format csv --path out.csv",
    "run configs/suspension.cfg --set surface.r0=1.1",
    "jacobian --H 1.0 --K 0.0 --N 2.0 --r 0.5",
    "profile --K 1.0 --N 2.0 --v 0.5",
    "version",
    "run configs/sphere_equator.cfg --set surface.r0=0.7 --set run.checks=hk-outer "
    "--set run.t_values=0.5,1,1.5,2 --format plotdata",
    "run configs/truncated_interval.cfg --set surface.r0=0.5 --set run.checks=hk-full,rigidity "
    "--format csv",
    "run /tmp/tmp.readme.cfg --path -",
    "run configs/euclidean_ball.cfg --path -",
    "run configs/euclidean_ball.cfg --set run.checks=cd-density --set run.grid_size=1500 --path -",
    "run configs/sphere_equator.cfg --set run.checks=cd-density --set run.grid_size=1500 --path -",
    "run configs/euclidean_ball.cfg --set run.checks=sturm,ratio --set run.grid_size=1500 --path -",
    "run configs/suspension.cfg --set run.checks=sturm,ratio --set run.grid_size=1500 --path -",
    "run configs/suspension.cfg --set geometry.K=5e-324 --set geometry.N=3 --path -",
    "run configs/truncated_interval.cfg --set geometry.K=5e-324 --set geometry.N=3 --path -",
    "profile --K 1e308 --N 1.0000001 --v 0.3",
    "run configs/euclidean_ball.cfg --set geometry.n=90 --set run.checks=minkowski --path -",
    "run configs/sphere_equator.cfg --set geometry.n=5 --set geometry.radius=1.3 "
    "--set surface.r0=2.0420352248333655 --path -",
    "run configs/suspension.cfg --set geometry.base_volume=5e307 --path -",
    "run configs/sphere_equator.cfg --set geometry.n=400 --set geometry.radius=1e4 "
    "--set surface.r0=100.0 --path -",
    "run configs/sphere_equator.cfg --set geometry.radius=1e-200 --set surface.r0=1e-200 --path -",
    "jacobian --H 1 --K 1e308 --N 1.0000001 --r 0.5",
    "profile --K 5e-324 --N 3 --v 0.3",
    "profile --K 1e-320 --N 3 --v 0.3",
    "jacobian --H 1 --K 1e-320 --N 3 --r 0.5",
    "run configs/sphere_equator.cfg --set geometry.radius=1e100 --set surface.r0=1e99 "
    "--set run.checks=corollaries --path -",
    "run configs/sphere_equator.cfg --set geometry.radius=1e-150 --set surface.r0=1e-150 --path -",
    "run configs/sphere_equator.cfg --set run.checks=hk-outer --path -",
    "jacobian --H 1 --K -1e-5 --N 3 --r 0.5",
    "run bad.cfg --path -",
    "--help",
    "run --help",
]


@pytest.mark.parametrize("line", DOCUMENTED)
def test_documented_command_lines_parse_as_argparse_parsed_them(line):
    outcome = parse_args_outcome(line.split())
    assert outcome == argparse_outcome(line.split())
    assert outcome != 2


@pytest.mark.parametrize("seed", [401, 1913, 7301])
def test_cli_cold_command_lines_parse_as_argparse_parsed_them(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ops = importlib.import_module("cases").cli_ops(seed)
    for op in ops:
        argv = [arg.format(tmp="/tmp/cli-x") for arg in op]
        assert parse_args_outcome(argv) == argparse_outcome(argv) != 2


# Each command's flags and a strategy for a value of each.  A run value that
# starts with '-' is '-' or a negative integer: argparse takes -2.5e3 for an
# option there, as it only ever took exponents on jacobian and profile.
_REALS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), f"{x:e}", f"{x:.3E}", f"{x:f}"]))
_FLAGS = {
    "run": {"set": st.from_regex(r"\A[a-z]{1,8}\.[a-z_]{1,10}=[-0-9a-z.,]{0,12}\Z"),
            "format": st.sampled_from(cli.FORMATS),
            "path": st.sampled_from(["-", "out.csv", "/tmp/x y/out.txt", "-1"])},
    "jacobian": dict.fromkeys("HKNr", _REALS),
    "profile": dict.fromkeys("KNv", _REALS),
    "version": {},
}


@st.composite
def well_formed_argv(draw):
    """A command with each required flag, some flags again, in any order,
    spelled in full or by a prefix, with '=' or a separate value; a run's
    configuration path goes before, between or after them."""
    command = draw(st.sampled_from(list(_FLAGS)))
    flags = _FLAGS[command]
    names = [] if command in ("run", "version") else list(flags)
    if flags:
        names += draw(st.lists(st.sampled_from(list(flags)), max_size=5))
    options = []
    for name in draw(st.permutations(names)):
        # every prefix of a flag is unique among the command's flags and --help
        spelled = "--" + name[:draw(st.integers(1, len(name)))]
        value = draw(flags[name])
        options.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    if command == "run":
        config = draw(st.sampled_from(["configs/sphere_equator.cfg", "a.cfg", "-"]))
        options.insert(draw(st.integers(0, len(options))), [config])
    return [command, *(word for option in options for word in option)]


@settings(max_examples=400, deadline=None)
@given(well_formed_argv())
def test_well_formed_command_lines_parse_as_argparse_parses_them(argv):
    outcome = parse_args_outcome(argv)
    assert outcome == argparse_outcome(argv)
    assert outcome != 2


def test_negative_values_with_an_exponent_are_values():
    argv = ["jacobian", "--H", "-1e0", "--K=-1E-5", "--N", "3", "--r", "-.5e+1"]
    assert parse_args_outcome(argv) == argparse_outcome(argv) == (
        "jacobian", {"H": -1.0, "K": -1e-5, "N": 3.0, "r": -5.0})


def test_the_last_flag_wins_and_set_repeats():
    argv = ["run", "--form", "csv", "--s", "a.b=1", "x.cfg", "--pa", "-", "--se=c.d=2",
            "--format=plotdata"]
    assert parse_args_outcome(argv) == argparse_outcome(argv) == (
        "run", {"config": "x.cfg", "set": ["a.b=1", "c.d=2"], "format": "plotdata",
                "path": "-"})


MALFORMED = [
    [],
    ["bogus"],
    ["Run", "a.cfg"],
    ["--bogus", "version"],
    ["run"],
    ["run", "--path", "-"],
    ["run", "a.cfg", "b.cfg"],
    ["run", "a.cfg", "--format", "xml"],
    ["run", "a.cfg", "--format"],
    ["run", "a.cfg", "--path", "--format", "csv"],
    ["run", "a.cfg", "--bogus", "1"],
    # the empty prefix is the only one that more than one flag shares
    ["run", "a.cfg", "--=csv"],
    ["run", "a.cfg", "--help=x"],
    ["run", "a.cfg", "-x"],
    ["jacobian", "--H", "1", "--K", "0", "--N", "2"],
    ["jacobian", "--H", "1", "--K", "0", "--N", "2", "--r"],
    ["jacobian", "--H", "1", "--K", "-inf", "--N", "2", "--r", "0.5"],
    ["jacobian", "--H", "1", "--K", "0", "--N", "2", "--r", "0.5", "extra"],
    ["profile", "--K", "x", "--N", "2", "--v", "0.5"],
    ["profile", "--K", "1", "--N", "2", "--v", "1e"],
    ["profile", "--K", "1", "--N", "2", "--v", "-"],
    ["version", "extra"],
    ["version", "--path", "-"],
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_command_lines_are_usage_errors_in_both(argv):
    assert parse_args_outcome(argv) == argparse_outcome(argv) == 2
