"""Each shipped configuration's output in every format, against the bytes
committed under tests/golden/.  A file there is the standard output of
`needlecomp run configs/<name>.cfg --format <format> --path -`; a change that
moves an output must say why, and regenerate the file with that command.

tests/all_checks/<name>.csv holds the standard output of every check on each
shipped configuration:
`needlecomp run configs/<name>.cfg --set run.checks=<ALL_CHECKS> --set
run.t_values=0.25,0.5 --format csv --path -`."""

from pathlib import Path

import pytest

from needlecomp.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
ALL_CHECKS = ("cd-density,sturm,ratio,hk-outer,hk-full,corollaries,levy-gromov,rigidity,"
              "minkowski")
# The flat ball (K = 0) fails the three checks that need K > 0.
ALL_CHECKS_EXIT = {"euclidean_ball": 1}


def test_every_shipped_output_has_a_golden_file():
    names = {f"{cfg.stem}.{fmt}" for cfg in CONFIGS for fmt in ("report", "csv", "plotdata")}
    assert names == {p.name for p in (ROOT / "tests" / "golden").iterdir()}


@pytest.mark.parametrize("fmt", ("report", "csv", "plotdata"))
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.stem)
def test_shipped_output_is_golden(cfg, fmt, capsys):
    assert main(["run", str(cfg), "--format", fmt, "--path", "-"]) == 0
    golden = ROOT / "tests" / "golden" / f"{cfg.stem}.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


def test_every_shipped_config_has_an_all_checks_file():
    names = {f"{cfg.stem}.csv" for cfg in CONFIGS}
    assert names == {p.name for p in (ROOT / "tests" / "all_checks").iterdir()}


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.stem)
def test_every_check_on_every_shipped_config_is_golden(cfg, capsys):
    code = main(["run", str(cfg), "--set", f"run.checks={ALL_CHECKS}",
                 "--set", "run.t_values=0.25,0.5", "--format", "csv", "--path", "-"])
    assert code == ALL_CHECKS_EXIT.get(cfg.stem, 0)
    golden = ROOT / "tests" / "all_checks" / f"{cfg.stem}.csv"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
