"""Each shipped configuration's output in every format, against the bytes
committed under tests/golden/.  A file there is the standard output of
`needlecomp run configs/<name>.cfg --format <format> --path -`; a change that
moves an output must say why, and regenerate the file with that command."""

from pathlib import Path

import pytest

from needlecomp.cli import main

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))


def test_every_shipped_output_has_a_golden_file():
    names = {f"{cfg.stem}.{fmt}" for cfg in CONFIGS for fmt in ("report", "csv", "plotdata")}
    assert names == {p.name for p in (ROOT / "tests" / "golden").iterdir()}


@pytest.mark.parametrize("fmt", ("report", "csv", "plotdata"))
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda cfg: cfg.stem)
def test_shipped_output_is_golden(cfg, fmt, capsys):
    assert main(["run", str(cfg), "--format", fmt, "--path", "-"]) == 0
    golden = ROOT / "tests" / "golden" / f"{cfg.stem}.{fmt}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
