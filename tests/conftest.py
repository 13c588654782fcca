import subprocess
import sys
from pathlib import Path

import pytest

import needlecomp

# Calls that once failed to terminate run in a child process with this budget,
# so that a regression fails its test instead of hanging the suite.
ISOLATED_TIMEOUT_S = 30.0


@pytest.fixture
def run_isolated():
    """Run Python source in a fresh interpreter that imports this needlecomp;
    return its standard output, failing the test on a timeout or an error."""
    src = str(Path(needlecomp.__file__).resolve().parents[1])

    def run(code: str) -> str:
        try:
            done = subprocess.run(
                [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n{code}"],
                capture_output=True, text=True, timeout=ISOLATED_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pytest.fail(f"did not terminate within {ISOLATED_TIMEOUT_S} s")
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
